"""From-scratch HTML main-content extractor (boilerplate stripper).

Readability/Boilerpipe-style block scoring over a token stream from the
module's own regex tokenizer (no lxml in this environment, and the north
rule demands a from-scratch codec anyway).

Tokenizer contract
------------------
``_tokens`` yields exactly the events that the standard library's
``HTMLParser(convert_charrefs=True)`` delivers to its handlers when fed
the whole document once and then closed:

- tag names are lower-cased; ``<x .../>`` is one start-end event;
- text runs are cut at every ``<`` and only text runs are unescaped
  (charrefs split by a tag stay split); a ``<`` that opens nothing is a
  text chunk of its own;
- ``script``/``style`` content is raw text up to ``</script\\s*>``
  (case-insensitive); an unterminated element swallows the rest of the
  document;
- comments, ``<!...>``, ``<?...>`` and ``<![...]]>`` produce no event;
  a construct left open at EOF is emitted as text up to the next ``>``
  (or the next ``<``), as the stdlib does on ``close()``;
- an unknown ``<![`` keyword raises, as the stdlib does.

Common tags, end tags and text runs match one compiled regex scanned in
C; anything else takes an exact re-implementation of the stdlib's rules.
Every search for a closing delimiter remembers where it failed ("no
``-->`` at or after p" holds for every later p too), so hostile input
such as ``"<!--" * n`` stays linear.  The differential tests in
``tests/`` check all three consumers against the stdlib parser.

Model
-----
The document is segmented into flat text *blocks* at block-level tag
boundaries.  Each block carries:

- normalized text (whitespace runs collapsed to single spaces)
- total character count and anchor-text character count
- its tag kind and whether any ancestor is a boilerplate container
  (``nav/aside/header/footer``) or the ``head``

Classification (deterministic, order-independent per block, plus one
context pass):

1. blocks inside boilerplate containers / head are never content
2. ``link_density = link_chars / chars``; blocks with
   ``link_density > MAX_LINK_DENSITY`` are boilerplate
3. blocks matching the legal/disclaimer vocabulary are boilerplate
   (same exclusion idea as the reference's exclude patterns,
   reference: extractor/parsers/construction.py:15-27)
4. headings (h1..h6) with low link density are content
5. prose blocks with >= MIN_CONTENT_WORDS words are content
6. table rows (assembled from their cells, joined by " | ") with zero
   link text are content
7. context pass: a short prose block sandwiched next to a content
   block is promoted (Boilerpipe's "short block next to content" rule)

Output: ``extracted_text`` = content blocks joined by "\\n\\n", plus a
span per block with UTF-8 byte offsets into ``extracted_text``.

The codec is pure and stateless; its patterns are compiled once at
import, so a ``map_batches`` callable class pays nothing per batch.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from typing import Iterator, List, Optional, Tuple

MAX_LINK_DENSITY = 0.33
MIN_CONTENT_WORDS = 10
MIN_PROMOTE_WORDS = 3

# tags whose subtree is never text content
_IGNORED_SUBTREES = frozenset(
    {"script", "style", "noscript", "template", "svg", "head", "title", "iframe"}
)
# containers that mark everything inside as boilerplate
_BOILER_CONTAINERS = frozenset({"nav", "aside", "header", "footer"})
# tags that terminate/open a text block
_BLOCK_TAGS = frozenset(
    {
        "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "pre", "blockquote",
        "div", "article", "section", "main", "body", "ul", "ol", "table",
        "caption", "figcaption", "dd", "dt", "br", "hr", "form",
    }
)
# block tags that are void: they end the current block but never set its
# kind, and their self-closing form has no end event
_VOID_BLOCK_TAGS = frozenset({"br", "hr"})
_HEADINGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})


# legal/disclaimer vocabulary — reference exclusion idea
_LEGAL_RE = re.compile(
    r"\b(all\s+rights\s+reserved|copyright|©|terms\s+of\s+(use|service)"
    r"|privacy\s+policy|cookie|strictly\s+prohibited|confidential|proprietary)\b",
    re.IGNORECASE,
)
# One word of each alternative.  Under re.IGNORECASE an ASCII letter
# matches only its two cases, plus U+212A for k (whose lower() is "k"),
# U+017F for s and U+0130, U+0131 for i (whose lower() is not s or i).
# So unless the text holds one of those three, a match implies an
# anchor in text.lower().  No anchor spans a newline, so the test also
# holds for texts joined with newlines.
_LEGAL_ANCHORS = ("rights", "copyright", "©", "terms", "privacy", "cookie",
                  "strictly", "confidential", "proprietary")


def _may_be_legal(text: str) -> bool:
    """False only if ``_LEGAL_RE`` cannot match ``text``."""
    if not text.isascii() and (
        "\u017f" in text or "\u0130" in text or "\u0131" in text
    ):
        return True
    low = text.lower()
    for word in _LEGAL_ANCHORS:
        if word in low:
            return True
    return False


# ---------------------------------------------------------------- tokenizer
TEXT, START, END, STARTEND = 0, 1, 2, 3
_CDATA_ELEMENTS = ("script", "style")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

# Fast path.  Alternatives: (1) text run; (2, 3) a start tag whose
# attributes are whitespace-separated and whose parse the stdlib can only
# end at this '>' — every part is possessive, so a match is the greedy
# parse the stdlib makes, and no part crosses a '<' outside a quoted
# value; (4) an end tag the stdlib's ``endtagfind`` accepts; (5) a '<'
# that opens nothing; the bare '<' is everything else (slow path).
_ATTR = (
    r"""[^\s/>="'<][^\s/=><]*+"""
    r"""(?:\s*+=+\s*+(?:'[^']*+'|"[^"]*+"|(?!['"])[^>\s<]*+))?"""
)
_FAST_RE = re.compile(
    r"([^<]+)"
    r"|<([a-zA-Z][^\t\n\r\f />\x00<]*+)(?:\s++(?>" + _ATTR + r"))*+\s*+(/?)>"
    r"|</\s*+([a-zA-Z][-.a-zA-Z0-9:_]*+)\s*+>"
    r"|(<)(?![a-zA-Z/!?])"
    r"|<"
)

# The standard library parser's own patterns, for the slow path.
_TAG_NAME = re.compile(r"[a-zA-Z][^\t\n\r\f />\x00]*")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=[\'\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"(\'[^\']*\'|\"[^\"]*\"|(?![\'\"])[^>\s]*))?(?:\s|/(?!>))*"
)
# the stdlib's ``locatestarttagend_tolerant``, taken apart: tag name, the
# run of spaces and slashes after it, then one step per attribute, then
# trailing spaces
_TAG_GAP = re.compile(r"[\s/]*")
_ATTR_STEP = re.compile(r"""
  (?<=['"\s/])[^\s/>][^\s/=>]*     # attribute name
  (?:\s*=+\s*                       # value indicator
    (?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)
    \s*
  )?(?:\s|/(?!>))*
""", re.VERBOSE)
_SPACES = re.compile(r"\s*")
_ENDTAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_CLOSE = re.compile(r"]\s*]\s*>")
_MS_MARKED_CLOSE = re.compile(r"]\s*>")
_CDATA_END = {e: re.compile(r"</\s*%s\s*>" % e, re.I) for e in _CDATA_ELEMENTS}


class _Markup:
    """Exact slow path for the markup the fast pattern does not take.

    One instance per document.  Each closing-delimiter search that fails
    records its start position, so a later search from a position at or
    after it answers "not found" without scanning.
    """

    def __init__(self, s: str) -> None:
        self.s = s
        self.n = len(s)
        self.last_gt = s.rfind(">")
        self.failed: dict = {}  # pattern -> first position it failed from
        self.name = (0, 0)  # (start, end) of the last start tag's name
        self.name_scan: dict = {}  # tag-name end -> start-tag scan end
        self.attr_scan: dict = {}  # attribute boundary -> start-tag scan end

    def find_gt(self, p: int) -> int:
        return self.s.find(">", p) if p <= self.last_gt else -1

    def scan_end(self, i: int) -> int:
        """Where the stdlib's start-tag scan from ``s[i] == '<'`` ends.

        The scan is a name, a gap, then attribute steps; what follows a
        name end or a step boundary depends on that position alone, so
        both are memoized.  A '<'+letter inside the last name shares its
        name end.  Runs such as ``'<a b' * n`` stay linear this way."""
        lo, name_end = self.name
        if not lo < i < name_end:
            name_end = _TAG_NAME.match(self.s, i + 1).end()
            self.name = (i, name_end)
        end = self.name_scan.get(name_end)
        if end is None:
            p = _TAG_GAP.match(self.s, name_end).end()
            end = self.name_scan[name_end] = self.attrs_end(p)
        return end

    def attrs_end(self, p: int) -> int:
        memo, seen = self.attr_scan, []
        end = memo.get(p)
        while end is None:
            seen.append(p)
            m = _ATTR_STEP.match(self.s, p)
            if m is None:
                end = _SPACES.match(self.s, p).end()
            else:
                p = m.end()
                end = memo.get(p)
        for q in seen:
            memo[q] = end
        return end

    def search(self, pattern, p: int):
        if p >= self.failed.get(pattern, self.n + 1):
            return None
        m = pattern.search(self.s, p)
        if m is None:
            self.failed[pattern] = p
        return m

    def at(self, i: int):
        """Events for the construct at ``s[i] == '<'``; returns the
        position after it (``n`` once a raw-text element swallowed the
        rest)."""
        s = self.s
        nxt = s[i + 1:i + 2]
        if nxt in _NAME_START:
            k = yield from self.starttag(i)
        elif nxt == "/":
            k = yield from self.endtag(i)
        elif s.startswith("<!--", i):
            m = self.search(_COMMENT_CLOSE, i + 4)
            k = m.end() if m else -1
        elif nxt == "?":
            k = self.find_gt(i + 2)
            k = k + 1 if k >= 0 else -1
        else:  # "<!" (the fast pattern takes a '<' that opens nothing)
            k = self.declaration(i)
        if k >= 0:
            return k
        # left open at EOF: the stdlib's close() emits it as text
        k = self.find_gt(i + 1)
        if k < 0:
            k = s.find("<", i + 1)
            if k < 0:
                k = i + 1
        else:
            k += 1
        yield TEXT, unescape(s[i:k]), 0
        return k

    def starttag(self, i: int):
        s = self.s
        j = self.scan_end(i)
        c = s[j:j + 1]
        if c == ">":
            endpos = j + 1
        elif c == "/":
            if not s.startswith("/>", j):
                return -1
            endpos = j + 2
        elif c == "" or c in _NAME_START or c == "=":
            return -1
        else:
            endpos = j if j > i else i + 1
        m = _TAGFIND.match(s, i + 1)
        tag = m.group(1).lower()
        k = m.end()
        while k < endpos:
            m = _ATTRFIND.match(s, k)
            if not m:
                break
            k = m.end()
        end = s[k:endpos].strip()
        if end not in (">", "/>"):
            yield TEXT, s[i:endpos], 0
            return endpos
        if end.endswith("/>"):
            yield STARTEND, tag, i
            return endpos
        yield START, tag, i
        if tag in _CDATA_ELEMENTS:
            return (yield from _raw_text(s, endpos, tag))
        return endpos

    def endtag(self, i: int):
        s = self.s
        gt = self.find_gt(i + 1)
        if gt < 0:
            return -1
        # (the fast pattern takes every end tag ``_ENDTAG`` accepts)
        m = _TAGFIND.match(s, i + 2)
        if not m:
            if s.startswith("</>", i):
                return i + 3
            return gt + 1  # bogus comment up to the first '>'
        yield END, m.group(1).lower(), 0
        return s.find(">", m.end()) + 1

    def declaration(self, i: int) -> int:
        s = self.s
        if s.startswith("<![", i):
            return self.marked_section(i)
        if s[i:i + 9].lower() == "<!doctype":
            gt = self.find_gt(i + 9)
        else:
            gt = self.find_gt(i + 2)  # bogus comment
        return gt + 1 if gt >= 0 else -1

    def marked_section(self, i: int) -> int:
        j = i + 3
        if j == self.n:
            return -1
        m = _DECL_NAME.match(self.s, j)
        if not m:
            raise AssertionError("expected name token")
        if m.end() == self.n:
            return -1
        name = m.group().strip().lower()
        if name in ("temp", "cdata", "ignore", "include", "rcdata"):
            m = self.search(_MARKED_CLOSE, j)
        elif name in ("if", "else", "endif"):
            m = self.search(_MS_MARKED_CLOSE, j)
        else:
            raise AssertionError("unknown status keyword in marked section")
        return m.end() if m else -1


def _raw_text(s: str, p: int, elem: str):
    """Events for ``script``/``style`` content from ``p``; returns the
    position after the end tag, or ``len(s)`` when there is none."""
    close = _CDATA_END[elem]
    while True:
        m = close.search(s, p)
        if m is None:
            return len(s)
        j, gtpos = m.start(), m.end()
        if p < j:
            yield TEXT, s[p:j], 0
        e = _ENDTAG.match(s, j)
        if e and e.group(1).lower() == elem:
            yield END, elem, 0
            return gtpos
        # re.I also folds 'ſ'/'ı' onto s/i; endtagfind does not
        yield TEXT, s[j:gtpos], 0
        p = gtpos


def _tokens(s: str) -> Iterator[Tuple[int, str, int]]:
    """``(event, value, pos)`` for the whole document: ``value`` is the
    text of a TEXT event or the lower-cased tag name, ``pos`` the offset
    of a start tag's ``<`` (0 for other events)."""
    n = len(s)
    pos = 0
    slow = None
    while pos < n:
        for m in _FAST_RE.finditer(s, pos):
            g = m.lastindex
            if g == 1:
                t = m.group(1)
                yield TEXT, unescape(t) if "&" in t else t, 0
            elif g == 3:
                tag = m.group(2).lower()
                if m.group(3):
                    yield STARTEND, tag, m.start()
                else:
                    yield START, tag, m.start()
                    if tag in _CDATA_ELEMENTS:
                        pos = yield from _raw_text(s, m.end(), tag)
                        break
            elif g == 4:
                yield END, m.group(4).lower(), 0
            elif g == 5:
                yield TEXT, "<", 0
            else:
                if slow is None:
                    slow = _Markup(s)
                pos = yield from slow.at(m.start())
                break
        else:
            return


def _attrs(s: str, pos: int) -> dict:
    """Attributes of the start tag at ``s[pos]``, parsed as the stdlib
    does (names lower-cased, quotes stripped, values unescaped, later
    duplicates win), values ``None`` → ``""``."""
    m = _TAGFIND.match(s, pos + 1)
    k = m.end()
    out = {}
    while True:
        m = _ATTRFIND.match(s, k)
        if not m:
            return out
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
        out[name.lower()] = value or ""
        k = m.end()


# ------------------------------------------------------------ block builder
# A block is (text, chars, link_chars, kind, boiler, words): ``chars`` and
# ``link_chars`` sum the stripped length of each text chunk, ``boiler``
# marks a block inside nav/aside/header/footer.
Block = Tuple[str, int, int, str, bool, int]


@dataclass
class HtmlExtraction:
    text: str
    spans: List[Tuple[int, int, int, str]] = field(default_factory=list)
    # (block_id, start, stop, kind) — byte offsets into text (UTF-8)
    n_blocks: int = 0
    status: str = "ok"
    # ragged tables → rows → cells (nullable), same shape the reference
    # uses for PDF tables (reference: extractor/models/base.py:39-42)
    tables: List[List[List[Optional[str]]]] = field(default_factory=list)
    n_words: int = 0  # len(text.split()), summed from the content blocks


# what each tag the block builder reacts to does; every other tag is inert
_IGNORED, _ANCHOR, _BOILER, _ROW, _CELL, _BLOCK, _VOID_BLOCK, _TABLE = range(1, 9)
_ROLES = {
    **dict.fromkeys(_IGNORED_SUBTREES, _IGNORED),
    "a": _ANCHOR,
    **dict.fromkeys(_BOILER_CONTAINERS, _BOILER),
    "tr": _ROW,
    "td": _CELL,
    "th": _CELL,
    **dict.fromkeys(_BLOCK_TAGS, _BLOCK),
    **dict.fromkeys(_VOID_BLOCK_TAGS, _VOID_BLOCK),
    "table": _TABLE,
}


def _segment(html: str) -> Tuple[List[Block], List[List[List[Optional[str]]]]]:
    """Stream the document into flat blocks and content tables; no tree
    is materialized."""
    blocks: List[Block] = []
    tables: List[List[List[Optional[str]]]] = []
    ignore = boiler = anchor = 0
    buf: List[str] = []
    buf_link = buf_total = 0
    kind = "div"
    # table-row assembly
    row_cells: Optional[List[str]] = None
    row_link = row_total = 0
    cell_buf: Optional[List[str]] = None
    # ragged-table accumulation (content tables only, resolved later)
    open_rows: Optional[List[List[Optional[str]]]] = None

    def flush() -> None:
        nonlocal buf, buf_link, buf_total
        if buf:
            words = (buf[0] if len(buf) == 1 else "".join(buf)).split()
            if words:
                blocks.append((" ".join(words), buf_total, buf_link, kind,
                               boiler > 0, len(words)))
            buf = []
        buf_link = buf_total = 0

    roles = _ROLES
    for ev, val, _ in _tokens(html):
        if ev == TEXT:
            if ignore or not val:
                continue
            n = len(val.strip())
            if cell_buf is not None:
                cell_buf.append(val)
                row_total += n
                if anchor:
                    row_link += n
            else:
                buf.append(val)
                buf_total += n
                if anchor:
                    buf_link += n
            continue
        role = roles.get(val)
        if role is None:
            continue
        if ev != END:  # start tag
            if role == _IGNORED:
                ignore += 1
                continue
            if ignore:
                continue
            if role == _ANCHOR:
                anchor += 1
            elif role == _BOILER:
                flush()
                boiler += 1
            elif role == _ROW:
                flush()
                row_cells = []
                row_link = row_total = 0
            elif role == _CELL:
                if row_cells is not None:
                    cell_buf = []
            else:
                flush()
                if role == _TABLE:
                    open_rows = []
                if role != _VOID_BLOCK:
                    kind = val
            if ev == START or role == _VOID_BLOCK:
                continue
        # end tag (or the end half of <x/>)
        if role == _IGNORED:
            ignore = max(0, ignore - 1)
        elif ignore:
            pass
        elif role == _ANCHOR:
            anchor = max(0, anchor - 1)
        elif role == _BOILER:
            flush()
            boiler = max(0, boiler - 1)
        elif role == _CELL:
            if cell_buf is not None:
                cell = " ".join("".join(cell_buf).split())
                if row_cells is not None:
                    row_cells.append(cell)
                cell_buf = None
        elif role == _ROW:
            if row_cells is not None:
                cells = [c for c in row_cells if c]
                if cells:
                    text = " | ".join(cells)
                    blocks.append((text, row_total or len(text), row_link, "tr",
                                   boiler > 0, len(text.split())))
                if open_rows is not None and not boiler:
                    open_rows.append([c if c else None for c in row_cells])
                row_cells = None
        else:
            if role == _TABLE:
                if open_rows:
                    tables.append(open_rows)
                open_rows = None
            flush()
            kind = "div"
    flush()
    return blocks, tables


def _classify(blocks: List[Block]) -> List[bool]:
    """Per-block content flags (see the module docstring's rules)."""
    content = [False] * len(blocks)
    legal = [False] * len(blocks)
    # blocks outside boilerplate containers with low enough link density
    scored = [
        i for i, (text, chars, link, _, boiler, _) in enumerate(blocks)
        if not boiler and text and not (chars and link / chars > MAX_LINK_DENSITY)
    ]
    # one anchor test over all of them rules out the vocabulary for most pages
    if _may_be_legal("\n".join([blocks[i][0] for i in scored])):
        for i in scored:
            text = blocks[i][0]
            legal[i] = _may_be_legal(text) and _LEGAL_RE.search(text) is not None
    for i in scored:
        if legal[i]:
            continue
        _, _, link, kind, _, words = blocks[i]
        if kind in _HEADINGS:
            content[i] = True
        elif kind == "tr":
            content[i] = link == 0
        elif words >= MIN_CONTENT_WORDS:
            content[i] = True
    # context pass: promote short prose sandwiched next to content
    last = len(blocks) - 1
    for i, (text, chars, link, kind, boiler, words) in enumerate(blocks):
        if content[i] or boiler or not text:
            continue
        if kind == "tr" or words < MIN_PROMOTE_WORDS:
            continue
        # density <= 0.2 passed the 0.33 test above, so ``legal`` holds
        # this block's vocabulary match
        if (chars and link / chars > 0.2) or legal[i]:
            continue
        if 0 < i < last and content[i - 1] and content[i + 1]:
            content[i] = True
    return content


_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+?(?:charset\s*=\s*["']?\s*([A-Za-z0-9_\-]+)
         |content\s*=\s*["'][^"']*charset=([A-Za-z0-9_\-]+))""",
    re.IGNORECASE | re.VERBOSE,
)

# label → python codec for the encodings that dominate web crawls
_CHARSET_ALIASES = {
    "utf8": "utf-8", "utf-8": "utf-8",
    "iso-8859-1": "latin-1", "iso8859-1": "latin-1", "latin-1": "latin-1",
    "latin1": "latin-1", "windows-1252": "cp1252", "cp1252": "cp1252",
    "windows-1251": "cp1251", "cp1251": "cp1251", "koi8-r": "koi8-r",
    "iso-8859-2": "iso-8859-2", "iso-8859-15": "iso-8859-15",
    "shift_jis": "shift_jis", "shift-jis": "shift_jis", "sjis": "shift_jis",
    "euc-jp": "euc-jp", "gb2312": "gb18030", "gbk": "gb18030",
    "gb18030": "gb18030", "big5": "big5", "euc-kr": "euc-kr",
    "us-ascii": "ascii", "ascii": "ascii",
}


def _decode_html_bytes(payload: bytes) -> str:
    """Charset sniff for crawled pages: BOM → declared <meta charset>
    (first 2048 bytes) → UTF-8 → latin-1-replace. Never raises."""
    if payload[:3] == b"\xef\xbb\xbf":
        return payload[3:].decode("utf-8", errors="replace")
    if payload[:2] in (b"\xff\xfe", b"\xfe\xff"):
        return payload.decode("utf-16", errors="replace")
    m = _META_CHARSET_RE.search(payload[:2048])
    if m:
        label = (m.group(1) or m.group(2)).decode("ascii", "replace").lower()
        codec = _CHARSET_ALIASES.get(label)
        if codec:
            try:
                return payload.decode(codec)
            except (UnicodeDecodeError, LookupError):
                pass
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        # latin-1 maps every byte; closest browser-like fallback
        return payload.decode("latin-1", errors="replace")


class HtmlCodec:
    """Stateless HTML → (extracted_text, spans) codec.

    Reference behavior generalized: the reference extracts page text via
    pdfplumber and filters item noise downstream; at web scale the
    analogous step is DOM boilerplate stripping (north rule).
    """

    def extract(self, payload: bytes | str) -> HtmlExtraction:
        if isinstance(payload, bytes):
            html = _decode_html_bytes(payload)
        else:
            html = payload
        try:
            blocks, tables = _segment(html)
        except Exception:
            # degrade-and-continue (mirrors reference swallow policy,
            # reference: extractor/extractors/pdf_text_extractor.py:195-198)
            return HtmlExtraction(text="", status="parse_error")

        flags = _classify(blocks)
        content = [b for b, keep in zip(blocks, flags) if keep]
        if not content:
            return HtmlExtraction(
                text="", status="empty", n_blocks=len(blocks), tables=tables
            )

        spans: List[Tuple[int, int, int, str]] = []
        off = 0
        for i, b in enumerate(content):
            if i:
                off += 2  # len(b"\n\n")
            t = b[0]
            nbytes = len(t) if t.isascii() else len(t.encode("utf-8"))
            spans.append((i, off, off + nbytes, b[3]))
            off += nbytes
        return HtmlExtraction(
            text="\n\n".join([b[0] for b in content]),
            spans=spans,
            n_blocks=len(blocks),
            status="ok",
            tables=tables,
            n_words=sum([b[5] for b in content]),
        )


def extract_meta(payload: "bytes | str") -> dict:
    """HTML payload → page metadata dict (all values nullable):
    ``title, description, canonical_url, html_lang, og_title, robots``.

    Head metadata: title text, meta description, rel=canonical link,
    ``<html lang>``, og:title, robots directives; first wins, like
    browsers.  Start tags after ``</head>`` are ignored (body meta is
    non-standard).  Charset-sniffed like the main codec; never raises
    (crawled heads are the most malformed HTML there is)."""
    if isinstance(payload, bytes):
        html = _decode_html_bytes(payload)
    else:
        html = payload
    meta: dict = dict.fromkeys(
        ("title", "description", "canonical_url", "html_lang", "og_title", "robots")
    )
    in_title = done = False
    title_buf: List[str] = []
    try:
        for ev, tag, pos in _tokens(html):
            if ev == TEXT:
                if in_title:
                    title_buf.append(tag)
                continue
            if ev != END and not done:
                if tag == "title":
                    in_title = True
                elif tag in ("html", "meta", "link"):
                    _head_tag(meta, tag, _attrs(html, pos))
            if ev == START:
                continue
            if tag == "title":
                in_title = False
                if meta["title"] is None:
                    meta["title"] = " ".join("".join(title_buf).split()) or None
            elif tag == "head":
                done = True
            if done and not in_title:
                break  # no later event can change the result
    except Exception:
        pass
    return meta


def _head_tag(meta: dict, tag: str, a: dict) -> None:
    if tag == "html":
        if meta["html_lang"] is None and a.get("lang"):
            meta["html_lang"] = a["lang"].strip().lower()
    elif tag == "meta":
        name = a.get("name", "").lower()
        prop = a.get("property", "").lower()
        content = a.get("content", "").strip()
        if name == "description" and meta["description"] is None and content:
            meta["description"] = content
        elif name == "robots" and meta["robots"] is None and content:
            meta["robots"] = content.lower()
        elif prop == "og:title" and meta["og_title"] is None and content:
            meta["og_title"] = content
    else:
        rels = a.get("rel", "").lower().split()
        if "canonical" in rels and meta["canonical_url"] is None and a.get("href"):
            meta["canonical_url"] = a["href"].strip()


# HTML void elements: never pushed on the open-element stack
_VOID_ELEMENTS = frozenset(
    ("meta", "link", "br", "img", "hr", "input", "area", "base",
     "col", "embed", "source", "track", "wbr")
)
_COUNTED = ("p", "a", "table", "tr", "th", "td")


def structure_stats(payload: "bytes | str") -> dict:
    """HTML payload → DOM structure stats: ``n_p, n_a, n_table, n_tr,
    n_th, n_td, max_depth`` (ints; all 0 for tagless payloads).

    Counts start tags (``<x/>`` included) of the content-bearing tags;
    depth counts open non-void elements and is tolerant of unclosed tags
    (it just never pops).  Charset-sniffed; never raises."""
    if isinstance(payload, bytes):
        html = _decode_html_bytes(payload)
    else:
        html = payload
    counts = dict.fromkeys(_COUNTED, 0)
    depth = max_depth = 0
    try:
        for ev, tag, _ in _tokens(html):
            if ev == TEXT:
                continue
            if ev == END:
                if tag not in _VOID_ELEMENTS and depth > 0:
                    depth -= 1
                continue
            if tag in counts:
                counts[tag] += 1
            if ev == START and tag not in _VOID_ELEMENTS:
                depth += 1
                if depth > max_depth:
                    max_depth = depth
    except Exception:
        pass
    return {
        "n_p": counts["p"],
        "n_a": counts["a"],
        "n_table": counts["table"],
        "n_tr": counts["tr"],
        "n_th": counts["th"],
        "n_td": counts["td"],
        "max_depth": max_depth,
    }
