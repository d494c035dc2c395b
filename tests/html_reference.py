"""Reference oracle for the HTML codec: the stdlib ``html.parser`` version.

This is the block builder, head-metadata collector and structure
collector as they were before the codec moved to its own regex
tokenizer, kept verbatim so the differential tests can compare every
output field of ``pdf_extractor_ray.codecs.html_codec`` against it.  The old module
defined ``_VOID_TAGS`` twice and every parser ran on the second,
13-tag set; only that definition is kept here.  Test-only code: nothing
in the package imports it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import List, Optional, Tuple

from pdf_extractor_ray.codecs.html_codec import _decode_html_bytes

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

# legal/disclaimer vocabulary — reference exclusion idea
_LEGAL_RE = re.compile(
    r"\b(all\s+rights\s+reserved|copyright|©|terms\s+of\s+(use|service)"
    r"|privacy\s+policy|cookie|strictly\s+prohibited|confidential|proprietary)\b",
    re.IGNORECASE,
)


@dataclass
class Block:
    text: str
    chars: int
    link_chars: int
    kind: str
    boiler: bool  # inside nav/aside/header/footer
    is_content: bool = False

    @property
    def words(self) -> int:
        return len(self.text.split())

    @property
    def link_density(self) -> float:
        return self.link_chars / self.chars if self.chars else 0.0


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


class _BlockParser(HTMLParser):
    """Streams the document into flat blocks; no tree is materialized."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: List[Block] = []
        self._ignore_depth = 0
        self._boiler_depth = 0
        self._anchor_depth = 0
        self._buf: List[str] = []
        self._buf_link = 0
        self._buf_total = 0
        self._kind = "div"
        # table-row assembly
        self._row_cells: Optional[List[str]] = None
        self._row_link = 0
        self._row_total = 0
        self._cell_buf: Optional[List[str]] = None
        # ragged-table accumulation (content tables only, resolved later)
        self.tables: List[List[List[Optional[str]]]] = []
        self._open_table_rows: Optional[List[List[Optional[str]]]] = None

    # -- block lifecycle ---------------------------------------------------
    def _flush(self) -> None:
        if self._buf:
            text = " ".join("".join(self._buf).split())
            if text:
                self.blocks.append(
                    Block(
                        text=text,
                        chars=self._buf_total,
                        link_chars=self._buf_link,
                        kind=self._kind,
                        boiler=self._boiler_depth > 0,
                    )
                )
        self._buf = []
        self._buf_link = 0
        self._buf_total = 0

    # -- HTMLParser hooks --------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _IGNORED_SUBTREES:
            self._ignore_depth += 1
            return
        if self._ignore_depth:
            return
        if tag == "a":
            self._anchor_depth += 1
        if tag in _BOILER_CONTAINERS:
            self._flush()
            self._boiler_depth += 1
            return
        if tag == "table":
            self._flush()
            self._open_table_rows = []
        if tag == "tr":
            self._flush()
            self._row_cells = []
            self._row_link = 0
            self._row_total = 0
            return
        if tag in ("td", "th") and self._row_cells is not None:
            self._cell_buf = []
            return
        if tag in _BLOCK_TAGS:
            self._flush()
            if tag not in _VOID_TAGS:
                self._kind = tag

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.handle_starttag(tag, attrs)
        if tag not in _VOID_TAGS and tag not in _IGNORED_SUBTREES:
            self.handle_endtag(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag in _IGNORED_SUBTREES:
            self._ignore_depth = max(0, self._ignore_depth - 1)
            return
        if self._ignore_depth:
            return
        if tag == "a":
            self._anchor_depth = max(0, self._anchor_depth - 1)
            return
        if tag in _BOILER_CONTAINERS:
            self._flush()
            self._boiler_depth = max(0, self._boiler_depth - 1)
            return
        if tag in ("td", "th") and self._cell_buf is not None:
            cell = " ".join("".join(self._cell_buf).split())
            if self._row_cells is not None:
                self._row_cells.append(cell)
            self._cell_buf = None
            return
        if tag == "tr" and self._row_cells is not None:
            cells = [c for c in self._row_cells if c]
            if cells:
                text = " | ".join(cells)
                self.blocks.append(
                    Block(
                        text=text,
                        chars=self._row_total or len(text),
                        link_chars=self._row_link,
                        kind="tr",
                        boiler=self._boiler_depth > 0,
                    )
                )
            if self._open_table_rows is not None and not (self._boiler_depth > 0):
                self._open_table_rows.append(
                    [c if c else None for c in self._row_cells]
                )
            self._row_cells = None
            return
        if tag == "table":
            if self._open_table_rows:
                self.tables.append(self._open_table_rows)
            self._open_table_rows = None
        if tag in _BLOCK_TAGS:
            self._flush()
            self._kind = "div"

    def handle_data(self, data: str) -> None:
        if self._ignore_depth or not data:
            return
        if self._cell_buf is not None:
            self._cell_buf.append(data)
            n = len(data.strip())
            self._row_total += n
            if self._anchor_depth:
                self._row_link += n
            return
        self._buf.append(data)
        n = len(data.strip())
        self._buf_total += n
        if self._anchor_depth:
            self._buf_link += n

    def close(self) -> None:  # final flush
        super().close()
        self._flush()


def _classify(blocks: List[Block]) -> None:
    for b in blocks:
        if b.boiler or not b.text:
            continue
        if b.link_density > MAX_LINK_DENSITY:
            continue
        if _LEGAL_RE.search(b.text):
            continue
        if b.kind in ("h1", "h2", "h3", "h4", "h5", "h6"):
            b.is_content = True
        elif b.kind == "tr":
            if b.link_chars == 0:
                b.is_content = True
        elif b.words >= MIN_CONTENT_WORDS:
            b.is_content = True
    # context pass: promote short prose sandwiched next to content
    for i, b in enumerate(blocks):
        if b.is_content or b.boiler or not b.text:
            continue
        if b.kind == "tr" or b.words < MIN_PROMOTE_WORDS:
            continue
        if b.link_density > 0.2 or _LEGAL_RE.search(b.text):
            continue
        prev_c = i > 0 and blocks[i - 1].is_content
        next_c = i + 1 < len(blocks) and blocks[i + 1].is_content
        if prev_c and next_c:
            b.is_content = True


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
        parser = _BlockParser()
        try:
            parser.feed(html)
            parser.close()
        except Exception:
            # degrade-and-continue (mirrors reference swallow policy,
            # reference: extractor/extractors/pdf_text_extractor.py:195-198)
            return HtmlExtraction(text="", status="parse_error")

        blocks = parser.blocks
        _classify(blocks)
        content = [b for b in blocks if b.is_content]
        if not content:
            return HtmlExtraction(
                text="", status="empty", n_blocks=len(blocks), tables=parser.tables
            )

        parts: List[str] = []
        spans: List[Tuple[int, int, int, str]] = []
        off = 0
        sep = len("\n\n".encode())
        for i, b in enumerate(content):
            if i:
                off += sep
            nbytes = len(b.text.encode("utf-8"))
            spans.append((i, off, off + nbytes, b.kind))
            parts.append(b.text)
            off += nbytes
        return HtmlExtraction(
            text="\n\n".join(parts),
            spans=spans,
            n_blocks=len(blocks),
            status="ok",
            tables=parser.tables,
        )


class _MetaParser(HTMLParser):
    """Head-metadata collector: title text, meta description,
    rel=canonical link, <html lang>, og:title, robots directives.
    Stops caring after </head> (body meta is non-standard; first-wins
    like browsers)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.title: Optional[str] = None
        self.description: Optional[str] = None
        self.canonical: Optional[str] = None
        self.lang: Optional[str] = None
        self.og_title: Optional[str] = None
        self.robots: Optional[str] = None
        self._in_title = False
        self._title_buf: List[str] = []
        self._done = False

    def handle_starttag(self, tag: str, attrs) -> None:
        if self._done:
            return
        a = {k.lower(): (v or "") for k, v in attrs}
        if tag == "html" and self.lang is None and a.get("lang"):
            self.lang = a["lang"].strip().lower()
        elif tag == "title":
            self._in_title = True
        elif tag == "meta":
            name = a.get("name", "").lower()
            prop = a.get("property", "").lower()
            content = a.get("content", "").strip()
            if name == "description" and self.description is None and content:
                self.description = content
            elif name == "robots" and self.robots is None and content:
                self.robots = content.lower()
            elif prop == "og:title" and self.og_title is None and content:
                self.og_title = content
        elif tag == "link":
            rels = a.get("rel", "").lower().split()
            if "canonical" in rels and self.canonical is None and a.get("href"):
                self.canonical = a["href"].strip()

    def handle_data(self, data: str) -> None:
        if self._in_title:
            self._title_buf.append(data)

    def handle_endtag(self, tag: str) -> None:
        if tag == "title":
            self._in_title = False
            if self.title is None:
                t = " ".join("".join(self._title_buf).split())
                self.title = t or None
        elif tag == "head":
            self._done = True


def extract_meta(payload: "bytes | str") -> dict:
    """HTML payload → page metadata dict (all values nullable):
    ``title, description, canonical_url, html_lang, og_title, robots``.
    Charset-sniffed like the main codec; never raises (crawled heads
    are the most malformed HTML there is)."""
    if isinstance(payload, bytes):
        html = _decode_html_bytes(payload)
    else:
        html = payload
    p = _MetaParser()
    try:
        p.feed(html)
        p.close()
    except Exception:
        pass
    return {
        "title": p.title,
        "description": p.description,
        "canonical_url": p.canonical,
        "html_lang": p.lang,
        "og_title": p.og_title,
        "robots": p.robots,
    }


_VOID_TAGS = frozenset(
    ("meta", "link", "br", "img", "hr", "input", "area", "base",
     "col", "embed", "source", "track", "wbr")
)


class _StructParser(HTMLParser):
    """DOM structure collector: per-tag counts for the content-bearing
    tags plus maximum nesting depth (void tags never enter the open
    stack).  Tolerant of unclosed tags — depth just never pops."""

    COUNTED = ("p", "a", "table", "tr", "th", "td")

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.counts = {t: 0 for t in self.COUNTED}
        self.max_depth = 0
        self._depth = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in self.counts:
            self.counts[tag] += 1
        if tag not in _VOID_TAGS:
            self._depth += 1
            if self._depth > self.max_depth:
                self.max_depth = self._depth

    def handle_startendtag(self, tag: str, attrs) -> None:
        if tag in self.counts:
            self.counts[tag] += 1

    def handle_endtag(self, tag: str) -> None:
        if tag not in _VOID_TAGS and self._depth > 0:
            self._depth -= 1


def structure_stats(payload: "bytes | str") -> dict:
    """HTML payload → DOM structure stats: ``n_p, n_a, n_table, n_tr,
    n_th, n_td, max_depth`` (ints; all 0 for tagless payloads).
    Charset-sniffed; never raises."""
    if isinstance(payload, bytes):
        html = _decode_html_bytes(payload)
    else:
        html = payload
    p = _StructParser()
    try:
        p.feed(html)
        p.close()
    except Exception:
        pass
    return {
        "n_p": p.counts["p"],
        "n_a": p.counts["a"],
        "n_table": p.counts["table"],
        "n_tr": p.counts["tr"],
        "n_th": p.counts["th"],
        "n_td": p.counts["td"],
        "max_depth": p.max_depth,
    }
