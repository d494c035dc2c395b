"""Differential tests for the HTML codec's block path.

``_segment`` takes a whole ``<blocktag ...>content</blocktag>`` in one
regex match when its content holds only text and inert tags, and leaves
everything else to the event path.  Generated documents mix such blocks
with the constructs that must not take it or that change what a block
means: quoted ``>`` in attributes, charrefs split by a tag, unclosed
``<p>``/``<a>``, blocks in anchors, table cells, boilerplate and ignored
subtrees, comments, ``<script>``, ``<br/>``, upper-case and look-alike
tag names, and white space that ``str.split`` cuts at.  Every field of
``HtmlExtraction`` must equal the stdlib-parser reference's
(``tests/html_reference.py``).
"""
from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import html_reference as ref
from pdf_extractor_ray.codecs import html_codec as h


def _fields(r):
    return r.text, r.spans, r.n_blocks, r.status, r.tables


def assert_same_blocks(html: str) -> None:
    got = h.HtmlCodec().extract(html)
    assert _fields(got) == _fields(ref.HtmlCodec().extract(html))
    assert got.n_words == len(got.text.split())


_WORD = st.one_of(
    st.sampled_from([
        "alpha", "beta", "gamma", "delta", "epsilon", "café", "日本語", "x",
        "=", "Copyright", "cookie", "terms", "ALL", "RIGHTS", "RESERVED", "'",
        '"', ">", "©", "ſtrictly", "prohibited",
    ]),
    st.sampled_from(["&amp;", "&am", "&lt;b&gt;", "&#233;", "&nbsp;", "a < b"]),
)
_SPACE = st.sampled_from([" ", "  ", "\n", "\t", "\xa0", "\u3000", "\x1c",
                          "\r\n", ""])
_EDGE = st.sampled_from(["", "", " ", "\n", "\n  ", "  "])


@st.composite
def _words(draw, max_size=14):
    """Words parted by single spaces (the block path's plain case), now
    and then with one other separator, or parted by any white space."""
    words = draw(st.lists(_WORD, max_size=max_size))
    mode = draw(st.sampled_from(["plain", "plain", "flaw", "any"]))
    seps = [" " if mode != "any" else draw(_SPACE) for _ in words[1:]]
    if mode == "flaw" and seps:
        seps[draw(st.integers(0, len(seps) - 1))] = draw(_SPACE)
    text = words[0] if words else ""
    for sep, word in zip(seps, words[1:]):
        text += sep + word
    return draw(_EDGE) + text + draw(_EDGE)


_BLOCK = st.sampled_from([
    "p", "P", "h1", "H2", "h6", "li", "div", "DIV", "pre", "blockquote",
    "section", "article", "main", "ul", "ol", "caption", "figcaption", "dd",
    "dt", "form", "body",
])
_INERT = st.sampled_from([
    "span", "b", "EM", "i", "strong", "code", "img", "x-y", "ſpan", "bloc",
    "pi", "h7", "ſection", "bloc\u212aquote", "tD", "Nav",
])
_ATTRS = st.sampled_from([
    "", "", ' class="lead"', " title='a > b'", ' data-x="<p>"', " id=p1",
    " hidden", "\tlang=en", " a=b/", "/",
])
_END = st.sampled_from(["</{}>", "</{} >", "</ {}>", "</{}", "</{}/>"])


@st.composite
def _inline(draw):
    """Content of a block: words and inert tags, sometimes one that is
    not inert or splits a charref."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["words", "words", "inert", "void",
                                     "split", "role"]))
        if kind == "words":
            parts.append(draw(_words()))
        elif kind == "inert":
            tag = draw(_INERT)
            parts.append(f"<{tag}{draw(_ATTRS)}>{draw(_words(4))}</{tag}>")
        elif kind == "void":
            parts.append(draw(st.sampled_from(["<img src=x>", "<wbr/>", "<br/>",
                                               "<br>", "<hr>", "<b/>"])))
        elif kind == "split":
            parts.append(draw(st.sampled_from(
                ["&am<b></b>p;", "caf&#2<i>33;</i>", "&<span>amp;</span>"])))
        else:
            parts.append(draw(st.sampled_from(
                ["<a href=/x>link</a>", "<A>", "</a>", "</a >", "</nav\n>",
                 "<td>c</td>", "<tr>",
                 "<script>var a = '<p>x</p>';</script>", "<!-- <p>c</p> -->",
                 "<style>p{}</style>", "<title>t</title>", "<![CDATA[x]]>",
                 "<?pi?>", "<nav>n</nav>", "<table>"])))
    return "".join(parts)


@st.composite
def _block(draw):
    tag = draw(_BLOCK)
    end = draw(st.sampled_from([tag, tag, "p", "div", "li"]))
    return (draw(_SPACE) + f"<{tag}{draw(_ATTRS)}>" + draw(_inline())
            + draw(_END).format(end))


@st.composite
def _document(draw, depth=0):
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ["block", "block", "block", "words", "wrap", "table", "markup"]))
        if kind == "block":
            parts.append(draw(_block()))
        elif kind == "words":
            parts.append(draw(_words()))
        elif kind == "markup":
            parts.append(draw(st.sampled_from(
                ["<!-- comment -->", "<script>x<p>y</p></script>", "<br/>",
                 "<p>unclosed", "<a href=/u>unclosed", "</a>", "</td>", "</tr>",
                 "<!DOCTYPE html>", "<", "</p>", "</div>", "&amp;"])))
        elif kind == "table" and depth < 2:
            cells = "".join(
                f"<td>{draw(_document(depth + 1))}</td>"
                for _ in range(draw(st.integers(1, 3))))
            parts.append(f"<table><tr>{cells}</tr></table>")
        elif depth < 2:
            tag = draw(st.sampled_from(["a href=/w", "nav", "footer", "head",
                                        "td", "tr", "noscript", "A", "NAV"]))
            name = tag.split()[0]
            parts.append(f"<{tag}>{draw(_document(depth + 1))}</{name}>")
    return "".join(parts)


@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_document())
@example('<p title="a > b">one two</p><p>&am<b></b>p; x</p>')
@example("<td><p>x y</p>\n<p> z</p></td>")
@example("<table><tr><td>a<p>b c</p>d</td><td><a>e<div>f g</div></a></td></tr></table>")
@example("<a href=/x><p>one two three four</p></a><p>five</p>")
@example("<nav><td><p>x</p></td></nav><p>one</p>")
@example("<head><p>hidden words</p></head><P>seen</P >")
@example("<p>unclosed<p>next block</div>")
@example("<p>a<br/>b</p><p>c<!-- x -->d</p><script>e</script><p>f</p>")
@example("<p>one<bloc\u212aquote>two</p><p>three<ſection>four</p>")
@example("<nav><h2>heading in nav</h2></nav><footer><p>a b c d e f g h i j k</p></footer>")
@example("<h2>one  two</h2><h3>three four </h3><h4> five six</h4>")
@example("<p>words\u3000with\xa0odd  spaces </p><p> lead</p><p>trailing </p>")
@example("<nav><p>one</nav >two three four five six seven eight nine ten eleven</p>")
def test_block_path_matches_reference(html):
    assert_same_blocks(html)


def test_block_path_on_pages_with_inline_markup():
    paragraph = ("<p class='x'>one <b>two</b> three <span>four five</span> "
                 "six seven eight nine ten &amp; eleven</p>\n")
    page = ("<html><body><h1>Title <em>here</em></h1>\n" + paragraph * 20
            + "<div><a href=/n>nav</a> text <a>more</a></div></body></html>")
    assert_same_blocks(page)
    assert h.HtmlCodec().extract(page).text.count("two three") == 20


# inputs that make the block scan run far before it gives up
_HOSTILE = {
    "unclosed block, inert tags to EOF": lambda n: "<p>" + "<span>x " * (n // 8),
    "block starts only": lambda n: "<p>" * (n // 3),
    "blocks closed by nothing": lambda n: "<div>" + "a " * (n // 2),
    "blank runs before non-blocks": lambda n: (" " * 50 + "<b>") * (n // 53),
    "charrefs in a block": lambda n: "<p>" + "&amp;" * (n // 5) + "</p>",
    "unclosed attribute quote": lambda n: "<p title='" * (n // 10),
    "inert end tags": lambda n: "<p>" + "</span>" * (n // 7),
    "anchors in blocks": lambda n: "<p>x <a>y</a> " * (n // 14),
}


@pytest.mark.parametrize("family", sorted(_HOSTILE))
def test_hostile_blocks_are_linear(family):
    make = _HOSTILE[family]
    assert_same_blocks(make(4000))
    big = make(10**6)
    t = time.perf_counter()
    h.HtmlCodec().extract(big)
    assert time.perf_counter() - t < 2.0, family
