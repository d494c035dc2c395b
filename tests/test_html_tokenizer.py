"""Differential tests: the regex tokenizer against the stdlib ``html.parser``.

``tests/html_reference.py`` keeps the ``HTMLParser``-based block builder,
head-metadata and structure collectors as the oracle.  Generated markup
(tag grammar with the tokenizer's corner cases), the synthesized corpus
pages and hostile inputs must give identical events and identical codec,
``extract_meta`` and ``structure_stats`` results; hostile inputs must also
stay linear.
"""
from __future__ import annotations

import re
import string
import time
from html.parser import HTMLParser

import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import html_reference as ref
from pdf_extractor_ray.codecs import html_codec as h
from pdf_extractor_ray.sources.corpus import PageSynthesizer


class _Recorder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.events: list = []

    def handle_starttag(self, tag, attrs):
        self.events.append((h.START, tag, {k: v or "" for k, v in attrs}))

    def handle_startendtag(self, tag, attrs):
        self.events.append((h.STARTEND, tag, {k: v or "" for k, v in attrs}))

    def handle_endtag(self, tag):
        self.events.append((h.END, tag))

    def handle_data(self, data):
        self.events.append((h.TEXT, data))


def _reference_events(html: str):
    p = _Recorder()
    try:
        p.feed(html)
        p.close()
    except AssertionError:
        return p.events, True
    return p.events, False


def _events(html: str):
    out = []
    try:
        for ev, val, pos in h._tokens(html):
            if ev in (h.START, h.STARTEND):
                out.append((ev, val, h._attrs(html, pos)))
            else:
                out.append((ev, val))
    except AssertionError:
        return out, True
    return out, False


def _fields(r):
    return r.text, r.spans, r.n_blocks, r.status, r.tables


def assert_same_results(payload) -> None:
    got = h.HtmlCodec().extract(payload)
    assert _fields(got) == _fields(ref.HtmlCodec().extract(payload))
    assert got.n_words == len(got.text.split())
    assert h.extract_meta(payload) == ref.extract_meta(payload)
    assert h.structure_stats(payload) == ref.structure_stats(payload)


def assert_same(html: str) -> None:
    assert _events(html) == _reference_events(html)
    assert_same_results(html)


# ------------------------------------------------------------ tag grammar
_NAMES = st.sampled_from([
    "p", "div", "a", "td", "th", "tr", "table", "nav", "footer", "aside", "h1",
    "h2", "li", "ul", "br", "hr", "img", "span", "body", "html", "head",
    "title", "meta", "link", "iframe", "noscript", "P", "DIV", "A", "TD", "Title",
    "HEAD", "x-y", "a:b", "td.", "svg",
])
_WORD = st.sampled_from([
    "alpha", "beta", "gamma", "delta", "Copyright", "cookie", "terms of use",
    "all rights reserved", "ſtrictly prohibited", "confİdential", "café",
    "日本語", "x", "=", "/", "'", '"', ">", "-->", "]]>", "?>",
])
_SPACE = st.sampled_from([" ", "  ", "\n", "\t", "\xa0", " ", "\x0b", "\x1c",
                          "　", "\x85", ""])
_CHARREF = st.sampled_from([
    "&amp;", "&am", "&amp", "&#38;", "&#x26;", "&#", "&", "&lt;p&gt;", "&nbsp;",
    "&#0;", "&#99999999;", "&unknown;", "&AMP;",
])


@st.composite
def _text(draw):
    parts = draw(st.lists(st.one_of(_WORD, _SPACE, _CHARREF), max_size=14))
    return "".join(parts)


_ATTR_VALUE = st.sampled_from([
    '"a>b"', "'x > y'", '"/p/1"', "/p/", "v/", "v", "", '"unclosed', "'",
    '"a"b', "x=y", "&amp;q", '"x &amp; y"', '"en"', "EN", "canonical",
    '"description"', '"og:title"', "robots", '"NoIndex, Follow"', "''",
])
_ATTR_NAME = st.sampled_from([
    "href", "class", "lang", "name", "content", "rel", "property", "HREF",
    "data-x", "=", "b", '"q"', "x<y", "/",
])


@st.composite
def _attr(draw):
    sep = draw(st.sampled_from([" ", "  ", "\n", "/", "", " / "]))
    name = draw(_ATTR_NAME)
    form = draw(st.sampled_from(["bare", "eq", "eq-sp", "eqeq"]))
    if form == "bare":
        return sep + name
    eq = {"eq": "=", "eq-sp": " = ", "eqeq": "=="}[form]
    return sep + name + eq + draw(_ATTR_VALUE)


@st.composite
def _start_tag(draw):
    name = draw(_NAMES)
    attrs = "".join(draw(st.lists(_attr(), max_size=3)))
    end = draw(st.sampled_from([">", ">", "/>", " />", "/ >", " >", "", "\x00>"]))
    return "<" + name + attrs + end


@st.composite
def _end_tag(draw):
    name = draw(_NAMES)
    return draw(st.sampled_from([
        "</%s>", "</%s >", "</ %s>", "</%s x='>'>", "</%s", "</>", "</ >",
        "</3>", "</%s/>",
    ])).replace("%s", name)


_MARKUP = st.sampled_from([
    "<!-- c -->", "<!-- a -- b --!>", "<!-->", "<!---->", "<!--", "<!-- x",
    "<!DOCTYPE html>", "<!doctype", "<!x>", "<!>", "<!", "<![CDATA[x]]>",
    "<![if x]>", "<![endif]>", "<![cdata[ open", "<![foo]>", "<![", "<? pi ?>",
    "<?x", "<", "< p", "<3", "<<", "a < b", "<a", "<a b", "</", ">",
])
_RAW = st.sampled_from([
    "<script>a</scrip>b</script >", "<style>p{}</STYLE>", "<script>if (a<b) {}</script>",
    "<script>x", "<style>", "<script>1</ſcript>2</script>", "<SCRIPT src=x>y</script\n>",
    "<script/>after", "<title>T <b>x</b> &amp; y</title>", "<title>open",
])
_PROSE = st.sampled_from([
    "<p>one two three four five six seven eight nine ten eleven</p>",
    "<p>short bridge</p>", "<h1>Heading text</h1>",
    "<table><tr><th>Item</th><th>Qty</th></tr><tr><td>A &amp; B</td><td><a>2</a></td></tr></table>",
    '<meta name="description" content="Desc &amp; more">',
    "<meta property='og:title' content='OG'>", '<link rel="canonical x" href=" /c ">',
    "<html lang=EN-us>", "<meta name=robots content=NOINDEX>", "</head>",
])


@st.composite
def _document(draw):
    frag = st.one_of(_text(), _start_tag(), _end_tag(), _MARKUP, _RAW, _PROSE)
    return "".join(draw(st.lists(frag, max_size=30)))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_document())
def test_tokenizer_matches_stdlib_on_generated_markup(html):
    assert_same(html)


@pytest.mark.parametrize("html", [
    "", "<", "a<", "&", "&#", "x &am", "<p>a&amp;b</p>", "<br/>", "<a/>",
    "<a href=/x/>t</a>", "<p>a<b>&am</b>p;</p>", "<!--", "<!-- x -- >", "</>",
    "</ x>", "</a b>", "<a b='>'>", "<a\x00b>", "<![foo]>x", "<![if x]>y<![endif]>",
    "<script>x</script\t>y", "<script>1</ſcript>2</script>3", "<title/>t",
    "<p>x<" + "a" * 50, "<a b c=d/>", "<a b='x'c>", "<a b==\"x>",
])
def test_tokenizer_matches_stdlib_on_corner_cases(html):
    assert_same(html)


def test_tokenizer_matches_stdlib_on_corpus_pages(sf_dir):
    docs = pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 200)
    pages = PageSynthesizer()(docs)
    n = 0
    for payload in pages.column("html").to_pylist():
        if payload and not payload.startswith(b"%PDF-"):
            assert_same_results(payload)
            n += 1
    assert n > 100


def test_html_parser_is_not_imported_by_the_package():
    import pathlib

    root = pathlib.Path(h.__file__).parents[1]
    hits = [p for p in root.rglob("*.py") if "html.parser" in p.read_text("utf-8")]
    assert hits == []


# --------------------------------------------------------- hostile inputs
_HOSTILE = {
    "unterminated comments": lambda n: "<!--" * (n // 4),
    "runs of <": lambda n: "<" * n,
    "one tag, many attributes": lambda n: "<a" + " b" * (n // 2),
    "1e5-deep div": lambda n: "<div>" * min(10**5, n // 10) + "deep text " * (n // 20),
    "unclosed script, </scrip decoys": lambda n: "<script>" + "</scrip" * (n // 7),
    "<!x runs": lambda n: "<!x" * (n // 3),
    # start tags whose attribute scan runs to EOF from every '<'
    "<a runs": lambda n: "<a" * (n // 2),
    "<a b runs": lambda n: "<a b" * (n // 4),
    '<a b=" runs': lambda n: '<a b="' * (n // 6),
}
# each 1 MB family must finish in 2 s; the last three emit one text event
# per '<', so they run at half the size to keep the same margin
_HOSTILE_BYTES = dict.fromkeys(["<a runs", "<a b runs", '<a b=" runs'], 2**19)


@pytest.mark.parametrize("family", sorted(_HOSTILE))
def test_hostile_input_is_linear(family):
    make = _HOSTILE[family]
    # the stdlib takes minutes on some 1 MB families; compare it at 4 KB
    assert_same(make(4000))
    small = ref.HtmlCodec().extract(make(4000)).status
    big = make(_HOSTILE_BYTES.get(family, 10**6))
    for fn in (h.HtmlCodec().extract, h.extract_meta, h.structure_stats):
        t = time.perf_counter()
        out = fn(big)
        assert time.perf_counter() - t < 2.0, (family, fn)
        if isinstance(out, h.HtmlExtraction):
            assert out.status == small


# ------------------------------------------------ legal vocabulary pre-test
def test_legal_anchor_pretest_is_a_necessary_condition():
    """``_may_be_legal`` relies on which code points re.IGNORECASE folds
    onto the ASCII letters; check that claim over all of Unicode."""
    every = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000)
    traps = {"i": "\u0130\u0131", "k": "\u212a", "s": "\u017f"}
    for c in string.ascii_lowercase:
        folded = set(re.compile(c, re.IGNORECASE).findall(every))
        assert folded == {c, c.upper(), *traps.get(c, "")}, c
    assert "\u212a".lower() == "k"
    assert not any(ch.lower() in string.ascii_letters for ch in "\u0130\u0131\u017f")
    for text in ("Copyright 2025", "cooKie jar", "ſtrictly prohibited",
                 "confİdential", "terms\nof use", "plain words only",
                 "café ©x", "日本 Privacy Policy", "x©y", "coo\u212aie"):
        assert h._may_be_legal(text) or not ref._LEGAL_RE.search(text)
