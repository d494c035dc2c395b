"""Differential tests: the regex PDF lexers against the old byte loops.

``tests/pdf_reference.py`` keeps the byte-loop object lexer, content-stream
tokenizer and glyph decoders as the oracle.  Generated object bodies and
content streams must give the same tokens, objects, end positions and
exception classes; the synthesized corpus PDFs must give the same
``PdfExtraction``; hostile inputs must stay linear and keep the oracle's
status.  The one intended difference is a ``#`` in a name that is not
followed by two hex digits: the oracle raised ``ValueError`` on it, the
lexer keeps it as a literal ``#``.
"""
from __future__ import annotations

import gzip
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pdf_reference as ref
from pdf_extractor_ray.codecs import pdf_codec as p
from pdf_extractor_ray.sources.corpus import PageSynthesizer


def _objects(lexer_cls, buf: bytes):
    """Every object the lexer parses from ``buf`` with its end position,
    then the skip position or the exception class that stopped it."""
    lex = lexer_cls(buf)
    out = []
    while len(out) < 200:
        try:
            obj = lex.parse_object()
        except Exception as e:  # the class is what the test compares
            out.append(type(e))
            return out
        out.append((repr(obj), lex.pos))
        lex._skip_ws()
        out.append(lex.pos)
    return out


def _tokens(tokenize, buf: bytes):
    out = []
    try:
        for kind, val in tokenize(buf):
            out.append((kind, repr(val)))
    except Exception as e:
        out.append(type(e))
    return out


def assert_same_objects(buf: bytes) -> None:
    assert _objects(p._Lexer, buf) == _objects(ref._Lexer, buf)


def assert_same_tokens(buf: bytes) -> None:
    assert _tokens(p._tokenize_content, buf) == _tokens(ref._tokenize_content, buf)


def _use_reference(m: pytest.MonkeyPatch) -> None:
    """Run the whole codec on the oracle's lexers and glyph decoders."""
    m.setattr(p, "_Lexer", ref._Lexer)
    m.setattr(p, "_tokenize_content", ref._tokenize_content)
    m.setattr(p, "_decode_winansi", ref._decode_winansi)
    m.setattr(p._FontDecoder, "_build", ref.font_build)


def _fields(r: p.PdfExtraction):
    return r.text, r.status, r.spans, r.pages


# --------------------------------------------------------------- grammars
_SEP = st.sampled_from([b"", b" ", b"  ", b"\n", b"\r\n", b"\r", b"\t", b"\x00",
                        b"\x0c", b"\x0b", b"%c\n", b"%c", b"%c\r", b" %x\n "])
_NUMBERS = [b"0", b"12", b"-0", b"+3", b"007", b"1.", b".5", b"+.5", b"-0.0",
            b"3.14", b"-.", b"+", b".", b"1.2.3", b"--1", b"99999999999999999999"]
_REFS = [b"1 0 R", b"1 %c\n0 R", b"1 0R", b"1 0 Rx", b"1 0 R/", b"1\n0\nR",
         b"1 0 %c\nR", b"1 -2 R", b"1 2.5 R", b"1 +0 R", b"1 0 R)", b"1 0\x00R",
         b"1 0\x0bR", b"12 34 R(", b"1 2", b"1 0 R\x0b"]
_STRINGS = [b"(abc)", b"(a(b)c)", b"(a\\)b)", b"(\\101\\0\\777\\8)", b"(\\n\\r\\t\\b\\f\\\\)",
            b"(line\\\ncont)", b"(\\\r\n)", b"(\\\rx)", b"(unterminated", b"(a\\",
            b"((nested)", b"()", b"(\\", b"(a\r\nb)", b"(\x80\xff)"]
_HEX = [b"<48656c6c6f>", b"<4 8 6>", b"<abc>", b"<a\nb c>", b"<zz>", b"<41",
        b"<>", b"<4\x0b1>", b"<4\x001>", b"< 4 >"]
_KEYWORDS = [b"true", b"false", b"null", b"trueX", b"nul", b"tru", b"falsey",
             b"nullnull"]
_JUNK = [b"{", b"}", b")", b">", b"]", b"\x80", b"\x01", b"R", b"obj", b"stream"]
_NAME_PARTS = [b"A", b"Type", b"F1", b"#20", b"#2F", b"#41#42", b"a\x0bb",
               b"\xe9", b"-_.", b"1"]


@st.composite
def _name(draw):
    return b"/" + b"".join(draw(st.lists(st.sampled_from(_NAME_PARTS), max_size=3)))


@st.composite
def _object_body(draw):
    leaf = st.one_of(
        _name(), st.sampled_from(_NUMBERS), st.sampled_from(_REFS),
        st.sampled_from(_STRINGS), st.sampled_from(_HEX),
        st.sampled_from(_KEYWORDS), st.sampled_from(_JUNK),
        st.sampled_from([b"<<", b">>", b"[", b"]", b"<< /K", b"<< 1 2 >>"]),
    )
    parts = draw(st.lists(st.tuples(_SEP, leaf), max_size=24))
    body = b"".join(s + t for s, t in parts)
    # dicts and arrays around the fragments, closed or not
    wrap = draw(st.sampled_from([b"%s", b"<<%s>>", b"[%s]", b"<< /A [%s] >>",
                                 b"<< /A %s", b"[%s"]))
    return wrap % body


_OPS = [b"BT", b"ET", b"Tj", b"TJ", b"'", b'"', b"T*", b"Tf", b"Td", b"TD", b"Tm",
        b"re", b"f*", b"B*", b"Do", b"Tjabc", b"BIx", b"EI", b"ID", b"q", b"Q", b"cm"]
_INLINE_IMAGES = [b"BI /W 1 ID xEIx EI", b"BI\nID abEI EI ", b"BI ID \x00EI ",
                  b"BI ID EIEI EI\n", b"BIEI", b"BI ID data", b"BI EI", b"BI\tEI\t",
                  b"BI ID \x0bEI\x0b EI"]
_CONTENT_NAMES = [b"/F1", b"/A\x0bB", b"/A\x00B", b"/", b"/a#20", b"/x%y", b"/\x80"]
_CONTENT_JUNK = [b"{", b"}", b")", b">", b"\x80", b"\x01", b"+", b"-", b".", b"<",
                 b"\x0b", b"<<", b">>", b"!", b"#"]


@st.composite
def _content(draw):
    leaf = st.one_of(
        st.sampled_from(_OPS), st.sampled_from(_INLINE_IMAGES),
        st.sampled_from(_NUMBERS), st.sampled_from(_CONTENT_NAMES),
        st.sampled_from(_STRINGS), st.sampled_from(_HEX),
        st.sampled_from([b"[", b"]", b"[(a) -120 (b)] TJ"]),
        st.sampled_from(_CONTENT_JUNK),
    )
    parts = draw(st.lists(st.tuples(_SEP, leaf), max_size=30))
    return b"".join(s + t for s, t in parts)


_SETTINGS = settings(max_examples=1000, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(_object_body())
def test_object_lexer_matches_reference(buf):
    assert_same_objects(buf)


@_SETTINGS
@given(_content())
def test_content_tokenizer_matches_reference(buf):
    assert_same_tokens(buf)


@pytest.mark.parametrize("buf", [
    b"", b" ", b"%", b"%x", b"1 %c\n0 R", b"1 0R", b"trueX", b"+.5", b"1.", b"-0",
    b"<< /A 1 0 R /B [1 0 R 2] /C << /D (x(y)z) >> >>stream", b"<< 1 /A >>",
    b"<< /A >>", b"[1 2", b"<<", b"(a\\", b"<41", b"1 0 R", b"12 0 obj",
    b"/A#20B", b"/A#2", b"/A#", b"/Type/Page", b"[/A/B]", b"<</A<</B 1>>>>",
])
def test_object_corner_cases(buf):
    assert_same_objects(buf)


@pytest.mark.parametrize("buf", [
    b"", b" ", b"%", b"(a)Tj", b"(a(b))Tj", b"(a\\)b)", b"(x", b"<48 65>", b"<4>",
    b"<zz>", b"<41", b"BI", b"BI ID EI", b"BI /W 1 ID xEIx EI (after) Tj",
    b"{ } ) > x", b"/F1 12 Tf", b"/A\x0bB", b"/A\x00B", b"1 2 3.5 -.5 +.5 1. -0",
    b"Tjabc", b"[(a) -200 (b)] TJ", b"%c\nBT%c\rET", b"\x0b\x0bTj",
])
def test_content_corner_cases(buf):
    assert_same_tokens(buf)


def test_winansi_decode_matches_reference():
    every = bytes(range(256))
    assert p._decode_winansi(every) == ref._decode_winansi(every)
    assert p._decode_winansi(b"") == ""


class _Doc:
    """Just enough of a document for ``_FontDecoder`` on direct objects."""

    def resolve(self, obj):
        return obj


_GLYPHS = st.sampled_from(["space", "A", "eacute", "bullet", "uni0041", "uni00e9",
                           "uniZZZZ", "unknownglyph", "endash", "x", "", "ab"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 300), st.booleans(), _GLYPHS,
                          st.just(1.5)), max_size=20))
def test_differences_decode_matches_reference(diffs):
    font = {"Type": "Font", "Encoding": {"Differences": diffs}}
    new = p._FontDecoder(_Doc(), {"Font": {"F1": font}}, {})
    old = p._FontDecoder(_Doc(), {}, {})
    old_fn = ref.font_build(old, font)
    every = bytes(range(256))
    assert new.decode("F1", every) == old_fn(every)


# ------------------------------------------------------------- the corpus
def test_corpus_pdfs_match_reference(sf_dir, monkeypatch):
    docs = pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 240)
    # doc_id % 10 == 7 makes every row a PDF under the corpus rules
    ids = [10 * i + 7 for i in range(docs.num_rows)]
    docs = docs.set_column(0, "doc_id", pa.array(ids, pa.int64()))
    payloads = []
    for b in PageSynthesizer()(docs).column("html").to_pylist():
        if b[:2] == b"\x1f\x8b":
            b = gzip.decompress(b)
        if b.startswith(b"%PDF-"):
            payloads.append(b)
    assert len(payloads) >= 200
    got = [_fields(p.PdfCodec().extract(b)) for b in payloads]
    with monkeypatch.context() as m:
        _use_reference(m)
        want = [_fields(p.PdfCodec().extract(b)) for b in payloads]
    assert got == want
    assert sum(f[1] == "ok" for f in got) > 150


# ------------------------------------------------- PDFs around test bytes
_FONT = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
_HELLO = b"BT /F1 12 Tf 72 720 Td (Hello world) Tj ET\n"


def _pdf(content: bytes, objects=(_FONT,),
         resources: bytes = b"<< /Font << /F1 5 0 R >> >>") -> bytes:
    """A one-page PDF with a correct xref: objects 1-4 are the catalog,
    page tree, page and content stream, ``objects`` follow from 5."""
    bodies = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Resources "
        + resources + b" /Contents 4 0 R >>",
        b"<< /Length %d >>\nstream\n" % len(content) + content + b"\nendstream",
        *objects,
    ]
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for num, body in enumerate(bodies, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    xref = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(bodies) + 1)
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(bodies) + 1, xref)
    return bytes(out)


def test_malformed_name_escape_does_not_empty_the_page(monkeypatch):
    # an indirect /Font dict with one malformed key: the oracle's
    # ValueError escaped the font handler's PdfParseError guard and
    # emptied the page
    doc = _pdf(_HELLO, objects=(_FONT, b"<< /F1 5 0 R /F#zz 5 0 R >>"),
               resources=b"<< /Font 6 0 R >>")
    r = p.PdfCodec().extract(doc)
    assert (r.text, r.status) == ("Hello world", "ok")
    _use_reference(monkeypatch)
    old = p.PdfCodec().extract(doc)
    assert (old.text, old.status) == ("", "empty")


@pytest.mark.parametrize("buf, name, pos", [
    (b"/F#zz", "F#zz", 5), (b"/A#20B", "A B", 6), (b"/A#4G", "A#4G", 5),
    (b"/A# 1", "A#", 3), (b"/A#+1", "A#+1", 5), (b"/A#2", "A#2", 4),
    (b"/A#", "A#", 3), (b"/A##41", "A#A", 6), (b"/A#1(", "A#1", 4),
])
def test_name_escape_rule(buf, name, pos):
    lex = p._Lexer(buf)
    assert lex.parse_object() == name
    assert lex.pos == pos


# ---------------------------------------------------------- brute scan
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"1", b"23", b"0", b" ", b"\n", b"obj", b"objx",
                                 b"x", b"%", b"\x00"]), max_size=30))
def test_object_scan_finds_what_the_anchored_pattern_finds(parts):
    data = b"".join(parts)
    scan = [(m.start(), m.groups()) for m in p._OBJ_SCAN_RE.finditer(data)]
    assert scan == [(m.start(), m.groups()) for m in p._OBJ_RE.finditer(data)]


# ------------------------------------------------------- hostile inputs
_MB = 1 << 20
_HOSTILE = {
    "digit run": lambda n: b"1" * n,
    "( runs, unterminated": lambda n: b"(" * n,
    "\\ runs in a string": lambda n: b"(" + b"\\" * n,
    "< and hex, no >": lambda n: b"<" + b"0123456789abcdef" * (n // 16),
    "BI runs, no EI": lambda n: b"BI " * (n // 3),
    "1e5-deep [": lambda n: b"[" * 10**5,
    "1e5-deep <<": lambda n: b"<<" * 10**5,
    "% comment, no EOL": lambda n: b"%" + b"x" * n,
}
_EMBED = {
    "content stream": lambda h: _pdf(_HELLO + h),
    "object body": lambda h: _pdf(_HELLO, objects=(h,)),
    "whole file": lambda h: b"%PDF-1.4\n" + h,
}


@pytest.mark.parametrize("embed", sorted(_EMBED))
@pytest.mark.parametrize("family", sorted(_HOSTILE))
def test_hostile_input_is_linear(family, embed, monkeypatch):
    doc = _EMBED[embed](_HOSTILE[family](_MB))
    t = time.perf_counter()
    got = p.PdfCodec().extract(doc)
    assert time.perf_counter() - t < 2.0, (family, embed)
    # the oracle run keeps _OBJ_SCAN_RE: _OBJ_RE finds the same objects
    # (test above), in quadratic time on a digit run
    _use_reference(monkeypatch)
    want = p.PdfCodec().extract(doc)
    assert (got.status, got.text) == (want.status, want.text)
