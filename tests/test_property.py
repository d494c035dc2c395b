"""Property-based tests (hypothesis) — SURVEY §5.2.4 invariants.

Random HTML trees → codec invariants: never raises, spans are within
bounds / monotone / non-overlapping and cover extracted_text exactly,
and every extracted word originates from the input's text content.
Random byte soup → sniff/codec degrade-and-continue (status, no raise).
"""
from __future__ import annotations

import re

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from pdf_extractor_ray.codecs.html_codec import HtmlCodec

_WORDS = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)
_PHRASES = st.lists(_WORDS, min_size=1, max_size=30).map(" ".join)


@st.composite
def html_tree(draw, depth=0):
    """Random nested HTML out of a realistic tag vocabulary."""
    if depth >= 3:
        return draw(_PHRASES)
    n = draw(st.integers(0, 4))
    parts = []
    for _ in range(n):
        kind = draw(st.sampled_from(["text", "p", "div", "nav", "footer",
                                     "h2", "ul", "a", "table"]))
        if kind == "text":
            parts.append(draw(_PHRASES))
        elif kind == "a":
            parts.append(f'<a href="/x">{draw(_PHRASES)}</a>')
        elif kind == "ul":
            items = draw(st.lists(_PHRASES, min_size=1, max_size=3))
            parts.append("<ul>" + "".join(f"<li>{i}</li>" for i in items) + "</ul>")
        elif kind == "table":
            rows = draw(st.lists(st.lists(_PHRASES, min_size=1, max_size=3),
                                 min_size=1, max_size=3))
            parts.append(
                "<table>"
                + "".join("<tr>" + "".join(f"<td>{c}</td>" for c in r) + "</tr>" for r in rows)
                + "</table>"
            )
        else:
            inner = draw(html_tree(depth=depth + 1))
            parts.append(f"<{kind}>{inner}</{kind}>")
    return "".join(parts)


@settings(max_examples=60, deadline=None)
@given(html_tree())
def test_html_codec_invariants(body):
    codec = HtmlCodec()
    payload = f"<html><body>{body}</body></html>".encode("utf-8")
    r = codec.extract(payload)  # must not raise
    raw = r.text.encode("utf-8")

    # spans: in-bounds, monotone, non-overlapping, exactly tiling the text
    last = 0
    for i, (block_id, start, stop, kind) in enumerate(r.spans):
        assert 0 <= start <= stop <= len(raw)
        assert start >= last
        if i > 0:
            # the two-byte "\n\n" joiner sits between consecutive spans
            assert raw[last:start] == b"\n\n"
        last = stop
    if r.spans:
        assert last == len(raw)

    # every extracted word originates from the input's text content:
    # inline tags concatenate without whitespace (browser semantics), so
    # accept words from both the space-joined and direct-joined readings
    vocab = set(re.sub(r"<[^>]*>", " ", body).split())
    vocab |= set(re.sub(r"<[^>]*>", "", body).split())
    for w in r.text.replace("\n", " ").replace(" | ", " ").split():
        assert w in vocab or w == "|", w


_ASCII_LINE = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    min_size=1,
    max_size=60,
).map(lambda s: s.strip()).filter(lambda s: s)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(_ASCII_LINE, min_size=1, max_size=8), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
)
def test_pdf_roundtrip_byte_identity(pages, use_tj, use_leading):
    """Random ASCII lines → our PDF builder → codec ⇒ byte-identical
    text (the north-rule invariant, property-tested)."""
    from pdf_extractor_ray.codecs.pdf_codec import PdfCodec
    from pdf_extractor_ray.fixtures.pdf_build import simple_text_pdf

    payload = simple_text_pdf(pages, use_tj=use_tj, use_leading=use_leading)
    r = PdfCodec().extract(payload)
    want = "\n\n".join("\n".join(ls) for ls in pages)
    assert r.status == "ok"
    assert r.text == want


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_codecs_never_raise_on_garbage(payload):
    from pdf_extractor_ray.codecs.pdf_codec import PdfCodec

    r = HtmlCodec().extract(payload)
    assert r.status in ("ok", "empty", "parse_error")
    p = PdfCodec().extract(b"%PDF-" + payload)
    assert p.status in ("ok", "empty", "parse_error")


# every code point Python's str.split() treats as a separator
_UNICODE_WS = "".join(chr(c) for c in range(0x110000) if chr(c).isspace())
_SEPARATOR = st.text(alphabet=_UNICODE_WS, min_size=1, max_size=3)


@st.composite
def _ws_paragraph(draw):
    """Words separated by runs of any Unicode whitespace, with optional
    leading and trailing separators; may be empty or all whitespace."""
    parts = [draw(_SEPARATOR)]
    for word in draw(st.lists(_WORDS, max_size=14)):
        parts += [word, draw(_SEPARATOR)]
    if draw(st.booleans()):
        parts[0] = ""
    if draw(st.booleans()):
        parts[-1] = ""
    return "".join(parts)


def _assert_n_words(paragraphs):
    from pdf_extractor_ray.stages.extract import HtmlExtractStage

    cells = "".join(f"<td>{p}</td>" for p in paragraphs[:3])
    body = "".join(f"<p>{p}</p>" for p in paragraphs)
    payloads = [
        f"<html><body>{body}<table><tr>{cells}</tr></table></body></html>".encode(),
        b"",
        f"<p>{''.join(paragraphs)}</p>".encode(),
    ]
    for payload in payloads:
        r = HtmlCodec().extract(payload)
        assert r.n_words == len(r.text.split())
    out = HtmlExtractStage()(pa.table({"url": ["u0", "u1", "u2"], "html": payloads}))
    texts = out.column("extracted_text").to_pylist()
    assert out.column("n_words").to_pylist() == [len(t.split()) for t in texts]


@settings(max_examples=60, deadline=None)
@given(st.lists(_ws_paragraph(), max_size=6))
def test_html_n_words_equals_python_split(paragraphs):
    _assert_n_words(paragraphs)


def test_html_n_words_every_unicode_separator():
    words = [f"w{i}" for i in range(len(_UNICODE_WS) + 1)]
    mixed = words[0] + "".join(ws + w for ws, w in zip(_UNICODE_WS, words[1:]))
    _assert_n_words([mixed, _UNICODE_WS + mixed + _UNICODE_WS, _UNICODE_WS, ""])
    assert len(mixed.split()) == len(words)


# ------------------------------------------------------------------ round 2
@settings(max_examples=60, deadline=None)
@given(
    st.text(alphabet="abcdef gh", min_size=60, max_size=200),
    st.text(alphabet="qrstuv wx", min_size=10, max_size=60),
    st.text(alphabet="klmnop yz", min_size=10, max_size=60),
)
def test_winnowing_shared_substring_guarantee(shared, pre, post):
    """Any shared substring of length >= w + k - 1 yields >= 1 shared
    fingerprint (Schleimer et al. 2003, Theorem 1) — for every input."""
    import numpy as np

    from pdf_extractor_ray.functions.fingerprint import winnow_fingerprints

    k, w = 8, 16
    # normalization collapses whitespace; require the NORMALIZED shared
    # run to clear the guarantee length
    import re
    norm = re.sub(r"\s+", " ", shared.lower().strip())
    if len(norm) < w + k - 1:
        return
    fa = winnow_fingerprints(pre + " " + shared + " " + post, k, w)
    fb = winnow_fingerprints(post + " " + shared + " " + pre, k, w)
    assert len(np.intersect1d(fa, fb)) >= 1


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=0, max_size=40),
    st.lists(st.integers(0, 30), min_size=0, max_size=40),
)
def test_semi_anti_partition_property(left_keys, right_keys):
    """semi(L,R) ∪ anti(L,R) == L exactly (disjoint, complete) for any
    key multisets — the algebraic definition of the pair."""
    import pyarrow as pa

    import ray.data

    from pdf_extractor_ray.functions.joins import semi_anti_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array(left_keys, pa.int64()),
        "rowid": pa.array(list(range(len(left_keys))), pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(right_keys, pa.int64()),
    }))
    semi = semi_anti_join(left, right, "k", "k", ["k", "rowid"],
                          how="semi", num_partitions=4).to_pandas()
    anti = semi_anti_join(left, right, "k", "k", ["k", "rowid"],
                          how="anti", num_partitions=4).to_pandas()
    rset = set(right_keys)
    want_semi = [i for i, k in enumerate(left_keys) if k in rset]
    want_anti = [i for i, k in enumerate(left_keys) if k not in rset]
    got_semi = sorted(semi["rowid"]) if len(semi) else []
    got_anti = sorted(anti["rowid"]) if len(anti) else []
    assert got_semi == want_semi
    assert got_anti == want_anti


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                       st.integers(0, 100)), min_size=1, max_size=25),
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                       st.integers(0, 100)), min_size=1, max_size=25),
)
def test_many_to_many_join_matches_duckdb_property(left_rows, right_rows):
    """hash_join(validate='many') == SQL JOIN for arbitrary key
    multisets including nulls, for both inner and left-outer."""
    import duckdb
    import pyarrow as pa

    import ray.data

    from pdf_extractor_ray.functions.joins import hash_join

    left = pa.table({
        "k": pa.array([r[0] for r in left_rows], pa.int64()),
        "lv": pa.array([r[1] for r in left_rows], pa.int64()),
    })
    right = pa.table({
        "k2": pa.array([r[0] for r in right_rows], pa.int64()),
        "rv": pa.array([r[1] for r in right_rows], pa.int64()),
    })
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, jw in (("inner", "JOIN"), ("left", "LEFT JOIN")):
        got = hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            "k", "k2", ["k", "lv"], ["rv"],
            how=how, validate="many", num_partitions=4,
        ).to_pandas()
        want = con.execute(
            f"SELECT l.k, l.lv, r.rv FROM l {jw} r ON l.k = r.k2"
        ).df()
        assert len(got) == len(want), (how, len(got), len(want))
        if len(want) == 0:
            continue
        g = got.fillna(-1).groupby(["k", "lv", "rv"]).size().sort_index()
        w = want.fillna(-1).groupby(["k", "lv", "rv"]).size().sort_index()
        assert g.equals(w), how
