"""Compare the PDF lexers with the byte-loop oracle on a benchmark corpus.

Every PDF row of ``perfbench.corpus.pages(workload, seed)`` goes through
the regex lexers in ``pdf_extractor_ray.codecs.pdf_codec`` and through the
oracle kept in ``tests/pdf_reference.py``.  A row mismatches when any of
these differ: its ``PdfExtraction`` (text, status, spans, pages), the
tokens of any page's content stream, or any indirect object parsed from
its header (value, end position or exception class).

Usage (from the repository root):
    python scripts/pdf_lexer_diff.py [--workload pdf_heavy] [--seeds 1 2 3]
Prints one line per (workload, seed) and exits 1 if any row mismatches.
It reads ``perfbench/`` and writes nothing.
"""
from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]

import pdf_reference as ref  # noqa: E402
from pdf_extractor_ray.codecs import pdf_codec as p  # noqa: E402
from pdf_extractor_ray.stages.extract import sniff_doc_kind  # noqa: E402
from perfbench.corpus import pages  # noqa: E402

# (module or class, attribute, oracle value) swapped in for the oracle run
_ORACLE = [
    (p, "_Lexer", ref._Lexer),
    (p, "_tokenize_content", ref._tokenize_content),
    (p, "_decode_winansi", ref._decode_winansi),
    (p._FontDecoder, "_build", ref.font_build),
]


def _extract_with_oracle(payload: bytes):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in _ORACLE]
    for owner, name, value in _ORACLE:
        setattr(owner, name, value)
    try:
        return p.PdfCodec().extract(payload)
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _fields(r):
    return r.text, r.status, r.spans, r.pages


def _parse(lexer_cls, buf: bytes, pos: int):
    lex = lexer_cls(buf, pos)
    try:
        return repr(lex.parse_object()), lex.pos
    except Exception as e:  # the class is what gets compared
        return type(e)


def _tokens(tokenize, buf: bytes):
    out = []
    try:
        out.extend(tokenize(buf))
    except Exception as e:
        out.append(type(e))
    return out


def _lexers_agree(payload: bytes) -> bool:
    try:
        doc = p._PdfDocument(payload)
    except Exception:
        return True  # nothing parsed; the extraction comparison covers it
    for off in doc.offsets.values():
        m = p._OBJ_RE.match(payload, off)
        if m and _parse(p._Lexer, payload, m.end()) != _parse(ref._Lexer, payload, m.end()):
            return False
    try:
        page_list = doc.pages()
    except Exception:
        return True
    for page in page_list:
        try:
            content = doc.content_bytes(page)
        except Exception:
            continue
        if _tokens(p._tokenize_content, content) != _tokens(ref._tokenize_content, content):
            return False
    return True


def diff(workload: str, seed: int):
    """(PDF rows, mismatching rows) for one corpus."""
    table = sniff_doc_kind(pages(workload, seed))
    rows = [b for b, kind in zip(table.column("html").to_pylist(),
                                 table.column("doc_kind").to_pylist())
            if kind == "pdf"]
    bad = 0
    for payload in rows:
        same = _fields(p.PdfCodec().extract(payload)) == _fields(
            _extract_with_oracle(payload))
        bad += not (same and _lexers_agree(payload))
    return len(rows), bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+",
                    default=["pdf_heavy", "small_pages_resume"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args()
    failed = False
    for workload in args.workload:
        for seed in args.seeds:
            n, bad = diff(workload, seed)
            print(f"{workload} seed {seed}: {n} PDF rows, {bad} mismatches")
            failed |= bad > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
