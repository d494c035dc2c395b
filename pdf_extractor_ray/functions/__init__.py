"""Corpus-scale Ray Data operators: text features and quality signals,
exact / MinHash-LSH / SimHash dedup, the persisted LSH and BM25
indexes, and the join, aggregation, sketch and search operators that
corpus prep, the CLI and the ``__ray_entry__`` queries use.

A def that only tests reach is listed in ``TEST_ONLY`` or
``TEST_ONLY_DEFS`` in ``tests/test_no_orphan_modules.py``; any other
def without a caller outside the tests fails that check. Import the
submodule you need (``from pdf_extractor_ray.functions.dedup import
...``); this package re-exports nothing, so loading one module does not
load every family.
"""
