"""The query contract of ``__ray_entry__``: which query keys exist, in
what order, and which of them have a DuckDB oracle."""
from __future__ import annotations

import json
import os

import __ray_entry__ as entry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Product-surface queries kept after the 50 correctness-checked keys.
PRODUCT_KEYS = [
    "page_previews", "structured_parse", "kv_pairs", "items_summary",
    "table_items", "merge_items", "corpus_prep", "incremental_ingest",
]

# Kept keys without an oracle: checked by row count only.
ROWS_ONLY = {
    "extract_golden_match", "extract_items", "standard_result",
    "construction_result", "items_summary", "merge_items",
}


def _checked_keys() -> list[str]:
    """The keys CORRECTNESS_r05.json checks, in its order."""
    with open(os.path.join(REPO, "CORRECTNESS_r05.json")) as f:
        return list(json.load(f))


def test_keys_are_the_50_checked_keys_in_order_then_the_product_keys():
    checked = _checked_keys()
    keys = list(entry.queries())
    assert len(checked) == 50
    assert keys[:50] == checked
    assert keys[50:] == PRODUCT_KEYS


def test_every_oracle_has_a_query():
    assert set(entry.oracle_sql()) <= set(entry.queries())


def test_keys_without_an_oracle_are_the_rows_only_set():
    assert set(entry.queries()) - set(entry.oracle_sql()) == ROWS_ONLY
