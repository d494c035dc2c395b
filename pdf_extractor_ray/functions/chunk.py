"""Training-sequence preparation: token-window chunking and greedy
sequence packing — the two transforms between a cleaned corpus and a
tokenizer-ready dataset.

- :func:`chunk_text` splits each document into overlapping
  whitespace-token windows (context-window fitting). Pure streaming
  ``map_batches`` — no shuffle; per-doc work is one C-speed regex scan
  plus O(chunks) list slicing, and chunk text is the tokens re-joined
  with single spaces so the semantics are SQL-mirrorable (the DuckDB
  oracle reproduces it with ``string_split_regex`` + ``list_slice``).
- :func:`pack_sequences` bins items (chunks/docs) into packs whose
  token totals stay within a budget. Packing is inherently sequential,
  so the scale plan shards it: items hash-bucket by id (the one
  shuffle), each bucket packs independently in deterministic id order.
  At 100 TB each bucket is a bounded slice of the corpus; pack ids
  stay globally unique via (bucket << 32) | seq.

The reference has no sequence prep (its unit is the whole document);
these extend the engine to the LLM-pretraining output stage.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

_WS_TOKEN = re.compile(r"\S+")


def chunk_text(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_tokens: int = 256,
    overlap: int = 32,
):
    """One row per (doc, window): ``id_col``, int64 ``chunk_id``
    (0-based), normalized ``text`` (tokens joined by single spaces),
    int64 ``n_tokens``. Windows advance by ``max_tokens - overlap``;
    the final window may be shorter. Docs with no tokens emit no
    chunks."""
    if not 0 <= overlap < max_tokens:
        raise ValueError(
            f"need 0 <= overlap < max_tokens, got {overlap}/{max_tokens}"
        )
    step = max_tokens - overlap

    def fn(batch: pa.Table) -> pa.Table:
        out_id, out_chunk, out_text, out_n = [], [], [], []
        texts = batch.column(text_col).to_pylist()
        for did, txt in zip(batch.column(id_col).to_pylist(), texts):
            toks = _WS_TOKEN.findall(txt or "")
            n = len(toks)
            if n == 0:
                continue
            n_chunks = (
                1 if n <= max_tokens
                else (n - max_tokens + step - 1) // step + 1
            )
            for ci in range(n_chunks):
                s = ci * step
                e = min(s + max_tokens, n)
                out_id.append(did)
                out_chunk.append(ci)
                out_text.append(" ".join(toks[s:e]))
                out_n.append(e - s)
        return pa.table(
            {
                id_col: pa.array(out_id, batch.schema.field(id_col).type),
                "chunk_id": pa.array(out_chunk, pa.int64()),
                "text": pa.array(out_text, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def pack_sequences(
    ds,
    id_col: str = "doc_id",
    ntok_col: str = "n_tokens",
    budget: int = 512,
    num_buckets: int = 32,
    tiebreak_col: str | None = None,
):
    """Greedy first-fit packing in deterministic (id, tiebreak) order
    per hash bucket. Output: one row per pack — int64 ``pack_id``
    (globally unique), ``n_items``, ``total_tokens``, and ``item_ids``
    (list of the packed ids in order).

    Invariants (pinned by tests): every input item lands in exactly one
    pack; ``total_tokens <= budget`` unless the pack is a single
    oversized item."""
    from .joins import mix64

    def add_bucket(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.uint64)
        b = (mix64(ids) % np.uint64(num_buckets)).astype(np.int32)
        return batch.append_column("__bucket", pa.array(b, pa.int32()))

    def pack(group: pa.Table) -> pa.Table:
        bucket = group.column("__bucket")[0].as_py()
        ids = np.asarray(group.column(id_col).to_pylist())
        toks = np.asarray(group.column(ntok_col).to_pylist(), dtype=np.int64)
        if tiebreak_col is not None:
            tb = np.asarray(group.column(tiebreak_col).to_pylist())
            order = np.lexsort((tb, ids))
        else:
            order = np.argsort(ids, kind="stable")
        packs: list = []
        cur_ids: list = []
        cur_tot = 0
        for i in order:
            t = int(toks[i])
            if cur_ids and cur_tot + t > budget:
                packs.append((cur_ids, cur_tot))
                cur_ids, cur_tot = [], 0
            cur_ids.append(ids[i])
            cur_tot += t
        if cur_ids:
            packs.append((cur_ids, cur_tot))
        id_type = group.schema.field(id_col).type
        return pa.table(
            {
                "pack_id": pa.array(
                    [(bucket << 32) | seq for seq in range(len(packs))],
                    pa.int64(),
                ),
                "n_items": pa.array([len(p) for p, _ in packs], pa.int64()),
                "total_tokens": pa.array([t for _, t in packs], pa.int64()),
                "item_ids": pa.array(
                    [[x.item() if hasattr(x, "item") else x for x in p]
                     for p, _ in packs],
                    pa.list_(id_type),
                ),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(pack, batch_format="pyarrow")
    )
