"""End-to-end web-corpus preparation over the PAGES table: the
flagship composition a 100-TB crawl run executes — extraction →
quality gate → exact dedup → survivor corpus — as ONE streaming plan.

This is the pages-input analogue of :mod:`corpus_prep` (which cleans a
pre-extracted documents table).  Stages:

1. sniff-routed extraction (``extraction_pipeline`` — the from-scratch
   HTML boilerplate stripper / PDF layout codec over raw bytes),
2. quality gate: ``extract_status == 'ok'`` and ``n_words >= min_words``
   (degraded/boilerplate-only/short pages drop),
3. exact near-zero-cost dedup: md5 of ``extracted_text``; ONE
   hash-keyed partition exchange where each distinct text lands wholly
   in one partition and the in-partition vectorized fold keeps the
   min-url row — only (hash, row) pairs shuffle, texts shuffle ONCE.

Scale notes: no driver materialization anywhere, no broadcast sets
(the round-2 corpus_prep lesson), output is partitioned parquet via
the caller's ``write_parquet``.  Survivor identity is deterministic
(min url per distinct text), so re-runs are idempotent.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _hash_part(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Attach the FULL 128-bit md5 of extracted_text as two int64
    columns (``__wh`` high half — also the partition key — and
    ``__wl`` low half).  Partitioning only needs 64 bits, but the
    exact-dedup contract compares all 128: a 64-bit birthday collision
    is expected at ~1e9+ docs and must not merge distinct texts."""
    texts = batch.column("extracted_text").to_pylist()
    digs = [hashlib.md5((t or "").encode("utf-8")).digest() for t in texts]
    if digs:
        both = np.frombuffer(b"".join(digs), dtype=np.uint64).reshape(-1, 2)
        h, lo = both[:, 0].copy(), both[:, 1].copy()
    else:
        h = lo = np.zeros(0, dtype=np.uint64)
    part = (h % np.uint64(num_partitions)).astype(np.int32)
    return (
        batch.append_column("__wh", pa.array(h.astype(np.int64), pa.int64()))
        .append_column("__wl", pa.array(lo.astype(np.int64), pa.int64()))
        .append_column("__wpart", pa.array(part, pa.int32()))
    )


def _survivor_fold(group: pa.Table) -> pa.Table:
    urls = np.asarray(group.column("url").to_pylist())
    h = group.column("__wh").to_numpy(zero_copy_only=False)
    lo = group.column("__wl").to_numpy(zero_copy_only=False)
    order = np.lexsort((urls, lo, h))
    sh, sl = h[order], lo[order]
    starts = np.nonzero(
        np.concatenate([[True], (sh[1:] != sh[:-1]) | (sl[1:] != sl[:-1])])
    )[0]
    keep_idx = order[starts]  # min url within each distinct 128-bit digest
    out = group.take(pa.array(np.sort(keep_idx)))
    return out.drop_columns(["__wh", "__wl", "__wpart"])


def _survivors(extracted_ds, min_words: int, num_partitions: int):
    """Extraction rows → gated, exact-deduped ``(url, extracted_text,
    n_words)`` survivors."""
    ds = extracted_ds.filter(
        expr=f"extract_status == 'ok' and n_words >= {min_words}"
    ).select_columns(["url", "extracted_text", "n_words"])
    return (
        ds.map_batches(
            lambda b: _hash_part(b, num_partitions), batch_format="pyarrow"
        )
        .groupby("__wpart")
        .map_groups(_survivor_fold, batch_format="pyarrow")
    )


def web_prep_pipeline(pages_ds, min_words: int = 30, num_partitions: int = 32):
    """pages (url, warc_ts, html, lang) → deduped quality corpus
    ``(url, extracted_text, n_words)``."""
    from .extraction import extraction_pipeline

    return _survivors(extraction_pipeline(pages_ds), min_words, num_partitions)


def run_web_prep_job(
    input_files,
    out_dir: str,
    files_per_partition: int = 16,
    min_words: int = 30,
    num_partitions: int = 32,
    emit_wet: bool = False,
) -> dict:
    """Checkpointed, RESUMABLE flagship job — the global-dedup answer
    to per-partition checkpointing:

    - **Phase 1 (checkpointed)**: ``run_extraction_job`` over the input
      files into ``out_dir/stage1``: every extracted row, committed per
      partition with its manifest record (``docs_*`` counts, checksum);
      a killed run resumes from the last committed partition,
      re-extracting nothing.
    - **Phase 2 (recomputed on resume, by design)**: the GLOBAL exact
      dedup cannot be checkpointed per input partition — a duplicate
      pair may span partitions — so it re-runs over a column-pruned
      read of phase 1's output (``url, extracted_text, n_words,
      extract_status``), applies the quality gate and writes the final
      survivor parquet to ``out_dir/final``.  Phase 2 cost is one hash
      exchange over already-extracted text: cheap relative to
      re-extraction, and always consistent with whatever phase-1 state
      resumed.
    """
    import glob
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data

    from .extraction import run_extraction_job
    from ..state.manifest import Manifest

    stage1 = os.path.join(out_dir, "stage1")
    job = run_extraction_job(list(input_files), stage1, files_per_partition)

    # phase 2: global dedup over every committed partition's output
    manifest = Manifest(stage1)
    shards = [
        f
        for pid in range(job["partitions_total"])
        for f in sorted(glob.glob(os.path.join(manifest.partition_dir(pid), "*.parquet")))
    ]
    final = os.path.join(out_dir, "final")
    if os.path.isdir(final):
        shutil.rmtree(final)
    os.makedirs(final)
    if shards:  # no input row, no survivor
        extracted = ray.data.read_parquet(
            shards, columns=["url", "extracted_text", "n_words", "extract_status"]
        )
        _survivors(extracted, min_words, num_partitions).write_parquet(final)
    survivors = sorted(glob.glob(os.path.join(final, "*.parquet")))
    metrics = {
        "partitions_total": job["partitions_total"],
        "partitions_skipped": job["partitions_skipped"],
        "survivors": sum(pq.read_metadata(f).num_rows for f in survivors),
        "output": final,
    }
    if emit_wet:
        # publish the survivor corpus as Common-Crawl-style WET shards
        # (idempotent content-hash names; no warc_ts in the survivor
        # table → epoch timestamps, WET consumers key on URI)
        from ..sources.warc import write_wet

        wet_dir = os.path.join(out_dir, "wet")
        os.makedirs(wet_dir, exist_ok=True)
        n_records = []
        if survivors:
            man = write_wet(ray.data.read_parquet(survivors), wet_dir).to_pandas()
            n_records = man["n_records"].tolist()
        metrics["wet_files"] = len(n_records)
        metrics["wet_records"] = int(sum(n_records))
        metrics["wet_output"] = wet_dir
    return metrics
