"""Distributed joins — operators Ray Data lacks natively.

- ``asof_join``: for every left row, attach the right row with the
  same key and the LATEST right timestamp ≤ the left timestamp (ties
  broken by the largest tiebreak column value — deterministic),
  left-outer.
- ``hash_join``: generic equi-join (inner / left-outer) between two
  large Datasets. Both sides are hash-bucketed on the join key into
  ``num_partitions`` buckets — the single all-to-all shuffle — and
  each bucket is matched VECTORIZED (``pc.index_in``), so Python is
  invoked once per bucket, not per key or per row. The right side
  must be unique per key (dimension-join contract, validated loudly);
  many-to-many joins need the per-key ``asof_join``-style grouping.

Distribution notes: the groupby co-locates each key's rows once;
within a group/bucket the match is numpy/pyarrow, not per-row Python.
Partitioning assumption: one bucket's rows fit in one task's memory —
size ``num_partitions`` to total_size / worker_heap; salt hot keys
upstream if a single key dominates.

Reference has no distributed joins (SURVEY §2.4 — all doc-local);
these generalize the engine to enrichment workloads.
"""
from __future__ import annotations

import zlib
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa


def asof_join(
    left_ds,
    right_ds,
    key: str,
    left_ts: str,
    right_ts: str,
    right_tiebreak: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
    direction: str = "backward",
    tolerance=None,
):
    """Left-outer as-of join (pandas ``merge_asof`` surface). Output
    columns: ``left_cols`` + ``right_cols`` (nullable where no right
    row qualifies).

    ``direction``: ``backward`` (default — latest right row with
    ``r_ts <= l_ts``, ties to the LARGEST tiebreak) or ``forward``
    (earliest right row with ``r_ts >= l_ts``, ties to the SMALLEST
    tiebreak — the "next event after" attribution shape).
    ``tolerance``: optional max |r_ts − l_ts| as a
    ``datetime.timedelta`` or int µs; matches outside it become NULL.
    """
    import datetime

    if direction not in ("backward", "forward"):
        raise ValueError(
            f"direction must be 'backward' or 'forward', got {direction!r}"
        )
    tol_us = None
    if tolerance is not None:
        tol_us = (
            int(tolerance.total_seconds() * 1_000_000)
            if isinstance(tolerance, datetime.timedelta)
            else int(tolerance)
        )
    left_cols = list(left_cols)
    right_cols = list(right_cols)

    # schema derivation on the driver (cheap metadata call)
    l_schema = left_ds.schema()
    r_schema = right_ds.schema()
    l_types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    key_type = l_types[key]  # natural key type — string keys (url) work
    fields = [pa.field("__key", key_type), pa.field("__ts", pa.timestamp("us")),
              pa.field("__side", pa.int8())]
    fields += [pa.field(f"l_{c}", l_types[c]) for c in left_cols]
    fields += [pa.field(f"r_{c}", r_types[c]) for c in right_cols]
    fields.append(pa.field("__tb", pa.int64()))
    schema = pa.schema(fields)

    def to_common(side: int, ts_col: str, cols: List[str], prefix: str, tb: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            arrays = {
                "__key": batch.column(key).cast(key_type),
                "__ts": batch.column(ts_col).cast(pa.timestamp("us")),
                "__side": pa.array([side] * n, pa.int8()),
            }
            for f in schema:
                if f.name.startswith("l_"):
                    c = f.name[2:]
                    arrays[f.name] = (
                        batch.column(c) if side == 0 and c in batch.column_names
                        else pa.nulls(n, f.type)
                    )
                elif f.name.startswith("r_"):
                    c = f.name[2:]
                    arrays[f.name] = (
                        batch.column(c) if side == 1 and c in batch.column_names
                        else pa.nulls(n, f.type)
                    )
            arrays["__tb"] = (
                batch.column(tb).cast(pa.int64()) if side == 1
                else pa.array([0] * n, pa.int64())
            )
            return pa.table(arrays, schema=schema)

        return fn

    both = left_ds.map_batches(
        to_common(0, left_ts, left_cols, "l_", right_tiebreak), batch_format="pyarrow"
    ).union(
        right_ds.map_batches(
            to_common(1, right_ts, right_cols, "r_", right_tiebreak),
            batch_format="pyarrow",
        )
    )
    from .dedup import compact_blocks

    both = compact_blocks(both, skip_above_bytes=4 << 30)
    # ^ single-consumer shuffle feed: the block-count consolidation is
    # gated on lazy read-size metadata so a corpus-scale join payload
    # is never pinned in the object store (ADVICE r2)

    out_fields = [pa.field(c, l_types[c]) for c in left_cols]
    out_fields += [pa.field(c, r_types[c]) for c in right_cols]
    out_schema = pa.schema(out_fields)

    def match_group(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side").to_pylist(), dtype=np.int8)
        ts = np.asarray(group.column("__ts").cast(pa.int64()).to_pylist(), dtype=np.int64)
        tb = np.asarray(group.column("__tb").to_pylist(), dtype=np.int64)
        l_idx = np.nonzero(side == 0)[0]
        r_idx = np.nonzero(side == 1)[0]
        if len(l_idx) == 0:
            return out_schema.empty_table()
        lefts = group.take(pa.array(l_idx))
        if len(r_idx) == 0:
            cols = {c: lefts.column(f"l_{c}") for c in left_cols}
            for c in right_cols:
                cols[c] = pa.nulls(len(l_idx), out_schema.field(c).type)
            return pa.table(cols, schema=out_schema)
        # sort right side by (ts, tiebreak); backward walks back from
        # searchsorted-right, forward takes searchsorted-left
        order = np.lexsort((tb[r_idx], ts[r_idx]))
        r_sorted = r_idx[order]
        r_ts = ts[r_sorted]
        l_ts = ts[l_idx]
        if direction == "backward":
            pos = np.searchsorted(r_ts, l_ts, side="right") - 1
            has = pos >= 0
            if tol_us is not None:
                has &= (l_ts - r_ts[np.clip(pos, 0, None)]) <= tol_us
        else:
            pos = np.searchsorted(r_ts, l_ts, side="left")
            has = pos < len(r_ts)
            if tol_us is not None:
                has &= (
                    r_ts[np.clip(pos, 0, len(r_ts) - 1)] - l_ts
                ) <= tol_us
            pos = np.clip(pos, 0, len(r_ts) - 1)
        take_r = np.where(has, r_sorted[np.clip(pos, 0, None)], -1)
        rights = group.take(pa.array(np.clip(take_r, 0, None), pa.int64()))
        cols = {c: lefts.column(f"l_{c}") for c in left_cols}
        has_arr = pa.array(has)
        import pyarrow.compute as pc

        for c in right_cols:
            matched = rights.column(f"r_{c}")
            cols[c] = pc.if_else(
                has_arr, matched, pa.nulls(len(l_idx), out_schema.field(c).type)
            )
        return pa.table(cols, schema=out_schema)

    import ray.data

    matched = both.groupby("__key").map_groups(match_group, batch_format="pyarrow")
    return ray.data.from_arrow(out_schema.empty_table()).union(
        _coerce_blocks(matched, out_schema)
    )


def to_pandas_typed(ds):
    """``Dataset.to_pandas`` that keeps column names on empty results.

    Ray 2.49's ``to_pandas()`` returns a column-less DataFrame whenever
    the dataset has zero rows — even when every block carries a typed
    schema — because it builds the frame from the (empty) batch stream
    rather than the dataset schema. This wrapper falls back to the
    unified lazy schema so callers (tests, oracles, CLIs) always see
    the declared columns."""
    df = ds.to_pandas()
    if df.shape[1] == 0:
        sch = ds.schema()
        if sch is not None:
            return pa.schema(zip(sch.names, sch.types)).empty_table().to_pandas()
    return df


def _coerce_blocks(ds, out_schema: pa.Schema):
    """Normalize every physical block to ``out_schema``.

    ``groupby().map_groups`` over an empty input emits one SCHEMALESS
    empty block; downstream consumers (``to_pandas``, unions) then see
    mixed schemas and drop the column names. Columns are selected by
    name (zero-copy) and cast, so non-empty blocks pass through
    untouched and the stage fuses with the producing map."""

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        return pa.table(
            {f.name: batch.column(f.name).cast(f.type) for f in out_schema},
            schema=out_schema,
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# ------------------------------------------------------------------ hash join
_MIX = np.uint64(0x9E3779B97F4A7C15)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array — vectorized,
    process-stable (unlike builtin ``hash``)."""
    x = (x + _MIX).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _hash_binlike(arr: pa.Array) -> np.ndarray:
    """uint64 BUCKETING hash per row of a large_binary array — three
    8-byte windows (head, middle, tail) gathered straight off the raw
    value buffer plus the length, folded through splitmix64. O(rows)
    numpy gathers, no per-row Python (the round-2 crc32 loop was the
    only per-row hot path left in the join family).

    Contract: this is a PARTITIONING hash, not an equality fingerprint
    — distinct values that agree on all three windows and length
    simply co-locate in one bucket (harmless: in-bucket matching is
    exact). For url/id/name-shaped keys the sampled 24 bytes + length
    spread near-uniformly (distribution pinned by tests)."""
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    offs = np.frombuffer(arr.buffers()[1], np.int64)[arr.offset : arr.offset + n + 1]
    starts, ends = offs[:-1], offs[1:]
    lens = ends - starts
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    if len(data) == 0:
        data = np.zeros(1, np.uint8)  # all-empty column: safe gather base

    def window(pos0: np.ndarray) -> np.ndarray:
        w = np.zeros(n, dtype=np.uint64)
        for k in range(8):
            idx = pos0 + k
            m = idx < ends
            b = np.where(m, data[np.where(m, idx, 0)], 0).astype(np.uint64)
            w |= b << np.uint64(8 * k)
        return w

    head = window(starts)
    mid = window(starts + np.maximum(lens // 2 - 4, 0))
    tail = window(np.maximum(ends - 8, starts))
    return mix64(head ^ mix64(mid ^ mix64(tail ^ lens.astype(np.uint64))))


def _bucket_of(col: pa.ChunkedArray, n: int) -> pa.Array:
    """Deterministic hash-bucket id per value. Integer/temporal keys
    are mixed vectorized (splitmix64); string/binary keys go through
    the vectorized buffer-polynomial hash. Null → bucket 0."""
    import pyarrow.compute as pc

    t = col.type
    if pa.types.is_integer(t) or pa.types.is_temporal(t):
        v = (
            pc.fill_null(col.cast(pa.int64()), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.uint64)
        )
        b = (mix64(v) % np.uint64(n)).astype(np.int32)
        return pa.array(b, pa.int32())
    if (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    ):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        # 64-bit offsets so one code path reads the buffer
        arr = arr.cast(pa.large_binary())
        b = (_hash_binlike(arr) % np.uint64(n)).astype(np.int32)
        if arr.null_count:
            b[np.asarray(pc.is_null(arr).to_numpy(zero_copy_only=False))] = 0
        return pa.array(b, pa.int32())
    # rare fallback (decimals, structs): stable per-value crc32
    vals = col.to_pylist()
    return pa.array(
        [0 if v is None else zlib.crc32(str(v).encode()) % n for v in vals],
        pa.int32(),
    )


def semi_anti_join(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    left_cols: Sequence[str],
    how: str = "semi",
    num_partitions: int = 32,
):
    """Hash-partitioned semi / anti join: keep left rows whose key IS
    (``semi``) / IS NOT (``anti``) present in the right side.

    Same single-shuffle plan as :func:`hash_join`, but the right side
    ships ONLY its key column (the membership set), so the shuffled
    payload is minimal — at 100 TB the right side of an anti-join
    (e.g. "already-processed doc_ids") moves as bare keys, never rows.
    Inside a bucket membership is one vectorized ``pc.is_in``. SQL
    semantics: a null left key matches nothing (kept by ``anti``,
    dropped by ``semi``) and null right keys are ignored.
    """
    if how not in ("semi", "anti"):
        raise ValueError(f"how must be 'semi' or 'anti', got {how!r}")
    left_cols = list(left_cols)

    l_schema = left_ds.schema()
    l_types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    key_type = l_types[left_key]

    fields = [
        pa.field("__part", pa.int32()),
        pa.field("__side", pa.int8()),
        pa.field("__jk", key_type),
    ]
    fields += [pa.field(f"l_{c}", l_types[c]) for c in left_cols]
    schema = pa.schema(fields)

    def to_common(side: int, key_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            jk = batch.column(key_col).cast(key_type)
            arrays = {
                "__part": _bucket_of(jk, num_partitions),
                "__side": pa.array([side] * n, pa.int8()),
                "__jk": jk,
            }
            for f in schema:
                if f.name.startswith("l_"):
                    c = f.name[2:]
                    arrays[f.name] = (
                        batch.column(c) if side == 0 else pa.nulls(n, f.type)
                    )
            return pa.table(arrays, schema=schema)

        return fn

    both = left_ds.map_batches(to_common(0, left_key), batch_format="pyarrow").union(
        right_ds.select_columns([right_key]).map_batches(
            to_common(1, right_key), batch_format="pyarrow"
        )
    )
    from .dedup import compact_blocks

    both = compact_blocks(both, skip_above_bytes=4 << 30)
    # ^ single-consumer shuffle feed: the block-count consolidation is
    # gated on lazy read-size metadata so a corpus-scale join payload
    # is never pinned in the object store (ADVICE r2)

    out_schema = pa.schema([pa.field(c, l_types[c]) for c in left_cols])

    def filter_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = group.column("__side")
        lefts = group.filter(pc.equal(side, 0))
        if lefts.num_rows == 0:
            return out_schema.empty_table()
        rights = group.filter(pc.equal(side, 1))
        l_keys = lefts.column("__jk").combine_chunks()
        r_keys = rights.column("__jk").combine_chunks().drop_null()
        if len(r_keys) == 0:
            present = pa.array([False] * lefts.num_rows)
        else:
            present = pc.fill_null(pc.is_in(l_keys, value_set=r_keys), False)
            # null left key never matches
            present = pc.and_(present, pc.is_valid(l_keys))
        keep = present if how == "semi" else pc.invert(present)
        kept = lefts.filter(keep)
        return pa.table(
            {c: kept.column(f"l_{c}") for c in left_cols}, schema=out_schema
        )

    import ray.data

    kept = both.groupby("__part").map_groups(filter_bucket, batch_format="pyarrow")
    return ray.data.from_arrow(out_schema.empty_table()).union(
        _coerce_blocks(kept, out_schema)
    )


def hash_join(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
    how: str = "inner",
    num_partitions: int = 32,
    validate: str = "unique_right",
):
    """Hash-partitioned shuffle equi-join (``how`` ∈ {inner, left,
    full}; right-outer = swap the arguments).

    Both sides gain a ``__part = hash(key) % P`` column (vectorized),
    union into a common nullable layout, and a single ``groupby(__part)``
    co-locates each bucket; inside a bucket the match is one
    ``pc.index_in`` — no per-key Python. Output columns are
    ``left_cols + right_cols`` (must be disjoint; the join key appears
    only if listed in ``left_cols``). Null join keys never match
    (SQL semantics).

    ``validate`` picks the match semantics: ``unique_right`` (default,
    dimension-join contract — duplicate right keys raise loudly so
    first-match never silently drops rows) or ``many`` (full SQL
    many-to-many: every (left, right) key pair joins; in-bucket
    expansion is sort + searchsorted + repeat, no per-key Python).
    With ``many``, output size is Σ_k |L_k|·|R_k| — a hot key's cross
    product lands in one task; pre-aggregate or salt if a key
    dominates.

    Scale: the only payload that shuffles is the two projected column
    sets; size ``num_partitions`` so a bucket (≈ total/P of both sides)
    fits a worker heap. Hot keys: a single key lands in one bucket —
    pre-aggregate or salt upstream if one key dominates.
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(f"how must be 'inner', 'left' or 'full', got {how!r}")
    if validate not in ("unique_right", "many"):
        raise ValueError(
            f"validate must be 'unique_right' or 'many', got {validate!r}"
        )
    left_cols = list(left_cols)
    right_cols = list(right_cols)
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"output column collision: {sorted(overlap)}")

    l_schema = left_ds.schema()
    r_schema = right_ds.schema()
    l_types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    key_type = l_types[left_key]

    fields = [
        pa.field("__part", pa.int32()),
        pa.field("__side", pa.int8()),
        pa.field("__jk", key_type),
    ]
    fields += [pa.field(f"l_{c}", l_types[c]) for c in left_cols]
    fields += [pa.field(f"r_{c}", r_types[c]) for c in right_cols]
    schema = pa.schema(fields)

    def to_common(side: int, key_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            jk = batch.column(key_col).cast(key_type)
            arrays = {
                "__part": _bucket_of(jk, num_partitions),
                "__side": pa.array([side] * n, pa.int8()),
                "__jk": jk,
            }
            for f in schema:
                if f.name.startswith("l_"):
                    c = f.name[2:]
                    arrays[f.name] = (
                        batch.column(c) if side == 0 else pa.nulls(n, f.type)
                    )
                elif f.name.startswith("r_"):
                    c = f.name[2:]
                    arrays[f.name] = (
                        batch.column(c) if side == 1 else pa.nulls(n, f.type)
                    )
            return pa.table(arrays, schema=schema)

        return fn

    both = left_ds.map_batches(to_common(0, left_key), batch_format="pyarrow").union(
        right_ds.map_batches(to_common(1, right_key), batch_format="pyarrow")
    )
    from .dedup import compact_blocks

    both = compact_blocks(both, skip_above_bytes=4 << 30)
    # ^ single-consumer shuffle feed: the block-count consolidation is
    # gated on lazy read-size metadata so a corpus-scale join payload
    # is never pinned in the object store (ADVICE r2)
    # ^ the union inherits both readers' block counts; consolidating
    # the (projected) join payload before the bucket groupby removes
    # per-block shuffle overhead — size-aware, so a no-op at scale.

    out_fields = [pa.field(c, l_types[c]) for c in left_cols]
    out_fields += [pa.field(c, r_types[c]) for c in right_cols]
    out_schema = pa.schema(out_fields)

    def join_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = group.column("__side")
        lefts = group.filter(pc.equal(side, 0))
        rights = group.filter(pc.equal(side, 1))

        def rights_only(r_tbl: pa.Table) -> pa.Table:
            cols = {
                c: pa.nulls(r_tbl.num_rows, out_schema.field(c).type)
                for c in left_cols
            }
            for c in right_cols:
                cols[c] = r_tbl.column(f"r_{c}")
            return pa.table(cols, schema=out_schema)

        def finish(res: pa.Table, l_keys) -> pa.Table:
            # FULL OUTER: append right rows no valid left key matched
            if how != "full" or rights.num_rows == 0:
                return res
            r_keys = rights.column("__jk").combine_chunks()
            l_valid = l_keys.drop_null()
            if len(l_valid):
                r_matched = pc.and_(
                    pc.is_valid(r_keys),
                    pc.fill_null(pc.is_in(r_keys, value_set=l_valid), False),
                )
            else:
                r_matched = pa.array([False] * rights.num_rows)
            unmatched = rights.filter(pc.invert(r_matched))
            if unmatched.num_rows == 0:
                return res
            return pa.concat_tables([res, rights_only(unmatched)])

        if lefts.num_rows == 0:
            if how == "full" and rights.num_rows:
                return rights_only(rights)
            return out_schema.empty_table()
        l_keys = lefts.column("__jk").combine_chunks()
        if rights.num_rows == 0:
            if how == "inner":
                return out_schema.empty_table()
            cols = {c: lefts.column(f"l_{c}") for c in left_cols}
            for c in right_cols:
                cols[c] = pa.nulls(lefts.num_rows, out_schema.field(c).type)
            return pa.table(cols, schema=out_schema)
        r_keys = rights.column("__jk").combine_chunks()
        if validate == "unique_right":
            n_distinct = pc.count_distinct(r_keys, mode="only_valid").as_py()
            n_valid = len(r_keys) - r_keys.null_count
            if n_distinct != n_valid:
                raise ValueError(
                    "hash_join: right side has duplicate join keys "
                    f"({n_valid - n_distinct} dup rows in one bucket); "
                    "dedupe the right side, use validate='many', or a "
                    "per-key join"
                )
        if validate == "many":
            # many-to-many: expand every (left, right) key pair.
            # Sort rights by key; per left row searchsorted gives its
            # match range [lo, hi); np.repeat + range-arithmetic builds
            # both take-index vectors fully vectorized.
            n_l = len(l_keys)
            l_valid = np.asarray(pc.is_valid(l_keys).to_pylist(), dtype=bool)
            r_valid = np.asarray(pc.is_valid(r_keys).to_pylist(), dtype=bool)
            l_np = np.asarray(l_keys.to_pylist(), dtype=object)
            r_np = np.asarray(r_keys.to_pylist(), dtype=object)
            l_idx_v = np.nonzero(l_valid)[0]
            r_idx_v = np.nonzero(r_valid)[0]
            r_sorted_order = r_idx_v[np.argsort(r_np[r_idx_v], kind="stable")]
            r_sorted_keys = r_np[r_sorted_order]
            lo_v = np.searchsorted(r_sorted_keys, l_np[l_idx_v], side="left")
            hi_v = np.searchsorted(r_sorted_keys, l_np[l_idx_v], side="right")
            counts = np.zeros(n_l, dtype=np.int64)
            counts[l_idx_v] = hi_v - lo_v
            lo = np.zeros(n_l, dtype=np.int64)
            lo[l_idx_v] = lo_v
            matched_left = np.repeat(np.arange(n_l), counts)
            # offsets within each left row's [lo, hi) range
            starts = np.repeat(lo, counts)
            seq = np.arange(len(matched_left)) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            matched_right = (
                r_sorted_order[starts + seq]
                if len(matched_left)
                else np.array([], dtype=np.int64)
            )
            out_lefts = lefts.take(pa.array(matched_left, pa.int64()))
            out_rights = rights.take(pa.array(matched_right, pa.int64()))
            cols = {c: out_lefts.column(f"l_{c}") for c in left_cols}
            for c in right_cols:
                cols[c] = out_rights.column(f"r_{c}")
            if how in ("left", "full"):
                # left rows with no match emit one null-extended row
                miss = np.nonzero(counts == 0)[0]
                if len(miss):
                    m_lefts = lefts.take(pa.array(miss, pa.int64()))
                    miss_cols = {c: m_lefts.column(f"l_{c}") for c in left_cols}
                    for c in right_cols:
                        miss_cols[c] = pa.nulls(
                            len(miss), out_schema.field(c).type
                        )
                    return finish(
                        pa.concat_tables(
                            [
                                pa.table(cols, schema=out_schema),
                                pa.table(miss_cols, schema=out_schema),
                            ]
                        ),
                        l_keys,
                    )
            return finish(pa.table(cols, schema=out_schema), l_keys)
        idx = pc.index_in(l_keys, value_set=r_keys)
        # SQL semantics: a null join key matches nothing
        idx = pc.if_else(pc.is_valid(l_keys), idx, pa.nulls(len(l_keys), pa.int32()))
        if how == "inner":
            valid = pc.is_valid(idx)
            lefts = lefts.filter(valid)
            idx = idx.filter(valid)
            if lefts.num_rows == 0:
                return out_schema.empty_table()
        matched = rights.take(idx)  # null idx → null row (left-outer)
        cols = {c: lefts.column(f"l_{c}") for c in left_cols}
        for c in right_cols:
            cols[c] = matched.column(f"r_{c}")
        return finish(pa.table(cols, schema=out_schema), l_keys)

    import ray.data

    joined = both.groupby("__part").map_groups(join_bucket, batch_format="pyarrow")
    # union with a typed empty block so an all-empty result still
    # carries the output schema (downstream .to_pandas()/oracle
    # comparisons see named columns, not a schemaless empty dataset)
    return ray.data.from_arrow(out_schema.empty_table()).union(
        _coerce_blocks(joined, out_schema)
    )


def broadcast_join(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    right_cols: Sequence[str],
    how: str = "inner",
    max_right_bytes: int = 64 << 20,
):
    """Map-side equi-join against a SMALL right side — zero shuffle.

    The scale path for dimension enrichment (region/nation/config
    tables that stay constant-sized while the fact side grows): the
    right side's projected columns are collected once on the driver
    (LOUD size cap — a right side that outgrows ``max_right_bytes``
    belongs in :func:`hash_join`), ``ray.put`` once, and every left
    batch attaches its matches with a single vectorized ``pc.index_in``
    + ``take``. The left side streams through a fused ``map_batches``
    — no repartition, no groupby, no all-to-all.

    Semantics: SQL equi-join, unique-right contract (duplicate right
    keys raise — use :func:`hash_join` ``validate='many'`` for m:n),
    null left keys never match. ``how`` ∈ {inner, left}; output is all
    left columns plus ``right_cols`` (names must not collide)."""
    import pyarrow.compute as pc
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    right_cols = list(right_cols)

    rt = pa.concat_tables(
        ray.get(right_ds.select_columns([right_key] + right_cols).to_arrow_refs())
    )
    if rt.nbytes > max_right_bytes:
        raise ValueError(
            f"broadcast_join: right side is {rt.nbytes >> 20} MiB "
            f"(cap {max_right_bytes >> 20} MiB) — too large to broadcast; "
            "use hash_join"
        )
    r_keys = rt.column(right_key).combine_chunks().drop_null()
    if pc.count_distinct(r_keys).as_py() != len(r_keys):
        raise ValueError(
            "broadcast_join: right side has duplicate join keys; "
            "dedupe it or use hash_join(validate='many')"
        )
    valid = pc.is_valid(rt.column(right_key))
    rt = rt.filter(valid).combine_chunks()
    rt_ref = ray.put(rt)

    def attach(batch: pa.Table) -> pa.Table:
        right = ray.get(rt_ref)
        lk = batch.column(left_key)
        idx = pc.index_in(lk, value_set=right.column(right_key))
        idx = pc.if_else(pc.is_valid(lk), idx, pa.nulls(len(lk), pa.int32()))
        if how == "inner":
            keep = pc.is_valid(idx)
            batch = batch.filter(keep)
            idx = idx.filter(keep)
        matched = right.take(idx)  # null idx → null row (left-outer)
        for c in right_cols:
            batch = batch.append_column(c, matched.column(c))
        return batch

    return left_ds.map_batches(attach, batch_format="pyarrow")


def _numcast(col: pa.ChunkedArray):
    """Cast a numeric/timestamp column to a comparable numpy dtype.

    Timestamps become exact int64 microseconds; everything else goes
    to float64 (band edges, prices). Returns (numpy array, is_ts)."""
    t = col.type
    if pa.types.is_timestamp(t):
        return (
            np.asarray(col.cast(pa.timestamp("us")).cast(pa.int64()).to_pylist(),
                       dtype=np.int64),
            True,
        )
    return np.asarray(col.cast(pa.float64()).to_pylist(), dtype=np.float64), False


def range_join(
    left_ds,
    right_ds,
    key: str,
    left_val: str,
    right_lo: str,
    right_hi: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
    max_width=None,
    lo_inclusive: bool = True,
    hi_inclusive: bool = False,
):
    """Keyed interval (range) join — INNER, many-to-many.

    Emits one row per (left, right) pair with the same ``key`` where
    ``right_lo <= left_val < right_hi`` (inclusivity per flags). The
    operator Ray Data lacks natively; the reference has no joins at
    all (SURVEY §2.4) — this serves enrichment shapes like
    "event within N days of an order" or IP→range lookups.

    Plan: both sides are tagged and unioned (one pass each), then ONE
    hash shuffle co-locates each key's rows (`groupby(key)`), and the
    in-group interval match is fully vectorized: right intervals are
    sorted by ``lo``; for every left value a double ``searchsorted``
    yields the candidate slice, flattened with repeat/cumsum index
    arithmetic and masked by the ``hi`` bound — no per-row Python.

    Partitioning assumptions (documented per the engine contract):
    - one key's rows fit one group task (same as asof_join/windows;
      salt or time-split giant keys upstream);
    - when ``max_width`` is given, EVERY right interval must satisfy
      ``hi - lo <= max_width`` (validated loudly per group) — the
      prune then bounds candidates to the [v - max_width, v] window
      of ``lo`` values, making in-group cost O(pairs) instead of
      O(rows × preceding intervals). Without it, correctness holds
      but a key whose intervals all start early degrades to a scan.

    Values may be timestamps (exact int64 µs) or numerics (float64).
    """
    left_cols = list(left_cols)
    right_cols = list(right_cols)
    l_schema = left_ds.schema()
    r_schema = right_ds.schema()
    l_types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    key_type = l_types[key]
    val_is_ts = pa.types.is_timestamp(l_types[left_val])
    num_type = pa.int64() if val_is_ts else pa.float64()

    fields = [pa.field("__key", key_type), pa.field("__v", num_type),
              pa.field("__hi", num_type), pa.field("__side", pa.int8())]
    fields += [pa.field(f"l_{c}", l_types[c]) for c in left_cols]
    fields += [pa.field(f"r_{c}", r_types[c]) for c in right_cols]
    schema = pa.schema(fields)

    def to_common(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            if side == 0:
                v, _ = _numcast(batch.column(left_val))
                hi = np.zeros(n, dtype=v.dtype)
            else:
                v, _ = _numcast(batch.column(right_lo))
                hi, _ = _numcast(batch.column(right_hi))
            arrays = {
                "__key": batch.column(key).cast(key_type),
                "__v": pa.array(v, num_type),
                "__hi": pa.array(hi, num_type),
                "__side": pa.array([side] * n, pa.int8()),
            }
            for f in schema:
                pre, c = f.name[:2], f.name[2:]
                if pre == "l_":
                    arrays[f.name] = (batch.column(c) if side == 0
                                      else pa.nulls(n, f.type))
                elif pre == "r_":
                    arrays[f.name] = (batch.column(c) if side == 1
                                      else pa.nulls(n, f.type))
            return pa.table(arrays, schema=schema)

        return fn

    both = left_ds.map_batches(to_common(0), batch_format="pyarrow").union(
        right_ds.map_batches(to_common(1), batch_format="pyarrow")
    )
    from .dedup import compact_blocks

    both = compact_blocks(both, skip_above_bytes=4 << 30)

    out_fields = [pa.field(c, l_types[c]) for c in left_cols]
    out_fields += [pa.field(c, r_types[c]) for c in right_cols]
    out_schema = pa.schema(out_fields)
    width = None if max_width is None else (
        np.int64(max_width) if val_is_ts else np.float64(max_width))
    lo_side = "right" if lo_inclusive else "left"

    def match_group(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side").to_pylist(), dtype=np.int8)
        v = np.asarray(group.column("__v").to_pylist())
        hi = np.asarray(group.column("__hi").to_pylist())
        l_idx = np.nonzero(side == 0)[0]
        r_idx = np.nonzero(side == 1)[0]
        if len(l_idx) == 0 or len(r_idx) == 0:
            return out_schema.empty_table()
        r_lo = v[r_idx]
        r_hi = hi[r_idx]
        if width is not None:
            w = r_hi - r_lo
            if len(w) and w.max() > width:
                raise ValueError(
                    f"range_join: interval wider than max_width={max_width} "
                    f"(saw {w.max()}); widen max_width or drop it"
                )
        order = np.argsort(r_lo, kind="stable")
        r_sorted = r_idx[order]
        lo_s = r_lo[order]
        hi_s = r_hi[order]
        lv = v[l_idx]
        a = np.searchsorted(lo_s, lv, side=lo_side)
        if width is not None:
            b = np.searchsorted(lo_s, lv - width, side="left")
        else:
            b = np.zeros(len(lv), dtype=np.int64)
        counts = a - b
        tot = int(counts.sum())
        if tot == 0:
            return out_schema.empty_table()
        cum = np.concatenate([[0], np.cumsum(counts)])
        offs = (np.arange(tot) - np.repeat(cum[:-1], counts)
                + np.repeat(b, counts))
        l_rep = np.repeat(l_idx, counts)
        cand = r_sorted[offs]
        cand_hi = hi_s[offs]
        v_rep = np.repeat(lv, counts)
        keep = cand_hi >= v_rep if hi_inclusive else cand_hi > v_rep
        if not keep.any():
            return out_schema.empty_table()
        lefts = group.take(pa.array(l_rep[keep], pa.int64()))
        rights = group.take(pa.array(cand[keep], pa.int64()))
        cols = {c: lefts.column(f"l_{c}") for c in left_cols}
        for c in right_cols:
            cols[c] = rights.column(f"r_{c}")
        return pa.table(cols, schema=out_schema)

    import ray.data

    matched = both.groupby("__key").map_groups(match_group, batch_format="pyarrow")
    return ray.data.from_arrow(out_schema.empty_table()).union(
        _coerce_blocks(matched, out_schema)
    )


def broadcast_range_join(
    left_ds,
    bands: pa.Table,
    left_val: str,
    lo_col: str,
    hi_col: str,
    band_cols: Sequence[str],
    how: str = "inner",
):
    """Keyless range join against a SMALL, NON-OVERLAPPING interval
    table (price bands, latency buckets, IP blocks after a split) —
    map-side only, ZERO shuffle.

    ``bands`` is driver-resident (dimension-sized; the scale contract
    is the same as ``broadcast_join``'s): it is validated to be
    non-overlapping when sorted by ``lo``, ``ray.put`` once, and every
    batch classifies rows with one vectorized ``searchsorted`` against
    the sorted ``lo`` edges, then masks by ``hi`` (half-open
    ``lo <= v < hi``). Rows in no band are dropped (``how='inner'``)
    or kept with null band columns (``'left'``)."""
    import pyarrow.compute as pc
    import ray

    band_cols = list(band_cols)
    lo_np, _ = _numcast(bands.column(lo_col))
    hi_np, _ = _numcast(bands.column(hi_col))
    order = np.argsort(lo_np, kind="stable")
    lo_s, hi_s = lo_np[order], hi_np[order]
    if len(lo_s) > 1 and (hi_s[:-1] > lo_s[1:]).any():
        raise ValueError("broadcast_range_join: bands overlap — use range_join")
    sorted_bands = bands.take(pa.array(order, pa.int64())).combine_chunks()
    state = ray.put((lo_s, hi_s, sorted_bands))

    def attach(batch: pa.Table) -> pa.Table:
        lo_a, hi_a, bt = ray.get(state)
        v, _ = _numcast(batch.column(left_val))
        pos = np.searchsorted(lo_a, v, side="right") - 1
        ok = (pos >= 0) & (v < hi_a[np.clip(pos, 0, None)])
        if how == "inner":
            batch = batch.filter(pa.array(ok))
            idx = pa.array(pos[ok], pa.int64())
            matched = bt.take(idx)
            for c in band_cols:
                batch = batch.append_column(c, matched.column(c))
            return batch
        idx = pa.array(np.where(ok, pos, -1), pa.int32())
        idx = pc.if_else(pa.array(ok), idx, pa.nulls(len(ok), pa.int32()))
        matched = bt.take(idx)
        for c in band_cols:
            batch = batch.append_column(c, matched.column(c))
        return batch

    return left_ds.map_batches(attach, batch_format="pyarrow")


def broadcast_cross_join(left_ds, right_table: pa.Table,
                         max_right_rows: int = 10_000):
    """CROSS JOIN against a SMALL driver-resident table — every left
    row pairs with every right row (grid/calendar/template expansion
    shapes). Map-side only, ZERO shuffle: the right table is
    ``ray.put`` once; each batch expands with one repeat/tile index
    pair. The dimension contract is loud: output is |left|×|right|
    rows, so ``max_right_rows`` guards against an accidental
    corpus-sized right side (use a real join instead).
    """
    import ray

    if right_table.num_rows > max_right_rows:
        raise ValueError(
            f"broadcast_cross_join: right side has {right_table.num_rows} "
            f"rows > max_right_rows={max_right_rows} — a cross product "
            "this size needs a real shuffle plan, not a broadcast"
        )
    overlap = set(right_table.column_names)

    r_ref = ray.put(right_table.combine_chunks())

    def expand(batch: pa.Table) -> pa.Table:
        clash = overlap & set(batch.column_names)
        if clash:
            raise ValueError(f"output column collision: {sorted(clash)}")
        right = ray.get(r_ref)
        nl, nr = batch.num_rows, right.num_rows
        if nl == 0 or nr == 0:
            fields = list(batch.schema) + list(right.schema)
            return pa.schema(fields).empty_table()
        li = pa.array(np.repeat(np.arange(nl), nr), pa.int64())
        ri = pa.array(np.tile(np.arange(nr), nl), pa.int64())
        lt = batch.take(li)
        rt = right.take(ri)
        cols = {c: lt.column(c) for c in lt.column_names}
        for c in rt.column_names:
            cols[c] = rt.column(c)
        return pa.table(cols)

    return left_ds.map_batches(expand, batch_format="pyarrow")


def salted_join(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
    how: str = "inner",
    n_salt: int = 8,
    num_partitions: int = 32,
):
    """Skew-defusing equi-join: SALT the hot-keyed (left) side so one
    dominant key spreads over ``n_salt`` buckets instead of landing its
    whole cross-product in a single task.

    The big/skewed side gains a deterministic per-row salt (splitmix64
    of the key mixed with the row's block offset — stable across
    retries, uniform within a key); the small side REPLICATES each row
    ``n_salt`` times, once per salt value.  Joining on the composite
    ``(key, salt)`` then yields exactly the plain join's result — every
    (left, right) key pair still meets exactly once — while a key that
    used to pin one partition now fans over ``n_salt``.  Shuffle cost:
    the small side's payload grows ×n_salt (keep it the dimension
    side); the big side is unchanged.

    Result-equality with ``hash_join(validate='many')`` is pinned by
    tests.  Keys must be
    integers (the composite key is ``key·n_salt + salt`` in int64).
    ``how`` ∈ {inner, left}: left-outer semantics follow the salted
    left side naturally (each left row carries exactly one salt).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    left_cols = list(left_cols)
    right_cols = list(right_cols)

    def salt_left(batch: pa.Table) -> pa.Table:
        if batch.column(left_key).null_count:
            raise ValueError(
                "salted_join: null join keys are not supported "
                "(filter them out or use hash_join)"
            )
        k = np.asarray(batch.column(left_key).to_pylist(), dtype=np.int64)
        # mix block-local position into the salt so equal keys spread
        pos = np.arange(len(k), dtype=np.uint64)
        salt = (mix64(k.astype(np.uint64) + (pos * np.uint64(0x9E3779B97F4A7C15)))
                % np.uint64(n_salt)).astype(np.int64)
        ck = k * np.int64(n_salt) + salt
        return batch.append_column("__ck", pa.array(ck, pa.int64()))

    def replicate_right(batch: pa.Table) -> pa.Table:
        if batch.column(right_key).null_count:
            raise ValueError(
                "salted_join: null join keys are not supported "
                "(filter them out or use hash_join)"
            )
        n = batch.num_rows
        idx = np.repeat(np.arange(n, dtype=np.int64), n_salt)
        rep = batch.take(pa.array(idx, pa.int64()))
        k = np.asarray(rep.column(right_key).to_pylist(), dtype=np.int64)
        salt = np.tile(np.arange(n_salt, dtype=np.int64), n)
        ck = k * np.int64(n_salt) + salt
        return rep.append_column("__ck", pa.array(ck, pa.int64()))

    salted_l = left_ds.map_batches(salt_left, batch_format="pyarrow")
    salted_r = right_ds.map_batches(replicate_right, batch_format="pyarrow")
    return hash_join(
        salted_l, salted_r, "__ck", "__ck",
        left_cols, right_cols, how=how,
        num_partitions=num_partitions, validate="many",
    )
