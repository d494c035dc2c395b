"""Session windows — a streaming-style operator over batch data.

``sessionize`` assigns events to sessions per key: sorted by event
time, a gap larger than ``gap_seconds`` starts a new session. One hash
shuffle (groupby key) co-locates each key's events; everything inside
a group is vectorized numpy (sort, diff, cumsum, bincount) — no
per-event Python. Partitioning assumption: one key's events fit one
group (true for per-user / per-host streams; split giant keys by time
range upstream if not).

The reference has no windowing (SURVEY §2.9 — none); this extends the
engine to the sessionized-clickstream shape large-scale training-data
pipelines use for user-level dedup and activity features.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def sessionize(
    events_ds,
    key: str = "user_id",
    ts_col: str = "ts",
    gap_seconds: float = 86400.0,
    tiebreak: str = "event_id",
):
    """events → one row per (key, session): ``session_id`` (1-based per
    key in time order), ``n_events``, ``session_start``, ``session_end``.
    """
    gap_us = int(gap_seconds * 1_000_000)

    def sess(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts))
        t = ts[order]
        brk = np.concatenate([[0], (np.diff(t) > gap_us).astype(np.int64)])
        sid = np.cumsum(brk) + 1
        n_sessions = int(sid[-1])
        counts = np.bincount(sid)[1:]
        first = np.searchsorted(sid, np.arange(1, n_sessions + 1), side="left")
        last = np.searchsorted(sid, np.arange(1, n_sessions + 1), side="right") - 1
        key_arr = group.column(key).take(pa.array([0] * n_sessions, pa.int64()))
        return pa.table(
            {
                key: key_arr,
                "session_id": pa.array(np.arange(1, n_sessions + 1), pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
                "session_start": pa.array(t[first], pa.timestamp("us")),
                "session_end": pa.array(t[last], pa.timestamp("us")),
            }
        )

    return events_ds.groupby(key).map_groups(sess, batch_format="pyarrow")


def lag_gap_stats(
    events_ds,
    key: str = "user_id",
    ts_col: str = "ts",
    tiebreak: str = "event_id",
):
    """Per-key LAG-window aggregate: gaps between consecutive events
    (ordered by ``ts_col`` then ``tiebreak``) reduced to one row per
    key — ``n_gaps``, ``sum_gap_us``, ``max_gap_us``. Gaps stay whole
    int64 microseconds so results are exact (no float drift vs a SQL
    oracle). Same single-shuffle plan as :func:`sessionize`; in-group
    work is lexsort + diff, no per-event Python. Keys with a single
    event produce no row (no gap exists — matches SQL ``LAG`` +
    ``WHERE gap IS NOT NULL``)."""

    def gaps(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        if len(ts) < 2:
            return pa.table(
                {
                    key: group.column(key).slice(0, 0),
                    "n_gaps": pa.array([], pa.int64()),
                    "sum_gap_us": pa.array([], pa.int64()),
                    "max_gap_us": pa.array([], pa.int64()),
                }
            )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts))
        d = np.diff(ts[order])
        return pa.table(
            {
                key: group.column(key).slice(0, 1),
                "n_gaps": pa.array([len(d)], pa.int64()),
                "sum_gap_us": pa.array([int(d.sum())], pa.int64()),
                "max_gap_us": pa.array([int(d.max())], pa.int64()),
            }
        )

    return events_ds.groupby(key).map_groups(gaps, batch_format="pyarrow")


def lag_attach(
    ds,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    out_col: str = "prev_value",
):
    """``LAG(val) OVER (PARTITION BY key ORDER BY ts, tiebreak)`` —
    every input row plus its predecessor's value (null for each key's
    first row). One hash shuffle; in-group lexsort + a shifted take,
    no per-row Python. Emits (key, tiebreak, out_col)."""

    def lag(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts))
        prev_idx = np.concatenate([[-1], order[:-1]])
        prev = group.column(val_col).take(
            pa.array([None if i < 0 else int(i) for i in prev_idx], pa.int64())
        )
        return pa.table(
            {
                key: group.column(key),
                tiebreak: group.column(tiebreak).take(pa.array(order, pa.int64())),
                out_col: prev,
            }
        )

    return ds.groupby(key).map_groups(lag, batch_format="pyarrow")


def lead_attach(
    ds,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    out_col: str = "next_value",
):
    """``LEAD(val) OVER (PARTITION BY key ORDER BY ts, tiebreak)`` —
    every input row plus its successor's value (null for each key's
    last row). Mirror of :func:`lag_attach`: one hash shuffle, in-group
    lexsort + a shifted take, no per-row Python. Emits
    (key, tiebreak, out_col)."""

    def lead(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts))
        nxt_idx = np.concatenate([order[1:], [-1]])
        nxt = group.column(val_col).take(
            pa.array([None if i < 0 else int(i) for i in nxt_idx], pa.int64())
        )
        return pa.table(
            {
                key: group.column(key),
                tiebreak: group.column(tiebreak).take(pa.array(order, pa.int64())),
                out_col: nxt,
            }
        )

    return ds.groupby(key).map_groups(lead, batch_format="pyarrow")


def first_last_per_group(
    ds,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
):
    """``first_value/last_value(val) OVER (PARTITION BY key ORDER BY
    ts, tiebreak)`` reduced to one row per key — (key, first_value,
    last_value, n_rows). First/last are ASSOCIATIVE under (ts,
    tiebreak) ordering, so a per-block partial keeps only each key's
    block-local first and last rows; the shuffle then carries ≤
    2·n_blocks rows per key no matter how hot the key (same structural
    skew-proofing as :func:`~.dedup.latest_by_key`)."""

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        kk = np.asarray(batch.column(key).to_pylist())
        ts = (
            batch.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(batch.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts, kk))
        sk = kk[order]
        first_of_run = np.concatenate([[True], sk[1:] != sk[:-1]])
        last_of_run = np.concatenate([sk[1:] != sk[:-1], [True]])
        keep = np.unique(order[first_of_run | last_of_run])
        return batch.take(pa.array(keep, pa.int64()))

    def reduce_group(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts))
        vals = group.column(val_col)
        return pa.table(
            {
                key: group.column(key).slice(0, 1),
                "first_value": vals.take(pa.array([int(order[0])], pa.int64())),
                "last_value": vals.take(pa.array([int(order[-1])], pa.int64())),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .map_groups(reduce_group, batch_format="pyarrow")
    )


def cume_dist_in_group(
    ds,
    key: str,
    order_cols: list,
    out_col: str = "cdist",
):
    """``cume_dist() OVER (PARTITION BY key ORDER BY order_cols)`` —
    (# rows ≤ current in order) / n, ties sharing a value. Unlike
    percent_rank this is deterministic WITHOUT a unique tiebreak (the
    value is a function of the order-column values), so it is
    oracle-matchable on naturally tied data. One hash shuffle; in-group
    work is one lexsort + a run-length backfill. Rounded half-away to
    6 digits for stable float comparison."""

    def rank(group: pa.Table) -> pa.Table:
        arrs = []
        for c in order_cols:
            col = group.column(c)
            if pa.types.is_temporal(col.type):
                col = col.cast(pa.timestamp("us")).cast(pa.int64())
            arrs.append(np.asarray(col.to_pylist()))
        order = np.lexsort(tuple(reversed(arrs)))
        n = len(order)
        # in sorted order, each tie-run's cume_dist = (end of run)/n;
        # find run ends by adjacent difference, backfill within runs
        changed = np.logical_or.reduce(
            [a[order][1:] != a[order][:-1] for a in arrs]
        ) if n > 1 else np.array([], dtype=bool)
        run_end = np.concatenate([changed, [True]])
        end_pos = np.arange(1, n + 1)[run_end]
        run_id = np.concatenate([[0], np.cumsum(changed.astype(np.int64))])
        cd_sorted = end_pos[run_id] / n
        cd = np.empty(n, dtype=np.float64)
        cd[order] = cd_sorted
        cd = np.floor(cd * 1e6 + 0.5) / 1e6
        return group.append_column(out_col, pa.array(cd, pa.float64()))

    return ds.groupby(key).map_groups(rank, batch_format="pyarrow")


def moving_avg(
    ds,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    window_rows: int = 3,
    out_col: str = "moving_avg",
):
    """``AVG(val) OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS
    BETWEEN window_rows-1 PRECEDING AND CURRENT ROW)`` — the rolling
    mean. In-group work is one lexsort + a sliding-window sum via
    cumulative-sum differences (O(rows), allocation-bounded). Emits one
    row per input row: (key, tiebreak, out_col), rounded to 6 digits so
    float results compare stably against a sequential window engine."""

    def roll(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        vals = np.asarray(group.column(val_col).to_pylist(), dtype=np.float64)
        order = np.lexsort((tb, ts))
        v = vals[order]
        cum = np.concatenate([[0.0], np.cumsum(v)])
        n = len(v)
        lo = np.maximum(np.arange(n) - (window_rows - 1), 0)
        win_sum = cum[np.arange(1, n + 1)] - cum[lo]
        win_n = np.arange(1, n + 1) - lo
        return pa.table(
            {
                key: group.column(key),
                tiebreak: group.column(tiebreak).take(pa.array(order, pa.int64())),
                out_col: pa.array(np.round(win_sum / win_n, 6), pa.float64()),
            }
        )

    return ds.groupby(key).map_groups(roll, batch_format="pyarrow")


def rank_in_group(
    ds,
    key: str,
    order_cols: list,
    out_col: str = "rn",
):
    """``row_number() OVER (PARTITION BY key ORDER BY order_cols)`` —
    every input row plus a 1-based int64 rank.

    Unlike :func:`topk_per_group` this keeps ALL rows, so there is no
    associative partial to trim the shuffle — the one hash shuffle
    carries each key's full row set (the operator's inherent cost; at
    scale, project to the needed columns first and re-join wide payload
    by tiebreak afterwards). In-group ranking is one numpy lexsort, no
    per-row Python. Ordering is ascending per column; include a unique
    tiebreak column for deterministic (oracle-matchable) ranks."""

    def rank(group: pa.Table) -> pa.Table:
        arrs = []
        for c in order_cols:
            col = group.column(c)
            if pa.types.is_temporal(col.type):
                col = col.cast(pa.timestamp("us")).cast(pa.int64())
            arrs.append(np.asarray(col.to_pylist()))
        # np.lexsort: LAST key is primary → reverse the column list
        order = np.lexsort(tuple(reversed(arrs)))
        rn = np.empty(len(order), dtype=np.int64)
        rn[order] = np.arange(1, len(order) + 1)
        return group.append_column(out_col, pa.array(rn, pa.int64()))

    return ds.groupby(key).map_groups(rank, batch_format="pyarrow")


def topk_per_group(
    ds,
    key: str,
    score_col: str,
    tiebreak_col: str,
    k: int = 3,
    descending: bool = True,
):
    """Grouped top-k with rank — ``row_number() OVER (PARTITION BY key
    ORDER BY score DESC, tiebreak) <= k``. Top-k is associative, so a
    per-block partial first trims each block to its local top-k per
    key — the shuffle then carries ≤ n_blocks·k rows per key no matter
    how hot the key. In-group/in-block work is lexsort + head. Output:
    all input columns plus int64 ``rk`` (1-based)."""

    def partial_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        kk = np.asarray(batch.column(key).to_pylist())
        s = np.asarray(batch.column(score_col).to_pylist())
        t = np.asarray(batch.column(tiebreak_col).to_pylist())
        order = np.lexsort((t, -s if descending else s, kk))
        sk = kk[order]
        # rank within each key run; keep ranks < k
        run_start = np.concatenate([[True], sk[1:] != sk[:-1]])
        run_idx = np.arange(len(sk)) - np.maximum.accumulate(
            np.where(run_start, np.arange(len(sk)), 0)
        )
        return batch.take(pa.array(order[run_idx < k], pa.int64()))

    def top(group: pa.Table) -> pa.Table:
        score = np.asarray(group.column(score_col).to_pylist())
        tb = np.asarray(group.column(tiebreak_col).to_pylist())
        order = np.lexsort((tb, -score if descending else score))
        head = order[:k]
        out = group.take(pa.array(head, pa.int64()))
        return out.append_column(
            "rk", pa.array(np.arange(1, len(head) + 1), pa.int64())
        )

    return (
        ds.map_batches(partial_top, batch_format="pyarrow")
        .groupby(key)
        .map_groups(top, batch_format="pyarrow")
    )


def dense_rank_in_group(
    ds,
    key: str,
    order_cols: list,
    out_col: str = "drank",
):
    """``dense_rank() OVER (PARTITION BY key ORDER BY order_cols)`` —
    1-based, no gaps, ties share a rank.

    Unlike row_number this is deterministic WITHOUT a unique tiebreak
    (the rank is a function of the order-column VALUES), so it is
    oracle-matchable on naturally tied data. One hash shuffle, in-group
    work is one lexsort + a vectorized adjacent-difference cumsum."""

    def rank(group: pa.Table) -> pa.Table:
        arrs = []
        for c in order_cols:
            col = group.column(c)
            if pa.types.is_temporal(col.type):
                col = col.cast(pa.timestamp("us")).cast(pa.int64())
            arrs.append(np.asarray(col.to_pylist()))
        order = np.lexsort(tuple(reversed(arrs)))
        n = len(order)
        # a row starts a new rank iff ANY order column changed — OR
        # of adjacent differences in sorted order, then cumsum
        dr_sorted = np.cumsum(
            np.logical_or.reduce(
                [np.concatenate([[True], a[order][1:] != a[order][:-1]])
                 for a in arrs]
            ).astype(np.int64)
        )
        dr = np.empty(n, dtype=np.int64)
        dr[order] = dr_sorted
        return group.append_column(out_col, pa.array(dr, pa.int64()))

    return ds.groupby(key).map_groups(rank, batch_format="pyarrow")


def ntile_in_group(
    ds,
    key: str,
    order_cols: list,
    n: int = 4,
    out_col: str = "tile",
):
    """``ntile(n) OVER (PARTITION BY key ORDER BY order_cols)`` — SQL
    semantics: with group size c the first ``c % n`` tiles get
    ``c // n + 1`` rows, the rest ``c // n``. Include a unique tiebreak
    in ``order_cols`` for deterministic (oracle-matchable) tiles. One
    hash shuffle; in-group work is one lexsort + integer arithmetic."""

    def tile(group: pa.Table) -> pa.Table:
        arrs = []
        for c in order_cols:
            col = group.column(c)
            if pa.types.is_temporal(col.type):
                col = col.cast(pa.timestamp("us")).cast(pa.int64())
            arrs.append(np.asarray(col.to_pylist()))
        order = np.lexsort(tuple(reversed(arrs)))
        c = len(order)
        pos = np.empty(c, dtype=np.int64)
        pos[order] = np.arange(c)
        q, r = divmod(c, n)
        boundary = r * (q + 1)
        if q == 0:
            tiles = pos + 1  # fewer rows than tiles: one row per tile
        else:
            tiles = np.where(
                pos < boundary,
                pos // (q + 1) + 1,
                r + (pos - boundary) // q + 1,
            )
        return group.append_column(
            out_col, pa.array(tiles.astype(np.int64), pa.int64())
        )

    return ds.groupby(key).map_groups(tile, batch_format="pyarrow")


def range_frame_agg(
    ds,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    width_seconds: float,
    n_col: str = "trailing_n",
    sum_col: str = "trailing_sum",
):
    """``COUNT/SUM(val) OVER (PARTITION BY key ORDER BY ts RANGE
    BETWEEN INTERVAL width PRECEDING AND CURRENT ROW)`` — the
    VALUE-range frame (ROWS frames are :func:`moving_avg`).

    SQL RANGE semantics are honoured exactly: the frame of a row is
    every row of the key whose ts lies in ``[cur_ts - width, cur_ts]``
    INCLUDING all peers of the current ts (even ones a tiebreak would
    sort after it), which is why the frame bounds are two
    ``searchsorted`` calls on the sorted ts array ('left' on the lower
    edge, 'right' on the current value) rather than the row's own sort
    position. In-group work is one sort + two searchsorteds + one
    cumsum — O(rows log rows), no per-row Python. One hash shuffle
    co-locates each key (same partitioning contract as sessionize).

    Output: one row per input row — (key, tiebreak, n_col int64,
    sum_col rounded half-away-from-zero to 6 digits for stable
    comparison against a sequential SQL engine)."""
    width_us = np.int64(round(width_seconds * 1_000_000))

    def frame(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        vals = np.asarray(group.column(val_col).to_pylist(), dtype=np.float64)
        order = np.argsort(ts, kind="stable")
        t = ts[order]
        v = vals[order]
        cum = np.concatenate([[0.0], np.cumsum(v)])
        hi = np.searchsorted(t, t, side="right")
        lo = np.searchsorted(t, t - width_us, side="left")
        n = (hi - lo).astype(np.int64)
        s = cum[hi] - cum[lo]
        rounded = np.copysign(np.floor(np.abs(s) * 1e6 + 0.5) / 1e6, s)
        return pa.table(
            {
                key: group.column(key),
                tiebreak: group.column(tiebreak).take(pa.array(order, pa.int64())),
                n_col: pa.array(n, pa.int64()),
                sum_col: pa.array(rounded, pa.float64()),
            }
        )

    return ds.groupby(key).map_groups(frame, batch_format="pyarrow")


def locf_fill(
    ds,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    out_col: str = "filled",
):
    """Forward fill (LOCF — last observation carried forward): SQL
    ``last_value(val IGNORE NULLS) OVER (PARTITION BY key ORDER BY ts,
    tiebreak ROWS UNBOUNDED PRECEDING)``. The time-series gap-fill
    every sensor/metrics pipeline needs; NULL until a key's first
    observation. Same one-shuffle plan as the other windows; in-group
    fill is one lexsort + ``np.maximum.accumulate`` over observed row
    indices — no per-row Python. Emits (key, tiebreak, out_col)."""

    def fill(group: pa.Table) -> pa.Table:
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        col = group.column(val_col).combine_chunks()
        valid = np.asarray(col.is_valid().to_pylist(), dtype=bool)
        # NaN stands in for null during the gather (fine for value
        # columns that carry no literal NaN — nulls are the gap marker)
        vals = np.asarray(col.cast(pa.float64()).fill_null(np.nan).to_pylist(),
                          dtype=np.float64)
        order = np.lexsort((tb, ts))
        v_sorted = vals[order]
        ok = valid[order]
        n = len(ok)
        # index of the latest observed row at or before each position
        src = np.maximum.accumulate(np.where(ok, np.arange(n), -1))
        filled = v_sorted[np.clip(src, 0, None)]
        filled[src < 0] = np.nan
        arr = pa.array(filled, pa.float64())
        import pyarrow.compute as pc

        arr = pc.if_else(pc.is_nan(arr), pa.nulls(n, pa.float64()), arr)
        return pa.table(
            {
                key: group.column(key),
                tiebreak: group.column(tiebreak).take(pa.array(order, pa.int64())),
                out_col: arr,
            }
        )

    return ds.groupby(key).map_groups(fill, batch_format="pyarrow")


def funnel_counts(
    ds,
    steps,
    key: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int = 32,
):
    """Ordered funnel analysis: how many keys (users) reach each step
    of ``steps`` with STRICTLY increasing timestamps (step k must
    happen after the key's chained min of step k−1) — the classic
    product-analytics sequence query.

    ONE key-space partition exchange (rows pre-filtered to the step
    types); inside a partition everything is vectorized: rows sort by
    (key, ts) once, then per step a masked run-boundary pass reads the
    chained min per key (first qualifying row of each key run — no
    per-key Python). Per-partition (step, n) partials concat on the
    driver: output is len(steps) rows total.

    Output: (step int64 1-based, event_type, n_users), including zero
    rows for steps no key reaches.
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray

    steps = list(steps)

    def flt(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.is_in(batch.column(type_col),
                     value_set=pa.array(steps, pa.string()))
        )
        k = b.column(key).to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        part = (k.view(np.uint64) % num_partitions).astype(np.int32)
        t = b.select([key, ts_col, type_col])
        return t.append_column("__part", pa.array(part, pa.int32()))

    def funnel_partial(group: pa.Table) -> pa.Table:
        ks = group.column(key).to_numpy(zero_copy_only=False)
        ts = group.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        ty = np.asarray(group.column(type_col).to_pylist())
        order = np.lexsort((ts, ks))
        sk, st, sy = ks[order], ts[order], ty[order]
        uniq, inv = np.unique(sk, return_inverse=True)
        NONE = np.iinfo(np.int64).max
        prev = np.full(len(uniq), -1, dtype=np.int64)  # before everything
        counts = []
        for step in steps:
            sel = (sy == step) & (st > prev[inv]) & (prev[inv] != NONE)
            cur = np.full(len(uniq), NONE, dtype=np.int64)
            if sel.any():
                ku, tu = inv[sel], st[sel]
                # rows sorted by (key, ts): first selected row of each
                # key run is that key's chained min
                firsts = np.nonzero(
                    np.concatenate([[True], ku[1:] != ku[:-1]])
                )[0]
                cur[ku[firsts]] = tu[firsts]
            counts.append(int((cur != NONE).sum()))
            prev = cur
        return pa.table({
            "step": pa.array(range(1, len(steps) + 1), pa.int64()),
            type_col: pa.array(steps, pa.string()),
            "n_users": pa.array(counts, pa.int64()),
        })

    partials = (
        ds.map_batches(flt, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(funnel_partial, batch_format="pyarrow")
    )
    tables = [ray.get(r) for r in partials.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({
            "step": pa.array(range(1, len(steps) + 1), pa.int64()),
            type_col: pa.array(steps, pa.string()),
            "n_users": pa.array([0] * len(steps), pa.int64()),
        })
    cat = pa.concat_tables(tables)
    g = cat.group_by(["step", type_col]).aggregate([("n_users", "sum")])
    import pyarrow.compute as pc2

    idx = pc2.sort_indices(g.column("step"))
    return pa.table({
        "step": g.column("step").take(idx),
        type_col: g.column(type_col).take(idx),
        "n_users": pc2.cast(g.column("n_users_sum").take(idx), pa.int64()),
    })


def transition_counts(ds, key: str, ts_col: str, val_col: str,
                      tiebreak: str, num_partitions: int = 64):
    """First-order Markov transition counts: for each key's event
    stream ordered by (ts, tiebreak), count (prev value → value)
    adjacent pairs across the whole corpus — the behavioral
    transition-matrix shape (and, over crawl status streams, the
    recrawl state-churn profile).

    Scale shape: ONE key-space exchange (hash of key; each key's rows
    land wholly in one partition). In-partition: dictionary-encode the
    value column once, lexsort by (key, ts, tiebreak), run-detect key
    boundaries, shift codes by one INSIDE runs only — all vectorized —
    then fold (prev, cur) code pairs via np.unique. Only tiny
    (prev, cur, partial count) rows reach the final low-card fold; the
    transition grid is |value vocabulary|², never event-count.
    """
    import pyarrow.compute as pc

    from .agg import lowcard_groupby_agg
    from .joins import _bucket_of

    def add_part(batch: pa.Table) -> pa.Table:
        b = _bucket_of(batch.column(key), num_partitions)
        return batch.select([key, ts_col, val_col, tiebreak]).append_column(
            "__part", b
        )

    def fold(group: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(
            group.column(val_col).combine_chunks()
        )
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = enc.dictionary.to_pylist()
        k = np.asarray(group.column(key).to_pylist())
        ts = (
            group.column(ts_col)
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts, k))
        sk, sc = k[order], codes[order]
        same_key = sk[1:] == sk[:-1]
        prev, cur = sc[:-1][same_key], sc[1:][same_key]
        if len(prev) == 0:
            return pa.table({
                "prev_type": pa.array([], pa.string()),
                "cur_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            })
        grid = prev * np.int64(len(vocab)) + cur
        uniq, cnt = np.unique(grid, return_counts=True)
        pv = [vocab[int(u) // len(vocab)] for u in uniq]
        cv = [vocab[int(u) % len(vocab)] for u in uniq]
        return pa.table({
            "prev_type": pa.array(pv, pa.string()),
            "cur_type": pa.array(cv, pa.string()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    partials = (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(fold, batch_format="pyarrow")
    )
    return lowcard_groupby_agg(
        partials, ["prev_type", "cur_type"], [("n", "sum", "n")]
    )
