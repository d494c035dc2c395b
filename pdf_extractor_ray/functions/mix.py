"""Corpus-mixture operators: the stages between "cleaned corpus" and
"tokenizer input" in a training-data pipeline.

- :func:`split_assign` — deterministic train/val/test assignment.
- :func:`rebalance_equal` — equal-mix per-group downsampling (the
  language-balancing step of a multilingual training mix).
- :func:`global_quantile_cont` / :func:`percentile_keep` — broadcast a
  single exact order statistic and filter against it (one tiny driver
  scalar, never a per-row shuffle).
- :func:`snapshot_diff` — full-outer crawl diff (added / removed /
  changed / same) in ONE hash shuffle.

Reference analogue: the reference engine processes one upload at a
time (``/root/reference/main.py``) and has no corpus-mix stage; these
operators are the corpus-scale layer a user needs once the per-document
extraction (stages/extract.py) runs over 10^12 documents.

Everything here is deterministic (md5-keyed, no RNG — md5 is a
partitioner, not security) and SQL-mirrorable so the driver's DuckDB
oracle can verify the FULL output, not just row counts.
"""
from __future__ import annotations

import hashlib
from typing import Mapping, Sequence

import pyarrow as pa

_HEX13 = 1 << 52  # 13 hex digits = 52 bits: exact in float64 and UBIGINT


def split_thresholds(fractions: Mapping[str, float]) -> list[tuple[str, int]]:
    """Cumulative integer thresholds over the 52-bit md5 prefix space.

    Returned as exact ints so the SQL twin can inline the SAME
    literals — computing ``0.8 * 2^52`` independently in two engines
    risks one-ulp disagreement at the split boundary.
    """
    total = float(sum(fractions.values()))
    if total <= 0:
        raise ValueError("fractions must sum to a positive value")
    names = list(fractions)
    cum = 0.0
    out: list[tuple[str, int]] = []
    for name in names[:-1]:
        cum += fractions[name] / total
        out.append((name, int(cum * _HEX13)))
    out.append((names[-1], _HEX13))  # catch-all band
    return out


def split_assign(ds, key_col: str, fractions: Mapping[str, float],
                 seed: str = ""):
    """Deterministic train/val/test split: every row gets a ``split``
    label from the first 13 hex digits of ``md5(f"{seed}:{key}")``
    against the cumulative fraction bands.

    Properties a training pipeline needs that ``Dataset.split()`` /
    RNG sampling lack: (a) membership is a pure function of the key —
    a resumed or re-run job reproduces the SAME split, and a given
    document NEVER migrates between train and test when the corpus
    grows (critical for contamination control); (b) embarrassingly
    parallel — no shuffle, no coordination; (c) SQL-mirrorable, so the
    assignment itself is oracle-checked.
    """
    bands = split_thresholds(fractions)

    def assign(batch: pa.Table) -> pa.Table:
        labels = []
        for v in batch.column(key_col).to_pylist():
            u = int(
                hashlib.md5(f"{seed}:{v}".encode()).hexdigest()[:13], 16
            )
            for name, thr in bands:
                if u < thr:
                    labels.append(name)
                    break
        return batch.append_column("split", pa.array(labels, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def rebalance_equal(ds, group_col: str, key_col: str):
    """Equal-mix downsample: keep ``min(group sizes)`` rows per group,
    chosen by the deterministic ``(md5(key), key)`` order — the
    language-rebalancing step that turns a skewed crawl (90% English)
    into a uniform training mix without RNG.

    Two passes: a count-only groupby (low-cardinality — group counts
    fit on the driver by the same contract as ``lowcard_groupby_agg``),
    then the existing stratified top-n machinery. The second pass's
    shuffle ships one extra 32-char rank column; rows move once.
    """
    from pdf_extractor_ray.functions.sample import stratified_sample

    counts = ds.groupby(group_col).count().take_all()
    if not counts:
        return ds.limit(0)
    n_min = min(int(r["count()"]) for r in counts)
    return stratified_sample(ds, group_col, key_col, n_min)


def global_quantile_cont(ds, col: str, q: float) -> float:
    """ONE exact interpolated quantile (SQL ``quantile_cont``) of a
    column, computed from the same (value, count) histogram partials
    as ``agg.exact_quantiles_cont_by`` — a single tiny scalar reaches
    the driver, suitable for broadcasting into a filter."""
    from pdf_extractor_ray.functions.agg import exact_quantiles_cont_by

    keyed = ds.map_batches(
        lambda b: b.select([col]).append_column(
            "__g", pa.array(["all"] * b.num_rows, pa.string())
        ),
        batch_format="pyarrow",
    )
    tbl = exact_quantiles_cont_by(keyed, key="__g", col=col, qs=(q,))
    return float(tbl.column("value")[0].as_py())


def percentile_keep(ds, col: str, q: float, keep: str = "upper"):
    """Filter a corpus against a GLOBAL exact percentile of one of its
    own columns — "drop the shortest quartile of documents" without
    materializing or sorting the corpus.

    Plan shape for 100 TB: pass 1 streams (value, count) histogram
    partials (bounded by the column's value cardinality per block);
    the threshold is ONE driver float broadcast into a stateless
    ``map_batches`` filter in pass 2. No row ever shuffles.
    """
    import pyarrow.compute as pc

    thr = global_quantile_cont(ds, col, q)

    def flt(batch: pa.Table) -> pa.Table:
        cmp = pc.greater_equal if keep == "upper" else pc.less_equal
        return batch.filter(cmp(batch.column(col), pa.scalar(thr)))

    return ds.map_batches(flt, batch_format="pyarrow"), thr


def snapshot_diff(old_ds, new_ds, key_col: str, val_col: str,
                  num_partitions: int = 32):
    """Crawl-snapshot diff: classify every key as ``added`` (new only),
    ``removed`` (old only), ``changed`` (both, value differs) or
    ``same`` — the recrawl triage step before an incremental ingest.

    ONE hash shuffle on ``__part = bucket(key) % P`` (the join family's
    vectorized bucketing hash): each side ships only (key, value,
    side-tag), union, and every partition classifies ALL its keys in
    one numpy lexsort run-detection pass — no per-key group calls, no
    join bookkeeping. Output columns: key, status, old_<val>,
    new_<val>.

    Requires ``key_col`` unique per side (enforced loudly — a
    duplicated key in a snapshot is an upstream dedup bug, not
    something to silently arg-pick here).
    """
    import numpy as np

    from pdf_extractor_ray.functions.joins import _bucket_of

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            t = batch.select([key_col, val_col])
            t = t.append_column(
                "__side", pa.array([side] * t.num_rows, pa.int8())
            )
            return t.append_column(
                "__part", _bucket_of(t.column(key_col), num_partitions)
            )
        return f

    both = old_ds.map_batches(tag(0), batch_format="pyarrow").union(
        new_ds.map_batches(tag(1), batch_format="pyarrow")
    )

    old_name, new_name = f"old_{val_col}", f"new_{val_col}"

    def classify(group: pa.Table) -> pa.Table:
        keys = np.asarray(group.column(key_col).to_pylist())
        sides = group.column("__side").to_numpy(zero_copy_only=False)
        vals = np.asarray(group.column(val_col).to_pylist(), dtype=object)
        order = np.lexsort((sides, keys))
        sk, ss, sv = keys[order], sides[order], vals[order]
        starts = np.nonzero(
            np.concatenate([[True], sk[1:] != sk[:-1]])
        )[0]
        ends = np.concatenate([starts[1:], [len(sk)]])
        runlen = ends - starts
        bad = (runlen > 2) | (
            (runlen == 2) & (ss[starts] == ss[ends - 1])
        )
        if bad.any():
            raise ValueError(
                f"snapshot_diff: key {sk[starts[bad.argmax()]]!r} "
                "duplicated within one snapshot"
            )
        has_old = ss[starts] == 0
        has_new = ss[ends - 1] == 1
        old_v = np.where(has_old, sv[starts], None)
        new_v = np.where(has_new, sv[ends - 1], None)
        status = np.where(
            ~has_old, "added",
            np.where(
                ~has_new, "removed",
                np.where(old_v != new_v, "changed", "same"),
            ),
        )
        vt = group.schema.field(val_col).type
        return pa.table({
            key_col: pa.array(
                sk[starts].tolist(), group.schema.field(key_col).type
            ),
            "status": pa.array(status.tolist(), pa.string()),
            old_name: pa.array(old_v.tolist(), vt),
            new_name: pa.array(new_v.tolist(), vt),
        })

    return both.groupby("__part").map_groups(classify, batch_format="pyarrow")


def rebalance_weighted(ds, group_col: str, key_col: str,
                       weights: Mapping[str, float]):
    """Target-mix resampling: downsample groups to the LARGEST corpus
    that satisfies explicit mixture ``weights`` (the Pile/Dolma-style
    data-mixing step — "50% en, 30% de, 20% fr"). Groups not in
    ``weights`` are dropped.

    The feasible scale is ``min_g(count_g / w_g)``; each kept group
    contributes ``floor(w_g · scale)`` rows chosen by the deterministic
    ``(md5(key), key)`` order — reproducible, SQL-mirrorable, no RNG.
    Two passes: a partial-aggregate count (``lowcard_groupby_agg`` —
    only (group, n) partials move, no sort exchange; round 5 replaced
    the native count groupby) → one stratified exchange whose payload
    is PRE-TRIMMED per block to each group's quota (the global
    quota-smallest rows are a subset of every block's quota-smallest,
    so the exchange ships ≤ quota × blocks rows, not the corpus).
    Per-group quotas broadcast as a dict.
    """
    import numpy as np

    from .agg import lowcard_groupby_agg

    w = {g: float(v) for g, v in weights.items()}
    if not w or any(v <= 0 for v in w.values()):
        raise ValueError("weights must be a non-empty map of positives")
    ct = lowcard_groupby_agg(
        ds.select_columns([group_col]), [group_col],
        [(group_col, "count", "n")],
    )
    counts = dict(zip(ct.column(group_col).to_pylist(),
                      (int(v) for v in ct.column("n").to_pylist())))
    missing = set(w) - set(counts)
    if missing:
        raise ValueError(
            f"rebalance_weighted: weight groups absent from data: "
            f"{sorted(missing)}"
        )
    scale = min(counts[g] / v for g, v in w.items())
    quota = {g: int(np.floor(v * scale)) for g, v in w.items()}

    def add_rank(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = batch.filter(
            pc.is_in(batch.column(group_col),
                     value_set=pa.array(sorted(w), pa.string()))
        )
        ranks = np.asarray([
            hashlib.md5(str(v).encode()).hexdigest()
            for v in b.column(key_col).to_pylist()
        ])
        if b.num_rows:
            keys = np.asarray(b.column(key_col).to_pylist())
            grps = np.asarray(b.column(group_col).to_pylist())
            order = np.lexsort((keys, ranks))
            sel = [order[np.nonzero(grps[order] == g)[0][:q]]
                   for g, q in quota.items()]
            idx = np.sort(np.concatenate(sel)) if sel else order[:0]
            b = b.take(pa.array(idx, pa.int64()))
            ranks = ranks[idx]
        return b.append_column("__rank", pa.array(ranks, pa.string()))

    def head(group: pa.Table) -> pa.Table:
        import numpy as np

        g = group.column(group_col)[0].as_py()
        r = np.asarray(group.column("__rank").to_pylist())
        k = np.asarray(group.column(key_col).to_pylist())
        order = np.lexsort((k, r))[: quota[g]]
        return group.take(pa.array(order, pa.int64())).drop_columns(
            ["__rank"]
        )

    return (
        ds.map_batches(add_rank, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(head, batch_format="pyarrow")
    )
