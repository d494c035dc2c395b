"""Distributed model fitting on Ray Data: deterministic logistic
regression by full-batch gradient descent.

The determinism problem with distributed GD is float summation order:
block-parallel partial gradients arrive in nondeterministic order, so
naive float sums drift run-to-run and no exact parity test (or oracle)
can pin the result.  The fix is the repo's integer-statistics idiom:
each ROW's gradient contribution is quantized to int64 fixed-point
(``scale`` = 2^20) BEFORE summation — integer addition is associative,
so the fold is exact and the trained weights are bit-identical across
block orders, cluster sizes and reruns.  Quantization noise (≤ 2^-20
per row per step) is part of the DEFINED algorithm, not an error term.

Scale plan: one `map_batches` + one tiny Sum-aggregate per iteration
(d+1 int64s per block shuffle); weights broadcast via closure capture
(d+1 floats).  The corpus is re-read per iteration from the
materialized feature table — iterations × one pass, the standard
full-batch GD cost.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa


def logreg_train(ds, feature_cols: Sequence[str], label_col: str,
                 lr: float = 0.5, iters: int = 30,
                 scale: int = 1 << 20,
                 local_max_rows: int = 1_000_000,
                 local_max_bytes: int = 256 << 20) -> "np.ndarray":
    """Train w (len = n_features + 1, bias last) minimizing logistic
    loss over ``ds`` — deterministic by integer-quantized gradient
    folds.  Features are used as-is; standardize upstream if needed.
    Returns the final float64 weight vector.

    Size-gated like the graph family (exact count AND exact bytes of
    the materialized feature table): under the gate the feature matrix
    is collected once and the ``iters`` GD steps run locally with the
    SAME int64 gradient quantization — bit-identical weights by
    construction (integer sums are order-independent), without paying
    ``iters`` full Dataset-execution overheads on a table that fits in
    one numpy array.  Above the gate each iteration is one distributed
    quantized-gradient fold over a block-compacted table."""
    from ray.data.aggregate import Count, Sum

    feats = list(feature_cols)
    d = len(feats)
    tbl = ds.select_columns(feats + [label_col]).materialize()
    n = tbl.count()
    if n == 0:
        raise ValueError("logreg_train: empty input")
    w = np.zeros(d + 1, dtype=np.float64)

    if n <= local_max_rows and tbl.size_bytes() <= local_max_bytes:
        import ray

        tabs = [t for t in (ray.get(r) for r in tbl.to_arrow_refs())
                if t.num_rows]
        full = pa.concat_tables(tabs)
        x = np.stack([
            full.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
            for c in feats
        ], axis=1)
        y = full.column(label_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        for _ in range(iters):
            z = x @ w[:d] + w[d]
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            g = np.concatenate([x * err[:, None], err[:, None]], axis=1)
            q = np.round(g * scale).astype(np.int64)
            gsum = q.sum(axis=0).astype(np.float64) / scale
            w = w - lr * gsum / n
        return w

    # distributed path: consolidate reader-inherited tiny blocks ONCE —
    # the table is re-mapped every iteration, so per-block task
    # overhead multiplies by iters (same rationale as the graph loops)
    if tbl.num_blocks() > 32:
        target = int(max(16, tbl.size_bytes() // (32 << 20)))
        tbl = tbl.repartition(target).materialize()

    for _ in range(iters):
        w_cap = w.copy()

        def grad(batch: pa.Table, w_cap=w_cap) -> pa.Table:
            x = np.stack([
                batch.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
                for c in feats
            ], axis=1)
            y = batch.column(label_col).to_numpy(
                zero_copy_only=False).astype(np.float64)
            z = x @ w_cap[:d] + w_cap[d]
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y  # dL/dz
            g = np.concatenate([x * err[:, None], err[:, None]], axis=1)
            q = np.round(g * scale).astype(np.int64)  # exact-sum payload
            out = {f"g{j}": pa.array(q[:, j].copy(), pa.int64())
                   for j in range(d + 1)}
            return pa.table(out)

        row = tbl.map_batches(grad, batch_format="pyarrow").aggregate(
            *[Sum(f"g{j}", alias_name=f"s{j}") for j in range(d + 1)]
        )
        gsum = np.array([int(row[f"s{j}"] or 0) for j in range(d + 1)],
                        dtype=np.float64) / scale
        w = w - lr * gsum / n
    return w


def logreg_predict(w: "np.ndarray", x: "np.ndarray") -> "np.ndarray":
    d = len(w) - 1
    return 1.0 / (1.0 + np.exp(-(x @ w[:d] + w[d])))
