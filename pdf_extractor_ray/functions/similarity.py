"""Similarity search over an embedding column (list<float>).

- ``ann_topk``: brute-force cosine top-k per batch against a BROADCAST
  query matrix (``ray.put`` once, numpy matmul per batch) → per-batch
  local top-k → distributed grouped top-k merge (driver fan-in is
  k × n_queries, block-count independent).  The baseline that always
  works.
- ``ivf_topk``: LSH/IVF-bucketed variant — the scale path: random
  hyperplane buckets, search only matching buckets.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa

from .pool import pool_size


_TOPK_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("vec_id", pa.int64()),
        ("sim", pa.float64()),
        ("rank", pa.int64()),
    ]
)


def _finish_topk(local_ds, k: int, query_ids: List[int]) -> pa.Table:
    """Distributed global merge of per-block local top-k tables.

    Feeds the (query_id, vec_id, sim) partials through the grouped
    partial top-k fold (``window.topk_per_group``: per-block trim →
    per-query reduce), so the driver sees EXACTLY k × n_queries rows
    regardless of block count.  Selection order matches the brute
    contract: sim desc (unrounded), vec_id asc; sim rounded only in
    the final output.
    """
    from .window import topk_per_group

    top = topk_per_group(
        local_ds, key="query_id", score_col="sim", tiebreak_col="vec_id", k=k
    )
    rows = sorted(top.take_all(), key=lambda r: (r["query_id"], r["rk"]))
    out_rows = [
        {
            "query_id": query_ids[r["query_id"]],
            "vec_id": r["vec_id"],
            "sim": round(r["sim"], 4),
            "rank": r["rk"],
        }
        for r in rows
    ]
    return pa.Table.from_pylist(out_rows, schema=_TOPK_SCHEMA)


def _matrix(batch_col) -> np.ndarray:
    """Embedding list column → (n, d) float64 matrix.

    Fast path: zero-copy ``flatten()`` of the Arrow list values +
    reshape — no per-row Python (measured ~20× over ``to_pylist`` on
    64-dim float32 embeddings).  Falls back to the row-wise conversion
    for ragged lists (offset check) or null rows, so behaviour is
    unchanged on irregular input."""
    arr = (batch_col.combine_chunks()
           if isinstance(batch_col, pa.ChunkedArray) else batch_col)
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0))
    if arr.null_count == 0:
        flat = arr.flatten()
        vals = flat.to_numpy(zero_copy_only=False)
        if vals.size % n == 0 and vals.size:
            d = vals.size // n
            offsets = getattr(arr, "offsets", None)
            if offsets is None or bool(np.all(np.diff(
                    offsets.to_numpy(zero_copy_only=False)) == d)):
                return np.ascontiguousarray(
                    vals.reshape(n, d).astype(np.float64, copy=False))
    out = np.asarray(arr.to_pylist(), dtype=np.float64)
    if out.ndim == 1:  # empty batch
        out = out.reshape(0, 0)
    return out


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def ann_topk(emb_ds, query_vecs: np.ndarray, k: int = 10, query_ids: Optional[List[int]] = None):
    """Embeddings Dataset → top-k (query_id, vec_id, sim_rounded, rank).

    Per-batch brute force against the broadcast query matrix, local
    top-k per batch, then a DISTRIBUTED grouped top-k fold keyed on
    query_id (per-block trim + per-query reduce) — the driver only
    ever sees the final k × n_queries rows, independent of block
    count.  sim is rounded for stable comparison.  ``query_ids`` maps
    matrix row index → reported query_id.
    """
    import ray

    q = _normalize(np.asarray(query_vecs, dtype=np.float64))
    q_ref = ray.put(q)
    if query_ids is None:
        query_ids = list(range(len(q)))

    def local_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        vec_ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = _matrix(batch.column("embedding"))
        if m.size == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        sims = _normalize(m) @ qm.T  # (batch, n_queries)
        out_q, out_v, out_s = [], [], []
        for qi in range(qm.shape[0]):
            col = sims[:, qi]
            take = min(k, len(col))
            idx = np.argpartition(-col, take - 1)[:take]
            for i in idx:
                out_q.append(qi)
                out_v.append(int(vec_ids[i]))
                out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    local = emb_ds.map_batches(local_topk, batch_format="pyarrow")
    # global merge: distributed grouped top-k fold — driver fan-in is
    # k × n_queries rows, independent of block count.
    return _finish_topk(local, k, query_ids)


def kmeans_fit(emb_ds, k: int = 16, iters: int = 5, sample_size: int = 4096):
    """Sample-fit spherical k-means for the IVF coarse quantizer.

    Round-1 ran ``iters`` FULL corpus passes (Lloyd as distributed
    partial aggregation) — correct but 5× the corpus I/O for a
    quantizer that only needs a representative sample. Now: one
    distributed hash-sampling pass (keep row iff
    ``mix64(vec_id) < rate·2^64`` — deterministic, order-independent,
    unbiased) bounds the fit set to ≈``sample_size`` rows, which is
    collected once (sample_size × dim floats, e.g. 4096×768×8 = 25 MB)
    and Lloyd runs locally in numpy. The corpus is touched exactly
    once at fit time; the search pass in ``ivf_kmeans_topk`` remains
    the only full pass. Deterministic: fixed hash sample, init = the
    k lowest-vec_id sample rows, fixed iteration count.
    """
    from .joins import mix64

    n = emb_ds.count()
    if n == 0:
        raise ValueError("kmeans_fit: empty embeddings dataset")
    rate = sample_size / n
    proj = emb_ds.select_columns(["vec_id", "embedding"])
    if rate < 1.0:
        threshold_u64 = np.uint64(min(int(rate * 2**64), 2**64 - 1))

        def hash_sample(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.uint64)
            keep = mix64(ids) <= threshold_u64
            return batch.filter(pa.array(keep))

        proj = proj.map_batches(hash_sample, batch_format="pyarrow")
    sample = proj.take_all()
    sample.sort(key=lambda r: r["vec_id"])
    if len(sample) < k:
        raise ValueError(
            f"kmeans_fit: sample of {len(sample)} rows < k={k}; "
            "raise sample_size"
        )
    mat = _normalize(np.asarray([r["embedding"] for r in sample], np.float64))
    cents = mat[:k].copy()

    for _ in range(iters):
        assign = np.argmax(mat @ cents.T, axis=1)
        sums = np.zeros_like(cents)
        np.add.at(sums, assign, mat)
        counts = np.bincount(assign, minlength=len(cents)).astype(np.int64)
        nonempty = counts > 0
        cents[nonempty] = _normalize(sums[nonempty] / counts[nonempty, None])
    return cents


def ivf_kmeans_topk(emb_ds, query_vecs: np.ndarray, k: int = 10,
                    n_clusters: int = 16, nprobe: int = 4, iters: int = 5,
                    query_ids=None):
    """True IVF ANN: k-means coarse quantizer, search only the nprobe
    clusters nearest each query. Approximate (recall < 1); exact
    baseline is ``ann_topk``; the cheap alternative quantizer is
    ``ivf_topk`` (hyperplane LSH)."""
    import ray

    cents = kmeans_fit(emb_ds, k=n_clusters, iters=iters)
    q = _normalize(np.asarray(query_vecs, np.float64))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]
    probe_set = sorted({int(c) for row in probe for c in row})
    cents_ref = ray.put((cents, np.asarray(probe_set, np.int64)))

    def in_probed(batch: pa.Table) -> pa.Table:
        c, keep = ray.get(cents_ref)
        m = _matrix(batch.column("embedding"))
        if m.size == 0:
            return batch
        assign = np.argmax(_normalize(m) @ c.T, axis=1)
        mask = np.isin(assign, keep)
        return batch.filter(pa.array(mask))

    candidates = emb_ds.map_batches(in_probed, batch_format="pyarrow")
    return ann_topk(candidates, query_vecs, k, query_ids=query_ids)


class HyperplaneBucketStage:
    """vec → LSH bucket id from sign bits of random hyperplane dots."""

    def __init__(self, dim: int, n_planes: int = 8, seed: int = 42) -> None:
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(n_planes, dim)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _matrix(batch.column("embedding"))
        if m.size == 0:
            bucket = pa.array([], pa.int32())
        else:
            bits = (m @ self.planes.T) > 0
            bucket = pa.array(
                (bits @ (1 << np.arange(bits.shape[1]))).astype(np.int32)
            )
        return batch.append_column("bucket", bucket)


def ivf_topk(emb_ds, query_vecs: np.ndarray, k: int = 10, n_planes: int = 8, dim: int = 0):
    """Scale path: bucket the corpus by hyperplane LSH, search only the
    buckets the queries land in.  Approximate (recall < 1); the exact
    baseline is ``ann_topk``."""
    if dim == 0:
        first = emb_ds.take(1)
        dim = len(first[0]["embedding"])
    stage = HyperplaneBucketStage(dim, n_planes)
    q = np.asarray(query_vecs, dtype=np.float64)
    q_bits = (q @ stage.planes.T) > 0
    q_buckets = set((q_bits @ (1 << np.arange(q_bits.shape[1]))).astype(int).tolist())
    bucketed = emb_ds.map_batches(
        HyperplaneBucketStage,
        fn_constructor_kwargs={"dim": dim, "n_planes": n_planes},
        batch_format="pyarrow",
        concurrency=pool_size(0.5, floor=4),
    )
    candidates = bucketed.filter(
        expr=f"bucket in {sorted(q_buckets)}" if len(q_buckets) > 1
        else f"bucket == {next(iter(q_buckets))}"
    )
    return ann_topk(candidates, query_vecs, k)


def semantic_dedup(emb_ds, threshold: float = 0.95, n_clusters: int = 16,
                   iters: int = 5, max_cluster: int = 100_000):
    """SemDeDup-shape semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space, then drop
    every vector whose cosine similarity to a LOWER-id vector in the
    SAME cluster is ≥ ``threshold``.

    Plan:
    1. coarse quantizer = :func:`kmeans_fit` (one hash-sampled corpus
       read, Lloyd runs on the driver over ≤ sample_size rows)
    2. assignment pass: broadcast centroids, one matmul per batch →
       (cluster, vec_id, embedding)
    3. ONE groupby(cluster) shuffle — the operator's inherent all-to-all
       (every vector must meet its cluster peers). Spherical k-means
       keeps cluster sizes ≈ n/k, and at corpus scale ``n_clusters``
       grows with the corpus so the per-group payload stays bounded;
       a cluster above ``max_cluster`` raises loudly (quantizer too
       coarse) instead of letting one group task OOM on the O(c²) sim
       matrix.
    4. in-cluster verify: one normalized matmul; vector i survives iff
       NO lower-vec_id vector in its cluster is within the ε-ball.
       Deterministic (fixed sample/init/iters; ascending-id rule), no
       sequential Python loop.

    Output: (vec_id, cluster, keep) for every input row — filter
    ``keep`` for survivors; the flag form keeps the drop set auditable.
    """
    import ray

    cents = kmeans_fit(emb_ds, k=n_clusters, iters=iters)
    cents_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _matrix(batch.column("embedding"))
        if m.size == 0:
            cl = pa.array([], pa.int32())
        else:
            cl = pa.array(
                np.argmax(_normalize(m) @ c.T, axis=1).astype(np.int32)
            )
        return pa.table(
            {
                "cluster": cl,
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding"),
            }
        )

    def in_cluster(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n > max_cluster:
            raise ValueError(
                f"semantic_dedup: cluster of {n} rows exceeds "
                f"max_cluster={max_cluster}; raise n_clusters (quantizer "
                "too coarse for this corpus)"
            )
        ids = np.asarray(group.column("vec_id").to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        m = _normalize(_matrix(group.column("embedding"))[order])
        sims = m @ m.T
        # drop i iff any j<i has sim ≥ threshold (strict lower triangle)
        tri = np.tril(sims >= threshold, k=-1)
        keep = ~tri.any(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": group.column("cluster").slice(0, 1).take(
                    pa.array([0] * n, pa.int64())
                ),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    return (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(in_cluster, batch_format="pyarrow")
    )


# ------------------------------------------------------- product quantization
def pq_fit(emb_ds, m: int = 8, ksub: int = 16, iters: int = 5,
           sample_size: int = 4096) -> np.ndarray:
    """Product-quantization codebooks (Jégou et al. 2011): split the
    (normalized) embedding into ``m`` subspaces and k-means each
    subspace with ``ksub`` centroids.  Same deterministic hash-sample
    fit as :func:`kmeans_fit` — ONE corpus pass bounded to
    ≈``sample_size`` rows, Lloyd runs locally per subspace.  Returns
    codebooks of shape (m, ksub, dim/m); memory per code afterwards is
    ``m`` bytes per vector (ksub ≤ 256) — the 100-TB embedding store
    answer: a 768-d float32 corpus compresses 384× at m=8.
    """
    from .joins import mix64

    n = emb_ds.count()
    if n == 0:
        raise ValueError("pq_fit: empty embeddings dataset")
    if ksub > 256:
        raise ValueError("pq_fit: ksub > 256 no longer fits uint8 codes")
    rate = sample_size / n
    proj = emb_ds.select_columns(["vec_id", "embedding"])
    if rate < 1.0:
        threshold_u64 = np.uint64(min(int(rate * 2**64), 2**64 - 1))

        def hash_sample(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.uint64)
            keep = mix64(ids) <= threshold_u64
            return batch.filter(pa.array(keep))

        proj = proj.map_batches(hash_sample, batch_format="pyarrow")
    sample = proj.take_all()
    sample.sort(key=lambda r: r["vec_id"])
    if len(sample) < ksub:
        raise ValueError(
            f"pq_fit: sample of {len(sample)} rows < ksub={ksub}; "
            "raise sample_size"
        )
    mat = _normalize(np.asarray([r["embedding"] for r in sample], np.float64))
    dim = mat.shape[1]
    if dim % m:
        raise ValueError(f"pq_fit: dim {dim} not divisible by m={m}")
    dsub = dim // m
    books = np.empty((m, ksub, dsub), np.float64)
    for j in range(m):
        sub = mat[:, j * dsub:(j + 1) * dsub]
        cents = sub[:ksub].copy()
        for _ in range(iters):
            d = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d, axis=1)
            sums = np.zeros_like(cents)
            np.add.at(sums, assign, sub)
            counts = np.bincount(assign, minlength=ksub).astype(np.int64)
            nonempty = counts > 0
            cents[nonempty] = sums[nonempty] / counts[nonempty, None]
        books[j] = cents
    return books


def _pq_codes(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, dim) normalized vectors → (n, m) uint8 codes (argmin L2 per
    subspace, vectorized via the ‖x‖²−2x·c+‖c‖² expansion)."""
    m, ksub, dsub = books.shape
    n = mat.shape[0]
    codes = np.empty((n, m), np.uint8)
    for j in range(m):
        sub = mat[:, j * dsub:(j + 1) * dsub]
        # argmin ‖x−c‖² == argmax (x·c − ‖c‖²/2); x terms constant per row
        score = sub @ books[j].T - 0.5 * (books[j] ** 2).sum(axis=1)[None, :]
        codes[:, j] = np.argmax(score, axis=1).astype(np.uint8)
    return codes


def pq_encode(emb_ds, books: np.ndarray):
    """emb_ds → (vec_id, pq_code:list<uint8>): the persisted compressed
    index artifact.  Codebooks broadcast once via ``ray.put``; encode
    is one matmul per subspace per batch."""
    import ray

    books_ref = ray.put(books)

    def encode(batch: pa.Table) -> pa.Table:
        b = ray.get(books_ref)
        mat = _normalize(_matrix(batch.column("embedding")))
        if mat.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "pq_code": pa.array([], pa.list_(pa.uint8())),
                }
            )
        codes = _pq_codes(mat, b)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "pq_code": pa.array(codes.tolist(), pa.list_(pa.uint8())),
            }
        )

    return emb_ds.map_batches(encode, batch_format="pyarrow")


def pq_topk(emb_ds, query_vecs: np.ndarray, k: int = 10, m: int = 8,
            ksub: int = 16, iters: int = 5, sample_size: int = 4096,
            query_ids=None):
    """PQ asymmetric-distance ANN: fit codebooks (one bounded pass),
    then ONE streaming pass that encodes each batch and scores every
    query against the uint8 codes via per-query lookup tables
    (inner-product ADC) — no float matrix ever shuffles or re-reads.
    Output schema matches :func:`ann_topk` (sim = approximate inner
    product, rounded); approximate by construction — recall vs the
    exact baseline is pinned in tests.
    """
    import ray

    books = pq_fit(emb_ds, m=m, ksub=ksub, iters=iters,
                   sample_size=sample_size)
    q = _normalize(np.asarray(query_vecs, np.float64))
    if query_ids is None:
        query_ids = list(range(len(q)))
    mm, ksub_, dsub = books.shape
    # luts[qi, j, c] = q_sub · codebook[j, c]
    luts = np.einsum("qjd,jcd->qjc", q.reshape(len(q), mm, dsub), books)
    state_ref = ray.put((books, luts))

    def local_topk(batch: pa.Table) -> pa.Table:
        b, lut = ray.get(state_ref)
        vec_ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        mat = _normalize(_matrix(batch.column("embedding")))
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if mat.size == 0:
            return empty
        codes = _pq_codes(mat, b)  # (n, m)
        nq = lut.shape[0]
        # scores[qi, i] = Σ_j lut[qi, j, codes[i, j]] — gather + sum
        gathered = lut[:, np.arange(codes.shape[1])[None, :], codes]  # (nq, n, m)
        scores = gathered.sum(axis=2)
        out_q, out_v, out_s = [], [], []
        for qi in range(nq):
            col = scores[qi]
            take = min(k, len(col))
            idx = np.argpartition(-col, take - 1)[:take]
            for i in idx:
                out_q.append(qi)
                out_v.append(int(vec_ids[i]))
                out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    local = emb_ds.map_batches(local_topk, batch_format="pyarrow")
    return _finish_topk(local, k, query_ids)


# ----------------------------------------------------------------- MMR
def mmr_rerank(cand_ids: "np.ndarray", cand_vecs: "np.ndarray",
               query_vec: "np.ndarray", m: int = 10,
               lam: float = 0.7):
    """Maximal Marginal Relevance re-rank of an ANN candidate set:
    greedily select ``m`` items maximizing
    ``λ·sim(q,d) − (1−λ)·max_{s∈selected} sim(d,s)`` — the diversity
    step after retrieval (dedups semantic near-copies out of a result
    page / training batch).

    Runs DRIVER-LOCAL over the candidate set BY DESIGN: candidates
    come from the distributed ANN stage (k ≤ hundreds), so the O(k²·m)
    greedy loop is microseconds — never run this over a corpus.
    Deterministic: ties broken by lower vec_id.  Returns
    (ids, relevance, mmr_score) in selection order.
    """
    q = query_vec / np.linalg.norm(query_vec)
    v = cand_vecs / np.linalg.norm(cand_vecs, axis=1, keepdims=True)
    rel = v @ q
    pair = v @ v.T
    n = len(cand_ids)
    m = min(m, n)
    selected: list = []
    max_sim = np.full(n, -np.inf)
    picked = np.zeros(n, dtype=bool)
    scores = []
    for _ in range(m):
        mmr = lam * rel - (1.0 - lam) * np.where(
            np.isinf(max_sim), 0.0 if not selected else max_sim, max_sim)
        if not selected:
            mmr = lam * rel
        mmr = np.where(picked, -np.inf, mmr)
        # first-max with id tie-break: argsort by (-mmr, id)
        order = np.lexsort((cand_ids, -mmr))
        best = order[0]
        selected.append(best)
        scores.append(float(mmr[best]))
        picked[best] = True
        max_sim = np.maximum(max_sim, pair[:, best])
    sel = np.asarray(selected)
    return cand_ids[sel], rel[sel], np.asarray(scores)


def embedding_covariance(ds, col: str = "embedding", dims: int = 16,
                         scale: int = 10_000, merge_fanin: int = 64):
    """EXACT covariance matrix of the first ``dims`` embedding
    components — distributed multivariate sufficient statistics with
    the family's float-parity recipe (``agg.grouped_corr`` extended to
    a matrix): each value is quantized to int64 at ``scale`` with SQL
    round semantics (half away from zero), each block reduces to ONE
    fixed-size partial (n, S ∈ ℤ^d, P = QᵀQ ∈ ℤ^{d×d}), a distributed
    tree-merge level sums ``merge_fanin`` partials per task (the DSIR /
    sketch fan-in shape), and the driver folds blocks/merge_fanin rows
    — embeddings never move.  cov_pop(i,j) = (P_ij − S_i·S_j/n)/n in
    float64 from identical integers, descaled and rounded
    half-away-from-zero to 6 digits.

    int64 headroom: |q| ≤ scale for unit-ish embeddings ⇒ P_ij ≤
    n·scale² — at scale 10⁴ safe to ~9·10¹⁰ rows per block-tree; size
    ``scale`` down for bigger corpora (parity is unaffected: both
    engines compare covariances OF THE QUANTIZED variable).

    Output: pyarrow Table (i, j, cov), 1-indexed, i ≤ j — one row per
    upper-triangle entry.
    """
    n_tot, s_tot, p_tot = _embedding_moments(
        ds, col=col, dims=dims, scale=scale, merge_fanin=merge_fanin)
    d = int(dims)
    if n_tot == 0:
        return pa.table({"i": pa.array([], pa.int64()),
                         "j": pa.array([], pa.int64()),
                         "cov": pa.array([], pa.float64())})
    P = p_tot.reshape(d, d).astype(np.float64)
    S = s_tot.astype(np.float64)
    cov = (P - np.outer(S, S) / n_tot) / n_tot / float(scale) ** 2
    iu, ju = np.triu_indices(d)
    c = cov[iu, ju]
    c = np.copysign(np.floor(np.abs(c) * 1e6 + 0.5) / 1e6, c)
    return pa.table({
        "i": pa.array((iu + 1).astype(np.int64), pa.int64()),
        "j": pa.array((ju + 1).astype(np.int64), pa.int64()),
        "cov": pa.array(c, pa.float64()),
    })


def _embedding_moments(ds, col: str, dims: int, scale: int,
                       merge_fanin: int = 64):
    """Shared sufficient-statistics pass for the covariance/PCA family:
    (n, S ∈ ℤ^d, P = QᵀQ ∈ ℤ^{d×d}) of the scale-quantized first
    ``dims`` embedding components.  One fixed-size partial per block, a
    distributed tree-merge level sums ``merge_fanin`` partials per task
    (the DSIR / sketch fan-in shape), driver folds blocks/merge_fanin
    rows — embeddings never move and no driver loop scales with block
    count.  Returns ``(n_tot:int, s_tot:int64[d], p_tot:int64[d*d])``.
    """
    d = int(dims)

    def block_stats(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_pylist()
        if not vals:
            return pa.table({
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.int64(), d)),
                "p": pa.array([], pa.list_(pa.int64(), d * d)),
            })
        m = np.asarray(vals, dtype=np.float64)[:, :d]
        q = np.copysign(np.floor(np.abs(m) * scale + 0.5), m).astype(np.int64)
        s = q.sum(axis=0)
        p = q.T @ q
        return pa.table({
            "n": pa.array([len(vals)], pa.int64()),
            "s": pa.array([s.tolist()], pa.list_(pa.int64(), d)),
            "p": pa.array([p.reshape(-1).tolist()], pa.list_(pa.int64(), d * d)),
        })

    def merge_stats(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        n = int(batch.column("n").to_numpy(zero_copy_only=False).sum())
        s = np.asarray(batch.column("s").to_pylist(),
                       dtype=np.int64).sum(axis=0)
        p = np.asarray(batch.column("p").to_pylist(),
                       dtype=np.int64).sum(axis=0)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "s": pa.array([s.tolist()], pa.list_(pa.int64(), d)),
            "p": pa.array([p.tolist()], pa.list_(pa.int64(), d * d)),
        })

    merged = (
        ds.map_batches(block_stats, batch_format="pyarrow")
        .map_batches(merge_stats, batch_size=merge_fanin,
                     batch_format="pyarrow")
    )
    n_tot = 0
    s_tot = np.zeros(d, dtype=np.int64)
    p_tot = np.zeros(d * d, dtype=np.int64)
    for row in merged.iter_rows():
        n_tot += int(row["n"])
        s_tot += np.asarray(row["s"], dtype=np.int64)
        p_tot += np.asarray(row["p"], dtype=np.int64)
    return n_tot, s_tot, p_tot


def pca_project(ds, col: str = "embedding", dims: int = 16,
                n_components: int = 2, scale: int = 10_000,
                out_col: str = "pc", id_col: str | None = None):
    """PCA dimensionality reduction of an embedding column: project the
    first ``dims`` components onto the top ``n_components`` principal
    axes of :func:`embedding_covariance` (the exact distributed
    covariance — so the fit is one sufficient-statistics pass; only the
    d×d matrix reaches the eigensolver).

    Determinism: eigensystem of a symmetric matrix via ``np.linalg.eigh``
    on the EXACT int-derived covariance, components ordered by
    descending eigenvalue, each eigenvector's sign fixed so its
    largest-|·| coordinate is positive (eigenvectors are only defined up
    to sign — without the fix two runs could flip a component).  The
    mean vector and projection matrix broadcast once (``ray.put``);
    projection is one centered matmul per batch.

    Output: the input Dataset with ``out_col`` (fixed-size list<double>
    of length n_components, round-6 for reproducible comparison).
    Iterative/eigendecomposition step keeps this rows-only (no SQL
    twin); correctness is pinned against numpy PCA in tests.
    """
    import ray

    # ONE tree-merged sufficient-statistics pass yields BOTH the
    # covariance and the mean (round ≤4 ran a second, un-tree-merged
    # mean pass whose driver fold iterated one row per block)
    d = int(dims)
    n_tot, s_tot, p_tot = _embedding_moments(ds, col=col, dims=d,
                                             scale=scale)
    if n_tot == 0:
        cov = np.zeros((d, d), dtype=np.float64)
    else:
        P = p_tot.reshape(d, d).astype(np.float64)
        S = s_tot.astype(np.float64)
        cov = (P - np.outer(S, S) / n_tot) / n_tot / float(scale) ** 2
        # identical round-6 contract as embedding_covariance's output
        # (the oracled twin) so the eigensystem sees the same matrix;
        # cov is exactly symmetric (integer P, exact outer), so
        # rounding preserves symmetry
        cov = np.copysign(np.floor(np.abs(cov) * 1e6 + 0.5) / 1e6, cov)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:n_components]
    comps = v[:, order]                         # d × k
    flip = np.sign(comps[np.abs(comps).argmax(axis=0),
                         np.arange(comps.shape[1])])
    comps = comps * np.where(flip == 0, 1.0, flip)

    # mean of the quantized variable — free from the same moments pass
    mean = (s_tot.astype(np.float64) / max(n_tot, 1)) / scale
    proj_ref = ray.put((mean, comps))

    def project(batch: pa.Table) -> pa.Table:
        mean_v, comps_v = ray.get(proj_ref)
        vals = batch.column(col).to_pylist()
        if not vals:
            out = np.zeros((0, comps_v.shape[1]))
        else:
            m = np.asarray(vals, dtype=np.float64)[:, :d]
            q = np.copysign(np.floor(np.abs(m) * scale + 0.5), m) / scale
            out = (q - mean_v) @ comps_v
        out = np.copysign(np.floor(np.abs(out) * 1e6 + 0.5) / 1e6, out)
        res = batch.drop_columns([out_col]) if out_col in batch.column_names \
            else batch
        return res.append_column(
            out_col,
            pa.array(out.tolist(), pa.list_(pa.float64(), comps_v.shape[1])),
        )

    return ds.map_batches(project, batch_format="pyarrow")


def label_centroids(ds, col: str = "embedding", label_col: str = "label",
                    dims: int = 8, scale: int = 10_000):
    """Per-label centroid of the first ``dims`` embedding components —
    the label-quality / cluster-drift diagnostic (compare class
    centroids across snapshots, spot mislabeled clusters).  Same
    float-parity recipe as :func:`embedding_covariance`: values
    quantized to int64 at ``scale`` with SQL round semantics, per-block
    partial sums in LONG form (label, dim, s, c), one low-cardinality
    group fold (labels × dims is small by contract), mean =
    (S/c)/scale in float64 from identical integers, round-6
    half-away-from-zero.  Output: Dataset (label, dim, n, mean),
    dim 1-indexed.
    """
    from .agg import lowcard_groupby_agg
    from ray.data.aggregate import Sum

    d = int(dims)

    def block_partials(batch: pa.Table) -> pa.Table:
        labels = batch.column(label_col).to_numpy(zero_copy_only=False)
        m = _matrix(batch.column(col))
        if m.shape[0] == 0:
            return pa.table({
                "label": pa.array([], pa.int64()),
                "dim": pa.array([], pa.int64()),
                "s": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
            })
        m = m[:, :d]
        q = np.copysign(np.floor(np.abs(m) * scale + 0.5), m).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        k = len(uniq)
        sums = np.zeros((k, d), dtype=np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=k).astype(np.int64)
        lab = np.repeat(uniq.astype(np.int64), d)
        dim = np.tile(np.arange(1, d + 1, dtype=np.int64), k)
        return pa.table({
            "label": pa.array(lab, pa.int64()),
            "dim": pa.array(dim, pa.int64()),
            "s": pa.array(sums.reshape(-1), pa.int64()),
            "c": pa.array(np.repeat(counts, d), pa.int64()),
        })

    # lowcard fold returns the final (labels × dims)-row pyarrow Table
    folded = lowcard_groupby_agg(
        ds.map_batches(block_partials, batch_format="pyarrow"),
        ["label", "dim"],
        [("s", "sum", "s"), ("c", "sum", "c")],
    )
    s = folded.column("s").to_numpy(zero_copy_only=False).astype(np.float64)
    c = folded.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
    mean = (s / c) / scale
    mean = np.copysign(np.floor(np.abs(mean) * 1e6 + 0.5) / 1e6, mean)
    return pa.table({
        "label": folded.column("label").cast(pa.int64()),
        "dim": folded.column("dim").cast(pa.int64()),
        "n": folded.column("c").cast(pa.int64()),
        "mean": pa.array(mean, pa.float64()),
    })


# --------------------------------------------- random projection (JL lemma)
def jl_project(ds, out_dims: int = 8, dims: int = 64,
               scale: int = 10_000, id_col: str = "vec_id",
               col: str = "embedding"):
    """Johnson–Lindenstrauss random projection with a ±1 (Achlioptas
    2003) sign matrix: ``y = (X · R) / sqrt(out_dims)`` — the
    dimensionality-reduction front-end for ANN at scale. The sign
    matrix is DERIVED, not stored or broadcast: sign(i, j) = low bit
    of splitmix64(i·1000 + j) (1-based grid), so every worker and the
    SQL twin reconstruct the identical R.

    Float-parity recipe: inputs are quantized to int64 at ``scale``
    (half-away rounding, the covariance family's idiom), the projection
    is an EXACT int64 matmul, and only the final descale touches
    floats — identical integers ⇒ identical doubles ⇒ identical
    round-6 output (IEEE sqrt is correctly rounded, so sqrt(k) agrees
    bit-for-bit too). Pure per-batch map — no shuffle, nothing scales
    with corpus size. Output: (vec_id, dim 1..out_dims, proj)."""
    from .joins import mix64

    ii, jj = np.meshgrid(np.arange(1, dims + 1, dtype=np.uint64),
                         np.arange(1, out_dims + 1, dtype=np.uint64),
                         indexing="ij")
    h = mix64(ii.ravel() * np.uint64(1000) + jj.ravel())
    signs = np.where((h % np.uint64(2)) == 1, 1, -1).astype(
        np.int64).reshape(dims, out_dims)

    def project(batch: pa.Table) -> pa.Table:
        m = _matrix(batch.column(col))
        if m.shape[0] == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "dim": pa.array([], pa.int64()),
                "proj": pa.array([], pa.float64()),
            })
        m = m[:, :dims]
        q = np.copysign(np.floor(np.abs(m) * scale + 0.5), m).astype(
            np.int64)
        y = q @ signs  # exact: |q| ≤ ~2·scale ⇒ |y| ≤ dims·2·scale ≪ 2⁶³
        n = m.shape[0]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        proj = y.astype(np.float64) / float(scale) \
            / float(np.sqrt(float(out_dims)))
        r6 = np.copysign(np.floor(np.abs(proj) * 1e6 + 0.5) / 1e6, proj)
        return pa.table({
            id_col: pa.array(np.repeat(ids, out_dims), pa.int64()),
            "dim": pa.array(
                np.tile(np.arange(1, out_dims + 1, dtype=np.int64), n),
                pa.int64()),
            "proj": pa.array(r6.ravel(), pa.float64()),
        })

    return ds.select_columns([id_col, col]).map_batches(
        project, batch_format="pyarrow"
    )


def jl_project_vectors(ds, out_dims: int = 8, dims: int = 64,
                       id_col: str = "vec_id", col: str = "embedding"):
    """Wide companion of :func:`jl_project` for downstream similarity
    kernels: (vec_id, embedding = the projected ``out_dims``-vector as
    a list column). Same DERIVED ±1 sign matrix; float path — the
    consumer is a distance kernel, not a value oracle. Pure map."""
    from .joins import mix64

    ii, jj = np.meshgrid(np.arange(1, dims + 1, dtype=np.uint64),
                         np.arange(1, out_dims + 1, dtype=np.uint64),
                         indexing="ij")
    h = mix64(ii.ravel() * np.uint64(1000) + jj.ravel())
    signs = np.where((h % np.uint64(2)) == 1, 1.0, -1.0).reshape(
        dims, out_dims)
    scale = 1.0 / float(np.sqrt(float(out_dims)))

    def project(batch: pa.Table) -> pa.Table:
        m = _matrix(batch.column(col))
        if m.shape[0] == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                col: pa.array([], pa.list_(pa.float64())),
            })
        y = (m[:, :dims] @ signs) * scale
        return pa.table({
            id_col: batch.column(id_col),
            col: pa.array(list(y), pa.list_(pa.float64())),
        })

    return ds.select_columns([id_col, col]).map_batches(
        project, batch_format="pyarrow"
    )


def jl_query_vectors(q: np.ndarray, out_dims: int = 8,
                     dims: int = 64) -> np.ndarray:
    """Project QUERY vectors with the same derived sign matrix (the
    driver-side twin of :func:`jl_project_vectors`)."""
    from .joins import mix64

    ii, jj = np.meshgrid(np.arange(1, dims + 1, dtype=np.uint64),
                         np.arange(1, out_dims + 1, dtype=np.uint64),
                         indexing="ij")
    h = mix64(ii.ravel() * np.uint64(1000) + jj.ravel())
    signs = np.where((h % np.uint64(2)) == 1, 1.0, -1.0).reshape(
        dims, out_dims)
    return (np.asarray(q, dtype=np.float64)[:, :dims] @ signs) \
        / float(np.sqrt(float(out_dims)))
