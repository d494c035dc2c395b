"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale notes (the part that matters at 100 TB):
- exact dedup is a single hash-keyed ``groupby`` — uniform md5 keys,
  no skew; partial aggregation happens inside Ray Data's AggregateFn
  combine, so only (hash, min_id, count) rows shuffle, never text
- MinHash+LSH shuffles only (band_id, band_hash, doc_id) triples —
  ~B×16 bytes per doc — then groups per bucket; candidate pairs are
  verified with exact shingle Jaccard per group (no all-pairs pass)
- SimHash buckets by the 16-bit prefix of the 64-bit signature; near
  pairs verified by Hamming distance inside buckets
- ``ngram_jaccard_pairs`` is the small-scale exact all-pairs variant
  used as the DuckDB-oracle-checkable ground truth; the LSH variants
  are its scale path
"""
from __future__ import annotations

import hashlib
import zlib
from typing import List, Set, Tuple

import numpy as np
import pyarrow as pa

from .pool import pool_size

from .joins import _MIX, mix64

# ------------------------------------------------------------------ shingles
def _word_shingles(text: str, k: int = 3) -> Set[int]:
    toks = text.split()
    if len(toks) < k:
        return {zlib.crc32(" ".join(toks).encode())} if toks else set()
    return {
        zlib.crc32(" ".join(toks[i : i + k]).encode())
        for i in range(len(toks) - k + 1)
    }


def jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


# -------------------------------------------------------------------- exact
def add_exact_hash(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_pylist()
    hashes = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    return batch.append_column("text_hash", pa.array(hashes, pa.string()))


def exact_dedup(docs_ds):
    """documents → one representative (min doc_id) per distinct text.

    hash-partitioned groupby with partial aggregation; only tiny
    (hash, doc_id) pairs shuffle.
    """
    from ray.data.aggregate import Count, Min

    return (
        docs_ds.map_batches(add_exact_hash, batch_format="pyarrow")
        .select_columns(["text_hash", "doc_id"])
        .groupby("text_hash")
        .aggregate(Min("doc_id"), Count())
    )


# ------------------------------------------------------------------ minhash
_MERSENNE = (1 << 61) - 1


class MinHasher:
    """n_perm universal-hash minhash; coefficients fixed by seed."""

    def __init__(self, n_perm: int = 64, seed: int = 42) -> None:
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm

    def signature(self, shingles: Set[int]) -> np.ndarray:
        if not shingles:
            return np.full(self.n_perm, _MERSENNE, dtype=np.uint64)
        s = np.fromiter(shingles, dtype=np.uint64)
        # (a*s + b) mod p, vectorized over shingles × perms
        vals = (np.outer(s, self.a) + self.b) % _MERSENNE
        return vals.min(axis=0)


class MinHashBandStage:
    """documents batch → (bucket_key, doc_id) rows.

    ``bucket_key`` = blake2b(band_index ‖ band signature chunk) — the
    band index is salted INTO the hash so one int64 column is the full
    LSH bucket identity. This (key, doc_id) stream is the ONLY payload
    that shuffles.  ``bands × rows_per_band = n_perm``.
    """

    def __init__(self, n_perm: int = 64, bands: int = 16, seed: int = 42) -> None:
        assert n_perm % bands == 0
        self.hasher = MinHasher(n_perm, seed)
        self.bands = bands
        self.rows_per_band = n_perm // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_key, out_doc = [], []
        for doc_id, text in zip(doc_ids, texts):
            sig = self.hasher.signature(_word_shingles(text or ""))
            for b in range(self.bands):
                chunk = sig[b * self.rows_per_band : (b + 1) * self.rows_per_band]
                # stable across processes (builtin hash() is salted)
                digest = hashlib.blake2b(
                    b.to_bytes(2, "little") + chunk.tobytes(), digest_size=8
                ).digest()
                out_key.append(int.from_bytes(digest, "little") & 0x7FFFFFFFFFFFFFFF)
                out_doc.append(doc_id)
        return pa.table(
            {
                "bucket_key": pa.array(out_key, pa.int64()),
                "doc_id": pa.array(out_doc, pa.int64()),
            }
        )


def _lazy_read_size_estimate(ds) -> "int | None":
    """Sum of the logical plan's Read-op in-memory size estimates —
    pure datasource metadata (parquet footers already sampled at plan
    time; column pruning reflected), NO execution. Returns None when
    the lineage has no estimable read (e.g. from_arrow test inputs)."""
    try:
        ops = [ds._logical_plan.dag]
        total, seen = 0, False
        while ops:
            op = ops.pop()
            ops.extend(op.input_dependencies)
            if hasattr(op, "_datasource"):
                est = op._datasource.estimate_inmemory_data_size()
                if est is None:
                    return None
                total += est
                seen = True
        return total if seen else None
    except Exception:
        return None


def compact_blocks(ds, bytes_per_block: int = 32 << 20, min_blocks: int = 16,
                   max_blocks: int = 4096, skip_above_bytes: "int | None" = None):
    """Materialize + size-aware repartition for SHUFFLE-BOUND small
    intermediates (band tables, candidate pairs): upstream map stages
    inherit the reader's block count (one block per input file split),
    so a 1 MB band table can arrive as 64 near-empty blocks and every
    downstream groupby pays per-block task overhead ×64 (measured 4.1s
    → 1.4s for the collision plan at sf0.1 going 64 → 16 blocks).

    The materialize itself is gated on CHEAP LAZY METADATA: when the
    lineage's read-size estimate exceeds ``skip_above_bytes`` the
    dataset is returned untouched — at that scale upstream blocks are
    full (no inflation to fix) and pinning the payload in the object
    store would defeat read→shuffle pipelining. Block-count inflation
    is strictly a small-input artifact, so the gate loses nothing.

    ``skip_above_bytes=None`` (default) always compacts — REQUIRED for
    multi-consumer intermediates (minhash bands/pairs/shingles), where
    the materialize also prevents lineage re-execution per consumer.
    Single-consumer callers (the join unions) pass a byte gate."""
    if skip_above_bytes is not None:
        est = _lazy_read_size_estimate(ds)
        if est is not None and est > skip_above_bytes:
            return ds
    m = ds.materialize()
    target = int(min(max_blocks, max(min_blocks, m.size_bytes() // bytes_per_block)))
    if m.num_blocks() > target * 2:
        return m.repartition(target).materialize()
    return m


def bucket_collision_pairs(
    bucket_ds,
    key_col: str = "bucket_key",
    id_col: str = "doc_id",
    out_a: str = "doc_a",
    out_b: str = "doc_b",
    min_count: int = 1,
    count_col: str | None = None,
    max_bucket: int | None = None,
    distinct: bool = True,
    num_partitions: int = 64,
):
    """(bucket_key, id) stream → distinct candidate pairs (a < b).

    Collision-first plan shared by the MinHash, winnowing and span
    dedup paths. ONE key-space partition exchange does everything: a
    bucket's rows land wholly in one partition, so each partition task
    lexsorts its rows, reads bucket sizes off the run lengths
    (singletons skip free), generates pairs only from 2..``max_bucket``
    runs (vectorized ``np.triu_indices`` per run), and pre-folds
    duplicate pairs in place. A second exchange over pair-hash
    partitions finishes the exact global fold. There is NO count
    pre-pass, NO hot-key broadcast and NO composite-key
    sort-aggregate — the previous plan used all three, and the native
    composite-key Aggregate alone measured ~5× the wall of a
    partition-fold at sf0.1.

    ``min_count`` keeps only pairs colliding in ≥ that many buckets
    (fingerprint-overlap semantics); ``count_col`` additionally emits
    the collision count under that name. ``max_bucket`` drops buckets
    larger than that size entirely — keys so common (boilerplate
    fingerprints, stop-phrases) they are non-discriminative AND would
    cost O(size²) pairs; the winnowing literature's standard guard.
    ``distinct=False`` skips the global fold and returns
    partition-folded (possibly still repeated across partitions) pairs
    — for callers whose downstream groupby dedups anyway.
    """
    def add_part(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        part = (k.view(np.uint64) % num_partitions).astype(np.int32)
        return batch.append_column("__part", pa.array(part, pa.int32()))

    def part_pairs(group: pa.Table) -> pa.Table:
        keys = group.column(key_col).to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, keys))
        sk, si = keys[order], ids[order]
        starts = np.nonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))[0]
        ends = np.concatenate([starts[1:], [len(sk)]])
        out_as, out_bs = [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2 or (max_bucket is not None and n > max_bucket):
                continue
            ia, ib = np.triu_indices(n, k=1)
            out_as.append(si[s:e][ia])
            out_bs.append(si[s:e][ib])
        if not out_as:
            return pa.table({
                out_a: pa.array([], pa.int64()),
                out_b: pa.array([], pa.int64()),
                "__n": pa.array([], pa.int64()),
                "__ppart": pa.array([], pa.int32()),
            })
        aa = np.concatenate(out_as)
        bb = np.concatenate(out_bs)
        key = np.stack([aa, bb], axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        n_fold = np.bincount(inv).astype(np.int64)
        ppart = (
            (uniq[:, 0].view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             + uniq[:, 1].view(np.uint64)) % num_partitions
        ).astype(np.int32)
        return pa.table({
            out_a: pa.array(uniq[:, 0], pa.int64()),
            out_b: pa.array(uniq[:, 1], pa.int64()),
            "__n": pa.array(n_fold, pa.int64()),
            "__ppart": pa.array(ppart, pa.int32()),
        })

    pairs = (
        bucket_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_pairs, batch_format="pyarrow")
    )
    if not distinct:
        assert min_count == 1 and count_col is None
        return pairs.drop_columns(["__n", "__ppart"])

    def fold(group: pa.Table) -> pa.Table:
        aa = group.column(out_a).to_numpy(zero_copy_only=False)
        bb = group.column(out_b).to_numpy(zero_copy_only=False)
        nn = group.column("__n").to_numpy(zero_copy_only=False)
        key = np.stack([aa, bb], axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        tot = np.bincount(inv, weights=nn.astype(np.float64)).astype(
            np.int64
        )
        keep = tot >= min_count
        cols = {
            out_a: pa.array(uniq[keep, 0], pa.int64()),
            out_b: pa.array(uniq[keep, 1], pa.int64()),
        }
        if count_col is not None:
            cols[count_col] = pa.array(tot[keep], pa.int64())
        return pa.table(cols)

    return pairs.groupby("__ppart").map_groups(fold, batch_format="pyarrow")


def minhash_lsh_candidates(docs_ds, n_perm: int = 64, bands: int = 16, seed: int = 42,
                           max_bucket: int = 4096):
    """documents → candidate near-dup pairs (doc_a < doc_b), distinct.

    Band stage → (bucket_key, doc_id) — the ONLY shuffle payload
    (~16 B/doc/band; corpus text never shuffles) — then the shared
    ``bucket_collision_pairs`` plan. Measured 13.1s → ~4s at sf0.1.
    ``max_bucket`` drops band buckets larger than that size — a band
    signature shared by thousands of docs is boilerplate-driven and
    non-discriminative, and would cost O(size²) pairs in one task.
    """
    bands_ds = compact_blocks(docs_ds.map_batches(
        MinHashBandStage,
        fn_constructor_kwargs={"n_perm": n_perm, "bands": bands, "seed": seed},
        batch_format="pyarrow",
        concurrency=pool_size(),
    ))
    # ^ the band table is consumed twice (count pass + pair pass), so
    # materializing it — not the documents — avoids recomputing minhash
    # signatures. The object store spills it at scale.
    return bucket_collision_pairs(bands_ds, max_bucket=max_bucket)


def candidate_shingles(docs_ds, cand_pairs_ds, k: int = 3):
    """(doc_id, shingles:list<uint32>) for ONLY the docs that appear in
    candidate pairs.

    The distinct candidate ID SET (8 bytes per candidate doc — ∝ dup
    cluster count, never corpus-sized; the pairs are the query output
    anyway) is broadcast once, and one streaming pass filters +
    shingles the matching docs vectorized. Text for non-candidates
    never moves; no text or shingles ever materialize on the driver.
    """
    import pyarrow.compute as pc
    import ray

    blocks = [
        t for t in (ray.get(r) for r in cand_pairs_ds.to_arrow_refs())
        if t.num_rows > 0  # empty shuffle partitions yield schemaless blocks
    ]
    pairs_t = (
        pa.concat_tables(blocks)
        if blocks
        else pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
        )
    )
    ids = np.unique(
        np.concatenate(
            [
                pairs_t.column("doc_a").to_numpy(zero_copy_only=False),
                pairs_t.column("doc_b").to_numpy(zero_copy_only=False),
            ]
        )
        if pairs_t.num_rows
        else np.array([], dtype=np.int64)
    )
    ids_ref = ray.put(ids.astype(np.int64))

    def shingle_batch(batch: pa.Table) -> pa.Table:
        keep_ids = ray.get(ids_ref)
        mask = pc.is_in(
            batch.column("doc_id"), value_set=pa.array(keep_ids, pa.int64())
        )
        kept = batch.filter(mask)
        out = []
        for t in kept.column("text").to_pylist():
            s = _word_shingles(t or "", k)
            out.append(sorted(s))
        return pa.table(
            {
                "doc_id": kept.column("doc_id"),
                "shingles": pa.array(out, pa.list_(pa.uint32())),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        shingle_batch, batch_format="pyarrow"
    )


def minhash_lsh_verified(
    docs_ds,
    threshold: float = 0.5,
    k: int = 3,
    n_perm: int = 64,
    bands: int = 16,
    seed: int = 42,
):
    """MinHash+LSH near-dup pairs with DISTRIBUTED exact-Jaccard verify.

    Candidate generation is the collision-first plan with the
    pair-dedup shuffle SKIPPED (``distinct=False``) — repeated pairs
    fold into the verify groupby below. Verification never
    materializes the corpus anywhere: each raw pair explodes into two
    (doc_id, pair, slot) stubs, ONE ``hash_join`` on doc_id attaches
    the shingle set to each stub, and a groupby on the pair merges the
    two slots, dedups repeats, and computes exact Jaccard — 2 shuffles
    total for the verify instead of the 3 a chained two-join plan costs.
    Driver holds nothing but the final pairs.
    """
    from .joins import hash_join

    # materialize the candidate-sized intermediates: each is consumed
    # twice downstream, and Ray Datasets re-execute their whole
    # lineage per consumer — without this the band stage runs 4x
    # (measured 59s vs 12s at sf0.1). Both are ∝ candidate count,
    # never corpus-sized.
    bands_ds = compact_blocks(docs_ds.map_batches(
        MinHashBandStage,
        fn_constructor_kwargs={"n_perm": n_perm, "bands": bands, "seed": seed},
        batch_format="pyarrow",
        concurrency=pool_size(),
    ))
    raw_pairs = compact_blocks(
        bucket_collision_pairs(bands_ds, distinct=False, max_bucket=4096)
    )
    # ^ max_bucket guards the in-bucket O(n²) against boilerplate-driven
    # non-discriminative band signatures (ADVICE r2)
    out_schema = pa.schema(
        [pa.field("doc_a", pa.int64()), pa.field("doc_b", pa.int64()),
         pa.field("jaccard", pa.float64())]
    )
    if raw_pairs.count() == 0:
        # no candidates (e.g. an empty or all-unique corpus): a
        # fully-empty Dataset has no schema, which would break the
        # join below — return a typed empty result instead
        import ray.data

        return ray.data.from_arrow(out_schema.empty_table())
    sh_ds = compact_blocks(candidate_shingles(docs_ds, raw_pairs, k=k))

    def explode(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([a, b]), pa.int64()),
                "pair_a": pa.array(np.concatenate([a, a]), pa.int64()),
                "pair_b": pa.array(np.concatenate([b, b]), pa.int64()),
                "slot": pa.array(
                    np.repeat(np.array([0, 1], np.int8), len(a)), pa.int8()
                ),
            }
        )

    stubs = raw_pairs.map_batches(explode, batch_format="pyarrow")
    joined = hash_join(
        stubs, sh_ds, "doc_id", "doc_id",
        ["pair_a", "pair_b", "slot"], ["shingles"],
        how="inner", num_partitions=8,  # candidate-sized join — few buckets
    )

    def add_vpart(batch: pa.Table) -> pa.Table:
        a = batch.column("pair_a").to_numpy(zero_copy_only=False)
        b = batch.column("pair_b").to_numpy(zero_copy_only=False)
        part = (
            (a.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             + b.view(np.uint64)) % 32
        ).astype(np.int32)
        return batch.append_column("__vpart", pa.array(part, pa.int32()))

    def verify_partition(group: pa.Table) -> pa.Table:
        # all rows of one (pair_a, pair_b) land in this partition;
        # lexsort + run detection replaces the per-pair map_groups
        # (composite-key groupby measured ~5x the partition fold)
        a = group.column("pair_a").to_numpy(zero_copy_only=False)
        b = group.column("pair_b").to_numpy(zero_copy_only=False)
        slot = group.column("slot").to_numpy(zero_copy_only=False)
        sh = group.column("shingles").to_pylist()
        order = np.lexsort((slot, b, a))
        sa_, sb_, ss = a[order], b[order], slot[order]
        change = np.concatenate(
            [[True], (sa_[1:] != sa_[:-1]) | (sb_[1:] != sb_[:-1])]
        )
        starts = np.nonzero(change)[0]
        ends = np.concatenate([starts[1:], [len(sa_)]])
        out_a, out_b, out_j = [], [], []
        for s, e in zip(starts, ends):
            run_slots = ss[s:e]
            i0 = np.nonzero(run_slots == 0)[0]
            i1 = np.nonzero(run_slots == 1)[0]
            if len(i0) == 0 or len(i1) == 0:
                continue
            va = sh[order[s + i0[0]]]
            vb = sh[order[s + i1[0]]]
            na, nb = len(va), len(vb)
            if na == 0 and nb == 0:
                sim = 1.0
            elif na == 0 or nb == 0:
                sim = 0.0
            else:
                inter = len(
                    np.intersect1d(
                        np.asarray(va, np.uint32),
                        np.asarray(vb, np.uint32),
                        assume_unique=True,
                    )
                )
                sim = inter / (na + nb - inter)
            if sim >= threshold:
                out_a.append(int(sa_[s]))
                out_b.append(int(sb_[s]))
                out_j.append(round(sim, 6))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return (
        joined.map_batches(add_vpart, batch_format="pyarrow")
        .groupby("__vpart")
        .map_groups(verify_partition, batch_format="pyarrow")
    )


class JaccardVerifyStage:
    """Candidate pairs + broadcast text lookup → verified pairs.

    SMALL-SCALE variant: the text lookup is ``ray.put`` once and read
    per actor — only valid when candidate docs ≪ corpus AND the corpus
    text fits the driver. The scale path is ``minhash_lsh_verified``,
    which joins candidates back to shingles distributed.
    """

    def __init__(self, texts_ref, threshold: float = 0.5, k: int = 3) -> None:
        import ray

        self.texts = ray.get(texts_ref)
        self.threshold = threshold
        self.k = k
        self._cache: dict = {}

    def _sh(self, doc_id: int) -> Set[int]:
        s = self._cache.get(doc_id)
        if s is None:
            s = _word_shingles(self.texts.get(doc_id, ""), self.k)
            self._cache[doc_id] = s
        return s

    def __call__(self, batch: pa.Table) -> pa.Table:
        a_ids = batch.column("doc_a").to_pylist()
        b_ids = batch.column("doc_b").to_pylist()
        keep_a, keep_b, sims = [], [], []
        for a, b in zip(a_ids, b_ids):
            sim = jaccard(self._sh(a), self._sh(b))
            if sim >= self.threshold:
                keep_a.append(a)
                keep_b.append(b)
                sims.append(round(sim, 6))
        return pa.table(
            {
                "doc_a": pa.array(keep_a, pa.int64()),
                "doc_b": pa.array(keep_b, pa.int64()),
                "jaccard": pa.array(sims, pa.float64()),
            }
        )


# -------------------------------------------------- exact all-pairs (oracle)
def ngram_jaccard_pairs(docs_ds, threshold: float = 0.5, k: int = 3):
    """EXACT all-pairs word-k-gram Jaccard ≥ threshold (doc_a < doc_b).

    Small-scale ground truth for the LSH variants; oracle-checkable in
    SQL.  O(n²) — driver correctness scale only; the scale path is
    ``minhash_lsh_candidates`` + ``JaccardVerifyStage``.
    """
    import ray

    rows = docs_ds.select_columns(["doc_id", "text"]).take_all()
    sh = {r["doc_id"]: _word_shingles(r["text"] or "", k) for r in rows}
    ids = sorted(sh)
    ids_ref = ray.put((ids, sh))

    def pairs_for(batch: pa.Table) -> pa.Table:
        ids_all, sh_all = ray.get(ids_ref)
        a_out, b_out, sims = [], [], []
        for a in batch.column("doc_id").to_pylist():
            sa = sh_all[a]
            for b in ids_all:
                if b <= a:
                    continue
                sim = jaccard(sa, sh_all[b])
                if sim >= threshold:
                    a_out.append(a)
                    b_out.append(b)
                    sims.append(round(sim, 6))
        return pa.table(
            {
                "doc_a": pa.array(a_out, pa.int64()),
                "doc_b": pa.array(b_out, pa.int64()),
                "jaccard": pa.array(sims, pa.float64()),
            }
        )

    return docs_ds.select_columns(["doc_id"]).map_batches(
        pairs_for, batch_format="pyarrow"
    )


# ------------------------------------------------- last-write-wins by key
def latest_by_key(ds, key: str, ts_col: str, tiebreak: str):
    """Keep the newest row per key (recrawl dedup, SURVEY §2.7: "exact
    dedup by url, last-write-wins per warc_ts").

    Argmax is ASSOCIATIVE, so a per-block partial pass first reduces
    every block to one winner per key present in the block — a hot key
    (one url recrawled millions of times) therefore contributes at
    most ONE row per block to the shuffle instead of co-locating all
    its rows in a single group task. No salting needed; skew is
    structurally impossible after the partial. The global groupby then
    picks the final winner among ≤ n_blocks rows per key.
    """

    def partial_latest(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        keys = np.asarray(batch.column(key).to_pylist())
        ts = np.asarray(batch.column(ts_col).to_pylist())
        tb = np.asarray(batch.column(tiebreak).to_pylist())
        # sort by (key, ts, tiebreak); the LAST row of each key run is
        # that key's block-local winner
        order = np.lexsort((tb, ts, keys))
        sk = keys[order]
        last_of_run = np.nonzero(
            np.concatenate([sk[1:] != sk[:-1], [True]])
        )[0]
        return batch.take(pa.array(order[last_of_run], pa.int64()))

    from .joins import _bucket_of

    def add_part(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("__part", pa.array([], pa.int32()))
        return batch.append_column(
            "__part", _bucket_of(batch.column(key), 64)
        )

    def take_latest(group: pa.Table) -> pa.Table:
        # partition fold: every key's partial winners land here; one
        # lexsort run-detection pass picks each key's global winner
        # (per-key map_groups measured ~5x slower — see partition_fold)
        keys = np.asarray(group.column(key).to_pylist())
        ts = np.asarray(group.column(ts_col).to_pylist())
        tb = np.asarray(group.column(tiebreak).to_pylist())
        order = np.lexsort((tb, ts, keys))
        sk = keys[order]
        last_of_run = np.nonzero(
            np.concatenate([sk[1:] != sk[:-1], [True]])
        )[0]
        return group.take(
            pa.array(order[last_of_run], pa.int64())
        ).drop_columns(["__part"])

    return (
        ds.map_batches(partial_latest, batch_format="pyarrow")
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(take_latest, batch_format="pyarrow")
    )


# ------------------------------------------------------------------ simhash
class SimHashStage:
    """documents batch → (doc_id, simhash:int64).

    64-bit simhash over word-shingle crc32s; candidate buckets are
    derived downstream by :func:`hamming_bands` (pigeonhole banding).
    """

    def __init__(self, k: int = 3) -> None:
        self.k = k

    @staticmethod
    def _signature(shingles) -> int:
        """Vectorized 64-bit simhash: shingle crc32s → splitmix64 →
        bit matrix (unpackbits) → column vote sums → sign bits.
        No per-bit Python loop (the round-1 kernel cost 5.1 s/500 docs)."""
        from .joins import mix64

        if not shingles:
            return 0
        h = mix64(np.fromiter(shingles, dtype=np.uint64, count=len(shingles)))
        bits = np.unpackbits(
            h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )  # (n_shingles, 64), little-endian bit order ⇒ column j = bit j
        votes = bits.sum(axis=0, dtype=np.int64) * 2 - len(shingles)
        sig_bits = (votes > 0).astype(np.uint64)
        sig = int((sig_bits << np.arange(64, dtype=np.uint64)).sum())
        return sig & 0x7FFFFFFFFFFFFFFF  # keep int64-positive

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        sims = []
        for t in texts:
            sims.append(self._signature(_word_shingles(t or "", self.k)))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "simhash": pa.array(sims, pa.int64()),
            }
        )


def band_layout(n_bits: int, n_bands: int) -> List[Tuple[int, int]]:
    """Split ``n_bits`` into ``n_bands`` contiguous (shift, width)
    chunks whose widths differ by at most 1 — the pigeonhole layout."""
    base, rem = divmod(n_bits, n_bands)
    out, shift = [], 0
    for b in range(n_bands):
        w = base + (1 if b < rem else 0)
        out.append((shift, w))
        shift += w
    return out


def hamming_bands(sig_ds, max_hamming: int, id_col: str = "doc_id",
                  n_bits: int = 64):
    """(id, simhash) → banded rows (bucket:int64, id, simhash): each
    signature emits ``max_hamming + 1`` rows, one per DISJOINT bit-band.

    PIGEONHOLE GUARANTEE: a pair at Hamming distance ≤ ``max_hamming``
    differs in at most ``max_hamming`` bands, so with ``max_hamming+1``
    disjoint bands at least one band is intact for both — the pair
    collides in that band's bucket and candidate recall is exactly 1.0
    (no probabilistic miss; the round-2 single-prefix bucket measured
    recall 0.48 at Hamming 10). Verification inside the bucket is exact
    XOR+popcount, so precision is 1.0 too.

    Scale contract: band width is ``n_bits // (max_hamming+1)``. At the
    production setting (Hamming ≤ 3 → four 16-bit bands, Manku et al.
    WWW'07) bands are discriminative. Loose thresholds (Hamming 10 →
    eleven ~6-bit bands) make buckets corpus-fraction-sized; the
    ``max_bucket`` guard in :func:`hamming_bucket_pairs` bounds the
    in-bucket O(n²), and tighter thresholds or wider signatures are the
    honest scale path. Only (bucket, id, sig) rows — 24 B × bands per
    doc — ever shuffle.
    """
    layout = band_layout(n_bits, max_hamming + 1)
    salts = mix64(np.arange(1, len(layout) + 1, dtype=np.uint64) * _MIX)

    def fn(batch: pa.Table) -> pa.Table:
        sigs = np.asarray(batch.column("simhash").to_pylist(), dtype=np.uint64)
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
        keys, out_ids, out_sigs = [], [], []
        for (shift, width), salt in zip(layout, salts):
            val = (sigs >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            # salt the band index INTO the hash so one int64 column is
            # the full bucket identity (cross-band collisions only add
            # verified comparisons, never lose recall)
            keys.append(mix64(val ^ salt) & np.uint64(0x7FFFFFFFFFFFFFFF))
            out_ids.append(ids)
            out_sigs.append(sigs)
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(keys).astype(np.int64), pa.int64()),
                id_col: pa.array(np.concatenate(out_ids), pa.int64()),
                "simhash": pa.array(
                    np.concatenate(out_sigs).astype(np.int64), pa.int64()
                ),
            }
        )

    return sig_ds.map_batches(fn, batch_format="pyarrow")


def hamming_bucket_pairs(sig_ds, max_hamming: int = 3, id_col: str = "doc_id",
                         out_a: str = "doc_a", out_b: str = "doc_b",
                         max_bucket: int = 4096):
    """Banded (bucket, id, simhash) stream → DISTINCT pairs with Hamming
    distance ≤ ``max_hamming``.

    Shared by text SimHash and image perceptual-hash dedup. Same
    single-exchange partition plan as ``bucket_collision_pairs``: each
    bucket lives wholly in one partition; runs of length 2..
    ``max_bucket`` get the vectorized XOR+popcount verify in place, and
    a pair-hash partition fold dedups pairs that collide in several
    bands (hamming is a property of the pair — identical in every
    band). Buckets larger than ``max_bucket`` are dropped
    LOUDLY-by-contract: a band value shared by that many signatures is
    non-discriminative (boilerplate-dominated corpora) and would cost
    O(size²) in one task — the same guard ``winnow_dup_pairs``
    applies.
    """
    num_partitions = 64

    def add_part(batch: pa.Table) -> pa.Table:
        k = batch.column("bucket").to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        part = (k.view(np.uint64) % num_partitions).astype(np.int32)
        return batch.append_column("__part", pa.array(part, pa.int32()))

    def part_pairs(group: pa.Table) -> pa.Table:
        keys = group.column("bucket").to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        sigs = group.column("simhash").to_numpy(
            zero_copy_only=False
        ).astype(np.int64, copy=False).view(np.uint64)
        order = np.lexsort((ids, keys))
        sk, si, ss = keys[order], ids[order], sigs[order]
        starts = np.nonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))[0]
        ends = np.concatenate([starts[1:], [len(sk)]])
        out_as, out_bs, out_ds = [], [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2 or n > max_bucket:
                continue
            ia, ib = np.triu_indices(n, k=1)
            x = ss[s:e][ia] ^ ss[s:e][ib]
            # vectorized popcount: 8 unpacked bytes per uint64
            d = np.unpackbits(
                x.view(np.uint8).reshape(-1, 8), axis=1
            ).sum(axis=1)
            keep = d <= max_hamming
            out_as.append(si[s:e][ia[keep]])
            out_bs.append(si[s:e][ib[keep]])
            out_ds.append(d[keep].astype(np.int64))
        if not out_as:
            return pa.table({
                out_a: pa.array([], pa.int64()),
                out_b: pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
                "__ppart": pa.array([], pa.int32()),
            })
        aa = np.concatenate(out_as)
        bb = np.concatenate(out_bs)
        dd = np.concatenate(out_ds)
        key = np.stack([aa, bb], axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        # partial fold: keep one row per pair (hamming identical)
        first = np.full(len(uniq), -1, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(inv) - 1, -1, -1)
        ppart = (
            (uniq[:, 0].view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             + uniq[:, 1].view(np.uint64)) % num_partitions
        ).astype(np.int32)
        return pa.table({
            out_a: pa.array(uniq[:, 0], pa.int64()),
            out_b: pa.array(uniq[:, 1], pa.int64()),
            "hamming": pa.array(dd[first], pa.int64()),
            "__ppart": pa.array(ppart, pa.int32()),
        })

    def fold(group: pa.Table) -> pa.Table:
        aa = group.column(out_a).to_numpy(zero_copy_only=False)
        bb = group.column(out_b).to_numpy(zero_copy_only=False)
        dd = group.column("hamming").to_numpy(zero_copy_only=False)
        key = np.stack([aa, bb], axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        first = np.full(len(uniq), -1, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(inv) - 1, -1, -1)
        return pa.table({
            out_a: pa.array(uniq[:, 0], pa.int64()),
            out_b: pa.array(uniq[:, 1], pa.int64()),
            "hamming": pa.array(
                dd[first].astype(np.int32), pa.int32()
            ),
        })

    return (
        sig_ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(part_pairs, batch_format="pyarrow")
        .groupby("__ppart")
        .map_groups(fold, batch_format="pyarrow")
    )


def simhash_dedup(docs_ds, max_hamming: int = 3):
    """Near-dup pairs by simhash with recall-1.0 pigeonhole banding:
    signature stage → ``max_hamming+1`` disjoint-band rows per doc →
    collision-first bucket groupby → in-bucket exact Hamming verify.
    The signature table (16 B/doc) is compacted before banding so the
    bucket shuffle doesn't pay per-block overhead on reader-inherited
    near-empty blocks."""
    sigs = compact_blocks(docs_ds.map_batches(
        SimHashStage, batch_format="pyarrow", concurrency=pool_size()
    ))
    return hamming_bucket_pairs(
        hamming_bands(sigs, max_hamming), max_hamming=max_hamming
    )


def _word_gram64(text: str, k: int) -> "list[int]":
    """DISTINCT word-k-gram 64-bit fingerprints (blake2b first 8
    bytes, sign bit cleared). 64-bit space keeps corpus-wide collision
    odds ~|grams|²/2⁶⁵ — negligible even at 10⁹ distinct grams — so
    exact intersection COUNTS over the hashes equal counts over the
    grams themselves (the 32-bit crc space MinHash uses is fine for
    sketches but would visibly distort exact counts)."""
    import hashlib

    toks = text.split()
    if len(toks) < k:
        if not toks:
            return []
        grams = [" ".join(toks)]
    else:
        grams = {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
    return [
        int.from_bytes(
            hashlib.blake2b(g.encode(), digest_size=8).digest(), "little"
        )
        & 0x7FFFFFFFFFFFFFFF
        for g in set(grams)
    ]


def containment_pairs(docs_ds, threshold: float = 0.5, k: int = 3,
                      max_bucket: "int | None" = None):
    """DIRECTIONAL near-dup: (src, dst) pairs where
    ``|grams(src) ∩ grams(dst)| / |grams(src)| ≥ threshold`` — Jaccard
    *containment*, the asymmetric relation Jaccard misses: a short doc
    quoted wholesale inside a long one scores ~1.0 here but low on
    Jaccard. The quote-inclusion / page-template detector a crawl
    corpus needs alongside symmetric near-dup.

    Fully distributed EXACT plan (no driver-side corpus): distinct
    per-doc gram fingerprints explode to (gram, doc_id) rows — the only
    corpus-sized payload, and it is two int64s per gram; per-doc sizes
    are ONE partition fold over the same rows; pair intersection counts
    come from the shared collision-first plan
    (:func:`bucket_collision_pairs` with ``count_col``); a keys-only
    hash join attaches |src| and a vectorized filter applies the
    threshold. ``max_bucket=None`` keeps counts EXACT (oracle parity);
    pass a cap at web scale to drop stop-phrase grams that are
    non-discriminative AND O(bucket²) — same trade the winnowing path
    documents.
    """
    import pyarrow.compute as pc

    from .joins import hash_join
    from ..functions.agg import partition_fold

    def explode(batch: pa.Table) -> pa.Table:
        ids, grams = [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            hs = _word_gram64(t or "", k)
            grams.extend(hs)
            ids.extend([d] * len(hs))
        return pa.table({
            "gram": pa.array(grams, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
        })

    grams = compact_blocks(
        docs_ds.select_columns(["doc_id", "text"]).map_batches(
            explode, batch_format="pyarrow"
        )
    )  # consumed twice (sizes + pairs) — compact prevents re-execution
    sizes = partition_fold(
        grams, ["doc_id"], "gram", fn="count", out_val="n_grams"
    )
    pairs = bucket_collision_pairs(
        grams, key_col="gram", id_col="doc_id",
        count_col="n_shared", max_bucket=max_bucket,
    )

    def both_directions(batch: pa.Table) -> pa.Table:
        fwd = pa.table({
            "src_doc": batch.column("doc_a"),
            "dst_doc": batch.column("doc_b"),
            "n_shared": batch.column("n_shared"),
        })
        rev = pa.table({
            "src_doc": batch.column("doc_b"),
            "dst_doc": batch.column("doc_a"),
            "n_shared": batch.column("n_shared"),
        })
        return pa.concat_tables([fwd, rev]).combine_chunks()

    directional = pairs.map_batches(both_directions, batch_format="pyarrow")
    joined = hash_join(
        directional, sizes, "src_doc", "doc_id",
        ["src_doc", "dst_doc", "n_shared"], ["n_grams"],
        how="inner", validate="unique_right",
    )

    def finish(batch: pa.Table) -> pa.Table:
        c = pc.divide(
            pc.cast(batch.column("n_shared"), pa.float64()),
            pc.cast(batch.column("n_grams"), pa.float64()),
        )
        keep = pc.greater_equal(c, threshold)
        out = pa.table({
            "src_doc": batch.column("src_doc"),
            "dst_doc": batch.column("dst_doc"),
            "containment": pc.round(c, 6),
        })
        return out.filter(keep)

    return joined.map_batches(finish, batch_format="pyarrow")
