"""Iterative graph operators: connected components over a pair list.

The canonical consumer is dedup clustering — exact/MinHash/SimHash
stages emit (id_a, id_b) duplicate PAIRS; turning pairs into CLUSTERS
(pick one representative per transitive group) is a connected-
components problem. The reference engine never needs this (single
process, dict union-find); at corpus scale it is an iterative
hash-min label propagation:

    label(v) ← min(label(v), min_{(v,u)∈E} label(u))   until fixpoint

Scale notes:
- State is the (node, label) table — nodes are only the docs that
  appear in a duplicate pair, a small fraction of the corpus. It is
  materialized once per iteration (the inherent checkpoint of an
  iterative algorithm; without it every iteration would recompute the
  whole lineage).
- Each iteration is one hash join (labels attached to edge
  endpoints, unique-right contract) + one groupby-min + one pointer
  jump (``label ← label(label)``, a unique-right self-join) — the
  shortcut that drops rounds from O(diameter) to O(log diameter),
  the same idea as large-star/small-star (Kiveris et al.,
  "Connected Components in MapReduce and Beyond"). Self-loops are
  added to the edge list up front so the neighbor-min includes the
  node's own label without a per-iteration union.
- Convergence detection is free: labels only ever decrease, so the
  global label sum is strictly decreasing until fixpoint — compare
  one Sum aggregate per iteration instead of joining old vs new.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def _pin(ds):
    """Execute ``ds`` and rebuild it from its result block refs.

    ``Dataset.materialize()`` is NOT enough for an iterative loop:
    when a downstream plan UNIONS a materialized dataset (every
    ``hash_join`` does), Ray Data re-executes the union inputs from
    their logical plans, so round N's plan embeds two copies of round
    N-1's — execution time doubles per round (measured: the pointer-
    jump self-join went 1.0 s → 14.8 s over 9 rounds on 162 rows).
    Rebuilding from ``to_arrow_refs`` severs the lineage completely:
    the same loop stays flat at ~2 s/round. Zero-copy — the blocks
    stay in the object store; only the plan root changes."""
    import ray.data

    return ray.data.from_arrow_refs(ds.to_arrow_refs())


def _sym_edges_with_self(batch: pa.Table, col_a: str, col_b: str) -> pa.Table:
    a = batch.column(col_a).combine_chunks().cast(pa.int64())
    b = batch.column(col_b).combine_chunks().cast(pa.int64())
    src = pa.concat_arrays([a, b, a, b])
    dst = pa.concat_arrays([b, a, a, b])
    return pa.table({"src": src, "dst": dst})


def _local_components(edges) -> pa.Table:
    """Driver-local union-find over a small edge table — the correct
    plan when the (already pinned and exactly counted) edge set fits
    the driver: rounds of distributed joins cost seconds each in task
    overhead that a 10^6-edge union-find resolves in milliseconds.
    Path-halving + union by smaller LABEL (the component label must be
    the MIN node id, so unions always point at the smaller root)."""
    import ray

    tabs = [t for t in (ray.get(r) for r in edges.to_arrow_refs())
            if t.num_rows > 0]
    t = pa.concat_tables(tabs)
    src = t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for a, b in zip(src, dst):
        ra, rb = find(idx[int(a)]), find(idx[int(b)])
        if ra != rb:
            # point the LARGER-node root at the smaller so the root is
            # always the component's min node id
            if nodes[ra] < nodes[rb]:
                parent[rb] = ra
            else:
                parent[ra] = rb
    comp = nodes[np.fromiter((find(i) for i in range(len(nodes))),
                             dtype=np.int64, count=len(nodes))]
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "component": pa.array(comp, pa.int64()),
        }
    )


def connected_components(pairs_ds, col_a: str = "id_a", col_b: str = "id_b",
                         max_iter: int = 50, local_max_edges: int = 2_000_000,
                         local_max_bytes: int = 256 << 20):
    """Label every node of the pair graph with the minimum node id of
    its connected component. Returns a Dataset ``(node, component)``
    with one row per distinct node appearing in ``pairs_ds``.

    Size-gated plan selection on the EXACT count AND EXACT byte size
    of the pinned edge table (both are metadata of the materialized
    table — not a guess): at or below ``local_max_edges`` rows and
    ``local_max_bytes`` (default 256 MiB — the edge table is already
    canonicalized to pure int64 pairs, but the byte gate makes the
    driver-memory bound explicit rather than inferred) the edges are
    collected and a driver union-find answers in one pass — the
    "broadcast the small side" rule applied to graphs (a distributed
    round costs seconds of join/task overhead that a 10^6-edge
    union-find resolves in milliseconds). Above the gate, iterative
    hash-min label propagation runs fully distributed. Dedup-pair
    graphs at 100 TB (30-50% duplicate rates) take the iterative path;
    ``local_max_edges=0`` forces it (tests pin both agree).

    Raises ``RuntimeError`` if ``max_iter`` rounds do not reach the
    fixpoint (diameter larger than max_iter — raise it or pre-cluster).
    """
    from ray.data.aggregate import Min, Sum

    from .joins import hash_join

    edges = _pin(pairs_ds.map_batches(
        lambda b: _sym_edges_with_self(b, col_a, col_b),
        batch_format="pyarrow",
    ))
    # consolidate reader-inherited tiny blocks ONCE — the edge table is
    # re-joined every round, so per-block task overhead multiplies by
    # the round count (same rationale as dedup.compact_blocks)
    if edges.num_blocks() > 32:
        target = max(16, edges.size_bytes() // (32 << 20))
        edges = _pin(edges.repartition(int(target)))
    n_edges = edges.count()
    if n_edges == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "component": pa.array([], pa.int64()),
                }
            )
        )
    if n_edges <= local_max_edges and edges.size_bytes() <= local_max_bytes:
        import ray.data

        return ray.data.from_arrow(_local_components(edges))

    # partition count sized to the graph: tiny label tables on 32
    # buckets pay ~4x per-round task overhead for nothing; at corpus
    # scale the count grows with the pair set
    parts = int(min(256, max(8, n_edges // 100_000)))

    labels = (
        edges.groupby("src")
        .aggregate(Min("src", alias_name="label"))
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("src").cast(pa.int64()),
                    "label": b.column("label").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    labels = _pin(labels)

    def _label_sum(lbl_ds) -> int:
        row = lbl_ds.aggregate(Sum("label", alias_name="s"))
        return int(row["s"])

    prev_sum = _label_sum(labels)
    for _ in range(max_iter):
        msgs = hash_join(
            edges,
            labels,
            "dst",
            "node",
            left_cols=["src"],
            right_cols=["label"],
            how="inner",
            num_partitions=parts,
        )
        new_labels = (
            msgs.groupby("src")
            .aggregate(Min("label", alias_name="label"))
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("src").cast(pa.int64()),
                        "label": b.column("label").cast(pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
        )
        new_labels = _pin(new_labels)
        # pointer jump: label ← label(label). Every label is itself a
        # node (min over node ids), so the lookup is a unique-right
        # self-join; it shortcuts label trees so a round can move
        # information further than one edge hop. (Full per-round path
        # compression was measured and does NOT pay here — label
        # movement is edge-bound, so extra jumps add joins without
        # cutting outer rounds.)
        new_labels = _pin(hash_join(
            new_labels,
            new_labels,
            "label",
            "node",
            left_cols=["node"],
            right_cols=["label"],
            how="inner",
            num_partitions=parts,
        ))
        new_sum = _label_sum(new_labels)
        labels = new_labels
        if new_sum == prev_sum:
            return labels.map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("node"),
                        "component": b.column("label"),
                    }
                ),
                batch_format="pyarrow",
            )
        prev_sum = new_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_iter} rounds "
        "(graph diameter exceeds max_iter)"
    )


def keyed_chain_edges(docs_ds, key: str = "md5", prefix_k: int = 5,
                      text_col: str = "text", id_col: str = "doc_id"):
    """Build CHAIN edges inside each same-key group: each doc links
    only to its rank-neighbor, so component labels must propagate
    multi-hop — the honest exercise of the iterative operator (clique
    edges would converge in one round).

    ``key``: ``"md5"`` (exact-duplicate groups) or ``"prefix"`` (first
    ``prefix_k`` whitespace tokens — the prefix near-dup heuristic web
    pipelines use for template clustering). One hash-keyed groupby;
    only (key, doc_id) shuffles."""
    import hashlib

    import pyarrow.compute as pc

    def add_hash(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch.column(text_col), "")
        if key == "md5":
            keys = pa.array(
                [
                    hashlib.md5(t.encode("utf-8")).hexdigest()
                    for t in col.to_pylist()
                ],
                pa.string(),
            )
        elif key == "prefix":
            toks = pc.split_pattern_regex(
                pc.utf8_trim(col, " \t\n\r"), r"\s+"
            )
            keys = pc.binary_join(pc.list_slice(toks, 0, prefix_k), " ")
        else:
            raise ValueError(f"unknown key kind {key!r}")
        return pa.table(
            {
                id_col: batch.column(id_col),
                "text_md5": keys,
            }
        )

    def chain(group: pa.Table) -> pa.Table:
        ids = np.sort(
            group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        if len(ids) < 2:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "id_a": pa.array(ids[:-1], pa.int64()),
                "id_b": pa.array(ids[1:], pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("text_md5")
        .map_groups(chain, batch_format="pyarrow")
    )


# --------------------------------------------------------------- pagerank
def _local_pagerank(edges_t: pa.Table, damping: float, iters: int):
    """Driver-local power iteration over a small edge table — the
    size-gated twin of the distributed path (same gate rationale as
    :func:`_local_components`). Dangling mass is redistributed
    uniformly; ranks sum to 1 every iteration."""
    src = edges_t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edges_t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    outdeg = np.bincount(si, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        w = rank[si] / outdeg[si]
        np.add.at(contrib, di, w)
        dangling = rank[outdeg == 0].sum()
        rank = (1.0 - damping) / n + damping * (contrib + dangling / n)
    return nodes, rank


def pagerank(edges_ds, col_src: str = "src", col_dst: str = "dst",
             damping: float = 0.85, iters: int = 20,
             local_max_edges: int = 2_000_000,
             local_max_bytes: int = 256 << 20):
    """PageRank over an (src, dst) int64 edge list — FIXED ``iters``
    power iterations (deterministic, oracle-free-testable), dangling
    mass redistributed uniformly, ranks always summing to 1.

    Size-gated like :func:`connected_components`: at or below
    ``local_max_edges`` (exact count of the pinned edge table) a local
    numpy power iteration answers directly; above it, each iteration is

        contribs = hash_join(edges+outdeg, ranks ON src)   # rank/deg → dst
                 → groupby(dst).sum                         # in-mass
                 → left-join back onto the node table       # 0 for no in-links
        rank(v) ← (1−d)/N + d·(in_mass(v) + dangling/N)

    — two hash joins and one groupby per round over (node, rank) pairs
    only (the edge table is pinned once, never re-shuffled; per-round
    lineage severed via ``from_arrow_refs`` exactly as in connected
    components). Distributed-vs-local agreement is pinned by tests.
    Output: Dataset ``(node, rank)``, one row per distinct node.
    """
    import ray.data
    from ray.data.aggregate import Count, Sum

    from .joins import hash_join

    def canon(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column(col_src).cast(pa.int64()),
                "dst": batch.column(col_dst).cast(pa.int64()),
            }
        )

    edges = _pin(edges_ds.map_batches(canon, batch_format="pyarrow"))
    if edges.num_blocks() > 32:
        target = max(16, edges.size_bytes() // (32 << 20))
        edges = _pin(edges.repartition(int(target)))
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.float64())})
        )
    if n_edges <= local_max_edges and edges.size_bytes() <= local_max_bytes:
        import ray

        tabs = [t for t in (ray.get(r) for r in edges.to_arrow_refs())
                if t.num_rows > 0]
        nodes, rank = _local_pagerank(
            pa.concat_tables(tabs), damping, iters
        )
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64()),
                      "rank": pa.array(rank, pa.float64())})
        )

    parts = int(min(256, max(8, n_edges // 100_000)))

    # node table + out-degrees (0 for dangling): distinct src∪dst
    def explode_nodes(batch: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            batch.column("src").to_numpy(zero_copy_only=False),
            batch.column("dst").to_numpy(zero_copy_only=False),
        ]))
        return pa.table({"node": pa.array(u, pa.int64())})

    from ray.data.aggregate import Min

    nodes_ds = _pin(
        edges.map_batches(explode_nodes, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("node", alias_name="__m"))
        .map_batches(
            lambda b: pa.table({"node": b.column("node").cast(pa.int64())}),
            batch_format="pyarrow",
        )
    )
    n_nodes = nodes_ds.count()
    outdeg = _pin(
        edges.groupby("src").aggregate(Count(alias_name="deg")).map_batches(
            lambda b: pa.table(
                {"node": b.column("src").cast(pa.int64()),
                 "deg": b.column("deg").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )
    # edges annotated once with src out-degree (degree never changes)
    edges_deg = _pin(hash_join(
        edges, outdeg, "src", "node",
        left_cols=["src", "dst"], right_cols=["deg"],
        how="inner", num_partitions=parts,
    ))

    init = 1.0 / n_nodes
    ranks = _pin(nodes_ds.map_batches(
        lambda b: b.append_column(
            "rank", pa.array([init] * b.num_rows, pa.float64())
        ),
        batch_format="pyarrow",
    ))

    def _sum_where_dangling(ranks_ds) -> float:
        # dangling mass = total rank − rank held by nodes WITH out-links
        joined = hash_join(
            ranks_ds, outdeg, "node", "node",
            left_cols=["rank"], right_cols=["deg"],
            how="inner", num_partitions=parts,
        )
        row = joined.aggregate(Sum("rank", alias_name="s"))
        linked = float(row["s"] or 0.0)
        total_row = ranks_ds.aggregate(Sum("rank", alias_name="s"))
        return float(total_row["s"] or 0.0) - linked

    for _ in range(iters):
        dangling = _sum_where_dangling(ranks)
        contribs = hash_join(
            edges_deg, ranks, "src", "node",
            left_cols=["dst", "deg"], right_cols=["rank"],
            how="inner", num_partitions=parts,
        )

        def weight(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            w = pc.divide(
                batch.column("rank"),
                pc.cast(batch.column("deg"), pa.float64()),
            )
            return pa.table({"node": batch.column("dst"), "w": w})

        in_mass = (
            contribs.map_batches(weight, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("w", alias_name="mass"))
        )
        joined = hash_join(
            nodes_ds, in_mass, "node", "node",
            left_cols=["node"], right_cols=["mass"],
            how="left", num_partitions=parts,
        )
        base = (1.0 - damping) / n_nodes + damping * dangling / n_nodes

        def update(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mass = pc.fill_null(batch.column("mass"), 0.0)
            r = pc.add(pc.multiply(mass, damping), base)
            return pa.table({"node": batch.column("node"), "rank": r})

        ranks = _pin(joined.map_batches(update, batch_format="pyarrow"))
    return ranks


# ---------------------------------------------------------------- BFS depth
def _local_bfs(edges, sources) -> pa.Table:
    """Driver-local BFS over a small DIRECTED edge table (already
    pinned and exactly counted) — adjacency-list frontier expansion."""
    import ray

    tabs = [t for t in (ray.get(r) for r in edges.to_arrow_refs())
            if t.num_rows > 0]
    adj: dict = {}
    if tabs:
        t = pa.concat_tables(tabs)
        src = t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(src, kind="stable")
        s, d = src[order], dst[order]
        starts = np.nonzero(np.concatenate([[True], s[1:] != s[:-1]]))[0]
        ends = np.concatenate([starts[1:], [len(s)]])
        adj = {int(s[a]): d[a:b] for a, b in zip(starts, ends)}
    depth = {int(n): 0 for n in sources}
    frontier = list(depth)
    lvl = 0
    while frontier:
        lvl += 1
        nxt = []
        for n in frontier:
            for m in adj.get(n, ()):
                m = int(m)
                if m not in depth:
                    depth[m] = lvl
                    nxt.append(m)
        frontier = nxt
    nodes = sorted(depth)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "depth": pa.array([depth[n] for n in nodes], pa.int64()),
        }
    )


def bfs_depths(edges_ds, sources, col_src: str = "src",
               col_dst: str = "dst", max_depth: int = 64,
               local_max_edges: int = 2_000_000,
               local_max_bytes: int = 256 << 20):
    """Minimum hop count from a seed set over a DIRECTED edge list —
    crawl-depth analysis (how deep below the seeds every reachable
    page sits), single-source shortest paths on an unweighted graph.

    Returns ``(node:int64, depth:int64)``, one row per reachable node
    (seeds at depth 0).  Unreachable nodes are absent.

    Same size-gated plan selection as :func:`connected_components`:
    at or below ``local_max_edges`` (exact count of the pinned edge
    table) a driver adjacency BFS answers in milliseconds; above it,
    semi-naive frontier expansion runs fully distributed — each round
    joins the CURRENT FRONTIER (not the visited set) against the edge
    table and anti-joins the visited set, so per-round shuffle volume
    is ∝ frontier size, the textbook semi-naive datalog evaluation.
    ``local_max_edges=0`` forces the distributed path (tests pin both
    equal).  Raises ``RuntimeError`` when ``max_depth`` rounds leave a
    non-empty frontier (deeper graph than expected — raise the bound).
    """
    import ray.data
    from ray.data.aggregate import Min

    from .joins import hash_join, semi_anti_join

    def to_pair(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column(col_src).cast(pa.int64()),
                "dst": batch.column(col_dst).cast(pa.int64()),
            }
        )

    edges = _pin(edges_ds.map_batches(to_pair, batch_format="pyarrow"))
    if edges.num_blocks() > 32:
        target = max(16, edges.size_bytes() // (32 << 20))
        edges = _pin(edges.repartition(int(target)))
    n_edges = edges.count()
    seed_tab = pa.table(
        {
            "node": pa.array(sorted({int(s) for s in sources}), pa.int64()),
            "depth": pa.array([0] * len({int(s) for s in sources}), pa.int64()),
        }
    )
    if n_edges <= local_max_edges and edges.size_bytes() <= local_max_bytes:
        return ray.data.from_arrow(_local_bfs(edges, seed_tab.column("node").to_pylist()))

    parts = int(min(256, max(8, n_edges // 100_000)))
    visited = _pin(ray.data.from_arrow(seed_tab))
    frontier = visited
    for lvl in range(1, max_depth + 1):
        cand = hash_join(
            edges, frontier, "src", "node",
            left_cols=["dst"], right_cols=[],
            how="inner", num_partitions=parts,
        )
        cand = _pin(cand.groupby("dst").aggregate(Min("dst", alias_name="__m"))
            .map_batches(
                lambda b: pa.table({"node": b.column("dst").cast(pa.int64())}),
                batch_format="pyarrow",
            ))
        if cand.count() == 0:  # frontier exhausted (pure-sink frontier)
            return visited
        new = semi_anti_join(
            cand, visited, "node", "node", ["node"],
            how="anti", num_partitions=parts,
        )
        new = _pin(new.map_batches(
            lambda b, lvl=lvl: b.append_column(
                "depth", pa.array([lvl] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        ))
        if new.count() == 0:
            return visited
        visited = _pin(visited.union(new))
        frontier = new
    raise RuntimeError(
        f"bfs_depths: frontier still non-empty after {max_depth} rounds"
    )


# ---------------------------------------------------------------------------
# Triangle counting, whole-graph stats, co-citation similarity, k-core.
#
# All four follow the family's size-gate pattern (connected_components,
# pagerank): at or below local_max_edges/local_max_bytes — exact
# metadata of the pinned canonical edge table, not a guess — the edges
# are collected and a vectorized numpy kernel answers directly (a
# distributed exchange costs seconds of task overhead that a 10^6-edge
# numpy pass resolves in milliseconds); above the gate the same kernels
# run inside partition exchanges. Local-vs-distributed agreement is
# pinned by tests (local_max_edges=0 forces the distributed path).
# ---------------------------------------------------------------------------

_PAIR_DT = np.dtype([("a", "<i8"), ("b", "<i8")])


def _pair_struct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a, b) int64 columns as a sortable/searchsorted-able struct array."""
    out = np.empty(len(a), dtype=_PAIR_DT)
    out["a"] = a
    out["b"] = b
    return out


def _np_distinct_pairs(a: np.ndarray, b: np.ndarray):
    s = np.unique(_pair_struct(np.asarray(a, np.int64),
                               np.asarray(b, np.int64)))
    return s["a"].copy(), s["b"].copy()


def _run_pairs(keys: np.ndarray):
    """All within-run ordered index pairs of an array SORTED by key.

    Returns (left, right) global index arrays with left < right and
    keys[left] == keys[right] — the shared enumeration kernel of the
    triangle wedges, the co-citation pairs and assoc.pair_lift:
    repeat/arange arithmetic only, no per-run Python loop."""
    n = len(keys)
    empty = np.array([], np.int64)
    if n < 2:
        return empty, empty
    change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])
    run_end = np.repeat(ends, ends - starts)
    reps = run_end - 1 - np.arange(n)
    total = int(reps.sum())
    if total == 0:
        return empty, empty
    left = np.repeat(np.arange(n), reps)
    off = np.cumsum(reps) - reps
    right = np.arange(total) - np.repeat(off, reps) + left + 1
    return left, right


def _member_mask(ea: np.ndarray, eb: np.ndarray,
                 qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Boolean mask: is query pair (qa, qb) present in the (ea, eb) set?
    Sorted-struct searchsorted — exact on both columns, no hashing."""
    if len(ea) == 0 or len(qa) == 0:
        return np.zeros(len(qa), dtype=bool)
    ekeys = np.sort(_pair_struct(ea, eb))
    q = _pair_struct(np.asarray(qa, np.int64), np.asarray(qb, np.int64))
    pos = np.searchsorted(ekeys, q)
    posc = np.clip(pos, 0, len(ekeys) - 1)
    return (pos < len(ekeys)) & (ekeys[posc] == q)


def _distinct_pairs(ds, col_a: str, col_b: str, num_partitions: int):
    """EXACT distinct (a, b) int64 pairs: per-block Arrow distinct, then
    one hash(a, b) partition exchange + in-partition distinct.  Each pair
    value lands wholly in one partition, so partition distincts ARE the
    global distinct — the same single-exchange plan as
    ``agg.partition_fold``."""
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def block_distinct(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "a": batch.column(col_a).cast(pa.int64()),
                "b": batch.column(col_b).cast(pa.int64()),
            }
        ).group_by(["a", "b"]).aggregate([])
        h = (
            t.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
            * _MIX
            + t.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        part = (h % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("__p", pa.array(part, pa.int32()))

    def part_distinct(group: pa.Table) -> pa.Table:
        return group.select(["a", "b"]).group_by(["a", "b"]).aggregate([])

    return (
        ds.map_batches(block_distinct, batch_format="pyarrow")
        .groupby("__p")
        .map_groups(part_distinct, batch_format="pyarrow")
    )


def _collect_pairs(ds, col_a: str = "a", col_b: str = "b"):
    """Driver-collect a small (already gated) pair Dataset to numpy."""
    import ray

    tabs = [t for t in (ray.get(r) for r in ds.to_arrow_refs())
            if t.num_rows > 0]
    if not tabs:
        e = np.array([], np.int64)
        return e, e
    t = pa.concat_tables(tabs)
    return (t.column(col_a).to_numpy(zero_copy_only=False).astype(np.int64),
            t.column(col_b).to_numpy(zero_copy_only=False).astype(np.int64))


def _local_triangles(a: np.ndarray, b: np.ndarray):
    """Numpy triangle kernel over a distinct canonical (a < b) edge set."""
    nodes, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    da = counts[np.searchsorted(nodes, a)]
    db = counts[np.searchsorted(nodes, b)]
    fwd = (da < db) | ((da == db) & (a < b))
    u = np.where(fwd, a, b)
    v = np.where(fwd, b, a)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    left, right = _run_pairs(u)
    x, y = v[left], v[right]
    wa, wb, apex = np.minimum(x, y), np.maximum(x, y), u[left]
    hit = _member_mask(a, b, wa, wb)
    corners = np.concatenate([apex[hit], wa[hit], wb[hit]])
    return np.unique(corners, return_counts=True)


def triangle_count(edges_ds, col_src: str = "src", col_dst: str = "dst",
                   num_partitions: int = 64,
                   local_max_edges: int = 2_000_000,
                   local_max_bytes: int = 256 << 20):
    """Per-node triangle counts over the UNDIRECTED simple graph of an
    (src, dst) edge list — the classic degree-oriented node-iterator
    (Suri & Vassilvitskii, "Counting Triangles and the Curse of the
    Last Reducer", WWW'11).

    Distributed plan (above the size gate):

      1. canonical undirected edge set E: (a=min, b=max), self-loops
         dropped, EXACT distinct via one hash(a,b) partition exchange
      2. degrees: endpoint explode → per-node count fold
      3. orient every edge toward its (deg, id)-larger endpoint — the
         out-degree of any node is then O(sqrt(|E|)), which bounds the
         wedge blow-up of step 4 (the "last reducer" fix; no hot node
         ever enumerates a giant neighbor-pair cross product)
      4. wedges: hash(apex) partition exchange → per-apex all pairs of
         out-neighbors (the shared ``_run_pairs`` kernel)
      5. wedge-vs-edge match: wedge candidates and E co-partitioned by
         hash(a,b), in-partition ``_member_mask`` — every hit is one
         triangle {apex, a, b}, found exactly once
      6. corner explode → per-node count fold.

    Nothing iterates and nothing lands on the driver: the largest
    intermediate (the wedge set, ≤ Σ_v outdeg(v)² ≤ |E|^1.5 rows of
    three int64s) streams through one exchange.  At or below the gate
    the identical kernels run locally in one pass.  Returns a Dataset
    ``(node, n_tri)`` with one row per node in ≥1 triangle.
    """
    import pyarrow.compute as pc
    import ray.data

    from .agg import partition_fold

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column(col_src).cast(pa.int64())
        d = batch.column(col_dst).cast(pa.int64())
        a = pc.min_element_wise(s, d)
        b = pc.max_element_wise(s, d)
        return pa.table({"a": a, "b": b}).filter(pc.less(a, b))

    canon_ds = _pin(edges_ds.map_batches(canon, batch_format="pyarrow"))
    n_raw = canon_ds.count()
    if n_raw <= local_max_edges and canon_ds.size_bytes() <= local_max_bytes:
        ra, rb = _collect_pairs(canon_ds)
        a, b = _np_distinct_pairs(ra, rb)
        nodes, ntri = _local_triangles(a, b)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes, pa.int64()),
            "n_tri": pa.array(ntri.astype(np.int64), pa.int64()),
        }))

    edges = _pin(_distinct_pairs(canon_ds, "a", "b", num_partitions))

    # 2. degrees over the distinct undirected edge set
    def explode_ends(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([a, b]), pa.int64())}
        )

    deg = partition_fold(
        edges.map_batches(explode_ends, batch_format="pyarrow"),
        ["node"], "node", fn="count", out_val="deg",
        num_partitions=num_partitions,
    )

    # 3. orient: u → v iff (deg_u, u) < (deg_v, v)
    from .joins import hash_join

    deg_a = deg.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "da": t.column("deg").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    deg_b = deg.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "db": t.column("deg").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    e1 = hash_join(edges, deg_a, "a", "node", ["a", "b"], ["da"],
                   num_partitions=num_partitions)
    e2 = hash_join(e1, deg_b, "b", "node", ["a", "b", "da"], ["db"],
                   num_partitions=num_partitions)

    def orient(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        da = batch.column("da").to_numpy(zero_copy_only=False)
        db = batch.column("db").to_numpy(zero_copy_only=False)
        # canonical a < b, so the tie (da == db) orients a → b
        fwd = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "u": pa.array(np.where(fwd, a, b), pa.int64()),
                "v": pa.array(np.where(fwd, b, a), pa.int64()),
            }
        )

    oriented = e2.map_batches(orient, batch_format="pyarrow")

    # 4. wedge enumeration, co-partitioned by apex
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def add_apart(batch: pa.Table) -> pa.Table:
        h = batch.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
        part = (h * _MIX % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("__p", pa.array(part, pa.int32()))

    def gen_wedges(group: pa.Table) -> pa.Table:
        u = group.column("u").to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        left, right = _run_pairs(u)
        x, y = v[left], v[right]            # x < y (v sorted within run)
        return pa.table(
            {
                "a": pa.array(np.minimum(x, y), pa.int64()),
                "b": pa.array(np.maximum(x, y), pa.int64()),
                "apex": pa.array(u[left], pa.int64()),
            }
        )

    wedges = (
        oriented.map_batches(add_apart, batch_format="pyarrow")
        .groupby("__p")
        .map_groups(gen_wedges, batch_format="pyarrow")
    )

    # 5. wedge-vs-edge co-partitioned match on the (a, b) pair value
    def tag(apex_col: bool):
        def fn(batch: pa.Table) -> pa.Table:
            a = batch.column("a").to_numpy(zero_copy_only=False)
            b = batch.column("b").to_numpy(zero_copy_only=False)
            h = (a.astype(np.uint64) * _MIX + b.astype(np.uint64))
            part = (h % np.uint64(num_partitions)).astype(np.int32)
            # explicit edge flag, NOT a null apex: a nulls-bearing int64
            # column round-trips through float64 in to_numpy, silently
            # corrupting node ids above 2^53
            apex = (batch.column("apex").cast(pa.int64())
                    if apex_col
                    else pa.array(np.zeros(batch.num_rows, np.int64)))
            return pa.table(
                {
                    "a": batch.column("a").cast(pa.int64()),
                    "b": batch.column("b").cast(pa.int64()),
                    "apex": apex,
                    "__edge": pa.array(
                        np.full(batch.num_rows, not apex_col, np.bool_)),
                    "__p": pa.array(part, pa.int32()),
                }
            )

        return fn

    tagged = wedges.map_batches(tag(True), batch_format="pyarrow").union(
        edges.map_batches(tag(False), batch_format="pyarrow")
    )

    def match(group: pa.Table) -> pa.Table:
        apex = group.column("apex").to_numpy(zero_copy_only=False)
        is_edge = group.column("__edge").to_numpy(zero_copy_only=False)
        a = group.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = group.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        wsel = ~is_edge
        hit = _member_mask(a[is_edge], b[is_edge], a[wsel], b[wsel])
        return pa.table(
            {
                "x": pa.array(apex[wsel][hit], pa.int64()),
                "y": pa.array(a[wsel][hit], pa.int64()),
                "z": pa.array(b[wsel][hit], pa.int64()),
            }
        )

    tris = tagged.groupby("__p").map_groups(match, batch_format="pyarrow")

    # 6. per-node counts
    def corners(batch: pa.Table) -> pa.Table:
        cols = [batch.column(c).to_numpy(zero_copy_only=False)
                for c in ("x", "y", "z")]
        return pa.table(
            {"node": pa.array(np.concatenate(cols), pa.int64())}
        )

    return partition_fold(
        tris.map_batches(corners, batch_format="pyarrow"),
        ["node"], "node", fn="count", out_val="n_tri",
        num_partitions=num_partitions,
    )


def _graph_stats_table(n_nodes, n_edges, n_self, n_und, n_nonself,
                       max_deg, n_src):
    from .text import _round6_half_up

    n_recip = 2 * (n_nonself - n_und)
    recipro = float(_round6_half_up(n_recip / n_nonself)[()]) \
        if n_nonself else 0.0
    avg_out = float(_round6_half_up(n_nonself / n_src)[()]) if n_src else 0.0
    return pa.table({
        "n_nodes": pa.array([int(n_nodes)], pa.int64()),
        "n_edges": pa.array([int(n_edges)], pa.int64()),
        "n_self_loops": pa.array([int(n_self)], pa.int64()),
        "n_undirected": pa.array([int(n_und)], pa.int64()),
        "n_reciprocal": pa.array([int(n_recip)], pa.int64()),
        "reciprocity": pa.array([recipro], pa.float64()),
        "max_out_deg": pa.array([int(max_deg)], pa.int64()),
        "avg_out_deg": pa.array([avg_out], pa.float64()),
    })


def graph_stats(edges_ds, col_src: str = "src", col_dst: str = "dst",
                num_partitions: int = 64,
                local_max_edges: int = 2_000_000,
                local_max_bytes: int = 256 << 20):
    """One-row whole-graph profile of a directed (src, dst) edge list:

    ``n_nodes`` (distinct endpoints), ``n_edges`` (distinct directed,
    self-loops included), ``n_self_loops``, ``n_undirected`` (distinct
    canonical non-self pairs), ``n_reciprocal`` (distinct non-self
    directed edges whose reverse also exists, derived from the identity
    n_reciprocal = 2·(n_nonself − n_undirected)), ``reciprocity``
    (= n_reciprocal / n_nonself, round-6), ``max_out_deg`` /
    ``avg_out_deg`` (over distinct non-self edges, round-6).  Above the
    size gate everything reduces through partition folds / Aggregates
    and only final scalars reach the driver; at or below it one numpy
    pass over the collected edge table computes the same counts.
    """
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Max

    from .agg import partition_fold

    def cast2(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column(col_src).cast(pa.int64()),
            "b": batch.column(col_dst).cast(pa.int64()),
        })

    raw = _pin(edges_ds.map_batches(cast2, batch_format="pyarrow"))
    n_raw = raw.count()
    if n_raw == 0:
        return ray.data.from_arrow(
            _graph_stats_table(0, 0, 0, 0, 0, 0, 0))
    if n_raw <= local_max_edges and raw.size_bytes() <= local_max_bytes:
        ra, rb = _collect_pairs(raw)
        a, b = _np_distinct_pairs(ra, rb)
        n_edges = len(a)
        self_m = a == b
        n_self = int(self_m.sum())
        na, nb = a[~self_m], b[~self_m]
        n_nonself = len(na)
        ua, ub = _np_distinct_pairs(np.minimum(na, nb), np.maximum(na, nb))
        n_und = len(ua)
        n_nodes = len(np.unique(np.concatenate([a, b])))
        if n_nonself:
            _, deg = np.unique(na, return_counts=True)
            max_deg, n_src = int(deg.max()), len(deg)
        else:
            max_deg, n_src = 0, 0
        return ray.data.from_arrow(_graph_stats_table(
            n_nodes, n_edges, n_self, n_und, n_nonself, max_deg, n_src))

    de = _pin(_distinct_pairs(raw, "a", "b", num_partitions))
    n_edges = de.count()
    nonself = _pin(de.map_batches(
        lambda t: t.filter(pc.not_equal(t.column("a"), t.column("b"))),
        batch_format="pyarrow",
    ))
    n_nonself = nonself.count()
    n_self = n_edges - n_nonself

    def canon(batch: pa.Table) -> pa.Table:
        a = batch.column("a")
        b = batch.column("b")
        return pa.table({"a": pc.min_element_wise(a, b),
                         "b": pc.max_element_wise(a, b)})

    n_und = _distinct_pairs(
        nonself.map_batches(canon, batch_format="pyarrow"),
        "a", "b", num_partitions,
    ).count()

    def explode_src(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("a").cast(pa.int64())})

    outdeg = partition_fold(
        nonself.map_batches(explode_src, batch_format="pyarrow"),
        ["node"], "node", fn="count", out_val="deg",
        num_partitions=num_partitions,
    )
    row_max = outdeg.aggregate(Max("deg", alias_name="m"))
    max_deg = int(row_max["m"] or 0)
    n_src = outdeg.count()

    def explode_all(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([a, b]), pa.int64())}
        )

    n_nodes = partition_fold(
        de.map_batches(explode_all, batch_format="pyarrow"),
        ["node"], "node", fn="count", out_val="c",
        num_partitions=num_partitions,
    ).count()

    return ray.data.from_arrow(_graph_stats_table(
        n_nodes, n_edges, n_self, n_und, n_nonself, max_deg, n_src))


def _local_neighbor_jaccard(a, b, min_shared, min_jaccard, max_fanin):
    from .text import _round6_half_up

    # out-degrees over the distinct directed edge set
    srcs, deg = np.unique(a, return_counts=True)
    order = np.lexsort((a, b))
    aa, bb = a[order], b[order]
    _, fanin = np.unique(bb, return_counts=True)
    if len(fanin) and int(fanin.max()) > max_fanin:
        raise ValueError(
            f"destination fan-in {int(fanin.max())} exceeds max_fanin="
            f"{max_fanin}; pre-filter hub destinations or raise the cap"
        )
    left, right = _run_pairs(bb)
    x, y = aa[left], aa[right]              # x < y (sources sorted in run)
    if len(x) == 0:
        e = np.array([], np.int64)
        return e, e, e, np.array([], np.float64)
    s = np.sort(_pair_struct(x, y))
    uniq, inter = np.unique(s, return_counts=True)
    keep = inter >= min_shared
    uniq, inter = uniq[keep], inter[keep]
    da = deg[np.searchsorted(srcs, uniq["a"])]
    db = deg[np.searchsorted(srcs, uniq["b"])]
    jac = _round6_half_up(inter.astype(np.float64) / (da + db - inter))
    keep = jac >= min_jaccard
    return (uniq["a"][keep].copy(), uniq["b"][keep].copy(),
            inter[keep].astype(np.int64), jac[keep])


def neighbor_jaccard_pairs(edges_ds, col_src: str = "src",
                           col_dst: str = "dst", min_shared: int = 2,
                           min_jaccard: float = 0.0,
                           num_partitions: int = 64,
                           max_fanin: int = 65536,
                           local_max_edges: int = 2_000_000,
                           local_max_bytes: int = 256 << 20):
    """Structural similarity by shared out-neighborhood (co-citation):
    pairs of source nodes whose out-link sets overlap — the
    mirror-site / template-farm detector that needs no content at all.

    Distributed plan: distinct (src, dst) → co-partition by dst →
    per-dst source pair enumeration (the shared ``_run_pairs`` kernel;
    a destination with fan-in f emits C(f, 2) pairs, guarded by
    ``max_fanin`` exactly like the LSH bucket caps) → pair-count fold
    (= |A ∩ B|) → out-degrees joined on both sides → Jaccard =
    inter / (deg_a + deg_b − inter), one division of exact int64
    counts, round-6.  Filters: ``n_shared ≥ min_shared`` and rounded
    ``jaccard ≥ min_jaccard``.  At or below the size gate the same
    kernels run locally.  Output: (site_a, site_b, n_shared, jaccard),
    site_a < site_b.
    """
    import pyarrow.compute as pc
    import ray.data

    from .agg import partition_fold
    from .joins import hash_join
    from .text import _round6_half_up

    def cast2(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column(col_src).cast(pa.int64()),
            "b": batch.column(col_dst).cast(pa.int64()),
        })

    raw = _pin(edges_ds.map_batches(cast2, batch_format="pyarrow"))
    n_raw = raw.count()
    if n_raw <= local_max_edges and raw.size_bytes() <= local_max_bytes:
        ra, rb = _collect_pairs(raw)
        a, b = _np_distinct_pairs(ra, rb)
        sa, sb, inter, jac = _local_neighbor_jaccard(
            a, b, min_shared, min_jaccard, max_fanin)
        return ray.data.from_arrow(pa.table({
            "site_a": pa.array(sa, pa.int64()),
            "site_b": pa.array(sb, pa.int64()),
            "n_shared": pa.array(inter, pa.int64()),
            "jaccard": pa.array(jac, pa.float64()),
        }))

    edges = _pin(_distinct_pairs(raw, "a", "b", num_partitions))

    outdeg = partition_fold(
        edges.map_batches(
            lambda t: pa.table({"node": t.column("a").cast(pa.int64())}),
            batch_format="pyarrow"),
        ["node"], "node", fn="count", out_val="deg",
        num_partitions=num_partitions,
    )

    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def add_dpart(batch: pa.Table) -> pa.Table:
        h = batch.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        part = (h * _MIX % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("__p", pa.array(part, pa.int32()))

    def gen_pairs(group: pa.Table) -> pa.Table:
        # per-dst pairs of citing sources (sources sorted ⇒ x < y)
        src = group.column("a").to_numpy(zero_copy_only=False)
        dst = group.column("b").to_numpy(zero_copy_only=False)
        order = np.lexsort((src, dst))
        dst, src = dst[order], src[order]
        _, fanin = np.unique(dst, return_counts=True)
        if len(fanin) and int(fanin.max()) > max_fanin:
            raise ValueError(
                f"destination fan-in {int(fanin.max())} exceeds max_fanin="
                f"{max_fanin}; pre-filter hub destinations or raise the cap"
            )
        left, right = _run_pairs(dst)
        return pa.table({
            "x": pa.array(src[left], pa.int64()),
            "y": pa.array(src[right], pa.int64()),
        })

    inter = partition_fold(
        edges.map_batches(add_dpart, batch_format="pyarrow")
        .groupby("__p")
        .map_groups(gen_pairs, batch_format="pyarrow"),
        ["x", "y"], "x", fn="count", out_val="n_shared",
        num_partitions=num_partitions,
    )
    inter = inter.map_batches(
        lambda t: t.filter(pc.greater_equal(
            t.column("n_shared"), pa.scalar(min_shared))),
        batch_format="pyarrow",
    )

    deg_a = outdeg.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "da": t.column("deg").cast(pa.int64())}),
        batch_format="pyarrow")
    deg_b = outdeg.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "db": t.column("deg").cast(pa.int64())}),
        batch_format="pyarrow")
    j1 = hash_join(inter, deg_a, "x", "node", ["x", "y", "n_shared"], ["da"],
                   num_partitions=num_partitions)
    j2 = hash_join(j1, deg_b, "y", "node",
                   ["x", "y", "n_shared", "da"], ["db"],
                   num_partitions=num_partitions)

    def score(batch: pa.Table) -> pa.Table:
        inter_n = batch.column("n_shared").to_numpy(zero_copy_only=False)
        da = batch.column("da").to_numpy(zero_copy_only=False)
        db = batch.column("db").to_numpy(zero_copy_only=False)
        jac = _round6_half_up(
            inter_n.astype(np.float64) / (da + db - inter_n))
        keep = jac >= min_jaccard
        return pa.table({
            "site_a": batch.column("x").filter(pa.array(keep)),
            "site_b": batch.column("y").filter(pa.array(keep)),
            "n_shared": pa.array(inter_n[keep], pa.int64()),
            "jaccard": pa.array(jac[keep], pa.float64()),
        })

    return j2.map_batches(score, batch_format="pyarrow")


def _local_kcore(a: np.ndarray, b: np.ndarray, k: int, rounds: int):
    """Fixed-round k-core peel over a distinct canonical edge set."""
    for _ in range(rounds):
        if len(a) == 0:
            break
        nodes, counts = np.unique(np.concatenate([a, b]),
                                  return_counts=True)
        keepn = nodes[counts >= k]
        if len(keepn) == len(nodes):
            break
        pos_a = np.searchsorted(keepn, a)
        pos_b = np.searchsorted(keepn, b)
        pos_a = np.clip(pos_a, 0, max(len(keepn) - 1, 0))
        pos_b = np.clip(pos_b, 0, max(len(keepn) - 1, 0))
        m = (np.zeros(len(a), bool) if len(keepn) == 0 else
             (keepn[pos_a] == a) & (keepn[pos_b] == b))
        if m.all():
            break
        a, b = a[m], b[m]
    if len(a) == 0:
        e = np.array([], np.int64)
        return e, e
    nodes, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    sel = counts >= k
    return nodes[sel], counts[sel].astype(np.int64)


def kcore(edges_ds, k: int, col_src: str = "src", col_dst: str = "dst",
          rounds: int = 12, num_partitions: int = 64,
          local_max_edges: int = 2_000_000,
          local_max_bytes: int = 256 << 20):
    """Fixed-``rounds`` k-core peel of the UNDIRECTED simple graph:
    repeatedly drop nodes of degree < k (with their edges), ``rounds``
    times, then report the surviving nodes and their in-core degrees.

    FIXED iteration count (not run-to-convergence) for the same reason
    as :func:`pagerank`: a deterministic round count makes the operator
    value-checkable against unrolled SQL — and once the peel converges,
    further rounds are no-ops, so any ``rounds`` ≥ the true peel depth
    yields the converged k-core exactly.

    Size-gated like the other iterative operators: at or below the gate
    (exact count of the pinned canonical edge table) a local numpy peel
    answers directly; above it each round is one degree fold + two
    keys-only semi-joins over the shrinking edge set, lineage severed
    per round.  Early exit when a round drops nothing (node sets only
    shrink, so an unchanged count IS convergence).  Output: Dataset
    ``(node, core_deg)``.
    """
    import pyarrow.compute as pc
    import ray.data

    from .agg import partition_fold
    from .joins import semi_anti_join

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column(col_src).cast(pa.int64())
        d = batch.column(col_dst).cast(pa.int64())
        a = pc.min_element_wise(s, d)
        b = pc.max_element_wise(s, d)
        return pa.table({"a": a, "b": b}).filter(pc.less(a, b))

    canon_ds = _pin(edges_ds.map_batches(canon, batch_format="pyarrow"))
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "core_deg": pa.array([], pa.int64())})
    n_raw = canon_ds.count()
    if n_raw == 0:
        return ray.data.from_arrow(empty)
    if n_raw <= local_max_edges and canon_ds.size_bytes() <= local_max_bytes:
        ra, rb = _collect_pairs(canon_ds)
        a, b = _np_distinct_pairs(ra, rb)
        nodes, deg = _local_kcore(a, b, k, rounds)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes, pa.int64()),
            "core_deg": pa.array(deg, pa.int64()),
        }))

    edges = _pin(_distinct_pairs(canon_ds, "a", "b", num_partitions))

    def explode(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([a, b]), pa.int64())}
        )

    def degrees(eds):
        return partition_fold(
            eds.map_batches(explode, batch_format="pyarrow"),
            ["node"], "node", fn="count", out_val="deg",
            num_partitions=num_partitions,
        )

    prev_nodes = None
    for _ in range(rounds):
        deg = degrees(edges)
        keep = _pin(deg.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("deg"), pa.scalar(k))
            ).select(["node"]),
            batch_format="pyarrow",
        ))
        n_keep = keep.count()
        if n_keep == 0:
            return ray.data.from_arrow(empty)
        if n_keep == prev_nodes:
            break  # nothing dropped ⇒ converged
        prev_nodes = n_keep
        edges = semi_anti_join(edges, keep, "a", "node", ["a", "b"],
                               how="semi", num_partitions=num_partitions)
        edges = _pin(semi_anti_join(edges, keep, "b", "node", ["a", "b"],
                                    how="semi",
                                    num_partitions=num_partitions))
        if edges.count() == 0:
            return ray.data.from_arrow(empty)

    out = degrees(edges)

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("deg"), pa.scalar(k))
        t = t.filter(keep)
        return pa.table({
            "node": t.column("node").cast(pa.int64()),
            "core_deg": t.column("deg").cast(pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def _local_trustrank(edges_t: pa.Table, seeds, damping: float, iters: int):
    """Driver-local personalized power iteration (TrustRank)."""
    src = edges_t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edges_t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    outdeg = np.bincount(si, minlength=n).astype(np.float64)
    seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
    pos = np.searchsorted(nodes, seed_arr)
    pos = np.clip(pos, 0, max(n - 1, 0))
    in_graph = seed_arr[(pos < n) & (nodes[pos] == seed_arr)] if n else seed_arr[:0]
    tele = np.zeros(n)
    if len(in_graph) == 0:
        return nodes, tele  # no reachable trust mass: all zeros
    tele[np.searchsorted(nodes, in_graph)] = 1.0 / len(in_graph)
    rank = tele.copy()
    for _ in range(iters):
        contrib = np.zeros(n)
        w = rank[si] / outdeg[si]
        np.add.at(contrib, di, w)
        dangling = rank[outdeg == 0].sum()
        rank = (1.0 - damping) * tele + damping * (contrib + dangling * tele)
    return nodes, rank


def trustrank(edges_ds, seeds, col_src: str = "src", col_dst: str = "dst",
              damping: float = 0.85, iters: int = 20,
              local_max_edges: int = 2_000_000,
              local_max_bytes: int = 256 << 20):
    """TrustRank (Gyöngyi, Garcia-Molina & Pedersen, VLDB 2004):
    PageRank personalized to a TRUSTED SEED SET — teleport and dangling
    mass return only to the seeds, so trust flows outward along links
    and link-spam neighborhoods that no trusted page reaches score ~0.
    The standard web-scale spam-demotion signal.

        rank ← (1−d)·t + d·(contrib + dangling·t),
        t uniform over (seeds ∩ graph nodes), rank₀ = t

    FIXED ``iters`` like :func:`pagerank` (value-checkable against
    unrolled SQL), size-gated identically (local numpy twin at or
    below the gate, per-round join/fold loop above, lineage severed
    per round).  ``seeds`` is a small id collection — it broadcasts by
    closure, never shuffles.  Output: Dataset ``(node, rank)``.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    from .joins import hash_join

    def canon(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column(col_src).cast(pa.int64()),
                "dst": batch.column(col_dst).cast(pa.int64()),
            }
        )

    edges = _pin(edges_ds.map_batches(canon, batch_format="pyarrow"))
    if edges.num_blocks() > 32:
        target = max(16, edges.size_bytes() // (32 << 20))
        edges = _pin(edges.repartition(int(target)))
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.float64())})
        )
    if n_edges <= local_max_edges and edges.size_bytes() <= local_max_bytes:
        tabs = [t for t in (ray.get(r) for r in edges.to_arrow_refs())
                if t.num_rows > 0]
        nodes, rank = _local_trustrank(
            pa.concat_tables(tabs), seeds, damping, iters
        )
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64()),
                      "rank": pa.array(rank, pa.float64())})
        )

    parts = int(min(256, max(8, n_edges // 100_000)))
    seed_set = {int(s) for s in seeds}

    def explode_nodes(batch: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            batch.column("src").to_numpy(zero_copy_only=False),
            batch.column("dst").to_numpy(zero_copy_only=False),
        ]))
        return pa.table({"node": pa.array(u, pa.int64())})

    from ray.data.aggregate import Min

    nodes_ds = _pin(
        edges.map_batches(explode_nodes, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("node", alias_name="__m"))
        .map_batches(
            lambda b: pa.table({"node": b.column("node").cast(pa.int64())}),
            batch_format="pyarrow",
        )
    )

    def mark_seed(batch: pa.Table) -> pa.Table:
        ids = batch.column("node").to_numpy(zero_copy_only=False)
        m = np.fromiter((int(i) in seed_set for i in ids), dtype=bool,
                        count=len(ids))
        return batch.append_column("__seed", pa.array(m))

    marked = _pin(nodes_ds.map_batches(mark_seed, batch_format="pyarrow"))
    n_seeds = marked.map_batches(
        lambda b: b.filter(pa.compute.equal(b.column("__seed"),
                                            pa.scalar(True))),
        batch_format="pyarrow",
    ).count()
    if n_seeds == 0:
        return nodes_ds.map_batches(
            lambda b: pa.table({
                "node": b.column("node"),
                "rank": pa.array([0.0] * b.num_rows, pa.float64()),
            }),
            batch_format="pyarrow",
        )
    tele_v = 1.0 / n_seeds

    def with_tele(batch: pa.Table) -> pa.Table:
        s = batch.column("__seed").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": batch.column("node"),
            "tele": pa.array(np.where(s, tele_v, 0.0), pa.float64()),
        })

    tele_ds = _pin(marked.map_batches(with_tele, batch_format="pyarrow"))

    outdeg = _pin(
        edges.groupby("src").aggregate(Count(alias_name="deg")).map_batches(
            lambda b: pa.table(
                {"node": b.column("src").cast(pa.int64()),
                 "deg": b.column("deg").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )
    edges_deg = _pin(hash_join(
        edges, outdeg, "src", "node",
        left_cols=["src", "dst"], right_cols=["deg"],
        how="inner", num_partitions=parts,
    ))

    ranks = tele_ds.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "rank": b.column("tele")}),
        batch_format="pyarrow",
    )
    ranks = _pin(ranks)

    def _dangling_mass(ranks_ds) -> float:
        joined = hash_join(
            ranks_ds, outdeg, "node", "node",
            left_cols=["rank"], right_cols=["deg"],
            how="inner", num_partitions=parts,
        )
        row = joined.aggregate(Sum("rank", alias_name="s"))
        linked = float(row["s"] or 0.0)
        total_row = ranks_ds.aggregate(Sum("rank", alias_name="s"))
        return float(total_row["s"] or 0.0) - linked

    for _ in range(iters):
        dangling = _dangling_mass(ranks)
        contribs = hash_join(
            edges_deg, ranks, "src", "node",
            left_cols=["dst", "deg"], right_cols=["rank"],
            how="inner", num_partitions=parts,
        )

        def weight(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            w = pc.divide(
                batch.column("rank"),
                pc.cast(batch.column("deg"), pa.float64()),
            )
            return pa.table({"node": batch.column("dst"), "w": w})

        in_mass = (
            contribs.map_batches(weight, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("w", alias_name="mass"))
        )
        joined = hash_join(
            tele_ds, in_mass, "node", "node",
            left_cols=["node", "tele"], right_cols=["mass"],
            how="left", num_partitions=parts,
        )

        def update(batch: pa.Table, dangling=dangling) -> pa.Table:
            mass = np.nan_to_num(
                batch.column("mass").to_numpy(zero_copy_only=False)
                .astype(np.float64))
            tele = batch.column("tele").to_numpy(zero_copy_only=False)
            r = (1.0 - damping) * tele + damping * (mass + dangling * tele)
            return pa.table({"node": batch.column("node"),
                             "rank": pa.array(r, pa.float64())})

        ranks = _pin(joined.map_batches(update, batch_format="pyarrow"))
    return ranks


# ------------------------------------------------------- label propagation
def _lpa_pick(u: np.ndarray, lab: np.ndarray):
    """Per distinct u: its most frequent lab, ties → minimum lab.
    Two-level run arithmetic (lexsort + diff), no per-node Python —
    the shared kernel of both label-propagation paths."""
    order = np.lexsort((lab, u))
    su, sl = u[order], lab[order]
    new = np.concatenate([[True], (su[1:] != su[:-1]) | (sl[1:] != sl[:-1])])
    starts = np.nonzero(new)[0]
    cnt = np.diff(np.concatenate([starts, [len(su)]]))
    ru, rl = su[starts], sl[starts]
    o2 = np.lexsort((rl, -cnt, ru))
    first = np.nonzero(
        np.concatenate([[True], ru[o2][1:] != ru[o2][:-1]])
    )[0]
    pick = o2[first]
    return ru[pick], rl[pick]


def _local_lpa(a: np.ndarray, b: np.ndarray, rounds: int):
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    nodes = np.unique(u)
    inv_u = np.searchsorted(nodes, u)
    inv_v = np.searchsorted(nodes, v)
    lab = nodes.copy()
    for _ in range(rounds):
        # every node appears as u in the symmetric list, so the picked
        # distinct-u vector IS arange(len(nodes)) — labels align 1:1
        _, lab = _lpa_pick(inv_u, lab[inv_v])
    return nodes, lab


def label_propagation(edges_ds, rounds: int = 4,
                      col_src: str = "src", col_dst: str = "dst",
                      num_partitions: int = 64,
                      local_max_edges: int = 2_000_000,
                      local_max_bytes: int = 256 << 20):
    """Synchronous label-propagation community detection (Raghavan et
    al. 2007) over the UNDIRECTED simple graph, FIXED ``rounds`` with
    deterministic ties: label₀(v) = v; each round every node adopts the
    most frequent label among its (distinct) neighbors' previous-round
    labels, ties → minimum label.  The fixed round count and min-label
    tie-break make the operator value-checkable against unrolled SQL,
    like :func:`pagerank` / :func:`kcore`.

    Size-gated: at or below the gate a local numpy kernel answers
    directly; above it each round is ONE hash join (labels onto the
    symmetric edge list — only (node, label) int64 pairs move) + ONE
    node-space partition exchange running the same arg-max kernel,
    lineage severed per round.  Output: Dataset ``(node, label)``.
    """
    import pyarrow.compute as pc
    import ray.data

    from .agg import partition_fold
    from .joins import hash_join

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column(col_src).cast(pa.int64())
        d = batch.column(col_dst).cast(pa.int64())
        a = pc.min_element_wise(s, d)
        b = pc.max_element_wise(s, d)
        return pa.table({"a": a, "b": b}).filter(pc.less(a, b))

    canon_ds = _pin(edges_ds.map_batches(canon, batch_format="pyarrow"))
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64())})
    n_raw = canon_ds.count()
    if n_raw == 0:
        return ray.data.from_arrow(empty)
    if n_raw <= local_max_edges and canon_ds.size_bytes() <= local_max_bytes:
        ra, rb = _collect_pairs(canon_ds)
        a, b = _np_distinct_pairs(ra, rb)
        nodes, lab = _local_lpa(a, b, rounds)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes, pa.int64()),
            "label": pa.array(lab, pa.int64()),
        }))

    edges = _pin(_distinct_pairs(canon_ds, "a", "b", num_partitions))

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        return pa.table({
            "u": pa.concat_arrays([a, b]),
            "v": pa.concat_arrays([b, a]),
        })

    sym = _pin(edges.map_batches(symmetrize, batch_format="pyarrow"))
    labels = _pin(partition_fold(
        sym.map_batches(
            lambda t: pa.table({"node": t.column("u")}),
            batch_format="pyarrow",
        ),
        ["node"], "node", fn="min", out_val="lab",
        num_partitions=num_partitions,
    ))

    def add_part(batch: pa.Table) -> pa.Table:
        un = batch.column("u").to_numpy(zero_copy_only=False)
        part = (un.view(np.uint64) % num_partitions).astype(np.int32)
        return batch.append_column("__part", pa.array(part, pa.int32()))

    def update(group: pa.Table) -> pa.Table:
        nu, nl = _lpa_pick(
            group.column("u").to_numpy(zero_copy_only=False),
            group.column("lab").to_numpy(zero_copy_only=False),
        )
        return pa.table({
            "node": pa.array(nu, pa.int64()),
            "lab": pa.array(nl, pa.int64()),
        })

    for _ in range(rounds):
        msg = hash_join(
            sym, labels, "v", "node", ["u"], ["lab"],
            how="inner", validate="unique_right",
            num_partitions=num_partitions,
        )
        labels = _pin(
            msg.map_batches(add_part, batch_format="pyarrow")
            .groupby("__part")
            .map_groups(update, batch_format="pyarrow")
        )

    return labels.map_batches(
        lambda t: pa.table({
            "node": t.column("node"),
            "label": t.column("lab"),
        }),
        batch_format="pyarrow",
    )
