"""Triangle counting, whole-graph stats, association rules."""
import numpy as np
import pyarrow as pa
import pytest

import ray.data

from pdf_extractor_ray.functions.assoc import pair_lift
from pdf_extractor_ray.functions.graph import graph_stats, triangle_count


def _edges_ds():
    # K4 on {1,2,3,4} (4 triangles) + pendant 5—4 + self-loop 6—6,
    # with duplicate and reversed directed edges thrown in
    return ray.data.from_arrow(pa.table({
        "src": [1, 2, 3, 1, 2, 4, 1, 4, 5, 6, 2, 3, 4],
        "dst": [2, 3, 1, 3, 4, 1, 4, 2, 4, 6, 1, 4, 3],
    }))


def test_triangle_count_k4(ray_session):
    out = triangle_count(_edges_ds()).to_pandas().sort_values("node")
    assert out["node"].tolist() == [1, 2, 3, 4]
    # every K4 node sits in 3 of the 4 triangles; 5 and 6 in none
    assert out["n_tri"].tolist() == [3, 3, 3, 3]


def test_triangle_count_no_triangles(ray_session):
    ds = ray.data.from_arrow(pa.table({"src": [1, 2, 3], "dst": [2, 3, 4]}))
    assert triangle_count(ds).count() == 0


def test_triangle_count_matches_bruteforce(ray_session):
    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, 400)
    dst = rng.integers(0, 40, 400)
    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    got = {
        (r["node"], r["n_tri"])
        for r in triangle_count(ds).take_all()
    }
    # brute force over the canonical undirected simple graph
    pairs = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
    nodes = sorted({n for p in pairs for n in p})
    want: dict[int, int] = {}
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            if (x, y) not in pairs:
                continue
            for z in nodes:
                if z <= y:
                    continue
                if (x, z) in pairs and (y, z) in pairs:
                    for n in (x, y, z):
                        want[n] = want.get(n, 0) + 1
    assert got == {(n, c) for n, c in want.items()}


def test_triangle_count_distributed_huge_node_ids(ray_session):
    """Node ids above 2^53 survive the distributed match step intact
    (the apex column used to round-trip through float64 via a nullable
    int64 — ADVICE r4)."""
    base = (1 << 60) + 1  # not representable in float64 (odd, > 2^53)
    ids = [base, base + 2, base + 4, base + 6]
    # K4 → every node in 3 triangles
    src, dst = [], []
    for i in range(4):
        for j in range(i + 1, 4):
            src.append(ids[i])
            dst.append(ids[j])
    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    out = triangle_count(ds, local_max_edges=0).to_pandas()
    assert sorted(out["node"].tolist()) == ids
    assert out["n_tri"].tolist() == [3, 3, 3, 3]


def test_graph_stats_known(ray_session):
    row = graph_stats(_edges_ds()).take_all()[0]
    assert row["n_nodes"] == 6
    assert row["n_edges"] == 13          # distinct directed, self-loop incl.
    assert row["n_self_loops"] == 1
    assert row["n_undirected"] == 7
    assert row["n_reciprocal"] == 10     # 5 pairs present both ways
    assert row["reciprocity"] == pytest.approx(round(10 / 12, 6))
    assert row["max_out_deg"] == 3
    assert row["avg_out_deg"] == pytest.approx(round(12 / 5, 6))


def test_graph_stats_empty(ray_session):
    ds = ray.data.from_arrow(
        pa.table({"src": pa.array([], pa.int64()),
                  "dst": pa.array([], pa.int64())})
    )
    row = graph_stats(ds).take_all()[0]
    assert row["n_nodes"] == 0 and row["n_edges"] == 0


def test_pair_lift_hand_checked(ray_session):
    # u1:{a,b}, u2:{a,b}, u3:{a,c}, u4:{b} — n_baskets=4,
    # n_a=3, n_b=3, n_c=1; both(a,b)=2, both(a,c)=1
    ds = ray.data.from_arrow(pa.table({
        "u": ["u1", "u1", "u2", "u2", "u3", "u3", "u4", "u1"],
        "it": ["a", "b", "a", "b", "a", "c", "b", "a"],  # (u1,a) repeated
    }))
    out = {
        (r["it_a"], r["it_b"]): r
        for r in pair_lift(ds, "u", "it").take_all()
    }
    assert set(out) == {("a", "b"), ("a", "c")}
    ab = out[("a", "b")]
    assert ab["n_both"] == 2
    assert ab["support"] == pytest.approx(0.5)
    assert ab["conf_a_b"] == pytest.approx(round(2 / 3, 6))
    assert ab["lift"] == pytest.approx(round(2 * 4 / 9, 6))
    ac = out[("a", "c")]
    assert ac["n_both"] == 1
    assert ac["lift"] == pytest.approx(round(1 * 4 / 3, 6))


def test_pair_lift_min_both(ray_session):
    ds = ray.data.from_arrow(pa.table({
        "u": ["u1", "u1", "u2", "u2", "u3", "u3"],
        "it": ["a", "b", "a", "b", "a", "c"],
    }))
    out = pair_lift(ds, "u", "it", min_both=2).take_all()
    assert [(r["it_a"], r["it_b"]) for r in out] == [("a", "b")]


def test_triangle_count_distributed_parity(ray_session):
    rng = np.random.default_rng(11)
    src = rng.integers(0, 60, 500)
    dst = rng.integers(0, 60, 500)
    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    local = sorted(
        (r["node"], r["n_tri"])
        for r in triangle_count(ds).take_all()
    )
    dist = sorted(
        (r["node"], r["n_tri"])
        for r in triangle_count(ds, local_max_edges=0).take_all()
    )
    assert local == dist and len(local) > 0


def test_graph_stats_distributed_parity(ray_session):
    row_l = graph_stats(_edges_ds()).take_all()[0]
    row_d = graph_stats(_edges_ds(), local_max_edges=0).take_all()[0]
    assert row_l == row_d


def test_kcore_peel_cascades(ray_session):
    from pdf_extractor_ray.functions.graph import kcore

    # path 0-1-2-3-4 attached to a K4 on {10,11,12,13}: 2-core peels the
    # path one node per round (a real multi-round cascade), K4 survives
    edges = {"src": [0, 1, 2, 3, 4, 10, 10, 10, 11, 11, 12],
             "dst": [1, 2, 3, 4, 10, 11, 12, 13, 12, 13, 13]}
    ds = ray.data.from_arrow(pa.table(edges))
    out = sorted(
        (r["node"], r["core_deg"]) for r in kcore(ds, k=2).take_all()
    )
    assert out == [(10, 3), (11, 3), (12, 3), (13, 3)]
    dist = sorted(
        (r["node"], r["core_deg"])
        for r in kcore(ds, k=2, local_max_edges=0).take_all()
    )
    assert dist == out
    # too few rounds ⇒ the fixed-round contract leaves the tail un-peeled
    shallow = sorted(
        r["node"] for r in kcore(ds, k=2, rounds=2).take_all()
    )
    assert 3 in shallow or 4 in shallow


def test_kcore_empty_and_everything(ray_session):
    from pdf_extractor_ray.functions.graph import kcore

    ds = _edges_ds()
    assert kcore(ds, k=100).count() == 0
    # k=1 keeps every non-self edge's endpoints
    out = kcore(ds, k=1).take_all()
    assert {r["node"] for r in out} == {1, 2, 3, 4, 5}


def test_neighbor_jaccard_hand_checked(ray_session):
    from pdf_extractor_ray.functions.graph import neighbor_jaccard_pairs

    # out-sets: 1→{7,8,9}, 2→{7,8}, 3→{9}
    ds = ray.data.from_arrow(pa.table({
        "src": [1, 1, 1, 2, 2, 3, 1],     # (1,7) duplicated
        "dst": [7, 8, 9, 7, 8, 9, 7],
    }))
    out = {
        (r["site_a"], r["site_b"]): r
        for r in neighbor_jaccard_pairs(ds, min_shared=1).take_all()
    }
    assert set(out) == {(1, 2), (1, 3)}
    assert out[(1, 2)]["n_shared"] == 2
    assert out[(1, 2)]["jaccard"] == pytest.approx(round(2 / 3, 6))
    assert out[(1, 3)]["n_shared"] == 1
    assert out[(1, 3)]["jaccard"] == pytest.approx(round(1 / 3, 6))
    dist = {
        (r["site_a"], r["site_b"]): (r["n_shared"], r["jaccard"])
        for r in neighbor_jaccard_pairs(
            ds, min_shared=1, local_max_edges=0).take_all()
    }
    assert dist == {k: (v["n_shared"], v["jaccard"]) for k, v in out.items()}


def test_neighbor_jaccard_fanin_cap(ray_session):
    from pdf_extractor_ray.functions.graph import neighbor_jaccard_pairs

    ds = ray.data.from_arrow(pa.table({
        "src": list(range(10)), "dst": [99] * 10,
    }))
    with pytest.raises(Exception, match="max_fanin"):
        neighbor_jaccard_pairs(ds, max_fanin=4).take_all()


def test_embedding_covariance_matches_numpy(ray_session):
    from pdf_extractor_ray.functions.similarity import embedding_covariance

    rng = np.random.default_rng(5)
    m = rng.normal(0, 0.3, (200, 8)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array(m.tolist(), pa.list_(pa.float32(), 8)),
    }))
    out = embedding_covariance(ds, dims=4, scale=10_000)
    got = {(r["i"], r["j"]): r["cov"] for r in out.to_pylist()}
    q = np.copysign(np.floor(np.abs(m[:, :4].astype(np.float64))
                             * 1e4 + 0.5), m[:, :4]) / 1e4
    want = np.cov(q, rowvar=False, bias=True)
    for (i, j), v in got.items():
        assert v == pytest.approx(want[i - 1][j - 1], abs=2e-6)
    assert len(got) == 10  # upper triangle of 4x4


def test_embedding_covariance_empty(ray_session):
    from pdf_extractor_ray.functions.similarity import embedding_covariance

    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array([], pa.list_(pa.float32(), 8)),
    }))
    assert embedding_covariance(ds, dims=4).num_rows == 0


def test_pca_project_matches_numpy(ray_session):
    from pdf_extractor_ray.functions.similarity import pca_project

    rng = np.random.default_rng(9)
    # anisotropic cloud so the principal axes are unambiguous
    base = rng.normal(0, 1.0, (300, 2))
    m = np.zeros((300, 6), dtype=np.float64)
    m[:, 0] = 3.0 * base[:, 0]
    m[:, 1] = 1.0 * base[:, 1]
    m[:, 2:] = rng.normal(0, 0.05, (300, 4))
    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array(m.astype(np.float32).tolist(),
                              pa.list_(pa.float32(), 6)),
    }))
    out = pca_project(ds, dims=6, n_components=2)
    got = np.asarray([r["pc"] for r in out.take_all()])
    # numpy reference over the same quantized variable
    q = np.copysign(np.floor(np.abs(m.astype(np.float32).astype(np.float64))
                             * 1e4 + 0.5), m) / 1e4
    centered = q - q.mean(axis=0)
    w, v = np.linalg.eigh(np.cov(q, rowvar=False, bias=True))
    order = np.argsort(w)[::-1][:2]
    comps = v[:, order]
    flip = np.sign(comps[np.abs(comps).argmax(axis=0), np.arange(2)])
    want = centered @ (comps * flip)
    assert got.shape == want.shape
    # sign-fixed components: same orientation, tolerance for the
    # round-6 quantization of the covariance entries
    assert np.max(np.abs(np.abs(got) - np.abs(want))) < 1e-3
    # variance along pc1 ~ 9, pc2 ~ 1 (the planted anisotropy)
    assert got[:, 0].var() > 5 * got[:, 1].var()


def test_pca_project_deterministic(ray_session):
    from pdf_extractor_ray.functions.similarity import pca_project

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/embeddings.parquet",
        columns=["vec_id", "embedding"],
    )
    a = pca_project(ds, dims=8, n_components=2).sort("vec_id").take_all()
    b = pca_project(ds, dims=8, n_components=2).sort("vec_id").take_all()
    assert [r["pc"] for r in a] == [r["pc"] for r in b]


def test_pair_lift_random_vs_reference(ray_session):
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        users = [f"u{int(x)}" for x in rng.integers(0, 30, n)]
        items = [f"i{int(x)}" for x in rng.integers(0, 6, n)]
        ds = ray.data.from_arrow(pa.table({"u": users, "it": items}))
        got = {
            (r["it_a"], r["it_b"]): (r["n_both"], r["support"],
                                     r["conf_a_b"], r["lift"])
            for r in pair_lift(ds, "u", "it").take_all()
        }
        # pure-python reference
        baskets: dict[str, set] = {}
        for u, i in zip(users, items):
            baskets.setdefault(u, set()).add(i)
        nb = len(baskets)
        cnt: dict[str, int] = {}
        both: dict[tuple, int] = {}
        for s in baskets.values():
            for i in s:
                cnt[i] = cnt.get(i, 0) + 1
            ss = sorted(s)
            for x in range(len(ss)):
                for y in range(x + 1, len(ss)):
                    both[(ss[x], ss[y])] = both.get((ss[x], ss[y]), 0) + 1

        def r6(v):
            return float(np.floor(v * 1e6 + 0.5) / 1e6)

        want = {
            k: (v, r6(v / nb), r6(v / cnt[k[0]]),
                r6(v * nb / (cnt[k[0]] * cnt[k[1]])))
            for k, v in both.items()
        }
        assert got == want, f"seed {seed}"


def test_kcore_random_vs_naive(ray_session):
    from pdf_extractor_ray.functions.graph import kcore

    for seed in (4, 5):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 30, 150)
        dst = rng.integers(0, 30, 150)
        ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
        k = 4
        got = sorted(
            (r["node"], r["core_deg"])
            for r in kcore(ds, k=k, local_max_edges=0).take_all()
        )
        # naive fixed-round reference over the canonical simple graph
        edges = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
        for _ in range(12):
            deg: dict[int, int] = {}
            for a, b in edges:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            keep = {n for n, d in deg.items() if d >= k}
            new = {(a, b) for a, b in edges if a in keep and b in keep}
            if new == edges:
                break
            edges = new
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        want = sorted((n, d) for n, d in deg.items() if d >= k)
        assert got == want, f"seed {seed}"


def test_neighbor_jaccard_random_vs_reference(ray_session):
    from pdf_extractor_ray.functions.graph import neighbor_jaccard_pairs

    rng = np.random.default_rng(8)
    src = rng.integers(0, 15, 200)
    dst = rng.integers(100, 140, 200)
    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    got = {
        (r["site_a"], r["site_b"]): (r["n_shared"], r["jaccard"])
        for r in neighbor_jaccard_pairs(
            ds, min_shared=1, local_max_edges=0).take_all()
    }
    outs: dict[int, set] = {}
    for a, b in zip(src, dst):
        outs.setdefault(int(a), set()).add(int(b))
    want = {}
    ks = sorted(outs)
    for i, a in enumerate(ks):
        for b in ks[i + 1:]:
            inter = len(outs[a] & outs[b])
            if inter >= 1:
                j = inter / len(outs[a] | outs[b])
                want[(a, b)] = (inter,
                                float(np.floor(j * 1e6 + 0.5) / 1e6))
    assert got == want


def test_trustrank_parity_and_semantics(ray_session):
    from pdf_extractor_ray.functions.graph import trustrank

    # trusted component {1,2,3} + an unreachable spam pair {10,11}
    ds = ray.data.from_arrow(pa.table({
        "src": [1, 2, 3, 10, 11],
        "dst": [2, 3, 1, 11, 10],
    }))
    local = {
        r["node"]: r["rank"]
        for r in trustrank(ds, seeds=[1], iters=6).take_all()
    }
    assert local[10] == 0.0 and local[11] == 0.0   # no trust reaches spam
    assert local[1] > local[2] > 0                 # seed holds the most trust
    assert abs(sum(local.values()) - 1.0) < 1e-9   # mass conserved
    dist = {
        r["node"]: r["rank"]
        for r in trustrank(ds, seeds=[1], iters=6,
                           local_max_edges=0).take_all()
    }
    assert set(dist) == set(local)
    for n in local:
        assert dist[n] == pytest.approx(local[n], abs=1e-12)


def test_trustrank_no_seeds_in_graph(ray_session):
    from pdf_extractor_ray.functions.graph import trustrank

    ds = ray.data.from_arrow(pa.table({"src": [1, 2], "dst": [2, 1]}))
    out = {r["node"]: r["rank"] for r in trustrank(ds, seeds=[99]).take_all()}
    assert out == {1: 0.0, 2: 0.0}


# DuckDB twin of ``text.readability_scores``.
_READABILITY_SQL = r"""
            -- ASCII-whitespace trim (regexp \s is RE2/ASCII), matching
            -- the Ray side's explicit [ \t\n\r\f\v] contract exactly --
            -- DuckDB's plain trim() strips only spaces (ADVICE r4)
            WITH d AS (
                SELECT doc_id,
                       regexp_replace(text, '^\s+|\s+$', '', 'g') AS t
                FROM documents
                WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
            ), w AS (
                SELECT doc_id, t,
                       string_split_regex(t, '\s+') AS words
                FROM d
            ), syl AS (
                SELECT doc_id,
                       CAST(sum(greatest(1, len(regexp_extract_all(
                           lower(word), '[aeiouy]+')))) AS BIGINT) AS y
                FROM (SELECT doc_id, unnest(words) AS word FROM w)
                GROUP BY doc_id
            ), base AS (
                SELECT w.doc_id,
                       CAST(len(w.words) AS BIGINT) AS n_words,
                       CAST(greatest(1, len(regexp_extract_all(
                           w.t, '[.!?]+'))) AS BIGINT) AS n_sentences,
                       syl.y AS n_syllables
                FROM w JOIN syl ON syl.doc_id = w.doc_id
            )
            SELECT doc_id, n_words, n_sentences, n_syllables,
                   round(206.835
                         - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
                         - 84.6 * (CAST(n_syllables AS DOUBLE) / n_words),
                         6) AS flesch
            FROM base ORDER BY doc_id
        """


def test_readability_hand_checked(ray_session):
    from pdf_extractor_ray.functions.text import readability_scores

    ds = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["The cat sat. It purred!", "", "xyzzy qrst"],
    }))
    rows = {r["doc_id"]: r for r in readability_scores(ds).take_all()}
    assert set(rows) == {1, 3}            # empty text dropped
    r1 = rows[1]
    # words: The cat sat. It purred! -> 5; sentences: 2 ('.', '!')
    # syllables: e/a/a/i/u+e -> 1+1+1+1+2 = 6
    assert (r1["n_words"], r1["n_sentences"], r1["n_syllables"]) == (5, 2, 6)
    w, s, y = 5, 2, 6
    want = 206.835 - 1.015 * (w / s) - 84.6 * (y / w)
    assert r1["flesch"] == pytest.approx(round(want, 6))
    r3 = rows[3]
    # no vowels in xyzzy? y counts: 'xyzzy' has y groups -> ['y','y'] = 2;
    # 'qrst' has none -> max(1, 0) = 1; no sentence marks -> s = 1
    assert (r3["n_words"], r3["n_sentences"], r3["n_syllables"]) == (2, 1, 3)


def test_readability_ascii_whitespace_contract(ray_session):
    """Leading/trailing newline+tab and NBSP separators follow the
    RE2/ASCII \\s contract the DuckDB oracle uses (ADVICE r4): ASCII
    whitespace trims/splits; NBSP is NOT a separator."""
    import duckdb

    from pdf_extractor_ray.functions.text import readability_scores

    texts = ["\n\tleading ws. trailing too!  \n",
             "a b c.",          # NBSP inside the first token
             " ",               # NBSP-only text is NOT dropped
             " \t\n"]                # ASCII-ws-only text IS dropped
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4], "text": texts,
    }))
    rows = {r["doc_id"]: r for r in readability_scores(ds).take_all()}
    assert set(rows) == {1, 2, 3}
    assert (rows[1]["n_words"], rows[1]["n_sentences"]) == (4, 2)
    assert (rows[2]["n_words"], rows[2]["n_sentences"]) == (2, 1)
    assert rows[3]["n_words"] == 1  # the NBSP itself is one "word"

    # the oracle SQL agrees on the same tricky corpus
    con = duckdb.connect()
    con.register("documents", pa.table({
        "doc_id": [1, 2, 3, 4], "text": texts,
    }))
    got = con.execute(_READABILITY_SQL).fetch_arrow_table().to_pylist()
    want = sorted(rows.values(), key=lambda r: r["doc_id"])
    assert [tuple(sorted(r.items())) for r in got] == \
        [tuple(sorted(r.items())) for r in want]


def test_label_centroids_matches_numpy(ray_session):
    from pdf_extractor_ray.functions.similarity import label_centroids

    rng = np.random.default_rng(3)
    m = rng.normal(0, 0.4, (120, 6)).astype(np.float32)
    labels = rng.integers(0, 3, 120)
    ds = ray.data.from_arrow(pa.table({
        "label": pa.array(labels, pa.int32()),
        "embedding": pa.array(m.tolist(), pa.list_(pa.float32(), 6)),
    }))
    t = label_centroids(ds, dims=4, scale=10_000)
    got = {(r["label"], r["dim"]): (r["n"], r["mean"])
           for r in t.to_pylist()}
    q = np.copysign(np.floor(np.abs(m[:, :4].astype(np.float64))
                             * 1e4 + 0.5), m[:, :4]) / 1e4
    for lbl in (0, 1, 2):
        sel = q[labels == lbl]
        for d in range(4):
            n, mean = got[(lbl, d + 1)]
            assert n == len(sel)
            assert mean == pytest.approx(sel[:, d].mean(), abs=2e-6)
    assert len(got) == 12
