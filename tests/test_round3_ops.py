"""Round-3 tranche: Markov transitions, rolling distinct users (via the
query composition), containment near-dup."""
from __future__ import annotations

import datetime as dt

import numpy as np
import pyarrow as pa


def _ts(day, hour=0):
    return dt.datetime(2024, 1, day, hour)


def test_transition_counts_orders_by_ts_then_tiebreak(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.window import transition_counts

    ds = ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "user_id": pa.array([7, 7, 7, 8, 8], pa.int64()),
        # user 7: ts tie between events 2 and 3 → tiebreak by event_id
        "ts": pa.array(
            [_ts(1), _ts(2), _ts(2), _ts(1), _ts(2)], pa.timestamp("us")
        ),
        "event_type": pa.array(
            ["view", "click", "purchase", "view", "view"], pa.string()
        ),
    }))
    out = transition_counts(
        ds, key="user_id", ts_col="ts", val_col="event_type",
        tiebreak="event_id",
    ).to_pandas()
    got = {
        (r.prev_type, r.cur_type): int(r.n) for r in out.itertuples()
    }
    assert got == {
        ("view", "click"): 1,
        ("click", "purchase"): 1,
        ("view", "view"): 1,
    }


def test_containment_pairs_detects_quote_inclusion(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.dedup import containment_pairs

    short = "alpha beta gamma delta epsilon"
    long = short + " zeta eta theta iota kappa " + "filler " * 30
    other = "one two three four five six seven eight nine ten"
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([short, long, other], pa.string()),
    }))
    out = containment_pairs(ds, threshold=0.9, k=3).to_pandas()
    got = {(int(r.src_doc), int(r.dst_doc)): r.containment
           for r in out.itertuples()}
    # every trigram of `short` appears in `long` → containment(1→2)=1.0;
    # reverse direction is well below 0.9; doc 3 shares nothing
    assert got.get((1, 2)) == 1.0
    assert (2, 1) not in got and (3, 1) not in got and (1, 3) not in got


def test_containment_pairs_exact_counts_vs_python(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.dedup import containment_pairs

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(40)]
    texts = [
        " ".join(rng.choice(vocab, size=30)) for _ in range(12)
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(12), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = containment_pairs(ds, threshold=0.2, k=3).to_pandas()
    got = {(int(r.src_doc), int(r.dst_doc)): round(r.containment, 6)
           for r in out.itertuples()}

    def grams(t):
        toks = t.split()
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    want = {}
    gs = [grams(t) for t in texts]
    for a in range(12):
        for b in range(12):
            if a == b or not gs[a]:
                continue
            c = len(gs[a] & gs[b]) / len(gs[a])
            if c >= 0.2:
                want[(a, b)] = round(c, 6)
    assert got == want


def test_inverted_index_build(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.text import inverted_index

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
        "text": pa.array(
            ["a b c", "b c d", "c d a a", "e"], pa.string()
        ),
    })).repartition(3)  # postings must assemble across blocks
    rows = {r["token"]: r for r in inverted_index(ds).take_all()}
    assert rows["c"]["df"] == 3 and rows["c"]["postings"] == [10, 11, 12]
    assert rows["a"]["df"] == 2 and rows["a"]["postings"] == [10, 12]
    assert rows["e"]["df"] == 1 and rows["e"]["postings"] == [13]
    # per-doc DISTINCT: 'a a' in doc 12 contributes once
    assert rows["a"]["postings"].count(12) == 1


def test_inverted_index_min_df_and_cap(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.text import inverted_index

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array(
            ["the x0", "the x1", "the x2", "the x3", "the x4", "the x5"],
            pa.string(),
        ),
    }))
    rows = {r["token"]: r
            for r in inverted_index(ds, min_df=2, max_postings=3).take_all()}
    assert list(rows) == ["the"]            # hapax xN pruned by min_df
    assert rows["the"]["df"] == 6           # df is the TRUE count
    assert rows["the"]["postings"] == [0, 1, 2]  # capped at smallest ids


def test_doc_bigram_cross_entropy_matches_numpy(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.text import doc_bigram_cross_entropy

    texts = ["a b a b c", "b c b c", "a a a b"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(2)

    # local reference model
    from collections import Counter
    corp = Counter()
    left = Counter()
    for t in texts:
        w = t.split()
        for a, b in zip(w, w[1:]):
            corp[(a, b)] += 1
            left[a] += 1
    want = {}
    for i, t in enumerate(texts):
        w = t.split()
        s = n = 0
        for a, b in zip(w, w[1:]):
            s += np.log2(left[a]) - np.log2(corp[(a, b)])
            n += 1
        want[i] = round(s / n, 6)

    got = {r["doc_id"]: r["bigram_cross_entropy"]
           for r in doc_bigram_cross_entropy(ds).take_all()}
    assert got.keys() == want.keys()
    for k in want:
        assert abs(got[k] - want[k]) < 1e-6, (k, got[k], want[k])


def test_template_clusters_consistent_with_page_structure(ray_session):
    """Every template cluster's size must equal the number of
    page_structure rows sharing that exact shape, and the
    representative must be the minimum url of the cluster."""
    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    ps = e.queries()["page_structure"](sf).to_pandas()
    tc = e.queries()["template_clusters"](sf).to_pandas()
    assert len(tc) > 0
    shape_cols = ["n_p", "n_a", "n_table", "n_tr", "n_th", "n_td", "max_depth"]
    grouped = (
        ps.groupby(shape_cols)["url"].agg(["count", "min"]).reset_index()
    )
    grouped = grouped[grouped["count"] >= 2]
    want = {
        tuple(r[c] for c in shape_cols): (r["count"], r["min"])
        for _, r in grouped.iterrows()
    }
    got = {
        tuple(r[c] for c in shape_cols): (r["n_pages"], r["representative"])
        for _, r in tc.iterrows()
    }
    assert got == want


def test_band_layout_partitions_exactly():
    from pdf_extractor_ray.functions.dedup import band_layout

    for n_bits in (64, 61):
        for n_bands in (1, 4, 11, 64):
            if n_bands > n_bits:
                continue
            layout = band_layout(n_bits, n_bands)
            assert len(layout) == n_bands
            covered = sum(w for _s, w in layout)
            assert covered == n_bits
            # contiguous, disjoint
            shift = 0
            for s, w in layout:
                assert s == shift and w >= 1
                shift += w
