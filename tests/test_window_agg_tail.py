"""Late round-3 tail: lead/first-last/cume_dist windows, grouped mode,
grouped Pearson corr, unpivot, SemDeDup semantic dedup."""
from __future__ import annotations

import datetime as dt

import numpy as np
import pyarrow as pa


def _ts(day, hour=0):
    return dt.datetime(2024, 1, day, hour)


def _events(ray):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "user_id": pa.array([7, 7, 7, 8, 8, 9], pa.int64()),
        "ts": pa.array(
            [_ts(1), _ts(2), _ts(3), _ts(1), _ts(5), _ts(2)],
            pa.timestamp("us"),
        ),
        "value": pa.array([10.0, 20.0, 30.0, 5.0, 7.0, 99.0], pa.float64()),
    }))


def test_lead_attach_successor_and_null_last(ray_session):
    import ray

    from pdf_extractor_ray.functions.window import lead_attach

    out = (
        lead_attach(_events(ray), "user_id", "ts", "value", "event_id")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    got = {int(r.event_id): r.next_value for r in out.itertuples()}
    assert got[1] == 20.0 and got[2] == 30.0
    assert np.isnan(got[3])          # user 7's last event
    assert got[4] == 7.0
    assert np.isnan(got[5]) and np.isnan(got[6])


def test_first_last_per_group_and_partial_trim(ray_session):
    import ray

    from pdf_extractor_ray.functions.window import first_last_per_group

    out = (
        first_last_per_group(_events(ray), "user_id", "ts", "value", "event_id")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [7, 8, 9]
    assert out["first_value"].tolist() == [10.0, 5.0, 99.0]
    assert out["last_value"].tolist() == [30.0, 7.0, 99.0]


def test_cume_dist_handles_ties_without_tiebreak(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.window import cume_dist_in_group

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a"] * 4 + ["b"], pa.string()),
        "v": pa.array([1, 2, 2, 5, 3], pa.int64()),
    }))
    out = (
        cume_dist_in_group(ds, "k", ["v"])
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    # ties share the run-end cumulative fraction (SQL cume_dist)
    assert out["cdist"].tolist() == [0.25, 0.75, 0.75, 1.0, 1.0]


def test_mode_by_most_frequent_min_value_tiebreak(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.agg import mode_by

    ds = ray.data.from_arrow(pa.table({
        "user": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "t": pa.array(["x", "x", "y", "b", "a", "z"], pa.string()),
    }))
    out = (
        mode_by(ds, "user", "t", out_col="top", count_col="n")
        .to_pandas()
        .sort_values("user")
        .reset_index(drop=True)
    )
    assert out["top"].tolist() == ["x", "a", "z"]  # tie 2 → min value "a"
    assert out["n"].tolist() == [2, 1, 1]


def test_grouped_corr_matches_numpy(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.agg import grouped_corr

    rng = np.random.RandomState(7)
    x = np.round(rng.rand(400) * 100, 2)
    y = (x * 0.5 + rng.rand(400) * 10).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["a"] * 200 + ["b"] * 200, pa.string()),
        "x": pa.array(x, pa.float64()),
        "y": pa.array(y, pa.int64()),
    }))
    out = (
        grouped_corr(ds, "g", "x", "y", x_scale=100, y_scale=1)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    for i, lo, hi in ((0, 0, 200), (1, 200, 400)):
        want = np.corrcoef(np.round(x[lo:hi] * 100), y[lo:hi])[0, 1]
        assert abs(out["corr"][i] - want) < 1e-6
    assert out["n"].tolist() == [200, 200]


def test_grouped_corr_null_on_zero_variance(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.agg import grouped_corr

    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["a", "a", "a"], pa.string()),
        "x": pa.array([5.0, 5.0, 5.0], pa.float64()),
        "y": pa.array([1, 2, 3], pa.int64()),
    }))
    out = grouped_corr(ds, "g", "x", "y").to_pandas()
    assert out["corr"].isna().all()


def test_unpivot_round_trips_the_pivot(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.agg import unpivot

    wide = pa.table({
        "day": pa.array([1, 2], pa.int64()),
        "n_click": pa.array([3, 0], pa.int64()),
        "n_view": pa.array([1, 7], pa.int64()),
    })
    out = (
        unpivot(ray.data.from_arrow(wide), ["day"], ["n_click", "n_view"],
                var_name="event_type", value_name="n")
        .to_pandas()
        .sort_values(["day", "event_type"])
        .reset_index(drop=True)
    )
    assert len(out) == 4
    assert out["n"].tolist() == [3, 1, 0, 7]  # zeros included
    assert set(out["event_type"]) == {"n_click", "n_view"}


def test_semantic_dedup_drops_planted_near_dups(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.similarity import semantic_dedup

    rng = np.random.RandomState(3)
    base = rng.randn(40, 16)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # plant: vec 100+i is a near-copy of vec i for i in 0..9
    dups = base[:10] + rng.randn(10, 16) * 1e-3
    mat = np.vstack([base, dups])
    ids = list(range(40)) + list(range(100, 110))
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    out = semantic_dedup(ds, threshold=0.99, n_clusters=4,
                         iters=4).to_pandas()
    keep = dict(zip(out["vec_id"], out["keep"]))
    # every planted copy has a lower-id ε-neighbor (its original) in the
    # same cluster (identical direction ⇒ identical assignment) → dropped
    assert not any(keep[100 + i] for i in range(10))
    # originals of the planted pairs survive
    assert all(keep[i] for i in range(10))
    assert len(out) == 50


def test_semantic_dedup_max_cluster_guard(ray_session):
    import pytest
    import ray
    import ray.data

    from pdf_extractor_ray.functions.similarity import semantic_dedup

    rng = np.random.RandomState(5)
    mat = rng.randn(30, 8)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(30), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    with pytest.raises(Exception, match="max_cluster"):
        semantic_dedup(ds, n_clusters=2, max_cluster=5).to_pandas()


def test_weighted_sample_properties(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.sample import weighted_sample

    # heavy rows (weight 10000) vs light rows (weight 1): the sample
    # must be deterministic, exactly-n, and heavily biased to the heavy
    ids = list(range(1000))
    weights = [10_000 if i < 100 else 1 for i in ids]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(ids, pa.int64()),
        "w": pa.array(weights, pa.int64()),
    }))
    out1 = weighted_sample(ds, "k", "w", 30).to_pandas()
    out2 = weighted_sample(ds, "k", "w", 30).to_pandas()
    assert len(out1) == 30
    assert out1["k"].tolist() == out2["k"].tolist()  # deterministic
    heavy = (out1["k"] < 100).sum()
    assert heavy >= 25  # ~99% expected mass on the heavy class


def test_string_agg_by_order_and_count(ray_session):
    import datetime as dt

    import ray
    import ray.data

    from pdf_extractor_ray.functions.agg import string_agg_by

    ds = ray.data.from_arrow(pa.table({
        "u": pa.array([1, 1, 1, 2], pa.int64()),
        "t": pa.array(["b", "a", "c", "z"], pa.string()),
        "ts": pa.array(
            [dt.datetime(2024, 1, 2), dt.datetime(2024, 1, 1),
             dt.datetime(2024, 1, 2), dt.datetime(2024, 1, 5)],
            pa.timestamp("us"),
        ),
        "eid": pa.array([10, 11, 9, 12], pa.int64()),
    }))
    out = (
        string_agg_by(ds, "u", "t", ["ts", "eid"], sep=">")
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    # user 1 order: (1/1, 11)=a, (1/2, 9)=c, (1/2, 10)=b
    assert out["path"].tolist() == ["a>c>b", "z"]
    assert out["n"].tolist() == [3, 1]


def test_extract_outlinks_resolves_and_dedups(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.url import extract_outlinks

    html = (
        b"<html><body>"
        b"<a href='/about'>a</a>"
        b'<a href="/about">dup</a>'
        b"<a href=https://other.example/x>bare</a>"
        b"<a href='#frag'>skip</a>"
        b"<a href='mailto:x@y.z'>skip</a>"
        b"<A HREF='b.html'>rel</A>"
        b"</body></html>"
    )
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array(["https://example.org/dir/page.html"], pa.string()),
        "html": pa.array([html], pa.large_binary()),
    }))
    out = extract_outlinks(ds).to_pandas()
    got = set(zip(out["src_url"], out["dst_url"]))
    src = "https://example.org/dir/page.html"
    assert got == {
        (src, "https://example.org/about"),
        (src, "https://other.example/x"),
        (src, "https://example.org/dir/b.html"),
    }


def test_exact_quantiles_cont_matches_numpy(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.agg import exact_quantiles_cont_by

    rng = np.random.RandomState(17)
    vals = rng.randint(0, 500, size=300)
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["a"] * 150 + ["b"] * 150, pa.string()),
        "v": pa.array(vals, pa.int64()),
    }))
    out = exact_quantiles_cont_by(ds, "g", "v").to_pandas()
    for g, lo, hi in (("a", 0, 150), ("b", 150, 300)):
        sub = out[out["g"] == g].set_index("q")["value"]
        for q in (0.25, 0.5, 0.75, 0.9):
            want = np.quantile(vals[lo:hi], q)  # type-7 linear
            assert abs(sub[q] - round(want, 6)) < 1e-9, (g, q)


def test_compression_ratio_orders_entropy(ray_session):
    import ray
    import ray.data

    from pdf_extractor_ray.functions.text import compression_ratio

    rng = np.random.RandomState(23)
    rand_text = " ".join(
        "".join(chr(97 + c) for c in rng.randint(0, 26, size=8))
        for _ in range(200)
    )
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["spam " * 400, rand_text, ""], pa.string()),
    }))
    out = (
        ds.map_batches(compression_ratio, batch_format="pyarrow")
        .to_pandas().set_index("doc_id")
    )
    assert out.loc[1, "ratio"] < 0.05          # pure repetition
    assert out.loc[2, "ratio"] > 0.5           # random text
    assert out.loc[3, "ratio"] == 1.0          # empty → nothing saved
    assert out.loc[3, "n_bytes"] == 0


def test_range_frame_agg_peer_semantics(ray_session):
    """SQL RANGE frames include ALL ts-peers of the current row — even
    ones a tiebreak would sort after it — unlike ROWS frames."""
    import datetime as dt

    import ray.data

    from pdf_extractor_ray.functions.window import range_frame_agg

    t0 = dt.datetime(2024, 1, 10)
    day = dt.timedelta(days=1)
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([1] * 5 + [2], pa.int64()),
        # user 1: days 1, 5, 5 (peers), 6, 20; user 2: one row
        "ts": pa.array([t0, t0 + 4 * day, t0 + 4 * day, t0 + 5 * day,
                        t0 + 19 * day, t0], pa.timestamp("us")),
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "value": pa.array([1.0, 10.0, 100.0, 1000.0, 5.0, 7.0], pa.float64()),
    }))
    out = (
        range_frame_agg(ds, key="user_id", ts_col="ts", val_col="value",
                        tiebreak="event_id", width_seconds=3 * 86_400)
        .to_pandas().set_index("event_id")
    )
    # day-5 rows are peers: BOTH see each other (n=2, sum=110)
    assert out.loc[2, "trailing_n"] == 2 and out.loc[2, "trailing_sum"] == 110.0
    assert out.loc[3, "trailing_n"] == 2 and out.loc[3, "trailing_sum"] == 110.0
    # day-1 row: frame is itself (nothing precedes)
    assert out.loc[1, "trailing_n"] == 1 and out.loc[1, "trailing_sum"] == 1.0
    # day-6 row: covers days 3..6 → both peers + itself, not day 1
    assert out.loc[4, "trailing_n"] == 3 and out.loc[4, "trailing_sum"] == 1110.0
    # day-20 row: frame is itself again (gap > 3 days)
    assert out.loc[5, "trailing_n"] == 1 and out.loc[5, "trailing_sum"] == 5.0
    # other key unaffected
    assert out.loc[6, "trailing_n"] == 1 and out.loc[6, "trailing_sum"] == 7.0


def test_locf_fill_semantics(ray_session):
    import datetime as dt

    import ray.data

    from pdf_extractor_ray.functions.window import locf_fill

    t0 = dt.datetime(2024, 1, 1)
    h = dt.timedelta(hours=1)
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array([t0, t0 + h, t0 + 2 * h, t0 + 3 * h, t0], pa.timestamp("us")),
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": pa.array([None, 7.5, None, 9.0, None], pa.float64()),
    }))
    out = locf_fill(ds, key="user_id", ts_col="ts", val_col="v",
                    tiebreak="event_id").to_pandas().set_index("event_id")
    assert np.isnan(out.loc[1, "filled"])       # before first observation
    assert out.loc[2, "filled"] == 7.5
    assert out.loc[3, "filled"] == 7.5          # carried forward
    assert out.loc[4, "filled"] == 9.0          # replaced by newer value
    assert np.isnan(out.loc[5, "filled"])       # other key never observed


def test_zscore_by_known_values(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.agg import zscore_by

    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(["a"] * 3 + ["b"], pa.string()),
        "x": pa.array([1.0, 2.0, 3.0, 42.0], pa.float64()),
    }))
    out = zscore_by(ds, key="g", val_col="x").to_pandas()
    za = out.loc[out["g"] == "a", "zscore"].tolist()
    assert za == [-1.0, 0.0, 1.0]               # mean 2, sample sd 1
    assert out.loc[out["g"] == "b", "zscore"].isna().all()  # n < 2


def test_funnel_counts_ordered_steps(ray_session):
    import datetime as dt

    import ray.data

    from pdf_extractor_ray.functions.window import funnel_counts

    def ts(h):
        return dt.datetime(2024, 1, 1, h)

    rows = [
        # user 1: full funnel in order
        (1, ts(1), "view"), (1, ts(2), "click"), (1, ts(3), "purchase"),
        # user 2: purchase BEFORE click -> only reaches step 2
        (2, ts(1), "view"), (2, ts(3), "click"), (2, ts(2), "purchase"),
        # user 3: never views -> reaches nothing (click/purchase exist)
        (3, ts(1), "click"), (3, ts(2), "purchase"),
        # user 4: view only
        (4, ts(5), "view"),
        # user 5: view and click SAME ts -> strict > excludes the click
        (5, ts(1), "view"), (5, ts(1), "click"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    }))
    out = funnel_counts(ds, ["view", "click", "purchase"])
    got = {r["step"]: r["n_users"] for r in out.to_pylist()}
    assert got == {1: 4, 2: 2, 3: 1}


def test_funnel_counts_empty_and_unreached(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.window import funnel_counts

    empty = ray.data.from_arrow(pa.table({
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "event_type": pa.array([], pa.string()),
    }))
    out = funnel_counts(empty, ["view", "click"])
    assert {r["step"]: r["n_users"] for r in out.to_pylist()} == {1: 0, 2: 0}


def test_anchor_text_stage_captures_inner_text(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.url import AnchorTextStage, anchor_text_index

    html = (
        b"<html><body>"
        b"<a href='/about'>About <b>Us</b>\n now</a>"
        b"<a href='/about'>About Us now</a>"          # same (dst, anchor): dedup
        b"<a href='/about'>Other text</a>"            # same dst, new anchor
        b"<a href='#x'>skip</a>"
        b"</body></html>"
    )
    batch = pa.table({
        "url": pa.array(["https://e.org/p"] * 1, pa.string()),
        "html": pa.array([html], pa.large_binary()),
    })
    out = AnchorTextStage()(batch)
    got = set(zip(out["dst_url"].to_pylist(), out["anchor"].to_pylist()))
    assert got == {
        ("https://e.org/about", "About Us now"),
        ("https://e.org/about", "Other text"),
    }

    ds = ray.data.from_arrow(pa.table({
        "url": pa.array(["https://e.org/1", "https://e.org/2"], pa.string()),
        "html": pa.array([html, html], pa.large_binary()),
    }))
    agg = {(r["dst_url"], r["anchor"]): r["n_refs"]
           for r in anchor_text_index(ds).take_all()}
    assert agg[("https://e.org/about", "About Us now")] == 2
    assert agg[("https://e.org/about", "Other text")] == 2
