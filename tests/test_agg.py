"""Partial-aggregation helper: parity with a pandas groupby oracle."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_extractor_ray.functions.agg import lowcard_groupby_agg


def _ds(df: pd.DataFrame, parallelism: int = 4):
    import ray.data

    return ray.data.from_pandas(df, override_num_blocks=parallelism)


def test_sum_count_min_max_mean(ray_session):
    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], size=1000),
            "v": rng.randint(0, 100, size=1000),
            "w": rng.randn(1000),
        }
    )
    got = (
        lowcard_groupby_agg(
            _ds(df),
            ["k"],
            [
                ("v", "sum", "v_sum"),
                ("v", "count", "n"),
                ("v", "min", "v_min"),
                ("v", "max", "v_max"),
                ("w", "mean", "w_mean"),
            ],
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k")
        .agg(v_sum=("v", "sum"), n=("v", "size"), v_min=("v", "min"),
             v_max=("v", "max"), w_mean=("w", "mean"))
        .reset_index()
    )
    assert list(got["k"]) == list(want["k"])
    assert list(got["v_sum"]) == list(want["v_sum"])
    assert list(got["n"]) == list(want["n"])
    assert list(got["v_min"]) == list(want["v_min"])
    assert list(got["v_max"]) == list(want["v_max"])
    np.testing.assert_allclose(got["w_mean"], want["w_mean"], rtol=1e-12)


def test_multi_key_and_single_block(ray_session):
    df = pd.DataFrame(
        {"a": ["x", "x", "y"], "b": [1, 2, 2], "v": [10, 20, 30]}
    )
    got = (
        lowcard_groupby_agg(_ds(df, parallelism=1), ["a", "b"], [("v", "sum", "s")])
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert got.to_dict("list") == {"a": ["x", "x", "y"], "b": [1, 2, 2], "s": [10, 20, 30]}


def test_lowcard_contract_high_cardinality_raises(ray_session):
    """Misusing the partial-agg plan with a high-card key fails loudly
    instead of OOMing the driver (the documented contract, enforced)."""
    import pyarrow as pa
    import pytest
    import ray.data

    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg

    n = 5000
    ds = ray.data.from_arrow(pa.table({
        "key": pa.array(range(n), pa.int64()),  # every row a distinct group
        "v": pa.array([1] * n, pa.int64()),
    }))
    with pytest.raises(ValueError, match="cardinality"):
        lowcard_groupby_agg(ds, ["key"], [("v", "sum", "s")], max_partial_rows=1000)


def test_exact_quantiles_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import exact_quantiles

    rng = np.random.RandomState(3)
    vals = rng.randint(0, 50, size=2000)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    t = exact_quantiles(ds, "v", qs=(0.25, 0.5, 0.9)).to_pandas()
    s = np.sort(vals)
    import math
    for _, row in t.iterrows():
        want = s[max(1, math.ceil(row["q"] * len(s))) - 1]
        assert row["value"] == want


def test_argmax_per_group_tiebreak(ray_session):
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import argmax_per_group

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "a", "a", "b"], pa.string()),
        "score": pa.array([1.0, 2.0, 2.0, 5.0], pa.float64()),
        "id": pa.array([30, 20, 10, 1], pa.int64()),
    }))
    df = argmax_per_group(ds, "k", "score", "id").to_pandas().sort_values("k")
    # 'a': max score 2.0 tie between ids 20 and 10 -> smallest id wins
    assert df[df.k == "a"]["id"].iloc[0] == 10
    assert df[df.k == "b"]["id"].iloc[0] == 1


def test_sessionize_semantics(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.window import sessionize

    def ts(h):
        return dt.datetime(2024, 1, 1) + dt.timedelta(hours=h)

    # user 1: events at 0h,1h, then a 30h gap, then 31h,32h -> 2 sessions
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array([ts(0), ts(1), ts(31), ts(32), ts(5)], pa.timestamp("us")),
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
    }))
    df = (
        sessionize(ds, gap_seconds=86400.0)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    assert df["n_events"].tolist() == [2, 2, 1]
    assert df["session_id"].tolist() == [1, 2, 1]
    assert df.loc[0, "session_start"] == ts(0)
    assert df.loc[0, "session_end"] == ts(1)
    assert df.loc[1, "session_start"] == ts(31)


def test_exact_quantiles_by_matches_numpy(ray_session):
    import math

    import ray.data

    from pdf_extractor_ray.functions.agg import exact_quantiles_by

    rng = np.random.default_rng(11)
    keys = np.array(["x", "y"])[rng.integers(0, 2, 500)]
    vals = rng.integers(0, 40, 500)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys.tolist()),
        "v": pa.array(vals.tolist(), pa.int64()),
    }))
    out = exact_quantiles_by(ds, "k", "v", qs=(0.5, 0.9)).to_pandas()
    for g in ("x", "y"):
        sv = np.sort(vals[keys == g])
        for q in (0.5, 0.9):
            want = sv[max(1, math.ceil(q * len(sv))) - 1]  # quantile_disc
            got = out[(out["k"] == g) & (out["q"] == q)]["value"].iloc[0]
            assert got == want, (g, q, got, want)


def test_rarest_token_per_doc(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.text import rarest_token_per_doc

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "apple banana cherry",     # cherry unique to doc1? no: see below
            "apple banana durian",
            "apple zzz durian",
        ]),
    }))
    out = rarest_token_per_doc(ds).to_pandas().set_index("doc_id")
    # df: apple=3, banana=2, durian=2, cherry=1, zzz=1
    assert out.loc[1, "token"] == "cherry" and out.loc[1, "df"] == 1
    assert out.loc[3, "token"] == "zzz" and out.loc[3, "df"] == 1
    # doc2: min df=2, tie between banana and durian -> lexicographic
    assert out.loc[2, "token"] == "banana" and out.loc[2, "df"] == 2


def test_exact_distinct_by(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.agg import exact_distinct_by

    rng = np.random.default_rng(5)
    keys = np.array(["a", "b"])[rng.integers(0, 2, 2000)]
    vals = rng.integers(0, 150, 2000)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys.tolist()),
        "v": pa.array(vals.tolist(), pa.int64()),
    }))
    out = exact_distinct_by(ds, "k", "v", out_col="n").to_pandas().set_index("k")
    for g in ("a", "b"):
        assert out.loc[g, "n"] == len(set(vals[keys == g].tolist()))


def test_lowcard_agg_empty_input_returns_typed_empty(ray_session):
    """A filter matching nothing must yield a 0-row table with the
    right schema, not a crash (VERDICT r2 item 4)."""
    import ray.data

    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b"]),
        "v": pa.array([1.5, 2.5], pa.float64()),
    })).filter(expr="v > 100")
    out = lowcard_groupby_agg(
        ds, ["k"],
        [("v", "count", "n"), ("v", "sum", "s"), ("v", "mean", "m")],
    )
    assert out.num_rows == 0
    assert out.column_names == ["k", "n", "s", "m"]
    assert out.schema.field("k").type == pa.string()
    assert out.schema.field("n").type == pa.int64()
    assert out.schema.field("m").type == pa.float64()


def test_lowcard_agg_missing_key_column_raises(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a"]), "v": pa.array([1], pa.int64()),
    }))
    with pytest.raises(Exception) as ei:
        lowcard_groupby_agg(ds, ["key_typo"], [("v", "sum", "s")])
    assert "key_typo" in str(ei.value)


def test_exact_quantiles_empty_input_typed(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.agg import exact_quantiles, exact_quantiles_by

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a"]), "v": pa.array([5], pa.int64()),
    })).filter(expr="v > 100")
    q = exact_quantiles(ds, "v")
    assert q.num_rows == 0 and q.schema.field("value").type == pa.int64()
    qb = exact_quantiles_by(ds, "k", "v")
    assert qb.num_rows == 0 and qb.schema.field("k").type == pa.string()


def test_key_skew_profile_counts_and_ties(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.agg import key_skew_profile

    rows = [{"k": "hot"}] * 6 + [{"k": "warm"}] * 3 + [{"k": "a"}] * 3 + [{"k": "cold"}]
    ds = ray.data.from_items(rows)
    out = key_skew_profile(ds, "k", k=3).take_all()
    assert [r["k"] for r in out] == ["hot", "a", "warm"]  # tie → key asc
    assert [r["n_rows"] for r in out] == [6, 3, 3]
    assert out[0]["share"] == round(6 / 13, 6)


def test_partition_fold_matches_pandas_groupby(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import partition_fold

    rng = np.random.RandomState(7)
    n = 5000
    df = pd.DataFrame({
        "k1": rng.randint(0, 40, n),
        "k2": rng.choice(["x", "y", "zebra", "quux"], n),
        "v": rng.randn(n),
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(df))
    for fn, ref in [
        ("sum", df.groupby(["k1", "k2"])["v"].sum()),
        ("min", df.groupby(["k1", "k2"])["v"].min()),
        ("max", df.groupby(["k1", "k2"])["v"].max()),
        ("count", df.groupby(["k1", "k2"])["v"].count()),
    ]:
        got = (
            partition_fold(ds, ["k1", "k2"], "v", fn=fn, out_val="o")
            .to_pandas().set_index(["k1", "k2"])["o"].sort_index()
        )
        want = ref.sort_index()
        assert len(got) == len(want)
        assert np.allclose(got.values, want.values.astype(float), atol=1e-9)


def test_grouped_skew_kurt_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import grouped_skew_kurt

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 400),
        "v": rng.randint(1, 500, 400),
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(df))
    out = grouped_skew_kurt(ds, "k", "v").to_pandas().set_index("k")
    for k, grp in df.groupby("k"):
        assert out.loc[k, "skewness"] == pytest.approx(
            grp["v"].skew(), abs=1e-6)
        assert out.loc[k, "kurtosis"] == pytest.approx(
            grp["v"].kurt(), abs=1e-6)


def test_grouped_skew_kurt_degenerate_groups(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import grouped_skew_kurt

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["two", "two", "const", "const", "const", "const"]),
        "v": pa.array([1, 5, 7, 7, 7, 7], pa.int64()),
    }))
    out = grouped_skew_kurt(ds, "k", "v").to_pandas().set_index("k")
    assert pd.isna(out.loc["two", "skewness"])    # n < 3
    assert pd.isna(out.loc["const", "skewness"])  # zero variance
    assert pd.isna(out.loc["const", "kurtosis"])


def test_partition_fold_count_on_key_column(ray_session):
    """count folds may probe the key column itself (no value column
    needed) — the join-size-estimate shape."""
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import partition_fold

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([5, 5, 7, 9, 9, 9], pa.int64()),
    }))
    out = partition_fold(ds, ["k"], "k", fn="count", out_val="n") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    assert out.to_dict("list") == {"k": [5, 7, 9], "n": [2, 1, 3]}


def test_lowcard_tree_merge_many_blocks(ray_session):
    """Above 64 partial blocks one distributed merge level folds them
    before the driver combine — results must be identical."""
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg

    t = pa.table({
        "g": pa.array(["a", "b"] * 500, pa.string()),
        "v": pa.array(list(range(1000)), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(100)
    out = lowcard_groupby_agg(
        ds, ["g"],
        [("v", "sum", "s"), ("v", "count", "n"),
         ("v", "min", "mn"), ("v", "mean", "avg")],
    ).to_pandas().sort_values("g").reset_index(drop=True)
    assert out.s.tolist() == [sum(range(0, 1000, 2)), sum(range(1, 1000, 2))]
    assert out.n.tolist() == [500, 500] and out.mn.tolist() == [0, 1]


def test_partition_fold_random_vs_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.functions.agg import partition_fold

    rng = np.random.RandomState(17)
    for trial in range(3):
        n = int(rng.randint(50, 2000))
        df = pd.DataFrame({
            "a": rng.randint(0, 20, n).astype("int64"),
            "b": rng.choice(["x", "y", "z"], n),
            "v": rng.randint(-1000, 1000, n).astype("int64"),
        })
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(7)
        for fn, pdfn in (("sum", "sum"), ("min", "min"),
                         ("max", "max"), ("count", "count")):
            got = partition_fold(ds, ["a", "b"], "v", fn=fn, out_val="o") \
                .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
            want = getattr(df.groupby(["a", "b"])["v"], pdfn)() \
                .reset_index(name="o").sort_values(["a", "b"]) \
                .reset_index(drop=True)
            want["o"] = want["o"].astype("int64")
            assert got.equals(want), (trial, fn)
