"""Range (interval) joins: keyed m:n and keyless broadcast banding.

Semantics pinned against a brute-force nested-loop reference and, for
the band variant, against explicit expected bins.
"""
from __future__ import annotations

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest


def _ts(day):
    return dt.datetime(2024, 1, day)


def _pairs_df(ds):
    from pdf_extractor_ray.functions.joins import to_pandas_typed

    df = to_pandas_typed(ds)
    return sorted(map(tuple, df.values.tolist()))


def _mk(left_rows, right_rows):
    import ray.data

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([r[0] for r in left_rows], pa.int64()),
        "v": pa.array([_ts(r[1]) for r in left_rows], pa.timestamp("us")),
        "lid": pa.array([r[2] for r in left_rows], pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([r[0] for r in right_rows], pa.int64()),
        "lo": pa.array([_ts(r[1]) for r in right_rows], pa.timestamp("us")),
        "hi": pa.array([_ts(r[2]) for r in right_rows], pa.timestamp("us")),
        "rid": pa.array([r[3] for r in right_rows], pa.int64()),
    }))
    return left, right


def test_range_join_matches_bruteforce(ray_session):
    from pdf_extractor_ray.functions.joins import range_join

    # keys 1..3; intervals overlap, several per key (m:n)
    rng = np.random.RandomState(7)
    left_rows = [(int(rng.randint(1, 4)), int(rng.randint(1, 28)), i)
                 for i in range(60)]
    right_rows = []
    for j in range(25):
        k = int(rng.randint(1, 4))
        lo = int(rng.randint(1, 25))
        right_rows.append((k, lo, lo + int(rng.randint(1, 5)), 1000 + j))

    left, right = _mk(left_rows, right_rows)
    got = _pairs_df(range_join(
        left, right, key="k", left_val="v", right_lo="lo", right_hi="hi",
        left_cols=["lid"], right_cols=["rid"],
    ))
    want = sorted(
        (lid, rid)
        for (lk, lv, lid) in left_rows
        for (rk, rlo, rhi, rid) in right_rows
        if lk == rk and rlo <= lv < rhi
    )
    assert got == want
    # max_width prune (4 days is the widest interval) gives same pairs
    got_w = _pairs_df(range_join(
        left, right, key="k", left_val="v", right_lo="lo", right_hi="hi",
        left_cols=["lid"], right_cols=["rid"],
        max_width=4 * 86_400 * 1_000_000,
    ))
    assert got_w == want


def test_range_join_inclusivity_and_empty(ray_session):
    from pdf_extractor_ray.functions.joins import range_join

    left, right = _mk([(1, 5, 0), (1, 10, 1)], [(1, 5, 10, 100)])
    base = dict(key="k", left_val="v", right_lo="lo", right_hi="hi",
                left_cols=["lid"], right_cols=["rid"])
    # default [lo, hi): day 5 in, day 10 out
    assert _pairs_df(range_join(left, right, **base)) == [(0, 100)]
    # (lo, hi]: day 5 out, day 10 in
    got = _pairs_df(range_join(left, right, lo_inclusive=False,
                               hi_inclusive=True, **base))
    assert got == [(1, 100)]
    # disjoint keys → typed empty with the declared columns
    left2, right2 = _mk([(1, 5, 0)], [(9, 1, 28, 100)])
    from pdf_extractor_ray.functions.joins import to_pandas_typed
    df = to_pandas_typed(range_join(left2, right2, **base))
    assert df.shape[0] == 0 and list(df.columns) == ["lid", "rid"]


def test_range_join_max_width_violation_is_loud(ray_session):
    import ray.exceptions

    from pdf_extractor_ray.functions.joins import range_join

    left, right = _mk([(1, 5, 0)], [(1, 1, 20, 100)])  # 19-day interval
    ds = range_join(left, right, key="k", left_val="v", right_lo="lo",
                    right_hi="hi", left_cols=["lid"], right_cols=["rid"],
                    max_width=86_400 * 1_000_000)
    with pytest.raises((ray.exceptions.RayTaskError, ValueError),
                       match="max_width"):
        ds.take_all()


def test_broadcast_range_join_bands(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.joins import (broadcast_range_join,
                                                   to_pandas_typed)

    rows = ray.data.from_arrow(pa.table({
        "x": pa.array([-1.0, 0.0, 9.9, 10.0, 25.0, 99.0, 100.0], pa.float64()),
        "rid": pa.array(list(range(7)), pa.int64()),
    }))
    bands = pa.table({
        "band": ["lo", "mid", "hi"],
        "lo": [0.0, 10.0, 50.0],
        "hi": [10.0, 50.0, 100.0],
    })
    inner = to_pandas_typed(broadcast_range_join(
        rows, bands, left_val="x", lo_col="lo", hi_col="hi",
        band_cols=["band"]))
    got = sorted(zip(inner["rid"], inner["band"]))
    assert got == [(1, "lo"), (2, "lo"), (3, "mid"), (4, "mid"), (5, "hi")]
    # left-outer keeps non-matching rows with null band
    outer = to_pandas_typed(broadcast_range_join(
        rows, bands, left_val="x", lo_col="lo", hi_col="hi",
        band_cols=["band"], how="left"))
    assert outer.shape[0] == 7
    nulls = sorted(outer.loc[outer["band"].isna(), "rid"])
    assert nulls == [0, 6]
    # overlapping bands are rejected loudly
    bad = pa.table({"band": ["a", "b"], "lo": [0.0, 5.0], "hi": [6.0, 9.0]})
    with pytest.raises(ValueError, match="overlap"):
        broadcast_range_join(rows, bad, left_val="x", lo_col="lo",
                             hi_col="hi", band_cols=["band"])


def test_asof_forward_with_tolerance(ray_session):
    import datetime as dt

    import ray.data

    from pdf_extractor_ray.functions.joins import asof_join

    def mk(rows, idc):
        return ray.data.from_arrow(pa.table({
            "k": pa.array([r[0] for r in rows], pa.int64()),
            idc: pa.array([r[1] for r in rows], pa.int64()),
            "ts": pa.array([dt.datetime(2024, 1, r[2], r[3]) for r in rows],
                           pa.timestamp("us")),
        }))

    left = mk([(1, 10, 1, 0), (1, 11, 5, 0), (2, 20, 1, 0)], "lid")
    right = mk([(1, 90, 1, 6), (1, 91, 1, 6), (1, 92, 2, 0),
                (2, 93, 9, 0)], "rid")
    out = asof_join(
        left, right, key="k", left_ts="ts", right_ts="ts",
        right_tiebreak="rid", left_cols=["lid"], right_cols=["rid"],
        direction="forward", tolerance=dt.timedelta(days=2),
    ).to_pandas().set_index("lid")["rid"]
    assert out[10] == 90      # tie at same ts -> smallest tiebreak
    assert np.isnan(out[11])  # next right is 4 days earlier side: none ahead
    assert np.isnan(out[20])  # right at day 9 is beyond 2-day tolerance
