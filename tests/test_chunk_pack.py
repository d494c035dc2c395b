"""chunk_text window semantics + pack_sequences packing invariants."""
import pyarrow as pa
import pytest


def _ds(t):
    import ray.data

    return ray.data.from_arrow(t)


def test_chunk_text_windows_and_overlap(ray_session):
    from pdf_extractor_ray.functions.chunk import chunk_text

    toks = [f"w{i}" for i in range(10)]
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([" ".join(toks), "solo", "   "]),
        }
    )
    out = chunk_text(_ds(t), max_tokens=4, overlap=1).to_pandas()
    got = {
        (int(r.doc_id), int(r.chunk_id)): (r.text, int(r.n_tokens))
        for r in out.itertuples()
    }
    # doc 1: 10 tokens, window 4 step 3 → starts 0,3,6 (start 6 already
    # reaches the last token, so no shorter tail window follows)
    assert got == {
        (1, 0): ("w0 w1 w2 w3", 4),
        (1, 1): ("w3 w4 w5 w6", 4),
        (1, 2): ("w6 w7 w8 w9", 4),
        (2, 0): ("solo", 1),
    }  # doc 3 (whitespace only) emits no chunks


def test_chunk_text_bad_overlap_raises(ray_session):
    from pdf_extractor_ray.functions.chunk import chunk_text

    t = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["x"])})
    with pytest.raises(ValueError, match="overlap"):
        chunk_text(_ds(t), max_tokens=4, overlap=4)


def test_pack_sequences_invariants(ray_session):
    from pdf_extractor_ray.functions.chunk import pack_sequences

    n = 200
    t = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "n_tokens": pa.array([(i * 37) % 90 + 10 for i in range(n)], pa.int64()),
        }
    )
    out = pack_sequences(
        _ds(t), budget=128, num_buckets=8
    ).to_pandas()
    # every item in exactly one pack
    all_ids = sorted(i for ids in out["item_ids"] for i in ids)
    assert all_ids == list(range(n))
    assert int(out["n_items"].sum()) == n
    # budget respected except singleton oversized packs (none here: max 99)
    assert (out["total_tokens"] <= 128).all()
    # pack ids globally unique
    assert out["pack_id"].nunique() == len(out)


def test_pack_sequences_oversized_item_own_pack(ray_session):
    from pdf_extractor_ray.functions.chunk import pack_sequences

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "n_tokens": pa.array([500, 10, 10], pa.int64()),
        }
    )
    out = pack_sequences(_ds(t), budget=100, num_buckets=1).to_pandas()
    by_tot = {int(r.total_tokens): list(r.item_ids) for r in out.itertuples()}
    assert by_tot[500] == [1]
    assert sorted(by_tot[20]) == [2, 3]
