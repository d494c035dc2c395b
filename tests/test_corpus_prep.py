"""End-to-end corpus-prep pipeline invariants."""
from __future__ import annotations

import pyarrow as pa


def test_corpus_prep_invariants(ray_session):
    import ray.data

    from pdf_extractor_ray.pipelines.corpus_prep import corpus_prep_pipeline

    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet"
    )
    out = corpus_prep_pipeline(docs).to_pandas()
    raw = docs.to_pandas()

    # survivors are a subset of the input, no duplicates
    assert out["doc_id"].is_unique
    assert set(out["doc_id"]).issubset(set(raw["doc_id"]))
    # gates hold for every survivor
    assert (out["quality_score"] >= 0.3).all()
    assert set(out["lang"]).issubset({"en", "de", "fr", "es"})
    # something was actually filtered and something survived
    assert 0 < len(out) < len(raw)
    # text column is dropped from the write-ready output
    assert "text" not in out.columns
    # deterministic: second run identical
    out2 = corpus_prep_pipeline(docs).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_corpus_prep_drops_planted_dups(ray_session):
    import ray.data

    from pdf_extractor_ray.pipelines.corpus_prep import corpus_prep_pipeline

    base = ("high quality natural language content with enough tokens "
            "to clear the quality gate and then some more words here "
            "the a of and to in is it flowing onward through text " * 3)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "lang": pa.array(["en", "en", "en", "en"]),
        "text": pa.array([
            base,                      # kept (smallest id of dup cluster)
            base,                      # exact dup of 1 → dropped
            base + " tiny tail edit",  # near dup of 1 → dropped
            "completely different but equally long and fluent prose "
            "about gardens rivers mountains the a of and to in is it "
            "wandering beyond the horizon line " * 3,  # kept
        ]),
    })
    out = corpus_prep_pipeline(ray.data.from_arrow(t)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 4]


def test_cli_corpus_prep_mode(ray_session, tmp_path):
    import glob
    import json

    from pdf_extractor_ray.cli import main

    out_dir = str(tmp_path / "prep")
    rc = main([
        "--input", "/root/testdata/sf0.001/documents.parquet",
        "--output", out_dir, "--mode", "corpus-prep",
    ])
    assert rc == 0
    import pyarrow.parquet as pq

    files = sorted(glob.glob(f"{out_dir}/*.parquet"))
    assert files
    n = sum(pq.read_metadata(f).num_rows for f in files)
    assert 0 < n < 500
    cols = set(pq.read_schema(files[0]).names)
    assert {"doc_id", "lang", "quality_score"} <= cols and "text" not in cols


def test_corpus_prep_high_dup_rate_stress(ray_session):
    """≥50% duplicates (the realistic crawl regime): every removal
    decision flows through the dedup groupby / anti-join — no
    O(dup-count) driver or broadcast structure exists to overflow."""
    import ray.data

    from pdf_extractor_ray.pipelines.corpus_prep import corpus_prep_pipeline

    import random

    rng = random.Random(7)
    vocab = [f"w{k}" for k in range(4000)]
    bases = [
        ("the a of and to in is it "  # stopwords clear the quality gate
         + " ".join(rng.choice(vocab) for _ in range(60)))
        for _ in range(30)
    ]
    ids, texts = [], []
    doc_id = 0
    for i, b in enumerate(bases):
        for _ in range(5):  # 5 exact clones each → 80% exact dups
            ids.append(doc_id)
            texts.append(b)
            doc_id += 1
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "lang": pa.array(["en"] * len(ids)),
        "text": pa.array(texts),
    })
    out = corpus_prep_pipeline(ray.data.from_arrow(t)).to_pandas()
    # exactly one survivor per cluster, the smallest doc_id (i*5)
    assert sorted(out["doc_id"]) == [i * 5 for i in range(30)]


def test_corpus_prep_survives_fully_filtered_input(ray_session):
    import ray.data

    from pdf_extractor_ray.pipelines.corpus_prep import corpus_prep_pipeline

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "lang": pa.array(["zz", "qq"]),  # nothing passes the lang gate
        "text": pa.array(["hello world", "foo bar"]),
    }))
    out = corpus_prep_pipeline(docs).to_pandas()
    assert len(out) == 0


def test_minhash_verified_no_candidates(ray_session):
    import ray.data

    from pdf_extractor_ray.functions.dedup import minhash_lsh_verified

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["totally unique alpha beta gamma",
                          "different words entirely here now"]),
    }))
    out = minhash_lsh_verified(docs).to_pandas()
    assert len(out) == 0
    assert list(out.columns) == ["doc_a", "doc_b", "jaccard"] or len(out.columns) == 0


# ---------------------------------------------------------------- web_prep
def test_web_prep_invariants(ray_session):
    """Survivors: unique urls, unique texts, all ≥30 words, and the
    survivor of a duplicated text is the minimum url."""
    import pyarrow as pa
    import ray.data

    from pdf_extractor_ray.pipelines.web_prep import web_prep_pipeline

    long = " ".join(f"word{i}" for i in range(40))
    html = ("<html><body>" + "".join(f"<p>{long}</p>" for _ in range(1))
            + "</body></html>").encode()
    short = b"<html><body><p>too short here okay this is ten words</p></body></html>"
    import datetime as dt
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([f"https://d/{i}" for i in range(4)], pa.string()),
        "warc_ts": pa.array([dt.datetime(2025, 1, 1)] * 4, pa.timestamp("us")),
        # rows 0 and 2 carry IDENTICAL payloads → identical texts
        "html": pa.array([html, short, html, b""], pa.large_binary()),
        "lang": pa.array(["en"] * 4, pa.string()),
    }))
    out = web_prep_pipeline(ds, min_words=30).to_pandas()
    assert out.url.tolist() == ["https://d/0"]  # min url of the dup pair
    assert (out.n_words >= 30).all()
    assert out.extracted_text.is_unique


def test_run_web_prep_job_resume(ray_session, tmp_path):
    """Kill-resume semantics: phase-1 partitions committed by a first
    run are SKIPPED on resume; phase-2 global dedup re-runs and the
    final survivor set is identical either way."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import datetime as dt

    from pdf_extractor_ray.pipelines.web_prep import run_web_prep_job

    long = " ".join(f"word{i}" for i in range(40))
    html = ("<html><body><p>" + long + "</p></body></html>").encode()
    # duplicate texts SPANNING the two input shards — only global
    # dedup can drop them
    def shard(path, urls):
        pq.write_table(pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([dt.datetime(2025, 1, 1)] * len(urls),
                                pa.timestamp("us")),
            "html": pa.array([html] * len(urls), pa.large_binary()),
            "text": pa.array([long] * len(urls), pa.large_string()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
        }), path)

    s1, s2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    shard(s1, ["https://d/1", "https://d/2"])
    shard(s2, ["https://d/3"])
    out = str(tmp_path / "job")
    m1 = run_web_prep_job([s1, s2], out, files_per_partition=1)
    assert m1["partitions_total"] == 2 and m1["partitions_skipped"] == 0
    assert m1["survivors"] == 1  # cross-partition dup collapsed
    m2 = run_web_prep_job([s1, s2], out, files_per_partition=1)
    assert m2["partitions_skipped"] == 2  # resume skipped everything
    assert m2["survivors"] == 1
    import ray.data

    final = ray.data.read_parquet(m2["output"]).to_pandas()
    assert final.url.tolist() == ["https://d/1"]


def test_run_web_prep_job_stage1_manifest_counts(ray_session, tmp_path):
    """Phase 1 is ``run_extraction_job``: each stage-1 manifest record
    carries the partition's real ``docs_*`` counts and the checksum of
    its committed rows."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.web_prep import run_web_prep_job
    from pdf_extractor_ray.state.manifest import Manifest, rows_checksum

    long = " ".join(f"word{i}" for i in range(40))
    html = ("<html><body><p>" + long + "</p></body></html>").encode()
    shards = []
    for i, payloads in enumerate([[html, b""], [html + b"<!--x-->"]]):
        path = str(tmp_path / f"s{i}.parquet")
        n = len(payloads)
        pq.write_table(pa.table({
            "url": pa.array([f"https://m/{i}/{j}" for j in range(n)], pa.string()),
            "warc_ts": pa.array([dt.datetime(2025, 1, 1)] * n, pa.timestamp("us")),
            "html": pa.array(payloads, pa.large_binary()),
            "lang": pa.array(["en"] * n, pa.string()),
        }), path)
        shards.append(path)
    out = str(tmp_path / "job")
    m = run_web_prep_job(shards, out, files_per_partition=1)
    assert m["survivors"] == 1

    manifest = Manifest(str(tmp_path / "job" / "stage1"))
    records = sorted(manifest.records(), key=lambda r: r["partition_id"])
    assert [(r["docs_in"], r["docs_ok"], r["docs_html"]) for r in records] == [
        (2, 1, 1), (1, 1, 1)]
    for r in records:
        rows = pq.read_table(manifest.partition_dir(r["partition_id"]))
        assert rows.num_rows == r["docs_in"]
        assert r["checksum"] == format(rows_checksum(
            rows.column("url").to_pylist(), rows.column("n_chars").to_pylist()), "08x")


def test_run_web_prep_job_emit_wet(ray_session, tmp_path):
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.web_prep import run_web_prep_job
    from pdf_extractor_ray.sources.warc import texts_from_wet

    long = " ".join(f"word{i}" for i in range(40))
    html = ("<html><body><p>" + long + "</p></body></html>").encode()
    p = tmp_path / "a.parquet"
    pq.write_table(pa.table({
        "url": pa.array(["https://w/1", "https://w/2"], pa.string()),
        "warc_ts": pa.array([dt.datetime(2025, 1, 1)] * 2, pa.timestamp("us")),
        "html": pa.array([html, html + b"<!--x-->"], pa.large_binary()),
        "text": pa.array([long] * 2, pa.large_string()),
        "lang": pa.array(["en"] * 2, pa.string()),
    }), p)
    out = str(tmp_path / "job")
    m = run_web_prep_job([str(p)], out, emit_wet=True)
    assert m["wet_records"] == m["survivors"] == 1
    back = texts_from_wet([m["wet_output"]]).to_pandas()
    assert back.text.tolist() == [long]


def test_survivor_fold_distinguishes_prefix_collisions():
    """Two DIFFERENT texts whose 64-bit md5 prefixes collide must BOTH
    survive: the fold compares the full 128-bit digest (__wh, __wl),
    not just the partition prefix (ADVICE r3, medium)."""
    import numpy as np
    import pyarrow as pa

    from pdf_extractor_ray.pipelines.web_prep import _survivor_fold

    group = pa.table(
        {
            "url": ["b.com", "a.com", "c.com"],
            "extracted_text": ["textA", "textA-dup", "textB"],
            "n_words": [5, 5, 5],
            # rows 0 and 1: same 64-bit prefix, DIFFERENT low half →
            # distinct digests, both must survive. row 2: true dup of
            # nothing (unique digest).
            "__wh": pa.array([7, 7, 9], pa.int64()),
            "__wl": pa.array([100, 200, 300], pa.int64()),
            "__wpart": pa.array([0, 0, 0], pa.int32()),
        }
    )
    out = _survivor_fold(group)
    assert out.num_rows == 3
    assert "__wl" not in out.column_names

    # and a TRUE duplicate (identical 128-bit digest) still collapses
    # to the min url
    group2 = pa.table(
        {
            "url": ["b.com", "a.com"],
            "extracted_text": ["same", "same"],
            "n_words": [5, 5],
            "__wh": pa.array([7, 7], pa.int64()),
            "__wl": pa.array([100, 100], pa.int64()),
            "__wpart": pa.array([0, 0], pa.int32()),
        }
    )
    out2 = _survivor_fold(group2)
    assert out2.num_rows == 1
    assert out2.column("url").to_pylist() == ["a.com"]


def test_hash_part_carries_full_digest():
    import hashlib

    import numpy as np
    import pyarrow as pa

    from pdf_extractor_ray.pipelines.web_prep import _hash_part

    batch = pa.table({"url": ["u1"], "extracted_text": ["hello world"],
                      "n_words": [2]})
    out = _hash_part(batch, 32)
    dig = hashlib.md5(b"hello world").digest()
    h, lo = np.frombuffer(dig, dtype=np.uint64)
    assert out.column("__wh").to_pylist() == [int(h.astype(np.int64))]
    assert out.column("__wl").to_pylist() == [int(lo.astype(np.int64))]
