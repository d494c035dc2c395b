"""Job-level kill/resume integration tests (SURVEY §5.2.5): SIGKILL a
running ``run_web_prep_job`` or ``run_extraction_job`` subprocess
mid-run, resume in-process, and assert no-duplicate,
remainder-processed, checksum-consistent output.

The subprocess owns its own local Ray cluster (fresh process group,
killed wholesale); the resume leg runs on the pytest session cluster.
"""
from __future__ import annotations

import datetime as dt
import glob
import hashlib
import os
import signal
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

N_SHARDS = 10
DOCS_PER_SHARD = 30

_KILL_SCRIPT = """
import glob, sys
import ray

ray.init(address="local", num_cpus=4, include_dashboard=False)
from pdf_extractor_ray.pipelines.web_prep import run_web_prep_job

files = sorted(glob.glob(sys.argv[1] + "/shard-*.parquet"))
run_web_prep_job(files, sys.argv[2], files_per_partition=1, min_words=5)
ray.shutdown()
"""


def _page(doc_id: int, title: str, text: str) -> dict:
    # every paragraph >= 10 words (the boilerplate stripper's
    # MIN_CONTENT_WORDS) so the planted content survives extraction
    body = "".join(
        f"<p>{text} paragraph {i} with enough padding words to keep "
        f"the content scorer happy</p>"
        for i in range(3)
    )
    return {
        "url": f"https://example.org/kill/{doc_id:06d}",
        "warc_ts": dt.datetime(2025, 1, 1) + dt.timedelta(seconds=doc_id),
        "html": f"<html><body><h1>{title}</h1>{body}</body></html>".encode(),
        "lang": "en",
    }


def _make_shards(dirpath: str) -> int:
    """N_SHARDS parquet shards; every 7th doc carries ONE byte-identical
    payload (title included) under a distinct url — cross-shard, so the
    global dedup phase has real work."""
    os.makedirs(dirpath, exist_ok=True)
    n_dups = 0
    for s in range(N_SHARDS):
        rows = []
        for d in range(DOCS_PER_SHARD):
            doc_id = s * DOCS_PER_SHARD + d
            if doc_id % 7 == 0:
                rows.append(_page(doc_id, "Shared Document",
                                  "shared duplicated corpus text"))
                n_dups += 1
            else:
                rows.append(_page(doc_id, f"Doc {doc_id}",
                                  f"unique text for doc {doc_id}"))
        t = pa.Table.from_pylist(rows)
        pq.write_table(t, os.path.join(dirpath, f"shard-{s:03d}.parquet"))
    return N_SHARDS * DOCS_PER_SHARD - n_dups + 1  # expected survivors


def _survivors(final_dir: str):
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(f"{final_dir}/*.parquet"))]
    )
    return sorted(
        zip(t.column("url").to_pylist(), t.column("extracted_text").to_pylist())
    )


def test_sigkill_mid_job_then_resume(ray_session, tmp_path):
    shards = str(tmp_path / "shards")
    expected_survivors = _make_shards(shards)
    out = str(tmp_path / "out")

    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, shards, out],
        cwd="/root/repo",
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    manifest_dir = os.path.join(out, "stage1", "_manifest")
    deadline = time.time() + 180
    committed = 0
    try:
        while time.time() < deadline and proc.poll() is None:
            committed = len(glob.glob(os.path.join(manifest_dir, "part-*.json")))
            if committed >= 2:
                break
            time.sleep(0.05)
        assert committed >= 2 or proc.poll() is not None, (
            "job made no progress before the deadline"
        )
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # driver + its ray cluster
            proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

    committed_after_kill = len(
        glob.glob(os.path.join(manifest_dir, "part-*.json"))
    )
    assert committed_after_kill < N_SHARDS, "job finished before the kill"
    mtimes_before = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(out, "stage1", "part-*", "*.parquet"))
    }

    # resume on the session cluster
    from pdf_extractor_ray.pipelines.web_prep import run_web_prep_job

    files = sorted(glob.glob(f"{shards}/shard-*.parquet"))
    metrics = run_web_prep_job(files, out, files_per_partition=1, min_words=5)
    assert metrics["partitions_total"] == N_SHARDS
    assert metrics["partitions_skipped"] >= min(committed_after_kill, 2)

    # committed partitions were NOT re-extracted
    for f, m in mtimes_before.items():
        if os.path.exists(f):
            assert os.path.getmtime(f) == m, f"resume rewrote {f}"

    # no duplicates, remainder processed, checksum-consistent with a
    # from-scratch run
    resumed = _survivors(metrics["output"])
    urls = [u for u, _ in resumed]
    assert len(urls) == len(set(urls)), "duplicate urls after resume"
    assert metrics["survivors"] == expected_survivors

    fresh_out = str(tmp_path / "fresh")
    fresh = run_web_prep_job(files, fresh_out, files_per_partition=1,
                             min_words=5)
    assert _survivors(fresh["output"]) == resumed


# ------------------------------------------------------- run_extraction_job
EXTRACT_SHARDS = 40
EXTRACT_DOCS_PER_SHARD = 40

_EXTRACT_KILL_SCRIPT = """
import glob, sys
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False)
from pdf_extractor_ray.pipelines.extraction import run_extraction_job

files = sorted(glob.glob(sys.argv[1] + "/shard-*.parquet"))
run_extraction_job(files, sys.argv[2], files_per_partition=1)
ray.shutdown()
"""


def _make_extract_shards(dirpath: str) -> list:
    os.makedirs(dirpath, exist_ok=True)
    files = []
    for s in range(EXTRACT_SHARDS):
        rows = [
            _page(doc_id, f"Doc {doc_id}", f"text of doc {doc_id} " * 20)
            for doc_id in range(s * EXTRACT_DOCS_PER_SHARD,
                                (s + 1) * EXTRACT_DOCS_PER_SHARD)
        ]
        files.append(os.path.join(dirpath, f"shard-{s:03d}.parquet"))
        pq.write_table(pa.Table.from_pylist(rows), files[-1])
    return files


def _committed_pairs(out_dir: str) -> list:
    """(url, extracted_text) of every committed row, sorted."""
    t = pa.concat_tables([
        pq.read_table(f, columns=["url", "extracted_text"])
        for f in sorted(glob.glob(os.path.join(out_dir, "part-*", "*.parquet")))
    ])
    return sorted(zip(t.column("url").to_pylist(),
                      t.column("extracted_text").to_pylist()))


def _pairs_sha256(pairs) -> str:
    h = hashlib.sha256()
    for url, text in pairs:
        for part in (url.encode(), (text or "").encode()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def test_sigkill_extraction_job_then_resume(ray_session, tmp_path):
    """One streaming execution commits partitions as they complete: a
    SIGKILL right after the first commit leaves a partly committed
    manifest, and the resumed job's output equals an unkilled run's."""
    from pdf_extractor_ray.pipelines.extraction import run_extraction_job
    from pdf_extractor_ray.state.manifest import Manifest

    files = _make_extract_shards(str(tmp_path / "shards"))
    out = str(tmp_path / "out")
    manifest_glob = os.path.join(out, "_manifest", "part-*.json")

    proc = subprocess.Popen(
        [sys.executable, "-c", _EXTRACT_KILL_SCRIPT, str(tmp_path / "shards"), out],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 180
    try:
        while time.time() < deadline and proc.poll() is None:
            if glob.glob(manifest_glob):
                os.killpg(proc.pid, signal.SIGKILL)  # driver + its ray cluster
                break
            time.sleep(0.005)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

    committed = Manifest(out).committed_ids()
    assert 0 < len(committed) < EXTRACT_SHARDS, committed
    # a partition dir renamed but not yet recorded is not committed: the
    # resume redoes it, so only recorded partitions must stay untouched
    mtimes_before = {
        f: os.path.getmtime(f)
        for pid in committed
        for f in glob.glob(os.path.join(Manifest(out).partition_dir(pid), "*"))
    }

    r = run_extraction_job(files, out, files_per_partition=1)
    assert r["partitions_skipped"] == len(committed)
    assert r["partitions_total"] == EXTRACT_SHARDS
    for f, m in mtimes_before.items():
        assert os.path.getmtime(f) == m, f"resume rewrote {f}"

    resumed = _committed_pairs(out)
    urls = [u for u, _ in resumed]
    assert len(urls) == len(set(urls)) == EXTRACT_SHARDS * EXTRACT_DOCS_PER_SHARD
    assert {rec["input_file"] for rec in Manifest(out).records()} == set(files)

    fresh = str(tmp_path / "fresh")
    run_extraction_job(files, fresh, files_per_partition=1)
    assert _pairs_sha256(resumed) == _pairs_sha256(_committed_pairs(fresh))
