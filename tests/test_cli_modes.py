"""In-process CLI tests for the round-3 output surfaces (web-prep, WET)."""
from __future__ import annotations

import datetime as dt
import json

import pyarrow as pa
import pyarrow.parquet as pq


def _tiny_pages(tmp_path):
    long = " ".join(f"word{i}" for i in range(40))
    html = ("<html><body>" + f"<p>{long}</p>" + "</body></html>").encode()
    t = pa.table({
        "url": pa.array([f"https://t/{i}" for i in range(3)], pa.string()),
        "warc_ts": pa.array([dt.datetime(2025, 1, 1)] * 3, pa.timestamp("us")),
        "html": pa.array([html, html, b""], pa.large_binary()),
        "text": pa.array([long] * 3, pa.large_string()),
        "lang": pa.array(["en"] * 3, pa.string()),
    })
    p = tmp_path / "pages.parquet"
    pq.write_table(t, p)
    return str(p)


def test_cli_web_prep_mode(ray_session, tmp_path, capsys):
    from pdf_extractor_ray.cli import main

    src = _tiny_pages(tmp_path)
    out = str(tmp_path / "out")
    rc = main(["--input", src, "--output", out, "--mode", "web-prep"])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # two identical payloads dedup to one survivor; empty payload gated
    assert metrics["survivors"] == 1
    assert metrics["partitions_skipped"] == 0


def test_cli_wet_format(ray_session, tmp_path, capsys):
    import ray

    from pdf_extractor_ray.cli import main
    from pdf_extractor_ray.sources.warc import texts_from_wet

    src = _tiny_pages(tmp_path)
    out = str(tmp_path / "wet")
    rc = main(["--input", src, "--output", out,
               "--mode", "extract", "--format", "wet"])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["records"] == 3
    back = texts_from_wet([out]).to_pandas()
    assert len(back) == 3
    assert (back["text"].str.len() > 0).sum() == 2  # empty payload row empty


def test_cli_extract_json_on_parquet_input(ray_session, tmp_path, capsys):
    """``--mode extract --format json`` writes JSON, with or without
    ``--per-doc``; only parquet output goes through the checkpointed job."""
    import glob
    import os

    from pdf_extractor_ray.cli import main

    src = _tiny_pages(tmp_path)
    out = str(tmp_path / "json")
    assert main(["--input", src, "--output", out,
                 "--mode", "extract", "--format", "json"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rows = [json.loads(line) for f in glob.glob(f"{out}/*.json")
            for line in open(f)]
    assert metrics["files"] >= 1
    assert sorted(r["url"] for r in rows) == [f"https://t/{i}" for i in range(3)]
    assert not os.path.exists(os.path.join(out, "_manifest"))

    per_doc = str(tmp_path / "per_doc")
    assert main(["--input", src, "--output", per_doc, "--mode", "extract",
                 "--format", "json", "--per-doc"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["files"] == 3
    assert sorted(os.listdir(per_doc)) == [f"{i}_extracted.json" for i in range(3)]


def _docs_table(tmp_path, name, rows):
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })
    p = tmp_path / name
    pq.write_table(t, p)
    return str(p)


def test_cli_index_build_append_query(ray_session, tmp_path, capsys):
    from pdf_extractor_ray.cli import main

    old = [(i, " ".join(f"w{i}x{j}" for j in range(25))) for i in range(1, 20)]
    src_a = _docs_table(tmp_path, "a.parquet", old)
    src_b = _docs_table(tmp_path, "b.parquet",
                        [(500, " ".join(f"b500w{t}" for t in range(25)))])
    src_c = _docs_table(tmp_path, "c.parquet", [
        (600, old[2][1].replace("w3x7", "CHANGED")),       # near-dups A
        (601, " ".join(f"b500w{t}" for t in range(24))),    # near-dups B
    ])
    idx = str(tmp_path / "idx")
    out = str(tmp_path / "pairs")

    assert main(["--input", src_a, "--output", idx,
                 "--mode", "index-build"]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["n_docs"] == 19
    assert main(["--input", src_b, "--output", "unused",
                 "--mode", "index-append", "--index", idx]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["n_docs"] == 20
    assert main(["--input", src_c, "--output", out,
                 "--mode", "index-query", "--index", idx]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["pairs"] == 2
    import glob as g
    got = pa.concat_tables([pq.read_table(f)
                            for f in g.glob(f"{out}/*.parquet")])
    pairs = sorted(zip(got.column("new_doc_id").to_pylist(),
                       got.column("old_doc_id").to_pylist()))
    assert pairs == [(600, 3), (601, 500)]
