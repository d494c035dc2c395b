"""Tests for the benchmark's own parts: generator, golden gate, resume
setup and the traced replay.  Run with ``python3 -m pytest perfbench -q``
from the repository root; none of them starts Ray."""
from __future__ import annotations

import json
import os
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import corpus  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.SHAPES))
def test_generator_is_byte_deterministic_per_seed(workload):
    a, b = corpus.pages(workload, 7), corpus.pages(workload, 7)
    assert a.equals(b)
    assert corpus.content_hash(a) == corpus.content_hash(b)
    c = corpus.pages(workload, 8)
    assert corpus.documents(workload, 7).column("text") != \
        corpus.documents(workload, 8).column("text")
    assert corpus.content_hash(a) != corpus.content_hash(c)


def test_workload_shapes_hold_for_every_seed():
    for seed in (1, 2, 3):
        html = corpus.pages("crawl_html", seed)
        assert set(html.column("expected_kind").to_pylist()) <= {"html", "unknown"}
        assert 20_000 <= corpus.describe(html)["page_bytes_p50"] <= 60_000
        pdf = corpus.pages("pdf_heavy", seed)
        assert set(pdf.column("expected_kind").to_pylist()) == {"pdf"}
        assert {"ok", "parse_error", "image_only"} <= set(
            pdf.column("expected_status").to_pylist())
        mix = corpus.describe(corpus.pages("small_pages_resume", seed))
        assert 0.08 < mix["pdf_share"] < 0.15
        assert mix["gzip_share"] > 0
    # giant rows: the same count for every seed
    giants = {sum(d % 97 == 0 and d % 101 not in corpus.EDGE_ROWS
                  for d in corpus.documents("crawl_html", s)
                  .column("doc_id").to_pylist()) for s in (1, 2, 3, 4)}
    assert giants == {4}


def _as_output(goldens: pa.Table) -> pa.Table:
    return pa.table({"url": goldens.column("url"),
                     "extracted_text": goldens.column("text"),
                     "extract_status": goldens.column("expected_status")})


def test_gate_catches_byte_diff_dropped_and_duplicate_urls():
    goldens = corpus.pages("small_pages_resume", 1).select(
        ["url", "text", "expected_status"]).slice(0, 50)
    out = _as_output(goldens)
    assert gate.check(goldens, out)["failed"] == 0

    texts = out.column("extracted_text").to_pylist()
    k = next(i for i, t in enumerate(texts) if t)
    texts[k] = texts[k][:-1] + chr(ord(texts[k][-1]) ^ 1)  # one byte off
    planted = out.set_column(1, "extracted_text", pa.array(texts, pa.large_string()))
    res = gate.check(goldens, planted)
    assert (res["failed"], res["text_diff"]) == (1, 1)

    statuses = out.column("extract_status").to_pylist()
    statuses[0] = "parse_error" if statuses[0] != "parse_error" else "ok"
    res = gate.check(goldens, out.set_column(2, "extract_status", pa.array(statuses)))
    assert (res["failed"], res["status_diff"]) == (1, 1)

    res = gate.check(goldens, out.slice(1))
    assert (res["failed"], res["missing"]) == (1, 1)

    res = gate.check(goldens, pa.concat_tables([out, out.slice(3, 1)]))
    assert (res["failed"], res["duplicate"]) == (1, 1)

    assert gate.output_sha256(out) == gate.output_sha256(out.take([1, 0] + list(range(2, 50))))
    assert gate.output_sha256(out) != gate.output_sha256(planted)


def test_resume_setup_commits_exactly_the_first_half(tmp_path):
    wl = run.Workload("small_pages_resume", 3, str(tmp_path / "w"))
    n_parts = -(-len(wl.files) // wl.fpp)
    assert wl.half == n_parts // 2 > 0
    assert wl.commit_first_half(layers.replay) == list(range(wl.half))

    out = wl.new_out()
    resumed = layers.replay(wl.files, out, wl.fpp)
    assert resumed["skipped"] == wl.half
    fresh = str(tmp_path / "fresh")
    layers.replay(wl.files, fresh, wl.fpp)
    a, b = gate.read_committed(out), gate.read_committed(fresh)
    assert gate.check(wl.goldens, a)["failed"] == 0
    assert gate.output_sha256(a) == gate.output_sha256(b)


def test_traced_replay_covers_every_layer_and_restores_the_program(tmp_path):
    import pdf_extractor_ray.pipelines.extraction as extraction
    import pdf_extractor_ray.stages.extract as stages

    before = (stages.gunzip_payloads, extraction.sniff_doc_kind,
              stages.HtmlExtractStage.__call__, stages.PdfExtractStage.__call__)
    wl = run.Workload("small_pages_resume", 4, str(tmp_path / "w"))
    tracer = layers.Tracer()
    r = layers.replay(wl.files[:8], str(tmp_path / "t"), wl.fpp, tracer)
    assert before == (stages.gunzip_payloads, extraction.sniff_doc_kind,
                      stages.HtmlExtractStage.__call__,
                      stages.PdfExtractStage.__call__)
    m = layers.layer_metrics(tracer, r)
    assert m["stages.extract.rows"] == r["docs"] == 8 * wl.shape.rows_per_shard
    assert m["codecs.html_codec.docs"] + m["codecs.pdf_codec.docs"] <= r["docs"]
    assert m["state.manifest.commits"] == 2
    busy = sum(m[k] for k in layers.LAYER_BUSY)
    assert 0.5 * r["wall_s"] < busy <= r["wall_s"]
    assert gate.check(wl.goldens.slice(0, r["docs"]),
                      gate.read_committed(str(tmp_path / "t")))["failed"] == 0


def test_benchmark_json_names_what_the_benchmark_reports(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(corpus.SHAPES)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    wl = run.Workload("pdf_heavy", 1, str(tmp_path / "w"))
    tracer = layers.Tracer()
    m = layers.layer_metrics(tracer, layers.replay(wl.files[:1], str(tmp_path / "o"),
                                                   wl.fpp, tracer))
    emitted = set(m) | {"pipelines.extraction.ray_overhead_s",
                        "pipelines.extraction.ray_overhead_share",
                        "trace.overhead_ratio", "trace.layers_sum_ratio",
                        "failed_docs_ratio"}
    per_layer = {p["name"]: p["unit"] for p in spec["per_layer"]}
    assert set(per_layer) == emitted
    assert all(run._units(k) == u for k, u in per_layer.items())
