"""End-to-end pipeline tests over the synthesized corpus (Ray session
from conftest; sf0.001)."""
from __future__ import annotations

import os

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def extracted(ray_session, sf_dir):
    import ray

    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline
    from pdf_extractor_ray.sources.corpus import pages_dataset

    ds = extraction_pipeline(pages_dataset(sf_dir))
    return pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])


def test_extraction_byte_identical_goldens(extracted):
    got = extracted.column("extracted_text").to_pylist()
    want = extracted.column("golden_text").to_pylist()
    urls = extracted.column("url").to_pylist()
    bad = [u for u, g, w in zip(urls, got, want) if g != w]
    assert bad == []
    assert extracted.num_rows == 500


def test_extraction_statuses_and_kinds(extracted):
    from collections import Counter

    kinds = Counter(extracted.column("doc_kind").to_pylist())
    statuses = Counter(extracted.column("extract_status").to_pylist())
    assert kinds["pdf"] > 0 and kinds["html"] > 0 and kinds["unknown"] > 0
    assert statuses["parse_error"] > 0  # truncated PDFs degrade, never raise
    assert statuses["ok"] > 400


def test_extraction_spans_are_valid(extracted):
    for row in extracted.slice(0, 50).to_pylist():
        raw = row["extracted_text"].encode("utf-8")
        last = 0
        for span in row["spans"]:
            assert 0 <= span["start"] <= span["stop"] <= len(raw)
            assert span["start"] >= last  # monotone, non-overlapping
            last = span["stop"]


def test_items_pipeline(ray_session, sf_dir):
    from pdf_extractor_ray.pipelines.extraction import items_pipeline
    from pdf_extractor_ray.sources.corpus import pages_dataset

    df = items_pipeline(pages_dataset(sf_dir)).to_pandas()
    assert len(df) > 100
    # both extraction paths produce items: text lines and mapped tables
    assert df["table_number"].notna().any()
    assert df["line_number"].notna().any()
    # quantity dual encoding invariant: never both set
    both = df["qty_int"].notna() & df["qty_ref"].notna()
    assert not both.any()
    assert (df["page_number"] >= 1).all()


def test_entities_pipeline(ray_session, sf_dir):
    from pdf_extractor_ray.pipelines.extraction import entities_pipeline
    from pdf_extractor_ray.sources.corpus import pages_dataset

    df = entities_pipeline(pages_dataset(sf_dir)).to_pandas()
    assert len(df) == 500
    assert (df["email"].str.len() > 0).any()
    assert (df["date"].str.len() > 0).any()


def test_checkpoint_resume(ray_session, sf_dir, tmp_path):
    """Kill-and-resume semantics: committed partitions are skipped, the
    rerun completes the remainder, no duplicate outputs."""
    import pyarrow.parquet as pq
    import ray

    from pdf_extractor_ray.pipelines.extraction import run_extraction_job
    from pdf_extractor_ray.sources.corpus import pages_dataset

    pages_dir = tmp_path / "pages"
    pages_dataset(sf_dir).write_parquet(str(pages_dir))
    files = sorted(
        str(pages_dir / f) for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )
    assert len(files) >= 2
    out_dir = str(tmp_path / "out")

    # first run: only the first partition (simulates a kill after commit 0)
    r1 = run_extraction_job(files[: len(files) // 2], out_dir, files_per_partition=1)
    assert r1["partitions_skipped"] == 0

    # resume over the FULL input: earlier partitions must be skipped
    r2 = run_extraction_job(files, out_dir, files_per_partition=1)
    assert r2["partitions_skipped"] == len(files) // 2
    assert r2["partitions_total"] == len(files)

    # output has every url exactly once
    parts = [
        os.path.join(out_dir, d)
        for d in os.listdir(out_dir)
        if d.startswith("part-") and os.path.isdir(os.path.join(out_dir, d))
    ]
    seen = []
    for p in parts:
        t = pq.read_table(p, columns=["url"])
        seen.extend(t.column("url").to_pylist())
    assert len(seen) == len(set(seen)) == 500

    # manifest records cover every input file with sane metrics
    from pdf_extractor_ray.state.manifest import Manifest

    records = Manifest(out_dir).records()
    assert {r["input_file"] for r in records} == set(files)
    assert all(r["docs_in"] >= 0 for r in records)
    # per-kind counters recorded and consistent (SURVEY §3.4 manifest)
    assert all(r["docs_html"] >= 0 and r["docs_pdf"] >= 0 for r in records)
    assert r2["docs_html"] + r2["docs_pdf"] <= 500
    assert r1["docs_pdf"] + r2["docs_pdf"] > 0


def test_resume_replaces_stale_tmp_and_final(ray_session, sf_dir, tmp_path):
    """A run killed mid-write leaves a partial _tmp dir (and possibly a
    renamed final dir with NO manifest record). The rerun must replace
    both — no duplicates, no stale files."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.extraction import run_extraction_job
    from pdf_extractor_ray.sources.corpus import pages_dataset

    pages_dir = tmp_path / "pages"
    pages_dataset(sf_dir).write_parquet(str(pages_dir))
    files = sorted(
        str(pages_dir / f) for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )[:1]
    out_dir = tmp_path / "out"

    # simulate the two crash windows
    stale_tmp = out_dir / "_tmp" / "part-00000"
    stale_tmp.mkdir(parents=True)
    (stale_tmp / "garbage.parquet").write_bytes(b"not parquet")
    stale_final = out_dir / "part-00000"
    stale_final.mkdir(parents=True)
    (stale_final / "leftover.parquet").write_bytes(b"stale")

    r = run_extraction_job(files, str(out_dir), files_per_partition=1)
    assert r["partitions_skipped"] == 0  # no manifest record → reprocessed

    # stale files are gone; output readable; every url exactly once
    names = os.listdir(out_dir / "part-00000")
    assert "leftover.parquet" not in names and "garbage.parquet" not in names
    t = pq.read_table(str(out_dir / "part-00000"), columns=["url"])
    urls = t.column("url").to_pylist()
    assert len(urls) == len(set(urls)) > 0


def test_image_only_pdf_degrades_to_image_only_status(ray_session):
    """A genuinely text-less PDF (single page drawing only an image
    XObject) lands in extract_status='image_only' — NOT parse_error,
    NOT empty (reference sniff analogue:
    extractor/extractors/pdf_text_extractor.py:114-125)."""
    import ray.data

    from pdf_extractor_ray.fixtures.pdf_build import image_only_pdf
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    payload = image_only_pdf()
    assert payload.startswith(b"%PDF-")
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array(["http://example.com/scan.pdf"], pa.string()),
        "html": pa.array([payload], pa.binary()),
    }))
    df = extraction_pipeline(ds).to_pandas()
    assert df.loc[0, "doc_kind"] == "pdf"
    assert df.loc[0, "extract_status"] == "image_only"
    assert df.loc[0, "extracted_text"] == ""
    # a page record still exists (the page parsed; it just has no text)
    assert df.loc[0, "n_pages"] == 1


def test_image_xobject_does_not_shadow_text(ray_session):
    """A page with BOTH an image and text stays 'ok'."""
    import ray.data

    from pdf_extractor_ray.codecs.pdf_codec import PdfCodec
    from pdf_extractor_ray.fixtures.pdf_build import simple_text_pdf

    r = PdfCodec().extract(simple_text_pdf([["hello world from a text page"]]))
    assert r.status == "ok"


def test_doc_statistics_reference_parity(ray_session, sf_dir):
    """doc_statistics emits the reference Statistics record per url,
    page-summed (extractor/utils/helpers.py:67-86): independently
    recomputed here from the emitted pages."""
    from pdf_extractor_ray.pipelines.extraction import (
        doc_statistics_pipeline,
        extraction_pipeline,
    )
    from pdf_extractor_ray.sources.corpus import pages_dataset

    stats = doc_statistics_pipeline(pages_dataset(sf_dir)).to_pandas()
    pages_df = (
        extraction_pipeline(pages_dataset(sf_dir), emit_pages=True)
        .select_columns(["url", "pages"])
        .to_pandas()
    )
    merged = stats.merge(pages_df, on="url")
    assert len(merged) == len(stats) > 0
    for _, row in merged.head(50).iterrows():
        pages = row["pages"] if row["pages"] is not None else []
        chars = [len(p["text"] or "") for p in pages]
        words = [len((p["text"] or "").split()) for p in pages]
        assert row["total_pages"] == len(pages)
        assert row["total_characters"] == sum(chars)
        assert row["total_words"] == sum(words)
        want_ac = sum(chars) / len(pages) if len(pages) else 0.0
        want_aw = sum(words) / len(pages) if len(pages) else 0.0
        assert abs(row["avg_chars_per_page"] - want_ac) < 1e-9
        assert abs(row["avg_words_per_page"] - want_aw) < 1e-9


def test_standard_result_envelope(ray_session, sf_dir):
    """standard_result composes the reference per-document record:
    mode + full_text + six entity lists + statistics
    (extractor/models/standard.py:28-71)."""
    from pdf_extractor_ray.pipelines.extraction import standard_result_pipeline
    from pdf_extractor_ray.sources.corpus import pages_dataset

    df = standard_result_pipeline(pages_dataset(sf_dir)).to_pandas()
    assert list(df.columns) == [
        "url", "extraction_mode", "full_text",
        "email", "phone", "date", "currency", "url_ref", "ssn",
        "total_pages", "total_characters", "total_words",
        "avg_chars_per_page", "avg_words_per_page",
    ]
    assert (df["extraction_mode"] == "standard").all()
    # entity-bearing synthesized rows (doc_id % 7 == 3, HTML kind)
    with_email = df[df["email"].map(len) > 0]
    assert len(with_email) > 0
    assert all("@example.com" in e for es in with_email["email"] for e in es)
    # full_text is the combined page text for ok docs
    ok = df[df["total_pages"] > 0].iloc[0]
    assert isinstance(ok["full_text"], str)


def test_gzip_payload_rows_decode_transparently(ray_session):
    """doc_id % 53 == 31 rows carry gzip-wrapped payloads; sniff
    decompresses before routing, so kinds, statuses and goldens are
    identical to the plain rows."""
    import gzip

    from pdf_extractor_ray.codecs.html_codec import HtmlCodec
    from pdf_extractor_ray.sources.corpus import PageSynthesizer

    import pyarrow as pa

    batch = pa.table({
        "doc_id": pa.array([31, 84], pa.int64()),  # 84 % 53 = 31 too
        "text": pa.array([" ".join(f"w{i}" for i in range(40))] * 2),
        "lang": pa.array(["en", "en"]),
    })
    pages = PageSynthesizer()(batch)
    payloads = pages.column("html").to_pylist()
    assert all(p[:2] == b"\x1f\x8b" for p in payloads)
    goldens = pages.column("text").to_pylist()
    from pdf_extractor_ray.stages.extract import sniff_doc_kind

    sniffed = sniff_doc_kind(pages)
    assert sniffed.column("doc_kind").to_pylist() == ["html", "html"]
    for raw, want in zip(sniffed.column("html").to_pylist(), goldens):
        assert HtmlCodec().extract(raw).text == want


def test_gunzip_payloads_edge_cases(ray_session):
    """Corrupt gzip falls through unchanged; mixed batches only touch
    flagged rows; empty batch is a no-op."""
    import gzip

    import pyarrow as pa

    from pdf_extractor_ray.stages.extract import gunzip_payloads

    good = gzip.compress(b"<html><body><p>hi</p></body></html>", mtime=0)
    corrupt = b"\x1f\x8b" + b"\x00" * 10
    plain = b"<html></html>"
    b = pa.table({
        "url": pa.array(["a", "b", "c", "d"]),
        "html": pa.array([good, corrupt, plain, None], pa.large_binary()),
    })
    out = gunzip_payloads(b)
    vals = out.column("html").to_pylist()
    assert vals[0] == b"<html><body><p>hi</p></body></html>"
    assert vals[1] == corrupt          # undecompressable → unchanged
    assert vals[2] == plain
    assert vals[3] is None
    empty = pa.table({"url": pa.array([], pa.string()),
                      "html": pa.array([], pa.large_binary())})
    assert gunzip_payloads(empty).num_rows == 0


# ------------------------------------------------ checkpointed job: manifest
@pytest.fixture(scope="module")
def page_files(ray_session, sf_dir, tmp_path_factory):
    """The sf0.001 pages as parquet input files (four files of ~125 rows)."""
    from pdf_extractor_ray.sources.corpus import pages_dataset

    pages_dir = tmp_path_factory.mktemp("pages")
    pages_dataset(sf_dir).write_parquet(str(pages_dir))
    return sorted(
        str(pages_dir / f) for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )


@pytest.fixture(scope="module")
def committed_job(page_files, tmp_path_factory):
    """A two-files-per-partition job over every page file: (out_dir, result)."""
    from pdf_extractor_ray.pipelines.extraction import run_extraction_job

    assert len(page_files) >= 4
    out_dir = str(tmp_path_factory.mktemp("job") / "out")
    return out_dir, run_extraction_job(page_files, out_dir, files_per_partition=2)


def _records_by_partition(out_dir):
    from pdf_extractor_ray.state.manifest import Manifest

    by_pid = {}
    for r in Manifest(out_dir).records():
        by_pid.setdefault(r["partition_id"], []).append(r)
    return by_pid


def _assert_manifest_matches_output(out_dir):
    """Each partition's manifest metrics equal the counts and checksum
    recomputed from the parquet it committed; returns the number of
    files in each partition dir."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from pdf_extractor_ray.state.manifest import Manifest, rows_checksum

    manifest = Manifest(out_dir)
    n_files = {}
    for pid, records in _records_by_partition(out_dir).items():
        part = manifest.partition_dir(pid)
        files = sorted(f for f in os.listdir(part) if f.endswith(".parquet"))
        n_files[pid] = len(files)
        if not files:
            want = {"docs_in": 0, "docs_ok": 0, "docs_html": 0, "docs_pdf": 0,
                    "parse_errors": 0, "checksum": "00000000"}
        else:
            t = pa.concat_tables(pq.read_table(os.path.join(part, f)) for f in files)
            status, kind = t.column("extract_status"), t.column("doc_kind")
            want = {
                "docs_in": t.num_rows,
                "docs_ok": pc.sum(pc.equal(status, "ok")).as_py() or 0,
                "docs_html": pc.sum(pc.equal(kind, "html")).as_py() or 0,
                "docs_pdf": pc.sum(pc.equal(kind, "pdf")).as_py() or 0,
                "parse_errors": pc.sum(pc.equal(status, "parse_error")).as_py() or 0,
                "checksum": format(rows_checksum(
                    t.column("url").to_pylist(),
                    t.column("n_chars").to_pylist()), "08x"),
            }
        for r in records:
            assert {k: r[k] for k in want} == want, pid
    return n_files


def _assert_row_ranges_tile(out_dir):
    """Per-file [row_start, row_stop) ranges follow the plan's file order
    and tile [0, docs_in) of their partition."""
    import pyarrow.parquet as pq

    for pid, records in _records_by_partition(out_dir).items():
        start = 0
        for r in records:
            assert r["row_start"] == start
            assert r["row_stop"] - start == pq.read_metadata(r["input_file"]).num_rows
            start = r["row_stop"]
        assert start == records[0]["docs_in"], pid


def test_manifest_matches_committed_output(committed_job):
    """Each partition's manifest metrics equal the counts and checksum
    recomputed from the parquet it committed."""
    out_dir, result = committed_job
    n_files = _assert_manifest_matches_output(out_dir)
    assert sorted(n_files) == list(range(result["partitions_total"])) != [0]
    # several fragments per partition: their metrics rows are folded together
    assert max(n_files.values()) >= 2
    assert result["docs_in"] == 500


def test_manifest_row_ranges_tile_each_partition(committed_job):
    """Per-file [row_start, row_stop) ranges follow the plan's file order
    and tile [0, docs_in) of their partition."""
    out_dir, _ = committed_job
    _assert_row_ranges_tile(out_dir)
    assert all(recs[0]["docs_in"] > 0
               for recs in _records_by_partition(out_dir).values())


def test_empty_input_partition_commits_and_is_skipped(page_files, tmp_path):
    """A partition whose input file holds no rows commits an empty
    partition dir with zero counts; the rerun skips it."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.extraction import run_extraction_job
    from pdf_extractor_ray.state.manifest import Manifest

    empty = str(tmp_path / "zz-empty.parquet")
    pq.write_table(pq.read_schema(page_files[0]).empty_table(), empty)
    files = [page_files[0], empty]
    out_dir = str(tmp_path / "out")

    r = run_extraction_job(files, out_dir, files_per_partition=1)
    assert r["partitions_total"] == 2 and r["partitions_skipped"] == 0
    rec = next(x for x in Manifest(out_dir).records() if x["input_file"] == empty)
    assert rec["partition_id"] == 1
    assert (rec["docs_in"], rec["docs_ok"], rec["checksum"]) == (0, 0, "00000000")
    assert (rec["row_start"], rec["row_stop"]) == (0, 0)
    assert Manifest(out_dir).committed_ids() == [0, 1]

    again = run_extraction_job(files, out_dir, files_per_partition=1)
    assert again["partitions_skipped"] == 2 and again["docs_in"] == 0


def test_one_read_per_job(page_files, tmp_path, monkeypatch):
    """A job with work left reads every uncommitted non-empty input file
    in exactly one read_parquet call; a job with every partition
    committed or empty starts no read at all."""
    import pyarrow.parquet as pq
    import ray.data

    from pdf_extractor_ray.pipelines.extraction import run_extraction_job

    empty = str(tmp_path / "zz-empty.parquet")
    pq.write_table(pq.read_schema(page_files[0]).empty_table(), empty)
    files = page_files + [empty]
    out_dir = str(tmp_path / "out")
    committed = 1
    run_extraction_job(page_files[:committed], out_dir, files_per_partition=1)

    calls = []
    real = ray.data.read_parquet

    def counting(paths, *args, **kw):
        calls.append(list(paths))
        return real(paths, *args, **kw)

    monkeypatch.setattr(ray.data, "read_parquet", counting)
    r = run_extraction_job(files, out_dir, files_per_partition=1)
    assert r["partitions_skipped"] == committed
    assert r["partitions_total"] == len(files)
    assert len(calls) == 1
    assert set(calls[0]) == set(page_files[committed:])

    calls.clear()
    again = run_extraction_job(files, out_dir, files_per_partition=1)
    assert again["partitions_skipped"] == len(files)
    only_empty = run_extraction_job([empty], str(tmp_path / "out-empty"),
                                    files_per_partition=1)
    assert only_empty["partitions_skipped"] == 0 and only_empty["docs_in"] == 0
    assert calls == []


@pytest.mark.parametrize("files_per_partition", [1, 2])
def test_partitions_straddling_batches_and_orphan_fragments(
    page_files, tmp_path, files_per_partition
):
    """Input files of 50, 130, 7 and 0 rows: 128-row batches cross
    partition boundaries, yet every partition commits exactly its own
    rows.  A stray file planted in a partition's tmp dir is not
    committed."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.pipelines.extraction import run_extraction_job
    from pdf_extractor_ray.state.manifest import Manifest

    pages = pa.concat_tables(pq.read_table(f) for f in page_files)
    files, start = [], 0
    for name, n in zip("abcd", (50, 130, 7, 0)):
        files.append(str(tmp_path / f"{name}-{n}.parquet"))
        pq.write_table(pages.slice(start, n), files[-1])
        start += n
    out_dir = tmp_path / "out"
    stray = out_dir / "_tmp" / "part-00001"
    stray.mkdir(parents=True)
    pq.write_table(pages.slice(400, 5), str(stray / "stray.parquet"))

    r = run_extraction_job(files, str(out_dir), files_per_partition=files_per_partition)
    n_parts = -(-len(files) // files_per_partition)
    assert r["partitions_total"] == n_parts and r["docs_in"] == 187
    assert Manifest(str(out_dir)).committed_ids() == list(range(n_parts))
    _assert_manifest_matches_output(str(out_dir))
    _assert_row_ranges_tile(str(out_dir))
    committed = [
        os.path.join(d, f)
        for d in sorted(out_dir.glob("part-*")) for f in os.listdir(d)
    ]
    assert not any(f.endswith("stray.parquet") for f in committed)
    urls = pa.concat_tables(pq.read_table(f, columns=["url"]) for f in committed)
    assert sorted(urls.column("url").to_pylist()) == sorted(
        pages.slice(0, 187).column("url").to_pylist())
