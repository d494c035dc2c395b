"""Pipeline builders: sniff → route → codecs → downstream.

Engine lifecycle target shape (SURVEY.md §3.4, single-pass dispatch):

    read_parquet(partitions)
      → map_batches(extract_unified)   # sniff + per-row codec dispatch
      → items / entities / stats / write

Two architectures, measured head-to-head at 32 CPUs on a 40k-doc
corpus (bench, 2026-08):

- **unified** (default): ONE task-based ``map_batches`` stage sniffs
  the batch and routes rows to the HTML/PDF codec inside the task.
  Codec instances (pattern banks, font caches) are module-level
  worker-process globals — Ray reuses worker processes across tasks,
  so warm state amortizes exactly like an actor pool without the
  object-store round-trip per batch.  22.4k docs/s.
- **branched**: sniff → filter(html)/filter(pdf) → stateless HTML
  tasks ∪ PDF actor pool.  The shape SURVEY §3.4 sketched first; it
  executes the read+sniff prefix once per branch and pays actor-pool
  serialization.  5.8k docs/s — kept for workloads where the PDF side
  needs dedicated long-lived actors (e.g. a real OCR/model stage
  whose init cost is seconds, A1/A2 in SURVEY §2.3).

Skew note (north rule): giant PDFs are defused by MODEST BATCH SIZE —
a straggler document occupies one small batch, not a 1024-row block —
plus Ray Data's dynamic block splitting; no all-to-all repartition is
needed, which matters at 100 TB where a shuffle of the payload column
would move the whole corpus.
"""
from __future__ import annotations

import os
import shutil
from typing import Dict, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import BlockAccessor

from ..stages.extract import HtmlExtractStage, PdfExtractStage, sniff_doc_kind
from ..stages.parse import EntitiesStage, ItemsStage
from ..state.manifest import Manifest, partition_plan, rows_checksum

# module-level instances: compile-once-per-worker-process warm state
# for the task path (SURVEY.md §7.3 / A3-A4 analogue)
_STAGES: Dict[object, object] = {}


def _stage(kind: str, emit_pages: bool):
    key = (kind, emit_pages)
    st = _STAGES.get(key)
    if st is None:
        cls = HtmlExtractStage if kind == "html" else PdfExtractStage
        st = _STAGES[key] = cls(emit_pages=emit_pages)
    return st


def _extract_unified(batch: pa.Table, emit_pages: bool) -> pa.Table:
    """Sniff + dispatch inside one task: no double read, no union."""
    k = sniff_doc_kind(batch)
    is_pdf = pc.equal(k.column("doc_kind"), "pdf")
    html_part = k.filter(pc.invert(is_pdf))
    pdf_part = k.filter(is_pdf)
    outs = []
    if html_part.num_rows:
        outs.append(_stage("html", emit_pages)(html_part))
    if pdf_part.num_rows:
        outs.append(_stage("pdf", emit_pages)(pdf_part))
    if not outs:
        return _stage("html", emit_pages)(html_part)  # empty, right schema
    return pa.concat_tables(outs) if len(outs) > 1 else outs[0]


def extract_unified_batch(batch: pa.Table) -> pa.Table:
    return _extract_unified(batch, emit_pages=False)


def extract_unified_batch_pages(batch: pa.Table) -> pa.Table:
    return _extract_unified(batch, emit_pages=True)


def _default_pdf_concurrency() -> Tuple[int, int]:
    """Size the branched-mode PDF actor pool from the cluster: PDFs
    are ~10% of docs but most of the per-doc cost, so cap the pool at
    half the CPUs — the HTML task path fills the rest."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return (2, max(4, cpus // 2))


def extraction_pipeline(
    pages_ds,
    emit_pages: bool = False,
    mode: str = "unified",
    pdf_concurrency: Optional[Tuple[int, int]] = None,
    pdf_batch_size: int = 16,
    html_batch_size: int = 256,
    batch_size: int = 128,
):
    """pages Dataset → extraction Dataset (EXTRACT_SCHEMA [+pages])."""
    if mode == "unified":
        fn = extract_unified_batch_pages if emit_pages else extract_unified_batch
        return pages_ds.map_batches(
            fn, batch_format="pyarrow", batch_size=batch_size
        )
    if pdf_concurrency is None:
        pdf_concurrency = _default_pdf_concurrency()
    ds = pages_ds.map_batches(sniff_doc_kind, batch_format="pyarrow")
    html_fn = extract_unified_batch_pages if emit_pages else extract_unified_batch
    html_branch = ds.filter(expr="doc_kind != 'pdf'").map_batches(
        html_fn, batch_format="pyarrow", batch_size=html_batch_size
    )
    pdf_branch = ds.filter(expr="doc_kind == 'pdf'").map_batches(
        PdfExtractStage,
        fn_constructor_kwargs={"emit_pages": emit_pages},
        batch_format="pyarrow",
        batch_size=pdf_batch_size,
        concurrency=pdf_concurrency,
    )
    return html_branch.union(pdf_branch)


def _items_batch(batch: pa.Table) -> pa.Table:
    st = _STAGES.get("items")
    if st is None:
        st = _STAGES["items"] = ItemsStage()
    return st(batch)


def _entities_batch(batch: pa.Table) -> pa.Table:
    st = _STAGES.get("entities")
    if st is None:
        st = _STAGES["entities"] = EntitiesStage()
    return st(batch)


def items_pipeline(pages_ds, **kw):
    """pages Dataset → construction items Dataset (ITEMS_SCHEMA)."""
    extracted = extraction_pipeline(pages_ds, emit_pages=True, **kw)
    return extracted.map_batches(_items_batch, batch_format="pyarrow")


def entities_pipeline(pages_ds, **kw):
    """pages Dataset → entities Dataset (ENTITIES_SCHEMA)."""
    extracted = extraction_pipeline(pages_ds, emit_pages=False, **kw)
    return extracted.map_batches(_entities_batch, batch_format="pyarrow")


def _page_stats(pages) -> tuple:
    """Reference Statistics semantics over a page list: totals are
    summed PER PAGE (not over the '\\n\\n'-joined text), averages are 0
    for page-less documents (extractor/utils/helpers.py:67-86)."""
    pages = pages or []
    chars = [len(p["text"] or "") for p in pages]
    words = [len((p["text"] or "").split()) for p in pages]
    n = len(pages)
    tc, tw = sum(chars), sum(words)
    return n, tc, tw, (tc / n if n else 0.0), (tw / n if n else 0.0)


def _doc_statistics_batch(batch: pa.Table) -> pa.Table:
    cols = {k: [] for k in
            ("total_pages", "total_characters", "total_words",
             "avg_chars_per_page", "avg_words_per_page")}
    for pages in batch.column("pages").to_pylist():
        n, tc, tw, ac, aw = _page_stats(pages)
        cols["total_pages"].append(n)
        cols["total_characters"].append(tc)
        cols["total_words"].append(tw)
        cols["avg_chars_per_page"].append(ac)
        cols["avg_words_per_page"].append(aw)
    return pa.table(
        {
            "url": batch.column("url"),
            "total_pages": pa.array(cols["total_pages"], pa.int64()),
            "total_characters": pa.array(cols["total_characters"], pa.int64()),
            "total_words": pa.array(cols["total_words"], pa.int64()),
            "avg_chars_per_page": pa.array(cols["avg_chars_per_page"], pa.float64()),
            "avg_words_per_page": pa.array(cols["avg_words_per_page"], pa.float64()),
        }
    )


def doc_statistics_pipeline(pages_ds, **kw):
    """Per-url Statistics envelope — exact reference-field parity:
    total_pages / total_characters / total_words / avg_chars_per_page /
    avg_words_per_page (extractor/utils/helpers.py:67-86,
    models/base.py:8-15)."""
    extracted = extraction_pipeline(pages_ds, emit_pages=True, **kw)
    return extracted.map_batches(_doc_statistics_batch, batch_format="pyarrow")


def _standard_result_batch(batch: pa.Table) -> pa.Table:
    """One composed standard-mode record per document: full_text +
    entity lists + statistics (extractor/models/standard.py:28-71;
    full_text join semantics extractor/utils/helpers.py:39-64)."""
    from ..parsers.standard import EntityParser

    parser = _STAGES.get("entity_parser")
    if parser is None:
        parser = _STAGES["entity_parser"] = EntityParser()

    n = batch.num_rows
    ent_cols: Dict[str, list] = {
        k: [] for k in ("email", "phone", "date", "currency", "url_ref", "ssn")
    }
    stats_cols = {k: [] for k in
                  ("total_pages", "total_characters", "total_words",
                   "avg_chars_per_page", "avg_words_per_page")}
    for text, pages in zip(
        batch.column("extracted_text").to_pylist(),
        batch.column("pages").to_pylist(),
    ):
        ents = parser.extract_entities(text or "")
        ent_cols["email"].append(ents.get("email", []))
        ent_cols["phone"].append(ents.get("phone", []))
        ent_cols["date"].append(ents.get("date", []))
        ent_cols["currency"].append(ents.get("currency", []))
        ent_cols["url_ref"].append(ents.get("url", []))
        ent_cols["ssn"].append(ents.get("ssn", []))
        np_, tc, tw, ac, aw = _page_stats(pages)
        stats_cols["total_pages"].append(np_)
        stats_cols["total_characters"].append(tc)
        stats_cols["total_words"].append(tw)
        stats_cols["avg_chars_per_page"].append(ac)
        stats_cols["avg_words_per_page"].append(aw)

    out = {
        "url": batch.column("url"),
        "extraction_mode": pa.array(["standard"] * n, pa.string()),
        "full_text": batch.column("extracted_text"),
    }
    for k in ("email", "phone", "date", "currency", "url_ref", "ssn"):
        out[k] = pa.array(ent_cols[k], pa.list_(pa.string()))
    out["total_pages"] = pa.array(stats_cols["total_pages"], pa.int64())
    out["total_characters"] = pa.array(stats_cols["total_characters"], pa.int64())
    out["total_words"] = pa.array(stats_cols["total_words"], pa.int64())
    out["avg_chars_per_page"] = pa.array(stats_cols["avg_chars_per_page"], pa.float64())
    out["avg_words_per_page"] = pa.array(stats_cols["avg_words_per_page"], pa.float64())
    return pa.table(out)


def standard_result_pipeline(pages_ds, **kw):
    """pages Dataset → composed StandardExtractionResult records
    (mode, full_text, six entity lists, statistics) — the per-document
    envelope the reference writes as JSON
    (extractor/models/standard.py:28-71)."""
    extracted = extraction_pipeline(pages_ds, emit_pages=True, **kw)
    return extracted.map_batches(_standard_result_batch, batch_format="pyarrow")


def _coerce_quantity(q):
    """Reference quantity validator semantics (Union[int,str] — re-parse
    plain int strings, keep decimal/comma spec refs verbatim;
    reference: extractor/models/construction.py:69-88)."""
    if isinstance(q, str) and "." not in q and "," not in q:
        try:
            return int(q)
        except ValueError:
            return q
    return q


def _construction_result_batch(batch: pa.Table) -> pa.Table:
    """One composed construction-mode record per document: items list
    (as JSON), G2 summary counts and statistics — the per-document
    ConstructionExtractionResult envelope the reference writes as JSON
    (extractor/models/construction.py:125-154; summary semantics
    extractor/services/extraction_service.py:176-191)."""
    import json as _json

    stage = _STAGES.get("items")
    if stage is None:
        stage = _STAGES["items"] = ItemsStage()
    parser = stage.parser

    n = batch.num_rows
    cols: Dict[str, list] = {k: [] for k in (
        "items_json", "total_items_found", "with_quantity", "with_model",
        "with_dimensions", "with_mounting", "pages_processed", "tables_found",
        "total_pages", "total_characters", "total_words",
        "avg_chars_per_page", "avg_words_per_page",
    )}
    for pages, page_tables in zip(
        batch.column("pages").to_pylist(), batch.column("tables").to_pylist()
    ):
        doc_items = []
        tables_found = 0
        for i, page in enumerate(pages or []):
            page_num = page["page_num"]
            doc_items.extend(parser.extract_items(page["text"] or "", page_num))
            tables = (
                (page_tables or [])[i]
                if page_tables and i < len(page_tables) else []
            )
            tables_found += len(tables or [])
            if tables:
                doc_items.extend(parser.parse_tables(tables, page_num))
        items = [
            {
                "fixture_type": it.get("fixture_type"),
                "quantity": _coerce_quantity(it.get("quantity")),
                "model_number": (
                    it.get("model_number").strip().upper()
                    if it.get("model_number") else None
                ),
                "dimensions": it.get("dimensions"),
                "mounting_type": it.get("mounting_type"),
                "spec_reference": it.get("spec_reference"),
                "page_number": it.get("page_number", 1),
                "table_number": it.get("table_number"),
                "row_number": it.get("row_number"),
                "raw_text": it.get("raw_text"),
                "line_number": it.get("line_number"),
            }
            for it in doc_items
        ]
        cols["items_json"].append(_json.dumps(items, ensure_ascii=False))
        cols["total_items_found"].append(len(items))
        cols["with_quantity"].append(
            sum(it["quantity"] is not None for it in items)
        )
        cols["with_model"].append(sum(it["model_number"] is not None for it in items))
        cols["with_dimensions"].append(sum(it["dimensions"] is not None for it in items))
        cols["with_mounting"].append(sum(it["mounting_type"] is not None for it in items))
        cols["pages_processed"].append(len(pages or []))
        cols["tables_found"].append(tables_found)
        np_, tc, tw, ac, aw = _page_stats(pages)
        cols["total_pages"].append(np_)
        cols["total_characters"].append(tc)
        cols["total_words"].append(tw)
        cols["avg_chars_per_page"].append(ac)
        cols["avg_words_per_page"].append(aw)

    out = {
        "url": batch.column("url"),
        "extraction_mode": pa.array(["construction"] * n, pa.string()),
    }
    for k in ("total_items_found", "with_quantity", "with_model",
              "with_dimensions", "with_mounting", "pages_processed",
              "tables_found", "total_pages", "total_characters", "total_words"):
        out[k] = pa.array(cols[k], pa.int64())
    out["avg_chars_per_page"] = pa.array(cols["avg_chars_per_page"], pa.float64())
    out["avg_words_per_page"] = pa.array(cols["avg_words_per_page"], pa.float64())
    out["items_json"] = pa.array(cols["items_json"], pa.string())
    return pa.table(out)


def construction_result_pipeline(pages_ds, **kw):
    """pages Dataset → composed ConstructionExtractionResult records,
    one row per document (the construction twin of
    ``standard_result_pipeline``)."""
    extracted = extraction_pipeline(pages_ds, emit_pages=True, **kw)
    return extracted.map_batches(_construction_result_batch, batch_format="pyarrow")


# ------------------------------------------------- per-doc JSON output (M17)
def derive_output_filename(url: str) -> str:
    """Reference output-filename parity (reference main.py:27-39):
    ``Path(input).stem + '_extracted.json'`` — applied to the url
    path's basename. Two inputs with the same stem overwrite each
    other, exactly as two same-stem CLI runs into one directory do in
    the reference."""
    from pathlib import PurePosixPath
    from urllib.parse import urlparse

    path = urlparse(url).path or url
    base = path.rstrip("/").rsplit("/", 1)[-1]
    stem = PurePosixPath(base).stem if base else ""
    return f"{stem or 'document'}_extracted.json"


def _envelope_dict(row: Dict) -> Dict:
    """Flat envelope row → nested reference-shaped JSON payload; the
    url is scrubbed like the reference scrubs ``source_pdf``
    (reference: main.py:130-135)."""
    import json as _json

    row = dict(row)
    row.pop("url", None)
    mode = row.get("extraction_mode")
    if mode == "construction":
        return {
            "extraction_mode": mode,
            "total_items_found": row["total_items_found"],
            "items": _json.loads(row["items_json"]),
            "summary": {
                "total_items": row["total_items_found"],
                "items_with_quantity": row["with_quantity"],
                "items_with_model": row["with_model"],
                "items_with_dimensions": row["with_dimensions"],
                "items_with_mounting": row["with_mounting"],
                "pages_processed": row["pages_processed"],
                "tables_found": row["tables_found"],
            },
            "statistics": {
                k: row[k]
                for k in ("total_pages", "total_characters", "total_words",
                          "avg_chars_per_page", "avg_words_per_page")
            },
        }
    if mode == "standard":
        return {
            "extraction_mode": mode,
            "full_text": row["full_text"],
            "entities": {
                k: row[k]
                for k in ("email", "phone", "date", "currency", "url_ref", "ssn")
                if row.get(k)
            },
            "statistics": {
                k: row[k]
                for k in ("total_pages", "total_characters", "total_words",
                          "avg_chars_per_page", "avg_words_per_page")
            },
        }
    return row  # extract mode: the record itself


def write_per_doc_json(result_ds, out_dir: str, url_col: str = "url") -> int:
    """Write ONE JSON file per document named by
    :func:`derive_output_filename` — the reference-workflow compat view
    for users whose tooling globs ``*_extracted.json``. Writes happen
    inside ``map_batches`` on the workers (shared filesystem contract,
    same as ``write_parquet``); returns the number of rows written.

    Scale note: file-per-document is the REFERENCE's output contract,
    not the engine's (partitioned parquet is canonical) — use this
    compat path for reference-sized runs, not 10^12-doc corpora."""
    import json as _json

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        n_written = 0
        for row in batch.to_pylist():
            name = derive_output_filename(row[url_col])
            payload = _envelope_dict(row)
            tmp = os.path.join(out_dir, f".{name}.tmp-{os.getpid()}")
            with open(tmp, "w", encoding="utf-8") as f:
                _json.dump(payload, f, indent=2, ensure_ascii=False)
            os.replace(tmp, os.path.join(out_dir, name))  # atomic commit
            n_written += 1
        return pa.table({"n": pa.array([n_written], pa.int64())})

    t = result_ds.map_batches(write_batch, batch_format="pyarrow").to_pandas()
    return int(t["n"].sum())


# ---------------------------------------------------------------- job runner
_COUNTS = ("docs_in", "docs_ok", "docs_html", "docs_pdf", "parse_errors")
_NO_ROWS = {**dict.fromkeys(_COUNTS, 0), "checksum": 0}


class _PartitionSink(Datasink):
    """Writes one partition's extracted rows into ``path`` and folds the
    write tasks' counts into the partition's manifest metrics, so the
    rows are counted while still in memory instead of re-read."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.metrics: Dict[str, int] = {}

    def on_write_start(self) -> None:
        # a killed run may have left partial files in path; writing fresh
        # output ALONGSIDE them would commit duplicates — clear first
        if os.path.isdir(self.path):
            shutil.rmtree(self.path)
        os.makedirs(self.path)

    def write(self, blocks, ctx) -> Dict[str, int]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return _NO_ROWS
        out = pa.concat_tables(tables)
        # one file per task, named by task index: a retried task
        # overwrites its own file instead of adding a second one
        pq.write_table(out, os.path.join(self.path, f"part-{ctx.task_idx:05d}.parquet"))
        status, kind = out.column("extract_status"), out.column("doc_kind")

        def count(col, value) -> int:
            return pc.sum(pc.equal(col, value)).as_py() or 0

        return {
            "docs_in": out.num_rows,
            "docs_ok": count(status, "ok"),
            "docs_html": count(kind, "html"),
            "docs_pdf": count(kind, "pdf"),
            "parse_errors": count(status, "parse_error"),
            "checksum": rows_checksum(out.column("url").to_pylist(),
                                      out.column("n_chars").to_pylist()),
        }

    def on_write_complete(self, write_result) -> None:
        metrics = dict(_NO_ROWS)
        for r in write_result.write_returns:
            for k in _COUNTS:
                metrics[k] += r[k]
            metrics["checksum"] ^= r["checksum"]
        self.metrics = metrics


def run_extraction_job(
    input_files: Sequence[str],
    out_dir: str,
    files_per_partition: int = 16,
    **pipeline_kw,
) -> dict:
    """Checkpointed job: partitions of input files run as sequential
    commit points, each internally fully parallel; killed runs resume
    from the last committed partition (see state/manifest.py).

    Each partition is one Ray Data execution: read → extract → write.
    Its manifest metrics come from the write tasks, which count the
    rows they write; the manifest gives each input file's record the
    partition's totals (``docs_*`` counts, checksum) and the file's own
    row range.

    Returns summary metrics {partitions_total, partitions_skipped,
    docs_in, docs_ok, docs_html, docs_pdf, parse_errors}.
    """
    import ray.data

    manifest = Manifest(out_dir)
    plan = partition_plan(input_files, files_per_partition)
    skipped = 0
    totals = dict.fromkeys(_COUNTS, 0)

    for pid, files in enumerate(plan):
        if manifest.is_committed(pid):
            skipped += 1
            continue
        ds = ray.data.read_parquet(
            list(files), columns=["url", "warc_ts", "html", "lang"]
        )
        sink = _PartitionSink(manifest.tmp_dir(pid))
        extraction_pipeline(ds, **pipeline_kw).write_datasink(sink)
        manifest.commit(pid, files, sink.metrics)
        for k in _COUNTS:
            totals[k] += sink.metrics[k]

    return {
        "partitions_total": len(plan),
        "partitions_skipped": skipped,
        **totals,
    }
