"""Pipeline builders: sniff → route → codecs → downstream.

Engine lifecycle shape (SURVEY.md §3.4, single-pass dispatch):

    read_parquet(input files)
      → map_batches(extract_unified)   # sniff + per-row codec dispatch
      → items / entities / stats / write

One architecture, **unified** single-pass dispatch: ONE task-based
``map_batches`` stage sniffs the batch and routes rows to the HTML/PDF
codec inside the task.  Codec instances (pattern banks, font caches)
are module-level worker-process globals — Ray reuses worker processes
across tasks, so warm state amortizes exactly like an actor pool
without the object-store round-trip per batch.  Measured at 32 CPUs on
a 40k-doc corpus (bench, 2026-08): 22.4k docs/s, against 5.8k for the
former sniff → filter×2 → HTML tasks ∪ PDF actor-pool plan, which was
removed: its only use was a long-lived OCR/model actor, and extraction
here is deterministic parsing.

``run_extraction_job`` runs the stage as one streaming execution per
job: ``from_items`` over the plan's ``(pid, path)`` rows, then one
``map_batches`` operator whose tasks each read their share of the input
files themselves, extract it and write one fragment per partition, so
payload bytes never enter the object store and Ray Data plans no read
(no dataset of file fragments, no sampling tasks).  The driver commits
partition by partition as the tasks report them.

Skew note (north rule): the codecs take a slice at a time, which ends
at ``_BATCH_SIZE`` rows or at ``_BATCH_BYTES`` of payload, whichever
comes first, and a row over the byte budget rides alone.  So a giant
document holds up one small slice, and a worker's memory follows the
budget, not the input's layout or its largest rows; no all-to-all
repartition is needed, which matters at 100 TB where a shuffle of the
payload column would move the whole corpus.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import shutil
from typing import Dict, Iterator, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.extract import HtmlExtractStage, PdfExtractStage, sniff_doc_kind
from ..stages.parse import EntitiesStage, ItemsStage
from ..state.manifest import Manifest, partition_plan, rows_checksum

# module-level instances: compile-once-per-worker-process warm state
# for the task path (SURVEY.md §7.3 / A3-A4 analogue)
_STAGES: Dict[object, object] = {}

# rows the codecs take at a time: small enough that a giant document
# holds up one small slice, not a whole block
_BATCH_SIZE = 128


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


def extraction_pipeline(
    pages_ds,
    emit_pages: bool = False,
    batch_size: int = _BATCH_SIZE,
):
    """pages Dataset → extraction Dataset (EXTRACT_SCHEMA [+pages])."""
    fn = extract_unified_batch_pages if emit_pages else extract_unified_batch
    return pages_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


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
                # default=str: extract-mode records carry warc_ts
                _json.dump(payload, f, indent=2, ensure_ascii=False, default=str)
            os.replace(tmp, os.path.join(out_dir, name))  # atomic commit
            n_written += 1
        return pa.table({"n": pa.array([n_written], pa.int64())})

    t = result_ds.map_batches(write_batch, batch_format="pyarrow").to_pandas()
    return int(t["n"].sum())


# ---------------------------------------------------------------- job runner
_COUNTS = ("docs_in", "docs_ok", "docs_html", "docs_pdf", "parse_errors")
_NO_ROWS = {**dict.fromkeys(_COUNTS, 0), "checksum": 0}
_FRAGMENT_METRICS = pa.schema(
    [("pid", pa.int64()), ("fragment", pa.string())]
    + [(k, pa.int64()) for k in (*_COUNTS, "checksum")]
)
_INPUT_COLUMNS = ["url", "warc_ts", "html", "lang"]

# payload bytes the codecs take at a time: a slice also ends before the
# row that would take it past this budget, so a worker's memory follows
# the budget and not the sizes of the input's rows
_BATCH_BYTES = 1 << 20


def _slices(files: Sequence[str]) -> Iterator[pa.Table]:
    """The rows of ``files``, in order, cut into codec slices.

    A slice ends at ``_BATCH_SIZE`` rows or before the row that would take
    its payload (``html``) bytes past ``_BATCH_BYTES``, whichever comes
    first; a row over the budget rides alone.  Slices run across file
    boundaries.
    """
    carry = None
    for path in files:
        with pq.ParquetFile(path) as f:
            for rb in f.iter_batches(columns=_INPUT_COLUMNS):
                t = pa.Table.from_batches([rb])
                if carry is not None:
                    t = pa.concat_tables([carry, t], promote_options="permissive")
                sizes = pc.fill_null(pc.binary_length(t.column("html")), 0)
                ends = np.concatenate([[0], np.cumsum(sizes.to_numpy())])
                start, n = 0, t.num_rows
                while start < n:
                    fit = int(np.searchsorted(ends, ends[start] + _BATCH_BYTES, "right")) - 1
                    stop = max(min(start + _BATCH_SIZE, n, fit), start + 1)
                    if stop == n and stop - start < _BATCH_SIZE:
                        break  # the next batch's rows may still fit
                    yield t.slice(start, stop - start)
                    start = stop
                carry = t.slice(start)
    if carry is not None and carry.num_rows:
        yield carry


def _metrics(out: pa.Table) -> Dict[str, int]:
    """The ``docs_*`` counts (one row in per row out) and the checksum."""
    def count(col, value) -> int:
        return pc.sum(pc.equal(out.column(col), value)).as_py() or 0

    return {
        "docs_in": out.num_rows,
        "docs_ok": count("extract_status", "ok"),
        "docs_html": count("doc_kind", "html"),
        "docs_pdf": count("doc_kind", "pdf"),
        "parse_errors": count("extract_status", "parse_error"),
        "checksum": rows_checksum(out.column("url").to_pylist(),
                                  out.column("n_chars").to_pylist()),
    }


def _extract_share(share: pa.Table, tmp_dirs: Dict[int, str]) -> Iterator[pa.Table]:
    """Extract one task's share of the plan and write it, partition by partition.

    ``share`` is a run of the plan's ``(pid, path)`` rows in plan order.
    Each partition's files go through the codecs in ``_slices`` and into
    one fragment in ``tmp_dirs[pid]``, named by a digest of those paths,
    so a retried task overwrites its own fragment.  As soon as the
    fragment is closed, yields its metrics row: partition, fragment name,
    the ``docs_*`` counts and the rows' checksum.
    """
    rows = zip(share.column("pid").to_pylist(), share.column("path").to_pylist())
    for pid, group in itertools.groupby(rows, key=lambda r: r[0]):
        files = [path for _, path in group]
        digest = hashlib.sha1("\0".join(files).encode()).hexdigest()
        fragment = f"{digest[:24]}.parquet"
        outs = (_extract_unified(s, emit_pages=False) for s in _slices(files))
        first = next(outs)
        acc = {"pid": pid, "fragment": fragment, **_NO_ROWS}
        with pq.ParquetWriter(os.path.join(tmp_dirs[pid], fragment),
                              first.schema) as writer:
            for out in itertools.chain([first], outs):
                writer.write_table(out)
                m = _metrics(out)
                for k in _COUNTS:
                    acc[k] += m[k]
                acc["checksum"] ^= m["checksum"]
        yield pa.Table.from_pylist([acc], schema=_FRAGMENT_METRICS)


def run_extraction_job(
    input_files: Sequence[str],
    out_dir: str,
    files_per_partition: int = 16,
) -> dict:
    """Checkpointed job: one streaming Ray Data execution over every
    uncommitted input file, committed partition by partition as it goes;
    a killed run resumes at partition granularity (see state/manifest.py).

    Before anything runs, every committed partition's manifest record
    must list the files the plan now gives it, with their current footer
    row counts; otherwise the job raises ``ValueError`` naming the first
    file that differs.

    The execution is ``from_items`` over the plan's ``(pid, path)`` rows
    of the uncommitted files that hold rows, in plan order, cut into as
    many blocks as the smaller of those files and the cluster's CPUs,
    then one ``map_batches`` step (``_extract_share``) that takes a whole
    block: each task reads its share of the files itself, extracts it
    and writes one fragment per partition it touches.  The driver folds
    the fragments' metrics rows per partition and commits a partition as
    soon as its written rows reach the sum of its files' footer row
    counts.
    Partitions whose files hold no rows commit at once without being
    read; with nothing left to run, no Ray execution starts.  The
    manifest gives each input file's record the partition's totals
    (``docs_*`` counts, checksum) and the file's own row range.

    Returns summary metrics {partitions_total, partitions_skipped,
    docs_in, docs_ok, docs_html, docs_pdf, parse_errors}.
    """
    manifest = Manifest(out_dir)
    plan = partition_plan(input_files, files_per_partition)
    n_rows = {f: pq.read_metadata(f).num_rows for files in plan for f in files}
    manifest.check_plan(plan, n_rows)
    todo = {pid: files for pid, files in enumerate(plan)
            if not manifest.is_committed(pid)}
    skipped = len(plan) - len(todo)
    totals = dict.fromkeys(_COUNTS, 0)

    def commit(pid: int, metrics: Dict[str, int]) -> None:
        manifest.commit(pid, todo.pop(pid), metrics)
        for k in _COUNTS:
            totals[k] += metrics[k]

    expected: Dict[int, int] = {}
    tmp_dirs: Dict[int, str] = {}
    items: list = []
    for pid, files in todo.items():
        tmp = tmp_dirs[pid] = manifest.tmp_dir(pid)
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)  # a killed run's fragments
        os.makedirs(tmp)
        expected[pid] = sum(n_rows[f] for f in files)
        items += [{"pid": pid, "path": f} for f in files if n_rows[f]]
    for pid in [p for p, n in expected.items() if n == 0]:
        commit(pid, _NO_ROWS)

    if todo:
        import ray
        import ray.data

        acc = {pid: {**_NO_ROWS, "fragments": set()} for pid in todo}
        cpus = int(ray.cluster_resources().get("CPU", 1))
        stream = ray.data.from_items(
            items, override_num_blocks=min(len(items), cpus),
        ).map_batches(
            _extract_share,
            fn_kwargs={"tmp_dirs": tmp_dirs},
            batch_format="pyarrow",
            batch_size=None,
        )
        # each metrics row is its own output block, so it reaches the
        # driver when its fragment closes, not when its task ends
        stream.context.target_max_block_size = 1
        for batch in stream.iter_batches(batch_format="pyarrow", batch_size=None):
            for r in batch.to_pylist():
                pid = r["pid"]
                a = acc[pid]
                if r["fragment"] in a["fragments"]:
                    raise RuntimeError(
                        f"partition {pid}: two fragments named {r['fragment']}")
                a["fragments"].add(r["fragment"])
                for k in _COUNTS:
                    a[k] += r[k]
                a["checksum"] ^= r["checksum"]
                if a["docs_in"] > expected[pid]:
                    raise RuntimeError(
                        f"partition {pid}: {a['docs_in']} rows written, "
                        f"{expected[pid]} in its input files")
                if a["docs_in"] == expected[pid]:
                    # an unreported file is an orphan of a retried task
                    for name in set(os.listdir(tmp_dirs[pid])) - a["fragments"]:
                        os.remove(os.path.join(tmp_dirs[pid], name))
                    commit(pid, a)
        if todo:
            raise RuntimeError(
                f"partitions {sorted(todo)} ended short of their input rows")

    return {
        "partitions_total": len(plan),
        "partitions_skipped": skipped,
        **totals,
    }
