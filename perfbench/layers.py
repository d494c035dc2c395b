"""Single-process replay of the checkpointed extract job, with per-layer timing.

``replay`` walks the job the way ``run_extraction_job`` does — partition
plan, manifest skip, read, extract batch by batch at the pipeline's
batch size, write, checksum, commit — but in this process and without
Ray, calling each layer's public entry point.  With a ``Tracer`` it
times every layer; without one it is the untraced baseline that the
traced replay is compared against.

Tracing wraps, for the duration of a replay only, the public callables
``extract_unified_batch`` reaches: ``stages.extract.gunzip_payloads``,
the ``sniff_doc_kind`` the pipeline module calls, and each extract
stage's ``__call__``, which swaps the stage's ``.codec`` for a timing
proxy while it runs.  Stage time minus codec time is the batch-assembly
time; ``extract_unified_batch`` time minus sniff and stage time is the
dispatch time.
"""
from __future__ import annotations

import contextlib
import inspect
import os
import shutil
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import pdf_extractor_ray.pipelines.extraction as extraction
import pdf_extractor_ray.stages.extract as stages
from pdf_extractor_ray.state.manifest import Manifest, partition_plan, rows_checksum

from corpus import INPUT_COLUMNS

BATCH_SIZE = inspect.signature(extraction.extraction_pipeline).parameters[
    "batch_size"].default
CODECS = ("codecs.html_codec", "codecs.pdf_codec")
MB = 1e6


class Tracer:
    """Busy seconds and counts per layer, plus per-document codec times."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.doc_s: Dict[str, List[float]] = defaultdict(list)

    def doc(self, layer: str, seconds: float, nbytes: int, result) -> None:
        self.doc_s[layer].append(seconds)
        self.busy[layer] += seconds
        self.count[layer + ".bytes"] += nbytes
        self.count[layer + ".ok"] += result.status == "ok"
        self.count[layer + ".errors"] += result.status == "parse_error"
        self.count[layer + ".pages"] += len(getattr(result, "pages", ()))


class _CodecProxy:
    def __init__(self, codec, tracer: Tracer, layer: str) -> None:
        self.codec, self.tracer, self.layer = codec, tracer, layer

    def extract(self, payload):
        t = time.perf_counter()
        r = self.codec.extract(payload)
        self.tracer.doc(self.layer, time.perf_counter() - t, len(payload), r)
        return r


def _timed(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kw):
        t = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            tracer.busy[key] += time.perf_counter() - t
    return wrapper


def _traced_gunzip(tracer: Tracer, fn):
    timed = _timed(tracer, "gunzip", fn)

    def wrapper(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            gz = pc.equal(pc.binary_slice(batch.column("html"), 0, 2), b"\x1f\x8b")
            tracer.count["gunzip_rows"] += pc.sum(pc.fill_null(gz, False)).as_py() or 0
        tracer.count["rows"] += batch.num_rows
        return timed(batch)
    return wrapper


def _traced_stage(tracer: Tracer, layer: str, call):
    def wrapper(self, batch):
        real = self.codec
        self.codec = _CodecProxy(real, tracer, layer)
        t = time.perf_counter()
        try:
            return call(self, batch)
        finally:
            tracer.busy["stage"] += time.perf_counter() - t
            self.codec = real
    return wrapper


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer]):
    """Wrap the layer entry points for the duration of one replay."""
    if tracer is None:
        yield
        return
    swaps = [
        (stages, "gunzip_payloads", _traced_gunzip(tracer, stages.gunzip_payloads)),
        (extraction, "sniff_doc_kind",
         _timed(tracer, "sniff", extraction.sniff_doc_kind)),
        (stages.HtmlExtractStage, "__call__",
         _traced_stage(tracer, CODECS[0], stages.HtmlExtractStage.__call__)),
        (stages.PdfExtractStage, "__call__",
         _traced_stage(tracer, CODECS[1], stages.PdfExtractStage.__call__)),
    ]
    saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in swaps]
    try:
        for obj, name, fn in swaps:
            setattr(obj, name, fn)
        yield
    finally:
        for obj, name, fn in saved:
            setattr(obj, name, fn)


def replay(files: Sequence[str], out_dir: str, files_per_partition: int,
           tracer: Optional[Tracer] = None) -> dict:
    """In-process twin of ``run_extraction_job``; returns its wall time."""
    tr = tracer or Tracer()  # untraced: only the coarse spans are kept
    t_all = time.perf_counter()
    manifest = Manifest(out_dir)
    docs = skipped = 0
    with tracing(tracer):
        for pid, pfiles in enumerate(partition_plan(files, files_per_partition)):
            if manifest.is_committed(pid):
                skipped += 1
                continue
            tmp = manifest.tmp_dir(pid)
            if os.path.isdir(tmp):
                shutil.rmtree(tmp)
            os.makedirs(tmp)

            t = time.perf_counter()
            table = pa.concat_tables(
                pq.read_table(f, columns=INPUT_COLUMNS) for f in pfiles)
            tr.busy["read"] += time.perf_counter() - t
            tr.count["read_bytes"] += sum(os.path.getsize(f) for f in pfiles)

            outs = []
            for i in range(0, table.num_rows, BATCH_SIZE):
                t = time.perf_counter()
                outs.append(extraction.extract_unified_batch(
                    table.slice(i, BATCH_SIZE)))
                tr.busy["unified"] += time.perf_counter() - t
            out = pa.concat_tables(outs)

            t = time.perf_counter()
            path = os.path.join(tmp, "part-0.parquet")
            pq.write_table(out, path)
            tr.busy["write"] += time.perf_counter() - t
            tr.count["write_bytes"] += os.path.getsize(path)

            t = time.perf_counter()
            checksum = rows_checksum(out.column("url").to_pylist(),
                                     out.column("n_chars").to_pylist())
            tr.busy["checksum"] += time.perf_counter() - t

            status = out.column("extract_status")
            kind = out.column("doc_kind")
            metrics = {
                "docs_in": out.num_rows,
                "docs_ok": pc.sum(pc.equal(status, "ok")).as_py() or 0,
                "docs_html": pc.sum(pc.equal(kind, "html")).as_py() or 0,
                "docs_pdf": pc.sum(pc.equal(kind, "pdf")).as_py() or 0,
                "parse_errors": pc.sum(pc.equal(status, "parse_error")).as_py() or 0,
                "checksum": checksum,
            }
            t = time.perf_counter()
            manifest.commit(pid, pfiles, metrics)
            tr.busy["commit"] += time.perf_counter() - t
            tr.count["commits"] += 1
            docs += out.num_rows
    return {"wall_s": time.perf_counter() - t_all, "docs": docs, "skipped": skipped}


def _ms_pct(seconds: List[float], q: float) -> float:
    if not seconds:
        return 0.0
    s = sorted(seconds)
    return 1e3 * s[min(len(s) - 1, int(q * len(s)))]


def layer_metrics(tr: Tracer, run: dict) -> Dict[str, float]:
    """Per-layer metrics (name → value) from one traced replay."""
    b, c = tr.busy, tr.count
    codec_busy = sum(b[k] for k in CODECS)
    m: Dict[str, float] = {
        "sources.read_s": b["read"],
        "sources.read_mb": c["read_bytes"] / MB,
        "stages.extract.gunzip_s": b["gunzip"],
        "stages.extract.gunzip_rows": c["gunzip_rows"],
        "stages.extract.sniff_s": b["sniff"] - b["gunzip"],
        "stages.extract.assemble_s": b["stage"] - codec_busy,
        "stages.extract.rows": c["rows"],
    }
    for layer in CODECS:
        docs = len(tr.doc_s[layer])
        mb = c[layer + ".bytes"] / MB
        m.update({
            f"{layer}.busy_s": b[layer],
            f"{layer}.docs": docs,
            f"{layer}.mb": mb,
            f"{layer}.mb_per_s": mb / b[layer] if b[layer] else 0.0,
            f"{layer}.doc_p50_ms": _ms_pct(tr.doc_s[layer], 0.50),
            f"{layer}.doc_p99_ms": _ms_pct(tr.doc_s[layer], 0.99),
            f"{layer}.doc_max_ms": _ms_pct(tr.doc_s[layer], 1.0),
            f"{layer}.ok_ratio": c[layer + ".ok"] / docs if docs else 0.0,
            f"{layer}.errors": c[layer + ".errors"],
        })
    m["codecs.pdf_codec.pages"] = c["codecs.pdf_codec.pages"]
    m.update({
        "pipelines.extraction.dispatch_s": b["unified"] - b["sniff"] - b["stage"],
        "pipelines.extraction.write_s": b["write"],
        "pipelines.extraction.write_mb": c["write_bytes"] / MB,
        "state.manifest.commit_s": b["commit"],
        "state.manifest.commits": c["commits"],
        "state.manifest.checksum_s": b["checksum"],
        "state.manifest.skipped": run["skipped"],
    })
    return m


# busy-time metrics that together make up one replay (no double counting)
LAYER_BUSY = (
    "sources.read_s", "stages.extract.gunzip_s", "stages.extract.sniff_s",
    "stages.extract.assemble_s", "codecs.html_codec.busy_s",
    "codecs.pdf_codec.busy_s", "pipelines.extraction.dispatch_s",
    "pipelines.extraction.write_s", "state.manifest.commit_s",
    "state.manifest.checksum_s",
)


def median_pass(passes: List[dict]) -> dict:
    """The pass whose wall time is the median (keeps its layers consistent)."""
    walls = sorted(p["wall_s"] for p in passes)
    mid = walls[(len(walls) - 1) // 2]
    return next(p for p in passes if p["wall_s"] == mid)
