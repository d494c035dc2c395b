"""Extraction stages: content sniff router + HTML/PDF codec stages.

All stages are ``map_batches`` callables over ``batch_format='pyarrow'``
batches.  The sniff is vectorized (Arrow kernel on the binary prefix,
generalizing the reference's first-page sniff at
reference: extractor/extractors/pdf_text_extractor.py:114-125); the
codecs are per-row Python (inherently — they parse byte payloads) but
batch in/out stays Arrow so blocks move zero-copy.

Stage shape (SURVEY.md §7.3):
- sniff + HTML codec: stateless tasks (pattern bank compiles in
  ``__init__`` once per worker — warm-state analogue A3)
- PDF codec: actor pool (``concurrency=(min,max)``, small
  ``batch_size``) so per-instance caches amortize and giant-PDF skew
  is spread across actors (A4 / north rule)
"""
from __future__ import annotations

from typing import List

import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.html_codec import HtmlCodec
from ..codecs.pdf_codec import PdfCodec
from ..schemas import PAGE_STRUCT_TYPE, SPAN_TYPE, TABLES_TYPE

PDF_MAGIC = b"%PDF-"


def gunzip_payloads(batch: pa.Table) -> pa.Table:
    """Transparently decompress gzip-wrapped payloads (Content-Encoding
    of real crawl bodies): a vectorized magic-prefix check flags gzip
    rows; only those pay the per-row decompress.  Undecompressable
    rows fall through unchanged (they degrade downstream like any
    other malformed payload — never an error)."""
    import gzip

    payload = batch.column("html")
    if batch.num_rows == 0:
        return batch
    is_gz = pc.equal(pc.binary_slice(payload, 0, 2), b"\x1f\x8b")
    if not pc.any(pc.fill_null(is_gz, False)).as_py():
        return batch
    mask = is_gz.to_pylist()
    vals = payload.to_pylist()
    out = []
    for flag, v in zip(mask, vals):
        if flag and v:
            try:
                v = gzip.decompress(v)
            except Exception:
                pass
        out.append(v)
    idx = batch.column_names.index("html")
    return batch.set_column(idx, "html", pa.array(out, pa.large_binary()))


def sniff_doc_kind(batch: pa.Table) -> pa.Table:
    """Add ``doc_kind`` ('pdf' | 'html' | 'unknown') from payload magic.

    Vectorized: one ``binary_slice`` + equality over the whole batch.
    Gzip-wrapped payloads (crawl Content-Encoding) are transparently
    decompressed FIRST, so the magic sniff and every downstream codec
    see the true bytes.  Empty/null payloads route to 'unknown'.
    Idempotent: an existing ``doc_kind`` column is recomputed, not
    duplicated.
    """
    batch = gunzip_payloads(batch)
    if "doc_kind" in batch.column_names:
        batch = batch.drop_columns(["doc_kind"])
    payload = batch.column("html")
    prefix = pc.binary_slice(payload, 0, 5)
    is_pdf = pc.equal(prefix, PDF_MAGIC)
    empty = pc.equal(pc.binary_length(payload), 0)
    null_or_empty = pc.or_kleene(pc.is_null(payload), empty)
    kind = pc.if_else(
        pc.fill_null(null_or_empty, True),
        pa.scalar("unknown"),
        pc.if_else(pc.fill_null(is_pdf, False), pa.scalar("pdf"), pa.scalar("html")),
    )
    return batch.append_column("doc_kind", kind)


def _spans_array(spans_per_row: List[List[tuple]]) -> pa.Array:
    """Per-row ``(block_id, start, stop, kind)`` tuples → ``list<SPAN_TYPE>``,
    built column-wise from flat arrays."""
    offsets = [0]
    flat: List[tuple] = []
    for row_spans in spans_per_row:
        flat.extend(row_spans)
        offsets.append(len(flat))
    # one column per field; zip(*flat) would allocate an iterator per span
    values = pa.StructArray.from_arrays(
        [pa.array([t[i] for t in flat], f.type) for i, f in enumerate(SPAN_TYPE)],
        fields=list(SPAN_TYPE),
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


class _ExtractBase:
    """Shared batch assembly for both codec stages."""

    emit_pages: bool

    def _assemble(
        self,
        batch: pa.Table,
        kinds: List[str],
        texts: List[str],
        spans: List[List[tuple]],
        statuses: List[str],
        n_pages: List[int],
        n_blocks: List[int],
        n_words: List[int],
        pages: List[List[dict]],
        tables: List[List[list]],
    ) -> pa.Table:
        text_arr = pa.array(texts, pa.large_string())
        cols = {
            "url": batch.column("url"),
            "doc_kind": pa.array(kinds, pa.string()),
            "extracted_text": text_arr,
            "spans": _spans_array(spans),
            "extract_status": pa.array(statuses, pa.string()),
            "n_pages": pa.array(n_pages, pa.int32()),
            "n_blocks": pa.array(n_blocks, pa.int32()),
            "n_chars": pc.cast(pc.utf8_length(text_arr), pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
        }
        if self.emit_pages:
            cols["pages"] = pa.array(pages, pa.list_(PAGE_STRUCT_TYPE))
            cols["tables"] = pa.array(tables, pa.list_(TABLES_TYPE))
        out = pa.table(cols)
        # carry through any extra input columns the pipeline wants kept
        for name in ("warc_ts", "lang", "text", "expected_status", "expected_kind"):
            if name in batch.column_names and name not in out.column_names:
                if name == "text":
                    out = out.append_column("golden_text", batch.column("text"))
                else:
                    out = out.append_column(name, batch.column(name))
        return out


class HtmlExtractStage(_ExtractBase):
    """HTML boilerplate strip over a batch.  Stateless tasks."""

    def __init__(self, emit_pages: bool = False) -> None:
        self.codec = HtmlCodec()
        self.emit_pages = emit_pages

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, spans, statuses, n_blocks, n_words, pages, tables = (
            [], [], [], [], [], [], [],
        )
        kinds = []
        for payload in batch.column("html").to_pylist():
            if not payload:
                kinds.append("unknown")
                texts.append("")
                spans.append([])
                statuses.append("empty")
                n_blocks.append(0)
                n_words.append(0)
                if self.emit_pages:
                    pages.append([])
                    tables.append([])
                continue
            r = self.codec.extract(payload)
            kinds.append("html")
            texts.append(r.text)
            spans.append(r.spans)
            statuses.append(r.status)
            n_blocks.append(r.n_blocks)
            n_words.append(r.n_words)
            if self.emit_pages:
                # HTML document = one logical page (reference page records
                # generalize; width/height meaningless for web pages)
                pages.append(
                    [{"page_num": 1, "text": r.text, "width": 0.0, "height": 0.0}]
                )
                tables.append([r.tables])
        return self._assemble(
            batch, kinds, texts, spans, statuses,
            [1] * len(texts), n_blocks, n_words, pages, tables,
        )


class PageMetaStage:
    """HTML head-metadata extraction over a batch: page ``title``,
    ``description`` (meta name=description), ``canonical_url``
    (link rel=canonical), ``html_lang`` (<html lang>), ``og_title``
    (og:title property) and ``robots`` (meta name=robots directives,
    lower-cased) — the crawler-side metadata channel the body codec
    deliberately ignores.  Stateless tasks; headless / non-HTML
    payloads yield all-null columns (never an error: crawled heads are
    the most malformed HTML there is).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.html_codec import extract_meta

        fields = ("title", "description", "canonical_url", "html_lang",
                  "og_title", "robots")
        cols: dict = {k: [] for k in fields}
        for payload in batch.column("html").to_pylist():
            meta = extract_meta(payload) if payload else {}
            for k in fields:
                cols[k].append(meta.get(k))
        out = {"url": batch.column("url")}
        for k in fields:
            out[k] = pa.array(cols[k], pa.string())
        return pa.table(out)


class PageStructureStage:
    """HTML DOM-structure stats over a batch: counts of the
    content-bearing tags (p/a/table/tr/th/td) + max nesting depth —
    the crawler-side page-shape profile (template detection, table
    density, boilerplate share all start here).  Stateless tasks;
    tagless payloads yield all-zero rows."""

    FIELDS = ("n_p", "n_a", "n_table", "n_tr", "n_th", "n_td", "max_depth")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.html_codec import structure_stats

        cols: dict = {k: [] for k in self.FIELDS}
        for payload in batch.column("html").to_pylist():
            s = structure_stats(payload) if payload else {}
            for k in self.FIELDS:
                cols[k].append(s.get(k, 0))
        out = {"url": batch.column("url")}
        for k in self.FIELDS:
            out[k] = pa.array(cols[k], pa.int64())
        return pa.table(out)


class PdfMetaStage:
    """PDF document-information metadata over a batch: trailer /Info
    Title/Author/Subject/Keywords/Creator/Producer — the PDF-channel
    counterpart of :class:`PageMetaStage` (provenance/title indexing for
    crawled PDFs).  Stateless tasks; non-PDF / broken payloads yield
    all-null columns."""

    FIELDS = ("title", "author", "subject", "keywords", "creator", "producer")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.pdf_codec import extract_info

        cols: dict = {k: [] for k in self.FIELDS}
        for payload in batch.column("html").to_pylist():
            meta = extract_info(payload) if payload else {}
            for k in self.FIELDS:
                cols[k].append(meta.get(k))
        out = {"url": batch.column("url")}
        for k in self.FIELDS:
            out[k] = pa.array(cols[k], pa.string())
        return pa.table(out)


class PdfExtractStage(_ExtractBase):
    """PDF layout parse over a batch.  Run as an ACTOR POOL:

        ds.map_batches(PdfExtractStage, concurrency=(2, N),
                       batch_size=16, batch_format="pyarrow")

    so codec instances (and their font-cache slots) persist across
    batches, and giant-PDF skew is spread across many small batches.
    """

    def __init__(self, emit_pages: bool = False, extract_tables: bool = True) -> None:
        self.codec = PdfCodec(extract_tables=extract_tables)
        self.emit_pages = emit_pages

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, spans, statuses, n_pages, n_blocks, pages, tables = (
            [], [], [], [], [], [], [],
        )
        for payload in batch.column("html").to_pylist():
            r = self.codec.extract(payload or b"")
            texts.append(r.text)
            spans.append(r.spans)
            statuses.append(r.status)
            n_pages.append(len(r.pages))
            n_blocks.append(len(r.spans))
            if self.emit_pages:
                pages.append(
                    [
                        {
                            "page_num": p.page_num,
                            "text": p.text,
                            "width": p.width,
                            "height": p.height,
                        }
                        for p in r.pages
                    ]
                )
                tables.append([p.tables for p in r.pages])
        return self._assemble(
            batch, ["pdf"] * len(texts), texts, spans, statuses, n_pages,
            n_blocks, [len(t.split()) for t in texts], pages, tables,
        )
