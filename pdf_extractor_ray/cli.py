"""CLI entry point — the engine's analogue of the reference CLI
(reference: main.py:42-89) reshaped for ``ray job submit``:

    ray job submit -- python -m pdf_extractor_ray \\
        --input /data/pages/*.parquet --output /out/run1 \\
        --mode construction --files-per-partition 16

Modes (reference --standard/--construction flags → --mode):
- ``extract``      url → extracted_text + spans (+ counters)
- ``construction`` extract → construction items table
- ``standard``     extract → entities table

Two jobs are checkpointed: ``--mode extract`` on parquet input with
parquet output, and ``--mode web-prep``. Each partition of input files
commits atomically with lineage + metrics (state/manifest.py), and
rerunning the same command resumes from the last committed partition.
Every other mode and format is one Ray Data execution that writes its
output directly; rerun it from scratch.

This module OWNS its Ray session (guarded init) — the library never
calls ray.init().
"""
from __future__ import annotations

import argparse
import glob
import json
import sys
from typing import List


def _expand(patterns: List[str]) -> List[str]:
    files: List[str] = []
    for p in patterns:
        hits = sorted(glob.glob(p))
        if not hits and p.endswith(".parquet"):
            raise SystemExit(f"input not found: {p}")
        files.extend(hits or [p])
    out = []
    for f in files:
        if f.endswith(".parquet"):
            out.append(f)
        else:
            out.extend(sorted(glob.glob(f"{f}/*.parquet")))
    if not out:
        raise SystemExit("no input parquet files")
    return out


def _load_pages(args):
    """Input args → pages Dataset (parquet / raw files / warc)."""
    import ray.data

    if args.input_format == "files":
        from pdf_extractor_ray.sources.files import pages_from_files

        return pages_from_files(args.input)
    if args.input_format == "warc":
        from pdf_extractor_ray.sources.warc import pages_from_warc

        return pages_from_warc(args.input)
    return ray.data.read_parquet(
        _expand(args.input), columns=["url", "warc_ts", "html", "lang"]
    )


def _envelope_pipeline(mode: str):
    """Per-document RESULT-ENVELOPE pipeline for a mode (what one JSON
    file / one inspection holds), vs the exploded analysis tables the
    default pipelines emit."""
    from pdf_extractor_ray.pipelines.extraction import (
        construction_result_pipeline,
        extraction_pipeline,
        standard_result_pipeline,
    )

    return {
        "construction": construction_result_pipeline,
        "standard": standard_result_pipeline,
        "extract": extraction_pipeline,
    }[mode]


def _rows_written(out_dir: str) -> int:
    """Rows in the parquet files under ``out_dir``, from their footers —
    never re-executes the plan that wrote them."""
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows
               for f in sorted(glob.glob(f"{out_dir}/*.parquet")))


def _write_output(args, ds) -> dict:
    """Run the mode's pipeline over pages ``ds`` and write it in
    ``args.format``; returns the job's output counts."""
    from pdf_extractor_ray.pipelines.registry import get_pipeline

    if args.format == "json" and args.per_doc:
        from pdf_extractor_ray.pipelines.extraction import write_per_doc_json

        return {"files": write_per_doc_json(_envelope_pipeline(args.mode)(ds),
                                            args.output)}
    out = get_pipeline(args.mode)(ds)
    if args.format == "json":
        out.write_json(args.output)
        return {"files": len(glob.glob(f"{args.output}/*.json"))}
    if args.format == "wet":
        from pdf_extractor_ray.sources.warc import write_wet

        man = write_wet(out, args.output).to_pandas()
        return {"files": len(man), "records": int(man["n_records"].sum())}
    out.write_parquet(args.output)
    return {"rows": _rows_written(args.output)}


def _inspect(args) -> int:
    """Print ONE document's composed envelope to stdout — the engine's
    replacement for the demo's per-document tabbed inspection."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.pipelines.extraction import _envelope_dict

    url = args.inspect
    ds = _load_pages(args)

    def only_url(batch):
        return batch.filter(pc.equal(batch.column("url"), url))

    one = ds.map_batches(only_url, batch_format="pyarrow")
    mode = args.mode if args.mode != "corpus-prep" else "standard"
    rows = _envelope_pipeline(mode)(one).take(1)
    if not rows:
        print(json.dumps({"error": "url not found", "url": url}))
        return 2
    print(json.dumps(_envelope_dict(rows[0]), indent=2, ensure_ascii=False,
                     default=str))
    return 0


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="pdf_extractor_ray")
    ap.add_argument("--input", nargs="+", required=True,
                    help="parquet files/dirs/globs of pages (url, warc_ts, html, text, lang)")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--mode",
                    choices=("extract", "construction", "standard",
                             "corpus-prep", "web-prep", "index-build",
                             "index-append", "index-query"),
                    default="construction")
    ap.add_argument("--input-format",
                    choices=("parquet", "files", "warc", "csv", "jsonl"),
                    default="parquet",
                    help="'files' = directories of raw .pdf/.html files "
                    "(the reference's input shape, reference: main.py:65); "
                    "'warc' = Common-Crawl-style .warc/.warc.gz archives; "
                    "'csv'/'jsonl' = document tables (corpus-prep mode)")
    ap.add_argument("--files-per-partition", type=int, default=16)
    ap.add_argument("--format", choices=("parquet", "json", "wet"),
                    default="parquet",
                    help="output format (json = reference-compat view, "
                    "reference: extractor/utils/helpers.py:9-21; wet = "
                    "Common-Crawl-style WET shards of extracted text, "
                    "one gzip member per conversion record)")
    ap.add_argument("--per-doc", action="store_true",
                    help="with --format json: write ONE '<stem>_extracted.json' "
                    "per document (reference filename parity, reference: "
                    "main.py:27-39) holding the composed result envelope")
    ap.add_argument("--inspect", metavar="URL", default=None,
                    help="print one document's composed result envelope as JSON "
                    "to stdout and exit (the demo_streamlit per-document "
                    "inspection surface, reference: demo_streamlit.py:117-225)")
    ap.add_argument("--index", default=None,
                    help="LSH index directory: the OUTPUT of --mode "
                    "index-build, the TARGET of index-append, the "
                    "SOURCE for index-query (near-dup pairs of the "
                    "input batch vs the indexed corpus go to --output)")
    ap.add_argument("--emit-wet", action="store_true",
                    help="with --mode web-prep: also publish the survivor "
                    "corpus as Common-Crawl-style WET shards")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="override ray.init num_cpus (default: all)")
    args = ap.parse_args(argv)

    import ray

    started_ray = False
    if not ray.is_initialized():
        kw = {"include_dashboard": False}
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(address="local", **kw)
        started_ray = True

    if args.inspect is not None:
        rc = _inspect(args)
        if started_ray:
            ray.shutdown()
        return rc

    if args.mode == "web-prep":
        # end-to-end pages → extraction → gate → global dedup, with
        # phase-1 per-partition checkpointing (resume skips committed
        # partitions; the global dedup re-runs over gated survivors)
        from pdf_extractor_ray.pipelines.web_prep import run_web_prep_job

        metrics = run_web_prep_job(
            _expand(args.input), args.output,
            files_per_partition=args.files_per_partition,
            emit_wet=args.emit_wet,
        )
        print(json.dumps({"mode": args.mode, **metrics}))
        if started_ray:
            ray.shutdown()
        return 0

    if args.mode in ("index-build", "index-append", "index-query"):
        # the persisted-LSH-index recrawl loop (functions/lsh_index.py):
        # build the historical index once, append deduped batches,
        # query each new batch for near-dups vs the indexed corpus
        import ray.data

        from pdf_extractor_ray.functions.lsh_index import (append_lsh_index,
                                                           build_lsh_index,
                                                           query_lsh_index)

        docs = ray.data.read_parquet(_expand(args.input))
        if args.mode == "index-build":
            target = args.index or args.output
            meta = build_lsh_index(docs, target)
            print(json.dumps({"mode": args.mode, "index": target, **meta}))
        elif args.mode == "index-append":
            if not args.index:
                ap.error("--mode index-append requires --index")
            meta = append_lsh_index(docs, args.index)
            print(json.dumps({"mode": args.mode, "index": args.index,
                              **meta}))
        else:
            if not args.index:
                ap.error("--mode index-query requires --index")
            pairs = query_lsh_index(docs, args.index)
            pairs.write_parquet(args.output)
            print(json.dumps({"mode": args.mode, "index": args.index,
                              "output": args.output,
                              "pairs": _rows_written(args.output)}))
        if started_ray:
            ray.shutdown()
        return 0

    if args.mode == "corpus-prep":
        # training-corpus preparation over a documents table
        # (doc_id, text, lang): quality gate -> exact dedup -> MinHash
        # near-dup removal, written as partitioned parquet
        import ray.data

        from pdf_extractor_ray.pipelines.corpus_prep import corpus_prep_pipeline

        if args.input_format == "csv":
            from pdf_extractor_ray.sources.text_table import documents_from_csv

            docs = documents_from_csv(args.input)
        elif args.input_format == "jsonl":
            from pdf_extractor_ray.sources.text_table import documents_from_jsonl

            docs = documents_from_jsonl(args.input)
        else:
            docs = ray.data.read_parquet(_expand(args.input))
        out = corpus_prep_pipeline(docs)
        out.write_parquet(args.output)
        print(json.dumps({"mode": args.mode, "output": args.output,
                          "rows": _rows_written(args.output)}))
        if started_ray:
            ray.shutdown()
        return 0

    if (args.mode == "extract" and args.input_format == "parquet"
            and args.format == "parquet"):
        from pdf_extractor_ray.pipelines.extraction import run_extraction_job

        metrics = run_extraction_job(
            _expand(args.input), args.output,
            files_per_partition=args.files_per_partition,
        )
    else:
        metrics = _write_output(args, _load_pages(args))

    print(json.dumps({"mode": args.mode, "output": args.output, **metrics}))
    if started_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
