"""Checkpoint manifest: per-partition lineage + metrics + resume.

The reference has no checkpointing (rerun = redo the document,
SURVEY.md §4.1); at 10^12-document scale a killed job must resume from
the last committed partition (north rule).  Design:

- a *partition* is a group of input files and the unit of commit.
  ``run_extraction_job`` reads every uncommitted partition's files in
  ONE streaming Ray Data execution.  Each task takes a run of the
  plan's files, reads, extracts and writes them, and puts one fragment
  per partition it touches into ``out_dir/_tmp/part-XXXXX``; it reports
  each fragment's counts as soon as the fragment is closed, and the
  driver commits a partition as soon as its written input rows reach
  the sum of its files' parquet footer row counts.  A partition whose
  files all fall to one task is one fragment
- before the commit, the job deletes every tmp file its tasks did
  not report (an orphan of a retried or killed task); the commit
  atomically renames ``_tmp/part-XXXXX`` to ``out_dir/part-XXXXX`` and
  writes one
  manifest record ``(partition_id, input_file, row_start, row_stop,
  checksum, docs_in, docs_ok, docs_html, docs_pdf, parse_errors,
  commit_ts)`` per input file (FIXTURES.md F6).  The ``docs_*`` counts
  and the checksum are the partition's totals; ``[row_start,
  row_stop)`` is the file's own row range within the partition, from
  its parquet footer, in plan order
- resume = check the manifest against the plan, then skip committed
  partitions.  Each committed partition's record must list the files
  the plan now gives it, with their current footer row counts, or the
  job raises ``ValueError`` naming the first file that differs (a
  changed input list or a rewritten input).  A partition
  is committed iff its record exists AND its final dir exists, so a
  crash between write and commit re-processes (idempotent: the job
  clears every uncommitted partition's tmp dir before it starts, and
  the rename replaces a final dir that has no record, never
  duplicates)
"""
from __future__ import annotations

import datetime as _dt
import itertools
import json
import os
import shutil
import zlib
from typing import Dict, List, Sequence

import pyarrow.parquet as pq

MANIFEST_DIR = "_manifest"
TMP_DIR = "_tmp"


def partition_plan(files: Sequence[str], files_per_partition: int) -> List[List[str]]:
    """Deterministic grouping of sorted input files into partitions."""
    files = sorted(files)
    return [
        list(files[i : i + files_per_partition])
        for i in range(0, len(files), files_per_partition)
    ]


def rows_checksum(urls: Sequence[str], n_chars: Sequence[int]) -> int:
    """Cheap order-insensitive content checksum (crc32 xor-sum)."""
    acc = 0
    for u, n in zip(urls, n_chars):
        acc ^= zlib.crc32(f"{u}:{n}".encode())
    return acc


def _describe(entry) -> str:
    return "no file" if entry is None else f"{entry[0]} ({entry[1]} rows)"


class Manifest:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.dir = os.path.join(out_dir, MANIFEST_DIR)
        os.makedirs(self.dir, exist_ok=True)

    # ------------------------------------------------------------- queries
    def record_path(self, partition_id: int) -> str:
        return os.path.join(self.dir, f"part-{partition_id:05d}.json")

    def partition_dir(self, partition_id: int) -> str:
        return os.path.join(self.out_dir, f"part-{partition_id:05d}")

    def tmp_dir(self, partition_id: int) -> str:
        return os.path.join(self.out_dir, TMP_DIR, f"part-{partition_id:05d}")

    def is_committed(self, partition_id: int) -> bool:
        return os.path.exists(self.record_path(partition_id)) and os.path.isdir(
            self.partition_dir(partition_id)
        )

    def committed_ids(self) -> List[int]:
        out = []
        for name in sorted(os.listdir(self.dir)):
            if name.startswith("part-") and name.endswith(".json"):
                pid = int(name[5:-5])
                if self.is_committed(pid):
                    out.append(pid)
        return out

    def records(self) -> List[Dict]:
        out = []
        for pid in self.committed_ids():
            with open(self.record_path(pid)) as f:
                out.extend(json.load(f))
        return out

    def check_plan(
        self, plan: Sequence[Sequence[str]], n_rows: Dict[str, int]
    ) -> None:
        """Raise ``ValueError`` unless each committed partition's record
        lists, in order, the files ``plan`` now gives that partition, with
        the row counts their footers now hold (``n_rows``).  Paths are
        compared as absolute paths.  The error names the first file that
        differs: a resume over a changed input list or a rewritten input
        would otherwise skip rows it never wrote and write rows twice.
        """
        for pid in self.committed_ids():
            with open(self.record_path(pid)) as f:
                was = [(os.path.abspath(r["input_file"]), r["row_stop"] - r["row_start"])
                       for r in json.load(f)]
            files = plan[pid] if pid < len(plan) else []
            now = [(os.path.abspath(p), n_rows[p]) for p in files]
            for old, new in itertools.zip_longest(was, now):
                if old != new:
                    raise ValueError(
                        f"partition {pid} was committed from {_describe(old)}, "
                        f"but the input now gives it {_describe(new)}; "
                        f"resume with the input it was committed from, "
                        f"or use a new output directory")

    # -------------------------------------------------------------- commit
    def commit(
        self,
        partition_id: int,
        input_files: Sequence[str],
        metrics: Dict,
    ) -> None:
        """Atomic publish: tmp dir → final dir, then manifest record.

        ``metrics`` carries the partition's docs_in/docs_ok/docs_html/
        docs_pdf/parse_errors/checksum, counted by the write tasks; each
        input file's row range is read from its parquet footer.
        """
        tmp, final = self.tmp_dir(partition_id), self.partition_dir(partition_id)
        if os.path.isdir(final):
            shutil.rmtree(final)  # crashed-after-rename rerun: replace
        os.rename(tmp, final)
        now = _dt.datetime.utcnow().isoformat()
        records = []
        row_start = 0
        for f in input_files:
            row_stop = row_start + pq.read_metadata(f).num_rows
            records.append({
                "partition_id": partition_id,
                "input_file": f,
                "row_start": row_start,
                "row_stop": row_stop,
                "checksum": format(metrics.get("checksum", 0), "08x"),
                "docs_in": metrics.get("docs_in", -1),
                "docs_ok": metrics.get("docs_ok", -1),
                "docs_html": metrics.get("docs_html", -1),
                "docs_pdf": metrics.get("docs_pdf", -1),
                "parse_errors": metrics.get("parse_errors", -1),
                "commit_ts": now,
            })
            row_start = row_stop
        path = self.record_path(partition_id)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w") as f:
            json.dump(records, f, indent=1)
        os.replace(tmp_path, path)
