"""Golden gate: join a job's committed output to the generator's goldens."""
from __future__ import annotations

import glob
import hashlib
import os
from typing import Dict

import pyarrow as pa
import pyarrow.parquet as pq

OUTPUT_COLUMNS = ["url", "extracted_text", "extract_status"]


def read_committed(out_dir: str) -> pa.Table:
    """Every row of every committed partition directory."""
    files = sorted(glob.glob(os.path.join(out_dir, "part-*", "*.parquet")))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in OUTPUT_COLUMNS})
    return pa.concat_tables(
        pq.read_table(f, columns=OUTPUT_COLUMNS) for f in files)


def check(goldens: pa.Table, output: pa.Table) -> Dict[str, int]:
    """Count golden urls that are missing, duplicated or differ in any byte
    of ``extracted_text`` or in ``extract_status``.

    ``goldens`` has ``url, text, expected_status``.  A url the goldens do
    not know counts as extra.  ``failed`` is the number of golden docs
    not committed exactly once with the golden text and status, plus the
    extra urls.
    """
    got: Dict[str, tuple] = {}
    dup = extra = 0
    want = set(goldens.column("url").to_pylist())
    for url, text, status in zip(*(output.column(c).to_pylist()
                                   for c in OUTPUT_COLUMNS)):
        if url not in want:
            extra += 1
        elif url in got:
            dup += 1
            got[url] = None  # a url committed twice is wrong either way
        else:
            got[url] = (text, status)
    missing = text_diff = status_diff = failed = 0
    for url, text, status in zip(goldens.column("url").to_pylist(),
                                 goldens.column("text").to_pylist(),
                                 goldens.column("expected_status").to_pylist()):
        row = got.get(url, ())
        if row == ():
            missing += 1
        elif row is not None:
            text_diff += row[0] != text
            status_diff += row[1] != status
        failed += row != (text, status)
    failed += extra
    return {"attempted": goldens.num_rows, "failed": failed, "missing": missing,
            "duplicate": dup, "text_diff": text_diff, "status_diff": status_diff,
            "extra": extra}


def output_sha256(output: pa.Table) -> str:
    """sha256 over the sorted (url, extracted_text) pairs."""
    h = hashlib.sha256()
    pairs = sorted(zip(output.column("url").to_pylist(),
                       output.column("extracted_text").to_pylist()))
    for url, text in pairs:
        for part in (url.encode(), (text or "").encode()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()
