"""Seeded input generator for the extraction benchmark.

Each workload is a list of ``doc_id``s plus one document text per id.
The texts come from the seed; the pages come from the product's own
corpus rules (``sources.corpus.PageSynthesizer``), so the goldens
(``text``, ``expected_status``) are the corpus rules' and the program
only ever sees the ``url, warc_ts, html, lang`` shards.

The corpus rules pick a page's kind and edge cases from ``doc_id``:
``% 10 == 7`` is a PDF, ``% 101`` selects edge rows, ``% 97 == 0`` a
×30 giant and ``% 53 == 31`` a gzip body.  A workload takes a block of
consecutive ``doc_id``s aligned to 970 (= 97 × 10) whose giant rows are
neither edge rows nor gzip or UTF-16 bodies, so every seed sees the same
number and stored size of giant rows, and keeps the ids of the kind it
wants.  Word counts are the quantiles of a fixed size distribution, shuffled by the seed separately for giant and normal
rows: the seed changes the texts and which row gets which size, not the
corpus's total bytes.  That keeps one seed's throughput comparable with
another's.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_extractor_ray.sources.corpus import PageSynthesizer

INPUT_COLUMNS = ["url", "warc_ts", "html", "lang"]
LANGS = ("en", "de", "fr", "es", "zh")
BLOCK_ALIGN = 970
EDGE_ROWS = (13, 29, 47, 61, 83)  # doc_id % 101 values the rules special-case


def _is_pdf(doc_id: int) -> bool:
    """PDF payload under the corpus rules (edge rows checked first)."""
    edge = doc_id % 101
    if edge in EDGE_ROWS:
        return edge in (47, 83)
    return doc_id % 10 == 7


@dataclass(frozen=True)
class Shape:
    """How one workload draws its corpus."""

    n_ids: int  # length of the doc_id block, a multiple of 97
    pdf: Optional[bool]  # keep only PDF rows (True), only others (False), all
    words_median: float  # lognormal size distribution, in words
    words_sigma: float
    rows_per_shard: int
    files_per_partition: int

    def keep(self, doc_id: int) -> bool:
        return self.pdf is None or _is_pdf(doc_id) == self.pdf

    def giant_ok(self, doc_id: int) -> bool:
        """False for a giant row that an edge rule would take over, or
        whose transport (gzip, UTF-16) would change its stored size."""
        natural = self.pdf is None or (doc_id % 10 == 7) == self.pdf
        return not natural or (doc_id % 101 not in EDGE_ROWS
                               and doc_id % 53 != 31 and doc_id % 37 != 30)


SHAPES: Dict[str, Shape] = {
    # crawl-size HTML: median ~3k words (~30 KB) with a lognormal tail,
    # plus the four x30 giant rows of a 485-id block.  This workload and
    # pdf_heavy are one partition per job, so per-partition cost stays small
    # next to the codec's
    "crawl_html": Shape(n_ids=5 * 97, pdf=False, words_median=3000.0,
                        words_sigma=0.5, rows_per_shard=32,
                        files_per_partition=16),
    # every PDF variant of the corpus rules, one 30-page giant per 970
    # ids; text size barely matters (each variant lays out a fixed
    # number of words)
    "pdf_heavy": Shape(n_ids=12 * BLOCK_ALIGN, pdf=True,
                       words_median=120.0, words_sigma=0.3,
                       rows_per_shard=128, files_per_partition=16),
    # the native mix at ~1.3 KB pages, cut into many small shards
    "small_pages_resume": Shape(n_ids=15 * 97, pdf=None,
                                words_median=55.0, words_sigma=0.45,
                                rows_per_shard=64, files_per_partition=4),
}


def _vocabulary() -> List[str]:
    """A fixed 4096-word vocabulary (the same for every seed)."""
    rng = random.Random(0)
    syll = ["ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "de", "va",
            "gen", "tor", "lan", "mes", "bri", "cal", "dor", "fin"]
    words = set()
    while len(words) < 4000:
        words.add("".join(rng.choice(syll) for _ in range(rng.randint(1, 4))))
    # a few non-ASCII words keep the charset paths honest
    extra = ["café", "naïve", "über", "straße", "señal", "façade", "résumé"]
    return sorted(words) + extra * 13 + ["data"] * 5


_VOCAB = _vocabulary()


def _quantile_sizes(n: int, median: float, sigma: float) -> List[int]:
    """``n`` word counts at the mid-quantiles of a lognormal."""
    nd = statistics.NormalDist(math.log(median), sigma)
    return [max(20, int(round(math.exp(nd.inv_cdf((i + 0.5) / n)))))
            for i in range(n)]


def documents(workload: str, seed: int) -> pa.Table:
    """The ``documents`` table (doc_id, text, lang) for one workload."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:  # a block whose giant rows all pass giant_ok
        start = BLOCK_ALIGN * rng.randrange(1, 100_000)
        block = range(start, start + shape.n_ids)
        if all(shape.giant_ok(d) for d in block[::97]):
            break
    ids = [d for d in block if shape.keep(d)]
    giant = [d for d in ids if d % 97 == 0 and d % 101 not in EDGE_ROWS]
    giant_set = set(giant)
    normal = [d for d in ids if d not in giant_set]
    words: Dict[int, int] = {}
    for group in (giant, normal):
        sizes = _quantile_sizes(len(group), shape.words_median, shape.words_sigma)
        rng.shuffle(sizes)
        words.update(zip(group, sizes))
    texts = [" ".join(rng.choices(_VOCAB, k=words[d])) for d in ids]
    langs = [rng.choice(LANGS) for _ in ids]
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def pages(workload: str, seed: int) -> pa.Table:
    """Full pages table: the program's input columns plus the goldens."""
    docs = documents(workload, seed)
    synth = PageSynthesizer()
    parts = [synth(docs.slice(i, 256)) for i in range(0, docs.num_rows, 256)]
    return pa.concat_tables(parts)


def write_shards(table: pa.Table, out_dir: str, rows_per_shard: int) -> List[str]:
    """Write the input columns as sorted shard files; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = table.select(INPUT_COLUMNS)
    files = []
    for k, i in enumerate(range(0, inputs.num_rows, rows_per_shard)):
        path = os.path.join(out_dir, f"shard-{k:05d}.parquet")
        pq.write_table(inputs.slice(i, rows_per_shard), path)
        files.append(path)
    return files


def content_hash(table: pa.Table) -> str:
    """sha256 over every input row, in order: changes iff the inputs do."""
    h = hashlib.sha256()
    for url, ts, html, lang in zip(*(table.column(c).to_pylist()
                                     for c in INPUT_COLUMNS)):
        for part in (url.encode(), str(ts).encode(), html or b"", lang.encode()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def _pct(values: List[int], q: float) -> int:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))] if s else 0


def describe(table: pa.Table) -> dict:
    """The input record: what the benchmark fed the program."""
    html = table.column("html").to_pylist()
    kinds = table.column("expected_kind").to_pylist()
    sizes = [len(p or b"") for p in html]
    n = len(html)
    return {
        "docs": n,
        "stored_bytes": sum(sizes),
        "pdf_share": sum(k == "pdf" for k in kinds) / n,
        "gzip_share": sum((p or b"")[:2] == b"\x1f\x8b" for p in html) / n,
        "page_bytes_p50": _pct(sizes, 0.50),
        "page_bytes_p99": _pct(sizes, 0.99),
        "content_sha256": content_hash(table),
    }
