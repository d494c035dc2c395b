"""pdf_extractor_ray — a Ray-Data-native main-content extraction engine.

A brand-new engine (NOT a port) with the query/data-processing
capabilities of the reference ``shubh-cmd/pdf-extractor``:

- content-sniff routing (%PDF magic vs HTML) over Common-Crawl-style
  Parquet pages ``(url, warc_ts, html:binary, text, lang)``
- from-scratch HTML boilerplate stripper (text-density / link-density
  block scoring over the events of its own linear-time regex
  tokenizer)
- from-scratch PDF layout parser (xref/object parse, Flate decode,
  content-stream tokenizer, column-aware y-x reading order, ruled-line
  table grid)
- construction-item / entity parsers re-expressing the reference's
  rule semantics (see ``parsers/``)
- corpus prep: quality gate, exact and MinHash-LSH dedup, and a
  persisted LSH index for recrawl near-dup checks
- per-partition lineage + checkpoint manifest with resume

Everything is expressed Ray-Data-first: ``ray.data.read_parquet`` →
``map_batches`` over zero-copy Arrow batches (actor pools for stateful
codecs) → ``groupby``/``aggregate`` → ``write_parquet``.

Nothing in this package calls ``ray.init()``; sessions are owned by the
caller (tests, bench.py, CLI).
"""

__version__ = "0.1.0"

from .codecs.html_codec import HtmlCodec, HtmlExtraction  # noqa: F401,E402
from .codecs.pdf_codec import PdfCodec, PdfExtraction  # noqa: F401,E402
