"""URL parsing / normalization operators for web-corpus tables.

Every Common-Crawl-style pipeline keys on URL components: group by
registered domain for crawl-health triage, per-host politeness
budgets, TLD language priors, path-depth spam heuristics. The
reference has no URL stage (it is file-path keyed, main.py:27-39);
these are the web-scale generalization of its filename derivation.

Scale notes: pure per-batch Arrow regex kernels (``extract_regex`` is
one RE2 pass per component) — no shuffle, no state, no Python loop;
safe in any hot path. Downstream per-host / per-TLD aggregation is
low-cardinality relative to the corpus, so the combiner-backed
``lowcard_groupby_agg`` (or a native groupby for per-URL keys)
composes without skew concerns.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# One RE2 pass captures scheme/host/port/path/query; rows that are not
# absolute URLs yield null components (surfaced as '' after fill).
_URL_RE = (
    r"^(?P<scheme>[a-z][a-z0-9+.\-]*)://(?P<host>[^/?#:]+)"
    r"(?::(?P<port>[0-9]+))?(?P<path>/[^?#]*)?(?:\?(?P<query>[^#]*))?"
)
_REG_DOMAIN_RE = r"(?P<rd>[^.]+\.[^.]+)$"
_TLD_RE = r"\.(?P<tld>[^.]+)$"


def parse_urls(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Append vectorized URL components to a batch.

    Adds ``scheme, host, reg_domain, tld, path, query, path_depth``.
    Missing components are empty strings (SQL ``regexp_extract``
    parity: DuckDB returns '' on no match); ``path_depth`` counts
    ``/`` characters in the path (0 for an empty path).

    ``reg_domain`` is the last two dot-labels of the host — the
    public-suffix-list-free approximation (good for .com/.org; a PSL
    feed would slot in here for ccTLD registries like .co.uk).
    """
    urls = pc.fill_null(batch.column(url_col), "")
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    parts = pc.extract_regex(urls, _URL_RE)

    def field(name: str) -> pa.Array:
        return pc.fill_null(pc.struct_field(parts, name), "")

    host = field("host")
    rd = pc.fill_null(
        pc.struct_field(pc.extract_regex(host, _REG_DOMAIN_RE), "rd"), ""
    )
    tld = pc.fill_null(
        pc.struct_field(pc.extract_regex(host, _TLD_RE), "tld"), ""
    )
    path = field("path")
    depth = pc.cast(pc.count_substring(path, "/"), pa.int64())
    out = batch
    for name, col in (
        ("scheme", field("scheme")),
        ("host", host),
        ("reg_domain", rd),
        ("tld", tld),
        ("path", path),
        ("query", field("query")),
        ("path_depth", depth),
    ):
        out = out.append_column(name, col)
    return out


def normalize_urls(batch: pa.Table, url_col: str = "url",
                   out_col: str = "url_norm") -> pa.Table:
    """Canonical URL form for exact URL-level dedup: lower-cased
    scheme+host, default ports dropped, trailing slash on empty path,
    fragment dropped, query preserved. Vectorized (regex + string
    kernels); idempotent."""
    urls = pc.fill_null(batch.column(url_col), "")
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    parts = pc.extract_regex(urls, _URL_RE)
    scheme = pc.utf8_lower(
        pc.fill_null(pc.struct_field(parts, "scheme"), "")
    )
    host = pc.utf8_lower(pc.fill_null(pc.struct_field(parts, "host"), ""))
    port = pc.fill_null(pc.struct_field(parts, "port"), "")
    path = pc.fill_null(pc.struct_field(parts, "path"), "")
    query = pc.fill_null(pc.struct_field(parts, "query"), "")

    # default ports (http:80, https:443) drop; others keep ":<port>"
    is_default = pc.or_(
        pc.and_(pc.equal(scheme, "http"), pc.equal(port, "80")),
        pc.and_(pc.equal(scheme, "https"), pc.equal(port, "443")),
    )
    port_sfx = pc.if_else(
        pc.or_(is_default, pc.equal(port, "")),
        "",
        pc.binary_join_element_wise(":", port, ""),
    )
    path_n = pc.if_else(pc.equal(path, ""), "/", path)
    q_sfx = pc.if_else(
        pc.equal(query, ""),
        "",
        pc.binary_join_element_wise("?", query, ""),
    )
    norm = pc.binary_join_element_wise(
        scheme, "://", host, port_sfx, path_n, q_sfx, ""
    )
    # non-URL rows (no scheme match) pass through untouched
    norm = pc.if_else(pc.equal(scheme, ""), urls, norm)
    return batch.append_column(out_col, norm)


class OutlinkStage:
    """pages batch → one row per (src_url, dst_url) outlink.

    From-scratch href extraction over the raw ``html`` binary column:
    charset-decode (the codec's sniffing rules), one compiled-regex
    findall for ``href=`` attributes, stdlib ``urljoin`` resolution of
    relative targets against the page url, http(s)-only filter, and a
    per-page DISTINCT (a nav link repeated 40× emits once). Regex
    compiles ONCE per actor (``map_batches(OutlinkStage, ...)``), the
    stage is stateless across batches, and only (src, dst) string rows
    leave — payload bytes never do. The web-graph edge extractor
    feeding host-graph aggregation.
    """

    def __init__(self) -> None:
        import re

        # str pattern over the DECODED page: byte-level matching loses
        # every link on UTF-16 / legacy-charset pages (a real crawl is
        # full of them; the corpus plants them deterministically)
        self._href = re.compile(
            r"""<a\s[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""",
            re.IGNORECASE | re.DOTALL,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from urllib.parse import urljoin

        from ..codecs.html_codec import _decode_html_bytes

        srcs, dsts = [], []
        urls = batch.column("url").to_pylist()
        payloads = batch.column("html").to_pylist()
        for url, payload in zip(urls, payloads):
            if not payload:
                continue
            if payload[:2] == b"\x1f\x8b":
                import gzip

                try:
                    payload = gzip.decompress(payload)
                except Exception:
                    pass
            seen = set()
            if payload[:5] == b"%PDF-":
                # PDF hyperlinks live in /Annots URI actions, not <a>
                from ..codecs.pdf_codec import extract_links

                for target in extract_links(payload):
                    target = urljoin(url, target.strip())
                    if not target.startswith(("http://", "https://")):
                        continue
                    if target not in seen:
                        seen.add(target)
                        srcs.append(url)
                        dsts.append(target)
                continue
            html = _decode_html_bytes(payload)
            for m in self._href.finditer(html):
                href = next(g for g in m.groups() if g is not None).strip()
                if not href or href.startswith("#"):
                    continue
                target = urljoin(url, href)
                if not target.startswith(("http://", "https://")):
                    continue
                if target not in seen:
                    seen.add(target)
                    srcs.append(url)
                    dsts.append(target)
        return pa.table(
            {
                "src_url": pa.array(srcs, pa.string()),
                "dst_url": pa.array(dsts, pa.string()),
            }
        )


def extract_outlinks(pages_ds, concurrency=None):
    """pages (url, html) → distinct-per-page (src_url, dst_url) edges."""
    from .pool import pool_size

    return pages_ds.map_batches(
        OutlinkStage,
        batch_format="pyarrow",
        concurrency=concurrency or pool_size(),
    )


def host_blocklist_filter(ds, blocked_hosts, url_col: str = "url",
                          keep_cols=None):
    """Drop rows whose URL host (lowercased) is on a deny list — the
    UT1/robots-style domain-filter stage every web-corpus pipeline runs
    before expensive processing.

    Scale shape: the blocklist is a SMALL side (even UT1 is a few
    million hosts) broadcast once via ``ray.put`` and read by every
    filter task — never a shuffle join; rows never move, the filter is
    a stateless vectorized ``pc.is_in`` per batch. For a blocklist too
    big to broadcast, use ``joins.semi_anti_join(how='anti')`` on the
    parsed host instead (keys-only shuffle).
    """
    import ray

    blocked_ref = ray.put(
        pa.array(sorted({h.lower() for h in blocked_hosts}), pa.string())
    )

    def flt(batch: pa.Table) -> pa.Table:
        blocked = ray.get(blocked_ref)
        parts = pc.extract_regex(
            pc.fill_null(batch.column(url_col), ""), _URL_RE
        )
        host = pc.utf8_lower(
            pc.fill_null(pc.struct_field(parts, "host"), "")
        )
        keep = pc.invert(pc.is_in(host, value_set=blocked))
        out = batch.filter(keep)
        if keep_cols is not None:
            out = out.select(list(keep_cols))
        return out

    return ds.map_batches(flt, batch_format="pyarrow")


class AnchorTextStage:
    """pages batch → one row per distinct (src_url, dst_url, anchor).

    Like :class:`OutlinkStage` but also captures the anchor's inner
    text (whitespace-normalized, inner markup stripped) — the classic
    web-search relevance signal: what OTHER pages call a target.  One
    compiled regex per actor; only (src, dst, anchor) string rows leave
    the stage, payload bytes never shuffle.
    """

    def __init__(self) -> None:
        import re

        self._a = re.compile(
            r"""<a\s[^>]*?href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))
                 [^>]*>(.*?)</a\s*>""",
            re.IGNORECASE | re.DOTALL | re.VERBOSE,
        )
        self._tag = re.compile(r"<[^>]*>")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from urllib.parse import urljoin

        from ..codecs.html_codec import _decode_html_bytes

        srcs, dsts, anchors = [], [], []
        for url, payload in zip(
            batch.column("url").to_pylist(), batch.column("html").to_pylist()
        ):
            if not payload:
                continue
            if payload[:2] == b"\x1f\x8b":
                import gzip

                try:
                    payload = gzip.decompress(payload)
                except Exception:
                    pass
            seen = set()
            html = _decode_html_bytes(payload)
            for m in self._a.finditer(html):
                href = next(g for g in m.groups()[:3] if g is not None).strip()
                text = " ".join(self._tag.sub(" ", m.group(4)).split())
                if not href or href.startswith("#"):
                    continue
                target = urljoin(url, href)
                if not target.startswith(("http://", "https://")):
                    continue
                key = (target, text)
                if key not in seen:
                    seen.add(key)
                    srcs.append(url)
                    dsts.append(target)
                    anchors.append(text)
        return pa.table(
            {
                "src_url": pa.array(srcs, pa.string()),
                "dst_url": pa.array(dsts, pa.string()),
                "anchor": pa.array(anchors, pa.string()),
            }
        )


def anchor_text_index(pages_ds, concurrency=None):
    """pages → (dst_url, anchor, n_refs): how many pages link to each
    target with each anchor text.  Extraction never shuffles payloads;
    the aggregate is one token-hash partition fold over string keys
    (``agg.partition_fold``), so a hot target (every page links '/')
    still folds vectorized inside one partition."""
    from .agg import partition_fold
    from .pool import pool_size

    edges = pages_ds.map_batches(
        AnchorTextStage,
        batch_format="pyarrow",
        concurrency=concurrency or pool_size(),
    )
    return partition_fold(
        edges, ["dst_url", "anchor"], "src_url", fn="count", out_val="n_refs"
    )
