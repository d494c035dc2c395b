"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001.
``queries()`` holds 58 keys: first the 50 keys that CORRECTNESS_r05.json
checks, in its order, then eight product-surface queries
(construction/standard parse, corpus prep and the recrawl LSH index).
``oracle_sql()`` gives the DuckDB-equivalent SQL, with the same column
names, for every key except six that are checked by row count only:
``extract_golden_match``, ``extract_items``, ``standard_result``,
``construction_result``, ``items_summary`` and ``merge_items``.

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as _pc


_PAGES_CACHE_ROOT = "/tmp/graft_pages_cache"


def _pages(sf_dir: str):
    """Pages corpus via a /tmp parquet read-through cache.

    Synthesis is a PURE function of documents.parquet and the
    synthesizer source, so the 23 page-family queries in one gate run
    re-READ the materialized corpus instead of re-synthesizing it
    query after query (PDF building dominates synthesis cost).  Cache
    key = (sf dir, documents.parquet size+mtime, corpus.py source
    hash) — any change to inputs or synthesizer rules misses cleanly.
    Writes are atomic (tmp dir + rename); any failure falls back to
    the lazy synthesizer, so correctness never depends on the cache."""
    import hashlib
    import os

    import ray.data

    from pdf_extractor_ray.sources import corpus as corpus_mod

    try:
        doc_path = os.path.join(sf_dir, "documents.parquet")
        st = os.stat(doc_path)
        with open(corpus_mod.__file__, "rb") as f:
            src = f.read()
        key = hashlib.md5(
            f"{os.path.abspath(sf_dir)}:{st.st_size}:{st.st_mtime_ns}:".encode()
            + src
        ).hexdigest()[:16]
        out = os.path.join(_PAGES_CACHE_ROOT, key)
        if not os.path.exists(os.path.join(out, "_SUCCESS")):
            tmp = f"{out}.tmp.{os.getpid()}"
            if os.path.isdir(tmp):
                import shutil

                shutil.rmtree(tmp)
            corpus_mod.pages_dataset(sf_dir).write_parquet(tmp)
            with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
                f.write("ok\n")
            try:
                os.rename(tmp, out)
            except OSError:  # concurrent writer won the rename
                import shutil

                shutil.rmtree(tmp, ignore_errors=True)
        return ray.data.read_parquet(out)
    except Exception:
        return corpus_mod.pages_dataset(sf_dir)


def _docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def entry() -> Any:
    """Flagship pipeline: synthesized Common-Crawl-style pages →
    sniff-routed HTML/PDF extraction → extraction table (sf0.001)."""
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages("/root/testdata/sf0.001"))
    return ds.drop_columns(["spans"])  # keep the smoke-check schema flat


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------
def _q_extract_pages(sf_dir: str):
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages(sf_dir))
    return ds.select_columns(
        ["url", "doc_kind", "extract_status", "n_pages", "n_blocks", "n_chars", "n_words"]
    )


def _q_extract_golden_match(sf_dir: str):
    """Byte-identity metric: rows whose extracted_text == golden text."""
    import pyarrow.compute as pc
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages(sf_dir))

    def flags(batch: pa.Table) -> pa.Table:
        eq = pc.equal(batch.column("extracted_text"), batch.column("golden_text"))
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "n_byte_identical": pa.array(
                    [pc.sum(pc.cast(eq, pa.int64())).as_py() or 0], pa.int64()
                ),
            }
        )

    t = pa.concat_tables(
        [b for b in ds.map_batches(flags, batch_format="pyarrow").iter_batches(batch_format="pyarrow")]
    )
    return pa.table(
        {
            "n_docs": pa.array([pa.compute.sum(t.column("n_docs")).as_py()], pa.int64()),
            "n_byte_identical": pa.array(
                [pa.compute.sum(t.column("n_byte_identical")).as_py()], pa.int64()
            ),
        }
    )


def _q_extract_status_match(sf_dir: str):
    """Self-check: per (doc_kind, extract_status), how many rows match
    the corpus generator's expected status/kind — operational metrics
    the manifest records per partition at job scale."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages(sf_dir))

    def flags(batch: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.equal(batch.column("extract_status"), batch.column("expected_status")),
            pc.equal(batch.column("doc_kind"), batch.column("expected_kind")),
        )
        return pa.table(
            {
                "doc_kind": batch.column("doc_kind"),
                "extract_status": batch.column("extract_status"),
                "matches_expected": pc.cast(ok, pa.int64()),
            }
        )

    return lowcard_groupby_agg(
        ds.map_batches(flags, batch_format="pyarrow"),
        ["doc_kind", "extract_status"],
        [
            ("matches_expected", "count", "n_docs"),
            ("matches_expected", "sum", "n_match"),
        ],
    )


def _q_extract_items(sf_dir: str):
    from pdf_extractor_ray.pipelines.extraction import items_pipeline

    return items_pipeline(_pages(sf_dir))


def _q_extract_text_html(sf_dir: str):
    """THE north-rule claim, driver-oracled: byte-identical extracted
    text per url for the whole HTML channel.  The engine runs the real
    sniff → boilerplate-strip codec over raw payload bytes; the oracle
    independently re-derives every expected byte in SQL from the
    synthesizer's deterministic construction rules (title, 14-word
    paragraph fold with tail absorb, giant ×30 repetition, entity
    sentence, construction-table block).  A single flipped byte in any
    of 400+ documents hash-mismatches."""
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages(sf_dir))
    ds = ds.filter(expr="doc_kind == 'html' and extract_status == 'ok'")
    return ds.select_columns(["url", "extracted_text"])


def _q_extract_text_pdf(sf_dir: str):
    """Byte-identity oracle for the PDF extraction channel: the engine
    runs the from-scratch content-stream codec (classic + ObjStm xref,
    Flate, TJ arrays, TL/T* leading, two-column reading order, ruled
    tables) over real PDF bytes; the oracle re-derives every expected
    byte in SQL from the synthesizer's per-variant layout rules."""
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages(sf_dir))
    ds = ds.filter(expr="doc_kind == 'pdf' and extract_status == 'ok'")
    return ds.select_columns(["url", "extracted_text"])


def _q_web_prep(sf_dir: str):
    """Flagship end-to-end web-corpus prep over the PAGES table:
    extraction → quality gate (status ok, ≥30 words) → exact dedup
    (min-url survivor per distinct text), one streaming plan — and the
    WHOLE composition is byte-oracled: the SQL rebuilds both channels'
    expected texts, applies the same gate and picks the same
    survivors."""
    from pdf_extractor_ray.pipelines.web_prep import web_prep_pipeline

    return web_prep_pipeline(_pages(sf_dir))


def _q_bucketed_join_orders(sf_dir: str):
    """Bucketed (co-partitioned) storage join: both tables are written
    ONCE hash-bucketed by the join key (per-block split-append, no
    shuffle), then joined with ZERO exchange — each task reads and
    joins one co-located bucket pair.  The layout optimization a
    recurring 100-TB fact×dimension join pays for once at write time.
    Revenue folded in exact integer cents so float order can't drift
    from the SQL twin."""
    import hashlib
    import os

    import pyarrow.compute as pc
    import ray.data

    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg
    from pdf_extractor_ray.functions.bucketed import bucketed_join, write_bucketed

    # per-process scratch: stale parts from a prior run over DIFFERENT
    # input would pollute the bucket dirs (content-hash names only make
    # SAME-input re-runs idempotent), and concurrent checkers must not
    # collide
    import shutil

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    root = f"/tmp/graft_bucketed/{tag}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    nb = 16
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    write_bucketed(cust, "c_custkey", f"{root}/customer", nb).materialize()
    write_bucketed(orders, "o_custkey", f"{root}/orders", nb).materialize()
    j = bucketed_join(
        f"{root}/orders", f"{root}/customer", "o_custkey",
        ["o_totalprice"], ["c_mktsegment"],
        right_key="c_custkey", num_buckets=nb,
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            batch.column("o_totalprice"), pa.scalar(100.0))), pa.int64())
        return pa.table({
            "c_mktsegment": batch.column("c_mktsegment"),
            "cents": cents,
        })

    return lowcard_groupby_agg(
        j.map_batches(to_cents, batch_format="pyarrow"),
        ["c_mktsegment"],
        [("cents", "count", "n_orders"), ("cents", "sum", "revenue_cents")],
    )


def _q_bucketed_revenue_by_customer(sf_dir: str):
    """Exchange-free grouped aggregation on the bucketed layout: a
    bucket holds every row of its keys, so per-bucket groupby partials
    ARE the final result — the aggregation twin of the shuffle-free
    bucketed join (same written layout, reused)."""
    import hashlib
    import os
    import shutil

    import pyarrow.compute as pc
    import ray.data

    from pdf_extractor_ray.functions.bucketed import (
        bucketed_groupby,
        write_bucketed,
    )

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    root = f"/tmp/graft_bucketed_agg/{tag}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    nb = 16
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch.column("o_custkey"),
            "cents": pc.cast(pc.round(pc.multiply(
                batch.column("o_totalprice"), pa.scalar(100.0))), pa.int64()),
        })

    write_bucketed(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        "o_custkey", f"{root}/orders", nb,
    ).materialize()
    return bucketed_groupby(
        f"{root}/orders", "o_custkey",
        [("cents", "count", "n_orders"), ("cents", "sum", "revenue_cents")],
        num_buckets=nb,
    )


def _q_join_size_estimate(sf_dir: str):
    """Join-cardinality estimation BEFORE paying an m:n join: per-key
    counts on both sides (tiny partial-aggregate tables), count-join,
    Σ cntL×cntR = the EXACT output cardinality of the would-be join.
    The planner guard a 100-TB pipeline runs first — if the estimate
    explodes (hot keys), salt or pre-aggregate instead of joining.
    Only (key, count) pairs ever shuffle."""
    import ray.data
    from ray.data.aggregate import Sum

    from pdf_extractor_ray.functions.agg import partition_fold
    from pdf_extractor_ray.functions.joins import hash_join

    events = partition_fold(
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"]),
        ["user_id"], "user_id", fn="count", out_val="n_l",
    )
    orders = partition_fold(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"]),
        ["o_custkey"], "o_custkey", fn="count", out_val="n_r",
    )
    joined = hash_join(
        events, orders, "user_id", "o_custkey",
        ["n_l"], ["n_r"], how="inner",
    )

    def prod(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"pairs": pc.multiply(
            pc.cast(batch.column("n_l"), pa.int64()),
            pc.cast(batch.column("n_r"), pa.int64()))})

    total = joined.map_batches(prod, batch_format="pyarrow").aggregate(
        Sum("pairs", alias_name="est_join_rows"))
    return pa.table({"est_join_rows": pa.array(
        [int(total["est_join_rows"] or 0)], pa.int64())})


def _q_q3_unshipped_revenue(sf_dir: str):
    """TPC-H Q3 shape: three-table chained hash join (customer semi →
    orders → lineitem m:n) with every predicate pushed into the scans,
    exact integer-1e-4-dollar revenue fold by order, deterministic
    top-10.  The multi-join plan: the SMALL filtered side always joins
    first (semi join ships keys only), the m:n lineitem join runs on
    the already-reduced order set."""
    import pyarrow.compute as pc
    import ray.data

    from pdf_extractor_ray.functions.agg import partition_fold
    from pdf_extractor_ray.functions.joins import hash_join, semi_anti_join

    import datetime as _dtmod

    cutoff = _dtmod.datetime(1998, 7, 1)
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"],
        filter=_pc.field("c_mktsegment") == "BUILDING",
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=_pc.field("o_orderdate") < cutoff,
    )
    orders = semi_anti_join(
        orders, cust, "o_custkey", "c_custkey",
        ["o_orderkey", "o_orderdate", "o_orderpriority"], how="semi",
    )
    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=_pc.field("l_shipdate") > cutoff,
    )
    j = hash_join(
        line, orders, "l_orderkey", "o_orderkey",
        ["l_orderkey", "l_extendedprice", "l_discount"],
        ["o_orderdate", "o_orderpriority"],
        how="inner", validate="many",
    )

    def rev(batch: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            batch.column("l_extendedprice"), pa.scalar(100.0))), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            batch.column("l_discount"), pa.scalar(100.0))), pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "o_orderdate": batch.column("o_orderdate"),
            "o_orderpriority": batch.column("o_orderpriority"),
            "revenue_e4": rev,
        })

    folded = partition_fold(
        j.map_batches(rev, batch_format="pyarrow"),
        ["l_orderkey", "o_orderdate", "o_orderpriority"],
        "revenue_e4", fn="sum",
    )
    return folded.sort(
        ["revenue_e4", "o_orderdate", "l_orderkey"],
        descending=[True, False, False],
    ).limit(10)


def _q_cms_user_counts(sf_dir: str):
    """Count-Min sketch frequency estimates (bounded-memory frequency
    table for key spaces too large to groupby): 512 KiB of partials
    per block, elementwise-+ merge, point estimates for every distinct
    user checked IN-QUERY against the exact counts — the query raises
    if the sketch ever underestimates or exceeds its ε·N bound, so the
    driver run enforces the CMS guarantee.  VALUE-ORACLED (round 5):
    the sketch is hash-defined but fully deterministic — the generated
    splitmix64 SQL reproduces every bucket index, so est(u) = min over
    the 4 salted rows of exact bucket totals, byte-for-byte."""
    import numpy as np
    import ray.data

    from pdf_extractor_ray.functions.agg import partition_fold
    from pdf_extractor_ray.functions.sketch import cms_build, cms_estimate

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    cms = cms_build(ds, "user_id", width=1 << 17)
    exact = partition_fold(
        ds, ["user_id"], "user_id", fn="count", out_val="n_events"
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    est = cms_estimate(cms, exact["user_id"].to_numpy())
    n_total = int(exact["n_events"].sum())
    eps_n = max(1, int(np.e / cms.shape[1] * n_total))
    over = est - exact["n_events"].to_numpy()
    if (over < 0).any():
        raise AssertionError("CMS underestimated — impossible by construction")
    # the ε·N bound is PER-KEY probabilistic (P(viol) ≤ e^-depth ≈ 2%);
    # over many keys enforce the bound's RATE, not its max
    if float((over > eps_n).mean()) > 0.05:
        raise AssertionError("CMS ε·N bound violated for >5% of keys")
    return pa.table({
        "user_id": pa.array(exact["user_id"].to_numpy(), pa.int64()),
        "n_events": pa.array(exact["n_events"].to_numpy(), pa.int64()),
        "cms_estimate": pa.array(est, pa.int64()),
    })


def _q_standard_result_flat(sf_dir: str):
    """The composed standard-mode ENVELOPE (reference
    extractor/models/standard.py:28-71) flattened to hashable scalars
    and driver-oracled end-to-end: full_text (byte-identical), six
    entity lists semicolon-joined, the five Statistics fields — one
    query covering M9+M12+G1 composition over all 500 rows including
    every degrade class.  (The unflattened `standard_result` keeps the
    reference's list-typed shape; lists don't hash in the driver
    compare, hence this twin.)"""
    import pyarrow.compute as pc

    from pdf_extractor_ray.pipelines.extraction import standard_result_pipeline

    ds = standard_result_pipeline(_pages(sf_dir))

    def flat(batch: pa.Table) -> pa.Table:
        out = {
            "url": batch.column("url"),
            "full_text": batch.column("full_text"),
        }
        for kind in ("email", "phone", "date", "currency", "url_ref", "ssn"):
            out[f"{kind}_s"] = pc.binary_join(
                pc.fill_null(batch.column(kind), []), ";"
            )
        for stat in ("total_pages", "total_characters", "total_words",
                     "avg_chars_per_page", "avg_words_per_page"):
            out[stat] = batch.column(stat)
        return pa.table(out)

    return ds.map_batches(flat, batch_format="pyarrow")


def _q_bm25_topk(sf_dir: str):
    """BM25 ranked retrieval (see _run_bm25)."""
    return _run_bm25(sf_dir, limit=10)


def _run_bm25(sf_dir: str, limit: int = 10):
    """BM25 ranked retrieval over the documents table for a fixed
    3-term query: one vectorized pass computes per-doc term
    frequencies (double-space token-occurrence kernels) + lengths;
    corpus statistics (N, avg length, per-term DF) fold to five
    scalars; a second pass scores every candidate row-locally with the
    classic BM25 formula (k1=1.2, b=0.75) and the global top-10 ranks
    deterministically.  FLOAT PARITY BY CONSTRUCTION: idf rounded to 9
    digits before use, per-doc contributions summed in fixed term
    order inside the row (never across rows), final score rounded to 6
    — the SQL twin evaluates the byte-identical expression tree."""
    import math

    import numpy as np
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count, Sum

    TERMS = ["batch", "join", "scan"]
    K1, B = 1.2, 0.75

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tf_pass(batch: pa.Table) -> pa.Table:
        pad = pc.binary_join_element_wise(
            " ", pc.replace_substring(
                pc.fill_null(batch.column("text"), ""), " ", "  "), " ", "")
        out = {"doc_id": batch.column("doc_id")}
        nw = pc.list_value_length(pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " "))
        out["n_words"] = pc.cast(nw, pa.int64())
        for i, t in enumerate(TERMS):
            tf = pc.count_substring(pad, f" {t} ")
            out[f"tf{i}"] = pc.cast(tf, pa.int64())
            out[f"has{i}"] = pc.cast(pc.greater(tf, 0), pa.int64())
        return pa.table(out)

    tf = docs.map_batches(tf_pass, batch_format="pyarrow").materialize()
    stats = tf.aggregate(
        Count(alias_name="n"), Sum("n_words", alias_name="sw"),
        *[Sum(f"has{i}", alias_name=f"df{i}") for i in range(len(TERMS))],
    )
    n = int(stats["n"])
    avglen = float(stats["sw"]) / n
    idfs = [
        round(math.log((n - int(stats[f"df{i}"]) + 0.5)
                       / (int(stats[f"df{i}"]) + 0.5) + 1.0), 9)
        for i in range(len(TERMS))
    ]

    def score(batch: pa.Table) -> pa.Table:
        lens = batch.column("n_words").to_numpy(zero_copy_only=False).astype(
            np.float64)
        s = np.zeros(batch.num_rows)
        any_tf = np.zeros(batch.num_rows, dtype=np.int64)
        for i in range(len(TERMS)):
            tfv = batch.column(f"tf{i}").to_numpy(
                zero_copy_only=False)
            any_tf += tfv
            tfv = tfv.astype(np.float64)
            s = s + idfs[i] * ((tfv * (K1 + 1.0))
                               / (tfv + K1 * (1.0 - B + B * lens / avglen)))
        t = pa.table({
            "doc_id": batch.column("doc_id"),
            "score": pa.array(np.round(s, 6), pa.float64()),
        })
        return t.filter(pa.array(any_tf > 0))

    return (
        tf.map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(limit)
    )


def _q_bm25_index_topk(sf_dir: str):
    """BM25 against a PERSISTED lexical index (functions/bm25_index.py
    — the third persisted index after the LSH recrawl index and the
    IVF ANN index): postings stored hash-bucketed BY TOKEN, so the
    query reads ONLY its terms' bucket dirs; doc lengths join against
    candidates only. Tokenization/scoring is EXACTLY ``bm25_topk``'s
    (idf round-9 before use, fixed term order, score round-6, doc_id
    tie-break), so its DuckDB oracle applies verbatim and a parity
    test pins persisted == in-memory."""
    import tempfile

    import ray.data

    from pdf_extractor_ray.functions.bm25_index import (build_bm25_index,
                                                        query_bm25_index)

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    index_dir = tempfile.mkdtemp(prefix="bm25idx-")
    build_bm25_index(docs, index_dir, num_buckets=32)
    return query_bm25_index(["batch", "join", "scan"], index_dir, k=10)


def _q_search_snippets(sf_dir: str):
    """Snippet extraction (the search-stack step after ranking): for
    every document containing a query term, the FIRST 15-word window
    maximizing query-term hits — vectorized per doc (one cumsum
    sliding count), exact integer semantics, end-truncating windows.
    Oracle: SQL window frame ROWS BETWEEN CURRENT AND 14 FOLLOWING
    with the identical first-max tie-break."""
    import numpy as np
    import ray.data

    TERMS = {"batch", "join", "scan"}
    W = 15

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def snip(batch: pa.Table) -> pa.Table:
        ids, starts, hits_out, snippets = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (text or "").split()
            if not toks:
                continue
            hits = np.fromiter(
                (1 if x in TERMS else 0 for x in toks), np.int64, len(toks))
            if not hits.any():
                continue
            cum = np.concatenate([[0], np.cumsum(hits)])
            n = len(toks)
            ends = np.minimum(np.arange(n) + W, n)
            cnt = cum[ends] - cum[np.arange(n)]
            best = int(np.argmax(cnt))  # first max wins, like the SQL rank
            ids.append(doc_id)
            starts.append(best + 1)  # 1-based like SQL positions
            hits_out.append(int(cnt[best]))
            snippets.append(" ".join(toks[best:best + W]))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "start_pos": pa.array(starts, pa.int64()),
            "n_hits": pa.array(hits_out, pa.int64()),
            "snippet": pa.array(snippets, pa.string()),
        })

    return docs.map_batches(snip, batch_format="pyarrow")


def _q_phrase_search(sf_dir: str):
    """Exact-phrase retrieval ("batch scan" as adjacent tokens): one
    vectorized substring-count kernel over space-delimited text — the
    post-inverted-index adjacency verification of a phrase query.
    Counts are non-overlapping occurrences; only matching docs
    return."""
    import pyarrow.compute as pc
    import ray.data

    PHRASE = "batch scan"

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def find(batch: pa.Table) -> pa.Table:
        pad = pc.binary_join_element_wise(
            " ", pc.fill_null(batch.column("text"), ""), " ", "")
        n = pc.cast(pc.count_substring(pad, f" {PHRASE} "), pa.int64())
        t = pa.table({"doc_id": batch.column("doc_id"), "n_occurrences": n})
        return t.filter(pc.greater(n, 0))

    return docs.map_batches(find, batch_format="pyarrow")


def _q_ql_dirichlet_topk(sf_dir: str):
    """QL-Dirichlet ranked retrieval (see _run_ql)."""
    return _run_ql(sf_dir, limit=10)


def _run_ql(sf_dir: str, limit: int = 10):
    """Query-likelihood ranking with Dirichlet smoothing (μ=300) — the
    language-modeling sibling of BM25 (Zhai & Lafferty 2001): same
    vectorized tf/length pass, background model = corpus term
    probabilities folded to scalars (rounded to 12 before use), score
    = Σ_t ln((tf + μ·p_bg) / (len + μ)) summed row-locally in fixed
    term order, final round-6, deterministic top-10."""
    import math

    import numpy as np
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    TERMS = ["batch", "join", "scan"]
    MU = 300.0

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tf_pass(batch: pa.Table) -> pa.Table:
        pad = pc.binary_join_element_wise(
            " ", pc.replace_substring(
                pc.fill_null(batch.column("text"), ""), " ", "  "), " ", "")
        out = {"doc_id": batch.column("doc_id")}
        out["n_words"] = pc.cast(pc.list_value_length(pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " ")), pa.int64())
        for i, t in enumerate(TERMS):
            out[f"tf{i}"] = pc.cast(pc.count_substring(pad, f" {t} "), pa.int64())
        return pa.table(out)

    tf = docs.map_batches(tf_pass, batch_format="pyarrow").materialize()
    stats = tf.aggregate(
        Sum("n_words", alias_name="c"),
        *[Sum(f"tf{i}", alias_name=f"ctf{i}") for i in range(len(TERMS))],
    )
    c = int(stats["c"])
    pbg = [round(int(stats[f"ctf{i}"]) / c, 12) for i in range(len(TERMS))]

    def score(batch: pa.Table) -> pa.Table:
        lens = batch.column("n_words").to_numpy(zero_copy_only=False).astype(
            np.float64)
        s = np.zeros(batch.num_rows)
        any_tf = np.zeros(batch.num_rows, dtype=np.int64)
        for i in range(len(TERMS)):
            tfv = batch.column(f"tf{i}").to_numpy(zero_copy_only=False)
            any_tf += tfv
            s = s + np.log((tfv.astype(np.float64) + MU * pbg[i])
                           / (lens + MU))
        t = pa.table({
            "doc_id": batch.column("doc_id"),
            "score": pa.array(np.round(s, 6), pa.float64()),
        })
        return t.filter(pa.array(any_tf > 0))

    return (
        tf.map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(limit)
    )


def _q_rrf_fusion_topk(sf_dir: str):
    """Reciprocal-rank fusion (Cormack et al. 2009, k=60) of the BM25
    and QL-Dirichlet runs — the standard multi-scorer combiner of a
    search stack. Fusion depth is the runs' top-100 lists (the
    real-world contract: RRF fuses RETRIEVED lists, not full
    rankings), so the fuse step touches 200 constant-size rows however
    big the corpus is; each run's ranking is the existing distributed
    oracled machinery. rrf(d) = Σ_runs 1/(60 + rank), ranks from the
    round-6 scores with the doc_id tie-break — integer ranks ⇒ the
    identical float expression both sides."""
    bm = [r["doc_id"] for r in _run_bm25(sf_dir, limit=100).take_all()]
    ql = [r["doc_id"] for r in _run_ql(sf_dir, limit=100).take_all()]
    rrf: dict[int, float] = {}
    for run in (bm, ql):
        for rank, d in enumerate(run, start=1):
            rrf[d] = rrf.get(d, 0.0) + 1.0 / (60.0 + rank)
    rows = sorted(
        ({"doc_id": d, "rrf": round(v, 9)} for d, v in rrf.items()),
        key=lambda r: (-r["rrf"], r["doc_id"]),
    )[:10]
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("doc_id", pa.int64()), ("rrf", pa.float64())]))


def _q_mmr_topk(sf_dir: str):
    """Diversified retrieval: distributed brute-force ANN gathers a
    50-candidate pool per query, then the driver-local MMR greedy
    (λ=0.7) re-ranks to 10 — semantic near-copies drop out of the
    result page.  Rows-only (greedy float iteration); the operator is
    pinned against a reference implementation and a planted-cluster
    diversity test."""
    import numpy as np
    import ray.data

    from pdf_extractor_ray.functions.similarity import ann_topk, mmr_rerank

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    q = _emb_queries(sf_dir)
    pool = ann_topk(emb, q, k=50, query_ids=[0, 1, 2]).to_pandas()

    # fetch ONLY the candidate vectors (≤ 150 rows) via a keys-only
    # semi-join — the embedding table never touches the driver
    import ray.data as _rd

    from pdf_extractor_ray.functions.joins import semi_anti_join

    cand_ids_tbl = _rd.from_arrow(pa.table({
        "vec_id": pa.array(sorted(set(pool.vec_id.tolist())), pa.int64())
    }))
    cand_rows = semi_anti_join(
        emb, cand_ids_tbl, "vec_id", "vec_id",
        ["vec_id", "embedding"], how="semi",
    ).to_pandas()
    lut = {int(v): np.asarray(e, dtype=np.float64)
           for v, e in zip(cand_rows.vec_id, cand_rows.embedding)}

    rows = {"query_id": [], "rank": [], "vec_id": [], "relevance": []}
    for qi, qid in enumerate([0, 1, 2]):
        cand = pool[pool.query_id == qid].sort_values("rank")
        ids = cand.vec_id.to_numpy()
        vecs = np.stack([lut[int(v)] for v in ids])
        sel_ids, rel, _ = mmr_rerank(ids, vecs, q[qi], m=10, lam=0.7)
        rows["query_id"] += [qid] * len(sel_ids)
        rows["rank"] += list(range(1, len(sel_ids) + 1))
        rows["vec_id"] += [int(v) for v in sel_ids]
        rows["relevance"] += [round(float(r), 6) for r in rel]
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "vec_id": pa.array(rows["vec_id"], pa.int64()),
        "relevance": pa.array(rows["relevance"], pa.float64()),
    })


def _q_quality_logreg(sf_dir: str):
    """Distributed quality-classifier TRAINING: logistic regression by
    full-batch GD whose per-row gradients are int64-quantized before
    summation — bit-identical weights across block orders, cluster
    sizes and reruns (functions/ml.py).  Task: predict the stopword
    detector's 'en' label from (stopword_ratio, punct_ratio,
    n_tokens/100) — a self-contained corpus-quality signal.  Output:
    one row of rounded weights + training accuracy.  VALUE-ORACLED
    (round 5) by ``_quality_logreg_sql``: the 40 GD steps are unrolled
    into CTE levels — valid because the int64 gradient quantization
    makes each fold an order-independent integer sum, and the measured
    quantization-boundary margin (6.6e-7) dwarfs the only cross-side
    float sources (FMA/exp, ≲1e-10).  Determinism + local-numpy parity
    stay test-pinned."""
    import numpy as np
    import pyarrow.compute as pc

    from pdf_extractor_ray.functions.ml import logreg_predict, logreg_train
    from pdf_extractor_ray.functions.text import add_text_features, detect_language

    ds = _docs(sf_dir).map_batches(add_text_features, batch_format="pyarrow")
    ds = ds.map_batches(detect_language, batch_format="pyarrow")

    def featurize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "f_stop": pc.cast(batch.column("stopword_ratio"), pa.float64()),
            "f_punct": pc.cast(batch.column("punct_ratio"), pa.float64()),
            "f_len": pc.divide(
                pc.cast(batch.column("n_tokens"), pa.float64()),
                pa.scalar(100.0)),
            "y": pc.cast(
                pc.equal(batch.column("detected_lang"), "en"), pa.int64()),
        })

    feats = ds.map_batches(featurize, batch_format="pyarrow").materialize()
    w = logreg_train(feats, ["f_stop", "f_punct", "f_len"], "y",
                     lr=2.0, iters=40)

    # accuracy computed DISTRIBUTED (broadcast w, per-block correct
    # counts) — the feature table never touches the driver
    from ray.data.aggregate import Count, Sum

    def correct(batch: pa.Table) -> pa.Table:
        import numpy as np

        x = np.stack([
            batch.column(c).to_numpy(zero_copy_only=False)
            for c in ("f_stop", "f_punct", "f_len")
        ], axis=1)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        pred = (logreg_predict(w, x) > 0.5).astype(np.int64)
        return pa.table({"ok": pa.array((pred == y).astype(np.int64))})

    row = feats.map_batches(correct, batch_format="pyarrow").aggregate(
        Sum("ok", alias_name="n_ok"), Count(alias_name="n"))
    acc = float(int(row["n_ok"]) / int(row["n"]))
    return pa.table({
        "w_stopword": pa.array([round(float(w[0]), 6)], pa.float64()),
        "w_punct": pa.array([round(float(w[1]), 6)], pa.float64()),
        "w_len": pa.array([round(float(w[2]), 6)], pa.float64()),
        "bias": pa.array([round(float(w[3]), 6)], pa.float64()),
        "train_accuracy": pa.array([round(acc, 6)], pa.float64()),
    })


def _q_boolean_search(sf_dir: str):
    """Boolean retrieval model: docs matching ``batch AND join AND NOT
    scan`` — conjunctive token-membership kernels with a negation,
    the pre-ranking candidate filter of classic search.  One
    vectorized pass; membership via the double-space padding trick."""
    import pyarrow.compute as pc
    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def match(batch: pa.Table) -> pa.Table:
        pad = pc.binary_join_element_wise(
            " ", pc.replace_substring(
                pc.fill_null(batch.column("text"), ""), " ", "  "), " ", "")

        def has(t):
            return pc.greater(pc.count_substring(pad, f" {t} "), 0)

        keep = pc.and_(pc.and_(has("batch"), has("join")),
                       pc.invert(has("scan")))
        return pa.table({"doc_id": batch.column("doc_id")}).filter(keep)

    return docs.map_batches(match, batch_format="pyarrow")


def _q_pdf_outline(sf_dir: str):
    """PDF document-outline (bookmark) channel: per multi-page PDF,
    one row per top-level outline item in /First→/Next order — the
    table-of-contents extraction section-aware chunking starts from.
    Oracle reconstructs the synthesizer's per-page bookmark rule."""
    from pdf_extractor_ray.codecs.pdf_codec import extract_outline
    from pdf_extractor_ray.stages.extract import sniff_doc_kind

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    ds = ds.filter(expr="doc_kind == 'pdf'")

    def fn(batch: pa.Table) -> pa.Table:
        urls, poss, titles = [], [], []
        for url, payload in zip(batch.column("url").to_pylist(),
                                batch.column("html").to_pylist()):
            for i, t in enumerate(extract_outline(payload) if payload else []):
                urls.append(url)
                poss.append(i + 1)
                titles.append(t)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "pos": pa.array(poss, pa.int64()),
            "title": pa.array(titles, pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def _q_page_meta(sf_dir: str):
    """HTML head-metadata channel: sniff-route the pages corpus, run
    the head parser over HTML payloads, keep pages that declare a
    canonical URL (drops garbage/boilerplate edge pages).  The oracle
    reconstructs the synthesizer's deterministic head fields in SQL."""
    from pdf_extractor_ray.stages.extract import PageMetaStage, sniff_doc_kind

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    ds = ds.filter(expr="doc_kind == 'html'")
    ds = ds.map_batches(PageMetaStage(), batch_format="pyarrow")
    return ds.map_batches(
        lambda b: b.filter(b.column("canonical_url").is_valid()),
        batch_format="pyarrow",
    )


def _q_noindex_pages(sf_dir: str):
    """Crawl-policy channel: pages whose head declares a robots
    ``noindex`` directive — the set an index/training pipeline must
    drop to honor publisher opt-outs.  Composes the sniff router with
    the head-metadata stage; the oracle reconstructs the synthesizer's
    deterministic robots rule."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.stages.extract import PageMetaStage, sniff_doc_kind

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    ds = ds.filter(expr="doc_kind == 'html'")
    ds = ds.map_batches(PageMetaStage(), batch_format="pyarrow")
    return ds.map_batches(
        lambda b: b.filter(
            pc.match_substring(pc.fill_null(b.column("robots"), ""), "noindex")
        ),
        batch_format="pyarrow",
    ).select_columns(["url", "robots"])


def _q_pdf_meta(sf_dir: str):
    """PDF metadata channel: sniff-route the pages corpus, read the
    trailer /Info dictionary of PDF payloads (Title/Author/Subject/
    Producer), keep rows whose Info parsed (drops truncated/image-only
    edge PDFs carrying no Info).  The oracle reconstructs the
    synthesizer's deterministic Info fields in SQL — the PDF twin of
    ``page_meta``."""
    from pdf_extractor_ray.stages.extract import PdfMetaStage, sniff_doc_kind

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    ds = ds.filter(expr="doc_kind == 'pdf'")
    ds = ds.map_batches(PdfMetaStage(), batch_format="pyarrow")
    ds = ds.select_columns(["url", "title", "author", "subject", "producer"])
    return ds.map_batches(
        lambda b: b.filter(b.column("title").is_valid()),
        batch_format="pyarrow",
    )


def _q_extract_entities(sf_dir: str):
    import pyarrow.compute as pc
    from pdf_extractor_ray.pipelines.extraction import entities_pipeline

    ds = entities_pipeline(_pages(sf_dir))

    def counts(batch: pa.Table) -> pa.Table:
        out = {"url": batch.column("url")}
        for kind in ("email", "phone", "date", "currency", "url_ref", "ssn"):
            out[f"n_{kind}"] = pc.cast(
                pc.fill_null(pc.list_value_length(batch.column(kind)), 0), pa.int64()
            )
        return pa.table(out)

    return ds.map_batches(counts, batch_format="pyarrow")


def _q_doc_statistics(sf_dir: str):
    """Per-url Statistics parity record (reference
    extractor/utils/helpers.py:67-86): page-summed totals + averages.
    No SQL oracle — page structure exists only post-extraction;
    parity is pinned by tests/test_pipeline.py."""
    from pdf_extractor_ray.pipelines.extraction import doc_statistics_pipeline

    return doc_statistics_pipeline(_pages(sf_dir))


def _q_standard_result(sf_dir: str):
    """Composed standard-mode envelope: one record per document with
    full_text + six entity lists + statistics (reference
    extractor/models/standard.py:28-71). Rows/schema check."""
    from pdf_extractor_ray.pipelines.extraction import standard_result_pipeline

    return standard_result_pipeline(_pages(sf_dir))


def _q_construction_result(sf_dir: str):
    """Composed construction-mode envelope: one record per document
    with items (JSON), G2 summary counts and statistics (reference
    extractor/models/construction.py:125-154). Rows/schema check —
    items content parity is pinned by golden tests."""
    from pdf_extractor_ray.pipelines.extraction import construction_result_pipeline

    return construction_result_pipeline(_pages(sf_dir))


def _q_doc_stats(sf_dir: str):
    """G1 statistics analogue, grouped by lang (SQL-checkable); partial
    aggregation — lang cardinality is tiny at every scale."""
    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg
    from pdf_extractor_ray.functions.text import add_text_features

    ds = _docs(sf_dir).map_batches(add_text_features, batch_format="pyarrow")
    return lowcard_groupby_agg(
        ds,
        ["lang"],
        [
            ("lang", "count", "n_docs"),
            ("n_chars", "sum", "total_chars"),
            ("n_tokens", "sum", "total_words"),
        ],
    )


def _q_text_features(sf_dir: str):
    from pdf_extractor_ray.functions.text import add_text_features

    return (
        _docs(sf_dir)
        .map_batches(add_text_features, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens", "punct_ratio", "stopword_ratio", "fingerprint"])
    )


def _q_quality_score(sf_dir: str):
    from pdf_extractor_ray.functions.text import add_quality_score, add_text_features

    return (
        _docs(sf_dir)
        .map_batches(add_text_features, batch_format="pyarrow")
        .map_batches(add_quality_score, batch_format="pyarrow")
        .select_columns(["doc_id", "quality_score"])
    )


def _q_detect_language(sf_dir: str):
    from pdf_extractor_ray.functions.text import detect_language

    return (
        _docs(sf_dir)
        .map_batches(detect_language, batch_format="pyarrow")
        .select_columns(["doc_id", "detected_lang"])
    )


def _q_lang_detector_agreement(sf_dir: str):
    """Classifier-agreement audit: Cohen's kappa between the two
    language detectors (stopword-profile vs character-n-gram) — the
    label-quality check a curation pipeline runs before trusting any
    single labeler.  Confusion counts fold distributedly (labels are
    low-cardinality); po/pe/kappa are single fixed-order float
    expressions from exact int64 counts, round-6 — fully oracled by
    wrapping the two detectors' existing SQL twins as CTEs."""
    from pdf_extractor_ray.functions.agg import lowcard_groupby_agg
    from pdf_extractor_ray.functions.joins import hash_join
    from pdf_extractor_ray.functions.text import (
        detect_language,
        detect_language_ngram,
    )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    a = docs.map_batches(
        detect_language, batch_format="pyarrow"
    ).select_columns(["doc_id", "detected_lang"])
    b = docs.map_batches(
        detect_language_ngram, batch_format="pyarrow"
    ).select_columns(["doc_id", "detected_lang_ngram"])
    joined = hash_join(
        a, b, "doc_id", "doc_id",
        ["doc_id", "detected_lang"], ["detected_lang_ngram"],
    )
    conf = lowcard_groupby_agg(
        joined.select_columns(["detected_lang", "detected_lang_ngram"]),
        ["detected_lang", "detected_lang_ngram"],
        [("detected_lang", "count", "c")],
    )
    la = conf.column("detected_lang").to_pylist()
    lb = conf.column("detected_lang_ngram").to_pylist()
    c = conf.column("c").to_pylist()
    n = sum(c)
    agree = sum(v for x, y, v in zip(la, lb, c) if x == y)
    ra: dict = {}
    rb: dict = {}
    for x, y, v in zip(la, lb, c):
        ra[x] = ra.get(x, 0) + v
        rb[y] = rb.get(y, 0) + v
    s = sum(ra[k] * rb.get(k, 0) for k in ra)
    # guards (ADVICE r4): empty corpus → all-zero row; pe == 1 means
    # both detectors emit one identical label everywhere — kappa is
    # conventionally 1.0 when po == pe == 1 (perfect agreement), else
    # 0.0 (undefined denominator, no skill beyond chance)
    po = agree / n if n else 0.0
    pe = s / (n * n) if n else 0.0
    if pe == 1.0:
        kappa = 1.0 if po == 1.0 else 0.0
    else:
        kappa = (po - pe) / (1 - pe)
    import math

    def r6(v):
        return math.copysign(math.floor(abs(v) * 1e6 + 0.5) / 1e6, v)

    return pa.table({
        "n": pa.array([n], pa.int64()),
        "n_agree": pa.array([agree], pa.int64()),
        "po": pa.array([r6(po)], pa.float64()),
        "pe": pa.array([r6(pe)], pa.float64()),
        "kappa": pa.array([r6(kappa)], pa.float64()),
    })


def _kappa_sql() -> str:
    """Agreement oracle: the two langid SQL twins wrapped as CTEs, then
    Cohen's kappa from exact int counts in the same fixed float order
    as the Ray side."""
    lang = _langid_oracles()
    return f"""
        WITH a AS ({lang['detect_language']}),
        b AS ({lang['detect_language_ngram']}),
        j AS (
            SELECT a.detected_lang AS la, b.detected_lang_ngram AS lb
            FROM a JOIN b ON a.doc_id = b.doc_id
        ),
        m AS (
            SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN la = lb THEN 1 ELSE 0 END) AS BIGINT)
                       AS agree
            FROM j
        ),
        ra AS (SELECT la AS k, count(*) AS c FROM j GROUP BY la),
        rb AS (SELECT lb AS k, count(*) AS c FROM j GROUP BY lb),
        sm AS (
            SELECT CAST(coalesce(sum(ra.c * rb.c), 0) AS BIGINT) AS s
            FROM ra JOIN rb ON rb.k = ra.k
        )
        SELECT n, agree AS n_agree,
               round(CAST(agree AS DOUBLE) / n, 6) AS po,
               round(CAST(s AS DOUBLE) / (n * n), 6) AS pe,
               round((CAST(agree AS DOUBLE) / n
                      - CAST(s AS DOUBLE) / (n * n))
                     / (1 - CAST(s AS DOUBLE) / (n * n)), 6) AS kappa
        FROM m, sm
    """


def _q_dedup_exact(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import exact_dedup

    ds = exact_dedup(_docs(sf_dir))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["text_hash", "representative", "n_copies"])

    return ds.map_batches(rename, batch_format="pyarrow")


def _q_ngram_jaccard_dups(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_docs(sf_dir), threshold=0.5, k=3)


def _q_minhash_lsh_dups(sf_dir: str):
    """Scale-path near-dup: MinHash+LSH candidates verified by exact
    Jaccard, fully distributed — candidates join back to per-doc
    shingle sets by doc_id; no driver-side corpus materialization.
    VALUE-ORACLED (round 5) against the exact all-pairs Jaccard SQL:
    verification is exact, and candidate recall 1.0 at the fixed seed
    is both test-pinned and now driver-enforced (a recall miss would
    hash-mismatch the oracle).  The SQL twin is O(n²) — like the other
    documented all-pairs twins, skip its SQL in big-SF sweeps (the
    driver gate runs at sf0.01, where it passes in ~4 s)."""
    from pdf_extractor_ray.functions.dedup import minhash_lsh_verified

    return minhash_lsh_verified(_docs(sf_dir), threshold=0.5)


def _docs_mod_split(sf_dir: str, rems):
    """documents rows whose ``doc_id % 10`` is in ``rems`` (Ray's
    filter-expr parser rejects BinOp left operands, so the mask is a
    numpy map_batches)."""
    import numpy as np
    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def f(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(np.isin(ids % 10, rems)))

    return docs.map_batches(f, batch_format="pyarrow")


def _lsh_index_cached(sf_dir: str, tag: str, build) -> str:
    """Persisted-LSH-index /tmp read-through cache (the ``_pages``
    contract): the index is a PURE function of
    documents.parquet, the split tag and the index/dedup sources, and
    the gate's incremental-dedup queries rebuild the SAME historical
    index per run — so build once into an atomic tmp-then-rename dir
    and re-open it.  Any failure falls back to a fresh build in a
    scratch dir, so correctness never depends on the cache."""
    import hashlib
    import os
    import shutil
    import tempfile

    from pdf_extractor_ray.functions import dedup as dedup_mod
    from pdf_extractor_ray.functions import lsh_index as lsh_mod

    try:
        doc_path = os.path.join(sf_dir, "documents.parquet")
        st = os.stat(doc_path)
        srcs = b""
        for m in (lsh_mod, dedup_mod):
            with open(m.__file__, "rb") as f:
                srcs += f.read()
        key = hashlib.md5(
            f"lshidx:{tag}:{os.path.abspath(sf_dir)}:{st.st_size}:"
            f"{st.st_mtime_ns}:".encode() + srcs
        ).hexdigest()[:16]
        out = os.path.join(_PAGES_CACHE_ROOT, key)
        if not os.path.exists(os.path.join(out, "_SUCCESS")):
            tmp = f"{out}.tmp.{os.getpid()}"
            if os.path.isdir(tmp):
                shutil.rmtree(tmp)
            os.makedirs(tmp, exist_ok=True)
            build(tmp)
            with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
                f.write("ok\n")
            try:
                os.rename(tmp, out)
            except OSError:  # concurrent writer won the rename
                shutil.rmtree(tmp, ignore_errors=True)
        return out
    except Exception:
        scratch = tempfile.mkdtemp(prefix="lshidx-")
        build(scratch)
        return scratch


def _q_incremental_near_dups(sf_dir: str):
    """Recrawl near-dup detection against a PERSISTED LSH index (the
    CCNet/RefinedWeb recrawl loop): the historical corpus (doc_id % 5
    != 0) is indexed ONCE — band rows + shingle sets written as
    bucketed co-partitioned parquet, boilerplate band keys dropped by
    a keys-only anti-join — and the new batch (doc_id % 5 == 0) is
    banded with the stored seed and joined bucket-dir-by-bucket-dir
    with ZERO exchange over (and zero recompute of) the historical
    side; candidates verify by exact Jaccard with old shingle sets
    fetched only from the bucket dirs that hold candidate ids
    (functions/lsh_index.py).  VALUE ORACLE: the exact cross-split
    3-gram Jaccard pair SQL — candidate recall 1.0 at the pinned seed
    is a per-pair signature property, so it holds across the split,
    and verification is exact.  O(n²) SQL twin — skip in big-SF
    sweeps like the other documented twins.  The historical index is
    built through the ``_lsh_index_cached`` read-through cache (both
    incremental queries share the same corpus-A index per gate
    run)."""
    from pdf_extractor_ray.functions.lsh_index import (build_lsh_index,
                                                       query_lsh_index)

    old_rems = [1, 2, 3, 4, 6, 7, 8, 9]  # doc_id % 5 != 0
    index_dir = _lsh_index_cached(
        sf_dir, "corpusA",
        lambda d: build_lsh_index(_docs_mod_split(sf_dir, old_rems), d),
    )
    new = _docs_mod_split(sf_dir, [0, 5])  # doc_id % 5 == 0
    return query_lsh_index(new, index_dir, threshold=0.5)


def _q_incremental_ingest_near_dups(sf_dir: str):
    """The FULL recrawl loop driver-pinned end-to-end: build the LSH
    index on corpus A (doc_id % 10 ∉ {0, 5}), APPEND batch B (doc_id %
    10 == 0) into the live index (``append_lsh_index`` —
    ``write_bucketed(append=True)``, per-batch boilerplate gate,
    atomic meta update), then query batch C (doc_id % 10 == 5): every
    C near-dup of A ∪ B must surface through ONE query.  VALUE
    ORACLE: the exact cross-split 3-gram Jaccard pair SQL over C ×
    (A ∪ B).  O(n²) SQL twin like its sibling.  The corpus-A base
    index comes from the shared ``_lsh_index_cached`` entry and is
    copied to a scratch dir before the append (the append MUTATES the
    index, which must never touch the cache)."""
    import shutil
    import tempfile

    from pdf_extractor_ray.functions.lsh_index import (append_lsh_index,
                                                       build_lsh_index,
                                                       query_lsh_index)

    base = _lsh_index_cached(
        sf_dir, "corpusA",
        lambda d: build_lsh_index(
            _docs_mod_split(sf_dir, [1, 2, 3, 4, 6, 7, 8, 9]), d),
    )
    index_dir = tempfile.mkdtemp(prefix="lshidx-ing-")
    shutil.rmtree(index_dir)
    shutil.copytree(base, index_dir)
    append_lsh_index(_docs_mod_split(sf_dir, [0]), index_dir)
    return query_lsh_index(_docs_mod_split(sf_dir, [5]), index_dir,
                           threshold=0.5)


_INCREMENTAL_INGEST_SQL = """
            WITH toks AS (
                SELECT doc_id, string_split_regex(trim(text), '\\s+') AS t
                FROM documents
            ), sh AS (
                SELECT doc_id,
                       list_distinct([array_to_string(t[i:i+2], ' ')
                                      for i in range(1, len(t) - 1)]) AS s
                FROM toks WHERE len(t) >= 3
            )
            SELECT n.doc_id AS new_doc_id, o.doc_id AS old_doc_id,
                   round(len(list_intersect(n.s, o.s))::DOUBLE
                         / len(list_distinct(list_concat(n.s, o.s))), 6)
                       AS jaccard
            FROM sh n JOIN sh o
              ON n.doc_id % 10 = 5 AND o.doc_id % 10 != 5
            WHERE len(list_intersect(n.s, o.s))::DOUBLE
                  / len(list_distinct(list_concat(n.s, o.s))) >= 0.5
"""


_INCREMENTAL_NEAR_DUPS_SQL = """
            WITH toks AS (
                SELECT doc_id, string_split_regex(trim(text), '\\s+') AS t
                FROM documents
            ), sh AS (
                SELECT doc_id,
                       list_distinct([array_to_string(t[i:i+2], ' ')
                                      for i in range(1, len(t) - 1)]) AS s
                FROM toks WHERE len(t) >= 3
            )
            SELECT n.doc_id AS new_doc_id, o.doc_id AS old_doc_id,
                   round(len(list_intersect(n.s, o.s))::DOUBLE
                         / len(list_distinct(list_concat(n.s, o.s))), 6)
                       AS jaccard
            FROM sh n JOIN sh o
              ON n.doc_id % 5 = 0 AND o.doc_id % 5 != 0
            WHERE len(list_intersect(n.s, o.s))::DOUBLE
                  / len(list_distinct(list_concat(n.s, o.s))) >= 0.5
"""


def _q_latest_event_per_user(sf_dir: str):
    """Recrawl-dedup shape (last-write-wins per key): newest event per
    user; at corpus scale this is dedup-by-url keeping max warc_ts."""
    import ray.data

    from pdf_extractor_ray.functions.dedup import latest_by_key

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    return latest_by_key(ds, key="user_id", ts_col="ts", tiebreak="event_id")


def _q_simhash_dups(sf_dir: str):
    """SimHash near-dup pairs (Hamming ≤ 10), recall-1.0 pigeonhole
    banding + exact in-bucket verify.  VALUE-ORACLED (round 5) by
    ``_simhash_dups_sql``: the whole signature (crc32 shingles →
    splitmix64 → bit votes) is reconstructed in generated SQL and the
    exact all-pairs Hamming twin must match to the byte.  O(n²) SQL —
    skip its SQL in big-SF sweeps like the other documented twins."""
    from pdf_extractor_ray.functions.dedup import simhash_dedup

    return simhash_dedup(_docs(sf_dir), max_hamming=10)


def _emb_queries(sf_dir: str, ids=(0, 1, 2)):
    """Fetch the query vectors ONLY (predicate pushed to the parquet
    reader — row groups without the ids are skipped; the embedding
    table never loads whole)."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(ids))],
    )
    lookup = {v: e for v, e in zip(t.column("vec_id").to_pylist(),
                                   t.column("embedding").to_pylist())}
    return np.asarray([lookup[i] for i in ids], dtype=np.float64)


def _q_ann_topk(sf_dir: str):
    import ray.data

    from pdf_extractor_ray.functions.similarity import ann_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = _emb_queries(sf_dir)
    res = ann_topk(emb, q, k=10, query_ids=[0, 1, 2])
    return res.drop_columns(["sim"])  # float parity handled via rank


def _q_detect_language_ngram(sf_dir: str):
    from pdf_extractor_ray.functions.text import detect_language_ngram

    return (
        _docs(sf_dir)
        .map_batches(detect_language_ngram, batch_format="pyarrow")
        .select_columns(["doc_id", "detected_lang_ngram"])
    )


def _q_ivf_topk(sf_dir: str):
    """Scale-path ANN: hyperplane-LSH bucketed search.  VALUE-ORACLED
    (round 5) by ``_ivf_topk_sql``: the seed-42 plane matrix is inlined
    as exact round-trip float literals, bucket bits are sign tests on
    ``list_dot_product`` (measured projection margin 3.3e-4 at sf0.01 —
    five orders above float64 noise), and the probed-bucket candidates
    are ranked by exact cosine with the ann_topk rank/tiebreak recipe
    (sim column dropped, rank compared)."""
    import ray.data

    from pdf_extractor_ray.functions.similarity import ivf_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = _emb_queries(sf_dir)
    return ivf_topk(emb, q, k=10, dim=q.shape[1]).drop_columns(["sim"])


def _q_page_previews(sf_dir: str):
    """M14 preview projection: ≤200-char page preview + has_tables flag
    (reference: extractor/services/extraction_service.py:193-214)."""
    from pdf_extractor_ray.pipelines.extraction import extraction_pipeline

    ds = extraction_pipeline(_pages(sf_dir), emit_pages=True)

    def previews(batch: pa.Table) -> pa.Table:
        urls_out, page_nums, prevs, has_tables = [], [], [], []
        for url, pages, tables in zip(
            batch.column("url").to_pylist(),
            batch.column("pages").to_pylist(),
            batch.column("tables").to_pylist(),
        ):
            for i, page in enumerate(pages or []):
                text = page["text"] or ""
                urls_out.append(url)
                page_nums.append(page["page_num"])
                prevs.append(text[:200] + "..." if len(text) > 200 else text)
                page_tables = (tables or [])[i] if tables and i < len(tables) else []
                has_tables.append(bool(page_tables))
        return pa.table(
            {
                "url": pa.array(urls_out, pa.string()),
                "page_num": pa.array(page_nums, pa.int32()),
                "preview": pa.array(prevs, pa.string()),
                "has_tables": pa.array(has_tables, pa.bool_()),
            }
        )

    return ds.map_batches(previews, batch_format="pyarrow")


_ENTITY_PARSER = None


def _entity_parser():
    """Compile-once-per-worker-process EntityParser (the _STAGES
    warm-state pattern from pipelines/extraction.py:46 — never
    construct pattern banks inside a per-batch function)."""
    global _ENTITY_PARSER
    if _ENTITY_PARSER is None:
        from pdf_extractor_ray.parsers.standard import EntityParser

        _ENTITY_PARSER = EntityParser()
    return _ENTITY_PARSER


def _q_structured_parse(sf_dir: str):
    """M10 structured-data parse: word/line counts per document."""

    def parse(batch: pa.Table) -> pa.Table:
        parser = _entity_parser()
        words, lines = [], []
        for t in batch.column("text").to_pylist():
            d = parser.parse_structured_data(t or "")
            words.append(d["word_count"])
            lines.append(d["line_count"])
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "word_count": pa.array(words, pa.int64()),
                "line_count": pa.array(lines, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(parse, batch_format="pyarrow")


def _q_kv_pairs(sf_dir: str):
    """M11 key-value finder, exercised over deterministic kv text built
    from document fields (the oracle builds the same text in SQL)."""
    from pdf_extractor_ray.parsers.standard import EntityParser

    def kv(batch: pa.Table) -> pa.Table:
        ids_out, keys, vals = [], [], []
        for doc_id, lang, source in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("lang").to_pylist(),
            batch.column("source").to_pylist(),
        ):
            text = f"doc_id: {doc_id}\nlang: {lang}\nsource: {source}\nno separator line"
            for k, v in EntityParser.find_key_value_pairs(text).items():
                ids_out.append(doc_id)
                keys.append(k)
                vals.append(v)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "key": pa.array(keys, pa.string()),
                "value": pa.array(vals, pa.string()),
            }
        )

    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "source"]
    )
    return ds.map_batches(kv, batch_format="pyarrow")


def _q_items_summary(sf_dir: str):
    """G2 construction summary: corpus-level conditional counts via
    partial aggregation inside map_batches + a single global sum."""
    import pyarrow.compute as pc
    from pdf_extractor_ray.pipelines.extraction import items_pipeline

    ds = items_pipeline(_pages(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        def nn(col: str) -> int:
            return batch.num_rows - batch.column(col).null_count

        return pa.table(
            {
                "total_items": pa.array([batch.num_rows], pa.int64()),
                "with_quantity": pa.array(
                    [nn("qty_int") + nn("qty_ref")], pa.int64()
                ),
                "with_model": pa.array([nn("model_number")], pa.int64()),
                "with_dimensions": pa.array([nn("dimensions")], pa.int64()),
                "with_mounting": pa.array([nn("mounting_type")], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    import ray

    t = pa.concat_tables([ray.get(r) for r in parts])
    return pa.table(
        {
            name: pa.array([pc.sum(t.column(name)).as_py() or 0], pa.int64())
            for name in t.column_names
        }
    )


def _q_merge_items(sf_dir: str):
    """J1-J3 enrich-merge: line-extracted items (primary) merged with
    table-extracted items (secondary) per document url."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.functions.merge import merge_tagged
    from pdf_extractor_ray.pipelines.extraction import items_pipeline

    def tag_by_origin(batch: pa.Table) -> pa.Table:
        src = pc.if_else(
            pc.is_null(batch.column("table_number")),
            pa.scalar("primary"),
            pa.scalar("secondary"),
        )
        return batch.append_column("source", src)

    # single tagging pass — the extraction pipeline executes ONCE
    tagged = items_pipeline(_pages(sf_dir)).map_batches(
        tag_by_origin, batch_format="pyarrow"
    )
    return merge_tagged(tagged)


def _q_corpus_prep(sf_dir: str):
    """The composed end-to-end corpus-prep pipeline: quality/language
    gate → exact dedup → MinHash near-dup removal. VALUE-ORACLED
    (round 5): gate = the oracled quality_score SQL, exact dedup = a
    QUALIFY min-doc_id window, near-dup drop = the exact-Jaccard pair
    set (LSH recall 1.0 at the fixed seed is per-pair, so it holds on
    the survivor subset).  Survivor invariants additionally pinned by
    tests/test_corpus_prep.py.  O(n²) SQL twin — sf0.01 gate only."""
    from pdf_extractor_ray.pipelines.corpus_prep import corpus_prep_pipeline

    return corpus_prep_pipeline(_docs(sf_dir))


def _q_incremental_ingest(sf_dir: str):
    """Incremental crawl ingestion: dedup a NEW batch (sources
    src10-src19) against the EXISTING corpus (src0-src9) — new docs
    whose exact text already exists in the old corpus are dropped.
    The recrawl-merge shape every continuously-updated corpus runs:
    old side ships only 16-byte md5 keys through the anti-join."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.functions.dedup import add_exact_hash
    from pdf_extractor_ray.functions.joins import semi_anti_join

    def hashed(pred):
        def fn(batch: pa.Table) -> pa.Table:
            srcnum = pc.cast(
                pc.utf8_slice_codeunits(batch.column("source"), 3, 99),
                pa.int64(),
            )
            t = add_exact_hash(batch).filter(pred(srcnum))
            return t.select(["doc_id", "source", "text_hash"])

        return fn

    docs = _docs(sf_dir).select_columns(["doc_id", "source", "text"])
    new = docs.map_batches(
        hashed(lambda s: pc.greater_equal(s, 10)), batch_format="pyarrow"
    )
    old = docs.map_batches(
        hashed(lambda s: pc.less(s, 10)), batch_format="pyarrow"
    )
    return semi_anti_join(
        new,
        old,
        "text_hash",
        "text_hash",
        left_cols=["doc_id", "source"],
        how="anti",
    )


def _q_anchor_text_agg(sf_dir: str):
    """Anchor-text index over the crawl: for each link TARGET, how many
    pages reference it with each anchor text (the web-search relevance
    signal).  Sniff-routed to HTML payloads; the oracle reconstructs
    the synthesizer's deterministic static + related-links nav."""
    from pdf_extractor_ray.functions.url import anchor_text_index
    from pdf_extractor_ray.stages.extract import sniff_doc_kind

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    return anchor_text_index(ds.filter(expr="doc_kind == 'html'"))


def _q_doc_bigram_cross_entropy(sf_dir: str):
    """Order-2 statistical-LM quality signal: per-doc bigram
    cross-entropy vs the corpus conditional bigram MLE (CCNet
    perplexity-filter shape, deterministic)."""
    from pdf_extractor_ray.functions.text import doc_bigram_cross_entropy

    return doc_bigram_cross_entropy(_docs(sf_dir))


def _q_page_structure(sf_dir: str):
    """DOM-structure profile of the crawl: per HTML page, tag counts +
    max nesting depth (template/table-density signal).  Tagless
    payloads (binary garbage sniffed as html) are dropped via
    max_depth > 0; the oracle reconstructs the synthesizer's
    deterministic page shape (paragraph-fold rule, table cadence,
    giant ×30, entity paragraph) in SQL."""
    from pdf_extractor_ray.stages.extract import PageStructureStage, sniff_doc_kind

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    ds = ds.filter(expr="doc_kind == 'html'")
    ds = ds.map_batches(PageStructureStage(), batch_format="pyarrow")
    return ds.filter(expr="max_depth > 0")


def _q_template_clusters(sf_dir: str):
    """Template detection: pages grouped by their exact DOM-structure
    profile (tag counts + depth) — pages sharing a shape are instances
    of one site template, the unit boilerplate removal and per-template
    sampling operate on at crawl scale.  One value-space exchange of
    8-int rows (shape hash partitions), vectorized in-partition fold →
    (shape, n_pages, min-url representative); clusters of ≥2 kept.
    Oracle: GROUP BY over the page_structure reconstruction."""
    import numpy as np

    from pdf_extractor_ray.stages.extract import PageStructureStage, sniff_doc_kind

    shape_cols = list(PageStructureStage.FIELDS)
    num_partitions = 32
    _MIXC = np.uint64(0x9E3779B97F4A7C15)

    ds = _pages(sf_dir).map_batches(sniff_doc_kind, batch_format="pyarrow")
    ds = ds.filter(expr="doc_kind == 'html'")
    ds = ds.map_batches(PageStructureStage(), batch_format="pyarrow")
    ds = ds.filter(expr="max_depth > 0")

    def add_part(batch: pa.Table) -> pa.Table:
        acc = np.zeros(batch.num_rows, dtype=np.uint64)
        for c in shape_cols:
            acc = acc * _MIXC + batch.column(c).to_numpy(
                zero_copy_only=False
            ).astype(np.uint64)
        part = (acc % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("__tpart", pa.array(part, pa.int32()))

    def fold(group: pa.Table) -> pa.Table:
        urls = np.asarray(group.column("url").to_pylist())
        keys = [
            group.column(c).to_numpy(zero_copy_only=False) for c in shape_cols
        ]
        order = np.lexsort([urls] + keys[::-1])
        sk = [k[order] for k in keys]
        change = np.zeros(len(urls), dtype=bool)
        change[0] = True
        for k in sk:
            change[1:] |= k[1:] != k[:-1]
        starts = np.nonzero(change)[0]
        counts = np.diff(np.append(starts, len(urls)))
        keep = counts >= 2
        out = {c: pa.array(k[starts][keep], pa.int64())
               for c, k in zip(shape_cols, sk)}
        out["n_pages"] = pa.array(counts[keep], pa.int64())
        out["representative"] = pa.array(urls[order][starts][keep], pa.string())
        return pa.table(out)

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__tpart")
        .map_groups(fold, batch_format="pyarrow")
    )


def _q_inverted_index(sf_dir: str):
    """Search-index build: token → sorted doc-id posting list (df = true
    document frequency).  Postings projected to a comma string so the
    oracle can compare full content."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.functions.text import inverted_index

    idx = inverted_index(_docs(sf_dir), min_df=2)

    def project(batch: pa.Table) -> pa.Table:
        as_str = pc.cast(batch.column("postings"), pa.list_(pa.string()))
        return pa.table(
            {
                "token": batch.column("token"),
                "df": batch.column("df"),
                "postings_str": pc.binary_join(as_str, ","),
            }
        )

    return idx.map_batches(project, batch_format="pyarrow")


def _q_table_items(sf_dir: str):
    """M8 table→items parser, FULL-VALUE oracled: the synthetic corpus
    plants construction tables by pure doc_id formula
    (sources/corpus.py _construction_rows / _html_doc / _pdf_doc), so
    the expected item rows are SQL-reconstructible from doc_id alone —
    the cascade's table path checked end-to-end (transport decode →
    table extraction → item rows) against an independent oracle."""
    import pyarrow.compute as pc

    from pdf_extractor_ray.pipelines.extraction import items_pipeline

    ds = items_pipeline(_pages(sf_dir))

    def keep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch.column("table_number")))
        return pa.table(
            {
                "url": t.column("url"),
                "fixture_type": t.column("fixture_type"),
                "qty_int": t.column("qty_int").cast(pa.int64()),
                "model_number": t.column("model_number"),
                "dimensions": t.column("dimensions"),
                "mounting_type": t.column("mounting_type"),
                "spec_reference": t.column("spec_reference"),
                "page_number": t.column("page_number").cast(pa.int64()),
                "table_number": t.column("table_number").cast(pa.int64()),
                "row_num": t.column("row_number").cast(pa.int64()),
            }
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def _table_items_sql() -> str:
    """Oracle generated from the corpus constants (the _langid_oracles
    pattern): eligible docs and all six item fields are closed-form in
    doc_id."""
    from pdf_extractor_ray.sources.corpus import (
        _DIMS,
        _FIXTURES,
        _MODELS,
        _MOUNTS,
        _SPECS,
    )

    def lst(xs) -> str:
        return "[" + ", ".join(
            "'" + x.replace("'", "''") + "'" for x in xs
        ) + "]"

    return f"""
        WITH ids AS (
            SELECT doc_id AS d FROM documents
            WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
              AND ( (doc_id % 10 <> 7 AND doc_id % 5 = 0)
                 OR (doc_id % 10 = 7 AND doc_id % 97 <> 0
                     AND doc_id % 40 <> 17 AND (doc_id // 10) % 4 = 2) )
        ), rws AS (
            SELECT d, r, d + r AS k FROM ids
            CROSS JOIN (VALUES (0), (1), (2)) AS t(r)
        )
        SELECT printf('https://example.org/%04d/%09d', d % 1000, d) AS url,
               {lst(_FIXTURES)}[(k % {len(_FIXTURES)}) + 1] AS fixture_type,
               CAST((k % 9) + 1 AS BIGINT) AS qty_int,
               {lst(_MODELS)}[(k % {len(_MODELS)}) + 1] AS model_number,
               {lst(_DIMS)}[(k % {len(_DIMS)}) + 1] AS dimensions,
               {lst(_MOUNTS)}[(k % {len(_MOUNTS)}) + 1] AS mounting_type,
               {lst(_SPECS)}[(k % {len(_SPECS)}) + 1] AS spec_reference,
               CAST(1 AS BIGINT) AS page_number,
               CAST(1 AS BIGINT) AS table_number,
               CAST(r + 1 AS BIGINT) AS row_num
        FROM rws
    """


# MMR oracle: the greedy is UNROLLED into m chained MATERIALIZED CTEs
# (selection step k = argmax over unselected candidates of
# lam*rel - (1-lam)*max_sim_to_selected; ties by vec_id), generated
# here because the step count is a constant of the query. Cosines are
# computed over CAST(embedding AS DOUBLE[]) so DuckDB matches numpy's
# float64 arithmetic; MATERIALIZED stops the CTE chain re-expanding
# exponentially. Verified value-identical (ids exact, relevance equal
# at the compare's %.6g granularity) at sf0.01 and sf0.1.
def _mmr_sql(m=10, k=50, lam="0.7"):
    steps = []
    sel = "sel1"
    steps.append(f"""
sel1 AS MATERIALIZED (
  SELECT qid, vec_id, rel, 1 AS rank, {lam} * rel AS mmr FROM (
    SELECT qid, vec_id, rel,
           row_number() OVER (PARTITION BY qid ORDER BY rel DESC, vec_id) AS rn
    FROM cand) WHERE rn = 1),
selall1 AS MATERIALIZED (SELECT qid, vec_id, rel, rank FROM sel1)""")
    for s in range(2, m + 1):
        prev = f"selall{s-1}"
        steps.append(f"""
step{s} AS MATERIALIZED (
  SELECT qid, vec_id, rel, {s} AS rank FROM (
    SELECT c.qid, c.vec_id, c.rel,
           row_number() OVER (
             PARTITION BY c.qid
             ORDER BY {lam} * c.rel - (1.0 - {lam}) * ms.m DESC, c.vec_id
           ) AS rn
    FROM cand c
    JOIN (SELECT p.qid, p.va AS vec_id, max(p.sim) AS m
          FROM pair p JOIN {prev} s ON p.qid = s.qid AND p.vb = s.vec_id
          GROUP BY p.qid, p.va) ms
      ON ms.qid = c.qid AND ms.vec_id = c.vec_id
    WHERE NOT EXISTS (SELECT 1 FROM {prev} s
                      WHERE s.qid = c.qid AND s.vec_id = c.vec_id)
  ) WHERE rn = 1),
selall{s} AS MATERIALIZED (SELECT * FROM selall{s-1}
              UNION ALL SELECT qid, vec_id, rel, rank FROM step{s})""")
    chain = ",".join(steps)
    return f"""
WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
cand AS MATERIALIZED (
  SELECT qid, vec_id, rel FROM (
    SELECT q.qid, e.vec_id,
           list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS rel,
           row_number() OVER (
             PARTITION BY q.qid
             ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) DESC,
                      e.vec_id) AS rn
    FROM embeddings e, q) WHERE rn <= {k}),
pair AS MATERIALIZED (
  SELECT a.qid, a.vec_id AS va, b.vec_id AS vb,
         list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]), CAST(eb.embedding AS DOUBLE[])) AS sim
  FROM cand a
  JOIN cand b ON a.qid = b.qid
  JOIN embeddings ea ON ea.vec_id = a.vec_id
  JOIN embeddings eb ON eb.vec_id = b.vec_id),{chain}
SELECT qid AS query_id, rank, vec_id, round(rel, 6) AS relevance
FROM selall{m}
"""



def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # extraction engine (reference-semantics pipelines)
        "extract_pages": _q_extract_pages,
        "extract_golden_match": _q_extract_golden_match,
        "extract_status_match": _q_extract_status_match,
        "extract_text_html": _q_extract_text_html,
        "extract_text_pdf": _q_extract_text_pdf,
        "web_prep": _q_web_prep,
        "bucketed_join_orders": _q_bucketed_join_orders,
        "bucketed_revenue_by_customer": _q_bucketed_revenue_by_customer,
        "join_size_estimate": _q_join_size_estimate,
        "q3_unshipped_revenue": _q_q3_unshipped_revenue,
        "cms_user_counts": _q_cms_user_counts,
        "standard_result_flat": _q_standard_result_flat,
        "bm25_topk": _q_bm25_topk,
        "bm25_index_topk": _q_bm25_index_topk,
        "search_snippets": _q_search_snippets,
        "phrase_search": _q_phrase_search,
        "ql_dirichlet_topk": _q_ql_dirichlet_topk,
        "rrf_fusion_topk": _q_rrf_fusion_topk,
        "mmr_topk": _q_mmr_topk,
        "quality_logreg": _q_quality_logreg,
        "boolean_search": _q_boolean_search,
        "extract_items": _q_extract_items,
        "extract_entities": _q_extract_entities,
        "page_meta": _q_page_meta,
        "pdf_meta": _q_pdf_meta,
        "pdf_outline": _q_pdf_outline,
        "noindex_pages": _q_noindex_pages,
        "inverted_index": _q_inverted_index,
        "doc_bigram_cross_entropy": _q_doc_bigram_cross_entropy,
        "anchor_text_agg": _q_anchor_text_agg,
        "page_structure": _q_page_structure,
        "template_clusters": _q_template_clusters,
        "doc_statistics": _q_doc_statistics,
        "standard_result": _q_standard_result,
        "construction_result": _q_construction_result,
        # corpus-scale text analysis
        "doc_stats": _q_doc_stats,
        "text_features": _q_text_features,
        "quality_score": _q_quality_score,
        "detect_language": _q_detect_language,
        "lang_detector_agreement": _q_lang_detector_agreement,
        "detect_language_ngram": _q_detect_language_ngram,
        # dedup family
        "dedup_exact": _q_dedup_exact,
        "ngram_jaccard_dups": _q_ngram_jaccard_dups,
        "minhash_lsh_dups": _q_minhash_lsh_dups,
        "incremental_near_dups": _q_incremental_near_dups,
        "incremental_ingest_near_dups": _q_incremental_ingest_near_dups,
        "simhash_dups": _q_simhash_dups,
        "latest_event_per_user": _q_latest_event_per_user,
        # similarity search
        "ann_topk": _q_ann_topk,
        "ivf_topk": _q_ivf_topk,
        # ---- end of the 50 keys CORRECTNESS_r05.json checks, in order ----
        # preview projection (M14)
        "page_previews": _q_page_previews,
        # standard-mode parsing (M10/M11)
        "structured_parse": _q_structured_parse,
        "kv_pairs": _q_kv_pairs,
        # construction summary + enrich-merge (G2, J1-J3)
        "items_summary": _q_items_summary,
        "table_items": _q_table_items,
        "merge_items": _q_merge_items,
        # corpus prep and the recrawl LSH index
        "corpus_prep": _q_corpus_prep,
        "incremental_ingest": _q_incremental_ingest,
    }


_EXTRACT_TEXT_HTML_SQL = r"""
            WITH d AS (
                SELECT doc_id, str_split(text, ' ') AS w,
                       len(str_split(text, ' ')) AS n,
                       (doc_id % 97 = 0) AS giant
                FROM documents
                WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
                  AND (doc_id % 10) <> 7
            ),
            shape AS (
                SELECT *,
                       CASE WHEN n % 14 = 0 THEN n // 14
                            WHEN n % 14 >= 10 THEN n // 14 + 1
                            ELSE n // 14 END AS np
                FROM d
            ),
            base_paras AS (
                SELECT doc_id, unnest(generate_series(0, np - 1)) AS i, np, w, n
                FROM shape
            ),
            para_txt AS (
                SELECT doc_id, i,
                       array_to_string(
                           w[14 * i + 1 :
                             CASE WHEN i = np - 1 THEN n
                                  ELSE 14 * (i + 1) END], ' ') AS para
                FROM base_paras
            ),
            rep AS (
                SELECT s.doc_id, p.i + s.np * r.rep AS seq, p.para
                FROM shape s
                JOIN para_txt p USING (doc_id)
                CROSS JOIN (SELECT unnest(generate_series(0, 29)) AS rep) r
                WHERE r.rep < CASE WHEN s.giant THEN 30 ELSE 1 END
            ),
            entity AS (
                SELECT doc_id, 1000000 AS seq,
                       'For ordering contact sales' || doc_id
                       || '@example.com or call 555-' || (doc_id % 900 + 100)
                       || '-' || (doc_id % 9000 + 1000) || ' before '
                       || (doc_id % 12 + 1) || '/' || (doc_id % 28 + 1)
                       || '/2025 to lock the quoted price of $'
                       || (doc_id % 90 + 10) || ',500.00 for this order' AS para
                FROM shape WHERE doc_id % 7 = 3
            ),
            charref AS (
                SELECT doc_id, 2000000 AS seq,
                       'Entities & escapes <tag> café "quoted" '
                       || 'are decoded by real parsers' AS para
                FROM shape WHERE doc_id % 41 = 15
            ),
            paras_glued AS (
                SELECT doc_id,
                       string_agg(para, chr(10) || chr(10) ORDER BY seq) AS body
                FROM (SELECT * FROM rep UNION ALL SELECT * FROM entity
                      UNION ALL SELECT * FROM charref)
                GROUP BY doc_id
            ),
            tab_rows AS (
                SELECT s.doc_id, r.r AS seq,
                       list_value('VALVE PACKAGE', 'EYE WASH STATION',
                                  'BOILER CIRCULATING PUMP', 'PIPE FITTING',
                                  'COOLING TOWER', 'WASH STATION',
                                  'PUMP ASSEMBLY')[(s.doc_id + r.r) % 7 + 1]
                       || ' | ' || ((s.doc_id + r.r) % 9 + 1)
                       || ' | ' || list_value('OM-141', 'MAU-11', 'VP-100',
                                  'K-2005', 'HUH-13',
                                  'CH-30')[(s.doc_id + r.r) % 6 + 1]
                       || ' | ' || list_value('12"', '3/4" x 6',
                                  '1 1/2"' || chr(248), '25'' -1 5/8"',
                                  '2 x 4 x 6')[(s.doc_id + r.r) % 5 + 1]
                       || ' | ' || list_value('wall-mounted', 'floor-mounted',
                                  'ceiling-hung',
                                  'recessed')[(s.doc_id + r.r) % 4 + 1]
                       || ' | ' || list_value('ASTM D2665', 'ANSI A112',
                                  'grade A', '31.1',
                                  'NFPA 13')[(s.doc_id + r.r) % 5 + 1] AS line
                FROM shape s
                CROSS JOIN (SELECT unnest(generate_series(0, 2)) AS r) r
                WHERE s.doc_id % 5 = 0
            ),
            tab_glued AS (
                SELECT doc_id,
                       'Item | Qty | Model | Size | Mounting | Spec'
                       || chr(10) || chr(10)
                       || string_agg(line, chr(10) || chr(10) ORDER BY seq)
                       AS tab
                FROM tab_rows GROUP BY doc_id
            )
            SELECT
                'https://example.org/'
                    || lpad(CAST(s.doc_id % 1000 AS VARCHAR), 4, '0')
                    || '/' || lpad(CAST(s.doc_id AS VARCHAR), 9, '0') AS url,
                'Document ' || s.doc_id || ': '
                    || array_to_string(s.w[1:3], ' ')
                    || chr(10) || chr(10) || p.body
                    || coalesce(chr(10) || chr(10) || t.tab, '')
                    AS extracted_text
            FROM shape s
            JOIN paras_glued p USING (doc_id)
            LEFT JOIN tab_glued t USING (doc_id)
        """


_EXTRACT_TEXT_PDF_SQL = r"""
WITH d AS (
    SELECT doc_id, str_split(text, ' ') AS w,
           len(str_split(text, ' ')) AS n,
           (doc_id % 97 = 0) AS giant,
           (doc_id % 40 = 17 AND doc_id % 97 <> 0) AS modern,
           (doc_id // 10) % 4 AS variant
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
      AND (doc_id % 10) = 7
),
-- modern PDFs: 3 lines of 5 words
modern_lines AS (
    SELECT doc_id, unnest(generate_series(0, 2)) AS j, w, n FROM d WHERE modern
),
modern_txt AS (
    SELECT doc_id,
           string_agg(
               CASE WHEN 5 * j + 1 > n THEN w[1]
                    ELSE array_to_string(w[5 * j + 1 : least(5 * j + 5, n)], ' ')
               END, chr(10) ORDER BY j) AS golden
    FROM modern_lines GROUP BY doc_id
),
-- variant 0 (or giant): pages of 8 lines, 6 words each, wrapping index
v0_lines AS (
    SELECT doc_id,
           unnest(generate_series(
               0, 8 * (CASE WHEN giant THEN 30 ELSE 1 + doc_id % 3 END) - 1
           )) AS j, w, n
    FROM d WHERE NOT modern AND (variant = 0 OR giant)
),
v0_txt AS (
    SELECT doc_id,
           string_agg(page_txt, chr(10) || chr(10) ORDER BY p) AS golden
    FROM (
        SELECT doc_id, j // 8 AS p,
               string_agg(
                   array_to_string(
                       w[(6 * j) % n + 1 : least((6 * j) % n + 6, n)], ' '),
                   chr(10) ORDER BY j) AS page_txt
        FROM v0_lines GROUP BY doc_id, j // 8, n
    ) GROUP BY doc_id
),
-- variant 1: two columns, 4+4 lines of 4 words
v1_lines AS (
    SELECT doc_id, unnest(generate_series(0, 7)) AS j, w, n
    FROM d WHERE NOT modern AND NOT giant AND variant = 1
),
v1_txt AS (
    SELECT doc_id,
           string_agg(
               CASE WHEN 4 * j + 1 > n THEN w[1]
                    ELSE array_to_string(w[4 * j + 1 : least(4 * j + 4, n)], ' ')
               END, chr(10) ORDER BY j) AS golden
    FROM v1_lines GROUP BY doc_id
),
-- variant 2: FIXTURE SCHEDULE prefix + header + 3 construction rows
v2_rows AS (
    SELECT doc_id, unnest(generate_series(0, 2)) AS r, w FROM d
    WHERE NOT modern AND NOT giant AND variant = 2
),
v2_txt AS (
    SELECT doc_id,
           'FIXTURE SCHEDULE ' || array_to_string(w[1:3], ' ') || chr(10)
           || 'Item | Qty | Model | Size | Mounting | Spec' || chr(10)
           || string_agg(
               list_value('VALVE PACKAGE', 'EYE WASH STATION',
                          'BOILER CIRCULATING PUMP', 'PIPE FITTING',
                          'COOLING TOWER', 'WASH STATION',
                          'PUMP ASSEMBLY')[(doc_id + r) % 7 + 1]
               || ' | ' || ((doc_id + r) % 9 + 1)
               || ' | ' || list_value('OM-141', 'MAU-11', 'VP-100', 'K-2005',
                          'HUH-13', 'CH-30')[(doc_id + r) % 6 + 1]
               || ' | ' || list_value('12"', '3/4" x 6', '1 1/2"' || chr(248),
                          '25'' -1 5/8"', '2 x 4 x 6')[(doc_id + r) % 5 + 1]
               || ' | ' || list_value('wall-mounted', 'floor-mounted',
                          'ceiling-hung', 'recessed')[(doc_id + r) % 4 + 1]
               || ' | ' || list_value('ASTM D2665', 'ANSI A112', 'grade A',
                          '31.1', 'NFPA 13')[(doc_id + r) % 5 + 1],
               chr(10) ORDER BY r) AS golden
    FROM v2_rows GROUP BY doc_id, w
),
-- variant 3: 4 lines of 5 words
v3_lines AS (
    SELECT doc_id, unnest(generate_series(0, 3)) AS j, w, n
    FROM d WHERE NOT modern AND NOT giant AND variant = 3
),
v3_txt AS (
    SELECT doc_id,
           string_agg(
               CASE WHEN 5 * j + 1 > n THEN w[1]
                    ELSE array_to_string(w[5 * j + 1 : least(5 * j + 5, n)], ' ')
               END, chr(10) ORDER BY j) AS golden
    FROM v3_lines GROUP BY doc_id
),
uni AS (
    SELECT * FROM modern_txt UNION ALL SELECT * FROM v0_txt
    UNION ALL SELECT * FROM v1_txt UNION ALL SELECT * FROM v2_txt
    UNION ALL SELECT * FROM v3_txt
)
SELECT
    'https://example.org/'
        || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
        || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
    golden AS extracted_text
FROM uni
"""


_DOC_STATS_SQL = r"""
WITH
-- ====================== shared construction-table rows ==================
ctab AS (
    SELECT doc_id, r,
           list_value('VALVE PACKAGE', 'EYE WASH STATION',
                      'BOILER CIRCULATING PUMP', 'PIPE FITTING',
                      'COOLING TOWER', 'WASH STATION',
                      'PUMP ASSEMBLY')[(doc_id + r) % 7 + 1]
           || ' | ' || ((doc_id + r) % 9 + 1)
           || ' | ' || list_value('OM-141', 'MAU-11', 'VP-100', 'K-2005',
                      'HUH-13', 'CH-30')[(doc_id + r) % 6 + 1]
           || ' | ' || list_value('12"', '3/4" x 6', '1 1/2"' || chr(248),
                      '25'' -1 5/8"', '2 x 4 x 6')[(doc_id + r) % 5 + 1]
           || ' | ' || list_value('wall-mounted', 'floor-mounted',
                      'ceiling-hung', 'recessed')[(doc_id + r) % 4 + 1]
           || ' | ' || list_value('ASTM D2665', 'ANSI A112', 'grade A',
                      '31.1', 'NFPA 13')[(doc_id + r) % 5 + 1] AS line
    FROM documents, (SELECT unnest(generate_series(0, 2)) AS r) g
),
-- ====================== HTML channel ====================================
hd AS (
    SELECT doc_id, str_split(text, ' ') AS w,
           len(str_split(text, ' ')) AS n, (doc_id % 97 = 0) AS giant
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83) AND (doc_id % 10) <> 7
),
hshape AS (
    SELECT *, CASE WHEN n % 14 = 0 THEN n // 14
                   WHEN n % 14 >= 10 THEN n // 14 + 1
                   ELSE n // 14 END AS np FROM hd
),
hpara AS (
    SELECT doc_id, i,
           array_to_string(w[14 * i + 1 :
               CASE WHEN i = np - 1 THEN n ELSE 14 * (i + 1) END], ' ') AS para
    FROM (SELECT doc_id, unnest(generate_series(0, np - 1)) AS i, np, w, n
          FROM hshape)
),
hrep AS (
    SELECT s.doc_id, p.i + s.np * r.rep AS seq, p.para
    FROM hshape s JOIN hpara p USING (doc_id)
    CROSS JOIN (SELECT unnest(generate_series(0, 29)) AS rep) r
    WHERE r.rep < CASE WHEN s.giant THEN 30 ELSE 1 END
),
hent AS (
    SELECT doc_id, 1000000 AS seq,
           'For ordering contact sales' || doc_id
           || '@example.com or call 555-' || (doc_id % 900 + 100)
           || '-' || (doc_id % 9000 + 1000) || ' before '
           || (doc_id % 12 + 1) || '/' || (doc_id % 28 + 1)
           || '/2025 to lock the quoted price of $'
           || (doc_id % 90 + 10) || ',500.00 for this order' AS para
    FROM hshape WHERE doc_id % 7 = 3
),
hchar AS (
    SELECT doc_id, 2000000 AS seq,
           'Entities & escapes <tag> café "quoted" '
           || 'are decoded by real parsers' AS para
    FROM hshape WHERE doc_id % 41 = 15
),
hbody AS (
    SELECT doc_id, string_agg(para, chr(10) || chr(10) ORDER BY seq) AS body
    FROM (SELECT * FROM hrep UNION ALL SELECT * FROM hent
          UNION ALL SELECT * FROM hchar) GROUP BY doc_id
),
htab AS (
    SELECT c.doc_id,
           'Item | Qty | Model | Size | Mounting | Spec' || chr(10) || chr(10)
           || string_agg(c.line, chr(10) || chr(10) ORDER BY c.r) AS tab
    FROM ctab c JOIN hshape s USING (doc_id)
    WHERE c.doc_id % 5 = 0 GROUP BY c.doc_id
),
html_pages AS (
    SELECT s.doc_id, 1 AS page_num,
           'Document ' || s.doc_id || ': ' || array_to_string(s.w[1:3], ' ')
           || chr(10) || chr(10) || b.body
           || coalesce(chr(10) || chr(10) || t.tab, '') AS ptext,
           (s.doc_id % 5 = 0) AS has_tables
    FROM hshape s JOIN hbody b USING (doc_id) LEFT JOIN htab t USING (doc_id)
),
-- ====================== PDF channel =====================================
pd AS (
    SELECT doc_id, str_split(text, ' ') AS w,
           len(str_split(text, ' ')) AS n,
           (doc_id % 97 = 0) AS giant,
           (doc_id % 40 = 17 AND doc_id % 97 <> 0) AS modern,
           (doc_id // 10) % 4 AS variant
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83) AND (doc_id % 10) = 7
),
pdf_v0_pages AS (
    SELECT doc_id, (j // 8) + 1 AS page_num,
           string_agg(array_to_string(
               w[(6 * j) % n + 1 : least((6 * j) % n + 6, n)], ' '),
               chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0,
              8 * (CASE WHEN giant THEN 30 ELSE 1 + doc_id % 3 END) - 1)) AS j,
              w, n
          FROM pd WHERE NOT modern AND (variant = 0 OR giant))
    GROUP BY doc_id, j // 8, n
),
pdf_modern_pages AS (
    SELECT doc_id, 1 AS page_num,
           string_agg(CASE WHEN 5 * j + 1 > n THEN w[1]
               ELSE array_to_string(w[5 * j + 1 : least(5 * j + 5, n)], ' ')
               END, chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0, 2)) AS j, w, n
          FROM pd WHERE modern)
    GROUP BY doc_id
),
pdf_v1_pages AS (
    SELECT doc_id, 1 AS page_num,
           string_agg(CASE WHEN 4 * j + 1 > n THEN w[1]
               ELSE array_to_string(w[4 * j + 1 : least(4 * j + 4, n)], ' ')
               END, chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0, 7)) AS j, w, n
          FROM pd WHERE NOT modern AND NOT giant AND variant = 1)
    GROUP BY doc_id
),
pdf_v2_pages AS (
    SELECT p.doc_id, 1 AS page_num,
           'FIXTURE SCHEDULE ' || array_to_string(p.w[1:3], ' ') || chr(10)
           || 'Item | Qty | Model | Size | Mounting | Spec' || chr(10)
           || string_agg(c.line, chr(10) ORDER BY c.r) AS ptext,
           TRUE AS has_tables
    FROM pd p JOIN ctab c USING (doc_id)
    WHERE NOT p.modern AND NOT p.giant AND p.variant = 2
    GROUP BY p.doc_id, p.w
),
pdf_v3_pages AS (
    SELECT doc_id, 1 AS page_num,
           string_agg(CASE WHEN 5 * j + 1 > n THEN w[1]
               ELSE array_to_string(w[5 * j + 1 : least(5 * j + 5, n)], ' ')
               END, chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0, 3)) AS j, w, n
          FROM pd WHERE NOT modern AND NOT giant AND variant = 3)
    GROUP BY doc_id
),
-- ====================== degraded-but-paged edge rows ====================
edge_pages AS (
    SELECT doc_id, 1 AS page_num, '' AS ptext, FALSE AS has_tables
    FROM documents WHERE (doc_id % 101) IN (29, 61, 83)
),
allp AS (
    SELECT * FROM html_pages
    UNION ALL SELECT * FROM pdf_v0_pages
    UNION ALL SELECT * FROM pdf_modern_pages
    UNION ALL SELECT * FROM pdf_v1_pages
    UNION ALL SELECT * FROM pdf_v2_pages
    UNION ALL SELECT * FROM pdf_v3_pages
    UNION ALL SELECT * FROM edge_pages
)

, stats AS (
    SELECT doc_id,
           count(*) AS total_pages,
           sum(length(ptext)) AS total_characters,
           sum(CASE WHEN ptext = '' THEN 0
                    ELSE len(string_split_regex(ptext, '\s+')) END)
               AS total_words
    FROM allp GROUP BY doc_id
),
pageless AS (
    SELECT doc_id, 0 AS total_pages, 0 AS total_characters, 0 AS total_words
    FROM documents WHERE (doc_id % 101) IN (13, 47)
),
uni AS (SELECT * FROM stats UNION ALL SELECT * FROM pageless)
SELECT
    'https://example.org/' || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
        || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
    CAST(total_pages AS BIGINT) AS total_pages,
    CAST(total_characters AS BIGINT) AS total_characters,
    CAST(total_words AS BIGINT) AS total_words,
    CASE WHEN total_pages = 0 THEN 0.0
         ELSE CAST(total_characters AS DOUBLE) / total_pages END
        AS avg_chars_per_page,
    CASE WHEN total_pages = 0 THEN 0.0
         ELSE CAST(total_words AS DOUBLE) / total_pages END
        AS avg_words_per_page
FROM uni
"""


_PAGE_STRUCTURE_SQL = r"""
            WITH regular AS (
                SELECT doc_id,
                       len(string_split_regex(trim(text), '\s+')) AS w
                FROM documents
                WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
                  AND (doc_id % 10) <> 7
            ),
            shaped AS (
                SELECT doc_id,
                       (CASE WHEN w % 14 = 0 THEN w // 14
                             WHEN w % 14 >= 10 THEN w // 14 + 1
                             WHEN w // 14 > 0 THEN w // 14
                             ELSE 1 END)
                       * (CASE WHEN doc_id % 97 = 0 THEN 30 ELSE 1 END)
                       + (CASE WHEN doc_id % 7 = 3 THEN 1 ELSE 0 END)
                       + (CASE WHEN doc_id % 41 = 15 THEN 1 ELSE 0 END) AS n_p,
                       (CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END) AS hastab
                FROM regular
            ),
            reg_rows AS (
                SELECT
                    'https://example.org/'
                        || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                        || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                    n_p, CAST(9 AS BIGINT) AS n_a,
                    CAST(hastab AS BIGINT) AS n_table,
                    CAST(4 * hastab AS BIGINT) AS n_tr,
                    CAST(6 * hastab AS BIGINT) AS n_th,
                    CAST(18 * hastab AS BIGINT) AS n_td,
                    CAST(CASE WHEN hastab = 1 THEN 5 ELSE 4 END AS BIGINT)
                        AS max_depth
                FROM shaped
            ),
            b61_rows AS (
                SELECT
                    'https://example.org/'
                        || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                        || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                    CAST(0 AS BIGINT) AS n_p, CAST(2 AS BIGINT) AS n_a,
                    CAST(0 AS BIGINT) AS n_table, CAST(0 AS BIGINT) AS n_tr,
                    CAST(0 AS BIGINT) AS n_th, CAST(0 AS BIGINT) AS n_td,
                    CAST(4 AS BIGINT) AS max_depth
                FROM documents WHERE (doc_id % 101) = 61
            )
            SELECT CAST(n_p AS BIGINT) AS n_p, n_a, n_table, n_tr, n_th,
                   n_td, max_depth, url
            FROM (SELECT * FROM reg_rows UNION ALL SELECT * FROM b61_rows)
        """




def _langid_oracles() -> "dict[str, str]":
    """SQL twins of the two language-ID heuristics, GENERATED from the
    library's own profile constants (single source of truth): stopword
    presence sums / rank-weighted trigram counts, first-max-wins
    tie-break reproduced as an ordered CASE cascade.  Non-overlapping
    substring counting via replace-length arithmetic matches pyarrow
    ``count_substring`` semantics."""
    from pdf_extractor_ray.functions.text import (
        _LANG_PROFILES,
        _TRIGRAM_PROFILES,
    )

    def esc(s): return s.replace("'", "''")

    def stopword_sql():
        scores = []
        langs = list(_LANG_PROFILES)
        for lang in langs:
            terms = " + ".join(
                f"(CASE WHEN position(' {esc(w)} ' IN p) > 0 THEN 1 ELSE 0 END)"
                for w in sorted(_LANG_PROFILES[lang]))
            scores.append(f"({terms}) AS s_{lang}")
        pick = (
            "CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'unknown' "
            "WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en' "
            "WHEN s_de >= s_fr AND s_de >= s_es THEN 'de' "
            "WHEN s_fr >= s_es THEN 'fr' ELSE 'es' END")
        return f"""
            WITH p0 AS (
                SELECT doc_id,
                       ' ' || regexp_replace(lower(coalesce(text, '')),
                                             '\\s+', ' ', 'g') || ' ' AS p
                FROM documents
            ), sc AS (
                SELECT doc_id, {', '.join(scores)} FROM p0
            )
            SELECT doc_id, {pick} AS detected_lang FROM sc
        """

    def ngram_sql():
        scores = []
        langs = list(_TRIGRAM_PROFILES)
        for lang in langs:
            grams = _TRIGRAM_PROFILES[lang]
            terms = " + ".join(
                f"{len(grams)-rank} * ((length(p) - length(replace(p, '{esc(g)}', ''))) // length('{esc(g)}'))"
                for rank, g in enumerate(grams))
            scores.append(f"({terms}) AS s_{lang}")
        pick = (
            "CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'unknown' "
            "WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en' "
            "WHEN s_de >= s_fr AND s_de >= s_es THEN 'de' "
            "WHEN s_fr >= s_es THEN 'fr' ELSE 'es' END")
        return f"""
            WITH p0 AS (
                SELECT doc_id, ' ' || lower(coalesce(text, '')) || ' ' AS p
                FROM documents
            ), sc AS (
                SELECT doc_id, {', '.join(scores)} FROM p0
            )
            SELECT doc_id, {pick} AS detected_lang_ngram FROM sc
        """
    return {"detect_language": stopword_sql(),
            "detect_language_ngram": ngram_sql()}


def _splitmix64_ctes(src: str, in_expr: str, out: str, pfx: str) -> str:
    """Generated-SQL splitmix64 (the engine's ``joins.mix64`` /
    ``sketch._hash64`` finalizer) as a CTE chain over ``src``: each
    stage appends one column; 64-bit multiply-mod runs in HUGEINT by
    32-bit halves (lo·C + ((hi·C) mod 2³²)·2³² mod 2⁶⁴ — intermediates
    ≤ 2⁹⁶ < HUGEINT max), xor/shift on UBIGINT.  Verified bit-exact vs
    numpy for the full testdata key range; lets hash-defined sketches
    (CMS) and hash-bucketed plans (pack_sequences) be VALUE-oracled."""
    m = 18446744073709551616
    b = 4294967296
    c1, c2 = 13787848793156543929, 10723151780598845931

    def mul(z: str, c: int) -> str:
        return (f"CAST(((CAST({z} AS HUGEINT) % {b}) * {c} + "
                f"(((CAST({z} AS HUGEINT) // {b}) * {c}) % {b}) * {b}) "
                f"% {m} AS UBIGINT)")

    return f"""
        {pfx}0 AS (SELECT *, CAST((CAST({in_expr} AS HUGEINT)
                   + 11400714819323198485) % {m} AS UBIGINT) AS {pfx}z0
                   FROM {src}),
        {pfx}1 AS (SELECT *, xor({pfx}z0, {pfx}z0 >> 30) AS {pfx}z1
                   FROM {pfx}0),
        {pfx}2 AS (SELECT *, {mul(pfx + 'z1', c1)} AS {pfx}z2 FROM {pfx}1),
        {pfx}3 AS (SELECT *, xor({pfx}z2, {pfx}z2 >> 27) AS {pfx}z3
                   FROM {pfx}2),
        {pfx}4 AS (SELECT *, {mul(pfx + 'z3', c2)} AS {pfx}z4 FROM {pfx}3),
        {pfx}5 AS (SELECT *, xor({pfx}z4, {pfx}z4 >> 31) AS {out}
                   FROM {pfx}4)"""


_NGRAM_JACCARD_SQL = """
            WITH toks AS (
                SELECT doc_id, string_split_regex(trim(text), '\\s+') AS t
                FROM documents
            ), sh AS (
                SELECT doc_id,
                       list_distinct([array_to_string(t[i:i+2], ' ')
                                      for i in range(1, len(t) - 1)]) AS s
                FROM toks WHERE len(t) >= 3
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   round(len(list_intersect(a.s, b.s))::DOUBLE
                         / len(list_distinct(list_concat(a.s, b.s))), 6) AS jaccard
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.s, b.s))::DOUBLE
                  / len(list_distinct(list_concat(a.s, b.s))) >= 0.5
        """


def _crc32_table_values() -> str:
    """The standard zlib/IEEE-802.3 crc32 byte table (polynomial
    0xEDB88320, reflected) as a 256-row SQL VALUES list — a public
    constant, generated here so the oracle text carries no magic blob."""
    vals = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        vals.append(f"({i},{c})")
    return ", ".join(vals)


def _simhash_dups_sql(max_hamming: int = 10) -> str:
    """Generated-SQL value oracle for ``simhash_dups``: the engine's
    64-bit SimHash (``dedup.SimHashStage``) reconstructed end to end in
    DuckDB, then exact all-pairs Hamming ≤ ``max_hamming``.

    Pieces, each proven elsewhere this round or here:
    - word 3-shingles = the ``_NGRAM_JACCARD_SQL`` tokenization
      (``string_split_regex`` + list comprehension), DISTINCT per doc
      (the engine hashes a shingle SET);
    - **crc32 IS SQL-expressible**: lockstep recursive CTE over byte
      position (every shingle advances one byte per step; steps = max
      shingle length, ~40) against the generated 256-entry table —
      corpus text is ASCII by construction so ``ascii(substr(...))``
      is the byte value;
    - splitmix64 finalizer via the same HUGEINT 32-bit-halves chain as
      ``_splitmix64_ctes``;
    - per-bit majority votes as 64 grouped integer sums (+1/−1), sign
      bits recomposed with bit 63 masked (int64-positive contract);
    - pairs via ``bit_count(xor(a, b))`` — banding recall is 1.0 by
      pigeonhole (test-pinned) and in-bucket verify is exact, so the
      LSH pair set equals this exact pair set.

    O(n²) SQL twin — like the other documented all-pairs twins, skip
    its SQL in big-SF sweeps (the driver gate runs at sf0.01)."""
    m = 18446744073709551616
    b = 4294967296
    c1, c2 = 13787848793156543929, 10723151780598845931

    def mul(z: str, c: int) -> str:
        return (f"CAST(((CAST({z} AS HUGEINT) % {b}) * {c} + "
                f"(((CAST({z} AS HUGEINT) // {b}) * {c}) % {b}) * {b}) "
                f"% {m} AS UBIGINT)")

    return f"""
        WITH RECURSIVE crctbl(i, v) AS (VALUES {_crc32_table_values()}),
        toks AS (
            SELECT doc_id, string_split_regex(trim(text), '\\s+') AS t
            FROM documents WHERE trim(coalesce(text, '')) <> ''
        ),
        sh AS (
            SELECT doc_id, unnest(list_distinct(
                CASE WHEN len(t) >= 3
                     THEN [array_to_string(t[i:i+2], ' ')
                           for i in range(1, len(t) - 1)]
                     ELSE [array_to_string(t, ' ')] END)) AS s
            FROM toks
        ),
        rec AS (
            SELECT doc_id, s, 1 AS pos,
                   CAST(4294967295 AS UBIGINT) AS crc
            FROM sh
            UNION ALL
            SELECT r.doc_id, r.s, r.pos + 1, xor(r.crc >> 8, c.v)
            FROM rec r JOIN crctbl c
              ON c.i = CAST(xor(r.crc,
                                CAST(ascii(substr(r.s, r.pos, 1)) AS UBIGINT))
                            & CAST(255 AS UBIGINT) AS INTEGER)
            WHERE r.pos <= len(r.s)
        ),
        crcs AS (
            SELECT DISTINCT doc_id,
                   xor(crc, CAST(4294967295 AS UBIGINT)) AS c32
            FROM rec WHERE pos = len(s) + 1
        ),
        m0 AS (SELECT *, CAST((CAST(c32 AS HUGEINT)
                   + 11400714819323198485) % {m} AS UBIGINT) AS z0
               FROM crcs),
        m1 AS (SELECT *, xor(z0, z0 >> 30) AS z1 FROM m0),
        m2 AS (SELECT *, {mul('z1', c1)} AS z2 FROM m1),
        m3 AS (SELECT *, xor(z2, z2 >> 27) AS z3 FROM m2),
        m4 AS (SELECT *, {mul('z3', c2)} AS z4 FROM m3),
        m5 AS (SELECT *, xor(z4, z4 >> 31) AS h FROM m4),
        votes AS (
            SELECT doc_id, j,
                   sum(CASE WHEN (h >> CAST(j AS UBIGINT))
                                 & CAST(1 AS UBIGINT) = 1
                            THEN 1 ELSE -1 END) AS v
            FROM m5 CROSS JOIN range(64) r(j)
            GROUP BY doc_id, j
        ),
        sigs0 AS (
            SELECT doc_id,
                   CAST(sum(CASE WHEN v > 0 AND j < 63
                                 THEN CAST(1 AS UBIGINT) << CAST(j AS UBIGINT)
                                 ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) AS sig
            FROM votes GROUP BY doc_id
        ),
        sigs AS (
            SELECT d.doc_id, coalesce(s.sig, CAST(0 AS UBIGINT)) AS sig
            FROM documents d LEFT JOIN sigs0 s USING (doc_id)
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
        FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.sig, b.sig)) <= {max_hamming}
        ORDER BY doc_a, doc_b
        """


def _quality_logreg_sql(lr: float = 2.0, iters: int = 40,
                        scale: int = 1 << 20) -> str:
    """Generated-SQL value oracle for ``quality_logreg``: the whole
    full-batch gradient-descent TRAINING loop unrolled into ``iters``
    CTE levels — the fixed-iteration unroll recipe applied to an ML
    optimizer.

    Why this is value-exact: ``ml.logreg_train`` quantizes per-row
    gradients to int64 (``round(g·2²⁰)``) before summation, so each
    side's gradient fold is an order-independent INTEGER sum, and the
    weight update is a fixed-order scalar float expression — weights
    stay bit-identical across sides as long as no quantization
    boundary flips.  The only cross-side float sources (BLAS FMA in
    the numpy dot, libm-vs-DuckDB ``exp``) perturb ``g·scale`` by
    ≲1e-10, while the MEASURED minimum distance of any nonzero
    ``g·scale`` from a .5 boundary is 6.6e-7 (sf0.01) / 8.1e-7 (sf0.1)
    — three orders of safety.  Final-output safety: min |z| at the
    trained weights 0.23 (accuracy threshold), min round-6 boundary
    distance 1.2e-2 (reported weights).  Features (round-6 ratio
    pins) and the 'en' label reuse the already-oracled
    ``text_features`` / ``detect_language`` SQL."""
    lang_sql = _langid_oracles()["detect_language"]
    feat = r"""f AS MATERIALIZED (
    SELECT round(len(list_filter(string_split_regex(trim(text), '\s+'),
                 t -> t IN ('the','a','of','and','to','in','is','it')))
             / greatest(len(string_split_regex(trim(text), '\s+')), 1), 6)
             AS f1,
           round(length(regexp_replace(text, '[A-Za-z0-9\s]', '', 'g'))
             / greatest(length(text), 1), 6) AS f2,
           len(string_split_regex(trim(text), '\s+')) / 100.0 AS f3,
           CASE WHEN dl.detected_lang = 'en' THEN 1.0 ELSE 0.0 END AS y
    FROM documents JOIN (%s) dl USING (doc_id)
), nn AS (SELECT count(*)::DOUBLE AS n FROM f),
w0 AS (SELECT 0.0 AS w1, 0.0 AS w2, 0.0 AS w3, 0.0 AS b)""" % lang_sql
    lvl = """g{t} AS (
    SELECT
      CAST(sum(CAST(round((f.f1*((1.0/(1.0+exp(-(f.f1*w.w1+f.f2*w.w2+f.f3*w.w3+w.b))))-f.y))*{scale}.0) AS BIGINT)) AS BIGINT) AS q1,
      CAST(sum(CAST(round((f.f2*((1.0/(1.0+exp(-(f.f1*w.w1+f.f2*w.w2+f.f3*w.w3+w.b))))-f.y))*{scale}.0) AS BIGINT)) AS BIGINT) AS q2,
      CAST(sum(CAST(round((f.f3*((1.0/(1.0+exp(-(f.f1*w.w1+f.f2*w.w2+f.f3*w.w3+w.b))))-f.y))*{scale}.0) AS BIGINT)) AS BIGINT) AS q3,
      CAST(sum(CAST(round((((1.0/(1.0+exp(-(f.f1*w.w1+f.f2*w.w2+f.f3*w.w3+w.b))))-f.y))*{scale}.0) AS BIGINT)) AS BIGINT) AS qb
    FROM f CROSS JOIN w{p} w
), w{t} AS MATERIALIZED (
    SELECT w.w1 - {lr}*((g.q1::DOUBLE)/{scale}.0)/nn.n AS w1,
           w.w2 - {lr}*((g.q2::DOUBLE)/{scale}.0)/nn.n AS w2,
           w.w3 - {lr}*((g.q3::DOUBLE)/{scale}.0)/nn.n AS w3,
           w.b  - {lr}*((g.qb::DOUBLE)/{scale}.0)/nn.n AS b
    FROM w{p} w, g{t} g, nn
)"""
    parts = [feat]
    for t in range(1, iters + 1):
        parts.append(lvl.format(t=t, p=t - 1, scale=scale, lr=lr))
    parts.append(f"""pr AS (
    SELECT CAST(sum(CASE WHEN
                 ((1.0/(1.0+exp(-(f.f1*w.w1+f.f2*w.w2+f.f3*w.w3+w.b)))) > 0.5)
                          = (f.y = 1.0) THEN 1 ELSE 0 END) AS BIGINT) AS n_ok,
           count(*) AS n
    FROM f CROSS JOIN w{iters} w
)""")
    return ("WITH " + ",\n".join(parts) + f"""
SELECT round(w.w1, 6) AS w_stopword, round(w.w2, 6) AS w_punct,
       round(w.w3, 6) AS w_len, round(w.b, 6) AS bias,
       round((pr.n_ok::DOUBLE) / pr.n, 6) AS train_accuracy
FROM w{iters} w, pr""")


def _ivf_topk_sql(dim: int = 64, n_planes: int = 8, seed: int = 42,
                  k: int = 10) -> str:
    """Generated-SQL value oracle for ``ivf_topk``: the hyperplane-LSH
    coarse quantizer (``HyperplaneBucketStage``) reconstructed in SQL.

    The seed-``seed`` ``randn(n_planes, dim)`` plane matrix is inlined
    as exact round-trip float literals (``repr`` of float64 is
    shortest-round-trip, so DuckDB parses the identical doubles);
    bucket bit j = sign of ``list_dot_product(embedding::DOUBLE[],
    plane_j)``.  Sign robustness: the smallest |projection| over the
    corpus is 3.3e-4 — five orders above any summation-order noise, so
    numpy-vs-DuckDB accumulation order cannot flip a bit (and the
    driver hash gate would catch it if it ever did).  Probed buckets =
    the three query vectors' buckets; candidates ranked by exact
    cosine with the ``ann_topk`` rank/tiebreak recipe."""
    planes = np.random.RandomState(seed).randn(n_planes, dim)
    lits = ["[" + ",".join(repr(float(x)) for x in p) + "]" for p in planes]
    bucket = " + ".join(
        f"(CASE WHEN list_dot_product(CAST(embedding AS DOUBLE[]), "
        f"{lits[j]}) > 0 THEN {1 << j} ELSE 0 END)"
        for j in range(n_planes)
    )
    return f"""
        WITH b AS (
            SELECT vec_id, embedding, {bucket} AS bucket FROM embeddings
        ), qb AS (
            SELECT DISTINCT bucket FROM b WHERE vec_id IN (0, 1, 2)
        ), q AS (
            SELECT vec_id AS query_id, embedding AS qe
            FROM embeddings WHERE vec_id IN (0, 1, 2)
        ), s AS (
            SELECT q.query_id, c.vec_id,
                   list_cosine_similarity(c.embedding, q.qe) AS sim
            FROM b c JOIN qb USING (bucket) CROSS JOIN q
        ), r AS (
            SELECT query_id, vec_id,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY sim DESC, vec_id) AS rank
            FROM s
        )
        SELECT query_id, vec_id, rank FROM r WHERE rank <= {k}
        """


def _cms_user_counts_sql() -> str:
    """CMS point estimates computed EXACTLY in SQL: the sketch is
    hash-defined and deterministic — est(u) = min over the 4 salted
    splitmix64 rows of the bucket totals, where each bucket total is
    the sum of exact counts of the keys hashing there."""
    width = 1 << 17
    salts = " UNION ALL ".join(
        f"SELECT {i + 1} AS i, {0xC2B2 * (i + 1)} AS salt" for i in range(4)
    )
    return ("WITH ex AS (\n"
            "    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events\n"
            "    FROM events GROUP BY user_id\n"
            "), sl AS (" + salts + "),\n"
            "xs AS (SELECT ex.user_id, ex.n_events, sl.i,"
            " ex.user_id + sl.salt AS sv FROM ex, sl),"
            + _splitmix64_ctes("xs", "sv", "h", "m") + ",\n"
            f"hh AS (SELECT user_id, n_events, i,"
            f" CAST(h % {width} AS BIGINT) AS b FROM m5),\n"
            "bucket_tot AS (\n"
            "    SELECT i, b, CAST(sum(n_events) AS BIGINT) AS tot\n"
            "    FROM hh GROUP BY i, b\n"
            ")\n"
            "SELECT hh.user_id, hh.n_events,\n"
            "       CAST(min(bt.tot) AS BIGINT) AS cms_estimate\n"
            "FROM hh JOIN bucket_tot bt ON bt.i = hh.i AND bt.b = hh.b\n"
            "GROUP BY hh.user_id, hh.n_events ORDER BY hh.user_id")


_BM25_SQL = """
WITH pads AS (
    SELECT doc_id, ' ' || replace(text, ' ', '  ') || ' ' AS p,
           len(str_split(text, ' ')) AS n_words
    FROM documents
),
meta AS (
    SELECT count(*) AS n, CAST(sum(n_words) AS DOUBLE) / count(*) AS avglen
    FROM pads
),
tf AS (
    SELECT doc_id, n_words,
           ((length(p) - length(replace(p, ' batch ', ''))) // length(' batch ')) AS tf0, ((length(p) - length(replace(p, ' join ', ''))) // length(' join ')) AS tf1, ((length(p) - length(replace(p, ' scan ', ''))) // length(' scan ')) AS tf2
    FROM pads
),
idf AS (
    SELECT
        round(ln((m.n - d0.df + 0.5) / (d0.df + 0.5) + 1.0), 9) AS idf0, round(ln((m.n - d1.df + 0.5) / (d1.df + 0.5) + 1.0), 9) AS idf1, round(ln((m.n - d2.df + 0.5) / (d2.df + 0.5) + 1.0), 9) AS idf2,
        m.avglen, m.n
    FROM meta m,
         (SELECT count(*) AS df FROM tf WHERE tf0 > 0) d0, (SELECT count(*) AS df FROM tf WHERE tf1 > 0) d1, (SELECT count(*) AS df FROM tf WHERE tf2 > 0) d2
)
SELECT doc_id,
       round(
         i.idf0 * ((tf.tf0 * 2.2) / (tf.tf0 + 1.2 * (1.0 - 0.75 + 0.75 * tf.n_words / i.avglen))) + i.idf1 * ((tf.tf1 * 2.2) / (tf.tf1 + 1.2 * (1.0 - 0.75 + 0.75 * tf.n_words / i.avglen))) + i.idf2 * ((tf.tf2 * 2.2) / (tf.tf2 + 1.2 * (1.0 - 0.75 + 0.75 * tf.n_words / i.avglen)))
       , 6) AS score
FROM tf, idf i
WHERE tf.tf0 + tf.tf1 + tf.tf2 > 0
ORDER BY score DESC, doc_id
LIMIT 10
"""


_QL_SQL = """
WITH pads AS (
    SELECT doc_id, ' ' || replace(text, ' ', '  ') || ' ' AS p,
           len(str_split(text, ' ')) AS n_words
    FROM documents
),
tf AS (
    SELECT doc_id, n_words,
           ((length(p) - length(replace(p, ' batch ', ''))) // length(' batch ')) AS tf0, ((length(p) - length(replace(p, ' join ', ''))) // length(' join ')) AS tf1, ((length(p) - length(replace(p, ' scan ', ''))) // length(' scan ')) AS tf2
    FROM pads
),
bg AS (
    SELECT CAST(sum(n_words) AS BIGINT) AS c,
           round(CAST(sum(tf0) AS DOUBLE) / CAST(sum(n_words) AS BIGINT), 12) AS p0, round(CAST(sum(tf1) AS DOUBLE) / CAST(sum(n_words) AS BIGINT), 12) AS p1, round(CAST(sum(tf2) AS DOUBLE) / CAST(sum(n_words) AS BIGINT), 12) AS p2
    FROM tf
)
SELECT doc_id,
       round(
         ln((tf.tf0 + 300.0 * bg.p0) / (tf.n_words + 300.0)) + ln((tf.tf1 + 300.0 * bg.p1) / (tf.n_words + 300.0)) + ln((tf.tf2 + 300.0 * bg.p2) / (tf.n_words + 300.0))
       , 6) AS score
FROM tf, bg
WHERE tf.tf0 + tf.tf1 + tf.tf2 > 0
ORDER BY score DESC, doc_id
LIMIT 10
"""


def _rrf_sql(depth: int = 100, kk: int = 60, topk: int = 10) -> str:
    """Reciprocal-rank-fusion oracle composed from the two run SQLs:
    each run's full query (nested WITH in a parenthesized subquery) is
    re-limited to the fusion depth, ranks re-derived with the same
    (score DESC, doc_id) tie-break, and the fusion sum evaluates the
    identical left-to-right float expression the driver uses."""
    bm = _BM25_SQL.strip()
    ql = _QL_SQL.strip()
    assert bm.endswith("LIMIT 10") and ql.endswith("LIMIT 10")
    bm_d = bm[: -len("LIMIT 10")] + f"LIMIT {depth}"
    ql_d = ql[: -len("LIMIT 10")] + f"LIMIT {depth}"
    return f"""
        WITH bm0 AS (SELECT * FROM ({bm_d})),
        ql0 AS (SELECT * FROM ({ql_d})),
        bmr AS (SELECT doc_id, row_number() OVER (
                    ORDER BY score DESC, doc_id) AS r FROM bm0),
        qlr AS (SELECT doc_id, row_number() OVER (
                    ORDER BY score DESC, doc_id) AS r FROM ql0),
        u AS (SELECT doc_id FROM bmr UNION SELECT doc_id FROM qlr)
        SELECT u.doc_id,
               round(coalesce(1.0 / ({kk}.0 + b.r), 0.0)
                     + coalesce(1.0 / ({kk}.0 + q.r), 0.0), 9) AS rrf
        FROM u LEFT JOIN bmr b USING (doc_id)
               LEFT JOIN qlr q USING (doc_id)
        ORDER BY rrf DESC, u.doc_id
        LIMIT {topk}
    """


def oracle_sql() -> dict[str, str]:
    return {
        # round-5 additions: hash-defined / greedy / closure queries
        # converted from rows-only to full value oracles
        "minhash_lsh_dups": _NGRAM_JACCARD_SQL,
        "incremental_near_dups": _INCREMENTAL_NEAR_DUPS_SQL,
        "incremental_ingest_near_dups": _INCREMENTAL_INGEST_SQL,
        "simhash_dups": _simhash_dups_sql(),
        "ivf_topk": _ivf_topk_sql(),
        "quality_logreg": _quality_logreg_sql(),
        # composed end-to-end pipeline: quality/lang gate → exact dedup
        # (min doc_id per distinct text, QUALIFY) → exact-Jaccard
        # near-dup pair drop (doc_b of every a<b pair).  Valid as the
        # minhash_lsh_dups oracle is: LSH pair recall at the fixed seed
        # is 1.0 (test-pinned) and recall is per-pair (signatures don't
        # depend on the rest of the corpus), so on the deduped survivor
        # subset LSH == exact too.  O(n²) twin — sf0.01 gate only.
        "corpus_prep": """
            WITH f AS (
                SELECT doc_id, lang, text,
                       len(string_split_regex(trim(text), '\\s+')) AS n_tokens,
                       round(length(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g'))
                             / greatest(length(text), 1), 6) AS punct_ratio,
                       round(len(list_filter(string_split_regex(trim(text), '\\s+'),
                                             t -> t IN ('the','a','of','and','to','in','is','it')))
                             / greatest(len(string_split_regex(trim(text), '\\s+')), 1), 6)
                           AS stopword_ratio
                FROM documents
            ), q AS (
                SELECT doc_id, lang, text, n_tokens,
                       round(least(n_tokens / 50.0, 1.0)
                             * (1 - punct_ratio)
                             * (0.5 + 0.5 * least(4 * stopword_ratio, 1.0)), 6)
                           AS quality_score
                FROM f
            ), gated AS (
                SELECT * FROM q
                WHERE quality_score >= 0.3
                  AND lang IN ('en', 'de', 'fr', 'es')
            ), uniq AS (
                SELECT * FROM gated
                QUALIFY doc_id = min(doc_id) OVER (PARTITION BY text)
            ), toks AS (
                SELECT doc_id, string_split_regex(trim(text), '\\s+') AS t
                FROM uniq
            ), sh AS (
                SELECT doc_id,
                       list_distinct([array_to_string(t[i:i+2], ' ')
                                      for i in range(1, len(t) - 1)]) AS s
                FROM toks WHERE len(t) >= 3
            ), drops AS (
                SELECT DISTINCT b.doc_id AS doc_b
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                WHERE len(list_intersect(a.s, b.s))::DOUBLE
                      / len(list_distinct(list_concat(a.s, b.s))) >= 0.5
            )
            SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens,
                   quality_score
            FROM uniq
            WHERE doc_id NOT IN (SELECT doc_b FROM drops)
            ORDER BY doc_id
        """,
        "cms_user_counts": _cms_user_counts_sql(),
        "table_items": _table_items_sql(),
        "mmr_topk": _mmr_sql(),
        "lang_detector_agreement": _kappa_sql(),
        "page_structure": _PAGE_STRUCTURE_SQL,
        "anchor_text_agg": """
            WITH h AS (
                SELECT doc_id FROM documents
                WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
                  AND (doc_id % 10) <> 7
            ),
            static AS (
                SELECT 'https://example.org' || s.path AS dst_url,
                       s.anchor, count(*) AS n
                FROM h CROSS JOIN (VALUES
                    ('/', 'Home'), ('/about', 'About'),
                    ('/contact', 'Contact'), ('/login', 'Login'),
                    ('/ad1', 'Sponsored one'), ('/ad2', 'Sponsored two')
                ) s(path, anchor)
                GROUP BY 1, 2
            ),
            rel AS (
                SELECT 'https://example.org/p/' || CAST(t AS VARCHAR) AS dst_url,
                       'Doc ' || CAST(t AS VARCHAR) AS anchor, count(*) AS n
                FROM (
                    SELECT (doc_id * 31 + 7 * ks.k) % 1000 AS t
                    FROM h CROSS JOIN (VALUES (1), (2), (3)) ks(k)
                )
                GROUP BY 1, 2
            ),
            b61 AS (
                SELECT 'https://example.org' || s.path AS dst_url,
                       s.anchor, count(*) AS n
                FROM documents
                CROSS JOIN (VALUES ('/', 'Home'), ('/a', 'About')) s(path, anchor)
                WHERE (doc_id % 101) = 61
                GROUP BY 1, 2
            )
            SELECT dst_url, anchor, CAST(sum(n) AS BIGINT) AS n_refs
            FROM (SELECT * FROM static UNION ALL SELECT * FROM rel
                  UNION ALL SELECT * FROM b61)
            GROUP BY dst_url, anchor
        """,
        "doc_bigram_cross_entropy": r"""
            WITH toks AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS w
                FROM documents
            ),
            big AS (
                SELECT doc_id, w[i] || ' ' || w[i+1] AS bg, w[i] AS w1
                FROM (SELECT doc_id, w, unnest(range(1, len(w))) AS i
                      FROM toks)
            ),
            cb AS (SELECT bg, CAST(sum(1) AS BIGINT) AS C FROM big GROUP BY bg),
            cl AS (SELECT w1, CAST(sum(1) AS BIGINT) AS CL FROM big GROUP BY w1),
            doc AS (
                SELECT doc_id, bg, w1, count(*) AS m
                FROM big GROUP BY doc_id, bg, w1
            )
            SELECT doc_id,
                   round(sum(m * (log2(CAST(CL AS DOUBLE))
                                  - log2(CAST(C AS DOUBLE)))) / sum(m), 6)
                       AS bigram_cross_entropy
            FROM doc JOIN cb USING (bg) JOIN cl USING (w1)
            GROUP BY doc_id
        """,
        "inverted_index": """
            WITH t AS (
                SELECT DISTINCT doc_id, unnest(str_split(text, ' ')) AS token
                FROM documents
            )
            SELECT token, count(*) AS df,
                   array_to_string(list_sort(list(doc_id)), ',') AS postings_str
            FROM t GROUP BY token HAVING count(*) >= 2
        """,
        "page_meta": """
            WITH h AS (
                SELECT doc_id, lang, str_split(text, ' ') AS w
                FROM documents
                WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
                  AND (doc_id % 10) <> 7
            )
            SELECT
                'https://example.org/'
                    || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                    || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                'Document ' || doc_id || ': '
                    || array_to_string(w[1:3], ' ') AS title,
                array_to_string(w[1:8], ' ') AS description,
                'https://example.org/'
                    || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS canonical_url,
                lang AS html_lang,
                'Document ' || doc_id || ': '
                    || array_to_string(w[1:3], ' ') AS og_title,
                CASE WHEN doc_id % 13 = 5
                     THEN 'noindex, nofollow' END AS robots
            FROM h
        """,
        "noindex_pages": """
            SELECT
                'https://example.org/'
                    || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                    || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                'noindex, nofollow' AS robots
            FROM documents
            WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
              AND (doc_id % 10) <> 7
              AND (doc_id % 13) = 5
        """,
        "pdf_meta": """
            WITH h AS (
                SELECT doc_id, str_split(text, ' ') AS w
                FROM documents
                WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
                  AND (doc_id % 10) = 7
            )
            SELECT
                'https://example.org/'
                    || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                    || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                'Document ' || doc_id || ': '
                    || array_to_string(w[1:3], ' ') AS title,
                'Author ' || (doc_id % 50) AS author,
                array_to_string(w[1:8], ' ') AS subject,
                'pdfx-ray 1.0' AS producer
            FROM h
        """,
        "doc_stats": """
            SELECT lang,
                   count(*) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST(sum(len(string_split_regex(trim(text), '\\s+'))) AS BIGINT) AS total_words
            FROM documents GROUP BY lang
        """,
        "text_features": """
            SELECT doc_id,
                   len(string_split_regex(trim(text), '\\s+')) AS n_tokens,
                   round(length(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g'))
                         / greatest(length(text), 1), 6) AS punct_ratio,
                   round(len(list_filter(string_split_regex(trim(text), '\\s+'),
                                         t -> t IN ('the','a','of','and','to','in','is','it')))
                         / greatest(len(string_split_regex(trim(text), '\\s+')), 1), 6)
                       AS stopword_ratio,
                   md5(text) AS fingerprint
            FROM documents
        """,
        "quality_score": """
            WITH f AS (
                SELECT doc_id,
                       len(string_split_regex(trim(text), '\\s+')) AS n_tokens,
                       round(length(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g'))
                             / greatest(length(text), 1), 6) AS punct_ratio,
                       round(len(list_filter(string_split_regex(trim(text), '\\s+'),
                                             t -> t IN ('the','a','of','and','to','in','is','it')))
                             / greatest(len(string_split_regex(trim(text), '\\s+')), 1), 6)
                           AS stopword_ratio
                FROM documents
            )
            SELECT doc_id,
                   round(least(n_tokens / 50.0, 1.0)
                         * (1 - punct_ratio)
                         * (0.5 + 0.5 * least(4 * stopword_ratio, 1.0)), 6)
                       AS quality_score
            FROM f
        """,
        "dedup_exact": """
            SELECT md5(text) AS text_hash,
                   min(doc_id) AS representative,
                   count(*) AS n_copies
            FROM documents GROUP BY md5(text)
        """,
        "ngram_jaccard_dups": _NGRAM_JACCARD_SQL,
        "latest_event_per_user": """
            SELECT event_id, ts, user_id, event_type
            FROM (
                SELECT event_id, ts, user_id, event_type,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts DESC, event_id DESC) AS rn
                FROM events
            ) WHERE rn = 1
        """,
        "ann_topk": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id IN (0, 1, 2)
            ), s AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(e.embedding, q.qe) AS sim
                FROM embeddings e CROSS JOIN q
            ), r AS (
                SELECT query_id, vec_id,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY sim DESC, vec_id) AS rank
                FROM s
            )
            SELECT query_id, vec_id, rank FROM r WHERE rank <= 10
        """,
        "structured_parse": """
            SELECT doc_id,
                   len(string_split_regex(trim(text), '\\s+')) AS word_count,
                   len(string_split(text, chr(10))) AS line_count
            FROM documents
        """,
        "kv_pairs": """
            SELECT doc_id, 'doc_id' AS key, CAST(doc_id AS VARCHAR) AS value FROM documents
            UNION ALL SELECT doc_id, 'lang', lang FROM documents
            UNION ALL SELECT doc_id, 'source', source FROM documents
        """,
        "incremental_ingest": r"""
            WITH tagged AS (
                SELECT doc_id, source, md5(text) AS h,
                       CAST(substr(source, 4) AS BIGINT) AS srcnum
                FROM documents
            )
            SELECT n.doc_id, n.source
            FROM tagged n
            WHERE n.srcnum >= 10
              AND NOT EXISTS (
                  SELECT 1 FROM tagged o
                  WHERE o.srcnum < 10 AND o.h = n.h
              )
        """,
        # BYTE-IDENTITY oracle for the HTML extraction channel: the SQL
        # re-derives every expected byte of extracted_text from the
        # synthesizer's deterministic construction rules
        "extract_text_html": _EXTRACT_TEXT_HTML_SQL,
        # G1 Statistics parity per url (reference helpers.py:67-86):
        # per-page char/word sums + float-division averages, derived
        # from the same per-page reconstruction as page_previews
        "doc_statistics": _DOC_STATS_SQL,
        # M14 preview projection, per-page byte-exact (reuses the
        # extraction-channel reconstruction, per-page granularity)
        "page_previews": """
WITH
-- ====================== shared construction-table rows ==================
ctab AS (
    SELECT doc_id, r,
           list_value('VALVE PACKAGE', 'EYE WASH STATION',
                      'BOILER CIRCULATING PUMP', 'PIPE FITTING',
                      'COOLING TOWER', 'WASH STATION',
                      'PUMP ASSEMBLY')[(doc_id + r) % 7 + 1]
           || ' | ' || ((doc_id + r) % 9 + 1)
           || ' | ' || list_value('OM-141', 'MAU-11', 'VP-100', 'K-2005',
                      'HUH-13', 'CH-30')[(doc_id + r) % 6 + 1]
           || ' | ' || list_value('12"', '3/4" x 6', '1 1/2"' || chr(248),
                      '25'' -1 5/8"', '2 x 4 x 6')[(doc_id + r) % 5 + 1]
           || ' | ' || list_value('wall-mounted', 'floor-mounted',
                      'ceiling-hung', 'recessed')[(doc_id + r) % 4 + 1]
           || ' | ' || list_value('ASTM D2665', 'ANSI A112', 'grade A',
                      '31.1', 'NFPA 13')[(doc_id + r) % 5 + 1] AS line
    FROM documents, (SELECT unnest(generate_series(0, 2)) AS r) g
),
-- ====================== HTML channel ====================================
hd AS (
    SELECT doc_id, str_split(text, ' ') AS w,
           len(str_split(text, ' ')) AS n, (doc_id % 97 = 0) AS giant
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83) AND (doc_id % 10) <> 7
),
hshape AS (
    SELECT *, CASE WHEN n % 14 = 0 THEN n // 14
                   WHEN n % 14 >= 10 THEN n // 14 + 1
                   ELSE n // 14 END AS np FROM hd
),
hpara AS (
    SELECT doc_id, i,
           array_to_string(w[14 * i + 1 :
               CASE WHEN i = np - 1 THEN n ELSE 14 * (i + 1) END], ' ') AS para
    FROM (SELECT doc_id, unnest(generate_series(0, np - 1)) AS i, np, w, n
          FROM hshape)
),
hrep AS (
    SELECT s.doc_id, p.i + s.np * r.rep AS seq, p.para
    FROM hshape s JOIN hpara p USING (doc_id)
    CROSS JOIN (SELECT unnest(generate_series(0, 29)) AS rep) r
    WHERE r.rep < CASE WHEN s.giant THEN 30 ELSE 1 END
),
hent AS (
    SELECT doc_id, 1000000 AS seq,
           'For ordering contact sales' || doc_id
           || '@example.com or call 555-' || (doc_id % 900 + 100)
           || '-' || (doc_id % 9000 + 1000) || ' before '
           || (doc_id % 12 + 1) || '/' || (doc_id % 28 + 1)
           || '/2025 to lock the quoted price of $'
           || (doc_id % 90 + 10) || ',500.00 for this order' AS para
    FROM hshape WHERE doc_id % 7 = 3
),
hchar AS (
    SELECT doc_id, 2000000 AS seq,
           'Entities & escapes <tag> café "quoted" '
           || 'are decoded by real parsers' AS para
    FROM hshape WHERE doc_id % 41 = 15
),
hbody AS (
    SELECT doc_id, string_agg(para, chr(10) || chr(10) ORDER BY seq) AS body
    FROM (SELECT * FROM hrep UNION ALL SELECT * FROM hent
          UNION ALL SELECT * FROM hchar) GROUP BY doc_id
),
htab AS (
    SELECT c.doc_id,
           'Item | Qty | Model | Size | Mounting | Spec' || chr(10) || chr(10)
           || string_agg(c.line, chr(10) || chr(10) ORDER BY c.r) AS tab
    FROM ctab c JOIN hshape s USING (doc_id)
    WHERE c.doc_id % 5 = 0 GROUP BY c.doc_id
),
html_pages AS (
    SELECT s.doc_id, 1 AS page_num,
           'Document ' || s.doc_id || ': ' || array_to_string(s.w[1:3], ' ')
           || chr(10) || chr(10) || b.body
           || coalesce(chr(10) || chr(10) || t.tab, '') AS ptext,
           (s.doc_id % 5 = 0) AS has_tables
    FROM hshape s JOIN hbody b USING (doc_id) LEFT JOIN htab t USING (doc_id)
),
-- ====================== PDF channel =====================================
pd AS (
    SELECT doc_id, str_split(text, ' ') AS w,
           len(str_split(text, ' ')) AS n,
           (doc_id % 97 = 0) AS giant,
           (doc_id % 40 = 17 AND doc_id % 97 <> 0) AS modern,
           (doc_id // 10) % 4 AS variant
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83) AND (doc_id % 10) = 7
),
pdf_v0_pages AS (
    SELECT doc_id, (j // 8) + 1 AS page_num,
           string_agg(array_to_string(
               w[(6 * j) % n + 1 : least((6 * j) % n + 6, n)], ' '),
               chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0,
              8 * (CASE WHEN giant THEN 30 ELSE 1 + doc_id % 3 END) - 1)) AS j,
              w, n
          FROM pd WHERE NOT modern AND (variant = 0 OR giant))
    GROUP BY doc_id, j // 8, n
),
pdf_modern_pages AS (
    SELECT doc_id, 1 AS page_num,
           string_agg(CASE WHEN 5 * j + 1 > n THEN w[1]
               ELSE array_to_string(w[5 * j + 1 : least(5 * j + 5, n)], ' ')
               END, chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0, 2)) AS j, w, n
          FROM pd WHERE modern)
    GROUP BY doc_id
),
pdf_v1_pages AS (
    SELECT doc_id, 1 AS page_num,
           string_agg(CASE WHEN 4 * j + 1 > n THEN w[1]
               ELSE array_to_string(w[4 * j + 1 : least(4 * j + 4, n)], ' ')
               END, chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0, 7)) AS j, w, n
          FROM pd WHERE NOT modern AND NOT giant AND variant = 1)
    GROUP BY doc_id
),
pdf_v2_pages AS (
    SELECT p.doc_id, 1 AS page_num,
           'FIXTURE SCHEDULE ' || array_to_string(p.w[1:3], ' ') || chr(10)
           || 'Item | Qty | Model | Size | Mounting | Spec' || chr(10)
           || string_agg(c.line, chr(10) ORDER BY c.r) AS ptext,
           TRUE AS has_tables
    FROM pd p JOIN ctab c USING (doc_id)
    WHERE NOT p.modern AND NOT p.giant AND p.variant = 2
    GROUP BY p.doc_id, p.w
),
pdf_v3_pages AS (
    SELECT doc_id, 1 AS page_num,
           string_agg(CASE WHEN 5 * j + 1 > n THEN w[1]
               ELSE array_to_string(w[5 * j + 1 : least(5 * j + 5, n)], ' ')
               END, chr(10) ORDER BY j) AS ptext,
           FALSE AS has_tables
    FROM (SELECT doc_id, unnest(generate_series(0, 3)) AS j, w, n
          FROM pd WHERE NOT modern AND NOT giant AND variant = 3)
    GROUP BY doc_id
),
-- ====================== degraded-but-paged edge rows ====================
edge_pages AS (
    SELECT doc_id, 1 AS page_num, '' AS ptext, FALSE AS has_tables
    FROM documents WHERE (doc_id % 101) IN (29, 61, 83)
),
allp AS (
    SELECT * FROM html_pages
    UNION ALL SELECT * FROM pdf_v0_pages
    UNION ALL SELECT * FROM pdf_modern_pages
    UNION ALL SELECT * FROM pdf_v1_pages
    UNION ALL SELECT * FROM pdf_v2_pages
    UNION ALL SELECT * FROM pdf_v3_pages
    UNION ALL SELECT * FROM edge_pages
)
SELECT
    'https://example.org/' || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
        || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
    CAST(page_num AS INTEGER) AS page_num,
    CASE WHEN length(ptext) > 200 THEN substr(ptext, 1, 200) || '...'
         ELSE ptext END AS preview,
    has_tables
FROM allp
""",
        # per-url extraction envelope: kinds/statuses, page/block
        # counts (kept blocks + 4 boilerplate candidates for HTML,
        # line counts per PDF variant), chars/words from the
        # byte-identity reconstruction
        "extract_pages": """
WITH all_txt AS (
    (""" + _EXTRACT_TEXT_HTML_SQL + """) UNION ALL (""" + _EXTRACT_TEXT_PDF_SQL + """)
),
tw AS (
    SELECT url, length(extracted_text) AS n_chars,
           len(string_split_regex(extracted_text, '\\s+')) AS n_words
    FROM all_txt
),
hmeta AS (
    SELECT doc_id,
           CASE WHEN len(str_split(text,' ')) % 14 = 0
                THEN len(str_split(text,' ')) // 14
                WHEN len(str_split(text,' ')) % 14 >= 10
                THEN len(str_split(text,' ')) // 14 + 1
                ELSE len(str_split(text,' ')) // 14 END
           * (CASE WHEN doc_id % 97 = 0 THEN 30 ELSE 1 END)
           + (CASE WHEN doc_id % 7 = 3 THEN 1 ELSE 0 END)
           + (CASE WHEN doc_id % 41 = 15 THEN 1 ELSE 0 END)
           + (CASE WHEN doc_id % 5 = 0 THEN 4 ELSE 0 END)
           + 1 + 4 AS n_blocks,
           1 AS n_pages, 'html' AS doc_kind, 'ok' AS extract_status
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83) AND (doc_id % 10) <> 7
),
pmeta AS (
    SELECT doc_id,
           CASE WHEN doc_id % 40 = 17 AND doc_id % 97 <> 0 THEN 3
                WHEN doc_id % 97 = 0 THEN 240
                WHEN (doc_id // 10) % 4 = 0 THEN 8 * (1 + doc_id % 3)
                WHEN (doc_id // 10) % 4 = 1 THEN 8
                WHEN (doc_id // 10) % 4 = 2 THEN 5
                ELSE 4 END AS n_blocks,
           CASE WHEN doc_id % 40 = 17 AND doc_id % 97 <> 0 THEN 1
                WHEN doc_id % 97 = 0 THEN 30
                WHEN (doc_id // 10) % 4 = 0 THEN 1 + doc_id % 3
                ELSE 1 END AS n_pages,
           'pdf' AS doc_kind, 'ok' AS extract_status
    FROM documents
    WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83) AND (doc_id % 10) = 7
),
edges AS (
    SELECT doc_id,
           CASE doc_id % 101 WHEN 29 THEN 1 WHEN 61 THEN 2 ELSE 0 END AS n_blocks,
           CASE doc_id % 101 WHEN 47 THEN 0 ELSE 1 END AS n_pages,
           CASE doc_id % 101 WHEN 13 THEN 'unknown'
                WHEN 29 THEN 'html' WHEN 61 THEN 'html' ELSE 'pdf' END AS doc_kind,
           CASE doc_id % 101 WHEN 47 THEN 'parse_error'
                WHEN 83 THEN 'image_only' ELSE 'empty' END AS extract_status
    FROM documents WHERE (doc_id % 101) IN (13, 29, 47, 61, 83)
),
meta AS (
    SELECT * FROM hmeta UNION ALL SELECT * FROM pmeta UNION ALL SELECT * FROM edges
)
SELECT
    'https://example.org/' || lpad(CAST(m.doc_id % 1000 AS VARCHAR), 4, '0')
        || '/' || lpad(CAST(m.doc_id AS VARCHAR), 9, '0') AS url,
    m.doc_kind, m.extract_status,
    CAST(m.n_pages AS INTEGER) AS n_pages,
    CAST(m.n_blocks AS INTEGER) AS n_blocks,
    CAST(coalesce(tw.n_chars, 0) AS BIGINT) AS n_chars,
    CAST(coalesce(tw.n_words, 0) AS BIGINT) AS n_words
FROM meta m
LEFT JOIN tw ON tw.url = 'https://example.org/'
    || lpad(CAST(m.doc_id % 1000 AS VARCHAR), 4, '0')
    || '/' || lpad(CAST(m.doc_id AS VARCHAR), 9, '0')
""",
        # TPC-H Q3 shape with exact integer revenue and total order
        "q3_unshipped_revenue": """
            SELECT l_orderkey, o_orderdate, o_orderpriority,
                   CAST(sum(
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT))
                   ) AS BIGINT) AS revenue_e4
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1998-07-01'
              AND l_shipdate > TIMESTAMP '1998-07-01'
            GROUP BY l_orderkey, o_orderdate, o_orderpriority
            ORDER BY revenue_e4 DESC, o_orderdate, l_orderkey
            LIMIT 10
        """,
        # exact join-cardinality estimate: count-join-sum
        "join_size_estimate": """
            SELECT CAST(coalesce(sum(l.c * r.c), 0) AS BIGINT)
                       AS est_join_rows
            FROM (SELECT user_id, count(*) AS c FROM events
                  GROUP BY user_id) l
            JOIN (SELECT o_custkey, count(*) AS c FROM orders
                  GROUP BY o_custkey) r
              ON l.user_id = r.o_custkey
        """,
        # composed standard-mode envelope, flattened + fully oracled:
        # byte-identical full_text LEFT-JOINed onto all 500 rows,
        # deterministic entity strings, per-page Statistics
        "standard_result_flat": """
            WITH txt AS (
                (""" + _EXTRACT_TEXT_HTML_SQL + """)
                UNION ALL
                (""" + _EXTRACT_TEXT_PDF_SQL + """)
            ),
            stats AS (""" + _DOC_STATS_SQL + """),
            base AS (
                SELECT doc_id,
                       'https://example.org/'
                           || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                           || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0')
                           AS url,
                       (doc_id % 7 = 3 AND doc_id % 10 <> 7
                        AND (doc_id % 101) NOT IN (13, 29, 47, 61, 83))
                           AS ent
                FROM documents
            )
            SELECT b.url,
                   coalesce(t.extracted_text, '') AS full_text,
                   CASE WHEN b.ent THEN 'sales' || b.doc_id || '@example.com'
                        ELSE '' END AS email_s,
                   '' AS phone_s,
                   CASE WHEN b.ent THEN (b.doc_id % 12 + 1) || '/'
                        || (b.doc_id % 28 + 1) || '/2025'
                        ELSE '' END AS date_s,
                   CASE WHEN b.ent THEN '$' || (b.doc_id % 90 + 10)
                        || ',500.00' ELSE '' END AS currency_s,
                   '' AS url_ref_s,
                   '' AS ssn_s,
                   s.total_pages, s.total_characters, s.total_words,
                   s.avg_chars_per_page, s.avg_words_per_page
            FROM base b
            LEFT JOIN txt t ON t.url = b.url
            JOIN stats s ON s.url = b.url
        """,
        # Dirichlet query-likelihood twin (same parity discipline as
        # bm25: round-12 background probs, row-local fixed-order sums)
        "ql_dirichlet_topk": _QL_SQL,
        "rrf_fusion_topk": _rrf_sql(100, 60, 10),
        # boolean retrieval twin over the same double-space padding
        "boolean_search": """
            WITH p AS (
                SELECT doc_id,
                       ' ' || replace(text, ' ', '  ') || ' ' AS pad
                FROM documents
            )
            SELECT doc_id FROM p
            WHERE position(' batch ' IN pad) > 0
              AND position(' join ' IN pad) > 0
              AND position(' scan ' IN pad) = 0
        """,
        # exact-phrase counts: non-overlapping replace-length twin
        # over the same single-space padding
        "phrase_search": """
            WITH p AS (
                SELECT doc_id, ' ' || text || ' ' AS pad FROM documents
            )
            SELECT doc_id,
                   CAST((length(pad) - length(replace(pad, ' batch scan ', '')))
                        // length(' batch scan ') AS BIGINT) AS n_occurrences
            FROM p
            WHERE position(' batch scan ' IN pad) > 0
        """,
        # best-window snippet extraction, SQL window-frame twin
        "search_snippets": """
WITH toks AS (
    SELECT doc_id, str_split(text, ' ') AS w FROM documents
),
pos AS (
    SELECT doc_id, w, w[pos] AS tok, pos
    FROM toks, LATERAL unnest(generate_series(1, len(w))) AS g(pos)
),
win AS (
    SELECT doc_id, w, pos,
           SUM(CASE WHEN tok IN ('batch', 'join', 'scan') THEN 1 ELSE 0 END)
               OVER (PARTITION BY doc_id ORDER BY pos
                     ROWS BETWEEN CURRENT ROW AND 14 FOLLOWING) AS cnt
    FROM pos
),
best AS (
    SELECT doc_id, w, pos, cnt,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY cnt DESC, pos) AS rn
    FROM win
)
SELECT doc_id, CAST(pos AS BIGINT) AS start_pos, CAST(cnt AS BIGINT) AS n_hits,
       array_to_string(w[pos : least(pos + 15 - 1, len(w))], ' ') AS snippet
FROM best WHERE rn = 1 AND cnt > 0
ORDER BY doc_id
""",
        # BM25 ranked retrieval, float-parity-by-construction twin
        "bm25_topk": _BM25_SQL,
        "bm25_index_topk": _BM25_SQL,
        # bucketed-storage join twin: plain equi-join + integer-cents
        # revenue fold
        "bucketed_join_orders": """
            SELECT c_mktsegment,
                   count(*) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "bucketed_revenue_by_customer": """
            SELECT o_custkey,
                   count(*) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders GROUP BY o_custkey
        """,
        # flagship composition, byte-oracled end-to-end: both channel
        # reconstructions -> word-count gate -> min-url dedup survivor
        "web_prep": """
            WITH all_txt AS (
                (""" + _EXTRACT_TEXT_HTML_SQL + """)
                UNION ALL
                (""" + _EXTRACT_TEXT_PDF_SQL + """)
            ),
            g AS (
                SELECT url, extracted_text,
                       len(string_split_regex(extracted_text, '\\s+'))
                           AS n_words
                FROM all_txt
            ),
            q AS (SELECT * FROM g WHERE n_words >= 30),
            r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY extracted_text ORDER BY url) AS rn
                FROM q
            )
            SELECT url, extracted_text, CAST(n_words AS BIGINT) AS n_words
            FROM r WHERE rn = 1
        """,
        # per-page bookmark rule of variant-0 / giant classic PDFs
        "pdf_outline": """
            WITH d AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 97 = 0 THEN 30
                            ELSE 1 + doc_id % 3 END AS n_pages
                FROM documents
                WHERE (doc_id % 101) NOT IN (13, 29, 47, 61, 83)
                  AND (doc_id % 10) = 7
                  AND (doc_id % 97 = 0
                       OR ((doc_id // 10) % 4 = 0
                           AND NOT (doc_id % 40 = 17)))
            )
            SELECT
                'https://example.org/'
                    || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                    || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                CAST(p.p AS BIGINT) AS pos,
                'Section ' || p.p || ' of ' || n_pages AS title
            FROM d, LATERAL unnest(generate_series(1, n_pages)) AS p(p)
        """,
        # entity-channel parity: the synthesizer plants exactly one
        # email/phone/date/currency sentence on doc_id%7==3 HTML rows
        "extract_entities": """
            SELECT
                'https://example.org/'
                    || lpad(CAST(doc_id % 1000 AS VARCHAR), 4, '0')
                    || '/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS url,
                CAST(ent AS BIGINT) AS n_email,
                CAST(ent AS BIGINT) AS n_phone,
                CAST(ent AS BIGINT) AS n_date,
                CAST(ent AS BIGINT) AS n_currency,
                CAST(0 AS BIGINT) AS n_url_ref,
                CAST(0 AS BIGINT) AS n_ssn
            FROM (
                SELECT doc_id,
                       (doc_id % 7 = 3 AND doc_id % 10 <> 7
                        AND (doc_id % 101) NOT IN (13, 29, 47, 61, 83)) AS ent
                FROM documents
            )
        """,
        # BYTE-IDENTITY oracle for the PDF extraction channel (per-
        # variant layout rules re-derived in SQL)
        "extract_text_pdf": _EXTRACT_TEXT_PDF_SQL,
        # extraction-channel router/status parity: the SQL re-derives
        # the synthesizer's kind/status rules; n_match = count(*)
        # asserts every engine row matched its expectation
        "extract_status_match": """
            WITH c AS (
                SELECT
                    CASE WHEN doc_id % 101 = 13 THEN 'unknown'
                         WHEN doc_id % 101 IN (29, 61) THEN 'html'
                         WHEN doc_id % 101 IN (47, 83) THEN 'pdf'
                         WHEN doc_id % 10 = 7 THEN 'pdf'
                         ELSE 'html' END AS doc_kind,
                    CASE WHEN doc_id % 101 IN (13, 29, 61) THEN 'empty'
                         WHEN doc_id % 101 = 47 THEN 'parse_error'
                         WHEN doc_id % 101 = 83 THEN 'image_only'
                         ELSE 'ok' END AS extract_status
                FROM documents
            )
            SELECT doc_kind, extract_status,
                   count(*) AS n_docs, count(*) AS n_match
            FROM c GROUP BY doc_kind, extract_status
        """,
        # GROUP BY over the page_structure reconstruction: pages
        # sharing an exact DOM shape form one template cluster
        "template_clusters": """
            WITH ps AS (""" + _PAGE_STRUCTURE_SQL + """)
            SELECT n_p, n_a, n_table, n_tr, n_th, n_td, max_depth,
                   count(*) AS n_pages, min(url) AS representative
            FROM ps
            GROUP BY n_p, n_a, n_table, n_tr, n_th, n_td, max_depth
            HAVING count(*) >= 2
        """,
    } | _langid_oracles()
