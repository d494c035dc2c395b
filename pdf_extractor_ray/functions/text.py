"""Text-analysis stages for a training-data pipeline at corpus scale.

All are vectorized ``map_batches`` transforms over the ``documents``
table shape ``(doc_id, text, lang, …)``.  Semantics are chosen to be
SQL-mirrorable so the driver's DuckDB oracle can verify them exactly
(see __ray_entry__.oracle_sql):

- token count     = whitespace-split token count
- punct ratio     = chars left after removing ``[A-Za-z0-9\\s]`` ÷ chars
- stopword ratio  = stopword tokens ÷ tokens
- quality score   = simple deterministic combination of the above
- fingerprint     = md5 of the raw text (exact-dup key)
- language id     = stopword-profile heuristic (not SQL-expressible)
"""
from __future__ import annotations

import hashlib
from typing import List

import pyarrow as pa
import pyarrow.compute as pc

STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "it")

# tiny per-language stopword profiles for the heuristic language id
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "is", "in", "that", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "que"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "que"},
}


def add_text_features(batch: pa.Table) -> pa.Table:
    # vectorized counts: token / punct / stopword tallies are Arrow
    # regex-count kernels over the whole column. Token-occurrence
    # counting uses the double-space trick (every single space becomes
    # two) so consecutive stopwords never share a delimiter and the
    # non-overlapping substring count equals the true token count.
    text_col = pc.fill_null(batch.column("text"), "")
    tok_arr = pc.cast(pc.count_substring_regex(text_col, r"\S+"), pa.int64())
    punct_arr = pc.cast(
        pc.count_substring_regex(text_col, r"[^A-Za-z0-9\s]"), pa.int64()
    )
    norm = pc.replace_substring_regex(text_col, r"\s", "  ")
    padded = pc.binary_join_element_wise(" ", norm, " ", "")
    n_stop_np = None
    for w in STOPWORDS:
        c = pc.count_substring(padded, f" {w} ").to_numpy(zero_copy_only=False)
        n_stop_np = c if n_stop_np is None else n_stop_np + c
    stop_arr = pa.array(n_stop_np.astype("int64"), pa.int64())
    # md5 fingerprint stays per-row (C-speed digest; no Arrow kernel)
    fingerprints = [
        hashlib.md5((t or "").encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    chars = pc.cast(pc.utf8_length(batch.column("text")), pa.int64())
    safe_chars = pc.max_element_wise(chars, pa.scalar(1, pa.int64()))
    safe_toks = pc.max_element_wise(tok_arr, pa.scalar(1, pa.int64()))
    punct_ratio = pc.round(
        pc.divide(pc.cast(punct_arr, pa.float64()), pc.cast(safe_chars, pa.float64())),
        ndigits=6,
    )
    stop_ratio = pc.round(
        pc.divide(pc.cast(stop_arr, pa.float64()), pc.cast(safe_toks, pa.float64())),
        ndigits=6,
    )
    out = batch
    for name, arr in (
        ("n_tokens", tok_arr),
        ("punct_ratio", punct_ratio),
        ("stopword_ratio", stop_ratio),
        ("fingerprint", pa.array(fingerprints, pa.string())),
    ):
        out = out.append_column(name, arr)
    return out


def add_quality_score(batch: pa.Table) -> pa.Table:
    """Deterministic document quality score in [0, 1] — the simple
    length/punct/stopword combination a training-data filter thresholds
    on.  Requires the ``add_text_features`` columns; SQL-mirrorable.

    score = length_factor × (1 − punct_ratio) × (0.5 + 0.5 × min(1, 4 × stopword_ratio))
    with length_factor = min(1, n_tokens / 50).
    """
    n_tok = pc.cast(batch.column("n_tokens"), pa.float64())
    length_factor = pc.min_element_wise(
        pc.divide(n_tok, pa.scalar(50.0)), pa.scalar(1.0)
    )
    punct_term = pc.subtract(pa.scalar(1.0), batch.column("punct_ratio"))
    stop_term = pc.add(
        pa.scalar(0.5),
        pc.multiply(
            pa.scalar(0.5),
            pc.min_element_wise(
                pc.multiply(batch.column("stopword_ratio"), pa.scalar(4.0)),
                pa.scalar(1.0),
            ),
        ),
    )
    score = pc.round(
        pc.multiply(pc.multiply(length_factor, punct_term), stop_term), ndigits=6
    )
    return batch.append_column("quality_score", score)


# character-trigram profiles (top distinctive trigrams incl. spaces, per
# language) — the classic n-gram language-ID heuristic (Cavnar & Trenkle
# 1994 shape, tiny profile)
_TRIGRAM_PROFILES = {
    "en": (" th", "the", "he ", " an", "and", "nd ", "ing", " of", "of ", " to",
           "to ", "ed ", " in", "ion", "er "),
    "de": ("er ", "en ", "ch ", "der", " de", "ein", "ich", "sch", "die", " ge",
           "und", " un", "nde", "ung", "cht"),
    "fr": (" de", "de ", "es ", " le", "le ", "ent", "nt ", "la ", " la", "que",
           " qu", "ue ", "re ", " et", "et "),
    "es": (" de", "de ", "os ", " la", "la ", "el ", " el", "que", " qu", "ue ",
           "es ", " en", "en ", "ión", "ado"),
}


def _pick_langs(scores: "np.ndarray", lang_names) -> pa.Array:
    """(n, L) score matrix → lang of the strictly-max score per row,
    'unknown' where every score is 0 (ties keep the earlier profile —
    same semantics as the sequential `score > best` loop)."""
    import numpy as np

    best = np.argmax(scores, axis=1)  # first max wins ties
    maxv = scores[np.arange(len(scores)), best]
    names = np.asarray(list(lang_names))
    out = np.where(maxv > 0, names[best], "unknown")
    return pa.array(out.tolist(), pa.string())


def detect_language_ngram(batch: pa.Table) -> pa.Table:
    """Character-trigram language id: score = count of profile trigrams
    present in the text, weighted by profile rank (earlier = more
    distinctive). Deterministic tie-break by profile order. Fully
    vectorized: one ``pc.count_substring`` kernel per profile trigram
    over the whole batch, no per-row Python."""
    import numpy as np
    import pyarrow.compute as pc

    padded = pc.binary_join_element_wise(
        " ", pc.utf8_lower(pc.fill_null(batch.column("text"), "")), " ", ""
    )
    scores = np.zeros((batch.num_rows, len(_TRIGRAM_PROFILES)), dtype=np.int64)
    for j, grams in enumerate(_TRIGRAM_PROFILES.values()):
        for rank, g in enumerate(grams):
            c = pc.count_substring(padded, g).to_numpy(zero_copy_only=False)
            scores[:, j] += (len(grams) - rank) * c
    return batch.append_column(
        "detected_lang_ngram", _pick_langs(scores, _TRIGRAM_PROFILES)
    )


def detect_language(batch: pa.Table) -> pa.Table:
    """Stopword-profile language id (heuristic; not SQL-expressible).
    Vectorized: whitespace-normalize once, then one substring-presence
    kernel per profile word (`` word ``-in-padded ⟺ token membership)."""
    import numpy as np
    import pyarrow.compute as pc

    t = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(batch.column("text"), "")), r"\s+", " "
    )
    padded = pc.binary_join_element_wise(" ", t, " ", "")
    scores = np.zeros((batch.num_rows, len(_LANG_PROFILES)), dtype=np.int64)
    for j, profile in enumerate(_LANG_PROFILES.values()):
        for w in profile:
            present = pc.greater(pc.count_substring(padded, f" {w} "), 0)
            scores[:, j] += present.to_numpy(zero_copy_only=False).astype(np.int64)
    return batch.append_column(
        "detected_lang", _pick_langs(scores, _LANG_PROFILES)
    )


def top_ngrams(docs_ds, n: int = 2, k: int = 25, text_col: str = "text"):
    """Corpus-wide top-k word n-grams by occurrence count.

    Plan (the canonical web-scale token-statistics shape):
    1. per-block partial counts (Counter per batch — only the block's
       DISTINCT (ngram, count) pairs leave the task, never token
       streams)
    2. native hash-shuffle ``groupby(ngram)`` sum — the key space is
       unbounded, so this is the high-cardinality tool by contract
       (see functions/agg.py docstring)
    3. ``sort(count desc, ngram asc).limit(k)`` — deterministic ties.
    """
    from collections import Counter

    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = (t or "").split()
            for i in range(len(toks) - n + 1):
                c[" ".join(toks[i : i + n])] += 1
        return pa.table(
            {
                "ngram": pa.array(list(c.keys()), pa.string()),
                "n_partial": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("n_partial", alias_name="n"))
    )
    return counts.sort(["n", "ngram"], descending=[True, False]).limit(k)


def token_df(docs_ds, k: int = 25, text_col: str = "text"):
    """Top-k tokens by DOCUMENT FREQUENCY (the IDF building block).

    Same partial-count plan as ``top_ngrams``, but each block
    contributes each token at most once PER DOCUMENT (per-doc distinct
    before counting) — only the block's (token, df) pairs shuffle.
    """
    from collections import Counter

    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            c.update(set((t or "").split()))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "df_partial": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("df_partial", alias_name="df"))
    )
    return counts.sort(["df", "token"], descending=[True, False]).limit(k)


def top_tokens_approx(docs_ds, k: int = 25, per_block: int = 1000,
                      text_col: str = "text"):
    """Approximate heavy hitters: corpus top-k tokens with BOUNDED
    per-block state — each block emits only its local top
    ``per_block`` (token, count) pairs (SpaceSaving-style truncation)
    instead of its full vocabulary, so shuffle volume is
    blocks × per_block regardless of vocabulary size.

    Exact twin: ``top_ngrams``(n=1) / ``token_df``. A true heavy
    hitter (frequency ≥ total/per_block in every block) can never be
    truncated out; rarer tokens may be under-counted — the standard
    trade. Deterministic: local truncation ties break by token.
    """
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            c.update((t or "").split())
        top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:per_block]
        return pa.table(
            {
                "token": pa.array([t for t, _ in top], pa.string()),
                "n_partial": pa.array([n for _, n in top], pa.int64()),
            }
        )

    counts = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n_partial", alias_name="n"))
    )
    return counts.sort(["n", "token"], descending=[True, False]).limit(k)


def rarest_token_per_doc(docs_ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per document, its token with the SMALLEST corpus document
    frequency (ties → lexicographically smallest token) — the
    TF-IDF-style analytic that exercises the high-cardinality
    token join end-to-end:

    1. explode each doc's DISTINCT tokens → (doc_id, token) rows
    2. ``groupby(token)`` count → the df table (token-space shuffle —
       vocabulary is unbounded at web scale, so no broadcast)
    3. hash-shuffle join tokens ⋈ df on token
    4. per-doc argmin by (df, token) — one doc-space shuffle,
       in-group lexsort

    Integer/string output only (doc_id, token, df) — exactly
    SQL-reproducible. Token definition: whitespace split, matching
    ``token_df``.
    """
    from ray.data.aggregate import Count

    from .dedup import compact_blocks
    from .joins import hash_join

    import numpy as np

    def explode(batch: pa.Table) -> pa.Table:
        ids, toks = [], []
        for d, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            s = sorted(set((t or "").split()))
            ids.extend([d] * len(s))
            toks.extend(s)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "token": pa.array(toks, pa.string())}
        )

    tok = compact_blocks(docs_ds.map_batches(explode, batch_format="pyarrow"))
    # ^ consumed twice: df count + join left side
    df = tok.groupby("token").aggregate(Count(alias_name="df"))
    joined = hash_join(
        tok, df, "token", "token", ["doc_id", "token"], ["df"], how="inner"
    )

    def pick(group: pa.Table) -> pa.Table:
        dfs = np.asarray(group.column("df").to_pylist(), dtype=np.int64)
        toks = np.asarray(group.column("token").to_pylist())
        order = np.lexsort((toks, dfs))
        return group.take(pa.array([int(order[0])], pa.int64()))

    return joined.groupby("doc_id").map_groups(pick, batch_format="pyarrow")


# ------------------------------------------------------- cleaning / redaction
# PII patterns shared with the entity extractor (parsers/standard.py —
# reference extractor/parsers/standard.py:12-36); RE2 syntax so the
# Arrow kernel and a SQL engine's regexp_replace agree exactly.
PII_PATTERNS: tuple = (
    ("email", r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b", "[EMAIL]"),
    ("ssn", r"\d{3}-\d{2}-\d{4}", "[SSN]"),
    ("phone", r"(\+?\d{1,3}[-.\s]?)?\(?\d{3}\)?[-.\s]?\d{3}[-.\s]?\d{4}", "[PHONE]"),
)


def redact_pii(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Training-data PII scrub: emails, SSNs, phone numbers replaced by
    type tokens — one vectorized ``replace_substring_regex`` kernel per
    pattern over the whole batch, applied in frozen order (SSN before
    phone so the 3-2-4 digit shape is never half-eaten by the phone
    pattern). Emits per-kind match counts and the redacted text.
    """
    import pyarrow.compute as pc

    col = batch.column(text_col)
    out = {"doc_id": batch.column("doc_id")}
    red = col
    for kind, pat, token in PII_PATTERNS:
        out[f"n_{kind}"] = pc.cast(
            pc.count_substring_regex(red, pat), pa.int64()
        )
        red = pc.replace_substring_regex(red, pat, token)
    out["redacted_md5"] = _md5_col(red)
    return pa.table(out)


def _md5_col(col) -> pa.Array:
    import hashlib

    return pa.array(
        [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in col.to_pylist()],
        pa.string(),
    )


def normalize_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """C4-style normalization: collapse all whitespace runs to one
    space, trim, lowercase — three Arrow kernels, zero per-row Python.
    Emits the md5 fingerprint (join/dedup key for normalized dedup)
    plus the normalized length."""
    import pyarrow.compute as pc

    col = batch.column(text_col)
    collapsed = pc.replace_substring_regex(col, r"\s+", " ")
    norm = pc.utf8_lower(pc.utf8_trim(collapsed, " "))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "norm_md5": _md5_col(norm),
            "n_chars_norm": pc.cast(pc.utf8_length(norm), pa.int64()),
        }
    )


def line_quality_stats(batch: pa.Table, text_col: str = "text",
                       min_words: int = 3) -> pa.Table:
    """C4-style line gate statistics: a line is KEPT iff it ends with
    terminal punctuation (., !, ?, or a closing quote) and has at least
    ``min_words`` words. Fully vectorized: split → flatten → two regex
    kernels over ALL lines of the batch at once → per-doc fold by list
    offsets (np.add.reduceat shape, no per-row Python)."""
    import numpy as np
    import pyarrow.compute as pc

    col = batch.column(text_col).combine_chunks()
    lines = pc.split_pattern(pc.fill_null(col, ""), "\n")
    offs = np.asarray(lines.offsets, dtype=np.int64)
    flat = lines.flatten()
    ends_ok = pc.match_substring_regex(flat, r'[.!?"]\s*$')
    word_n = pc.count_substring_regex(flat, r"\S+")
    keep = pc.and_(ends_ok, pc.greater_equal(word_n, min_words))
    keep_np = np.asarray(keep.to_numpy(zero_copy_only=False), dtype=np.int64)
    csum = np.concatenate([[0], np.cumsum(keep_np)])
    n_kept = csum[offs[1:] - offs[0]] - csum[offs[:-1] - offs[0]]
    n_lines = np.diff(offs)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
        }
    )


def ngram_overlap_vs_probes(batch: pa.Table, probes, n: int = 3,
                            text_col: str = "text") -> pa.Table:
    """Decontamination by n-gram OVERLAP (stronger than substring
    probes: catches leakage that crosses line breaks or punctuation
    edits): count distinct word-n-grams each document shares with the
    probe set. The probe n-gram set is built once per worker from the
    (tiny by contract) probe list and closed over the task — rows with
    zero overlap are dropped.

    Tokenization matches the SQL twin: split on whitespace runs."""
    probe_grams = set()
    for p in probes:
        toks = p.split()
        probe_grams.update(
            " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
        )
    ids, overlaps = [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column(text_col).to_pylist()
    ):
        toks = (text or "").split()
        grams = {
            " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
        }
        hit = len(grams & probe_grams)
        if hit:
            ids.append(doc_id)
            overlaps.append(hit)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_shared_ngrams": pa.array(overlaps, pa.int64()),
        }
    )


def _round6_half_up(v):
    """round(x, 6) with DuckDB semantics (half AWAY from zero, for
    non-negative inputs = half up). ``np.round``/``pc.round`` default
    to half-to-even, which disagrees with SQL exactly on .5e-6
    boundaries — real data hits them (a 128-char doc with a 9-char
    gram gives 9/128 = 0.0703125). Inputs here are always ≥ 0."""
    import numpy as np

    return np.floor(np.asarray(v, dtype=np.float64) * 1e6 + 0.5) / 1e6


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style within-document repetition signals: the fraction of
    lines (count- and character-weighted) that are duplicates of an
    earlier line in the SAME document.  High values flag boilerplate /
    navigation pages a training-data filter drops.

    Fully vectorized per batch: one ``split_pattern`` over the column,
    one ``dictionary_encode`` over ALL lines of the batch at once (the
    distinct-line coder), then numpy ``bincount``/``unique`` folds by
    document.  No per-row Python; embarrassingly parallel (per-doc op,
    no shuffle)."""
    import numpy as np

    col = pc.fill_null(batch.column(text_col).combine_chunks(), "")
    lines = pc.split_pattern(col, "\n")
    offs = np.asarray(lines.offsets, dtype=np.int64)
    flat = lines.flatten()
    n_docs = len(col)
    per_doc = np.diff(offs)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), per_doc)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes_np = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    lens_np = (
        pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    )
    n_codes = int(codes_np.max()) + 1 if len(codes_np) else 1
    pair_key = doc_idx * n_codes + codes_np
    _, first_i = np.unique(pair_key, return_index=True)
    n_distinct = np.bincount(doc_idx[first_i], minlength=n_docs)
    chars_total = np.bincount(
        doc_idx, weights=lens_np, minlength=n_docs
    ).astype(np.int64)
    chars_distinct = np.bincount(
        doc_idx[first_i], weights=lens_np[first_i], minlength=n_docs
    ).astype(np.int64)
    dup_line_frac = _round6_half_up(
        1.0 - n_distinct / per_doc.astype(np.float64)
    )
    dup_line_char_frac = _round6_half_up(
        1.0 - chars_distinct / np.maximum(chars_total, 1).astype(np.float64)
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(per_doc, pa.int64()),
            "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
            "dup_line_char_frac": pa.array(dup_line_char_frac, pa.float64()),
        }
    )


def add_classifier_score(batch: pa.Table) -> pa.Table:
    """Deterministic linear quality CLASSIFIER (fastText-shape: fixed
    weights over cheap features, squashed to (0, 1)).  Stands in for a
    learned filter model with bit-reproducible output: the squash is
    the rational sigmoid ``0.5·(1 + z/(1+|z|))`` — add/abs/divide only,
    so DuckDB and numpy agree to the last ulp (no libm ``exp``).

    Requires ``add_text_features`` columns (n_tokens, punct_ratio,
    stopword_ratio).  Weights are arbitrary but fixed:
    z = 4·stop − 3·punct + min(n_tokens,400)/400 − 1."""
    import numpy as np

    stop = batch.column("stopword_ratio").to_numpy(zero_copy_only=False)
    punct = batch.column("punct_ratio").to_numpy(zero_copy_only=False)
    n_tok = batch.column("n_tokens").to_numpy(zero_copy_only=False).astype(
        np.float64
    )
    z = 4.0 * stop - 3.0 * punct + np.minimum(n_tok, 400.0) / 400.0 - 1.0
    score = _round6_half_up(0.5 * (1.0 + z / (1.0 + np.abs(z))))
    return batch.append_column(
        "classifier_score", pa.array(score, pa.float64())
    )


def compression_ratio(batch: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Per-document zlib compression ratio — the classic cheap
    redundancy signal web pipelines gate on (template/spam pages
    compress far below organic prose; a cousin of Gopher's repetition
    fractions with single-pass cost). C-speed zlib per row, no state,
    no shuffle. Output: (doc_id, n_bytes, n_compressed, ratio) with
    ratio = compressed/raw rounded half-up to 6 digits (1.0 for empty
    text — nothing to compress, nothing saved)."""
    import zlib

    import numpy as np

    texts = batch.column(text_col).to_pylist()
    raw, comp = [], []
    for t in texts:
        b = (t or "").encode("utf-8")
        raw.append(len(b))
        comp.append(len(zlib.compress(b, 6)) if b else 0)
    raw_a = np.asarray(raw, dtype=np.int64)
    comp_a = np.asarray(comp, dtype=np.int64)
    ratio = np.where(raw_a > 0, comp_a / np.maximum(raw_a, 1), 1.0)
    ratio = np.floor(ratio * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_bytes": pa.array(raw_a, pa.int64()),
            "n_compressed": pa.array(comp_a, pa.int64()),
            "ratio": pa.array(ratio, pa.float64()),
        }
    )


def char_entropy(batch: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Per-document Shannon character entropy (bits) — the alphabet-
    diversity quality signal (keyboard-mash and repeated-char spam sit
    far below prose; a cousin of :func:`compression_ratio` with an
    exact SQL twin via DuckDB's ``entropy()`` aggregate over
    ``unnest(string_split(text, ''))``).

    Vectorized: the batch's texts are concatenated once, viewed as a
    uint8 array, and per-doc byte histograms accumulate with one
    ``np.add.at`` scatter — no per-character Python. Byte-level equals
    character-level only for ASCII, so any batch containing a
    non-ASCII byte falls back to exact per-doc character counting
    (correct for the SQL twin, slower; the synthetic corpus is ASCII).

    Empty documents are emitted with NULL entropy (SQL's ``entropy()``
    over zero rows). Output: (doc_id, entropy) rounded half-up to 6
    digits.
    """
    import collections

    import numpy as np

    texts = [t or "" for t in batch.column(text_col).to_pylist()]
    joined = "".join(texts)
    ent = np.full(len(texts), np.nan)
    try:
        data = joined.encode("ascii")
        lens = np.asarray([len(t) for t in texts], dtype=np.int64)
        if len(data):
            doc_idx = np.repeat(np.arange(len(texts)), lens)
            bytes_a = np.frombuffer(data, dtype=np.uint8)
            hist = np.zeros((len(texts), 256), dtype=np.int64)
            np.add.at(hist, (doc_idx, bytes_a), 1)
            tot = hist.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                p = hist / np.maximum(tot, 1)
                terms = np.where(hist > 0, -p * np.log2(
                    np.where(p > 0, p, 1.0)), 0.0)
            ent = np.where(tot[:, 0] > 0, terms.sum(axis=1), np.nan)
    except UnicodeEncodeError:
        for i, t in enumerate(texts):
            if not t:
                continue
            counts = np.asarray(
                list(collections.Counter(t).values()), dtype=np.float64
            )
            p = counts / counts.sum()
            ent[i] = float(-(p * np.log2(p)).sum())
    ent = np.floor(ent * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            id_col: batch.column(id_col),
            "entropy": pa.array(
                [None if np.isnan(e) else float(e) for e in ent],
                pa.float64(),
            ),
        }
    )


# ---------------------------------------------------------------- inverted index
def inverted_index(docs_ds, text_col: str = "text", id_col: str = "doc_id",
                   min_df: int = 1, max_postings: "int | None" = None,
                   num_partitions: int = 64):
    """Distributed INVERTED-INDEX build: token → sorted posting list of
    document ids (the search-index artifact; generalizes the reference's
    per-document entity/token maps to a corpus-wide index).

    Plan (one key-space exchange, the token-statistics shape):
    1. per-block explode of DISTINCT (token, doc_id) pairs — each doc
       contributes a token once, the text itself never shuffles;
    2. hash-partition by token (``__fpart`` = mix64 bucket, same idiom
       as ``agg.partition_fold``) so each token lands wholly in one
       partition — per-partition posting assembly IS the global one;
    3. in-partition vectorized fold: one lexsort by (token, doc_id),
       run detection, ``ListArray.from_arrays`` over the run offsets —
       no per-token Python loop.

    ``min_df`` prunes hapax noise at the source of step 3 (before list
    assembly); ``max_postings`` caps each posting list at the smallest
    doc ids (df still reports the TRUE count) — the stop-word guard: a
    corpus-frequent token's full posting list is corpus-sized and must
    be capped (or the token dropped via an upstream deny list) at web
    scale.  Returns (token, df:int64, postings:list<int64>).
    """
    import numpy as np

    from .joins import _bucket_of

    def explode(batch: pa.Table) -> pa.Table:
        toks: list = []
        ids: list = []
        for i, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            uniq = set((t or "").split())
            toks.extend(uniq)
            ids.extend([i] * len(uniq))
        tok_arr = pa.array(toks, pa.string())
        part = _bucket_of(tok_arr, num_partitions)
        return pa.table(
            {
                "token": tok_arr,
                "doc_id": pa.array(ids, pa.int64()),
                "__fpart": pc.cast(part, pa.int32()),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "postings": pa.array([], pa.list_(pa.int64())),
                }
            )
        toks = np.asarray(group.column("token").to_pylist(), dtype=object)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, toks))
        st, si = toks[order], ids[order]
        change = np.zeros(n, dtype=bool)
        change[0] = True
        change[1:] = st[1:] != st[:-1]
        starts = np.nonzero(change)[0]
        ends = np.concatenate([starts[1:], [n]])
        df = (ends - starts).astype(np.int64)
        keep = df >= min_df
        starts, ends, df = starts[keep], ends[keep], df[keep]
        if max_postings is not None:
            ends = np.minimum(ends, starts + max_postings)
        # gather kept runs into one contiguous values buffer + offsets
        lens = ends - starts
        take = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends)]
        ) if len(starts) else np.array([], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        postings = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(si[take], pa.int64())
        )
        return pa.table(
            {
                "token": pa.array(st[starts].tolist(), pa.string()),
                "df": pa.array(df, pa.int64()),
                "postings": postings,
            }
        )

    return (
        docs_ds.map_batches(explode, batch_format="pyarrow")
        .groupby("__fpart")
        .map_groups(fold, batch_format="pyarrow")
    )


def doc_bigram_cross_entropy(docs_ds, text_col: str = "text",
                             id_col: str = "doc_id"):
    """Per-document BIGRAM cross-entropy against the corpus's own
    conditional bigram model — the order-2 unigram cross-entropy
    (CCNet's KenLM perplexity filter
    shape, kept deterministic/SQL-mirrorable by using the corpus MLE):

        H2(doc) = Σ_b m_b·(log2 CL(w1_b) − log2 C_b) ⁄ Σ_b m_b

    with ``C_b`` the corpus count of bigram b, ``CL(w1)`` the count of
    w1 as a left context, ``m_b`` the in-doc count.  Docs with <2
    tokens emit no row.

    Scale plan (same as unigram): only (id, bigram, count) rows
    shuffle, the bigram vocabulary is never broadcast (token-space
    hash joins for C and CL), final fold is one doc-space groupby.
    """
    from ray.data.aggregate import Sum

    from .dedup import compact_blocks
    from .joins import hash_join

    import numpy as np

    def explode(batch: pa.Table) -> pa.Table:
        ids, bgs, lefts, cnts = [], [], [], []
        for d, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column(text_col).to_pylist(),
        ):
            w = (t or "").split()
            c: dict = {}
            for a, b in zip(w, w[1:]):
                c[(a, b)] = c.get((a, b), 0) + 1
            ids.extend([d] * len(c))
            bgs.extend(f"{a} {b}" for a, b in c)
            lefts.extend(a for a, _ in c)
            cnts.extend(c.values())
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "bg": pa.array(bgs, pa.string()),
                "w1": pa.array(lefts, pa.string()),
                "m": pa.array(cnts, pa.int64()),
            }
        )

    doc = compact_blocks(
        docs_ds.map_batches(explode, batch_format="pyarrow")
    )  # consumed three times (C, CL, join left) — explode runs once
    cb = doc.groupby("bg").aggregate(Sum("m", alias_name="C"))
    cl = doc.groupby("w1").aggregate(Sum("m", alias_name="CL"))
    j = hash_join(doc, cb, "bg", "bg", [id_col, "w1", "m"], ["C"], how="inner")
    j = hash_join(j, cl, "w1", "w1", [id_col, "m", "C"], ["CL"], how="inner")

    def fold(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        m = batch.column("m").to_numpy(zero_copy_only=False).astype(np.float64)
        C = batch.column("C").to_numpy(zero_copy_only=False).astype(np.float64)
        CL = batch.column("CL").to_numpy(zero_copy_only=False).astype(np.float64)
        uniq, inv = np.unique(ids, return_inverse=True)
        wsum = np.bincount(inv, weights=m * (np.log2(CL) - np.log2(C)))
        tot = np.bincount(inv, weights=m)
        return pa.table(
            {
                id_col: pa.array(uniq, pa.int64()),
                "wsum": pa.array(wsum, pa.float64()),
                "mm": pa.array(tot, pa.float64()),
            }
        )

    final = j.map_batches(fold, batch_format="pyarrow").groupby(id_col).aggregate(
        Sum("wsum", alias_name="wsum"), Sum("mm", alias_name="mm")
    )

    def finish(batch: pa.Table) -> pa.Table:
        wsum = batch.column("wsum").to_numpy(zero_copy_only=False)
        mm = batch.column("mm").to_numpy(zero_copy_only=False)
        h = _round6_half_up(wsum / np.maximum(mm, 1.0))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "bigram_cross_entropy": pa.array(h, pa.float64()),
            }
        )

    return final.map_batches(finish, batch_format="pyarrow")


def nfc_normalize(ds, text_col: str = "text", out_col: str = "text_nfc",
                  form: str = "NFC"):
    """Unicode normalization of a text column (``unicodedata`` —
    stdlib, C-speed per string): the canonical-composition step every
    multilingual corpus pipeline runs before hashing/dedup, so that
    ``e + COMBINING ACUTE`` and the precomposed ``é`` hash identically.
    Adds ``out_col`` plus a ``changed`` flag. SQL twin: DuckDB
    ``nfc_normalize`` (NFC only)."""
    import unicodedata

    def norm(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        out = [unicodedata.normalize(form, t or "") for t in texts]
        changed = [o != (t or "") for o, t in zip(out, texts)]
        return batch.append_column(
            out_col, pa.array(out, pa.string())
        ).append_column("changed", pa.array(changed, pa.bool_()))

    return ds.map_batches(norm, batch_format="pyarrow")


def readability_scores(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Flesch reading-ease per document — the classic readability
    quality filter (Flesch 1948; used as a curation gate alongside the
    Gopher rules).  Deterministic heuristic counts so the whole score
    is DuckDB-oracle-able:

      words      = ASCII-whitespace tokens of the ASCII-trimmed text
                   (explicit [ \\t\\n\\r\\f\\v] on BOTH sides — Python
                   str.strip()/\\s are Unicode-aware while DuckDB's RE2
                   \\s is ASCII-only, so a NBSP-separated document would
                   otherwise diverge; ADVICE r4)
      sentences  = max(1, runs of [.!?])
      syllables  = Σ_word max(1, runs of [aeiouy] in the lowercased word)
      flesch     = 206.835 − 1.015·(W/S) − 84.6·(SYL/W), round-6
                   half-away-from-zero (SQL round semantics; the score
                   goes negative for dense technical text)

    Documents with empty trimmed text are dropped (same contract as the
    chunker).  Output: (id_col, n_words, n_sentences, n_syllables,
    flesch).
    """
    import math
    import re

    sent_re = re.compile(r"[.!?]+")
    syl_re = re.compile(r"[aeiouy]+")
    _ASCII_WS = " \t\n\r\f\v"  # RE2 \s — the oracle contract
    ws_re = re.compile(f"[{_ASCII_WS}]+")

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id, out_w, out_s, out_y, out_f = [], [], [], [], []
        for i, t in zip(ids, texts):
            t = (t or "").strip(_ASCII_WS)
            if not t:
                continue
            words = ws_re.split(t)
            w = len(words)
            s = max(1, len(sent_re.findall(t)))
            y = sum(max(1, len(syl_re.findall(wd.lower()))) for wd in words)
            f = 206.835 - 1.015 * (w / s) - 84.6 * (y / w)
            out_id.append(i)
            out_w.append(w)
            out_s.append(s)
            out_y.append(y)
            out_f.append(math.copysign(
                math.floor(abs(f) * 1e6 + 0.5) / 1e6, f))
        return pa.table({
            id_col: pa.array(out_id),
            "n_words": pa.array(out_w, pa.int64()),
            "n_sentences": pa.array(out_s, pa.int64()),
            "n_syllables": pa.array(out_y, pa.int64()),
            "flesch": pa.array(out_f, pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")
