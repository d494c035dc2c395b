"""Distributed BPE tokenizer training + encoding.

The tokenizer-training stage of a training-data pipeline (Sennrich et
al. 2016, "Neural Machine Translation of Rare Words with Subword
Units"): learn byte-pair merges from corpus word frequencies, then
encode every document with the learned vocabulary.

Scale shape — the part that must be distributed is the WORD-FREQUENCY
pass, not the merge loop: real tokenizer trainers (subword-nmt,
HuggingFace tokenizers) learn merges from the word-count table, which
is Zipf-bounded and capped here to ``top_words`` rows. So:

- :func:`word_freqs` — ONE corpus pass: per-block Counter partials →
  high-cardinality hash groupby sum → associative per-block top-n →
  tiny sorted head. The corpus streams; only (word, count) rows
  shuffle; the driver sees ≤ ``top_words`` rows.
- :func:`bpe_train` — the indexed merge loop (pair→words inverted
  index, delta updates; the subword-nmt algorithm) over that bounded
  table on the driver. Deterministic: ties on count break to the
  lexicographically smallest pair.
- :class:`BpeEncodeStage` — an actor-pool ``map_batches`` stage: the
  merge ranks build once per actor in ``__init__``, encoding memoizes
  per distinct word (Zipf makes the cache hit rate ≈1), so per-batch
  work is a dict lookup per word.

Reference analogue: the reference counts whitespace tokens per page
(`/root/reference/extractor/extractors/`); this is the full
trainable-subword upgrade a 100 TB corpus needs for token budgeting.
"""
from __future__ import annotations

import collections
import heapq
import re
from typing import Mapping, Sequence

import pyarrow as pa

_WORD_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")
END = "</w>"


def _words_of(text: str) -> list[str]:
    """Pre-tokenization: the same letter-run / digit-run / punct split
    as the GPT-style pre-tokenizer, lowercased."""
    return _WORD_RE.findall((text or "").lower())


def word_freqs(ds, text_col: str = "text", top_words: int = 30000):
    """Corpus word-frequency table capped to the ``top_words`` most
    frequent words (ties broken by word ascending) — the bounded input
    the BPE merge loop trains on. Returns a ray Dataset of
    (word:string, n:int64)."""

    def partial(batch: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for t in batch.column(text_col).to_pylist():
            c.update(_words_of(t))
        if not c:
            return pa.table({
                "word": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            })
        words, ns = zip(*c.items())
        return pa.table({
            "word": pa.array(list(words), pa.string()),
            "n": pa.array(list(ns), pa.int64()),
        })

    counted = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .sum("n")
    )

    def local_top(batch: pa.Table) -> pa.Table:
        ws = batch.column("word").to_pylist()
        ns = batch.column("sum(n)").to_pylist()
        keep = heapq.nsmallest(
            top_words, range(len(ws)), key=lambda i: (-ns[i], ws[i])
        )
        idx = pa.array(sorted(keep), pa.int64())
        return batch.take(idx)

    # associative cap: each block ships its local top-n, a global sort
    # over ≤ blocks×top_words rows picks the final table
    capped = counted.map_batches(local_top, batch_format="pyarrow")

    def neg(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.rename_columns(["word", "n"])
        return t.append_column("__negn", pc.negate(t.column("n")))

    return (
        capped.map_batches(neg, batch_format="pyarrow")
        .sort(["__negn", "word"])
        .limit(top_words)
        .drop_columns(["__negn"])
    )


def bpe_train(
    freqs: Sequence[tuple[str, int]] | Mapping[str, int],
    n_merges: int = 200,
) -> list[tuple[str, str]]:
    """Learn ``n_merges`` BPE merges from a (word → count) table.

    The indexed subword-nmt algorithm: words are symbol tuples ending
    in ``</w>``; a pair→{word ids} inverted index makes each merge
    touch only the words that contain the merged pair. Deterministic:
    the best pair maximizes (count, lexicographically-smallest-pair).
    Stops early when no pair occurs twice.
    """
    items = list(freqs.items()) if isinstance(freqs, Mapping) else list(freqs)
    symseqs: list[list[str]] = [list(w) + [END] for w, _ in items]
    counts = [int(n) for _, n in items]

    pair_counts: collections.Counter = collections.Counter()
    index: dict[tuple[str, str], set[int]] = collections.defaultdict(set)
    for wi, seq in enumerate(symseqs):
        c = counts[wi]
        for a, b in zip(seq, seq[1:]):
            pair_counts[(a, b)] += c
            index[(a, b)].add(wi)

    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        cand = min(
            ((-c, p) for p, c in pair_counts.items() if c >= 2),
            default=None,
        )
        if cand is None:
            break
        best = cand[1]
        merges.append(best)
        joined = best[0] + best[1]
        for wi in list(index[best]):
            seq = symseqs[wi]
            c = counts[wi]
            # remove old pair contributions for this word
            for a, b in zip(seq, seq[1:]):
                pair_counts[(a, b)] -= c
                index[(a, b)].discard(wi)
            # apply the merge
            out, i = [], 0
            while i < len(seq):
                if (
                    i + 1 < len(seq)
                    and seq[i] == best[0]
                    and seq[i + 1] == best[1]
                ):
                    out.append(joined)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            symseqs[wi] = out
            for a, b in zip(out, out[1:]):
                pair_counts[(a, b)] += c
                index[(a, b)].add(wi)
        pair_counts.pop(best, None)
        index.pop(best, None)
    return merges


def encode_word(word: str, ranks: Mapping[tuple[str, str], int]) -> list[str]:
    """Greedy lowest-rank-first merge application (the standard BPE
    encoder): repeatedly merge the present pair with the smallest
    training rank until none applies."""
    seq = list(word) + [END]
    while len(seq) > 1:
        best_rank, best_i = None, -1
        for i, p in enumerate(zip(seq, seq[1:])):
            r = ranks.get(p)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        seq[best_i:best_i + 2] = [seq[best_i] + seq[best_i + 1]]
    return seq


class BpeEncodeStage:
    """documents batch → (doc_id, n_words, n_bpe_tokens) using trained
    merges. Ranks build once per actor; per-word results memoize (Zipf
    ⇒ the cache absorbs almost every lookup)."""

    def __init__(self, merges: Sequence[tuple[str, str]],
                 id_col: str = "doc_id", text_col: str = "text") -> None:
        self.ranks = {tuple(p): i for i, p in enumerate(merges)}
        self.cache: dict[str, int] = {}
        self.id_col, self.text_col = id_col, text_col

    def _ntok(self, word: str) -> int:
        n = self.cache.get(word)
        if n is None:
            n = len(encode_word(word, self.ranks))
            self.cache[word] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_words, n_tokens = [], []
        for t in batch.column(self.text_col).to_pylist():
            ws = _words_of(t)
            n_words.append(len(ws))
            n_tokens.append(sum(self._ntok(w) for w in ws))
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "n_words": pa.array(n_words, pa.int64()),
            "n_bpe_tokens": pa.array(n_tokens, pa.int64()),
        })


def bpe_pipeline(docs_ds, text_col: str = "text", id_col: str = "doc_id",
                 top_words: int = 5000, n_merges: int = 200):
    """word_freqs pass → driver merge loop → actor-pool encode. Returns
    (merges, encoded dataset of (doc_id, n_words, n_bpe_tokens))."""
    from .pool import pool_size

    freq_tbl = word_freqs(docs_ds, text_col=text_col, top_words=top_words)
    rows = freq_tbl.take_all()  # ≤ top_words rows by construction
    merges = bpe_train([(r["word"], r["n"]) for r in rows], n_merges)
    encoded = docs_ds.map_batches(
        BpeEncodeStage,
        fn_constructor_args=(merges,),
        fn_constructor_kwargs={"id_col": id_col, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=pool_size(),
    )
    return merges, encoded
