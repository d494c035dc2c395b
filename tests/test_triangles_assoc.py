"""Embedding moments, PCA, label centroids and readability scores."""
import numpy as np
import pyarrow as pa
import pytest

import ray.data


def test_embedding_covariance_matches_numpy(ray_session):
    from pdf_extractor_ray.functions.similarity import embedding_covariance

    rng = np.random.default_rng(5)
    m = rng.normal(0, 0.3, (200, 8)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array(m.tolist(), pa.list_(pa.float32(), 8)),
    }))
    out = embedding_covariance(ds, dims=4, scale=10_000)
    got = {(r["i"], r["j"]): r["cov"] for r in out.to_pylist()}
    q = np.copysign(np.floor(np.abs(m[:, :4].astype(np.float64))
                             * 1e4 + 0.5), m[:, :4]) / 1e4
    want = np.cov(q, rowvar=False, bias=True)
    for (i, j), v in got.items():
        assert v == pytest.approx(want[i - 1][j - 1], abs=2e-6)
    assert len(got) == 10  # upper triangle of 4x4


def test_embedding_covariance_empty(ray_session):
    from pdf_extractor_ray.functions.similarity import embedding_covariance

    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array([], pa.list_(pa.float32(), 8)),
    }))
    assert embedding_covariance(ds, dims=4).num_rows == 0


def test_pca_project_matches_numpy(ray_session):
    from pdf_extractor_ray.functions.similarity import pca_project

    rng = np.random.default_rng(9)
    # anisotropic cloud so the principal axes are unambiguous
    base = rng.normal(0, 1.0, (300, 2))
    m = np.zeros((300, 6), dtype=np.float64)
    m[:, 0] = 3.0 * base[:, 0]
    m[:, 1] = 1.0 * base[:, 1]
    m[:, 2:] = rng.normal(0, 0.05, (300, 4))
    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array(m.astype(np.float32).tolist(),
                              pa.list_(pa.float32(), 6)),
    }))
    out = pca_project(ds, dims=6, n_components=2)
    got = np.asarray([r["pc"] for r in out.take_all()])
    # numpy reference over the same quantized variable
    q = np.copysign(np.floor(np.abs(m.astype(np.float32).astype(np.float64))
                             * 1e4 + 0.5), m) / 1e4
    centered = q - q.mean(axis=0)
    w, v = np.linalg.eigh(np.cov(q, rowvar=False, bias=True))
    order = np.argsort(w)[::-1][:2]
    comps = v[:, order]
    flip = np.sign(comps[np.abs(comps).argmax(axis=0), np.arange(2)])
    want = centered @ (comps * flip)
    assert got.shape == want.shape
    # sign-fixed components: same orientation, tolerance for the
    # round-6 quantization of the covariance entries
    assert np.max(np.abs(np.abs(got) - np.abs(want))) < 1e-3
    # variance along pc1 ~ 9, pc2 ~ 1 (the planted anisotropy)
    assert got[:, 0].var() > 5 * got[:, 1].var()


def test_pca_project_deterministic(ray_session):
    from pdf_extractor_ray.functions.similarity import pca_project

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/embeddings.parquet",
        columns=["vec_id", "embedding"],
    )
    a = pca_project(ds, dims=8, n_components=2).sort("vec_id").take_all()
    b = pca_project(ds, dims=8, n_components=2).sort("vec_id").take_all()
    assert [r["pc"] for r in a] == [r["pc"] for r in b]


# DuckDB twin of ``text.readability_scores``.
_READABILITY_SQL = r"""
            -- ASCII-whitespace trim (regexp \s is RE2/ASCII), matching
            -- the Ray side's explicit [ \t\n\r\f\v] contract exactly --
            -- DuckDB's plain trim() strips only spaces (ADVICE r4)
            WITH d AS (
                SELECT doc_id,
                       regexp_replace(text, '^\s+|\s+$', '', 'g') AS t
                FROM documents
                WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''
            ), w AS (
                SELECT doc_id, t,
                       string_split_regex(t, '\s+') AS words
                FROM d
            ), syl AS (
                SELECT doc_id,
                       CAST(sum(greatest(1, len(regexp_extract_all(
                           lower(word), '[aeiouy]+')))) AS BIGINT) AS y
                FROM (SELECT doc_id, unnest(words) AS word FROM w)
                GROUP BY doc_id
            ), base AS (
                SELECT w.doc_id,
                       CAST(len(w.words) AS BIGINT) AS n_words,
                       CAST(greatest(1, len(regexp_extract_all(
                           w.t, '[.!?]+'))) AS BIGINT) AS n_sentences,
                       syl.y AS n_syllables
                FROM w JOIN syl ON syl.doc_id = w.doc_id
            )
            SELECT doc_id, n_words, n_sentences, n_syllables,
                   round(206.835
                         - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
                         - 84.6 * (CAST(n_syllables AS DOUBLE) / n_words),
                         6) AS flesch
            FROM base ORDER BY doc_id
        """


def test_readability_hand_checked(ray_session):
    from pdf_extractor_ray.functions.text import readability_scores

    ds = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["The cat sat. It purred!", "", "xyzzy qrst"],
    }))
    rows = {r["doc_id"]: r for r in readability_scores(ds).take_all()}
    assert set(rows) == {1, 3}            # empty text dropped
    r1 = rows[1]
    # words: The cat sat. It purred! -> 5; sentences: 2 ('.', '!')
    # syllables: e/a/a/i/u+e -> 1+1+1+1+2 = 6
    assert (r1["n_words"], r1["n_sentences"], r1["n_syllables"]) == (5, 2, 6)
    w, s, y = 5, 2, 6
    want = 206.835 - 1.015 * (w / s) - 84.6 * (y / w)
    assert r1["flesch"] == pytest.approx(round(want, 6))
    r3 = rows[3]
    # no vowels in xyzzy? y counts: 'xyzzy' has y groups -> ['y','y'] = 2;
    # 'qrst' has none -> max(1, 0) = 1; no sentence marks -> s = 1
    assert (r3["n_words"], r3["n_sentences"], r3["n_syllables"]) == (2, 1, 3)


def test_readability_ascii_whitespace_contract(ray_session):
    """Leading/trailing newline+tab and NBSP separators follow the
    RE2/ASCII \\s contract the DuckDB oracle uses (ADVICE r4): ASCII
    whitespace trims/splits; NBSP is NOT a separator."""
    import duckdb

    from pdf_extractor_ray.functions.text import readability_scores

    texts = ["\n\tleading ws. trailing too!  \n",
             "a b c.",          # NBSP inside the first token
             " ",               # NBSP-only text is NOT dropped
             " \t\n"]                # ASCII-ws-only text IS dropped
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4], "text": texts,
    }))
    rows = {r["doc_id"]: r for r in readability_scores(ds).take_all()}
    assert set(rows) == {1, 2, 3}
    assert (rows[1]["n_words"], rows[1]["n_sentences"]) == (4, 2)
    assert (rows[2]["n_words"], rows[2]["n_sentences"]) == (2, 1)
    assert rows[3]["n_words"] == 1  # the NBSP itself is one "word"

    # the oracle SQL agrees on the same tricky corpus
    con = duckdb.connect()
    con.register("documents", pa.table({
        "doc_id": [1, 2, 3, 4], "text": texts,
    }))
    got = con.execute(_READABILITY_SQL).fetch_arrow_table().to_pylist()
    want = sorted(rows.values(), key=lambda r: r["doc_id"])
    assert [tuple(sorted(r.items())) for r in got] == \
        [tuple(sorted(r.items())) for r in want]


def test_label_centroids_matches_numpy(ray_session):
    from pdf_extractor_ray.functions.similarity import label_centroids

    rng = np.random.default_rng(3)
    m = rng.normal(0, 0.4, (120, 6)).astype(np.float32)
    labels = rng.integers(0, 3, 120)
    ds = ray.data.from_arrow(pa.table({
        "label": pa.array(labels, pa.int32()),
        "embedding": pa.array(m.tolist(), pa.list_(pa.float32(), 6)),
    }))
    t = label_centroids(ds, dims=4, scale=10_000)
    got = {(r["label"], r["dim"]): (r["n"], r["mean"])
           for r in t.to_pylist()}
    q = np.copysign(np.floor(np.abs(m[:, :4].astype(np.float64))
                             * 1e4 + 0.5), m[:, :4]) / 1e4
    for lbl in (0, 1, 2):
        sel = q[labels == lbl]
        for d in range(4):
            n, mean = got[(lbl, d + 1)]
            assert n == len(sel)
            assert mean == pytest.approx(sel[:, d].mean(), abs=2e-6)
    assert len(got) == 12
