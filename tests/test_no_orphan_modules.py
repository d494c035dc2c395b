"""Guards against the operator library regrowing code with no user.

A top-level def (function, class or constant) in ``functions/`` counts
as used when non-test code reaches it: the package outside
``functions/``, ``__ray_entry__.py``, ``bench.py`` or ``scripts/``
imports it or names it through an imported module, directly or from
another used def. A def that only its own tests call has no user.

The walk over-approximates: inside ``functions/`` any name that
matches a top-level def of the same module counts as a use of it, and
a used def pulls in its whole module's import-time statements. Nothing
reaches into ``functions/`` by ``getattr`` or ``importlib``, so the
walk misses no caller.

``TEST_ONLY`` and ``TEST_ONLY_DEFS`` name the operators that only
tests reach today. They go together with their tests; both sets may
only shrink, and a new def with no non-test caller fails the suite."""
from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUNCS = os.path.join(REPO, "pdf_extractor_ray", "functions")
PKG = "pdf_extractor_ray.functions"
MODULES = {
    os.path.basename(p)[:-3]
    for p in glob.glob(os.path.join(FUNCS, "*.py"))
    if not p.endswith("__init__.py")
}


# Modules that only tests import. This set may only shrink.
TEST_ONLY = {
    "ann_index", "bpe", "chunk", "dsir", "fingerprint", "mix", "multimodal",
    "sample", "setops",
}

# Defs in used modules that only tests reach. This set may only shrink.
TEST_ONLY_DEFS = {
    "agg": {
        "_grouping_sets_agg", "argmax_per_group", "cube_agg",
        "exact_distinct_by", "exact_quantiles", "exact_quantiles_by",
        "exact_quantiles_cont_by", "grouped_corr", "grouped_skew_kurt",
        "grouping_sets_agg", "key_skew_profile", "mad_by", "mode_by",
        "rollup_agg", "string_agg_by", "unpivot", "winsorize_by", "zscore_by",
    },
    "dedup": {
        "JaccardVerifyStage", "_word_gram64", "containment_pairs",
        "minhash_lsh_candidates",
    },
    "joins": {
        "_numcast", "asof_join", "broadcast_cross_join", "broadcast_join",
        "broadcast_range_join", "range_join", "salted_join", "to_pandas_typed",
    },
    "merge": {
        "count_filled_fields", "merge_sources",
    },
    "similarity": {
        "_embedding_moments", "_pq_codes", "embedding_covariance",
        "ivf_kmeans_topk", "jl_project", "jl_project_vectors",
        "jl_query_vectors", "kmeans_fit", "label_centroids", "pca_project",
        "pq_encode", "pq_fit", "pq_topk", "semantic_dedup",
    },
    "sketch": {
        "_estimate", "_registers", "approx_distinct", "approx_distinct_by",
        "approx_quantiles", "bloom_build", "bloom_contains", "bloom_prefilter",
    },
    "text": {
        "PII_PATTERNS", "_md5_col", "add_classifier_score", "char_entropy",
        "compression_ratio", "line_quality_stats", "nfc_normalize",
        "ngram_overlap_vs_probes", "normalize_text", "rarest_token_per_doc",
        "readability_scores", "redact_pii", "repetition_stats", "token_df",
        "top_ngrams", "top_tokens_approx",
    },
    "url": {
        "OutlinkStage", "_REG_DOMAIN_RE", "_TLD_RE", "_URL_RE",
        "extract_outlinks", "host_blocklist_filter", "normalize_urls",
        "parse_urls",
    },
    "window": {
        "cume_dist_in_group", "dense_rank_in_group", "first_last_per_group",
        "funnel_counts", "lag_attach", "lag_gap_stats", "lead_attach",
        "locf_fill", "moving_avg", "ntile_in_group", "range_frame_agg",
        "rank_in_group", "sessionize", "transition_counts",
    },
}


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read())


def _top_defs(tree: ast.Module) -> dict[str, ast.stmt]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update((n.id, node) for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _imports(node: ast.AST, in_funcs: bool) -> dict[str, tuple]:
    """alias -> ("mod", m) or ("def", m, name) for every ``functions/``
    import inside ``node``."""
    out = {}
    for n in ast.walk(node):
        if isinstance(n, ast.Import):
            for a in n.names:
                m = a.name.rsplit(".", 1)[-1]
                if a.name == f"{PKG}.{m}" and m in MODULES and a.asname:
                    out[a.asname] = ("mod", m)
            continue
        if not isinstance(n, ast.ImportFrom):
            continue
        mod = n.module or ""
        for a in n.names:
            alias = a.asname or a.name
            if n.level == 1 and in_funcs and not mod and a.name in MODULES:
                out[alias] = ("mod", a.name)
            elif n.level == 1 and in_funcs and mod in MODULES:
                out[alias] = ("def", mod, a.name)
            elif mod == PKG and a.name in MODULES:
                out[alias] = ("mod", a.name)
            elif mod.startswith(PKG + ".") and mod.rsplit(".", 1)[-1] in MODULES:
                out[alias] = ("def", mod.rsplit(".", 1)[-1], a.name)
    return out


def _refs(node: ast.AST, scope: dict, own: str | None, own_defs: dict) -> set:
    """(module, name) pairs that ``node`` uses."""
    local = _imports(node, own is not None)
    names = {**scope, **local}
    out = {v[1:] for v in local.values() if v[0] == "def"}
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            v = names.get(n.id)
            if v and v[0] == "def":
                out.add(v[1:])
            elif own and n.id in own_defs:
                out.add((own, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            v = names.get(n.value.id)
            if v and v[0] == "mod":
                out.add((v[1], n.attr))
    return out


def _reached() -> set[tuple[str, str]]:
    trees = {m: _parse(os.path.join(FUNCS, f"{m}.py")) for m in MODULES}
    defs = {m: _top_defs(t) for m, t in trees.items()}
    scopes = {
        m: _imports(ast.Module([s for s in t.body if isinstance(s, (ast.Import, ast.ImportFrom))], []),
                    True)
        for m, t in trees.items()
    }
    roots = [
        p for p in glob.glob(os.path.join(REPO, "pdf_extractor_ray", "**", "*.py"),
                             recursive=True)
        if os.path.dirname(p) != FUNCS
    ]
    roots += [os.path.join(REPO, "__ray_entry__.py"), os.path.join(REPO, "bench.py")]
    roots += glob.glob(os.path.join(REPO, "scripts", "*.py"))
    stack = [r for p in roots for r in _refs(_parse(p), {}, None, {})]
    reached, loaded = set(), set()
    while stack:
        m, name = stack.pop()
        if (m, name) in reached:
            continue
        assert name in defs[m], f"{m}.{name} is used but not defined"
        reached.add((m, name))
        stack += _refs(defs[m][name], scopes[m], m, defs[m])
        if m not in loaded:  # import-time statements run with the first use
            loaded.add(m)
            for s in trees[m].body:
                if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                      ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)):
                    stack += _refs(s, scopes[m], m, defs[m])
    return reached


def _unreached_defs() -> set[tuple[str, str]]:
    reached = _reached()
    return {
        (m, name)
        for m in MODULES - TEST_ONLY
        for name in _top_defs(_parse(os.path.join(FUNCS, f"{m}.py")))
        if (m, name) not in reached
    }


def test_every_functions_module_has_a_non_test_user():
    orphans = MODULES - {m for m, _ in _reached()}
    assert orphans <= TEST_ONLY, f"modules with no non-test user: {sorted(orphans - TEST_ONLY)}"


def test_test_only_list_names_existing_unused_modules():
    assert TEST_ONLY <= MODULES
    assert not TEST_ONLY & {m for m, _ in _reached()}


def test_every_functions_def_has_a_non_test_caller():
    listed = {(m, name) for m, names in TEST_ONLY_DEFS.items() for name in names}
    orphans = sorted(f"{m}.{name}" for m, name in _unreached_defs() - listed)
    assert not orphans, f"defs with no non-test caller: {orphans}"


def test_test_only_defs_list_names_existing_unreached_defs():
    listed = {(m, name) for m, names in TEST_ONLY_DEFS.items() for name in names}
    stale = sorted(f"{m}.{name}" for m, name in listed - _unreached_defs())
    assert not stale, f"TEST_ONLY_DEFS entries that are gone or now used: {stale}"


def test_extraction_path_loads_no_functions_module():
    code = (
        "import sys\n"
        "import pdf_extractor_ray.cli, pdf_extractor_ray.pipelines.extraction\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('pdf_extractor_ray.functions')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
