"""Guards against the operator library regrowing modules with no user.

A ``functions/`` module counts as used when non-test code reaches it by
imports: the package outside ``functions/``, ``__ray_entry__.py``,
``bench.py`` or ``scripts/``, directly or through other used
``functions/`` modules."""
from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUNCS = os.path.join(REPO, "pdf_extractor_ray", "functions")

# Modules that only tests import. Their operators lost their last query;
# they go together with their tests. This set may only shrink.
TEST_ONLY = {
    "ann_index", "assoc", "bpe", "chunk", "dsir", "fingerprint", "mix",
    "multimodal", "sample", "setops",
}


def _functions_imports(path: str) -> set[str]:
    """Names of ``functions/`` modules that the file at ``path`` imports."""
    in_funcs = os.path.dirname(path) == FUNCS
    out = set()
    for node in ast.walk(ast.parse(open(path).read())):
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = node.module or ""
        if node.level == 1 and in_funcs:
            parts = [mod] if mod else [a.name for a in node.names]
        elif mod in ("pdf_extractor_ray.functions", "functions"):
            parts = [a.name for a in node.names]
        elif ".functions." in f".{mod}":
            parts = [mod.rsplit(".", 1)[-1]]
        else:
            continue
        out.update(parts)
    return out


def _modules() -> set[str]:
    return {
        os.path.basename(p)[:-3]
        for p in glob.glob(os.path.join(FUNCS, "*.py"))
        if not p.endswith("__init__.py")
    }


def _used_modules() -> set[str]:
    roots = [
        p for p in glob.glob(os.path.join(REPO, "pdf_extractor_ray", "**", "*.py"),
                             recursive=True)
        if os.path.dirname(p) != FUNCS
    ]
    roots += [os.path.join(REPO, "__ray_entry__.py"), os.path.join(REPO, "bench.py")]
    roots += glob.glob(os.path.join(REPO, "scripts", "*.py"))
    mods = _modules()
    stack = [m for p in roots for m in _functions_imports(p) if m in mods]
    used = set()
    while stack:
        m = stack.pop()
        if m not in used:
            used.add(m)
            stack += [n for n in _functions_imports(os.path.join(FUNCS, f"{m}.py"))
                      if n in mods]
    return used


def test_every_functions_module_has_a_non_test_user():
    orphans = _modules() - _used_modules()
    assert orphans <= TEST_ONLY, f"modules with no non-test user: {sorted(orphans - TEST_ONLY)}"


def test_test_only_list_names_existing_unused_modules():
    assert TEST_ONLY <= _modules()
    assert not TEST_ONLY & _used_modules()


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
