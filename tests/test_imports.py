"""Every module-level import of the package and of its tests is used
(stdlib `ast` only), and the command line does not load `scipy.stats`.

Names a module lists in `__all__` are re-exports and count as used;
`from __future__` imports bind nothing.  String annotations are parsed, so
a name used only in a quoted annotation counts as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qslab"


def _bound_names(node):
    """(bound name, line) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    out = []
    for alias in node.names:
        if alias.asname:
            out.append((alias.asname, node.lineno))
        else:
            out.append((alias.name.split(".")[0], node.lineno))
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr)
                         if isinstance(m, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every module-level import `source` never uses."""
    tree = ast.parse(source)
    bound = [b for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for b in _bound_names(node)]
    keep = _used_names(tree) | _exported(tree)
    return [(name, line) for name, line in bound if name not in keep]


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from a.b import c, d as e, f\n"
              "import g.h\n"
              "__all__ = ['f']\n"
              "def k(x: 'c') -> None:\n"
              "    return system.argv, g.h\n")
    assert unused_imports(source) == [("os", 2), ("e", 3)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_does_not_load_scipy_stats():
    """`scipy.stats` costs about half a second and 30 MB to import; the
    package computes its Poisson weights and its Kolmogorov-Smirnov
    statistic from `scipy.special` instead."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, qslab.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert probe.stdout.strip() == "False"
