"""Every module-level import of the package and of its tests is used, and
no module of the package imports scipy at import time (stdlib `ast` only);
importing the command line, or running a phi-direct config through it,
loads no scipy module at all, and no multiprocessing module either (only
a batch run on more than one worker starts processes).

Names a module lists in `__all__` are re-exports and count as used;
`from __future__` imports bind nothing.  String annotations are parsed, so
a name used only in a quoted annotation counts as used.  scipy costs about
a quarter of a second to import, twice what a small Monte Carlo run
computes, so each function imports the scipy names it calls.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import TOY

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


def _run_at_import(node):
    """The nodes under `node` that run when its module is imported: all but
    the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _run_at_import(child)


def scipy_imports(source: str) -> list[int]:
    """Line of every `import scipy...` or `from scipy... import` that runs
    when `source` is imported."""
    def is_scipy(name):
        return name is not None and name.split(".")[0] == "scipy"
    return [node.lineno for node in _run_at_import(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(is_scipy(alias.name) for alias in node.names)
            or isinstance(node, ast.ImportFrom) and is_scipy(node.module)]


def test_checker_flags_only_import_time_scipy():
    source = ("import numpy, scipy.sparse\n"
              "from scipy import linalg\n"
              "from .scipy_free import f\n"
              "if numpy:\n"
              "    from scipy.special import xlogy\n"
              "class K:\n"
              "    import scipy\n"
              "    def m(self):\n"
              "        from scipy.io import mmwrite\n"
              "def k():\n"
              "    import scipy.linalg\n")
    assert scipy_imports(source) == [1, 2, 5, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert [f"{path.name}:{line}"
            for line in scipy_imports(path.read_text())] == []


UNLOADED = ("scipy", "multiprocessing")


def _loaded_by(script: str, *args: str) -> dict[str, list[str]]:
    """The modules of each package of `UNLOADED` loaded in a fresh
    interpreter once `script` (run with `args` as sys.argv[1:]) is done."""
    probe = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script
         + "\nprint(json.dumps({p: sorted("
         "m for m in sys.modules if m.split('.')[0] == p) for p in "
         + repr(UNLOADED) + "}))", *args],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return json.loads(probe.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _loaded_by("import qslab.cli, qslab.spectral, qslab.config") \
        == {p: [] for p in UNLOADED}


def test_phi_direct_run_loads_no_scipy(tmp_path):
    """A whole `run` of the toy's phi-direct config, to its manifest."""
    config = tmp_path / "phi-direct.json"
    config.write_text(json.dumps(dict(
        TOY, experiment="phi-direct", seed=13,
        budgets={"order": 2, "n_traj": 100, "t_max": 30.0})))
    out = tmp_path / "out"
    assert _loaded_by(
        "from qslab import cli\n"
        "assert cli.main(['run', '--config', sys.argv[1],"
        " '--out', sys.argv[2]]) == cli.EXIT_OK",
        str(config), str(out)) == {p: [] for p in UNLOADED}
    assert (out / "manifest.json").is_file()
