"""Every function, class and method of the package has a caller in the
package or in the benchmark, not only in tests (stdlib `ast` only).

A definition counts as used when its bare name appears as a name, an
attribute or a string constant in module-level code of `src/qslab`, in
`bench/` (its tests aside), or inside a definition that is itself used;
a reference from inside its own body does not count.  String constants
cover the names in `qslab.__all__` and the entry points the benchmark wraps
by name.  Dead chains and cycles are thus reported whole.  Dunder methods
count as used with their class.
"""

import ast
from collections import defaultdict
from pathlib import Path

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "qslab"
BENCH = ROOT / "bench"

# reference oracles and public API kept without a library caller
ALLOWED = {
    "spectral.TasepCircleOracle.yaglom_ratio":
        "closed-form conditioned law of the TASEP circle, a test oracle",
    "spectral.StateSpace.index_of":
        "public inverse of `StateSpace.occupancies`",
    "storage.load_ensemble":
        "public reader of what `storage.save_ensemble` writes",
}


def _reference(node):
    """The name a name, attribute or string constant node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scan(tree, module):
    """Qualified names of the module-level functions and classes of `tree`
    and of the methods of those classes (none when `module` is None), and
    the names each of them refers to.  A reference belongs to the innermost
    of these definitions around it; dunder methods belong to their class,
    and module-level code to None."""
    defs, uses = [], defaultdict(set)

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "")
            if prefix and isinstance(child, DEFINITIONS) \
                    and not (name.startswith("__") and name.endswith("__")):
                qual = f"{prefix}.{name}"
                defs.append(qual)
                visit(child, qual,
                      qual if isinstance(child, ast.ClassDef) else None)
                continue
            ref = _reference(child)
            if ref is not None:
                uses[owner].add(ref)
            visit(child, owner, None)

    visit(tree, None, module)
    return defs, uses


def unreferenced(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in the `library` modules (module
    name -> source) that no module-level code of the library, no `users`
    source and no definition reached from those refers to."""
    defs, uses = [], defaultdict(set)
    for module, source in {**users, **library}.items():
        found, refs = _scan(ast.parse(source),
                            module if module in library else None)
        defs += found
        for owner, names in refs.items():
            uses[owner] |= names
    by_name = defaultdict(list)
    for qual in defs:
        by_name[qual.rsplit(".", 1)[1]].append(qual)
    live, todo = set(), list(uses[None])
    while todo:
        for qual in by_name[todo.pop()]:
            if qual not in live:
                live.add(qual)
                todo += uses[qual]
    return sorted(set(defs) - live)


def _package_sources():
    library = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    users = {str(p.relative_to(ROOT)): p.read_text()
             for p in sorted(BENCH.rglob("*.py"))
             if "tests" not in p.relative_to(BENCH).parts}
    return library, users


def test_checker_follows_dead_chains():
    library = {
        "a": ("def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def dead():\n    return dead_only()\n"
              "def dead_only():\n    return dead()\n"
              "class K:\n    def __init__(self):\n        pass\n"
              "    def m(self):\n        return 0\n"
              "    def n(self):\n        return self.m()\n"),
        "b": "__all__ = ['K']\n",
    }
    users = {"run": "import a\na.used()\ngetattr(a, 'n')\n"}
    assert unreferenced(library, users) == ["a.dead", "a.dead_only"]


def test_every_definition_has_a_library_caller():
    library, users = _package_sources()
    assert set(unreferenced(library, users)) == set(ALLOWED)
