"""Every function, class and method of the package has a caller in the
package or in the benchmark, not only in tests, and every defaulted
parameter is passed by one of those calls (stdlib `ast` only).

A definition counts as used when its bare name appears as a name, an
attribute or a string constant in module-level code of `src/qslab`, in
`bench/` (its tests aside), or inside a definition that is itself used;
a reference from inside its own body does not count.  A method counts as
used only through an attribute or a string: a bare name is a local
variable or a builtin, never a method.  String constants cover the names
in `qslab.__all__` and the entry points the benchmark wraps by name.  Dead
chains and cycles are thus reported whole.  Dunder methods count as used
with their class.

A defaulted parameter counts as set when some call in `src/qslab` or
`bench/` (its tests aside) to a callee of the same name passes it, by
keyword or by position, or passes `*args` or `**kwargs`; a class name
stands for its `__init__`.  A parameter no call sets is a constant.
"""

import ast
from collections import defaultdict
from pathlib import Path

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "qslab"
BENCH = ROOT / "bench"

# reference oracles and public API kept without a library caller
ALLOWED = {
    "spectral.TasepCircleOracle.yaglom_ratio":
        "closed-form conditioned law of the TASEP circle, a test oracle",
    "spectral.TasepCircleOracle.log_mixture_survival":
        "closed-form log survival of the TASEP circle far in the tail, the "
        "test oracle of its unit decay rate",
    "spectral.StateSpace.index_of":
        "public inverse of `StateSpace.occupancies`",
    "storage.load_ensemble":
        "public reader of what `storage.save_ensemble` writes",
    "model.Model.reversed":
        "the adjoint dynamics, which replaced the removed `reverse` knob",
    "model.JumpKernel.reversed":
        "the adjoint kernel behind `Model.reversed`",
}

# defaulted parameters kept although no library or benchmark call sets them
ALLOWED_PARAMETERS = {
    "cli.main(argv)":
        "the command line passes none; tests hand argument lists to it",
    "measures.ProductMeasure.sample_occupancies(n)":
        "the benchmark tracer wraps this sampler by name",
}


def _reference(node):
    """The name a name, attribute or string constant node refers to, and
    whether it is a bare name."""
    if isinstance(node, ast.Name):
        return node.id, True
    if isinstance(node, ast.Attribute):
        return node.attr, False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    return None


def _scan(tree, module):
    """Qualified names of the module-level functions and classes of `tree`
    and of the methods of those classes (none when `module` is None), the
    qualified names of those methods, and the (name, bare) references each
    definition makes.  A reference belongs to the innermost of these
    definitions around it; dunder methods belong to their class, and
    module-level code to None."""
    defs, methods, uses = [], set(), defaultdict(set)

    def visit(node, owner, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "")
            if prefix and isinstance(child, DEFINITIONS) \
                    and not (name.startswith("__") and name.endswith("__")):
                qual = f"{prefix}.{name}"
                defs.append(qual)
                if in_class:
                    methods.add(qual)
                is_class = isinstance(child, ast.ClassDef)
                visit(child, qual, qual if is_class else None, is_class)
                continue
            ref = _reference(child)
            if ref is not None:
                uses[owner].add(ref)
            visit(child, owner, None, False)

    visit(tree, None, module, False)
    return defs, methods, uses


def unreferenced(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in the `library` modules (module
    name -> source) that no module-level code of the library, no `users`
    source and no definition reached from those refers to."""
    defs, methods, uses = [], set(), defaultdict(set)
    for module, source in {**users, **library}.items():
        found, found_methods, refs = _scan(
            ast.parse(source), module if module in library else None)
        defs += found
        methods |= found_methods
        for owner, names in refs.items():
            uses[owner] |= names
    by_name = defaultdict(list)
    for qual in defs:
        by_name[qual.rsplit(".", 1)[1]].append(qual)
    live, todo = set(), list(uses[None])
    while todo:
        name, bare = todo.pop()
        for qual in by_name[name]:
            if qual not in live and not (bare and qual in methods):
                live.add(qual)
                todo += uses[qual]
    return sorted(set(defs) - live)


def _defaulted(tree, module):
    """(label, callee, parameter, position) of each defaulted parameter of
    the module-level functions of `tree` and of the methods of its
    classes.  `position` is the parameter's index among a call's positional
    arguments (a method's receiver not counted), None for a keyword-only
    one; an `__init__` is called by its class name."""
    out = []

    def add(fn, label, callee, receiver):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            out.append((label, callee, arg.arg, i - receiver))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((label, callee, arg.arg, None))

    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            add(node, f"{module}.{node.name}", node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, FUNCTIONS):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                add(fn, f"{module}.{node.name}.{fn.name}", callee,
                    0 if static else 1)
    return out


def _calls(tree):
    """callee name -> (positional count, keyword names, starred) per call."""
    out = defaultdict(list)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        ref = _reference(node.func)
        if ref is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args) \
            or any(k.arg is None for k in node.keywords)
        out[ref[0]].append((len(node.args), {k.arg for k in node.keywords},
                            starred))
    return out


def unpassed(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """'module.function(parameter)' for each defaulted parameter of the
    `library` modules that no call in the library or in `users` sets."""
    calls = defaultdict(list)
    params = []
    for module, source in {**users, **library}.items():
        tree = ast.parse(source)
        for name, found in _calls(tree).items():
            calls[name] += found
        if module in library:
            params += _defaulted(tree, module)
    out = []
    for label, callee, param, position in params:
        if not any(starred or param in keywords
                   or (position is not None and n_pos > position)
                   for n_pos, keywords, starred in calls[callee]):
            out.append(f"{label}({param})")
    return sorted(out)


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


def test_checker_reads_bare_names_as_locals_not_methods():
    library = {
        "a": ("def helper():\n    return 1\n"
              "class K:\n"
              "    def coords(self):\n        return 0\n"
              "    def reversed(self):\n        return 1\n"
              "    def named(self):\n        return 2\n"
              "    def table(self):\n"
              "        coords = list(reversed([helper()]))\n"
              "        return coords\n"),
    }
    users = {"run": "import a\na.K().table()\ngetattr(a.K(), 'named')\n"}
    assert unreferenced(library, users) == ["a.K.coords", "a.K.reversed"]


def test_checker_finds_parameters_no_call_sets():
    library = {
        "a": ("def f(x, y=1, *, z=2):\n    return x\n"
              "def g(u=0):\n    return u\n"
              "class K:\n"
              "    def __init__(self, u=0):\n        self.u = u\n"
              "    def m(self, v=1, w=2):\n        return v\n"
              "    @staticmethod\n    def s(q=0, r=1):\n        return q\n"),
    }
    users = {"run": ("import a\na.f(1, 2)\nk = a.K(u=3)\nk.m(5)\n"
                     "a.K.s(0)\nargs = (1,)\na.g(*args)\n")}
    assert unpassed(library, users) == ["a.K.m(w)", "a.K.s(r)", "a.f(z)"]


def test_every_definition_has_a_library_caller():
    library, users = _package_sources()
    assert set(unreferenced(library, users)) == set(ALLOWED)


def test_every_defaulted_parameter_has_a_library_setter():
    library, users = _package_sources()
    assert set(unpassed(library, users)) == set(ALLOWED_PARAMETERS)
