"""Source hygiene of the library, checked with the standard library only."""

import ast
import contextlib
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multiloop"


def _unused_imports(path):
    """(line, name) of every name a module imports and never uses."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys as system\n"
                      "from fractions import Fraction\n"
                      "print(system.argv, Fraction)\n")
    assert _unused_imports(module) == [(2, "os")]


def _load(path):
    """The module at path: a library module by its package name."""
    if path.parent == SRC:
        return importlib.import_module("multiloop." + path.stem)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _uncalled_functions(defining, referencing):
    """(module file name, name) of every public module-level function and
    every public method of a module-level class ("Class.method") of the
    defining files that the referencing files never name outside its own
    body.  A function is named by a Name or an Attribute node, a method by
    an Attribute node only; docstrings and comments do not count, and a
    method that overrides one of a base class is exempt."""
    names, attrs = Counter(), Counter()
    for path in referencing:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1

    def own(fn, kinds):
        return sum(1 for n in ast.walk(fn) if isinstance(n, kinds) and
                   getattr(n, "id", getattr(n, "attr", None)) == fn.name)

    out = []
    for path in defining:
        module = None
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_") and \
                    names[node.name] + attrs[node.name] <= \
                    own(node, (ast.Name, ast.Attribute)):
                out.append((path.name, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or \
                        fn.name.startswith("_") or \
                        attrs[fn.name] > own(fn, ast.Attribute):
                    continue
                module = module or _load(path)
                bases = getattr(module, node.name).__mro__[1:]
                if not any(hasattr(b, fn.name) for b in bases):
                    out.append((path.name, "%s.%s" % (node.name, fn.name)))
    return out


def test_library_functions_have_callers():
    """Every public module-level function and public method of the library
    is used by the library, the scripts or the benchmark."""
    root = SRC.parent.parent
    referencing = [p for d in ("src", "scripts", "perfbench")
                   for p in sorted((root / d).rglob("*.py"))]
    assert _uncalled_functions(sorted(SRC.glob("*.py")), referencing) == []


def test_uncalled_function_is_caught(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text('"""used() is documented here; orphan() is not called."""\n'
                   "import argparse\n"
                   "def used():\n    return 1\n"
                   "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
                   "def _private():\n    return 2\n"
                   "class Thing:\n"
                   "    def size(self):\n        return 1\n"
                   "    def dead(self, n):\n"
                   "        return self.dead(n - 1) if n else 0\n"
                   "    def apply(self):\n        return 3\n"
                   "class Parser(argparse.ArgumentParser):\n"
                   "    def error(self, message):\n        raise ValueError\n")
    user.write_text("import lib\n"
                    "def apply(x):\n    return x\n"
                    "print(lib.used(), lib.Thing().size(), apply(1))\n")
    assert _uncalled_functions([lib], [lib, user]) == [
        ("lib.py", "orphan"), ("lib.py", "Thing.dead"),
        ("lib.py", "Thing.apply")]


def _shared_method_names(defining):
    """The public method names defined on two or more module-level classes
    of the defining files, sorted.  _uncalled_functions counts a call of
    one such method for all of them, so each needs a review of its own."""
    owners = {}
    for path in defining:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and \
                            not fn.name.startswith("_"):
                        owners.setdefault(fn.name, set()).add(node.name)
    return sorted(n for n, classes in owners.items() if len(classes) > 1)


# Reviewed by grep: every class that defines one of these names has a
# caller that reaches it.  The domain members (content, from_int, integral,
# inv, lift, one, over, parse, t_order, zero) form the protocol that
# linalg, TruncSeries and LaurentPoly call on whichever domain they are
# given; DomainSeries.inv is its refusal, and DomainLaurent.inv and the
# series-base members of DomainCyclotomic serve a ring over Q(zeta_m),
# which the TruncSeries and DomainLaurent docstrings promise.
_SHARED_METHODS = [
    "coeffs",       # Cyclotomic: cyc_show; TruncSeries: ts_show, lift
    "constant",     # LaurentPoly, TruncSeries: their domains' one()
    "content",
    "from_int",
    "generators",   # ChevalleyAlgebra: the Jacobi proof and generating
                    # columns; FiniteGroup: Light's test, h1_enumerate
    "integral",
    "inv",          # also FiniteGroup (cli) and Cyclotomic (its domain)
    "lift",
    "one",
    "over",
    "parse",
    "serialize",    # the five reports the cli prints
    "t_order",
    "zero",
]


def test_shared_method_names_are_reviewed():
    """A new method name shared by two library classes fails here until
    it is reviewed and added to _SHARED_METHODS."""
    assert _shared_method_names(sorted(SRC.glob("*.py"))) == _SHARED_METHODS


def test_shared_method_name_is_caught(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n"
                   "    def size(self):\n        return 1\n"
                   "    def _key(self):\n        return 2\n"
                   "class B:\n"
                   "    def size(self):\n        return 3\n"
                   "    def _key(self):\n        return 4\n"
                   "    def dead(self):\n        return 5\n"
                   "def size():\n    return 6\n")
    assert _shared_method_names([lib]) == ["size"]


def _unpassed_defaults(defining, referencing):
    """(module file name, function, parameter) of every defaulted parameter
    of a public module-level function, a public method or a constructor
    of the defining files that no call in the referencing files passes, by
    keyword or by position.  Callers are counted by name, as in
    _uncalled_functions: a call of any function or attribute of the same
    name counts, a constructor's name being its class's; *args and
    **kwargs in a call pass every parameter."""
    calls = {}
    for path in referencing:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)

    def passed(names, skip, param, index):
        for call in (c for n in names for c in calls.get(n, ())):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg in (None, param) for k in call.keywords) or \
                    index is not None and len(call.args) > index - skip:
                return True
        return False

    def defaults(fn):
        args = fn.args.posonlyargs + fn.args.args
        out = [(a.arg, i) for i, a in enumerate(args)
               if i >= len(args) - len(fn.args.defaults)]
        return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                                    fn.args.kw_defaults) if d]

    out = []
    for path in defining:
        module = None
        for node in ast.parse(path.read_text()).body:
            targets = []
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                targets.append((node.name, [node.name], 0, node))
            elif isinstance(node, ast.ClassDef):
                module = module or _load(path)
                bases = getattr(module, node.name).__mro__[1:]
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef) or \
                            any(hasattr(b, fn.name) for b in bases
                                if fn.name != "__init__") or \
                            fn.name.startswith("_") and fn.name != "__init__":
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    names = [node.name, "__init__"] \
                        if fn.name == "__init__" else [fn.name]
                    targets.append(("%s.%s" % (node.name, fn.name), names,
                                    0 if static else 1, fn))
            for label, names, skip, fn in targets:
                out += [(path.name, label, param)
                        for param, index in defaults(fn)
                        if not passed(names, skip, param, index)]
    return out


def test_library_defaults_are_passed():
    """A default that no call overrides is a knob nobody turns: it should
    be a constant of the function instead."""
    root = SRC.parent.parent
    referencing = [p for d in ("src", "scripts", "perfbench", "tests")
                   for p in sorted((root / d).rglob("*.py"))]
    assert _unpassed_defaults(sorted(SRC.glob("*.py")), referencing) == []


def test_unpassed_default_is_caught(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
                   "def g(a, b=1):\n    return a\n"
                   "def _h(a, b=1):\n    return a\n"
                   "class Thing:\n"
                   "    def __init__(self, a, b=1, c=2):\n        pass\n"
                   "    def size(self, k=0, j=1):\n        return k\n"
                   "    @staticmethod\n"
                   "    def make(a, b=1):\n        return a\n"
                   "    def __repr__(self, x=0):\n        return ''\n")
    user.write_text("import lib\n"
                    "lib.f(1, 2, e=5)\n"
                    "lib.g(*[1, 2])\n"
                    "lib.Thing(1, 2).size(3)\n"
                    "lib.Thing.make(1)\n")
    assert _unpassed_defaults([lib], [lib, user]) == [
        ("lib.py", "f", "c"), ("lib.py", "f", "d"),
        ("lib.py", "Thing.__init__", "c"), ("lib.py", "Thing.size", "j"),
        ("lib.py", "Thing.make", "b")]


_FLOAT_MATH = ("sqrt", "log", "exp")


def _float_uses(path):
    """(line, what) of every float or complex literal, float( call and use
    of math.sqrt, math.log or math.exp in a module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and \
                type(node.value) in (float, complex):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((node.lineno, "float("))
        elif isinstance(node, ast.Attribute) and node.attr in _FLOAT_MATH \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            out.append((node.lineno, "math." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, "math." + a.name) for a in node.names
                    if a.name in _FLOAT_MATH]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    """The library computes exactly: no float ever reaches a scalar."""
    assert _float_uses(path) == []


def test_floating_point_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\n"
                      "from math import gcd, sqrt\n"
                      "x = 0.5 + 2j + float('1') + math.log(2)\n"
                      "y = math.gcd(4, 6) + gcd(2, 3) + 1\n")
    assert _float_uses(module) == [(2, "math.sqrt"), (3, "0.5"), (3, "2j"),
                                   (3, "float("), (3, "math.log")]


def _imported_names(path, package=None):
    """(line, dotted name) of everything a file imports: "m" for
    "import m" and "m.a" for "from m import a", with a relative module
    resolved against package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = ".".join(p for p in (package, module) if p)
            out += [(node.lineno, "%s.%s" % (module, a.name))
                    for a in node.names]
    return out


def _cli_imports(path, package=None):
    return [(line, name) for line, name in _imported_names(path, package)
            if name == "multiloop.cli" or name.startswith("multiloop.cli.")]


def _private_cli_imports(path):
    return [(line, name) for line, name in _imported_names(path)
            if name.startswith("multiloop.cli._")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_library_does_not_import_cli(path):
    """The CLI depends on the library, never the other way round."""
    assert _cli_imports(path, "multiloop") == []


@pytest.mark.parametrize("path", sorted(
    list((SRC.parent.parent / "tests").glob("*.py"))
    + list((SRC.parent.parent / "scripts").glob("*.py"))),
    ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_private_cli_names_outside_src(path):
    assert _private_cli_imports(path) == []


def test_cli_imports_are_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import cli, linalg\n"
                      "from .cli import main\n"
                      "import multiloop.cli\n"
                      "from multiloop.cli import _graded, main\n")
    assert _cli_imports(module, "multiloop") == [
        (1, "multiloop.cli"), (2, "multiloop.cli.main"), (3, "multiloop.cli"),
        (4, "multiloop.cli._graded"), (4, "multiloop.cli.main")]
    assert _private_cli_imports(module) == [(4, "multiloop.cli._graded")]


def _private_library_imports(path):
    """(line, name) of every underscore name a library module imports from
    another: each module keeps its internals to itself."""
    return [(line, name) for line, name in _imported_names(path, "multiloop")
            if _ours(name) and name.rsplit(".", 1)[-1].startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_library_modules(path):
    assert _private_library_imports(path) == []


def test_private_library_imports_are_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "from operator import add as _add\n"
                      "from . import linalg\n"
                      "from .lietorus import _proportionality, check_LT1\n"
                      "from .rootsys import proportionality\n")
    assert _private_library_imports(module) == [
        (4, "multiloop.lietorus._proportionality")]


def _resolves(modname, path):
    owner = importlib.import_module("multiloop." + modname)
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def _load_tracing():
    """The benchmark's span wrappers, loaded read-only from perfbench/."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_exist():
    """Every function the benchmark's span wrappers replace exists, so a
    rename fails here and not only in a traced benchmark run."""
    tracing = _load_tracing()
    missing = ["multiloop.%s:%s" % (mod, attr)
               for _, mod, attr, _ in tracing.TARGETS
               if not _resolves(mod, attr)]
    assert tracing.TARGETS and missing == []


def _ours(name):
    return name == "multiloop" or name.startswith("multiloop.")


@contextlib.contextmanager
def _fresh_library(modules):
    """Every multiloop module imported afresh, as the benchmark does; the
    modules the other tests hold are put back afterwards."""
    saved = {n: m for n, m in sys.modules.items() if _ours(n)}
    for name in saved:
        del sys.modules[name]
    try:
        yield SimpleNamespace(**{m: importlib.import_module("multiloop." + m)
                                 for m in modules})
    finally:
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_traced_element_layers_fire_required_spans(capsys):
    """The spans a traced factor_series or unipotent_exact run requires in
    scalars, linalg and elemgroup fire on a small job of each kind, so a
    kernel that bypasses one (mat_mul, say) fails here and not only in a
    traced benchmark run."""
    tracing = _load_tracing()
    with _fresh_library(sorted({t[1] for t in tracing.TARGETS})) as lib:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, lib)
        tracer.active = True
        try:
            eg = lib.elemgroup
            fixtures = SRC.parent.parent / "fixtures"
            assert lib.cli.main(["factor",
                                 str(fixtures / "word_laurent.txt")]) == 0
            rg = lib.grading.relative_roots(lib.grading.graded_from_spec(
                *lib.grading.parse_spec_file(
                    (fixtures / "sl3_flip.ml").read_text(), 2)))
            g, R = rg.algebra, rg.algebra.dom

            def param(alpha, k):
                v = [R.zero()] * g.dim
                for i in g.piece(qdeg=alpha):
                    v[i] = R.from_int(k)
                return v
            letters = [(a, param(a, k + 2))
                       for k, a in enumerate(rg.data.positive)]
            u = eg.word_matrix(rg, R, eg.RootElementWord(letters))
            eg.word_matrix(rg, R, eg.RootElementWord(
                eg.unipotent_factor(rg, R, u, rg.data.positive)))
            alpha, beta = rg.data.simple[0], rg.data.positive[-1]
            eg.commutator_table(rg, R, alpha, beta, param(alpha, 1),
                                param(beta, -1))
        finally:
            tracer.active = False
            uninstall()
    capsys.readouterr()
    required = [n for w in ("factor_series", "unipotent_exact")
                for n in tracing.REQUIRED[w]
                if n.split(".")[0] in ("scalars", "linalg", "elemgroup")]
    assert "linalg.mat_mul" in required
    assert [n for n in required if not tracer.calls[n]] == []
    # set-up multiplies matrices too: the letters themselves must go
    # through mat_mul
    def under_word(parent):
        while parent >= 0 and tracer.log[parent][0] != "elemgroup.word_matrix":
            parent = tracer.log[parent][3]
        return parent >= 0
    assert any(name == "linalg.mat_mul" and under_word(parent)
               for name, _, _, parent, _ in tracer.log)
