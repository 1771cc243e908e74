"""Source hygiene of the library, checked with the standard library only."""

import ast
import importlib
import importlib.util
from pathlib import Path

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


def _resolves(modname, path):
    owner = importlib.import_module("multiloop." + modname)
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_tracing_targets_exist():
    """Every function the benchmark's span wrappers replace exists, so a
    rename fails here and not only in a traced benchmark run."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = ["multiloop.%s:%s" % (mod, attr)
               for _, mod, attr, _ in tracing.TARGETS
               if not _resolves(mod, attr)]
    assert tracing.TARGETS and missing == []
