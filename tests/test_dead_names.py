"""Every top-level function, class and assigned name of a package module,
and every method of its classes, is read somewhere in src/, tests/ or
perfbench/: as a loaded name, as an attribute, or as a word of a string
constant other than a docstring (the benchmark's tracer names its hook
targets in strings). Dunder names are exempt. It is the dead-definition
counterpart of test_unused_imports.py."""

import ast
import re
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shiftpress"


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (n.name for n in node.body if isinstance(n, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def read_names(tree):
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from re.findall(r"\w+", node.value)


@cache
def read_anywhere() -> frozenset:
    files = [path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")]
    return frozenset(name for path in files for name in read_names(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_definition_is_read(path):
    names = defined_names(ast.parse(path.read_text()))
    dead = [n for n in names if not (n.startswith("__") and n.endswith("__")) and n not in read_anywhere()]
    assert dead == [], f"{path.name} defines {dead}, which nothing reads"
