"""Checks on the source of the package, made on its syntax tree with the
standard library alone: no unused ``from ... import`` name, and no file
opened for writing outside the one writer, ``cdf._replacing``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bifreemax"


def unused_imports(tree):
    """Names bound by ``from ... import`` (but __future__) that the module never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names if (alias.asname or alias.name) not in read]


def _may_write(call):
    """Whether an open() call's mode can write; a mode that is not a literal can."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def write_opens(tree):
    """(function, line) of each open() call that can write, with the innermost
    enclosing function's name (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "open" and _may_write(child)):
                found.append((function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return found


def _modules():
    return sorted(SRC.glob("*.py"))


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("from __future__ import annotations\n"
                     "from os import path, sep\n"
                     "def f(p, m):\n"
                     "    print(path)\n"
                     "    open(p, 'w'), open(p), open(p, mode='a'), open(p, m), open(p, 'rb')\n"
                     "    def g():\n"
                     "        return open(p, 'r+')\n")
    assert unused_imports(tree) == ["sep"]
    assert write_opens(tree) == [("f", 5), ("f", 5), ("f", 5), ("g", 7)]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_unused_from_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_only_the_writer_opens_a_file_for_writing():
    found = {(path.name, function) for path in _modules()
             for function, _ in write_opens(ast.parse(path.read_text()))}
    assert found == {("cdf.py", "_replacing")}
