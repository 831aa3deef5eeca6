"""Checks on the source of the package, made on its syntax tree with the
standard library alone: no import of a module outside the package, numpy
and the standard library, no unused ``from ... import`` name, no
module-level private name that nothing reads, no file opened outside
``gridio`` nor for writing outside its one writer, ``gridio._replacing``, no
file or OS module imported by the numerics, ``cdf``, and no validation verdict
raised outside ``cdf.require_valid_uni`` and ``cdf._BiValidator.finish``.  And
what the source imports at run time: no call of the CLI loads ``numpy.ma``,
and ``gridio`` imports ``cdf``, not the other way round.  And of the tests:
no test module imports another."""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import bifreemax
from bifreemax import BivariateCDF, UnivariateCDF, save_bi_json, save_uni_json
from bifreemax.cdf import _unique
from helpers import fresh_python

#: The package under test: the checkout's src/, or the installed copy.
SRC = Path(bifreemax.__file__).parent


#: Modules that the numerics, cdf.py, do not import: files and the OS are gridio's.
FILE_MODULES = {"codecs", "contextlib", "errno", "json", "os", "re", "struct", "fcntl",
                "termios", "signal"}


def imports(tree):
    """Modules imported anywhere in the tree, inside functions too, but relative ones."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def imported_test_modules(tree):
    """The imports of a test module, ``test_*``, anywhere in the tree."""
    return [name for name in imports(tree) if name.split(".")[0].startswith("test_")]


def foreign_imports(tree):
    """The imports that are neither relative, nor numpy, nor in the standard library."""
    allowed = sys.stdlib_module_names | {"numpy"}
    return [name for name in imports(tree) if name.split(".")[0] not in allowed]


def unused_imports(tree):
    """Names bound by ``from ... import`` (but __future__) that the module never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names if (alias.asname or alias.name) not in read]


def dead_private_names(trees):
    """(module, name) of each module-level private name (dunders excepted)
    bound in one of the trees, a dict of module name to tree, that no tree reads."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                names = []
            found += [(module, name) for name in names if name.startswith("_")
                      and not (name.startswith("__") and name.endswith("__"))
                      and name not in read]
    return found


def _may_write(call):
    """Whether an open() call's mode can write; a mode that is not a literal can."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def open_calls(tree, writing=False):
    """(function, line) of each open() call, or with writing of each that can
    write, with the innermost enclosing function's name (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "open" and not (writing and not _may_write(child))):
                found.append((function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return found


def raise_sites(tree, exception):
    """(function, line) of each ``raise exception(...)``, with the innermost
    enclosing function's name, as "Class.method" in a class (None at module level)."""
    found = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name) and child.exc.func.id == exception):
                found.append((f"{cls}.{function}" if cls else function, child.lineno))
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                visit(child, cls, function)

    visit(tree, None, None)
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
    assert open_calls(tree, writing=True) == [("f", 5), ("f", 5), ("f", 5), ("g", 7)]
    assert open_calls(tree) == [("f", 5)] * 5 + [("g", 7)]


def test_the_raise_check_finds_what_it_looks_for():
    tree = ast.parse("raise E([])\n"
                     "def f():\n"
                     "    raise E\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        def g():\n"
                     "            raise E(1)\n"
                     "        raise OtherE(2)\n")
    assert raise_sites(tree, "E") == [(None, 1), ("C.g", 7)]


def test_the_import_check_finds_what_it_looks_for():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, numpy as np, scipy\n"
                     "from . import cdf\n"
                     "from .cdf import load_bi_json\n"
                     "from numpy.linalg import norm\n"
                     "def f():\n"
                     "    from scipy.optimize import brentq\n"
                     "    import numpydoc\n"
                     "    return brentq\n")
    assert foreign_imports(tree) == ["scipy", "scipy.optimize", "numpydoc"]


def test_no_test_module_imports_another():
    """What two test modules share is in helpers.py or observe.py."""
    tree = ast.parse("import os, test_a\n"
                     "from helpers import outcome\n"
                     "def f():\n"
                     "    from test_b.c import d\n"
                     "    return d\n")
    assert imported_test_modules(tree) == ["test_a", "test_b.c"]
    found = {path.name: imported_test_modules(ast.parse(path.read_text()))
             for path in sorted(Path(__file__).parent.rglob("*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_the_dead_name_check_finds_what_it_looks_for():
    trees = {"a": ast.parse("_used, _dead, (_pair, _read_in_b) = 1, 2, (3, 4)\n"
                            "__dunder__ = 5\n"
                            "class _Unused:\n"
                            "    _attribute = 6\n"
                            "def _f():\n"
                            "    return _used\n"),
             "b": ast.parse("from a import _f\n"
                            "import a\n"
                            "_f(), a._read_in_b\n")}
    assert dead_private_names(trees) == [("a", "_dead"), ("a", "_pair"), ("a", "_Unused")]


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in _modules()}
    assert dead_private_names(trees) == []


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text())
    assert foreign_imports(tree) == []
    if path.name == "cdf.py":
        assert FILE_MODULES.isdisjoint(name.split(".")[0] for name in imports(tree))


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_unused_from_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_only_the_writer_opens_a_file_for_writing():
    trees = {path.name: ast.parse(path.read_text()) for path in _modules()}
    found = {(name, function) for name, tree in trees.items()
             for function, _ in open_calls(tree, writing=True)}
    assert found == {("gridio.py", "_replacing")}
    # and every open, for reading too, is in gridio
    assert {name for name, tree in trees.items() if open_calls(tree)} == {"gridio.py"}


def test_only_two_functions_raise_a_validation_verdict():
    """Every InvalidCDFError comes from require_valid_uni or _BiValidator.finish."""
    found = {(path.name, function) for path in _modules()
             for function, _ in raise_sites(ast.parse(path.read_text()), "InvalidCDFError")}
    assert found == {("cdf.py", "require_valid_uni"), ("cdf.py", "_BiValidator.finish")}


def test_no_call_imports_numpy_ma(tmp_path):
    """np.unique and np.union1d import numpy.ma; a call that merges grids or
    builds an ECDF must not, in a fresh process (numpy 2 loads it lazily)."""
    f, u, s = tmp_path / "f.json", tmp_path / "u.json", tmp_path / "s.tsv"
    save_bi_json(BivariateCDF([0.0, 1.0], [0.0, 2.0], [[0.5, 0.6], [0.7, 1.0]]), f)
    save_uni_json(UnivariateCDF([0.0, 1.0], [0.6, 1.0]), u)
    s.write_text("0\t0\n1\t2\n1\t0\n")
    out = str(tmp_path / "out")
    calls = [["oracle", "0.3", "0.4", "0.2", "0.5", "0.6", "0.3"],
             ["uniconv", str(u), str(u), "--out", out],
             ["biconv", str(f), str(f), "--out", out],
             ["stability", str(f), "2", "1", "0.5", "1", "0.5"],
             ["ecdf", str(s), "--out", out]]
    code = ("import json, sys, numpy\n"
            "with_numpy = 'numpy.ma' in sys.modules\n"
            "from bifreemax.cli import main\n"
            "codes = [main(call) for call in json.loads(sys.argv[1])]\n"
            "print(json.dumps([with_numpy, codes, 'numpy.ma' in sys.modules]))\n")
    stdout = fresh_python(code, json.dumps(calls))
    with_numpy, codes, loaded = json.loads(stdout.splitlines()[-1])
    assert codes == [0] * len(calls), stdout
    if with_numpy:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert not loaded


@pytest.mark.parametrize("first", ["gridio", "cdf"])
def test_gridio_imports_cdf_and_cdf_forwards_the_file_functions(first):
    """Whichever module a process imports first, cdf imports no gridio of its own,
    and cdf forwards the five file functions to gridio, and nothing else."""
    code = (f"import sys, bifreemax.{first}\n"
            "alone = 'bifreemax.gridio' not in sys.modules\n"
            "import bifreemax.cdf as cdf, bifreemax.gridio as gridio\n"
            "names = ('load_bi_json', 'load_samples_tsv', 'load_uni_json', 'save_bi_json',\n"
            "         'save_uni_json')\n"
            "same = [getattr(cdf, name) is getattr(gridio, name) for name in names]\n"
            "try:\n"
            "    cdf.JSON_CHUNK_CHARS\n"
            "except AttributeError:\n"
            "    knob = False\n"
            "else:\n"
            "    knob = True\n"
            "print(alone, all(same), knob)\n")
    assert fresh_python(code).split() == [str(first == "cdf"), "True", "False"]


def test_unique_has_the_bits_of_numpy():
    """cdf._unique against np.union1d and np.unique(return_inverse=True) on
    values with duplicates, both zeros, subnormals and, for the inverse, nans."""
    rng = np.random.default_rng(59)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1.0 + 2.0 ** -52])
    for _ in range(300):
        # rounded normals repeat too; sizes past 16 leave the insertion sort
        a, b = (np.where(rng.random(k) < 0.3, rng.normal(size=k).round(1),
                         rng.choice(special, k)) for k in rng.integers(0, 300, 2))
        union = _unique(np.concatenate((a, b)))
        assert union.tobytes() == np.union1d(a, b).tobytes()
        samples = np.concatenate((a, b, np.full(rng.integers(0, 3), np.nan)))
        rng.shuffle(samples)
        values, index = _unique(samples, inverse=True)
        ref_values, ref_index = np.unique(samples, return_inverse=True)
        assert values.tobytes() == ref_values.tobytes()
        assert np.array_equal(index, ref_index.ravel())
