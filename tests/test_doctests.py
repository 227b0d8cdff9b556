"""Docstring examples, the package names that other code looks up, the
modules the command line loads, and the rule that every memo is local to one
call."""

import ast
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dendralg import (
    cli, dendriform, hopf, lyndon, magnus, ncalg, structures, suites,
)

MODULES = [ncalg, dendriform, structures, hopf, lyndon, magnus, suites, cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> dict:
    """Execute a perfbench file from its source text; writes nothing there."""
    path = PERFBENCH / name
    namespace = {"__name__": f"perfbench_{path.stem}", "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_the_names_the_benchmark_wraps_exist():
    """The traced benchmark run wraps these by name; a rename breaks it."""
    layers = _load("tracing.py")["LAYERS"]
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in MODULES}
    missing = [f"{modname}.{name}"
               for modname, groups in layers.items()
               for names in groups.values() for name in names
               if not callable(getattr(modules[modname], name, None))]
    assert not missing


def test_the_probe_module_imports():
    probes = _load("probes.py")["PROBES"]
    assert "spitzer6_shuffle" in probes


_NEW_MODULES_SCRIPT = """
import sys
before = set(sys.modules)
import dendralg.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_the_command_line_loads_no_introspection_modules():
    """Every request is a fresh process, so each import is paid each time.

    Only the modules that importing the CLI adds are compared, so a site that
    loads some of these at start-up does not fail the test.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NEW_MODULES_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "dendralg.cli" in added
    assert not added & HEAVY_MODULES


SRC = Path(__file__).resolve().parents[1] / "src" / "dendralg"
MEMOS = {"cache", "lru_cache", "cached_property"}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


class _LongLivedMemos(ast.NodeVisitor):
    """Lines that apply a memo outside any function body.

    Such a memo lives as long as its module or class; one made inside a
    function body is dropped when the call returns.
    """

    def __init__(self):
        self.lines = []

    def visit_FunctionDef(self, node):
        # decorators run where the function is defined; the body is skipped
        for decorator in node.decorator_list:
            if _name(decorator) in MEMOS:
                self.lines.append(decorator.lineno)
            self.visit(decorator)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        pass

    def visit_Call(self, node):
        if _name(node) in MEMOS:
            self.lines.append(node.lineno)
        self.generic_visit(node)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_memo_is_local_to_one_call(path):
    """No cache at module level or in a class body: none outlives its report."""
    finder = _LongLivedMemos()
    finder.visit(ast.parse(path.read_text(), str(path)))
    assert not finder.lines, f"{path.name}: module- or class-level memo"


def test_every_suite_report_is_made_in_one_place():
    """suites.py opens a run, builds a structure and closes a report once."""
    tree = ast.parse((SRC / "suites.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    runs = [c.lineno for c in calls if _name(c) == "_Run"]
    builds = [c.lineno for c in calls if _name(c) == "from_selector"]
    closes = [c.lineno for c in calls if _name(c) == "report"]
    assert len(runs) == 1, f"_Run constructed on lines {runs}"
    assert len(builds) == 1, f"from_selector called on lines {builds}"
    assert len(closes) == 1, f"report() called on lines {closes}"
    thunks = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "thunk"]
    assert not thunks, f"suite thunks on lines {thunks}"
