"""Docstring examples, the package names that other code looks up, the
modules the command line loads and executes, and the rule that every memo is
local to one call."""

import ast
import doctest
import json
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


def _fresh(script: str, *args: str) -> str:
    """Run script in a fresh interpreter on this package; its stdout.

    Every request is a fresh process, so what a module import costs or
    leaves behind shows only in one.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_NEW_MODULES_SCRIPT = """
import sys
before = set(sys.modules)
import dendralg.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_the_command_line_loads_no_introspection_modules():
    """Only the modules that importing the CLI adds are compared, so a site
    that loads some of these at start-up does not fail the test."""
    added = set(_fresh(_NEW_MODULES_SCRIPT).split())
    assert "dendralg.cli" in added
    assert not added & HEAVY_MODULES


# the names the package exports, by home module
PUBLIC = {
    "dendriform": "DendriformStructure OppositeStructure ell lie_bracket "
                  "opposite prelie_left prelie_right r w_left w_right",
    "errors": "AxiomCheckFailure DendralgError EmptyArgumentList EmptyWord "
              "InvalidPermutation NormalizationError RBWeightCheckFailure "
              "SortMismatch UnitMisuse",
    "hopf": "comp_antipode comp_coproduct comp_dynkin compositions "
            "comp_denominator convolution_expansion dynkin_w dynkin_word "
            "gamma ordered_partition_expansion w_antipode "
            "w_left_from_compositions w_right_from_compositions",
    "lyndon": "census_formula cfl_factorize is_lyndon lyn_set lyndon_census "
              "pbw_expansion profile spitzer_sums t_sigma u_sigma",
    "magnus": "bernoulli_numbers dynkin_ode_check magnus_omega "
              "power_sum_series star_exp star_log",
    "ncalg": "Elem Perm Series Word multilinear_part series_mul",
    "structures": "STANDARD_SELECTORS FreeStructure MaxStructure MRStructure "
                  "RBStructure ShuffleStructure from_selector free_structure "
                  "max_structure mr_structure random_element "
                  "rb_polymat_structure rb_seqmat_structure shuffle_structure",
    "suites": "SUITES Options SuiteReport run_suites",
}
LAZY = ("hopf", "lyndon", "magnus")

_PUBLIC_SCRIPT = """
import importlib, json, sys, types
cli_first, public = sys.argv[1] == "cli-first", json.loads(sys.argv[2])
import dendralg
if cli_first:
    import dendralg.cli
out = {"loaded": sorted(n for n in sys.modules if n.startswith("dendralg."))}
out["unbound"] = [m for m in ("hopf", "lyndon", "magnus")
                  if getattr(dendralg, m) is not sys.modules[f"dendralg.{m}"]]
out["executed"] = [m for m in ("hopf", "lyndon", "magnus")
                   if type(sys.modules[f"dendralg.{m}"]) is types.ModuleType]
names = [name for names in public.values() for name in names.split()]
out["moved"] = [name for home, names in public.items()
                for name in names.split()
                if getattr(dendralg, name) is not getattr(
                    importlib.import_module(f"dendralg.{home}"), name)]
out["all"] = sorted(dendralg.__all__)
out["dir"] = [name for name in names + list(public) if name not in dir(dendralg)]
star = {}
exec("from dendralg import *", star)
out["star"] = [name for name in names if star.get(name) is not getattr(dendralg, name)]
try:
    dendralg.no_such_name
    out["unknown"] = "resolved"
except AttributeError:
    out["unknown"] = "AttributeError"
print(json.dumps(out))
"""


@pytest.mark.parametrize("cli_first", ["package-only", "cli-first"])
def test_the_package_exports_every_public_name(cli_first):
    """Each name is its home module's object, listed by dir and __all__ and
    bound by a star import; hopf, lyndon and magnus resolve as attributes
    whether or not the command line has bound them for loading on first use.
    """
    out = json.loads(_fresh(_PUBLIC_SCRIPT, cli_first, json.dumps(PUBLIC)))
    if cli_first == "package-only":
        assert out["loaded"] == []
        assert out["executed"] == list(LAZY)
    else:
        assert {f"dendralg.{m}" for m in LAZY} <= set(out["loaded"])
        assert out["executed"] == []
    assert out["unbound"] == []
    assert out["moved"] == []
    assert out["all"] == sorted(" ".join(PUBLIC.values()).split())
    assert out["dir"] == []
    assert out["star"] == []
    assert out["unknown"] == "AttributeError"


_REQUEST_SCRIPT = """
import contextlib, io, json, sys, types
from dendralg import cli
imported = sorted(n for n in sys.modules if n.startswith("dendralg."))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "imported": imported, "executed": sorted(
    name for name, module in sys.modules.items()
    if name.startswith("dendralg.") and type(module) is types.ModuleType)}))
"""


def _request(*argv: str) -> dict:
    """One command-line request in a fresh process: its exit code, the
    dendralg modules present once the CLI is imported, and those executed
    by the end.  A module bound for loading on first use is told apart
    without loading it: its type is not plain ModuleType until it runs."""
    return json.loads(_fresh(_REQUEST_SCRIPT, *argv))


# request -> the lazily loaded modules it executes; census_formula reads
# hopf.comp_denominator, so a census request runs hopf as well as lyndon
IMPORT_BUDGET = {
    ("verify", "--suite", "axioms", "--structure", "shuffle", "--degree", "3"):
        set(),
    ("verify", "--suite", "census"): {"lyndon", "hopf"},
    ("verify", "--suite", "spitzer", "--structure", "mr", "--n", "3"):
        {"lyndon"},
    ("verify", "--suite", "magnus", "--structure", "mr", "--cap", "3"):
        {"magnus"},
}


@pytest.mark.parametrize("argv", IMPORT_BUDGET, ids=lambda argv: argv[2])
def test_a_request_executes_only_the_lazy_modules_it_uses(argv):
    """Compiling and running hopf, lyndon or magnus is paid only by the
    requests that call into them; each is entered in sys.modules as soon as
    the CLI is imported, whether or not it runs."""
    out = _request(*argv)
    assert out["code"] == 0
    assert {f"dendralg.{m}" for m in LAZY} <= set(out["imported"])
    executed = {m for m in LAZY if f"dendralg.{m}" in out["executed"]}
    assert executed == IMPORT_BUDGET[argv]


def test_importing_the_cli_enters_every_traced_module():
    """The tracer looks each LAYERS module up in sys.modules right after
    importing the CLI, so every one must be there by then."""
    out = _request("list-suites")
    layers = _load("tracing.py")["LAYERS"]
    assert {f"dendralg.{m}" for m in layers} <= set(out["imported"])


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
