"""The names the benchmark binds to, read from its sources without running them.

`perfbench/tracing.py` wraps the functions in its LAYERS table and a few
methods by name, and `perfbench/probes.py` imports names from the package.
A rename or deletion in `dendralg` breaks those bindings only when the
benchmark runs, and `perfbench/` is outside the Tier-1 test paths, so this
file parses both sources with `ast` and resolves every bound name here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from dendralg import dendriform, ncalg, suites

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def layers() -> dict:
    """tracing.LAYERS, read as the literal it is."""
    for node in parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py defines no LAYERS")


LAYER_NAMES = [(module, name) for module, groups in layers().items()
               for names in groups.values() for name in names]


@pytest.mark.parametrize("module, name", LAYER_NAMES,
                         ids=[f"{m}.{n}" for m, n in LAYER_NAMES])
def test_every_layer_name_resolves_on_its_module(module, name):
    fn = getattr(importlib.import_module(f"dendralg.{module}"), name, None)
    assert callable(fn), f"dendralg.{module}.{name}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _calls(stmts, env: dict, reached: dict):
    """Record each `method(cls, attr, ...)` call of install() under every
    binding of its enclosing loops and guards, as (line, cls, attr)."""
    def value(node):
        return eval(compile(ast.Expression(node), "tracing.py", "eval"), env)

    for node in stmts:
        if not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "method" for n in ast.walk(node)):
            # aliases such as `base = dendriform.DendriformStructure`
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Attribute):
                env = {**env, node.targets[0].id: value(node.value)}
            continue
        if isinstance(node, ast.For):
            for item in value(node.iter):
                _calls(node.body, {**env, node.target.id: item}, reached)
        elif isinstance(node, ast.If):
            _calls(node.body if value(node.test) else node.orelse, env, reached)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            cls, attr = (value(arg) for arg in node.value.args[:2])
            reached.setdefault(node.lineno, []).append((cls, attr))


def test_every_wrapped_method_is_in_its_class_dict():
    install = next(node for node in parse("tracing.py").body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    env = {"dendriform": dendriform, "ncalg": ncalg, "suites": suites,
           "_all_subclasses": _subclasses}
    sites = {n.lineno for n in ast.walk(install)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
             and n.func.id == "method"}
    reached: dict = {}
    _calls(install.body, env, reached)
    # a call site no binding reaches wraps nothing
    assert set(reached) == sites
    for line, wraps in reached.items():
        for cls, attr in wraps:
            assert attr in cls.__dict__, f"line {line}: {cls.__name__}.{attr}"


def test_every_probe_import_exists():
    imports = [(node.module, alias.name)
               for node in ast.walk(parse("probes.py"))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "dendralg"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"


def test_every_suite_is_a_function_and_description_pair():
    assert suites.SUITES
    for name, entry in suites.SUITES.items():
        assert isinstance(entry, tuple) and len(entry) == 2, name
        fn, description = entry
        assert callable(fn) and isinstance(description, str), name
