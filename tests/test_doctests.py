"""Docstring examples, and the package names that other code looks up."""

import doctest
import re
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
