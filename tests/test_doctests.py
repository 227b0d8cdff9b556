"""Run the docstring examples embedded in the source modules."""

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
