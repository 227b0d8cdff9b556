"""Mutation test: every structure suite reports fail on a broken structure.

Each mutant is mr with one fault in its half-products.  It reaches the
suites through a patched `suites.from_selector`, so the suites run on it
exactly as on a structure the command line names.
"""

import pytest

from dendralg import Options, Perm, run_suites, suites
from dendralg.structures import MRStructure


class DoubledRight(MRStructure):
    """> doubled."""

    def basis_right(self, p, q):
        return super().basis_right(p, q).scale(2)


class SwappedHalves(MRStructure):
    """< and > swapped."""

    def basis_left(self, p, q):
        return super().basis_right(p, q)

    def basis_right(self, p, q):
        return super().basis_left(p, q)


class OneWrongEntry(MRStructure):
    """(21) < (12) gets the extra term p2.1.3.4."""

    def basis_left(self, p, q):
        product = super().basis_left(p, q)
        if (p, q) == ((2, 1), (1, 2)):
            product = product + self.elem(Perm((2, 1, 3, 4)))
        return product


MUTANTS = {"doubled-right": DoubledRight, "swapped": SwappedHalves,
           "one-entry": OneWrongEntry}

# each structure suite at a size that catches every mutant it can
SUITE_SIZES = {
    # at degree 3 the one-entry mutant passes: its entry has degree 4
    "axioms": Options(degree=5),
    "prelie-laws": Options(degree=2),
    "dynkin-prelie": Options(),
    "power-sums": Options(n=4),
    "spitzer": Options(n=4),
    "magnus": Options(cap=4),
}

DYNKIN_GAP = pytest.mark.xfail(
    strict=True,
    reason="dynkin-prelie expands only the generator p1, and none of its "
           "products at n = 5 or 6 reads the (21) < (12) entry")


@pytest.mark.parametrize("suite, mutant", [
    pytest.param(suite, mutant, marks=DYNKIN_GAP)
    if (suite, mutant) == ("dynkin-prelie", "one-entry") else (suite, mutant)
    for suite in SUITE_SIZES for mutant in MUTANTS])
def test_every_structure_suite_fails_a_mutant(monkeypatch, suite, mutant):
    monkeypatch.setattr(suites, "from_selector",
                        lambda selector: MUTANTS[mutant]())
    options = SUITE_SIZES[suite]._replace(structure="mr")
    (report,) = [rep for rep in run_suites([suite], options)
                 if rep.structure == "mr"]
    assert report.status == "fail"
