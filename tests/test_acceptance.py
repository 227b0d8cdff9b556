"""Acceptance gate: every shipped identity at its full desk scale.

One test per criterion, each an exact (tolerance zero) check.  Criteria that
match a verification suite exactly delegate to run_suites and then assert the
report set really covers the promised structures and sizes; the rest drive
the library directly.
"""

import itertools
import math
import random

import pytest

from dendralg import (
    Elem, MaxStructure, Options, Perm, Word, census_formula, cfl_factorize,
    lyndon_census, opposite, pbw_expansion, profile, random_element,
    run_suites, spitzer_sums, t_sigma, u_sigma,
)
from dendralg.hopf import comp_dynkin, comp_dynkin_apply, concat_mul, dynkin_word
from dendralg.lyndon import omega_conjugate
from dendralg.ncalg import WORD_SORT
from dendralg.structures import from_selector


RB_THETA_NAMES = {
    "rb-seqmat:theta=0,k=2,N=4",
    "rb-seqmat:theta=1,k=2,N=4",
    "rb-seqmat:theta=-1,k=2,N=4",
    "rb-seqmat:theta=2/3,k=2,N=4",
}


def x(*letters):
    return Elem.term(WORD_SORT, Word(letters))


def all_pass(reports):
    assert reports
    for rep in reports:
        assert rep.status == "pass", \
            f"{rep.suite}/{rep.structure}: {rep.counterexample}"
    return reports


def done(n, label):
    print(f"[pass] criterion {n}: {label}")


def test_criterion_01_dendriform_axioms():
    reports = all_pass(run_suites(["axioms"], Options()))
    names = {rep.structure for rep in reports}
    assert {"shuffle", "max", "mr", "free", "rb-polymat:k=2"} <= names
    assert RB_THETA_NAMES <= names
    assert all(rep.params["degree"] == 5 for rep in reports)
    done(1, "axioms on all basis triples of degree <= 5, all structures")


def test_criterion_02_dynkin_equals_iterated_prelie():
    reports = all_pass(run_suites(["dynkin-prelie"], Options()))
    structural = [rep for rep in reports if rep.structure != "words"]
    assert len(structural) >= 7
    assert all(rep.params["n"] == 5 for rep in reports)
    done(2, "coalgebra Dynkin equals the left pre-Lie word, n <= 5")


def test_criterion_03_composition_expansions():
    reports = all_pass(run_suites(["power-sums"], Options()))
    assert len(reports) == 7
    assert all(rep.params["n"] == 6 for rep in reports)
    done(3, "both power sums expand over compositions, n <= 6")


def test_criterion_04_magnus():
    reports = all_pass(run_suites(["magnus"], Options()))
    assert all(rep.params["cap"] == 6 for rep in reports)
    # each report: three hand coefficients, exp, log, flow equation
    assert all(rep.checks == 6 for rep in reports)
    done(4, "first Magnus coefficients, exponential and logarithm, cap 6")


def test_criterion_05_symmetrized_identities():
    maxs = MaxStructure(6)
    cases = {
        "shuffle": lambda S, n: [S.elem(Word((i,))) for i in range(1, n + 1)],
        "max": lambda S, n: [S.elem(Word((i,))) for i in range(1, n + 1)],
        "mr": lambda S, n: [S.elem(Perm((1,)))] * n,
        "rb-seqmat:theta=1,k=2,N=4": None,
        "rb-polymat:k=2": None,
    }
    for selector, make in cases.items():
        S = maxs if selector == "max" else from_selector(selector)
        rng = random.Random(0)
        for n in range(2, 7):
            if make is None:
                args = [random_element(S, rng, max_degree=1, nterms=3)
                        for _ in range(n)]
            else:
                args = make(S, n)
            result = spitzer_sums(S, args)
            assert result["right_chain"] == result["t_sum"], (selector, n)
            assert result["left_chain"] == result["u_sum"], (selector, n)
    big = spitzer_sums(from_selector("shuffle"),
                       [x(i) for i in range(1, 8)])
    assert big["right_chain"] == big["t_sum"]
    assert big["left_chain"] == big["u_sum"]
    done(5, "symmetrized identities, n <= 6 in five structures and n = 7")


def test_criterion_06_pbw_expansions():
    def bk(*letters):
        return dynkin_word(Word(letters))

    five_terms = (x(3, 2, 1) + concat_mul(bk(2, 3), x(1))
                  + concat_mul(x(2), bk(1, 3)) + concat_mul(x(3), bk(1, 2))
                  + bk(1, 2, 3))
    assert pbw_expansion(Perm((3, 2, 1))) == five_terms == x(1, 2, 3)

    fourteen_terms = sum([
        x(4, 3, 2, 1),
        concat_mul(x(4, 3), bk(1, 2)),
        concat_mul(concat_mul(x(4), bk(2, 3)), x(1)),
        concat_mul(x(4, 2), bk(1, 3)),
        concat_mul(x(4), bk(1, 2, 3)),
        concat_mul(bk(3, 4), x(2, 1)),
        concat_mul(bk(3, 4), bk(1, 2)),
        concat_mul(concat_mul(x(3), bk(2, 4)), x(1)),
        concat_mul(x(3, 2), bk(1, 4)),
        concat_mul(x(3), bk(1, 2, 4)),
        concat_mul(bk(2, 3, 4), x(1)),
        concat_mul(bk(2, 4), bk(1, 3)),
        concat_mul(x(2), bk(1, 3, 4)),
        bk(1, 2, 3, 4),
    ], Elem.zero(WORD_SORT))
    computed = pbw_expansion(Perm((4, 3, 2, 1)))
    assert computed == x(1, 2, 3, 4)
    # the display omits the 3241 term; restoring it closes the sum
    assert computed - fourteen_terms == concat_mul(bk(2, 3), bk(1, 4))

    for n in range(1, 6):
        target = x(*range(1, n + 1))
        for image in itertools.permutations(range(1, n + 1)):
            assert pbw_expansion(Perm(image)) == target, image
    done(6, "bracketed expansions rebuild the word, displays pinned, n <= 5")


def test_criterion_07_census():
    for n in range(1, 9):
        census = lyndon_census(n)
        assert sum(census.values()) == math.factorial(n)
        for comp, count in census.items():
            assert count == census_formula(comp), (n, comp)
    done(7, "block-length census matches the factorial formula, n <= 8")


def test_criterion_08_operator_specializations():
    nested = all_pass(run_suites(["rb-nested"], Options()))
    names = {rep.structure for rep in nested}
    assert RB_THETA_NAMES <= names and "rb-polymat:k=2" in names
    assert all(rep.params["n"] == 5 for rep in nested)

    image = all_pass(run_suites(["rb-spitzer"], Options()))
    assert {rep.structure for rep in image} == \
        {"rb-seqmat:theta=1,k=1,N=5", "rb-polymat:k=1"}
    # two image-level balances plus the two commutative collapses
    assert all(rep.checks == 4 for rep in image)
    done(8, "operator nested sums, image balance, commutative collapse")


def test_criterion_09_structural_properties():
    for n in range(1, 6):
        d = dynkin_word(Word(tuple(range(1, n + 1))))
        assert dynkin_word(d) == n * d
        c = comp_dynkin(n)
        assert comp_dynkin_apply(c) == n * c

    all_pass(run_suites(["prelie-laws"], Options()))

    S = from_selector("shuffle")
    for n in range(2, 6):
        args = [x(i) for i in range(1, n + 1)]
        base = spitzer_sums(S, args)
        for i in range(n - 1):
            swapped = list(args)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert spitzer_sums(S, swapped)["t_sum"] == base["t_sum"]

    for n in range(1, 8):
        for image in itertools.permutations(range(1, n + 1)):
            assert profile(image).e_values == cfl_factorize(image)

    op = opposite(S)
    for n in range(1, 6):
        args = [x(i) for i in range(1, n + 1)]
        sign = (-1) ** (n - 1)
        for image in itertools.permutations(range(1, n + 1)):
            assert u_sigma(S, image, args) == sign * t_sigma(
                op, omega_conjugate(image), list(reversed(args)))
    done(9, "quasi-idempotence, pre-Lie laws, symmetry, blocks, duality")


def test_criterion_10_convolution_identities():
    reports = all_pass(run_suites(["convolution"], Options()))
    assert {rep.structure for rep in reports} == {"words", "max"}
    assert all(rep.params["n"] == 5 for rep in reports)
    done(10, "convolution and ordered-partition identities, n <= 5")
