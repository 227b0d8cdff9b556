"""Verification suites: every identity in the library, run as a batch.

Each suite produces one report per structure (or per combinatorial carrier
for the structure-free suites).  A report either passes with a count of
verified equalities or fails carrying the first counterexample, rendered
with both sides and their difference.  All arithmetic is exact, so there are
no tolerances anywhere: a suite passes only on equality on the nose.

Random elements are drawn from a PRNG seeded through the options, so two
runs with the same seed compare byte-for-byte (timings aside).
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import hopf, lyndon, magnus
from .dendriform import (
    DendriformStructure, ell, lie_bracket, prelie_left, prelie_right,
    w_left, w_right,
)
from .errors import AxiomCheckFailure
from .ncalg import Elem, Series, Word, WORD_SORT, elem_sum, multilinear_part
from .structures import (
    MaxStructure, RBStructure, STANDARD_SELECTORS, _sample_pairs,
    from_selector, random_element,
)

__all__ = ["SuiteReport", "Options", "SUITES", "OPERATOR_SUITES", "run_suites",
           "suite_names"]

RB_THETAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3))
_SEQMAT = STANDARD_SELECTORS[5]


@dataclass
class SuiteReport:
    """Outcome of one suite on one structure.

    status is "fail" exactly when a counterexample is present; checks counts
    the equalities that were verified.
    """

    suite: str
    structure: str
    params: dict
    status: str
    checks: int
    counterexample: dict | None
    elapsed_ms: int

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "structure": self.structure,
            "params": {k: _plain(v) for k, v in sorted(self.params.items())},
            "status": self.status,
            "checks": self.checks,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _plain(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else str(v.numerator)
    return v


@dataclass
class Options:
    """Knobs shared by all suites; unset (None) values fall back per suite.

    Sizes are taken as given: the command line refuses sizes below 1, and a
    library caller passing n=0 gets reports with no checks, which fail.
    """

    structure: str | None = None
    n: int | None = None
    degree: int | None = None
    cap: int | None = None
    theta: Fraction | None = None
    seed: int = 0


class _Run:
    """Accumulates checks for one report; keeps the first counterexample."""

    def __init__(self, suite: str, structure: str, params: dict):
        self.suite = suite
        self.structure = structure
        self.params = params
        self.checks = 0
        self.counterexample = None
        self.t0 = time.perf_counter()

    def equal(self, check: str, lhs: Elem, rhs: Elem) -> bool:
        if lhs == rhs:
            self.checks += 1
            return True
        if self.counterexample is None:
            self.counterexample = {
                "check": check,
                "lhs": lhs.render(max_terms=20),
                "rhs": rhs.render(max_terms=20),
                "difference": (lhs - rhs).render(max_terms=20),
            }
        return False

    def series_equal(self, check: str, lhs: Series, rhs: Series) -> bool:
        n = lhs.first_difference(rhs)
        if n is None:
            self.checks += 1
            return True
        return self.equal(f"{check} [t^{n}]", lhs.coeff(n), rhs.coeff(n))

    def true(self, check: str, ok: bool, detail: str = "") -> bool:
        if ok:
            self.checks += 1
            return True
        if self.counterexample is None:
            self.counterexample = {"check": check, "lhs": detail or "false",
                                   "rhs": "true", "difference": ""}
        return False

    def report(self) -> SuiteReport:
        elapsed = int(round((time.perf_counter() - self.t0) * 1000))
        if self.counterexample is None and not self.checks:
            self.counterexample = {"check": "at least one check runs",
                                   "lhs": "0 checks", "rhs": ">= 1 check",
                                   "difference": ""}
        status = "pass" if self.counterexample is None else "fail"
        return SuiteReport(self.suite, self.structure, self.params, status,
                           self.checks, self.counterexample, elapsed)


# ---------------------------------------------------------------------------
# structure selection shared by the suites
# ---------------------------------------------------------------------------

def _given(value, default):
    return default if value is None else value


def _selectors(options: Options, default: tuple,
               theta_sweep: bool = False) -> tuple:
    """The selectors a suite runs on: --structure alone if given, else default.

    With theta_sweep, default is followed by the seqmat at every weight of
    RB_THETAS (only the --theta weight when given) and by rb-polymat.
    Otherwise --theta turns the standard seqmat entry into bare rb-seqmat,
    built at that weight; other entries, such as the seqmat rb-spitzer pins,
    keep their own weight.
    """
    if options.structure:
        return (options.structure,)
    if theta_sweep:
        thetas = RB_THETAS if options.theta is None else (options.theta,)
        return (default + tuple(f"rb-seqmat:theta={th},k=2,N=4" for th in thetas)
                + ("rb-polymat:k=2",))
    if options.theta is None:
        return default
    return tuple("rb-seqmat" if s == _SEQMAT else s for s in default)


def _build(selector: str, options: Options) -> DendriformStructure:
    return from_selector(selector, theta=options.theta)


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

GRADED_SELECTORS = ("shuffle", "max", "max-rev", "mr", "free")


def suite_axioms(options: Options):
    degree = _given(options.degree, 5)
    for sel in _selectors(options, GRADED_SELECTORS, theta_sweep=True):
        def thunk(sel=sel):
            run = _Run("axioms", sel, {"degree": degree})
            S = _build(sel, options)
            try:
                triples = S.self_test(degree)
                run.checks = 3 * triples
            except AxiomCheckFailure as exc:
                run.counterexample = {
                    "check": f"{exc.axiom} on keys {exc.keys}",
                    "lhs": exc.lhs,
                    "rhs": exc.rhs,
                    "difference": "",
                }
            return run.report()
        yield thunk


def suite_prelie_laws(options: Options):
    degree = _given(options.degree, 3)
    trials = 3
    for sel in _selectors(options, GRADED_SELECTORS, theta_sweep=True):
        def thunk(sel=sel):
            run = _Run("prelie-laws", sel,
                       {"degree": degree, "seed": options.seed, "trials": trials})
            S = _build(sel, options)
            rng = random.Random(options.seed)
            for _ in range(trials):
                a, b, c = (random_element(S, rng, max_degree=degree, nterms=3)
                           for _ in range(3))
                la = prelie_left(S, prelie_left(S, a, b), c) \
                    - prelie_left(S, a, prelie_left(S, b, c))
                lb = prelie_left(S, prelie_left(S, b, a), c) \
                    - prelie_left(S, b, prelie_left(S, a, c))
                run.equal("left pre-Lie associator symmetric in first two", la, lb)
                ra = prelie_right(S, prelie_right(S, a, b), c) \
                    - prelie_right(S, a, prelie_right(S, b, c))
                rb = prelie_right(S, prelie_right(S, a, c), b) \
                    - prelie_right(S, a, prelie_right(S, c, b))
                run.equal("right pre-Lie associator symmetric in last two", ra, rb)
                run.equal("right product is the negated flipped left product",
                          prelie_right(S, a, b), -prelie_left(S, b, a))
                bracket = S.star(a, b) - S.star(b, a)
                run.equal("bracket = antisymmetrized left product",
                          bracket, prelie_left(S, a, b) - prelie_left(S, b, a))
                run.equal("bracket = antisymmetrized right product",
                          bracket, prelie_right(S, a, b) - prelie_right(S, b, a))
            return run.report()
        yield thunk


def suite_dynkin_prelie(options: Options):
    nmax = _given(options.n, 5)

    def words_thunk():
        run = _Run("dynkin-prelie", "words", {"n": nmax})
        for n in range(1, nmax + 1):
            w = Word(tuple(range(1, n + 1)))
            d = hopf.dynkin_word(w)
            run.equal(f"word Dynkin quasi-idempotence, degree {n}",
                      hopf.dynkin_word(d), d.scale(n))
            dn = hopf.comp_dynkin(n)
            run.equal(f"composition Dynkin quasi-idempotence, degree {n}",
                      hopf.comp_dynkin_apply(dn), dn.scale(n))
        return run.report()

    yield words_thunk
    for sel in _selectors(options, STANDARD_SELECTORS):
        def thunk(sel=sel):
            run = _Run("dynkin-prelie", sel, {"n": nmax, "seed": options.seed})
            S = _build(sel, options)
            a = S.generator(options.seed)
            for n in range(1, nmax + 1):
                run.equal(f"Dynkin image of the power sum = iterated pre-Lie word, n={n}",
                          hopf.dynkin_w(S, a, n), ell(S, *([a] * n)))
            return run.report()
        yield thunk


def suite_power_sums(options: Options):
    nmax = _given(options.n, 6)
    for sel in _selectors(options, STANDARD_SELECTORS):
        def thunk(sel=sel):
            run = _Run("power-sums", sel, {"n": nmax, "seed": options.seed})
            S = _build(sel, options)
            a = S.generator(options.seed)
            for n in range(1, nmax + 1):
                run.equal(f"right power sum from compositions, n={n}",
                          hopf.w_right_from_compositions(S, a, n),
                          w_right(S, a, n))
                run.equal(f"left power sum from compositions, n={n}",
                          hopf.w_left_from_compositions(S, a, n),
                          w_left(S, a, n))
            return run.report()
        yield thunk


SPITZER_SELECTORS = ("shuffle", "max", "mr",
                     "rb-seqmat:theta=1,k=2,N=4", "rb-polymat:k=2")
# a commutative carrier at k = 1, whatever the --theta weight
RB_SPITZER_SELECTORS = ("rb-seqmat:theta=1,k=1,N=5", "rb-polymat:k=1")


def suite_spitzer(options: Options):
    n = _given(options.n, 6)
    for sel in _selectors(options, SPITZER_SELECTORS):
        def thunk(sel=sel):
            run = _Run("spitzer", sel, {"n": n, "seed": options.seed})
            S = _build(sel, options)
            sums = lyndon.spitzer_sums(S, S.sweep_args(n, options.seed))
            run.equal("symmetrized > chains = E-block pre-Lie products",
                      sums["right_chain"], sums["t_sum"])
            run.equal("symmetrized < chains = F-block pre-Lie products",
                      sums["left_chain"], sums["u_sum"])
            return run.report()
        yield thunk


MAGNUS_CAP = 6   # the default truncation degree of the Magnus series


def suite_magnus(options: Options):
    cap = _given(options.cap, MAGNUS_CAP)
    for sel in _selectors(options, STANDARD_SELECTORS):
        def thunk(sel=sel):
            run = _Run("magnus", sel, {"cap": cap, "seed": options.seed})
            S = _build(sel, options)
            a = S.generator(options.seed)
            om = magnus.magnus_omega(S, a, cap)
            l2, l3 = ell(S, a, a), ell(S, a, a, a)
            closed_forms = (
                ("omega_1 = a", a),
                ("omega_2 = ell(2)/2", l2.scale(Fraction(1, 2))),
                ("omega_3 = ell(3)/3 + [ell(1), ell(2)]/12",
                 l3.scale(Fraction(1, 3))
                 + lie_bracket(S, a, l2).scale(Fraction(1, 12))),
            )
            for d, (check, value) in enumerate(closed_forms[:cap], start=1):
                run.equal(check, om.coeff(d), value)
            y = magnus.power_sum_series(S, a, cap)
            run.series_equal("exp of omega = power-sum series",
                             magnus.star_exp(S, om), y)
            run.series_equal("log of power-sum series = omega",
                             magnus.star_log(S, y), om)
            run.true("power-sum series solves its Dynkin differential identity",
                     magnus.dynkin_ode_check(S, a, cap))
            return run.report()
        yield thunk


def suite_pbw(options: Options):
    nmax = _given(options.n, 5)

    def thunk():
        run = _Run("pbw", "words", {"n": nmax})
        for n in range(1, nmax + 1):
            target = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
            for image in itertools.permutations(range(1, n + 1)):
                if not run.equal(
                        f"bracketed E-block expansion rebuilds x1..x{n} "
                        f"for beta={''.join(map(str, image))}",
                        lyndon.pbw_expansion(image), target):
                    return run.report()
        return run.report()

    yield thunk


def suite_census(options: Options):
    nmax = _given(options.n, 8)
    cfl_max = min(nmax, 7)

    def thunk():
        run = _Run("census", "permutations", {"n": nmax, "cfl_n": cfl_max})
        for n in range(1, nmax + 1):
            for comp, count in sorted(lyndon.lyndon_census(n).items()):
                run.true(f"census count for E-block type {comp}",
                         count == lyndon.census_formula(comp),
                         f"{count} != {lyndon.census_formula(comp)}")
        for n in range(1, cfl_max + 1):
            for image in itertools.permutations(range(1, n + 1)):
                ok = (lyndon.cfl_factorize(image)
                      == lyndon.profile(image).e_values)
                if not run.true(
                        f"E-blocks = decreasing-order Lyndon factors, sigma={image}",
                        ok, str(image)):
                    return run.report()
        return run.report()

    yield thunk


def _rb_nested_sums(S: RBStructure, args: list) -> tuple:
    """The two literal operator-nested sums of the corollary.

    First: sum over sigma of R(...R(R(a1)a2)...a_{n-1})a_n, built from the
    backend product and R only.  Second: sum over sigma of
    a1 R(a2 ... R(a_{n-1} R(a_n)) ...).
    """
    @functools.cache
    def nested_first(*idx: int) -> Elem:
        if len(idx) == 1:
            return args[idx[0]]
        return S.carrier_mul(S.R(nested_first(*idx[:-1])), args[idx[-1]])

    @functools.cache
    def nested_second(*idx: int) -> Elem:
        if len(idx) == 1:
            return args[idx[0]]
        return S.carrier_mul(args[idx[0]], S.R(nested_second(*idx[1:])))

    perms = list(itertools.permutations(range(len(args))))
    return (elem_sum(S.sort, (nested_first(*image) for image in perms)),
            elem_sum(S.sort, (nested_second(*image) for image in perms)))


class _Corollary(NamedTuple):
    """Both sides of the Rota-Baxter corollary for one argument list."""

    args: list
    plain: RBStructure
    primed: RBStructure
    nested1: Elem
    nested2: Elem
    t_sum: Elem
    u_sum: Elem


def _rb_corollary(suite: str, selectors: tuple, options: Options, checks):
    """Thunks of one Rota-Baxter corollary suite; checks(run, S, c) is its own.

    The shared part: the structure must be operator-induced, its sweep
    arguments give the nested sums and the plain t_sum and primed u_sum.
    """
    n = _given(options.n, 5)
    for sel in selectors:
        def thunk(sel=sel):
            run = _Run(suite, sel, {"n": n, "seed": options.seed})
            S = _build(sel, options)
            if not isinstance(S, RBStructure):
                run.true("structure is operator-induced", False, S.name)
                return run.report()
            args = S.sweep_args(n, options.seed)
            nested1, nested2 = _rb_nested_sums(S, args)
            plain = S.with_variant("plain")
            primed = S.with_variant("primed")
            checks(run, S, _Corollary(
                args, plain, primed, nested1, nested2,
                lyndon.e_block_sum(plain, args),
                lyndon.f_block_sum(primed, args)))
            return run.report()
        yield thunk


def suite_rb_nested(options: Options):
    def checks(run, S, c):
        run.equal("nested operator chains (first kind) = E-block products",
                  c.nested1, c.t_sum)
        run.equal("nested operator chains (second kind) = primed F-block products",
                  c.nested2, c.u_sum)

    return _rb_corollary("rb-nested", _selectors(options, (), theta_sweep=True),
                         options, checks)


def suite_rb_spitzer(options: Options):
    def checks(run, S, c):
        run.equal("R image of nested chains = R image of E-block products",
                  S.R(c.nested1), S.R(c.t_sum))
        run.equal("R image of nested chains = R image of primed F-block products",
                  S.R(c.nested2), S.R(c.u_sum))
        if _commutative(S):
            run.equal("commutative carrier: both corollary sides coincide",
                      c.t_sum, c.u_sum)
            if len(c.args) >= 2:
                a, b = c.args[0], c.args[1]
                run.equal(
                    "commutative carrier: both operator pre-Lie products agree",
                    prelie_left(c.plain, a, b), prelie_right(c.primed, a, b))

    return _rb_corollary("rb-spitzer", _selectors(options, RB_SPITZER_SELECTORS),
                         options, checks)


def _commutative(S: RBStructure, sample: int = 16) -> bool:
    pairs = _sample_pairs(list(S.basis_keys(1)), sample, random.Random(1))
    return all(S.carrier_mul(S.elem(a), S.elem(b))
               == S.carrier_mul(S.elem(b), S.elem(a)) for a, b in pairs)


def suite_convolution(options: Options):
    nmax = _given(options.n, 5)

    def words_thunk():
        run = _Run("convolution", "words", {"n": nmax})
        for n in range(1, nmax + 1):
            target = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
            run.equal(f"graded Dynkin convolution rebuilds the word, n={n}",
                      hopf.convolution_expansion(n), target)
            run.equal(f"ordered-set-partition expansion rebuilds the word, n={n}",
                      hopf.ordered_partition_expansion(n), target)
        return run.report()

    def max_thunk():
        run = _Run("convolution", "max", {"n": nmax})
        for n in range(1, nmax + 1):
            S = MaxStructure(n, "increasing")
            a = sum((S.elem(Word((i,))) for i in range(2, n + 1)),
                    S.elem(Word((1,))))
            word = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
            run.equal(f"full right power sum of the letter sum is the word, n={n}",
                      w_right(S, a, n), word)
            for i in range(1, n + 1):
                expected = Elem.zero(WORD_SORT)
                for subset in itertools.combinations(range(1, n + 1), i):
                    expected = expected + hopf.dynkin_word(Word(subset))
                run.equal(
                    f"multilinear pre-Lie word = bracketed subsets, n={n}, i={i}",
                    multilinear_part(ell(S, *([a] * i))), expected)
        return run.report()

    yield words_thunk
    yield max_thunk


SUITES = {
    "axioms": (suite_axioms,
               "dendriform axioms on all basis triples up to the degree bound"),
    "prelie-laws": (suite_prelie_laws,
                    "left/right pre-Lie laws and bracket compatibilities on random elements"),
    "dynkin-prelie": (suite_dynkin_prelie,
                      "Dynkin images of power sums are iterated pre-Lie words; quasi-idempotence"),
    "power-sums": (suite_power_sums,
                   "composition expansions rebuild both power sums"),
    "spitzer": (suite_spitzer,
                "symmetrized half-product chains equal block pre-Lie products"),
    "magnus": (suite_magnus,
               "Bernoulli-weighted log of the power-sum series, with exp/log round trips"),
    "pbw": (suite_pbw,
            "bracketed E-block expansions rebuild the increasing word for every relabelling"),
    "census": (suite_census,
               "E-block type counts match the composition formula; E-blocks are Lyndon factors"),
    "rb-nested": (suite_rb_nested,
                  "operator-nested chain sums equal the block products in both variants"),
    "rb-spitzer": (suite_rb_spitzer,
                   "R applied to both corollary sides balances; commutative case collapses"),
    "convolution": (suite_convolution,
                    "word-algebra convolution identities and the multilinear subset expansion"),
}


# suites that need an operator-induced (rb-*) structure
OPERATOR_SUITES = ("rb-nested", "rb-spitzer")


def suite_names() -> list:
    return list(SUITES)


def run_suites(names, options: Options) -> list:
    """Run the named suites and return their reports, deterministically ordered."""
    thunks = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        thunks.extend(SUITES[name][0](options))
    reports = [t() for t in thunks]
    reports.sort(key=lambda rep: (rep.suite, rep.structure,
                                  repr(sorted(rep.params.items(), key=repr))))
    return reports
