"""Verification suites: every identity in the library, run as a batch.

Each suite produces one report per structure (or per combinatorial carrier
for the structure-free suites).  A report either passes with a count of
verified equalities or fails carrying the first counterexample, rendered
with both sides and their difference.  All arithmetic is exact, so there are
no tolerances anywhere: a suite passes only on equality on the nose.

A suite is its check body plus one call to `_reports`.  Every report is
made by `_report`: it opens a `_Run`, which starts the clock, builds the
report's structure once if it has one, runs the body and closes the run.

Random elements are drawn from a PRNG seeded through the options, so two
runs with the same seed compare byte-for-byte (timings aside).
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import _lazy
from .dendriform import (
    ell, lie_bracket, prelie_left, prelie_right, w_left, w_right,
)
from .errors import AxiomCheckFailure
from .ncalg import Elem, Series, Word, WORD_SORT, elem_sum, multilinear_part
from .structures import (
    MaxStructure, RBStructure, STANDARD_SELECTORS, _sample_pairs,
    from_selector, random_element,
)

# executed on first use, so an axioms run never compiles them
hopf, lyndon, magnus = _lazy("hopf"), _lazy("lyndon"), _lazy("magnus")

__all__ = ["SuiteReport", "Options", "SUITES", "OPERATOR_SUITES", "run_suites",
           "suite_names"]

RB_THETAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3))
_SEQMAT = STANDARD_SELECTORS[5]


class SuiteReport(NamedTuple):
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
        """The fields, params sorted; a counterexample only if present."""
        out = self._asdict()
        out["params"] = dict(sorted(self.params.items()))
        if self.counterexample is None:
            del out["counterexample"]
        return out


class Options(NamedTuple):
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


def _reports(suite: str, options: Options, params: dict | None = None,
             selectors: tuple = (), body=None, free: tuple = ()):
    """One zero-argument report maker per report of a suite, in order.

    First one per (label, params, check) of free, which runs check(run);
    then one per selector, which runs body(run, S) on its structure S.
    """
    for label, free_params, check in free:
        yield functools.partial(_report, suite, label, free_params, check)
    for sel in selectors:
        yield functools.partial(_report, suite, sel, params, body, sel,
                                options.theta)


def _report(suite: str, label: str, params: dict, check,
            selector: str | None = None, theta=None) -> SuiteReport:
    """Open one report, build its structure if it has one, check, close."""
    run = _Run(suite, label, params)
    if selector is None:
        check(run)
    else:
        check(run, from_selector(selector, theta=theta))
    return run.report()


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

GRADED_SELECTORS = ("shuffle", "max", "max-rev", "mr", "free")


def suite_axioms(options: Options):
    degree = _given(options.degree, 5)

    def body(run, S):
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

    return _reports("axioms", options, {"degree": degree},
                    _selectors(options, GRADED_SELECTORS, theta_sweep=True), body)


def suite_prelie_laws(options: Options):
    degree = _given(options.degree, 3)
    trials = 3

    def body(run, S):
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

    return _reports("prelie-laws", options,
                    {"degree": degree, "seed": options.seed, "trials": trials},
                    _selectors(options, GRADED_SELECTORS, theta_sweep=True), body)


def suite_dynkin_prelie(options: Options):
    nmax = _given(options.n, 5)

    def words(run):
        for n in range(1, nmax + 1):
            w = Word(tuple(range(1, n + 1)))
            d = hopf.dynkin_word(w)
            run.equal(f"word Dynkin quasi-idempotence, degree {n}",
                      hopf.dynkin_word(d), d.scale(n))
            dn = hopf.comp_dynkin(n)
            run.equal(f"composition Dynkin quasi-idempotence, degree {n}",
                      hopf.comp_dynkin_apply(dn), dn.scale(n))

    def body(run, S):
        a = S.generator(options.seed)
        for n in range(1, nmax + 1):
            run.equal(f"Dynkin image of the power sum = iterated pre-Lie word, n={n}",
                      hopf.dynkin_w(S, a, n), ell(S, *([a] * n)))

    return _reports("dynkin-prelie", options, {"n": nmax, "seed": options.seed},
                    _selectors(options, STANDARD_SELECTORS), body,
                    free=(("words", {"n": nmax}, words),))


def suite_power_sums(options: Options):
    nmax = _given(options.n, 6)

    def body(run, S):
        a = S.generator(options.seed)
        for n in range(1, nmax + 1):
            run.equal(f"right power sum from compositions, n={n}",
                      hopf.w_right_from_compositions(S, a, n),
                      w_right(S, a, n))
            run.equal(f"left power sum from compositions, n={n}",
                      hopf.w_left_from_compositions(S, a, n),
                      w_left(S, a, n))

    return _reports("power-sums", options, {"n": nmax, "seed": options.seed},
                    _selectors(options, STANDARD_SELECTORS), body)


SPITZER_SELECTORS = ("shuffle", "max", "mr",
                     "rb-seqmat:theta=1,k=2,N=4", "rb-polymat:k=2")
# a commutative carrier at k = 1, whatever the --theta weight
RB_SPITZER_SELECTORS = ("rb-seqmat:theta=1,k=1,N=5", "rb-polymat:k=1")


def suite_spitzer(options: Options):
    n = _given(options.n, 6)

    def body(run, S):
        sums = lyndon.spitzer_sums(S, S.sweep_args(n, options.seed))
        run.equal("symmetrized > chains = E-block pre-Lie products",
                  sums["right_chain"], sums["t_sum"])
        run.equal("symmetrized < chains = F-block pre-Lie products",
                  sums["left_chain"], sums["u_sum"])

    return _reports("spitzer", options, {"n": n, "seed": options.seed},
                    _selectors(options, SPITZER_SELECTORS), body)


MAGNUS_CAP = 6   # the default truncation degree of the Magnus series


def suite_magnus(options: Options):
    cap = _given(options.cap, MAGNUS_CAP)

    def body(run, S):
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

    return _reports("magnus", options, {"cap": cap, "seed": options.seed},
                    _selectors(options, STANDARD_SELECTORS), body)


def suite_pbw(options: Options):
    nmax = _given(options.n, 5)

    def words(run):
        for n in range(1, nmax + 1):
            target = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
            for image in itertools.permutations(range(1, n + 1)):
                if not run.equal(
                        f"bracketed E-block expansion rebuilds x1..x{n} "
                        f"for beta={''.join(map(str, image))}",
                        lyndon.pbw_expansion(image), target):
                    return

    return _reports("pbw", options, free=(("words", {"n": nmax}, words),))


def suite_census(options: Options):
    nmax = _given(options.n, 8)
    cfl_max = min(nmax, 7)

    def permutations(run):
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
                    return

    return _reports("census", options, free=(
        ("permutations", {"n": nmax, "cfl_n": cfl_max}, permutations),))


def _rb_nested_sums(S: RBStructure, args: list) -> tuple:
    """The two literal operator-nested sums of the corollary.

    First: sum over sigma of R(...R(R(a1)a2)...a_{n-1})a_n, built from the
    backend product and R only.  Second: sum over sigma of
    a1 R(a2 ... R(a_{n-1} R(a_n)) ...), the swapped fold read backwards;
    summed over sigma, each fold is taken over the permutation it is read
    from.
    """
    return (lyndon.chain_sum(args, lambda acc, a: S.carrier_mul(S.R(acc), a)),
            lyndon.chain_sum(args, lambda acc, a: S.carrier_mul(a, S.R(acc))))


def _rb_corollary(run: _Run, S, n: int, seed: int) -> tuple | None:
    """The sides of the Rota-Baxter corollary both RB suites compare.

    Returns (args, nested1, nested2, t_sum, u_sum): S's n sweep arguments,
    their two nested sums, the E-block sum of the plain variant and the
    F-block sum of the primed one.  None, after failing a check on run,
    when S is not operator-induced.
    """
    if not isinstance(S, RBStructure):
        run.true("structure is operator-induced", False, S.name)
        return None
    args = S.sweep_args(n, seed)
    nested1, nested2 = _rb_nested_sums(S, args)
    return (args, nested1, nested2,
            lyndon.e_block_sum(S.with_variant("plain"), args),
            lyndon.f_block_sum(S.with_variant("primed"), args))


def suite_rb_nested(options: Options):
    n = _given(options.n, 5)

    def body(run, S):
        sides = _rb_corollary(run, S, n, options.seed)
        if sides is None:
            return
        _, nested1, nested2, t_sum, u_sum = sides
        run.equal("nested operator chains (first kind) = E-block products",
                  nested1, t_sum)
        run.equal("nested operator chains (second kind) = primed F-block products",
                  nested2, u_sum)

    return _reports("rb-nested", options, {"n": n, "seed": options.seed},
                    _selectors(options, (), theta_sweep=True), body)


def suite_rb_spitzer(options: Options):
    n = _given(options.n, 5)

    def body(run, S):
        sides = _rb_corollary(run, S, n, options.seed)
        if sides is None:
            return
        args, nested1, nested2, t_sum, u_sum = sides
        run.equal("R image of nested chains = R image of E-block products",
                  S.R(nested1), S.R(t_sum))
        run.equal("R image of nested chains = R image of primed F-block products",
                  S.R(nested2), S.R(u_sum))
        if _commutative(S):
            run.equal("commutative carrier: both corollary sides coincide",
                      t_sum, u_sum)
            if len(args) >= 2:
                a, b = args[0], args[1]
                run.equal(
                    "commutative carrier: both operator pre-Lie products agree",
                    prelie_left(S.with_variant("plain"), a, b),
                    prelie_right(S.with_variant("primed"), a, b))

    return _reports("rb-spitzer", options, {"n": n, "seed": options.seed},
                    _selectors(options, RB_SPITZER_SELECTORS), body)


def _commutative(S: RBStructure, sample: int = 16) -> bool:
    pairs = _sample_pairs(list(S.basis_keys(1)), sample, random.Random(1))
    return all(S.carrier_mul(S.elem(a), S.elem(b))
               == S.carrier_mul(S.elem(b), S.elem(a)) for a, b in pairs)


def suite_convolution(options: Options):
    nmax = _given(options.n, 5)

    def words(run):
        for n in range(1, nmax + 1):
            target = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
            run.equal(f"graded Dynkin convolution rebuilds the word, n={n}",
                      hopf.convolution_expansion(n), target)
            run.equal(f"ordered-set-partition expansion rebuilds the word, n={n}",
                      hopf.ordered_partition_expansion(n), target)

    def max_words(run):
        for n in range(1, nmax + 1):
            S = MaxStructure(n, "increasing")
            a = sum((S.elem(Word((i,))) for i in range(2, n + 1)),
                    S.elem(Word((1,))))
            word = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
            run.equal(f"full right power sum of the letter sum is the word, n={n}",
                      w_right(S, a, n), word)
            for i in range(1, n + 1):
                expected = elem_sum(WORD_SORT, (
                    hopf.dynkin_word(Word(subset))
                    for subset in itertools.combinations(range(1, n + 1), i)))
                run.equal(
                    f"multilinear pre-Lie word = bracketed subsets, n={n}, i={i}",
                    multilinear_part(ell(S, *([a] * i))), expected)

    return _reports("convolution", options, free=(
        ("words", {"n": nmax}, words), ("max", {"n": nmax}, max_words)))


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
