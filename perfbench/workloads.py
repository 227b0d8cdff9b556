"""The benchmark's workloads: the CLI requests each one sends, and the pinned
outcome of every report those requests print.

A request is the argument list of one `dendralg verify` process, without
`--seed` and `--format`, which the runner appends.  Every request of a
workload carries the benchmark seed.

The pinned outcome of a report is (suite, structure, params, status, checks).
`axioms` counts are derived here from the dimensions of the graded bases; all
other counts were recorded from the seed commit, where they were the same for
seeds 0, 1 and 7.  Timing fields and any other report fields are not pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, factorial

SEED = "<seed>"  # stands for the benchmark seed in pinned params


@dataclass(frozen=True)
class Pinned:
    suite: str
    structure: str
    params: dict
    checks: int
    status: str = "pass"

    def fields(self, seed: int) -> tuple:
        params = {k: (seed if v == SEED else v) for k, v in self.params.items()}
        return (self.suite, self.structure, params, self.status, self.checks)


@dataclass(frozen=True)
class Request:
    args: tuple
    reports: tuple  # of Pinned

    def argv(self, seed: int) -> list:
        return ["verify", *self.args, "--seed", str(seed), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple
    selectors: tuple  # every structure the requests build, for setup_s


# -- axiom counts, derived independently of the code under test ------------

DIMENSIONS = {
    "words": lambda d: 3 ** d,                          # alphabet of 3 letters
    "perms": factorial,                                 # S_d
    "trees": lambda d: comb(2 * d, d) // (d + 1),       # Catalan(d)
}


def axiom_checks(basis: str, degree: int) -> int:
    """3 checks per basis triple of total degree <= degree."""
    dim = DIMENSIONS[basis]
    triples = sum(dim(a) * dim(b) * dim(c)
                  for a, b, c in product(range(1, degree + 1), repeat=3)
                  if a + b + c <= degree)
    return 3 * triples


def _axioms(structure: str, basis: str, degree: int) -> Request:
    return Request(
        ("--suite", "axioms", "--structure", structure, "--degree", str(degree)),
        (Pinned("axioms", structure, {"degree": degree},
                axiom_checks(basis, degree)),))


def _one(args: tuple, suite: str, structure: str, params: dict,
         checks: int) -> Request:
    return Request(args, (Pinned(suite, structure, params, checks),))


def _per_structure(args: tuple, suite: str, params: dict, table: dict) -> Request:
    return Request(args, tuple(Pinned(suite, sel, params, checks)
                               for sel, checks in table.items()))


RB_SWEEP = ("rb-seqmat:theta=-1,k=2,N=4", "rb-seqmat:theta=0,k=2,N=4",
            "rb-seqmat:theta=1,k=2,N=4", "rb-seqmat:theta=2/3,k=2,N=4",
            "rb-polymat:k=2")
STANDARD = ("shuffle", "max", "max-rev", "mr", "free",
            "rb-seqmat:theta=1,k=2,N=4", "rb-polymat:k=2")
AXIOM_DEFAULT = ("shuffle", "max", "max-rev", "mr", "free") + RB_SWEEP

# self_test loops over every key triple and filters by degree afterwards:
# millions of tiny elements and hash calls, no large ones.
AXIOM_SWEEP = Workload(
    "axiom-sweep",
    (
        _axioms("shuffle", "words", 4),
        _axioms("max", "words", 4),
        _axioms("max-rev", "words", 4),
        _axioms("mr", "perms", 5),
        _axioms("free", "trees", 5),
    ),
    ("shuffle", "max", "max-rev", "mr", "free"),
)

# Elements of thousands of terms: Elem rebuilds in the half-products,
# pre-Lie words, Spitzer sums and the Magnus series.  free runs at degree 2
# and rb-polymat at n = 5 because their random inputs make the cost of
# degree 3 and n = 6 vary by 2x from seed to seed.
LARGE_ELEMENTS = Workload(
    "large-elements",
    (
        _one(("--suite", "prelie-laws", "--structure", "mr", "--degree", "2"),
             "prelie-laws", "mr", {"degree": 2, "seed": SEED, "trials": 3}, 15),
        _one(("--suite", "prelie-laws", "--structure", "free", "--degree", "2"),
             "prelie-laws", "free", {"degree": 2, "seed": SEED, "trials": 3}, 15),
        _one(("--suite", "magnus", "--structure", "mr", "--cap", "6"),
             "magnus", "mr", {"cap": 6, "seed": SEED}, 6),
        _one(("--suite", "spitzer", "--structure", "mr", "--n", "5"),
             "spitzer", "mr", {"n": 5, "seed": SEED}, 2),
        _one(("--suite", "spitzer", "--structure", "rb-polymat:k=2", "--n", "5"),
             "spitzer", "rb-polymat:k=2", {"n": 5, "seed": SEED}, 2),
    ),
    ("mr", "free", "rb-polymat:k=2"),
)

# Every suite but axioms on its default structures: per-report fixed costs
# (start, import, a structure rebuild per report, JSON), the structure-free
# lyndon/hopf combinatorics and the operator carriers.  prelie-laws runs at
# degree 1 and the operator suites at n = 4 so that their seeded random
# elements, whose cost varies from seed to seed, do not dominate.
CATALOGUE = Workload(
    "catalogue",
    (
        _per_structure(("--suite", "prelie-laws", "--degree", "1"), "prelie-laws",
                       {"degree": 1, "seed": SEED, "trials": 3},
                       dict.fromkeys(AXIOM_DEFAULT, 15)),
        Request(("--suite", "dynkin-prelie"),
                (Pinned("dynkin-prelie", "words", {"n": 5}, 10),)
                + tuple(Pinned("dynkin-prelie", sel, {"n": 5, "seed": SEED}, 5)
                        for sel in STANDARD)),
        _per_structure(("--suite", "power-sums", "--n", "4"), "power-sums",
                       {"n": 4, "seed": SEED}, dict.fromkeys(STANDARD, 8)),
        _per_structure(("--suite", "spitzer", "--n", "4"), "spitzer",
                       {"n": 4, "seed": SEED},
                       dict.fromkeys(("shuffle", "max", "mr",
                                      "rb-seqmat:theta=1,k=2,N=4",
                                      "rb-polymat:k=2"), 2)),
        _per_structure(("--suite", "magnus", "--cap", "4"), "magnus",
                       {"cap": 4, "seed": SEED}, dict.fromkeys(STANDARD, 6)),
        _one(("--suite", "pbw"), "pbw", "words", {"n": 5}, 153),
        _one(("--suite", "census"), "census", "permutations",
             {"cfl_n": 7, "n": 8}, 6168),
        _per_structure(("--suite", "rb-nested", "--n", "4"), "rb-nested",
                       {"n": 4, "seed": SEED}, dict.fromkeys(RB_SWEEP, 2)),
        _per_structure(("--suite", "rb-spitzer", "--n", "4"), "rb-spitzer",
                       {"n": 4, "seed": SEED},
                       dict.fromkeys(("rb-seqmat:theta=1,k=1,N=5",
                                      "rb-polymat:k=1"), 4)),
        Request(("--suite", "convolution"),
                (Pinned("convolution", "words", {"n": 5}, 10),
                 Pinned("convolution", "max", {"n": 5}, 20))),
    ),
    AXIOM_DEFAULT + ("rb-seqmat:theta=1,k=1,N=5", "rb-polymat:k=1"),
)

WORKLOADS = {w.name: w for w in (AXIOM_SWEEP, LARGE_ELEMENTS, CATALOGUE)}
