"""Layer probes: fixed, seeded, in-process calls into one layer each.

    python3 perfbench/probes.py NAME SEED

runs one probe in this (fresh) process and prints {"s": seconds, "ok": bool,
"detail": ...} as JSON.  The inputs are built before the clock starts; the
result is checked after it stops.  Module caches are cold except for what
building the inputs fills.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from time import perf_counter

from dendralg import (
    Elem, Perm, Word, from_selector, magnus_omega, prelie_left,
    random_element, spitzer_sums,
)
from dendralg.ncalg import WORD_SORT
from dendralg.structures import (
    FreeStructure, MaxStructure, MRStructure, ShuffleStructure,
    rb_polymat_structure, rb_seqmat_structure,
)


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def elem_add_10k(seed):
    """Median of 5 additions of two 10k-term word elements."""
    rng = random.Random(seed)

    def elem():
        keys = {Word(rng.choices((1, 2, 3, 4), k=12)) for _ in range(10_000)}
        while len(keys) < 10_000:
            keys.add(Word(rng.choices((1, 2, 3, 4), k=12)))
        return Elem(WORD_SORT, [(k, rng.randint(1, 9)) for k in keys])

    a, b = elem(), elem()
    times = []
    for _ in range(5):
        dt, out = _timed(lambda: a + b)
        times.append(dt)
    return statistics.median(times), len(out) >= 10_000, len(out)


# Structures built without their construction-time self-test, so that the
# half-product probes start from cold caches.
BARE = {
    "shuffle": lambda: ShuffleStructure(3),
    "max": lambda: MaxStructure(3),
    "max-rev": lambda: MaxStructure(3, "decreasing"),
    "mr": MRStructure,
    "free": FreeStructure,
    "rb-seqmat": lambda: rb_seqmat_structure(1, 2, 4, check=False),
    "rb-polymat": lambda: rb_polymat_structure(2, check=False),
}


def half(name):
    """Both basis half-products on every ordered pair of keys up to degree 3."""
    S = BARE[name]()
    keys = list(S.basis_keys(3))

    def table():
        return sum(len(S.basis_left(a, b)) + len(S.basis_right(a, b))
                   for a in keys for b in keys)

    dt, terms = _timed(table)
    return dt, terms > 0, terms


def prelie_triple_mr(seed):
    """prelie_left(prelie_left(a, b), c) on mr, seed-0 degree-3 elements."""
    S = from_selector("mr")
    rng = random.Random(0)
    a, b, c = (random_element(S, rng, max_degree=3, nterms=3) for _ in range(3))
    dt, out = _timed(lambda: prelie_left(S, prelie_left(S, a, b), c))
    return dt, len(out) == 12469, len(out)


def self_test4_shuffle(seed):
    S = from_selector("shuffle")
    dt, triples = _timed(lambda: S.self_test(4))
    return dt, triples == 270, triples


def spitzer6_shuffle(seed):
    S = from_selector("shuffle")
    args = [S.elem(Word((i,))) for i in range(1, 7)]
    dt, sums = _timed(lambda: spitzer_sums(S, args))
    ok = (sums["right_chain"] == sums["t_sum"]
          and sums["left_chain"] == sums["u_sum"])
    return dt, ok, len(sums["t_sum"])


def magnus6_mr(seed):
    S = from_selector("mr")
    a = S.elem(Perm((1,)))
    dt, omega = _timed(lambda: magnus_omega(S, a, 6))
    return dt, omega.coeff(1) == a, len(omega.coeff(6))


PROBES = {
    "elem_add_10k": elem_add_10k,
    **{f"half.{name}": (lambda seed, name=name: half(name)) for name in BARE},
    "prelie_triple_mr": prelie_triple_mr,
    "self_test4_shuffle": self_test4_shuffle,
    "spitzer6_shuffle": spitzer6_shuffle,
    "magnus6_mr": magnus6_mr,
}


if __name__ == "__main__":
    seconds, ok, detail = PROBES[sys.argv[1]](int(sys.argv[2]))
    print(json.dumps({"s": seconds, "ok": ok, "detail": detail}))
