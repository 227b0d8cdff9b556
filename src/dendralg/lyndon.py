"""Permutation statistics, Lyndon factorization, and symmetrized identities.

A permutation breaks into blocks in two dual ways.  Its E-blocks start at
each strict left-to-right maximum (`_e_starts`, the one cut rule here).  Its
F-blocks end just after each value that undercuts the whole remaining tail:
they are the E-blocks of the omega-conjugate, omega(sigma)(i) = n+1 -
sigma(n+1-i), read back, which is how `profile` finds them.  Feeding the
E-block values into iterated left pre-Lie products and multiplying gives
T(sigma); the F-blocks with iterated right pre-Lie products give U(sigma).
Summed over the symmetric group these match the symmetrized dendriform
half-products: the noncommutative Bohnenblust-Spitzer identity.  By
bilinearity each such sum is a recursion over subsets of the argument
indices (`_chains`; `t` in `e_block_sum` peels the last E-block), memoized
on index bitmasks within one call: O(3^n) products where the orders number
n!.  The left identity is the right one in the opposite structure,
U(sigma; S, a) = (-1)^(n-1) T(omega(sigma); opposite(S), reversed a), so
only the right sums recurse.  `t_sigma` and `u_sigma` build one
permutation's products literally.

The E-blocks are also the Chen-Fox-Lyndon factorization of the permutation
word for the decreasing letter order, computed independently by Duval's
algorithm.  Relabelling through a second permutation beta carves out the
subsets of the symmetric group whose bracketed E-blocks rebuild the
increasing word x1...xn, a Poincare-Birkhoff-Witt style expansion; counting
permutations by E-block type recovers the composition denominators
i1(i1+i2)...(i1+...+ik).  The census and the expansion read their blocks
off `_e_starts`; only `lyn_set` scans for maxima itself, fused with its
filter so that it leaves a permutation at the first block that fails.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import NamedTuple

from . import _lazy
from .dendriform import DendriformStructure, ell, opposite, prelie_left, r
from .errors import EmptyArgumentList, EmptyWord
from .ncalg import Elem, Perm, _accumulate, _words, elem_sum

# executed on first use, so the Spitzer sums never compile it
hopf = _lazy("hopf")

__all__ = [
    "Profile", "profile", "omega_conjugate", "t_sigma", "u_sigma",
    "spitzer_sums", "chain_sum", "right_chain_sum", "e_block_sum",
    "f_block_sum", "is_lyndon", "cfl_factorize", "lyn_set",
    "pbw_expansion", "lyndon_census", "census_formula",
]


def _e_starts(image) -> list:
    """The 0-based positions of the strict running maxima of image: where
    its E-blocks start (position 0 first, unless image is empty)."""
    starts, best = [], 0
    for k, v in enumerate(image):
        if v > best:
            starts.append(k)
            best = v
    return starts


def _cut(seq, bounds: list) -> tuple:
    """The slices of seq between successive bounds, as tuples."""
    return tuple(tuple(seq[a:b]) for a, b in itertools.pairwise(bounds))


def _e_values(image) -> tuple:
    """The values of image's E-blocks, in reading order."""
    return _cut(image, _e_starts(image) + [len(image)])


class Profile(NamedTuple):
    """The E/F cut data of one permutation.

    e_set holds the positions k where position k+1 carries a new
    left-to-right maximum; f_set the positions whose value undercuts the
    entire remaining tail.  Blocks cut the positions after those markers, and
    the composition records the E-block lengths in reading order.
    """

    sigma: Perm
    e_set: tuple
    f_set: tuple
    e_blocks: tuple
    f_blocks: tuple
    e_values: tuple
    f_values: tuple
    composition: tuple


def profile(sigma) -> Profile:
    if not isinstance(sigma, Perm):
        sigma = Perm(sigma)
    if not sigma:
        raise EmptyWord("statistics need a nonempty permutation")
    n = len(sigma)
    e_bounds = _e_starts(sigma) + [n]
    # an E-block of omega(sigma) starting at k ends at n - k once read back
    omega_starts = _e_starts(omega_conjugate(sigma))
    f_bounds = [0] + [n - k for k in reversed(omega_starts)]
    e_blocks = _cut(range(1, n + 1), e_bounds)
    return Profile(sigma, tuple(e_bounds[1:-1]), tuple(f_bounds[1:-1]),
                   e_blocks, _cut(range(1, n + 1), f_bounds),
                   _cut(sigma, e_bounds), _cut(sigma, f_bounds),
                   tuple(map(len, e_blocks)))


def omega_conjugate(sigma) -> Perm:
    """Conjugation by the order-reversing involution: i -> n+1 - sigma(n+1-i)."""
    if not isinstance(sigma, Perm):
        sigma = Perm(sigma)
    n = sigma.n
    return Perm._trusted(n + 1 - v for v in reversed(sigma))


def _block_product(S: DendriformStructure, sigma, args, values: str,
                   word) -> Elem:
    """The star product, over the blocks of the profile field `values`, of
    word(S, *the arguments that the block's values index)."""
    p = sigma if isinstance(sigma, Profile) else profile(sigma)
    args = list(args)
    if len(args) != p.sigma.n:
        raise EmptyArgumentList(f"need {p.sigma.n} arguments, got {len(args)}")
    acc = S.unit()
    for vals in getattr(p, values):
        acc = S.star(acc, word(S, *(args[v - 1] for v in vals)))
    return acc


def t_sigma(S: DendriformStructure, sigma, args) -> Elem:
    """Product over E-blocks of the iterated left pre-Lie word on the block values."""
    return _block_product(S, sigma, args, "e_values", ell)


def u_sigma(S: DendriformStructure, sigma, args) -> Elem:
    """Product over F-blocks of the iterated right pre-Lie word on the block values."""
    return _block_product(S, sigma, args, "f_values", r)


def _chains(args: list, op):
    """The chain sums of op over the arguments, memoized within the call.

    chain(m, rest) sums op(...op(op(a_m, a_j1), a_j2)..., a_jk) over the
    orders j1..jk of the index bitmask rest: by bilinearity, chain(m, rest)
    = sum over j in rest of op(chain(m, rest - j), a_j), and chain(m, 0) =
    a_m.  This takes n 2^(n-1) memo entries where the orders number n!.
    """
    @functools.cache
    def chain(m: int, rest: int) -> Elem:
        if not rest:
            return args[m]
        return elem_sum(args[m].sort, (
            op(chain(m, rest & ~(1 << j)), args[j])
            for j in range(len(args)) if rest >> j & 1))

    return chain


def chain_sum(args, op) -> Elem:
    """Sum over the symmetric group of op(...op(op(a_s1, a_s2), a_s3)...,
    a_sn): the sum over the first index m of chain(m, every other index)."""
    args = list(args)
    if not args:
        raise EmptyArgumentList("the symmetrized identities need arguments")
    chain, full = _chains(args, op), (1 << len(args)) - 1
    return elem_sum(args[0].sort,
                    (chain(m, full & ~(1 << m)) for m in range(len(args))))


def right_chain_sum(S: DendriformStructure, args) -> Elem:
    """Sum over the symmetric group of the left-nested > chains
    (...(a_s1 > a_s2) > ...) > a_sn."""
    return chain_sum(args, S.right)


def e_block_sum(S: DendriformStructure, args) -> Elem:
    """Sum of T(sigma), the E-block pre-Lie products, over the symmetric group.

    The last E-block starts at the largest index top of the indices s in
    play, and any subset b of the others may follow it in any order:
    t(s) = sum over b in s - top of t(s - top - b) * ell(top, b), with t(0)
    = 1 and ell(top, b) the chain sum of the left pre-Lie product.  So t
    takes O(3^n) star products, memoized within the call.
    """
    args = list(args)
    if not args:
        raise EmptyArgumentList("the symmetrized identities need arguments")
    ell_at = _chains(args, functools.partial(prelie_left, S))
    unit = S.unit()

    @functools.cache
    def t(s: int) -> Elem:
        if not s:
            return unit
        top = s.bit_length() - 1
        low = s & ~(1 << top)
        parts, b = [], low
        while True:
            parts.append(S.star(t(low & ~b), ell_at(top, b)))
            if not b:
                return elem_sum(S.sort, parts)
            b = (b - 1) & low

    return t((1 << len(args)) - 1)


def _dual(right_sum, S: DendriformStructure, args) -> Elem:
    """(-1)^(n-1) right_sum(opposite(S), reversed args): as a >' b =
    -(b < a) in the opposite, the left form of right_sum on S."""
    args = list(args)
    out = right_sum(opposite(S), args[::-1])
    return out if len(args) % 2 else -out


def f_block_sum(S: DendriformStructure, args) -> Elem:
    """Sum of U(sigma), the F-block pre-Lie products, over the symmetric
    group: the E-block sum of the opposite structure, by duality."""
    return _dual(e_block_sum, S, args)


def spitzer_sums(S: DendriformStructure, args) -> dict:
    """The four symmetric-group sums of the Bohnenblust-Spitzer identities.

    right_chain and t_sum are subset recursions on S; left_chain and u_sum
    are the same two recursions on the opposite structure.  Each recursion
    memoizes only within its own call.
    """
    args = list(args)
    return {
        "right_chain": right_chain_sum(S, args),
        "t_sum": e_block_sum(S, args),
        "left_chain": _dual(right_chain_sum, S, args),
        "u_sum": f_block_sum(S, args),
    }


# ---------------------------------------------------------------------------
# Lyndon words and the factorization view of the E-blocks
# ---------------------------------------------------------------------------

def is_lyndon(seq) -> bool:
    """Strictly smaller than all of its proper suffixes, where the larger
    letter ranks first (the decreasing letter order)."""
    ranked = tuple(-v for v in seq)
    return bool(ranked) and all(ranked < ranked[i:]
                                for i in range(1, len(ranked)))


def cfl_factorize(seq) -> tuple:
    """Duval's factorization into a nonincreasing product of Lyndon factors,
    for the decreasing letter order of `is_lyndon`.

    The factors of a permutation word are exactly its E-blocks.
    """
    seq = tuple(seq)
    n = len(seq)
    out = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and seq[i] >= seq[j]:
            i = i + 1 if seq[i] == seq[j] else k
            j += 1
        while k <= i:
            out.append(seq[k:k + j - i])
            k += j - i
    return tuple(out)


# ---------------------------------------------------------------------------
# bracketed expansions of the increasing word
# ---------------------------------------------------------------------------

def lyn_set(beta) -> list:
    """Permutations whose E-block values become increasing after relabelling.

    sigma qualifies when beta(sigma(.)) increases along every E-block of
    sigma.  The identity relabelling admits only the identity permutation;
    the order-reversing relabelling admits one permutation per set partition
    of the index set (Bell-many), the blocks being the E-block value sets.
    """
    if not isinstance(beta, Perm):
        beta = Perm(beta)
    out = []
    # the scan of `_e_starts`, fused with the filter: most images fail at
    # their first blocks, and a filter over `_e_values` took about ten
    # times as long over every beta with n <= 5
    for image in itertools.permutations(range(1, beta.n + 1)):
        best = last = 0
        for v in image:
            if v > best:        # a running maximum starts a new E-block
                best = v
            elif beta[v - 1] <= last:
                break
            last = beta[v - 1]
        else:
            out.append(Perm._trusted(image))
    return out


def pbw_expansion(beta) -> Elem:
    """Sum over the admitted permutations of the bracketed E-block words.

    Each E-block contributes the left-to-right Dynkin bracketing of its
    relabelled (increasing) values; blocks multiply by concatenation in
    reading order, expanded from the bracket terms into one sum.  For every
    relabelling beta the total collapses to the single increasing word x1...xn.
    """
    if not isinstance(beta, Perm):
        beta = Perm(beta)
    data: dict = {}
    for sigma in lyn_set(beta):
        _accumulate(data, hopf._bracket_product(
            tuple(beta[v - 1] for v in vals) for vals in _e_values(sigma)))
    return _words(data)


def lyndon_census(n: int) -> dict:
    """Count the permutations of 1..n by their E-block length composition.

    The count runs over the tuples of E-block starts; each of them then
    gives its composition, the gaps between successive starts and n, once.
    """
    by_starts = collections.Counter(
        tuple(_e_starts(image))
        for image in itertools.permutations(range(1, n + 1)))
    return {tuple(b - a for a, b in itertools.pairwise((*starts, n))): count
            for starts, count in by_starts.items()}


def census_formula(comp: tuple) -> int:
    """Predicted census count: n! over i1(i1+i2)...(i1+...+ik)."""
    n = sum(comp)
    denom = hopf.comp_denominator(comp)
    count, rem = divmod(math.factorial(n), denom)
    if rem:
        raise ValueError(f"composition denominator does not divide {n}!: {comp}")
    return count
