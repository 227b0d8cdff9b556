"""Permutation statistics, Lyndon factorization, and symmetrized identities.

A permutation breaks into blocks in two dual ways.  Cutting just before each
new left-to-right maximum gives the E-blocks; cutting just after each
new-from-the-right minimum gives the F-blocks.  Feeding the E-block values
into iterated left pre-Lie products and multiplying gives T(sigma); the
F-blocks with iterated right pre-Lie products give U(sigma).  Summed over the
symmetric group these match the symmetrized dendriform half-products: the
noncommutative Bohnenblust-Spitzer identity.  By bilinearity each such sum
is a recursion over subsets of the argument indices (`_chains`; `t` in
`e_block_sum` peels the last E-block), memoized on index bitmasks within
one call: O(3^n) products where the orders number n!.  The left identity
is the right one in the opposite structure, U(sigma; S, a) = (-1)^(n-1)
T(omega(sigma); opposite(S), reversed a), so only the right sums recurse.
`t_sigma` and `u_sigma` build one permutation's products literally.

The E-blocks are also the Chen-Fox-Lyndon factorization of the permutation
word for the decreasing letter order, computed independently by Duval's
algorithm.  Relabelling through a second permutation beta carves out the
subsets of the symmetric group whose bracketed E-blocks rebuild the
increasing word x1...xn, a Poincare-Birkhoff-Witt style expansion; counting
permutations by E-block type recovers the composition denominators
i1(i1+i2)...(i1+...+ik).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .dendriform import DendriformStructure, ell, opposite, prelie_left, r
from .errors import EmptyArgumentList, EmptyWord
from .hopf import _bracket_product, comp_denominator
from .ncalg import Elem, Perm, _accumulate, _words, elem_sum

__all__ = [
    "Profile", "profile", "omega_conjugate", "t_sigma", "u_sigma",
    "spitzer_sums", "chain_sum", "right_chain_sum", "e_block_sum",
    "left_chain_sum", "f_block_sum", "bohnenblust_spitzer_check", "is_lyndon",
    "cfl_factorize", "lyn_set", "pbw_expansion", "lyndon_census",
    "census_formula",
]


def _e_cuts(image: tuple) -> tuple:
    """Positions k (1-based) with image[k] a strict running maximum so far."""
    out = []
    best = image[0]
    for k in range(1, len(image)):
        if image[k] > best:
            out.append(k)
            best = image[k]
    return tuple(out)


def _f_cuts(image: tuple) -> tuple:
    """Positions l (1-based) with image[l-1] below the whole tail minimum."""
    n = len(image)
    out = []
    tail_min = None
    for l in range(n - 1, 0, -1):
        tail_min = image[l] if tail_min is None else min(tail_min, image[l])
        if image[l - 1] < tail_min:
            out.append(l)
    return tuple(reversed(out))


def _blocks(n: int, cuts: tuple) -> tuple:
    """Consecutive 1-based position blocks obtained by cutting after `cuts`."""
    out, start = [], 1
    for c in cuts:
        out.append(tuple(range(start, c + 1)))
        start = c + 1
    out.append(tuple(range(start, n + 1)))
    return tuple(out)


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
    e_set, f_set = _e_cuts(sigma), _f_cuts(sigma)
    e_blocks, f_blocks = _blocks(n, e_set), _blocks(n, f_set)
    values = lambda blocks: tuple(tuple(sigma[p - 1] for p in b) for b in blocks)
    return Profile(sigma, e_set, f_set, e_blocks, f_blocks,
                   values(e_blocks), values(f_blocks),
                   tuple(len(b) for b in e_blocks))


def omega_conjugate(sigma) -> Perm:
    """Conjugation by the order-reversing involution: i -> n+1 - sigma(n+1-i)."""
    if not isinstance(sigma, Perm):
        sigma = Perm(sigma)
    n = sigma.n
    return Perm._trusted(n + 1 - v for v in reversed(sigma))


def t_sigma(S: DendriformStructure, sigma, args) -> Elem:
    """Product over E-blocks of the iterated left pre-Lie word on the block values."""
    p = sigma if isinstance(sigma, Profile) else profile(sigma)
    args = list(args)
    if len(args) != p.sigma.n:
        raise EmptyArgumentList(
            f"need {p.sigma.n} arguments, got {len(args)}")
    acc = S.unit()
    for vals in p.e_values:
        acc = S.star(acc, ell(S, *(args[v - 1] for v in vals)))
    return acc


def u_sigma(S: DendriformStructure, sigma, args) -> Elem:
    """Product over F-blocks of the iterated right pre-Lie word on the block values."""
    p = sigma if isinstance(sigma, Profile) else profile(sigma)
    args = list(args)
    if len(args) != p.sigma.n:
        raise EmptyArgumentList(
            f"need {p.sigma.n} arguments, got {len(args)}")
    acc = S.unit()
    for vals in p.f_values:
        acc = S.star(acc, r(S, *(args[v - 1] for v in vals)))
    return acc


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


def _dual(right_sum, op: DendriformStructure, args) -> Elem:
    """(-1)^(n-1) right_sum(op, reversed args): with op the opposite of S,
    where a >' b = -(b < a), the left form of right_sum on S."""
    args = list(args)
    out = right_sum(op, args[::-1])
    return out if len(args) % 2 else -out


def left_chain_sum(S: DendriformStructure, args) -> Elem:
    """Sum over the symmetric group of the right-nested < chains
    a_s1 < (a_s2 < ... (a_s(n-1) < a_sn)...): the > chains of the opposite
    structure, by duality."""
    return _dual(right_chain_sum, opposite(S), args)


def f_block_sum(S: DendriformStructure, args) -> Elem:
    """Sum of U(sigma), the F-block pre-Lie products, over the symmetric
    group: the E-block sum of the opposite structure, by duality."""
    return _dual(e_block_sum, opposite(S), args)


def spitzer_sums(S: DendriformStructure, args) -> dict:
    """The four symmetric-group sums of the Bohnenblust-Spitzer identities.

    right_chain and t_sum are subset recursions on S; left_chain and u_sum
    are the same two recursions on the opposite structure, built once here
    so that both share its product tables.  Each recursion memoizes only
    within its own call.
    """
    args = list(args)
    op = opposite(S)
    return {
        "right_chain": right_chain_sum(S, args),
        "t_sum": e_block_sum(S, args),
        "left_chain": _dual(right_chain_sum, op, args),
        "u_sum": _dual(e_block_sum, op, args),
    }


def bohnenblust_spitzer_check(S: DendriformStructure, args) -> dict:
    """Evaluate both symmetrized identities; adds right_ok/left_ok verdicts."""
    sums = spitzer_sums(S, args)
    sums["right_ok"] = sums["right_chain"] == sums["t_sum"]
    sums["left_ok"] = sums["left_chain"] == sums["u_sum"]
    return sums


# ---------------------------------------------------------------------------
# Lyndon words and the factorization view of the E-blocks
# ---------------------------------------------------------------------------

def _rank(order: str):
    if order == "increasing":
        return lambda v: v
    if order == "decreasing":
        return lambda v: -v
    raise ValueError(f"unknown letter order: {order!r}")


def is_lyndon(seq, order: str = "decreasing") -> bool:
    """Strictly smaller than all of its proper suffixes, letters ranked by `order`."""
    seq = tuple(seq)
    if not seq:
        return False
    rank = _rank(order)
    ranked = tuple(rank(v) for v in seq)
    return all(ranked < ranked[i:] for i in range(1, len(ranked)))


def cfl_factorize(seq, order: str = "decreasing") -> tuple:
    """Duval's factorization into a nonincreasing product of Lyndon factors.

    With the decreasing letter order, the factors of a permutation word are
    exactly its E-blocks.
    """
    seq = tuple(seq)
    rank = _rank(order)
    s = [rank(v) for v in seq]
    n = len(s)
    out = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and s[i] <= s[j]:
            i = i + 1 if s[i] == s[j] else k
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
        _accumulate(data, _bracket_product(
            tuple(beta[v - 1] for v in vals)
            for vals in profile(sigma).e_values))
    return _words(data)


def lyndon_census(n: int) -> dict:
    """Count the permutations of 1..n by their E-block length composition.

    An E-block starts at each strict running maximum, so the composition is
    the gaps between successive starts; a sentinel n + 1 after the last
    position closes the last block.
    """
    out: dict = {}
    for image in itertools.permutations(range(1, n + 1)):
        comp, start, best = [], 0, 0
        for k, v in enumerate(image + (n + 1,)):
            if v > best:
                if k:
                    comp.append(k - start)
                start, best = k, v
        comp = tuple(comp)
        out[comp] = out.get(comp, 0) + 1
    return out


def census_formula(comp: tuple) -> int:
    """Predicted census count: n! over i1(i1+i2)...(i1+...+ik)."""
    n = sum(comp)
    denom = comp_denominator(comp)
    count, rem = divmod(math.factorial(n), denom)
    if rem:
        raise ValueError(f"composition denominator does not divide {n}!: {comp}")
    return count
