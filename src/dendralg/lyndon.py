"""Permutation statistics, Lyndon factorization, and symmetrized identities.

A permutation breaks into blocks in two dual ways.  Cutting just before each
new left-to-right maximum gives the E-blocks; cutting just after each
new-from-the-right minimum gives the F-blocks.  Feeding the E-block values
into iterated left pre-Lie products and multiplying gives T(sigma); the
F-blocks with iterated right pre-Lie products give U(sigma).  Summed over the
symmetric group these match the symmetrized dendriform half-products: the
noncommutative Bohnenblust-Spitzer identity, checked here by exhaustive sweep
with T and U written as recursions on index tuples.

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

from .dendriform import DendriformStructure, ell, prelie_left, prelie_right, r
from .errors import EmptyArgumentList, EmptyWord
from .hopf import _bracket_product, _word_elem, comp_denominator
from .ncalg import Elem, Perm, _accumulate, elem_sum

__all__ = [
    "Profile", "profile", "omega_conjugate", "t_sigma", "u_sigma",
    "spitzer_sums", "right_chain_sum", "e_block_sum", "left_chain_sum",
    "f_block_sum", "bohnenblust_spitzer_check", "is_lyndon", "cfl_factorize",
    "lyn_set", "pbw_expansion", "lyndon_census", "census_formula",
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
    image = sigma.image
    if not image:
        raise EmptyWord("statistics need a nonempty permutation")
    n = len(image)
    e_set, f_set = _e_cuts(image), _f_cuts(image)
    e_blocks, f_blocks = _blocks(n, e_set), _blocks(n, f_set)
    values = lambda blocks: tuple(tuple(image[p - 1] for p in b) for b in blocks)
    return Profile(sigma, e_set, f_set, e_blocks, f_blocks,
                   values(e_blocks), values(f_blocks),
                   tuple(len(b) for b in e_blocks))


def omega_conjugate(sigma) -> Perm:
    """Conjugation by the order-reversing involution: i -> n+1 - sigma(n+1-i)."""
    if not isinstance(sigma, Perm):
        sigma = Perm(sigma)
    n = sigma.n
    return Perm._trusted(tuple(n + 1 - v for v in reversed(sigma.image)))


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


def _orders(args: list):
    """Every permutation of the argument indices, as a tuple in reading order."""
    if not args:
        raise EmptyArgumentList("the symmetrized identities need arguments")
    return itertools.permutations(range(len(args)))


def right_chain_sum(S: DendriformStructure, args) -> Elem:
    """Sum over the symmetric group of the left-nested > chains
    (...(a_s1 > a_s2) > ...) > a_sn.

    A permutation is the tuple of argument indices in reading order.  The
    chains are memoized per index tuple within the call, taken as varargs
    so that the cache key is the tuple itself.
    """
    args = list(args)

    @functools.cache
    def chain(*idx: int) -> Elem:
        if len(idx) == 1:
            return args[idx[0]]
        return S.right(chain(*idx[:-1]), args[idx[-1]])

    return elem_sum(S.sort, (chain(*image) for image in _orders(args)))


def left_chain_sum(S: DendriformStructure, args) -> Elem:
    """Sum over the symmetric group of the right-nested < chains
    a_s1 < (a_s2 < ... (a_s(n-1) < a_sn)...), memoized as in right_chain_sum."""
    args = list(args)

    @functools.cache
    def chain(*idx: int) -> Elem:
        if len(idx) == 1:
            return args[idx[0]]
        return S.left(args[idx[0]], chain(*idx[1:]))

    return elem_sum(S.sort, (chain(*image) for image in _orders(args)))


def e_block_sum(S: DendriformStructure, args) -> Elem:
    """Sum of T(sigma), the E-block pre-Lie products, over the symmetric group.

    t(idx) = t(idx[:m]) * ell(idx[m:]) with m the position of max(idx), as
    the last E-block starts at the global maximum, and t(()) = 1; peeling
    the last block keeps the star products in reading order.  The block
    words are memoized per index tuple within the call; T is not, as caching
    it raises peak memory and saves no time.
    """
    args = list(args)

    @functools.cache
    def ell_at(*idx: int) -> Elem:
        if len(idx) == 1:
            return args[idx[0]]
        return prelie_left(S, ell_at(*idx[:-1]), args[idx[-1]])

    unit = S.unit()

    def t(idx: tuple) -> Elem:
        if not idx:
            return unit
        m = idx.index(max(idx))
        return S.star(t(idx[:m]), ell_at(*idx[m:]))

    return elem_sum(S.sort, (t(image) for image in _orders(args)))


def f_block_sum(S: DendriformStructure, args) -> Elem:
    """Sum of U(sigma), the F-block pre-Lie products, over the symmetric group.

    u(idx) = u(idx[:m]) * r(idx[m:]) with m one past the last position
    holding a value below idx[-1], as the last F-block ends at its own
    minimum, and u(()) = 1; memoized as in e_block_sum.
    """
    args = list(args)

    @functools.cache
    def r_at(*idx: int) -> Elem:
        if len(idx) == 1:
            return args[idx[0]]
        return prelie_right(S, args[idx[0]], r_at(*idx[1:]))

    unit = S.unit()

    def u(idx: tuple) -> Elem:
        if not idx:
            return unit
        m = max((p + 1 for p, v in enumerate(idx) if v < idx[-1]), default=0)
        return S.star(u(idx[:m]), r_at(*idx[m:]))

    return elem_sum(S.sort, (u(image) for image in _orders(args)))


def spitzer_sums(S: DendriformStructure, args) -> dict:
    """The four symmetric-group sums of the Bohnenblust-Spitzer identities.

    right_chain, t_sum, left_chain and u_sum, from the four functions above;
    they share no intermediate result, so each keeps its own memos.
    """
    args = list(args)
    return {
        "right_chain": right_chain_sum(S, args),
        "t_sum": e_block_sum(S, args),
        "left_chain": left_chain_sum(S, args),
        "u_sum": f_block_sum(S, args),
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
    relabel = beta.image
    out = []
    for image in itertools.permutations(range(1, beta.n + 1)):
        best = last = 0
        for v in image:
            if v > best:        # a running maximum starts a new E-block
                best = v
            elif relabel[v - 1] <= last:
                break
            last = relabel[v - 1]
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
    relabel = beta.image
    data: dict = {}
    for sigma in lyn_set(beta):
        _accumulate(data, _bracket_product(
            tuple(relabel[v - 1] for v in vals)
            for vals in profile(sigma).e_values))
    return _word_elem(data)


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
