"""Permutation statistics, Lyndon factorization, and symmetrized identities.

A permutation breaks into blocks in two dual ways.  Cutting just before each
new left-to-right maximum gives the E-blocks; cutting just after each
new-from-the-right minimum gives the F-blocks.  Feeding the E-block values
into iterated left pre-Lie products and multiplying gives T(sigma); the
F-blocks with iterated right pre-Lie products give U(sigma).  Summed over the
symmetric group these match the symmetrized dendriform half-products: the
noncommutative Bohnenblust-Spitzer identity, checked here by exhaustive sweep
with aggressive prefix and suffix caching.

The E-blocks are also the Chen-Fox-Lyndon factorization of the permutation
word for the decreasing letter order, computed independently by Duval's
algorithm.  Relabelling through a second permutation beta carves out the
subsets of the symmetric group whose bracketed E-blocks rebuild the
increasing word x1...xn, a Poincare-Birkhoff-Witt style expansion; counting
permutations by E-block type recovers the composition denominators
i1(i1+i2)...(i1+...+ik).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dendriform import DendriformStructure, ell, prelie_left, prelie_right, r
from .errors import EmptyArgumentList, EmptyWord
from .hopf import comp_denominator, concat_mul, dynkin_word
from .ncalg import Elem, Perm, Word, WORD_SORT, _accumulate, elem_sum

__all__ = [
    "Profile", "profile", "omega_conjugate", "t_sigma", "u_sigma",
    "spitzer_sums", "bohnenblust_spitzer_check", "is_lyndon", "cfl_factorize",
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


@dataclass(frozen=True)
class Profile:
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
    return Perm(tuple(n + 1 - sigma(n + 1 - i) for i in range(1, n + 1)))


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


def spitzer_sums(S: DendriformStructure, args) -> dict:
    """All four symmetric-group sums at once, sharing caches across permutations.

    Returns right_chain (left-nested > chains), t_sum (E-block pre-Lie
    products), left_chain (right-nested < chains) and u_sum (F-block
    products), each summed over the full symmetric group on the arguments.
    Distinct permutations share prefixes and suffixes, so the half-product
    chains and the pre-Lie words of the blocks are computed once per index
    tuple rather than once per permutation.  The star products that join a
    permutation's blocks are not shared: they are formed once per
    permutation.
    """
    args = list(args)
    n = len(args)
    if n == 0:
        raise EmptyArgumentList("the symmetrized identities need arguments")

    chain_r: dict = {}
    chain_l: dict = {}
    ell_c: dict = {}
    r_c: dict = {}
    for i, a in enumerate(args):
        chain_r[(i,)] = chain_l[(i,)] = ell_c[(i,)] = r_c[(i,)] = a

    def chain_right(idx: tuple) -> Elem:
        hit = chain_r.get(idx)
        if hit is None:
            hit = S.right(chain_right(idx[:-1]), args[idx[-1]])
            chain_r[idx] = hit
        return hit

    def chain_left(idx: tuple) -> Elem:
        hit = chain_l.get(idx)
        if hit is None:
            hit = S.left(args[idx[0]], chain_left(idx[1:]))
            chain_l[idx] = hit
        return hit

    def ell_at(idx: tuple) -> Elem:
        hit = ell_c.get(idx)
        if hit is None:
            hit = prelie_left(S, ell_at(idx[:-1]), args[idx[-1]])
            ell_c[idx] = hit
        return hit

    def r_at(idx: tuple) -> Elem:
        hit = r_c.get(idx)
        if hit is None:
            hit = prelie_right(S, args[idx[0]], r_at(idx[1:]))
            r_c[idx] = hit
        return hit

    rc_sum, t_sum, lc_sum, u_sum = {}, {}, {}, {}
    unit = S.unit()
    for image in itertools.permutations(range(n)):
        _accumulate(rc_sum, chain_right(image)._terms)
        _accumulate(lc_sum, chain_left(image)._terms)
        shifted = tuple(i + 1 for i in image)
        for cuts, cache, total in ((_e_cuts(shifted), ell_at, t_sum),
                                   (_f_cuts(shifted), r_at, u_sum)):
            term = unit
            for block in _blocks(n, cuts):
                factor = cache(tuple(image[p - 1] for p in block))
                if not factor:
                    term = None
                    break
                term = S.star(term, factor)
            if term is not None:
                _accumulate(total, term._terms)
    return {
        "right_chain": Elem._trusted(S.sort, rc_sum),
        "t_sum": Elem._trusted(S.sort, t_sum),
        "left_chain": Elem._trusted(S.sort, lc_sum),
        "u_sum": Elem._trusted(S.sort, u_sum),
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
    n = beta.n
    out = []
    for image in itertools.permutations(range(1, n + 1)):
        relabeled = tuple(beta(v) for v in image)
        ok = True
        for block in _blocks(n, _e_cuts(image)):
            vals = [relabeled[p - 1] for p in block]
            if any(x >= y for x, y in zip(vals, vals[1:])):
                ok = False
                break
        if ok:
            out.append(Perm(image))
    return out


def pbw_expansion(beta) -> Elem:
    """Sum over the admitted permutations of the bracketed E-block words.

    Each E-block contributes the left-to-right Dynkin bracketing of its
    relabelled (increasing) values; blocks multiply by concatenation in
    reading order.  For every relabelling beta the total collapses to the
    single increasing word x1...xn.
    """
    if not isinstance(beta, Perm):
        beta = Perm(beta)
    def terms():
        for sigma in lyn_set(beta):
            term = Elem.unit(WORD_SORT)
            for vals in profile(sigma).e_values:
                term = concat_mul(
                    term, dynkin_word(Word(tuple(beta(v) for v in vals))))
            yield term

    return elem_sum(WORD_SORT, terms())


def lyndon_census(n: int) -> dict:
    """Count permutations of n by their E-block length composition."""
    out: dict = {}
    for image in itertools.permutations(range(1, n + 1)):
        comp = tuple(len(b) for b in _blocks(n, _e_cuts(image)))
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
