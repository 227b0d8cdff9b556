"""Dynkin operator, power-sum coalgebra data, and convolution machinery.

Two Hopf-flavoured settings live here.

On the word algebra (concatenation product), the Dynkin operator is the
left-to-right iterated bracketing D(y1...yn) = [...[[y1,y2],y3]...,yn], in
closed form the sum over subsets A of {y2..yn} of (-1)^|A| (A read
backwards) y1 (the rest read forwards).  Its graded pieces D_i, zero off
length i, convolve through the unshuffle coproduct, which distributes the
letters of a word over the factors across complementary position subsets;
as D_i is homogeneous, a factor takes only subsets of size i.  Weighted by
the composition denominators, these convolutions sum to the identity.

The power sums w>(n) of a single dendriform element generate a free
associative algebra whose basis is indexed by compositions; the coproduct
sends the n-th generator to sum(w(m) (x) w(n-m)), the antipode sends it to
the signed sum of the compositions of n (Takeuchi's formula), and the grading
operator scales by total degree.
Convolving antipode with grading gives the Dynkin operator in this basis, and
evaluating compositions back into a structure turns all of this into exact
element identities: the Dynkin image of w>(n) is the iterated left pre-Lie
word, and both power sums expand as composition-indexed sums of pre-Lie
blocks over the denominators i1(i1+i2)...(i1+...+ik).

Two rules carry these sums.  Every composition of m ends at the partial sum
m, so a sum weighted by 1/(i1(i1+i2)...) is 1/m times the sum over the last
part of (the sum on the rest) (the last block): `_weighted_sums`, and
`_convolution_sum` on letter positions.  That needs only linearity, no
dendriform law, so the checks stay genuine; `ordered_partition_expansion`
stays a flat enumeration, the convolution identity's independent route.
`_evaluate` is the one map out of the composition algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .dendriform import DendriformStructure, ell, r, w_right
from .errors import EmptyWord, NormalizationError, SortMismatch
from .ncalg import (
    BasisSort, Elem, Series, Word, WORD_SORT, _accumulate, _bilinear, _words,
    linear_combination,
)

__all__ = [
    "concat_mul", "dynkin_word", "convolution_expansion",
    "ordered_partition_expansion",
    "COMP_SORT", "compositions", "comp_denominator", "comp_elem", "comp_mul",
    "comp_coproduct", "comp_antipode", "comp_grading", "comp_dynkin",
    "comp_dynkin_apply", "w_antipode", "dynkin_w", "eval_comp",
    "gamma", "gamma_coeffs", "w_right_from_compositions",
    "w_left_from_compositions",
]


# ---------------------------------------------------------------------------
# the word algebra: concatenation, Dynkin, convolution
# ---------------------------------------------------------------------------

def concat_mul(x: Elem, y: Elem) -> Elem:
    """Concatenation product on word elements (the empty word is its unit)."""
    if x.sort != WORD_SORT or y.sort != WORD_SORT:
        raise SortMismatch("concat_mul expects word elements")
    return _bilinear(WORD_SORT, x, y, lambda w1, w2: ((w1 + w2, 1),))


def _bracket_terms(letters: tuple) -> list:
    """The (letters, +-1) terms of [...[y1,y2],...,yn], not collected.

    [u, a] = ua - au appends a, or prepends it with the sign flipped, so the
    prepended letters are the subset A read backwards.

    >>> _bracket_terms((1, 2, 3))
    [((1, 2, 3), 1), ((3, 1, 2), -1), ((2, 1, 3), -1), ((3, 2, 1), 1)]
    """
    terms = [(letters[:1], 1)]
    for a in letters[1:]:
        terms = [t for u, c in terms for t in ((u + (a,), c), ((a,) + u, -c))]
    return terms


def _bracket_product(blocks) -> list:
    """The terms of the concatenation product of the blocks' brackets."""
    terms = [((), 1)]
    for block in blocks:
        terms = [(u + v, c * d) for u, c in terms for v, d in _bracket_terms(block)]
    return terms


def dynkin_word(w) -> Elem:
    """Left-to-right iterated bracketing with [u, v] = uv - vu on words.

    Accepts a Word or a word Elem (extended linearly); the closed form's
    signed words are collected in one pass.  In degree n the operator is
    quasi-idempotent: applying it twice multiplies by n.
    """
    if isinstance(w, Elem):
        if w.sort != WORD_SORT:
            raise SortMismatch("dynkin_word expects words")
        return w.map_keys(dynkin_word)
    if not isinstance(w, Word):
        raise TypeError(f"expected Word or word Elem, got {w!r}")
    if len(w) == 0:
        raise EmptyWord("the Dynkin operator needs at least one letter")
    return _words(_accumulate({}, _bracket_terms(w)))


def _convolution_sum(letters: tuple) -> Elem:
    """Sum over compositions c of len(letters) of D_c(letters)/den(c), D_c the
    convolution of the Dynkin pieces along c: on m letters, 1/m times the sum
    over nonempty position sets P of (the sum on the other letters) D(the
    letters at P).  Memoized on the remaining letters within the call."""
    @functools.cache
    def total(rest: tuple) -> Elem:
        if not rest:
            return Elem.unit(WORD_SORT)
        return linear_combination(WORD_SORT, (
            (concat_mul(total(tuple(a for a, b in zip(rest, at) if not b)),
                        dynkin_word(Word(itertools.compress(rest, at)))),
             Fraction(1, len(rest)))
            for at in itertools.product((0, 1), repeat=len(rest)) if any(at)))

    return total(tuple(letters))


def convolution_expansion(n: int) -> Elem:
    """Apply sum over compositions of D_{i1}*...*D_{ik}/denominator to x1...xn.

    The result (`_convolution_sum`) equals x1...xn itself: the graded Dynkin
    pieces with composition denominators reconstruct the identity endomorphism.
    """
    return _convolution_sum(tuple(range(1, n + 1)))


def ordered_partition_expansion(n: int) -> Elem:
    """Sum D(J1)...D(Jk)/(i1(i1+i2)...) over ordered set partitions of {1..n}.

    D(J) brackets the increasing word on J; block sizes follow the
    composition (i1..ik).  The sum collapses to the single word x1...xn.
    """
    # over n!, which every composition denominator divides
    data: dict = {}
    for comp in compositions(n):
        weight = math.factorial(n) // comp_denominator(comp)
        for blocks in _ordered_partitions(tuple(range(1, n + 1)), comp):
            _accumulate(data, _bracket_product(blocks), weight)
    return _words(data, math.factorial(n))


def _ordered_partitions(universe: tuple, sizes: tuple):
    """Ordered set partitions of `universe` with the given block sizes."""
    if not sizes:
        yield ()
        return
    head, rest = sizes[0], sizes[1:]
    for block in itertools.combinations(universe, head):
        chosen = set(block)
        remaining = tuple(x for x in universe if x not in chosen)
        for tail in _ordered_partitions(remaining, rest):
            yield (block,) + tail


# ---------------------------------------------------------------------------
# the composition algebra carrying the power-sum Hopf data
# ---------------------------------------------------------------------------

def _check_comp_key(key):
    if not (type(key) is tuple and all(isinstance(p, int) and p >= 1
                                       for p in key)):
        raise SortMismatch(f"not a composition key: {key!r}")


COMP_SORT = BasisSort(
    "comp",
    (),
    skey=lambda c: (sum(c), len(c), c),
    show=lambda c: ".".join(f"w{p}" for p in c),
    check=_check_comp_key,
)


def compositions(n: int):
    """Compositions of n in lexicographic order, one per set of cuts among
    the positions 1..n-1.

    >>> compositions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n == 0:
        return [()]
    return sorted(tuple(b - a for a, b in itertools.pairwise((0, *cuts, n)))
                  for size in range(n)
                  for cuts in itertools.combinations(range(1, n), size))


def comp_denominator(comp: tuple) -> int:
    """i1 * (i1+i2) * ... * (i1+...+ik); the weight over all its refinement steps."""
    total, denom = 0, 1
    for part in comp:
        total += part
        denom *= total
    return denom


def comp_elem(*parts) -> Elem:
    return Elem.term(COMP_SORT, tuple(parts))


def comp_mul(x: Elem, y: Elem) -> Elem:
    """Concatenation of compositions (the free associative product)."""
    return _bilinear(COMP_SORT, x, y, lambda c1, c2: ((c1 + c2, 1),))


def _comp_elem(x) -> Elem:
    """A composition element; a bare composition tuple becomes its term."""
    return Elem.term(COMP_SORT, x) if isinstance(x, tuple) else x


def comp_coproduct(x) -> dict:
    """Coproduct as a map (left key, right key) -> coefficient.

    The generator (n) splits as sum of (m) tensor (n-m); the extension to
    products is multiplicative.  The result is cocommutative.
    """
    x = _comp_elem(x)
    out: dict = {}
    for key, coeff in x.items():
        pairs = {((), ()): 1}
        for part in key:
            grown = {}
            for (lft, rgt), c in pairs.items():
                for m in range(part + 1):
                    nl = lft + ((m,) if m else ())
                    nr = rgt + ((part - m,) if part - m else ())
                    grown[(nl, nr)] = grown.get((nl, nr), 0) + c
            pairs = grown
        for split, c in pairs.items():
            out[split] = out.get(split, 0) + coeff * c
    return {split: c for split, c in out.items() if c}


def _generator_antipode(n: int) -> Elem:
    """S((n)) in Takeuchi's closed form: the sum over compositions c of n of
    (-1)^len(c) c.

    It solves the counit recursion S((n)) = -sum(S((m)) (n-m), 0 <= m < n), and
    evaluates to (-1)^n times the left power sum.
    """
    return Elem(COMP_SORT, [(c, (-1) ** len(c)) for c in compositions(n)])


def comp_antipode(x) -> Elem:
    """Antipode: the anti-morphism taking each generator to its closed form."""
    return _evaluate(x, _generator_antipode,
                     lambda term, b: comp_mul(b, term), Elem.unit(COMP_SORT))


def comp_grading(x) -> Elem:
    """The grading operator N: scale each composition by its total degree."""
    x = _comp_elem(x)
    return Elem(COMP_SORT, [(key, coeff * sum(key)) for key, coeff in x.items()])


def comp_dynkin_apply(x) -> Elem:
    """The Dynkin operator S * N in the composition basis."""
    parts = []
    for (lft, rgt), c in comp_coproduct(x).items():
        graded = comp_grading(rgt)
        if graded:
            parts.append((comp_mul(comp_antipode(lft), graded), c))
    return linear_combination(COMP_SORT, parts)


def comp_dynkin(n: int) -> Elem:
    """Dynkin image of the degree-n generator."""
    return comp_dynkin_apply((n,))


# ---------------------------------------------------------------------------
# evaluation back into a dendriform structure
# ---------------------------------------------------------------------------

def _evaluate(x, block, mul, unit: Elem) -> Elem:
    """The map out of the free composition algebra sending (i1..ik) to
    mul(...mul(mul(unit, block(i1)), block(i2))..., block(ik)), linearly."""
    return linear_combination(unit.sort, (
        (functools.reduce(lambda t, i: mul(t, block(i)), key, unit), c)
        for key, c in _comp_elem(x).items()))


def eval_comp(S: DendriformStructure, a: Elem, x) -> Elem:
    """Evaluate a composition element: (i1..ik) becomes w>(i1) * ... * w>(ik)."""
    return _evaluate(x, functools.cache(lambda i: w_right(S, a, i)), S.star,
                     S.unit())


def w_antipode(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """Antipode of w>(n), evaluated in the structure.

    Evaluates Takeuchi's closed form S((n)) = sum over compositions c of n of
    (-1)^len(c) c; the value is (-1)^n times the left power sum w<(n), and it
    also satisfies S(w(n)) = -a < S(w(n-1)).
    """
    if n == 0:
        return S.unit()
    return eval_comp(S, a, comp_antipode((n,)))


def dynkin_w(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """(S * N) applied to w>(n), evaluated in the structure.

    Equals the iterated left pre-Lie word on n copies of a; the computation
    here goes through the composition coalgebra only, so comparing against
    the directly iterated pre-Lie product is a genuine cross-check.
    """
    return eval_comp(S, a, comp_dynkin(n))


def _weighted_sums(n: int, block, mul, unit: Elem) -> list:
    """g_0..g_n, g_m the sum over compositions (i1..ik) of m of
    mul(...mul(unit, block(i1))..., block(ik)) / (i1(i1+i2)...(i1+...+ik)).

    Grouped by the last part, g_m = (1/m) sum over i of mul(g_(m-i), block(i))
    and g_0 = unit: n(n+1)/2 products where the compositions number 2^(n-1),
    with mul linear in its first argument.
    """
    sums = [unit]
    for m in range(1, n + 1):
        sums.append(linear_combination(unit.sort, (
            (mul(sums[m - i], block(i)), Fraction(1, m))
            for i in range(1, m + 1))))
    return sums


def gamma_coeffs(coeffs, mul, unit: Elem):
    """Composition-indexed exponential-like sum shared by all gamma variants.

    Input: h_1..h_cap (index 0 entry ignored, must be zero).  Output g_0..g_cap
    with g_n = sum over compositions (i1..ik) of n of
    h_{i1}...h_{ik} / (i1(i1+i2)...(i1+...+ik)), by `_weighted_sums`.
    """
    if coeffs[0]:
        raise NormalizationError("gamma needs a series with zero constant term")
    return _weighted_sums(len(coeffs) - 1, coeffs.__getitem__, mul, unit)


def gamma(S: DendriformStructure, h: Series) -> Series:
    """The inverse of the Dynkin operator on group-like series.

    Sends a series with zero constant term to the composition-weighted sum of
    its coefficient products; applied to the Dynkin image of the power-sum
    series it returns that series.
    """
    if h.sort != S.sort:
        raise SortMismatch("series does not live over this structure")
    return Series(S.sort, gamma_coeffs(list(h.coeffs), S.star, S.unit()), h.cap)


def w_right_from_compositions(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """Rebuild w>(n) as a composition sum of left pre-Lie blocks.

    `_weighted_sums` over compositions (i1..ik) of n of
    ell(i1)(a) * ... * ell(ik)(a) / (i1(i1+i2)...(i1+...+ik)).
    """
    block = functools.cache(lambda i: ell(S, *([a] * i)))
    return _weighted_sums(n, block, S.star, S.unit())[n]


def w_left_from_compositions(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """Rebuild w<(n) as a composition sum of right pre-Lie blocks.

    `_weighted_sums` over compositions (i1..ik) of n of
    r(ik)(a) * ... * r(i1)(a) / (i1(i1+i2)...(i1+...+ik)): each last block
    multiplies on the left, while the denominator keeps composition order.
    """
    block = functools.cache(lambda i: r(S, *([a] * i)))
    return _weighted_sums(n, block, lambda term, b: S.star(b, term),
                          S.unit())[n]
