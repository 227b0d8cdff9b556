"""Dynkin operator, power-sum coalgebra data, and convolution machinery.

Two Hopf-flavoured settings live here.

On the word algebra (concatenation product), the Dynkin operator is the
left-to-right iterated bracketing D(y1...yn) = [...[[y1,y2],y3]...,yn], in
closed form the sum over subsets A of {y2..yn} of (-1)^|A| (A read
backwards) y1 (the rest read forwards).  The convolution product of graded
endomorphisms uses the unshuffle coproduct, which distributes the letters of
a word over the two tensor factors across all complementary position
subsets, of size d only when the left factor is homogeneous of degree d; the
product is homogeneous of the sum of its factors' degrees.

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
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .dendriform import DendriformStructure, ell, r, w_right
from .errors import EmptyWord, NormalizationError, SortMismatch
from .ncalg import (
    BasisSort, Elem, Series, Word, WORD_SORT, _accumulate, _words,
    linear_combination,
)

__all__ = [
    "concat_mul", "dynkin_word", "GradedEndo", "counit_unit_endo",
    "projection_endo", "dynkin_degree_endo", "convolve", "convolve_many",
    "convolution_expansion", "ordered_partition_expansion",
    "COMP_SORT", "compositions", "comp_denominator", "comp_elem", "comp_mul",
    "comp_coproduct", "comp_antipode", "comp_grading", "comp_dynkin",
    "comp_dynkin_apply", "w_coproduct", "w_antipode", "dynkin_w", "eval_comp",
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
    return Elem._trusted(WORD_SORT, _accumulate({}, [
        (w1 + w2, c1 * c2)
        for w1, c1 in x._terms.items() for w2, c2 in y._terms.items()]))


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


class GradedEndo:
    """A linear endomorphism of the word algebra, given on basis words, that
    vanishes outside words of length degree (None: not known homogeneous)."""

    __slots__ = ("name", "fn", "degree")

    def __init__(self, name: str, fn, degree: int | None = None):
        self.name = name
        self.fn = fn
        self.degree = degree

    def __call__(self, w) -> Elem:
        if isinstance(w, Elem) and w.sort == WORD_SORT:
            return w.map_keys(self.fn)
        if not isinstance(w, Word):
            raise SortMismatch("graded endomorphisms act on word elements")
        image = self.fn(w)
        if not isinstance(image, Elem) or image.sort != WORD_SORT:
            raise SortMismatch(f"{self.name} sends {w} outside the word algebra")
        return image

    def __repr__(self):
        return f"<GradedEndo {self.name}>"


def counit_unit_endo() -> GradedEndo:
    """Unit-after-counit: kills positive degree, fixes the empty word."""
    return GradedEndo("eta.eps", lambda w: Elem.zero(WORD_SORT) if len(w)
                      else Elem.unit(WORD_SORT), 0)


def projection_endo(n: int) -> GradedEndo:
    return GradedEndo(f"p{n}", lambda w: Elem.term(WORD_SORT, w) if len(w) == n
                      else Elem.zero(WORD_SORT), n)


def dynkin_degree_endo(n: int) -> GradedEndo:
    """The Dynkin operator restricted to degree n (zero elsewhere)."""
    if n < 1:
        raise ValueError("the graded Dynkin pieces start at degree 1")
    return GradedEndo(f"D{n}", lambda w: dynkin_word(w) if len(w) == n
                      else Elem.zero(WORD_SORT), n)


def convolve(f: GradedEndo, g: GradedEndo) -> GradedEndo:
    """Convolution with the unshuffle coproduct.

    (f * g)(w) distributes the letters of w over the two factors across all
    complementary position subsets and concatenates the images; only left
    subsets of size f.degree are tried when f is homogeneous.
    """
    def fn(w: Word) -> Elem:
        n = len(w)
        data: dict = {}
        for k in range(n + 1) if f.degree is None else (f.degree,):
            for picked in itertools.combinations(range(n), k):
                left = Word._trusted(w[i] for i in picked)
                right = Word._trusted(w[i] for i in range(n) if i not in picked)
                fl = f(left)._terms
                if not fl:
                    continue
                gr = g(right)._terms
                for u, c in fl.items():
                    _accumulate(data, ((u + v, c * d) for v, d in gr.items()))
        return Elem._trusted(WORD_SORT, data)

    degree = None if None in (f.degree, g.degree) else f.degree + g.degree
    return GradedEndo(f"({f.name}*{g.name})", fn, degree)


def convolve_many(endos) -> GradedEndo:
    endos = list(endos)
    if not endos:
        return counit_unit_endo()
    acc = endos[0]
    for e in endos[1:]:
        acc = convolve(acc, e)
    return acc


def convolution_expansion(n: int) -> Elem:
    """Apply sum over compositions of D_{i1}*...*D_{ik}/denominator to x1...xn.

    The result equals x1...xn itself: the graded Dynkin pieces assembled with
    composition denominators reconstruct the identity endomorphism.
    """
    word = Word(tuple(range(1, n + 1)))
    return linear_combination(WORD_SORT, (
        (convolve_many(dynkin_degree_endo(i) for i in comp)(word),
         Fraction(1, comp_denominator(comp)))
        for comp in compositions(n)))


def ordered_partition_expansion(n: int) -> Elem:
    """Sum D(J1)...D(Jk)/(i1(i1+i2)...) over ordered set partitions of {1..n}.

    D(J) brackets the increasing word on J; block sizes follow the
    composition (i1..ik).  The sum collapses to the single word x1...xn.
    """
    data: dict = {}
    for comp in compositions(n):
        denom = Fraction(1, comp_denominator(comp))
        for blocks in _ordered_partitions(tuple(range(1, n + 1)), comp):
            _accumulate(data, _bracket_product(blocks), denom)
    return _words(data)


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
    """Compositions of n in lexicographic order.

    >>> compositions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n == 0:
        return [()]
    out = []

    def grow(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(1, remaining + 1):
            grow(prefix + [part], remaining - part)

    grow([], n)
    return sorted(out)


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
    return Elem._trusted(COMP_SORT, _accumulate({}, [
        (c1 + c2, a * b)
        for c1, a in x._terms.items() for c2, b in y._terms.items()]))


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
    """Antipode: anti-morphism extending the generator recursion."""
    x = _comp_elem(x)
    parts = []
    for key, coeff in x.items():
        term = Elem.unit(COMP_SORT)
        for part in reversed(key):
            term = comp_mul(term, _generator_antipode(part))
        parts.append((term, coeff))
    return linear_combination(COMP_SORT, parts)


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

def eval_comp(S: DendriformStructure, a: Elem, x) -> Elem:
    """Evaluate a composition element: (i1..ik) becomes w>(i1) * ... * w>(ik)."""
    x = _comp_elem(x)
    w = functools.cache(lambda i: w_right(S, a, i))
    parts = []
    for key, coeff in x.items():
        term = S.unit()
        for part in key:
            term = S.star(term, w(part))
        parts.append((term, coeff))
    return linear_combination(S.sort, parts)


def w_coproduct(n: int) -> dict:
    """Coproduct of the degree-n power-sum generator, as composition pairs."""
    return comp_coproduct((n,))


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


def _composition_sum(n: int, block, mul, unit: Elem) -> Elem:
    """Sum over compositions (i1..ik) of n of
    mul(...mul(mul(unit, block(i1)), block(i2))..., block(ik))
    / (i1(i1+i2)...(i1+...+ik)).

    The one composition-weighted sum of the module; n = 0 gives the unit,
    the sum over the empty composition.
    """
    parts = []
    for comp in compositions(n):
        term = unit
        for part in comp:
            term = mul(term, block(part))
        parts.append((term, Fraction(1, comp_denominator(comp))))
    return linear_combination(unit.sort, parts)


def gamma_coeffs(coeffs, mul, unit: Elem):
    """Composition-indexed exponential-like sum shared by all gamma variants.

    Input: h_1..h_cap (index 0 entry ignored, must be zero).  Output g_0..g_cap
    with g_n = sum over compositions (i1..ik) of n of
    h_{i1}...h_{ik} / (i1(i1+i2)...(i1+...+ik)).
    """
    if coeffs[0]:
        raise NormalizationError("gamma needs a series with zero constant term")
    return [_composition_sum(n, coeffs.__getitem__, mul, unit)
            for n in range(len(coeffs))]


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

    Sum over compositions (i1..ik) of n of
    ell(i1)(a) * ... * ell(ik)(a) / (i1(i1+i2)...(i1+...+ik)).
    """
    block = functools.cache(lambda i: ell(S, *([a] * i)))
    return _composition_sum(n, block, S.star, S.unit())


def w_left_from_compositions(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """Rebuild w<(n) as a composition sum of right pre-Lie blocks.

    Sum over compositions (i1..ik) of n of
    r(ik)(a) * ... * r(i1)(a) / (i1(i1+i2)...(i1+...+ik)): the blocks multiply
    in reversed composition order while the denominator keeps the original.
    """
    block = functools.cache(lambda i: r(S, *([a] * i)))
    return _composition_sum(n, block, lambda term, b: S.star(b, term),
                            S.unit())
