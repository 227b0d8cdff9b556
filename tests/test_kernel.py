"""The accumulation kernel: products against public-constructor references,
canonical coefficients, the degree-local Magnus recursion, and call counts.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dendralg import (
    Elem, Perm, STANDARD_SELECTORS, Series, ShuffleStructure, Word,
    bernoulli_numbers, from_selector, magnus_omega, series_mul,
)
from dendralg.magnus import prelie_word_series
from dendralg.structures import MRStructure

_BUILT: dict = {}


def structure(selector):
    if selector not in _BUILT:
        _BUILT[selector] = from_selector(selector)
    return _BUILT[selector]


def elements(S, unit=False):
    """Elements over S from at most four basis keys of degree <= 2."""
    keys = list(S.basis_keys(2))
    if unit:
        keys.append(S.sort.unit_key)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(st.tuples(st.sampled_from(keys), coeff), max_size=4).map(
        lambda terms: Elem(S.sort, terms))


def canonical(e):
    """No stored zero and no stored non-Fraction coefficient."""
    return all(type(c) is Fraction and c != 0 for c in e._terms.values())


def reference_half(S, basis_fn, x, y):
    """The bilinear extension, built through the public constructor only."""
    return Elem(S.sort, [(k, c1 * c2 * c)
                         for k1, c1 in x.items() for k2, c2 in y.items()
                         for k, c in basis_fn(k1, k2).items()])


def reference_star(S, x, y):
    unit = S.sort.unit_key
    cx, cy = x.coeff(unit), y.coeff(unit)
    a = [(k, c) for k, c in x.items() if k != unit]
    b = [(k, c) for k, c in y.items() if k != unit]
    terms = [(unit, cx * cy)]
    terms += [(k, cx * c) for k, c in b] + [(k, cy * c) for k, c in a]
    for basis_fn in (S.basis_left, S.basis_right):
        terms += [(k, c1 * c2 * c) for k1, c1 in a for k2, c2 in b
                  for k, c in basis_fn(k1, k2).items()]
    return Elem(S.sort, terms)


@pytest.mark.parametrize("selector", STANDARD_SELECTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_half_products_match_the_public_reference(selector, data):
    S = structure(selector)
    x = data.draw(elements(S))
    y = data.draw(elements(S))
    left, right = S.left(x, y), S.right(x, y)
    assert left == reference_half(S, S.basis_left, x, y)
    assert right == reference_half(S, S.basis_right, x, y)
    assert canonical(left) and canonical(right)


@pytest.mark.parametrize("selector", STANDARD_SELECTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_star_matches_the_public_reference(selector, data):
    S = structure(selector)
    x = data.draw(elements(S, unit=True))
    y = data.draw(elements(S, unit=True))
    product = S.star(x, y)
    assert product == reference_star(S, x, y)
    assert canonical(product)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), c=st.fractions(min_value=-2, max_value=2,
                                      max_denominator=3))
def test_linear_operations_stay_canonical(data, c):
    S = structure("shuffle")
    x = data.draw(elements(S, unit=True))
    y = data.draw(elements(S, unit=True))
    for e in (x + y, x - y, x - x, x + (-x), -x, x.scale(c), x.scale(0),
              x.scale(1), x.scale(-1), x.without_unit(), (x + y) - y):
        assert canonical(e)
    assert (x + y) - y == x
    assert x - x == Elem.zero(S.sort)
    # a product that cancels to zero term by term
    assert canonical(S.star(x, y) - S.star(x, y))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_products_stay_canonical(data):
    S = structure("mr")
    coeffs = [data.draw(elements(S, unit=True)) for _ in range(3)]
    f = Series(S.sort, coeffs, 2)
    g = Series(S.sort, [-c for c in coeffs], 2)
    for h in (series_mul(f, g, S.star), series_mul(f, f, S.star) + g):
        assert all(canonical(e) for e in h.coeffs)


# -- the degree-local Magnus recursion against the full-series one ----------

def full_series_omega(S, a, cap):
    """The original recursion: at every degree, rebuild the nested
    commutators ad(Omega)^k(tL) as whole truncated series and read off t^d.
    """
    tl = prelie_word_series(S, a, cap)
    bern = bernoulli_numbers(cap)

    def commutator(f, g):
        return series_mul(f, g, S.star) - series_mul(g, f, S.star)

    coeffs = [S.zero()]
    for d in range(1, cap + 1):
        omega = Series(S.sort, coeffs + [S.zero()] * (cap + 1 - len(coeffs)), cap)
        rhs = tl
        nested = tl
        for k in range(1, d):
            nested = commutator(omega, nested)
            weight = Fraction((-1) ** k) * bern[k] / math.factorial(k)
            if weight:
                rhs = rhs + nested.scale(weight)
        coeffs.append(rhs.coeff(d).scale(Fraction(1, d)))
    return Series(S.sort, coeffs, cap)


@pytest.mark.parametrize("selector", STANDARD_SELECTORS)
def test_magnus_omega_equals_the_full_series_recursion(selector):
    S = structure(selector)
    a = S.generator(0)
    for cap in range(1, 6):
        assert magnus_omega(S, a, cap) == full_series_omega(S, a, cap)


# -- count-based guards -------------------------------------------------------

class CountingShuffle(ShuffleStructure):
    def __init__(self, alphabet):
        super().__init__(alphabet)
        self.left_calls = 0

    def basis_left(self, w1, w2):
        self.left_calls += 1
        return super().basis_left(w1, w2)


class CountingMR(MRStructure):
    def __init__(self):
        super().__init__()
        self.star_calls = 0

    def star(self, x, y):
        self.star_calls += 1
        return super().star(x, y)


def test_self_test_calls_basis_left_only_for_admissible_triples():
    S = CountingShuffle(3)
    assert S.self_test(4) == 270
    plain = ShuffleStructure(3)
    words = [Word(w) for d in (1, 2) for w in itertools.product((1, 2, 3), repeat=d)]
    expected = 0
    for a, b, c in itertools.product(words, repeat=3):
        if len(a) + len(b) + len(c) > 4:
            continue
        # (a<b)<c: 1 + |a<b|; a<(b*c): 1 + |b*c|; (a>b)<c: |a>b|;
        # a>(b<c): 1; a>(b>c): 0; (a*b)>c: 1
        expected += (4 + len(plain.basis_left(a, b)) + len(plain.basis_right(a, b))
                     + len(plain.star(plain.elem(b), plain.elem(c))))
    assert S.left_calls == expected


class CountedWord(Word):
    __slots__ = ()
    hashes = 0

    def __hash__(self):
        CountedWord.hashes += 1
        return super().__hash__()


class CountedKeysShuffle(ShuffleStructure):
    def basis_keys(self, max_degree):
        return [CountedWord(w.letters) for w in super().basis_keys(max_degree)]


def test_self_test_never_visits_inadmissible_triples():
    """Filtering the full triple loop looks up three degrees per triple,
    |keys|^3 hashes in all; enumerating by degree needs far fewer."""
    S = CountedKeysShuffle(3)
    keys = S.basis_keys(4)
    CountedWord.hashes = 0
    assert S.self_test(4) == 270
    assert 0 < CountedWord.hashes < len(keys) ** 2


def test_magnus_omega_star_calls_are_cubic_in_the_cap():
    cap = 6
    bound = (cap - 1) * cap * (cap + 1) // 3  # 2 * sum(d(d-1)/2), d <= cap
    S = CountingMR()
    a = S.elem(Perm((1,)))
    omega = magnus_omega(S, a, cap)
    assert 0 < S.star_calls <= bound
    full = CountingMR()
    assert full_series_omega(full, a, cap) == omega
    assert full.star_calls > bound
