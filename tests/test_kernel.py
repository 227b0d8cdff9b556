"""The accumulation kernel: products against public-constructor references,
canonical coefficients, the degree-local Magnus recursion, and call counts.
"""

import gc
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dendralg import (
    Elem, Perm, STANDARD_SELECTORS, Series, ShuffleStructure, Word,
    bernoulli_numbers, from_selector, magnus_omega, opposite, random_element,
    series_mul,
)
from dendralg.errors import SortMismatch
from dendralg.ncalg import PERM_SORT, WORD_SORT, linear_combination
from dendralg.lyndon import e_block_sum, right_chain_sum
from dendralg.magnus import prelie_word_series
from dendralg.structures import LEAF, FreeStructure, MRStructure, Tree

_BUILT: dict = {}

# Beyond the standard set: a non-integer weight, the primed operator
# variants and opposite structures, whose table entries are negated.
TABLE_CASES = (
    "rb-seqmat:theta=2/3,k=2,N=4",
    "primed(rb-seqmat:theta=2/3,k=2,N=4)",
    "primed(rb-polymat:k=2)",
    "opposite(shuffle)",
    "opposite(rb-seqmat:theta=2/3,k=2,N=4)",
)


def structure(name):
    """A structure by selector, or primed(selector) / opposite(selector)."""
    if name not in _BUILT:
        head, _, inner = name.partition("(")
        if head == "primed":
            _BUILT[name] = structure(inner[:-1]).with_variant("primed")
        elif head == "opposite":
            _BUILT[name] = opposite(structure(inner[:-1]))
        else:
            _BUILT[name] = from_selector(name)
    return _BUILT[name]


def elements(S, unit=False):
    """Elements over S from at most four basis keys of degree <= 2."""
    keys = list(S.basis_keys(2))
    if unit:
        keys.append(S.sort.unit_key)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(st.tuples(st.sampled_from(keys), coeff), max_size=4).map(
        lambda terms: Elem(S.sort, terms))


def canonical(e):
    """Every stored coefficient is nonzero and has its one representation:
    an int, or a Fraction with a denominator above 1."""
    return all(c != 0 and (type(c) is int
                           or type(c) is Fraction and c.denominator > 1)
               for c in e._terms.values())


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


@pytest.mark.parametrize("selector", STANDARD_SELECTORS + TABLE_CASES)
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


@pytest.mark.parametrize("selector", STANDARD_SELECTORS + TABLE_CASES)
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


HALF = Fraction(1, 2)


def test_integral_sums_store_ints():
    """1/2 + 1/2 is stored as the int 1 on every path that can produce it."""
    one = Word((1,))
    built = Elem(WORD_SORT, [(one, HALF), (one, HALF)])
    half = Elem.term(WORD_SORT, one, HALF)
    for e in (built, half + half, half.scale(2), half - half.scale(-1),
              half / HALF, linear_combination(WORD_SORT, [(half, 2)])):
        assert canonical(e)
        assert type(e.coeff(one)) is int and e.coeff(one) == 1


def test_bool_and_integral_fraction_coefficients_become_ints():
    one = Word((1,))
    for c in (True, Fraction(1), Fraction(4, 4)):
        e = Elem(WORD_SORT, [(one, c)])
        assert canonical(e) and type(e.coeff(one)) is int
    assert Elem(WORD_SORT, [(one, False)]).is_zero()


def test_absent_coefficients_are_the_int_zero():
    e = Elem.term(WORD_SORT, Word((1,)), HALF)
    assert type(e.coeff(Word((2,)))) is int and e.coeff(Word((2,))) == 0
    assert type(e.unit_coeff) is int and e.unit_coeff == 0


def test_sorts_keep_equal_tuple_keys_apart():
    """A key is the tuple of its entries, so a word and a permutation on
    the same tuple are equal keys; their sorts keep the elements apart."""
    assert Word((1,)) == Perm((1,)) == (1,)
    assert hash(Word((1,))) == hash(Perm((1,))) == hash((1,))
    word = Elem(WORD_SORT, [(Word((1,)), 1)])
    perm = Elem(PERM_SORT, [(Perm((1,)), 1)])
    assert word != perm and perm != word
    assert word.coeff(Word((1,))) == 1 and perm.coeff(Perm((1,))) == 1
    with pytest.raises(SortMismatch):
        word.coeff(Perm((1,)))
    with pytest.raises(SortMismatch):
        perm.coeff(Word((1,)))
    with pytest.raises(SortMismatch):
        Elem(WORD_SORT, [((1,), 1)])


def test_trusted_keys_equal_validated_ones():
    assert Word._trusted((2, 1)) == Word((2, 1))
    assert hash(Word._trusted((2, 1))) == hash(Word((2, 1)))
    assert Perm._trusted((2, 1)) == Perm((2, 1))
    assert hash(Perm._trusted((2, 1))) == hash(Perm((2, 1)))


def test_a_key_costs_what_its_tuple_costs():
    for t in ((), (1,), (2, 1, 3)):
        assert sys.getsizeof(Word(t)) == sys.getsizeof(t)
        assert sys.getsizeof(Perm(t)) == sys.getsizeof(t)
    assert sys.getsizeof(Tree(LEAF, LEAF)) == sys.getsizeof(((), ()))
    for cls in (Word, Perm, Tree):
        assert cls.__bases__ == (tuple,)
        assert not {"__eq__", "__hash__", "__lt__", "__gt__", "__le__",
                    "__ge__", "__setattr__"} & set(vars(cls))
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__


def test_keys_are_ordered_length_lex_both_ways():
    """Each sort lists its keys shorter first, then entry by entry, whatever
    order they were added in."""
    words = [Word(t) for n in range(4) for t in itertools.product((1, 2), repeat=n)]
    perms = [Perm(t) for n in range(4)
             for t in itertools.permutations(range(1, n + 1))]
    for sort, keys in ((WORD_SORT, words), (PERM_SORT, perms)):
        length_lex = sorted(keys, key=lambda k: (len(k), tuple(k)))
        for added in (keys, keys[::-1]):
            e = Elem(sort, {k: 1 for k in added})
            assert e.support() == length_lex


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
        self.right_calls = 0

    def star(self, x, y):
        self.star_calls += 1
        return super().star(x, y)

    def right(self, x, y):
        self.right_calls += 1
        return super().right(x, y)


def test_self_test_calls_basis_left_only_for_admissible_triples():
    """One basis_left call per distinct key pair that the < products of the
    270 admissible triples need; repeated pairs are read from the table."""
    S = CountingShuffle(3)
    assert S.self_test(4) == 270
    plain = ShuffleStructure(3)
    words = [Word(w) for d in (1, 2) for w in itertools.product((1, 2, 3), repeat=d)]
    needed = set()
    for a, b, c in itertools.product(words, repeat=3):
        if len(a) + len(b) + len(c) > 4:
            continue
        # a<b in (a<b)<c and (a*b)>c; b<c in b*c and a>(b<c); then
        # (a<b)<c, (a>b)<c and a<(b*c) on every key of the inner product
        needed |= {(a, b), (b, c)}
        needed |= {(w, c) for w in plain.basis_left(a, b).support()}
        needed |= {(w, c) for w in plain.basis_right(a, b).support()}
        needed |= {(a, w) for w in plain.star(plain.elem(b), plain.elem(c)).support()}
    assert S.left_calls == len(needed)


class CountingBasis:
    """Counts the calls to both basis primitives of the structure it precedes."""

    basis_calls = 0

    def basis_left(self, k1, k2):
        self.basis_calls += 1
        return super().basis_left(k1, k2)

    def basis_right(self, k1, k2):
        self.basis_calls += 1
        return super().basis_right(k1, k2)


class CountingBasisMR(CountingBasis, MRStructure):
    pass


class CountingBasisFree(CountingBasis, FreeStructure):
    pass


@pytest.mark.parametrize("cls", [CountingBasisMR, CountingBasisFree])
def test_repeated_products_read_the_tables(cls):
    S = cls()
    rng = random.Random(0)
    x, y = (random_element(S, rng, max_degree=3, nterms=3) for _ in range(2))
    product = S.star(x, y)
    misses = S.basis_calls
    # every call filled one table entry; free also fills the subtree pairs
    # its primitives recurse into
    assert misses == len(S._left_table) + len(S._right_table)
    pairs = {(k1, k2) for k1 in x.support() for k2 in y.support()}
    assert pairs <= set(S._left_table) & set(S._right_table)
    if cls is CountingBasisMR:
        assert misses == 2 * len(pairs)
    for _ in range(3):
        assert S.star(x, y) == product
    assert S.left(x, y) + S.right(x, y) == product
    assert S.basis_calls == misses


def test_tables_belong_to_their_structure():
    a, b = CountingBasisMR(), CountingBasisMR()
    key = Perm((2, 1))
    unheld = sys.getrefcount(key)
    a.star(a.elem(key), a.elem(key))
    assert a.basis_calls == 2 and b.basis_calls == 0
    assert not b._left_table and not b._right_table
    b.star(b.elem(key), b.elem(key))
    assert b.basis_calls == 2
    del b
    a_ref = weakref.ref(a)
    gc.disable()
    try:
        assert sys.getrefcount(key) > unheld  # a's tables still hold the key pair
        del a
        # freed by reference counting alone: no cycle keeps the tables alive
        assert a_ref() is None and sys.getrefcount(key) == unheld
    finally:
        gc.enable()


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


def test_symmetric_group_sums_take_3_to_the_n_products_not_n_factorial():
    """The subset recursions of e_block_sum and right_chain_sum stay within
    3^n products at n = 6, where a sweep over the 720 orders needs more."""
    n = 6
    bound = 3 ** n
    blocks, chains = CountingMR(), CountingMR()
    rng = random.Random(0)
    args = [random_element(blocks, rng, max_degree=1, nterms=1)
            for _ in range(n)]
    assert e_block_sum(blocks, args) == right_chain_sum(chains, args)
    assert 0 < blocks.star_calls <= bound
    assert 0 < chains.right_calls <= bound
