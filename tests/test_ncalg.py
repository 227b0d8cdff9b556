"""Basis keys, sparse linear combinations, and truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dendralg import (
    Elem, NormalizationError, Perm, Series, SortMismatch, Word,
    InvalidPermutation, multilinear_part, parse_word_elem, series_inverse,
    series_mul,
)
from dendralg.hopf import COMP_SORT, concat_mul
from dendralg.ncalg import WORD_SORT


def w(*letters):
    return Word(letters)


def x(*letters):
    return Elem.term(WORD_SORT, Word(letters))


class TestWord:
    def test_concat(self):
        assert w(1, 2) + w(3) == w(1, 2, 3)
        assert w() + w(1) == w(1)
        assert len(w(1, 2, 3)) == 3
        assert list(w(2, 1)) == [2, 1]
        assert w(1, 2)[1] == 2

    def test_length_lex_order(self):
        """The word sort lists shorter words first and equal lengths left
        to right."""
        e = Elem(WORD_SORT, {w(2, 1): 1, w(3): 1, w(1): 1, w(1, 2): 1})
        assert e.support() == [w(1), w(3), w(1, 2), w(2, 1)]

    def test_render(self):
        assert str(w(1, 2, 10)) == "x1.x2.x10"
        assert str(w()) == "1"

    def test_immutable_and_hashable(self):
        word = w(1, 2)
        with pytest.raises(AttributeError):
            word.letters = (3,)
        assert hash(w(1, 2)) == hash(w(1, 2))
        assert w(1, 2) != w(2, 1)

    @pytest.mark.parametrize("letters", [(0,), (1, -2), (True, 2), (1.0,),
                                         ("1",)])
    def test_rejects_letters_that_are_not_positive_ints(self, letters):
        """Only a plain int is a letter: a bool or a float would render as
        xTrue or x1.0."""
        with pytest.raises(ValueError):
            Word(letters)


class TestPerm:
    def test_basics(self):
        p = Perm((3, 1, 2))
        assert p.n == 3
        assert [p(i) for i in (1, 2, 3)] == [3, 1, 2]
        assert p.inverse() == Perm((2, 3, 1))
        assert p.as_word() == w(3, 1, 2)

    def test_compose(self):
        p, q = Perm((2, 1, 3)), Perm((3, 1, 2))
        pq = p.compose(q)
        assert all(pq(i) == p(q(i)) for i in (1, 2, 3))

    def test_inverse_roundtrip(self):
        p = Perm((4, 2, 1, 5, 3))
        identity = Perm((1, 2, 3, 4, 5))
        assert p.compose(p.inverse()) == identity
        assert p.inverse().compose(p) == identity

    @pytest.mark.parametrize("image", [(1, 3), (2, 2), (0, 1)])
    def test_rejects_non_permutations(self, image):
        with pytest.raises(InvalidPermutation):
            Perm(image)

    @pytest.mark.parametrize("image", [(1.0, 2.0), (True, 2), (2, True)])
    def test_rejects_entries_that_are_not_ints(self, image):
        """Equal to 1..n is not enough: a float or bool entry would render
        as p1.0.2.0 or pTrue.2."""
        with pytest.raises(InvalidPermutation):
            Perm(image)

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_rejects_points_outside_its_domain(self, i):
        with pytest.raises(IndexError):
            Perm((3, 1, 2))(i)


class TestElem:
    def test_duplicate_keys_are_summed(self):
        e = Elem(WORD_SORT, [(w(1), Fraction(2)), (w(1), Fraction(3))])
        assert e.coeff(w(1)) == 5

    def test_zero_coefficients_are_dropped(self):
        e = Elem(WORD_SORT, [(w(1), 1), (w(1), -1), (w(2), 2)])
        assert e.coeff(w(1)) == 0
        assert e.support() == [w(2)]
        assert len(e) == 1
        assert Elem(WORD_SORT, [(w(1), 1), (w(1), -1)]).is_zero()

    def test_truthiness(self):
        assert not Elem.zero(WORD_SORT)
        assert x(1)
        assert Elem.unit(WORD_SORT)

    def test_arithmetic(self):
        e = x(1) + x(2).scale(3) - x(1)
        assert e == 3 * x(2)
        assert -e == x(2).scale(-3)
        assert e / 3 == x(2)
        assert Fraction(1, 2) * x(1) == x(1).scale(Fraction(1, 2))

    def test_unit_handling(self):
        e = Elem.unit(WORD_SORT).scale(2) + x(1)
        assert e.unit_coeff == 2
        assert e.without_unit() == x(1)
        assert not e.is_unit_free()
        assert x(1).is_unit_free()

    def test_sort_mismatch(self):
        comp = Elem.term(COMP_SORT, (2,))
        with pytest.raises(SortMismatch):
            x(1) + comp

    @pytest.mark.parametrize("terms", [
        [(Perm((1,)), 1)],
        [(Perm((1,)), 0)],
        [("junk", 0), (w(1), 1)],
    ], ids=["foreign", "foreign-zero", "junk-zero"])
    def test_every_key_is_checked(self, terms):
        """A foreign key is refused whatever its coefficient."""
        with pytest.raises(SortMismatch):
            Elem(WORD_SORT, terms)

    def test_repeated_keys_sum_to_canonical_scalars(self):
        """Terms of one key are added exactly and stored canonically."""
        e = Elem(WORD_SORT, [(w(1), Fraction(1, 2))] * 2)
        assert e.coeff(w(1)) == 1 and type(e.coeff(w(1))) is int
        assert Elem(WORD_SORT, [(w(1), 1), (w(2), 3), (w(1), -1)]) == 3 * x(2)
        assert not Elem(WORD_SORT, [(w(1), 1), (w(1), -1)])._terms

    def test_coefficient_is_checked_before_key(self):
        with pytest.raises(TypeError):
            Elem(WORD_SORT, [("junk", 0.5)])

    def test_immutable(self):
        e = x(1)
        with pytest.raises(AttributeError):
            e.sort = COMP_SORT

    def test_map_keys_merges_collisions(self):
        e = x(1, 2) - x(2, 1)
        flattened = e.map_keys(
            lambda word: Elem.term(WORD_SORT, Word(sorted(word))))
        assert flattened.is_zero()


class TestRender:
    def test_plain(self):
        assert (x(1, 2) - x(2, 1)).render() == "x1.x2 - x2.x1"
        assert x(1).scale(Fraction(3, 2)).render() == "3/2*x1"
        assert (-x(1)).render() == "-x1"
        assert Elem.zero(WORD_SORT).render() == "0"
        assert Elem.unit(WORD_SORT).render() == "1"

    def test_truncation(self):
        e = x(1) + x(2) + x(3) + x(4)
        assert e.render(max_terms=2).endswith(" + 2 more")

    def test_parse_roundtrip(self):
        e = x(1, 2).scale(Fraction(-5, 3)) + x(7) + Elem.unit(WORD_SORT)
        assert parse_word_elem(e.render()) == e

    def test_parse_typographic_variants(self):
        assert parse_word_elem("x1.x2 − x2.x1") == x(1, 2) - x(2, 1)
        assert parse_word_elem("3/2·x1") == x(1).scale(Fraction(3, 2))
        assert parse_word_elem("0") == Elem.zero(WORD_SORT)
        assert parse_word_elem("") == Elem.zero(WORD_SORT)

    @pytest.mark.parametrize("bad", ["x", "x1..x2", "2*", "x1 +", "y3"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_word_elem(bad)


@given(st.lists(
    st.tuples(
        st.lists(st.integers(min_value=1, max_value=9), max_size=4),
        st.fractions(max_denominator=12)),
    max_size=6))
def test_render_parse_is_identity(terms):
    e = Elem(WORD_SORT, [(Word(tuple(ls)), c) for ls, c in terms])
    assert parse_word_elem(e.render()) == e


def test_multilinear_part():
    e = x(1, 2, 3) + x(1, 2, 1).scale(4) + x(2, 2)
    assert multilinear_part(e) == x(1, 2, 3)
    with pytest.raises(SortMismatch):
        multilinear_part(Elem.term(COMP_SORT, (1,)))


class TestSeries:
    def test_constructors(self):
        z = Series.zero(WORD_SORT, 3)
        assert z.cap == 3 and all(z.coeff(n).is_zero() for n in range(4))
        u = Series.unit(WORD_SORT, 2)
        assert u.coeff(0) == Elem.unit(WORD_SORT) and u.coeff(1).is_zero()

    def test_coeff_beyond_cap_raises(self):
        with pytest.raises(IndexError):
            Series.zero(WORD_SORT, 2).coeff(3)

    def test_binop_keeps_smaller_cap(self):
        f = Series(WORD_SORT, [x(1)] * 4, 3)
        g = Series(WORD_SORT, [x(2)] * 3, 2)
        assert (f + g).cap == 2
        assert (f - g).coeff(1) == x(1) - x(2)

    def test_shift_and_derivative(self):
        f = Series(WORD_SORT, [Elem.unit(WORD_SORT), x(1), x(2)], 2)
        shifted = f.shift()
        assert shifted.coeff(0).is_zero() and shifted.coeff(1) == Elem.unit(WORD_SORT)
        # t d/dt multiplies the degree-n coefficient by n
        d = f.t_derivative()
        assert d.coeff(0).is_zero()
        assert d.coeff(1) == x(1)
        assert d.coeff(2) == x(2).scale(2)

    def test_truncate_agrees_first_difference(self):
        f = Series(WORD_SORT, [x(1), x(2), x(3)], 2)
        g = f.truncate(1)
        assert g.cap == 1 and f.agrees(g)
        h = Series(WORD_SORT, [x(1), x(9), x(3)], 2)
        assert f.first_difference(h) == 1
        assert f.first_difference(f) is None
        with pytest.raises(SortMismatch):
            f.agrees(Series.zero(COMP_SORT, 2))

    def test_cauchy_product(self):
        f = Series(WORD_SORT, [Elem.unit(WORD_SORT), x(1)], 1)
        g = Series(WORD_SORT, [Elem.unit(WORD_SORT), x(2)], 1)
        prod = series_mul(f, g, concat_mul)
        assert prod.coeff(0) == Elem.unit(WORD_SORT)
        assert prod.coeff(1) == x(1) + x(2)

    def test_geometric_inverse(self):
        """(1 - t x1)^{-1} has concatenation powers as coefficients."""
        f = Series(WORD_SORT, [Elem.unit(WORD_SORT), -x(1), Elem.zero(WORD_SORT),
                               Elem.zero(WORD_SORT)], 3)
        inv = series_inverse(f, concat_mul)
        for n in range(4):
            assert inv.coeff(n) == Elem.term(WORD_SORT, Word((1,) * n))
        assert series_mul(f, inv, concat_mul) == Series.unit(WORD_SORT, 3)

    def test_inverse_needs_constant_one(self):
        with pytest.raises(NormalizationError):
            series_inverse(Series.zero(WORD_SORT, 2), concat_mul)
