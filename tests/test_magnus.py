"""Bernoulli recursion, star exponentials, and the logarithm of the flow."""

from fractions import Fraction

import pytest

from dendralg import (
    NormalizationError, Series, bernoulli_numbers, dynkin_ode_check, ell,
    lie_bracket, magnus_omega, power_sum_series, star_exp, star_log, w_right,
)
from dendralg.magnus import prelie_word_series
from test_mutants import MUTANTS


def test_bernoulli_values():
    b = bernoulli_numbers(8)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[5] == 0
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)
    # power-sum check: sum of B_j * C(n+1, j) telescopes to n+1 at B_0 only
    for n in range(1, 8):
        import math
        assert sum(math.comb(n + 1, j) * b[j] for j in range(n + 1)) == 0


class TestStarExpLog:
    def test_roundtrip(self, free):
        g = free.generator()
        h = Series(free.sort, [free.zero(), g, free.star(g, g), g], 3)
        assert star_log(free, star_exp(free, h)) == h
        y = Series(free.sort, [free.unit(), free.zero(), g, free.star(g, g)], 3)
        assert star_exp(free, star_log(free, y)) == y

    def test_exponential_of_primitive_element(self, shuffle):
        from dendralg import Elem, Word
        a = shuffle.elem(Word((1,)))
        h = Series(shuffle.sort, [shuffle.zero(), a, shuffle.zero(),
                                  shuffle.zero()], 3)
        y = star_exp(shuffle, h)
        # shuffle powers of a letter: a*a = 2aa, a*a*a = 6aaa, so /k! cancels
        assert y.coeff(2) == Elem.term(shuffle.sort, Word((1, 1)))
        assert y.coeff(3) == Elem.term(shuffle.sort, Word((1, 1, 1)))

    def test_exp_rejects_nonzero_constant(self, free):
        with pytest.raises(NormalizationError):
            star_exp(free, Series.unit(free.sort, 2))

    def test_log_rejects_constant_other_than_one(self, free):
        with pytest.raises(NormalizationError):
            star_log(free, Series.zero(free.sort, 2))


class TestSeriesBuilders:
    def test_power_sum_series_coefficients(self, free):
        a = free.generator()
        y = power_sum_series(free, a, 4)
        assert y.coeff(0) == free.unit()
        for n in range(5):
            assert y.coeff(n) == w_right(free, a, n)

    def test_prelie_word_series_coefficients(self, free):
        a = free.generator()
        tl = prelie_word_series(free, a, 4)
        assert tl.coeff(0).is_zero()
        for n in range(1, 5):
            assert tl.coeff(n) == ell(free, *([a] * n))


class TestMagnus:
    @pytest.mark.parametrize("fixture", ["free", "rb_seq", "shuffle"])
    def test_first_three_coefficients(self, fixture, request):
        S = request.getfixturevalue(fixture)
        a = S.generator()
        om = magnus_omega(S, a, 3)
        l1 = a
        l2 = ell(S, a, a)
        l3 = ell(S, a, a, a)
        assert om.coeff(1) == l1
        assert om.coeff(2) == l2 / 2
        assert om.coeff(3) == l3 / 3 + lie_bracket(S, l1, l2) / 12

    def test_brackets_matter_in_degree_three(self, free):
        """The 1/12 correction is nonzero for the free generator."""
        a = free.generator()
        assert not lie_bracket(free, a, ell(free, a, a)).is_zero()

    @pytest.mark.parametrize("fixture", ["free", "rb_seq", "rb_poly"])
    def test_exponential_recovers_the_power_sum_series(self, fixture, request):
        S = request.getfixturevalue(fixture)
        a = S.generator()
        cap = 5
        om = magnus_omega(S, a, cap)
        assert star_exp(S, om) == power_sum_series(S, a, cap)

    @pytest.mark.parametrize("fixture", ["free", "shuffle"])
    def test_logarithm_inverts(self, fixture, request):
        S = request.getfixturevalue(fixture)
        a = S.generator()
        cap = 5
        assert star_log(S, power_sum_series(S, a, cap)) == \
            magnus_omega(S, a, cap)


@pytest.mark.parametrize("fixture", ["shuffle", "free", "rb_poly"])
def test_flow_equation(fixture, request):
    """t dY/dt = Y * (Dynkin of Y)."""
    S = request.getfixturevalue(fixture)
    a = S.generator()
    assert dynkin_ode_check(S, a, 5)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_flow_equation_alone_fails_every_mutant(mutant):
    """The one equation dynkin_ode_check tests is strong enough by itself:
    at cap 4 it fails every mutant of the mutation test.  (At cap 3 the
    one-entry mutant passes, as its wrong entry has degree 4.)"""
    S = MUTANTS[mutant]()
    assert not dynkin_ode_check(S, S.generator(), 4)
