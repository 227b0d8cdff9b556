"""Dynkin operator, composition Hopf algebra, and convolution identities."""

import functools
import itertools
from fractions import Fraction

import pytest

from dendralg import (
    Elem, EmptyWord, NormalizationError, Series, SortMismatch, Word,
    comp_antipode, comp_coproduct, comp_denominator, comp_dynkin, compositions,
    convolution_expansion, dynkin_w, dynkin_word, ell, gamma,
    ordered_partition_expansion, w_antipode, w_left, w_left_from_compositions,
    w_right, w_right_from_compositions,
)
from dendralg.hopf import (
    COMP_SORT, _dynkin_convolution, comp_dynkin_apply, comp_elem,
    comp_grading, comp_mul, concat_mul, eval_comp,
)
from dendralg.magnus import power_sum_series, prelie_word_series
from dendralg.ncalg import WORD_SORT, _words, elem_sum


def x(*letters):
    return Elem.term(WORD_SORT, Word(letters))


def word(n):
    return x(*range(1, n + 1))


# ---------------------------------------------------------------------------
# word-level Dynkin operator
# ---------------------------------------------------------------------------

class TestDynkinWord:
    def test_hand_values(self):
        assert dynkin_word(Word((1,))) == x(1)
        assert dynkin_word(Word((1, 2))) == x(1, 2) - x(2, 1)
        assert dynkin_word(Word((1, 2, 3))) == \
            x(1, 2, 3) - x(2, 1, 3) - x(3, 1, 2) + x(3, 2, 1)

    def test_linear_extension(self):
        e = x(1, 2) - 3 * x(2, 1)
        assert dynkin_word(e) == dynkin_word(Word((1, 2))) \
            - 3 * dynkin_word(Word((2, 1)))

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWord):
            dynkin_word(Word(()))

    @pytest.mark.parametrize("letters", [
        (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5),
        (2, 1, 2), (3, 3, 1, 2),
    ])
    def test_quasi_idempotence(self, letters):
        """Applying the operator twice multiplies by the word length."""
        d = dynkin_word(Word(letters))
        assert dynkin_word(d) == len(letters) * d

    def test_concat_mul(self):
        assert concat_mul(x(1) + x(2), x(3)) == x(1, 3) + x(2, 3)
        assert concat_mul(Elem.unit(WORD_SORT), x(1)) == x(1)


def iterated_bracket(letters) -> Elem:
    """[...[y1,y2],...,yn] rebuilt by n-1 rounds of concat_mul."""
    acc = x(letters[0])
    for a in letters[1:]:
        acc = concat_mul(acc, x(a)) - concat_mul(x(a), acc)
    return acc


def words_over(alphabet, length):
    return itertools.product(alphabet, repeat=length)


class TestDynkinClosedForm:
    """The closed form against the bracket built by concatenations."""

    @pytest.mark.parametrize("length", range(1, 7))
    def test_every_word_over_three_letters(self, length):
        # repeated letters make equal words, which must be collected
        for letters in words_over((1, 2, 3), length):
            assert dynkin_word(Word(letters)) == iterated_bracket(letters), \
                letters

    def test_word_element_input(self):
        e = 2 * x(1, 2, 1) - x(3, 3) + Fraction(1, 2) * x(2, 3, 1, 1)
        expected = (2 * iterated_bracket((1, 2, 1)) - iterated_bracket((3, 3))
                    + Fraction(1, 2) * iterated_bracket((2, 3, 1, 1)))
        assert dynkin_word(e) == expected

    def test_empty_word_still_rejected(self):
        with pytest.raises(EmptyWord):
            dynkin_word(Word(()))


# ---------------------------------------------------------------------------
# convolution of the graded Dynkin pieces
# ---------------------------------------------------------------------------

def convolution(comp, letters) -> Elem:
    """(D_{i1} * ... * D_{ik})(letters) by the package's recursion."""
    return _words(_dynkin_convolution(comp, letters))


class TestConvolution:
    def test_two_letter_identity_by_hand(self):
        """Half the degree map plus half the square of the projection."""
        d2, d1d1 = convolution((2,), (1, 2)), convolution((1, 1), (1, 2))
        assert d2 == x(1, 2) - x(2, 1)
        assert d1d1 == x(1, 2) + x(2, 1)
        assert d2 / 2 + d1d1 / 2 == word(2)
        assert convolution_expansion(2) == word(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_composition_weighted_expansion(self, n):
        assert convolution_expansion(n) == word(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ordered_partition_expansion(self, n):
        assert ordered_partition_expansion(n) == word(n)


def full_convolution(f, g):
    """(f * g)(w) over all 2^n position subsets, ignoring any degree."""
    @functools.cache
    def fn(w: Word) -> Elem:
        n, parts = len(w), []
        for mask in range(2 ** n):
            fl = f(Word(w[i] for i in range(n) if mask >> i & 1))
            if fl:
                parts.append(concat_mul(
                    fl, g(Word(w[i] for i in range(n) if not mask >> i & 1))))
        return elem_sum(WORD_SORT, parts)
    return fn


def _unit(w: Word) -> Elem:
    """Unit after counit: the empty word to itself, every other to zero."""
    return Elem.zero(WORD_SORT) if len(w) else Elem.unit(WORD_SORT)


@functools.cache
def reference_convolution(comp: tuple):
    """D_{i1} * ... * D_{ik} folded from the unit by full_convolution, D_i
    being dynkin_word on words of length i and zero elsewhere."""
    if not comp:
        return _unit
    i = comp[-1]
    return full_convolution(
        reference_convolution(comp[:-1]),
        lambda w: dynkin_word(w) if len(w) == i else Elem.zero(WORD_SORT))


# every word over {1, 2} of each length up to 6, then x1...x6
WORD_SETS = [list(words_over((1, 2), n)) for n in range(7)] \
    + [[tuple(range(1, 7))]]


class TestDegreeAwareConvolution:
    """The recursion tries only the subsets of each factor's size; the
    reference tries them all, so off-degree words must come out zero too."""

    @pytest.mark.parametrize("words", WORD_SETS,
                             ids=[str(i) for i in range(len(WORD_SETS))])
    def test_matches_full_enumeration(self, words):
        for comp in (c for n in range(6) for c in compositions(n)):
            reference = reference_convolution(comp)
            for letters in words:
                assert convolution(comp, letters) == \
                    reference(Word(letters)), (comp, letters)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

class TestCompositions:
    def test_enumeration(self):
        assert compositions(0) == [()]
        assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        for n in range(1, 8):
            comps = compositions(n)
            assert len(comps) == 2 ** (n - 1)
            assert all(sum(c) == n for c in comps)
            assert comps == sorted(comps)

    def test_denominators(self):
        assert comp_denominator((3,)) == 3
        assert comp_denominator((1, 2)) == 3
        assert comp_denominator((2, 1)) == 6
        assert comp_denominator((1, 1, 1)) == 6
        assert comp_denominator(()) == 1

    def test_weighted_counts_sum_to_one(self):
        # the expansion coefficients 1/denominator add up to 1 in each degree
        for n in range(1, 7):
            assert sum(Fraction(1, comp_denominator(c))
                       for c in compositions(n)) == 1

    def test_key_validation(self):
        with pytest.raises(SortMismatch):
            comp_elem(0)
        with pytest.raises(SortMismatch):
            Elem.term(COMP_SORT, (1, -2))


class TestCompHopf:
    def test_generator_coproduct(self):
        assert comp_coproduct(comp_elem(2)) == {
            ((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1}

    def test_coproduct_is_multiplicative(self):
        assert comp_coproduct(comp_elem(1, 1)) == {
            ((), (1, 1)): 1, ((1,), (1,)): 2, ((1, 1), ()): 1}

    def test_generator_coproduct_is_cocommutative(self):
        for n in range(1, 6):
            delta = comp_coproduct(comp_elem(n))
            assert delta == {(b, a): c for (a, b), c in delta.items()}

    def test_antipode_hand_values(self):
        assert comp_antipode(comp_elem(1)) == -comp_elem(1)
        assert comp_antipode(comp_elem(2)) == -comp_elem(2) + comp_elem(1, 1)
        assert comp_antipode(comp_elem(1, 1)) == comp_elem(1, 1)

    def test_antipode_is_an_anti_morphism(self):
        for a, b in [((2,), (1,)), ((1, 2), (3,)), ((2, 2), (1, 1))]:
            lhs = comp_antipode(comp_elem(*(a + b)))
            rhs = comp_mul(comp_antipode(comp_elem(*b)),
                           comp_antipode(comp_elem(*a)))
            assert lhs == rhs

    @pytest.mark.parametrize("key", [(1,), (3,), (1, 2), (2, 1), (1, 1, 2)])
    def test_antipode_counit_axiom(self, key):
        """sum S(x') x'' vanishes on every nonempty composition."""
        acc = Elem(COMP_SORT)
        for (left, right), c in comp_coproduct(comp_elem(*key)).items():
            acc = acc + comp_mul(comp_antipode(comp_elem(*left)),
                                 comp_elem(*right)).scale(c)
        assert acc.is_zero()

    def test_antipode_on_unit(self):
        one = Elem.unit(COMP_SORT)
        assert comp_antipode(one) == one

    def test_grading_operator(self):
        assert comp_grading(comp_elem(2, 1)) == comp_elem(2, 1).scale(3)

    def test_dynkin_hand_value(self):
        assert comp_dynkin(1) == comp_elem(1)
        assert comp_dynkin(2) == 2 * comp_elem(2) - comp_elem(1, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dynkin_quasi_idempotence(self, n):
        d = comp_dynkin(n)
        assert comp_dynkin_apply(d) == n * d

    def test_power_sum_coproduct(self):
        assert comp_coproduct((3,)) == {
            ((), (3,)): 1, ((1,), (2,)): 1, ((2,), (1,)): 1, ((3,), ()): 1}


# ---------------------------------------------------------------------------
# evaluation in a structure
# ---------------------------------------------------------------------------

class TestEvalComp:
    def test_composition_becomes_power_sum_product(self, shuffle):
        a = x(1) + x(2)
        lhs = eval_comp(shuffle, a, (2, 1))
        rhs = shuffle.star(w_right(shuffle, a, 2), w_right(shuffle, a, 1))
        assert lhs == rhs

    def test_linear(self, shuffle):
        a = x(1)
        e = comp_elem(2) - 3 * comp_elem(1, 1)
        assert eval_comp(shuffle, a, e) == \
            w_right(shuffle, a, 2) - 3 * shuffle.star(a, a)

    def test_empty_composition_is_unit(self, shuffle):
        assert eval_comp(shuffle, x(1), ()) == shuffle.unit()


class TestDynkinInStructures:
    @pytest.mark.parametrize("fixture", ["shuffle", "maxs", "free", "rb_poly"])
    def test_hopf_route_equals_iterated_prelie(self, fixture, request):
        """The coalgebra computation lands on the left-nested pre-Lie word."""
        S = request.getfixturevalue(fixture)
        a = S.generator()
        for n in range(1, 5):
            assert dynkin_w(S, a, n) == ell(S, *([a] * n))

    @pytest.mark.parametrize("fixture", ["shuffle", "free"])
    def test_antipode_of_power_sum(self, fixture, request):
        S = request.getfixturevalue(fixture)
        a = S.generator()
        for n in range(6):
            assert w_antipode(S, a, n) == (-1) ** n * w_left(S, a, n)

    def test_antipode_recursion(self, free):
        a = free.generator()
        prev = -a
        for n in range(2, 6):
            cur = -free.left(a, prev)
            assert w_antipode(free, a, n) == cur
            prev = cur


class TestGamma:
    @pytest.mark.parametrize("fixture", ["shuffle", "free", "rb_seq"])
    def test_inverts_dynkin_on_the_power_sum_series(self, fixture, request):
        S = request.getfixturevalue(fixture)
        a = S.generator()
        cap = 4
        prelie = prelie_word_series(S, a, cap)
        assert gamma(S, prelie) == power_sum_series(S, a, cap)

    def test_needs_zero_constant_term(self, shuffle):
        h = Series.unit(WORD_SORT, 3)
        with pytest.raises(NormalizationError):
            gamma(shuffle, h)

    def test_sort_mismatch(self, mr):
        with pytest.raises(SortMismatch):
            gamma(mr, Series.zero(WORD_SORT, 2))


class TestCompositionExpansions:
    @pytest.mark.parametrize("fixture", ["shuffle", "maxs", "mr", "free",
                                         "rb_seq", "rb_poly"])
    def test_both_expansions(self, fixture, request):
        S = request.getfixturevalue(fixture)
        a = S.generator()
        for n in range(6):
            assert w_right_from_compositions(S, a, n) == w_right(S, a, n)
            assert w_left_from_compositions(S, a, n) == w_left(S, a, n)

    def test_two_step_case_by_hand(self, free):
        """w>(2) = l(2)/2 + l(1)*l(1)/2."""
        a = free.generator()
        l1, l2 = ell(free, a), ell(free, a, a)
        assert w_right(free, a, 2) == l2 / 2 + free.star(l1, l1) / 2
