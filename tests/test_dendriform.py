"""Half-product conventions, pre-Lie derivations, power sums, opposites,
and the axiom self-test against a naive reference."""

import itertools

import pytest

from dendralg import (
    STANDARD_SELECTORS, AxiomCheckFailure, Elem, EmptyArgumentList,
    MaxStructure, RBStructure, ShuffleStructure, SortMismatch, UnitMisuse,
    Word, ell, from_selector, lie_bracket, opposite, prelie_left,
    prelie_right, r, w_left, w_right,
)
from dendralg.structures import SeqMatBackend


def letters(S, n):
    return [S.elem(Word((i,))) for i in range(1, n + 1)]


def samples(S):
    """A few unit-free elements of the structure with mixed coefficients."""
    a, b, c = [S.elem(k) for k in list(S.basis_keys(2))[:3]]
    return [a, a + 2 * b, S.left(a, b) - c, S.star(a, S.star(b, c))]


class TestUnitConventions:
    def test_star_is_unital(self, shuffle):
        one = shuffle.unit()
        a = shuffle.elem(Word((1,))) + 3 * shuffle.elem(Word((2, 1)))
        assert shuffle.star(a, one) == a
        assert shuffle.star(one, a) == a
        assert shuffle.star(one, one) == one

    def test_star_splits_mixed_operands(self, shuffle):
        a, b, _ = letters(shuffle, 3)
        one = shuffle.unit()
        # (1 + a)(1 + b) = 1 + a + b + a*b
        lhs = shuffle.star(one + a, one + b)
        assert lhs == one + a + b + shuffle.star(a, b)

    def test_half_products_reject_unit_components(self, shuffle):
        a = shuffle.elem(Word((1,)))
        one = shuffle.unit()
        for op in (shuffle.left, shuffle.right):
            with pytest.raises(UnitMisuse):
                op(a, one)
            with pytest.raises(UnitMisuse):
                op(one, a)
            with pytest.raises(UnitMisuse):
                op(a + one, a)

    def test_operand_validation(self, shuffle, mr):
        from dendralg import Perm
        with pytest.raises(SortMismatch):
            shuffle.left(shuffle.elem(Word((1,))), mr.elem(Perm((1,))))
        with pytest.raises(TypeError):
            shuffle.star(shuffle.elem(Word((1,))), 7)


class TestDerivedProducts:
    def test_star_is_sum_of_halves(self, shuffle):
        for a, b in itertools.product(samples(shuffle), repeat=2):
            assert shuffle.star(a, b) == shuffle.left(a, b) + shuffle.right(a, b)

    def test_prelie_definitions(self, shuffle):
        a, b = samples(shuffle)[1], samples(shuffle)[2]
        assert prelie_left(shuffle, a, b) == \
            shuffle.right(a, b) - shuffle.left(b, a)
        assert prelie_right(shuffle, a, b) == \
            shuffle.left(a, b) - shuffle.right(b, a)

    def test_right_prelie_is_flipped_left(self, shuffle):
        for a, b in itertools.product(samples(shuffle), repeat=2):
            assert prelie_right(shuffle, a, b) == -prelie_left(shuffle, b, a)

    def test_bracket_three_ways(self, shuffle):
        """a*b - b*a equals the antisymmetrization of either pre-Lie product."""
        for a, b in itertools.product(samples(shuffle), repeat=2):
            br = lie_bracket(shuffle, a, b)
            assert br == shuffle.star(a, b) - shuffle.star(b, a)
            assert br == prelie_left(shuffle, a, b) - prelie_left(shuffle, b, a)
            assert br == prelie_right(shuffle, a, b) - prelie_right(shuffle, b, a)


class TestPreLieLaws:
    """Associator symmetries that make the derived products pre-Lie."""

    @pytest.mark.parametrize("fixture", ["shuffle", "free", "rb_seq"])
    def test_left_prelie_law(self, fixture, request):
        S = request.getfixturevalue(fixture)
        def pl(u, v):
            return prelie_left(S, u, v)
        for a, b, c in itertools.permutations(samples(S)[:3], 3):
            lhs = pl(pl(a, b), c) - pl(a, pl(b, c))
            rhs = pl(pl(b, a), c) - pl(b, pl(a, c))
            assert lhs == rhs

    @pytest.mark.parametrize("fixture", ["shuffle", "free", "rb_seq"])
    def test_right_prelie_law(self, fixture, request):
        S = request.getfixturevalue(fixture)
        def pr(u, v):
            return prelie_right(S, u, v)
        for a, b, c in itertools.permutations(samples(S)[:3], 3):
            lhs = pr(a, pr(b, c)) - pr(pr(a, b), c)
            rhs = pr(a, pr(c, b)) - pr(pr(a, c), b)
            assert lhs == rhs

    def test_jacobi(self, shuffle):
        a, b, c = samples(shuffle)[:3]
        def br(u, v):
            return lie_bracket(shuffle, u, v)
        assert (br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))).is_zero()


class TestPowerSums:
    def test_left_recursion(self, shuffle):
        a = shuffle.elem(Word((1,))) + shuffle.elem(Word((2,)))
        assert w_left(shuffle, a, 0) == shuffle.unit()
        assert w_left(shuffle, a, 1) == a
        for n in range(2, 5):
            assert w_left(shuffle, a, n) == shuffle.left(a, w_left(shuffle, a, n - 1))

    def test_right_recursion(self, shuffle):
        a = shuffle.elem(Word((1,))) + shuffle.elem(Word((2,)))
        assert w_right(shuffle, a, 0) == shuffle.unit()
        for n in range(2, 5):
            assert w_right(shuffle, a, n) == \
                shuffle.right(w_right(shuffle, a, n - 1), a)

    def test_shuffle_right_power_is_one_word(self, shuffle):
        # iterating x1 under > just appends: w>(n)(x1) = x1...x1
        a = shuffle.elem(Word((1,)))
        assert w_right(shuffle, a, 4) == shuffle.elem(Word((1, 1, 1, 1)))

    def test_rejects_bad_input(self, shuffle):
        a = shuffle.elem(Word((1,)))
        with pytest.raises(ValueError):
            w_right(shuffle, a, -1)
        with pytest.raises(UnitMisuse):
            w_right(shuffle, a + shuffle.unit(), 2)
        with pytest.raises(UnitMisuse):
            w_left(shuffle, shuffle.unit(), 1)


class TestIteratedPreLie:
    def test_nestings(self, free):
        a, b, c = samples(free)[:3]
        assert ell(free, a) == a
        assert ell(free, a, b, c) == \
            prelie_left(free, prelie_left(free, a, b), c)
        assert r(free, a, b, c) == \
            prelie_right(free, a, prelie_right(free, b, c))

    def test_equal_arguments_sign_flip(self, free):
        """On n copies of one element the two nestings agree up to (-1)^(n-1)."""
        a = free.generator() + free.star(free.generator(), free.generator())
        for n in range(1, 5):
            args = [a] * n
            assert ell(free, *args) == (-1) ** (n - 1) * r(free, *args)

    def test_empty_argument_list(self, free):
        with pytest.raises(EmptyArgumentList):
            ell(free)
        with pytest.raises(EmptyArgumentList):
            r(free)


class TestOpposite:
    def test_involution(self, shuffle):
        assert opposite(opposite(shuffle)) is shuffle

    def test_axioms_hold(self, shuffle):
        assert opposite(shuffle).self_test(3) > 0

    def test_same_prelie_products(self, shuffle):
        op = opposite(shuffle)
        for a, b in itertools.product(samples(shuffle)[:3], repeat=2):
            assert prelie_left(op, a, b) == prelie_left(shuffle, a, b)
            assert prelie_right(op, a, b) == prelie_right(shuffle, a, b)

    def test_star_is_reversed_and_negated(self, shuffle):
        op = opposite(shuffle)
        a, b = samples(shuffle)[:2]
        assert op.star(a, b) == -shuffle.star(b, a)


class _BrokenShuffle(ShuffleStructure):
    """Concatenation posing as the left half-product; the axioms must object."""

    def basis_left(self, w1, w2):
        return Elem.term(self.sort, w1 + w2)


def test_axiom_failure_is_reported():
    broken = _BrokenShuffle(2)
    with pytest.raises(AxiomCheckFailure) as info:
        broken.self_test(3)
    exc = info.value
    assert exc.axiom
    assert len(exc.keys) == 3
    assert exc.lhs != exc.rhs


# ---------------------------------------------------------------------------
# self_test against a naive reference
# ---------------------------------------------------------------------------

def _reference_self_test(S, max_degree):
    """The three axioms on every admissible triple, ten element products each.

    An independent restatement of `DendriformStructure.self_test` through the
    public half-products: returns the triple count, or the first failure as
    (label, key triple, lhs, rhs) with both sides rendered as self_test does.
    """
    keys = list(S.basis_keys(max_degree))
    triples = ((ka, kb, kc) for ka in keys for kb in keys
               if S.degree(ka) + S.degree(kb) <= max_degree
               for kc in keys
               if S.degree(ka) + S.degree(kb) + S.degree(kc) <= max_degree)
    checked = 0
    for ka, kb, kc in triples:
        a, b, c = S.elem(ka), S.elem(kb), S.elem(kc)
        sides = (
            ("(a<b)<c = a<(b*c)", S.left(S.left(a, b), c),
             S.left(a, S.star(b, c))),
            ("(a>b)<c = a>(b<c)", S.left(S.right(a, b), c),
             S.right(a, S.left(b, c))),
            ("a>(b>c) = (a*b)>c", S.right(a, S.right(b, c)),
             S.right(S.star(a, b), c)),
        )
        for label, lhs, rhs in sides:
            if lhs != rhs:
                return (label, (ka, kb, kc), lhs.render(max_terms=10),
                        rhs.render(max_terms=10))
        checked += 1
    return checked


class _DroppedTermShuffle(ShuffleStructure):
    """A half-shuffle that loses its last term whenever it has two or more
    and both words have at least `shortest` letters."""

    def __init__(self, alphabet, shortest=1):
        super().__init__(alphabet)
        self.shortest = shortest

    def basis_left(self, w1, w2):
        terms = super().basis_left(w1, w2).items()
        if len(terms) > 1 and min(len(w1), len(w2)) >= self.shortest:
            terms = terms[:-1]
        return Elem(self.sort, terms)


class _TiesRightMax(MaxStructure):
    """max with ties sent right as well, so a tie lands in both halves.

    (Ties sent only right would give another dendriform structure.)
    """

    def basis_right(self, w1, w2):
        if self._top(w1) <= self._top(w2):
            return Elem.term(self.sort, w1 + w2)
        return Elem.zero(self.sort)


class _InclusiveSeqMat(SeqMatBackend):
    """Partial sums over m <= n: an operator of weight -theta, not theta."""

    def r_key(self, key):
        p, i, j = key
        return tuple(((q, i, j), self.theta) for q in range(p, self.N + 1))


BROKEN = {
    "shuffle-dropped-term": lambda: _DroppedTermShuffle(3),
    "shuffle-late-drop": lambda: _DroppedTermShuffle(3, shortest=2),
    "max-ties-right": lambda: _TiesRightMax(3),
    "opposite-of-broken": lambda: opposite(_DroppedTermShuffle(3)),
    "rb-seqmat-inclusive": lambda: RBStructure(
        _InclusiveSeqMat(1, 2, 3), check=False),
}


@pytest.mark.parametrize("name", BROKEN)
def test_self_test_reports_the_reference_first_failure(name):
    expected = _reference_self_test(BROKEN[name](), 4)
    assert isinstance(expected, tuple), f"{name} is not broken"
    with pytest.raises(AxiomCheckFailure) as info:
        BROKEN[name]().self_test(4)
    exc = info.value
    assert (exc.axiom, exc.keys, exc.lhs, exc.rhs) == expected


@pytest.mark.parametrize("selector", STANDARD_SELECTORS)
def test_self_test_counts_the_reference_triples(selector):
    assert from_selector(selector).self_test(4) == \
        _reference_self_test(from_selector(selector), 4)
