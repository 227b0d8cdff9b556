"""Permutation statistics, symmetrized identities, Lyndon combinatorics."""

import itertools
import math
import random

import pytest

from dendralg import (
    STANDARD_SELECTORS, Elem, EmptyArgumentList, EmptyWord, Perm, Word,
    bohnenblust_spitzer_check, census_formula, cfl_factorize, ell,
    from_selector, is_lyndon, lyn_set, lyndon_census, opposite, pbw_expansion,
    profile, r, random_element, spitzer_sums, t_sigma, u_sigma,
)
from dendralg.hopf import concat_mul, dynkin_word
from dendralg.lyndon import omega_conjugate
from dendralg.ncalg import WORD_SORT


def x(*letters):
    return Elem.term(WORD_SORT, Word(letters))


def bk(*letters):
    """Left-to-right bracketing of distinct letters, as a word element."""
    return dynkin_word(Word(letters))


def letters(S, n):
    return [S.elem(Word((i,))) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# cut statistics
# ---------------------------------------------------------------------------

class TestProfile:
    def test_worked_example(self):
        p = profile((3, 2, 6, 1, 4, 5, 7))
        assert p.e_set == (2, 6)
        assert p.f_set == (4, 5, 6)
        assert p.e_blocks == ((1, 2), (3, 4, 5, 6), (7,))
        assert p.f_blocks == ((1, 2, 3, 4), (5,), (6,), (7,))
        assert p.e_values == ((3, 2), (6, 1, 4, 5), (7,))
        assert p.f_values == ((3, 2, 6, 1), (4,), (5,), (7,))
        assert p.composition == (2, 4, 1)

    def test_identity_and_reversal(self):
        assert profile((1, 2, 3)).composition == (1, 1, 1)
        assert profile((3, 2, 1)).composition == (3,)
        assert profile((1, 2, 3)).f_set == (1, 2)
        assert profile((3, 2, 1)).f_set == ()

    def test_blocks_partition_positions(self):
        for image in itertools.permutations(range(1, 6)):
            p = profile(image)
            flat = [pos for block in p.e_blocks for pos in block]
            assert flat == list(range(1, 6))
            assert sum(p.composition) == 5

    def test_empty_rejected(self):
        with pytest.raises(EmptyWord):
            profile(())


class TestOmegaConjugate:
    def test_formula(self):
        sigma = Perm((3, 2, 6, 1, 4, 5, 7))
        conj = omega_conjugate(sigma)
        n = 7
        assert all(conj(i) == n + 1 - sigma(n + 1 - i) for i in range(1, n + 1))

    def test_involution(self):
        for image in itertools.permutations(range(1, 5)):
            assert omega_conjugate(omega_conjugate(image)) == Perm(image)

    def test_swaps_the_two_statistics(self):
        """Conjugation turns F-cut counts into E-cut counts."""
        for image in itertools.permutations(range(1, 6)):
            p, q = profile(image), profile(omega_conjugate(image))
            assert len(p.f_set) == len(q.e_set)


# ---------------------------------------------------------------------------
# block products and the symmetrized identities
# ---------------------------------------------------------------------------

def naive_sums(S, args):
    """Reference implementation: no caching, direct products per permutation."""
    n = len(args)
    out = {"right_chain": S.zero(), "t_sum": S.zero(),
           "left_chain": S.zero(), "u_sum": S.zero()}
    for image in itertools.permutations(range(1, n + 1)):
        seq = [args[i - 1] for i in image]
        cur = seq[0]
        for a in seq[1:]:
            cur = S.right(cur, a)
        out["right_chain"] = out["right_chain"] + cur
        cur = seq[-1]
        for a in reversed(seq[:-1]):
            cur = S.left(a, cur)
        out["left_chain"] = out["left_chain"] + cur
        out["t_sum"] = out["t_sum"] + t_sigma(S, Perm(image), args)
        out["u_sum"] = out["u_sum"] + u_sigma(S, Perm(image), args)
    return out


class TestBlockProducts:
    def test_two_blocks_by_hand(self, shuffle):
        args = letters(shuffle, 4)
        # 3241 cuts after position 2: blocks carry values (3,2) and (4,1)
        t = t_sigma(shuffle, (3, 2, 4, 1), args)
        expected = shuffle.star(ell(shuffle, args[2], args[1]),
                                ell(shuffle, args[3], args[0]))
        assert t == expected

    def test_single_block_is_one_bracket_word(self, shuffle):
        args = letters(shuffle, 3)
        assert t_sigma(shuffle, (3, 2, 1), args) == \
            ell(shuffle, args[2], args[1], args[0])
        assert u_sigma(shuffle, (1, 2, 3), args) == \
            shuffle.star(shuffle.star(r(shuffle, args[0]), r(shuffle, args[1])),
                         r(shuffle, args[2]))

    def test_argument_count_checked(self, shuffle):
        with pytest.raises(EmptyArgumentList):
            t_sigma(shuffle, (2, 1), letters(shuffle, 3))
        with pytest.raises(EmptyArgumentList):
            u_sigma(shuffle, (1, 2, 3), letters(shuffle, 2))


# every standard structure, plus a primed operator structure at a weight
# outside the standard selectors; max has vanishing block words
SPITZER_CASES = [(sel, "plain") for sel in STANDARD_SELECTORS] \
    + [("rb-seqmat:theta=2/3,k=2,N=4", "primed")]


class TestSpitzerSums:
    @pytest.mark.parametrize(
        "selector,variant", SPITZER_CASES,
        ids=[sel.split(":")[0] + ("-primed" if var == "primed" else "")
             for sel, var in SPITZER_CASES])
    def test_cached_equals_naive(self, selector, variant):
        """The memoized folds against per-permutation cut lists, from the
        folds' base case (n = 1) and one step (n = 2) up."""
        S = from_selector(selector)
        if variant == "primed":
            S = S.with_variant("primed")
        for n in (1, 2, 4):
            args = S.sweep_args(n, seed=3)
            assert spitzer_sums(S, args) == naive_sums(S, args)

    def test_shuffle_letters_give_all_words(self, shuffle):
        """Single-letter chains collapse to one word each, so the symmetrized
        sums all equal the sum over permutation words."""
        args = letters(shuffle, 3)
        every_word = sum((x(*image) for image in
                          itertools.permutations((1, 2, 3))),
                        Elem.zero(WORD_SORT))
        sums = spitzer_sums(shuffle, args)
        assert sums["right_chain"] == every_word
        assert sums["t_sum"] == every_word
        assert sums["left_chain"] == every_word
        assert sums["u_sum"] == every_word

    def test_identity_holds_in_mr(self, mr):
        e = mr.elem(Perm((1,)))
        result = bohnenblust_spitzer_check(mr, [e] * 4)
        assert result["right_ok"] and result["left_ok"]
        n = 4
        assert result["left_chain"] == \
            mr.elem(Perm(tuple(range(1, n + 1)))).scale(math.factorial(n))
        assert result["right_chain"] == \
            mr.elem(Perm(tuple(range(n, 0, -1)))).scale(math.factorial(n))

    def test_identity_holds_in_max(self, maxs):
        result = bohnenblust_spitzer_check(maxs, letters(maxs, 4))
        assert result["right_ok"] and result["left_ok"]

    def test_identity_holds_in_rb(self, rb_poly):
        rng = random.Random(9)
        args = [random_element(rb_poly, rng, max_degree=1, nterms=3)
                for _ in range(4)]
        result = bohnenblust_spitzer_check(rb_poly, args)
        assert result["right_ok"] and result["left_ok"]

    def test_t_sum_is_symmetric_in_the_arguments(self, shuffle):
        args = letters(shuffle, 4)
        base = spitzer_sums(shuffle, args)
        for i in range(3):
            swapped = list(args)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            other = spitzer_sums(shuffle, swapped)
            assert other["t_sum"] == base["t_sum"]
            assert other["u_sum"] == base["u_sum"]


class TestDuality:
    def test_u_is_conjugated_t_of_the_opposite(self, shuffle):
        """U for sigma matches T for the conjugate in the opposite structure,
        on reversed arguments, up to the sign (-1)^(n-1)."""
        op = opposite(shuffle)
        args = letters(shuffle, 4)
        sign = (-1) ** (4 - 1)
        for image in itertools.permutations(range(1, 5)):
            lhs = u_sigma(shuffle, image, args)
            rhs = t_sigma(op, omega_conjugate(image), list(reversed(args)))
            assert lhs == sign * rhs

    def test_duality_in_mr(self, mr):
        e = mr.elem(Perm((1,)))
        op = opposite(mr)
        args = [e, mr.star(e, e), e]
        for image in itertools.permutations(range(1, 4)):
            lhs = u_sigma(mr, image, args)
            rhs = t_sigma(op, omega_conjugate(image), list(reversed(args)))
            assert lhs == rhs  # n = 3, even sign


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def lyndon_by_rotations(seq, order):
    rank = (lambda v: -v) if order == "decreasing" else (lambda v: v)
    ranked = tuple(rank(v) for v in seq)
    return bool(seq) and all(ranked < ranked[i:] + ranked[:i]
                             for i in range(1, len(seq)))


def cfl_by_greedy(seq, order):
    """Peel off the longest Lyndon prefix until nothing is left."""
    out, rest = [], tuple(seq)
    while rest:
        for size in range(len(rest), 0, -1):
            if lyndon_by_rotations(rest[:size], order):
                out.append(rest[:size])
                rest = rest[size:]
                break
    return tuple(out)


def small_words():
    for length in range(1, 5):
        yield from itertools.product((1, 2, 3), repeat=length)
    for length in range(5, 7):
        yield from itertools.product((1, 2), repeat=length)


class TestLyndon:
    @pytest.mark.parametrize("order", ["decreasing", "increasing"])
    def test_membership_matches_rotation_oracle(self, order):
        for word in small_words():
            assert is_lyndon(word, order) == lyndon_by_rotations(word, order)

    def test_empty_is_not_lyndon(self):
        assert not is_lyndon(())

    @pytest.mark.parametrize("order", ["decreasing", "increasing"])
    def test_factorization_matches_greedy_oracle(self, order):
        for word in small_words():
            assert cfl_factorize(word, order) == cfl_by_greedy(word, order)

    def test_factorization_shape(self):
        for word in small_words():
            factors = cfl_factorize(word)
            assert sum(factors, ()) == word
            assert all(is_lyndon(f) for f in factors)
            ranked = [tuple(-v for v in f) for f in factors]
            assert ranked == sorted(ranked, reverse=True)

    def test_blocks_are_the_decreasing_factorization(self):
        for n in range(1, 7):
            for image in itertools.permutations(range(1, n + 1)):
                assert profile(image).e_values == cfl_factorize(image)


class TestCensus:
    def test_small_census(self):
        assert lyndon_census(3) == {(1, 1, 1): 1, (1, 2): 2, (2, 1): 1, (3,): 2}
        assert lyndon_census(0) == {(): 1}

    def test_formula(self):
        for n in range(1, 7):
            census = lyndon_census(n)
            assert sum(census.values()) == math.factorial(n)
            for comp, count in census.items():
                assert count == census_formula(comp)

    def test_formula_examples(self):
        assert census_formula((2, 4, 1)) == math.factorial(7) // (2 * 6 * 7)
        assert census_formula((1,) * 4) == 1

    def test_counts_match_the_profile_compositions(self):
        """The one-pass count agrees with the cut lists of `profile`."""
        for n in range(1, 7):
            expected: dict = {}
            for image in itertools.permutations(range(1, n + 1)):
                comp = profile(image).composition
                expected[comp] = expected.get(comp, 0) + 1
            assert lyndon_census(n) == expected


# ---------------------------------------------------------------------------
# bracketed expansions of the increasing word
# ---------------------------------------------------------------------------

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


class TestPBW:
    def test_identity_relabelling_admits_only_identity(self):
        assert lyn_set(Perm((1, 2, 3, 4))) == [Perm((1, 2, 3, 4))]

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_admitted_permutations_match_the_profile_blocks(self, n):
        """lyn_set keeps exactly the sigma whose relabelled E-block values
        increase, read off `profile`'s cut lists, for every beta in S_n."""
        for beta in itertools.permutations(range(1, n + 1)):
            expected = [
                Perm(image) for image in itertools.permutations(range(1, n + 1))
                if all(all(beta[a - 1] < beta[b - 1] for a, b in zip(vals, vals[1:]))
                       for vals in profile(image).e_values)]
            assert lyn_set(beta) == expected

    @pytest.mark.parametrize("n", sorted(BELL))
    def test_reversal_admits_bell_many(self, n):
        beta = Perm(tuple(range(n, 0, -1)))
        assert len(lyn_set(beta)) == BELL[n]

    def test_three_letter_expansion_verbatim(self):
        expected = (x(3, 2, 1)
                    + concat_mul(bk(2, 3), x(1))
                    + concat_mul(x(2), bk(1, 3))
                    + concat_mul(x(3), bk(1, 2))
                    + bk(1, 2, 3))
        computed = pbw_expansion(Perm((3, 2, 1)))
        assert computed == expected
        assert computed == x(1, 2, 3)

    def test_four_letter_expansion(self):
        """The fifteen bracket monomials rebuilding x1x2x3x4.

        Fourteen of them are the commonly displayed ones; the fifteenth,
        [x2,x3][x1,x4], comes from the permutation 3241 (blocks {2,3} and
        {1,4}) and is required for the sum to close.
        """
        displayed = [
            x(4, 3, 2, 1),
            concat_mul(x(4, 3), bk(1, 2)),
            concat_mul(concat_mul(x(4), bk(2, 3)), x(1)),
            concat_mul(x(4, 2), bk(1, 3)),
            concat_mul(x(4), bk(1, 2, 3)),
            concat_mul(bk(3, 4), x(2, 1)),
            concat_mul(bk(3, 4), bk(1, 2)),
            concat_mul(concat_mul(x(3), bk(2, 4)), x(1)),
            concat_mul(x(3, 2), bk(1, 4)),
            concat_mul(x(3), bk(1, 2, 4)),
            concat_mul(bk(2, 3, 4), x(1)),
            concat_mul(bk(2, 4), bk(1, 3)),
            concat_mul(x(2), bk(1, 3, 4)),
            bk(1, 2, 3, 4),
        ]
        fifteenth = concat_mul(bk(2, 3), bk(1, 4))
        computed = pbw_expansion(Perm((4, 3, 2, 1)))
        partial = sum(displayed, Elem.zero(WORD_SORT))
        assert computed == x(1, 2, 3, 4)
        assert partial + fifteenth == computed
        assert partial != computed

    def test_fifteenth_term_comes_from_3241(self):
        beta = Perm((4, 3, 2, 1))
        sigma = Perm((3, 2, 4, 1))
        assert sigma in lyn_set(beta)
        assert profile(sigma).e_values == ((3, 2), (4, 1))
        term = Elem.unit(WORD_SORT)
        for vals in profile(sigma).e_values:
            term = concat_mul(term, bk(*(beta(v) for v in vals)))
        assert term == concat_mul(bk(2, 3), bk(1, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_relabelling_rebuilds_the_word(self, n):
        target = x(*range(1, n + 1))
        for image in itertools.permutations(range(1, n + 1)):
            assert pbw_expansion(Perm(image)) == target
