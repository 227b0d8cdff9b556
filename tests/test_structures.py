"""Concrete structures against independent oracles and hand values."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import dendralg
from dendralg import (
    Elem, MaxStructure, Perm, RBStructure, RBWeightCheckFailure,
    STANDARD_SELECTORS, Word, from_selector, random_element,
    rb_polymat_structure, rb_seqmat_structure,
)
from dendralg.errors import SortMismatch
from dendralg.ncalg import PERM_SORT, WORD_SORT
from dendralg.structures import (
    LEAF, MAX_CARRIER_KEYS, MAX_SEQ_LENGTH, TREE_SORT, PolyMatBackend,
    SeqMatBackend, Tree, _sample_pairs, enumerate_trees,
)
from dendralg.suites import RB_THETAS, _rb_nested_sums


def x(*letters):
    return Elem.term(WORD_SORT, Word(letters))


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------

def interleavings(u, v):
    """All ways to riffle u into a word of length |u|+|v|, via position sets."""
    total = len(u) + len(v)
    for positions in itertools.combinations(range(total), len(u)):
        out = [None] * total
        ui, vi = iter(u), iter(v)
        for i in range(total):
            out[i] = next(ui) if i in positions else next(vi)
        yield tuple(out), 0 in positions


def _words(length):
    return list(itertools.product((1, 2, 3), repeat=length))


# every pair of nonempty words over {1, 2, 3} with total length at most 5
WORD_PAIRS = [(u, v) for total in range(2, 6) for a in range(1, total)
              for u in _words(a) for v in _words(total - a)]


class TestShuffle:
    @pytest.mark.parametrize("u,v", WORD_PAIRS)
    def test_halves_match_interleaving_oracle(self, shuffle, u, v):
        """u < v collects the riffles starting in u, u > v those starting in v."""
        left_oracle, right_oracle = {}, {}
        for word, starts_in_u in interleavings(u, v):
            side = left_oracle if starts_in_u else right_oracle
            side[Word(word)] = side.get(Word(word), 0) + 1
        assert shuffle.left(x(*u), x(*v)) == Elem(WORD_SORT, left_oracle)
        assert shuffle.right(x(*u), x(*v)) == Elem(WORD_SORT, right_oracle)

    def test_star_is_commutative(self, shuffle):
        a, b = x(1, 2), x(2, 3) + 2 * x(1)
        assert shuffle.star(a, b) == shuffle.star(b, a)

    def test_single_letters(self, shuffle):
        assert shuffle.left(x(1), x(2)) == x(1, 2)
        assert shuffle.right(x(1), x(2)) == x(2, 1)
        assert shuffle.star(x(1), x(1)) == 2 * x(1, 1)


# ---------------------------------------------------------------------------
# MAX
# ---------------------------------------------------------------------------

class TestMax:
    def test_routed_concatenation(self, maxs):
        assert maxs.left(x(2), x(1)) == x(2, 1)
        assert maxs.right(x(2), x(1)).is_zero()
        assert maxs.left(x(1), x(2)).is_zero()
        assert maxs.right(x(1), x(2)) == x(1, 2)

    def test_tie_goes_left(self, maxs):
        assert maxs.left(x(1), x(1)) == x(1, 1)
        assert maxs.right(x(1), x(1)).is_zero()
        assert maxs.left(x(2, 1), x(1, 2)) == x(2, 1, 1, 2)

    def test_star_is_concatenation(self, maxs):
        for u, v in [((1,), (2,)), ((2,), (1,)), ((1, 3), (2, 2))]:
            assert maxs.star(x(*u), x(*v)) == x(*(u + v))

    def test_star_not_commutative(self, maxs):
        assert maxs.star(x(1), x(2)) != maxs.star(x(2), x(1))

    def test_reversed_order_swaps_routing(self):
        rev = MaxStructure(3, "decreasing")
        # under the reversed letter order, 1 is the largest letter
        assert rev.left(x(1), x(2)) == x(1, 2)
        assert rev.right(x(1), x(2)).is_zero()

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            MaxStructure(3, "sideways")

    def test_halves_match_the_position_oracle(self, maxs):
        """u < v is uv when the first maximal letter of uv lies in u."""
        zero = Elem.zero(WORD_SORT)
        for u, v in WORD_PAIRS:
            uv = u + v
            whole = x(*uv)
            in_u = uv.index(max(uv)) < len(u)
            assert maxs.left(x(*u), x(*v)) == (whole if in_u else zero)
            assert maxs.right(x(*u), x(*v)) == (zero if in_u else whole)

    def test_reversed_order_is_max_conjugated_by_relabelling(self, maxs):
        """max-rev equals max read through the relabelling a -> 4 - a."""
        rev = MaxStructure(3, "decreasing")

        def flip(word):
            return tuple(4 - a for a in word)

        def flipped(e):
            return e.map_keys(lambda key: x(*flip(key.letters)))

        for u, v in WORD_PAIRS:
            fu, fv = x(*flip(u)), x(*flip(v))
            assert rev.left(x(*u), x(*v)) == flipped(maxs.left(fu, fv))
            assert rev.right(x(*u), x(*v)) == flipped(maxs.right(fu, fv))


# ---------------------------------------------------------------------------
# permutations under shifted shuffle
# ---------------------------------------------------------------------------

class TestMR:
    def test_degree_one_products(self, mr):
        e = mr.elem(Perm((1,)))
        assert mr.left(e, e) == mr.elem(Perm((1, 2)))
        assert mr.right(e, e) == mr.elem(Perm((2, 1)))

    def test_shifted_shuffle_split(self, mr):
        p, q = mr.elem(Perm((1, 2))), mr.elem(Perm((1,)))
        assert mr.left(p, q) == mr.elem(Perm((1, 2, 3))) + mr.elem(Perm((1, 3, 2)))
        assert mr.right(p, q) == mr.elem(Perm((3, 1, 2)))

    def test_star_counts_riffles(self, mr):
        """|p| + |q| positions choose |p| of them: binomial many terms."""
        p, q = Perm((2, 1)), Perm((1, 3, 2))
        prod = mr.star(mr.elem(p), mr.elem(q))
        assert sum(prod.coeff(k) for k in prod.support()) == 10
        for key in prod.support():
            assert sorted(key.image) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("a,b", [(a, t - a) for t in range(2, 7)
                                     for a in range(1, t)])
    def test_halves_match_the_filtered_symmetric_group(self, mr, a, b):
        """Every p in S_a, q in S_b against a reference cut out of S_{a+b}.

        sigma is a term of p * q exactly when its letters <= a read p and its
        letters > a, shifted down by a, read q; it belongs to p < q when
        sigma(1) <= a and to p > q otherwise.
        """
        left_ref, right_ref = {}, {}
        for sigma in itertools.permutations(range(1, a + b + 1)):
            p = tuple(s for s in sigma if s <= a)
            q = tuple(s - a for s in sigma if s > a)
            side = left_ref if sigma[0] <= a else right_ref
            side.setdefault((p, q), {})[Perm(sigma)] = 1
        for p in itertools.permutations(range(1, a + 1)):
            for q in itertools.permutations(range(1, b + 1)):
                ep, eq = mr.elem(Perm(p)), mr.elem(Perm(q))
                assert mr.left(ep, eq) == Elem(PERM_SORT,
                                               left_ref.get((p, q), {}))
                assert mr.right(ep, eq) == Elem(PERM_SORT,
                                                right_ref.get((p, q), {}))

    @pytest.mark.parametrize("K", [3, 5])
    def test_free_quasi_symmetric_realization_into_max_rev(self, mr, K):
        """phi(p < q) = phi(p) < phi(q) and likewise for >, into max-rev.

        phi(sigma) sums the words w over {1..K} whose standardization is
        sigma^-1, the free quasi-symmetric realization (Duchamp, Hivert and
        Thibon, IJAC 12, 2002); std ranks the smallest letters first and
        breaks ties left to right.  phi uses no product, so it checks mr
        against max-rev on every pair of permutations of degree <= 3.
        Sending sigma to the words of std sigma, or taking the increasing
        letter order, breaks the identity.
        """
        def std(letters):
            out = [0] * len(letters)
            ranked = sorted(range(len(letters)), key=lambda i: (letters[i], i))
            for rank, i in enumerate(ranked, start=1):
                out[i] = rank
            return Perm(out)

        fibres = {}
        for n in range(1, 7):
            for letters in itertools.product(range(1, K + 1), repeat=n):
                fibres.setdefault(std(letters), []).append(Word(letters))
        perms = [Perm(image) for n in range(1, 4)
                 for image in itertools.permutations(range(1, n + 1))]
        pairs = list(itertools.product(perms, repeat=2))
        assert len(pairs) == 81

        def mismatches(S, fibre_of):
            def phi(e):
                return Elem(WORD_SORT, [(w, c) for sigma, c in e.items()
                                        for w in fibres.get(fibre_of(sigma), ())])
            bad = 0
            for p, q in pairs:
                a, b = mr.elem(p), mr.elem(q)
                bad += phi(mr.left(a, b)) != S.left(phi(a), phi(b))
                bad += phi(mr.right(a, b)) != S.right(phi(a), phi(b))
            return bad

        max_rev, max_inc = MaxStructure(K, "decreasing"), MaxStructure(K)
        assert mismatches(max_rev, Perm.inverse) == 0
        assert mismatches(max_rev, lambda sigma: sigma) == {3: 141, 5: 149}[K]
        assert mismatches(max_inc, Perm.inverse) == {3: 144, 5: 162}[K]


# ---------------------------------------------------------------------------
# planar binary trees
# ---------------------------------------------------------------------------

class TestFree:
    def test_catalan_counts(self):
        assert [len(enumerate_trees(d)) for d in range(5)] == [1, 1, 2, 5, 14]

    def test_trees_are_nested_tuples_with_derived_degree_and_code(self):
        """On every tree of degree <= 5: deg and code against a reference
        preorder (1 per internal vertex, 0 per leaf), a node equals the
        pair of its subtrees, and a plain tuple is not a tree key."""
        def preorder(t):
            return (1, *preorder(t[0]), *preorder(t[1])) if t else (0,)

        assert LEAF == () and LEAF.is_leaf() and LEAF.left is None
        for d in range(6):
            for t in enumerate_trees(d):
                code = preorder(t)
                assert t.code == code and t.deg == code.count(1) == d
                if d:
                    left, right = t
                    assert t.left is left and t.right is right
                    assert Tree(left, right) == (left, right) == t
                    assert not t.is_leaf()
                TREE_SORT.check(t)
        with pytest.raises(SortMismatch):
            TREE_SORT.check(((), ()))
        with pytest.raises(ValueError):
            Tree(LEAF)
        # plain tuples are not subtrees: their str, repr and deg would fail
        for left, right in (((), ()), (LEAF, ()), ((), LEAF),
                            (Tree(LEAF, LEAF), ((), ()))):
            with pytest.raises(ValueError):
                Tree(left, right)

    def test_star_degree_additivity(self, free):
        g = free.generator()
        gg = free.star(g, g)
        assert all(free.degree(k) == 2 for k in gg.support())
        assert sum(gg.coeff(k) for k in gg.support()) == 2

    def test_halves_split_star(self, free):
        g = free.generator()
        assert free.star(g, g) == free.left(g, g) + free.right(g, g)
        assert len(free.left(g, g)) == 1
        assert len(free.right(g, g)) == 1

    def test_loday_ronco_map_into_mr_respects_both_halves(self, free, mr):
        """phi(a < b) = phi(a) < phi(b) and likewise for >, into mr.

        phi(t) sums the sigma whose inverse has increasing binary tree t:
        the root is the smallest letter, the left and right subtrees come
        from the letters before and after it.  phi uses no product, so it
        checks free and mr against each other on every tree pair of total
        degree <= 6.
        """
        def shape(word):
            if not word:
                return LEAF
            m = word.index(min(word))
            return Tree(shape(word[:m]), shape(word[m + 1:]))

        fibres = {}
        for n in range(1, 7):
            for image in itertools.permutations(range(1, n + 1)):
                sigma = Perm(image)
                fibres.setdefault(shape(sigma.inverse().image), []).append(sigma)

        def phi(e):
            return Elem(PERM_SORT, [(sigma, c) for t, c in e.items()
                                    for sigma in fibres[t]])

        pairs = [(t, s) for total in range(2, 7) for a in range(1, total)
                 for t in enumerate_trees(a)
                 for s in enumerate_trees(total - a)]
        assert len(pairs) == 232
        for t, s in pairs:
            a, b = free.elem(t), free.elem(s)
            assert phi(free.left(a, b)) == mr.left(phi(a), phi(b))
            assert phi(free.right(a, b)) == mr.right(phi(a), phi(b))


# ---------------------------------------------------------------------------
# operator-induced structures
# ---------------------------------------------------------------------------

def seq(S, *values):
    """Scalar sequence (v1..vN) as an element of a k=1 matrix-sequence carrier."""
    return sum((S.elem((p, 1, 1), v) for p, v in enumerate(values, start=1)
                if v), S.zero())


class TestSeqMat:
    def test_partial_sum_operator_by_hand(self):
        S = rb_seqmat_structure(theta=1, k=1, N=3)
        ones = seq(S, 1, 1, 1)
        assert S.R(ones) == seq(S, 0, 1, 2)
        assert S.left(ones, ones) == seq(S, 1, 2, 3)
        assert S.right(ones, ones) == seq(S, 0, 1, 2)
        assert S.star(ones, ones) == seq(S, 1, 3, 5)

    @pytest.mark.parametrize("max_degree", [0, 1, 3])
    def test_every_key_has_degree_zero(self, max_degree):
        """The basis has no grading: any bound admits every key triple."""
        S = rb_seqmat_structure(theta=1, k=1, N=2)
        keys = S.basis_keys(max_degree)
        assert [S.degree(key) for key in keys] == [0, 0]
        assert S.self_test(max_degree) == len(keys) ** 3

    def test_weight_rule_on_samples(self):
        S = rb_seqmat_structure(theta=Fraction(2, 3), k=2, N=3)
        rng = random.Random(5)
        for _ in range(4):
            a = random_element(S, rng, max_degree=1, nterms=3)
            b = random_element(S, rng, max_degree=1, nterms=3)
            lhs = S.carrier_mul(S.R(a), S.R(b))
            inner = S.carrier_mul(S.R(a), b) + S.carrier_mul(a, S.R(b)) \
                + S.carrier_mul(a, b).scale(S.theta)
            assert lhs == S.R(inner)

    def test_companion_operator_same_weight(self):
        """-theta - R satisfies the same weight rule as R itself."""
        S = rb_seqmat_structure(theta=1, k=1, N=4)

        def companion(x):
            return x.scale(-S.theta) - S.R(x)

        rng = random.Random(7)
        for _ in range(4):
            a = random_element(S, rng, max_degree=1, nterms=2)
            b = random_element(S, rng, max_degree=1, nterms=2)
            lhs = S.carrier_mul(companion(a), companion(b))
            inner = S.carrier_mul(companion(a), b) + S.carrier_mul(a, companion(b)) \
                + S.carrier_mul(a, b).scale(S.theta)
            assert lhs == companion(inner)

    def test_variant_products_differ_by_theta_term(self):
        plain = rb_seqmat_structure(theta=1, k=1, N=3)
        primed = plain.with_variant("primed")
        a, b = seq(plain, 1, 2, 0), seq(plain, 0, 1, 1)
        ab = plain.carrier_mul(a, b)
        assert plain.left(a, b) - primed.left(a, b) == ab
        assert primed.right(a, b) - plain.right(a, b) == ab
        assert plain.star(a, b) == primed.star(a, b)

    def test_with_variant_roundtrip(self):
        S = rb_seqmat_structure(theta=1, k=1, N=3)
        assert S.with_variant("plain") is S
        primed = S.with_variant("primed")
        assert primed.variant == "primed"
        assert primed.name.endswith(":primed")
        assert primed.with_variant("plain").name == S.name
        with pytest.raises(ValueError):
            RBStructure(S.backend, "twisted")


class TestPolyMat:
    def test_integration_by_parts(self, rb_poly):
        """Integration from 0 is a weight-zero operator on polynomial entries."""
        S = rb_poly
        keys = [(1, 1, d) for d in range(3)] + [(1, 2, 1), (2, 1, 0)]
        for ka, kb in itertools.product(keys, repeat=2):
            a, b = S.elem(ka), S.elem(kb)
            lhs = S.carrier_mul(S.R(a), S.R(b))
            rhs = S.R(S.carrier_mul(S.R(a), b) + S.carrier_mul(a, S.R(b)))
            assert lhs == rhs

    def test_monomial_integration(self):
        S = rb_polymat_structure(k=1)
        assert S.R(S.elem((1, 1, 0))) == S.elem((1, 1, 1))
        assert S.R(S.elem((1, 1, 2))) == S.elem((1, 1, 3), Fraction(1, 3))

    def test_matrix_units_multiply(self, rb_poly):
        S = rb_poly
        e12, e21 = S.elem((1, 2, 0)), S.elem((2, 1, 0))
        assert S.carrier_mul(e12, e21) == S.elem((1, 1, 0))
        assert S.carrier_mul(e12, e12).is_zero()


@pytest.mark.parametrize("selector", ["rb-polymat:k=1", "rb-polymat:k=2",
                                      "rb-seqmat:theta=1,k=1,N=3",
                                      "rb-seqmat:theta=1,k=2,N=3"])
def test_carriers_commute_exactly_at_k_1(selector):
    """rb-spitzer runs its commutative-carrier checks when k = 1."""
    S = from_selector(selector)
    elems = [S.elem(key) for key in S.basis_keys(1)]
    commute = all(S.carrier_mul(a, b) == S.carrier_mul(b, a)
                  for a, b in itertools.product(elems, repeat=2))
    assert commute == (S.backend.k == 1)


def _literal_nested_sums(S, args):
    """Both operator-nested sums, one literal loop per permutation, no memo."""
    first = second = S.zero()
    for seq in itertools.permutations(args):
        chain = seq[0]
        for a in seq[1:]:
            chain = S.carrier_mul(S.R(chain), a)
        first = first + chain
        chain = seq[-1]
        for a in reversed(seq[:-1]):
            chain = S.carrier_mul(a, S.R(chain))
        second = second + chain
    return first, second


@pytest.mark.parametrize("selector", [
    *(f"rb-seqmat:theta={th},k=2,N=4" for th in RB_THETAS), "rb-polymat:k=2",
], ids=["seqmat-theta0", "seqmat-theta1", "seqmat-theta-1", "seqmat-theta2_3",
        "polymat"])
def test_rb_nested_sums_match_literal_loops(selector):
    S = from_selector(selector)
    for n in range(1, 5):
        args = S.sweep_args(n, seed=n)
        assert _rb_nested_sums(S, args) == _literal_nested_sums(S, args)


SMALL_CARRIERS = [
    *(rb_seqmat_structure(theta=th, k=k, N=n, check=False)
      for th in RB_THETAS for k in (1, 2) for n in (1, 2, 3)),
    *(rb_polymat_structure(k=k, check=False) for k in (1, 2)),
]


@pytest.mark.parametrize("S", SMALL_CARRIERS, ids=lambda S: S.name)
def test_weight_rule_on_every_key_pair(S):
    """R(a)R(b) = R(R(a)b + aR(b) + theta ab) on all pairs, not a sample."""
    keys = list(S.basis_keys(2))
    for ka, kb in itertools.product(keys, repeat=2):
        a, b = S.elem(ka), S.elem(kb)
        inner = S.carrier_mul(S.R(a), b) + S.carrier_mul(a, S.R(b)) \
            + S.carrier_mul(a, b).scale(S.theta)
        assert S.carrier_mul(S.R(a), S.R(b)) == S.R(inner)


@pytest.mark.parametrize("variant", ["plain", "primed"])
@pytest.mark.parametrize("S", SMALL_CARRIERS, ids=lambda S: S.name)
def test_halves_from_the_key_maps_match_the_operator_forms(S, variant):
    """basis_left and basis_right, summed from the backend's key maps,
    equal x R(y) and R(x) y plus theta xy on the variant's side, built
    from R and carrier_mul, on every key pair up to degree 2."""
    S = S.with_variant(variant)
    keys = list(S.basis_keys(2))
    for ka, kb in itertools.product(keys, repeat=2):
        a, b = S.elem(ka), S.elem(kb)
        theta_ab = S.carrier_mul(a, b).scale(S.theta)
        left = S.carrier_mul(a, S.R(b))
        right = S.carrier_mul(S.R(a), b)
        if variant == "plain":
            left = left + theta_ab
        else:
            right = right + theta_ab
        assert S.basis_left(ka, kb) == left, (ka, kb)
        assert S.basis_right(ka, kb) == right, (ka, kb)


def set_partitions(items):
    """Every partition of the tuple items into blocks, as lists of tuples."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [(first,)] + partition
        for i, block in enumerate(partition):
            yield partition[:i] + [(first,) + block] + partition[i + 1:]


def rota_smith_sum(S, args, sign):
    """Sum over set partitions pi of prod over blocks B of
    (sign*theta)^(|B|-1) (|B|-1)! R(a_B), a_B the carrier product over B."""
    total = Elem(S.sort)
    for partition in set_partitions(tuple(range(len(args)))):
        term = None
        for block in partition:
            a_block = args[block[0]]
            for i in block[1:]:
                a_block = S.carrier_mul(a_block, args[i])
            weight = (sign * S.theta) ** (len(block) - 1) \
                * math.factorial(len(block) - 1)
            factor = S.R(a_block).scale(weight)
            term = factor if term is None else S.carrier_mul(term, factor)
        total = total + term
    return total


ROTA_SMITH_SELECTORS = ["rb-polymat:k=1", *(f"rb-seqmat:theta={th},k=1,N=7"
                                            for th in ("1", "2/3", "-1"))]


@pytest.mark.parametrize("selector", ROTA_SMITH_SELECTORS)
@pytest.mark.parametrize("n", range(1, 6))
def test_rota_smith_formula_on_commutative_carriers(selector, n):
    """Bohnenblust-Spitzer / Rota-Smith: the R image of the first nested sum
    is sum over set partitions of prod (-theta)^(|B|-1) (|B|-1)! R(a_B).

    N = 7 exceeds every chain of n <= 5 R's, so the sums do not vanish; on
    the seqmat carriers (theta nonzero) the +theta sign must fail from
    n = 3, so the oracle tells the two signs apart.
    """
    S = from_selector(selector)
    args = S.sweep_args(n, seed=0)
    lhs = S.R(_rb_nested_sums(S, args)[0])
    assert lhs, "a 0 = 0 comparison could not fail"
    assert lhs == rota_smith_sum(S, args, -1)
    if selector.startswith("rb-seqmat") and n >= 3:
        assert lhs != rota_smith_sum(S, args, 1)


@pytest.mark.parametrize("selector,good,bad", [
    ("rb-seqmat:theta=1,k=2,N=4",
     [(), (1, 1, 1), (4, 2, 2), (2, 1, 2)],
     [(0, 1, 1), (5, 1, 1), (7, 1, 1), (1, 3, 1), (1, 1, 0), (1, 1),
      (1, 1, 1, 1), ("a", "b", "c"), (1.0, 1, 1), (True, 1, 1),
      Word((1, 1, 1)), [1, 1, 1]]),
    ("rb-polymat:k=2",
     [(), (1, 1, 0), (2, 1, 7), (1, 2, 30)],
     [(9, 9, 0), (3, 1, 0), (1, 0, 0), (1, 1, -1), (1, 1), (1, 1, 0, 0),
      ("a", "b", "c"), (1, 1, 0.0), (1, 1, Fraction(1)), Word((1, 1, 1))]),
], ids=["rb-seqmat", "rb-polymat"])
def test_operator_carriers_check_their_keys(selector, good, bad):
    """In-range keys and the unit are accepted; a position or index out of
    range, a negative degree, a wrong length or a non-int entry is not."""
    S = from_selector(selector)
    for key in good:
        assert Elem(S.sort, [(key, 1)]) == S.elem(key)
        assert S.elem(key).coeff(key) == 1
    for key in bad:
        with pytest.raises(SortMismatch):
            Elem(S.sort, [(key, 1)])
        with pytest.raises(SortMismatch):
            S.elem(key)


class _InclusiveSums(SeqMatBackend):
    """Partial sums including the current position: the weight rule breaks."""

    def r_key(self, key):
        p, i, j = key
        return tuple(((q, i, j), self.theta) for q in range(p, self.N + 1))


def test_weight_violation_is_caught():
    with pytest.raises(RBWeightCheckFailure):
        RBStructure(_InclusiveSums(1, 1, 3))
    # the same backend is accepted when checking is declined
    S = RBStructure(_InclusiveSums(1, 1, 3), check=False)
    assert S.R(S.elem((1, 1, 1))) == seq(S, 1, 1, 1)


class _NoThetaHalves(RBStructure):
    """Halves that drop the theta term, R and carrier_mul untouched."""

    def _basis_half(self, k1, k2, left):
        x, y = self.elem(k1), self.elem(k2)
        return (self.carrier_mul(x, self.R(y)) if left
                else self.carrier_mul(self.R(x), y))


def test_halves_without_the_theta_term_fail_the_weight_check():
    """The check reads a * b through star, so it sees the halves, not only
    R and the carrier product; N = 3, k = 1 checks all 9 key pairs."""
    with pytest.raises(RBWeightCheckFailure):
        _NoThetaHalves(SeqMatBackend(1, 1, 3))
    S = _NoThetaHalves(SeqMatBackend(1, 1, 3), check=False)
    e1 = S.elem((1, 1, 1))
    assert S.carrier_mul(S.R(e1), S.R(e1)) == seq(S, 0, 1, 1)
    # e1 R(e1) + R(e1) e1 = 0: the lost theta e1 e1 is all of e1 * e1
    assert not S.star(e1, e1)


def _listed_pairs(keys, sample, rng):
    """The reference draw: build every pair, then sample the list."""
    pairs = [(a, b) for a in keys for b in keys]
    return rng.sample(pairs, sample) if len(pairs) > sample else pairs


@pytest.mark.parametrize("nkeys,sample,seed", [
    (3, 16, 1), (4, 16, 1), (5, 16, 1), (16, 64, 0), (512, 64, 0), (40, 1, 7),
])
def test_sampled_pairs_match_the_listed_draw(nkeys, sample, seed):
    keys = [f"k{i}" for i in range(nkeys)]
    assert _sample_pairs(keys, sample, random.Random(seed)) \
        == _listed_pairs(keys, sample, random.Random(seed))


def test_weight_check_memory_does_not_grow_with_the_pair_count():
    """512 keys make 262144 pairs; the 64-pair check must not list them."""
    tracemalloc.start()
    try:
        rb_seqmat_structure(theta=1, k=4, N=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


_RETAINED_SCRIPT = """
import gc, tracemalloc
from dendralg import Options, run_suites, suites
# the suites execute these modules on first use; module code is no memo
for module in (suites.hopf, suites.lyndon, suites.magnus):
    module.__name__
tracemalloc.start()
baseline = tracemalloc.get_traced_memory()[0]
reports = run_suites(["magnus"], Options(structure="mr", cap=5))
reports += run_suites(["axioms"], Options(structure="shuffle", degree=4))
assert reports and all(rep.status == "pass" for rep in reports)
del reports
gc.collect()
print(tracemalloc.get_traced_memory()[0] - baseline)
"""


def test_finished_reports_leave_no_cache_behind():
    """Once its reports are dropped, the package holds no product memo.

    Runs in a fresh interpreter, so nothing warmed by other tests hides a
    cache that outlives its structure.
    """
    src = str(Path(dendralg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RETAINED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100_000


# ---------------------------------------------------------------------------
# selectors, generators, random elements
# ---------------------------------------------------------------------------

class TestSelectors:
    @pytest.mark.parametrize("selector", STANDARD_SELECTORS)
    def test_standard_selectors_build(self, selector):
        S = from_selector(selector)
        assert S.basis_keys(1)

    def test_parameters_parse(self):
        S = from_selector("rb-seqmat:theta=2/3,k=1,N=5")
        assert S.theta == Fraction(2, 3)
        assert S.backend.k == 1 and S.backend.N == 5
        assert from_selector("rb-polymat:k=3").backend.k == 3

    def test_theta_fill_in(self):
        """The weight comes from the selector alone: there is no fill-in,
        and a selector that omits it builds weight 1."""
        assert from_selector("rb-seqmat:k=1,N=3").theta == 1
        assert from_selector("rb-seqmat:theta=1/2,k=1,N=3").theta \
            == Fraction(1, 2)
        with pytest.raises(TypeError):
            from_selector("rb-seqmat:k=1,N=3", theta=Fraction(1, 2))

    def test_unicode_theta_key(self):
        assert from_selector("rb-seqmat:θ=-1,k=1,N=3").theta == -1
        assert from_selector("rb-seqmat:theta=−1,k=1,N=3").theta == -1

    @pytest.mark.parametrize("bad", [
        "nosuch", "shuffle:k=2", "rb-seqmat:junk", "rb-seqmat:z=1",
        "rb-polymat:N=4", "rb-seqmat:k=1,k=2,N=3",
        "rb-seqmat:theta=1,N=3,θ=0,k=1",
    ])
    def test_rejects_bad_selectors(self, bad):
        with pytest.raises(ValueError):
            from_selector(bad)

    def test_carriers_are_capped_per_degree(self):
        """N k^2 keys for seqmat and k^2 for polymat, refused past the cap
        before any key is listed."""
        assert MAX_CARRIER_KEYS == 32 * 32 * 4 == 64 * 64
        SeqMatBackend(1, 32, 4)
        PolyMatBackend(64)
        with pytest.raises(ValueError, match="5120 keys"):
            SeqMatBackend(1, 32, 5)
        with pytest.raises(ValueError, match="4225 keys"):
            PolyMatBackend(65)


    def test_seqmat_sequences_are_capped(self):
        """N = 256 builds; a longer sequence is refused, whatever its key
        count, before the weight check multiplies its partial sums."""
        assert MAX_SEQ_LENGTH == 256
        assert from_selector("rb-seqmat:theta=1,k=1,N=256").backend.N == 256
        with pytest.raises(ValueError, match="more than 256 positions"):
            from_selector("rb-seqmat:theta=1,k=1,N=257")


class TestGenerators:
    def test_default_generators_are_unit_free(self, shuffle, maxs, mr, free,
                                              rb_seq, rb_poly):
        for S in (shuffle, maxs, mr, free, rb_seq, rb_poly):
            a = S.generator()
            assert not a.unit_coeff and not a.is_zero()

    def test_sweep_args(self, shuffle, mr, free, rb_seq):
        assert shuffle.sweep_args(3) == [x(1), x(2), x(3)]
        assert mr.sweep_args(2) == [mr.elem(Perm((1,)))] * 2
        for S in (free, rb_seq):
            args = S.sweep_args(3, seed=5)
            assert args == S.sweep_args(3, seed=5) != S.sweep_args(3, seed=6)
            assert all(not a.unit_coeff and not a.is_zero() for a in args)
        # one seeded draw: the generator is the first sweep argument
        assert rb_seq.generator(5) == rb_seq.sweep_args(3, seed=5)[0]

    def test_random_element_is_deterministic(self, rb_seq):
        a = random_element(rb_seq, random.Random(3))
        b = random_element(rb_seq, random.Random(3))
        assert a == b
        assert a != random_element(rb_seq, random.Random(4))
        assert not a.unit_coeff
