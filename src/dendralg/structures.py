"""Concrete dendriform structures.

Instances provided here:

  shuffle    -- words, the half-shuffles (first letter taken from the left or
                right factor); * is the commutative shuffle product
  max        -- words, concatenation split by where the maximal letter sits;
                ties go to <; "max-rev" uses the reversed letter order
  mr         -- permutations with the shifted-shuffle product, split by the
                origin of the first letter
  free       -- planar binary trees: the free dendriform algebra on one
                generator, graded by internal vertices (Catalan dimensions)
  rb-seqmat  -- functions {1..N} -> k x k rational matrices with the weighted
                partial-sum operator R(f)(n) = theta * sum(f(m), m < n)
  rb-polymat -- k x k matrices of rational polynomials with entrywise
                integration from 0 (a weight-0 operator)

Every operator R of weight theta (R(a)R(b) = R(R(a)b + aR(b) + theta ab))
induces two dendriform structures on its carrier: the plain one
(a < b = aR(b) + theta ab, a > b = R(a)b) and the primed one
(a <' b = aR(b), a >' b = R(a)b + theta ab).  Both are built here over either
backend, and the weight rule, R(a * b) = R(a)R(b) through the structure's own
product, is checked on sample pairs at construction (rb-seqmat carriers longer
than `MAX_SEQ_LENGTH` are refused, as that check grows with N).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .dendriform import DendriformStructure
from .errors import RBWeightCheckFailure
from .ncalg import (
    BasisSort, Elem, Perm, Word, PERM_SORT, WORD_SORT, _accumulate_scaled,
    _bad_key, _bilinear, _linear, _perms, _relabel, _words, as_scalar,
)

__all__ = [
    "ShuffleStructure", "MaxStructure", "MRStructure", "FreeStructure",
    "SeqMatBackend", "PolyMatBackend", "RBStructure", "Tree", "LEAF",
    "shuffle_structure", "max_structure", "mr_structure", "free_structure",
    "rb_seqmat_structure", "rb_polymat_structure",
    "from_selector", "STANDARD_SELECTORS",
    "random_element", "enumerate_trees",
]


def _letters(alphabet) -> tuple:
    if isinstance(alphabet, int):
        return tuple(range(1, alphabet + 1))
    return tuple(alphabet)


# ---------------------------------------------------------------------------
# words: half-shuffles
# ---------------------------------------------------------------------------

def _half_shuffle(u: tuple, v: tuple, left: bool) -> dict:
    """The interleavings of the letter tuples u and v whose first letter
    comes from u (left, u < v) or from v (u > v) -> their multiplicities.

    With the first letter set aside, each choice of slots for the letters
    left in u, among the slots after the first, is one interleaving; equal
    words from different choices are counted.
    """
    if left:
        head, u = u[:1], u[1:]
    else:
        head, v = v[:1], v[1:]
    out = {}
    for positions in itertools.combinations(range(len(u) + len(v)), len(u)):
        letters = list(v)
        for i, x in zip(positions, u):
            letters.insert(i, x)
        w = head + tuple(letters)
        out[w] = out.get(w, 0) + 1
    return out


class _WordStructure(DendriformStructure):
    sort = WORD_SORT

    def __init__(self, alphabet):
        super().__init__()
        self.alphabet = _letters(alphabet)

    def degree(self, key: Word) -> int:
        return len(key)

    def basis_keys(self, max_degree: int):
        for d in range(1, max_degree + 1):
            for letters in itertools.product(self.alphabet, repeat=d):
                yield Word(letters)

    def sweep_args(self, n: int, seed: int = 0) -> list:
        return [self.elem(Word((i,))) for i in range(1, n + 1)]


class ShuffleStructure(_WordStructure):
    name = "shuffle"

    def basis_left(self, w1: Word, w2: Word) -> Elem:
        return _words(_half_shuffle(w1, w2, True))

    def basis_right(self, w1: Word, w2: Word) -> Elem:
        return _words(_half_shuffle(w1, w2, False))


class MaxStructure(_WordStructure):
    """Concatenation routed by the position of the maximal letter.

    u < v is the concatenation uv when the largest letter (in the structure's
    letter order) lies in u, and 0 otherwise; u > v is uv when it lies
    strictly in v.  Ties go to <.
    """

    def __init__(self, alphabet, order: str = "increasing"):
        super().__init__(alphabet)
        if order not in ("increasing", "decreasing"):
            raise ValueError(f"unknown letter order {order!r}")
        self.order = order
        self.name = "max" if order == "increasing" else "max-rev"

    def generator(self, seed: int = 0) -> Elem:
        """x1 + x2 rather than the default x1: as x1 > x1 = 0, w>(n) of x1
        vanishes for n >= 2, while x1 + x2 keeps w>(1) and w>(2) nonzero.
        w>(n) sums strictly increasing words, so on 3 letters it vanishes
        for n >= 4 whatever the generator, and for n >= 3 on x1 + x2."""
        return self.elem(Word((1,))) + self.elem(Word((2,)))

    def _top(self, w: Word) -> int:
        return max(w) if self.order == "increasing" else -min(w)

    def basis_left(self, w1: Word, w2: Word) -> Elem:
        if self._top(w1) >= self._top(w2):
            return Elem._trusted(WORD_SORT, {w1 + w2: 1})
        return Elem._trusted(WORD_SORT, {})

    def basis_right(self, w1: Word, w2: Word) -> Elem:
        if self._top(w1) < self._top(w2):
            return Elem._trusted(WORD_SORT, {w1 + w2: 1})
        return Elem._trusted(WORD_SORT, {})


# ---------------------------------------------------------------------------
# permutations: shifted shuffles
# ---------------------------------------------------------------------------

class MRStructure(DendriformStructure):
    """Permutations under the shifted shuffle, split by the first letter.

    For p in S_n and q in S_m, shift q's letters by n, interleave, and route
    by whether the first letter of the result comes from p (that is <) or
    from the shifted q (that is >).
    """

    name = "mr"
    sort = PERM_SORT

    def basis_left(self, p: Perm, q: Perm) -> Elem:
        v = tuple(x + len(p) for x in q)
        return _perms(_half_shuffle(p, v, True))

    def basis_right(self, p: Perm, q: Perm) -> Elem:
        v = tuple(x + len(p) for x in q)
        return _perms(_half_shuffle(p, v, False))

    def degree(self, key: Perm) -> int:
        return len(key)

    def basis_keys(self, max_degree: int):
        for d in range(1, max_degree + 1):
            for image in itertools.permutations(range(1, d + 1)):
                yield Perm._trusted(image)

    def sweep_args(self, n: int, seed: int = 0) -> list:
        return [self.elem(Perm((1,)))] * n


# ---------------------------------------------------------------------------
# planar binary trees: the free dendriform algebra on one generator
# ---------------------------------------------------------------------------

class Tree(tuple):
    """A planar binary tree: the leaf is the empty tuple, a node the pair
    (left, right) of its subtrees; degree = number of internal vertices.

    Like `Word` and `Perm`, a tree stores nothing beside its entries and
    defines no hash, equality or order, so a tree equals the nested tuple of
    its shape; TREE_SORT orders trees by degree, then by `code`.

    >>> t = Tree(Tree(LEAF, LEAF), LEAF)
    >>> str(t), t.deg, t.code, t == (((), ()), ())
    ('((^)^)', 2, (1, 1, 0, 0, 0), True)
    """

    __slots__ = ()

    def __new__(cls, left: "Tree | None" = None, right: "Tree | None" = None):
        if left is None and right is None:
            return tuple.__new__(cls, ())
        if not (isinstance(left, Tree) and isinstance(right, Tree)):
            raise ValueError("a tree node needs two Tree children")
        return tuple.__new__(cls, (left, right))

    left = property(lambda self: self[0] if self else None)
    right = property(lambda self: self[1] if self else None)

    @property
    def deg(self) -> int:
        """The number of internal vertices."""
        return self[0].deg + self[1].deg + 1 if self else 0

    @property
    def code(self) -> tuple:
        """The preorder code: 1 for each internal vertex, 0 for each leaf."""
        return (1, *self[0].code, *self[1].code) if self else (0,)

    def is_leaf(self) -> bool:
        return not self

    def __str__(self) -> str:
        if self.is_leaf():
            return "|"
        ls = "" if self.left.is_leaf() else str(self.left)
        rs = "" if self.right.is_leaf() else str(self.right)
        return f"({ls}^{rs})"

    def __repr__(self) -> str:
        return f"<Tree {self}>"


LEAF = Tree()

TREE_SORT = BasisSort(
    "tree",
    LEAF,
    skey=lambda t: (t.deg, t.code),
    show=str,
    check=lambda t: None if isinstance(t, Tree) else _bad_key("tree", t),
)


def enumerate_trees(degree: int) -> tuple:
    """All planar binary trees with the given number of internal vertices.

    Degree d grafts every tree of degree i on the left of every tree of
    degree d - 1 - i, for i = 0..d-1; the lower degrees are built first,
    within the call.
    """
    trees = [(LEAF,)]
    for d in range(1, degree + 1):
        trees.append(tuple(Tree(l, r) for i in range(d)
                           for l in trees[i] for r in trees[d - 1 - i]))
    return trees[degree] if degree >= 0 else ()


class FreeStructure(DendriformStructure):
    """The free dendriform algebra on one generator.

    With a = l ^ r (grafting of the left and right subtrees):
    a < b grafts l over every term of r * b, and a > b grafts every term of
    a * l' under r' where b = l' ^ r'.  The leaf plays the unit.
    """

    name = "free"
    sort = TREE_SORT

    # u * v on trees, the leaf the unit key, is read from the structure's
    # own product tables, so each pair of subtrees is multiplied once

    def basis_left(self, t: Tree, s: Tree) -> Elem:
        left, right = t
        return _relabel(self.star(self.elem(right), self.elem(s)),
                        lambda m: Tree(left, m))

    def basis_right(self, t: Tree, s: Tree) -> Elem:
        left, right = s
        return _relabel(self.star(self.elem(t), self.elem(left)),
                        lambda m: Tree(m, right))

    def degree(self, key: Tree) -> int:
        return key.deg

    def basis_keys(self, max_degree: int):
        for d in range(1, max_degree + 1):
            yield from enumerate_trees(d)

    def generator(self, seed: int = 0) -> Elem:
        """The one-vertex tree, the free generator, rather than the default
        first sweep argument, a random multiple of it."""
        return self.elem(Tree(LEAF, LEAF))

    def sweep_args(self, n: int, seed: int = 0) -> list:
        return _random_args(self, n, seed)


# ---------------------------------------------------------------------------
# structures induced by a weighted averaging operator
# ---------------------------------------------------------------------------

# the fresh unit key of carriers whose own identity is not a dendriform unit;
# no carrier key is the empty tuple
ADJOINED_UNIT = ()

# The most keys one degree of an operator carrier may hold.  The weight check
# lists every key, so a larger carrier is refused, not left to stall; the
# largest carrier in use (k=4, N=32) has 512.
MAX_CARRIER_KEYS = 4096
MAX_SEQ_LENGTH = 256     # positions of an rb-seqmat carrier, N
WEIGHT_CHECK_PAIRS = 64  # key pairs the weight rule is checked on


def _check_carrier_size(name: str, keys: int):
    if keys > MAX_CARRIER_KEYS:
        raise ValueError(f"{name} has {keys} keys per degree, more than "
                         f"the {MAX_CARRIER_KEYS} allowed")


def _carrier_check(name: str, *bounds):
    """The key check of an operator carrier: the unit, or a tuple of ints,
    one per bound, each within its bound's inclusive (low, high) pair."""
    def check(key):
        if type(key) is not tuple or key and not (
                len(key) == len(bounds)
                and all(type(v) is int and lo <= v <= hi
                        for v, (lo, hi) in zip(key, bounds))):
            _bad_key(name, key)
    return check


class SeqMatBackend:
    """Functions {1..N} -> k x k rational matrices, pointwise product.

    Basis keys (p, i, j): the matrix unit E_ij sitting at position p.
    R(f)(n) = theta * sum(f(m) for m < n) has weight theta.
    """

    def __init__(self, theta, k: int, N: int):
        self.theta = as_scalar(theta)
        self.k = int(k)
        self.N = int(N)
        if self.k < 1 or self.N < 1:
            raise ValueError("need k >= 1 and N >= 1")
        name = f"seqmat[k={self.k},N={self.N}]"
        _check_carrier_size(name, self.N * self.k ** 2)
        # the weight check multiplies R(a) by R(b), up to (N - 1)^2 term
        # pairs per sampled pair: N = 256 builds in 0.14 s, N = 4096 in 40 s
        if self.N > MAX_SEQ_LENGTH:
            raise ValueError(f"{name} has more than {MAX_SEQ_LENGTH} positions")
        self.sort = BasisSort(
            name,
            ADJOINED_UNIT,
            skey=lambda key: key,
            show=lambda key: f"E{key[0]}[{key[1]},{key[2]}]",
            check=_carrier_check(name, (1, self.N), (1, self.k), (1, self.k)),
        )

    def keys(self, max_degree: int):
        """Every key, whatever max_degree: each has degree 0."""
        rng = range(1, self.k + 1)
        return [(p, i, j) for p in range(1, self.N + 1) for i in rng for j in rng]

    def mul_keys(self, a, b):
        (p, i, j), (q, x, y) = a, b
        if p == q and j == x:
            return (((p, i, y), 1),)
        return ()

    def r_key(self, key):
        if not self.theta:
            return ()
        p, i, j = key
        return tuple(((q, i, j), self.theta) for q in range(p + 1, self.N + 1))

    def key_degree(self, key):
        return 0


class PolyMatBackend:
    """k x k matrices of rational polynomials in one variable.

    Basis keys (i, j, d): x^d * E_ij.  R integrates each entry from 0, a
    weight-0 operator by integration by parts.
    """

    theta = 0

    def __init__(self, k: int):
        self.k = int(k)
        if self.k < 1:
            raise ValueError("need k >= 1")
        name = f"polymat[k={self.k}]"
        _check_carrier_size(name, self.k ** 2)
        self.sort = BasisSort(
            name,
            ADJOINED_UNIT,
            skey=lambda key: (key[2], key[0], key[1]),
            show=lambda key: (f"E[{key[0]},{key[1]}]" if key[2] == 0
                              else f"x^{key[2]}E[{key[0]},{key[1]}]"),
            check=_carrier_check(name, (1, self.k), (1, self.k), (0, math.inf)),
        )

    def keys(self, max_degree: int):
        rng = range(1, self.k + 1)
        return [(i, j, d) for d in range(max_degree + 1) for i in rng for j in rng]

    def mul_keys(self, a, b):
        (i, j, d), (x, y, e) = a, b
        if j == x:
            return (((i, y, d + e), 1),)
        return ()

    def r_key(self, key):
        i, j, d = key
        return (((i, j, d + 1), as_scalar(Fraction(1, d + 1))),)

    def key_degree(self, key):
        return key[2]


class RBStructure(DendriformStructure):
    """Dendriform structure induced by a weight-theta operator R.

    plain:   a < b = a R(b) + theta ab     a > b = R(a) b
    primed:  a < b = a R(b)                a > b = R(a) b + theta ab

    Both share the associative product a R(b) + R(a) b + theta ab, and R is a
    morphism onto its image for it: R(a * b) = R(a) R(b) is the weight rule.
    At construction it is checked through `star`, so on the halves too, on
    `WEIGHT_CHECK_PAIRS` key pairs; a violation raises RBWeightCheckFailure.
    """

    def __init__(self, backend, variant: str = "plain", name: str | None = None,
                 check: bool = True):
        if variant not in ("plain", "primed"):
            raise ValueError(f"unknown variant {variant!r}")
        super().__init__()
        self.backend = backend
        self.variant = variant
        self.theta = backend.theta
        self.sort = backend.sort
        self.name = name or f"rb[{backend.sort.name}]"
        if variant == "primed":
            self.name += ":primed"
        if check:
            self._weight_check()

    # carrier-level helpers (unit key never appears here)

    def carrier_mul(self, x: Elem, y: Elem) -> Elem:
        return _bilinear(self.sort, x, y, self.backend.mul_keys)

    def R(self, x: Elem) -> Elem:
        return _linear(self.sort, x, self.backend.r_key)

    def _basis_half(self, k1, k2, left: bool) -> Elem:
        """k1 R(k2) (left) or R(k1) k2, plus theta k1 k2 on the variant's
        side, summed from the backend's key maps over one denominator."""
        mul, r_key = self.backend.mul_keys, self.backend.r_key
        parts = ([(mul(k1, key), c) for key, c in r_key(k2)] if left
                 else [(mul(key, k2), c) for key, c in r_key(k1)])
        if self.theta and left == (self.variant == "plain"):
            parts.append((mul(k1, k2), self.theta))
        data: dict = {}
        den = 1
        for products, c in parts:
            den = _accumulate_scaled(data, products, c, den)
        return Elem._trusted(self.sort, data, den)

    def basis_left(self, k1, k2) -> Elem:
        return self._basis_half(k1, k2, True)

    def basis_right(self, k1, k2) -> Elem:
        return self._basis_half(k1, k2, False)

    def degree(self, key):
        return self.backend.key_degree(key)

    def basis_keys(self, max_degree: int):
        return self.backend.keys(max_degree)

    def sweep_args(self, n: int, seed: int = 0) -> list:
        return _random_args(self, n, seed)

    def with_variant(self, variant: str) -> "RBStructure":
        if variant == self.variant:
            return self
        base = self.name.split(":primed")[0]
        return RBStructure(self.backend, variant, name=base, check=False)

    def _weight_check(self):
        keys = list(self.basis_keys(2))
        for ka, kb in _sample_pairs(keys, WEIGHT_CHECK_PAIRS, random.Random(0)):
            a = Elem._trusted(self.sort, {ka: 1})
            b = Elem._trusted(self.sort, {kb: 1})
            if self.R(self.star(a, b)) != self.carrier_mul(self.R(a), self.R(b)):
                raise RBWeightCheckFailure(
                    f"{self.name}: weight-{self.theta} rule fails on {ka}, {kb}")


# ---------------------------------------------------------------------------
# registration and selection
# ---------------------------------------------------------------------------

def _self_tested(S: DendriformStructure) -> DendriformStructure:
    S.self_test(3)
    return S


def shuffle_structure(alphabet=3) -> ShuffleStructure:
    return _self_tested(ShuffleStructure(alphabet))


def max_structure(alphabet=3, order: str = "increasing") -> MaxStructure:
    return _self_tested(MaxStructure(alphabet, order))


def mr_structure() -> MRStructure:
    return _self_tested(MRStructure())


def free_structure() -> FreeStructure:
    return _self_tested(FreeStructure())


def rb_seqmat_structure(theta=1, k: int = 2, N: int = 4,
                        check: bool = True) -> RBStructure:
    theta = as_scalar(theta)
    name = f"rb-seqmat:theta={theta},k={k},N={N}"
    return RBStructure(SeqMatBackend(theta, k, N), name=name, check=check)


def rb_polymat_structure(k: int = 2, check: bool = True) -> RBStructure:
    return RBStructure(PolyMatBackend(k), name=f"rb-polymat:k={k}", check=check)


# the selectors that take no parameters
_PLAIN_SELECTORS = {
    "shuffle": shuffle_structure,
    "max": max_structure,
    "max-rev": lambda: max_structure(order="decreasing"),
    "mr": mr_structure,
    "free": free_structure,
}

STANDARD_SELECTORS = (
    "shuffle",
    "max",
    "max-rev",
    "mr",
    "free",
    "rb-seqmat:theta=1,k=2,N=4",
    "rb-polymat:k=2",
)


def from_selector(text: str) -> DendriformStructure:
    """Build a structure from a selection string.

    Accepted: shuffle | max | max-rev | mr | free
            | rb-seqmat:theta=<rational>,k=<int>,N=<int>  (params optional)
            | rb-polymat:k=<int>
    """
    head, _, params_text = text.strip().partition(":")
    params = {}
    if params_text:
        for piece in params_text.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise ValueError(f"bad structure parameter {piece!r} in {text!r}")
            key = key.strip().replace("θ", "theta")
            if key in params:
                raise ValueError(f"selector {text!r} repeats parameter {key!r}")
            params[key] = value.strip()
    if head in _PLAIN_SELECTORS:
        if params:
            raise ValueError(f"selector {text!r} takes no parameters")
        return _PLAIN_SELECTORS[head]()
    if head == "rb-seqmat":
        allowed = {"theta", "k", "N"}
        _only_params(text, params, allowed)
        th = _rational(params.get("theta", "1"))
        return rb_seqmat_structure(theta=th, k=int(params.get("k", 2)),
                                   N=int(params.get("N", 4)))
    if head == "rb-polymat":
        _only_params(text, params, {"k"})
        return rb_polymat_structure(k=int(params.get("k", 2)))
    raise ValueError(f"unknown structure selector {text!r}")


def _rational(text: str) -> Fraction:
    """A rational such as 2/3 or −1, the typographic minus included."""
    return Fraction(text.strip().replace("−", "-"))


def _only_params(text, params, allowed):
    extra = set(params) - allowed
    if extra:
        raise ValueError(f"selector {text!r}: unknown parameters {sorted(extra)}")


def random_element(S: DendriformStructure, rng: random.Random,
                   max_degree: int = 3, nterms: int = 3) -> Elem:
    """A random unit-free element with small rational coefficients."""
    keys = list(S.basis_keys(max_degree))
    nterms = min(nterms, len(keys))
    chosen = rng.sample(keys, nterms)
    terms = []
    for key in chosen:
        num = rng.choice([x for x in range(-4, 5) if x])
        den = rng.randint(1, 4)
        terms.append((key, Fraction(num, den)))
    return Elem(S.sort, terms)


def _random_args(S: DendriformStructure, n: int, seed: int) -> list:
    """n seeded random degree-one elements, drawn from one PRNG."""
    rng = random.Random(seed)
    return [random_element(S, rng, max_degree=1, nterms=3) for _ in range(n)]


def _sample_pairs(keys: list, sample: int, rng: random.Random) -> list:
    """All ordered pairs of keys, or `sample` of them drawn by rng.

    The draw picks indices into the row-major pair list, so it selects the
    same pairs as rng.sample over that list without ever building it.
    """
    n = len(keys)
    if n * n <= sample:
        return [(a, b) for a in keys for b in keys]
    return [(keys[i // n], keys[i % n]) for i in rng.sample(range(n * n), sample)]
