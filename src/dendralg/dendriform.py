"""Dendriform dialgebras: the two half-products and everything derived from them.

A structure supplies two bilinear half-products on non-unit basis keys; their
sum is an associative product.  The three compatibility axioms are

    (a < b) < c = a < (b * c)
    (a > b) < c = a > (b < c)
    a > (b > c) = (a * b) > c        with  a * b = a < b + a > b.

The adjoined unit satisfies a < 1 = a = 1 > a and 1 < a = 0 = a > 1, while
1 < 1 and 1 > 1 stay undefined: the public half-products therefore reject any
operand with a nonzero unit coefficient, and only * is extended unitally.
"""

from __future__ import annotations

import functools

from .errors import AxiomCheckFailure, EmptyArgumentList, SortMismatch, UnitMisuse
from .ncalg import Elem, _accumulate, _accumulate_groups, _group_terms

__all__ = [
    "DendriformStructure", "OppositeStructure",
    "prelie_left", "prelie_right", "lie_bracket",
    "w_left", "w_right", "ell", "r", "opposite",
]


class DendriformStructure:
    """Base class: subclasses define the half-products on basis keys.

    Required attributes/methods:
      name        -- short identifier used in reports
      sort        -- the BasisSort of the underlying basis
      basis_left(k1, k2), basis_right(k1, k2)
                  -- the half-products on non-unit keys, returning Elems whose
                     support never contains the unit key
    Optional (needed by self-tests, random sampling and the suites):
      degree(key)            -- the integer grading the products respect;
                                0 for every key of a basis without one
      basis_keys(max_degree) -- iterable of non-unit keys to test on
      generator(seed)        -- the unit-free element power sums expand;
                                by default sweep_args(1, seed)[0]
      sweep_args(n, seed)    -- n arguments for the symmetric-group sweeps

    Basis product tables: each instance keeps one table for < and one for >,
    mapping a key pair (k1, k2) to basis_left(k1, k2) or basis_right(k1, k2)
    as an entry of `ncalg._group_terms`: a den and the integer numerators
    over it grouped by value, (den, ((numerator, (key, ...)), ...)).  The
    den is 1 for every integral product, so only operator carriers with a
    fractional R or weight hold other dens.  The
    first use of a pair calls the primitive once and stores the result;
    left, right and star read only the tables.  The primitives must
    therefore be pure functions of the two keys, and they keep no state of
    their own: S's two tables are the only memo of basis products for S
    and its opposite.  A table grows to at most the number of distinct key
    pairs it is used on and is freed with S.  Subclasses that define
    __init__ call super().__init__(), but for the tableless opposite view.
    """

    name: str
    sort = None

    def __init__(self):
        self._left_table: dict = {}
        self._right_table: dict = {}

    def basis_left(self, k1, k2) -> Elem:
        raise NotImplementedError

    def basis_right(self, k1, k2) -> Elem:
        raise NotImplementedError

    def degree(self, key):
        return 0

    def basis_keys(self, max_degree):
        raise NotImplementedError(f"{self.name}: no basis enumeration")

    def generator(self, seed: int = 0) -> Elem:
        """The first sweep argument: one rule for every structure that
        does not say why it needs another."""
        return self.sweep_args(1, seed)[0]

    def sweep_args(self, n: int, seed: int = 0) -> list:
        raise NotImplementedError(f"{self.name}: no sweep arguments")

    # -- element-level operations ------------------------------------------

    def unit(self) -> Elem:
        return Elem.unit(self.sort)

    def elem(self, key, c=1) -> Elem:
        return Elem.term(self.sort, key, c)

    def zero(self) -> Elem:
        return Elem.zero(self.sort)

    def _check_operand(self, x: Elem):
        if not isinstance(x, Elem):
            raise TypeError(f"expected Elem, got {x!r}")
        if x.sort != self.sort:
            raise SortMismatch(
                f"element over {x.sort.name!r} fed to structure {self.name!r}")

    def _halves(self) -> tuple:
        """The (table, primitive) pairs of side 0, <, and side 1, >."""
        return ((self._left_table, self.basis_left),
                (self._right_table, self.basis_right))

    def _half_into(self, data: dict, halves, xs, ys, den: int = 1) -> int:
        """Accumulate the half-products in halves of xs by ys into data.

        halves holds pairs from `_halves`; a key pair missing from a table
        is filled from its primitive.  xs and ys are (key, int numerator)
        pairs of non-unit keys; ys is read once per term of xs.  data holds
        numerators over den, and the products' numerators are added over
        den times each table den they read: returns the den of the sum,
        which `ncalg._accumulate_groups` raises to the lcm as it goes.
        """
        for k1, c1 in xs:
            for k2, c2 in ys:
                c = c1 * c2
                for table, basis_fn in halves:
                    entry = table.get((k1, k2))
                    if entry is None:
                        entry = table[(k1, k2)] = _group_terms(basis_fn(k1, k2))
                    den = _accumulate_groups(data, entry, c, den)
        return den

    def _product(self, halves, x: Elem, y: Elem) -> Elem:
        """The half-products in halves of the unit-free x by y, unchecked."""
        data: dict = {}
        den = self._half_into(data, halves, x._terms.items(), y._terms.items())
        return Elem._trusted(self.sort, data, x._den * y._den * den)

    def _half(self, side: int, x: Elem, y: Elem) -> Elem:
        self._check_operand(x)
        self._check_operand(y)
        if x.unit_coeff or y.unit_coeff:
            raise UnitMisuse(
                f"{self.name}: {'<>'[side]} is undefined on unit components")
        return self._product(self._halves()[side:side + 1], x, y)

    def left(self, x: Elem, y: Elem) -> Elem:
        """The half-product a < b; operands must be unit-free."""
        return self._half(0, x, y)

    def right(self, x: Elem, y: Elem) -> Elem:
        """The half-product a > b; operands must be unit-free."""
        return self._half(1, x, y)

    def star(self, x: Elem, y: Elem) -> Elem:
        """The associative product a * b = a < b + a > b, extended unitally."""
        self._check_operand(x)
        self._check_operand(y)
        # numerators over x's den times y's den: the unit terms and the
        # products of the unit-free parts a and b
        unit = self.sort.unit_key
        cx, cy = x._terms.get(unit, 0), y._terms.get(unit, 0)
        a = [(k, c) for k, c in x._terms.items() if k != unit]
        b = [(k, c) for k, c in y._terms.items() if k != unit]
        data: dict = {}
        if cx and cy:
            data[unit] = cx * cy
        if cx:
            _accumulate(data, b, cx)
        if cy:
            _accumulate(data, a, cy)
        den = self._half_into(data, self._halves(), a, b)
        return Elem._trusted(self.sort, data, x._den * y._den * den)

    # -- validation ---------------------------------------------------------

    def self_test(self, max_degree: int = 2) -> int:
        """Exhaustively check the three axioms on basis triples.

        The triples are those of total degree <= max_degree; a basis whose
        keys all have degree 0 thus yields every triple of its keys.
        Returns the number of triples checked; raises AxiomCheckFailure on
        the first violation.

        The triples are enumerated directly: for a degree budget r,
        within[r] lists the keys of degree <= r in enumeration order, so the
        triples come out in the order of the full triple loop with the
        inadmissible ones left out, and none is ever visited.

        The pair products a<b, a>b and a*b are shared within one call: each
        key pair's three are computed once, so a triple costs only its six
        outer products.  Each side of an axiom multiplies a pair product by
        a basis key, and the key takes as its numerator the den of the other
        side's pair product, negated on one side: so each axiom accumulates
        the difference of its sides, both multiplied by the two dens, into
        one dict, which holds only zeros when the axiom holds.  Elements are
        built only to render a counterexample.
        """
        keys = list(self.basis_keys(max_degree))
        degs = {k: self.degree(k) for k in keys}
        within = {r: [k for k in keys if degs[k] <= r]
                  for r in range(max_degree + 1)}
        triples = ((ka, kb, kc)
                   for ka in keys
                   for kb in within.get(max_degree - degs[ka], ())
                   for kc in within.get(max_degree - degs[ka] - degs[kb], ()))
        halves = self._halves()
        left, right = halves[:1], halves[1:]
        half, product = self._half_into, self._product

        def elem(x) -> Elem:
            return x if isinstance(x, Elem) else Elem._trusted(self.sort, {x: 1})

        @functools.cache
        def pair(k1, k2):
            """k1 < k2, k1 > k2 and k1 * k2."""
            return tuple(product(h, elem(k1), elem(k2))
                         for h in (left, right, halves))

        def differ(lhs, rhs) -> bool:
            """Whether two sides differ: each is (halves, x, y), one side
            with x a pair product and y a basis key, the other the reverse."""
            if not isinstance(lhs[1], Elem):
                lhs, rhs = rhs, lhs
            (h1, p1, k1), (h2, k2, p2) = lhs, rhs
            data: dict = {}
            den = half(data, h1, p1._terms.items(), ((k1, p2._den),))
            half(data, h2, ((k2, -p1._den),), p2._terms.items(), den)
            return any(data.values())

        def render(side) -> str:
            h, x, y = side
            return product(h, elem(x), elem(y)).render(max_terms=10)

        checked = 0
        for ka, kb, kc in triples:
            ab_left, ab_right, ab = pair(ka, kb)
            bc_left, bc_right, bc = pair(kb, kc)
            # each side as (halves, x, y), x or y a basis key
            axioms = (
                ("(a<b)<c = a<(b*c)", (left, ab_left, kc), (left, ka, bc)),
                ("(a>b)<c = a>(b<c)", (left, ab_right, kc), (right, ka, bc_left)),
                ("a>(b>c) = (a*b)>c", (right, ka, bc_right), (right, ab, kc)),
            )
            for label, lhs, rhs in axioms:
                if differ(lhs, rhs):
                    raise AxiomCheckFailure(self.name, label, (ka, kb, kc),
                                            render(lhs), render(rhs))
            checked += 1
        return checked

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class OppositeStructure(DendriformStructure):
    """The opposite dendriform structure: a <' b = -(b > a), a >' b = -(b < a).

    Both give rise to the same pre-Lie products as the base structure, while
    the associative product reverses and changes sign.  The unit conventions
    are imposed afresh on the adjoined unit, not derived from the swap.
    A view of its base: it owns no tables, and its products read and fill
    the base's at the swapped key pair, the numerators negated.
    """

    def __init__(self, base: DendriformStructure):
        self.base = base
        self.name = base.name + ".op"
        self.sort = base.sort

    def basis_left(self, k1, k2) -> Elem:
        return -self.base.basis_right(k2, k1)

    def basis_right(self, k1, k2) -> Elem:
        return -self.base.basis_left(k2, k1)

    def _halves(self) -> tuple:
        return self.base._halves()[::-1]  # <' reads > and >' reads <

    def _half_into(self, data: dict, halves, xs, ys, den: int = 1) -> int:
        return self.base._half_into(data, halves, [(k, -c) for k, c in ys], xs,
                                    den)

    def degree(self, key):
        return self.base.degree(key)

    def basis_keys(self, max_degree):
        return self.base.basis_keys(max_degree)


def prelie_left(S: DendriformStructure, x: Elem, y: Elem) -> Elem:
    """Left pre-Lie product a |> b = a > b - b < a."""
    return S.right(x, y) - S.left(y, x)


def prelie_right(S: DendriformStructure, x: Elem, y: Elem) -> Elem:
    """Right pre-Lie product a <| b = a < b - b > a."""
    return S.left(x, y) - S.right(y, x)


def lie_bracket(S: DendriformStructure, x: Elem, y: Elem) -> Elem:
    """[a, b] = a*b - b*a; equals the antisymmetrization of either pre-Lie product."""
    return S.star(x, y) - S.star(y, x)


def _require_unit_free(S, a: Elem):
    S._check_operand(a)
    if a.unit_coeff:
        raise UnitMisuse(f"{S.name}: argument must be unit-free")


def w_left(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """Left power sum: w(0) = 1, w(n) = a < w(n-1)."""
    if n < 0:
        raise ValueError("power sum index must be >= 0")
    _require_unit_free(S, a)
    if n == 0:
        return S.unit()
    out = a  # a < 1 = a
    for _ in range(n - 1):
        out = S.left(a, out)
    return out


def w_right(S: DendriformStructure, a: Elem, n: int) -> Elem:
    """Right power sum: w(0) = 1, w(n) = w(n-1) > a."""
    if n < 0:
        raise ValueError("power sum index must be >= 0")
    _require_unit_free(S, a)
    if n == 0:
        return S.unit()
    out = a  # 1 > a = a
    for _ in range(n - 1):
        out = S.right(out, a)
    return out


def ell(S: DendriformStructure, *args: Elem) -> Elem:
    """Left-iterated pre-Lie word: ell(a1..an) = (..(a1 |> a2) |> ..) |> an."""
    if not args:
        raise EmptyArgumentList("ell needs at least one argument")
    out = args[0]
    _require_unit_free(S, out)
    for a in args[1:]:
        out = prelie_left(S, out, a)
    return out


def r(S: DendriformStructure, *args: Elem) -> Elem:
    """Right-iterated pre-Lie word: r(a1..an) = a1 <| (a2 <| (.. <| an))."""
    if not args:
        raise EmptyArgumentList("r needs at least one argument")
    out = args[-1]
    _require_unit_free(S, out)
    for a in reversed(args[:-1]):
        out = prelie_right(S, a, out)
    return out


def opposite(S: DendriformStructure) -> DendriformStructure:
    """The opposite structure; taking it twice gives back the original object."""
    if isinstance(S, OppositeStructure):
        return S.base
    return OppositeStructure(S)
