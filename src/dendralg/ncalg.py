"""Exact sparse linear combinations over ordered combinatorial bases.

Scalars are exact rationals with one public representation each: a plain
`int` when the value is integral, otherwise a `fractions.Fraction` (lowest
terms, positive denominator above 1).  An `Elem` is a finite linear
combination of basis keys with a deterministic term order; a `Series` is a
truncated power series in a formal parameter t whose coefficients are
elements.  Words and permutations, the two basis key types shared by several
structures, live here as well, with `_words` and `_perms`, which build their
elements from tuple -> integer dicts.

Inside, an element is integer numerators over one denominator, as in FLINT's
`fmpq_poly`: `_terms` maps each key to a nonzero int, `_den` is a positive
int, and gcd(_den, every numerator) = 1, so two elements are equal exactly
when their sorts, dens and dicts are.  `Fraction` appears only at the
boundary: `as_scalar` and `Elem(sort, terms)` take scalars in, and `coeff`,
`unit_coeff`, `items` and `render` give them back in the public
representation.  All arithmetic in between is on ints.

Every sum of elements inside the package goes through one of three adds
into a plain dict of numerators, each kept apart for a measured reason.
`_accumulate(data, terms, c)` adds the int c times integer numerators; its
own c == 1 loop took 0.77-0.79 ms on a 5,000-term add against 0.84-0.85 ms
for the general one.  `_accumulate_scaled(data, terms, c, den, t)` is the
den step, the one place where a scalar's numerator and denominator meet a
sum: it adds the exact scalar c times numerators over t into data over
den, first moving the sum to the lcm (`_common_den`) when needed, and
returns the den of the sum.  Sums of scaled elements,
`Elem(sort, terms)`, the operator R (`_linear`) and the operator carriers'
halves all take it.  `_accumulate_groups` adds a product-table entry of
the dendriform structures, stored as (den, groups), its numerators grouped
by value (`_group_terms`); an entry with den 1, the case of every integral
table, is added as it stands.  It keeps its own loop, the hottest one:
routed through `_accumulate` it was no faster on mr table entries and up
to 20% slower.  The grouping pays in memory, not in speed: the default
`verify` peaks at 68.5 MB with it and at 74.2 MB with (den, dict) entries.
`Elem._trusted(sort, data, den)` wraps the dict as data / den: a C-level
`0 in data.values()` test decides whether the zeros must be dropped, and
only a den above 1 costs a gcd.  It looks at the keys no further, so a sum
of k terms in total costs O(k), however many summands it has.  Validation
(that every key belongs to the sort, that every coefficient is an exact
scalar) happens only in the public constructor `Elem(sort, terms)`, where
outside data comes in; it checks each term, adds it through the den step
and normalizes as `_trusted` does.  Keys follow the same rule: `Word(...)`
and `Perm(...)` check their letters, while `Word._trusted` and
`Perm._trusted`, each a bare `tuple.__new__`, take data that the calling
code builds valid by construction.

Every basis key of every sort is a tuple: a `Word` or a `Perm` (and the
planar binary trees of `structures`) is a `tuple` subclass with no slots of
its own, and defines no hash, equality or order, so dicts hash and compare
it in C.  A word thus equals a permutation or a plain tuple with the same
entries; sorts keep them apart, as `Elem(sort, terms)` and `Elem.coeff`
check every key with `sort.check`.  A key's order is its sort's `skey`,
which `Elem.support` reads; nothing compares keys with < or >.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

from .errors import (
    EmptyWord,
    InvalidPermutation,
    SortMismatch,
)

Scalar = int | Fraction


def as_scalar(c) -> Scalar:
    """The one representation of an int or Fraction; floats are rejected.

    An integral value becomes a plain int (True becomes 1), any other
    Fraction is returned unchanged.

    >>> as_scalar(Fraction(4, 2)), as_scalar(True), as_scalar(Fraction(1, 3))
    (2, 1, Fraction(1, 3))
    """
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class Word(tuple):
    """A word over the positive-integer alphabet; letter i renders as xi.

    The word is the tuple of its letters.

    >>> str(Word((1, 2, 1)))
    'x1.x2.x1'
    >>> Word((1,)) + Word((2,))
    Word((1, 2))

    Words are ordered by their sort, shorter first, then letter by letter:

    >>> Elem(WORD_SORT, {Word((2,)): 1, Word((1, 1)): 1, Word((1,)): 1}).support()
    [Word((1,)), Word((2,)), Word((1, 1))]
    """

    __slots__ = ()
    _trusted = classmethod(tuple.__new__)  # the letters taken unchecked
    letters = property(tuple)

    def __init__(self, letters: Iterable[int]):
        for a in self:
            if type(a) is not int or a < 1:
                raise ValueError(f"letters must be positive integers, got {a!r}")

    def __add__(self, other: "Word") -> "Word":
        return Word._trusted(tuple.__add__(self, other))

    def __str__(self) -> str:
        return ".".join(f"x{a}" for a in self) if self else "1"

    def __repr__(self) -> str:
        return f"Word({tuple(self)!r})"


class Perm(tuple):
    """A permutation of {1..n}: the tuple of its one-line notation.

    >>> Perm((3, 1, 2)).inverse()
    Perm((2, 3, 1))
    >>> Perm((3, 1, 2))(1)
    3
    """

    __slots__ = ()
    _trusted = classmethod(tuple.__new__)  # the image taken unchecked
    image = property(tuple)
    n = property(len)

    def __init__(self, image: Iterable[int]):
        n = len(self)
        if (any(type(v) is not int for v in self)
                or sorted(self) != list(range(1, n + 1))):
            raise InvalidPermutation(f"not one-line data for S_{n}: {tuple(self)}")

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self):
            raise IndexError(f"{i} is outside 1..{len(self)}")
        return self[i - 1]

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return Perm._trusted(inv)

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(self) != len(other):
            raise InvalidPermutation("can only compose permutations of equal size")
        return Perm._trusted([self[v - 1] for v in other])

    def __str__(self) -> str:
        return "p" + ".".join(str(v) for v in self) if self else "1"

    def __repr__(self) -> str:
        return f"Perm({tuple(self)!r})"


class BasisSort:
    """Names a basis, its distinguished unit key, term order, and rendering.

    Elements over different sorts never mix; the sort is compared by name so a
    parameterized sort built twice with the same parameters is the same sort.
    check(key) raises SortMismatch unless key is a key of the sort.
    """

    __slots__ = ("name", "unit_key", "skey", "show", "check")

    def __init__(self, name: str, unit_key, skey: Callable, show: Callable,
                 check: Callable):
        self.name = name
        self.unit_key = unit_key
        self.skey = skey
        self.show = show
        self.check = check

    def order_key(self, key):
        if key == self.unit_key:
            return (0, ())
        return (1, self.skey(key))

    def render_key(self, key) -> str:
        if key == self.unit_key:
            return "1"
        return self.show(key)

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisSort) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"BasisSort({self.name!r})"


WORD_SORT = BasisSort(
    "word",
    Word(()),
    skey=lambda w: (len(w), *w),
    show=str,
    check=lambda w: None if isinstance(w, Word) else _bad_key("word", w),
)

PERM_SORT = BasisSort(
    "perm",
    Perm(()),
    skey=lambda p: (len(p), *p),
    show=str,
    check=lambda p: None if isinstance(p, Perm) else _bad_key("perm", p),
)


def _bad_key(sort_name, key):
    raise SortMismatch(f"key {key!r} does not belong to basis sort {sort_name!r}")


def _accumulate(data: dict, terms, c: int = 1) -> dict:
    """Add c * terms into data, in place, and return data.

    The one accumulation path of the package.  data maps keys to integer
    numerators over one denominator and may be left holding zeros, which
    `Elem._trusted` clears; terms is a key -> numerator mapping or an
    iterable of (key, numerator) pairs over the same denominator.  Nothing
    is checked: the caller vouches that the keys belong to the sort of data
    and that the numerators and c are ints.
    """
    items = terms.items() if isinstance(terms, dict) else terms
    get = data.get
    if c == 1:
        for key, v in items:
            old = get(key)
            data[key] = v if old is None else old + v
    else:
        for key, v in items:
            v = c * v
            old = get(key)
            data[key] = v if old is None else old + v
    return data


def _normal(data: dict, den: int) -> tuple:
    """(data, den) in the stored form of an element: no zero numerator and
    no common factor of den and the numerators.

    data is returned as it is unless it holds a zero, which a C-level
    `0 in data.values()` test finds, or den is above 1 and shares a factor
    with every numerator; then it is rebuilt, never changed in place.
    """
    if 0 in data.values():
        data = {k: c for k, c in data.items() if c}
    if den != 1:
        g = math.gcd(den, *data.values())
        if g != 1:
            den //= g
            data = {k: c // g for k, c in data.items()}
    return data, den


def _common_den(data: dict, den: int, t: int) -> int:
    """Move data, numerators over den, to a denominator that t divides, in
    place, and return it: den itself when t divides it, otherwise
    lcm(den, t), every value of data multiplied up once."""
    if den % t:
        grown = math.lcm(den, t)
        factor = grown // den
        for key in data:
            data[key] *= factor
        den = grown
    return den


def _accumulate_scaled(data: dict, terms, c: Scalar, den: int = 1,
                       t: int = 1) -> int:
    """Add the exact scalar c times terms, integer numerators over t, into
    data, whose values are numerators over den, through `_accumulate`, and
    return the denominator of the sum (see `_common_den`)."""
    t *= c.denominator
    p = c.numerator
    if t != den:
        den = _common_den(data, den, t)
        p *= den // t
    _accumulate(data, terms, p)
    return den


def _group_terms(e: "Elem") -> tuple:
    """A product-table entry: e as (den, groups), its numerators grouped by
    value.

    groups is ((numerator, (key, ...)), ...), in the order the numerators
    first occur; the form `_accumulate_groups` adds.  It takes less memory
    than an `Elem` entry, not less time to add (see the module docstring).
    """
    groups: dict = {}
    for key, c in e._terms.items():
        groups.setdefault(c, []).append(key)
    return e._den, tuple((c, tuple(keys)) for c, keys in groups.items())


def _accumulate_groups(data: dict, entry: tuple, c: int, den: int = 1) -> int:
    """Add c times a table entry (t, groups) into data, whose values are
    numerators over den, and return the denominator of the sum.

    `_accumulate` for entries stored by `_group_terms`: one multiply per
    group, none when its numerator is 1, and one add per key.  An entry
    with t = den, such as every entry of an integral table added over
    den 1, is added as it stands.  Otherwise the sum first moves to a den
    that t divides (`_common_den`), and c takes the factor den / t.  c is an
    int, and the same caller guarantees as for `_accumulate` hold.
    """
    t, groups = entry
    if t != den:
        den = _common_den(data, den, t)
        c *= den // t
    get = data.get
    for coef, keys in groups:
        v = c if coef == 1 else c * coef
        for key in keys:
            old = get(key)
            data[key] = v if old is None else old + v
    return den


def _bilinear(sort: "BasisSort", x: "Elem", y: "Elem", fn) -> "Elem":
    """The bilinear extension to x and y of fn(k1, k2), an iterable of
    (key, int) pairs on keys of sort."""
    ys = y._terms.items()
    return Elem._trusted(sort, _accumulate({}, [
        (key, c1 * c2 * v) for k1, c1 in x._terms.items() for k2, c2 in ys
        for key, v in fn(k1, k2)]), x._den * y._den)


def _relabel(x: "Elem", fn) -> "Elem":
    """x with each key k replaced by fn(k), a key of its sort; fn must be
    one-to-one on the keys of x."""
    return Elem._trusted(x.sort, {fn(k): c for k, c in x._terms.items()},
                         x._den)


def _linear(sort: "BasisSort", x: "Elem", fn) -> "Elem":
    """The linear extension to x of fn(k), an iterable of (key, exact
    scalar) pairs on keys of sort."""
    data: dict = {}
    den = 1
    for k, c in x._terms.items():
        for key, v in fn(k):
            den = _accumulate_scaled(data, ((key, c),), v, den)
    return Elem._trusted(sort, data, x._den * den)


class Elem:
    """A finite linear combination of basis keys with rational coefficients.

    Stored as integer numerators over one denominator: `_terms` maps each
    key to a nonzero int and `_den` is a positive int coprime to all of
    them, so equality is equality of the sort, the den and the dict.  The
    public scalars, read through `coeff`, `unit_coeff` and `items`, are
    those numerators over den in lowest terms: an int when integral,
    otherwise a Fraction.  Addition, subtraction, negation and scalar
    multiples are supported directly; products belong to the structures
    that own them.
    """

    __slots__ = ("sort", "_terms", "_den")

    def __init__(self, sort: BasisSort, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        data: dict = {}
        den = 1
        for key, c in items:
            c = as_scalar(c)
            sort.check(key)
            den = _accumulate_scaled(data, ((key, 1),), c, den)
        data, den = _normal(data, den)
        _set_sort(self, sort)
        _set_terms(self, data)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Elem is immutable; build a new one")

    @classmethod
    def _trusted(cls, sort: BasisSort, data: dict, den: int = 1) -> "Elem":
        """Wrap data / den, data a dict of int numerators filled by
        `_accumulate`, and den a positive int.

        The dict is taken over, not copied, unless `_normal` must rebuild
        it, to drop its zeros or, only when den is above 1, to divide out a
        common factor of den and the numerators.  Its keys are not validated
        again; the public constructor checks each term and then takes the
        same steps.
        """
        if den != 1 or 0 in data.values():
            data, den = _normal(data, den)
        out = cls.__new__(cls)
        _set_sort(out, sort)
        _set_terms(out, data)
        _set_den(out, den)
        return out

    @classmethod
    def zero(cls, sort: BasisSort) -> "Elem":
        return cls(sort)

    @classmethod
    def term(cls, sort: BasisSort, key, c=1) -> "Elem":
        return cls(sort, [(key, c)])

    @classmethod
    def unit(cls, sort: BasisSort) -> "Elem":
        return cls(sort, [(sort.unit_key, 1)])

    def _scalar(self, numerator: int) -> Scalar:
        """numerator / den as a public scalar."""
        if self._den == 1 or not numerator:
            return numerator
        return as_scalar(Fraction(numerator, self._den))

    def coeff(self, key) -> Scalar:
        """The coefficient of key; a key of another sort raises SortMismatch."""
        self.sort.check(key)
        return self._scalar(self._terms.get(key, 0))

    @property
    def unit_coeff(self) -> Scalar:
        return self._scalar(self._terms.get(self.sort.unit_key, 0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def support(self):
        return sorted(self._terms, key=self.sort.order_key)

    def items(self):
        """Terms in the sort's deterministic order."""
        return [(k, self._scalar(self._terms[k])) for k in self.support()]

    def _require_same_sort(self, other: "Elem"):
        if not isinstance(other, Elem):
            raise TypeError(f"expected Elem, got {other!r}")
        if self.sort != other.sort:
            raise SortMismatch(f"{self.sort.name!r} vs {other.sort.name!r}")

    def __add__(self, other: "Elem") -> "Elem":
        self._require_same_sort(other)
        big, small = self, other
        if len(big._terms) < len(small._terms):
            big, small = small, big
        data = dict(big._terms)
        den = _accumulate_scaled(data, small._terms, 1, big._den, small._den)
        return Elem._trusted(self.sort, data, den)

    def __sub__(self, other: "Elem") -> "Elem":
        self._require_same_sort(other)
        data = dict(self._terms)
        den = _accumulate_scaled(data, other._terms, -1, self._den,
                                 other._den)
        return Elem._trusted(self.sort, data, den)

    def __neg__(self) -> "Elem":
        return Elem._trusted(self.sort, {k: -c for k, c in self._terms.items()},
                             self._den)

    def scale(self, c) -> "Elem":
        c = as_scalar(c)
        if not c:
            return Elem(self.sort)
        if c == 1:
            return self
        p = c.numerator
        data = (self._terms if p == 1
                else {k: p * v for k, v in self._terms.items()})
        return Elem._trusted(self.sort, data, self._den * c.denominator)

    def __rmul__(self, c) -> "Elem":
        return self.scale(c)

    def __truediv__(self, c) -> "Elem":
        return self.scale(Fraction(1, 1) / as_scalar(c))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Elem) and self.sort == other.sort
                and self._den == other._den and self._terms == other._terms)

    def map_keys(self, fn) -> "Elem":
        """Linear extension of a key-to-Elem map over the same sort."""
        data: dict = {}
        den = 1
        for key, c in self._terms.items():
            image = fn(key)
            self._require_same_sort(image)
            den = _accumulate_scaled(data, image._terms, c, den, image._den)
        return Elem._trusted(self.sort, data, self._den * den)

    def render(self, max_terms: int | None = None) -> str:
        """Human form: terms joined by " + "/" - ", coefficient prefix p/q*
        omitted when the coefficient is +-1, keys per the sort's notation.
        """
        items = self.items()
        if not items:
            return "0"
        shown = items if max_terms is None else items[:max_terms]
        parts = []
        for i, (key, c) in enumerate(shown):
            mag = c if c > 0 else -c
            body = self.sort.render_key(key)
            if mag != 1:
                body = f"{mag}*{body}"
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        if max_terms is not None and len(items) > max_terms:
            parts.append(f" + {len(items) - max_terms} more")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<Elem {self.sort.name}: {self.render(max_terms=8)}>"


# the slots' own setters, which skip the refusing Elem.__setattr__
_set_sort, _set_terms, _set_den = (vars(Elem)[name].__set__
                                   for name in Elem.__slots__)


def linear_combination(sort: BasisSort, pairs) -> Elem:
    """sum(c * e) over (e, c) pairs of elements of `sort` and exact scalars."""
    data: dict = {}
    den = 1
    for e, c in pairs:
        if not isinstance(e, Elem) or e.sort != sort:
            raise SortMismatch(f"expected an element over {sort.name!r}, got {e!r}")
        den = _accumulate_scaled(data, e._terms, as_scalar(c), den, e._den)
    return Elem._trusted(sort, data, den)


def elem_sum(sort: BasisSort, elems: Iterable[Elem]) -> Elem:
    return linear_combination(sort, ((e, 1) for e in elems))


def _words(counts: dict, den: int = 1) -> Elem:
    """The word element of a letter tuple -> numerator dict, over den."""
    return Elem._trusted(WORD_SORT,
                         {Word._trusted(t): c for t, c in counts.items()}, den)


def _perms(counts: dict) -> Elem:
    """The permutation element of a one-line tuple -> integer dict."""
    return Elem._trusted(PERM_SORT,
                         {Perm._trusted(t): c for t, c in counts.items()})


def multilinear_part(e: Elem) -> Elem:
    """Keep only words in which no letter repeats (the multilinear span)."""
    if e.sort != WORD_SORT:
        raise SortMismatch("multilinear_part expects a word element")
    kept = {w: c for w, c in e._terms.items() if len(set(w)) == len(w)}
    return Elem._trusted(WORD_SORT, kept, e._den)


class Series:
    """A truncated power series sum(c_n t^n, n <= cap) with Elem coefficients.

    The cap is data: combining two series keeps the smaller cap, so exactness
    of every stored coefficient is preserved.
    """

    __slots__ = ("sort", "coeffs", "cap")

    def __init__(self, sort: BasisSort, coeffs: Iterable[Elem], cap: int | None = None):
        coeffs = list(coeffs)
        if cap is None:
            cap = len(coeffs) - 1
        if cap < 0:
            raise ValueError("cap must be >= 0")
        while len(coeffs) < cap + 1:
            coeffs.append(Elem(sort))
        if len(coeffs) > cap + 1:
            raise ValueError("more coefficients than the cap allows")
        for c in coeffs:
            if c.sort != sort:
                raise SortMismatch("series coefficients must share the basis sort")
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def zero(cls, sort: BasisSort, cap: int) -> "Series":
        return cls(sort, [], cap)

    @classmethod
    def unit(cls, sort: BasisSort, cap: int) -> "Series":
        return cls(sort, [Elem.unit(sort)], cap)

    def coeff(self, n: int) -> Elem:
        if not 0 <= n <= self.cap:
            raise IndexError(f"coefficient {n} outside cap {self.cap}")
        return self.coeffs[n]

    def _binop(self, other: "Series", fn) -> "Series":
        if self.sort != other.sort:
            raise SortMismatch("series over different basis sorts")
        cap = min(self.cap, other.cap)
        return Series(self.sort, [fn(self.coeffs[n], other.coeffs[n])
                                  for n in range(cap + 1)], cap)

    def __add__(self, other: "Series") -> "Series":
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other: "Series") -> "Series":
        return self._binop(other, lambda a, b: a - b)

    def scale(self, c) -> "Series":
        return Series(self.sort, [x.scale(c) for x in self.coeffs], self.cap)

    def t_derivative(self) -> "Series":
        """Apply t d/dt: the n-th coefficient becomes n*c_n."""
        return Series(self.sort, [c.scale(n) for n, c in enumerate(self.coeffs)],
                      self.cap)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.sort == other.sort
                and self.cap == other.cap and self.coeffs == other.coeffs)

    def first_difference(self, other: "Series") -> int | None:
        cap = min(self.cap, other.cap)
        for n in range(cap + 1):
            if self.coeffs[n] != other.coeffs[n]:
                return n
        return None

    def __repr__(self) -> str:
        inner = " , ".join(f"t^{n}:{c.render(max_terms=4)}"
                           for n, c in enumerate(self.coeffs) if c)
        return f"<Series cap={self.cap} {inner or '0'}>"


def series_mul(f: Series, g: Series, mul: Callable[[Elem, Elem], Elem]) -> Series:
    """Cauchy product with the given bilinear coefficient product."""
    if f.sort != g.sort:
        raise SortMismatch("series over different basis sorts")
    cap = min(f.cap, g.cap)
    out = []
    for n in range(cap + 1):
        data: dict = {}
        den = 1
        for i in range(n + 1):
            fi, gj = f.coeffs[i], g.coeffs[n - i]
            if fi and gj:
                p = mul(fi, gj)
                den = _accumulate_scaled(data, p._terms, 1, den, p._den)
        out.append(Elem._trusted(f.sort, data, den))
    return Series(f.sort, out, cap)
