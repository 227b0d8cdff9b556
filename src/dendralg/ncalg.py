"""Exact sparse linear combinations over ordered combinatorial bases.

Scalars are exact rationals with one representation each: a plain `int`
when the value is integral, otherwise a `fractions.Fraction` (lowest terms,
positive denominator above 1).  An `Elem` is a finite linear combination of
basis keys with a deterministic term order; a `Series` is a truncated power
series in a formal parameter t whose coefficients are elements.  Words and
permutations, the two basis key types shared by several structures, live
here as well, with `_words` and `_perms`, which build their elements from
tuple -> coefficient dicts.

Every sum of elements inside the package goes through one accumulation path:
`_accumulate(data, terms, c)` adds c times some terms into a plain dict, and
`Elem._trusted(sort, data)` drops the zero coefficients of that dict in place
and wraps it; in the same pass it turns any integral `Fraction` (such as
1/2 + 1/2) into its `int`, and it looks at the keys no further.  A sum of k
terms in total therefore costs O(k), however many summands it has.  The basis
product tables of the dendriform structures store their terms grouped by
coefficient (`_group_terms`), and `_accumulate_groups` is the same add for
that form: one multiply per group rather than per term.  Validation
(that every key belongs to the sort, that every coefficient is an exact
scalar) happens only in the public constructor `Elem(sort, terms)`, where
outside data comes in; it checks each term and then adds and normalizes
through the same two steps.  Keys follow the same rule: `Word(...)` and
`Perm(...)` check their letters, while `Word._trusted` and `Perm._trusted`,
each a bare `tuple.__new__`, take data that the calling code builds valid
by construction.

Every basis key of every sort is a tuple: a `Word` or a `Perm` (and the
planar binary trees of `structures`) is a `tuple` subclass with no slots of
its own, and defines no hash, equality or order, so dicts hash and compare
it in C.  A word thus equals a permutation or a plain tuple with the same
entries; sorts keep them apart, as `Elem(sort, terms)` and `Elem.coeff`
check every key with `sort.check`.  A key's order is its sort's `skey`,
which `Elem.support` reads; nothing compares keys with < or >.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable

from .errors import (
    EmptyWord,
    InvalidPermutation,
    NormalizationError,
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

    def as_word(self) -> Word:
        return Word._trusted(self)

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


def _accumulate(data: dict, terms, c=1) -> dict:
    """Add c * terms into data, in place, and return data.

    The one accumulation path of the package.  data maps keys to exact
    scalars and may be left holding zeros and integral Fractions, which
    `Elem._trusted` clears; terms is a key -> coefficient mapping or an
    iterable of (key, coefficient) pairs.  Nothing is checked: the caller
    vouches that the keys belong to the sort of data and that the
    coefficients and c are ints or Fractions.
    """
    items = terms.items() if isinstance(terms, dict) else terms
    get = data.get
    if c == 1:
        for key, v in items:
            old = get(key)
            data[key] = v if old is None else old + v
    elif c == -1:
        for key, v in items:
            old = get(key)
            data[key] = -v if old is None else old - v
    else:
        for key, v in items:
            v = c * v
            old = get(key)
            data[key] = v if old is None else old + v
    return data


def _normalized(data: dict) -> dict:
    """Drop the zeros of a dict filled by `_accumulate` and turn each
    integral Fraction into its int, in place; returns data."""
    for key, c in [(key, c) for key, c in data.items()
                   if not c or type(c) is Fraction and c.denominator == 1]:
        if c:
            data[key] = c.numerator
        else:
            del data[key]
    return data


def _group_terms(terms: dict) -> tuple:
    """The terms of a key -> coefficient dict grouped by coefficient.

    Returns ((coef, (key, ...)), ...), the groups in the order their
    coefficients first occur; the form `_accumulate_groups` adds.
    """
    groups: dict = {}
    for key, c in terms.items():
        groups.setdefault(c, []).append(key)
    return tuple((c, tuple(keys)) for c, keys in groups.items())


def _accumulate_groups(data: dict, groups, c: Scalar) -> dict:
    """Add c times the grouped terms ((coef, (key, ...)), ...) into data.

    `_accumulate` for terms stored by `_group_terms`: one multiply per
    group, none when coef is 1, and one add per key.  c must be an int or a
    Fraction, and the same caller guarantees as for `_accumulate` hold.
    """
    get = data.get
    for coef, keys in groups:
        v = c if coef == 1 else c * coef
        for key in keys:
            old = get(key)
            data[key] = v if old is None else old + v
    return data


class Elem:
    """A finite linear combination of basis keys with rational coefficients.

    Canonical form: zero coefficients are never stored, and a stored
    coefficient is an int when it is integral and otherwise a Fraction, so
    equality is dict equality.  Addition, subtraction, negation and scalar
    multiples are supported directly; products belong to the structures
    that own them.
    """

    __slots__ = ("sort", "_terms")

    def __init__(self, sort: BasisSort, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        checked = []
        for key, c in items:
            c = as_scalar(c)
            sort.check(key)
            checked.append((key, c))
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "_terms", _normalized(_accumulate({}, checked)))

    def __setattr__(self, name, value):
        raise AttributeError("Elem is immutable; build a new one")

    @classmethod
    def _trusted(cls, sort: BasisSort, data: dict) -> "Elem":
        """Wrap a dict filled by `_accumulate`, normalizing it in place.

        `_normalized` drops the zeros and turns each integral Fraction into
        its int.  The dict is taken over, not copied, and its keys are not
        validated again; the public constructor checks each term and then
        takes the same two steps.
        """
        out = cls.__new__(cls)
        object.__setattr__(out, "sort", sort)
        object.__setattr__(out, "_terms", _normalized(data))
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

    def coeff(self, key) -> Scalar:
        """The coefficient of key; a key of another sort raises SortMismatch."""
        self.sort.check(key)
        return self._terms.get(key, 0)

    @property
    def unit_coeff(self) -> Scalar:
        return self._terms.get(self.sort.unit_key, 0)

    def without_unit(self) -> "Elem":
        if self.sort.unit_key not in self._terms:
            return self
        rest = dict(self._terms)
        del rest[self.sort.unit_key]
        return Elem._trusted(self.sort, rest)

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit_free(self) -> bool:
        return self.sort.unit_key not in self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def support(self):
        return sorted(self._terms, key=self.sort.order_key)

    def items(self):
        """Terms in the sort's deterministic order."""
        return [(k, self._terms[k]) for k in self.support()]

    def _require_same_sort(self, other: "Elem"):
        if not isinstance(other, Elem):
            raise TypeError(f"expected Elem, got {other!r}")
        if self.sort != other.sort:
            raise SortMismatch(f"{self.sort.name!r} vs {other.sort.name!r}")

    def __add__(self, other: "Elem") -> "Elem":
        self._require_same_sort(other)
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        return Elem._trusted(self.sort, _accumulate(dict(big), small))

    def __sub__(self, other: "Elem") -> "Elem":
        self._require_same_sort(other)
        data = dict(self._terms)
        return Elem._trusted(self.sort, _accumulate(data, other._terms, -1))

    def __neg__(self) -> "Elem":
        return Elem._trusted(self.sort, {k: -c for k, c in self._terms.items()})

    def scale(self, c) -> "Elem":
        c = as_scalar(c)
        if not c:
            return Elem(self.sort)
        if c == 1:
            return self
        return Elem._trusted(self.sort, {k: c * v for k, v in self._terms.items()})

    def __rmul__(self, c) -> "Elem":
        return self.scale(c)

    def __truediv__(self, c) -> "Elem":
        return self.scale(Fraction(1, 1) / as_scalar(c))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Elem) and self.sort == other.sort
                and self._terms == other._terms)

    def map_keys(self, fn) -> "Elem":
        """Linear extension of a key-to-Elem map over the same sort."""
        data: dict = {}
        for key, c in self._terms.items():
            image = fn(key)
            self._require_same_sort(image)
            _accumulate(data, image._terms, c)
        return Elem._trusted(self.sort, data)

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


def linear_combination(sort: BasisSort, pairs) -> Elem:
    """sum(c * e) over (e, c) pairs of elements of `sort` and exact scalars."""
    data: dict = {}
    for e, c in pairs:
        if not isinstance(e, Elem) or e.sort != sort:
            raise SortMismatch(f"expected an element over {sort.name!r}, got {e!r}")
        _accumulate(data, e._terms, as_scalar(c))
    return Elem._trusted(sort, data)


def elem_sum(sort: BasisSort, elems: Iterable[Elem]) -> Elem:
    return linear_combination(sort, ((e, 1) for e in elems))


def _words(counts: dict) -> Elem:
    """The word element of a letter tuple -> coefficient dict."""
    return Elem._trusted(WORD_SORT,
                         {Word._trusted(t): c for t, c in counts.items()})


def _perms(counts: dict) -> Elem:
    """The permutation element of a one-line tuple -> coefficient dict."""
    return Elem._trusted(PERM_SORT,
                         {Perm._trusted(t): c for t, c in counts.items()})


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(1|x\d+(?:\.x\d+)*)$")


def parse_word_elem(text: str) -> Elem:
    """Parse the rendered word-element grammar back into an Elem.

    Accepts the ASCII forms emitted by render() plus the typographic minus and
    middle-dot variants.

    >>> parse_word_elem("x1.x2 - x2.x1") == parse_word_elem("x1.x2 − x2.x1")
    True
    >>> parse_word_elem("3/2*x1 + 1").coeff(Word((1,)))
    Fraction(3, 2)
    """
    s = text.strip().replace("−", "-").replace("·", "*")
    if s in ("", "0"):
        return Elem(WORD_SORT)
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"([+-])([^+-]+)", s)
    if "".join(sign + body for sign, body in pieces) != s:
        raise ValueError(f"cannot parse element: {text!r}")
    terms = []
    for sign, body in pieces:
        body = body.replace(" ", "")
        m = _TERM_RE.match(body)
        if not m:
            raise ValueError(f"cannot parse term: {body!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        if sign == "-":
            coeff = -coeff
        atom = m.group(2)
        if atom == "1":
            word = Word(())
        else:
            word = Word(tuple(int(part[1:]) for part in atom.split(".")))
        terms.append((word, coeff))
    return Elem(WORD_SORT, terms)


def multilinear_part(e: Elem) -> Elem:
    """Keep only words in which no letter repeats (the multilinear span)."""
    if e.sort != WORD_SORT:
        raise SortMismatch("multilinear_part expects a word element")
    kept = {w: c for w, c in e._terms.items() if len(set(w)) == len(w)}
    return Elem._trusted(WORD_SORT, kept)


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

    def __neg__(self) -> "Series":
        return Series(self.sort, [-c for c in self.coeffs], self.cap)

    def scale(self, c) -> "Series":
        return Series(self.sort, [x.scale(c) for x in self.coeffs], self.cap)

    def shift(self, k: int = 1) -> "Series":
        """Multiply by t^k (coefficients beyond the cap fall away)."""
        coeffs = [Elem(self.sort)] * k + list(self.coeffs)
        return Series(self.sort, coeffs[: self.cap + 1], self.cap)

    def t_derivative(self) -> "Series":
        """Apply t d/dt: the n-th coefficient becomes n*c_n."""
        return Series(self.sort, [c.scale(n) for n, c in enumerate(self.coeffs)],
                      self.cap)

    def truncate(self, cap: int) -> "Series":
        if cap >= self.cap:
            return self
        return Series(self.sort, self.coeffs[: cap + 1], cap)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.sort == other.sort
                and self.cap == other.cap and self.coeffs == other.coeffs)

    def agrees(self, other: "Series") -> bool:
        """Equality of all coefficients up to the smaller cap."""
        if self.sort != other.sort:
            raise SortMismatch("series over different basis sorts")
        cap = min(self.cap, other.cap)
        return self.coeffs[: cap + 1] == other.coeffs[: cap + 1]

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
        for i in range(n + 1):
            fi, gj = f.coeffs[i], g.coeffs[n - i]
            if fi and gj:
                _accumulate(data, mul(fi, gj)._terms)
        out.append(Elem._trusted(f.sort, data))
    return Series(f.sort, out, cap)


def series_inverse(f: Series, mul: Callable[[Elem, Elem], Elem]) -> Series:
    """Multiplicative inverse of a series with constant term 1."""
    unit = Elem.unit(f.sort)
    if f.coeffs[0] != unit:
        raise NormalizationError("series inverse needs constant term 1")
    inv = [unit]
    for n in range(1, f.cap + 1):
        data: dict = {}
        for k in range(1, n + 1):
            if f.coeffs[k]:
                _accumulate(data, mul(f.coeffs[k], inv[n - k])._terms, -1)
        inv.append(Elem._trusted(f.sort, data))
    return Series(f.sort, inv, f.cap)
