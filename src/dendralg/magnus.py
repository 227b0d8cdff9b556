"""Magnus-type recursion for the logarithm of the power-sum series.

Let Y = sum(w>(n)(a) t^n) be the generating series of the right power sums of
a single element, a group-like series for the associated product.  This
module computes Omega = log*(Y) without ever expanding the logarithm:
collecting the iterated left pre-Lie words into tL = sum(ell(n)(a) t^n), the
coefficients of Omega satisfy the fixed-point recursion

    d * Omega_d = coefficient of t^d in
        tL + sum((-1)^k B_k / k! * ad(Omega)^k(tL), k >= 1)

with B_k the Bernoulli numbers (B_1 = -1/2) and ad the product-commutator
taken termwise on series.  Since every series involved has zero constant
term, only finitely many k contribute in each degree and the recursion
closes degree by degree (Ebrahimi-Fard and Manchon, "A Magnus- and Fer-type
formula in dendriform algebras").  The inverse pair exp*/log* lets the
result be cross-checked: exp*(Omega) recovers Y exactly up to the cap.

The recursion is kept local to one degree.  The rows
nested[k][m] = [t^m] ad(Omega)^k(tL) start at m = k + 1, so

    nested[k][d] = sum(Omega_i * nested[k-1][j] - nested[k-1][j] * Omega_i,
                       i + j = d, i >= 1, j >= k)

needs only Omega_1..Omega_{d-k} and entries of row k-1 below degree d, all
known when degree d is reached.  Degree d adds one entry to each of the rows
1..d-1 and nothing else, so the whole series up to cap takes O(cap^3)
element products, against O(cap^4) for re-expanding full-series
commutators at every degree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dendriform import DendriformStructure, ell, w_right
from .errors import NormalizationError
from .ncalg import Elem, Series, linear_combination, series_mul

__all__ = [
    "bernoulli_numbers", "star_exp", "star_log", "power_sum_series",
    "prelie_word_series", "magnus_omega", "dynkin_ode_check",
]


def bernoulli_numbers(count: int) -> list:
    """B_0..B_count with the B_1 = -1/2 convention.

    >>> bernoulli_numbers(4)[1:]
    [Fraction(-1, 2), Fraction(1, 6), Fraction(0, 1), Fraction(-1, 30)]
    """
    out = []
    for m in range(count + 1):
        acc = Fraction(0)
        for j, b in enumerate(out):
            acc += math.comb(m + 1, j) * b
        out.append(-acc / (m + 1) if m else Fraction(1))
    return out


def star_exp(S: DendriformStructure, x: Series) -> Series:
    """exp of a series with zero constant term, in the associated product."""
    if x.coeffs[0]:
        raise NormalizationError("star_exp needs zero constant term")
    acc = Series.unit(S.sort, x.cap)
    power = acc
    for k in range(1, x.cap + 1):
        power = series_mul(power, x, S.star).scale(Fraction(1, k))
        acc = acc + power
    return acc


def star_log(S: DendriformStructure, y: Series) -> Series:
    """log of a series with constant term 1, in the associated product."""
    if y.coeffs[0] != Elem.unit(S.sort):
        raise NormalizationError("star_log needs constant term 1")
    z = y - Series.unit(S.sort, y.cap)
    acc = Series.zero(S.sort, y.cap)
    power = Series.unit(S.sort, y.cap)
    for k in range(1, y.cap + 1):
        power = series_mul(power, z, S.star)
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    return acc


def power_sum_series(S: DendriformStructure, a: Elem, cap: int) -> Series:
    """Y = 1 + sum(w>(n)(a) t^n, 1 <= n <= cap)."""
    return Series(S.sort, [w_right(S, a, n) for n in range(cap + 1)], cap)


def prelie_word_series(S: DendriformStructure, a: Elem, cap: int) -> Series:
    """tL = sum(ell(n)(a) t^n, 1 <= n <= cap)."""
    coeffs = [S.zero()]
    for n in range(1, cap + 1):
        coeffs.append(ell(S, *([a] * n)))
    return Series(S.sort, coeffs, cap)


def magnus_omega(S: DendriformStructure, a: Elem, cap: int) -> Series:
    """Solve the Bernoulli-weighted fixed point for Omega = log*(Y).

    The first coefficients are Omega_1 = a, Omega_2 = ell(2)/2 and
    Omega_3 = ell(3)/3 + [ell(1), ell(2)]/12.
    """
    tl = prelie_word_series(S, a, cap)
    bern = bernoulli_numbers(cap)
    weights = [Fraction((-1) ** k) * bern[k] / math.factorial(k)
               for k in range(cap)]
    omega = [S.zero()]
    nested = [list(tl.coeffs)]  # nested[k][m] = [t^m] ad(Omega)^k(tL)
    for d in range(1, cap + 1):
        rhs = [(tl.coeff(d), 1)]
        for k in range(1, d):
            if k == len(nested):
                nested.append([S.zero()] * (cap + 1))
            prev = nested[k - 1]
            parts = []
            for j in range(k, d):
                om, x = omega[d - j], prev[j]
                if om and x:
                    parts.append((S.star(om, x), 1))
                    parts.append((S.star(x, om), -1))
            nested[k][d] = linear_combination(S.sort, parts)
            if weights[k]:
                rhs.append((nested[k][d], weights[k]))
        omega.append(linear_combination(S.sort, rhs).scale(Fraction(1, d)))
    return Series(S.sort, omega, cap)


def dynkin_ode_check(S: DendriformStructure, a: Elem, cap: int) -> bool:
    """Differential consistency of the power-sum series with its Dynkin image.

    With Y the power-sum series and DY the series of Dynkin images (the
    iterated left pre-Lie words), checks t dY/dt = Y * DY up to the cap.
    """
    y = power_sum_series(S, a, cap)
    dy = prelie_word_series(S, a, cap)
    return series_mul(y, dy, S.star) == y.t_derivative()
