"""The chi_y genus from Chern-root data over a presented ring.

The genus of root data (x_1 .. x_n) is the integral of the product of the
factor series x*(1 + y*e^{-x})/(1 - e^{-x}) evaluated at each root, an exact
polynomial in y.  Roots may also describe the tangent bundle stabilized by
trivial line summands (m > n roots); each trivial summand contributes an
exact factor (1 + y), which is divided out.  The direct signature (factor
x/tanh x) and the Euler integral (factor x) are integrals of the same shape,
so all of them go through one multiplicative-sequence integrator.

The integrator keeps the running product as one coefficient tuple per power
of y and per degree, and multiplies each root in through the ring's tables
(`ring.RingTables`).  The factor's rational series coefficients are first
scaled by one common denominator, so integral roots give integer ring
arithmetic; the denominator is divided out of the integral at the end.
Everything is exact and no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .ring import GradedClass, RingPresentation, normal_form
# Not called here: perfbench/tracing.py rebinds this name on this module.
from .ring import ring_mul  # noqa: F401
from .series import (
    series_exp_neg,
    series_scaled_argument,
    series_tanh_factor,
    series_todd_factor,
)


class RootCountError(ValueError):
    """Root data does not describe the ring's tangent dimension."""


@dataclass(frozen=True)
class YPolynomial:
    """Exact polynomial in the genus variable y."""

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Sequence[Fraction | int]) -> "YPolynomial":
        trimmed = [Fraction(c) for c in coeffs]
        while len(trimmed) > 1 and not trimmed[-1]:
            trimmed.pop()
        return YPolynomial(tuple(trimmed))

    def evaluate(self, y: Fraction | int) -> Fraction:
        y = Fraction(y)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * y + c
        return acc

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def divide_by_one_plus_y(self) -> "YPolynomial":
        """Exact division by (1 + y); raises if there is a remainder."""
        coeffs = list(self.coefficients)
        quotient = [Fraction(0)] * max(len(coeffs) - 1, 1)
        for k in range(len(coeffs) - 1, 0, -1):
            quotient[k - 1] = coeffs[k]
            coeffs[k - 1] -= coeffs[k]
        if coeffs[0]:
            raise RootCountError("y-polynomial is not divisible by (1 + y)")
        return YPolynomial.from_coeffs(quotient)


@dataclass(frozen=True)
class ChernRootData:
    ring: RingPresentation
    roots: tuple[GradedClass, ...]

    def __post_init__(self) -> None:
        for i, r in enumerate(self.roots):
            if not r.is_zero() and r.homogeneous_degree() != 2:
                raise ValueError(f"root #{i} is not homogeneous of degree 2")

    @property
    def n(self) -> int:
        return self.ring.top_degree // 2


@lru_cache
def _genus_factor_coeffs(order: int, t: Fraction | int) -> tuple[tuple[Fraction, ...], ...]:
    """Per-power (constant, y) coefficients of x(1+y e^{-tx})/(1-e^{-tx}).

    The factor with scaled argument keeps an overall 1/t from the leading x,
    so the t-substitution test divides by t^n via these factors directly.
    """
    t = Fraction(t)
    todd = series_scaled_argument(series_todd_factor(order), t)
    expneg = series_scaled_argument(series_exp_neg(order), t)
    mixed = todd * expneg
    # x(1+y e^{-tx})/(1-e^{-tx}) = (1/t) * [T(tx) + y * T(tx)E(tx)]
    return tuple(
        (todd.coefficients[k] / t, mixed.coefficients[k] / t) for k in range(order + 1)
    )


@lru_cache
def _tanh_factor_coeffs(order: int) -> tuple[tuple[Fraction], ...]:
    """Per-power coefficients of x/tanh x, each a constant in y."""
    return tuple((c,) for c in series_tanh_factor(order).coefficients)


def _integrate_multiplicative(
    data: ChernRootData, coeffs: Sequence[Sequence[Fraction | int]]
) -> YPolynomial:
    """Integral of the product of f(x_i) over the roots, as a y-polynomial.

    f(x) = sum_k c_k(y) x^k is a multiplicative-sequence factor, and
    coeffs[k] lists the y-coefficients of c_k.  The product is one tuple per
    power of y and per degree 2d, over the ring's degree-2d basis, and each
    root's normal form is multiplied in through the ring's tables.  The c_k
    are first scaled by the lcm D of their denominators, so integral roots
    keep the arithmetic on ints, and the integral is divided by
    D^(number of roots) at the end.  Root powers are formed only up to the
    last nonzero c_k.
    """
    ring = data.ring
    tables = ring.tables
    n = data.n
    denom = lcm(*(Fraction(c).denominator for ck in coeffs for c in ck))
    scaled = [[(Fraction(c) * denom).numerator for c in ck] for ck in coeffs]
    last = max((k for k, ck in enumerate(scaled) if any(ck)), default=-1)
    width = max((len(ck) for ck in scaled), default=1)
    zero = [tables.vector(GradedClass.zero(), d) for d in range(n + 1)]
    product = [[tables.one] + zero[1:]]
    for root in data.roots:
        vec = tables.vector(normal_form(ring, root), 1)
        out = [list(zero) for _ in range(len(product) + width - 1)]
        power = product  # the product times root^k, per power of y
        for k in range(last + 1):
            if k:
                power = [[zero[0]] + [tables.mul(d, part[d], vec) for d in range(n)] for part in power]
            for j, c in enumerate(scaled[k]):
                if c:
                    for i, part in enumerate(power):
                        dest = out[i + j]
                        for d, term in enumerate(part):
                            dest[d] = tuple(x + c * t for x, t in zip(dest[d], term))
        product = out
    scale = denom ** len(data.roots)
    top = tables.bases[n].index(ring.fundamental)
    return YPolynomial.from_coeffs([Fraction(part[n][top], scale) for part in product])


def _check_root_count(data: ChernRootData) -> None:
    if len(data.roots) < data.n:
        raise RootCountError(f"need at least {data.n} roots, got {len(data.roots)}")


def chi_y(data: ChernRootData) -> YPolynomial:
    """chi_y as an exact y-polynomial with coefficients chi^0 .. chi^n.

    With m > n roots the extra summands are trivial bundle directions and the
    raw integral carries an exact factor (1+y) each, which is divided out.
    """
    return chi_y_scaled(data, 1)


def chi_y_scaled(data: ChernRootData, t: Fraction | int) -> YPolynomial:
    """chi_y computed from roots scaled by t (t nonzero), dividing by t^n.

    The substitution is exact because only the top-degree component of the
    integrand survives integration, and that component scales by exactly
    t^n, which the per-factor 1/t normalization removes.
    """
    if not t:
        raise ValueError("t must be nonzero")
    _check_root_count(data)
    n = data.n
    extra = len(data.roots) - n
    raw = _integrate_multiplicative(data, _genus_factor_coeffs(n, t))
    # the per-factor 1/t accounts for t^m; restore the t^(m-n) overshoot
    scale = Fraction(t) ** extra
    out = YPolynomial.from_coeffs([c * scale for c in raw.coefficients])
    for _ in range(extra):
        out = out.divide_by_one_plus_y()
    if out.degree() > n:
        raise RootCountError("chi_y degree exceeds the complex dimension")
    return YPolynomial.from_coeffs(list(out.coefficients) + [0] * (n - out.degree()))


def euler_from_chi(chi: YPolynomial) -> Fraction:
    """Value at y = -1: the Euler characteristic."""
    return chi.evaluate(-1)


def signature_from_chi(chi: YPolynomial) -> Fraction:
    """Value at y = +1: the signature."""
    return chi.evaluate(1)


def todd_from_chi(chi: YPolynomial) -> Fraction:
    """Constant coefficient chi^0: the Todd genus."""
    return chi.coefficients[0]


def signature_direct(data: ChernRootData) -> Fraction:
    """Integral of the product of x_i/tanh(x_i): the signature via L-data.

    The factor is 1 at x = 0, so stabilizing trivial roots change nothing
    and no root-count correction is needed.
    """
    return _integrate_multiplicative(data, _tanh_factor_coeffs(data.n)).coefficients[0]


def top_chern_integral(data: ChernRootData) -> Fraction:
    """Integral of the product of the roots (the Euler class of the data).

    Fewer than n roots is a RootCountError, as for chi_y.
    """
    _check_root_count(data)
    return _integrate_multiplicative(data, [[0], [1]]).coefficients[0]


def duality_check(chi: YPolynomial, n: int) -> bool:
    """chi^p == (-1)^n chi^(n-p) for all p."""
    coeffs = list(chi.coefficients) + [Fraction(0)] * (n + 1 - len(chi.coefficients))
    if len(coeffs) > n + 1:
        return False
    sign = (-1) ** n
    return all(coeffs[p] == sign * coeffs[n - p] for p in range(n + 1))


def hirzebruch_congruence(chi_val: int, sigma_val: int, m: int) -> bool:
    """chi == (-1)^m * sigma mod 4, the almost-complex gate in dimension 4m."""
    return (chi_val - (-1) ** m * sigma_val) % 4 == 0


@dataclass
class TelescopeReport:
    n: int
    chi: int
    sigma: int
    correction: int
    identity_holds: bool
    congruent: bool


def telescoped_congruence(coefficients: Sequence[int]) -> TelescopeReport:
    """Mechanize the duality-to-congruence fold for integer chi^p vectors.

    For n = 4k the alternating sum telescopes to
        chi(-1) = chi(1) - 4 * sum of chi^(2p+1) for p < k,
    and for n = 4k+2 to
        chi(-1) = -chi(1) + 4 * sum of chi^(2p) for p <= k,
    provided chi^p = chi^(n-p).  The report carries the exact correction term
    (a multiple of 4 by construction) and whether the identity held.
    """
    coeffs = [int(c) for c in coefficients]
    n = len(coeffs) - 1
    if n % 2:
        raise ValueError("need an even complex dimension (odd-length vector)")
    if any(coeffs[p] != coeffs[n - p] for p in range(n + 1)):
        raise ValueError("coefficient vector is not duality-symmetric")
    chi = sum((-1) ** p * c for p, c in enumerate(coeffs))
    sigma = sum(coeffs)
    if n % 4 == 0:
        k = n // 4
        correction = -4 * sum(coeffs[2 * p + 1] for p in range(k))
        identity = chi == sigma + correction
        congruent = (chi - sigma) % 4 == 0
    else:
        k = (n - 2) // 4
        correction = 4 * sum(coeffs[2 * p] for p in range(k + 1))
        identity = chi == -sigma + correction
        congruent = (chi + sigma) % 4 == 0
    return TelescopeReport(
        n=n,
        chi=chi,
        sigma=sigma,
        correction=correction,
        identity_holds=identity,
        congruent=congruent,
    )
