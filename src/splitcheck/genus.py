"""The chi_y genus from Chern-root data over a presented ring.

The genus of root data (x_1 .. x_n) is the integral of the product of the
factor series x*(1 + y*e^{-x})/(1 - e^{-x}) evaluated at each root, an exact
polynomial in y.  Roots may also describe the tangent bundle stabilized by
trivial line summands (m > n roots); each trivial summand contributes an
exact factor (1 + y), which is divided out.  The direct signature (factor
x/tanh x) and the Euler integral (factor x) are integrals of the same shape,
so all of them go through one multiplicative-sequence integrator.

Everything is exact: ring coefficients are rationals, y-coefficients are
rationals, and no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ring import (
    GradedClass,
    Monomial,
    RingPresentation,
    monomial_degree,
    monomial_mul,
    ring_mul,
)
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

    @staticmethod
    def zero() -> "YPolynomial":
        return YPolynomial((Fraction(0),))

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


# -- ring tensor rational[y] ------------------------------------------------
#
# Elements are dicts monomial -> y-coefficient list.  Multiplication reduces
# monomial products through the ring's rewrite cache, so it stays exact and
# fast for the small rings in scope.  Accumulators start at int 0, so
# integral products (the Euler integral) never build a Fraction.


def _ypoly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, z in enumerate(b):
            if z:
                out[i + j] += x * z
    return out


def _yclass_mul(
    ring: RingPresentation,
    a: dict[Monomial, list[Fraction]],
    b: dict[Monomial, list[Fraction]],
) -> dict[Monomial, list[Fraction]]:
    acc: dict[Monomial, list[Fraction]] = {}
    for ma, pa in a.items():
        for mb, pb in b.items():
            prod = monomial_mul(ma, mb)
            if monomial_degree(prod) > ring.top_degree:
                continue
            py = _ypoly_mul(pa, pb)
            for m, c in ring.reduce_monomial(prod).terms.items():
                dest = acc.setdefault(m, [])
                if len(dest) < len(py):
                    dest.extend([0] * (len(py) - len(dest)))
                for k, v in enumerate(py):
                    if v:
                        dest[k] += c * v
    return {m: p for m, p in acc.items() if any(p)}


def _genus_factor_coeffs(order: int, t: Fraction | int) -> list[list[Fraction]]:
    """Per-power [constant, y] coefficients of x(1+y e^{-tx})/(1-e^{-tx}).

    The factor with scaled argument keeps an overall 1/t from the leading x,
    so the t-substitution test divides by t^n via these factors directly.
    """
    t = Fraction(t)
    todd = series_scaled_argument(series_todd_factor(order), t)
    expneg = series_scaled_argument(series_exp_neg(order), t)
    mixed = todd * expneg
    # x(1+y e^{-tx})/(1-e^{-tx}) = (1/t) * [T(tx) + y * T(tx)E(tx)]
    return [
        [todd.coefficients[k] / t, mixed.coefficients[k] / t] for k in range(order + 1)
    ]


def _integrate_multiplicative(
    data: ChernRootData, coeffs: Sequence[Sequence[Fraction | int]]
) -> YPolynomial:
    """Integral of the product of f(x_i) over the roots, as a y-polynomial.

    f(x) = sum_k c_k(y) x^k is a multiplicative-sequence factor, and
    coeffs[k] lists the y-coefficients of c_k.  Root powers are formed only up
    to the last nonzero c_k.
    """
    ring = data.ring
    last = max((k for k, ck in enumerate(coeffs) if any(ck)), default=-1)
    width = max((len(ck) for ck in coeffs), default=1)
    unit = (0,) * len(ring.generators)
    product: dict[Monomial, list[Fraction]] = {unit: [1]}
    for root in data.roots:
        power = ring.one()
        factor: dict[Monomial, list[Fraction]] = {}
        for k in range(last + 1):
            if k:
                power = ring_mul(ring, power, root)
            if not any(coeffs[k]):
                continue
            for mono, coeff in power.terms.items():
                dest = factor.setdefault(mono, [0] * width)
                for j, c in enumerate(coeffs[k]):
                    dest[j] += c * coeff
        product = _yclass_mul(ring, product, factor)
    top = product.get(ring.fundamental)
    return YPolynomial.from_coeffs(top) if top else YPolynomial.zero()


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
    tanh = series_tanh_factor(data.n)
    return _integrate_multiplicative(data, [[c] for c in tanh.coefficients]).coefficients[0]


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
