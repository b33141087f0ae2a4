"""Truncated exact-rational power series in one variable.

Coefficients are Fractions indexed 0..K; every operation truncates at K and
never consults anything beyond it.  The three named expansions are the genus
integrand factors: e^{-x}, the Todd factor x/(1 - e^{-x}), and the signature
factor x/tanh(x).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .record import Frozen


class TruncatedSeries(Frozen):
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]):
        object.__setattr__(self, "coefficients", coefficients)

    def __eq__(self, other) -> bool:
        if type(other) is not TruncatedSeries:
            return NotImplemented
        return self.coefficients == other.coefficients

    @staticmethod
    def from_coeffs(coeffs: Sequence[Fraction | int], order: int) -> "TruncatedSeries":
        padded = [Fraction(c) for c in coeffs[: order + 1]]
        padded += [Fraction(0)] * (order + 1 - len(padded))
        return TruncatedSeries(tuple(padded))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("series truncation orders differ")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            for j in range(k + 1 - i):
                b = other.coefficients[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def divide(self, divisor: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series division; the divisor must be a unit (nonzero at 0)."""
        if self.order != divisor.order:
            raise ValueError("series truncation orders differ")
        d0 = divisor.coefficients[0]
        if not d0:
            raise ZeroDivisionError("divisor has zero constant term")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        for i in range(k + 1):
            acc = self.coefficients[i]
            for j in range(i):
                acc -= out[j] * divisor.coefficients[i - j]
            out[i] = acc / d0
        return TruncatedSeries(tuple(out))


def series_exp_neg(order: int) -> TruncatedSeries:
    """e^{-x} truncated at the given order."""
    return TruncatedSeries.from_coeffs(
        [Fraction((-1) ** k, factorial(k)) for k in range(order + 1)], order
    )


def series_todd_factor(order: int) -> TruncatedSeries:
    """x/(1 - e^{-x}): divide out the x in 1 - e^{-x} = x - x^2/2 + ..."""
    # (1 - e^{-x})/x has coefficients (-1)^k / (k+1)!
    denom = TruncatedSeries.from_coeffs(
        [Fraction((-1) ** k, factorial(k + 1)) for k in range(order + 1)], order
    )
    one = TruncatedSeries.from_coeffs([1], order)
    return one.divide(denom)


def series_tanh_factor(order: int) -> TruncatedSeries:
    """x/tanh(x) = cosh(x) / (sinh(x)/x), an even series."""
    cosh = TruncatedSeries.from_coeffs(
        [Fraction(1, factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)],
        order,
    )
    sinh_over_x = TruncatedSeries.from_coeffs(
        [Fraction(1, factorial(k + 1)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)],
        order,
    )
    return cosh.divide(sinh_over_x)


def series_scaled_argument(s: TruncatedSeries, t: Fraction | int) -> TruncatedSeries:
    """s(t*x) under the same truncation."""
    t = Fraction(t)
    return TruncatedSeries(tuple(c * t**k for k, c in enumerate(s.coefficients)))
