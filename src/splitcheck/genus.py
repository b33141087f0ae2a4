"""The chi_y genus from Chern-root data over a presented ring.

The genus of root data (x_1 .. x_n) is the integral of the product of the
factor series x*(1 + y*e^{-x})/(1 - e^{-x}) evaluated at each root, an exact
polynomial in y.  Roots may also describe the tangent bundle stabilized by
trivial line summands (m > n roots); each trivial summand contributes an
exact factor (1 + y), which is divided out.  The direct signature (factor
x/tanh x) and the Euler integral (factor x) are integrals of the same shape,
so all of them go through one multiplicative-sequence integrator.

The integrator packs each y-polynomial into one int by the substitution
y -> 2^s (Kronecker substitution), so the running product is one int tuple
per degree and each root is multiplied in through the ring's compiled
kernels (`ring.RingTables.kernels`) once per power, whatever the
y-degree.  The tables' entries are ints, as the ring's rules are
integral; the factor's rational series coefficients and the roots are
scaled to ints by their common denominators, which are divided out of
the integral at the end.

Only the top degree is ever read.  A zero root contributes its factor's
constant term, so the zero roots become one scalar power.  The running
product of the other roots is kept in the degrees up to the top.  The
last nonzero root is never multiplied in: the functionals
v -> (fundamental coefficient of v * x^k), built from small ints by the
tables' transpose, meet that product in n + 1 dot products.  Packing is a
ring map from Z[y] to Z, so the packed integral does not depend on the
order in which these products are taken, and the digit width s, which
comes from a proven bound on the coefficients, still holds.  Decoding checks it: a
remainder raises `ArithmeticError`, never a wrong polynomial.

Values stay on ints until they leave the layer: the integrator returns
numerators over one denominator, evaluation and the duality check work on
numerators and denominators, and a returned value is exact, an int when it
is integral, else a `Fraction`.  No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .record import Frozen
from .ring import GradedClass, RingPresentation, _tighten
# Not called here: perfbench/tracing.py rebinds this name on this module.
from .ring import ring_mul  # noqa: F401
from .series import (
    series_exp_neg,
    series_scaled_argument,
    series_tanh_factor,
    series_todd_factor,
)


# The integrator's cost grows steeply with the number of roots: on CP^2,
# 253 extra copies of h take 0.6 s and 1,000 about 40 s (CPython 3.11, one
# core of a shared x86-64 host).  A root set is capped at the bound
# search.MAX_M puts on a splitting's line bundles; every built-in root set
# has at most n + 2 roots.
MAX_ROOTS = 256
# The work grows with the nonzero roots times n, the top degree over 2: on the
# same host CP^31's 32 roots of h (992) take about 1.6 s, and CP^60's 61
# (3,660) took 91-151 s.  Every built-in root set has at most 6 roots, n <= 4.
MAX_ROOT_WORK = 1024


class RootCountError(ValueError):
    """Root data does not describe the ring's tangent dimension."""


def _quotient(num: int, den: int) -> Fraction | int:
    """num/den, for den > 0, as an int when it is integral, else as a Fraction."""
    quotient, rest = divmod(num, den)
    return Fraction(num, den) if rest else quotient


class YPolynomial(Frozen):
    """Exact polynomial in the genus variable y.

    Each coefficient is exact: an int when it is integral, else a
    `Fraction`, the rule `ring.GradedClass` keeps for its coefficients.  An
    int compares and hashes equal to the integral `Fraction`, and both
    serialize as the same JSON integer.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction | int, ...]):
        object.__setattr__(self, "coefficients", coefficients)

    @staticmethod
    def from_coeffs(coeffs: Sequence[Fraction | int]) -> "YPolynomial":
        trimmed = [_tighten(Fraction(c)) for c in coeffs]
        while len(trimmed) > 1 and not trimmed[-1]:
            trimmed.pop()
        return YPolynomial(tuple(trimmed))

    def evaluate(self, y: Fraction | int) -> Fraction | int:
        """The value at an exact y, as an int when it is integral.

        With y = p/q and D the lcm of the coefficients' denominators, the
        value is sum_k (D c_k) p^k q^(d - k) over D q^d, for d the degree:
        Horner's rule runs on those ints, and at most one Fraction is built.
        """
        p, q = y.numerator, y.denominator
        coeffs = self.coefficients
        denom = lcm(*(c.denominator for c in coeffs))
        acc, scale = 0, 1
        for c in reversed(coeffs):
            acc = acc * p + c.numerator * (denom // c.denominator) * scale
            scale *= q
        # scale is q^(d + 1) now, so this is acc over D q^d
        return _quotient(acc * q, denom * scale)

    def degree(self) -> int:
        return len(self.coefficients) - 1


def _divide_by_one_plus_y(coeffs: Sequence[Fraction | int]) -> list[Fraction | int]:
    """Coefficients of the exact quotient by (1 + y); raises if there is a remainder."""
    coeffs = list(coeffs)
    quotient = [0] * max(len(coeffs) - 1, 1)
    for k in range(len(coeffs) - 1, 0, -1):
        quotient[k - 1] = coeffs[k]
        coeffs[k - 1] -= coeffs[k]
    if coeffs[0]:
        raise RootCountError("y-polynomial is not divisible by (1 + y)")
    return quotient


class ChernRootData(Frozen):
    # the __dict__ holds what `integer_roots` caches
    __slots__ = ("ring", "roots", "__dict__")

    def __init__(self, ring: RingPresentation, roots: tuple[GradedClass, ...]):
        if len(roots) > MAX_ROOTS:
            raise ValueError(f"{len(roots)} roots is more than the {MAX_ROOTS} the genus integrates")
        for i, r in enumerate(roots):
            if not r.is_zero() and r.homogeneous_degree() != 2:
                raise ValueError(f"root #{i} is not homogeneous of degree 2")
        nonzero = sum(not r.is_zero() for r in roots)
        n = ring.top_degree // 2
        if nonzero * n > MAX_ROOT_WORK:
            raise ValueError(
                f"{nonzero} nonzero roots times n = {n} is {nonzero * n}, "
                f"more than the {MAX_ROOT_WORK} the genus integrates"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "roots", roots)

    @property
    def n(self) -> int:
        return self.ring.top_degree // 2

    @cached_property
    def integer_roots(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The roots' normal forms over the degree-2 basis, scaled to ints,
        and the scale: the lcm of their coordinates' denominators.

        Each root is read straight into its tuple: every term's coefficient,
        put over the lcm L of all the roots' coefficient denominators, is
        added times the ring's memoized normal form of its monomial at each
        basis index.  Terms that reduce to one basis element may cancel a
        denominator, so L is divided at the end by the gcd it shares with
        every coordinate.  Built on first use, so every genus of one root
        set reads the roots once.
        """
        ring = self.ring
        size = len(ring.generators)
        index = {mono: i for i, mono in enumerate(ring.tables.bases[1])}
        scale = lcm(*[c.denominator for root in self.roots for c in root.terms.values()])
        vecs = []
        for root in self.roots:
            vec = [0] * len(index)
            for mono, c in root.terms.items():
                if len(mono) != size:
                    raise ValueError("class does not live over this ring's generators")
                c = c.numerator * (scale // c.denominator)
                for basis_mono, z in ring.reduce_monomial(mono).terms.items():
                    vec[index[basis_mono]] += c * z
            vecs.append(vec)
        common = gcd(scale, *[x for vec in vecs for x in vec])
        if common != 1:
            vecs = [[x // common for x in vec] for vec in vecs]
        return tuple(map(tuple, vecs)), scale // common


class _Factor(Frozen):
    """A multiplicative-sequence factor f(x) = sum_k c_k(y) x^k over ints.

    `coeffs[k]` lists the y-coefficients of denom * c_k, up to the last
    nonzero c_k (at least c_0), where denom is the lcm of the c_k's
    denominators, and `norms[k]` is the l1 norm of `coeffs[k]`.
    """

    __slots__ = ("coeffs", "denom", "norms")

    def __init__(self, coeffs: tuple[tuple[int, ...], ...], denom: int, norms: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "norms", norms)

    @staticmethod
    def of(coeffs: Sequence[Sequence[Fraction | int]]) -> "_Factor":
        denom = lcm(*(c.denominator for ck in coeffs for c in ck))
        scaled = [tuple((c * denom).numerator for c in ck) for ck in coeffs]
        while len(scaled) > 1 and not any(scaled[-1]):
            scaled.pop()
        return _Factor(tuple(scaled), denom, tuple(sum(map(abs, ck)) for ck in scaled))


@lru_cache
def _genus_factor(order: int, t: Fraction | int) -> _Factor:
    """(constant, y) coefficients of x(1+y e^{-tx})/(1-e^{-tx}).

    The factor with scaled argument keeps an overall 1/t from the leading x,
    so the t-substitution test divides by t^n via these factors directly.
    """
    t = Fraction(t)
    todd = series_scaled_argument(series_todd_factor(order), t)
    expneg = series_scaled_argument(series_exp_neg(order), t)
    mixed = todd * expneg
    # x(1+y e^{-tx})/(1-e^{-tx}) = (1/t) * [T(tx) + y * T(tx)E(tx)]
    return _Factor.of(
        [(todd.coefficients[k] / t, mixed.coefficients[k] / t) for k in range(order + 1)]
    )


@lru_cache
def _tanh_factor(order: int) -> _Factor:
    """Coefficients of x/tanh x, each a constant in y."""
    return _Factor.of([(c,) for c in series_tanh_factor(order).coefficients])


_EULER_FACTOR = _Factor.of([(0,), (1,)])


def _coefficient_bound(factor: _Factor, vecs: Sequence[Sequence[int]], tau: int) -> int:
    """prod_i sum_k |D c_k|_1 (tau |L x_i|_1)^k over the integer root vectors.

    A zero root's share is |D c_0|_1, so the zero roots are one power of
    it; each other root's share is evaluated by Horner's rule.
    """
    norms = factor.norms
    nonzero = [vec for vec in vecs if any(vec)]
    bound = norms[0] ** (len(vecs) - len(nonzero))
    for vec in nonzero:
        size = tau * sum(map(abs, vec))
        share = 0
        for norm in reversed(norms):
            share = share * size + norm
        bound *= share
    return bound


def _integrate_multiplicative(data: ChernRootData, factor: _Factor) -> tuple[list[int], int]:
    """Integral of the product of f(x_i) over the roots, as a y-polynomial.

    The polynomial is returned as its y-coefficients' numerators over one
    common denominator, so callers finish on ints.

    The y-polynomials are packed into ints by y -> R = 2^s, a ring map
    from Z[y] that is injective on polynomials whose coefficients are below
    R/2 in absolute value.  So the product is one int tuple per degree 2d,
    over the ring's degree-2d basis, and each root's normal form is
    multiplied in through the ring's kernels once per power, whatever the
    y-degree.  Arithmetic stays on ints: the tables' entries are ints, the
    factor's coefficients are scaled by their common denominator D, and the
    roots by the lcm L of their coordinates' denominators; only the
    degree-n part survives integration, so the integral is divided by
    D^m * L^n at the end, for m roots.

    Only the top degree is read:
    - a zero root contributes exactly its factor's constant term c_0, so
      the zero roots are one scalar c_0^z on the integral;
    - the running product of the head roots (the nonzero ones but the
      last) is a dict from degree to tuple, kept up to degree n: each head
      root's powers are formed on it, and each c_k-scaled power is added
      in every degree it reaches;
    - the last nonzero root x is never multiplied in.  With w_k the
      functional v -> (fundamental coefficient of v * x^k) on the degree
      n - k basis, built from the fundamental's indicator by k transposed
      table products (`RingTables.dual_mul`) of small ints, the integral is
      sum_k c_k <w_k, P[n - k]> over the product P of the other roots.

    The width s comes from a proven bound.  With tau the largest l1 norm of
    a product of basis elements, |a * b|_1 <= tau * |a|_1 * |b|_1, so every
    y-coefficient of the scaled integral is at most
    prod_i sum_k |D c_k|_1 (tau |L x_i|_1)^k in absolute value
    (`_coefficient_bound`), and s = bit_length(2 * bound) + 1.  Packing is
    a ring map, so the packed integral is the packed polynomial however its
    products are ordered or grouped, and the bound on the polynomial still
    sizes its digits.  The fundamental coefficient is decoded into balanced
    base-R digits; a nonzero remainder means the bound failed and raises
    ArithmeticError.
    """
    ring = data.ring
    tables = ring.tables
    n = data.n
    coeffs = factor.coeffs
    vecs, roots_denom = data.integer_roots
    denom = factor.denom ** len(vecs) * roots_denom**n
    if n % 2 and not any(map(any, coeffs[1::2])):
        # an even factor (x/tanh x) has no odd-degree part: no odd top
        return [0] * (len(vecs) * (max(map(len, coeffs)) - 1) + 1), denom
    shift = (2 * _coefficient_bound(factor, vecs, tables.mul_norm)).bit_length() + 1
    packed = [sum(c << shift * j for j, c in enumerate(ck)) for ck in coeffs]
    nonzero = [vec for vec in vecs if any(vec)]
    if not nonzero:
        top = int(n == 0)  # the empty product is 1, of degree 0
    else:
        *heads, last = nonzero
        kernels = tables.kernels
        product = {0: tables.one}
        for vec in heads:
            out: dict[int, tuple[int, ...]] = {}
            power = product  # the product times root^k
            for k, c in enumerate(packed):
                if k:
                    power = {d + 1: kernels[d](part, vec) for d, part in power.items() if d < n}
                if c:
                    for d, part in power.items():
                        acc = out.get(d)
                        out[d] = (
                            tuple(c * x for x in part) if acc is None
                            else tuple(x + c * t for x, t in zip(acc, part))
                        )
            product = out
        # w_k over bases[n - k]
        w = tuple(int(mono == ring.fundamental) for mono in tables.bases[n])
        top = 0
        for k, c in enumerate(packed):
            if k:
                w = tables.dual_mul(n - k, w, last)
            part = product.get(n - k)
            if c and part is not None:
                top += c * sum(map(mul, w, part))
    top *= packed[0] ** (len(vecs) - len(nonzero))
    width = max(map(len, coeffs))
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    digits = []
    for _ in range(len(vecs) * (width - 1) + 1):
        digit = top & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        top = (top - digit) >> shift
    if top:
        raise ArithmeticError(f"packed genus integral overflows {shift}-bit digits")
    return digits, denom


def check_root_count(data: ChernRootData) -> None:
    """Refuse fewer roots than the complex dimension n with a `RootCountError`."""
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

    Like `chi_y`, it has exactly n + 1 coefficients, chi^0 .. chi^n, a zero
    chi^n included.  The substitution is exact because only the top-degree
    component of the integrand survives integration, and that component
    scales by exactly t^n, which the per-factor 1/t normalization removes.
    """
    if not t:
        raise ValueError("t must be nonzero")
    check_root_count(data)
    n = data.n
    extra = len(data.roots) - n
    raw, denom = _integrate_multiplicative(data, _genus_factor(n, t))
    # the per-factor 1/t accounts for t^m; restore the t^(m-n) overshoot
    raw = [c * t.numerator**extra for c in raw]
    denom *= t.denominator**extra
    for _ in range(extra):
        raw = _divide_by_one_plus_y(raw)
    if any(raw[n + 1:]):
        raise RootCountError("chi_y degree exceeds the complex dimension")
    # exactly chi^0 .. chi^n, so a zero chi^n is still listed
    raw = raw[: n + 1] + [0] * (n + 1 - len(raw))
    return YPolynomial(tuple(_quotient(c, denom) for c in raw))


def euler_from_chi(chi: YPolynomial) -> Fraction | int:
    """Value at y = -1: the Euler characteristic."""
    return chi.evaluate(-1)


def signature_from_chi(chi: YPolynomial) -> Fraction | int:
    """Value at y = +1: the signature."""
    return chi.evaluate(1)


def todd_from_chi(chi: YPolynomial) -> Fraction | int:
    """Constant coefficient chi^0: the Todd genus."""
    return chi.coefficients[0]


def signature_direct(data: ChernRootData) -> Fraction | int:
    """Integral of the product of x_i/tanh(x_i): the signature via L-data.

    The factor is 1 at x = 0, so stabilizing trivial roots change nothing
    and no root-count correction is needed.
    """
    raw, denom = _integrate_multiplicative(data, _tanh_factor(data.n))
    return _quotient(raw[0], denom)


def top_chern_integral(data: ChernRootData) -> Fraction | int:
    """Integral of the product of the roots (the Euler class of the data).

    Fewer than n roots is a RootCountError, as for chi_y.
    """
    check_root_count(data)
    raw, denom = _integrate_multiplicative(data, _EULER_FACTOR)
    return _quotient(raw[0], denom)


def duality_check(chi: YPolynomial, n: int) -> bool:
    """chi^p == (-1)^n chi^(n-p) for all p.

    Exact values are in lowest terms, so two are equal exactly when their
    (numerator, denominator) pairs are; the check compares those pairs, the
    numerator times the sign, and the condition at p is the one at n - p.
    """
    coeffs = chi.coefficients
    if len(coeffs) > n + 1:
        return False
    pairs = [(c.numerator, c.denominator) for c in coeffs] + [(0, 1)] * (n + 1 - len(coeffs))
    sign = (-1) ** n
    return all(pairs[n - p] == (sign * num, den) for p, (num, den) in enumerate(pairs[: n // 2 + 1]))


def hirzebruch_congruence(chi_val: int, sigma_val: int, m: int) -> bool:
    """chi == (-1)^m * sigma mod 4, in dimension 4m, for one orientation.

    An almost complex structure inducing the orientation whose signature is
    sigma forces it.  Reversing the orientation negates sigma, so a failure
    here alone does not rule out an almost complex structure: CP^2-bar
    (chi = 3, sigma = -1) fails it, yet reversed it is CP^2.
    """
    return (chi_val - (-1) ** m * sigma_val) % 4 == 0
