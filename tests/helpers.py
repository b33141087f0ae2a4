"""Shared test utilities: cached rings, seeded generators, equation oracles.

The oracle predicates hand-expand the p1/euler matching conditions for each
built-in geometry directly from the presentation relations, independently of
the characteristic-class module, so the search and the matcher can be checked
against them term by term.

The reference genus functions at the end compute chi_y, the direct signature
and the Euler integral with their own loops and their own y-class product,
independently of the package's shared integrator, as a differential oracle.
`ref_integrate_packed` is the packed integrator's own oracle: the loop that
multiplies every root into every degree of the running product, with its
digit width from `ref_coefficient_bound`, the bound's plain product formula.
`ref_integer_roots`, `ref_evaluate` and `ref_duality_check` are the genus
layer's `Fraction` oracles: the root read through `normal_form` and
`RingTables.vector`, Horner's rule in Fractions, and the comparison of each
coefficient with its signed mirror.
`telescoped_congruence` is the oracle of acceptance criterion 7: the fold
of the alternating sum of a duality-symmetric chi^p vector into the mod-4
congruence, with its correction term.
`generator_class`, `divide_by_one_plus_y` and `replaced` serve the tests only.
`ref_rows` and `ref_table_mul` are the compiled ring tables' oracle: dense
rows built with `ring_mul`, and the loop over every row entry.
`ref_first_rule`, `ref_check_confluence` and `ref_basis_sizes` are the
rule index's oracle: the scan of the rule list at each monomial, the
confluence check that steps every applicable rule at every monomial of
degree <= top, and the count of the monomials no rule rewrites.
`ref_enumerate` is the search's differential oracle: the ordered-tuple walk
over every coordinate at once, with no ball, no join and no symmetry
reduction; given a bundle count k below the spec's, it walks k bundles and
pads each sum with zero vectors, the trivial summands.
`ref_rigid_enumerate` is the sign rule's oracle: the same walk with no
matcher and a rigid Euler rule, p1 equal and e = +euler, each solution's
bundles sorted but their signs left as found.
`ref_canonicalize_solution` is the canonicalizer's oracle: the greatest of
all m! * 2^m images under permutations and sign flips.
`ref_probe_count` is the visit count's oracle: the recount the walk once ran
over every subtree the norm-sum cut skips, recursing with no memo.

`ref_weyl_dim` and `ref_field_type` are the representation catalogs'
oracle: the Weyl product over the positive roots of B_m taken in `Fraction`
e-coordinates, with the halves of lambda and rho kept.  `ref_catalog_irreps`
is the catalog's own oracle: the weight search that builds each irrep from
its weight alone, so every dimension is computed again.  `ref_multisets` and
`ref_obstruct` are the obstruction walk's oracle: every multiset as a flat
nondecreasing index sequence, one generator frame per summand, with the
filters read off the flat sequence.  `ref_jsonable` is
the serializer's oracle: the plain isinstance chain, with no dispatch on
exact types.  `ref_refused_at` is the oracle of the path `check_exact`
names: a second walk from the top that asks the check of each part in turn.

The golden block at the end maps each file in tests/golden/ to its run:
`golden_run` parses the name, `render_golden` prints what the run prints,
and `assert_golden` compares that with the file and fails with a diff.

Coordinate convention used throughout: a degree-2 vector lists coefficients
in the ascending basis order of the ring, which for generators written in
document order [g1, ..., gk] means the *last* generator comes first.  So for
[u, v] the vector (x0, x1) is the class x0*v + x1*u, and for [v1, v2, v3] the
vector (x0, x1, x2) is x0*v3 + x1*v2 + x2*v1.
"""

from __future__ import annotations

import bisect
import contextlib
import difflib
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from splitcheck import repcat
from splitcheck.cases import builtin_case
from splitcheck.charclass import LineBundleSum, TargetClasses, euler_class, first_pontryagin, matches_targets
from splitcheck.cli import _load_search_spec, _load_targets, main
from splitcheck.genus import ChernRootData, RootCountError, YPolynomial, _Factor
from splitcheck.repcat import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    CatalogError,
    Irrep,
    IrrepCatalog,
    ObstructionCase,
    RootSystem,
    product_catalog,
)
from splitcheck.record import Record
from splitcheck.report import check_exact
from splitcheck.ring import (
    ConfluenceError,
    GradedClass,
    RewriteRule,
    RingPresentation,
    basis,
    integrate,
    monomial_degree,
    monomial_divides,
    monomial_mul,
    monomials_of_degree,
    normal_form,
    parse_presentation,
    ring_add,
    ring_mul,
)
from splitcheck.search import ExplicitBound, derive_bounds, enumerate_splittings
from splitcheck.series import (
    series_exp_neg,
    series_scaled_argument,
    series_tanh_factor,
    series_todd_factor,
)

_RINGS: dict = {}

RING_REFS = [
    ("cp2-connect-sum", None),
    ("su3-t2", None),
    ("r-p", 2),
    ("r-p-u-variant", 2),
    ("sp2-t2", None),
    ("cpn-split", 3),
    ("s2xs2", None),
]

RING_IDS = [name if par is None else f"{name}-{par}" for name, par in RING_REFS]


def ring_for(name: str, parameter: int | None = None) -> RingPresentation:
    key = (name, parameter)
    if key not in _RINGS:
        _RINGS[key] = parse_presentation(builtin_case(name, parameter)["ring"])
    return _RINGS[key]


def targets_for(name: str, parameter: int | None = None) -> TargetClasses:
    return _load_targets(ring_for(name, parameter), builtin_case(name, parameter)["targets"])


def search_spec_for(name: str, parameter: int | None = None, budget: int | None = None):
    doc = builtin_case(name, parameter)
    ring = ring_for(name, parameter)
    return _load_search_spec(ring, _load_targets(ring, doc["targets"]), doc["search"], budget)


def replaced(record, **changes):
    """A copy of a record with the given fields changed, built through its
    constructor, so the record's own checks run on the new values."""
    fields = {name: getattr(record, name) for name in type(record).__slots__ if name != "__dict__"}
    return type(record)(**{**fields, **changes})


def generator_class(ring: RingPresentation, index: int) -> GradedClass:
    """The class of the ring's generator number `index`, in document order."""
    return GradedClass({tuple(int(i == index) for i in range(len(ring.generators))): 1})


def all_monomials(ring: RingPresentation) -> list:
    """Every exponent vector of even degree <= top, reducible ones included."""
    n = len(ring.generators)
    out = []
    for half in range(ring.top_degree // 2 + 1):
        out.extend(monomials_of_degree(n, half))
    return out


def random_class(rng: random.Random, ring: RingPresentation, span: int = 9) -> GradedClass:
    monos = all_monomials(ring)
    terms = []
    for _ in range(rng.randint(0, 4)):
        terms.append((rng.choice(monos), rng.randint(-span, span)))
    return GradedClass.from_terms(terms)


def random_degree2(rng: random.Random, ring: RingPresentation, span: int = 3) -> GradedClass:
    return GradedClass.from_terms((m, rng.randint(-span, span)) for m in basis(ring, 2))


def accepts(ring: RingPresentation, targets: TargetClasses, vecs) -> bool:
    """Public-API acceptance: build the sum and match it against the targets."""
    classes = tuple(ring.class_from_coeffs(v) for v in vecs)
    return matches_targets(LineBundleSum(ring, classes), targets).matched


# -- reference search ---------------------------------------------------------


def _shell(weights, value: int, prefix: list, on_leaf) -> None:
    """Every integer tuple with sum(weights[i] * x_i^2) == value, in order."""
    if len(prefix) == len(weights):
        if value == 0:
            on_leaf(tuple(prefix))
        return
    w = weights[len(prefix)]
    bound = math.isqrt(value // w)
    for x in range(-bound, bound + 1):
        prefix.append(x)
        _shell(weights, value - w * x * x, prefix, on_leaf)
        prefix.pop()


def _ref_tuples(spec, count: int, on_leaf) -> None:
    """Every ordered tuple of `count` bundle vectors the bound admits, flat.

    A sum-of-squares bound walks the exact shell sum_j lam_j x_j^2 = C over
    all count * r coordinates; an explicit bound walks the full box.
    """
    bounds = derive_bounds(spec)
    if isinstance(spec.bound, ExplicitBound):
        ranges = [range(-b, b + 1) for b in bounds.per_variable] * count
        for flat in itertools.product(*ranges):
            on_leaf(flat)
    else:
        denom = math.lcm(*(d.denominator for d in bounds.diagonal))
        constant = bounds.constant * denom
        if constant.denominator == 1:
            weights = [int(d * denom) for d in bounds.diagonal] * count
            _shell(weights, int(constant), [], on_leaf)


def ref_enumerate(spec, count: int | None = None) -> tuple:
    """Canonical solution set of a search, by walking ordered tuples of
    `count` bundles (the spec's m when None), each padded with m - count
    zero vectors.

    A tuple whose summed squares miss the p1 target cannot match, so only
    the rest go to `matches_targets`, which alone accepts.
    """
    count = spec.m if count is None else count
    ring = spec.ring
    r = len(basis(ring, 2))
    p1 = normal_form(ring, spec.targets.p1_target)
    squares: dict = {}
    found = set()
    padding = ((0,) * r,) * (spec.m - count)

    def on_leaf(flat) -> None:
        vecs = tuple(flat[i * r : (i + 1) * r] for i in range(count)) + padding
        p1_sum = GradedClass.zero()
        for vec in vecs:
            if vec not in squares:
                c = ring.class_from_coeffs(vec)
                squares[vec] = (c, ring_mul(ring, c, c))
            p1_sum = ring_add(p1_sum, squares[vec][1])
        if p1_sum != p1:
            return
        lbsum = LineBundleSum(ring, tuple(squares[vec][0] for vec in vecs))
        if matches_targets(lbsum, spec.targets).matched:
            found.add(ref_canonicalize_solution(vecs, spec.targets.sign_flexible))

    _ref_tuples(spec, count, on_leaf)
    return tuple(sorted(found))


def ref_rigid_enumerate(spec) -> tuple:
    """The solutions under a rigid Euler rule, with no matcher: the ordered
    tuples of m bundles whose p1 is the target and whose Euler class is
    +euler itself, each with its bundles sorted in descending order and
    their signs left as found.  The Chern target, if any, is not read."""
    ring, m = spec.ring, spec.m
    r = len(basis(ring, 2))
    p1 = normal_form(ring, spec.targets.p1_target)
    euler = normal_form(ring, spec.targets.euler_target)
    squares: dict = {}
    found = set()

    def on_leaf(flat) -> None:
        vecs = [tuple(flat[i * r : (i + 1) * r]) for i in range(m)]
        p1_sum = GradedClass.zero()
        for vec in vecs:
            if vec not in squares:
                c = ring.class_from_coeffs(vec)
                squares[vec] = (c, ring_mul(ring, c, c))
            p1_sum = ring_add(p1_sum, squares[vec][1])
        if p1_sum != p1:
            return
        product = ring.one()
        for vec in vecs:
            product = ring_mul(ring, product, squares[vec][0])
        if product == euler:
            found.add(tuple(sorted(vecs, reverse=True)))

    _ref_tuples(spec, m, on_leaf)
    return tuple(sorted(found))


def ref_probe_count(norms, m: int, limit: int) -> int:
    """The join probes of the walk for m bundles without the norm-sum cut:
    below a node at `depth` whose vectors start at index `start` with
    `room` left of the norm bound, each vector within the room opens a
    subtree, and the last prefix level counts its vectors.  `norms` is
    sorted; one probe for m = 1."""
    last = m - 1

    def probes(depth: int, start: int, room: int) -> int:
        stop = bisect.bisect_right(norms, room, start)
        if depth == last - 1:
            return stop - start
        return sum(probes(depth + 1, i, room - norms[i]) for i in range(start, stop))

    return probes(0, 0, limit) if last else 1


def ref_canonicalize_solution(solution, allow_sign_flips: bool = True) -> tuple:
    """Lexicographically greatest image, by trying every permutation and flip."""
    vectors = [tuple(int(x) for x in vec) for vec in solution]
    signs = (1, -1) if allow_sign_flips else (1,)
    return max(
        tuple(tuple(s * x for x in vec) for s, vec in zip(flips, perm))
        for perm in itertools.permutations(vectors)
        for flips in itertools.product(signs, repeat=len(vectors))
    )


# -- hand-expanded matching systems, one per geometry -------------------------


def cp2_oracle(vecs) -> bool:
    # coords [v, u]: (b, a) is a*u + b*v
    (b1, a1), (b2, a2) = vecs
    if a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2 != 6:
        return False
    return abs(a1 * a2 + b1 * b2) == 4


def su3_oracle(vecs) -> bool:
    # coords [y, x]: (b, a) is a*x + b*y
    (b1, a1), (b2, a2), (b3, a3) = vecs
    if a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2 + a3 * a3 + b3 * b3 != 8:
        return False
    if 2 * (a1 * b1 + a2 * b2 + a3 * b3) - (b1 * b1 + b2 * b2 + b3 * b3) != 0:
        return False
    mixed = (
        a1 * a2 * b3 + a1 * b2 * a3 + b1 * a2 * a3
        - a1 * b2 * b3 - b1 * a2 * b3 - b1 * b2 * a3
        + 2 * b1 * b2 * b3
    )
    return abs(mixed) == 6


def rp_oracle(q: int, vecs) -> bool:
    # coords [v3, v2, v1]: (c, b, a) is a*v1 + b*v2 + c*v3
    (c1, b1, a1), (c2, b2, a2), (c3, b3, a3) = vecs
    s = 2 * q * q
    total = (
        a1 * a1 + b1 * b1 + s * c1 * c1
        + a2 * a2 + b2 * b2 + s * c2 * c2
        + a3 * a3 + b3 * b3 + s * c3 * c3
    )
    if total != 6 + 8 * q * q:
        return False
    if a1 * c1 + a2 * c2 + a3 * c3 != 0:
        return False
    if b1 * c1 + b2 * c2 + b3 * c3 != 0:
        return False
    mixed = (
        a1 * a2 * c3 + a1 * c2 * a3 + c1 * a2 * a3
        + b1 * b2 * c3 + b1 * c2 * b3 + c1 * b2 * b3
        + s * c1 * c2 * c3
    )
    return abs(mixed) == 8


def sp2_oracle(vecs) -> bool:
    # coords [z, u]: (b, a) is a*u + b*z; u^2 = 2z^2 and z^4 = 0 kill every
    # euler term except u^3*z = 2*u*z^3 and u*z^3 itself
    a = [v[1] for v in vecs]
    b = [v[0] for v in vecs]
    if sum(2 * x * x for x in a) + sum(x * x for x in b) != 12:
        return False
    if sum(x * y for x, y in zip(a, b)) != 0:
        return False

    def mixed_sum(k: int) -> int:
        tot = 0
        for chosen in combinations(range(4), k):
            term = 1
            for i in range(4):
                term *= a[i] if i in chosen else b[i]
            tot += term
        return tot

    return abs(2 * mixed_sum(3) + mixed_sum(1)) == 8


# -- reference rule lookup and confluence check --------------------------------


def ref_first_rule(ring: RingPresentation, mono) -> RewriteRule | None:
    """The first rule in document order whose lhs divides the monomial."""
    for rule in ring.rules:
        if monomial_divides(rule.lhs, mono):
            return rule
    return None


def ref_check_confluence(ring: RingPresentation) -> None:
    """`check_confluence` as the walk over every monomial of degree <= top,
    stepping every rule that applies there, the first one included; a
    cycle raises from the reduction, as in the check."""
    for mono in all_monomials(ring):
        reference = ring.reduce_monomial(mono)
        for rule in ring.rules:
            if not monomial_divides(rule.lhs, mono):
                continue
            stepped = normal_form(ring, ring.one_step(mono, rule))
            if stepped != reference:
                raise ConfluenceError(
                    mono,
                    (reference, stepped),
                    f"ring.relations: presentation is not confluent: monomial "
                    f"{ring.format_monomial(mono)} has normal forms "
                    f"{ring.format_class(reference)} and {ring.format_class(stepped)}",
                )


def ref_basis_sizes(ring: RingPresentation) -> dict[int, int]:
    """The number of monomials of each even degree <= top no rule rewrites,
    by the scan of the rule list."""
    n = len(ring.generators)
    return {
        d: sum(ref_first_rule(ring, mono) is None for mono in monomials_of_degree(n, d // 2))
        for d in range(0, ring.top_degree + 1, 2)
    }


def random_rules(rng: random.Random, n: int, top: int) -> list[RewriteRule]:
    """One to five integral rules over n generators up to degree `top`.

    An lhs repeats an earlier one a quarter of the time, which two
    different rhs make non-confluent, and an rhs may hold another rule's
    lhs, so some lists cycle.
    """
    rules: list[RewriteRule] = []
    for _ in range(rng.randint(1, 5)):
        if rules and rng.random() < 0.25:
            lhs = rng.choice(rules).lhs
        else:
            lhs = rng.choice([m for half in range(1, top // 2 + 1) for m in monomials_of_degree(n, half)])
        others = [m for m in monomials_of_degree(n, sum(lhs)) if m != lhs]
        picks = rng.sample(others, rng.randint(0, min(3, len(others))))
        rules.append(RewriteRule(lhs, GradedClass.from_terms((m, rng.choice((-2, -1, 1, 2))) for m in picks)))
    return rules


# -- reference ring tables ----------------------------------------------------


def ref_rows(ring: RingPresentation) -> list:
    """The products of basis elements as dense tuples, one `ring_mul` per entry.

    Entry [k][i][j] is `bases[k][i] * bases[1][j]` over `bases[k + 1]`:
    `RingTables.terms` lists its nonzero coefficients.
    """
    tables = ring.tables
    return [
        [
            [
                tables.vector(ring_mul(ring, GradedClass({a: 1}), GradedClass({c: 1})), k + 1)
                for c in tables.bases[1]
            ]
            for a in tables.bases[k]
        ]
        for k in range(len(tables.bases) - 1)
    ]


def ref_table_mul(bases, rows, k: int, a, b) -> tuple:
    """`RingTables.mul` as the dense loop over every row entry."""
    if k >= len(rows):
        return ()
    out = [0] * len(bases[k + 1])
    for x, row in zip(a, rows[k]):
        if x:
            for y, entry in zip(b, row):
                if y:
                    xy = x * y
                    for t, z in enumerate(entry):
                        out[t] += xy * z
    return tuple(out)


# -- reference genus integrals ------------------------------------------------


def _ref_ypoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return out


def _ref_yclass_mul(ring: RingPresentation, a: dict, b: dict) -> dict:
    acc: dict = {}
    for ma, pa in a.items():
        for mb, pb in b.items():
            prod = monomial_mul(ma, mb)
            if monomial_degree(prod) > ring.top_degree:
                continue
            py = _ref_ypoly_mul(pa, pb)
            for m, c in ring.reduce_monomial(prod).terms.items():
                dest = acc.setdefault(m, [])
                dest.extend([Fraction(0)] * (len(py) - len(dest)))
                for k, v in enumerate(py):
                    dest[k] += c * v
    return {m: p for m, p in acc.items() if any(p)}


def _ref_factor_product(data: ChernRootData, factor_coeffs) -> list:
    """y-coefficients at the fundamental class of the product over the roots
    of sum_k factor_coeffs[k] * x^k, all powers up to the last k formed."""
    ring = data.ring
    width = len(factor_coeffs[0])
    product = {(0,) * len(ring.generators): [Fraction(1)]}
    for root in data.roots:
        powers = [ring.one()]
        for _ in range(len(factor_coeffs) - 1):
            powers.append(ring_mul(ring, powers[-1], root))
        factor: dict = {}
        for k, ck in enumerate(factor_coeffs):
            for mono, coeff in powers[k].terms.items():
                dest = factor.setdefault(mono, [Fraction(0)] * width)
                for j, c in enumerate(ck):
                    dest[j] += c * coeff
        product = _ref_yclass_mul(ring, product, factor)
    return product.get(ring.fundamental, [Fraction(0)])


def ref_chi_y_scaled(data: ChernRootData, t: int) -> YPolynomial:
    """chi_y from roots scaled by t, with the (1 + y) padding divided out."""
    n, m = data.n, len(data.roots)
    if m < n:
        raise RootCountError(f"need at least {n} roots, got {m}")
    t = Fraction(t)
    todd = series_scaled_argument(series_todd_factor(n), t)
    mixed = todd * series_scaled_argument(series_exp_neg(n), t)
    coeffs = [(todd.coefficients[k] / t, mixed.coefficients[k] / t) for k in range(n + 1)]
    raw = _ref_factor_product(data, coeffs)
    out = YPolynomial.from_coeffs([c * t ** (m - n) for c in raw])
    for _ in range(m - n):
        out = divide_by_one_plus_y(out)
    if out.degree() > n:
        raise RootCountError("chi_y degree exceeds the complex dimension")
    return YPolynomial(out.coefficients + (Fraction(0),) * (n - out.degree()))


def divide_by_one_plus_y(poly: YPolynomial) -> YPolynomial:
    """Exact quotient by (1 + y), from the constant term up; raises if there
    is a remainder."""
    coeffs = poly.coefficients
    quotient = []
    carry = Fraction(0)
    # p = (1 + y) q gives q_0 = p_0, q_k = p_k - q_(k-1) and p_last = q_(last-1)
    for c in coeffs[:-1]:
        carry = c - carry
        quotient.append(carry)
    if coeffs[-1] != carry:
        raise RootCountError("y-polynomial is not divisible by (1 + y)")
    return YPolynomial.from_coeffs(quotient or [0])


def ref_signature_direct(data: ChernRootData) -> Fraction:
    tanh = series_tanh_factor(data.n)
    return _ref_factor_product(data, [(c,) for c in tanh.coefficients])[0]


def ref_top_chern_integral(data: ChernRootData) -> Fraction:
    ring = data.ring
    out = ring.one()
    for root in data.roots:
        out = ring_mul(ring, out, root)
    return integrate(ring, out)


def ref_coefficient_bound(factor: _Factor, vecs, tau: int) -> int:
    """The integrator's coefficient bound as the plain product over every
    root, zero ones included, of sum_k norm_k * size^k."""
    norms = [sum(map(abs, ck)) for ck in factor.coeffs]
    bound = 1
    for vec in vecs:
        size = tau * sum(map(abs, vec))
        bound *= sum(norm * size**k for k, norm in enumerate(norms))
    return bound


def ref_integrate_packed(data: ChernRootData, factor: _Factor) -> tuple[list[int], int]:
    """`genus._integrate_multiplicative` as the loop over every root and
    degree: each root, a zero one included, is multiplied into every degree
    of the running product, and the last one too.  The bound, the shift and
    the decoding are the integrator's, so the digits must agree exactly."""
    ring = data.ring
    tables = ring.tables
    n = data.n
    coeffs = factor.coeffs
    last = len(coeffs) - 1
    vecs, roots_denom = data.integer_roots
    shift = (2 * ref_coefficient_bound(factor, vecs, tables.mul_norm)).bit_length() + 1
    packed = [sum(c << shift * j for j, c in enumerate(ck)) for ck in coeffs]
    zero = [(0,) * len(tables.bases[d]) for d in range(n + 1)]
    product = [tables.one] + zero[1:]
    for vec in vecs:
        c = packed[0]
        out = [tuple(c * x for x in part) for part in product]
        if any(vec):
            power = product  # the product times root^k
            for k in range(1, last + 1):
                power = zero[:k] + [tables.mul(d, power[d], vec) for d in range(k - 1, n)]
                c = packed[k]
                if c:
                    for d in range(k, n + 1):
                        out[d] = tuple(x + c * t for x, t in zip(out[d], power[d]))
        product = out
    top = product[n][tables.bases[n].index(ring.fundamental)]
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
    denom = factor.denom ** len(vecs) * roots_denom**n
    return digits, denom


def ref_integer_roots(data: ChernRootData) -> tuple[tuple[tuple[int, ...], ...], int]:
    """`ChernRootData.integer_roots` through each root's normal form as a
    class, read over the degree-2 basis by `RingTables.vector` and scaled
    by the lcm of the coordinates' denominators."""
    tables = data.ring.tables
    vecs = [tables.vector(normal_form(data.ring, root), 1) for root in data.roots]
    denom = math.lcm(*(c.denominator for vec in vecs for c in vec))
    return tuple(tuple(c.numerator * (denom // c.denominator) for c in vec) for vec in vecs), denom


def ref_evaluate(poly: YPolynomial, y) -> Fraction:
    """`YPolynomial.evaluate` as Horner's rule in Fractions."""
    y = Fraction(y)
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * y + c
    return acc


def ref_duality_check(chi: YPolynomial, n: int) -> bool:
    """`duality_check` as Fraction comparisons of every coefficient with its mirror."""
    coeffs = list(chi.coefficients) + [Fraction(0)] * (n + 1 - len(chi.coefficients))
    if len(coeffs) > n + 1:
        return False
    sign = (-1) ** n
    return all(coeffs[p] == sign * coeffs[n - p] for p in range(n + 1))


class TelescopeReport(Record):
    __slots__ = ("n", "chi", "sigma", "correction", "identity_holds", "congruent")

    def __init__(self, n: int, chi: int, sigma: int, correction: int, identity_holds: bool, congruent: bool):
        self.n = n
        self.chi = chi
        self.sigma = sigma
        self.correction = correction
        self.identity_holds = identity_holds
        self.congruent = congruent


def telescoped_congruence(coefficients) -> TelescopeReport:
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


# -- reference representation dimensions and types ----------------------------


def _ref_b_weight_coordinates(rank: int, weight) -> list:
    """e-coordinates of a B_m weight given in fundamental-weight coefficients."""
    coords = []
    for i in range(rank):
        total = Fraction(weight[rank - 1], 2)
        total += sum(weight[k] for k in range(i, rank - 1))
        coords.append(total)
    return coords


def ref_weyl_dim(rs: RootSystem, weight) -> int:
    """The Weyl dimension formula over the positive roots of B_m, in Fractions."""
    rank = rs.rank
    lam = _ref_b_weight_coordinates(rank, weight)
    rho = [Fraction(2 * (rank - i) - 1, 2) for i in range(rank)]
    shifted = [lam[i] + rho[i] for i in range(rank)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(rank):
        for j in range(i + 1, rank):
            num *= (shifted[i] - shifted[j]) * (shifted[i] + shifted[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
        num *= shifted[i]
        den *= rho[i]
    dim = num / den
    assert dim.denominator == 1, (weight, dim)
    return int(dim)


def ref_field_type(rs: RootSystem, weight) -> str:
    """B_m type from the parity of <lambda, 2 rho-check>, in Fraction coordinates."""
    lam = _ref_b_weight_coordinates(rs.rank, weight)
    pairing = sum((rs.rank - i) * 2 * lam[i] for i in range(rs.rank))
    assert pairing.denominator == 1, (weight, pairing)
    return REAL if pairing % 2 == 0 else QUATERNIONIC


def _ref_enumerate_weights(rs: RootSystem, cdim_bound: int):
    """All dominant weights with complex dimension <= cdim_bound, by a
    depth-first search that computes each candidate's dimension afresh."""
    rank = rs.rank

    def extend(prefix: list[int], index: int):
        if index == rank:
            yield tuple(prefix)
            return
        value = 0
        previous = None
        while True:
            candidate = prefix + [value] + [0] * (rank - index - 1)
            dim = Irrep.build(rs, candidate).complex_dim
            if previous is not None and dim < previous:
                raise AssertionError("Weyl dimension decreased along a coordinate ray")
            previous = dim
            if dim > cdim_bound:
                return
            yield from extend(prefix + [value], index + 1)
            value += 1

    yield from extend([], 0)


def ref_catalog_irreps(rs: RootSystem, dim_bound: int) -> IrrepCatalog:
    """Every irrep with real dimension <= dim_bound, each built from its weight alone."""
    if dim_bound < 1:
        raise CatalogError("dim_bound must be >= 1")
    entries = []
    if rs.family == "T":
        for w in range(repcat.MAX_CIRCLE_WEIGHT + 1):
            irrep = Irrep.build(rs, (w,))
            if irrep.real_dim <= dim_bound:
                entries.append(irrep)
    else:
        for weight in _ref_enumerate_weights(rs, dim_bound):
            irrep = Irrep.build(rs, weight)
            if irrep.real_dim <= dim_bound:
                entries.append(irrep)
    entries.sort(key=lambda e: (e.real_dim, e.highest_weight))
    return IrrepCatalog(rs=rs, dim_bound=dim_bound, entries=tuple(entries))


# -- reference obstruction walk -------------------------------------------------


def ref_multisets(entries, total: int):
    """Multisets (nondecreasing index sequences) with real dims summing to total."""

    def recurse(start: int, remaining: int, chosen: list):
        if remaining == 0:
            yield tuple(chosen)
            return
        for idx in range(start, len(entries)):
            entry = entries[idx]
            if entry.real_dim > remaining:
                break  # entries are sorted by real dimension
            chosen.append(entry)
            yield from recurse(idx, remaining - entry.real_dim, chosen)
            chosen.pop()

    yield from recurse(0, total, [])


def ref_obstruct(case: ObstructionCase) -> tuple:
    """The verdict and one (summands, rejected_by, detail) per flat multiset."""
    traces = []
    for multiset in ref_multisets(product_catalog(case), case.manifold_dim):
        rejected_by, detail = None, "no filter applies"
        odd = [p for p in multiset if p.real_dim % 2]
        if case.euler_nonzero and odd:
            rejected_by = "F1"
            detail = (
                f"odd-dimensional summand {odd[0].name} (real dim {odd[0].real_dim}) "
                "forces a vanishing Euler class"
            )
        elif case.almost_complex_forbidden and all(
            p.field_type in (COMPLEX, QUATERNIONIC) for p in multiset
        ):
            rejected_by = "F2"
            detail = (
                "every summand carries a complex structure, contradicting the "
                "almost-complex obstruction"
            )
        traces.append((multiset, rejected_by, detail))
    survives = any(rejected_by is None for _, rejected_by, _ in traces)
    return ("VALID-V-EXISTS" if survives else "NO-VALID-V"), traces


# -- reference serializer -------------------------------------------------------


def ref_jsonable(value):
    """The canonical-JSON conversion as a plain isinstance chain."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to serialize float {value!r}; reports must be exact")
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out[key] = ref_jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [ref_jsonable(item) for item in value]
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def ref_refused_at(value, where: str) -> str:
    """The path of the innermost part of `value` that `check_exact` refuses,
    found by checking each part in the check's order, from the top down."""
    if isinstance(value, dict):
        # a key that is not a string is the dict's own fault: no path
        items = [
            ((f"{where}.{key}" if where else str(key)) if isinstance(key, str) else None, item)
            for key, item in value.items()
        ]
    elif isinstance(value, (list, tuple)):
        items = [(f"{where}[{i}]", item) for i, item in enumerate(value)]
    else:
        return where
    for path, item in items:
        if path is None:
            return where
        try:
            check_exact(item)
        except TypeError:
            return ref_refused_at(item, path)
    return where


# -- golden reports ---------------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# COMMAND.CASE[.qN][.bN].json: `verify`, `genus`, `obstruct` and `reps` name a
# splitcheck command line, `search.planted.bN.json` the planted r-p q=2
# search cut at budget N
_GOLDEN_NAME = re.compile(
    r"(verify|genus|obstruct|reps|search)\.([a-z0-9]+(?:-[a-z0-9]+)*)(?:\.q([0-9]+))?(?:\.b([0-9]+))?\.json"
)


def golden_run(name: str) -> tuple[str, str, int | None, int | None]:
    """(command, case, q, budget) of a golden file's name."""
    match = _GOLDEN_NAME.fullmatch(name)
    if match is None or (match[1] == "search" and (match[2], match[3]) != ("planted", None)):
        raise ValueError(f"{name}: not a golden name (COMMAND.CASE[.qN][.bN].json)")
    command, case, q, budget = match.groups()
    return command, case, None if q is None else int(q), None if budget is None else int(budget)


def golden_argv(name: str) -> list[str]:
    """The splitcheck command line whose output a golden file holds."""
    command, case, q, budget = golden_run(name)
    if command == "search":
        raise ValueError(f"{name}: the planted search has no command line")
    return [command, case] + (["--q", str(q)] if q is not None else []) + (
        ["--budget", str(budget)] if budget is not None else []
    )


def golden_id(name: str) -> str:
    """A run's test id: its case, q and budget, joined by '-'."""
    return "-".join(str(part) for part in golden_run(name)[1:] if part is not None)


def golden_names(*commands: str, budgeted: bool | None = None) -> list[str]:
    """The golden files of the given commands (all of them, given none), in
    name order, only those with a budget or without one when `budgeted` is
    set; a name that does not parse is in no list, and fails
    `test_every_golden_file_is_a_run`."""
    names = []
    for path in sorted(GOLDEN_DIR.iterdir()):
        try:
            command, _, _, budget = golden_run(path.name)
        except ValueError:  # update.py, or a name the test fails
            continue
        if (not commands or command in commands) and budgeted in (None, budget is not None):
            names.append(path.name)
    return names


def planted_rp2():
    """r-p q=2 with targets read off one splitting; the walk finds it at about visited 1,500."""
    base = search_spec_for("r-p", 2)
    ring = base.ring
    vecs = ((1, 2, 0), (0, 1, -2), (1, 0, 3))
    lbsum = LineBundleSum(ring, tuple(ring.class_from_coeffs(v) for v in vecs))
    targets = replaced(base.targets, p1_target=first_pontryagin(lbsum), euler_target=euler_class(lbsum))
    return replaced(base, targets=targets)


def render_golden(name: str) -> str:
    """What a golden file holds: the stdout of its command line, or the
    planted search's certificate indented as `verify` indents a report."""
    command, _, _, budget = golden_run(name)
    if command == "search":
        cert = enumerate_splittings(replaced(planted_rp2(), budget=budget))
        return json.dumps(cert.as_jsonable(), sort_keys=True, indent=2) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(golden_argv(name))
    if code != 0:
        raise AssertionError(f"{name}: splitcheck {' '.join(golden_argv(name))} exited {code}")
    return out.getvalue()


def assert_same_text(expected: str, actual: str, name: str) -> None:
    """Fail with a unified diff from `expected` to `actual` unless they are equal."""
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True), f"golden/{name}", "now"
        )
        raise AssertionError(f"{name} differs from its golden file:\n{''.join(diff)}")


def assert_golden(name: str) -> str:
    """Run a golden file's command and compare what it prints with the file;
    return the text."""
    actual = render_golden(name)
    assert_same_text((GOLDEN_DIR / name).read_text(encoding="utf-8"), actual, name)
    return actual
