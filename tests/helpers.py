"""Shared test utilities: cached rings, seeded generators, equation oracles.

The oracle predicates hand-expand the p1/euler matching conditions for each
built-in geometry directly from the presentation relations, independently of
the characteristic-class module, so the search and the matcher can be checked
against them term by term.

The reference genus functions at the end compute chi_y, the direct signature
and the Euler integral with their own loops and their own y-class product,
independently of the package's shared integrator, as a differential oracle.
`ref_integrate_packed` is the packed integrator's own oracle: the loop that
multiplies every root into every degree of the running product.
`generator_class` and `divide_by_one_plus_y` serve the tests only.
`ref_rows` and `ref_table_mul` are the compiled ring tables' oracle: dense
rows built with `ring_mul`, and the loop over every row entry.
`ref_enumerate` is the search's differential oracle: the ordered-tuple walk
over every coordinate at once, with no ball, no join and no symmetry
reduction.  `ref_canonicalize_solution` is the canonicalizer's oracle: the
greatest of all m! * 2^m images under permutations and sign flips.

`ref_weyl_dim` and `ref_field_type` are the representation catalogs'
oracle: the Weyl product over the positive roots of B_m taken in `Fraction`
e-coordinates, with the halves of lambda and rho kept.  `ref_multisets` and
`ref_obstruct` are the obstruction walk's oracle: every multiset as a flat
nondecreasing index sequence, one generator frame per summand, with the
filters read off the flat sequence.  `ref_jsonable` is
the serializer's oracle: the plain isinstance chain, with no dispatch on
exact types.

Coordinate convention used throughout: a degree-2 vector lists coefficients
in the ascending basis order of the ring, which for generators written in
document order [g1, ..., gk] means the *last* generator comes first.  So for
[u, v] the vector (x0, x1) is the class x0*v + x1*u, and for [v1, v2, v3] the
vector (x0, x1, x2) is x0*v3 + x1*v2 + x2*v1.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import combinations

from splitcheck.cases import builtin_case
from splitcheck.charclass import LineBundleSum, TargetClasses, matches_targets
from splitcheck.cli import _load_search_spec, _load_targets
from splitcheck.genus import ChernRootData, RootCountError, YPolynomial, _Factor
from splitcheck.repcat import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    ObstructionCase,
    RootSystem,
    product_catalog,
)
from splitcheck.ring import (
    GradedClass,
    RingPresentation,
    basis,
    integrate,
    monomial_degree,
    monomial_mul,
    monomials_of_degree,
    normal_form,
    parse_presentation,
    ring_add,
    ring_mul,
)
from splitcheck.search import ExplicitBound, derive_bounds
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


def ref_enumerate(spec) -> tuple:
    """Canonical solution set of a search, by walking ordered m-tuples.

    A sum-of-squares bound walks the exact shell sum_j lam_j x_j^2 = C over
    all m * r coordinates; an explicit bound walks the full box.  A tuple
    whose summed squares miss the p1 target cannot match, so only the rest
    go to `matches_targets`, which alone accepts.
    """
    bounds = derive_bounds(spec)
    ring = spec.ring
    r = len(basis(ring, 2))
    p1 = normal_form(ring, spec.targets.p1_target)
    squares: dict = {}
    found = set()

    def on_leaf(flat) -> None:
        vecs = tuple(flat[i * r : (i + 1) * r] for i in range(spec.m))
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
            found.add(ref_canonicalize_solution(vecs, spec.allows_sign_flips()))

    if isinstance(spec.bound, ExplicitBound):
        ranges = [range(-b, b + 1) for b in bounds.per_variable] * spec.m
        for flat in itertools.product(*ranges):
            on_leaf(flat)
    else:
        denom = math.lcm(*(d.denominator for d in bounds.diagonal))
        constant = bounds.constant * denom
        if constant.denominator == 1:
            weights = [int(d * denom) for d in bounds.diagonal] * spec.m
            _shell(weights, int(constant), [], on_leaf)
    return tuple(sorted(found))


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
    tau = tables.mul_norm
    norms = [sum(map(abs, ck)) for ck in coeffs]
    bound = 1
    for vec in vecs:
        size = tau * sum(map(abs, vec))
        bound *= sum(norm * size**k for k, norm in enumerate(norms))
    shift = (2 * bound).bit_length() + 1
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
