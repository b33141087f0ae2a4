"""Genus polynomial machinery: power series, chi_y, and the congruence fold.

The projective-space values and the low-order series coefficients are frozen
from hand expansions; the structural properties (specialization at -1,
Poincare duality of the coefficients, invariance under argument scaling, the
direct signature integrand) run on randomized root data over the built-in
rings, and the package integrator is compared against the reference
implementations in helpers on the same kind of data.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import (
    RING_IDS,
    RING_REFS,
    TelescopeReport,
    counted_kernel_calls,
    divide_by_one_plus_y,
    generator_class,
    random_degree2,
    ref_chi_y_scaled,
    ref_coefficient_bound,
    ref_duality_check,
    ref_evaluate,
    ref_integer_roots,
    ref_integrate_packed,
    ref_rows,
    ref_signature_direct,
    ref_table_mul,
    ref_top_chern_integral,
    ring_for,
    telescoped_congruence,
)
from splitcheck.genus import (
    _EULER_FACTOR,
    ChernRootData,
    RootCountError,
    YPolynomial,
    _coefficient_bound,
    _divide_by_one_plus_y,
    _genus_factor,
    _integrate_multiplicative,
    _tanh_factor,
    chi_y,
    chi_y_scaled,
    duality_check,
    euler_from_chi,
    hirzebruch_congruence,
    signature_direct,
    signature_from_chi,
    todd_from_chi,
    top_chern_integral,
)
from splitcheck.cases import builtin_case
from splitcheck.ring import (
    GradedClass,
    RingPresentation,
    basis,
    monomials_of_degree,
    parse_presentation,
)
from splitcheck.series import (
    TruncatedSeries,
    series_exp_neg,
    series_scaled_argument,
    series_tanh_factor,
    series_todd_factor,
)

F = Fraction


# -- truncated series -----------------------------------------------------------


def test_todd_factor_low_orders():
    assert series_todd_factor(2).coefficients == (F(1), F(1, 2), F(1, 12))
    assert series_todd_factor(4).coefficients == (
        F(1), F(1, 2), F(1, 12), F(0), F(-1, 720),
    )


def test_tanh_factor_low_orders():
    assert series_tanh_factor(2).coefficients == (F(1), F(0), F(1, 3))
    assert series_tanh_factor(6).coefficients == (
        F(1), F(0), F(1, 3), F(0), F(-1, 45), F(0), F(2, 945),
    )


def test_exp_neg_low_orders():
    assert series_exp_neg(3).coefficients == (F(1), F(-1), F(1, 2), F(-1, 6))


def test_series_division_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        order = rng.randint(0, 6)
        a = TruncatedSeries.from_coeffs(
            [rng.randint(-5, 5) for _ in range(order + 1)], order
        )
        unit = TruncatedSeries.from_coeffs(
            [rng.choice((1, -1, 2))] + [rng.randint(-5, 5) for _ in range(order)], order
        )
        assert (a.divide(unit)) * unit == a


def test_series_division_needs_unit():
    s = TruncatedSeries.from_coeffs([0, 1], 1)
    with pytest.raises(Exception):
        s.divide(s)


def test_scaled_argument_substitutes_powers():
    s = TruncatedSeries.from_coeffs([1, 1, 1], 2)
    assert series_scaled_argument(s, 3).coefficients == (F(1), F(3), F(9))


# -- chi_y on projective spaces ---------------------------------------------------


def projective_data(n: int) -> ChernRootData:
    ring = parse_presentation(
        {
            "generators": ["h"],
            "relations": [{"lhs": [n + 1], "rhs": []}],
            "top_degree": 2 * n,
        }
    )
    h = generator_class(ring, 0)
    return ChernRootData(ring=ring, roots=(h,) * (n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_space_alternating_genus(n):
    chi = chi_y(projective_data(n))
    assert chi.coefficients == tuple(F((-1) ** p) for p in range(n + 1))
    assert euler_from_chi(chi) == n + 1
    assert signature_from_chi(chi) == (1 if n % 2 == 0 else 0)
    assert todd_from_chi(chi) == 1
    assert duality_check(chi, n)


def test_projective_line_and_plane_frozen():
    assert chi_y(projective_data(1)).coefficients == (F(1), F(-1))
    assert chi_y(projective_data(2)).coefficients == (F(1), F(-1), F(1))


def test_root_count_must_cover_dimension():
    ring = ring_for("cpn-split", 3)
    h = generator_class(ring, 0)
    short = ChernRootData(ring=ring, roots=(h, h))
    with pytest.raises(RootCountError):
        chi_y(short)
    # too few roots is a root-count error whether or not their product
    # vanishes, never a degree error or a zero Euler number
    with pytest.raises(RootCountError):
        top_chern_integral(short)
    with pytest.raises(RootCountError):
        top_chern_integral(ChernRootData(ring=ring, roots=(h, GradedClass.zero())))


def test_extra_trivial_roots_do_not_change_chi():
    data = projective_data(2)
    ring = data.ring
    padded = ChernRootData(ring=ring, roots=data.roots + (GradedClass.zero(),) * 2)
    assert chi_y(padded).coefficients == chi_y(data).coefficients


def test_chi_y_lists_a_zero_top_coefficient():
    """Exactly n + 1 coefficients, chi^0 .. chi^n, even when chi^n = 0."""
    data = ChernRootData(ring=ring_for("cpn-split", 3), roots=(GradedClass.zero(),) * 3)
    assert chi_y(data).coefficients == (0, 0, 0, 0)
    assert chi_y_scaled(data, 2).coefficients == (0, 0, 0, 0)
    assert ref_chi_y_scaled(data, 1).coefficients == (0, 0, 0, 0)


def test_roots_are_normalized_once_per_root_set(monkeypatch):
    """chi_y, chi_y_scaled and signature_direct of one root set share its
    integer root vectors: each root term's monomial is reduced once."""
    data = projective_data(3)
    ring = data.ring
    tables = ring.tables  # built first: the tables reduce monomials too
    calls = []

    def counting(mono):
        calls.append(mono)
        return RingPresentation.reduce_monomial(ring, mono)

    monkeypatch.setattr(ring, "reduce_monomial", counting)
    chi = chi_y(data)
    assert chi_y_scaled(data, 2) == chi
    assert signature_direct(data) == signature_from_chi(chi)
    assert ring.tables is tables
    assert len(calls) == sum(len(root.terms) for root in data.roots)


# -- exact values on ints against the Fraction oracles -----------------------------

EXACT = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12)
)
Y_VALUES = [-1, 0, 1, 2, F(3, 2)]


def _assert_exact(value, expected) -> None:
    """Equal to the oracle, and an int exactly when it is integral."""
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@given(st.lists(EXACT, min_size=1, max_size=7), st.integers(0, 3), st.sampled_from(Y_VALUES))
def test_evaluate_matches_fraction_oracle(coeffs, zeros, y):
    poly = YPolynomial(tuple(coeffs) + (0,) * zeros)
    _assert_exact(poly.evaluate(y), ref_evaluate(poly, y))
    trimmed = YPolynomial.from_coeffs(coeffs)
    _assert_exact(trimmed.evaluate(y), ref_evaluate(trimmed, y))


@given(st.lists(EXACT, min_size=1, max_size=5), st.integers(0, 8), st.booleans(), st.integers(0, 2))
def test_duality_check_matches_fraction_oracle(head, n, mirror, zeros):
    """Random and mirrored coefficient lists, cut or padded around n + 1."""
    coeffs = list(head)
    if mirror:
        coeffs = [0] * (n + 1)
        for p in range(n // 2 + 1):
            coeffs[p] = head[p % len(head)]
            coeffs[n - p] = (-1) ** n * coeffs[p]
    for chi in (YPolynomial(tuple(coeffs) + (0,) * zeros), YPolynomial.from_coeffs(coeffs)):
        assert duality_check(chi, n) == ref_duality_check(chi, n)


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_integer_roots_match_fraction_oracle(name, par):
    """Roots over every degree-2 monomial, reducible ones included, with
    p/q coefficients, read as the oracle reads their normal forms."""
    ring = ring_for(name, par)
    monomials = list(monomials_of_degree(len(ring.generators), 1))
    rng = random.Random(sum(map(ord, f"integer-roots-{name}-{par}")))
    for i in range(20):
        roots = tuple(
            GradedClass.from_terms(
                (m, F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 6)))) for m in monomials
                if rng.random() < 0.7
            )
            for _ in range(ring.top_degree // 2 + i % 3)
        )
        data = ChernRootData(ring=ring, roots=roots)
        assert data.integer_roots == ref_integer_roots(data)


def test_integer_roots_fold_reducible_monomials():
    """Over a ring with the linear relation a = b, a root's terms fold into
    one coordinate, where their denominators may cancel: the scale is the
    lcm of the coordinates' denominators, not of the terms'."""
    ring = parse_presentation(
        {
            "generators": ["a", "b"],
            "relations": [
                {"lhs": [1, 0], "rhs": [[1, [0, 1]]]},
                {"lhs": [0, 2], "rhs": []},
            ],
            "top_degree": 2,
        }
    )
    a, b = generator_class(ring, 0), generator_class(ring, 1)
    roots = (
        GradedClass.from_terms([((1, 0), F(1, 2)), ((0, 1), F(1, 2))]),
        GradedClass.from_terms([((1, 0), F(1, 3)), ((0, 1), F(-1, 3))]),
    )
    data = ChernRootData(ring=ring, roots=roots)
    assert data.integer_roots == ref_integer_roots(data) == (((1,), (0,)), 1)
    assert chi_y(data) == ref_chi_y_scaled(data, 1)
    half = ChernRootData(ring=ring, roots=(GradedClass.from_terms([((1, 0), F(1, 2))]), b))
    assert half.integer_roots == ref_integer_roots(half) == (((1,), (2,)), 2)
    assert ChernRootData(ring=ring, roots=(a,)).integer_roots == (((1,),), 1)


# -- structural properties on random root data ------------------------------------

GENUS_RING_REFS = [
    ("cp2-connect-sum", None),
    ("su3-t2", None),
    ("r-p", 2),
    ("r-p-u-variant", 2),
    ("sp2-t2", None),
    ("s2xs2", None),
    ("cpn-split", 4),
]


def random_data(rng: random.Random, ring, extra: int = 0) -> ChernRootData:
    """n random roots; 'extra' zero roots mimic trivial stabilization and
    exercise the division by (1 + y)^extra."""
    n = ring.top_degree // 2
    roots = tuple(random_degree2(rng, ring, span=2) for _ in range(n))
    return ChernRootData(ring=ring, roots=roots + (GradedClass.zero(),) * extra)


def random_rational_data(rng: random.Random, ring, extra: int = 0) -> ChernRootData:
    """Like random_data, with root coordinates over denominators 1, 2 and 3."""
    roots = tuple(
        GradedClass.from_terms(
            (m, F(rng.randint(-4, 4), rng.choice((1, 2, 3)))) for m in basis(ring, 2)
        )
        for _ in range(ring.top_degree // 2)
    )
    return ChernRootData(ring=ring, roots=roots + (GradedClass.zero(),) * extra)


@pytest.mark.parametrize(("name", "par"), GENUS_RING_REFS,
                         ids=[n if p is None else f"{n}-{p}" for n, p in GENUS_RING_REFS])
def test_genus_properties_random(name, par):
    ring = ring_for(name, par)
    rng = random.Random(sum(map(ord, f"{name}-{par}")))
    for i in range(40):
        data = random_data(rng, ring, extra=i % 3)
        chi = chi_y(data)
        # specializing y = -1 gives the integral of the product of the n
        # honest roots (the zero padding divides out exactly)
        honest = ChernRootData(ring=ring, roots=data.roots[: data.n])
        assert euler_from_chi(chi) == top_chern_integral(honest)
        # coefficient list is palindromic up to alternating signs
        assert duality_check(chi, data.n)
        # y = 1 agrees with the x/tanh(x) integrand evaluated directly
        assert signature_from_chi(chi) == signature_direct(data)
        # substituting t*x for x throughout changes nothing
        t = (-1, 2, 3)[i % 3]
        assert chi_y_scaled(data, t).coefficients == chi.coefficients


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_integrator_matches_reference(name, par):
    ring = ring_for(name, par)
    rng = random.Random(sum(map(ord, f"reference-{name}-{par}")))
    cases = [
        (random_data(rng, ring, extra=i % 3), (-1, 2, 3)[i // 3 % 3]) for i in range(15)
    ]
    # rational coordinates put Fractions into the ring arithmetic, and a
    # rational t changes the series' common denominator
    cases += [
        (random_rational_data(rng, ring, extra=i % 3), (F(1, 2), F(-3, 2))[i // 3])
        for i in range(6)
    ]
    # every (zero-root count, t) pair occurs
    for data, t in cases:
        _assert_matches_reference(data, t)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_integrator_matches_reference_on_high_projective_spaces(n):
    """cpn-split's ring at n = 5 .. 8: up to seven head roots, and factor
    series longer than any the other rings reach."""
    ring = ring_for("cpn-split", n)
    rng = random.Random(sum(map(ord, f"reference-cpn-split-{n}")))
    for i in range(9):
        _assert_matches_reference(random_data(rng, ring, extra=i % 3), (-1, 2, F(1, 2))[i // 3])


def _assert_matches_reference(data: ChernRootData, t) -> None:
    assert chi_y(data) == ref_chi_y_scaled(data, 1)
    assert chi_y_scaled(data, t) == ref_chi_y_scaled(data, t)
    assert signature_direct(data) == ref_signature_direct(data)
    honest = ChernRootData(ring=data.ring, roots=data.roots[: data.n])
    assert top_chern_integral(honest) == ref_top_chern_integral(honest)
    assert top_chern_integral(data) == ref_top_chern_integral(data)
    _assert_packed_matches_oracle(data, t)


def _assert_packed_matches_oracle(data: ChernRootData, t=1) -> None:
    """The same coefficient bound, so the same digit width, and the same
    digits and denominator as the loop over every root and degree, for the
    chi_y, x/tanh x and Euler factors."""
    vecs, tau = data.integer_roots[0], data.ring.tables.mul_norm
    for factor in (_genus_factor(data.n, t), _tanh_factor(data.n), _EULER_FACTOR):
        assert _coefficient_bound(factor, vecs, tau) == ref_coefficient_bound(factor, vecs, tau)
        assert _integrate_multiplicative(data, factor) == ref_integrate_packed(data, factor)


def random_wide_data(rng: random.Random, ring, extra: int) -> ChernRootData:
    """n roots with coordinates up to 10^6 over denominators up to 997."""
    roots = tuple(
        GradedClass.from_terms(
            (m, F(rng.randint(-10**6, 10**6), rng.choice((1, 1, rng.randint(2, 997)))))
            for m in basis(ring, 2)
        )
        for _ in range(ring.top_degree // 2)
    )
    return ChernRootData(ring=ring, roots=roots + (GradedClass.zero(),) * extra)


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_integrator_matches_reference_on_wide_roots(name, par):
    """Coefficients far past the small-span data: the packed y-digits then
    run to hundreds of bits, and the bound that sizes them must still hold."""
    ring = ring_for(name, par)
    rng = random.Random(sum(map(ord, f"wide-{name}-{par}")))
    for i, t in enumerate((-1, 2, 3, F(1, 2), F(-3, 2)) * 2):
        data = random_wide_data(rng, ring, extra=i % 3)
        assert chi_y_scaled(data, t) == ref_chi_y_scaled(data, t)
        assert signature_direct(data) == ref_signature_direct(data)
        assert top_chern_integral(data) == ref_top_chern_integral(data)
        _assert_packed_matches_oracle(data, t)


def _nonzero_roots(rng: random.Random, ring, count: int) -> list[GradedClass]:
    roots = []
    while len(roots) < count:
        root = random_degree2(rng, ring, span=2)
        if not root.is_zero():
            roots.append(root)
    return roots


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_integrator_places_zero_roots_anywhere(name, par):
    """Zero roots first, in the middle and last are one scalar c_0^z on the
    integral; all roots zero, and exactly one nonzero root, which is then
    also the last root, met only through its functionals."""
    ring = ring_for(name, par)
    n = ring.top_degree // 2
    rng = random.Random(sum(map(ord, f"zeros-{name}-{par}")))
    zero = GradedClass.zero()
    for _ in range(3):
        r = _nonzero_roots(rng, ring, n)
        root_sets = [
            (zero, *r),
            (*r[:1], zero, *r[1:], zero),
            (zero, r[0], zero, *r[1:]),
            (*r, zero, zero),
            (zero,) * n,
            (zero,) * (n + 2),
            (r[0],) + (zero,) * (n - 1),
            (zero, zero, r[0]) + (zero,) * (n - 1),
        ]
        for roots in root_sets:
            data = ChernRootData(ring=ring, roots=roots)
            for t in (1, -1, 2, F(1, 2)):
                _assert_packed_matches_oracle(data, t)
                assert chi_y_scaled(data, t) == ref_chi_y_scaled(data, t)
            assert signature_direct(data) == ref_signature_direct(data)
            assert top_chern_integral(data) == ref_top_chern_integral(data)


def test_integrator_on_the_projective_line():
    """genus-cpn at n = 1: the last root meets the product of one other root
    through a single transposed table product."""
    ring = parse_presentation(builtin_case("genus-cpn", 1)["ring"])
    h = generator_class(ring, 0)
    for roots in [(h, h), (h, GradedClass({(1,): -3})), (h,), (h, h, GradedClass.zero())]:
        _assert_matches_reference(ChernRootData(ring=ring, roots=roots), 2)
    assert chi_y(ChernRootData(ring=ring, roots=(h, h))).coefficients == (1, -1)


def test_integrator_on_a_point():
    """Top degree 0: every root is zero and the empty product, 1, is the
    fundamental class itself."""
    ring = parse_presentation(
        {"generators": ["h"], "relations": [{"lhs": [1], "rhs": []}], "top_degree": 0}
    )
    h = generator_class(ring, 0)
    for roots in [(), (h,), (h, GradedClass.zero(), h)]:
        data = ChernRootData(ring=ring, roots=roots)
        _assert_matches_reference(data, 3)
        assert chi_y(data).coefficients == (1,)
        assert signature_direct(data) == 1
    assert top_chern_integral(ChernRootData(ring=ring, roots=())) == 1
    assert top_chern_integral(ChernRootData(ring=ring, roots=(h,))) == 0


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_dual_mul_is_the_transpose_of_mul(name, par):
    """<dual_mul(k, w, b), a> = <w, kernels[k](a, b)> in every degree, and
    dual_mul is empty one degree past the tables."""
    ring = ring_for(name, par)
    tables = ring.tables
    rows = ref_rows(ring)
    rng = random.Random(sum(map(ord, f"dual-{name}-{par}")))
    r = len(tables.bases[1])
    for k in range(len(tables.terms) + 1):
        size, image = (len(tables.bases[k]), len(tables.bases[k + 1])) if k < len(tables.terms) else (0, 0)
        for _ in range(20):
            a = tuple(rng.randint(-9, 9) for _ in range(size))
            b = tuple(rng.randint(-9, 9) for _ in range(r))
            w = tuple(rng.randint(-9, 9) for _ in range(image))
            dual = tables.dual_mul(k, w, b)
            assert len(dual) == size
            product = ref_table_mul(tables.bases, rows, k, a, b)
            if k < len(tables.terms):
                assert tables.kernels[k](a, b) == product
            assert sum(x * y for x, y in zip(dual, a)) == sum(x * y for x, y in zip(w, product))
    assert tables.dual_mul(len(tables.terms), (), (0,) * r) == ()


@pytest.mark.parametrize(
    ("name", "counts", "oracle_counts"),
    [("su3-t2", (7, 0, 2), (15, 15, 9)), ("sp2-t2", (23, 16, 3), (40, 40, 16))],
)
def test_integrator_table_product_counts(monkeypatch, name, counts, oracle_counts):
    """`RingTables.kernels` calls of chi_y, signature_direct and
    top_chern_integral on n nonzero roots, and `ref_table_mul` calls of
    their oracle: each head root costs one product
    per power of x and degree of the running product below the top, the
    last root is never multiplied in, and zero roots cost nothing.  At odd n
    (su3-t2, n = 3) the even x/tanh x reaches no top degree, so
    signature_direct forms no product."""
    ring = ring_for(name)
    products = counted_kernel_calls(monkeypatch)
    reference = helpers.ref_table_mul

    def counting(bases, rows, k, a, b):
        products.append(k)
        return reference(bases, rows, k, a, b)

    monkeypatch.setattr(helpers, "ref_table_mul", counting)
    rng = random.Random(sum(map(ord, f"counts-{name}")))
    for _ in range(3):
        roots = tuple(_nonzero_roots(rng, ring, ring.top_degree // 2))
        for extra in (0, 2):
            data = ChernRootData(ring=ring, roots=roots + (GradedClass.zero(),) * extra)
            found, oracle = [], []
            for factor, genus in [
                (_genus_factor(data.n, 1), chi_y),
                (_tanh_factor(data.n), signature_direct),
                (_EULER_FACTOR, top_chern_integral),
            ]:
                products.clear()
                genus(data)
                found.append(len(products))
                products.clear()
                ref_integrate_packed(data, factor)
                oracle.append(len(products))
            assert tuple(found) == counts
            assert tuple(oracle) == oracle_counts


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_table_products_obey_the_row_norm_bound(name, par):
    """|kernels[k](a, b)|_1 <= tau |a|_1 |b|_1: the inequality the
    integrator's digit width rests on."""
    ring = ring_for(name, par)
    tables = ring.tables
    tau = tables.mul_norm
    rng = random.Random(sum(map(ord, f"norm-{name}-{par}")))
    r = len(tables.bases[1])
    rows = ref_rows(ring)
    for k in range(len(rows)):
        for _ in range(30):
            a = tuple(rng.randint(-50, 50) for _ in tables.bases[k])
            b = tuple(rng.randint(-50, 50) for _ in range(r))
            norm = sum(map(abs, tables.kernels[k](a, b)))
            assert norm <= tau * sum(map(abs, a)) * sum(map(abs, b))
    # tau is attained: some product of basis elements has norm tau
    assert any(sum(map(abs, entry)) == tau for table in rows for row in table for entry in row)


def test_integrator_overflow_raises():
    """A digit width below the true coefficients is caught, never decoded
    into a wrong polynomial: here tau is forced to 0."""
    ring = parse_presentation(builtin_case("cpn-split", 3)["ring"])
    ring.tables.mul_norm = 0
    data = ChernRootData(ring=ring, roots=(GradedClass({(1,): 1000}),) * 4)
    with pytest.raises(ArithmeticError, match="overflows"):
        chi_y(data)


def test_integrator_reduces_roots_first():
    """Roots written in a reducible generator: k -> h, h^3 = 0, top degree 4."""
    ring = parse_presentation(
        {
            "generators": ["h", "k"],
            "relations": [
                {"lhs": [0, 1], "rhs": [[1, [1, 0]]]},
                {"lhs": [3, 0], "rhs": []},
            ],
            "top_degree": 4,
        }
    )
    k = GradedClass({(0, 1): 1})
    half_k = GradedClass({(0, 1): F(1, 2)})
    mixed = GradedClass({(0, 1): 3, (1, 0): -1})
    zero = GradedClass.zero()
    for roots in [(k, k), (half_k, mixed), (k, half_k, zero), (mixed, k, zero, zero)]:
        data = ChernRootData(ring=ring, roots=roots)
        for t in (1, -1, 2, F(1, 2)):
            _assert_matches_reference(data, t)
    # 3 copies of h give the chi_y of complex projective 2-space
    assert chi_y(ChernRootData(ring=ring, roots=(k, k, k))).coefficients == (1, -1, 1)


def test_duality_check_rejects_asymmetric():
    assert duality_check(YPolynomial.from_coeffs([1, -1]), 1)
    assert not duality_check(YPolynomial.from_coeffs([1, 1]), 1)
    assert duality_check(YPolynomial.from_coeffs([3, 5, 3]), 2)
    assert not duality_check(YPolynomial.from_coeffs([3, 5, 4]), 2)


def test_divide_by_one_plus_y():
    # (1 + y)*(2 - y) = 2 + y - y^2
    quotient = divide_by_one_plus_y(YPolynomial.from_coeffs([2, 1, -1]))
    assert quotient.coefficients == (F(2), F(-1))
    assert _divide_by_one_plus_y([2, 1, -1]) == [2, -1]
    with pytest.raises(RootCountError):
        divide_by_one_plus_y(YPolynomial.from_coeffs([1, 1, 1]))
    with pytest.raises(RootCountError):
        _divide_by_one_plus_y([1, 1, 1])


# -- the mod-4 congruence ----------------------------------------------------------


def test_congruence_frozen_instances():
    assert hirzebruch_congruence(3, 1, 1)
    assert not hirzebruch_congruence(4, 2, 1)
    assert not hirzebruch_congruence(6, 0, 5)
    assert not hirzebruch_congruence(2, 0, 1)


def random_symmetric_coeffs(rng: random.Random, n: int) -> list[int]:
    half = [rng.randint(-20, 20) for _ in range(n // 2 + 1)]
    out = [0] * (n + 1)
    for p in range(n // 2 + 1):
        out[p] = half[p]
        out[n - p] = (-1) ** n * half[p]
    return out


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_telescoped_congruence_random(n):
    rng = random.Random(n * 1000 + 1)
    for _ in range(100):
        coeffs = random_symmetric_coeffs(rng, n)
        report = telescoped_congruence(coeffs)
        assert isinstance(report, TelescopeReport)
        assert report.identity_holds
        assert report.congruent
        chi = sum(coeffs)
        minus = sum(c * (-1) ** p for p, c in enumerate(coeffs))
        assert (minus - (-1) ** (n // 2) * chi) % 4 == 0


def test_telescoped_congruence_rejects_bad_input():
    with pytest.raises(ValueError):
        telescoped_congruence([1, 2])  # odd complex dimension
    with pytest.raises(ValueError):
        telescoped_congruence([1, 2, 3])  # not duality-symmetric


def test_telescoped_identity_shape():
    # for chi^p = (1, 0, 1) the fold gives chi = -sigma + 4*chi^0
    report = telescoped_congruence([1, 0, 1])
    assert report.chi == 2
    assert report.sigma == 2
    assert report.correction == 4
    assert report.identity_holds
