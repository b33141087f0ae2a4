"""Irrep dimensions and types for the B-family, SU(2), and circle factors,
plus the tangent-summand filter chain.

The two xfailed tests record dimension/type claims for the half-spin
representation of Spin(11) that contradict the parity of <lambda, 2*rho^vee>:
the pairing for the weight (0,0,0,0,1) is 15, which is odd, so the
representation is quaternionic with real dimension 64, not real with real
dimension 32.  The tests assert the claimed values and are expected to fail.
"""

from __future__ import annotations

import itertools
import tracemalloc
from math import comb
from unittest import mock

import pytest

from helpers import ref_catalog_irreps, ref_field_type, ref_obstruct, ref_weyl_dim
from splitcheck import cli, repcat
from splitcheck.cases import builtin_case
from splitcheck.repcat import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    CatalogError,
    Irrep,
    ObstructionCase,
    ProductIrrep,
    RootSystem,
    catalog_irreps,
    fs_indicator,
    obstruct_tangent_rep,
    product_catalog,
)

A1 = RootSystem("A", 1)
CIRCLE = RootSystem("T", 1)


def dim_of(rs: RootSystem, weight) -> int:
    return Irrep.build(rs, weight).complex_dim


def type_of(rs: RootSystem, weight) -> str:
    return Irrep.build(rs, weight).field_type


def nontrivial_of(catalog) -> list[Irrep]:
    return [e for e in catalog.entries if any(e.highest_weight)]


def spin(n_odd: int) -> RootSystem:
    assert n_odd % 2 == 1
    return RootSystem("B", (n_odd - 1) // 2)


def test_group_names():
    assert A1.group_name == "SU(2)"
    assert CIRCLE.group_name == "S^1"
    assert spin(11).group_name == "Spin(11)"


def test_root_system_validation():
    with pytest.raises(ValueError):
        RootSystem("X", 1)
    with pytest.raises(ValueError):
        RootSystem("A", 2)
    with pytest.raises(ValueError):
        RootSystem("B", 0)


@pytest.mark.parametrize("m", range(1, 11))
def test_b_family_closed_form_dimensions(m):
    rs = RootSystem("B", m)
    for i in range(1, m):
        weight = tuple(1 if k == i - 1 else 0 for k in range(m))
        assert dim_of(rs, weight) == comb(2 * m + 1, i)
    # top exterior power carries twice the last fundamental weight
    if m >= 2:
        weight = tuple(0 for _ in range(m - 1)) + (2,)
        assert dim_of(rs, weight) == comb(2 * m + 1, m)
    # the spin representation
    weight = tuple(0 for _ in range(m - 1)) + (1,)
    assert dim_of(rs, weight) == 2**m


def test_su2_dimensions_and_types():
    dims = [dim_of(A1, (k,)) for k in range(6)]
    assert dims == [1, 2, 3, 4, 5, 6]
    types = [type_of(A1, (k,)) for k in range(6)]
    assert types == [REAL, QUATERNIONIC, REAL, QUATERNIONIC, REAL, QUATERNIONIC]


def test_su2_is_spin3():
    """A_1 and B_1 give the same irreps: dimension w + 1, real iff w is even."""
    b1 = RootSystem("B", 1)
    for w in range(21):
        assert dim_of(A1, (w,)) == dim_of(b1, (w,)) == w + 1
        assert type_of(A1, (w,)) == type_of(b1, (w,)) == (REAL if w % 2 == 0 else QUATERNIONIC)
    for bound in (1, 2, 7, 20):
        a_weights = [e.highest_weight for e in catalog_irreps(A1, bound).entries]
        assert a_weights == [e.highest_weight for e in catalog_irreps(b1, bound).entries]
    real_dims = [Irrep.build(A1, (k,)).real_dim for k in range(6)]
    assert real_dims == [1, 4, 3, 8, 5, 12]


def test_circle_weights():
    assert dim_of(CIRCLE, (0,)) == 1
    assert dim_of(CIRCLE, (5,)) == 1
    assert type_of(CIRCLE, (0,)) == REAL
    assert type_of(CIRCLE, (3,)) == COMPLEX


def test_weight_validation():
    # one check for both: an undominant weight or a wrong length is an error,
    # never a type read off the first coefficient or a bare IndexError
    for rs, weight in [
        (A1, (-1,)),
        (A1, (1, 1)),
        (A1, ()),
        (CIRCLE, (0, 1)),
        (CIRCLE, (-1,)),
        (spin(5), (1, 0, 0)),
        (spin(7), (1,)),
        (spin(7), (0, -1, 2)),
    ]:
        with pytest.raises(ValueError):
            Irrep.build(rs, weight)


@pytest.mark.parametrize("m", range(1, 7))
def test_b_family_matches_fraction_oracle(m):
    rs = RootSystem("B", m)
    for weight in itertools.product(range(3), repeat=m):
        assert dim_of(rs, weight) == ref_weyl_dim(rs, weight), weight
        assert type_of(rs, weight) == ref_field_type(rs, weight), weight


@pytest.mark.parametrize("bound", [20, 36, 64])
@pytest.mark.parametrize("m", range(1, 7))
def test_b_catalogs_match_fraction_oracle(m, bound, monkeypatch):
    rs = RootSystem("B", m)
    fast = catalog_irreps(rs, bound)
    monkeypatch.setattr(
        repcat, "_weyl_data", lambda rs, w: (tuple(w), ref_weyl_dim(rs, w), ref_field_type(rs, w))
    )
    assert fast == catalog_irreps(rs, bound)


@pytest.mark.parametrize("rs", [A1, CIRCLE] + [RootSystem("B", m) for m in range(1, 7)],
                         ids=["A1", "T"] + [f"B{m}" for m in range(1, 7)])
def test_catalog_checks_each_weight_once(rs, monkeypatch):
    """A catalog validates and doubles each weight it looks at once: the
    dimension and the type of a catalog entry come from the same check."""
    checked, doubled = [], []
    check, double = repcat._check_weight, repcat._b_doubled_coordinates
    monkeypatch.setattr(repcat, "_check_weight", lambda rs, w: checked.append(tuple(w)) or check(rs, w))
    monkeypatch.setattr(repcat, "_b_doubled_coordinates", lambda w: doubled.append(w) or double(w))
    catalog = catalog_irreps(rs, 64)
    assert len(checked) == len(set(checked))
    assert {e.highest_weight for e in catalog.entries} <= set(checked)
    assert doubled == ([] if rs.family == "T" else checked)


@pytest.mark.parametrize("bound", [20, 36, 64])
@pytest.mark.parametrize("rs", [A1, CIRCLE] + [RootSystem("B", m) for m in range(1, 7)],
                         ids=["A1", "T"] + [f"B{m}" for m in range(1, 7)])
def test_catalogs_match_dfs_oracle(rs, bound):
    """The catalog that hands each weight's dimension to `Irrep.build` is the
    one that builds every irrep from its weight alone."""
    assert catalog_irreps(rs, bound) == ref_catalog_irreps(rs, bound)


def test_vector_rep_frozen():
    assert dim_of(spin(7), (1, 0, 0)) == 7
    assert Irrep.build(spin(7), (1, 0, 0)).name == "L^1"


def test_spin_rep_types_frozen():
    # pairing with the positive coroot sum is m(m+1)/2 for the spin weight
    cases = {
        5: QUATERNIONIC,   # Spin(5),  pairing 3
        7: REAL,           # Spin(7),  pairing 6
        9: REAL,           # Spin(9),  pairing 10
        11: QUATERNIONIC,  # Spin(11), pairing 15
        13: QUATERNIONIC,  # Spin(13), pairing 21
    }
    for n, expected in cases.items():
        rs = spin(n)
        weight = tuple(0 for _ in range(rs.rank - 1)) + (1,)
        assert type_of(rs, weight) == expected, f"Spin({n})"


def test_exterior_powers_are_real():
    for n in (5, 7, 9, 11, 13):
        rs = spin(n)
        for i in range(1, rs.rank):
            weight = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
            assert type_of(rs, weight) == REAL


def test_spin11_half_spin_honest_values():
    rs = spin(11)
    weight = (0, 0, 0, 0, 1)
    irrep = Irrep.build(rs, weight)
    assert irrep.complex_dim == 32
    assert irrep.field_type == QUATERNIONIC
    assert irrep.real_dim == 64
    assert irrep.name == "D"


@pytest.mark.xfail(
    strict=True,
    reason="the pairing <lambda, 2 rho^vee> = 15 for the Spin(11) half-spin "
    "weight is odd, so the representation is quaternionic of real dimension "
    "64; the claimed real form of dimension 32 does not exist",
)
def test_spin11_half_spin_claimed_real_of_dim_32():
    irrep = Irrep.build(spin(11), (0, 0, 0, 0, 1))
    assert irrep.field_type == REAL
    assert irrep.real_dim == 32


def test_fs_indicator_values():
    assert fs_indicator(REAL) == 1
    assert fs_indicator(COMPLEX) == 0
    assert fs_indicator(QUATERNIONIC) == -1


# -- catalogs -------------------------------------------------------------------


def test_su2_catalog_bound_six():
    entries = catalog_irreps(A1, 6).entries
    assert [e.name for e in entries] == ["W1", "W3", "W2", "W5"]
    assert [e.real_dim for e in entries] == [1, 3, 4, 5]
    assert [e.name for e in nontrivial_of(catalog_irreps(A1, 6))] == ["W3", "W2", "W5"]


@pytest.mark.parametrize("n", range(2, 11))
def test_vector_rep_is_only_small_irrep(n):
    rs = RootSystem("B", n)
    nontrivial = nontrivial_of(catalog_irreps(rs, 2 * n + 1))
    assert [e.name for e in nontrivial] == ["L^1"]
    assert nontrivial[0].real_dim == 2 * n + 1


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_second_smallest_irrep_dimension(n):
    """Among nontrivial irreps of Spin(4n-1), the vector representation is
    smallest and the second exterior power, of dimension 8n^2 - 6n + 1, is
    next; at n = 3 the quaternionic half-spin rep lands above it at 64."""
    rs = spin(4 * n - 1)
    bound = 8 * n * n - 6 * n + 1
    nontrivial = nontrivial_of(catalog_irreps(rs, bound))
    assert nontrivial[0].name == "L^1"
    assert nontrivial[0].real_dim == 4 * n - 1
    assert nontrivial[1].name == "L^2"
    assert nontrivial[1].real_dim == bound
    assert len(nontrivial) == 2


def test_spin11_catalog_at_bound_36():
    nontrivial = nontrivial_of(catalog_irreps(spin(11), 36))
    assert [e.name for e in nontrivial] == ["L^1"]


@pytest.mark.xfail(
    strict=True,
    reason="a 32-dimensional real half-spin representation of Spin(11) would "
    "appear here, but the half-spin representation is quaternionic of real "
    "dimension 64 and exceeds the bound",
)
def test_spin11_catalog_claimed_to_contain_half_spin():
    nontrivial = nontrivial_of(catalog_irreps(spin(11), 36))
    assert [e.name for e in nontrivial] == ["L^1", "D"]


def test_spin11_wide_catalog():
    entries = nontrivial_of(catalog_irreps(spin(11), 64))
    assert [(e.name, e.real_dim) for e in entries] == [
        ("L^1", 11),
        ("L^2", 55),
        ("D", 64),
    ]


def test_circle_catalog(monkeypatch):
    assert [e.name for e in catalog_irreps(CIRCLE, 4).entries] == ["1", "rot1"]
    monkeypatch.setattr(repcat, "MAX_CIRCLE_WEIGHT", 3)
    entries = catalog_irreps(CIRCLE, 4).entries
    assert [e.name for e in entries] == ["1", "rot1", "rot2", "rot3"]
    assert [e.real_dim for e in entries] == [1, 2, 2, 2]


def test_catalog_rejects_zero_bound():
    with pytest.raises(CatalogError):
        catalog_irreps(A1, 0)


# -- products and the filter chain ------------------------------------------------


def test_product_type_composition():
    w2 = Irrep.build(A1, (1,))
    w3 = Irrep.build(A1, (2,))
    rot = Irrep.build(CIRCLE, (1,))
    spin5_half = Irrep.build(spin(5), (0, 1))
    assert ProductIrrep.build((w2, spin5_half)).field_type == REAL
    assert ProductIrrep.build((w2, w3)).field_type == QUATERNIONIC
    assert ProductIrrep.build((w2, rot)).field_type == COMPLEX
    pair = ProductIrrep.build((w2, spin5_half))
    assert pair.complex_dim == 8
    assert pair.real_dim == 8
    assert pair.name == "W2xD"


def test_obstruction_case_validation():
    with pytest.raises(ValueError):
        ObstructionCase(factors=(A1,), manifold_dim=5, chi=2, sigma=0)


def pairs(trace) -> tuple:
    """A trace's summands as (name, multiplicity) pairs."""
    return tuple((p.name, count) for p, count in trace.summands)


def quaternionic_line_case(chi: int = 2, sigma: int = 0) -> ObstructionCase:
    """SU(2) x Spin(7) on a 4-manifold; HP^1 = S^4 has chi = 2, sigma = 0."""
    return ObstructionCase(factors=(A1, spin(7)), manifold_dim=4, chi=chi, sigma=sigma)


def test_quaternionic_line_catalog_and_traces():
    case = quaternionic_line_case()
    entries = product_catalog(case)
    assert [(p.name, p.real_dim) for p in entries] == [
        ("W1x1", 1), ("W3x1", 3), ("W2x1", 4),
    ]
    result = obstruct_tangent_rep(case)
    assert result.verdict == "NO-VALID-V"
    assert len(result.traces) == 3
    by_pairs = {pairs(t): t for t in result.traces}
    assert by_pairs[(("W1x1", 4),)].rejected_by == "F1"
    assert by_pairs[(("W1x1", 1), ("W3x1", 1))].rejected_by == "F1"
    assert by_pairs[(("W2x1", 1),)].rejected_by == "F2"
    for trace in result.traces:
        assert trace.rejected_by in ("F1", "F2")
        assert trace.detail


def test_filters_can_be_disabled_independently():
    # chi = 2 = sigma satisfies the congruence: the almost-complex filter is
    # off, and the quaternionic plane survives
    case = quaternionic_line_case(chi=2, sigma=2)
    assert (case.euler_nonzero, case.almost_complex_forbidden) == (True, False)
    result = obstruct_tangent_rep(case)
    assert result.verdict == "VALID-V-EXISTS"
    survivors = [t for t in result.traces if t.rejected_by is None]
    assert [pairs(t) for t in survivors] == [(("W2x1", 1),)]
    # chi = 0 turns the euler filter off: the odd-dimensional summands survive
    case = quaternionic_line_case(chi=0, sigma=2)
    assert (case.euler_nonzero, case.almost_complex_forbidden) == (False, True)
    result = obstruct_tangent_rep(case)
    assert result.verdict == "VALID-V-EXISTS"
    by_pairs = {pairs(t): t.rejected_by for t in result.traces}
    assert by_pairs == {
        (("W1x1", 4),): None, (("W1x1", 1), ("W3x1", 1)): None, (("W2x1", 1),): "F2",
    }


@pytest.mark.parametrize(("chi", "sigma", "forbidden"), [
    # CP^2-bar fails the congruence, but reversed it is CP^2, which is complex
    (3, -1, False),
    (3, 1, False),
    # CP^2 # CP^2 fails it in both orientations
    (4, 2, True),
])
def test_almost_complex_filter_checks_both_orientations(chi, sigma, forbidden):
    case = quaternionic_line_case(chi=chi, sigma=sigma)
    assert case.euler_nonzero
    assert case.almost_complex_forbidden is forbidden
    result = obstruct_tangent_rep(case)
    plane = next(t for t in result.traces if pairs(t) == (("W2x1", 1),))
    assert plane.rejected_by == ("F2" if forbidden else None)
    assert result.verdict == ("NO-VALID-V" if forbidden else "VALID-V-EXISTS")


def test_almost_complex_filter_is_off_outside_dimensions_4m():
    # chi = 2, sigma = 0 fails the congruence in both orientations in 4m
    for dim in (2, 6, 10, 22):
        case = ObstructionCase(factors=(A1,), manifold_dim=dim, chi=2, sigma=0)
        assert (case.euler_nonzero, case.almost_complex_forbidden) == (True, False)


def test_twenty_dimensional_case():
    case = ObstructionCase(factors=(A1, spin(11)), manifold_dim=20, chi=6, sigma=0)
    entries = product_catalog(case)
    assert len(entries) == 16
    assert {p.name for p in entries} >= {"W1x1", "W1xL^1", "W2x1", "W3x1"}
    assert all(p.real_dim <= 20 for p in entries)
    assert not any("D" in p.name for p in entries)

    result = obstruct_tangent_rep(case)
    assert result.verdict == "NO-VALID-V"
    assert len(result.traces) == 174
    for trace in result.traces:
        assert trace.rejected_by in ("F1", "F2")
        assert sum(count * s.real_dim for s, count in trace.summands) == 20


def test_caps_count_products_and_multisets_exactly(monkeypatch):
    """The twenty-dimensional case builds 2 x 15 = 30 products and walks 174
    multisets: each cap lets exactly that many through and refuses one fewer."""
    case = ObstructionCase(factors=(A1, spin(11)), manifold_dim=20, chi=6, sigma=0)
    monkeypatch.setattr(repcat, "MAX_PRODUCTS", 30)
    monkeypatch.setattr(repcat, "MAX_MULTISETS", 174)
    assert len(obstruct_tangent_rep(case).traces) == 174
    monkeypatch.setattr(repcat, "MAX_MULTISETS", 173)
    with pytest.raises(ValueError, match="^manifold_dim: more than 173 multisets of dimension 20,"):
        obstruct_tangent_rep(case)
    monkeypatch.setattr(repcat, "MAX_PRODUCTS", 29)
    with pytest.raises(ValueError, match="^factors: the catalogs give 30 products, more than the 29 "):
        obstruct_tangent_rep(case)


def test_refusals_come_before_the_work_grows(monkeypatch):
    """A catalog stops at its first entry past the product cap, and a
    dimension that the trivial entry and the next one alone fill more than
    MAX_MULTISETS ways is refused before the count row is built."""
    calls = []
    data = repcat._weyl_data
    monkeypatch.setattr(repcat, "_weyl_data", lambda rs, w: calls.append(w) or data(rs, w))
    # SU(2) below real dimension 40,000 has 30,000 irreps
    lone = ObstructionCase(factors=(A1,), manifold_dim=40_000, chi=2, sigma=0)
    with pytest.raises(CatalogError, match=r"^factors: the SU\(2\) catalog alone gives more than 10000 "):
        obstruct_tangent_rep(lone)
    assert len(calls) == repcat.MAX_PRODUCTS + 1
    # a circle catalog is 1 and rot1: 500,001 multisets, and a 10^6-entry row
    circle = ObstructionCase(factors=(CIRCLE,), manifold_dim=10**6, chi=0, sigma=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^manifold_dim: more than 10000 multisets "):
            obstruct_tangent_rep(circle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_traces_cover_every_multiset_exactly_once():
    case = quaternionic_line_case()
    result = obstruct_tangent_rep(case)
    seen = {tuple(sorted(pairs(t))) for t in result.traces}
    assert len(seen) == len(result.traces)


# (chi, sigma) pairs that reach all four switch pairs in every dimension 4m,
# and both Euler switches in every other dimension
SWITCH_PAIRS = ((2, 0), (2, 2), (0, 2), (0, 0))


def _grid_cases(factors, top: int = 24) -> list:
    return [
        ObstructionCase(factors=factors, manifold_dim=dim, chi=chi, sigma=sigma)
        for dim in range(2, top + 1, 2)
        for chi, sigma in SWITCH_PAIRS
    ]


def test_grid_reaches_every_switch_pair():
    for dim in range(2, 41, 2):
        switches = {
            (case.euler_nonzero, case.almost_complex_forbidden)
            for case in _grid_cases((A1,), top=40) if case.manifold_dim == dim
        }
        if dim % 4:
            assert switches == {(True, False), (False, False)}, dim
        else:
            assert switches == set(itertools.product((True, False), repeat=2)), dim


def _walked_case(name: str) -> ObstructionCase:
    """The case `splitcheck obstruct NAME` hands to the walk."""
    with mock.patch.object(cli, "obstruct_tangent_rep", wraps=obstruct_tangent_rep) as walk:
        cli.run_case(builtin_case(name), command="obstruct")
    return walk.call_args.args[0]


@pytest.mark.parametrize("cases", [
    pytest.param([_walked_case(name) for name in ("hp1-presentation", "m20-eschenburg")], id="builtins"),
    # to dimension 40: about 18,000 (A1) and 21,000 (A1-B5) multisets per flag pair
    pytest.param(_grid_cases((A1,), top=40), id="A1"),
    pytest.param(_grid_cases((A1, spin(7))), id="A1-B3"),
    pytest.param(_grid_cases((A1, spin(11)), top=40), id="A1-B5"),
    pytest.param(_grid_cases((A1, CIRCLE)), id="A1-T"),
    pytest.param(_grid_cases((spin(5), CIRCLE)), id="B2-T"),
])
def test_multiplicity_walk_matches_flat_oracle(cases):
    """Each trace is its oracle multiset run-length encoded: positive counts,
    catalog order, the same order of multisets, the same filter and detail."""
    for case in cases:
        result = obstruct_tangent_rep(case)
        verdict, expected = ref_obstruct(case)
        assert result.verdict == verdict
        assert len(result.traces) == len(expected)
        for trace, (flat, rejected_by, detail) in zip(result.traces, expected):
            runs = tuple((p, len(list(run))) for p, run in itertools.groupby(flat))
            assert trace.summands == runs, case
            assert (trace.rejected_by, trace.detail) == (rejected_by, detail), case
