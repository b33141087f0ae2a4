"""End-to-end acceptance checks, one test per numbered criterion.

Each test exercises a complete claim: certified bounds, exhaustive
enumeration with zero (or the known) solutions, the genus identities on
randomized inputs, the catalog dimensions, the filter verdicts, and the
serialization guarantees, each within its stated wall-clock limit.  The
conftest hook prints one ACCEPTANCE <n> PASS/FAIL line per criterion at the
end of the run.

Criterion 8 carries two expected-failure sub-claims about the half-spin
representation of Spin(11); the xfail reasons and the honest values are in
test_repcat.py as well.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from helpers import (
    RING_IDS,
    RING_REFS,
    generator_class,
    multiset_count,
    random_class,
    random_degree2,
    ring_for,
    search_spec_for,
    targets_for,
    telescoped_congruence,
)
from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.cli import run_case
from splitcheck.genus import (
    ChernRootData,
    chi_y,
    chi_y_scaled,
    duality_check,
    euler_from_chi,
    hirzebruch_congruence,
    signature_direct,
    signature_from_chi,
    top_chern_integral,
)
from splitcheck.repcat import (
    Irrep,
    ObstructionCase,
    RootSystem,
    catalog_irreps,
    obstruct_tangent_rep,
    product_catalog,
)
from splitcheck.report import canonical_bytes
from splitcheck.ring import (
    GradedClass,
    check_confluence,
    integrate,
    parse_presentation,
    ring_add,
    ring_mul,
    ring_scale,
    ring_sub,
)
from splitcheck.search import enumerate_splittings

from math import comb


def timed():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def test_criterion_1_connect_sum_search():
    elapsed = timed()
    cert = enumerate_splittings(search_spec_for("cp2-connect-sum"))
    assert cert.per_variable_bounds == (2, 2)
    assert cert.constant == 6
    assert cert.visited == 36
    assert cert.exhaustive
    assert cert.solution_count == 0
    assert elapsed() < 1.0


def test_criterion_2_su3_search():
    elapsed = timed()
    cert = enumerate_splittings(search_spec_for("su3-t2"))
    assert cert.per_variable_bounds == (2, 2)
    assert cert.constant == 8
    assert cert.exhaustive
    assert cert.solution_count == 0
    assert elapsed() < 10.0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 10])
def test_criterion_3_family_staged_search(q):
    elapsed = timed()
    cert = enumerate_splittings(search_spec_for("r-p", q))
    # the weighted coordinate's share of the form stays within 4 for every q
    assert int(cert.constant / cert.diagonal[0]) == 4
    assert cert.exhaustive
    assert cert.solution_count == 0
    assert elapsed() < 60.0


def test_criterion_4_sp2_search():
    elapsed = timed()
    ring = ring_for("sp2-t2")
    # the ring is Z[u, z] / (u^2 - 2z^2, z^4) and the targets are the stated
    # classes: p1 = 12z^2 and e = +-8*u*z^3 across four line bundles
    assert ring.reduce_monomial((2, 0)) == GradedClass.from_terms([((0, 2), 2)])
    assert ring.reduce_monomial((0, 4)).is_zero()
    targets = targets_for("sp2-t2")
    assert targets.p1_target == GradedClass.from_terms([((0, 2), 12)])
    assert targets.euler_target == GradedClass.from_terms([((1, 3), 8)])
    assert targets.sign_flexible
    spec = search_spec_for("sp2-t2")
    assert spec.m == 4
    cert = enumerate_splittings(spec)
    assert cert.exhaustive
    assert cert.solution_count == 0
    assert elapsed() < 60.0


def test_criterion_5_positive_controls():
    cert = enumerate_splittings(search_spec_for("s2xs2"))
    assert cert.exhaustive
    assert cert.solutions == (((2, 0), (0, 2)),)

    for n in (2, 3, 4):
        cert = enumerate_splittings(search_spec_for("cpn-split", n))
        assert cert.exhaustive
        assert cert.solution_count == 0


def test_criterion_6_genus_suite():
    elapsed = timed()
    # alternating coefficients on complex projective spaces
    for n in range(1, 5):
        ring = parse_presentation(builtin_case("genus-cpn", n)["ring"])
        data = ChernRootData(ring=ring, roots=(generator_class(ring, 0),) * (n + 1))
        assert chi_y(data).coefficients == tuple(Fraction((-1) ** p) for p in range(n + 1))

    for (name, par), ident in zip(RING_REFS, RING_IDS):
        ring = ring_for(name, par)
        n = ring.top_degree // 2
        rng = random.Random(sum(map(ord, ident)))
        for i in range(500):
            roots = tuple(random_degree2(rng, ring, span=2) for _ in range(n))
            extra = i % 3
            data = ChernRootData(ring=ring, roots=roots + (GradedClass.zero(),) * extra)
            chi = chi_y(data)
            honest = ChernRootData(ring=ring, roots=roots)
            assert euler_from_chi(chi) == top_chern_integral(honest), ident
            assert duality_check(chi, n), ident
            assert signature_from_chi(chi) == signature_direct(data), ident
            t = (-1, 2, 3)[i % 3]
            assert chi_y_scaled(data, t).coefficients == chi.coefficients, ident
    assert elapsed() < 30.0


def test_criterion_7_congruence_combinatorics():
    rng = random.Random(0xC0FFEE)
    checked = 0
    while checked < 10_000:
        n = 2 * rng.randint(1, 6)
        half = [rng.randint(-25, 25) for _ in range(n // 2 + 1)]
        coeffs = [0] * (n + 1)
        for p in range(n // 2 + 1):
            coeffs[p] = half[p]
            coeffs[n - p] = (-1) ** n * half[p]
        report = telescoped_congruence(coeffs)
        assert report.identity_holds
        assert report.congruent
        chi_minus = sum(c * (-1) ** p for p, c in enumerate(coeffs))
        chi_plus = sum(coeffs)
        assert (chi_minus - (-1) ** (n // 2) * chi_plus) % 4 == 0
        checked += 1
    assert checked >= 10_000
    # the two geometric instances whose congruence fails
    assert not hirzebruch_congruence(4, 2, 1)
    assert not hirzebruch_congruence(6, 0, 5)


def test_criterion_8_representation_dimensions():
    elapsed = timed()
    for m in range(1, 11):
        rs = RootSystem("B", m)
        for i in range(1, m):
            weight = tuple(1 if k == i - 1 else 0 for k in range(m))
            assert Irrep.build(rs, weight).complex_dim == comb(2 * m + 1, i)
        spin_weight = tuple(0 for _ in range(m - 1)) + (1,)
        assert Irrep.build(rs, spin_weight).complex_dim == 2**m

    # smallest and second-smallest nontrivial irreps of Spin(4n - 1)
    for n in (3, 5, 7, 9):
        rank = 2 * n - 1
        rs = RootSystem("B", rank)
        bound = 8 * n * n - 6 * n + 1
        nontrivial = [e for e in catalog_irreps(rs, bound).entries if any(e.highest_weight)]
        assert nontrivial[0].name == "L^1"
        assert nontrivial[0].real_dim == 4 * n - 1
        assert nontrivial[1].real_dim == bound  # 171 at n = 5

    assert Irrep.build(RootSystem("B", 2), (0, 1)).field_type == "quaternionic"  # Spin(5)
    assert Irrep.build(RootSystem("B", 5), (0, 0, 0, 0, 1)).field_type == "quaternionic"  # Spin(11)
    assert elapsed() < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="the Spin(11) half-spin weight pairs oddly with the positive "
    "coroot sum (pairing 15), so the representation is quaternionic with "
    "real dimension 64; no real form of dimension 32 exists",
)
def test_criterion_8_claim_half_spin_is_real_32():
    irrep = Irrep.build(RootSystem("B", 5), (0, 0, 0, 0, 1))
    assert irrep.field_type == "real"
    assert irrep.real_dim == 32


@pytest.mark.xfail(
    strict=True,
    reason="a dimension-36 catalog for Spin(11) would list the half-spin "
    "representation only if it had a 32-dimensional real form; it is "
    "quaternionic of real dimension 64",
)
def test_criterion_8_claim_catalog_contains_half_spin():
    names = [e.name for e in catalog_irreps(RootSystem("B", 5), 36).entries if any(e.highest_weight)]
    assert names == ["L^1", "D"]


@pytest.mark.parametrize(("case_name", "trace_count"), [
    ("hp1-presentation", 3),
    ("m20-eschenburg", 174),
])
def test_criterion_9_obstruction_verdicts(case_name, trace_count):
    doc = builtin_case(case_name)
    raw = doc["obstruction"]
    congruence = doc["genus"]["congruence"]
    case = ObstructionCase(
        factors=tuple(RootSystem(f["family"], f["rank"]) for f in raw["factors"]),
        manifold_dim=raw["manifold_dim"],
        chi=congruence["chi"],
        sigma=congruence["sigma"],
    )
    result = obstruct_tangent_rep(case)
    assert result.verdict == "NO-VALID-V"
    assert len(result.traces) == trace_count

    # completeness: one trace per multiset of catalog entries of total dim
    entries = product_catalog(case)
    assert len(result.traces) == multiset_count(
        [p.real_dim for p in entries], case.manifold_dim
    )
    seen = set()
    for trace in result.traces:
        assert sum(count * s.real_dim for s, count in trace.summands) == case.manifold_dim
        key = tuple(sorted((s.name, s.real_dim, count) for s, count in trace.summands))
        assert key not in seen
        seen.add(key)
        # exactly one filter is cited, and only when it actually applies
        assert trace.rejected_by in ("F1", "F2")
        odd = [s for s, _ in trace.summands if s.real_dim % 2]
        if trace.rejected_by == "F1":
            assert odd
        else:
            assert not odd
            assert all(s.field_type in ("complex", "quaternionic") for s, _ in trace.summands)


def test_criterion_10_infrastructure():
    # exhaustive confluence for every built-in presentation
    for name in list_builtin_cases():
        doc = builtin_case(name)
        if "ring" in doc:
            assert check_confluence(parse_presentation(doc["ring"])) is None, name

    # ring axioms on 1000 random triples per built-in ring
    for (name, par), ident in zip(RING_REFS, RING_IDS):
        ring = ring_for(name, par)
        rng = random.Random(len(ident) * 7919)
        for _ in range(1000):
            a = random_class(rng, ring, span=6)
            b = random_class(rng, ring, span=6)
            c = random_class(rng, ring, span=6)
            ab = ring_mul(ring, a, b)
            assert ab == ring_mul(ring, b, a), ident
            assert ring_mul(ring, ab, c) == ring_mul(ring, a, ring_mul(ring, b, c)), ident
            left = ring_mul(ring, ring_add(a, b), c)
            assert left == ring_add(ring_mul(ring, a, c), ring_mul(ring, b, c)), ident

    # the two presentations of the circle-bundle family agree under the
    # substitution v1 = u1 + u2, v2 = u2, v3 = q*u1 + u3
    for q in (2, 5):
        ring = ring_for("r-p-u-variant", q)
        u1, u2, u3 = (generator_class(ring, i) for i in range(3))
        v1 = ring_add(u1, u2)
        v2 = u2
        v3 = ring_add(ring_scale(q, u1), u3)
        assert ring_mul(ring, v1, v2).is_zero()
        assert ring_sub(ring_mul(ring, v2, v2), ring_mul(ring, v1, v1)).is_zero()
        axis_sq = ring_scale(2 * q * q, ring_mul(ring, v1, v1))
        assert ring_sub(ring_mul(ring, v3, v3), axis_sq).is_zero()
        top = ring_mul(ring, ring_mul(ring, v1, v1), v3)
        assert integrate(ring, top) == -1  # opposite orientation, by design

    # byte-stable reports across runs
    for name, par in [("cp2-connect-sum", None), ("r-p", 2)]:
        doc = builtin_case(name, par)
        blobs = {canonical_bytes(run_case(doc)) for _ in range(2)}
        assert len(blobs) == 1, name
