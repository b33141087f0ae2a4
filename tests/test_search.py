"""Bound derivation, exhaustive enumeration, canonical solutions.

The oracle-equivalence block replays each search's accept/reject decision
against the hand-expanded equation systems in helpers.py: full boxes for the
two small geometries, deterministic samples for the larger two.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (
    accepts,
    cp2_oracle,
    ring_for,
    rp_oracle,
    search_spec_for,
    sp2_oracle,
    su3_oracle,
    targets_for,
)
from splitcheck.charclass import TargetClasses
from splitcheck.ring import GradedClass
from splitcheck.search import (
    BoundError,
    ExplicitBound,
    SearchSpec,
    SumOfSquaresBound,
    _canonical_stages,
    canonicalize_solution,
    derive_bounds,
    enumerate_splittings,
    spec_digest,
)


def cls(*pairs) -> GradedClass:
    return GradedClass.from_terms(pairs)


# -- bound derivation ------------------------------------------------------------


def test_connect_sum_bounds():
    bounds = derive_bounds(search_spec_for("cp2-connect-sum"))
    assert bounds.certified
    assert bounds.per_variable == (2, 2)
    assert bounds.diagonal == (1, 1)
    assert bounds.constant == 6


def test_su3_bounds():
    bounds = derive_bounds(search_spec_for("su3-t2"))
    assert bounds.per_variable == (2, 2)
    assert bounds.constant == 8


def test_sp2_bounds():
    bounds = derive_bounds(search_spec_for("sp2-t2"))
    # coords [z, u]: u^2 = 2z^2 doubles the u coefficient in the z^2 equation
    assert bounds.diagonal == (1, 2)
    assert bounds.constant == 12
    assert bounds.per_variable == (3, 2)


def test_family_bounds_and_stage_cap():
    bounds = derive_bounds(search_spec_for("r-p", 2))
    assert bounds.diagonal == (8, 1, 1)
    assert bounds.constant == 38
    assert bounds.per_variable == (2, 6, 6)
    assert bounds.stage_axis == 0
    assert bounds.stage_sum_bound == 4


@pytest.mark.parametrize("q", [3, 4, 5])
def test_family_stage_cap_is_constant_in_q(q):
    bounds = derive_bounds(search_spec_for("r-p", q))
    # (6 + 8q^2) / (2q^2) = 4 + 3/q^2 floors to 4 for every q >= 2
    assert bounds.stage_sum_bound == 4


def test_multiplier_count_must_match_basis():
    spec = search_spec_for("su3-t2")
    bad = replace(spec, bound=SumOfSquaresBound((Fraction(1),)))
    with pytest.raises(BoundError):
        derive_bounds(bad)


def test_cross_terms_rejected():
    spec = search_spec_for("su3-t2")
    # weighting the x*y equation brings the 2ab - b^2 cross terms in
    bad = replace(spec, bound=SumOfSquaresBound((Fraction(1), Fraction(0))))
    with pytest.raises(BoundError, match="cross"):
        derive_bounds(bad)


def test_indefinite_form_rejected():
    ring = ring_for("s2xs2")
    targets = targets_for("s2xs2")
    spec = SearchSpec(
        ring=ring, targets=targets, m=2,
        bound=SumOfSquaresBound((Fraction(1),)),
    )
    with pytest.raises(BoundError):
        derive_bounds(spec)


def test_explicit_bound_validation():
    spec = search_spec_for("s2xs2")
    with pytest.raises(BoundError):
        derive_bounds(replace(spec, bound=ExplicitBound(per_variable=(3,), acknowledged=True)))
    with pytest.raises(BoundError):
        derive_bounds(replace(spec, bound=ExplicitBound(per_variable=(3, -1), acknowledged=True)))
    # an unacknowledged box still enumerates, but cannot certify
    unack = replace(spec, bound=ExplicitBound(per_variable=(3, 3), acknowledged=False))
    assert not derive_bounds(unack).certified
    cert = enumerate_splittings(unack)
    assert not cert.exhaustive
    assert cert.solutions == (((2, 0), (0, 2)),)
    assert any("not acknowledged" in note for note in cert.notes)


def test_zero_target_means_zero_box():
    ring = ring_for("cp2-connect-sum")
    targets = TargetClasses(
        p1_target=GradedClass.zero(),
        euler_target=GradedClass.zero(),
        euler_sign_flexible=True,
        real_rank=4,
    )
    spec = SearchSpec(ring=ring, targets=targets, m=2, bound=SumOfSquaresBound((Fraction(1),)))
    assert derive_bounds(spec).per_variable == (0, 0)


# -- canonicalization --------------------------------------------------------------


def test_canonical_representative_is_orbit_maximum():
    assert canonicalize_solution([(0, -2), (-1, 0)]) == ((1, 0), (0, 2))
    assert canonicalize_solution([(0, 2), (1, 0)]) == ((1, 0), (0, 2))


def test_canonicalization_is_idempotent_and_orbit_invariant():
    rng = random.Random(31337)
    for _ in range(200):
        m = rng.randint(1, 3)
        r = rng.randint(1, 3)
        sol = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(m)]
        canon = canonicalize_solution(sol)
        assert canonicalize_solution(canon) == canon
        perm = list(range(m))
        rng.shuffle(perm)
        # one sign per bundle: conjugating a line bundle negates its whole class
        signs = [rng.choice((-1, 1)) for _ in range(m)]
        moved = [tuple(signs[i] * x for x in sol[perm[i]]) for i in range(m)]
        assert canonicalize_solution(moved) == canon


def test_canonicalization_without_flips():
    sol = [(0, -2), (1, 0)]
    assert canonicalize_solution(sol, allow_sign_flips=False) == ((1, 0), (0, -2))


def test_canonical_stages_frozen():
    assert _canonical_stages(3, 4) == [
        (2, 0, 0), (1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0),
    ]


# -- enumeration certificates -------------------------------------------------------


def test_connect_sum_certificate():
    cert = enumerate_splittings(search_spec_for("cp2-connect-sum"))
    assert cert.bound_type == "sum_of_squares"
    assert cert.per_variable_bounds == (2, 2)
    assert cert.enumerated == 5**4
    assert cert.visited == 96
    assert cert.solutions == ()
    assert cert.exhaustive
    assert cert.visited_fraction == Fraction(96, 625)


def test_su3_certificate():
    cert = enumerate_splittings(search_spec_for("su3-t2"))
    assert cert.enumerated == 5**6
    assert cert.visited == 1020
    assert cert.solutions == ()
    assert cert.exhaustive


def test_sp2_certificate():
    cert = enumerate_splittings(search_spec_for("sp2-t2"))
    assert cert.enumerated == 35**4
    assert cert.visited == 6720
    assert cert.solutions == ()
    assert cert.exhaustive


def test_family_staged_certificate():
    cert = enumerate_splittings(search_spec_for("r-p", 2))
    assert cert.stage_axis == 0
    assert cert.stage_sum_bound == 4
    assert [s.stage for s in cert.stages] == _canonical_stages(3, 4)
    assert [s.residual_budget for s in cert.stages] == [6, 14, 22, 30, 38]
    skipped = [s for s in cert.stages if s.skipped_reason]
    assert [s.stage for s in skipped] == [(0, 0, 0)]
    assert "euler" in skipped[0].skipped_reason
    assert cert.visited == 26112
    assert cert.solutions == ()
    assert cert.exhaustive


def test_product_of_spheres_finds_the_splitting():
    cert = enumerate_splittings(search_spec_for("s2xs2"))
    assert cert.bound_type == "explicit"
    assert cert.enumerated == 7**4
    assert cert.visited == 7**4
    assert cert.solutions == (((2, 0), (0, 2)),)
    assert cert.exhaustive


@pytest.mark.parametrize(("n", "visited"), [(2, 0), (3, 6), (4, 48)])
def test_projective_spaces_find_nothing(n, visited):
    cert = enumerate_splittings(search_spec_for("cpn-split", n))
    assert cert.visited == visited
    assert cert.solutions == ()
    assert cert.exhaustive


def test_staged_search_requires_sign_freedom():
    spec = search_spec_for("r-p", 2)
    rigid = replace(spec, targets=replace(spec.targets, euler_sign_flexible=False))
    with pytest.raises(BoundError):
        enumerate_splittings(rigid)


def test_digest_distinguishes_specs():
    a = search_spec_for("cp2-connect-sum")
    b = search_spec_for("cp2-connect-sum")
    assert spec_digest(a) == spec_digest(b)
    assert spec_digest(a) == enumerate_splittings(a).spec_digest
    c = replace(a, budget=123456)
    assert spec_digest(c) != spec_digest(a)


# -- determinism and budgets ---------------------------------------------------------


def test_budget_exhaustion_on_shell():
    for name, budget in [("su3-t2", 100), ("sp2-t2", 500)]:
        spec = replace(search_spec_for(name), budget=budget)
        cert = enumerate_splittings(spec)
        assert not cert.exhaustive, name
        assert cert.visited <= spec.budget + 1, name
        assert cert.visited_fraction < 1, name
        assert any("budget" in note for note in cert.notes), name


def test_budget_exhaustion_on_staged():
    spec = replace(search_spec_for("r-p", 2), budget=1000)
    cert = enumerate_splittings(spec)
    assert not cert.exhaustive
    assert cert.visited <= spec.budget + 1
    assert cert.visited == sum(s.visited for s in cert.stages)
    assert any("budget" in note for note in cert.notes)
    reasons = [s.skipped_reason for s in cert.stages]
    cut = reasons.index("budget exhausted")
    assert set(reasons[cut:]) == {"budget exhausted"}
    assert all(s.visited == 0 for s in cert.stages[cut + 1:])
    assert [s.stage for s in cert.stages] == _canonical_stages(spec.m, cert.stage_sum_bound)


def test_budget_exhaustion_on_explicit_box():
    spec = replace(search_spec_for("s2xs2"), budget=100)
    cert = enumerate_splittings(spec)
    assert not cert.exhaustive
    assert cert.visited == 0
    assert cert.enumerated == 7**4


# -- oracle equivalence ---------------------------------------------------------------


def test_connect_sum_oracle_equivalence_full_box():
    ring = ring_for("cp2-connect-sum")
    targets = targets_for("cp2-connect-sum")
    hits = 0
    for vecs in itertools.product(itertools.product(range(-2, 3), repeat=2), repeat=2):
        expected = cp2_oracle(vecs)
        assert accepts(ring, targets, vecs) == expected
        hits += expected
    assert hits == 0


def test_su3_oracle_equivalence_full_box():
    ring = ring_for("su3-t2")
    targets = targets_for("su3-t2")
    hits = 0
    for vecs in itertools.product(itertools.product(range(-2, 3), repeat=2), repeat=3):
        expected = su3_oracle(vecs)
        assert accepts(ring, targets, vecs) == expected
        hits += expected
    assert hits == 0


@pytest.mark.parametrize("q", [2, 3])
def test_family_oracle_equivalence_sampled(q):
    ring = ring_for("r-p", q)
    targets = targets_for("r-p", q)
    rng = random.Random(800 + q)
    agreements = 0
    for _ in range(1500):
        vecs = tuple(
            (rng.randint(-2, 2), rng.randint(-6, 6), rng.randint(-6, 6))
            for _ in range(3)
        )
        assert accepts(ring, targets, vecs) == rp_oracle(q, vecs)
        agreements += 1
    assert agreements == 1500


def test_sp2_oracle_equivalence_sampled():
    ring = ring_for("sp2-t2")
    targets = targets_for("sp2-t2")
    rng = random.Random(555)
    for _ in range(1500):
        vecs = tuple((rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4))
        assert accepts(ring, targets, vecs) == sp2_oracle(vecs)
    # spot checks on tuples that satisfy p1 but not the euler equation
    assert not sp2_oracle(((1, 1), (1, -1), (1, 1), (1, -1)))
    assert not accepts(ring, targets, ((1, 1), (1, -1), (1, 1), (1, -1)))


def test_oracle_positive_spot_checks():
    # the product-of-spheres splitting really does satisfy its system
    ring = ring_for("s2xs2")
    targets = targets_for("s2xs2")
    assert accepts(ring, targets, ((2, 0), (0, 2)))
    assert accepts(ring, targets, ((0, 2), (2, 0)))
    assert not accepts(ring, targets, ((2, 0), (0, 1)))
