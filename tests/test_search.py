"""Bound derivation, exhaustive enumeration, canonical solutions.

The oracle-equivalence block replays each search's accept/reject decision
against the hand-expanded equation systems in helpers.py: full boxes for the
two small geometries, deterministic samples for the larger two.  The
differential block compares whole solution sets against `ref_enumerate`,
the ordered-tuple walk with no ball, join or symmetry reduction, and
against `ref_rigid_enumerate`, that walk under a rigid Euler rule.  The
table block checks the compiled ring tables against `ring_mul` and
`euler_class`, and the acceptance block checks that every solution was
accepted by `TargetMatcher.match`.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import time
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    accepts,
    assert_golden,
    counted_kernel_calls,
    cp2_oracle,
    golden_id,
    golden_names,
    golden_run,
    planted_rp2,
    ref_canonicalize_solution,
    ref_enumerate,
    ref_probe_count,
    ref_rigid_enumerate,
    ref_rows,
    ref_table_mul,
    replaced,
    ring_for,
    rp_oracle,
    search_spec_for,
    sp2_oracle,
    su3_oracle,
    targets_for,
)
from splitcheck import search
from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.charclass import (
    LineBundleSum,
    TargetClasses,
    TargetMatcher,
    euler_class,
    first_pontryagin,
    total_chern,
)
from splitcheck.cli import run_case
from splitcheck.report import CaseError
from splitcheck.ring import GradedClass, RingTables, basis, normal_form, ring_mul
from splitcheck.search import (
    DEFAULT_BUDGET,
    BoundError,
    ExplicitBound,
    SearchSpec,
    SumOfSquaresBound,
    canonicalize_solution,
    count_probes,
    derive_bounds,
    enumerate_splittings,
    pack,
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
    assert bounds.constant // bounds.diagonal[0] == 4


@pytest.mark.parametrize("q", [3, 4, 5])
def test_family_stage_cap_is_constant_in_q(q):
    bounds = derive_bounds(search_spec_for("r-p", q))
    # (6 + 8q^2) / (2q^2) = 4 + 3/q^2 floors to 4 for every q >= 2
    assert bounds.constant // bounds.diagonal[0] == 4


def test_multiplier_count_must_match_basis():
    spec = search_spec_for("su3-t2")
    bad = replaced(spec, bound=SumOfSquaresBound((1,)))
    with pytest.raises(BoundError):
        derive_bounds(bad)


def test_cross_terms_rejected():
    spec = search_spec_for("su3-t2")
    # weighting the x*y equation brings the 2ab - b^2 cross terms in
    bad = replaced(spec, bound=SumOfSquaresBound((1, 0)))
    with pytest.raises(BoundError, match="cross"):
        derive_bounds(bad)


def test_indefinite_form_rejected():
    ring = ring_for("s2xs2")
    targets = targets_for("s2xs2")
    spec = SearchSpec(ring=ring, targets=targets, bound=SumOfSquaresBound((1,)))
    with pytest.raises(BoundError):
        derive_bounds(spec)


def test_explicit_bound_validation():
    spec = search_spec_for("s2xs2")
    with pytest.raises(BoundError):
        derive_bounds(replaced(spec, bound=ExplicitBound(per_variable=(3,), acknowledged=True)))
    with pytest.raises(BoundError):
        derive_bounds(replaced(spec, bound=ExplicitBound(per_variable=(3, -1), acknowledged=True)))
    # an unacknowledged box still enumerates, but cannot certify
    unack = replaced(spec, bound=ExplicitBound(per_variable=(3, 3), acknowledged=False))
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
    )
    spec = SearchSpec(ring=ring, targets=targets, bound=SumOfSquaresBound((1,)))
    assert derive_bounds(spec).per_variable == (0, 0)


SUM_OF_SQUARES_CASES = [
    ("cp2-connect-sum", None),
    ("su3-t2", None),
    ("sp2-t2", None),
    ("r-p", 2),
    ("r-p", 3),
    ("cpn-split", 2),
    ("cpn-split", 3),
    ("cpn-split", 4),
]


def test_scale_cases_cover_every_sum_of_squares_builtin():
    names = {
        name for name in list_builtin_cases()
        if builtin_case(name).get("search", {}).get("bound", {}).get("type") == "sum_of_squares"
    }
    assert names == {name for name, _ in SUM_OF_SQUARES_CASES}


@pytest.mark.parametrize(("name", "par"), SUM_OF_SQUARES_CASES)
def test_scaled_multipliers_give_the_same_search(name, par):
    """Multipliers k * lam scale the diagonal and the constant by k and
    change nothing else, so integer multipliers lose no bound a rational
    vector could give: clear its denominators."""
    spec = search_spec_for(name, par)
    base = enumerate_splittings(spec)
    for k in (2, 3, 7):
        scaled = tuple(k * x for x in spec.bound.multipliers)
        cert = enumerate_splittings(replaced(spec, bound=SumOfSquaresBound(scaled)))
        assert cert.diagonal == tuple(k * d for d in base.diagonal), k
        assert cert.constant == k * base.constant, k
        for attr in ("per_variable_bounds", "visited", "solutions", "exhaustive"):
            assert getattr(cert, attr) == getattr(base, attr), (k, attr)


# -- canonicalization --------------------------------------------------------------


def test_canonical_representative_is_orbit_maximum():
    assert canonicalize_solution([(0, -2), (-1, 0)]) == ((1, 0), (0, 2))
    assert canonicalize_solution([(0, 2), (1, 0)]) == ((1, 0), (0, 2))


def test_canonicalization_is_idempotent_and_orbit_invariant():
    rng = random.Random(31337)
    for trial in range(200):
        m = rng.randint(1, 5)
        r = rng.randint(1, 3)
        sol = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(m)]
        canon = canonicalize_solution(sol)
        assert canon == ref_canonicalize_solution(sol), trial
        assert canonicalize_solution(sol, False) == ref_canonicalize_solution(sol, False), trial
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


def test_eight_line_bundles_canonicalize_in_linear_time():
    # eight copies of +-h on the truncated h^9 = 0: one solution, with 8! * 2^8
    # images under permutations and flips, which canonicalizing must not try
    doc = {
        "name": "eight-lines",
        "ring": {
            "generators": ["h"],
            "relations": [{"lhs": [9], "rhs": []}],
            "top_degree": 16,
        },
        "targets": {
            "p1": [[8, [2]]],
            "euler": [[1, [8]]],
        },
        "search": {"bound": {"type": "sum_of_squares", "multipliers": [1]}},
    }
    started = time.perf_counter()
    search = run_case(doc)["sections"]["search"]
    assert time.perf_counter() - started < 5
    assert search["solutions"] == [[[1]] * 8]
    assert search["visited"] == 19
    assert search["exhaustive"]


# -- enumeration certificates -------------------------------------------------------


def test_connect_sum_certificate():
    cert = enumerate_splittings(search_spec_for("cp2-connect-sum"))
    assert cert.bound_type == "sum_of_squares"
    assert cert.per_variable_bounds == (2, 2)
    # 25 box vectors walked, 11 sign-canonical ball vectors probed
    assert cert.visited == 36
    assert cert.solutions == ()
    assert cert.exhaustive


def test_su3_certificate():
    cert = enumerate_splittings(search_spec_for("su3-t2"))
    assert cert.per_variable_bounds == (2, 2)
    # 25 box vectors walked, then 50 probes of the join
    assert cert.visited == 75
    assert cert.solutions == ()
    assert cert.exhaustive


def test_sp2_certificate():
    cert = enumerate_splittings(search_spec_for("sp2-t2"))
    assert cert.per_variable_bounds == (3, 2)
    # 35 box vectors walked, then 133 probes of the join
    assert cert.visited == 168
    assert cert.solutions == ()
    assert cert.exhaustive


def test_family_staged_certificate():
    cert = enumerate_splittings(search_spec_for("r-p", 2))
    assert cert.visited == 5690
    assert cert.solutions == ()
    assert cert.exhaustive


def test_product_of_spheres_finds_the_splitting():
    cert = enumerate_splittings(search_spec_for("s2xs2"))
    assert cert.bound_type == "explicit"
    assert cert.per_variable_bounds == (3, 3)
    # 49 box vectors walked, 25 sign-canonical ones probed
    assert cert.visited == 74
    assert cert.solutions == (((2, 0), (0, 2)),)
    assert cert.exhaustive


@pytest.mark.parametrize(("n", "visited"), [(2, 6), (3, 13), (4, 21)])
def test_projective_spaces_find_nothing(n, visited):
    cert = enumerate_splittings(search_spec_for("cpn-split", n))
    assert cert.visited == visited
    assert cert.solutions == ()
    assert cert.exhaustive


# -- determinism and budgets ---------------------------------------------------------


def test_budget_exhaustion_on_shell():
    for name, budget in [("su3-t2", 50), ("sp2-t2", 100)]:
        spec = replaced(search_spec_for(name), budget=budget)
        cert = enumerate_splittings(spec)
        assert not cert.exhaustive, name
        assert cert.visited == spec.budget + 1, name
        assert any("budget" in note for note in cert.notes), name


def test_budget_exhaustion_on_staged():
    spec = replaced(search_spec_for("r-p", 2), budget=1000)
    cert = enumerate_splittings(spec)
    assert not cert.exhaustive
    assert cert.visited <= spec.budget + 1
    assert any("budget" in note for note in cert.notes)
    # r-p q=3 walks a box of 5 * 17 * 17 = 1,445 cells, then 17,766 probes
    base = search_spec_for("r-p", 3)
    assert enumerate_splittings(base).visited == 1445 + 17766
    for budget in (200, 405 + 9000):
        spec = replaced(base, budget=budget)
        cert = enumerate_splittings(spec)
        assert not cert.exhaustive, budget
        assert cert.visited == budget + 1, budget
        assert any("budget" in note for note in cert.notes), budget
        assert enumerate_splittings(spec).as_jsonable() == cert.as_jsonable(), budget


# Each budget-cut golden file holds the certificate of a walk that made
# every probe, at a budget that ran out inside a range of probes (r-p 1600,
# sp2 45, planted 700) or inside a subtree that the norm-sum cut skips (r-p
# 16000, sp2 96); the search, which refuses such a budget before it walks,
# keeps those certificates
BUDGET_CUT_GOLDENS = golden_names("verify", "search", budgeted=True)


@pytest.mark.parametrize(("name", "par", "budget"), [("r-p", 3, None), ("su3-t2", None, None), ("r-p", 3, 5000)])
def test_search_leaves_no_reference_cycle(name, par, budget):
    """The recursive closures let go of the search state when the search
    returns, a budget stop included, so none of it waits for the cyclic
    collector."""
    spec = search_spec_for(name, par, budget=budget)
    gc.collect()
    gc.disable()
    try:
        enumerate_splittings(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", BUDGET_CUT_GOLDENS, ids=golden_id)
def test_budget_inside_a_cut_keeps_the_certificate(name):
    command, _, _, budget = golden_run(name)
    report = json.loads(assert_golden(name))
    cert = report if command == "search" else report["sections"]["search"]
    assert cert["visited"] == budget + 1


@pytest.mark.parametrize("case", ["planted", ("sp2-t2", None), ("s2xs2", None)])
def test_budget_below_the_count_refuses_the_search(case):
    """Every budget from the box's cells up to one short of the count refuses
    the search: visited is budget + 1, with no solutions, not exhaustive and
    a note, whatever the walk would have met first.  A budget of at least
    the count gives the full certificate."""
    spec = planted_rp2() if case == "planted" else search_spec_for(*case)
    full = enumerate_splittings(spec)
    # the planted target and s2xs2 have solutions, which a refusal drops
    assert full.exhaustive and (full.solutions or case == ("sp2-t2", None))
    cells = math.prod(2 * b + 1 for b in full.per_variable_bounds)
    rng = random.Random(sum(map(ord, f"refuse-{case}")))
    budgets = {cells, full.visited - 1} | {rng.randrange(cells, full.visited) for _ in range(10)}
    for budget in sorted(budgets):
        cert = enumerate_splittings(replaced(spec, budget=budget))
        assert (cert.visited, cert.solutions, cert.exhaustive) == (budget + 1, (), False), budget
        assert f"visit budget {budget} exhausted; enumeration incomplete" in cert.notes, budget
    for budget in (full.visited, full.visited + 1, 10 * full.visited):
        cert = enumerate_splittings(replaced(spec, budget=budget))
        assert replaced(cert, budget=full.budget) == full, budget


def test_search_spec_refuses_a_negative_budget():
    """The record checks its budget as it checks m, so no caller gets a
    certificate from a budget below zero; zero itself is a budget."""
    spec = search_spec_for("su3-t2")
    with pytest.raises(ValueError, match=r"^budget: expected an integer >= 0, got -1$"):
        replaced(spec, budget=-1)
    assert enumerate_splittings(replaced(spec, budget=0)).visited == 1


def test_ball_past_the_cap_is_refused(monkeypatch):
    """The budget bounds visits, not memory: a ball of more than MAX_BALL
    vectors is a `BoundError`, and the ellipsoid stops at its MAX_BALL + 1st
    vector instead of building the whole ball."""
    kept = []
    ellipsoid = search._ellipsoid

    def recorded(*args):
        ball = ellipsoid(*args)
        kept.append(len(ball[1]))
        return ball

    monkeypatch.setattr(search, "_ellipsoid", recorded)
    monkeypatch.setattr(search, "MAX_BALL", 100)
    doc = builtin_case("cpn-split", 2)
    # without the Chern target, which fixes p1 = 3h^2: a box and a ball of 2,001 vectors
    del doc["targets"]["chern"]
    doc["targets"]["p1"] = [[10**6, [2]]]
    with pytest.raises(CaseError, match=(
        r"^search\.bound\.multipliers: the ball of the 2001-cell box holds more than 100 vectors"
    )):
        run_case(doc)
    assert kept == [101]
    # a ball of MAX_BALL vectors still runs: cpn-split n=2 keeps -h, 0 and h
    monkeypatch.setattr(search, "MAX_BALL", 3)
    assert enumerate_splittings(search_spec_for("cpn-split", 2)).exhaustive
    assert kept == [101, 3]


def test_ellipsoid_is_the_box_filtered_by_norm(monkeypatch):
    """The ball, its last coordinate filled a row at a time, is the box in
    lex order filtered by the norm (and, with flips, by a positive first
    nonzero coordinate); a cap keeps the first MAX_BALL + 1 vectors."""
    rng = random.Random(34)
    for _ in range(300):
        r = rng.randint(0, 3)
        per_variable = [rng.randint(0, 3) for _ in range(r)]
        weights = [rng.choice((0, 1, 2, 5)) for _ in range(r)]
        limit, flips = rng.randint(0, 20), rng.random() < 0.5
        ranges = [range(-b, b + 1) if not w else range(-math.isqrt(limit // w), math.isqrt(limit // w) + 1)
                  for b, w in zip(per_variable, weights)]
        norms, ball = [], []
        for vec in itertools.product(*ranges):
            norm = sum(w * x * x for w, x in zip(weights, vec))
            if norm <= limit and not (flips and next((x for x in vec if x), 0) < 0):
                norms.append(norm)
                ball.append(vec)
        args = (per_variable, weights, limit, flips)
        assert search._ellipsoid(*args) == (norms, ball), args
        for cap in {0, len(ball) // 2, len(ball) - 1}:
            monkeypatch.setattr(search, "MAX_BALL", cap)
            assert search._ellipsoid(*args) == (norms[:cap + 1], ball[:cap + 1]), (args, cap)
        monkeypatch.undo()


def test_budget_exhaustion_on_explicit_box():
    # the 49-vector box fits the budget; the budget runs out among the probes
    spec = replaced(search_spec_for("s2xs2"), budget=50)
    cert = enumerate_splittings(spec)
    assert not cert.exhaustive
    assert cert.visited == spec.budget + 1
    assert any("budget" in note for note in cert.notes)
    # a budget smaller than the box stops while the ball is built
    small = replaced(spec, budget=20)
    cert = enumerate_splittings(small)
    assert not cert.exhaustive
    assert cert.visited == small.budget + 1
    assert cert.solutions == ()


# -- differential: the ball-and-join walk against the ordered-tuple walk ---------------


DIFFERENTIAL_CASES = [
    ("cp2-connect-sum", None),
    ("su3-t2", None),
    ("sp2-t2", None),
    ("s2xs2", None),
    ("cpn-split", 2),
    ("cpn-split", 3),
    ("cpn-split", 4),
    ("r-p", 2),
]


@pytest.mark.parametrize(("name", "par"), DIFFERENTIAL_CASES)
def test_builtin_solutions_match_reference(name, par):
    spec = search_spec_for(name, par)
    cert = enumerate_splittings(spec)
    assert cert.exhaustive
    assert cert.solutions == ref_enumerate(spec)


@pytest.mark.parametrize(("name", "par"), [
    ("cp2-connect-sum", None), ("su3-t2", None), ("sp2-t2", None), ("s2xs2", None), ("r-p", 1),
])
def test_a_rigid_euler_rule_lists_the_positive_sign_patterns(name, par):
    """Conjugating one line bundle keeps p1 and flips the Euler class, so
    matching Euler up to sign changes no verdict: a rigid rule, e = +euler
    only, finds a splitting iff the search does, and its solutions are
    exactly the sign patterns of the search's solutions with e = +euler."""
    spec = search_spec_for(name, par)
    ring = spec.ring
    derived = enumerate_splittings(spec).solutions
    rigid = ref_rigid_enumerate(spec)
    assert bool(rigid) == bool(derived)
    euler = normal_form(ring, spec.targets.euler_target)
    positive = set()
    for sol in derived:
        for signs in itertools.product((1, -1), repeat=len(sol)):
            vecs = tuple(tuple(s * x for x in vec) for s, vec in zip(signs, sol))
            lbsum = LineBundleSum(ring, tuple(ring.class_from_coeffs(vec) for vec in vecs))
            if euler_class(lbsum) == euler:
                positive.add(tuple(sorted(vecs, reverse=True)))
    assert set(rigid) == positive
    if name == "s2xs2":  # 2v + 2u, and its conjugate pair -2u - 2v
        assert set(rigid) == {((2, 0), (0, 2)), ((0, -2), (-2, 0))}


@pytest.mark.parametrize(("name", "p1", "one_bundle"), [
    # (u +- v)^2 = u^2 + v^2 = 2u^2, padded with a trivial plane
    ("cp2-connect-sum", [((2, 0), 2)], {((1, 1), (0, 0)), ((1, -1), (0, 0))}),
    # s2xs2's own p1 = 0: 2ab = 0 for the class a*u + b*v
    ("s2xs2", [], {((a, 0), (0, 0)) for a in range(4)} | {((0, b), (0, 0)) for b in range(4)}),
], ids=["cp2-connect-sum", "s2xs2"])
def test_trivial_summands_are_zero_vectors(name, p1, one_bundle):
    """With a zero Euler target, a splitting into k < n line bundles plus a
    trivial part is a splitting into n whose other n - k classes vanish: the
    solutions with at least n - k zero vectors are exactly the sums of k
    bundles, padded with zero vectors."""
    base = search_spec_for(name)
    targets = replaced(base.targets, p1_target=GradedClass.from_terms(p1), euler_target=GradedClass.zero())
    spec = replaced(base, targets=targets)
    n, zero = spec.m, (0,) * len(spec.ring.tables.bases[1])
    solutions = enumerate_splittings(spec).solutions
    for k in range(1, n + 1):
        padded = {sol for sol in solutions if sol.count(zero) >= n - k}
        assert padded == set(ref_enumerate(spec, k)), k
    assert set(ref_enumerate(spec, 1)) == one_bundle


PLANTED_CASES = [c for c in DIFFERENTIAL_CASES if c != ("cpn-split", 2)]


@pytest.mark.parametrize(("name", "par"), PLANTED_CASES)
def test_planted_solutions_match_reference(name, par):
    """Targets read off random small vectors, so the planted splitting must be found."""
    base = search_spec_for(name, par)
    ring = base.ring
    r = len(base.ring.tables.bases[1])
    rng = random.Random(sum(map(ord, f"planted-{name}-{par}")))
    for trial in range(6):
        vecs = [tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(base.m)]
        lbsum = LineBundleSum(ring, tuple(ring.class_from_coeffs(v) for v in vecs))
        with_chern = rng.random() < 0.3
        targets = TargetClasses(
            p1_target=first_pontryagin(lbsum),
            euler_target=euler_class(lbsum),
            chern_target=total_chern(lbsum) if with_chern else None,
        )
        spec = replaced(base, targets=targets)
        cert = enumerate_splittings(spec)
        expected = ref_enumerate(spec)
        assert canonicalize_solution(vecs, spec.targets.sign_flexible) in expected, (name, trial)
        assert cert.solutions == expected, (name, trial)


@pytest.mark.parametrize(
    ("name", "par", "vecs"),
    [
        # norms 8 under the form 8a^2 + b^2 + c^2
        ("r-p", 2, ((1, 0, 0), (0, 2, 2), (0, 2, -2))),
        # norms 3 under the form a^2 + 2b^2
        ("sp2-t2", None, ((1, 1), (1, -1), (1, 1), (1, -1))),
    ],
)
def test_planted_equal_norms_meet_the_cut(name, par, vecs):
    """All m planted vectors share one norm, limit / m, so every level of the
    walk keeps the last vector at its cut and none past it."""
    base = search_spec_for(name, par)
    ring = base.ring
    lbsum = LineBundleSum(ring, tuple(ring.class_from_coeffs(v) for v in vecs))
    targets = replaced(base.targets, p1_target=first_pontryagin(lbsum), euler_target=euler_class(lbsum))
    spec = replaced(base, targets=targets)
    bounds = derive_bounds(spec)
    norms = {sum(d * x * x for d, x in zip(bounds.diagonal, v)) for v in vecs}
    assert norms == {bounds.constant / spec.m}
    cert = enumerate_splittings(spec)
    assert canonicalize_solution(vecs, spec.targets.sign_flexible) in cert.solutions
    assert cert.solutions == ref_enumerate(spec)


# -- the visit count against the recount over every skipped subtree -----------------


def _ball_norms(spec) -> list[int]:
    """The ball's norms, sorted, read off the whole box: each box vector
    within the ellipsoid (the whole box for an explicit bound), only the
    larger of v and -v when sign flips are allowed."""
    bounds = derive_bounds(spec)
    weights = bounds.diagonal or (0,) * len(bounds.per_variable)
    limit = bounds.constant or 0
    flips = spec.targets.sign_flexible
    norms = []
    for vec in itertools.product(*(range(-b, b + 1) for b in bounds.per_variable)):
        norm = sum(w * x * x for w, x in zip(weights, vec))
        if norm <= limit and not (flips and vec < tuple(-x for x in vec)):
            norms.append(norm)
    return sorted(norms)


COUNT_CASES = [
    (name, None) for name in list_builtin_cases()
    if "search" in builtin_case(name) and name not in ("r-p", "cpn-split")
] + [("r-p", q) for q in (1, 2, 3, 4)] + [("cpn-split", n) for n in (2, 3, 4, 8, 20)]


@pytest.mark.parametrize(("name", "par"), COUNT_CASES)
def test_visited_is_the_box_plus_the_recount(name, par):
    spec = search_spec_for(name, par)
    bounds = derive_bounds(spec)
    cells = math.prod(2 * b + 1 for b in bounds.per_variable)
    probes = ref_probe_count(_ball_norms(spec), spec.m, bounds.constant or 0)
    assert enumerate_splittings(spec).visited == cells + probes


@given(data=st.data())
def test_count_probes_matches_the_recount(data):
    """Against the recount, and both against the multisets counted one by one."""
    norms = sorted(data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=9)))
    m = data.draw(st.integers(1, 5))
    limit = data.draw(st.integers(0, 30))
    brute = sum(
        1 for multiset in itertools.combinations_with_replacement(range(len(norms)), m - 1)
        if sum(norms[i] for i in multiset) <= limit
    )
    assert count_probes(norms, m, limit) == ref_probe_count(norms, m, limit) == brute


@pytest.mark.parametrize(("n", "visited"), [
    (40, 37369),
    (50, 121551),
    # about 3 x 10^9 visits, over the default budget: refused before any
    # walk, in about 3 s of counting
    (200, DEFAULT_BUDGET + 1),
])
def test_wide_projective_spaces_count_in_time(n, visited):
    """A count that blows up shows as a slow test, a wrong one as a failure."""
    exhaustive = visited <= DEFAULT_BUDGET
    started = time.perf_counter()
    cert = enumerate_splittings(search_spec_for("cpn-split", n))
    assert time.perf_counter() - started < (2 if exhaustive else 10)
    assert (cert.visited, cert.solutions, cert.exhaustive) == (visited, (), exhaustive)
    refused = [] if exhaustive else [f"visit budget {DEFAULT_BUDGET} exhausted; enumeration incomplete"]
    assert cert.notes == refused


# -- packed join keys ---------------------------------------------------------------


@given(data=st.data())
def test_pack_is_linear_and_injective_within_span(data):
    span = data.draw(st.integers(0, 6))
    n = data.draw(st.integers(0, 4))
    vectors = st.lists(st.integers(-span, span), min_size=n, max_size=n)
    a, b = data.draw(vectors), data.draw(vectors)
    assert pack(a, span) - pack(b, span) == pack([x - y for x, y in zip(a, b)], span)
    assert (pack(a, span) == pack(b, span)) == (a == b)


# -- compiled ring tables against ring_mul ------------------------------------------


@pytest.mark.parametrize(("name", "par"), DIFFERENTIAL_CASES + [("r-p", 3)])
def test_tables_match_ring_mul(name, par):
    spec = search_spec_for(name, par)
    ring, tables, m = spec.ring, spec.ring.tables, spec.m
    r = len(tables.bases[1])
    b4 = basis(ring, 4)
    top = basis(ring, 2 * m) if 2 * m <= ring.top_degree else []
    rng = random.Random(sum(map(ord, f"tables-{name}-{par}")))
    for _ in range(60):
        vecs = [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(m)]
        classes = tuple(ring.class_from_coeffs(v) for v in vecs)
        square = ring_mul(ring, classes[0], classes[0])
        assert tables.kernels[1](vecs[0], vecs[0]) == tuple(square.coefficient(mono) for mono in b4)
        euler = tuple(euler_class(LineBundleSum(ring, classes)).coefficient(mono) for mono in top)
        # the walk and its Euler prefilter fold one vector per level into the product
        product, prefix = tables.one, ring.one()
        for k, (vec, c) in enumerate(zip(vecs, classes)):
            product, prefix = tables.kernels[k](product, vec), ring_mul(ring, prefix, c)
            assert product == tables.vector(prefix, k + 1)
        assert product == euler


# -- TargetMatcher.match is the only acceptance -------------------------------------


def _matched_solutions(monkeypatch, spec):
    """Run the search, returning it with every candidate `match` accepted and each report."""
    reports = []
    match = TargetMatcher.match

    def recording(self, lbsum):
        report = match(self, lbsum)
        coords = spec.ring.tables.bases[1]
        vecs = tuple(tuple(c.coefficient(mono) for mono in coords) for c in lbsum.first_chern_classes)
        reports.append((vecs, report))
        return report

    monkeypatch.setattr(TargetMatcher, "match", recording)
    cert = enumerate_splittings(spec)
    accepted = {
        canonicalize_solution(vecs, spec.targets.sign_flexible) for vecs, report in reports if report.matched
    }
    return cert, accepted, [report for _, report in reports]


@pytest.mark.parametrize(("name", "par"), DIFFERENTIAL_CASES)
def test_every_solution_was_matched(monkeypatch, name, par):
    spec = search_spec_for(name, par)
    cert, accepted, _ = _matched_solutions(monkeypatch, spec)
    assert set(cert.solutions) == accepted


def test_planted_solutions_were_matched(monkeypatch):
    base = search_spec_for("sp2-t2")
    ring = base.ring
    rng = random.Random(4242)
    for trial in range(4):
        vecs = [tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(base.m)]
        lbsum = LineBundleSum(ring, tuple(ring.class_from_coeffs(v) for v in vecs))
        targets = replaced(base.targets, p1_target=first_pontryagin(lbsum), euler_target=euler_class(lbsum))
        spec = replaced(base, targets=targets)
        cert, accepted, _ = _matched_solutions(monkeypatch, spec)
        assert canonicalize_solution(vecs) in cert.solutions, trial
        assert set(cert.solutions) == accepted, trial


def test_chern_is_decided_by_the_matcher(monkeypatch):
    """Hits pass p1 and the Euler prefilter; the matcher rejects them on Chern."""
    base = search_spec_for("cpn-split", 3)
    ring = base.ring
    lbsum = LineBundleSum(ring, tuple(ring.class_from_coeffs((1,)) for _ in range(3)))
    # c1 = 5h and c2 = 11h^2 give c1^2 - 2c2 = 3h^2, the p1 target, and c3 = h^3
    # is the Euler one; but no three of +-h sum to 5h
    chern = GradedClass.from_terms([((0,), 1), ((1,), 5), ((2,), 11), ((3,), 1)])
    targets = replaced(
        base.targets,
        p1_target=first_pontryagin(lbsum),
        euler_target=euler_class(lbsum),
        chern_target=chern,
    )
    spec = replaced(base, targets=targets)
    cert, accepted, reports = _matched_solutions(monkeypatch, spec)
    assert cert.exhaustive
    assert cert.solutions == ()
    assert accepted == set()
    assert reports
    assert all(r.p1_ok and r.euler_ok and r.chern_ok is False for r in reports)
    assert cert.solutions == ref_enumerate(spec)


PREFILTERED_CASES = [case for case in DIFFERENTIAL_CASES if case[0] != "cpn-split"] + [("r-p", 3)]


@pytest.mark.parametrize(("name", "par"), PREFILTERED_CASES)
def test_prefilter_hands_the_matcher_only_accepted_hits(monkeypatch, name, par):
    """With no Chern target, a hit past the join and the Euler prefilter
    already has the target p1 and Euler class: every `match` call accepts."""
    spec = search_spec_for(name, par)
    assert spec.targets.chern_target is None
    _, _, reports = _matched_solutions(monkeypatch, spec)
    assert all(report.matched for report in reports)


def test_prefilter_drops_every_hit_of_a_case_with_no_splitting(monkeypatch):
    """r-p at q = 2: the join finds 684 p1 hits and the Euler prefilter drops
    them all, so the matcher is never called.  The prefilter spends one
    compiled product at k = m - 1 on each hit, and nothing else does."""
    spec = search_spec_for("r-p", 2)
    degrees = counted_kernel_calls(monkeypatch)
    cert, _, reports = _matched_solutions(monkeypatch, spec)
    assert cert.exhaustive and cert.solutions == ()
    assert degrees.count(spec.m - 1) == 684
    assert reports == []


@pytest.mark.parametrize(("name", "par"), DIFFERENTIAL_CASES + [("r-p", 3), ("cpn-split", 20)])
def test_both_product_paths_give_one_certificate(monkeypatch, name, par):
    """A walk whose every product is the dense reference loop over
    `ref_rows` gives the certificate of the walk on the compiled kernels."""
    spec = search_spec_for(name, par)
    tables = spec.ring.tables
    compiled = enumerate_splittings(spec).as_jsonable()
    rows = ref_rows(spec.ring)
    reference = tuple(partial(ref_table_mul, tables.bases, rows, k) for k in range(len(tables.terms)))
    monkeypatch.setattr(RingTables, "kernels", property(lambda self: reference))
    assert enumerate_splittings(spec).as_jsonable() == compiled


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
