"""Characteristic classes of sums of line bundles and target matching."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import generator_class, random_degree2, replaced, ring_for, search_spec_for, targets_for
from splitcheck.charclass import (
    LineBundleSum,
    RankError,
    TargetClasses,
    euler_class,
    first_pontryagin,
    matches_targets,
    total_chern,
)
from splitcheck.ring import GradedClass, basis, ring_scale
from splitcheck.search import enumerate_splittings


def cls(*pairs) -> GradedClass:
    return GradedClass.from_terms(pairs)


def lbsum(ring, *vecs) -> LineBundleSum:
    return LineBundleSum(ring, tuple(ring.class_from_coeffs(v) for v in vecs))


def test_connect_sum_candidate_classes():
    ring = ring_for("cp2-connect-sum")
    # classes 2u + v and u, written in the ascending coordinates [v, u]
    sum2 = lbsum(ring, (1, 2), (0, 1))
    assert first_pontryagin(sum2) == cls(((2, 0), 6))
    assert euler_class(sum2) == cls(((2, 0), 2))


def test_connect_sum_candidate_fails_on_euler_only():
    ring = ring_for("cp2-connect-sum")
    report = matches_targets(lbsum(ring, (1, 2), (0, 1)), targets_for("cp2-connect-sum"))
    assert report.p1_ok
    assert not report.euler_ok
    assert not report.matched
    assert report.euler_sign is None
    assert ring.format_class(report.residuals["euler"]) == "-2*u^2"


def test_family_diagonal_pontryagin():
    ring = ring_for("r-p", 2)
    # the three generators themselves: v1, v2, v3 have coordinates
    # (0,0,1), (0,1,0), (1,0,0) in the ascending basis [v3, v2, v1]
    sum3 = lbsum(ring, (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert first_pontryagin(sum3) == cls(((2, 0, 0), 10))


def test_projective_space_total_chern():
    ring = ring_for("cpn-split", 2)
    h = generator_class(ring, 0)
    two_h = ring_scale(2, h)
    pair = LineBundleSum(ring, (h, two_h))
    assert total_chern(pair) == cls(((0,), 1), ((1,), 3), ((2,), 2))
    single = LineBundleSum(ring, (two_h,))
    assert total_chern(single) == cls(((0,), 1), ((1,), 2))


def test_total_chern_target_is_sign_rigid():
    ring = ring_for("cpn-split", 2)
    witness = lbsum(ring, (1,), (2,))
    targets = TargetClasses(
        p1_target=first_pontryagin(witness),
        euler_target=euler_class(witness),
        euler_sign_flexible=False,
        real_rank=4,
        chern_target=total_chern(witness),
    )
    assert matches_targets(witness, targets).matched
    assert matches_targets(lbsum(ring, (2,), (1,)), targets).matched
    # negating both classes keeps p1 and the even-degree euler product but
    # flips the odd chern component
    report = matches_targets(lbsum(ring, (-1,), (-2,)), targets)
    assert report.p1_ok
    assert report.euler_ok
    assert not report.chern_ok
    assert not report.matched


def test_product_of_spheres_positive_control():
    ring = ring_for("s2xs2")
    targets = targets_for("s2xs2")
    report = matches_targets(lbsum(ring, (0, 2), (2, 0)), targets)
    assert report.matched
    assert report.euler_sign == 1
    flipped = matches_targets(lbsum(ring, (0, -2), (2, 0)), targets)
    assert flipped.matched
    assert flipped.euler_sign == -1


def test_rank_validation():
    ring = ring_for("cp2-connect-sum")
    targets = targets_for("cp2-connect-sum")
    with pytest.raises(RankError) as too_many:
        matches_targets(lbsum(ring, (0, 1), (0, 1), (0, 1)), targets)
    # an unsaturated sum cannot hit a nonzero Euler target
    with pytest.raises(RankError) as unsaturated:
        matches_targets(lbsum(ring, (0, 1)), targets)
    # the search states the same rule through the same matcher
    spec = search_spec_for("cp2-connect-sum")
    for m, expected in [(3, too_many), (1, unsaturated)]:
        with pytest.raises(RankError) as raised:
            enumerate_splittings(replaced(spec, m=m))
        assert str(raised.value) == str(expected.value)


def test_unsaturated_sum_with_zero_euler_target():
    ring = ring_for("cp2-connect-sum")
    targets = TargetClasses(
        p1_target=cls(((2, 0), 2)),
        euler_target=GradedClass.zero(),
        euler_sign_flexible=True,
        real_rank=6,
    )
    # one line bundle plus trivial rank-4 padding: e = 0 by the padding
    report = matches_targets(lbsum(ring, (1, 1)), targets)
    assert report.p1_ok  # (u + v)^2 = u^2 + v^2 = 2u^2
    assert report.euler_ok
    assert report.matched


def test_zero_summand_kills_euler():
    ring = ring_for("s2xs2")
    pair = LineBundleSum(ring, (generator_class(ring, 0), GradedClass.zero()))
    assert euler_class(pair).is_zero()


def test_sum_rejects_inhomogeneous_class():
    ring = ring_for("cp2-connect-sum")
    with pytest.raises(ValueError):
        LineBundleSum(ring, (cls(((0, 0), 1), ((1, 0), 1)),))


def test_sum_rejects_fractional_class():
    ring = ring_for("cp2-connect-sum")
    with pytest.raises(ValueError):
        LineBundleSum(ring, (cls(((1, 0), Fraction(1, 2))),))


@pytest.mark.parametrize(("name", "par"), [("cp2-connect-sum", None), ("r-p", 2), ("sp2-t2", None)])
def test_sign_flips_and_permutations(name, par):
    """p1 ignores both; the Euler class follows the product of the signs."""
    ring = ring_for(name, par)
    rng = random.Random(4242)

    @given(data=st.data())
    def run(data):
        m = data.draw(st.integers(2, 4))
        classes = tuple(random_degree2(rng, ring) for _ in range(m))
        signs = data.draw(st.tuples(*[st.sampled_from((-1, 1)) for _ in range(m)]))
        perm = data.draw(st.permutations(range(m)))
        base = LineBundleSum(ring, classes)
        moved = LineBundleSum(
            ring, tuple(ring_scale(signs[i], classes[perm[i]]) for i in range(m))
        )
        assert first_pontryagin(moved) == first_pontryagin(base)
        expected = euler_class(base)
        sign = 1
        for s in signs:
            sign *= s
        assert euler_class(moved) == ring_scale(sign, expected)

    run()


def test_matches_own_classes_roundtrip():
    """Any integral splitting matches the targets computed from itself."""
    rng = random.Random(1789)
    for name, par in [("su3-t2", None), ("r-p", 3), ("s2xs2", None)]:
        ring = ring_for(name, par)
        m = {"su3-t2": 3, "r-p": 3, "s2xs2": 2}[name]
        for _ in range(25):
            classes = tuple(random_degree2(rng, ring) for _ in range(m))
            sum_ = LineBundleSum(ring, classes)
            targets = TargetClasses(
                p1_target=first_pontryagin(sum_),
                euler_target=euler_class(sum_),
                euler_sign_flexible=False,
                real_rank=2 * m,
            )
            assert matches_targets(sum_, targets).matched


def test_residual_strings_report_differences():
    ring = ring_for("su3-t2")
    targets = targets_for("su3-t2")
    report = matches_targets(lbsum(ring, (0, 1), (0, 1), (0, 1)), targets)
    # p1 of (x, x, x) is 3x^2 against a target of 8x^2
    assert not report.p1_ok
    assert ring.format_class(report.residuals["p1"]) == "-5*x^2"
