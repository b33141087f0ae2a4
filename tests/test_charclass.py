"""Characteristic classes of sums of line bundles and target matching."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import generator_class, random_degree2, replaced, ring_for, search_spec_for, targets_for
from splitcheck.cases import builtin_case
from splitcheck.charclass import (
    LineBundleSum,
    RankError,
    TargetClasses,
    TargetError,
    euler_class,
    first_pontryagin,
    matches_targets,
    normal_targets,
    total_chern,
)
from splitcheck.cli import run_case
from splitcheck.ring import GradedClass, ring_scale
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
    # the Euler class matches up to sign even with a Chern target, which
    # alone then refuses e = -euler: (3h) + (-h) on CP^2 has e = -3h^2
    doc = builtin_case("cpn-split", 2)
    doc["candidates"] = [[[3], [-1]], [[1], [1]]]
    assert run_case(doc)["sections"]["matching"] == [
        {
            "candidate": [[3], [-1]], "matched": False, "p1_ok": False,
            "euler_ok": True, "euler_sign": -1, "chern_ok": False,
            "residuals": {"p1": "7*h^2", "chern": "-h - 6*h^2"},
        },
        {
            "candidate": [[1], [1]], "matched": False, "p1_ok": False,
            "euler_ok": False, "euler_sign": None, "chern_ok": False,
            "residuals": {"p1": "-h^2", "euler": "-2*h^2", "chern": "-h - 2*h^2"},
        },
    ]


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
    """A splitting of a 4-manifold lists two line bundles, a trivial summand
    as a zero class: three, or one, is a rank error, and the search walks two."""
    ring = ring_for("cp2-connect-sum")
    targets = targets_for("cp2-connect-sum")
    for vecs in [((0, 1), (0, 1), (0, 1)), ((0, 1),)]:
        message = f"a splitting lists top_degree / 2 = 2 line bundles, got {len(vecs)}"
        with pytest.raises(RankError, match=f"^{re.escape(message)}$"):
            matches_targets(lbsum(ring, *vecs), targets)
    assert not matches_targets(lbsum(ring, (0, 1), (0, 0)), targets).euler_ok
    assert search_spec_for("cp2-connect-sum").m == 2


def test_chern_target_fixes_p1_and_euler():
    """The realification of a complex bundle has p1 = c1^2 - 2 c2 and Euler
    class c_top, so a Chern target contradicting either is refused: no sum
    reaches both, and "no splitting" would hold vacuously."""
    ring = ring_for("cpn-split", 2)  # h^3 = 0
    chern = cls(((0,), 1), ((1,), 2), ((2,), 1))  # (1 + h)^2
    targets = TargetClasses(cls(((2,), 2)), cls(((2,), 1)), chern)
    assert normal_targets(ring, targets) == (cls(((2,), 2)), cls(((2,), 1)), chern)
    spec = replaced(search_spec_for("cpn-split", 2), targets=targets)
    assert enumerate_splittings(spec).solutions == (((1,), (1,)),)
    for field, bad, message in [
        # p1 = c1^2 - 2 c2 = 4h^2 - 2h^2
        ("p1_target", cls(((2,), 4)), "p1: 4*h^2 contradicts the chern target, which makes it 2*h^2"),
        # the Euler class is the top Chern class
        ("euler_target", cls(((2,), 2)), "euler: 2*h^2 contradicts the chern target, which makes it h^2"),
    ]:
        with pytest.raises(TargetError, match=f"^{re.escape(message)}$"):
            normal_targets(ring, replaced(targets, **{field: bad}))


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
            )
            assert matches_targets(sum_, targets).matched


def test_residual_strings_report_differences():
    ring = ring_for("su3-t2")
    targets = targets_for("su3-t2")
    report = matches_targets(lbsum(ring, (0, 1), (0, 1), (0, 1)), targets)
    # p1 of (x, x, x) is 3x^2 against a target of 8x^2
    assert not report.p1_ok
    assert ring.format_class(report.residuals["p1"]) == "-5*x^2"
