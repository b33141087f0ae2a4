"""Characteristic classes of realified sums of complex line bundles.

A sum of m complex line bundles over a presented ring is described by the m
first Chern classes, each a degree-2 integral class.  The realification has

    p1 = sum of c1(L_i)^2        (degree 4)
    e  = product of the c1(L_i)  (degree 2m)

and the complex total Chern class is the product of (1 + c1(L_i)).  Targets
carry the tangent-bundle values these must match; Euler matching is up to
sign when the orientation is not pinned.

`TargetMatcher` is the only statement of the acceptance rule: candidates,
`matches_targets` and every search hit go through it.  It rejects a target
no sum reaches, against which "no splitting" would be certified vacuously:
one of the wrong degree, or one whose normal form is not integral.  Those
checks need no line-bundle count, so `normal_targets` also runs them where
a case document's targets are read, whether or not any section uses them.
"""

from __future__ import annotations

from .record import Frozen, Record
from .ring import (
    GradedClass,
    RingPresentation,
    normal_form,
    ring_add,
    ring_mul,
    ring_scale,
    ring_sub,
)


class RankError(ValueError):
    """Line-bundle count is incompatible with the requested real rank."""


class TargetError(ValueError):
    """No sum of line bundles reaches the target named first in the message."""


class LineBundleSum(Frozen):
    __slots__ = ("ring", "first_chern_classes")

    def __init__(self, ring: RingPresentation, first_chern_classes: tuple[GradedClass, ...]):
        if not first_chern_classes:
            raise ValueError("a line bundle sum needs at least one summand")
        for i, c in enumerate(first_chern_classes):
            if not c.is_zero() and c.homogeneous_degree() != 2:
                raise ValueError(f"c1 #{i} is not homogeneous of degree 2")
            if not c.is_integral():
                raise ValueError(f"c1 #{i} has non-integer coefficients")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "first_chern_classes", first_chern_classes)

    @property
    def m(self) -> int:
        return len(self.first_chern_classes)


class TargetClasses(Frozen):
    """Tangent-bundle values a candidate splitting must reproduce.

    euler_sign_flexible records that the Euler class is only known up to
    orientation.  chern_target, when present, is an inhomogeneous total
    Chern class that must match componentwise (used for complex tangent
    bundles; sign-rigid by nature).
    """

    __slots__ = ("p1_target", "euler_target", "euler_sign_flexible", "real_rank", "chern_target")

    def __init__(
        self,
        p1_target: GradedClass,
        euler_target: GradedClass,
        euler_sign_flexible: bool,
        real_rank: int,
        chern_target: GradedClass | None = None,
    ):
        object.__setattr__(self, "p1_target", p1_target)
        object.__setattr__(self, "euler_target", euler_target)
        object.__setattr__(self, "euler_sign_flexible", euler_sign_flexible)
        object.__setattr__(self, "real_rank", real_rank)
        object.__setattr__(self, "chern_target", chern_target)


def first_pontryagin(lbsum: LineBundleSum) -> GradedClass:
    out = GradedClass.zero()
    for c in lbsum.first_chern_classes:
        out = ring_add(out, ring_mul(lbsum.ring, c, c))
    return out


def euler_class(lbsum: LineBundleSum) -> GradedClass:
    out = lbsum.ring.one()
    for c in lbsum.first_chern_classes:
        out = ring_mul(lbsum.ring, out, c)
    return out


def total_chern(lbsum: LineBundleSum) -> GradedClass:
    out = lbsum.ring.one()
    for c in lbsum.first_chern_classes:
        out = ring_mul(lbsum.ring, out, ring_add(lbsum.ring.one(), c))
    return out


class MatchReport(Record):
    __slots__ = ("matched", "p1_ok", "euler_ok", "euler_sign", "chern_ok", "residuals")

    def __init__(
        self,
        matched: bool,
        p1_ok: bool,
        euler_ok: bool,
        euler_sign: int | None,
        chern_ok: bool | None,
        residuals: dict[str, GradedClass],
    ):
        self.matched = matched
        self.p1_ok = p1_ok
        self.euler_ok = euler_ok
        self.euler_sign = euler_sign
        self.chern_ok = chern_ok
        self.residuals = residuals


def _normal_target(
    ring: RingPresentation, target: GradedClass, field: str, degree: int | None = None
) -> GradedClass:
    """The target's normal form; of the given degree unless None, and integral.

    The rules are integral, so every class built from integral c1's is too.
    """
    nf = normal_form(ring, target)
    if degree is not None and not nf.is_zero() and nf.homogeneous_degree() != degree:
        raise TargetError(f"{field}: expected zero or a class of degree {degree}, got degree(s) {nf.degrees()}")
    if not nf.is_integral():
        raise TargetError(f"{field}: normal form {ring.format_class(nf)} has a non-integer coefficient")
    return nf


def normal_targets(
    ring: RingPresentation, targets: TargetClasses
) -> tuple[GradedClass, GradedClass, GradedClass | None]:
    """The normal forms of the p1, Euler and Chern targets, once each is reachable.

    These are the target checks that do not depend on the number of line
    bundles: p1 of degree 4, the Euler class of the real rank, each integral,
    and a total Chern class whose degree-0 part is 1.
    """
    p1 = _normal_target(ring, targets.p1_target, "p1", 4)
    euler = _normal_target(ring, targets.euler_target, "euler", targets.real_rank)
    chern = None
    if targets.chern_target is not None:
        chern = _normal_target(ring, targets.chern_target, "chern")
        if chern.component(0) != ring.one():
            raise TargetError(f"chern: degree-0 part is {ring.format_class(chern.component(0))}, not 1")
    return p1, euler, chern


class TargetMatcher:
    """The acceptance rule for sums of m line bundles, compiled once.

    Construction runs the rank and target checks and takes the targets'
    normal forms; `match` compares by equality and builds a residual only
    for a check that fails.
    """

    def __init__(self, ring: RingPresentation, targets: TargetClasses, m: int):
        if 2 * m > targets.real_rank:
            raise RankError(f"{m} line bundles exceed real rank {targets.real_rank}")
        # a sum padded with trivial summands has vanishing top Chern class
        self.saturated = 2 * m == targets.real_rank
        self.sign_flexible = targets.euler_sign_flexible
        self.p1, self.euler, self.chern = normal_targets(ring, targets)
        if not self.saturated and not self.euler.is_zero():
            raise RankError("trivial summands are only allowed when the Euler target vanishes")
        self.euler_neg = ring_scale(-1, self.euler)

    def match(self, lbsum: LineBundleSum) -> MatchReport:
        """Compare a sum of the m line bundles the matcher was built for."""
        residuals: dict[str, GradedClass] = {}
        p1 = first_pontryagin(lbsum)
        p1_ok = p1 == self.p1
        if not p1_ok:
            residuals["p1"] = ring_sub(p1, self.p1)

        e = euler_class(lbsum) if self.saturated else GradedClass.zero()
        euler_sign: int | None = None
        if e == self.euler:
            euler_sign = 1
        elif self.sign_flexible and e == self.euler_neg:
            euler_sign = -1
        else:
            residuals["euler"] = ring_sub(e, self.euler)

        chern_ok: bool | None = None
        if self.chern is not None:
            chern = total_chern(lbsum)
            chern_ok = chern == self.chern
            if not chern_ok:
                residuals["chern"] = ring_sub(chern, self.chern)

        euler_ok = euler_sign is not None
        return MatchReport(
            matched=p1_ok and euler_ok and chern_ok is not False,
            p1_ok=p1_ok,
            euler_ok=euler_ok,
            euler_sign=euler_sign,
            chern_ok=chern_ok,
            residuals=residuals,
        )


def matches_targets(lbsum: LineBundleSum, targets: TargetClasses) -> MatchReport:
    """Exact comparison of computed classes against the targets.

    The sum may be shorter than the real rank (trivial summands) only when
    the Euler target vanishes; a nonzero Euler class has no trivial factors.
    """
    return TargetMatcher(lbsum.ring, targets, lbsum.m).match(lbsum)
