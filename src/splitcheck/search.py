"""Certified exhaustive search for line-bundle splittings.

The unknowns are the m x r integer coordinates of the first Chern classes in
the degree-2 basis.  Bounds come from a nonnegative multiplier vector over
the degree-4 component equations of the p1 match: when the combination is a
positive diagonal quadratic form sum lam_j x_j^2 = C, any solution satisfies
that equation *with equality*.  Each bundle's own share sum_j lam_j v_j^2 is
nonnegative, so every bundle vector lies in the ellipsoid
sum_j lam_j v_j^2 <= C, which certifies the per-variable box
|x_j| <= floor(sqrt(C/lam_j)).

One enumeration serves every bound:

1. the ball: the vectors of the per-bundle box inside that ellipsoid
   (lattice points of an ellipsoid, Fincke-Pohst, Math. Comp. 44, 1985; an
   explicit bound has no form and keeps the whole box), only the larger of
   v and -v when the Euler target is sign-flexible;
2. the join table: each ball vector's square c1^2, keyed by the class;
3. the walk: nondecreasing index multisets of m - 1 ball vectors whose
   partial norm stays within C, with the last bundle looked up by the
   residual p1 - sum of squares (meet in the middle, Horowitz-Sahni,
   JACM 1974).

The lookup only rejects: every candidate it lets through is accepted or
rejected by `charclass.TargetMatcher`, the one acceptance rule, which
re-evaluates the candidate's classes, never hand-expanded equations.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .charclass import LineBundleSum, TargetClasses, TargetMatcher
# Not called here: perfbench/tracing.py rebinds these names on this module.
from .charclass import euler_class, first_pontryagin, total_chern  # noqa: F401
from .ring import (
    GradedClass,
    Monomial,
    RingPresentation,
    basis,
    monomial_mul,
    normal_form,
    ring_mul,
    ring_sub,
)

DEFAULT_BUDGET = 10**9


class BoundError(ValueError):
    """The requested multipliers do not certify a finite search box."""


@dataclass(frozen=True)
class SumOfSquaresBound:
    multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class ExplicitBound:
    per_variable: tuple[int, ...]
    acknowledged: bool = False
    note: str = ""


@dataclass
class SearchSpec:
    ring: RingPresentation
    targets: TargetClasses
    m: int
    bound: SumOfSquaresBound | ExplicitBound
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m: need at least one line bundle, got {self.m}")

    @property
    def coords(self) -> list[Monomial]:
        return basis(self.ring, 2)

    def allows_sign_flips(self) -> bool:
        return self.targets.euler_sign_flexible and self.targets.chern_target is None


@dataclass
class DerivedBounds:
    per_variable: tuple[int, ...]
    certified: bool
    diagonal: tuple[Fraction, ...] | None = None
    constant: Fraction | None = None
    note: str = ""


@dataclass
class SearchCertificate:
    spec_digest: str
    bound_type: str
    per_variable_bounds: tuple[int, ...]
    enumerated: int
    visited: int
    solutions: tuple[tuple[tuple[int, ...], ...], ...]
    exhaustive: bool
    budget: int
    diagonal: tuple[Fraction, ...] | None = None
    constant: Fraction | None = None
    notes: list[str] = field(default_factory=list)
    wall_clock_s: float | None = None

    @property
    def solution_count(self) -> int:
        return len(self.solutions)

    @property
    def visited_fraction(self) -> Fraction:
        if not self.enumerated:
            return Fraction(0)
        return Fraction(self.visited, self.enumerated)

    def as_jsonable(self) -> dict:
        return {
            "spec_digest": self.spec_digest,
            "bound_type": self.bound_type,
            "per_variable_bounds": list(self.per_variable_bounds),
            "diagonal": list(self.diagonal) if self.diagonal is not None else None,
            "constant": self.constant,
            "enumerated": self.enumerated,
            "visited": self.visited,
            "visited_fraction": self.visited_fraction,
            "budget": self.budget,
            "solutions": [[list(vec) for vec in sol] for sol in self.solutions],
            "solution_count": self.solution_count,
            "exhaustive": self.exhaustive,
            "notes": list(self.notes),
            "wall_clock_s": None,  # excluded from canonical output for byte stability
        }


def spec_digest(spec: SearchSpec) -> str:
    """Stable digest of everything that determines the search."""
    ring = spec.ring
    payload = {
        "generators": list(ring.generators),
        "rules": [
            {
                "lhs": list(r.lhs),
                "rhs": sorted((str(c), list(m)) for m, c in r.rhs.terms.items()),
            }
            for r in ring.rules
        ],
        "top_degree": ring.top_degree,
        "fundamental": list(ring.fundamental),
        "p1_target": sorted((str(c), list(m)) for m, c in spec.targets.p1_target.terms.items()),
        "euler_target": sorted((str(c), list(m)) for m, c in spec.targets.euler_target.terms.items()),
        "euler_sign_flexible": spec.targets.euler_sign_flexible,
        "real_rank": spec.targets.real_rank,
        "chern_target": (
            sorted((str(c), list(m)) for m, c in spec.targets.chern_target.terms.items())
            if spec.targets.chern_target is not None
            else None
        ),
        "m": spec.m,
        "bound": (
            {"type": "sum_of_squares", "multipliers": [str(x) for x in spec.bound.multipliers]}
            if isinstance(spec.bound, SumOfSquaresBound)
            else {
                "type": "explicit",
                "per_variable": list(spec.bound.per_variable),
                "acknowledged": spec.bound.acknowledged,
            }
        ),
        "budget": spec.budget,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- bound derivation --------------------------------------------------------


def _pair_products(ring: RingPresentation, coords: list[Monomial]) -> dict[tuple[int, int], GradedClass]:
    out = {}
    for j in range(len(coords)):
        for k in range(j, len(coords)):
            prod = GradedClass({monomial_mul(coords[j], coords[k]): 1})
            out[(j, k)] = normal_form(ring, prod)
    return out


def derive_bounds(spec: SearchSpec) -> DerivedBounds:
    coords = spec.coords
    r = len(coords)
    if isinstance(spec.bound, ExplicitBound):
        if len(spec.bound.per_variable) != r:
            raise BoundError(
                f"explicit bound lists {len(spec.bound.per_variable)} variables, basis has {r}"
            )
        if any(b < 0 for b in spec.bound.per_variable):
            raise BoundError("explicit bounds must be nonnegative")
        return DerivedBounds(
            per_variable=tuple(spec.bound.per_variable),
            certified=spec.bound.acknowledged,
            note=spec.bound.note or "explicit bound supplied by the case document",
        )

    ring = spec.ring
    b4 = basis(ring, 4)
    multipliers = spec.bound.multipliers
    if len(multipliers) != len(b4):
        raise BoundError(f"need {len(b4)} multipliers (one per degree-4 basis element), got {len(multipliers)}")
    if any(x < 0 for x in multipliers):
        raise BoundError("multipliers must be nonnegative")
    products = _pair_products(ring, coords)
    index = {mono: i for i, mono in enumerate(b4)}

    def combined(j: int, k: int) -> Fraction:
        cls = products[(j, k)]
        return sum(
            (multipliers[index[mono]] * coeff for mono, coeff in cls.terms.items()),
            Fraction(0),
        )

    for j in range(r):
        for k in range(j + 1, r):
            cross = combined(j, k)
            if cross:
                raise BoundError(
                    f"multipliers leave a cross term between coordinates {j} and {k}: {2 * cross}"
                )
    diagonal = tuple(combined(j, j) for j in range(r))
    if any(d <= 0 for d in diagonal):
        raise BoundError(f"combined form is not positive on every coordinate: {diagonal}")

    p1_nf = normal_form(ring, spec.targets.p1_target)
    if any(mono not in index for mono in p1_nf.terms):
        raise BoundError("p1 target is not supported on the degree-4 basis")
    constant = sum(
        (multipliers[index[mono]] * coeff for mono, coeff in p1_nf.terms.items()),
        Fraction(0),
    )
    if constant < 0:
        raise BoundError(f"combined form equals the negative constant {constant}")

    per_variable = tuple(math.isqrt(int(constant / d)) for d in diagonal)
    return DerivedBounds(
        per_variable=per_variable,
        certified=True,
        diagonal=diagonal,
        constant=constant,
    )


# -- canonical representatives ----------------------------------------------


def canonicalize_solution(
    solution: Sequence[Sequence[int]], allow_sign_flips: bool = True
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically greatest image under bundle permutations and flips."""
    vectors = [tuple(int(x) for x in vec) for vec in solution]
    best: tuple[tuple[int, ...], ...] | None = None
    flip_choices = [(1, -1)] * len(vectors) if allow_sign_flips else [(1,)] * len(vectors)
    for perm in itertools.permutations(vectors):
        for flips in itertools.product(*flip_choices):
            image = tuple(
                tuple(s * x for x in vec) for s, vec in zip(flips, perm)
            )
            if best is None or image > best:
                best = image
    assert best is not None
    return best


# -- enumeration -------------------------------------------------------------


class _BudgetExceeded(Exception):
    pass


def _scaled_diagonal(diagonal: Sequence[Fraction], constant: Fraction) -> tuple[list[int], int | None]:
    """Clear the form's denominators; a non-integral constant means no solutions."""
    denom = 1
    for d in diagonal:
        denom = denom * d.denominator // math.gcd(denom, d.denominator)
    scaled = [int(d * denom) for d in diagonal]
    c = constant * denom
    return scaled, int(c) if c.denominator == 1 else None


def enumerate_splittings(spec: SearchSpec) -> SearchCertificate:
    """Walk the ball, join the last bundle on p1, accept through charclass.

    `visited` counts each box vector walked while building the ball plus
    each join probe; the step that takes it past `spec.budget` raises
    `_BudgetExceeded` before it does any work, so `visited <= budget + 1`.
    """
    started = time.perf_counter()
    matcher = TargetMatcher(spec.ring, spec.targets, spec.m)
    bounds = derive_bounds(spec)
    ring = spec.ring
    coords = spec.coords
    box = 1
    for b in bounds.per_variable:
        box *= (2 * b + 1) ** spec.m
    notes: list[str] = []
    if bounds.note:
        notes.append(bounds.note)
    if bounds.diagonal is None:
        weights, limit = [0] * len(bounds.per_variable), 0
    else:
        weights, limit = _scaled_diagonal(bounds.diagonal, bounds.constant)
    flips = spec.allows_sign_flips()
    visited = 0
    raw: list[tuple[tuple[int, ...], ...]] = []

    def tick() -> None:
        nonlocal visited
        visited += 1
        if visited > spec.budget:
            raise _BudgetExceeded

    def search() -> None:
        ball: list[tuple[int, ...]] = []
        norms: list[int] = []
        for vec in itertools.product(*(range(-b, b + 1) for b in bounds.per_variable)):
            tick()
            norm = sum(w * x * x for w, x in zip(weights, vec))
            if norm <= limit and not (flips and vec < tuple(-x for x in vec)):
                ball.append(vec)
                norms.append(norm)
        classes = [GradedClass({mono: c for mono, c in zip(coords, vec) if c}) for vec in ball]
        squares = [ring_mul(ring, c, c) for c in classes]
        table: dict[GradedClass, list[int]] = {}
        for i, square in enumerate(squares):
            table.setdefault(square, []).append(i)

        prefix: list[int] = []

        def walk(start: int, norm: int, residual: GradedClass) -> None:
            if len(prefix) == spec.m - 1:
                tick()
                hits = table.get(residual, [])
                for k in hits[bisect.bisect_left(hits, start):]:
                    lbsum = LineBundleSum(ring, tuple(classes[i] for i in prefix) + (classes[k],))
                    if matcher.match(lbsum).matched:
                        raw.append(tuple(ball[i] for i in prefix) + (ball[k],))
                return
            for i in range(start, len(ball)):
                if norm + norms[i] <= limit:
                    prefix.append(i)
                    walk(i, norm + norms[i], ring_sub(residual, squares[i]))
                    prefix.pop()

        walk(0, 0, matcher.p1)

    exhausted = False
    if limit is None:
        notes.append("certified form has a non-integral constant; the equation has no integer solutions")
    else:
        try:
            search()
        except _BudgetExceeded:
            exhausted = True
            notes.append(f"visit budget {spec.budget} exhausted; enumeration incomplete")
    if not bounds.certified:
        notes.append("explicit bound not acknowledged; certificate is not exhaustive")
    canonical = {canonicalize_solution(sol, allow_sign_flips=flips) for sol in raw}
    return SearchCertificate(
        spec_digest=spec_digest(spec),
        bound_type="explicit" if isinstance(spec.bound, ExplicitBound) else "sum_of_squares",
        per_variable_bounds=bounds.per_variable,
        enumerated=box,
        visited=visited,
        solutions=tuple(sorted(canonical)),
        exhaustive=bounds.certified and not exhausted,
        budget=spec.budget,
        diagonal=bounds.diagonal,
        constant=bounds.constant,
        notes=notes,
        wall_clock_s=time.perf_counter() - started,
    )
