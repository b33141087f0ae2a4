"""Certified exhaustive search for line-bundle splittings.

The unknowns are the m x r integer coordinates of the first Chern classes in
the degree-2 basis.  Bounds come from a nonnegative multiplier vector over
the degree-4 component equations of the p1 match: when the combination is a
positive diagonal quadratic form sum lam_j x_j^2 = C, any solution satisfies
that equation *with equality*, which both certifies the per-variable box
|x_j| <= floor(sqrt(C/lam_j)) and lets the enumerator recurse with an exact
remaining budget.  Every candidate reaching a full assignment is accepted or
rejected by re-evaluating p1 and e through the characteristic-class module,
never through hand-expanded equations.

Large cases are staged: an outer loop fixes the coordinates along one axis
(up to bundle permutations and sign flips, valid when the Euler target is
sign-flexible) and the inner enumeration spends the residual budget on the
remaining coordinates.  A stage whose Euler class vanishes identically in
the remaining unknowns is rejected without enumeration when the Euler target
is nonzero; the multilinear expansion that proves it is exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .charclass import LineBundleSum, TargetClasses, euler_class, first_pontryagin, total_chern
from .ring import (
    GradedClass,
    Monomial,
    RingPresentation,
    basis,
    monomial_mul,
    normal_form,
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
    stage_axis: int | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one line bundle")

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
    stage_axis: int | None = None
    stage_sum_bound: int | None = None
    note: str = ""


@dataclass
class StageRecord:
    stage: tuple[int, ...]
    residual_budget: int | None
    visited: int
    solutions: int
    skipped_reason: str | None = None


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
    stage_axis: int | None = None
    stage_sum_bound: int | None = None
    stages: list[StageRecord] = field(default_factory=list)
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
            "stage_axis": self.stage_axis,
            "stage_sum_bound": self.stage_sum_bound,
            "stages": [
                {
                    "stage": list(s.stage),
                    "residual_budget": s.residual_budget,
                    "visited": s.visited,
                    "solutions": s.solutions,
                    "skipped_reason": s.skipped_reason,
                }
                for s in self.stages
            ],
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
        "stage_axis": spec.stage_axis,
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

    stage_axis = spec.stage_axis
    stage_sum_bound = None
    if stage_axis is not None:
        if not 0 <= stage_axis < r:
            raise BoundError(f"stage axis {stage_axis} out of range for {r} coordinates")
        stage_sum_bound = int(constant / diagonal[stage_axis])
    return DerivedBounds(
        per_variable=per_variable,
        certified=True,
        diagonal=diagonal,
        constant=constant,
        stage_axis=stage_axis,
        stage_sum_bound=stage_sum_bound,
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


# -- evaluation through the characteristic-class module ----------------------


class _Evaluator:
    """Per-tuple accept test; also owns the euler feasibility expansion."""

    def __init__(self, spec: SearchSpec):
        if 2 * spec.m > spec.targets.real_rank:
            raise BoundError(f"{spec.m} line bundles exceed real rank {spec.targets.real_rank}")
        if 2 * spec.m < spec.targets.real_rank and not spec.targets.euler_target.is_zero():
            raise BoundError(
                "trivial real summands force a zero Euler class, but the target is nonzero"
            )
        self.spec = spec
        self.ring = spec.ring
        self.coords = spec.coords
        self.p1_target = normal_form(self.ring, spec.targets.p1_target)
        self.euler_target = normal_form(self.ring, spec.targets.euler_target)
        self.euler_neg = GradedClass({m: -c for m, c in self.euler_target.terms.items()})
        self.chern_target = (
            normal_form(self.ring, spec.targets.chern_target)
            if spec.targets.chern_target is not None
            else None
        )
        self.saturated = 2 * spec.m == spec.targets.real_rank

    def classes(self, vectors: Sequence[Sequence[int]]) -> list[GradedClass]:
        return [
            GradedClass({mono: c for mono, c in zip(self.coords, vec) if c})
            for vec in vectors
        ]

    def accepts(self, vectors: Sequence[Sequence[int]]) -> bool:
        lbsum = LineBundleSum(self.ring, tuple(self.classes(vectors)))
        if first_pontryagin(lbsum) != self.p1_target:
            return False
        e = euler_class(lbsum) if self.saturated else GradedClass.zero()
        if e != self.euler_target and not (
            self.spec.targets.euler_sign_flexible and e == self.euler_neg
        ):
            return False
        if self.chern_target is not None and total_chern(lbsum) != self.chern_target:
            return False
        return True

    def euler_vanishes_identically(self, axis: int, stage: Sequence[int]) -> bool:
        """True iff e is the zero polynomial in the non-axis unknowns.

        The product of first Chern classes is multilinear in the coordinate
        choices, and distinct choices contribute distinct monomials in the
        unknowns, so the class vanishes identically iff every term does.
        """
        ring = self.ring
        r = len(self.coords)
        for choice in itertools.product(range(r), repeat=self.spec.m):
            weight = 1
            for i, j in enumerate(choice):
                if j == axis:
                    weight *= stage[i]
            if not weight:
                continue
            mono = (0,) * len(ring.generators)
            for j in choice:
                mono = monomial_mul(mono, self.coords[j])
            if weight * ring.reduce_monomial(mono).coefficient(ring.fundamental):
                return False
        return True


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


def _shell_enumerate(
    weights: Sequence[int],
    budget_value: int,
    prefix: list[int],
    on_leaf,
    counter: list[int],
    visit_cap: int,
) -> None:
    """All integer tuples with sum(weights[i] * x_i^2) == budget_value.

    `counter[0]` counts leaves across calls; the leaf that takes it past
    `visit_cap` raises `_BudgetExceeded` before it is evaluated.
    """
    index = len(prefix)
    if index == len(weights):
        if budget_value == 0:
            counter[0] += 1
            if counter[0] > visit_cap:
                raise _BudgetExceeded
            on_leaf(tuple(prefix))
        return
    w = weights[index]
    if index == len(weights) - 1:
        # solve w * x^2 == budget_value directly
        if budget_value % w == 0:
            square, rem = divmod(budget_value, w)
            root = math.isqrt(square)
            if root * root == square:
                for x in ((0,) if root == 0 else (root, -root)):
                    counter[0] += 1
                    if counter[0] > visit_cap:
                        raise _BudgetExceeded
                    on_leaf(tuple(prefix + [x]))
        return
    bound = math.isqrt(budget_value // w)
    for x in range(-bound, bound + 1):
        remaining = budget_value - w * x * x
        prefix.append(x)
        _shell_enumerate(weights, remaining, prefix, on_leaf, counter, visit_cap)
        prefix.pop()


def _canonical_stages(m: int, sum_bound: int) -> list[tuple[int, ...]]:
    """Nonincreasing nonnegative m-tuples with sum of squares <= sum_bound."""
    out: list[tuple[int, ...]] = []

    def recurse(prefix: list[int], cap: int, remaining: int) -> None:
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for v in range(min(cap, math.isqrt(remaining)), -1, -1):
            recurse(prefix + [v], v, remaining - v * v)

    recurse([], math.isqrt(sum_bound), sum_bound)
    out.sort(reverse=True)
    return out


def enumerate_splittings(spec: SearchSpec) -> SearchCertificate:
    started = time.perf_counter()
    bounds = derive_bounds(spec)
    evaluator = _Evaluator(spec)
    box = 1
    for b in bounds.per_variable:
        box *= (2 * b + 1) ** spec.m
    digest = spec_digest(spec)
    notes: list[str] = []
    if bounds.note:
        notes.append(bounds.note)

    if isinstance(spec.bound, ExplicitBound):
        cert = _enumerate_explicit(spec, bounds, evaluator, box, digest, notes)
    elif bounds.stage_axis is not None:
        cert = _enumerate_staged(spec, bounds, evaluator, box, digest, notes)
    else:
        cert = _enumerate_shell(spec, bounds, evaluator, box, digest, notes)
    cert.wall_clock_s = time.perf_counter() - started
    return cert


def _finalize_solutions(
    spec: SearchSpec, raw: list[tuple[tuple[int, ...], ...]]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    allow = spec.allows_sign_flips()
    canonical = {canonicalize_solution(sol, allow_sign_flips=allow) for sol in raw}
    return tuple(sorted(canonical))


def _enumerate_explicit(
    spec: SearchSpec,
    bounds: DerivedBounds,
    evaluator: _Evaluator,
    box: int,
    digest: str,
    notes: list[str],
) -> SearchCertificate:
    if box > spec.budget:
        notes.append(f"box of {box} tuples exceeds budget {spec.budget}; nothing enumerated")
        return SearchCertificate(
            spec_digest=digest,
            bound_type="explicit",
            per_variable_bounds=bounds.per_variable,
            enumerated=box,
            visited=0,
            solutions=(),
            exhaustive=False,
            budget=spec.budget,
            notes=notes,
        )
    r = len(spec.coords)
    ranges = [range(-b, b + 1) for b in bounds.per_variable]
    raw = []
    for flat in itertools.product(*(ranges * spec.m)):
        vectors = tuple(flat[i * r : (i + 1) * r] for i in range(spec.m))
        if evaluator.accepts(vectors):
            raw.append(vectors)
    solutions = _finalize_solutions(spec, raw)
    if not bounds.certified:
        notes.append("explicit bound not acknowledged; certificate is not exhaustive")
    return SearchCertificate(
        spec_digest=digest,
        bound_type="explicit",
        per_variable_bounds=bounds.per_variable,
        enumerated=box,
        visited=box,
        solutions=solutions,
        exhaustive=bounds.certified,
        budget=spec.budget,
        notes=notes,
    )


def _enumerate_shell(
    spec: SearchSpec,
    bounds: DerivedBounds,
    evaluator: _Evaluator,
    box: int,
    digest: str,
    notes: list[str],
) -> SearchCertificate:
    assert bounds.diagonal is not None and bounds.constant is not None
    r = len(spec.coords)
    scaled, budget_value = _scaled_diagonal(bounds.diagonal, bounds.constant)
    exhaustive = True
    visited = [0]
    raw: list[tuple[tuple[int, ...], ...]] = []

    def on_leaf(flat: tuple[int, ...]) -> None:
        vectors = tuple(flat[i * r : (i + 1) * r] for i in range(spec.m))
        if evaluator.accepts(vectors):
            raw.append(vectors)

    if budget_value is None:
        notes.append("certified form has a non-integral constant; the equation has no integer solutions")
    else:
        try:
            _shell_enumerate(scaled * spec.m, budget_value, [], on_leaf, visited, spec.budget)
        except _BudgetExceeded:
            exhaustive = False
            notes.append(f"visit budget {spec.budget} exhausted; enumeration incomplete")

    solutions = _finalize_solutions(spec, raw)
    return SearchCertificate(
        spec_digest=digest,
        bound_type="sum_of_squares",
        per_variable_bounds=bounds.per_variable,
        enumerated=box,
        visited=visited[0],
        solutions=solutions,
        exhaustive=exhaustive,
        budget=spec.budget,
        diagonal=bounds.diagonal,
        constant=bounds.constant,
        notes=notes,
    )


def _enumerate_staged(
    spec: SearchSpec,
    bounds: DerivedBounds,
    evaluator: _Evaluator,
    box: int,
    digest: str,
    notes: list[str],
) -> SearchCertificate:
    assert bounds.diagonal is not None and bounds.constant is not None
    assert bounds.stage_axis is not None and bounds.stage_sum_bound is not None
    if not spec.allows_sign_flips():
        raise BoundError("staged enumeration requires a sign-flexible Euler target")
    axis = bounds.stage_axis
    r = len(spec.coords)
    inner_coords = [j for j in range(r) if j != axis]
    scaled, total_budget = _scaled_diagonal(bounds.diagonal, bounds.constant)
    weights = [scaled[j] for j in inner_coords] * spec.m
    notes.append(
        "stages are canonical representatives under bundle permutations and sign flips"
    )

    visited = [0]
    raw: list[tuple[tuple[int, ...], ...]] = []
    records: list[StageRecord] = []
    exhausted = False
    for stage in _canonical_stages(spec.m, bounds.stage_sum_bound):
        if total_budget is None:
            records.append(StageRecord(stage, None, 0, 0, "non-integral budget"))
            continue
        residual = total_budget - scaled[axis] * sum(c * c for c in stage)
        if exhausted:
            records.append(StageRecord(stage, residual, 0, 0, "budget exhausted"))
            continue
        if residual < 0:
            records.append(StageRecord(stage, residual, 0, 0, "residual budget negative"))
            continue
        if not evaluator.euler_target.is_zero() and evaluator.euler_vanishes_identically(axis, stage):
            records.append(
                StageRecord(
                    stage,
                    residual,
                    0,
                    0,
                    "euler class vanishes identically at this stage but the target does not",
                )
            )
            continue

        def on_leaf(flat: tuple[int, ...]) -> None:
            vectors = []
            pos = 0
            for i in range(spec.m):
                vec = [0] * r
                for j in inner_coords:
                    vec[j] = flat[pos]
                    pos += 1
                vec[axis] = stage[i]
                vectors.append(tuple(vec))
            if evaluator.accepts(vectors):
                raw.append(tuple(vectors))

        visited_before, found_before = visited[0], len(raw)
        try:
            _shell_enumerate(weights, residual, [], on_leaf, visited, spec.budget)
        except _BudgetExceeded:
            exhausted = True
        records.append(
            StageRecord(
                stage,
                residual,
                visited[0] - visited_before,
                len(raw) - found_before,
                "budget exhausted" if exhausted else None,
            )
        )
    if exhausted:
        notes.append(f"visit budget {spec.budget} exhausted; enumeration incomplete")
    solutions = _finalize_solutions(spec, raw)
    return SearchCertificate(
        spec_digest=digest,
        bound_type="sum_of_squares",
        per_variable_bounds=bounds.per_variable,
        enumerated=box,
        visited=visited[0],
        solutions=solutions,
        exhaustive=not exhausted,
        budget=spec.budget,
        diagonal=bounds.diagonal,
        constant=bounds.constant,
        stage_axis=axis,
        stage_sum_bound=bounds.stage_sum_bound,
        stages=records,
        notes=notes,
    )
