"""Certified exhaustive search for line-bundle splittings.

A splitting has m = top_degree / 2 line bundles, a trivial summand among
them as a zero class.  The unknowns are the m x r integer coordinates of
their first Chern classes in the degree-2 basis.  Bounds come from a
nonnegative integer multiplier vector over the degree-4 component
equations of the p1 match: when the
combination is a positive diagonal quadratic form sum lam_j x_j^2 = C, any
solution satisfies that equation *with equality*.  Each bundle's own share
sum_j lam_j v_j^2 is nonnegative, so every bundle vector lies in the
ellipsoid sum_j lam_j v_j^2 <= C, which certifies the per-variable box
|x_j| <= floor(sqrt(C/lam_j)).  Scaling the multipliers by k > 0 scales
lam and C alike and keeps the ellipsoid, so integers lose no bound.

The search multiplies through the ring's table (`ring.RingTables`, built
once per ring): its degree-2 products give the bound's quadratic form,
and every class the walk touches is a tuple over a fixed basis.  One
enumeration serves every bound:

1. the ball: the vectors of the per-bundle box inside that ellipsoid
   (lattice points of an ellipsoid, Fincke-Pohst, Math. Comp. 44, 1985),
   enumerated one coordinate at a time over |v_j| <= isqrt(norm left /
   lam_j), in the box's lex order; an explicit bound has no form and keeps
   the whole box.  Only the larger of v and -v is kept when no Chern
   target pins the bundles' signs (`TargetClasses.sign_flexible`, read by
   the ball and the canonical form alone), and the ball is stably sorted
   by norm;
2. the join table: each ball vector's square c1^2, a tuple over the
   degree-4 basis, packed into one int key sum_t c_t R^t.  The p1 tuple and
   the squares are integral, as the rules and the p1 target the matcher
   admits are, and R = 2 span + 1 with span = max|p1_t| + m max|square_t|.
   Packing is linear, so equal tuples always get equal keys and no hit is
   lost; every residual and square lies within span, where distinct tuples
   get distinct keys;
3. the count, then the walk: the probes are the nondecreasing index
   multisets of m - 1 ball vectors whose norms sum to at most C, counted
   once, up front (`count_probes`), so `visited` is the box cells plus
   that count and a search over budget is refused before it walks.  The
   walk counts nothing: a solution's norms sum to exactly C and are
   sorted, so with R vectors still to place the next has norm at most
   (C - partial) // R, and each level walks only up to that cut.  The
   last level probes inline: the residual key is one int subtraction,
   looked up in the table (meet in the middle with a sorted list,
   Horowitz-Sahni, JACM 1974);
4. the Euler prefilter: the walk carries the prefix product down, one
   `RingTables.mul` per node.  A probe with hits folds in its own vector
   once, and each hit one more: a hit
   whose Euler tuple is neither the target nor its negation, the Euler
   class being matched up to sign, is dropped before the matcher.

The lookup and the prefilter only reject: every candidate they let through
is accepted or rejected by `charclass.TargetMatcher`, the one acceptance
rule, which re-evaluates the candidate's classes, never hand-expanded
equations.
"""

from __future__ import annotations

import bisect
import math
from functools import cache
from typing import Sequence

from .charclass import LineBundleSum, TargetClasses, TargetMatcher
# Not called here: perfbench/tracing.py rebinds these names on this module.
from .charclass import euler_class, first_pontryagin, total_chern  # noqa: F401
from .record import Frozen, Record
from .ring import RingPresentation, Vector, normal_form

DEFAULT_BUDGET = 10**9
# The walk recurses once per bundle, so m is capped well below Python's
# recursion limit; the largest built-in m is 4.
MAX_M = 256
# The budget bounds visits, not memory, and the ball and its join take about
# 470 bytes per vector; r-p at q = 20 (5.6 s) keeps 12,635.
MAX_BALL = 10**6


class BoundError(ValueError):
    """The requested multipliers do not certify a finite search box."""


class SumOfSquaresBound(Frozen):
    __slots__ = ("multipliers",)

    def __init__(self, multipliers: tuple[int, ...]):
        object.__setattr__(self, "multipliers", multipliers)


class ExplicitBound(Frozen):
    __slots__ = ("per_variable", "acknowledged", "note")

    def __init__(self, per_variable: tuple[int, ...], acknowledged: bool = False, note: str = ""):
        object.__setattr__(self, "per_variable", per_variable)
        object.__setattr__(self, "acknowledged", acknowledged)
        object.__setattr__(self, "note", note)


class SearchSpec(Record):
    __slots__ = ("ring", "targets", "bound", "budget")

    def __init__(
        self,
        ring: RingPresentation,
        targets: TargetClasses,
        bound: SumOfSquaresBound | ExplicitBound,
        budget: int = DEFAULT_BUDGET,
    ):
        m = ring.top_degree // 2
        if not 1 <= m <= MAX_M:
            raise ValueError(
                f"ring.top_degree: {ring.top_degree} gives {m} line bundles; the search walks 1 to {MAX_M}"
            )
        if budget < 0:
            raise ValueError(f"budget: expected an integer >= 0, got {budget}")
        self.ring = ring
        self.targets = targets
        self.bound = bound
        self.budget = budget

    @property
    def m(self) -> int:
        """The number of line bundles: a splitting of TM has top_degree / 2."""
        return self.ring.top_degree // 2


class DerivedBounds(Record):
    __slots__ = ("per_variable", "certified", "diagonal", "constant", "note")

    def __init__(
        self,
        per_variable: tuple[int, ...],
        certified: bool,
        diagonal: tuple[int, ...] | None = None,
        constant: int | None = None,
        note: str = "",
    ):
        self.per_variable = per_variable
        self.certified = certified
        self.diagonal = diagonal
        self.constant = constant
        self.note = note


class SearchCertificate(Record):
    __slots__ = (
        "bound_type", "per_variable_bounds", "visited", "solutions", "exhaustive",
        "budget", "diagonal", "constant", "notes",
    )

    def __init__(
        self,
        bound_type: str,
        per_variable_bounds: tuple[int, ...],
        visited: int,
        solutions: tuple[tuple[tuple[int, ...], ...], ...],
        exhaustive: bool,
        budget: int,
        diagonal: tuple[int, ...] | None = None,
        constant: int | None = None,
        notes: list[str] | None = None,
    ):
        self.bound_type = bound_type
        self.per_variable_bounds = per_variable_bounds
        self.visited = visited
        self.solutions = solutions
        self.exhaustive = exhaustive
        self.budget = budget
        self.diagonal = diagonal
        self.constant = constant
        self.notes = [] if notes is None else notes

    @property
    def solution_count(self) -> int:
        return len(self.solutions)

    def as_jsonable(self) -> dict:
        return {
            "bound_type": self.bound_type,
            "per_variable_bounds": list(self.per_variable_bounds),
            "diagonal": list(self.diagonal) if self.diagonal is not None else None,
            "constant": self.constant,
            "visited": self.visited,
            "budget": self.budget,
            "solutions": [[list(vec) for vec in sol] for sol in self.solutions],
            "solution_count": self.solution_count,
            "exhaustive": self.exhaustive,
            "notes": list(self.notes),
        }


# -- bound derivation --------------------------------------------------------


def derive_bounds(spec: SearchSpec) -> DerivedBounds:
    """The per-variable box, and for multipliers the integer form lam, C behind it.

    The multipliers' combination of the products e_j e_k must be diagonal
    and positive, and of the p1 target nonnegative; else `BoundError`.
    """
    tables = spec.ring.tables
    r = len(tables.bases[1])
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
    b4 = tables.bases[2]
    multipliers = spec.bound.multipliers
    if len(multipliers) != len(b4):
        raise BoundError(f"need {len(b4)} multipliers (one per degree-4 basis element), got {len(multipliers)}")
    if any(x < 0 for x in multipliers):
        raise BoundError("multipliers must be nonnegative")
    index = {mono: i for i, mono in enumerate(b4)}
    # the multipliers' combination of the degree-4 products e_j * e_k
    form = [[0] * r for _ in range(r)]
    for j, k, t, z in tables.terms[1]:
        form[j][k] += multipliers[t] * z
    for j in range(r):
        for k in range(j + 1, r):
            cross = form[j][k]
            if cross:
                raise BoundError(
                    f"multipliers leave a cross term between coordinates {j} and {k}: {2 * cross}"
                )
    diagonal = tuple(form[j][j] for j in range(r))
    if any(d <= 0 for d in diagonal):
        shown = ", ".join(map(str, diagonal))
        raise BoundError(f"combined form is not positive on every coordinate: {shown}")

    p1_nf = normal_form(ring, spec.targets.p1_target)
    if any(mono not in index for mono in p1_nf.terms):
        raise BoundError("p1 target is not supported on the degree-4 basis")
    constant = sum(multipliers[index[mono]] * coeff for mono, coeff in p1_nf.terms.items())
    if constant < 0:
        raise BoundError(f"combined form equals the negative constant {constant}")

    per_variable = tuple(math.isqrt(constant // d) for d in diagonal)
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
    """Lexicographically greatest image under bundle permutations and flips.

    Each vector can be flipped on its own, so the greatest image takes the
    larger of v and -v for every vector (when flips are allowed) and sorts
    the vectors in descending order.
    """
    vectors = [tuple(int(x) for x in vec) for vec in solution]
    if allow_sign_flips:
        vectors = [max(vec, tuple(-x for x in vec)) for vec in vectors]
    return tuple(sorted(vectors, reverse=True))


# -- enumeration -------------------------------------------------------------


def pack(vec: Sequence[int], span: int) -> int:
    """The join key of an integer tuple: sum_t vec[t] * R**t with R = 2*span + 1.

    Packing is linear, so the key of a difference is the difference of the
    keys.  In radix 2*span + 1 every entry in [-span, span] is one balanced
    digit, so tuples whose entries all lie within span have distinct keys.
    """
    radix = 2 * span + 1
    key = 0
    for x in reversed(vec):
        key = key * radix + x
    return key


def _ellipsoid(
    per_variable: Sequence[int], weights: Sequence[int], limit: int, flips: bool
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The norms and the box vectors with norm sum_j w_j v_j^2 <= limit, in the box's lex order.

    Each coordinate runs over the range the norm left by the coordinates
    before it allows, |v_j| <= isqrt((limit - partial) // w_j); a zero
    weight keeps the box's range.  With flips only the larger of v and -v
    is kept: the first nonzero coordinate is positive.  The last
    coordinate is filled a row at a time, and the walk stops at its
    `MAX_BALL + 1`st vector, so a ball past the cap is never built whole.
    """
    if not per_variable:  # no degree-2 coordinates: the ball is the zero vector
        return [0], [()]
    norms: list[int] = []
    ball: list[tuple[int, ...]] = []
    last = len(per_variable) - 1

    def fill(head: tuple[int, ...], partial: int, lead: bool) -> None:
        j = len(head)
        w = weights[j]
        b = math.isqrt((limit - partial) // w) if w else per_variable[j]
        low = 0 if lead else -b
        if j == last:
            row = range(low, min(b + 1, low + MAX_BALL + 1 - len(ball)))
            norms.extend([partial + w * x * x for x in row])
            ball.extend([head + (x,) for x in row])
            return
        for x in range(low, b + 1):
            if len(ball) > MAX_BALL:
                return
            fill(head + (x,), partial + w * x * x, lead and not x)

    fill((), 0, flips)
    # fill's closure holds fill itself; without this the cycle would keep
    # the ball and the weights alive until the cyclic collector runs
    del fill
    return norms, ball


def count_probes(norms: Sequence[int], m: int, limit: int) -> int:
    """The join probes of the walk for m bundles, the norm-sum cut aside: the
    nondecreasing index multisets of m - 1 entries of the sorted `norms`
    whose values sum to at most `limit` (one for m = 1), memoized on
    (entries left, start, room)."""

    @cache
    def probes(left: int, start: int, room: int) -> int:
        if left == 1:
            return bisect.bisect_right(norms, room, start) - start
        count = 0
        for i in range(start, bisect.bisect_right(norms, room, start)):
            rest = room - norms[i]
            # the last entry is one bisection, not a cached call
            count += probes(left - 1, i, rest) if left > 2 else bisect.bisect_right(norms, rest, i) - i
        return count

    count = probes(m - 1, 0, limit) if m > 1 else 1
    # probes holds itself, and so its cache, in its closure
    del probes
    return count


def _walk(
    spec: SearchSpec, matcher: TargetMatcher, ball: list[tuple[int, ...]], norms: list[int], limit: int
) -> list[tuple[tuple[int, ...], ...]]:
    """The bundle tuples the matcher accepts: each nondecreasing index
    multiset of m - 1 ball vectors within the norm-sum cut, joined on p1 to
    a last vector and passed through the Euler prefilter."""
    ring = spec.ring
    tables = ring.tables
    p1 = tables.vector(matcher.p1, 2)
    squares = [tables.mul(1, vec, vec) for vec in ball]
    span = max(map(abs, p1), default=0) + spec.m * max(
        (abs(x) for vec in squares for x in vec), default=0
    )
    keys = [pack(vec, span) for vec in squares]
    del squares  # the keys hold all the walk needs of them
    table: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        table.setdefault(key, []).append(i)
    m, last = spec.m, spec.m - 1
    euler_targets = {tables.vector(matcher.euler, m), tables.vector(matcher.euler_neg, m)}
    raw: list[tuple[tuple[int, ...], ...]] = []

    def accept(head: tuple[tuple[int, ...], ...], hits: list[int]) -> None:
        for k in hits:
            vectors = head + (ball[k],)
            classes = tuple(ring.class_from_coeffs(vec) for vec in vectors)
            if matcher.match(LineBundleSum(ring, classes)).matched:
                raw.append(vectors)

    def walk(start: int, norm: int, residual: int, product: Vector) -> None:
        depth = len(prefix)
        # a solution's norms sum to exactly limit and never decrease along the
        # multiset, so each of the m - depth vectors still to place is within the cut
        cut = bisect.bisect_right(norms, (limit - norm) // (m - depth), start)
        if depth < last - 1:
            for i in range(start, cut):
                prefix.append(i)
                walk(i, norm + norms[i], residual - keys[i], tables.mul(depth, product, ball[i]))
                prefix.pop()
            return
        # the last prefix level: each step is one probe of the join
        for i in range(start, cut):
            hits = table.get(residual - keys[i])
            if hits is not None and hits[-1] >= i:
                hits = hits[bisect.bisect_left(hits, i):]
                vec = ball[i]
                head = tables.mul(depth, product, vec)
                hits = [k for k in hits if tables.mul(depth + 1, head, ball[k]) in euler_targets]
                if hits:
                    accept(tuple(ball[j] for j in prefix) + (vec,), hits)

    prefix: list[int] = []
    if last:
        walk(0, 0, pack(p1, span), tables.one)
    else:
        hits = table.get(pack(p1, span), [])
        accept((), [k for k in hits if tables.mul(0, tables.one, ball[k]) in euler_targets])
    # walk holds itself in its closure; without this the cycle keeps the
    # ball and the join alive until the cyclic collector runs
    del walk
    return raw


def enumerate_splittings(spec: SearchSpec) -> SearchCertificate:
    """Count the visits, then walk the ball, join on p1 and accept through charclass.

    `visited` is the cells of the per-bundle box (only the ball inside it
    is built) plus the probes of the join within the norm bound, counted
    up front, so it does not depend on the cut.  A search that needs more
    than `spec.budget` visits is refused without walking (and without the
    ball when the box alone is over): `visited == budget + 1`, no
    solutions, not exhaustive, and a note.  A ball of more than `MAX_BALL`
    vectors raises `BoundError`, as the budget bounds visits, not memory.
    """
    matcher = TargetMatcher(spec.ring, spec.targets)
    bounds = derive_bounds(spec)
    cells = math.prod(2 * b + 1 for b in bounds.per_variable)
    notes: list[str] = []
    if bounds.note:
        notes.append(bounds.note)
    if bounds.diagonal is None:
        weights, limit = [0] * len(bounds.per_variable), 0
    else:
        weights, limit = bounds.diagonal, bounds.constant
    flips = spec.targets.sign_flexible
    budget = spec.budget
    raw: list[tuple[tuple[int, ...], ...]] = []
    visited = cells
    if cells <= budget:
        norms, ball = _ellipsoid(bounds.per_variable, weights, limit, flips)
        if len(ball) > MAX_BALL:
            raise BoundError(f"the ball of the {cells}-cell box holds more than {MAX_BALL} vectors")
        order = sorted(range(len(ball)), key=norms.__getitem__)
        norms = [norms[i] for i in order]
        visited += count_probes(norms, spec.m, limit)
        if visited <= budget:
            raw = _walk(spec, matcher, [ball[i] for i in order], norms, limit)
    if visited > budget:
        visited = budget + 1
        notes.append(f"visit budget {budget} exhausted; enumeration incomplete")
    if not bounds.certified:
        notes.append("explicit bound not acknowledged; certificate is not exhaustive")
    canonical = {canonicalize_solution(sol, allow_sign_flips=flips) for sol in raw}
    return SearchCertificate(
        bound_type="explicit" if isinstance(spec.bound, ExplicitBound) else "sum_of_squares",
        per_variable_bounds=bounds.per_variable,
        visited=visited,
        solutions=tuple(sorted(canonical)),
        exhaustive=bounds.certified and visited <= budget,
        budget=spec.budget,
        diagonal=bounds.diagonal,
        constant=bounds.constant,
        notes=notes,
    )
