"""Weyl-dimension catalogs for Spin(2m+1), SU(2) and circle factors, plus the
representation-dimension obstruction engine.

Dimensions come from the Weyl formula evaluated in exact integers: B_m
weights are written in doubled e-coordinates, a = 2(lambda + rho), so every
factor of the product is an integer, and one exact division by the same
product over 2 rho gives the dimension.  Field types (real / complex /
quaternionic) are computed from the Frobenius-Schur indicator: for the
self-dual B_m irreps the indicator is (-1)^<lambda, 2 rho-check>, which
reduces to the familiar rules (exterior powers real; half-spin real iff
2m+1 = +-1 mod 8).  SU(2) is Spin(3), so A_1 takes the B_1 formulas: the
weight w has dimension w + 1 and is real iff w is even.  Circle
representations are the reconstructed catalog of 2-dimensional rotations
plus the trivial representation; they carry a complex structure.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence

from .genus import hirzebruch_congruence
from .record import Frozen, Record

REAL = "real"
COMPLEX = "complex"
QUATERNIONIC = "quaternionic"

# Circle catalogs list the rotation weights 0 .. MAX_CIRCLE_WEIGHT only.
MAX_CIRCLE_WEIGHT = 1
# Each Weyl dimension of B_m is a product over its m^2 positive roots, so a
# catalog's cost grows about as m^4: with CPython 3.11 on a 2-core host,
# B_32's builds in 7 ms and B_100's in 1 s.  The largest built-in rank is 5.
MAX_RANK = 32
# The obstruction builds every product of one irrep per factor, then walks
# every multiset of the kept products; both are counted first and capped.
# The built-ins build at most 30 products and walk at most 174 multisets;
# five SU(2) factors in dimension 20 would build 759,375 products, and
# SU(2) x Spin(11) in dimension 60 has 105,159 multisets.  The multiset cap
# bounds the walk's time and its in-memory traces: with CPython 3.11 on a
# 2-core host, that case is refused in 2 ms, where its walk would take
# 0.7-0.9 s and hold about 26 MB of traces.
MAX_PRODUCTS = 10_000
MAX_MULTISETS = 10_000


class CatalogError(ValueError):
    """A catalog cannot certify completeness for the requested bound."""


class RootSystem(Frozen):
    """Type B_m (Spin(2m+1)), A_1 (SU(2)), or T (circle, reconstructed)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in ("A", "B", "T"):
            raise ValueError(f"family: unsupported family {family!r}")
        if family in ("A", "T") and rank != 1:
            raise ValueError(f"rank: family {family} requires rank 1")
        if family == "B" and rank < 1:
            raise ValueError("rank: B_m requires rank >= 1")
        if rank > MAX_RANK:
            raise ValueError(f"rank: {rank} is more than the {MAX_RANK} the catalog walks")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @property
    def group_name(self) -> str:
        if self.family == "A":
            return "SU(2)"
        if self.family == "T":
            return "S^1"
        return f"Spin({2 * self.rank + 1})"


def _check_weight(rs: RootSystem, weight: Sequence[int]) -> tuple[int, ...]:
    """The weight as a tuple, once it is dominant and has the family's length."""
    weight = tuple(weight)
    if any(w < 0 for w in weight):
        raise ValueError(f"weight {weight} is not dominant")
    if len(weight) != rs.rank:  # A_1 and circle weights have rank 1 too
        raise ValueError(f"{rs.group_name} weights have length {rs.rank}, got {weight}")
    return weight


def _b_doubled_coordinates(weight: tuple[int, ...]) -> list[int]:
    """2 lambda in e-coordinates for a B_m weight in fundamental-weight coefficients.

    Entry i is w_{m-1} + 2 (w_i + ... + w_{m-2}): the last fundamental weight
    is (1/2, ..., 1/2), the others are e_1 + ... + e_{k+1}.
    """
    coords = list(weight)
    total = coords[-1]
    for i in range(len(coords) - 2, -1, -1):
        total += 2 * coords[i]
        coords[i] = total
    return coords


def _b_weyl_product(a: Sequence[int]) -> int:
    """Product over the positive roots of B_m: (a_i - a_j)(a_i + a_j) for i < j, and a_i."""
    product = 1
    for i, ai in enumerate(a):
        product *= ai
        for aj in a[i + 1:]:
            product *= (ai - aj) * (ai + aj)
    return product


@functools.cache
def _b_weyl_denominator(rank: int) -> int:
    """The Weyl product at 2 rho, the same for every weight of B_rank."""
    return _b_weyl_product(range(2 * rank - 1, 0, -2))


# A checked weight with its irrep's complex dimension and Frobenius-Schur type.
WeylData = tuple[tuple[int, ...], int, str]


def _weyl_data(rs: RootSystem, weight: Sequence[int]) -> WeylData:
    """The checked weight, the complex dimension and the Frobenius-Schur type
    of its irrep, from one check and one doubling of the weight."""
    weight = _check_weight(rs, weight)
    if rs.family == "T":
        return weight, 1, REAL if weight[0] == 0 else COMPLEX
    doubled = _b_doubled_coordinates(weight)
    # 2 rho = (2m - 1, 2m - 3, ..., 1); both products carry the same number
    # of factors, so doubling every coordinate leaves their quotient alone
    two_rho = range(2 * rs.rank - 1, 0, -2)
    num = _b_weyl_product([lam + r for lam, r in zip(doubled, two_rho)])
    den = _b_weyl_denominator(rs.rank)
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl dimension for {weight} came out non-integral: {num}/{den}")
    # <lambda, sum of positive coroots> = sum_i (m - i + 1) * (2 lambda_i)
    pairing = sum((rs.rank - i) * d for i, d in enumerate(doubled))
    return weight, dim, REAL if pairing % 2 == 0 else QUATERNIONIC


def fs_indicator(ftype: str) -> int:
    return {REAL: 1, COMPLEX: 0, QUATERNIONIC: -1}[ftype]


def _real_dim(complex_dim: int, ftype: str) -> int:
    return complex_dim if ftype == REAL else 2 * complex_dim


def _b_weight_name(rank: int, weight: tuple[int, ...]) -> str | None:
    nonzero = [(i, w) for i, w in enumerate(weight) if w]
    if not nonzero:
        return "1"
    if len(nonzero) == 1:
        i, w = nonzero[0]
        if w == 1 and i < rank - 1:
            return f"L^{i + 1}"
        if i == rank - 1 and w == 1:
            return "D"
        if i == rank - 1 and w == 2:
            return f"L^{rank}"
    return None


class Irrep(Frozen):
    __slots__ = ("rs", "highest_weight", "complex_dim", "field_type", "real_dim", "name")

    def __init__(
        self,
        rs: RootSystem,
        highest_weight: tuple[int, ...],
        complex_dim: int,
        field_type: str,
        real_dim: int,
        name: str,
    ):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "highest_weight", highest_weight)
        object.__setattr__(self, "complex_dim", complex_dim)
        object.__setattr__(self, "field_type", field_type)
        object.__setattr__(self, "real_dim", real_dim)
        object.__setattr__(self, "name", name)

    @staticmethod
    def build(rs: RootSystem, weight: Sequence[int]) -> "Irrep":
        """The irrep of a dominant weight."""
        return Irrep._of(rs, *_weyl_data(rs, weight))

    @staticmethod
    def _of(rs: RootSystem, weight: tuple[int, ...], cdim: int, ftype: str) -> "Irrep":
        """The irrep of a checked weight, given its dimension and type."""
        if rs.family == "A":
            name = f"W{cdim}"
        elif rs.family == "T":
            name = "1" if weight[0] == 0 else f"rot{weight[0]}"
        else:
            name = _b_weight_name(rs.rank, weight) or "wt" + "".join(str(w) for w in weight)
        return Irrep(
            rs=rs,
            highest_weight=weight,
            complex_dim=cdim,
            field_type=ftype,
            real_dim=_real_dim(cdim, ftype),
            name=name,
        )


class IrrepCatalog(Frozen):
    __slots__ = ("rs", "dim_bound", "entries")

    def __init__(self, rs: RootSystem, dim_bound: int, entries: tuple[Irrep, ...]):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "dim_bound", dim_bound)
        object.__setattr__(self, "entries", entries)


def _enumerate_weights(rs: RootSystem, cdim_bound: int) -> Iterator[WeylData]:
    """All dominant weights with complex dimension <= cdim_bound, each with
    that dimension and its irrep's type.

    The Weyl dimension is strictly increasing along each coordinate ray (each
    numerator factor is positive and nondecreasing, at least one strictly),
    so depth-first search with a per-coordinate cutoff is exhaustive.  The
    monotonicity is asserted along the way rather than assumed.  Each
    candidate is a whole weight, prefix + [value] + zeros, and `data` is
    its `_weyl_data`; the first candidate of a level, value 0, is the one
    that led there, so its data is handed down, and every weight is
    evaluated once.
    """
    rank = rs.rank

    def extend(prefix: list[int], index: int, data: WeylData) -> Iterator[WeylData]:
        if index == rank:
            yield data
            return
        tail = [0] * (rank - index - 1)
        value = 0
        previous = None
        while True:
            if value:
                # by module attribute, so a test can swap in the Fraction oracle
                data = _weyl_data(rs, prefix + [value] + tail)
            dim = data[1]
            if previous is not None and dim < previous:
                raise AssertionError("Weyl dimension decreased along a coordinate ray")
            previous = dim
            if dim > cdim_bound:
                return
            yield from extend(prefix + [value], index + 1, data)
            value += 1

    yield from extend([], 0, _weyl_data(rs, [0] * rank))


def catalog_irreps(rs: RootSystem, dim_bound: int) -> IrrepCatalog:
    """Every irrep with real dimension <= dim_bound.

    Completeness: any weight not visited has complex dimension > dim_bound,
    hence real dimension > dim_bound.  Circle catalogs are infinite in
    principle (all rotation weights share real dimension 2); only weights up
    to MAX_CIRCLE_WEIGHT are listed and the catalog is flagged reconstructed
    by its root system family.

    Every catalog holds the trivial irrep, so one with more than
    MAX_PRODUCTS entries gives more products than the obstruction builds,
    whatever the other factors: the walk stops at the first entry past the
    cap and raises `CatalogError` naming `factors`.
    """
    if dim_bound < 1:
        raise CatalogError("dim_bound must be >= 1")
    if rs.family == "T":
        evaluated = (_weyl_data(rs, (w,)) for w in range(MAX_CIRCLE_WEIGHT + 1))
    else:
        evaluated = _enumerate_weights(rs, dim_bound)
    irreps = (Irrep._of(rs, *data) for data in evaluated)
    kept = (irrep for irrep in irreps if irrep.real_dim <= dim_bound)
    entries = list(itertools.islice(kept, MAX_PRODUCTS + 1))
    if len(entries) > MAX_PRODUCTS:
        raise CatalogError(
            f"factors: the {rs.group_name} catalog alone gives more than {MAX_PRODUCTS} "
            f"products, the most the obstruction builds"
        )
    entries.sort(key=lambda e: (e.real_dim, e.highest_weight))
    return IrrepCatalog(rs=rs, dim_bound=dim_bound, entries=tuple(entries))


class ProductIrrep(Frozen):
    """External tensor product of one irrep per factor group."""

    __slots__ = ("components", "complex_dim", "field_type", "real_dim", "name")

    def __init__(self, components: tuple[Irrep, ...], complex_dim: int, field_type: str, real_dim: int, name: str):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "complex_dim", complex_dim)
        object.__setattr__(self, "field_type", field_type)
        object.__setattr__(self, "real_dim", real_dim)
        object.__setattr__(self, "name", name)

    @staticmethod
    def build(components: Sequence[Irrep]) -> "ProductIrrep":
        cdim = 1
        indicator = 1
        for c in components:
            cdim *= c.complex_dim
            indicator *= fs_indicator(c.field_type)
        ftype = {1: REAL, 0: COMPLEX, -1: QUATERNIONIC}[indicator]
        return ProductIrrep(
            components=tuple(components),
            complex_dim=cdim,
            field_type=ftype,
            real_dim=_real_dim(cdim, ftype),
            name="x".join(c.name for c in components),
        )


class ObstructionCase(Record):
    """A manifold of dimension `manifold_dim` with Euler characteristic `chi`
    and signature `sigma`; both filter switches are derived from these."""

    __slots__ = ("factors", "manifold_dim", "chi", "sigma", "provenance")

    def __init__(self, factors: tuple[RootSystem, ...], manifold_dim: int, chi: int, sigma: int, provenance: str = ""):
        if manifold_dim <= 0 or manifold_dim % 2:
            raise ValueError(f"manifold_dim: expected an even positive integer, got {manifold_dim}")
        self.factors = factors
        self.manifold_dim = manifold_dim
        self.chi = chi
        self.sigma = sigma
        self.provenance = provenance

    @property
    def euler_nonzero(self) -> bool:
        """F1's switch: the Euler class integrates to chi, so it is nonzero iff chi is."""
        return self.chi != 0

    @property
    def almost_complex_forbidden(self) -> bool:
        """F2's switch: no almost complex structure in either orientation.

        F2 rejects a multiset whose summands all carry complex structures,
        which would make TM complex for some orientation.  Reversing the
        orientation negates sigma, so the congruence must fail for sigma and
        for -sigma; in a dimension not divisible by 4 it says nothing.
        """
        if self.manifold_dim % 4:
            return False
        m = self.manifold_dim // 4
        return not (hirzebruch_congruence(self.chi, self.sigma, m)
                    or hirzebruch_congruence(self.chi, -self.sigma, m))


class MultisetTrace(Record):
    """One multiset and the filter that rejected it.

    `summands` holds (catalog entry, multiplicity) pairs, with positive
    counts, in catalog order.
    """

    __slots__ = ("summands", "rejected_by", "detail")

    def __init__(self, summands: tuple[tuple[ProductIrrep, int], ...], rejected_by: str | None, detail: str):
        self.summands = summands
        self.rejected_by = rejected_by  # "F1", "F2", or None when the multiset survives
        self.detail = detail


class ObstructionResult(Record):
    __slots__ = ("verdict", "traces", "product_entries")

    def __init__(self, verdict: str, traces: list[MultisetTrace], product_entries: list[ProductIrrep]):
        self.verdict = verdict  # "NO-VALID-V" or "VALID-V-EXISTS"
        self.traces = traces
        self.product_entries = product_entries


def product_catalog(case: ObstructionCase) -> list[ProductIrrep]:
    """All external tensor products with real dimension <= manifold_dim.

    Raises `ValueError` naming `factors` when the catalogs would give more
    than MAX_PRODUCTS products to build.
    """
    per_factor = [catalog_irreps(rs, case.manifold_dim) for rs in case.factors]
    products = math.prod(len(c.entries) for c in per_factor)
    if products > MAX_PRODUCTS:
        raise ValueError(
            f"factors: the catalogs give {products} products, "
            f"more than the {MAX_PRODUCTS} the obstruction builds"
        )
    out = []
    for combo in itertools.product(*(c.entries for c in per_factor)):
        prod = ProductIrrep.build(combo)
        if prod.real_dim <= case.manifold_dim:
            out.append(prod)
    out.sort(key=lambda p: (p.real_dim, tuple(c.highest_weight for c in p.components)))
    return out


def obstruct_tangent_rep(case: ObstructionCase) -> ObstructionResult:
    """Decide whether any isotropy representation could carry the tangent bundle.

    Every multiset of product irreps with total real dimension equal to the
    manifold dimension is enumerated, as (catalog entry, multiplicity) pairs,
    by one walk over (catalog index, remaining dimension).  Each entry's count
    runs from the largest that fits down to 1, each time followed by the walk
    over the later entries, so only positive counts appear, in catalog order,
    and the multisets come in the lexicographic order of their nondecreasing
    index sequences.  The walk enters a branch only when `fits[i][r]` says
    that r is a sum of the real dimensions of entries i and later, with
    repetition, so every branch it enters closes in at least one multiset.
    The multisets, one trace each, are counted before the walk: more than
    MAX_MULTISETS raises `ValueError` naming `manifold_dim`, at once when
    the first two entries alone give that many.

    Filter F1 (a nonvanishing Euler class forbids odd-dimensional summands) is
    applied first and names the first odd-dimensional entry in catalog order;
    survivors meet filter F2 (a manifold with no almost complex structure, in
    either orientation, cannot have a tangent representation all of whose
    summands carry complex structures).  The walk carries both down: the F1
    detail of the first odd entry chosen, and whether every entry so far is
    complex or quaternionic.
    Exactly one filter is cited per rejected multiset.
    """
    entries = product_catalog(case)
    total = case.manifold_dim
    dims = [p.real_dim for p in entries]
    too_many = (
        f"manifold_dim: more than {MAX_MULTISETS} multisets of dimension {total}, "
        f"the most the obstruction walks"
    )
    # the trivial product (real dimension 1) and the next entry mix in any
    # proportion, so a large dimension is refused before the count row is built
    if len(dims) > 1 and total // dims[1] + 1 > MAX_MULTISETS:
        raise ValueError(too_many)
    # count first, in one row that only grows with each entry, so that a
    # large dimension is refused before the (entries x dimension) table
    ways = [1] + [0] * total
    for dim in dims:
        for r in range(dim, total + 1):
            ways[r] += ways[r - dim]
        if ways[total] > MAX_MULTISETS:
            raise ValueError(too_many)
    fits = [[False] * (total + 1) for _ in range(len(entries) + 1)]
    fits[-1][0] = True
    for i in range(len(entries) - 1, -1, -1):
        row, later, dim = fits[i], fits[i + 1], dims[i]
        for r in range(total + 1):
            row[r] = later[r] or (r >= dim and row[r - dim])
    # the F1 detail of each odd-dimensional entry, or None: built once per entry
    f1 = case.euler_nonzero
    odd_detail = [
        f"odd-dimensional summand {p.name} (real dim {p.real_dim}) forces a vanishing Euler class"
        if f1 and p.real_dim % 2 else None
        for p in entries
    ]
    complex_like = [p.field_type in (COMPLEX, QUATERNIONIC) for p in entries]
    f2 = case.almost_complex_forbidden
    f2_detail = (
        "every summand carries a complex structure, contradicting the almost-complex obstruction"
    )
    traces: list[MultisetTrace] = []
    chosen: list[tuple[ProductIrrep, int]] = []

    def walk(start: int, remaining: int, f1_detail: str | None, all_complex: bool) -> None:
        if remaining == 0:
            if f1_detail is not None:
                trace = MultisetTrace(tuple(chosen), "F1", f1_detail)
            elif f2 and all_complex:
                trace = MultisetTrace(tuple(chosen), "F2", f2_detail)
            else:
                trace = MultisetTrace(tuple(chosen), None, "no filter applies")
            traces.append(trace)
            return
        for idx in range(start, len(entries)):
            if not fits[idx][remaining]:
                return  # then fits[j][remaining] is false for every j > idx too
            entry, dim, later = entries[idx], dims[idx], fits[idx + 1]
            detail = f1_detail if f1_detail is not None else odd_detail[idx]
            still_complex = all_complex and complex_like[idx]
            for count in range(remaining // dim, 0, -1):
                rest = remaining - count * dim
                if later[rest]:
                    chosen.append((entry, count))
                    walk(idx + 1, rest, detail, still_complex)
                    chosen.pop()

    walk(0, total, None, True)
    # walk's closure holds walk itself; without this the cycle would keep
    # `traces` alive until the cyclic collector runs
    del walk
    any_valid = any(t.rejected_by is None for t in traces)
    verdict = "VALID-V-EXISTS" if any_valid else "NO-VALID-V"
    return ObstructionResult(verdict=verdict, traces=traces, product_entries=entries)
