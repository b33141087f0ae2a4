"""Exact arithmetic in graded commutative rings presented by rewrite rules.

All rings handled here are generated in degree 2 and truncated above an even
top degree, so every element is a finite integer/rational combination of
monomials in the generators.  Relations are an ordered list of rewrite rules
``lhs -> rhs`` between classes of equal degree, with integer coefficients,
so the normal form of every monomial is integral.  Normal forms are
computed by repeatedly applying the first matching rule in document order.
Rules preserve degree, hence a reduction can only fail to terminate by
cycling, which is detected and reported.  Each ring indexes its rules
once, on first use, by the monomials of degree <= top_degree they rewrite
(`RingPresentation.rule_index`); reduction, `basis` and the confluence
check look rules up there and never scan the rule list.

Confluence is not assumed: it is checked exhaustively on the finite set of
monomials of degree <= top_degree.  Each monomial some rule rewrites is
reduced, so a cycle is found, and is stepped by every rule after the first
that applies there; each step's normal form must equal the monomial's.
The first rule's step needs no check, as it is the step the reduction
takes, and a monomial no rule rewrites has no step to check.  The check
raises its fault where it finds it, naming `ring.relations` and the
witness monomial: the reduction raises `DivergenceError` at the monomial
it re-enters, and the walk raises `ConfluenceError` with both normal forms.

Class arithmetic states its rule once: `_add_into` adds c * terms into a
dict accumulator and drops the monomials that cancel, and `_graded` turns
an accumulator into a `GradedClass` with integral values stored as ints.
Sums, differences, scalings, products and reductions all go through them.
Coefficients are ints or Fractions only; anything else raises `TypeError`.

Each ring also compiles itself once, on first use, into `RingTables`: a
class of degree 2k becomes its coefficient tuple over the degree-2k basis,
and multiplication by a degree-2 class is read off a table of the nonzero
entries of the memoized normal forms of monomial products, so every entry
is an int.  That table is the only one, and it has one product:
`RingTables.kernels`, the table turned into one straight-line Python
function per degree, compiled once per distinct table in a process
(`compile_kernels`).  The search and the genus integrator multiply
through the kernels, the search's bound reads the table's entries, and
the integrator's functionals go back a degree through the table's
transpose, `RingTables.dual_mul`; `ring_mul` on dicts stays the product
the acceptance rule uses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import comb
from operator import add, le

from .record import Frozen
from .report import CaseError, array, field, integer, integers, obj, string, terms

Monomial = tuple[int, ...]
# Exact rational coefficient.  Integral values are stored as plain ints,
# which share Fraction's numerator/denominator protocol and hashing but
# keep the common all-integer arithmetic fast.
Coeff = Fraction | int
# A homogeneous class as its coefficients over one degree's basis.
Vector = tuple[Coeff, ...]

# The rule index and the normal-form cache hold at most every monomial of
# degree <= top, of which n generators have comb(n + top/2, n); the largest
# built-in ring, r-p, has 20.
MAX_MONOMIALS = 10**5
# `monomials_of_degree` and the search's ellipsoid recurse once per
# generator, so the generator count is capped well below Python's
# recursion limit; the largest built-in ring has 3.
MAX_GENERATORS = 256
# The compiler recurses once per operator of a sum and refuses a few
# thousand, so a kernel adds a longer sum up in statements of this many terms.
KERNEL_SUM_TERMS = 64
# `compile_kernels` keeps this many tables' kernels: perfbench's search
# mix compiles 5 tables, its genus root sets 7 and its built-in verdicts 5
# (13 at most, one per ring document they parse).
KERNEL_CACHE_SIZE = 16


def _tighten(value: Coeff) -> Coeff:
    """Collapse an integral Fraction to a plain int."""
    # coefficients are plain ints or Fractions, never subclasses; isinstance
    # would consult the numbers ABCs for every int
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _exact(value: Coeff) -> Coeff:
    """An int or a Fraction; a float would carry its binary rounding into the class."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"class coefficients are ints or Fractions, got {type(value).__name__} {value!r}")


def _add_into(acc: dict[Monomial, Coeff], terms: Iterable[tuple[Monomial, Coeff]], factor: Coeff = 1) -> None:
    """acc += factor * terms; a monomial whose coefficient cancels leaves acc."""
    for mono, coeff in terms:
        value = acc.get(mono, 0) + factor * coeff
        if value:
            acc[mono] = value
        else:
            acc.pop(mono, None)


def _graded(acc: dict[Monomial, Coeff]) -> "GradedClass":
    """The class of an accumulator, taking it over, with integral values as ints."""
    for mono, value in acc.items():
        acc[mono] = _tighten(value)
    return GradedClass(acc)


class PresentationError(CaseError):
    """Raised when a ring document is malformed or its rules misbehave."""


class DivergenceError(PresentationError):
    """A reduction re-entered a monomial it was already rewriting."""

    def __init__(self, witness: Monomial, message: str):
        super().__init__(message)
        self.witness = witness


class ConfluenceError(PresentationError):
    """Two application orders produced distinct normal forms."""

    def __init__(self, witness: Monomial, forms: tuple["GradedClass", "GradedClass"], message: str):
        super().__init__(message)
        self.witness = witness
        self.forms = forms


class DegreeError(ValueError):
    """An operand has the wrong homogeneous degree."""


def monomial_degree(mono: Monomial) -> int:
    # generators all sit in degree 2
    return 2 * sum(mono)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(lhs: Monomial, mono: Monomial) -> bool:
    return all(map(le, lhs, mono))


def monomial_quotient(mono: Monomial, lhs: Monomial) -> Monomial:
    return tuple(m - l for m, l in zip(mono, lhs))


def monomials_of_degree(n_gens: int, total: int) -> Iterator[Monomial]:
    """All exponent vectors with the given exponent sum, ascending lex."""
    if n_gens == 0:
        if total == 0:
            yield ()
        return
    if n_gens == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in monomials_of_degree(n_gens - 1, total - head):
            yield (head,) + tail


class GradedClass(Frozen):
    """A finite rational combination of monomials.

    ``terms`` never stores zero coefficients.  Instances are immutable and
    ring-agnostic; the ring is supplied to the operations that need rules.
    Two classes are equal when their terms are, and hash alike then.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff]):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Monomial, Coeff]]) -> "GradedClass":
        acc: dict[Monomial, Coeff] = {}
        _add_into(acc, ((mono, _exact(coeff)) for mono, coeff in pairs))
        return _graded(acc)

    @staticmethod
    def zero() -> "GradedClass":
        return GradedClass({})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms, None for zero or mixed classes."""
        degrees = {monomial_degree(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def component(self, degree: int) -> "GradedClass":
        return GradedClass({m: c for m, c in self.terms.items() if monomial_degree(m) == degree})

    def degrees(self) -> list[int]:
        return sorted({monomial_degree(m) for m in self.terms})

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def coefficient(self, mono: Monomial) -> Coeff:
        return self.terms.get(mono, 0)

    def __hash__(self) -> int:
        # the one field is a dict, which does not hash
        return hash(frozenset(self.terms.items()))


class RewriteRule(Frozen):
    """The rule lhs -> rhs, between classes of one positive degree."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Monomial, rhs: GradedClass):
        lhs_deg = monomial_degree(lhs)
        # a rule for 1 would set 1 equal to its rhs, which can only be 0
        if not lhs_deg:
            raise PresentationError(f"rule lhs {lhs} is the constant monomial 1, which no rule may rewrite")
        for mono, coeff in rhs.terms.items():
            if monomial_degree(mono) != lhs_deg:
                raise PresentationError(
                    f"rule degree mismatch: lhs {lhs} has degree {lhs_deg}, "
                    f"rhs contains a monomial of degree {monomial_degree(mono)}"
                )
            # integral rules give integral products of basis monomials, and
            # the tables, the search and the integrator rely on it
            if coeff.denominator != 1:
                raise PresentationError(f"rule for {lhs}: rhs coefficient {coeff} is not an integer")
        if lhs in rhs.terms:
            raise PresentationError(f"rule lhs {lhs} occurs in its own rhs")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class RingPresentation:
    """Graded ring presented by degree-2 generators and rewrite rules."""

    def __init__(
        self,
        generators: Sequence[str],
        rules: Sequence[RewriteRule],
        top_degree: int,
    ):
        if len(set(generators)) != len(generators):
            raise PresentationError("generators: duplicate names")
        if not generators:
            raise PresentationError("generators: at least one required")
        if len(generators) > MAX_GENERATORS:
            raise PresentationError(
                f"generators: {len(generators)} generators is more than the "
                f"{MAX_GENERATORS} the ring's walks recurse through"
            )
        if top_degree < 0 or top_degree % 2:
            raise PresentationError(f"top_degree: must be even and nonnegative, got {top_degree}")
        self.generators = tuple(generators)
        self.rules = tuple(rules)
        self.top_degree = top_degree
        for rule in self.rules:
            if len(rule.lhs) != len(self.generators):
                raise PresentationError("relations: rule exponent vector length does not match generators")
        self._nf_cache: dict[Monomial, GradedClass] = {}
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}

    @cached_property
    def fundamental(self) -> Monomial:
        """The top degree's one basis monomial, which integrates to 1: the relations fix it."""
        top_basis = basis(self, self.top_degree)
        if len(top_basis) != 1:
            names = [self.format_monomial(m) for m in top_basis]
            raise PresentationError(f"ring.relations: top-degree basis {names} is not a single monomial")
        return top_basis[0]

    # -- monomial-level reduction ------------------------------------------

    @cached_property
    def rule_index(self) -> dict[Monomial, tuple[RewriteRule, ...]]:
        """The rules that apply at each monomial of degree <= top, built on first use.

        Walks the multiples lhs * q of each rule's lhs, in document order,
        up to the top degree, so each tuple keeps document order.  A monomial
        no rule divides is absent.
        """
        index: dict[Monomial, list[RewriteRule]] = {}
        n, top = len(self.generators), self.top_degree // 2
        for rule in self.rules:
            for half in range(top - sum(rule.lhs) + 1):
                for quotient in monomials_of_degree(n, half):
                    index.setdefault(monomial_mul(rule.lhs, quotient), []).append(rule)
        return {mono: tuple(rules) for mono, rules in index.items()}

    def _first_rule(self, mono: Monomial) -> RewriteRule | None:
        """The first rule in document order that applies at a monomial of degree <= top."""
        rules = self.rule_index.get(mono)
        return rules[0] if rules else None

    def reduce_monomial(self, mono: Monomial) -> GradedClass:
        """Normal form of a single monomial, memoized; cycles raise."""
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        return self._reduce(mono)

    def _reduce(self, mono: Monomial) -> GradedClass:
        """Rewrite on an explicit stack, so a long chain of rules is no deep recursion.

        A frame is a monomial its first rule rewrites: the quotient by the
        rule's lhs, the rhs terms still to reduce, the accumulator and the
        coefficient of the term being reduced.  The rhs terms are taken in
        order, so each normal form, the cache and the monomial a cycle
        re-enters (the `DivergenceError` witness) are those of reducing
        each term in turn by recursion.
        """
        cache = self._nf_cache
        in_progress: set[Monomial] = set()
        frames: list[list] = []
        while True:
            # resolve `mono`, or open a frame for it and leave result None
            if monomial_degree(mono) > self.top_degree:
                result = GradedClass.zero()
            elif (result := cache.get(mono)) is None:
                if mono in in_progress:
                    raise DivergenceError(
                        mono,
                        f"ring.relations: reduction of {self.format_monomial(mono)} cycles; "
                        "the rule list does not terminate",
                    )
                rule = self._first_rule(mono)
                if rule is None:
                    result = cache[mono] = GradedClass({mono: 1})
                else:
                    in_progress.add(mono)
                    quotient = monomial_quotient(mono, rule.lhs)
                    frames.append([mono, quotient, iter(rule.rhs.terms.items()), {}, 0])
            # add the result into the open frame, closing each frame whose rhs is done
            while frames:
                frame = frames[-1]
                if result is not None:
                    _add_into(frame[3], result.terms.items(), frame[4])
                step = next(frame[2], None)
                if step is not None:
                    rmono, frame[4] = step
                    mono = monomial_mul(rmono, frame[1])
                    break
                frames.pop()
                in_progress.discard(frame[0])
                result = cache[frame[0]] = _graded(frame[3])
            else:
                return result

    def one_step(self, mono: Monomial, rule: RewriteRule) -> GradedClass:
        """Apply a single rule once at the given monomial (no recursion)."""
        if not monomial_divides(rule.lhs, mono):
            raise ValueError("rule does not apply")
        quotient = monomial_quotient(mono, rule.lhs)
        return GradedClass.from_terms(
            (monomial_mul(rmono, quotient), rcoeff) for rmono, rcoeff in rule.rhs.terms.items()
        )

    # -- formatting ---------------------------------------------------------

    def format_monomial(self, mono: Monomial) -> str:
        if not any(mono):
            return "1"
        parts = []
        for name, exp in zip(self.generators, mono):
            if exp == 1:
                parts.append(name)
            elif exp > 1:
                parts.append(f"{name}^{exp}")
        return "*".join(parts)

    def format_class(self, c: GradedClass) -> str:
        if c.is_zero():
            return "0"
        bits = []
        for mono in sorted(c.terms):
            coeff = c.terms[mono]
            mstr = self.format_monomial(mono)
            if mstr == "1":
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append(mstr)
            elif coeff == -1:
                bits.append(f"-{mstr}")
            else:
                bits.append(f"{coeff}*{mstr}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    # -- conveniences -------------------------------------------------------

    def one(self) -> GradedClass:
        return GradedClass({(0,) * len(self.generators): 1})

    @cached_property
    def tables(self) -> "RingTables":
        """The ring's compiled multiplication, built on first use."""
        return RingTables(self)

    def class_from_coeffs(self, coeffs: Sequence[int | Fraction]) -> GradedClass:
        """Degree-2 class with the given coordinates in the degree-2 basis."""
        b2 = self.tables.bases[1]
        if len(coeffs) != len(b2):
            raise ValueError(f"expected {len(b2)} coefficients, got {len(coeffs)}")
        return GradedClass.from_terms(zip(b2, coeffs))


def normal_form(ring: RingPresentation, c: GradedClass) -> GradedClass:
    acc: dict[Monomial, Coeff] = {}
    for mono, coeff in c.terms.items():
        if len(mono) != len(ring.generators):
            raise ValueError("class does not live over this ring's generators")
        _add_into(acc, ring.reduce_monomial(mono).terms.items(), coeff)
    return _graded(acc)


def ring_add(a: GradedClass, b: GradedClass) -> GradedClass:
    acc = dict(a.terms)
    _add_into(acc, b.terms.items())
    return _graded(acc)


def ring_sub(a: GradedClass, b: GradedClass) -> GradedClass:
    acc = dict(a.terms)
    _add_into(acc, b.terms.items(), -1)
    return _graded(acc)


def ring_scale(r: Coeff, a: GradedClass) -> GradedClass:
    acc: dict[Monomial, Coeff] = {}
    _add_into(acc, a.terms.items(), _exact(r))
    return _graded(acc)


def ring_mul(ring: RingPresentation, a: GradedClass, b: GradedClass) -> GradedClass:
    acc: dict[Monomial, Coeff] = {}
    top = ring.top_degree
    reduce_monomial = ring.reduce_monomial
    for ma, ca in a.terms.items():
        if len(ma) != len(ring.generators):
            raise ValueError("class does not live over this ring's generators")
        deg_a = sum(ma)
        for mb, cb in b.terms.items():
            if deg_a + sum(mb) <= top:
                _add_into(acc, reduce_monomial(monomial_mul(ma, mb)).terms.items(), ca * cb)
    return _graded(acc)


def integrate(ring: RingPresentation, c: GradedClass) -> Fraction:
    """Coefficient of the fundamental monomial in the normal form of c."""
    nf = normal_form(ring, c)
    if nf.is_zero():
        return Fraction(0)
    deg = nf.homogeneous_degree()
    if deg != ring.top_degree:
        raise DegreeError(
            f"integrate needs a class of degree {ring.top_degree}, got degree(s) {nf.degrees()}"
        )
    return nf.coefficient(ring.fundamental)


def basis(ring: RingPresentation, degree: int) -> list[Monomial]:
    """Irreducible monomials of the given degree, ascending lex order.

    Computed once per ring and degree; each call returns a fresh list.
    """
    if degree % 2 or degree < 0 or degree > ring.top_degree:
        raise DegreeError(f"degree must be even in [0, {ring.top_degree}], got {degree}")
    cached = ring._basis_cache.get(degree)
    if cached is None:
        cached = ring._basis_cache[degree] = tuple(
            mono
            for mono in monomials_of_degree(len(ring.generators), degree // 2)
            if mono not in ring.rule_index
        )
    return list(cached)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def compile_kernels(terms: tuple, sizes: tuple[int, ...]) -> tuple[Callable[[Vector, Vector], Vector], ...]:
    """The product at each degree of a table as one straight-line function.

    `terms` is `RingTables.terms` and `sizes` the lengths of its bases; the
    kernels depend on nothing else, so rings with equal tables share them.
    Kernel k takes a over basis k and b over basis 1, unpacks both to
    locals and returns, for each t, the sum of a_i * b_j * z over the
    (i, j, t, z) in `terms[k]`.  All degrees come from one `compile()`,
    and degrees with equal bodies share a function.  Only indices and
    names reach the source: each z other than 1 and -1 is a closure
    variable of the function that makes the kernels, so no int is ever
    formatted (`str` refuses one of more than 4,300 digits).  A miss costs
    0.15-0.25 ms for a built-in ring, and 1.3 s and 370 MB of peak memory
    for one of 95,284 monomials (CPython 3.11, a shared 2-vCPU host).
    """
    names: dict[int, str] = {}  # each coefficient other than +-1 -> its variable
    bodies: dict[str, str] = {}  # each kernel body -> its function's name
    picks = []
    for k, entries in enumerate(terms):
        sums: list[list[str]] = [[] for _ in range(sizes[k + 1])]
        for i, j, t, z in entries:
            if z == 1 or z == -1:
                sums[t].append(f"{'+' if z > 0 else '-'}a{i}*b{j}")
            else:
                sums[t].append(f"+a{i}*b{j}*{names.setdefault(z, f'z{len(names)}')}")
        lines = []
        if entries:
            lines.append("".join(f"a{i}," for i in range(sizes[k])) + "=a")
            lines.append("".join(f"b{j}," for j in range(sizes[1])) + "=b")
        outputs = []
        for t, parts in enumerate(sums):
            if len(parts) <= KERNEL_SUM_TERMS:
                outputs.append("".join(parts).removeprefix("+") or "0")
                continue
            for c in range(0, len(parts), KERNEL_SUM_TERMS):
                chunk = "".join(parts[c:c + KERNEL_SUM_TERMS]).removeprefix("+")
                lines.append(f"o{t}{'+=' if c else '='}{chunk}")
            outputs.append(f"o{t}")
        lines.append(f"return ({''.join(out + ',' for out in outputs)})")
        body = "".join(f"\n  {line}" for line in lines)
        picks.append(bodies.setdefault(body, f"k{len(bodies)}"))
    source = (
        f"def kernels({','.join(names.values())}):"
        + "".join(f"\n def {name}(a,b):{body}" for body, name in bodies.items())
        + f"\n return ({''.join(name + ',' for name in picks)})"
    )
    namespace: dict = {}
    exec(compile(source, "<RingTables.kernels>", "exec"), namespace)
    return namespace["kernels"](*names)


class RingTables:
    """Multiplication by the degree-2 coordinates, compiled to its nonzero entries.

    `bases[k]` is the basis of degree 2k, for k up to max(top/2, 2) so that
    the degree-4 basis always exists; above the top degree it is empty.
    `terms[k]` lists each (i, j, t, z) with z != 0 the coefficient of
    `bases[k + 1][t]` in `bases[k][i] * bases[1][j]`, read off the memoized
    normal form of that monomial product; the rules are integral, so z
    is an int.  A class of degree 2k is its tuple over `bases[k]`, and
    every degree past the tables is the empty tuple.  A product of normal
    forms is linear in both factors, so `kernels[k]` equals `ring_mul` on
    tuples.  The kernels are the one product; `dual_mul`, its transpose,
    and `mul_norm` read the entries themselves.
    """

    def __init__(self, ring: RingPresentation):
        depth = max(ring.top_degree // 2, 2)
        self.bases = [
            basis(ring, 2 * k) if 2 * k <= ring.top_degree else [] for k in range(depth + 1)
        ]
        self.terms: list[tuple[tuple[int, int, int, int], ...]] = []
        for k in range(depth):
            index = {mono: t for t, mono in enumerate(self.bases[k + 1])}
            self.terms.append(tuple(
                (i, j, index[mono], z)
                for i, a in enumerate(self.bases[k])
                for j, c in enumerate(self.bases[1])
                for mono, z in ring.reduce_monomial(monomial_mul(a, c)).terms.items()
            ))
        self.one = self.vector(ring.one(), 0)

    def vector(self, cls: GradedClass, k: int) -> Vector:
        """Coefficients of a normal form of degree 2k over `bases[k]`."""
        if k >= len(self.bases):
            return ()
        return tuple(cls.coefficient(mono) for mono in self.bases[k])

    @cached_property
    def kernels(self) -> tuple[Callable[[Vector, Vector], Vector], ...]:
        """`kernels[k](a, b)`, for k < len(terms), is the tuple of a * b for a
        over `bases[k]` and b over `bases[1]`: `compile_kernels` of this
        table, so a table seen before in the process costs no compile."""
        return compile_kernels(tuple(self.terms), tuple(map(len, self.bases)))

    def dual_mul(self, k: int, w: Vector, b: Vector) -> Vector:
        """The functional v -> w(v * b) over `bases[k]`, for w over `bases[k + 1]`.

        The transpose of `kernels[k]` through the same entries: the dot
        product of the result with a equals that of w with `kernels[k](a, b)`.
        """
        if k >= len(self.terms):
            return ()
        out = [0] * len(self.bases[k])
        for i, j, t, z in self.terms[k]:
            out[i] += w[t] * b[j] * z
        return tuple(out)

    @cached_property
    def mul_norm(self) -> int:
        """tau, the largest l1 norm of a product of basis elements, built on first use.

        `bases[k][i] * bases[1][j]` has l1 norm sum |z| over the (i, j, t, z)
        in `terms[k]`, and each product `kernels[k](a, b)` is sum_i,j a_i b_j
        times that one, so its l1 norm is at most tau * |a|_1 * |b|_1.
        """
        norms: dict[tuple[int, int, int], int] = {}
        for k, terms in enumerate(self.terms):
            for i, j, _, z in terms:
                norms[k, i, j] = norms.get((k, i, j), 0) + abs(z)
        return max(norms.values(), default=0)


def check_confluence(ring: RingPresentation) -> None:
    """Exhaustively verify one normal form per monomial of degree <= top.

    For every monomial and every applicable rule, the deterministic normal
    form of the one-step rewrite must agree with the deterministic normal
    form of the monomial itself.  On the finite, degree-preserving system
    this pins down a unique normal form under any application order.

    The walk visits the monomials of `ring.rule_index` in degree, then
    ascending lex order, and reduces each one, so a cycling rule list
    raises the reduction's `DivergenceError` at the monomial it re-enters.
    Only the second and later applicable rules are stepped: the first
    rule's step, reduced, is by construction what the reduction computes,
    so it cannot disagree; and an irreducible monomial has no rule to
    check.  A step with another normal form raises `ConfluenceError` with
    the monomial and both forms.  Witnesses and messages are those of the
    walk over every monomial and every rule.
    """
    index = ring.rule_index
    for mono in sorted(index, key=lambda mono: (sum(mono), mono)):
        reference = ring.reduce_monomial(mono)
        for rule in index[mono][1:]:
            stepped = normal_form(ring, ring.one_step(mono, rule))
            if stepped != reference:
                raise ConfluenceError(
                    mono,
                    (reference, stepped),
                    f"ring.relations: presentation is not confluent: monomial "
                    f"{ring.format_monomial(mono)} has normal forms "
                    f"{ring.format_class(reference)} and {ring.format_class(stepped)}",
                )


def _read_presentation(doc) -> RingPresentation:
    """The ring a document describes, before any check of its rewriting.

    Every error is a `CaseError` naming its field; `parse_presentation`
    turns each into a `PresentationError`.
    """
    doc = obj(doc, "ring")
    generators = field(doc, "generators", "ring", partial(array, item=string))
    if not generators:
        raise CaseError("ring.generators: expected at least one name")
    n = len(generators)
    rules = []
    for i, rel in enumerate(field(doc, "relations", "ring", partial(array, item=obj))):
        where = f"ring.relations[{i}]"
        lhs = field(rel, "lhs", where, partial(integers, length=n, low=0))
        rhs = field(rel, "rhs", where, partial(terms, n=n, coefficient=integer))
        try:
            rules.append(RewriteRule(lhs=lhs, rhs=GradedClass.from_terms(rhs)))
        except PresentationError as exc:
            raise CaseError(f"{where}: {exc}") from exc
    top_degree = field(doc, "top_degree", "ring", integer)
    try:
        return RingPresentation(generators, rules, top_degree)
    except PresentationError as exc:
        raise CaseError(f"ring.{exc}") from exc


def parse_presentation(doc: Mapping) -> RingPresentation:
    """Build and validate a ring from its JSON case-document form.

    Expected shape::

        {"generators": ["u", "v"],
         "relations": [{"lhs": [2, 0], "rhs": [[1, [0, 2]]]}, ...],
         "top_degree": 4}

    Every error message names the offending field of the case document's
    ``ring`` section, e.g. ``ring.relations[0].lhs``.  Each is a
    `PresentationError`, the readers' type errors included.  The rewriting
    is checked by `check_confluence`, whose errors pass through as raised:
    a rule list whose reduction cycles is a `DivergenceError`, and a
    monomial with two normal forms a `ConfluenceError`.  The fundamental
    monomial is derived, never read: `RingPresentation.fundamental`.
    """
    try:
        ring = _read_presentation(doc)
    except CaseError as exc:
        raise PresentationError(str(exc)) from exc
    n, top_degree = len(ring.generators), ring.top_degree
    monomials = comb(n + top_degree // 2, n)
    if monomials > MAX_MONOMIALS:
        raise PresentationError(
            f"ring.top_degree: {top_degree} over {n} generators gives {monomials} monomials "
            f"of degree <= top, more than the {MAX_MONOMIALS} the confluence check walks"
        )
    check_confluence(ring)
    ring.fundamental  # derived here, so a parsed ring has one
    return ring
