"""Exact arithmetic in graded commutative rings presented by rewrite rules.

All rings handled here are generated in degree 2 and truncated above an even
top degree, so every element is a finite integer/rational combination of
monomials in the generators.  Relations are an ordered list of rewrite rules
``lhs -> rhs`` between classes of equal degree; normal forms are computed by
repeatedly applying the first matching rule in document order.  Rules preserve
degree, hence a reduction can only fail to terminate by cycling, which is
detected and reported.  Confluence is not assumed: it is checked exhaustively
on the finite set of monomials of degree <= top_degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]
# Exact rational coefficient.  Integral values are stored as plain ints,
# which share Fraction's numerator/denominator protocol and hashing but
# keep the common all-integer arithmetic fast.
Coeff = Fraction | int

# The confluence check walks and caches every monomial of degree <= top, of
# which n generators have comb(n + top/2, n); the largest built-in ring, r-p,
# has 20.
MAX_MONOMIALS = 10**5


def _tighten(value: Coeff) -> Coeff:
    """Collapse an integral Fraction to a plain int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


class PresentationError(ValueError):
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
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(lhs: Monomial, mono: Monomial) -> bool:
    return all(l <= m for l, m in zip(lhs, mono))


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


@dataclass(frozen=True)
class GradedClass:
    """A finite rational combination of monomials.

    ``terms`` never stores zero coefficients.  Instances are immutable and
    ring-agnostic; the ring is supplied to the operations that need rules.
    """

    terms: Mapping[Monomial, Coeff]

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Monomial, Coeff | int]]) -> "GradedClass":
        acc: dict[Monomial, Coeff] = {}
        for mono, coeff in pairs:
            if not isinstance(coeff, (int, Fraction)):
                coeff = Fraction(coeff)
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = _tighten(c)
            else:
                acc.pop(mono, None)
        return GradedClass(acc)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


@dataclass(frozen=True)
class RewriteRule:
    lhs: Monomial
    rhs: GradedClass

    def __post_init__(self) -> None:
        lhs_deg = monomial_degree(self.lhs)
        for mono, _ in self.rhs.terms.items():
            if monomial_degree(mono) != lhs_deg:
                raise PresentationError(
                    f"rule degree mismatch: lhs {self.lhs} has degree {lhs_deg}, "
                    f"rhs contains a monomial of degree {monomial_degree(mono)}"
                )
        if self.lhs in self.rhs.terms:
            raise PresentationError(f"rule lhs {self.lhs} occurs in its own rhs")


@dataclass
class ConfluenceReport:
    ok: bool
    basis_sizes: dict[int, int]
    witness: Monomial | None = None
    witness_forms: tuple[GradedClass, GradedClass] | None = None
    message: str = ""


class RingPresentation:
    """Graded ring presented by degree-2 generators and rewrite rules."""

    def __init__(
        self,
        generators: Sequence[str],
        rules: Sequence[RewriteRule],
        top_degree: int,
        fundamental: Monomial,
    ):
        if len(set(generators)) != len(generators):
            raise PresentationError("generators: duplicate names")
        if not generators:
            raise PresentationError("generators: at least one required")
        if top_degree < 0 or top_degree % 2:
            raise PresentationError(f"top_degree: must be even and nonnegative, got {top_degree}")
        self.generators = tuple(generators)
        self.rules = tuple(rules)
        self.top_degree = top_degree
        self.fundamental = tuple(fundamental)
        for rule in self.rules:
            if len(rule.lhs) != len(self.generators):
                raise PresentationError("relations: rule exponent vector length does not match generators")
        if len(self.fundamental) != len(self.generators):
            raise PresentationError("fundamental: exponent vector length does not match generators")
        if monomial_degree(self.fundamental) != top_degree:
            raise PresentationError(
                f"fundamental: degree {monomial_degree(self.fundamental)} != top_degree {top_degree}"
            )
        self._nf_cache: dict[Monomial, GradedClass] = {}

    # -- monomial-level reduction ------------------------------------------

    def _first_rule(self, mono: Monomial) -> RewriteRule | None:
        for rule in self.rules:
            if monomial_divides(rule.lhs, mono):
                return rule
        return None

    def reduce_monomial(self, mono: Monomial) -> GradedClass:
        """Normal form of a single monomial, memoized; cycles raise."""
        return self._reduce(mono, set())

    def _reduce(self, mono: Monomial, in_progress: set[Monomial]) -> GradedClass:
        if monomial_degree(mono) > self.top_degree:
            return GradedClass.zero()
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        if mono in in_progress:
            raise DivergenceError(
                mono,
                f"reduction of {self.format_monomial(mono)} cycles; the rule list does not terminate",
            )
        rule = self._first_rule(mono)
        if rule is None:
            result = GradedClass({mono: 1})
        else:
            in_progress.add(mono)
            quotient = monomial_quotient(mono, rule.lhs)
            acc: dict[Monomial, Coeff] = {}
            for rmono, rcoeff in rule.rhs.terms.items():
                reduced = self._reduce(monomial_mul(rmono, quotient), in_progress)
                for m, c in reduced.terms.items():
                    v = acc.get(m, 0) + rcoeff * c
                    if v:
                        acc[m] = _tighten(v)
                    else:
                        acc.pop(m, None)
            in_progress.discard(mono)
            result = GradedClass(acc)
        self._nf_cache[mono] = result
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

    def generator_class(self, index: int) -> GradedClass:
        mono = tuple(1 if i == index else 0 for i in range(len(self.generators)))
        return GradedClass({mono: 1})

    def one(self) -> GradedClass:
        return GradedClass({(0,) * len(self.generators): 1})

    def class_from_coeffs(self, coeffs: Sequence[int | Fraction]) -> GradedClass:
        """Degree-2 class with the given coordinates in the degree-2 basis."""
        b2 = basis(self, 2)
        if len(coeffs) != len(b2):
            raise ValueError(f"expected {len(b2)} coefficients, got {len(coeffs)}")
        return GradedClass.from_terms(zip(b2, coeffs))


def normal_form(ring: RingPresentation, c: GradedClass) -> GradedClass:
    acc: dict[Monomial, Coeff] = {}
    for mono, coeff in c.terms.items():
        if len(mono) != len(ring.generators):
            raise ValueError("class does not live over this ring's generators")
        for m, k in ring.reduce_monomial(mono).terms.items():
            v = acc.get(m, 0) + coeff * k
            if v:
                acc[m] = _tighten(v)
            else:
                acc.pop(m, None)
    return GradedClass(acc)


def ring_add(a: GradedClass, b: GradedClass) -> GradedClass:
    acc = dict(a.terms)
    for mono, coeff in b.terms.items():
        v = acc.get(mono, 0) + coeff
        if v:
            acc[mono] = _tighten(v)
        else:
            acc.pop(mono, None)
    return GradedClass(acc)


def ring_sub(a: GradedClass, b: GradedClass) -> GradedClass:
    return ring_add(a, ring_scale(-1, b))


def ring_scale(r: Fraction | int, a: GradedClass) -> GradedClass:
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    if not r:
        return GradedClass.zero()
    return GradedClass({m: _tighten(r * c) for m, c in a.terms.items()})


def ring_mul(ring: RingPresentation, a: GradedClass, b: GradedClass) -> GradedClass:
    acc: dict[Monomial, Coeff] = {}
    top = ring.top_degree
    reduce_monomial = ring.reduce_monomial
    for ma, ca in a.terms.items():
        if len(ma) != len(ring.generators):
            raise ValueError("class does not live over this ring's generators")
        deg_a = sum(ma)
        for mb, cb in b.terms.items():
            if deg_a + sum(mb) > top:
                continue
            prod = tuple(x + y for x, y in zip(ma, mb))
            cab = ca * cb
            for m, k in reduce_monomial(prod).terms.items():
                v = acc.get(m, 0) + cab * k
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
    for m, v in acc.items():
        acc[m] = _tighten(v)
    return GradedClass(acc)


def ring_pow(ring: RingPresentation, a: GradedClass, exp: int) -> GradedClass:
    out = ring.one()
    for _ in range(exp):
        out = ring_mul(ring, out, a)
    return out


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
    """Irreducible monomials of the given degree, ascending lex order."""
    if degree % 2 or degree < 0 or degree > ring.top_degree:
        raise DegreeError(f"degree must be even in [0, {ring.top_degree}], got {degree}")
    out = []
    for mono in monomials_of_degree(len(ring.generators), degree // 2):
        if ring._first_rule(mono) is None:
            out.append(mono)
    return out


def check_confluence(ring: RingPresentation) -> ConfluenceReport:
    """Exhaustively verify one normal form per monomial of degree <= top.

    For every monomial and every applicable rule, the deterministic normal
    form of the one-step rewrite must agree with the deterministic normal
    form of the monomial itself.  On the finite, degree-preserving system
    this pins down a unique normal form under any application order.
    """
    try:
        for half in range(ring.top_degree // 2 + 1):
            for mono in monomials_of_degree(len(ring.generators), half):
                reference = ring.reduce_monomial(mono)
                for rule in ring.rules:
                    if not monomial_divides(rule.lhs, mono):
                        continue
                    stepped = normal_form(ring, ring.one_step(mono, rule))
                    if stepped != reference:
                        return ConfluenceReport(
                            ok=False,
                            basis_sizes={},
                            witness=mono,
                            witness_forms=(reference, stepped),
                            message=(
                                f"monomial {ring.format_monomial(mono)} has normal forms "
                                f"{ring.format_class(reference)} and {ring.format_class(stepped)}"
                            ),
                        )
    except DivergenceError as err:
        return ConfluenceReport(
            ok=False,
            basis_sizes={},
            witness=err.witness,
            witness_forms=None,
            message=str(err),
        )
    sizes = {d: len(basis(ring, d)) for d in range(0, ring.top_degree + 1, 2)}
    return ConfluenceReport(ok=True, basis_sizes=sizes)


def _is_int(value) -> bool:
    """A JSON integer; a bool is not one, though Python counts it as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_presentation(doc: Mapping) -> RingPresentation:
    """Build and validate a ring from its JSON case-document form.

    Expected shape::

        {"generators": ["u", "v"],
         "relations": [{"lhs": [2, 0], "rhs": [[1, [0, 2]]]}, ...],
         "top_degree": 4,
         "fundamental": [2, 0]}

    Every error message names the offending field of the case document's
    ``ring`` section, e.g. ``ring.relations[0].lhs``.
    """
    if not isinstance(doc, Mapping):
        raise PresentationError("ring: expected an object")
    for key in ("generators", "relations", "top_degree", "fundamental"):
        if key not in doc:
            raise PresentationError(f"ring is missing field '{key}'")
    generators = doc["generators"]
    if not isinstance(generators, (list, tuple)) or not all(isinstance(g, str) for g in generators):
        raise PresentationError("ring.generators: expected a list of names")
    n = len(generators)

    def expvec(raw, where: str) -> Monomial:
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != n
            or not all(_is_int(e) and e >= 0 for e in raw)
        ):
            raise PresentationError(f"{where}: expected a length-{n} vector of nonnegative integers")
        return tuple(raw)

    relations = doc["relations"]
    if not isinstance(relations, (list, tuple)):
        raise PresentationError("ring.relations: expected a list of rules")
    rules = []
    for i, rel in enumerate(relations):
        where = f"ring.relations[{i}]"
        if not isinstance(rel, Mapping) or "lhs" not in rel or "rhs" not in rel:
            raise PresentationError(f"{where}: expected an object with 'lhs' and 'rhs'")
        lhs = expvec(rel["lhs"], f"{where}.lhs")
        if not isinstance(rel["rhs"], (list, tuple)):
            raise PresentationError(f"{where}.rhs: expected a list of terms")
        rhs_terms = []
        for j, term in enumerate(rel["rhs"]):
            if not isinstance(term, (list, tuple)) or len(term) != 2 or not _is_int(term[0]):
                raise PresentationError(
                    f"{where}.rhs[{j}]: expected [integer coefficient, exponent vector]"
                )
            rhs_terms.append((expvec(term[1], f"{where}.rhs[{j}][1]"), Fraction(term[0])))
        try:
            rules.append(RewriteRule(lhs=lhs, rhs=GradedClass.from_terms(rhs_terms)))
        except PresentationError as exc:
            raise PresentationError(f"{where}: {exc}") from exc

    top_degree = doc["top_degree"]
    if not _is_int(top_degree):
        raise PresentationError(f"ring.top_degree: expected an integer, got {top_degree!r}")
    fundamental = expvec(doc["fundamental"], "ring.fundamental")
    try:
        ring = RingPresentation(generators, rules, top_degree, fundamental)
    except PresentationError as exc:
        raise PresentationError(f"ring.{exc}") from exc
    monomials = comb(n + top_degree // 2, n)
    if monomials > MAX_MONOMIALS:
        raise PresentationError(
            f"ring.top_degree: {top_degree} over {n} generators gives {monomials} monomials "
            f"of degree <= top, more than the {MAX_MONOMIALS} the confluence check walks"
        )
    report = check_confluence(ring)
    if not report.ok:
        raise ConfluenceError(
            report.witness if report.witness is not None else (),
            report.witness_forms if report.witness_forms else (GradedClass.zero(), GradedClass.zero()),
            f"ring.relations: presentation is not confluent: {report.message}",
        )
    if ring._first_rule(ring.fundamental) is not None:
        raise PresentationError("ring.fundamental: monomial is reducible")
    top_basis = basis(ring, ring.top_degree)
    if top_basis != [ring.fundamental]:
        names = [ring.format_monomial(m) for m in top_basis]
        raise PresentationError(
            f"ring.relations: top-degree basis {names} is not the fundamental monomial alone"
        )
    return ring
