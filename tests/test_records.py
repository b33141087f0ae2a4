"""The package's records: plain slotted classes with explicit constructors.

Importing the package must not load `dataclasses` (nor `inspect`, which it
pulls in): a fresh interpreter checks what `import splitcheck.cli` loads,
and an AST scan checks that no module imports it.  The package root
re-exports nothing, so importing one module loads only what it imports,
and a second scan checks that every module and test reads each name it
imports.  The contract block checks what the records keep: each
constructor check raises its message, an immutable record refuses
assignment and deletion, and equal classes hash alike.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import splitcheck
from helpers import TelescopeReport, replaced, ring_for
from splitcheck.charclass import LineBundleSum, MatchReport, TargetClasses
from splitcheck.genus import ChernRootData, YPolynomial, _Factor
from splitcheck.record import Frozen, Record
from splitcheck.repcat import (
    Irrep,
    IrrepCatalog,
    MultisetTrace,
    ObstructionCase,
    ObstructionResult,
    ProductIrrep,
    RootSystem,
    catalog_irreps,
)
from splitcheck.ring import GradedClass, PresentationError, RewriteRule, RingPresentation
from splitcheck.search import (
    MAX_M,
    DerivedBounds,
    ExplicitBound,
    SearchCertificate,
    SearchSpec,
    SumOfSquaresBound,
)
from splitcheck.series import TruncatedSeries

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "splitcheck"


def cls(*pairs) -> GradedClass:
    return GradedClass.from_terms(pairs)


# -- the import --------------------------------------------------------------------


def test_import_loads_neither_dataclasses_nor_inspect():
    script = "import sys, splitcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module, loaded", [
    ("report", []),
    ("ring", ["record", "report"]),
    ("cli", ["cases", "charclass", "genus", "record", "repcat", "report", "ring", "search", "series"]),
])
def test_import_loads_only_what_the_module_imports(module, loaded):
    script = (
        f"import sys, splitcheck.{module}; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('splitcheck.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(f"splitcheck.{name}" for name in [module, *loaded])


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_every_imported_name_is_used():
    """A module's imports say what it relies on, so each name it imports
    is read there.  `__future__` imports are exempt, and so are lines marked
    `# noqa: F401`: the names perfbench's tracing rebinds on a module."""
    unused = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.rglob("*.py")]):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(TESTS.parent)}:{node.lineno} {name}")
    assert unused == []


# -- constructor checks ------------------------------------------------------------


@cache
def _ring(top_degree: int) -> RingPresentation:
    """The polynomial ring on one generator, truncated above top_degree; one
    per degree, as rings compare by identity."""
    return RingPresentation(("h",), (), top_degree)


def _spec(top_degree: int) -> SearchSpec:
    """A search for top_degree / 2 line bundles."""
    ring = _ring(top_degree)
    targets = TargetClasses(GradedClass.zero(), GradedClass.zero())
    return SearchSpec(ring=ring, targets=targets, bound=SumOfSquaresBound((1,)))


CHECKS = [
    pytest.param(lambda: LineBundleSum(ring_for("cp2-connect-sum"), ()), ValueError,
                 "a line bundle sum needs at least one summand", id="LineBundleSum-empty"),
    pytest.param(lambda: LineBundleSum(ring_for("cp2-connect-sum"), (cls(((2, 0), 1)),)), ValueError,
                 "c1 #0 is not homogeneous of degree 2", id="LineBundleSum-degree"),
    pytest.param(lambda: LineBundleSum(ring_for("cp2-connect-sum"), (cls(((1, 0), Fraction(1, 2))),)),
                 ValueError, "c1 #0 has non-integer coefficients", id="LineBundleSum-integral"),
    pytest.param(lambda: RewriteRule((2, 0), cls(((1, 0), 1))), PresentationError,
                 "rule degree mismatch: lhs (2, 0) has degree 4, rhs contains a monomial of degree 2",
                 id="RewriteRule-degree"),
    pytest.param(lambda: RewriteRule((2, 0), cls(((0, 2), Fraction(1, 2)))), PresentationError,
                 "rule for (2, 0): rhs coefficient 1/2 is not an integer", id="RewriteRule-integral"),
    pytest.param(lambda: RewriteRule((2, 0), cls(((2, 0), 1), ((0, 2), 1))), PresentationError,
                 "rule lhs (2, 0) occurs in its own rhs", id="RewriteRule-own-rhs"),
    pytest.param(lambda: RewriteRule((0, 0), GradedClass.zero()), PresentationError,
                 "rule lhs (0, 0) is the constant monomial 1, which no rule may rewrite", id="RewriteRule-constant"),
    pytest.param(lambda: ChernRootData(ring_for("cp2-connect-sum"), (cls(((0, 1), 1)), cls(((1, 1), 1)))),
                 ValueError, "root #1 is not homogeneous of degree 2", id="ChernRootData-degree"),
    pytest.param(lambda: ChernRootData(_ring(64), (cls(((1,), 1)),) * 33 + (GradedClass.zero(),)), ValueError,
                 "33 nonzero roots times n = 32 is 1056, more than the 1024 the genus integrates",
                 id="ChernRootData-work"),
    pytest.param(lambda: RootSystem("C", 2), ValueError, "family: unsupported family 'C'", id="RootSystem-family"),
    pytest.param(lambda: RootSystem("T", 2), ValueError, "rank: family T requires rank 1", id="RootSystem-rank-1"),
    pytest.param(lambda: RootSystem("B", 0), ValueError, "rank: B_m requires rank >= 1", id="RootSystem-B-rank"),
    pytest.param(lambda: ObstructionCase((RootSystem("A", 1),), 5, 0, 0), ValueError,
                 "manifold_dim: expected an even positive integer, got 5", id="ObstructionCase-dim"),
    pytest.param(lambda: _spec(0), ValueError,
                 f"ring.top_degree: 0 gives 0 line bundles; the search walks 1 to {MAX_M}", id="SearchSpec-m-low"),
    pytest.param(lambda: _spec(2 * MAX_M + 2), ValueError,
                 f"ring.top_degree: {2 * MAX_M + 2} gives {MAX_M + 1} line bundles; the search walks 1 to {MAX_M}",
                 id="SearchSpec-m-high"),
]


@pytest.mark.parametrize("build, error, message", CHECKS)
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


# -- immutability, equality and hashing ----------------------------------------------


def _irrep() -> Irrep:
    return Irrep.build(RootSystem("A", 1), (1,))


def _trace() -> MultisetTrace:
    return MultisetTrace(((ProductIrrep.build((_irrep(),)), 2),), "F1", "odd real dimension")


# Each row builds a fresh record from equal fields, and names a field and a
# value that differs from the one built.
FROZEN = [
    pytest.param(lambda: cls(((1, 0), 1)), "terms", {(0, 1): 1}, id="GradedClass"),
    pytest.param(lambda: RewriteRule((2, 0), cls(((0, 2), 1))), "lhs", (1, 1), id="RewriteRule"),
    pytest.param(lambda: LineBundleSum(ring_for("cp2-connect-sum"), (cls(((1, 0), 1)),)), "ring",
                 ring_for("s2xs2"), id="LineBundleSum"),
    pytest.param(lambda: TargetClasses(GradedClass.zero(), GradedClass.zero()), "chern_target",
                 GradedClass.zero(), id="TargetClasses"),
    pytest.param(lambda: YPolynomial.from_coeffs([1, 2]), "coefficients", (1, 3), id="YPolynomial"),
    pytest.param(lambda: ChernRootData(ring_for("cp2-connect-sum"), (cls(((1, 0), 1)),)), "roots",
                 (cls(((0, 1), 1)),), id="ChernRootData"),
    pytest.param(lambda: _Factor.of([(1,), (0, 1)]), "denom", 2, id="_Factor"),
    pytest.param(lambda: TruncatedSeries.from_coeffs([1, 1], 2), "coefficients", (1, 2, 0),
                 id="TruncatedSeries"),
    pytest.param(lambda: RootSystem("B", 2), "rank", 3, id="RootSystem"),
    pytest.param(_irrep, "real_dim", 8, id="Irrep"),
    pytest.param(lambda: IrrepCatalog(RootSystem("A", 1), 4, (_irrep(),)), "entries", (), id="IrrepCatalog"),
    pytest.param(lambda: ProductIrrep.build((_irrep(), _irrep())), "name", "W2", id="ProductIrrep"),
    pytest.param(lambda: SumOfSquaresBound((1, 1)), "multipliers", (1, 2), id="SumOfSquaresBound"),
    pytest.param(lambda: ExplicitBound((3, 3)), "acknowledged", True, id="ExplicitBound"),
]

MUTABLE = [
    pytest.param(lambda: MatchReport(True, True, True, 1, None, {}), "euler_sign", -1, id="MatchReport"),
    pytest.param(lambda: _spec(4), "budget", 5, id="SearchSpec"),
    pytest.param(lambda: DerivedBounds((3, 3), True), "certified", False, id="DerivedBounds"),
    pytest.param(lambda: SearchCertificate("digest", "explicit", (3, 3), 49, 49, (), True, 10), "visited", 48,
                 id="SearchCertificate"),
    pytest.param(lambda: TelescopeReport(4, 3, 1, 0, True, True), "congruent", False, id="TelescopeReport"),
    pytest.param(lambda: ObstructionCase((RootSystem("A", 1),), 4, 2, 0), "chi", 3, id="ObstructionCase"),
    pytest.param(_trace, "rejected_by", None, id="MultisetTrace"),
    pytest.param(lambda: ObstructionResult("NO-VALID-V", [_trace()], [ProductIrrep.build((_irrep(),))]),
                 "verdict", "VALID-V-EXISTS", id="ObstructionResult"),
]


@pytest.mark.parametrize("build, name, value", FROZEN + MUTABLE)
def test_records_compare_by_their_fields(build, name, value):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    if isinstance(first, Frozen):
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    assert replaced(first, **{name: value}) != first
    assert first.__eq__(object()) is NotImplemented


def test_every_record_is_listed():
    """A slotted class in the package is a record, and each record is a row
    above, so none falls back to comparing by identity; the rows also hold
    the test oracles' records."""
    slotted = set()
    for info in pkgutil.iter_modules(splitcheck.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"splitcheck.{info.name}")
        slotted |= {value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module.__name__ and "__slots__" in vars(value)}
    assert all(issubclass(kind, Record) for kind in slotted)
    listed = {type(row.values[0]()) for row in FROZEN + MUTABLE}
    assert slotted - {Record, Frozen} == {kind for kind in listed if kind.__module__.startswith("splitcheck.")}


@pytest.mark.parametrize("build, name, value", FROZEN)
def test_immutable_records_refuse_assignment(build, name, value):
    record = build()
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert getattr(record, name) is before


def test_chern_root_data_caches_its_integer_roots():
    data = ChernRootData(ring_for("cp2-connect-sum"), (cls(((1, 0), 1)), cls(((0, 1), 2))))
    assert data.integer_roots is data.integer_roots


def test_equal_classes_hash_equal():
    a = GradedClass({(2, 0): 1, (1, 1): Fraction(1, 2)})
    b = GradedClass({(1, 1): Fraction(1, 2), (2, 0): 1})
    c = cls(((2, 0), Fraction(2, 2)), ((1, 1), Fraction(1, 2)))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != cls(((2, 0), 1))
    assert a != {(2, 0): 1, (1, 1): Fraction(1, 2)}


def test_root_systems_built_apart_are_equal():
    """Irreps, catalogs and product irreps compare their root systems by value."""
    first, second = RootSystem("B", 5), RootSystem("B", 5)
    assert first == second and hash(first) == hash(second)
    assert first != RootSystem("B", 4)
    weight = (1, 0, 0, 0, 0)
    assert Irrep.build(first, weight) == Irrep.build(second, weight)
    assert catalog_irreps(first, 20) == catalog_irreps(second, 20)
    assert ProductIrrep.build((Irrep.build(first, weight),)) == ProductIrrep.build((Irrep.build(second, weight),))
