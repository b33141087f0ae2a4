"""Case loading, subcommand dispatch, and report emission.

A case document is a JSON object (or a built-in from the case library) with
a ring presentation and any of: target classes, candidate splittings, a
search section, genus data, an obstruction section.  Every command reads
and checks the whole document first, then builds only the report sections
it prints (`COMMAND_SECTIONS`); `verify` prints every one the document
has.  The exit code reports operational success only; mathematical
verdicts are asserted with --expect.  Every field is read through the
readers in `report`, so a malformed one is a `CaseError` naming its path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Mapping, Sequence
from functools import partial

from . import __version__
from .cases import PARAMETER_NAMES, builtin_case, list_builtin_cases
from .charclass import (
    LineBundleSum,
    TargetClasses,
    TargetError,
    matches_targets,
    normal_targets,
)
from .genus import (
    ChernRootData,
    check_root_count,
    chi_y,
    duality_check,
    euler_from_chi,
    hirzebruch_congruence,
    signature_from_chi,
    todd_from_chi,
)
from .repcat import ObstructionCase, RootSystem, catalog_irreps, obstruct_tangent_rep
from .report import (
    CanonicalError,
    CaseError,
    array,
    boolean,
    check_exact,
    emit_report,
    exact_json,
    field,
    fraction_from_json,
    input_digest,
    integer,
    integers,
    obj,
    string,
    terms,
)
from .ring import GradedClass, RingPresentation, basis, parse_presentation
from .search import (
    DEFAULT_BUDGET,
    BoundError,
    ExplicitBound,
    SearchSpec,
    SumOfSquaresBound,
    enumerate_splittings,
)


EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXPECTATION = 3


def _class_reader(ring: RingPresentation):
    """A reader of a class's [coefficient, exponents] term list over `ring`."""
    n = len(ring.generators)
    return lambda raw, where: GradedClass.from_terms(terms(raw, where, n, fraction_from_json))


def _load_targets(ring: RingPresentation, raw, where: str = "targets") -> TargetClasses:
    # Euler is matched up to sign and only a Chern target pins signs: no key sets the rule
    if ring.top_degree < 2:
        raise CaseError(f"ring.top_degree: {ring.top_degree} gives no line bundle to match the {where} against")
    raw = obj(raw, where)
    read_class = _class_reader(ring)
    targets = TargetClasses(
        p1_target=field(raw, "p1", where, read_class),
        euler_target=field(raw, "euler", where, read_class),
        chern_target=field(raw, "chern", where, read_class, None),
    )
    # checked here, so targets that no section uses cannot pass unreachable
    try:
        normal_targets(ring, targets)
    except TargetError as exc:
        raise CaseError(f"{where}.{exc}") from exc
    return targets


def _load_search_spec(
    ring: RingPresentation,
    targets: TargetClasses,
    raw,
    budget: int | None,
    where: str = "search",
) -> SearchSpec:
    raw = obj(raw, where)
    bound_raw = field(raw, "bound", where, obj)
    at = f"{where}.bound"
    kind = field(bound_raw, "type", at, string)
    if kind == "sum_of_squares":
        bound = SumOfSquaresBound(field(bound_raw, "multipliers", at, integers))
    elif kind == "explicit":
        bound = ExplicitBound(
            per_variable=field(bound_raw, "per_variable", at, integers),
            acknowledged=field(bound_raw, "acknowledged", at, boolean, False),
            note=field(bound_raw, "note", at, string, ""),
        )
    else:
        raise CaseError(f"{at}.type: unknown bound type {kind!r}")
    if budget is None:
        budget = field(raw, "budget", where, partial(integer, low=0), DEFAULT_BUDGET)
    try:
        return SearchSpec(ring=ring, targets=targets, bound=bound, budget=budget)
    except ValueError as exc:  # more line bundles than the walk takes, named ring.top_degree
        raise CaseError(str(exc)) from exc


def _load_root_system(raw, where: str) -> RootSystem:
    raw = obj(raw, where)
    family = field(raw, "family", where, string)
    rank = field(raw, "rank", where, integer)
    try:
        return RootSystem(family=family, rank=rank)
    except ValueError as exc:
        raise CaseError(f"{where}.{exc}") from exc


def _load_congruence(raw, where: str, dimension: tuple[int, str] | None) -> tuple[int, int, int]:
    """The congruence object's chi and sigma, and m for the case's dimension 4m."""
    raw = obj(raw, where)
    chi = field(raw, "chi", where, integer)
    sigma = field(raw, "sigma", where, integer)
    if dimension is None:
        raise CaseError(f"{where}: the case states no dimension (ring.top_degree or obstruction.manifold_dim)")
    dim, source = dimension
    if dim <= 0 or dim % 4:
        raise CaseError(f"{where}: is taken in a dimension 4m with m >= 1, but {source} is {dim}")
    return chi, sigma, dim // 4


def _load_candidates(ring: RingPresentation, raw, where: str = "candidates") -> list:
    """Each candidate splitting: top_degree / 2 vectors of c1 coordinates over the degree-2 basis."""
    n = ring.top_degree // 2
    candidates = array(raw, where, partial(array, item=partial(integers, length=len(basis(ring, 2)))))
    for i, cand in enumerate(candidates):
        if len(cand) != n:
            raise CaseError(f"{where}[{i}]: a splitting lists top_degree / 2 = {n} line bundles, got {len(cand)}")
    return candidates


def _load_genus(ring: RingPresentation | None, raw, dimension: tuple[int, str] | None):
    """The genus section's root data and congruence (chi, sigma, m); either may be None, not both."""
    where = "genus"
    raw = obj(raw, where)
    data = congruence = None
    if "roots" in raw:
        if ring is None:
            raise CaseError(f"{where}.roots requires a ring presentation")
        roots = tuple(field(raw, "roots", where, partial(array, item=_class_reader(ring))))
        try:
            data = ChernRootData(ring=ring, roots=roots)
            check_root_count(data)
        except ValueError as exc:
            raise CaseError(f"{where}.roots: {exc}") from exc
    if "congruence" in raw:
        congruence = field(raw, "congruence", where, partial(_load_congruence, dimension=dimension))
    if data is None and congruence is None:
        raise CaseError(f"{where}: needs 'roots' or 'congruence'")
    return data, congruence


def _load_obstruction(raw, dimension: tuple[int, str], congruence: tuple[int, int, int] | None) -> ObstructionCase:
    """The obstruction section in the case's dimension, with chi and sigma
    from genus.congruence; both filter switches are derived from them."""
    where = "obstruction"
    raw = obj(raw, where)
    factors = field(raw, "factors", where, partial(array, item=_load_root_system))
    if not factors:
        raise CaseError(f"{where}.factors: expected a nonempty list")
    manifold_dim = field(raw, "manifold_dim", where, integer)
    if manifold_dim != dimension[0]:  # the ring states the dimension too
        raise CaseError(f"{where}.manifold_dim: {manifold_dim} is not {dimension[1]}, {dimension[0]}")
    provenance = field(raw, "provenance", where, string, "")
    if congruence is None:
        raise CaseError(f"genus.congruence: {where} reads chi and sigma from it, but it is missing")
    # the congruence was read in this dimension and refuses one that is not
    # a positive multiple of 4, so the case's own check cannot fail here
    chi, sigma, _ = congruence
    return ObstructionCase(
        factors=tuple(factors), manifold_dim=manifold_dim, chi=chi, sigma=sigma, provenance=provenance,
    )


# -- sections ----------------------------------------------------------------


def _ring_section(ring: RingPresentation) -> dict:
    sizes = {str(d): len(basis(ring, d)) for d in range(0, ring.top_degree + 1, 2)}
    return {
        "generators": list(ring.generators),
        "top_degree": ring.top_degree,
        "fundamental": ring.format_monomial(ring.fundamental),
        "basis_sizes": sizes,
    }


def _matching_section(ring: RingPresentation, targets: TargetClasses, candidates: list) -> list:
    out = []
    for cand in candidates:
        rep = matches_targets(LineBundleSum(ring, tuple(map(ring.class_from_coeffs, cand))), targets)
        out.append(
            {
                "candidate": [list(vec) for vec in cand],
                "matched": rep.matched,
                "p1_ok": rep.p1_ok,
                "euler_ok": rep.euler_ok,
                "euler_sign": rep.euler_sign,
                "chern_ok": rep.chern_ok,
                "residuals": {k: ring.format_class(v) for k, v in rep.residuals.items()},
            }
        )
    return out


def _search_section(spec: SearchSpec) -> dict:
    try:
        return enumerate_splittings(spec).as_jsonable()
    except BoundError as exc:
        key = "per_variable" if isinstance(spec.bound, ExplicitBound) else "multipliers"
        raise CaseError(f"search.bound.{key}: {exc}") from exc


def _genus_section(data: ChernRootData | None, congruence: tuple[int, int, int] | None) -> dict:
    out: dict = {}
    if data is not None:
        try:
            chi = chi_y(data)
        except ValueError as exc:  # roots whose integral is no genus of the dimension
            raise CaseError(f"genus.roots: {exc}") from exc
        out["chi_y"] = list(chi.coefficients)
        out["euler"] = euler_from_chi(chi)
        out["signature"] = signature_from_chi(chi)
        out["todd"] = todd_from_chi(chi)
        out["duality"] = duality_check(chi, data.n)
    if congruence is not None:
        chi_val, sigma_val, quarter = congruence
        out["congruence"] = {
            "chi": chi_val,
            "sigma": sigma_val,
            "quarter_dim": quarter,
            "holds": hirzebruch_congruence(chi_val, sigma_val, quarter),
        }
    return out


def _trace_entry(trace) -> dict:
    # each name resolves against the section's catalog, which holds its dims and type
    return {
        "summands": [[p.name, count] for p, count in trace.summands],
        "rejected_by": trace.rejected_by,
        "detail": trace.detail,
    }


def _obstruction_section(case: ObstructionCase) -> dict:
    try:
        result = obstruct_tangent_rep(case)
    except ValueError as exc:  # more products or multisets than the caps allow
        raise CaseError(f"obstruction.{exc}") from exc
    return {
        "factors": [rs.group_name for rs in case.factors],
        "manifold_dim": case.manifold_dim,
        "euler_nonzero": case.euler_nonzero,
        "almost_complex_forbidden": case.almost_complex_forbidden,
        "provenance": case.provenance,
        "verdict": result.verdict,
        "catalog": [
            {
                "name": p.name,
                "complex_dim": p.complex_dim,
                "field_type": p.field_type,
                "real_dim": p.real_dim,
            }
            for p in result.product_entries
        ],
        "traces": [_trace_entry(t) for t in result.traces],
    }


def _reps_section(case: ObstructionCase) -> dict:
    out = {}
    for rs in case.factors:
        try:
            catalog = catalog_irreps(rs, case.manifold_dim)
        except ValueError as exc:  # more irreps than the product cap allows
            raise CaseError(f"obstruction.{exc}") from exc
        out[rs.group_name] = [
            {
                "name": e.name,
                "highest_weight": list(e.highest_weight),
                "complex_dim": e.complex_dim,
                "field_type": e.field_type,
                "real_dim": e.real_dim,
            }
            for e in catalog.entries
        ]
    return out


# The report sections each command prints, in order, and the document
# section it cannot run without.  Every command reads the whole document.
COMMAND_SECTIONS = {
    "verify": (("ring", "matching", "search", "genus", "obstruction"), None),
    "genus": (("ring", "genus"), "genus"),
    "obstruct": (("obstruction",), "obstruction"),
    "reps": (("reps",), "obstruction"),
}


def run_case(doc: Mapping, budget: int | None = None, command: str = "verify") -> dict:
    """Read and check every section of a case document, then build the
    report sections `command` prints.  `budget` overrides `search.budget`,
    as `--budget` does."""
    doc = obj(doc, "case document")
    printed, needed = COMMAND_SECTIONS[command]
    if needed is not None and needed not in doc:
        raise CaseError(f"'{needed}': {command} needs this section, and the case document has none")
    if budget is not None:
        integer(budget, "--budget", low=0)
        if "search" not in doc:
            raise CaseError("--budget: the case has no search section to bound")
    title = {"case": field(doc, "name", "", string, "unnamed"), "anchor": field(doc, "anchor", "", string, "")}
    build: dict = {}  # each report section the document gives, ready to build
    ring = targets = congruence = None
    if "ring" in doc:
        ring = parse_presentation(doc["ring"])
        build["ring"] = partial(_ring_section, ring)
    if "targets" in doc:
        if ring is None:
            raise CaseError("'targets' requires a 'ring' section")
        targets = _load_targets(ring, doc["targets"])
    for key in ("candidates", "search"):
        if key in doc and targets is None:
            raise CaseError(f"'{key}' requires a 'targets' section")
    if "candidates" in doc:
        build["matching"] = partial(_matching_section, ring, targets, _load_candidates(ring, doc["candidates"]))
    if "search" in doc:
        build["search"] = partial(_search_section, _load_search_spec(ring, targets, doc["search"], budget))
    # the manifold's one dimension, and the field that states it
    dimension = None
    if ring is not None:
        dimension = ring.top_degree, "ring.top_degree"
    elif "obstruction" in doc:
        raw = field(doc, "obstruction", "", obj)
        dimension = field(raw, "manifold_dim", "obstruction", integer), "obstruction.manifold_dim"
    if "genus" in doc:
        data, congruence = _load_genus(ring, doc["genus"], dimension)
        build["genus"] = partial(_genus_section, data, congruence)
    if "obstruction" in doc:
        case = _load_obstruction(doc["obstruction"], dimension, congruence)
        build["obstruction"] = partial(_obstruction_section, case)
        build["reps"] = partial(_reps_section, case)
    try:
        digest = input_digest(dict(doc))
    except CanonicalError as exc:  # a float in a field no section reads, say
        raise CaseError(f"{exc.where or 'case document'}: {exc}") from exc
    sections = {key: build[key]() for key in printed if key in build}
    if not sections:
        raise CaseError("case document has no actionable section")
    return {**title, "version": __version__, "input_digest": digest, "sections": sections}


# -- command line ------------------------------------------------------------


def _load_case_document(ref: str, parameter: int | None) -> Mapping:
    """A built-in case, or the JSON object in the file `ref`."""
    if ref in list_builtin_cases():
        try:
            return builtin_case(ref, parameter)
        except ValueError as exc:  # the case's own check, which names its parameter
            raise CaseError(f"--q: {exc}") from exc
    if not os.path.exists(ref):
        raise CaseError(
            f"{ref!r} is neither a built-in case nor an existing file; "
            f"built-ins: {', '.join(list_builtin_cases())}"
        )
    try:
        with open(ref, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CaseError(f"{ref}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise CaseError(f"{ref}: cannot read the case file: {exc}") from exc
    if parameter is not None:
        raise CaseError("--q only applies to parameterized built-in cases")
    return obj(doc, ref)


def _check_expectation(report: dict, expect: str) -> str | None:
    sections = report["sections"]
    if expect == "no-solutions":
        cert = sections.get("search")
        if cert is None:
            return "expected a search section, but the case has none"
        if not cert["exhaustive"]:
            return "search was not exhaustive, cannot certify no-solutions"
        if cert["solution_count"]:
            return f"expected no solutions, found {cert['solution_count']}"
        return None
    if expect == "solutions":
        cert = sections.get("search")
        if cert is None:
            return "expected a search section, but the case has none"
        if not cert["solution_count"]:
            return "expected solutions, found none"
        return None
    if expect == "congruence-fails":
        genus = sections.get("genus")
        if genus is None or "congruence" not in genus:
            return "expected a congruence check, but the case has none"
        if genus["congruence"]["holds"]:
            return "expected the congruence to fail, but it holds"
        return None
    raise CaseError(f"unknown expectation {expect!r}")


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are `CaseError`s, so a bad command line exits 1
    like every other refusal; its subparsers are built from this class too."""

    def error(self, message: str):
        raise CaseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitcheck",
        description="exact verification of line-bundle splitting obstructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("case", help="built-in case name or path to a case JSON file")
        p.add_argument("--q", type=int, default=None, metavar="N",
                       help="parameter for parameterized built-ins (q or n)")
        p.add_argument("--emit", default=None, metavar="PATH",
                       help="also write the report to PATH as canonical JSON")

    verify = sub.add_parser("verify", help="run every section of a case")
    add_common(verify)
    verify.add_argument("--expect", choices=["no-solutions", "solutions", "congruence-fails"],
                        default=None, help="fail (exit 3) unless the verdict matches")
    verify.add_argument("--budget", type=int, default=None, metavar="N",
                        help="override the tuple visit budget")

    genus = sub.add_parser("genus", help="print only the ring and genus sections")
    add_common(genus)

    reps = sub.add_parser("reps", help="dump the irrep catalogs for an obstruction case")
    add_common(reps)

    obstruct = sub.add_parser("obstruct", help="print only the obstruction section")
    add_common(obstruct)

    sub.add_parser("list", help="list built-in case names")
    return parser


def _print(text: str) -> None:
    """Print text to stdout, which a reader may close early (`| head`)."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "list":
            _print("\n".join(
                f"{name} (parameter: {PARAMETER_NAMES[name]})" if name in PARAMETER_NAMES else name
                for name in list_builtin_cases()
            ))
            return EXIT_OK

        doc = _load_case_document(args.case, args.q)
        report = run_case(doc, budget=getattr(args, "budget", None), command=args.command)

        check_exact(report)
        # written first, so a failed write prints no report before its error
        if args.emit:
            try:
                emit_report(report, args.emit)
            except OSError as exc:  # a missing directory, say, or a directory
                raise CaseError(f"--emit {args.emit}: cannot write the report: {exc}") from exc
        _print(json.dumps(report, sort_keys=True, indent=2, default=exact_json))
        if getattr(args, "expect", None):
            mismatch = _check_expectation(report, args.expect)
            if mismatch:
                print(f"expectation not met: {mismatch}", file=sys.stderr)
                return EXIT_EXPECTATION
        return EXIT_OK
    except (CaseError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
