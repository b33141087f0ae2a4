"""Case loading, subcommand dispatch, and report emission.

A case document is a JSON object (or a built-in from the case library) with
a ring presentation and any of: target classes, candidate splittings, a
search section, genus data, an obstruction section.  `verify` runs every
section present, in order: ring checks, class matching, search, genus,
obstruction.  The exit code reports operational success only; mathematical
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
    RankError,
    TargetClasses,
    TargetError,
    matches_targets,
    normal_targets,
)
from .genus import (
    ChernRootData,
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
    raw = obj(raw, where)
    read_class = _class_reader(ring)
    targets = TargetClasses(
        p1_target=field(raw, "p1", where, read_class),
        euler_target=field(raw, "euler", where, read_class),
        euler_sign_flexible=field(raw, "euler_sign_flexible", where, boolean),
        real_rank=field(raw, "real_rank", where, partial(integer, low=0)),
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
        budget = field(raw, "budget", where, integer, DEFAULT_BUDGET)
    budget = integer(budget, f"{where}.budget", low=0)  # a --budget override too
    m = field(raw, "m", where, integer)
    try:
        return SearchSpec(ring=ring, targets=targets, m=m, bound=bound, budget=budget)
    except ValueError as exc:
        raise CaseError(f"{where}.{exc}") from exc


def _load_root_system(raw, where: str) -> RootSystem:
    raw = obj(raw, where)
    family = field(raw, "family", where, string)
    rank = field(raw, "rank", where, integer)
    try:
        return RootSystem(family=family, rank=rank)
    except ValueError as exc:
        raise CaseError(f"{where}.{exc}") from exc


def _load_congruence(raw, where: str) -> tuple[int, int, int]:
    """The congruence object's chi, sigma and quarter_dim."""
    raw = obj(raw, where)
    return (
        field(raw, "chi", where, integer),
        field(raw, "sigma", where, integer),
        field(raw, "quarter_dim", where, partial(integer, low=1)),
    )


def _load_obstruction(doc: Mapping) -> ObstructionCase:
    """The obstruction section, with chi and sigma read from genus.congruence.

    The two filter switches are derived from chi and sigma; a document that
    still gives one must give the derived value.
    """
    where = "obstruction"
    raw = field(doc, where, "", obj)
    factors = field(raw, "factors", where, partial(array, item=_load_root_system))
    if not factors:
        raise CaseError(f"{where}.factors: expected a nonempty list")
    manifold_dim = field(raw, "manifold_dim", where, integer)
    provenance = field(raw, "provenance", where, string, "")
    genus = field(doc, "genus", "", obj, {})
    if "congruence" not in genus:
        raise CaseError(f"genus.congruence: {where} reads chi and sigma from it, but it is missing")
    chi, sigma, quarter = field(genus, "congruence", "genus", _load_congruence)
    try:
        case = ObstructionCase(
            factors=tuple(factors), manifold_dim=manifold_dim, chi=chi, sigma=sigma,
            provenance=provenance,
        )
    except ValueError as exc:  # an odd or nonpositive manifold_dim
        raise CaseError(f"{where}.{exc}") from exc
    if 4 * quarter != manifold_dim:
        raise CaseError(
            f"genus.congruence.quarter_dim: expected {where}.manifold_dim / 4, "
            f"got {quarter} for a manifold of dimension {manifold_dim}"
        )
    for key in ("euler_nonzero", "almost_complex_forbidden"):
        given = field(raw, key, where, boolean, None)
        derived = getattr(case, key)
        if given is not None and given != derived:
            raise CaseError(
                f"{where}.{key}: given {json.dumps(given)}, but chi = {chi} and "
                f"sigma = {sigma} make it {json.dumps(derived)}"
            )
    return case


# -- sections ----------------------------------------------------------------


def _ring_section(ring: RingPresentation) -> dict:
    sizes = {str(d): len(basis(ring, d)) for d in range(0, ring.top_degree + 1, 2)}
    return {
        "generators": list(ring.generators),
        "top_degree": ring.top_degree,
        "fundamental": ring.format_monomial(ring.fundamental),
        "basis_sizes": sizes,
        "confluent": True,  # parse_presentation rejects non-confluent input
    }


def _matching_section(ring: RingPresentation, targets: TargetClasses, raw, where: str) -> list:
    coordinates = partial(integers, length=len(basis(ring, 2)))
    out = []
    for i, cand in enumerate(array(raw, where, partial(array, item=coordinates))):
        classes = [ring.class_from_coeffs(vec) for vec in cand]
        try:
            rep = matches_targets(LineBundleSum(ring, tuple(classes)), targets)
        except ValueError as exc:  # a rank error or an empty candidate
            raise CaseError(f"{where}[{i}]: {exc}") from exc
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


def _genus_section(ring: RingPresentation | None, raw, where: str = "genus") -> dict:
    raw = obj(raw, where)
    out: dict = {}
    if "roots" in raw:
        if ring is None:
            raise CaseError(f"{where}.roots requires a ring presentation")
        roots = tuple(field(raw, "roots", where, partial(array, item=_class_reader(ring))))
        try:
            data = ChernRootData(ring=ring, roots=roots)
            chi = chi_y(data)
        except ValueError as exc:
            raise CaseError(f"{where}.roots: {exc}") from exc
        out["chi_y"] = list(chi.coefficients)
        out["euler"] = euler_from_chi(chi)
        out["signature"] = signature_from_chi(chi)
        out["todd"] = todd_from_chi(chi)
        out["duality"] = duality_check(chi, data.n)
    if "congruence" in raw:
        chi_val, sigma_val, quarter = field(raw, "congruence", where, _load_congruence)
        if ring is not None and 4 * quarter != ring.top_degree:
            raise CaseError(
                f"{where}.congruence.quarter_dim: expected ring.top_degree / 4, "
                f"got {quarter} for a ring of top degree {ring.top_degree}"
            )
        out["congruence"] = {
            "chi": chi_val,
            "sigma": sigma_val,
            "quarter_dim": quarter,
            "holds": hirzebruch_congruence(chi_val, sigma_val, quarter),
        }
    if not out:
        raise CaseError(f"{where}: needs 'roots' or 'congruence'")
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
        catalog = catalog_irreps(rs, case.manifold_dim)
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


def _title(doc: Mapping) -> tuple[str, str]:
    """The case's name and anchor, checked before any section runs."""
    return field(doc, "name", "", string, "unnamed"), field(doc, "anchor", "", string, "")


def _report(doc: Mapping, title: tuple[str, str], sections: dict) -> dict:
    try:
        digest = input_digest(dict(doc))
    except CanonicalError as exc:  # a float in a field no section reads, say
        raise CaseError(f"{exc.where or 'case document'}: {exc}") from exc
    return {
        "case": title[0],
        "anchor": title[1],
        "version": __version__,
        "input_digest": digest,
        "sections": sections,
    }


def run_case(doc: Mapping, budget: int | None = None) -> dict:
    """Execute every actionable section of a case document, in order."""
    title = _title(obj(doc, "case document"))
    sections: dict = {}
    ring = None
    targets = None
    if "ring" in doc:
        ring = parse_presentation(doc["ring"])
        sections["ring"] = _ring_section(ring)
    if "targets" in doc:
        if ring is None:
            raise CaseError("'targets' requires a 'ring' section")
        targets = _load_targets(ring, doc["targets"])
    if "candidates" in doc:
        if targets is None:
            raise CaseError("'candidates' requires a 'targets' section")
        sections["matching"] = _matching_section(ring, targets, doc["candidates"], "candidates")
    if "search" in doc:
        if targets is None:
            raise CaseError("'search' requires a 'targets' section")
        spec = _load_search_spec(ring, targets, doc["search"], budget)
        try:
            sections["search"] = enumerate_splittings(spec).as_jsonable()
        except RankError as exc:
            raise CaseError(f"search.m: {exc}") from exc
        except BoundError as exc:
            key = "per_variable" if isinstance(spec.bound, ExplicitBound) else "multipliers"
            raise CaseError(f"search.bound.{key}: {exc}") from exc
    if "genus" in doc:
        sections["genus"] = _genus_section(ring, doc["genus"])
    if "obstruction" in doc:
        sections["obstruction"] = _obstruction_section(_load_obstruction(doc))
    if not sections:
        raise CaseError("case document has no actionable section")
    return _report(doc, title, sections)


# -- command line ------------------------------------------------------------


def _load_case_document(ref: str, parameter: int | None) -> Mapping:
    """A built-in case, or the JSON object in the file `ref`."""
    if ref in list_builtin_cases():
        return builtin_case(ref, parameter)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    genus = sub.add_parser("genus", help="run only the ring and genus sections")
    add_common(genus)

    reps = sub.add_parser("reps", help="dump the irrep catalogs for an obstruction case")
    add_common(reps)

    obstruct = sub.add_parser("obstruct", help="run only the obstruction section")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            _print("\n".join(
                f"{name} (parameter: {PARAMETER_NAMES[name]})" if name in PARAMETER_NAMES else name
                for name in list_builtin_cases()
            ))
            return EXIT_OK

        doc = _load_case_document(args.case, args.q)
        if args.command == "verify":
            report = run_case(doc, budget=args.budget)
        elif args.command == "genus":
            if "genus" not in doc:
                raise CaseError("case document has no genus section")
            slim = {k: doc[k] for k in ("name", "anchor", "ring", "genus") if k in doc}
            report = run_case(slim)
        else:  # obstruct or reps
            if "obstruction" not in doc:
                raise CaseError("case document has no obstruction section")
            title = _title(doc)
            case = _load_obstruction(doc)
            if args.command == "obstruct":
                # the digest covers what the section reads: chi and sigma come from genus
                slim = {k: doc[k] for k in ("name", "anchor", "genus", "obstruction") if k in doc}
                report = _report(slim, title, {"obstruction": _obstruction_section(case)})
            else:
                report = _report(doc, title, {"reps": _reps_section(case)})

        check_exact(report)
        # written first, so a failed write prints no report before its error
        if args.emit:
            try:
                emit_report(report, args.emit)
            except OSError as exc:  # a missing directory, say, or a directory
                raise CaseError(f"--emit {args.emit}: cannot write the report: {exc}") from exc
        _print(json.dumps(report, sort_keys=True, indent=2, default=exact_json))
        if args.command == "verify" and args.expect:
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
