"""Case loading, subcommand dispatch, and report emission.

A case document is a JSON object (or a built-in from the case library) with
a ring presentation and any of: target classes, candidate splittings, a
search section, genus data, an obstruction section.  `verify` runs every
section present, in order: ring checks, class matching, search, genus,
obstruction.  The exit code reports operational success only; mathematical
verdicts are asserted with --expect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Mapping, Sequence

from . import __version__
from .cases import PARAMETER_NAMES, builtin_case, list_builtin_cases
from .charclass import LineBundleSum, RankError, TargetClasses, TargetError, matches_targets
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
from .report import emit_report, fraction_from_json, input_digest, jsonable
from .ring import GradedClass, PresentationError, RingPresentation, basis, parse_presentation
from .search import (
    DEFAULT_BUDGET,
    BoundError,
    ExplicitBound,
    SearchSpec,
    SumOfSquaresBound,
    enumerate_splittings,
)


class CaseError(ValueError):
    """Malformed case document; the message names the offending field."""


EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXPECTATION = 3


def _require(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise CaseError(f"{where} is missing field '{key}'")
    return doc[key]


def _bool(doc: Mapping, key: str, where: str, default: bool | None = None) -> bool:
    """A JSON true or false; anything else is an error, never a truthiness test."""
    if default is not None and key not in doc:
        return default
    value = _require(doc, key, where)
    if not isinstance(value, bool):
        raise CaseError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def _int(doc: Mapping, key: str | int, where: str, default: int | None = None) -> int:
    """A JSON integer; a bool, float, string, list or null is an error."""
    if default is not None and key not in doc:
        return default
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        field = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"
        raise CaseError(f"{field}: expected an integer, got {value!r}")
    return value


def _str(doc: Mapping, key: str, where: str, default: str) -> str:
    """An optional JSON string; any other value is an error, never coerced by str()."""
    value = doc.get(key, default)
    if not isinstance(value, str):
        field = f"{where}.{key}" if where else key
        raise CaseError(f"{field}: expected a string, got {value!r}")
    return value


def _class_from_terms(ring: RingPresentation, raw, where: str) -> GradedClass:
    if not isinstance(raw, (list, tuple)):
        raise CaseError(f"{where}: expected a list of [coefficient, exponents] terms")
    n = len(ring.generators)
    terms = []
    for i, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise CaseError(f"{where}[{i}]: expected a [coefficient, exponents] pair")
        coeff = fraction_from_json(item[0], f"{where}[{i}][0]")
        exps = item[1]
        if not isinstance(exps, (list, tuple)) or len(exps) != n or not all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps
        ):
            raise CaseError(f"{where}[{i}][1]: expected {n} nonnegative integer exponents")
        terms.append((tuple(exps), coeff))
    return GradedClass.from_terms(terms)


def _load_targets(ring: RingPresentation, raw, where: str = "targets") -> TargetClasses:
    if not isinstance(raw, Mapping):
        raise CaseError(f"{where}: expected an object")
    chern_raw = raw.get("chern")
    real_rank = _int(raw, "real_rank", where)
    if real_rank < 0:
        raise CaseError(f"{where}.real_rank: expected a nonnegative integer, got {real_rank}")
    return TargetClasses(
        p1_target=_class_from_terms(ring, _require(raw, "p1", where), f"{where}.p1"),
        euler_target=_class_from_terms(ring, _require(raw, "euler", where), f"{where}.euler"),
        euler_sign_flexible=_bool(raw, "euler_sign_flexible", where),
        real_rank=real_rank,
        chern_target=(
            _class_from_terms(ring, chern_raw, f"{where}.chern") if chern_raw is not None else None
        ),
    )


def _load_search_spec(
    ring: RingPresentation,
    targets: TargetClasses,
    raw,
    budget: int | None,
    where: str = "search",
) -> SearchSpec:
    if not isinstance(raw, Mapping):
        raise CaseError(f"{where}: expected an object")
    bound_raw = _require(raw, "bound", where)
    if not isinstance(bound_raw, Mapping):
        raise CaseError(f"{where}.bound: expected an object")
    kind = _require(bound_raw, "type", f"{where}.bound")
    if kind == "sum_of_squares":
        multipliers = _require(bound_raw, "multipliers", f"{where}.bound")
        if not isinstance(multipliers, (list, tuple)):
            raise CaseError(f"{where}.bound.multipliers: expected a list")
        bound = SumOfSquaresBound(
            tuple(
                fraction_from_json(x, f"{where}.bound.multipliers[{i}]")
                for i, x in enumerate(multipliers)
            )
        )
    elif kind == "explicit":
        per_variable = _require(bound_raw, "per_variable", f"{where}.bound")
        if not isinstance(per_variable, (list, tuple)):
            raise CaseError(f"{where}.bound.per_variable: expected a list of integers")
        indexed = dict(enumerate(per_variable))
        bound = ExplicitBound(
            per_variable=tuple(
                _int(indexed, i, f"{where}.bound.per_variable") for i in indexed
            ),
            acknowledged=_bool(bound_raw, "acknowledged", f"{where}.bound", default=False),
            note=_str(bound_raw, "note", f"{where}.bound", ""),
        )
    else:
        raise CaseError(f"{where}.bound.type: unknown bound type {kind!r}")
    if budget is None:
        budget = _int(raw, "budget", where, default=DEFAULT_BUDGET)
    if budget < 0:
        raise CaseError(f"{where}.budget: expected a nonnegative integer, got {budget}")
    try:
        return SearchSpec(
            ring=ring,
            targets=targets,
            m=_int(raw, "m", where),
            bound=bound,
            budget=budget,
        )
    except ValueError as exc:
        raise CaseError(f"{where}.{exc}") from exc


def _load_root_system(raw, where: str) -> RootSystem:
    if not isinstance(raw, Mapping):
        raise CaseError(f"{where}: expected an object with 'family' and 'rank'")
    family = _require(raw, "family", where)
    rank = _int(raw, "rank", where)
    try:
        return RootSystem(family=family, rank=rank)
    except ValueError as exc:
        raise CaseError(f"{where}: {exc}") from exc


def _load_obstruction(raw, where: str = "obstruction") -> ObstructionCase:
    if not isinstance(raw, Mapping):
        raise CaseError(f"{where}: expected an object")
    factors_raw = _require(raw, "factors", where)
    if not isinstance(factors_raw, (list, tuple)) or not factors_raw:
        raise CaseError(f"{where}.factors: expected a nonempty list")
    factors = tuple(
        _load_root_system(f, f"{where}.factors[{i}]") for i, f in enumerate(factors_raw)
    )
    fields = dict(
        factors=factors,
        manifold_dim=_int(raw, "manifold_dim", where),
        euler_nonzero=_bool(raw, "euler_nonzero", where),
        almost_complex_forbidden=_bool(raw, "almost_complex_forbidden", where),
        provenance=_str(raw, "provenance", where, ""),
    )
    try:
        return ObstructionCase(**fields)
    except ValueError as exc:  # an odd or nonpositive manifold_dim
        raise CaseError(f"{where}.{exc}") from exc


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
    if not isinstance(raw, (list, tuple)):
        raise CaseError(f"{where}: expected a list of candidate splittings")
    r = len(basis(ring, 2))
    out = []
    for i, cand in enumerate(raw):
        if not isinstance(cand, (list, tuple)):
            raise CaseError(f"{where}[{i}]: expected a list of coefficient vectors")
        classes = []
        for j, vec in enumerate(cand):
            if not isinstance(vec, (list, tuple)) or len(vec) != r or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in vec
            ):
                raise CaseError(f"{where}[{i}][{j}]: expected {r} integer coordinates")
            classes.append(ring.class_from_coeffs(vec))
        try:
            rep = matches_targets(LineBundleSum(ring, tuple(classes)), targets)
        except TargetError as exc:
            raise CaseError(f"targets.{exc}") from exc
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
    if not isinstance(raw, Mapping):
        raise CaseError(f"{where}: expected an object")
    out: dict = {}
    roots_raw = raw.get("roots")
    if roots_raw is not None:
        if ring is None:
            raise CaseError(f"{where}.roots requires a ring presentation")
        if not isinstance(roots_raw, (list, tuple)):
            raise CaseError(f"{where}.roots: expected a list of classes")
        roots = tuple(
            _class_from_terms(ring, r, f"{where}.roots[{i}]") for i, r in enumerate(roots_raw)
        )
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
    cong_raw = raw.get("congruence")
    if cong_raw is not None:
        if not isinstance(cong_raw, Mapping):
            raise CaseError(f"{where}.congruence: expected an object")
        chi_val = _int(cong_raw, "chi", f"{where}.congruence")
        sigma_val = _int(cong_raw, "sigma", f"{where}.congruence")
        quarter = _int(cong_raw, "quarter_dim", f"{where}.congruence")
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
    return {
        "summands": [
            {"name": p.name, "real_dim": p.real_dim, "field_type": p.field_type}
            for p in trace.summands
        ],
        "rejected_by": trace.rejected_by,
        "detail": trace.detail,
    }


def _obstruction_section(case: ObstructionCase) -> dict:
    result = obstruct_tangent_rep(case)
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
    return _str(doc, "name", "", "unnamed"), _str(doc, "anchor", "", "")


def _refused_at(value, where: str) -> str:
    """The path of the innermost part of `value` that `jsonable` refuses."""
    if isinstance(value, Mapping):
        items = [(f"{where}.{key}" if where else str(key), item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{where}[{i}]", item) for i, item in enumerate(value)]
    else:
        return where
    for path, item in items:
        try:
            jsonable(item)
        except TypeError:
            return _refused_at(item, path)
    return where  # a key that is not a string


def _report(doc: Mapping, title: tuple[str, str], sections: dict) -> dict:
    try:
        digest = input_digest(dict(doc))
    except TypeError as exc:  # a float in a field no section reads, say
        raise CaseError(f"{_refused_at(doc, '') or 'case document'}: {exc}") from exc
    return {
        "case": title[0],
        "anchor": title[1],
        "version": __version__,
        "input_digest": digest,
        "sections": sections,
    }


def run_case(doc: Mapping, budget: int | None = None) -> dict:
    """Execute every actionable section of a case document, in order."""
    if not isinstance(doc, Mapping):
        raise CaseError("case document must be a JSON object")
    title = _title(doc)
    sections: dict = {}
    ring = None
    targets = None
    if "ring" in doc:
        try:
            ring = parse_presentation(doc["ring"])
        except PresentationError as exc:
            raise CaseError(str(exc)) from exc
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
        except TargetError as exc:
            raise CaseError(f"targets.{exc}") from exc
        except RankError as exc:
            raise CaseError(f"search.m: {exc}") from exc
        except BoundError as exc:
            key = "per_variable" if isinstance(spec.bound, ExplicitBound) else "multipliers"
            raise CaseError(f"search.bound.{key}: {exc}") from exc
    if "genus" in doc:
        sections["genus"] = _genus_section(ring, doc["genus"])
    if "obstruction" in doc:
        sections["obstruction"] = _obstruction_section(_load_obstruction(doc["obstruction"]))
    if not sections:
        raise CaseError("case document has no actionable section")
    return _report(doc, title, sections)


# -- command line ------------------------------------------------------------


def _load_case_document(ref: str, parameter: int | None) -> dict:
    if ref in list_builtin_cases():
        return builtin_case(ref, parameter)
    if not os.path.exists(ref):
        raise CaseError(
            f"{ref!r} is neither a built-in case nor an existing file; "
            f"built-ins: {', '.join(list_builtin_cases())}"
        )
    with open(ref, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CaseError(f"{ref}: invalid JSON: {exc}") from exc
    if parameter is not None:
        raise CaseError("--q only applies to parameterized built-in cases")
    return doc


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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in list_builtin_cases():
                suffix = f" (parameter: {PARAMETER_NAMES[name]})" if name in PARAMETER_NAMES else ""
                print(f"{name}{suffix}")
            return EXIT_OK

        doc = _load_case_document(args.case, args.q)
        if args.command == "verify":
            report = run_case(doc, budget=args.budget)
        elif args.command == "genus":
            if "genus" not in doc:
                raise CaseError("case document has no genus section")
            slim = {k: doc[k] for k in ("name", "anchor", "ring", "genus") if k in doc}
            report = run_case(slim)
        elif args.command == "obstruct":
            if "obstruction" not in doc:
                raise CaseError("case document has no obstruction section")
            slim = {k: doc[k] for k in ("name", "anchor", "obstruction") if k in doc}
            report = run_case(slim)
        else:  # reps
            if "obstruction" not in doc:
                raise CaseError("case document has no obstruction section")
            title = _title(doc)
            report = _report(doc, title, {"reps": _reps_section(_load_obstruction(doc["obstruction"]))})

        text = json.dumps(jsonable(report), sort_keys=True, indent=2)
        print(text)
        if args.emit:
            emit_report(report, args.emit)
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
