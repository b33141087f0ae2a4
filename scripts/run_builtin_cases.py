#!/usr/bin/env python3
"""Run every built-in case and print a one-line verdict per case.

The family case runs once per requested q.  With --emit-dir, each full
report is also written as canonical JSON named after the case, so two runs
of this script must produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.cli import run_case
from splitcheck.report import emit_report, jsonable


def describe(report: dict) -> str:
    bits = []
    sections = report["sections"]
    if "search" in sections:
        cert = sections["search"]
        status = "exhaustive" if cert["exhaustive"] else "PARTIAL"
        bits.append(
            f"search: {cert['solution_count']} solution(s), "
            f"{cert['visited']}/{cert['enumerated']} visited, {status}"
        )
    if "matching" in sections:
        matched = sum(1 for m in sections["matching"] if m["matched"])
        bits.append(f"candidates: {matched}/{len(sections['matching'])} matched")
    if "genus" in sections and "congruence" in sections["genus"]:
        holds = sections["genus"]["congruence"]["holds"]
        bits.append(f"congruence: {'holds' if holds else 'fails'}")
    if "genus" in sections and "chi_y" in sections["genus"]:
        bits.append(f"chi_y: {jsonable(sections['genus']['chi_y'])}")
    if "obstruction" in sections:
        bits.append(f"obstruction: {sections['obstruction']['verdict']}")
    return "; ".join(bits) or "ring checks only"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", type=int, nargs="+", default=[2, 3, 4, 5],
                        help="q values for the r-p family case")
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--emit-dir", default=None, metavar="DIR")
    args = parser.parse_args()

    jobs: list[tuple[str, int | None]] = []
    for name in list_builtin_cases():
        if name == "r-p":
            jobs.extend((name, q) for q in args.qs)
        else:
            jobs.append((name, None))

    emit_dir = Path(args.emit_dir) if args.emit_dir else None
    if emit_dir:
        emit_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name, par in jobs:
        label = name if par is None else f"{name}(q={par})"
        doc = builtin_case(name, par)
        started = time.perf_counter()
        try:
            report = run_case(doc, budget=args.budget)
        except Exception as exc:  # noqa: BLE001 - summarized per case
            print(f"{label:24s} ERROR {exc}")
            failures += 1
            continue
        wall = time.perf_counter() - started
        print(f"{label:24s} {wall:7.2f}s  {describe(report)}")
        if emit_dir:
            emit_report(report, emit_dir / f"{label.replace('(', '_').rstrip(')')}.json")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
