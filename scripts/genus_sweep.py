#!/usr/bin/env python3
"""Randomized sweep of the genus-polynomial identities.

For each built-in ring this draws integral degree-2 root data, computes the
genus polynomial, and tallies how often the specialization, duality,
argument-scaling, and direct-signature identities hold (they must always).
A second pass streams random duality-symmetric coefficient vectors through
the telescoped congruence.  Exits nonzero on the first violated identity.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitcheck.cases import builtin_case
from splitcheck.genus import (
    ChernRootData,
    chi_y,
    chi_y_scaled,
    duality_check,
    euler_from_chi,
    signature_direct,
    signature_from_chi,
    telescoped_congruence,
    top_chern_integral,
)
from splitcheck.ring import GradedClass, basis, parse_presentation

RING_REFS = [
    ("cp2-connect-sum", None),
    ("su3-t2", None),
    ("r-p", 2),
    ("r-p-u-variant", 2),
    ("sp2-t2", None),
    ("s2xs2", None),
    ("cpn-split", 4),
]


def random_roots(rng: random.Random, ring, count: int):
    coords = basis(ring, 2)
    return tuple(
        GradedClass.from_terms((m, rng.randint(-2, 2)) for m in coords)
        for _ in range(count)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200, help="per ring")
    parser.add_argument("--vectors", type=int, default=5000,
                        help="random symmetric vectors for the congruence pass")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    for name, par in RING_REFS:
        ring = parse_presentation(builtin_case(name, par)["ring"])
        n = ring.top_degree // 2
        label = name if par is None else f"{name}({par})"
        euler_hits = 0
        for i in range(args.instances):
            roots = random_roots(rng, ring, n)
            data = ChernRootData(ring=ring, roots=roots + (GradedClass.zero(),) * (i % 3))
            chi = chi_y(data)
            honest = ChernRootData(ring=ring, roots=roots)
            if euler_from_chi(chi) != top_chern_integral(honest):
                print(f"{label}: euler specialization violated on {roots}")
                return 1
            if not duality_check(chi, n):
                print(f"{label}: duality violated on {roots}")
                return 1
            if signature_from_chi(chi) != signature_direct(data):
                print(f"{label}: direct signature disagrees on {roots}")
                return 1
            if chi_y_scaled(data, (-1, 2, 3)[i % 3]).coefficients != chi.coefficients:
                print(f"{label}: argument scaling changed chi_y on {roots}")
                return 1
            if euler_from_chi(chi) != 0:
                euler_hits += 1
        print(f"{label:22s} {args.instances} instances ok "
              f"({euler_hits} with nonzero euler)")

    congruent = 0
    for _ in range(args.vectors):
        n = 2 * rng.randint(1, 6)
        half = [rng.randint(-25, 25) for _ in range(n // 2 + 1)]
        coeffs = [0] * (n + 1)
        for p in range(n // 2 + 1):
            coeffs[p] = half[p]
            coeffs[n - p] = (-1) ** n * half[p]
        report = telescoped_congruence(coeffs)
        if not (report.identity_holds and report.congruent):
            print(f"congruence fold violated on {coeffs}")
            return 1
        congruent += 1
    print(f"congruence pass       {congruent} symmetric vectors ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
