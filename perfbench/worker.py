"""One benchmark worker process: set up, run whole passes, report as JSON.

Started by run.py, one process per slice of a run.  It imports the program
from the checkout's src/, builds the workload's inputs from the seed, then
runs closed-loop passes over the fixed input mix (each input once, or
MIX_REPEATS times, per pass, in a seeded order) until its slice is spent,
always at least one pass.  Between verdicts, at most every
REFERENCE_EVERY_S, it also times reference_kernel, which run.py uses to
normalize host speed.
The last line of its standard output is one JSON object; run.py reads it.

    python3 perfbench/worker.py --workload NAME --seed N --slice S
        --trace 0|1 --index I --spawned-at T
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED,
    GENUS_RINGS,
    MIX_REPEATS,
    ROOT_SETS_PER_RING,
    WORKLOAD_INPUTS,
    VerdictMismatch,
    mismatch,
)

import splitcheck  # noqa: E402
from splitcheck import cases, cli, genus, report  # noqa: E402
from splitcheck import ring as ringmod  # noqa: E402

if not Path(splitcheck.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"splitcheck imported from {splitcheck.__file__}, not from {SRC}")


# least seconds between two timings of the reference kernel
REFERENCE_EVERY_S = 0.1


def reference_kernel() -> None:
    """Fixed pure-Python work like the ring layer's inner loop: Fractions
    summed into a dict keyed by exponent tuples.  It calls nothing of the
    program, so its time tracks only how fast the host runs Python."""
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(200):
        for j in range(8):
            mono = (i % 7, j, (i * j) % 5)
            acc[mono] = acc.get(mono, 0) + Fraction(i, j + 1)


def case_verdict(name: str, doc: dict) -> bytes:
    """Run one case document, check it, return its canonical report bytes."""
    blob = report.canonical_bytes(cli.run_case(doc))
    found = mismatch(EXPECTED[name], json.loads(blob)["sections"])
    if found:
        raise VerdictMismatch(found)
    return blob


def root_inputs(seed: int) -> list[tuple[str, object, list]]:
    """(ring input name, parsed ring, root sets) for the genus-roots workload.

    A root set is (roots, trivial root count, t): n roots with coordinates
    in [-2, 2], 0-2 extra trivial roots, and a scaling t in {-1, 2, 3}.
    """
    rng = random.Random(seed)
    out = []
    for name, case, par in GENUS_RINGS:
        ring = ringmod.parse_presentation(cases.builtin_case(case, par)["ring"])
        coords = ringmod.basis(ring, 2)
        n = ring.top_degree // 2
        root_sets = []
        for _ in range(ROOT_SETS_PER_RING):
            roots = tuple(
                ringmod.GradedClass.from_terms((m, rng.randint(-2, 2)) for m in coords)
                for _ in range(n)
            )
            root_sets.append((roots, rng.randint(0, 2), rng.choice((-1, 2, 3))))
        out.append((name, ring, root_sets))
    return out


def roots_verdict(ring, roots, extra: int, t: int) -> bytes:
    """The four genus entry points on one root set, checked against each
    other: Euler specialization, duality, direct signature, t-scaling."""
    data = genus.ChernRootData(ring=ring, roots=roots + (ringmod.GradedClass.zero(),) * extra)
    chi = genus.chi_y(data)
    scaled = genus.chi_y_scaled(data, t)
    sigma = genus.signature_direct(data)
    euler = genus.top_chern_integral(genus.ChernRootData(ring=ring, roots=roots))
    if genus.euler_from_chi(chi) != euler:
        raise VerdictMismatch(f"chi_y(-1) = {genus.euler_from_chi(chi)} but e = {euler}")
    if not genus.duality_check(chi, data.n):
        raise VerdictMismatch(f"duality fails for {chi.coefficients}")
    if genus.signature_from_chi(chi) != sigma:
        raise VerdictMismatch(f"chi_y(1) = {genus.signature_from_chi(chi)} but sigma = {sigma}")
    if scaled.coefficients != chi.coefficients:
        raise VerdictMismatch(f"scaling by t = {t} changed chi_y")
    return report.canonical_bytes({"chi_y": list(chi.coefficients), "signature": sigma, "euler": euler})


def build_verdicts(workload: str, seed: int) -> list[tuple[str, str, object]]:
    """(input name, verdict key, zero-argument verdict call) in mix order."""
    if workload == "genus-roots":
        return [
            (name, f"{name}#{i}", lambda a=(ring, *rs): roots_verdict(*a))
            for name, ring, root_sets in root_inputs(seed)
            for i, rs in enumerate(root_sets)
        ]
    return [
        (name, name, lambda name=name, doc=cases.builtin_case(case, par): case_verdict(name, doc))
        for name, case, par in WORKLOAD_INPUTS[workload]
        for _ in range(MIX_REPEATS.get(name, 1))
    ]


def run_worker(
    workload: str,
    seed: int,
    slice_s: float,
    traced: bool,
    index: int,
    spawned_at: float,
) -> dict:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    verdicts = build_verdicts(workload, seed)
    setup_trace = tracer.take() if tracer else None

    samples: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    failures: list[str] = []
    pass_rates: list[float] = []
    reference: list[float] = []
    attempted = 0
    clock = time.perf_counter
    # CLOCK_MONOTONIC is system-wide, so this compares with the parent's clock
    first_verdict = time.monotonic()
    started = clock()
    last_reference = -REFERENCE_EVERY_S
    while True:
        order = list(verdicts)
        random.Random(f"{seed}/{index}/{len(pass_rates)}").shuffle(order)
        pass_start, completed, paused = clock(), 0, 0.0
        for name, key, call in order:
            if clock() - last_reference >= REFERENCE_EVERY_S:
                t0 = clock()
                reference_kernel()
                last_reference = clock()
                reference.append(last_reference - t0)
                paused += reference[-1]
            attempted += 1
            t0 = clock()
            try:
                blob = call()
            except Exception as exc:  # a verdict that raises counts as failed
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - t0
            completed += 1
            samples.setdefault(name, []).append(elapsed)
            fingerprint = hashlib.sha256(blob).hexdigest()
            if digests.setdefault(key, fingerprint) != fingerprint:
                failures.append(f"{key}: report bytes changed between passes")
        now = clock()
        pass_rates.append(completed / (now - pass_start - paused))
        spent = now - started
        if spent + spent / len(pass_rates) > slice_s:
            break

    return {
        "traced": traced,
        "setup_s": first_verdict - spawned_at,
        "timed_s": spent,
        "pass_rates": pass_rates,
        "reference_s": reference,
        "attempted": attempted,
        "failures": failures,
        "samples": samples,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_trace": setup_trace,
        "trace": tracer.take() if tracer else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=float, required=True, dest="slice_s")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    result = run_worker(
        args.workload, args.seed, args.slice_s, bool(args.trace), args.index, args.spawned_at
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
