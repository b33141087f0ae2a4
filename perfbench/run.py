#!/usr/bin/env python3
"""splitcheck benchmark: one workload per command, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
The run is split into WORKERS slices, each a fresh worker process (see
worker.py) that sets up, then runs whole passes over the workload's fixed
input mix, the next verdict starting only when the previous one returned.
A process runs at least one pass; when passes outlast a slice, the run
uses fewer processes (at least two) to stay near --seconds of timed work.
Several short processes per run average out per-process effects (memory
placement, a noisy neighbour during one slice).  A verdict is one top-level
call plus its correctness check; every verdict is checked against the
known answers in workloads.py, and the canonical bytes of each input must
be identical across all passes and processes.

Workloads (why each was chosen is in BENCHMARK.json):
  search           run_case on the certified searches r-p q=2 and q=3
                   (staged), sp2-t2 and su3-t2 (shell walk), s2xs2 (box)
  verify-builtins  run_case + canonical bytes on the cheap built-ins
  genus-roots      chi_y, chi_y_scaled, signature_direct and
                   top_chern_integral on seeded root sets of seven rings

--trace 0 prints the end-to-end metrics, from untraced processes:
  setup_s          process start to first timed verdict (median over processes)
  verdicts_per_s   verdicts per second of wall time in one pass of the
                   fixed input mix, median over the run's passes
  verdict_s_p50    geometric mean over inputs of each input's median
  verdict_s_tail   geometric mean over inputs of each input's highest
                   percentile with at least 10 samples beyond it, taken
                   within each process, median over processes; with 21
                   samples or fewer in a process its median stands in
  peak_rss_mb      peak resident memory of a worker process (max over them)
  verdict_ok_frac  verdicts that returned the known answer / attempted

Times are normalized to a reference host speed.  Every process also times
worker.reference_kernel, a fixed piece of pure-Python Fraction and dict
work that calls nothing of the program, between verdicts at most every
0.1 s.  Each time the process measured (verdicts, passes, set-up, spans) is
scaled by REFERENCE_S over the process's mean kernel time: seconds on a
host where the kernel takes 5 ms.  On a shared host whose speed drifts for
minutes at a time this cancels the drift, which raw times cannot shed by
any statistic taken within one run.  The env line prints each process's
kernel time and factor, so raw times can be recovered.

--trace 1 alternates untraced and traced processes and prints the per-layer
metrics.  Layer spans come from tracing.py; each value is for one set-up
plus one pass of the mix, averaged over the traced processes; a layer or
input the workload never reaches reads 0.  Per-input medians and
trace.overhead come from the untraced processes of that run.

The last line of standard output is the result as JSON.  The exit code is
0 when every verdict was correct, 1 when one was not, 2 when the benchmark
could not run (for example, no src/ in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOAD_INPUTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 6
DEADLINE_S = 170.0
# Times are reported in seconds of a host on which worker.reference_kernel
# takes this long; see normalize().
REFERENCE_S = 0.005

# per-layer metrics: name -> unit; the case rows follow
LAYER_UNITS = {
    "search.visited": "count",
    "search.accept_calls": "count",
    "search.p1_pass_ratio": "ratio",
    "search.enumerate_splittings.s": "s",
    "search.enumerate_splittings.self_s": "s",
    "search.derive_bounds.s": "s",
    "search.solutions": "count",
    "charclass.first_pontryagin.calls": "count",
    "charclass.first_pontryagin.self_s": "s",
    "charclass.euler_class.calls": "count",
    "charclass.euler_class.self_s": "s",
    "charclass.total_chern.calls": "count",
    "charclass.matches_targets.calls": "count",
    "ring.ring_mul.calls": "count",
    "ring.ring_mul.self_s": "s",
    "ring.reduce_monomial.calls": "count",
    "ring.reduce_monomial.self_s": "s",
    "ring.normal_form.calls": "count",
    "ring.parse_presentation.s": "s",
    "ring.check_confluence.s": "s",
    "genus.chi_y.self_s": "s",
    "genus.chi_y_scaled.self_s": "s",
    "genus.signature_direct.self_s": "s",
    "genus.top_chern_integral.self_s": "s",
    "series.self_s": "s",
    "repcat.obstruct_tangent_rep.s": "s",
    "repcat.catalog_irreps.s": "s",
    "repcat.multisets": "count",
    "report.canonical_bytes.s": "s",
    "report.bytes": "bytes",
    "cli.run_case.self_s": "s",
}
ALL_INPUTS = [name for inputs in WORKLOAD_INPUTS.values() for name, _, _ in inputs]

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_frac": "ratio",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  Up to 21 samples no
    percentile above the median has 10 beyond it, and the median stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10
    if rank <= (n + 1) // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[rank - 1], 100.0 * rank / n, 10


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def environment(args, results: list[dict]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "SPLITCHECK_THREADS": "cleared",
        "PYTHONHASHSEED": "0",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": len(results),
        "traced_processes": sum(r["traced"] for r in results),
        "reference_kernel_ms": [round(1e3 * statistics.fmean(r["reference_s"]), 4) for r in results],
        "speed_factors": [round(r["speed_factor"], 4) for r in results],
    }


def run_worker(workload: str, seed: int, slice_s: float, traced: bool, index: int, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("SPLITCHECK_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--slice", repr(slice_s),
            "--trace", str(int(traced)), "--index", str(index), "--spawned-at", repr(spawned_at),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalize(result: dict) -> dict:
    """Scale a process's times to the reference host speed.

    Each process times a fixed reference kernel between verdicts, at most
    every worker.REFERENCE_EVERY_S.  Every time it measured is multiplied by
    REFERENCE_S over its mean kernel time.  The host flips between a fast
    and a slow state for seconds at a time; the mean, unlike the median,
    weighs both states by how often the kernel met them, as the program's
    own timings do.
    """
    factor = REFERENCE_S / statistics.fmean(result["reference_s"])
    out = dict(result, speed_factor=factor, setup_s=result["setup_s"] * factor)
    out["samples"] = {name: [t * factor for t in ts] for name, ts in result["samples"].items()}
    out["pass_rates"] = [rate / factor for rate in result["pass_rates"]]
    for part in ("setup_trace", "trace"):
        if result[part] is not None:
            spans = [
                [name, parent, calls, total * factor, self_s * factor]
                for name, parent, calls, total, self_s in result[part]["spans"]
            ]
            out[part] = dict(result[part], spans=spans)
    return out


def check_results(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over all processes of a run."""
    failures = [msg for r in results for msg in r["failures"]]
    first: dict[str, str] = {}
    for r in results:
        for key, fingerprint in r["digests"].items():
            if first.setdefault(key, fingerprint) != fingerprint:
                failures.append(f"{key}: report bytes differ between processes")
    return sum(r["attempted"] for r in results), len(failures), failures


def pooled_samples(results: list[dict]) -> dict[str, list[float]]:
    pooled: dict[str, list[float]] = {}
    for r in results:
        for name, values in r["samples"].items():
            pooled.setdefault(name, []).extend(values)
    return pooled


def verdicts_per_s(results: list[dict]) -> float:
    """Median over all passes of a pass's verdicts per second of wall time."""
    return statistics.median(rate for r in results for rate in r["pass_rates"])


def process_tails(results: list[dict]) -> dict[str, list[tuple[float, float, int]]]:
    """Each input's tail within each process that ran it."""
    tails: dict[str, list] = {}
    for r in results:
        for name, values in r["samples"].items():
            tails.setdefault(name, []).append(tail(values))
    return tails


def end_to_end(results: list[dict], attempted: int, failed: int) -> dict:
    pooled = pooled_samples(results)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "verdicts_per_s": verdicts_per_s(results),
        "verdict_s_p50": geomean([statistics.median(v) for v in pooled.values()]),
        "verdict_s_tail": geomean(
            [statistics.median(t[0] for t in ts) for ts in process_tails(results).values()]
        ),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        "verdict_ok_frac": (attempted - failed) / attempted,
    }


def unit_spans(traced: list[dict]) -> tuple[dict, dict]:
    """Spans and counters for one set-up plus one pass, over traced processes.

    Returns ({(name, parent): [calls, total_s, self_s]}, {counter: value}).
    """
    spans: dict[tuple, list[float]] = {}
    counters: dict[str, float] = {}
    passes = sum(len(r["pass_rates"]) for r in traced)
    for r in traced:
        for part, divisor in ((r["setup_trace"], len(traced)), (r["trace"], passes)):
            for name, parent, calls, total, self_s in part["spans"]:
                row = spans.setdefault((name, parent), [0.0, 0.0, 0.0])
                row[0] += calls / divisor
                row[1] += total / divisor
                row[2] += self_s / divisor
            for key, value in part["counters"].items():
                counters[key] = counters.get(key, 0.0) + value / divisor
    return spans, counters


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    spans, counters = unit_spans(traced)

    calls, total_s, self_s = 0, 1, 2

    def total(column: int, name: str, parent: str | None = None) -> float:
        """Sum of one column over spans called `name` (or starting with
        `name` when it ends in a dot), under any parent or the given one."""
        return sum(
            (
                row[column]
                for (n, p), row in spans.items()
                if (n.startswith(name) if name.endswith(".") else n == name)
                and (parent is None or p == parent)
            ),
            0.0,
        )

    accept_calls = total(calls, "charclass.first_pontryagin", "search.enumerate_splittings")
    passed_p1 = total(calls, "charclass.euler_class", "search.enumerate_splittings")
    out = {
        "search.visited": counters.get("search.visited", 0.0),
        "search.accept_calls": accept_calls,
        "search.p1_pass_ratio": passed_p1 / accept_calls if accept_calls else 0.0,
        "search.enumerate_splittings.s": total(total_s, "search.enumerate_splittings"),
        "search.enumerate_splittings.self_s": total(self_s, "search.enumerate_splittings"),
        "search.derive_bounds.s": total(total_s, "search.derive_bounds"),
        "search.solutions": counters.get("search.solutions", 0.0),
        "charclass.first_pontryagin.calls": total(calls, "charclass.first_pontryagin"),
        "charclass.first_pontryagin.self_s": total(self_s, "charclass.first_pontryagin"),
        "charclass.euler_class.calls": total(calls, "charclass.euler_class"),
        "charclass.euler_class.self_s": total(self_s, "charclass.euler_class"),
        "charclass.total_chern.calls": total(calls, "charclass.total_chern"),
        "charclass.matches_targets.calls": total(calls, "charclass.matches_targets"),
        "ring.ring_mul.calls": total(calls, "ring.ring_mul"),
        "ring.ring_mul.self_s": total(self_s, "ring.ring_mul"),
        "ring.reduce_monomial.calls": total(calls, "ring.reduce_monomial"),
        "ring.reduce_monomial.self_s": total(self_s, "ring.reduce_monomial"),
        "ring.normal_form.calls": total(calls, "ring.normal_form"),
        "ring.parse_presentation.s": total(total_s, "ring.parse_presentation"),
        "ring.check_confluence.s": total(total_s, "ring.check_confluence"),
        "genus.chi_y.self_s": total(self_s, "genus.chi_y"),
        "genus.chi_y_scaled.self_s": total(self_s, "genus.chi_y_scaled"),
        "genus.signature_direct.self_s": total(self_s, "genus.signature_direct"),
        "genus.top_chern_integral.self_s": total(self_s, "genus.top_chern_integral"),
        "series.self_s": total(self_s, "series."),
        "repcat.obstruct_tangent_rep.s": total(total_s, "repcat.obstruct_tangent_rep"),
        "repcat.catalog_irreps.s": total(total_s, "repcat.catalog_irreps"),
        "repcat.multisets": counters.get("repcat.multisets", 0.0),
        "report.canonical_bytes.s": total(total_s, "report.canonical_bytes"),
        "report.bytes": counters.get("report.bytes", 0.0),
        "cli.run_case.self_s": total(self_s, "cli.run_case"),
    }
    pooled = pooled_samples(untraced)
    for name in ALL_INPUTS:
        out[f"case.{name}.verdict_s"] = statistics.median(pooled[name]) if name in pooled else 0.0
    out["trace.overhead"] = verdicts_per_s(untraced) / verdicts_per_s(traced)
    return out


def print_tables(untraced: list[dict], traced: list[dict]) -> None:
    print("per input: samples and median over the run; tail, its percentile and the")
    print("samples beyond it within each process, median over processes")
    print(f"{'input':28s} {'n':>6s} {'p50_ms':>10s} {'tail_ms':>10s} {'tail_pct':>8s} {'beyond':>6s}")
    tails = process_tails(untraced)
    for name, values in sorted(pooled_samples(untraced).items()):
        value, pct, beyond = (statistics.median(column) for column in zip(*tails[name]))
        print(
            f"{name:28s} {len(values):6d} {1e3 * statistics.median(values):10.3f} "
            f"{1e3 * value:10.3f} {pct:8.2f} {beyond:6g}"
        )
    if traced:
        spans, counters = unit_spans(traced)
        print("spans per set-up plus one pass (name <- parent: calls, total_s, self_s)")
        for (name, parent), (calls, total_s, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name} <- {parent}: {calls:.1f}, {total_s:.6f}, {self_s:.6f}")
        print(f"counters per set-up plus one pass: {json.dumps(counters, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splitcheck" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'splitcheck'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    slice_s = args.seconds / WORKERS
    results: list[dict] = []
    timed = 0.0
    try:
        while len(results) < WORKERS:
            # a workload whose pass outlasts a slice gets fewer processes,
            # so that the run still measures about --seconds
            if len(results) >= 2 and timed + timed / len(results) > args.seconds + slice_s / 2:
                break
            index = len(results)
            traced = bool(args.trace) and index % 2 == 1
            results.append(run_worker(args.workload, args.seed, slice_s, traced, index, deadline))
            timed += results[-1]["timed_s"]
        results = [normalize(r) for r in results]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted, failed, failures = check_results(results)
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print("env " + json.dumps(environment(args, results), sort_keys=True))
    print_tables(untraced, traced)
    if args.trace:
        values, units = per_layer(untraced, traced), {
            **LAYER_UNITS, **{f"case.{n}.verdict_s": "s" for n in ALL_INPUTS}, "trace.overhead": "ratio"
        }
    else:
        values, units = end_to_end(untraced, attempted, failed), END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
