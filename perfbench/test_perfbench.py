"""Self-tests of the benchmark; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, seconds: str = "0.5") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    proc = bench(ROOT, "verify-builtins", trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOAD_INPUTS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_INPUTS)


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_expected_verdict_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    table = tmp_path / "perfbench" / "workloads.py"
    honest = '"hp1-presentation": {"obstruction": {"verdict": "NO-VALID-V"}'
    text = table.read_text()
    assert honest in text
    table.write_text(text.replace(honest, honest.replace("NO-VALID-V", "VALID-V")))

    proc = bench(tmp_path, "verify-builtins", 0)
    assert proc.returncode == 1, proc.stderr
    result = result_of(proc)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert result["metrics"]["verdict_ok_frac"]["value"] < 1.0
    assert "FAILED hp1-presentation: VerdictMismatch: sections.obstruction.verdict" in proc.stdout


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench(tmp_path, "verify-builtins", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_on_hand_made_samples():
    rng = random.Random(0)
    hundred = [float(x) for x in range(1, 101)]
    rng.shuffle(hundred)
    # 100 samples: the 90th is the highest with 10 beyond it
    assert tail(hundred) == (90.0, 90.0, 10)
    # 30 samples: rank 20 of 30
    value, pct, beyond = tail([float(x) for x in range(30, 0, -1)])
    assert (value, round(pct, 2), beyond) == (20.0, 66.67, 10)
    # 22 samples: rank 12 is the first rank above the median with 10 beyond
    assert tail([float(x) for x in range(1, 23)])[:1] == (12.0,)
    # 21 samples and fewer: the median stands in
    assert tail([float(x) for x in range(1, 22)]) == (11.0, 50.0, 10)
    assert tail([5.0, 1.0, 4.0, 2.0]) == (3.0, 50.0, 2)
