"""Tests of the benchmark itself: exact counts repeat, checks pass, a bare copy fails.

Run from the repository root with `python3 -m pytest perfbench` (a few minutes:
each case runs the real workloads for one traced pair of passes).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stability-gallery", "certificate-sweep", "allen-cahn-desk",
             "cahn-hilliard-desk")
# metrics that are counts, not timings: equal seeds must give equal values
EXACT = ("stability.points", "integrate.steps", "spectral.fft_calls_per_step",
         "spectral.fft_bytes_per_step", "integrate.blowup_step_k3b1",
         "integrate.blowup_step_k4b1", "outputs.bytes")


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc, line=-1):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[line])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, second = (bench(workload, 7, trace=1) for _ in range(2))
    details, first, second = result(first, -2), result(first), result(second)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload.endswith("-desk"):
        # the traced step count agrees with the work count read from the outputs
        assert first["metrics"]["integrate.steps"]["value"] == details["passes"][0]["work"]


def test_second_seed_keeps_cahn_hilliard_verdicts():
    # the check asserts the stable/blow-up pattern of all five schemes for
    # every seed, so a correct run on another seed has the same verdicts
    one, two = (result(bench("cahn-hilliard-desk", seed, trace=1)) for seed in (1, 2))
    assert one["correct"] and two["correct"]
    for name in ("spectral.fft_calls_per_step", "spectral.fft_bytes_per_step"):
        assert one["metrics"][name] == two["metrics"][name]
    assert one["metrics"]["integrate.blowup_step_k3b1"]["value"] == 97
    assert two["metrics"]["integrate.blowup_step_k3b1"]["value"] == 242


def test_end_to_end_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = result(bench("stability-gallery", 3, trace=0))
    assert res["correct"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metrics_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("stability-gallery", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
