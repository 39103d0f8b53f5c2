"""Smoke test of the benchmark: every workload at a reduced size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints every metric BENCHMARK.json names, with its unit,
that every output check of the workload runs, that traced counts repeat
exactly, and that the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, demo_document  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

CHECKS = {
    "demo-sweep": ["gen_signal", "validation_sweep", "no_divergence", "max_h_norm",
                   "tail_within_bound", "integrator_agreement", "events_rows",
                   "energy_envelope", "repeat_identical"],
    "switch-heavy": ["gen_signal", "validation_sweep", "bound_zero",
                     "asymptotic_convergence", "energy_envelope", "repeat_identical"],
    "wide": ["gen_signal", "validation_sweep", "mode_spectra", "certificates",
             "no_divergence", "tail_within_bound", "repeat_identical"],
}


def run_bench(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    res, lines = result(run_bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    ran = [ln.split(":")[0].split(".", 1)[1] for ln in lines if ln.startswith("check ")]
    assert ran == CHECKS[workload]
    assert res["attempted"] == len(CHECKS[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_repeat(workload):
    runs = [result(run_bench(workload, 1))[0] for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for name, unit in expected.items():
        if unit == "count":
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_trace", "__pycache__"))
    proc = run_bench("wide", 0, cwd=str(tmp_path), script="perfbench/run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("variant", ["practical", "asymptotic"])
def test_frozen_demo_matches_the_bundled_demo(variant):
    from omaslab.demo import demo_scenario_dict

    assert demo_document(variant, 11) == demo_scenario_dict(variant, seed=11)
