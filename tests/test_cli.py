"""End-to-end command line coverage, in-process plus one subprocess check."""

import copy
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from omaslab import cli
from omaslab.certificate import CertificateBundle, ModeCertificate
from omaslab.cli import _jsonable, build_bundle, main, write_json
from omaslab.demo import demo_scenario_dict
from omaslab.scenario import load_scenario, signal_from_dict, signal_to_dict
from omaslab.simulate import RunSummary
from omaslab.switching import ValidationReport, brute_force_suffix_scan, validate_switching

BASE = demo_scenario_dict("practical", seed=11)


@pytest.fixture()
def demo_dict():
    return copy.deepcopy(BASE)


def write(tmp_path, d, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def tree_bytes(directory):
    return {str(f.relative_to(directory)): f.read_bytes()
            for f in sorted(directory.rglob("*")) if f.is_file()}


# --------------------------------------------------------------------------
# analyze


ANALYZE_MODE_KEYS = {
    "id", "n_agents", "class", "grounded_spectrum", "augmented_spectrum", "alpha", "stable",
    "kronecker_spectrum_ok",
}

# InstabilityReport's fields and its verdict
INSTABILITY_KEYS = {
    "trace_augmented", "trace_grounded", "min_real_eig_augmented", "min_real_eig_grounded", "ok",
}


def test_analyze_report(tmp_path, demo_dict, capsys):
    out = tmp_path / "out"
    rc = main(["analyze", "--scenario", write(tmp_path, demo_dict), "--out", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)

    by_id = {m["id"]: m for m in report["modes"]}
    assert by_id[1]["class"] == "positive_spanning"
    assert by_id[2]["class"] == "positive_no_spanning"
    assert by_id[3]["class"] == "negative_majority"
    assert by_id[4]["class"] == "negative_majority"
    for mid, alpha in ((1, -2.925), (2, 0.025), (3, 5.925), (4, 2.975)):
        assert by_id[mid]["alpha"] == pytest.approx(alpha, abs=1e-9)
        assert by_id[mid]["kronecker_spectrum_ok"] is True
    for mid in (3, 4):
        assert by_id[mid]["instability"]["ok"] is True
    assert "instability" not in by_id[1] and "instability" not in by_id[2]
    for mid, entry in by_id.items():
        extra = {"instability"} if mid in (3, 4) else set()
        assert set(entry) == ANALYZE_MODE_KEYS | extra, f"mode {mid}"
        if extra:
            assert set(entry["instability"]) == INSTABILITY_KEYS

    assert report["stable_mode_ids"] == [1]
    assert report["assumptions"]["ok"] is True
    assert report["coupling"]["ok"] is True
    assert report["agent_dimension"] == 2

    # the same report lands in the output directory
    assert read_json(out / "analyze.json") == report


def test_analyze_takes_each_spectrum_once(tmp_path, demo_dict, capsys, monkeypatch):
    # analyze, certify and simulate each take every spectrum once: the report,
    # the instability check, the gain bound and the mode matrices share each
    # mode's. A matrix and its negation have one spectrum up to sign, so they
    # share a key. Only the 2 x 2 drift A is small enough to re-solve.
    import numpy as np

    eigvals, seen = np.linalg.eigvals, []

    def recording(a):
        a = np.asarray(a)
        if a.shape[0] > 2:
            seen.append((a.shape, min(a.tobytes(), (-a).tobytes())))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    path = write(tmp_path, demo_dict)
    for command in ("analyze", "certify", "simulate"):
        seen.clear()
        assert main([command, "--scenario", path, "--out", str(tmp_path / command)]) == 0
        capsys.readouterr()
        assert seen and len(seen) == len(set(seen)), command


def test_each_command_classifies_each_mode_once(tmp_path, demo_dict, capsys, monkeypatch):
    import collections

    import omaslab.mode_dynamics
    import omaslab.scenario
    import omaslab.signed_graph

    classify, counts = omaslab.signed_graph.classify_mode, collections.Counter()

    def counting(m):
        counts[m.mode_id] += 1
        return classify(m)

    for module in (omaslab.signed_graph, omaslab.mode_dynamics, omaslab.scenario, cli):
        if hasattr(module, "classify_mode"):
            monkeypatch.setattr(module, "classify_mode", counting)
    path = write(tmp_path, demo_dict)
    for command in ("analyze", "certify", "simulate"):
        counts.clear()
        assert main([command, "--scenario", path, "--out", str(tmp_path / command)]) == 0
        capsys.readouterr()
        assert counts == {1: 1, 2: 1, 3: 1, 4: 1}, command


# --------------------------------------------------------------------------
# certify


def test_certify_report(tmp_path, demo_dict, capsys):
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)

    assert report["unbounded"] is False
    assert report["ultimate_bound"] > 0
    assert report["floors"]["ratio"] == pytest.approx(13.16, rel=1e-6)
    assert report["floors"]["dwell"] == pytest.approx(
        math.log(report["jump_gain"]) / 1.3, rel=1e-12
    )
    assert report["gamma"]["common"] == -1.3
    assert report["signal"] == {"t0": 0.0, "tf": 30.0, "n_switches": 8}
    v = report["validation"]
    assert v["suffixes"] == "all" and v["ok"] is True
    assert v["ratio_ok"] is True and v["adt_ok"] is True
    assert v["ratio_slack_min"] >= 0 and v["adt_slack_min"] >= 0
    assert set(report["modes"]) == {"1", "2", "3", "4"}
    assert report["modes"]["1"]["stable"] is True
    assert report["bound_applies"] is True


VALIDATION_KEYS = {
    "suffixes", "ok", "ratio_ok", "adt_ok", "worst_ratio_j", "worst_adt_j",
    "ratio_slack_min", "adt_slack_min",
}

CERTIFY_KEYS = {
    "modes", "gamma", "p_under", "p_over", "jump_gain", "flow_offset", "jump_offset",
    "settled_flow", "contraction_worst", "h_bound", "impulse_norm_max",
    "err_jump_norm_max", "floors", "chatter_bound", "ultimate_bound", "unbounded",
    "signal", "validation", "bound_applies",
}


def test_certify_validation_keys_are_the_report_fields(tmp_path, demo_dict, capsys):
    # the JSON keys are the ValidationReport fields, and those are the keys
    # certify.json has always had: renaming a field must not rename a key
    assert main(["certify", "--scenario", write(tmp_path, demo_dict)]) == 0
    report = json.loads(capsys.readouterr().out)
    fields = {f.name for f in dataclasses.fields(ValidationReport)}
    assert set(report["validation"]) == fields | {"suffixes"} == VALIDATION_KEYS
    assert set(report) == CERTIFY_KEYS


def test_certify_keys_are_the_bundle_fields(tmp_path, demo_dict, capsys):
    # certify.json is read off the bundle: a field the bundle gains reaches
    # the report with no second edit, and the keys are the ones it has had
    assert main(["certify", "--scenario", write(tmp_path, demo_dict)]) == 0
    report = json.loads(capsys.readouterr().out)
    fields = {f.name for f in dataclasses.fields(CertificateBundle)}
    fields -= {"certificates", "budget", "sweep"}
    added = {"modes", "jump_gain", "chatter_bound", "gamma", "floors",
             "signal", "validation", "bound_applies"}
    assert set(report) == fields | added == CERTIFY_KEYS
    mode_fields = {f.name for f in dataclasses.fields(ModeCertificate)} - {"mode_id", "P"}
    assert mode_fields == {"alpha", "stable", "gamma", "lambda_min", "lambda_max", "residual"}
    assert all(set(entry) == mode_fields for entry in report["modes"].values())
    assert set(report["gamma"]) == {"stable_max", "unstable_max", "common"}
    assert set(report["floors"]) == {"ratio", "dwell"}


def test_certify_first_suffix_only(tmp_path, demo_dict, capsys):
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict),
               "--validate-suffixes", "first"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["validation"]["suffixes"] == "first"


def test_certify_unbounded_exits_3(tmp_path, demo_dict, capsys):
    # a barely negative common rate cannot pay for mu per switch
    demo_dict["certification"]["gamma_common"] = -0.01
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict)])
    captured = capsys.readouterr()
    assert rc == 3
    report = json.loads(captured.out)  # report still printed before the failure
    assert report["unbounded"] is True
    assert report["ultimate_bound"] is None
    assert report["contraction_worst"] > 0
    assert "error:" in captured.err


def test_large_chatter_bound_reports_an_infinite_bound(tmp_path, demo_dict, capsys):
    # mu^(K+1) leaves the float range at K = 250: the bound is inf, not a crash
    demo_dict["certification"]["chatter_bound"] = 250.0
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["unbounded"] is False and report["ultimate_bound"] == "inf"
    # an infinite bound certifies nothing, so the run is held to no bound
    rc, out = run_simulate(tmp_path, demo_dict, "chatter")
    capsys.readouterr()
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["certified"] is False and summary["ultimate_bound"] is None
    assert summary["bound_respected"] is None


# --------------------------------------------------------------------------
# simulate


def run_simulate(tmp_path, demo_dict, out_name, extra=()):
    out = tmp_path / out_name
    rc = main(["simulate", "--scenario", write(tmp_path, demo_dict),
               "--out", str(out), "--dt", "5e-3", *extra])
    return rc, out


def test_simulate_outputs(tmp_path, demo_dict, capsys):
    rc, out = run_simulate(tmp_path, demo_dict, "run")
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "tail sup error" in stdout

    summary = read_json(out / "summary.json")
    assert summary["seed"] == 11
    assert summary["n_events"] == 8
    assert summary["diverged"] is False
    assert summary["certified"] is True
    assert summary["switching_ok"] is True
    assert summary["bound_applies"] is True
    assert summary["bound_respected"] is True
    assert summary["tail_sup_error"] <= summary["ultimate_bound"]
    assert f"(certified bound {summary['ultimate_bound']:.6g})" in stdout
    assert summary["max_h_norm"] <= 0.2 + 1e-12

    traj_rows = (out / "trajectory.csv").read_text().splitlines()
    assert traj_rows[0].startswith("t,mode,agent_count,xi_agent0_dim0")
    assert len(traj_rows) > 1000
    event_rows = (out / "events.csv").read_text().splitlines()
    assert len(event_rows) == 1 + summary["n_events"]


def test_simulate_converging_run_says_so(tmp_path, capsys):
    # a single seed runs in process, so its stdout is checked here and not
    # only in the sweep's forked workers
    rc, out = run_simulate(tmp_path, demo_scenario_dict("asymptotic", seed=11), "run",
                           extra=("--dt", "1e-2"))
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["converged"] is True and summary["diverged"] is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "converged within tolerance"
    assert f"tail sup error: {summary['tail_sup_error']:.6g}" in lines[-2]


def test_simulate_seed_determinism(tmp_path, demo_dict, capsys):
    _, out1 = run_simulate(tmp_path, demo_dict, "a")
    _, out2 = run_simulate(tmp_path, demo_dict, "b")
    _, out3 = run_simulate(tmp_path, demo_dict, "c", extra=("--seed", "12"))
    capsys.readouterr()
    for name in ("trajectory.csv", "events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() != (out3 / "trajectory.csv").read_bytes()


def test_simulate_resolves_signal_and_builds_modes_once(tmp_path, demo_dict, capsys,
                                                        monkeypatch):
    import omaslab.mode_dynamics
    import omaslab.scenario
    from omaslab.scenario import Scenario

    calls = {"resolve": 0, "build": 0, "parse": 0}
    resolve, build = Scenario.resolve_signal, omaslab.mode_dynamics.build_mode_matrices
    parse = omaslab.scenario.signal_from_dict

    def counting_resolve(self, *args, **kwargs):
        calls["resolve"] += 1
        return resolve(self, *args, **kwargs)

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counting_parse(*args, **kwargs):
        calls["parse"] += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(Scenario, "resolve_signal", counting_resolve)
    for module in (omaslab.scenario, omaslab.mode_dynamics):
        monkeypatch.setattr(module, "build_mode_matrices", counting_build)
    monkeypatch.setattr(omaslab.scenario, "signal_from_dict", counting_parse)
    rc, _ = run_simulate(tmp_path, demo_dict, "once")
    capsys.readouterr()
    assert rc == 0
    assert calls == {"resolve": 1, "build": 1, "parse": 0}

    # a sweep resolves one signal per seed and shares the scenario's matrices
    calls.update(resolve=0, build=0)
    rc, _ = run_simulate(tmp_path, demo_dict, "sweep", extra=("--sweep", "2"))
    capsys.readouterr()
    assert rc == 0
    assert calls == {"resolve": 2, "build": 1, "parse": 0}

    # a signal read from a file is parsed once for all seeds of a sweep
    assert main(["gen-signal", "--scenario", write(tmp_path, demo_dict),
                 "--out", str(tmp_path)]) == 0
    demo_dict["signal"] = {"type": "file", "path": "signal.json"}
    calls.update(resolve=0, build=0)
    rc, out = run_simulate(tmp_path, demo_dict, "file_sweep", extra=("--sweep", "3"))
    capsys.readouterr()
    assert rc == 0
    assert calls == {"resolve": 3, "build": 1, "parse": 1}
    assert len(read_json(out / "sweep.json")["seeds"]) == 3


SUMMARY_KEYS = {
    "seed", "dt", "method", "t0", "tf", "tail_fraction", "tail_sup_error",
    "convergence_tol", "converged", "diverged", "diverged_at", "n_events",
    "max_h_norm", "ultimate_bound", "bound_respected", "switching_ok", "certified",
    "bound_applies",
}


def test_summary_keys_are_the_run_summary_fields(tmp_path, demo_dict, capsys):
    # the JSON keys are the RunSummary fields, and those are the keys
    # summary.json has always had: renaming a field must not rename a key
    fields = {f.name for f in dataclasses.fields(RunSummary)}
    rc, out = run_simulate(tmp_path, demo_dict, "keys")
    assert rc == 0
    added = {"switching_ok", "certified", "bound_applies"}
    assert set(read_json(out / "summary.json")) == fields | added
    assert fields | added == SUMMARY_KEYS
    # a refused certification adds its reason
    demo_dict["dynamics"]["coupling_gain"] = -0.01
    rc, out = run_simulate(tmp_path, demo_dict, "refused")
    capsys.readouterr()
    assert rc == 0
    assert set(read_json(out / "summary.json")) == SUMMARY_KEYS | {"certification_error"}


def test_simulate_reports_inadmissible_gain(tmp_path, demo_dict, capsys):
    # -0.01 is not below the admissible bound -0.025: the run goes ahead,
    # certification is refused and the summary says why
    demo_dict["dynamics"]["coupling_gain"] = -0.01
    rc, out = run_simulate(tmp_path, demo_dict, "gain")
    capsys.readouterr()
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["certified"] is False and summary["bound_applies"] is False
    assert summary["switching_ok"] is None and summary["ultimate_bound"] is None
    assert "admissible bound -0.025" in summary["certification_error"]


def test_simulate_strict_divergence(tmp_path, demo_dict, capsys):
    # parked in the strongly repelling mode the errors overflow near t = 120
    demo_dict["signal"] = {
        "type": "explicit", "t0": 0.0, "tf": 125.0,
        "segments": [{"t": 0.0, "mode": 3}],
    }
    rc, out = run_simulate(tmp_path, demo_dict, "diverge", extra=("--strict",))
    stdout = capsys.readouterr().out
    assert rc == 4
    assert "DIVERGED" in stdout
    summary = read_json(out / "summary.json")
    assert summary["diverged"] is True
    assert 110.0 < summary["diverged_at"] < 125.0
    assert summary["certified"] is True       # the bundle itself is fine
    assert summary["switching_ok"] is False   # this signal is not compliant
    assert summary["bound_applies"] is False  # so its bound says nothing here
    assert summary["bound_respected"] is False

    assert summary["tail_sup_error"] == "inf"

    # without --strict the same run reports but exits 0
    rc2, _ = run_simulate(tmp_path, demo_dict, "diverge2")
    capsys.readouterr()
    assert rc2 == 0

    # diverged long before its tail window, which thus holds no sample: the
    # tail is inf, not the empty window's 0, and no bound is respected
    demo_dict["signal"] = {
        "type": "explicit", "t0": 0.0, "tf": 1000.0,
        "segments": [{"t": 0.0, "mode": 3}, {"t": 200.0, "mode": 1}],
    }
    rc3, out3 = run_simulate(tmp_path, demo_dict, "diverge_sweep",
                             extra=("--dt", "1e-2", "--sweep", "2"))
    stdout = capsys.readouterr().out
    assert rc3 == 0
    assert stdout.count("tail sup error: inf  (bound ") == 2
    for seed in (11, 12):
        summary = read_json(out3 / f"seed_{seed}" / "summary.json")
        assert summary["diverged"] is True and summary["diverged_at"] < 200.0
        assert summary["tail_sup_error"] == "inf"
        assert summary["ultimate_bound"] is not None
        assert summary["bound_respected"] is False
    agg = read_json(out3 / "sweep.json")
    assert agg["tail_sup_error_max"] == "inf"
    assert agg["all_bounds_respected"] is False


def test_diverged_run_says_how_far_it_got(tmp_path, demo_dict, capsys):
    # CI's diverging scenario: parked in mode 3 the run stops near t = 120 of
    # 1000, inside the first of its two segments
    demo_dict["signal"] = {
        "type": "explicit", "t0": 0.0, "tf": 1000.0,
        "segments": [{"t": 0.0, "mode": 3}, {"t": 200.0, "mode": 1}],
    }
    rc, out = run_simulate(tmp_path, demo_dict, "diverging", extra=("--dt", "1e-2"))
    stdout = capsys.readouterr().out
    assert rc == 0
    at = read_json(out / "summary.json")["diverged_at"]
    assert 110.0 < at < 125.0
    assert stdout.startswith(f"integrated {at:g}s of 1000s across 1 of 2 segments (0 migrations)\n")
    assert f"DIVERGED at t = {at:.6g}\n" in stdout


def test_overflowing_jump_stops_the_run_at_the_switch(tmp_path, demo_dict):
    # parked in mode 3 until t = 117 the errors reach about 1e301, and a
    # dependence gain of norm 1e12 on the jump 3 -> 1 overflows them: the
    # run stops at the switching instant, with no warning and no non-finite
    # row, even where a RuntimeWarning is an error
    for ev in demo_dict["events"]:
        if (ev["from"], ev["to"]) == (3, 1):
            ev["dep_gain"] = {"scale": 1e12}
    demo_dict["signal"] = {"type": "explicit", "t0": 0.0, "tf": 300.0,
                           "segments": [{"t": 0.0, "mode": 3}, {"t": 117.0, "mode": 1}]}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "omaslab", "simulate",
         "--scenario", write(tmp_path, demo_dict), "--dt", "1e-2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("integrated 117s of 300s across 1 of 2 segments (0 migrations)\n")
    assert "DIVERGED at t = 117\n" in proc.stdout
    summary = read_json(out / "summary.json")
    assert summary["diverged"] is True and summary["diverged_at"] == 117.0
    assert summary["n_events"] == 0 and summary["tail_sup_error"] == "inf"
    assert (out / "events.csv").read_text().count("\n") == 1  # the header alone
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert rows[-1].startswith("117,3,")
    values = [float(v) for row in rows for v in row.split(",") if v]
    assert all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("dt, message", [("nan", "dt must be positive, got nan"),
                                         ("inf", "dt must be finite, got inf")])
def test_non_finite_dt_exits_2(tmp_path, demo_dict, capsys, dt, message):
    rc, _ = run_simulate(tmp_path, demo_dict, "bad_dt", extra=("--dt", dt))
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("sweep", ["0", "-3"])
def test_sweep_below_one_exits_2(tmp_path, demo_dict, capsys, sweep):
    rc, out = run_simulate(tmp_path, demo_dict, "bad_sweep", extra=("--sweep", sweep))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == f"error: sweep must be >= 1, got {sweep}\n"


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_non_positive_convergence_tol_exits_2(tmp_path, demo_dict, capsys, tol):
    demo_dict["simulation"]["convergence_tol"] = tol
    rc, out = run_simulate(tmp_path, demo_dict, "bad_tol")
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == "error: simulation.convergence_tol: must be positive\n"


@pytest.mark.parametrize("max_dim", [0, -4])
def test_max_dim_below_one_exits_2_at_load(tmp_path, demo_dict, capsys, max_dim):
    # refused when the scenario loads, before any mode is stacked
    demo_dict["simulation"]["max_dim"] = max_dim
    assert main(["analyze", "--scenario", write(tmp_path, demo_dict, "bad_max_dim.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: simulation.max_dim: must be >= 1\n"


@pytest.mark.parametrize("where", ["flag", "scenario"])
def test_step_longer_than_every_segment(tmp_path, demo_dict, capsys, where):
    # every segment is then one step of its own length: the run still ends
    # at tf, and the tail window holds its last samples
    args = ["simulate", "--out", str(tmp_path / "out")]
    if where == "flag":
        args += ["--dt", "1e300"]
    else:
        demo_dict["simulation"]["dt"] = 1e300
    assert main([*args, "--scenario", write(tmp_path, demo_dict)]) == 0
    assert "converged" not in capsys.readouterr().out
    summary = read_json(tmp_path / "out" / "summary.json")
    assert summary["dt"] == 1e300 and summary["n_events"] == 8
    assert summary["tail_sup_error"] > summary["convergence_tol"]
    assert summary["converged"] is False
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    # a header, then each segment's start and end
    assert len(rows) == 1 + 2 * 9
    assert float(rows[-1].split(",")[0]) == 30.0


def test_simulate_sweep(tmp_path, demo_dict, capsys):
    out = tmp_path / "sweep"
    rc = main(["simulate", "--scenario", write(tmp_path, demo_dict),
               "--out", str(out), "--dt", "5e-3", "--sweep", "2"])
    capsys.readouterr()
    assert rc == 0
    agg = read_json(out / "sweep.json")
    assert agg["seeds"] == [11, 12]
    assert agg["all_converged"] in (True, False)
    assert agg["any_diverged"] is False
    assert agg["all_bounds_respected"] is True
    assert agg["all_applicable_bounds_respected"] is True
    assert agg["tail_sup_error_max"] > 0
    for seed in (11, 12):
        for name in ("trajectory.csv", "events.csv", "summary.json"):
            assert (out / f"seed_{seed}" / name).exists()
    assert read_json(out / "seed_12" / "summary.json")["seed"] == 12


def test_sweep_equals_lone_runs(tmp_path, demo_dict, capsys):
    # the seeds run concurrently in forked workers, yet each seed's files
    # are those of the seed run alone, and stdout is theirs in seed order
    rc, sweep = run_simulate(tmp_path, demo_dict, "sweep", extra=("--sweep", "3"))
    stdout = capsys.readouterr().out
    assert rc == 0
    assert multiprocessing.active_children() == []
    expected = ""
    for seed in (11, 12, 13):
        rc, lone = run_simulate(tmp_path, demo_dict, f"lone_{seed}",
                                extra=("--seed", str(seed)))
        assert rc == 0
        expected += f"--- seed {seed} ---\n" + capsys.readouterr().out
        assert tree_bytes(sweep / f"seed_{seed}") == tree_bytes(lone)
    assert stdout == expected


def test_sweep_error_in_a_worker_exits_2(tmp_path, demo_dict, capsys, monkeypatch):
    import omaslab.simulate

    # the step check runs with the integration, in the workers: each call
    # leaves the pid of the process that made it
    pids = tmp_path / "pids"
    run = omaslab.simulate.run_switched

    def recording_run(*args, **kwargs):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run(*args, **kwargs)

    monkeypatch.setattr(omaslab.simulate, "run_switched", recording_run)
    rc, _ = run_simulate(tmp_path, demo_dict, "bad_dt", extra=("--sweep", "2", "--dt", "-1"))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: dt must be positive, got -1.0\n"
    assert captured.out == "--- seed 11 ---\n"
    assert multiprocessing.active_children() == []
    checked_in = set(pids.read_text().split())
    assert checked_in and str(os.getpid()) not in checked_in


def _without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")


def _without_fork(monkeypatch):
    get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)


@pytest.mark.parametrize("platform, in_workers", [(_without_affinity, True),
                                                  (_without_fork, False)])
def test_sweep_without_affinity_or_fork_equals_the_forked_sweep(
        tmp_path, demo_dict, capsys, monkeypatch, platform, in_workers):
    # macOS and Windows have no os.sched_getaffinity, and Windows has no
    # fork: the sweep then counts the cores by os.cpu_count, or runs the
    # seeds in this process in seed order, with the files and stdout of the
    # forked sweep
    import omaslab.simulate

    rc, forked = run_simulate(tmp_path, demo_dict, "forked", extra=("--sweep", "2"))
    expected = capsys.readouterr().out
    assert rc == 0
    pids = tmp_path / "pids"
    run = omaslab.simulate.run_switched

    def recording_run(*args, **kwargs):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run(*args, **kwargs)

    monkeypatch.setattr(omaslab.simulate, "run_switched", recording_run)
    platform(monkeypatch)
    rc, swept = run_simulate(tmp_path, demo_dict, "swept", extra=("--sweep", "2"))
    assert rc == 0
    assert capsys.readouterr().out == expected
    assert tree_bytes(swept) == tree_bytes(forked)
    ran_in = pids.read_text().split()
    assert len(ran_in) == 2
    assert (str(os.getpid()) not in ran_in) == in_workers
    assert multiprocessing.active_children() == []


_UNTOLD_FORCING = {
    "frequency": {"kind": "sinusoidal", "bound": 0.2, "amplitude": [0.1, 0.1],
                  "frequency": 1e308},
    "hold": {"kind": "random", "bound": 0.2, "hold": 1e-300},
    "amplitude": {"kind": "constant", "bound": 0.2, "amplitude": [1e308, 1e308]},
}


@pytest.mark.parametrize("sweep", ["1", "2"])
@pytest.mark.parametrize("field", sorted(_UNTOLD_FORCING))
def test_forcing_that_cannot_be_told_exits_2(tmp_path, demo_dict, capsys, field, sweep):
    # an infinite phase crashed sin, a hold index past int64 gave every
    # t > 0 one draw, and an overflowing tiled norm left the run unforced
    demo_dict["perturbation"] = _UNTOLD_FORCING[field]
    rc, out = run_simulate(tmp_path, demo_dict, "out", extra=("--dt", "1e-2", "--sweep", sweep))
    captured = capsys.readouterr()
    assert rc == 2 and not out.exists()
    assert captured.out == ("" if sweep == "1" else "--- seed 11 ---\n")
    assert captured.err.startswith(f"error: perturbation.{field}: ")
    assert captured.err.count("\n") == 1


def test_sweep_solves_each_mode_certificate_once(tmp_path, demo_dict, capsys, monkeypatch):
    import omaslab.scenario

    solved = []
    solve = omaslab.scenario.solve_mode_certificate

    def counting_solve(mm, *args, **kwargs):
        solved.append(mm.mode_id)
        return solve(mm, *args, **kwargs)

    monkeypatch.setattr(omaslab.scenario, "solve_mode_certificate", counting_solve)
    rc, out = run_simulate(tmp_path, demo_dict, "sweep", extra=("--sweep", "3"))
    capsys.readouterr()
    assert rc == 0
    assert sorted(solved) == [1, 2, 3, 4]
    assert all(read_json(out / f"seed_{s}" / "summary.json")["certified"]
               for s in (11, 12, 13))


def test_one_suffix_sweep_per_certification(tmp_path, demo_dict, capsys, monkeypatch):
    # the bundle keeps its signal's sweep, and the verdicts are read from it
    import omaslab.certificate
    import omaslab.scenario
    import omaslab.switching

    calls = {"sweep": 0, "gain_bound": 0}
    sweep, gain_bound = omaslab.switching.suffix_sweep, omaslab.scenario.coupling_gain_bound

    def counting_sweep(*args, **kwargs):
        calls["sweep"] += 1
        return sweep(*args, **kwargs)

    def counting_gain_bound(*args, **kwargs):
        calls["gain_bound"] += 1
        return gain_bound(*args, **kwargs)

    for module in (omaslab.certificate, omaslab.switching):
        monkeypatch.setattr(module, "suffix_sweep", counting_sweep)
    monkeypatch.setattr(omaslab.scenario, "coupling_gain_bound", counting_gain_bound)
    path = write(tmp_path, demo_dict)
    for suffixes in ("all", "first"):
        calls["sweep"] = 0
        assert main(["certify", "--scenario", path, "--validate-suffixes", suffixes]) == 0
        assert calls["sweep"] == 1, suffixes
        calls["sweep"] = 0
        rc, _ = run_simulate(tmp_path, demo_dict, f"run_{suffixes}",
                             extra=("--validate-suffixes", suffixes))
        assert rc == 0 and calls["sweep"] == 1, suffixes
    capsys.readouterr()

    # the structural and gain checks are kept with the scenario's certificates
    calls["gain_bound"] = 0
    scenario = load_scenario(path)
    for seed in (11, 12):
        build_bundle(scenario, scenario.resolve_signal(seed))
    assert calls["gain_bound"] == 1


# --------------------------------------------------------------------------
# a certified bound applies only to a signal within its switching budget


def test_bound_does_not_apply_to_a_signal_over_budget(tmp_path, demo_dict, capsys):
    # a ratio floor of 0.25 against the certified 13.16: the bundle still
    # has a finite bound, and the run's tail overflows it by about 1e47
    demo_dict["signal"].update(ratio_floor=0.25, dwell_floor=2.68, horizon=120.0)
    scenario = write(tmp_path, demo_dict)
    assert main(["certify", "--scenario", scenario, "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ultimate_bound"] == pytest.approx(6723.8, abs=0.1)
    assert report["validation"]["ok"] is False and report["bound_applies"] is False

    rc, out = run_simulate(tmp_path, demo_dict, "single", extra=("--seed", "1"))
    stdout = capsys.readouterr().out
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["certified"] is True and summary["switching_ok"] is False
    assert summary["bound_applies"] is False and summary["tail_sup_error"] > 1e50
    assert "certified bound" not in stdout
    assert "(bound 6723.81 does not apply" in stdout

    rc, out = run_simulate(tmp_path, demo_dict, "sweep", extra=("--seed", "1", "--sweep", "2"))
    capsys.readouterr()
    assert rc == 0
    agg = read_json(out / "sweep.json")
    assert agg["all_bounds_respected"] is False
    assert agg["all_applicable_bounds_respected"] is True  # no bound applies
    for seed in (1, 2):
        assert read_json(out / f"seed_{seed}" / "summary.json")["bound_applies"] is False


# generator floors on the demo: the first four break the ratio condition
# under a finite bound, the next two comply, the last leaves no finite bound
@pytest.mark.parametrize("ratio_floor, dwell_floor", [
    (0.25, 2.68), (5.0, 2.8), (10.0, 2.8), (6.0, 4.0), (12.0, 2.8), (14.5, 2.8), (14.5, 2.0),
])
def test_bound_applies_only_when_every_suffix_complies(tmp_path, demo_dict, capsys,
                                                       ratio_floor, dwell_floor):
    # the every-suffix verdict comes from the quadratic recount, not the validator
    demo_dict["signal"].update(ratio_floor=ratio_floor, dwell_floor=dwell_floor)
    demo_dict["simulation"]["dt"] = 0.05
    path = write(tmp_path, demo_dict)
    scenario = load_scenario(path)
    signal = scenario.resolve_signal(11)
    bundle = build_bundle(scenario, signal)
    complies = brute_force_suffix_scan(signal, bundle.budget, bundle.stable_set)
    for suffixes in ("all", "first"):
        verdict = validate_switching(signal, bundle.budget, bundle.stable_set, suffixes)
        assert bundle.validation(suffixes) == verdict
        # only the asymptotic bound 0 rests on the first suffix alone
        passes = verdict.ok if bundle.ultimate_bound == 0.0 else complies
        applies = passes and math.isfinite(bundle.ultimate_bound)
        assert bundle.bound_applies(suffixes) is applies
        flag = ("--validate-suffixes", suffixes)
        assert main(["certify", "--scenario", path, *flag]) == (3 if bundle.unbounded else 0)
        assert json.loads(capsys.readouterr().out)["bound_applies"] is applies
        out = tmp_path / f"run_{suffixes}"
        assert main(["simulate", "--scenario", path, "--out", str(out), *flag]) == 0
        capsys.readouterr()
        assert read_json(out / "summary.json")["bound_applies"] is applies


def _stable_then_repelling(d):
    # suffix j = 0 keeps the budget, 57 s stable against 3 s repelling; the
    # last suffix is repelling alone
    d["signal"] = {"type": "explicit", "t0": 0.0, "tf": 60.0,
                   "segments": [{"t": 0.0, "mode": 1}, {"t": 57.0, "mode": 3}]}
    return d


def test_practical_bound_under_first_suffix_needs_every_suffix(tmp_path, demo_dict, capsys):
    path = write(tmp_path, _stable_then_repelling(demo_dict))
    for suffixes in ("first", "all"):
        assert main(["certify", "--scenario", path, "--validate-suffixes", suffixes]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ultimate_bound"] == pytest.approx(4995.55, abs=0.01)
        assert report["validation"]["ok"] is (suffixes == "first")
        assert report["bound_applies"] is False

    first = ("--dt", "1e-2", "--validate-suffixes", "first")
    rc, out = run_simulate(tmp_path, demo_dict, "single", extra=first)
    stdout = capsys.readouterr().out
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["switching_ok"] is True and summary["bound_respected"] is False
    assert summary["bound_applies"] is False and summary["tail_sup_error"] > 1e7
    assert "certified bound" not in stdout
    assert "(bound 4995.55 does not apply" in stdout

    rc, out = run_simulate(tmp_path, demo_dict, "sweep", extra=(*first, "--sweep", "2"))
    capsys.readouterr()
    assert rc == 0
    for seed in (11, 12):
        assert read_json(out / f"seed_{seed}" / "summary.json")["bound_applies"] is False


def test_asymptotic_bound_under_first_suffix_takes_its_verdict(tmp_path, capsys):
    d = _stable_then_repelling(demo_scenario_dict("asymptotic", seed=11))
    path = write(tmp_path, d)
    for suffixes, applies in (("first", True), ("all", False)):
        assert main(["certify", "--scenario", path, "--validate-suffixes", suffixes]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ultimate_bound"] == 0.0
        assert report["validation"]["ok"] is applies and report["bound_applies"] is applies


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_compliant_signal_with_a_long_repelling_stretch_respects_its_bound(tmp_path, demo_dict,
                                                                           capsys):
    # every suffix [t_j, tf] complies, but no suffix check sees the 3 s in
    # mode 3 alone: the tail reads about 9.4e6 against a bound of 5,060.65
    demo_dict["signal"] = {"type": "explicit", "t0": 0.0, "tf": 300.0,
                           "segments": [{"t": 0.0, "mode": 1}, {"t": 250.0, "mode": 3},
                                        {"t": 253.0, "mode": 1}]}
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", write(tmp_path, demo_dict), "--out", str(out),
                 "--dt", "1e-2"]) == 0
    capsys.readouterr()
    summary = read_json(out / "summary.json")
    assert not summary["bound_applies"] or summary["bound_respected"]


# --------------------------------------------------------------------------
# structural refusals


NO_SPANNING = ("no mode is positive with a leader-rooted spanning tree; "
               "nothing can contract the tracking errors")
MINORITY = ("mode(s) [2] have negative edges without a negative majority; "
            "such modes are outside the certified family")


def _no_leader_links(d):
    d["modes"][0]["D"] = [0.0, 0.0, 0.0, 0.0]
    return NO_SPANNING


def _negative_minority(d):
    d["modes"][1]["L"] = [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 0.0]]
    return MINORITY


@pytest.mark.parametrize("edit", [_no_leader_links, _negative_minority])
def test_structural_refusal(tmp_path, demo_dict, capsys, edit):
    # analyze reports the failed assumption, certify refuses with exit 3,
    # and simulate runs uncertified with the reason in its summary
    message = edit(demo_dict)
    path = write(tmp_path, demo_dict)
    assert main(["analyze", "--scenario", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["assumptions"]["ok"] is False
    if edit is _no_leader_links:
        assert report["assumptions"]["positive_spanning_exists"] is False
        assert report["coupling"]["ok"] is False and report["coupling"]["bound"] is None
        assert report["coupling"]["note"]
    else:
        assert report["assumptions"]["negative_minority_present"] is True
        assert {m["id"]: m["class"] for m in report["modes"]}[2] == "negative_minority"

    assert main(["certify", "--scenario", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"

    rc, out = run_simulate(tmp_path, demo_dict, "run")
    capsys.readouterr()
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["certified"] is False and summary["ultimate_bound"] is None
    assert summary["certification_error"] == message


# --------------------------------------------------------------------------
# the edge-list mode form and explicit event draws


def _edge_form(mode):
    """A dense demo mode written as {n_agents, edges, leader_links}."""
    L, n = mode["L"], len(mode["D"])
    edges = [[j + 1, i + 1, -L[i][j]] for i in range(n) for j in range(n)
             if i != j and L[i][j] != 0.0]
    return {"id": mode["id"], "n_agents": n, "edges": edges, "leader_links": mode["D"]}


def test_edge_list_modes_analyze_as_their_dense_form(tmp_path, demo_dict, capsys):
    assert main(["analyze", "--scenario", write(tmp_path, demo_dict)]) == 0
    dense = json.loads(capsys.readouterr().out)
    demo_dict["modes"] = [_edge_form(m) for m in demo_dict["modes"]]
    assert all(m["edges"] for m in demo_dict["modes"])
    assert main(["analyze", "--scenario", write(tmp_path, demo_dict)]) == 0
    assert json.loads(capsys.readouterr().out) == dense


@pytest.mark.parametrize("edge, message", [
    ([1, 2], "expected [src, dst, weight]"),
    ([1, 9, 1.0], "references an agent outside 1..4"),
    ([2, 3, -1.0], "duplicate edge 2->3"),
])
def test_bad_edge_exits_2_with_its_path(tmp_path, demo_dict, capsys, edge, message):
    demo_dict["modes"][0] = _edge_form(demo_dict["modes"][0])
    edges = demo_dict["modes"][0]["edges"]
    assert [2, 3, 1.0] in edges
    edges.append(edge)
    rc = main(["analyze", "--scenario", write(tmp_path, demo_dict)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: modes[0].edges[{len(edges) - 1}]: ")
    assert message in captured.err


def test_explicit_event_draws(tmp_path, demo_dict, capsys):
    # the 1 -> 2 row (4 -> 3 agents of dimension 2) with a given impulse and
    # gain: every such event carries exactly these
    row = demo_dict["events"][0]
    assert (row["from"], row["to"]) == (1, 2)
    impulse = [0.3, 0.0, 0.0, 0.4, 0.0, 0.0]
    gain = [[0.01 * (r - c) for c in range(8)] for r in range(6)]
    row["impulse"], row["dep_gain"] = impulse, gain
    rc, out = run_simulate(tmp_path, demo_dict, "run")
    assert rc == 0
    events = [line.split(",") for line in (out / "events.csv").read_text().splitlines()]
    header, events = events[0], events[1:]
    explicit = [e for e in events if e[2:4] == ["1", "2"]]
    assert explicit
    assert all(float(e[header.index("impulse_norm")]) == 0.5 for e in explicit)

    assert main(["gen-signal", "--scenario", write(tmp_path, demo_dict),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    records = [e for e in read_json(tmp_path / "signal.json")["events"]
               if (e["from"], e["to"]) == (1, 2)]
    assert len(records) == len(explicit)
    assert all(e["impulse"] == impulse and e["dep_gain"] == gain for e in records)


# --------------------------------------------------------------------------
# gen-signal and file-referenced signals


def test_gen_signal_then_reference(tmp_path, demo_dict, capsys):
    rc = main(["gen-signal", "--scenario", write(tmp_path, demo_dict),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "signal.json" in capsys.readouterr().out
    sig = signal_from_dict(read_json(tmp_path / "signal.json"), 2)
    assert (sig.t0, sig.tf, sig.n_switches) == (0.0, 30.0, 8)

    # a scenario can point at the materialized file by relative path
    demo_dict["signal"] = {"type": "file", "path": "signal.json"}
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict, "ref.json")])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["signal"]["n_switches"] == 8
    assert report["validation"]["ok"] is True


def test_gen_signal_failed_encode_leaves_no_file(tmp_path, demo_dict, monkeypatch):
    path, out = write(tmp_path, demo_dict), tmp_path / "out"

    def with_nan(sig):
        # late in the document: a writer that streamed into signal.json
        # would leave most of the file behind
        doc = signal_to_dict(sig)
        gain = np.array(doc["events"][-1]["dep_gain"], dtype=float)  # a copy: the event keeps its own
        gain[-1, -1] = math.nan
        doc["events"][-1]["dep_gain"] = gain
        return doc

    monkeypatch.setattr(cli, "signal_to_dict", with_nan)
    with pytest.raises(ValueError, match="Out of range float"):
        main(["gen-signal", "--scenario", path, "--out", str(out)])
    assert list(out.iterdir()) == []

    # a failed write leaves the file of an earlier run as it was
    monkeypatch.undo()
    assert main(["gen-signal", "--scenario", path, "--out", str(out)]) == 0
    before = tree_bytes(out)
    monkeypatch.setattr(cli, "signal_to_dict", with_nan)
    with pytest.raises(ValueError):
        main(["gen-signal", "--scenario", path, "--out", str(out)])
    assert tree_bytes(out) == before and list(before) == ["signal.json"]


def _ring(n, hops, weight):
    return [[i + 1, (i + h) % n + 1, weight] for i in range(n) for h in hops]


def _wide_dict(demo_dict, n):
    """The demo dynamics on three rings of about n agents, one cooperative
    and two repelling, and four migrations, each with a dense dependence gain."""
    sizes = {1: n, 2: n - 1, 3: n + 1}
    hops = {1: (1,), 2: (1,), 3: (1, 2)}
    demo_dict["modes"] = [
        {"id": m, "n_agents": k, "edges": _ring(k, hops[m], 1.0 if m == 1 else -1.0),
         "leader_links": [1.0] * k}
        for m, k in sizes.items()
    ]
    demo_dict["events"] = [
        {"from": 1, "to": 2, "leaves": [n // 2], "dep_gain": {"scale": 0.05}},
        {"from": 2, "to": 1, "joins": [n // 3], "dep_gain": {"scale": 0.05},
         "impulse": {"radius": 0.53}},
        {"from": 1, "to": 3, "joins": [n // 4], "dep_gain": {"scale": 0.05},
         "impulse": {"radius": 0.53}},
        {"from": 3, "to": 1, "leaves": [n // 5], "dep_gain": {"scale": 0.05}},
    ]
    demo_dict["signal"] = {"type": "explicit", "t0": 0.0, "tf": 62.0, "segments": [
        {"t": 0.0, "mode": 1}, {"t": 30.0, "mode": 2}, {"t": 30.5, "mode": 1},
        {"t": 61.0, "mode": 3}, {"t": 61.5, "mode": 1}]}
    return demo_dict


def test_gen_signal_memory_is_bounded_by_the_document(tmp_path, demo_dict, capsys):
    # json.dumps's indented encoder held five times the file's size in string
    # chunks, and so set the command's peak
    path, out = write(tmp_path, _wide_dict(demo_dict, 40)), tmp_path / "out"
    # a first run makes the imports that resolving a signal does lazily
    assert main(["gen-signal", "--scenario", path, "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(["gen-signal", "--scenario", path, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    text = (out / "signal.json").read_text()
    assert len(text) > 500_000
    # the events' own arrays go to the writer a row at a time: the peak is
    # 0.38 of the text, where lists of the whole document made it 1.3
    assert peak < len(text) / 2

    scenario = load_scenario(path)
    sig = scenario.resolve_signal(scenario.master_seed(None))
    assert text == json.dumps(signal_to_dict(sig), indent=2, allow_nan=False,
                              default=np.ndarray.tolist) + "\n"


def _file_signal_scenario(tmp_path, demo_dict, capsys, edit):
    """A scenario that references its own generated signal, edited by edit;
    returns its path and the error edit expects."""
    assert main(["gen-signal", "--scenario", write(tmp_path, demo_dict),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    sig = read_json(tmp_path / "signal.json")
    expected = edit(sig)
    (tmp_path / "signal.json").write_text(json.dumps(sig))
    demo_dict["signal"] = {"type": "file", "path": "signal.json"}
    return write(tmp_path, demo_dict, "ref.json"), expected


def _unknown_mode(sig):
    # segment 1 and both events at its ends name a mode the scenario lacks
    sig["segments"][1]["mode"] = 9
    sig["events"][0]["to"] = sig["events"][1]["from"] = 9
    return r"segment 1 uses unknown mode id 9"


def _wrong_sizes(sig):
    # one agent more on both sides, with no impulse or gain to size: the
    # event is consistent in itself, but not with the scenario's modes
    sig["events"][0]["n_before"] += 1
    sig["events"][0]["n_after"] += 1
    sig["events"][0]["impulse"] = sig["events"][0]["dep_gain"] = None
    return r"event 1 maps 5 -> \d+ agents, but modes 1 -> \d have 4 -> \d"


def _short_gain(sig):
    # event 4's gain loses a column: the record fails as it is read, at its path
    gain = sig["events"][3]["dep_gain"]
    rows, cols = len(gain), len(gain[0])
    for row in gain:
        del row[-1]
    return (rf"signal\.events\[3\]: dep_gain shape \({rows}, {cols - 1}\) "
            rf"does not match \({rows}, {cols}\)")


@pytest.mark.parametrize("edit", [_unknown_mode, _wrong_sizes, _short_gain])
@pytest.mark.parametrize("command", ["certify", "simulate", "gen-signal"])
def test_file_signal_checked_against_scenario(tmp_path, demo_dict, capsys, edit, command):
    path, expected = _file_signal_scenario(tmp_path, demo_dict, capsys, edit)
    rc = main([command, "--scenario", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert re.search(expected, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()  # refused before anything is written


def test_file_signal_invalid_json_exits_2(tmp_path, demo_dict, capsys):
    (tmp_path / "signal.json").write_text("{nope")
    demo_dict["signal"] = {"type": "file", "path": "signal.json"}
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict)])
    assert rc == 2
    assert "signal: invalid JSON" in capsys.readouterr().err


def _short_impulse(events):
    events[0]["impulse"] = [0.1, 0.2, 0.3]
    return r"events\[0\]: impulse shape \(3,\) does not match \(6,\)"


def _unused_join(events):
    # the pair 2 -> 3 never occurs in the generated signal: 3 + 1 != 5
    events[6]["joins"] = [2]
    return r"events\[6\]: size bookkeeping broken: 3 agents \+ 1 joins"


@pytest.mark.parametrize("edit", [_short_impulse, _unused_join])
@pytest.mark.parametrize("command", ["analyze", "certify"])
def test_event_table_checked_at_load(tmp_path, demo_dict, capsys, edit, command):
    expected = edit(demo_dict["events"])
    rc = main([command, "--scenario", write(tmp_path, demo_dict)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.search(expected, captured.err)


def test_invalid_generate_spec_exits_2_at_load(tmp_path, demo_dict, capsys):
    # the generator's own checks run when the scenario loads, so even
    # analyze, which never generates the signal, refuses the document
    demo_dict["signal"]["horizon"] = 0.0
    rc = main(["analyze", "--scenario", write(tmp_path, demo_dict)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "signal: horizon must be positive" in captured.err and captured.out == ""


def _explicit(segments, t0=0.0, tf=30.0):
    return {"type": "explicit", "t0": t0, "tf": tf,
            "segments": [{"t": t, "mode": m} for t, m in segments]}


BAD_SIGNALS = {
    "decreasing": (_explicit([(0.0, 1), (5.0, 3), (3.0, 1)]),
                   "segment start times must be strictly increasing"),
    "late_first": (_explicit([(1.0, 1), (5.0, 3)]), "first segment must start at t0"),
    "empty_horizon": (_explicit([(0.0, 1)], tf=0.0), "empty horizon [0.0, 0.0]"),
    "start_at_tf": (_explicit([(0.0, 1), (30.0, 3)]), "last segment starts at or after tf"),
    "same_mode": (_explicit([(0.0, 1), (5.0, 1)]),
                  "consecutive segments must switch to a different mode"),
    "short_horizon": ({"horizon": 1.0},
                      "horizon 1.0 too short for one compliant block (needs at least 11.398)"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIGNALS))
@pytest.mark.parametrize("command", ["analyze", "certify"])
def test_bad_signal_exits_2_at_load(tmp_path, demo_dict, capsys, case, command):
    # a signal no run can have is refused with its path when the scenario
    # loads, so analyze, which never resolves the signal, refuses it too
    edit, message = BAD_SIGNALS[case]
    if edit.get("type") == "explicit":
        demo_dict["signal"] = edit
    else:
        demo_dict["signal"].update(edit)
    out = tmp_path / "out"
    rc = main([command, "--scenario", write(tmp_path, demo_dict), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == f"error: signal: {message}\n"


def test_infeasible_generation_exits_2(tmp_path, demo_dict, capsys):
    demo_dict["signal"]["horizon"] = 1.0
    rc = main(["gen-signal", "--scenario", write(tmp_path, demo_dict)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# failure modes


def test_schema_error_exits_2(tmp_path, demo_dict, capsys):
    demo_dict["dynamics"].pop("A")
    rc = main(["analyze", "--scenario", write(tmp_path, demo_dict)])
    assert rc == 2
    assert "dynamics.A" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "certify", "simulate"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("section, key", [("perturbation", "bound"),
                                          ("dynamics", "coupling_gain")])
def test_non_finite_number_exits_2(tmp_path, demo_dict, capsys, command, value,
                                   section, key):
    # JSON as Python reads it admits NaN and Infinity
    demo_dict[section][key] = value
    rc = main([command, "--scenario", write(tmp_path, demo_dict),
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"error: {section}.{key}: expected a finite number" in captured.err


def test_jsonable_maps_only_non_finite_floats():
    assert _jsonable([0.5, -2.0]) == [0.5, -2.0]
    assert _jsonable({"a": [[1.0, math.nan], [-math.inf, 2.0]]}) == {
        "a": [[1.0, "nan"], ["-inf", 2.0]]
    }
    # finite terms whose sum overflows are kept as they are
    assert _jsonable([1e308, 1e308]) == [1e308, 1e308]


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    rc = main(["analyze", "--scenario", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["analyze", "--scenario", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# module entry point


def test_module_entry_point(tmp_path, demo_dict):
    proc = subprocess.run(
        [sys.executable, "-m", "omaslab", "analyze",
         "--scenario", write(tmp_path, demo_dict)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stable_mode_ids"] == [1]


def test_cli_import_leaves_scipy_optimize_out(tmp_path, demo_dict):
    # scipy costs about 0.2 s and 20 MB per start, and neither the import
    # nor analyze loads any of it: the Kronecker spectrum check pairs the
    # spectra without scipy.optimize
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "from omaslab.cli import main\n"
            "print(scipy_modules())\n"
            "assert main(['analyze', '--scenario', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(scipy_modules())\n")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, write(tmp_path, demo_dict), str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    report = json.loads((out / "analyze.json").read_text())
    assert all(m["kronecker_spectrum_ok"] for m in report["modes"])


# sha256 of the demo practical signal.json, as gen-signal wrote it when
# omaslab.cli still imported scipy.linalg at start
DEMO_SIGNAL_SHA256 = "12135912d5195ca1748b3a222fc8442447fdd4233c82ec70c7b890ebbe0219fd"


def test_cli_import_and_gen_signal_load_no_scipy(tmp_path, demo_dict):
    # scipy.linalg is needed only where a certificate is solved
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "from omaslab.cli import main\n"
            "print(scipy_modules())\n"
            "assert main(['gen-signal', '--scenario', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(scipy_modules())\n")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, write(tmp_path, demo_dict), str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"wrote {out / 'signal.json'}: 8 switches on [0, 30]",
                                        "[]"]
    assert hashlib.sha256((out / "signal.json").read_bytes()).hexdigest() == DEMO_SIGNAL_SHA256


# --------------------------------------------------------------------------
# the JSON writer


_TRICKY_TEXT = ["", "\"quoted\"", "back\\slash", "\x00\x1f\n\t\x7f", "é ü 漢字 😀", "\ud800"]
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    _floats, st.text(), st.sampled_from(_TRICKY_TEXT),
)
_keys = st.one_of(st.text(max_size=6), st.sampled_from(_TRICKY_TEXT))
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(_scalars, max_size=6),
        # str keys, or number keys, in one dict: sort_keys orders no mix of both
        st.dictionaries(_keys, children, max_size=6),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), _floats), children, max_size=6),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=40,
)


# arrays of every rank up to 3, sides 0 included, as gen-signal hands the
# writer each event's impulse and dependence gain
_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                  st.sampled_from([-0.0, 5e-324, 0.1]))),
    hnp.arrays(st.sampled_from([np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
)
_documents_and_arrays = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(_keys, children, max_size=6),
    ),
    max_leaves=20,
)


def _listed(doc):
    """doc with every array replaced by its .tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _listed(v) for k, v in doc.items()}
    return [_listed(v) for v in doc] if isinstance(doc, (list, tuple)) else doc


def _written(doc, sort_keys):
    buf = io.StringIO()
    write_json(doc, buf, sort_keys=sort_keys)
    return buf.getvalue()


@settings(max_examples=300)
@given(doc=st.one_of(_documents, _documents_and_arrays))
@example(doc=np.array(-0.0))
@example(doc=np.zeros(0))
@example(doc={"a": np.array([-0.0, 1.5, 5e-324]), "b": [np.zeros((3, 0)), np.zeros((0, 2))]})
@example(doc=np.array([None, "x", [1, {"k": 2.5}]], dtype=object))
@example(doc=[np.linspace(-1, 1, 24, dtype=np.float32).reshape(4, 6),
              np.arange(60.0).reshape(3, 4, 5) / 9, np.zeros((2, 0, 3)), -np.zeros((1, 1, 1))])
def test_write_json_gives_the_bytes_of_json_dumps(doc):
    for sort_keys in (False, True):
        assert _written(doc, sort_keys) == json.dumps(_listed(doc), indent=2, sort_keys=sort_keys,
                                                      allow_nan=False)


# documents that span many of the renderer's blocks, too large to keep under
# a property test's deadline
@pytest.mark.parametrize("doc", [
    # float arrays go to the NumPy renderer in blocks of cli._JSON_BLOCK_VALUES
    {"big": np.random.default_rng(1).standard_normal((97, 211)), "after": [1, 2.5]},
    {"events": [{"k": i, "gain": np.full((2, 3), i / 7), "deeper": [{"g": np.eye(2) / (i + 1)}]}
                for i in range(1000)]},
    # text held between the arrays of one block ends the block early
    {"a": np.ones((2, 3)) / 3, "b": [{"x": i, "y": "z"} for i in range(3000)],
     "c": np.ones(2) / 7},
], ids=["array-97x211", "events-1000", "dicts-3000"])
def test_write_json_gives_the_bytes_of_json_dumps_over_many_blocks(doc):
    for sort_keys in (False, True):
        assert _written(doc, sort_keys) == json.dumps(_listed(doc), indent=2, sort_keys=sort_keys,
                                                      allow_nan=False)


@settings(max_examples=50)
@given(doc=_documents, bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
def test_write_json_refuses_non_finite_floats(doc, bad):
    for bad_doc in ({"ok": doc, "z": [doc, bad]}, [[doc], {"k": bad}], {"k": {bad: 1}}):
        for sort_keys in (False, True):
            with pytest.raises(ValueError):
                json.dumps(bad_doc, indent=2, sort_keys=sort_keys, allow_nan=False)
            with pytest.raises(ValueError):
                _written(bad_doc, sort_keys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 1, 2), (50, 300)])
def test_write_json_refuses_non_finite_floats_in_an_array(bad, shape):
    for at in (0, -1):
        values = np.ones(shape) / 3
        values.flat[at] = bad
        doc = {"before": np.ones((2, 2)) / 7, "x": [values], "after": 1.5}
        with pytest.raises(ValueError):
            json.dumps(_listed(doc), indent=2, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            _written(doc, False)


def test_write_json_nests_float_arrays_at_any_depth():
    # a mark stands for the dimensions a value ends, whatever the depth;
    # the arrays of one block are at 150 depths, a 3-D one at each tenth,
    # and a 40-D one, whose sixth value ends 38 dimensions
    doc = inner = {"many": np.arange(12.0).reshape((2,) + (1,) * 37 + (3, 2)) / 7}
    for depth in range(150):
        inner["a"] = np.arange(4.0).reshape(2, 2) / (depth + 3)
        if depth % 10 == 0:
            inner["b"] = np.arange(8.0).reshape(2, 1, 4) / (depth + 7)
        inner["n"] = inner = {}
    assert _written(doc, False) == json.dumps(_listed(doc), indent=2)
