"""End-to-end command line coverage, in-process plus one subprocess check."""

import copy
import json
import math
import subprocess
import sys

import pytest

from omaslab.cli import main
from omaslab.demo import demo_scenario
from omaslab.scenario import scenario_to_dict, signal_from_dict

BASE = scenario_to_dict(demo_scenario("practical", seed=11))


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


# --------------------------------------------------------------------------
# analyze


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

    assert report["stable_mode_ids"] == [1]
    assert report["assumptions"]["ok"] is True
    assert report["coupling"]["ok"] is True
    assert report["agent_dimension"] == 2

    # the same report lands in the output directory
    assert read_json(out / "analyze.json") == report


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
    assert summary["bound_respected"] is True
    assert summary["tail_sup_error"] <= summary["ultimate_bound"]
    assert summary["max_h_norm"] <= 0.2 + 1e-12

    traj_rows = (out / "trajectory.csv").read_text().splitlines()
    assert traj_rows[0].startswith("t,mode,agent_count,xi_agent0_dim0")
    assert len(traj_rows) > 1000
    event_rows = (out / "events.csv").read_text().splitlines()
    assert len(event_rows) == 1 + summary["n_events"]


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
    import omaslab.cli
    import omaslab.mode_dynamics
    from omaslab.scenario import Scenario

    calls = {"resolve": 0, "build": 0}
    resolve, build = Scenario.resolve_signal, omaslab.mode_dynamics.build_mode_matrices

    def counting_resolve(self, *args, **kwargs):
        calls["resolve"] += 1
        return resolve(self, *args, **kwargs)

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(Scenario, "resolve_signal", counting_resolve)
    for module in (omaslab.cli, omaslab.mode_dynamics):
        monkeypatch.setattr(module, "build_mode_matrices", counting_build)
    rc, _ = run_simulate(tmp_path, demo_dict, "once")
    capsys.readouterr()
    assert rc == 0
    assert calls == {"resolve": 1, "build": 1}


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
    assert summary["bound_respected"] is False

    # without --strict the same run reports but exits 0
    rc2, _ = run_simulate(tmp_path, demo_dict, "diverge2")
    capsys.readouterr()
    assert rc2 == 0


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
    assert agg["tail_sup_error_max"] > 0
    for seed in (11, 12):
        for name in ("trajectory.csv", "events.csv", "summary.json"):
            assert (out / f"seed_{seed}" / name).exists()
    assert read_json(out / "seed_12" / "summary.json")["seed"] == 12


# --------------------------------------------------------------------------
# gen-signal and file-referenced signals


def test_gen_signal_then_reference(tmp_path, demo_dict, capsys):
    rc = main(["gen-signal", "--scenario", write(tmp_path, demo_dict),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "signal.json" in capsys.readouterr().out
    sig = signal_from_dict(read_json(tmp_path / "signal.json"))
    assert (sig.t0, sig.tf, sig.n_switches) == (0.0, 30.0, 8)

    # a scenario can point at the materialized file by relative path
    demo_dict["signal"] = {"type": "file", "path": "signal.json"}
    rc = main(["certify", "--scenario", write(tmp_path, demo_dict, "ref.json")])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["signal"]["n_switches"] == 8
    assert report["validation"]["ok"] is True


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
