"""Scenario document parsing, signal files and deterministic resolution."""

import copy
import json

import numpy as np
import pytest

from omaslab.cli import main
from omaslab.demo import DEMO_DEP_GAIN_SCALE, DEMO_IMPULSE_RADIUS, demo_scenario_dict
from omaslab.errors import ConfigError, SchemaError
from omaslab.scenario import (
    CertificationOptions,
    SimulationOptions,
    load_scenario,
    parse_scenario,
    signal_from_dict,
    signal_to_dict,
)
from omaslab.seeding import STREAM_INITIAL, stream_rng, uniform_in_ball
from omaslab.simulate import PerturbationModel
from omaslab.switching import SignalGenSpec

SEED = 11


def practical_dict():
    return demo_scenario_dict("practical", seed=SEED)


# --------------------------------------------------------------------------
# round trips


def _signal_text(sig) -> str:
    """The signal's document as JSON text, each event's arrays as their lists."""
    return json.dumps(signal_to_dict(sig), default=np.ndarray.tolist)


def test_signal_dict_round_trip(practical_signal):
    d = signal_to_dict(practical_signal)
    assert list(d["events"][0]) == [
        "k", "from", "to", "n_before", "n_after", "joins", "leaves", "impulse", "dep_gain",
    ]
    # must survive a JSON round trip, not only a dict one
    sig = signal_from_dict(json.loads(_signal_text(practical_signal)), p=2)
    assert sig.t0 == practical_signal.t0 and sig.tf == practical_signal.tf
    assert sig.segments == practical_signal.segments
    for a, b in zip(sig.events, practical_signal.events):
        assert (a.time_index, a.mode_before, a.mode_after, a.p, a.joins, a.leaves) == (
            b.time_index, b.mode_before, b.mode_after, b.p, b.joins, b.leaves
        )
        if b.impulse is None:
            assert a.impulse is None
        else:
            np.testing.assert_allclose(a.impulse, b.impulse, rtol=0)
        if b.dep_gain is None:
            assert a.dep_gain is None
        else:
            np.testing.assert_allclose(a.dep_gain, b.dep_gain, rtol=0)


def test_file_signal_spec_resolves_relative_to_source(tmp_path, practical_signal):
    (tmp_path / "sig.json").write_text(_signal_text(practical_signal))
    data = practical_dict()
    data["signal"] = {"type": "file", "path": "sig.json"}
    scen = parse_scenario(data, source_dir=str(tmp_path))
    sig = scen.resolve_signal(master_seed=999)  # seed must not matter for files
    assert sig.segments == practical_signal.segments
    assert sig.tf == practical_signal.tf


# --------------------------------------------------------------------------
# deterministic resolution


def test_resolution_is_deterministic(practical_scenario):
    s1 = _signal_text(practical_scenario.resolve_signal(SEED))
    s2 = _signal_text(practical_scenario.resolve_signal(SEED))
    assert s1 == s2
    x1 = practical_scenario.resolve_initial_state(SEED, first_mode=1)
    x2 = practical_scenario.resolve_initial_state(SEED, first_mode=1)
    for a, b in zip(x1, x2, strict=True):
        np.testing.assert_array_equal(a, b)


def test_resolution_depends_on_master_seed(practical_scenario):
    s1 = _signal_text(practical_scenario.resolve_signal(SEED))
    s2 = _signal_text(practical_scenario.resolve_signal(SEED + 1))
    assert s1 != s2
    _, e1 = practical_scenario.resolve_initial_state(SEED, first_mode=1)
    _, e2 = practical_scenario.resolve_initial_state(SEED + 1, first_mode=1)
    assert not np.array_equal(e1, e2)


def test_random_impulses_live_on_the_sphere(practical_signal):
    saw_impulse = False
    for ev in practical_signal.events:
        if ev.joins:
            assert ev.impulse is not None
            assert np.linalg.norm(ev.impulse) == pytest.approx(
                DEMO_IMPULSE_RADIUS, rel=1e-12
            )
            saw_impulse = True
        else:
            assert ev.impulse is None
    assert saw_impulse


def test_random_dep_gains_have_exact_norm(practical_signal):
    for ev in practical_signal.events:
        assert ev.dep_gain is not None
        assert np.linalg.norm(ev.dep_gain, 2) == pytest.approx(
            DEMO_DEP_GAIN_SCALE, rel=1e-12
        )


def test_initial_errors_within_ball(practical_scenario):
    p = practical_scenario.p
    n1 = practical_scenario.n_agents_of(1)
    leader = np.asarray(practical_scenario.initial.leader)
    for seed in range(20):
        x0, err = practical_scenario.resolve_initial_state(seed, first_mode=1)
        np.testing.assert_array_equal(x0, leader)
        assert err.shape == (p * n1,)
        assert np.linalg.norm(err) <= 3.0 + 1e-12


def test_explicit_initial_errors(practical_scenario):
    data = practical_dict()
    data["initial_state"]["errors"] = [[0.1, 0.0], [0.0, 0.2], [0.3, 0.0], [0.0, 0.4]]
    scen = parse_scenario(data)
    x0, err = scen.resolve_initial_state(0, first_mode=1)
    np.testing.assert_array_equal(x0, [1.0, 0.5])
    np.testing.assert_array_equal(err, [0.1, 0.0, 0.0, 0.2, 0.3, 0.0, 0.0, 0.4])


def test_initial_error_block_is_bit_exact(practical_scenario):
    # the errors reach the integrator as drawn or given, with no round trip
    # through leader + error - leader (1.0 + 0.1 - 1.0 != 0.1 in floats)
    n = practical_scenario.p * practical_scenario.n_agents_of(1)
    _, err = practical_scenario.resolve_initial_state(SEED, first_mode=1)
    drawn = uniform_in_ball(stream_rng(SEED, STREAM_INITIAL, 0), n, 3.0)
    assert err.tobytes() == drawn.tobytes()
    data = practical_dict()
    given = [[0.1, 0.0], [0.0, 0.2], [0.3, 0.0], [0.0, 0.4]]
    data["initial_state"]["errors"] = given
    _, err = parse_scenario(data).resolve_initial_state(0, first_mode=1)
    assert err.tobytes() == np.array(given, dtype=float).reshape(-1).tobytes()


def test_explicit_initial_errors_wrong_count(practical_scenario):
    data = practical_dict()
    data["initial_state"]["errors"] = [[0.1, 0.0], [0.0, 0.2]]  # mode 1 has 4 agents
    scen = parse_scenario(data)
    with pytest.raises(ConfigError, match="initial errors"):
        scen.resolve_initial_state(0, first_mode=1)


# --------------------------------------------------------------------------
# event materialization


def test_absent_pair_gets_pure_size_default(practical_scenario):
    # (4, 2) is not in the demo table: same size, so a pure relabelling
    ev = practical_scenario.build_event(1, 4, 2, master_seed=0)
    assert ev.joins == () and ev.leaves == ()
    assert ev.impulse is None and ev.dep_gain is None
    # (4, 3) is absent too: grows 3 -> 5 by trailing joins
    ev = practical_scenario.build_event(1, 4, 3, master_seed=0)
    assert ev.joins == (4, 5) and ev.leaves == ()


def test_event_size_inconsistency_rejected():
    data = practical_dict()
    data["events"][0] = {"from": 1, "to": 2, "joins": [1]}  # 4 + 1 != 3
    # each row's jump is checked at load, whether or not the signal uses it
    with pytest.raises(SchemaError, match=r"events\[0\]: size bookkeeping broken"):
        parse_scenario(data)


def test_recurring_pair_draws_fresh_impulses(practical_scenario):
    e1 = practical_scenario.build_event(1, 2, 1, master_seed=SEED)
    e2 = practical_scenario.build_event(2, 2, 1, master_seed=SEED)
    assert not np.array_equal(e1.impulse, e2.impulse)
    assert np.linalg.norm(e1.impulse) == pytest.approx(np.linalg.norm(e2.impulse))


def test_n_agents_of_unknown_mode(practical_scenario):
    with pytest.raises(ConfigError, match="unknown mode"):
        practical_scenario.n_agents_of(99)


# --------------------------------------------------------------------------
# schema errors with dotted paths


def _expect(data, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_scenario(data)


@pytest.mark.parametrize("value", [float("-inf"), 10 ** 400], ids=["-inf", "10**400"])
def test_non_finite_number_rejected(value):
    # an integer past the float range is as infinite as the float it makes;
    # the demo's matrix rows are shared, so the document is copied whole
    d = copy.deepcopy(practical_dict())
    d["dynamics"]["A"][0][0] = value
    _expect(d, r"dynamics\.A\[0\]\[0\]: expected a finite number")


def test_root_must_be_object():
    _expect([1, 2, 3], "scenario: expected an object")


def test_unknown_top_level_field():
    d = practical_dict()
    d["extra"] = 1
    _expect(d, r"unknown field\(s\) \['extra'\]")


def test_missing_required_field():
    d = practical_dict()
    del d["dynamics"]["A"]
    _expect(d, "dynamics.A: missing required field")


def test_ragged_matrix_reported_with_row():
    d = practical_dict()
    d = copy.deepcopy(d)
    d["modes"][0]["L"][1] = [0.0, 0.0]  # row 1 shorter than row 0
    _expect(d, r"modes\[0\].L\[1\]: ragged row")


def test_non_square_laplacian():
    d = copy.deepcopy(practical_dict())
    d["modes"][1]["L"] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    _expect(d, r"modes\[1\].L: must be square")


def _edge_mode(d, n_agents, leader_links):
    d["modes"][0] = {"id": 1, "n_agents": n_agents, "edges": [], "leader_links": leader_links}


def _off_diagonal_sum(d):
    d["modes"][0]["L"][0][0] += 1.0  # row 0's in-weights sum to 1


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["dynamics"].update(A=[[0.0, 1.0]]),
     r"^dynamics\.A: must be square, got \(1, 2\)$"),
    (lambda d: d["dynamics"].update(A=[]),
     r"^dynamics\.A: matrix must have at least one row$"),
    (lambda d: d["modes"][0].update(D=[1.0, 1.0, 0.0]),
     r"^modes\[0\]\.D: has 3 entries, L is 4x4$"),
    (_off_diagonal_sum,
     r"^modes\[0\]: dense matrix is not a repelling Laplacian: diagonal entry \(0, 0\) "),
    (lambda d: _edge_mode(d, 4, [1.0, 0.0]),
     r"^modes\[0\]: leader_links has length 2, expected 4$"),
    (lambda d: _edge_mode(d, 0, []),
     r"^modes\[0\]: n_agents must be >= 1, got 0$"),
    (lambda d: d.update(modes=[]),
     r"^modes: must not be empty$"),
    (lambda d: d["signal"].update(type=3),
     r"^signal\.type: expected a string, got int$"),
], ids=["A-not-square", "A-empty", "D-length", "L-not-repelling", "leader-links-length",
        "no-agents", "no-modes", "signal-type-int"])
def test_refusal_names_its_path(edit, message):
    d = copy.deepcopy(practical_dict())
    edit(d)
    _expect(d, message)


def test_refusal_exits_2_through_main(tmp_path, capsys):
    d = copy.deepcopy(practical_dict())
    d["modes"][0]["D"] = [1.0, 1.0, 0.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert main(["analyze", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: modes[0].D: has 3 entries, L is 4x4\n"


def test_duplicate_mode_id():
    d = copy.deepcopy(practical_dict())
    d["modes"][1]["id"] = 1
    _expect(d, r"modes\[1\].id: duplicate mode id 1")


def test_unknown_signal_type():
    d = practical_dict()
    d["signal"] = {"type": "banana"}
    _expect(d, "signal.type")


def test_signal_references_unknown_mode():
    d = practical_dict()
    d["signal"]["unstable_modes"] = [2, 9]
    _expect(d, r"signal.unstable_modes\[1\]: unknown mode id 9")
    d = practical_dict()
    d["signal"] = {
        "type": "explicit", "t0": 0.0, "tf": 1.0,
        "segments": [{"t": 0.0, "mode": 9}],
    }
    _expect(d, r"signal.segments\[0\].mode: unknown mode id 9")


def test_event_references_unknown_mode():
    d = practical_dict()
    d["events"].append({"from": 9, "to": 1})
    _expect(d, r"events\[8\].from: unknown mode id 9")


def test_duplicate_event_pair():
    d = practical_dict()
    d["events"].append({"from": 1, "to": 2})
    _expect(d, r"events\[8\].*duplicate")


def test_perturbation_validation():
    d = practical_dict()
    d["perturbation"]["kind"] = "banana"
    _expect(d, "perturbation")
    d = practical_dict()
    d["perturbation"]["bound"] = -0.1
    _expect(d, "perturbation")
    d = practical_dict()
    d["perturbation"]["amplitude"] = [1.0, 2.0, 3.0]  # agent dimension is 2
    _expect(d, "perturbation.amplitude")


def test_initial_state_validation():
    d = practical_dict()
    d["initial_state"]["leader"] = [1.0]
    _expect(d, "initial_state.leader")
    d = practical_dict()
    d["initial_state"]["errors"] = [[1.0, 2.0, 3.0]]
    _expect(d, r"initial_state.errors\[0\]")
    d = practical_dict()
    d["initial_state"]["errors"] = {"radius": -1.0}
    _expect(d, "initial_state.errors.radius")


def test_certification_validation():
    d = practical_dict()
    d["certification"]["gamma_margin"] = 0.0
    _expect(d, "certification.gamma_margin")
    d = practical_dict()
    d["certification"]["gamma_common"] = 0.5
    _expect(d, "certification.gamma_common")
    d = practical_dict()
    d["certification"]["chatter_bound"] = -1.0
    _expect(d, "certification.chatter_bound")


def test_simulation_validation():
    d = practical_dict()
    d["simulation"]["dt"] = 0.0
    _expect(d, "simulation.dt")
    d = practical_dict()
    d["simulation"]["integrator"] = "euler"
    _expect(d, "simulation.integrator")
    d = practical_dict()
    d["simulation"]["sample_stride"] = 0
    _expect(d, "simulation.sample_stride")
    d = practical_dict()
    d["simulation"]["tail_fraction"] = 1.5
    _expect(d, "simulation.tail_fraction")
    d = practical_dict()
    d["simulation"]["convergence_tol"] = -1.0
    _expect(d, "simulation.convergence_tol: must be positive")


def test_type_errors_are_pathed():
    d = practical_dict()
    d["dynamics"]["coupling_gain"] = "strong"
    _expect(d, "dynamics.coupling_gain: expected a number")
    d = practical_dict()
    d["simulation"]["seed"] = 1.5
    _expect(d, "simulation.seed: expected an integer")
    d = practical_dict()
    d["modes"] = {}
    _expect(d, "modes: expected an array")


def test_generate_spec_checks_run_at_load():
    for field, value, message in (
        ("horizon", 0.0, "signal: horizon must be positive, got 0.0"),
        ("margin", 0.0, "signal: margin must be positive, got 0.0"),
        ("stable_modes", [], "signal: at least one stable mode is required"),
        ("horizon", 1.0,
         "signal: horizon 1.0 too short for one compliant block (needs at least 11.398)"),
    ):
        d = practical_dict()
        d["signal"][field] = value
        with pytest.raises(SchemaError) as info:
            parse_scenario(d)
        assert str(info.value) == message


def _segment_errors(segments):
    """The errors of an explicit spec and of a signal file with these segments."""
    d = practical_dict()
    d["signal"] = {"type": "explicit", "t0": 0.0, "tf": 1.0, "segments": segments}
    with pytest.raises(SchemaError) as spec_error:
        parse_scenario(d)
    with pytest.raises(SchemaError) as file_error:
        signal_from_dict({"t0": 0.0, "tf": 1.0, "segments": segments, "events": []}, 2)
    return str(spec_error.value), str(file_error.value)


def test_signal_file_segments_are_checked_as_spec_segments():
    spec, file = _segment_errors([{"t": 0.0, "mode": 1, "colour": "red"}])
    assert spec == file == "signal.segments[0]: unknown field(s) ['colour']"
    spec, file = _segment_errors([])
    assert spec == file == "signal.segments: must not be empty"
    spec, file = _segment_errors([{"mode": 1}])
    assert spec == file == "signal.segments[0].t: missing required field"
    spec, file = _segment_errors([{"t": 0.0, "mode": 1}, {"t": 0.5, "mode": 3},
                                  {"t": 0.25, "mode": 1}])
    assert spec == file == "signal: segment start times must be strictly increasing"


def test_absent_fields_take_the_defaults_of_their_types():
    d = practical_dict()
    for section in ("simulation", "certification", "perturbation", "events"):
        del d[section]
    for key in ("margin", "t0", "seed"):
        d["signal"].pop(key, None)
    scen = parse_scenario(d)
    assert scen.simulation == SimulationOptions()
    assert scen.certification == CertificationOptions()
    assert scen.perturbation == PerturbationModel(kind="zero")
    assert scen.event_specs == {}
    assert scen.signal_spec == SignalGenSpec(
        horizon=d["signal"]["horizon"],
        stable_modes=(1,),
        unstable_modes=(2, 3, 4),
        ratio_floor=d["signal"]["ratio_floor"],
        dwell_floor=d["signal"]["dwell_floor"],
    )
    assert scen.signal_spec.seed is None  # stands for the master seed
    # a perturbation section need only name its kind
    d["perturbation"] = {"kind": "random"}
    assert parse_scenario(d).perturbation == PerturbationModel(kind="random")


def test_unseeded_generate_spec_draws_from_the_master_seed():
    d = practical_dict()
    d["signal"]["seed"] = SEED + 1
    pinned = parse_scenario(d)
    free = parse_scenario(practical_dict())
    # the layout follows the spec's seed; the events keep the run's own
    assert pinned.resolve_signal(SEED).segments == free.resolve_signal(SEED + 1).segments
    assert pinned.resolve_signal(SEED).segments != free.resolve_signal(SEED).segments


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_scenario(str(path))


def test_load_scenario_sets_source_dir(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(practical_dict()))
    scen = load_scenario(str(path))
    assert scen.source_dir == str(tmp_path)


def test_schema_error_is_config_error():
    # callers that catch the configuration family must also see schema issues
    assert issubclass(SchemaError, ConfigError)
