"""Hybrid integration: oracles, integrator agreement, traces, exports."""

import copy
import csv
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab import (
    apply_error_jump,
    lyapunov_trace,
    run_scenario,
    validate_switching,
)
from omaslab.cli import build_bundle
from omaslab.demo import DEMO_A, demo_scenario_dict
from omaslab.errors import ConfigError
from omaslab.mode_dynamics import ModeMatrix
from omaslab.scenario import parse_scenario
from omaslab.seeding import STREAM_PERTURBATION, STREAM_PERTURBATION_PAST, uniform_in_ball
from omaslab.simulate import (
    _CHUNK_STEPS,
    _GRID_EPS,
    DEFAULT_DT,
    PerturbationModel,
    SegmentTrace,
    Trajectory,
    _grid,
    _rk4_step,
    _step_matrices,
    export_events_csv,
    export_trajectory_csv,
    run_switched,
)
from omaslab.switching import Segment, SwitchingSignal

from helpers import (
    envelope_by_direct_sums,
    forcing_at,
    pure_relabel_event,
    reference_trajectory_csv,
)

ZERO = PerturbationModel(kind="zero", bound=0.0)


def scalar_follower(a: float) -> ModeMatrix:
    """One 1-d follower with rate a, leader frozen at zero."""
    return ModeMatrix(
        mode_id=1, n_agents=1, p=1,
        A=np.array([[0.0]]),
        cZ=np.array([[a]]),
        alpha=a, stable=a < 0,
    )


def run_one(mode: ModeMatrix, x0, h, t_span, **kwargs) -> Trajectory:
    """run_switched on a one-segment signal of mode over t_span."""
    sig = SwitchingSignal(t_span[0], t_span[1], (Segment(start=t_span[0], mode=mode.mode_id),))
    return run_switched({mode.mode_id: mode}, sig, x0, h, **kwargs)


def stacked(mode: ModeMatrix) -> np.ndarray:
    """The matrix (leader, errors) flows by within one segment."""
    return scipy.linalg.block_diag(mode.A, mode.A_err)


# --------------------------------------------------------------------------
# closed-form oracles


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_scalar_ode_against_closed_form(method):
    # xdot = -x + 1, x(0) = 0: x(1) = 1 - e^-1
    mode = scalar_follower(-1.0)
    drive = PerturbationModel(kind="constant", bound=10.0, amplitude=(1.0,))
    traj = run_one(mode, np.zeros(2), drive, (0.0, 1.0), dt=1e-3, method=method)
    seg = traj.segments[0]
    assert traj.diverged_at is None
    assert seg.errs[-1][0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
    assert seg.leader[-1][0] == 0.0  # leader untouched
    assert traj.max_h_norm == pytest.approx(1.0, rel=1e-12)


def test_pure_decay_against_exponential():
    mode = scalar_follower(-2.0)
    seg = run_one(mode, np.array([0.0, 3.0]), ZERO, (0.0, 2.0), dt=1e-3).segments[0]
    np.testing.assert_allclose(seg.errs[:, 0], 3.0 * np.exp(-2.0 * seg.t), rtol=1e-10)


def test_unstable_mode_growth_rate(demo_matrices):
    # dominant eigenvalue pair 5.925 +- i omega with omega^2 = det - 0.025^2:
    # a log-norm fit over one full oscillation period cancels the wobble
    mm = demo_matrices[3]
    omega = math.sqrt(0.2 - 0.025**2)
    period = 2.0 * math.pi / omega
    rng = np.random.default_rng(5)
    leader = np.array([1.0, 0.5])
    z0 = np.concatenate([leader, 0.1 * rng.standard_normal(10)])
    seg = run_one(mm, z0, ZERO, (0.0, 1.0 + period), dt=1e-3).segments[0]
    norms = np.linalg.norm(seg.errs, axis=1)
    mask = seg.t >= 1.0  # skip the transient of the subdominant modes
    slope = np.polyfit(seg.t[mask], np.log(norms[mask]), 1)[0]
    assert slope == pytest.approx(5.925, rel=0.02)


def test_leader_follows_its_own_flow(practical_run):
    # the leader flows by A alone and jumps never touch it, so
    # x0(t) = expm(A t) x0(0) across segments and migrations alike
    leader0 = np.array([1.0, 0.5])
    A = np.array(DEMO_A)
    for seg in practical_run.trajectory.segments:
        for idx in range(0, len(seg.t), 700):
            t = seg.t[idx]
            expected = scipy.linalg.expm(A * t) @ leader0
            np.testing.assert_allclose(seg.states[idx][:2], expected, atol=1e-8)


def test_errors_equal_follower_minus_leader(practical_run):
    p = 2
    for seg in practical_run.trajectory.segments:
        for idx in range(0, len(seg.t), 900):
            state = seg.states[idx]
            direct = state[p:] - np.tile(state[:p], seg.n_agents)
            np.testing.assert_allclose(seg.errs[idx], direct, atol=1e-12)


# --------------------------------------------------------------------------
# integrator agreement


def test_exact_and_rk4_agree_on_practical_run(practical_scenario, practical_run):
    rk4 = run_scenario(practical_scenario, method="rk4")
    exact_segs = practical_run.trajectory.segments
    rk4_segs = rk4.trajectory.segments
    assert len(exact_segs) == len(rk4_segs)
    for se, sr in zip(exact_segs, rk4_segs):
        np.testing.assert_array_equal(se.t, sr.t)
        scale = max(1.0, float(np.abs(se.states).max()))
        assert float(np.abs(se.states - sr.states).max()) / scale <= 1e-6


def test_run_scenario_defaults_to_the_scenario_integrator():
    d = demo_scenario_dict("asymptotic", seed=11)
    d["signal"] = {"type": "explicit", "t0": 0.0, "tf": 1.0, "segments": [{"t": 0.0, "mode": 1}]}
    d["simulation"].update(integrator="rk4", dt=1e-2)
    scenario = parse_scenario(d)
    run = run_scenario(scenario)
    assert run.summary.method == "rk4"
    rk4 = run_scenario(scenario, method="rk4").trajectory.segments[0].states
    np.testing.assert_array_equal(run.trajectory.segments[0].states, rk4)
    assert run_scenario(scenario, method="exact").summary.method == "exact"


# --------------------------------------------------------------------------
# perturbation models


def test_perturbation_norm_bound_on_run(practical_run):
    assert practical_run.trajectory.max_h_norm <= 0.2 + 1e-12
    assert practical_run.trajectory.max_h_norm > 0.1  # the drive is actually active


def test_random_perturbation_determinism_and_holds():
    h = PerturbationModel(kind="random", bound=0.5, hold=0.05, seed=7)
    a, b, c = h.sample_grid(np.array([0.01, 0.04, 0.06]), 2, 2)
    np.testing.assert_array_equal(a, b)  # same hold window
    assert not np.array_equal(a, c)      # next hold redraws
    np.testing.assert_array_equal(a, h.sample_grid(np.array([0.01]), 2, 2)[0])  # reproducible
    assert np.linalg.norm(h.sample_grid(np.array([12.34]), 3, 2)) <= 0.5
    # dimension changes rekey the draw instead of truncating it
    assert not np.array_equal(a[:2], h.sample_grid(np.array([0.01]), 1, 2)[0])


def test_constant_perturbation_rescaled_into_ball():
    h = PerturbationModel(kind="constant", bound=1.0, amplitude=(3.0, 4.0))
    np.testing.assert_allclose(h.sample_grid(np.zeros(2), 1, 2), [[0.6, 0.8]] * 2, rtol=1e-12)
    v = h.sample_grid(np.zeros(1), 2, 2)  # tiled across two agents, norm still 1
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_sinusoidal_perturbation():
    h = PerturbationModel(kind="sinusoidal", bound=2.0, amplitude=(1.0, 0.0), frequency=1.0)
    rows = h.sample_grid(np.array([0.25, 0.5]), 1, 2)
    np.testing.assert_allclose(rows, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_zero_bound_silences_any_kind():
    h = PerturbationModel(kind="random", bound=0.0)
    assert h.sample_grid(np.array([0.3]), 2, 2) is None


def test_perturbation_validation():
    with pytest.raises(ConfigError, match="kind"):
        PerturbationModel(kind="banana", bound=1.0)
    with pytest.raises(ConfigError, match="bound"):
        PerturbationModel(kind="zero", bound=-1.0)
    with pytest.raises(ConfigError, match="amplitude"):
        PerturbationModel(kind="constant", bound=1.0)
    with pytest.raises(ConfigError, match="hold"):
        PerturbationModel(kind="random", bound=1.0, hold=0.0)
    h = PerturbationModel(kind="constant", bound=1.0, amplitude=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="amplitude"):
        h.sample_grid(np.zeros(1), 1, 2)


def test_with_seed_respects_explicit_seed():
    assert PerturbationModel(kind="zero", bound=0.0, seed=3).with_seed(9).seed == 3
    assert PerturbationModel(kind="zero", bound=0.0).with_seed(9).seed == 9


# --------------------------------------------------------------------------
# argument validation


def test_run_switched_validation():
    mode = scalar_follower(-1.0)
    with pytest.raises(ConfigError, match="integrator"):
        run_one(mode, np.zeros(2), ZERO, (0.0, 1.0), method="euler")
    with pytest.raises(ConfigError, match="dt"):
        run_one(mode, np.zeros(2), ZERO, (0.0, 1.0), dt=0.0)
    with pytest.raises(ConfigError, match="sample_stride"):
        run_one(mode, np.zeros(2), ZERO, (0.0, 1.0), sample_stride=0)
    with pytest.raises(ConfigError, match=r"state has shape \(3,\), expected \(2,\)"):
        run_one(mode, np.zeros(3), ZERO, (0.0, 1.0))
    # a state that fits the first mode but not the second, after the jump
    sig = SwitchingSignal(0.0, 2.0, (Segment(0.0, 1), Segment(1.0, 2)),
                          (pure_relabel_event(1, 1, 2, n=1, p=1),))
    two = ModeMatrix(mode_id=2, n_agents=2, p=1, A=np.zeros((1, 1)), cZ=-np.eye(2),
                     alpha=-1.0, stable=True)
    with pytest.raises(ConfigError, match=r"state has shape \(2,\), expected \(3,\)"):
        run_switched({1: mode, 2: two}, sig, np.zeros(2), ZERO)


# --------------------------------------------------------------------------
# sampling and stride


def test_explicit_stride_keeps_final_sample():
    mode = scalar_follower(-1.0)
    t = run_one(mode, np.array([0.0, 1.0]), ZERO, (0.0, 1.0), dt=1e-2,
                sample_stride=7).segments[0].t
    assert t[0] == 0.0 and t[-1] == 1.0
    # interior samples arrive every 7 steps of 0.01
    np.testing.assert_allclose(np.diff(t)[:-1], 0.07, rtol=1e-9)


def test_auto_stride_on_long_horizons():
    mode = scalar_follower(-0.01)
    sig = SwitchingSignal(
        t0=0.0, tf=150.0, segments=(Segment(start=0.0, mode=1),), events=()
    )
    traj = run_switched({1: mode}, sig, np.array([0.0, 1.0]), ZERO, dt=1e-2)
    seg = traj.segments[0]
    assert seg.t[-1] == 150.0
    # ceil(150 / 100) = 2 grid steps per retained sample
    assert seg.t[1] - seg.t[0] == pytest.approx(2e-2, rel=1e-9)
    assert len(seg.t) < 8000


def test_uneven_final_step_hits_boundary_exactly():
    mode = scalar_follower(-1.0)
    seg = run_one(mode, np.array([0.0, 1.0]), ZERO, (0.0, 0.0105), dt=1e-3).segments[0]
    assert seg.t[-1] == 0.0105
    np.testing.assert_allclose(seg.errs[-1][0], math.exp(-0.0105), rtol=1e-12)


# --------------------------------------------------------------------------
# trajectory-level behavior


def test_monotone_energy_decay_single_stable_mode(demo_matrices, practical_bundle):
    mm = demo_matrices[1]
    P = practical_bundle.certificates[1].P
    rng = np.random.default_rng(3)
    leader = np.array([1.0, 0.5])
    x0 = np.concatenate([leader, np.tile(leader, 4) + rng.standard_normal(8)])
    sig = SwitchingSignal(0.0, 5.0, (Segment(start=0.0, mode=1),), ())
    traj = run_switched({1: mm}, sig, x0, ZERO, dt=1e-3)
    errs = traj.segments[0].errs
    v = np.sqrt(np.einsum("ij,jk,ik->i", errs, P, errs))
    assert np.all(v[1:] <= v[:-1] * (1.0 + 1e-9))
    assert v[-1] < 1e-3 * v[0]


def test_tail_sup_error_hand_case():
    traj = Trajectory(p=1, t0=0.0, tf=10.0)
    traj.segments.append(
        SegmentTrace(
            index=0, mode_id=1, n_agents=1,
            t=np.array([0.0, 4.0, 7.999, 8.0, 9.0, 10.0]),
            leader=np.zeros((6, 1)),
            errs=np.array([[100.0], [50.0], [60.0], [3.0], [-2.0], [7.0]]),
        )
    )
    assert traj.tail_sup_error(0.2) == pytest.approx(7.0, abs=1e-12)
    assert traj.tail_sup_error(1.0) == pytest.approx(100.0, abs=1e-12)
    # a diverged run has no tail, whatever its kept samples read
    traj.diverged_at = 9.5
    assert traj.tail_sup_error(0.2) == math.inf


def test_grid_steps_a_short_segment_once():
    # the rounding tolerance applies only after a full step: a segment
    # shorter than dt is one step of its own length, not none
    assert _grid(0.0, 2.5, 1e300) == (0, 2.5)
    assert _grid(3.0, 3.0 + 1e-12, 0.05) == (0, pytest.approx(1e-12, rel=1e-3))
    assert _grid(0.0, 0.3, 0.1) == (3, 0.0)


def test_divergence_detected_and_reported():
    mode = ModeMatrix(
        mode_id=1, n_agents=1, p=1,
        A=np.array([[0.0]]),
        cZ=np.array([[50.0]]),
        alpha=50.0, stable=False,
    )
    lone = run_one(mode, np.array([0.0, 1.0]), ZERO, (0.0, 20.0), dt=1e-3)
    # e^(50 t) overflows float64 just past t = 709.78 / 50
    assert lone.diverged_at == pytest.approx(709.78 / 50.0, abs=0.5)
    # run_switched stops at the diverging segment and skips later ones
    sig = SwitchingSignal(
        0.0, 20.0,
        (Segment(start=0.0, mode=1), Segment(start=19.0, mode=2)),
        (pure_relabel_event(1, 1, 2, n=1, p=1),),
    )
    traj = run_switched({1: mode, 2: scalar_follower(-1.0)}, sig,
                        np.array([0.0, 1.0]), ZERO, dt=1e-3)
    assert traj.diverged
    assert len(traj.segments) == 1 and not traj.events


def test_practical_run_summary(practical_run):
    s = practical_run.summary
    assert not s.diverged
    assert s.n_events == len(practical_run.signal.events)
    assert s.ultimate_bound is not None and math.isfinite(s.ultimate_bound)
    assert s.tail_sup_error <= s.ultimate_bound
    assert s.bound_respected is True
    assert s.max_h_norm <= 0.2 + 1e-12


def test_asymptotic_run_summary(asymptotic_run):
    s = asymptotic_run.summary
    assert not s.diverged
    assert s.converged
    assert s.ultimate_bound == 0.0
    assert s.bound_respected is True
    assert s.max_h_norm == 0.0


# --------------------------------------------------------------------------
# energy trace and envelope


def test_lyapunov_trace_ok_on_demo_runs(
    practical_run, practical_bundle, asymptotic_run, asymptotic_bundle
):
    for run, bundle in ((practical_run, practical_bundle), (asymptotic_run, asymptotic_bundle)):
        trace = lyapunov_trace(run.trajectory, bundle)
        assert trace.ok
        assert not trace.violations
        assert len(trace.jump_checks) == len(run.trajectory.events)
        assert len(trace.t) == len(trace.v) == len(trace.envelope)


def test_lyapunov_trace_catches_tampered_flow(practical_run, practical_bundle):
    traj = copy.deepcopy(practical_run.trajectory)
    traj.segments[-1].errs *= 1e4
    trace = lyapunov_trace(traj, practical_bundle)
    assert trace.violations
    assert not trace.ok


def test_lyapunov_trace_catches_tampered_jump(practical_run, practical_bundle):
    traj = copy.deepcopy(practical_run.trajectory)
    traj.events[0].post_err = traj.events[0].post_err * 1e4
    trace = lyapunov_trace(traj, practical_bundle)
    assert any(not c[3] for c in trace.jump_checks)
    assert not trace.ok


# --------------------------------------------------------------------------
# CSV export


def test_trajectory_csv_layout(tmp_path, practical_run):
    traj = practical_run.trajectory
    path = tmp_path / "trajectory.csv"
    export_trajectory_csv(traj, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n_max, p = traj.max_agents(), traj.p
    expected = ["t", "mode", "agent_count"]
    expected += [f"xi_agent{i}_dim{d}" for i in range(n_max + 1) for d in range(p)]
    expected += [f"err_agent{i}_dim{d}" for i in range(1, n_max + 1) for d in range(p)]
    assert header == expected
    assert len(body) == sum(len(seg.t) for seg in traj.segments)
    # boundary instants appear twice: pre-jump and post-jump
    times = [float(r[0]) for r in body]
    for ev in traj.events:
        assert times.count(ev.t) == 2
    # rows of small modes blank out the unused agent columns
    for row in body:
        n_here = int(row[2])
        if n_here < n_max:
            assert row[3 + (n_here + 1) * p] == ""
            state_vals = row[3 : 3 + (n_here + 1) * p]
            assert all(v != "" for v in state_vals)
    # values survive the decimal round trip exactly
    first = body[0]
    np.testing.assert_array_equal(
        np.array([float(v) for v in first[3 : 3 + 10]]),
        traj.segments[0].states[0][:10],
    )


def test_events_csv_layout(tmp_path, practical_run):
    traj = practical_run.trajectory
    path = tmp_path / "events.csv"
    export_events_csv(traj, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "k", "t", "mode_before", "mode_after", "n_before", "n_after",
        "pre_err_norm", "post_err_norm", "impulse_norm",
    ]
    assert len(rows) - 1 == len(traj.events)
    for row, ev in zip(rows[1:], traj.events):
        assert int(row[0]) == ev.index
        assert float(row[1]) == ev.t
        assert (int(row[2]), int(row[3])) == (ev.mode_before, ev.mode_after)
        assert float(row[7]) == pytest.approx(ev.post_err_norm, rel=1e-15)


def _mixed_trajectory() -> Trajectory:
    """Two segments of different agent counts holding awkward values."""
    traj = Trajectory(p=2, t0=0.0, tf=2.0)
    values = np.array([
        [1.0, -0.0, math.inf, 5e-324, 0.1, -2.5],
        [math.nan, 1e300, -math.inf, 0.0, 1.0 / 3.0, 2.0 ** -1074],
    ])
    traj.segments.append(SegmentTrace(
        index=0, mode_id=3, n_agents=2, t=np.array([0.0, 1.0]),
        leader=values[:, :2], errs=values[:, 2:],
    ))
    rng = np.random.default_rng(0)
    values = rng.standard_normal((300, 8)) * 10.0 ** rng.integers(-300, 300, size=(300, 8))
    traj.segments.append(SegmentTrace(
        index=1, mode_id=12, n_agents=3, t=np.linspace(1.0, 2.0, 300),
        leader=values[:, :2], errs=values[:, 2:],
    ))
    return traj


def test_trajectory_csv_matches_reference_writer(tmp_path, practical_run):
    for traj in (_mixed_trajectory(), practical_run.trajectory):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        export_trajectory_csv(traj, str(fast))
        reference_trajectory_csv(traj, str(ref))
        assert fast.read_bytes() == ref.read_bytes()


# --------------------------------------------------------------------------
# batched forcing and the linear stepping loop


def _hold_grid(hold: float, ks: list[int], offsets: list[float]) -> np.ndarray:
    """Times within a few grid tolerances of hold boundaries, on both sides of t = 0."""
    return np.array([(k + off * _GRID_EPS) * hold for k, off in zip(ks, offsets)])


def _segment_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The grid a segment samples the forcing on, remainder included."""
    n_full, rem = _grid(t_start, t_end, dt)
    times = [t_start + k * dt for k in range(n_full + 1)]
    return np.array(times + ([t_end] if rem > 0.0 else []))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["zero", "constant", "sinusoidal", "random"]),
    bound=st.sampled_from([0.0, 0.2, 3.0]),
    n_agents=st.integers(1, 4),
    p=st.integers(1, 3),
    hold=st.sampled_from([0.05, 0.1, 0.037]),
    ks=st.lists(st.integers(-400, 400), min_size=1, max_size=12),
    offsets=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
    t_start=st.floats(-20.0, 20.0),
    span=st.floats(0.0005, 0.6),
    dt=st.sampled_from([1e-3, 0.01, 0.013]),
    seed=st.integers(0, 2**40),
)
def test_sample_grid_equals_sample(kind, bound, n_agents, p, hold, ks, offsets,
                                   t_start, span, dt, seed):
    # every row of a grid, and sample() at its time, is the per-point
    # recount bit for bit
    h = PerturbationModel(kind=kind, bound=bound, amplitude=tuple(range(1, p + 1)),
                          frequency=1.7, hold=hold, seed=seed)
    grids = (_hold_grid(hold, ks, offsets), _segment_grid(t_start, t_start + span, dt))
    for times in grids:
        batch = h.sample_grid(times, n_agents, p)
        expected = [forcing_at(h, float(t), n_agents, p).tobytes() for t in times]
        assert [h.sample(float(t), n_agents, p).tobytes() for t in times] == expected
        if kind == "zero" or bound == 0.0:
            assert batch is None
            continue
        assert batch.shape == (len(times), n_agents * p)
        assert [row.tobytes() for row in batch] == expected


def test_sample_grid_draws_each_hold_once(monkeypatch):
    import omaslab.simulate as simulate

    calls = []
    real = simulate.stream_rng
    monkeypatch.setattr(simulate, "stream_rng", lambda *a: calls.append(a) or real(*a))
    h = PerturbationModel(kind="random", bound=0.2, hold=0.05, seed=4)
    h.sample_grid(np.arange(1001) * 1e-3, 3, 2)  # 1 s: holds 0..20
    assert sorted(c[2] for c in calls) == list(range(21))


def test_hold_streams_before_and_after_zero(monkeypatch):
    import omaslab.simulate as simulate

    calls = []
    real = simulate.stream_rng
    monkeypatch.setattr(simulate, "stream_rng", lambda *a: calls.append(a) or real(*a))
    h = PerturbationModel(kind="random", bound=0.2, hold=0.05, seed=4)
    rows = h.sample_grid(np.array([-0.12, -0.01, 0.0, 0.07]), 3, 2)  # holds -3, -1, 0, 1
    assert calls == [(4, STREAM_PERTURBATION_PAST, 3, 6), (4, STREAM_PERTURBATION_PAST, 1, 6),
                     (4, STREAM_PERTURBATION, 0, 6), (4, STREAM_PERTURBATION, 1, 6)]
    # holds k >= 0 keep their (k, dim) key; holds before t = 0 get fresh draws
    expected = uniform_in_ball(real(4, STREAM_PERTURBATION, 1, 6), 6, 0.2)
    assert rows[3].tobytes() == expected.tobytes()
    assert len({r.tobytes() for r in rows}) == 4


def test_segment_draws_each_hold_once(monkeypatch):
    calls = []
    real = PerturbationModel._hold_draw
    monkeypatch.setattr(PerturbationModel, "_hold_draw",
                        lambda self, k, dim: calls.append(k) or real(self, k, dim))
    h = PerturbationModel(kind="random", bound=0.2, hold=0.05, seed=4)
    # three chunks whose boundaries (1.123 s, 2.123 s) fall inside holds,
    # then a remainder step inside the last hold
    t_span = (0.123, 2.6237)
    run_one(scalar_follower(-1.0), np.array([0.0, 1.0]), h, t_span)
    grid = _segment_grid(*t_span, DEFAULT_DT)
    assert len(grid) - 1 > 2 * _CHUNK_STEPS
    holds = np.unique(np.floor(grid / 0.05 + _GRID_EPS).astype(np.int64))
    assert calls == holds.tolist()


def test_negative_t0_with_random_perturbation_runs():
    doc = demo_scenario_dict("practical", seed=11)
    doc["signal"] = {"type": "explicit", "t0": -1.0, "tf": 12.0, "segments": [
        {"t": -1.0, "mode": 1}, {"t": 5.0, "mode": 2}, {"t": 5.3, "mode": 1}]}
    scenario = parse_scenario(doc)
    signal = scenario.resolve_signal(11)
    bundle = build_bundle(scenario, signal)
    assert validate_switching(signal, bundle.budget, bundle.stable_set).ok
    run = run_scenario(scenario, seed=11, bundle=bundle, signal=signal)
    s = run.summary
    assert s.t0 == -1.0 and s.n_events == 2 and not s.diverged
    assert 0.0 < s.max_h_norm <= 0.2
    assert s.bound_respected
    assert lyapunov_trace(run.trajectory, bundle).ok


def test_rk4_step_matrices_match_stage_formula():
    rng = np.random.default_rng(8)
    for dim, p, step in ((3, 1, 1e-3), (8, 2, 0.05), (12, 2, 0.3)):
        M = rng.standard_normal((dim, dim))
        x, f0, f1 = (rng.standard_normal(dim) for _ in range(3))
        f0[:p] = f1[:p] = 0.0  # the leader rows are never forced
        # the four stages written out for one vector step
        fm = 0.5 * (f0 + f1)
        k1 = M @ x + f0
        k2 = M @ (x + 0.5 * step * k1) + fm
        k3 = M @ (x + 0.5 * step * k2) + fm
        k4 = M @ (x + step * k3) + f1
        expected = x + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        E, A0, A1 = _step_matrices(M, step, "rk4", p)
        got = E @ x + A0 @ f0[p:] + A1 @ f1[p:]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(_rk4_step(M, step, x, f0, f1), expected, rtol=1e-15)


def test_exact_step_matrices_integrate_linear_forcing():
    # x' = -x + f with f ramping from 1 to 3 over one step of length s:
    # x(s) = e^-s x0 + 3 - 2/s - (1 - 2/s) e^-s
    mode = scalar_follower(-1.0)
    s = 0.4
    E, A0, A1 = _step_matrices(stacked(mode), s, "exact", 1)
    got = E @ np.array([0.0, 0.7]) + A0 @ [1.0] + A1 @ [3.0]
    expected = math.exp(-s) * 0.7 + 3.0 - 2.0 / s - (1.0 - 2.0 / s) * math.exp(-s)
    assert got[1] == pytest.approx(expected, rel=1e-13)
    assert got[0] == 0.0


@pytest.mark.parametrize("method", ["exact", "rk4"])
@pytest.mark.parametrize("stride", [1, 7, 1000])
def test_chunked_divergence_keeps_stepwise_samples(method, stride):
    # overflow lands deep inside a later chunk: the diverging step and the
    # sampled rows must be those of a plain step-by-step loop
    mode = ModeMatrix(
        mode_id=1, n_agents=1, p=1, A=np.array([[0.0]]),
        cZ=np.array([[50.0]]), alpha=50.0, stable=False,
    )
    dt = 1e-3
    x0 = np.array([0.0, 1.0])
    traj = run_one(mode, x0, ZERO, (0.0, 20.0), dt=dt, method=method, sample_stride=stride)
    seg = traj.segments[0]
    E, _, _ = _step_matrices(stacked(mode), dt, method, 1)
    x, k = np.array([0.0, 1.0]), 0
    kept = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            x = E @ x
            k += 1
            if not np.isfinite(x).all():
                break
            if k % stride == 0:
                kept.append(k * dt)
    assert k > 3 * _CHUNK_STEPS
    assert traj.diverged_at == k * dt
    np.testing.assert_array_equal(seg.t, kept)
    assert np.isfinite(seg.leader).all() and np.isfinite(seg.errs).all()


def revisiting_run(scenario):
    """The demo's modes on the layout of the wide benchmark: stable spans of
    30.2 s from t = 0, 30.7 and 61.4, unstable spans of 0.5 s between them,
    at dt 0.5. Mode 1 is entered three times; its remainder steps are
    0.1999999999999993 twice and 0.19999999999999574 once."""
    modes = (1, 2, 1, 3, 1)
    starts = (0.0, 30.2, 30.7, 60.9, 61.4)
    segments = tuple(Segment(start=t, mode=m) for t, m in zip(starts, modes))
    events = tuple(
        scenario.build_event(k, modes[k - 1], modes[k], 11)
        for k in range(1, len(modes))
    )
    sig = SwitchingSignal(0.0, 91.6, segments, events)
    leader, errors = scenario.resolve_initial_state(11, 1)
    return sig, np.concatenate([leader, errors]), 0.5


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_run_builds_each_step_matrix_once(monkeypatch, practical_scenario, method):
    import omaslab.simulate as simulate

    built, block_diags = [], []
    block_diag = scipy.linalg.block_diag

    def counting(M, step, method, p):
        built.append((M.tobytes(), step, method))
        return _step_matrices(M, step, method, p)

    def counting_block_diag(*blocks):
        block_diags.append(len(blocks))
        return block_diag(*blocks)

    monkeypatch.setattr(simulate, "_step_matrices", counting)
    monkeypatch.setattr(scipy.linalg, "block_diag", counting_block_diag)
    matrices = practical_scenario.mode_matrices()
    sig, x0, dt = revisiting_run(practical_scenario)
    run_switched(matrices, sig, x0, ZERO, dt=dt, method=method)
    # the stacked matrix is filled in place, without scipy's argument checks;
    # the bytes compared below are those of block_diag's
    assert block_diags == []

    uses = []
    for i, seg in enumerate(sig.segments):
        n_full, rem = _grid(*sig.segment_bounds(i), dt)
        M = stacked(matrices[seg.mode]).tobytes()
        if n_full > 0:
            uses.append((M, dt, method))
        if rem > 0.0:
            uses.append((M, rem, method))
    # the three remainders of mode 1 differ only in their last bits, and
    # each is a key of its own
    rems = {step for _, step, _ in uses if step != dt}
    assert rems == {0.1999999999999993, 0.19999999999999574}
    assert len(uses) == 8
    assert sorted(built) == sorted(set(uses))
    assert len(built) == 5


def reference_run(matrices, sig, x0, h, dt, method, stride):
    """run_switched rebuilt from public pieces: a one-segment run for each
    segment, with step matrices built afresh, and apply_error_jump at each
    switch."""
    parts, jumps, z = [], [], x0
    for i, seg in enumerate(sig.segments):
        part = run_one(matrices[seg.mode], z, h, sig.segment_bounds(i),
                       dt=dt, method=method, sample_stride=stride)
        parts.append(part)
        if part.diverged or i == len(sig.events):
            break
        pre = part.segments[0].errs[-1]
        post = apply_error_jump(sig.events[i], pre)
        jumps.append((pre, post))
        z = np.concatenate([part.segments[0].leader[-1], post])
    return parts, jumps


def assert_same_run(traj, parts, jumps):
    assert len(traj.segments) == len(parts) and len(traj.events) == len(jumps)
    for seg, part in zip(traj.segments, parts):
        np.testing.assert_array_equal(seg.t, part.segments[0].t, strict=True)
        np.testing.assert_array_equal(seg.leader, part.segments[0].leader, strict=True)
        np.testing.assert_array_equal(seg.errs, part.segments[0].errs, strict=True)
    for ev, (pre, post) in zip(traj.events, jumps):
        np.testing.assert_array_equal(ev.pre_err, pre, strict=True)
        np.testing.assert_array_equal(ev.post_err, post, strict=True)
    assert traj.diverged_at == parts[-1].diverged_at
    assert traj.max_h_norm == max(part.max_h_norm for part in parts)


@pytest.mark.parametrize("method", ["exact", "rk4"])
@pytest.mark.parametrize("layout", ["demo", "revisiting"])
def test_run_equals_segmentwise_reference(practical_scenario, practical_signal, method, layout):
    # kept step matrices change nothing: every sample, jump and summary
    # figure equals that of fresh builds segment by segment, bit for bit
    matrices = practical_scenario.mode_matrices()
    h = practical_scenario.perturbation.with_seed(11)
    if layout == "demo":
        sig, dt = practical_signal, 5e-3
        leader, errors = practical_scenario.resolve_initial_state(11, 1)
        x0 = np.concatenate([leader, errors])
    else:
        sig, x0, dt = revisiting_run(practical_scenario)
    traj = run_switched(matrices, sig, x0, h, dt=dt, method=method, sample_stride=3)
    assert_same_run(traj, *reference_run(matrices, sig, x0, h, dt, method, 3))
    assert len(traj.events) == sig.n_switches and traj.max_h_norm > 0.0


def test_zero_perturbation_has_no_forcing_and_no_draws(monkeypatch):
    import omaslab.simulate as simulate

    monkeypatch.setattr(simulate, "stream_rng", None)  # any draw would raise
    assert PerturbationModel(kind="random", bound=0.0).sample_grid(np.zeros(3), 2, 2) is None
    traj = run_one(scalar_follower(-1.0), np.array([0.0, 1.0]),
                   PerturbationModel(kind="random", bound=0.0), (0.0, 1.0))
    assert traj.max_h_norm == 0.0


# --------------------------------------------------------------------------
# envelope recurrence


def test_envelope_recurrence_matches_direct_sums(
    practical_run, practical_bundle, asymptotic_run, asymptotic_bundle
):
    for run, bundle in ((practical_run, practical_bundle), (asymptotic_run, asymptotic_bundle)):
        trace = lyapunov_trace(run.trajectory, bundle)
        oracle = envelope_by_direct_sums(run.trajectory, bundle)
        np.testing.assert_allclose(trace.envelope, oracle, rtol=1e-12)


def _many_switch_practical(pairs: int):
    """Demo practical modes on pairs of (unstable 0.325 s, stable 5.525 s)
    after a stable lead-in: stable/unstable = 17 on every suffix, above the
    certified 13.16, and every pair longer than twice the dwell floor."""
    doc = demo_scenario_dict("practical", seed=11)
    segments, t = [], 0.0
    for k in range(2 * pairs + 1):
        mode = 1 if k % 2 == 0 else (2, 3, 4)[(k // 2) % 3]
        segments.append({"t": round(t, 9), "mode": mode})
        t += 5.525 if k % 2 == 0 else 0.325
    doc["signal"] = {"type": "explicit", "t0": 0.0, "tf": round(t, 9), "segments": segments}
    doc["simulation"]["dt"] = 0.025
    return parse_scenario(doc)


def test_envelope_finite_past_204_switches():
    # mu^204 overflows a float for the demo's mu of about 32.6; the envelope
    # must not form it
    scenario = _many_switch_practical(102)
    signal = scenario.resolve_signal(11)
    assert signal.n_switches == 204
    bundle = build_bundle(scenario, signal)
    assert validate_switching(signal, bundle.budget, bundle.stable_set).ok
    assert 204 * math.log(bundle.jump_gain) > math.log(np.finfo(float).max)
    run = run_scenario(scenario, seed=11, bundle=bundle, signal=signal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = lyapunov_trace(run.trajectory, bundle)
    assert np.isfinite(trace.envelope).all()
    assert trace.ok


# --------------------------------------------------------------------------
# long unforced horizons


def _long_asymptotic_run(horizon: float):
    """The unforced demo on a generated signal of the given horizon, dt 1e-2."""
    doc = demo_scenario_dict("asymptotic", seed=11)
    doc["signal"]["horizon"] = horizon
    doc["simulation"]["dt"] = 1e-2
    scenario = parse_scenario(doc)
    signal = scenario.resolve_signal(11)
    bundle = build_bundle(scenario, signal)
    assert bundle.ultimate_bound == 0.0
    assert validate_switching(signal, bundle.budget, bundle.stable_set).ok
    return run_scenario(scenario, seed=11, bundle=bundle, signal=signal), bundle


def test_asymptotic_envelope_holds_over_300s():
    # the leader grows like e^(0.025 t); errors formed as x_i - x_0 would
    # level off at its rounding (near 1e-11) while the envelope falls to 5e-17
    run, bundle = _long_asymptotic_run(300.0)
    trace = lyapunov_trace(run.trajectory, bundle)
    assert trace.violations == []
    assert trace.ok


def test_asymptotic_converges_over_3000s():
    run, bundle = _long_asymptotic_run(3000.0)
    s = run.summary
    assert not s.diverged
    assert s.tail_sup_error < s.convergence_tol
    assert s.converged and s.bound_respected
    assert lyapunov_trace(run.trajectory, bundle).ok
