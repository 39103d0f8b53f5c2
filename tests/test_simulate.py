"""Hybrid integration: oracles, integrator agreement, traces, exports."""

import copy
import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
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
from omaslab.seeding import STREAM_PERTURBATION, STREAM_PERTURBATION_PAST, KeyedRows
from omaslab.simulate import (
    _CHUNK_STEPS,
    _CSV_BLOCK_VALUES,
    _GRID_EPS,
    DEFAULT_DT,
    ForcingDraws,
    PerturbationModel,
    SegmentTrace,
    Trajectory,
    _csv_block,
    _grid,
    _lay_out,
    _leap,
    _power_table,
    _rk4_step,
    _step_matrix_stack,
    export_events_csv,
    export_trajectory_csv,
    integrate_segment,
    run_switched,
)
from omaslab.switching import Segment, SwitchingSignal
from omaslab.transition import MigrationEvent

from helpers import (
    envelope_by_direct_sums,
    flow_by_eigenvectors,
    forcing_at,
    grid_by_count,
    hold_row,
    rows_per_block,
    lyapunov_trace_by_window,
    pure_relabel_event,
    reference_events_csv,
    reference_trajectory_csv,
    segment_bounds,
    step_matrices,
    stepwise_run,
    stepwise_window,
    tabled,
)

ZERO = PerturbationModel(kind="zero", bound=0.0)


def scalar_follower(a: float, n: int = 1) -> ModeMatrix:
    """n uncoupled 1-d followers (one by default), each with rate a, leader
    frozen at zero."""
    return ModeMatrix(
        mode_id=1, n_agents=n, p=1,
        A=np.array([[0.0]]),
        cZ=a * np.eye(n),
        alpha=a, stable=a < 0,
    )


def run_one(mode: ModeMatrix, x0, h, t_span, **kwargs) -> Trajectory:
    """run_switched on a one-segment signal of mode over t_span."""
    sig = SwitchingSignal(t_span[0], t_span[1], (Segment(start=t_span[0], mode=mode.mode_id),))
    return run_switched({mode.mode_id: mode}, sig, x0, h, **kwargs)


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


@pytest.mark.parametrize("method", ["exact", "rk4"])
@pytest.mark.parametrize("horizon", [30.0, 3000.0])
def test_leader_is_its_closed_form_at_40_digits(method, horizon):
    # the leader is laid out in closed form under either method: every kept
    # row is e^(A (t - t0)) l0 to 1e-12 of its norm, across every switch
    doc = demo_scenario_dict("asymptotic", seed=11)
    doc["signal"]["horizon"] = horizon
    run = run_scenario(parse_scenario(doc), seed=11, dt=1e-2, method=method)
    traj = run.trajectory
    assert run.summary.n_events > 0 and run.summary.leader_overflow_at is None
    want = flow_by_eigenvectors(np.array(DEMO_A), np.array([1.0, 0.5]), traj.t - traj.t0)
    got = traj.z[:, : traj.p]
    assert (np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1)).all()


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
    a, b, c = h.sample(np.array([0.01, 0.04, 0.06]), 2, 2)
    np.testing.assert_array_equal(a, b)  # same hold window
    assert not np.array_equal(a, c)      # next hold redraws
    np.testing.assert_array_equal(a, h.sample(np.array([0.01]), 2, 2)[0])  # reproducible
    assert np.linalg.norm(h.sample(np.array([12.34]), 3, 2)) <= 0.5
    # dimension changes rekey the draw instead of truncating it
    assert not np.array_equal(a[:2], h.sample(np.array([0.01]), 1, 2)[0])


def test_constant_perturbation_rescaled_into_ball():
    h = PerturbationModel(kind="constant", bound=1.0, amplitude=(3.0, 4.0))
    np.testing.assert_allclose(h.sample(np.zeros(2), 1, 2), [[0.6, 0.8]] * 2, rtol=1e-12)
    v = h.sample(np.zeros(1), 2, 2)  # tiled across two agents, norm still 1
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_sinusoidal_perturbation():
    h = PerturbationModel(kind="sinusoidal", bound=2.0, amplitude=(1.0, 0.0), frequency=1.0)
    rows = h.sample(np.array([0.25, 0.5]), 1, 2)
    np.testing.assert_allclose(rows, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_zero_bound_silences_any_kind():
    h = PerturbationModel(kind="random", bound=0.0)
    assert h.sample(np.array([0.3]), 2, 2) is None


def test_perturbation_validation():
    with pytest.raises(ConfigError, match="kind"):
        PerturbationModel(kind="banana", bound=1.0)
    with pytest.raises(ConfigError, match="bound"):
        PerturbationModel(kind="zero", bound=-1.0)
    with pytest.raises(ConfigError, match="amplitude"):
        PerturbationModel(kind="constant", bound=1.0)
    with pytest.raises(ConfigError, match="hold"):
        PerturbationModel(kind="random", bound=1.0, hold=0.0)
    # a non-finite field is refused where it is given, not when a run meets it
    random = dict(kind="random", bound=1.0)
    sinusoidal = dict(kind="sinusoidal", bound=1.0, amplitude=(1.0,))
    for field, fields in (("bound", dict(random, bound=math.nan)),
                          ("bound", dict(random, bound=math.inf)),
                          ("hold", dict(random, hold=math.nan)),
                          ("hold", dict(random, hold=math.inf)),
                          ("frequency", dict(sinusoidal, frequency=math.inf)),
                          ("frequency", dict(sinusoidal, frequency=-math.nan)),
                          ("amplitude", dict(sinusoidal, amplitude=(1.0, math.nan))),
                          ("amplitude", dict(sinusoidal, amplitude=(-math.inf,)))):
        with pytest.raises(ConfigError, match=f"perturbation {field} must be finite"):
            PerturbationModel(**fields)
    h = PerturbationModel(kind="constant", bound=1.0, amplitude=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="amplitude"):
        h.sample(np.zeros(1), 1, 2)


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
    traj = tabled(1, 0.0, 10.0, [
        SegmentTrace(
            index=0, mode_id=1, n_agents=1,
            t=np.array([0.0, 4.0, 7.999, 8.0, 9.0, 10.0]),
            leader=np.zeros((6, 1)),
            errs=np.array([[100.0], [50.0], [60.0], [3.0], [-2.0], [7.0]]),
        )
    ])
    assert traj.tail_sup_error(0.2) == pytest.approx(7.0, abs=1e-12)
    assert traj.tail_sup_error(1.0) == pytest.approx(100.0, abs=1e-12)
    # a diverged run has no tail, whatever its kept samples read
    traj.diverged_at = 9.5
    assert traj.tail_sup_error(0.2) == math.inf


def test_grid_steps_a_short_segment_once():
    # the rounding tolerance applies only after a full step: a segment
    # shorter than dt is one step of its own length, not none
    assert _grid(0.0, 2.5, 1e300) == [(0, 1, 2.5)]
    assert _grid(3.0, 3.0 + 1e-12, 0.05) == [(0, 1, pytest.approx(1e-12, rel=1e-3))]
    assert _grid(0.0, 0.3, 0.1) == [(0, 3, 0.1)]


@settings(max_examples=300, deadline=None)
@given(
    t_start=st.floats(-1e3, 1e3),
    dt=st.sampled_from([1e-3, 0.01, 0.013, 0.05, 0.5]),
    n=st.integers(0, 4 * _CHUNK_STEPS),
    # any fraction of a step, and remainders within rounding of a full step
    frac=st.one_of(st.floats(1e-12, 1.0), st.floats(-3e-9, 3e-9)),
)
@example(t_start=3.0, dt=0.05, n=0, frac=2e-11)  # a span of 1e-12
@example(t_start=0.0, dt=0.1, n=2 * _CHUNK_STEPS, frac=1e-9)
@example(t_start=0.0, dt=0.1, n=2 * _CHUNK_STEPS, frac=-1e-9)
def test_grid_blocks_follow_the_count_rule(t_start, dt, n, frac):
    assume(n + frac > 0.0)  # a signal's segments have positive spans
    t_end = t_start + (n + frac) * dt
    n_full, rem = grid_by_count(t_start, t_end, dt)
    blocks = _grid(t_start, t_end, dt)
    ends = [0] + [b for _, b, _ in blocks]
    # contiguous from step 0, and as many steps as the count rule takes
    assert [a for a, _, _ in blocks] == ends[:-1]
    assert ends[-1] == n_full + (rem > 0.0)
    # chunks of at most _CHUNK_STEPS steps of exactly dt, then the
    # remainder step last, and only when there is one
    full = blocks[:-1] if rem > 0.0 else blocks
    assert all(a < b <= a + _CHUNK_STEPS and step == dt for a, b, step in full)
    assert sum(b - a for a, b, _ in full) == n_full
    if rem > 0.0:
        assert blocks[-1] == (n_full, n_full + 1, rem)


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
    values = np.array([
        [1.0, -0.0, math.inf, 5e-324, 0.1, -2.5],
        [math.nan, 1e300, -math.inf, 0.0, 1.0 / 3.0, 2.0 ** -1074],
    ])
    pieces = [SegmentTrace(
        index=0, mode_id=3, n_agents=2, t=np.array([0.0, 1.0]),
        leader=values[:, :2], errs=values[:, 2:],
    )]
    rng = np.random.default_rng(0)
    values = rng.standard_normal((300, 8)) * 10.0 ** rng.integers(-300, 300, size=(300, 8))
    pieces.append(SegmentTrace(
        index=1, mode_id=12, n_agents=3, t=np.linspace(1.0, 2.0, 300),
        leader=values[:, :2], errs=values[:, 2:],
    ))
    return tabled(2, 0.0, 2.0, pieces)


def _decaying_trajectory() -> Trajectory:
    """1,001 segments of 3 or 4 kept rows over two agent counts, like a
    run with a switch every few samples; the errors decay through the
    subnormals to exact (signed) zeros."""
    rng = np.random.default_rng(1)
    pieces = []
    for i in range(1001):
        n_agents = 3 + i % 2
        t = i + np.linspace(0.0, 1.0, 3 + i % 2)
        decay = np.exp2(-1100.0 * t / 1001.0)[:, None]  # reaches 2^-1100, below the subnormals
        pieces.append(SegmentTrace(
            index=i, mode_id=1 + i % 4, n_agents=n_agents, t=t,
            leader=rng.standard_normal((len(t), 2)),
            errs=rng.standard_normal((len(t), 2 * n_agents)) * decay,
        ))
    return tabled(2, 0.0, 1001.0, pieces)


def _alternating_trajectory() -> Trajectory:
    """1,200 segments of 2 to 5 rows whose agent counts alternate between
    few and many, so that a block of the writer ends inside a segment and
    the blank columns change at and between its edges."""
    rng = np.random.default_rng(2)
    pieces = []
    for i in range(1200):
        n_agents = (1, 6, 2, 5)[i % 4]
        t = i + np.linspace(0.0, 1.0, 2 + i % 4)
        pieces.append(SegmentTrace(
            index=i, mode_id=1 + i % 4, n_agents=n_agents, t=t,
            leader=rng.standard_normal((len(t), 2)),
            errs=rng.standard_normal((len(t), 2 * n_agents)) * 10.0 ** rng.integers(-20, 20),
        ))
    return tabled(2, 0.0, 1200.0, pieces)


def switch_heavy_run(scenario, pairs: int) -> Trajectory:
    """The scenario's modes on the benchmark's switch-heavy layout: a
    stable lead-in, then pairs of unstable and stable windows of 6 and 110
    steps of 0.05 plus a random fraction of a step, the unstable modes 2, 3
    and 4 in turn."""
    rng = np.random.default_rng(5)
    dt, t, segments = 0.05, 0.0, []
    for k in range(2 * pairs + 1):
        mode = 1 if k % 2 == 0 else 2 + (k // 2) % 3
        segments.append(Segment(round(t, 9), mode))
        t += ((110 if mode == 1 else 6) + rng.uniform(0.2, 0.8)) * dt
    events = tuple(scenario.build_event(k, a.mode, b.mode, 11)
                   for k, (a, b) in enumerate(zip(segments, segments[1:]), start=1))
    sig = SwitchingSignal(0.0, round(t, 9), tuple(segments), events)
    leader, errors = scenario.resolve_initial_state(11, 1)
    h = scenario.perturbation.with_seed(11)
    return run_switched(scenario.mode_matrices(), sig, np.concatenate([leader, errors]), h,
                        dt=dt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trajectory_csv_matches_reference_writer(tmp_path, practical_run, asymptotic_scenario):
    decaying = _decaying_trajectory()
    errs = np.concatenate([seg.errs.ravel() for seg in decaying.segments])
    assert (errs == 0).any() and ((errs != 0) & (np.abs(errs) < 2.0**-1022)).any()
    alternating = _alternating_trajectory()
    # the writer's blocks of 8192 // 29 rows end inside segments
    ends = set(np.cumsum([len(seg.t) for seg in alternating.segments]).tolist())
    size = _CSV_BLOCK_VALUES // (3 + 7 * 2 + 6 * 2)
    assert set(range(size, max(ends), size)) - ends
    switching = switch_heavy_run(asymptotic_scenario, 500)
    assert len(switching.events) == 1000 and not switching.diverged
    for traj in (_mixed_trajectory(), decaying, alternating, switching,
                 practical_run.trajectory):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        export_trajectory_csv(traj, str(fast))
        reference_trajectory_csv(traj, str(ref))
        assert fast.read_bytes() == ref.read_bytes()


def _rendered(values) -> bytes:
    """The CSV line the block renderer writes for one row of values."""
    row = np.array(values, dtype=float).reshape(1, -1)
    return _csv_block(row, np.zeros(row.shape, dtype=bool))


def _formatted(values) -> bytes:
    return (",".join("%.17g" % v for v in values) + "\n").encode()


_AWKWARD = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(np.array(_AWKWARD).view(np.uint64).tolist())
def test_csv_renderer_writes_every_bit_pattern_as_the_per_value_format(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _rendered(values) == _formatted(values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_csv_renderer_writes_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate([
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, math.inf), _AWKWARD,
    ])
    values = np.concatenate([values, -values])
    assert _rendered(values) == _formatted(values)
    # many rows of a few fields, as a block of a CSV is
    grid = values[: len(values) // 7 * 7].reshape(-1, 7)
    blank = np.zeros(grid.shape, dtype=bool)
    expected = b"".join(_formatted(row) for row in grid)
    assert _csv_block(grid, blank) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.integers(10**16, 10**17 - 1), st.integers(-341, 292))
@example(22517998136852477, -2)  # 2251799813685247.75, an exact tie at 17 digits
@example(99999999999999999, -20)  # rounds up to the next decade
def test_csv_renderer_writes_near_ties_as_the_per_value_format(digits, exp10):
    # an 18-digit decimal ending in 5 lies halfway between two 17-digit ones
    near = float(f"{digits}5e{exp10}")
    values = np.array([np.nextafter(near, -math.inf), near, np.nextafter(near, math.inf)])
    values = np.concatenate([values, -values])
    assert _rendered(values) == _formatted(values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_csv_renderer_writes_values_a_hair_from_a_tie():
    # x = m 2^-68 with m in [2^52, 2^53) lies in [1.5e-5, 3.1e-5), so its 17
    # digits are x 10^21 = m 5^21 / 2^47 rounded: the fraction is exactly
    # (m 5^21 mod 2^47) / 2^47, here 1/2 + offset 2^-47, down to 7e-15 off a tie
    inverse = pow(5**21, -1, 2**47)
    values = []
    for offset in (0, 1, -1, 2**7, -(2**7), 2**20):
        m0 = (2**46 + offset) * inverse % 2**47
        values += [math.ldexp(m0 + j * 2**47, -68) for j in range(32, 64)]
    values = np.array(values + [-v for v in values])
    assert _rendered(values) == _formatted(values)


# --------------------------------------------------------------------------
# batched forcing and the linear stepping loop


def _hold_grid(hold: float, ks: list[int], offsets: list[float]) -> np.ndarray:
    """Times within a few grid tolerances of hold boundaries, on both sides of t = 0."""
    return np.array([(k + off * _GRID_EPS) * hold for k, off in zip(ks, offsets)])


def _segment_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The grid a segment samples the forcing on, remainder included."""
    times = [t_start]
    for a, b, step in _grid(t_start, t_end, dt):
        times += [t_start + k * dt for k in range(a + 1, b + 1)] if step == dt else [t_end]
    return np.array(times)


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
def test_sample_rows_equal_points_alone(kind, bound, n_agents, p, hold, ks, offsets,
                                        t_start, span, dt, seed):
    # every row of a grid, and the grid of its time alone, is the per-point
    # recount bit for bit
    h = PerturbationModel(kind=kind, bound=bound, amplitude=tuple(range(1, p + 1)),
                          frequency=1.7, hold=hold, seed=seed)
    grids = (_hold_grid(hold, ks, offsets), _segment_grid(t_start, t_start + span, dt))
    for times in grids:
        batch = h.sample(times, n_agents, p)
        if kind == "zero" or bound == 0.0:
            assert batch is None
            assert all(h.sample(times[i : i + 1], n_agents, p) is None for i in range(len(times)))
            continue
        expected = [forcing_at(h, float(t), n_agents, p).tobytes() for t in times]
        assert batch.shape == (len(times), n_agents * p)
        assert [row.tobytes() for row in batch] == expected
        alone = [h.sample(times[i : i + 1], n_agents, p) for i in range(len(times))]
        assert [rows.shape for rows in alone] == [(1, n_agents * p)] * len(times)
        assert [rows[0].tobytes() for rows in alone] == expected


def _counting_generators(monkeypatch) -> list[tuple[int, int, tuple[int, ...]]]:
    """Record (stream, block, shape) of every block generator a KeyedRows makes."""
    calls = []
    real = KeyedRows.generator

    def counting(self, b):
        calls.append((self.stream, b, self.shape))
        return real(self, b)

    monkeypatch.setattr(KeyedRows, "generator", counting)
    return calls


def test_hold_streams_before_and_after_zero(monkeypatch):
    calls = _counting_generators(monkeypatch)
    h = PerturbationModel(kind="random", bound=0.2, hold=0.05, seed=4)
    rows = h.sample(np.array([-0.12, -0.01, 0.0, 0.07]), 3, 2)  # holds -3, -1, 0, 1
    # holds -3 and -1 are rows 2 and 0 of the past stream, holds 0 and 1
    # rows 0 and 1 of the other: one block of each, in time order
    assert calls == [(STREAM_PERTURBATION_PAST, 0, (6,)), (STREAM_PERTURBATION, 0, (6,))]
    assert [r.tobytes() for r in rows] == [
        hold_row(4, k, 6, 0.2)[0].tobytes() for k in (-3, -1, 0, 1)]
    assert len({r.tobytes() for r in rows}) == 4
    # the most negative hold is row 2^63 - 1 of the past stream: no -k overflows
    calls.clear()
    h = PerturbationModel(kind="random", bound=0.2, hold=1.0, seed=4)
    edge = h.sample(np.array([-(2.0**63)]), 3, 2)
    assert calls == [(STREAM_PERTURBATION_PAST, (2**63 - 1) // rows_per_block((6,)), (6,))]
    assert edge[0].tobytes() == hold_row(4, -(2**63), 6, 0.2)[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n_agents=st.integers(1, 4),
    p=st.integers(1, 3),
    hold=st.sampled_from([0.05, 0.0013, 0.7]),
    t_start=st.floats(-20.0, 20.0),
    span=st.floats(0.001, 3.0),
    dt=st.sampled_from([1e-3, 0.01, 0.013]),
    cuts=st.lists(st.integers(1, 4000), max_size=5),
    seed=st.integers(0, 2**40),
)
def test_sample_rows_do_not_depend_on_the_chunks(n_agents, p, hold, t_start, span, dt, cuts,
                                                 seed):
    # a grid cut into chunks, each sharing its first time with the chunk
    # before as a run's chunks do, samples the rows of the whole grid, with
    # a run's ForcingDraws or without
    h = PerturbationModel(kind="random", bound=0.2, hold=hold, seed=seed)
    times = _segment_grid(t_start, t_start + span, dt)
    whole = h.sample(times, n_agents, p)
    ends = sorted({0, len(times) - 1, *(c % len(times) for c in cuts)})
    for draws in (None, ForcingDraws()):
        parts = [h.sample(times[a : b + 1], n_agents, p, draws) for a, b in zip(ends, ends[1:])]
        chunked = np.concatenate([parts[0][:1], *(part[1:] for part in parts)])
        assert chunked.tobytes() == whole.tobytes()
    # the run's largest norm is the largest radius of the holds it read
    holds = np.unique(np.floor(times / hold + _GRID_EPS).astype(np.int64)).tolist()
    assert draws.norm == max(hold_row(seed, k, n_agents * p, 0.2)[1] for k in holds)
    assert 0.0 < draws.norm <= 0.2


@pytest.mark.parametrize("model", [
    dict(kind="constant", bound=0.2, amplitude=(0.3, -0.1)),
    dict(kind="sinusoidal", bound=0.2, amplitude=(0.1, 0.05), frequency=0.7),
    dict(kind="random", bound=0.2, hold=0.05, seed=9),
], ids=lambda m: m["kind"])
def test_sample_without_draws_draws_as_a_fresh_run(monkeypatch, model):
    # a call given no ForcingDraws makes its own: its rows and the norm it
    # records are those of a call given a fresh one
    import omaslab.simulate as simulate

    h = PerturbationModel(**model)
    times = np.linspace(-0.3, 2.0, 161)
    fresh = ForcingDraws()
    want = h.sample(times, 3, 2, fresh)
    made = []
    monkeypatch.setattr(simulate, "ForcingDraws", lambda: made.append(ForcingDraws()) or made[-1])
    got = h.sample(times, 3, 2)
    assert got.tobytes() == want.tobytes()
    assert len(made) == 1 and made[0].norm == fresh.norm > 0.0


def test_sample_refuses_a_forcing_it_cannot_tell():
    # |t| = 30 sets the largest phase and the extreme hold indices
    times = np.array([-30.0, 0.0, 30.0])
    sinusoidal = dict(kind="sinusoidal", bound=0.2, amplitude=(0.1, 0.1))
    random = dict(kind="random", bound=0.2, seed=4)
    constant = dict(kind="constant", bound=0.2)
    # a finite phase, a hold index inside int64 and a finite tiled norm
    # keep their per-point rows, however close to the edge
    for h in (PerturbationModel(**sinusoidal, frequency=1e305),
              PerturbationModel(**random, hold=2.0**-58),
              PerturbationModel(**constant, amplitude=(1e153, 1e153))):
        rows = h.sample(times, 2, 2)
        assert [r.tobytes() for r in rows] == [
            forcing_at(h, float(t), 2, 2).tobytes() for t in times
        ]
    # past the edge: sin of an infinite phase raises, a hold index past
    # int64 casts to one hold for every t, and an infinite norm scales the
    # forcing to zero; each is refused and names its field
    for field, h in (("frequency", PerturbationModel(**sinusoidal, frequency=1e307)),
                     ("hold", PerturbationModel(**random, hold=2.0**-59)),
                     ("amplitude", PerturbationModel(**constant, amplitude=(1e155, 1e155)))):
        with pytest.raises(ConfigError, match=f"^perturbation\\.{field}: "):
            h.sample(times, 2, 2)


def test_segment_draws_each_hold_once(monkeypatch):
    calls = _counting_generators(monkeypatch)
    h = PerturbationModel(kind="random", bound=0.2, hold=0.005, seed=4)
    # three chunks whose boundaries (1.123 s, 2.123 s) fall inside holds,
    # then a remainder step inside the last hold; 40 one-dimensional agents
    # make blocks of 102 holds, 0.51 s, so the chunks cross blocks
    t_span = (0.123, 2.6237)
    traj = run_one(scalar_follower(-1.0, 40), np.zeros(41), h, t_span)
    grid = _segment_grid(*t_span, DEFAULT_DT)
    assert len(grid) - 1 > 2 * _CHUNK_STEPS
    holds = np.unique(np.floor(grid / 0.005 + _GRID_EPS).astype(np.int64))
    blocks = np.unique(holds // rows_per_block((40,))).tolist()
    assert len(blocks) > 3
    # each block of the holds the run reads is drawn once, in time order
    assert calls == [(STREAM_PERTURBATION, b, (40,)) for b in blocks]
    assert traj.max_h_norm == max(hold_row(4, k, 40, 0.2)[1] for k in holds.tolist())


def test_run_draws_each_block_once(monkeypatch, practical_scenario, practical_signal):
    # across windows of four dimensions, each revisited: a block of each
    # stream is drawn once per run, and a second run draws it again
    calls = _counting_generators(monkeypatch)
    h = practical_scenario.perturbation.with_seed(11)
    leader, errors = practical_scenario.resolve_initial_state(11, 1)
    matrices = practical_scenario.mode_matrices()
    read = set()
    for i, seg in enumerate(practical_signal.segments):
        dim = 2 * matrices[seg.mode].n_agents
        grid = _segment_grid(*segment_bounds(practical_signal, i), 5e-3)
        holds = np.floor(grid / h.hold + _GRID_EPS).astype(np.int64)
        read |= {(STREAM_PERTURBATION, b, (dim,)) for b in (holds // rows_per_block((dim,))).tolist()}
    assert len(read) < len(practical_signal.segments)
    for _ in range(2):
        calls.clear()
        run_switched(matrices, practical_signal, np.concatenate([leader, errors]), h, dt=5e-3)
        assert len(calls) == len(set(calls)) and set(calls) == read


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
    for dim, step in ((3, 1e-3), (8, 0.05), (12, 0.3)):
        M = rng.standard_normal((dim, dim))
        x, f0, f1 = (rng.standard_normal(dim) for _ in range(3))
        # the four stages written out for one vector step
        fm = 0.5 * (f0 + f1)
        k1 = M @ x + f0
        k2 = M @ (x + 0.5 * step * k1) + fm
        k3 = M @ (x + 0.5 * step * k2) + fm
        k4 = M @ (x + step * k3) + f1
        expected = x + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        E, A0, A1 = step_matrices(M, step, "rk4")
        got = E @ x + A0 @ f0 + A1 @ f1
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(_rk4_step(M, step, x, f0, f1), expected, rtol=1e-15)


def test_exact_step_matrices_integrate_linear_forcing():
    # x' = -x + f with f ramping from 1 to 3 over one step of length s:
    # x(s) = e^-s x0 + 3 - 2/s - (1 - 2/s) e^-s
    mode = scalar_follower(-1.0)
    s = 0.4
    E, A0, A1 = step_matrices(mode.A_err, s, "exact")
    got = E @ np.array([0.7]) + A0 @ [1.0] + A1 @ [3.0]
    expected = math.exp(-s) * 0.7 + 3.0 - 2.0 / s - (1.0 - 2.0 / s) * math.exp(-s)
    assert got[0] == pytest.approx(expected, rel=1e-13)


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
    E, _, _ = step_matrices(mode.A_err, dt, method)
    x, k = np.array([1.0]), 0
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

    built, batches, stacks = [], [], []
    propagator_stack = simulate._propagator_stack

    def counting(M, steps, method):
        built.extend((M.tobytes(), step, method) for step in steps)
        batches.append(steps)
        return _step_matrix_stack(M, steps, method)

    def recording(M, steps):
        stacks.append((M.tobytes(), list(steps)))
        return propagator_stack(M, steps)

    monkeypatch.setattr(simulate, "_step_matrix_stack", counting)
    monkeypatch.setattr(simulate, "_propagator_stack", recording)
    matrices = practical_scenario.mode_matrices()
    sig, x0, dt = revisiting_run(practical_scenario)
    run_switched(matrices, sig, x0, ZERO, dt=dt, method=method)

    # every step matrix is built from its mode's A_err
    uses = []
    for i, seg in enumerate(sig.segments):
        M = matrices[seg.mode].A_err.tobytes()
        lengths = {step for _, _, step in _grid(*segment_bounds(sig, i), dt)}
        uses += [(M, step, method) for step in lengths]
    # the three remainders of mode 1 differ only in their last bits, and
    # each is a key of its own
    rems = {step for _, step, _ in uses if step != dt}
    assert rems == {0.1999999999999993, 0.19999999999999574}
    assert len(uses) == 8
    assert sorted(built) == sorted(set(uses))
    assert len(built) == 5
    # and the leader's propagators are one stack of A, by a kept step (the
    # stride is 1) and by each window's span; the exact method's A_err
    # builds are a stack each
    spans = [b - a for a, b in (segment_bounds(sig, i) for i in range(len(sig.segments)))]
    leader = [steps for M, steps in stacks if M == matrices[1].A.tobytes()]
    assert leader == [[dt, *spans]]
    assert len(stacks) == 1 + (len(batches) if method == "exact" else 0)


def reference_run(matrices, sig, x0, h, dt, method, stride):
    """run_switched rebuilt from public pieces: a one-segment run for each
    segment, with step matrices built afresh, and apply_error_jump at each
    switch."""
    parts, jumps, z = [], [], x0
    for i, seg in enumerate(sig.segments):
        part = run_one(matrices[seg.mode], z, h, segment_bounds(sig, i),
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

    monkeypatch.setattr(simulate, "KeyedRows", None)  # any draw would raise
    assert PerturbationModel(kind="random", bound=0.0).sample(np.zeros(3), 2, 2) is None
    traj = run_one(scalar_follower(-1.0), np.array([0.0, 1.0]),
                   PerturbationModel(kind="random", bound=0.0), (0.0, 1.0))
    assert traj.max_h_norm == 0.0


# --------------------------------------------------------------------------
# kept-state stepping and stacked step-matrix builds


def random_mode(seed: int, n_agents: int, p: int, rate: float) -> ModeMatrix:
    """A mode whose A and cZ are shifted random matrices: growing for rate > 0,
    decaying for rate < 0."""
    rng = np.random.default_rng(seed)
    A = rate * np.eye(p) + 0.5 * rng.standard_normal((p, p))
    cZ = rate * np.eye(n_agents) + rng.standard_normal((n_agents, n_agents)) / np.sqrt(n_agents)
    return ModeMatrix(mode_id=1, n_agents=n_agents, p=p, A=A, cZ=cZ, alpha=rate,
                      stable=rate < 0)


def forcing_of(kind: str, p: int) -> PerturbationModel:
    if kind == "random":
        return PerturbationModel(kind="random", bound=0.3, hold=0.037, seed=5)
    if kind == "sinusoidal":
        return PerturbationModel(kind="sinusoidal", bound=0.3, amplitude=(1.0, -2.0)[:p],
                                 frequency=1.3)
    return ZERO


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_agents=st.integers(1, 3),
    p=st.integers(1, 2),
    rate=st.sampled_from([-2.0, -0.3, 0.4, 3.0]),
    scale=st.sampled_from([1.0, 1e290]),
    stride=st.one_of(st.integers(1, 40), st.sampled_from([999, 1000, 1001, 2500])),
    chunks=st.integers(0, 2),
    offset=st.integers(-45, 45),
    frac=st.sampled_from([0.0, 0.37]),
    dt=st.sampled_from([1e-3, 1e-2, 0.05]),
    forcing=st.sampled_from(["zero", "random", "sinusoidal"]),
    method=st.sampled_from(["exact", "rk4"]),
)
@example(seed=1, n_agents=2, p=2, rate=3.0, scale=1e290, stride=7, chunks=2, offset=45,
         frac=0.37, dt=0.05, forcing="random", method="exact")
@example(seed=2, n_agents=3, p=1, rate=-0.3, scale=1.0, stride=30, chunks=1, offset=1,
         frac=0.0, dt=0.05, forcing="sinusoidal", method="rk4")
@example(seed=3, n_agents=2, p=2, rate=0.4, scale=1.0, stride=1000, chunks=2, offset=-1,
         frac=0.37, dt=1e-2, forcing="random", method="exact")
@example(seed=4, n_agents=1, p=2, rate=3.0, scale=1e290, stride=1001, chunks=2, offset=45,
         frac=0.0, dt=0.05, forcing="random", method="rk4")
@example(seed=5, n_agents=3, p=1, rate=-2.0, scale=1.0, stride=2500, chunks=2, offset=45,
         frac=0.37, dt=1e-3, forcing="sinusoidal", method="exact")
def test_kept_states_equal_stepping(seed, n_agents, p, rate, scale, stride, chunks, offset,
                                    frac, dt, forcing, method):
    # at stride 1 the run's errors are the step-by-step loop's on A_err bit
    # for bit; above it only the kept states are formed, equal to the loop's
    # to rounding, and a run that overflows stops at the loop's first
    # non-finite step, whatever its leader does. The
    # windows end within 45 steps of a chunk boundary, on either side; the
    # strides from 999 leap across whole chunks, and past the window.
    n = chunks * _CHUNK_STEPS + offset
    assume(n >= 0 and n + frac > 0)
    mode = random_mode(seed, n_agents, p, rate)
    h = forcing_of(forcing, p)
    x0 = scale * np.random.default_rng(seed + 1).standard_normal(p * (n_agents + 1))
    t_span = (0.3, 0.3 + (n + frac) * dt)
    traj = run_one(mode, x0, h, t_span, dt=dt, method=method, sample_stride=stride)
    times, states, diverged_at = stepwise_window(
        mode.A_err, p, n_agents, x0[p:], h, t_span, dt, method, stride)
    seg = traj.segments[0]
    got = seg.errs
    assert traj.diverged_at == diverged_at
    np.testing.assert_array_equal(seg.t, times, strict=True)
    assert got.shape == states.shape
    if stride == 1:
        np.testing.assert_array_equal(got, states)
    else:
        # a leap's rounding grows with its gap (E^g from binary powers): the
        # same allowance per step of gap as at strides up to 40
        gap = min(stride, n + 1)
        assert np.abs(got - states).max() <= 1e-12 * max(1.0, gap / 40) * np.abs(states).max()


def migration(k: int, before: ModeMatrix, after: ModeMatrix, rng) -> MigrationEvent:
    """The switch k from mode before to mode after: its last agents leave,
    or new ones join with a random impulse."""
    nb, na, p = before.n_agents, after.n_agents, before.p
    joins, leaves = tuple(range(nb + 1, na + 1)), tuple(range(na + 1, nb + 1))
    impulse = 0.1 * rng.standard_normal(p * na) if joins else None
    return MigrationEvent(k, before.mode_id, after.mode_id, nb, na, p, joins, leaves,
                          impulse=impulse)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 2),
    sizes=st.permutations([1, 2, 3]),
    rates=st.lists(st.sampled_from([-2.0, -0.3, 0.4, 3.0]), min_size=3, max_size=3),
    windows=st.lists(st.tuples(st.integers(0, 12), st.sampled_from([0.37, 1.0]),
                               st.integers(1, 2)), min_size=2, max_size=60),
    stride=st.integers(1, 40),
    dt=st.sampled_from([1e-2, 0.05]),
    forcing=st.sampled_from(["zero", "random"]),
    method=st.sampled_from(["exact", "rk4"]),
    scale=st.sampled_from([1.0, 1e290]),
)
@example(seed=7, p=2, sizes=[3, 1, 2], rates=[3.0, 0.4, 3.0], windows=[(12, 0.37, 1)] * 60,
         stride=1, dt=0.05, forcing="random", method="exact", scale=1e290)
@example(seed=8, p=1, sizes=[2, 3, 1], rates=[-0.3, 3.0, -2.0], windows=[(5, 1.0, 2), (0, 0.37, 1)] * 30,
         stride=7, dt=1e-2, forcing="random", method="rk4", scale=1.0)
def test_run_equals_stepwise_windows_and_jumps(seed, p, sizes, rates, windows, stride, dt,
                                                forcing, method, scale):
    # a run of many short windows over agent counts that change: at stride
    # 1 every error sample and jump is that of the step-by-step oracle on
    # A_err bit for bit, above it within rounding of the largest state; it
    # stops where the oracle stops, and its segments are views into one
    # table
    rng = np.random.default_rng(seed)
    # the modes share the drift A, by which the leader flows
    A = random_mode(seed, 1, p, rates[0]).A
    matrices = {m: replace(random_mode(seed + m, n, p, rate), mode_id=m, A=A)
                for m, (n, rate) in enumerate(zip(sizes, rates), start=1)}
    modes, t, segments = [1], 0.3, [Segment(0.3, 1)]
    for steps, frac, hop in windows[:-1]:
        t += (steps + frac) * dt
        modes.append((modes[-1] - 1 + hop) % 3 + 1)
        segments.append(Segment(t, modes[-1]))
    tf = t + sum(windows[-1][:2]) * dt
    events = tuple(migration(k, matrices[a], matrices[b], rng)
                   for k, (a, b) in enumerate(zip(modes, modes[1:]), start=1))
    sig = SwitchingSignal(0.3, tf, tuple(segments), events)
    h = forcing_of(forcing, p)
    x0 = scale * rng.standard_normal(p * (sizes[0] + 1))
    traj = run_switched(matrices, sig, x0, h, dt=dt, method=method, sample_stride=stride)
    ref, jumps, diverged_at = stepwise_run(matrices, sig, x0, h, dt, method, stride)

    assert traj.diverged_at == diverged_at
    assert len(traj.segments) == len(ref) and len(traj.events) == len(jumps)
    largest = max(np.abs(states).max() for _, states in ref)
    for seg, (times, states) in zip(traj.segments, ref):
        np.testing.assert_array_equal(seg.t, times, strict=True)
        assert seg.errs.shape == states.shape
        if stride == 1:
            np.testing.assert_array_equal(seg.errs, states)
        else:
            assert np.abs(seg.errs - states).max() <= 1e-12 * largest
    for k, (ev, (pre, post)) in enumerate(zip(traj.events, jumps)):
        if stride == 1:
            np.testing.assert_array_equal(ev.pre_err, pre, strict=True)
            np.testing.assert_array_equal(ev.post_err, post, strict=True)
        else:
            assert np.abs(ev.pre_err - pre).max() <= 1e-12 * largest
            assert np.abs(ev.post_err - post).max() <= 1e-12 * largest
        # a jump reads its window's last row and the next window starts from it
        np.testing.assert_array_equal(ev.pre_err, traj.segments[k].errs[-1], strict=True)
        np.testing.assert_array_equal(ev.post_err, traj.segments[k + 1].errs[0], strict=True)
    assert len(traj.t) == sum(len(seg.t) for seg in traj.segments)
    for seg in traj.segments:
        assert np.shares_memory(seg.t, traj.t)
        assert np.shares_memory(seg.leader, traj.z) and np.shares_memory(seg.errs, traj.z)

    # the second oracle steps (leader, errors) by block_diag(A, A_err), as
    # the run once did. Where it runs as far, the errors agree within
    # rounding and, when it steps exactly, the leader, laid out in closed
    # form, within 1e-11
    stacked, _, stacked_diverged_at = stepwise_run(
        matrices, sig, x0, h, dt, method, stride, stacked=True)
    if stacked_diverged_at == diverged_at:
        tol = 1e-14 if stride == 1 else 1e-12
        lead = max(np.abs(states[:, :p]).max() for _, states in stacked)
        for seg, (times, states) in zip(traj.segments, stacked, strict=True):
            np.testing.assert_array_equal(seg.t, times, strict=True)
            assert np.abs(seg.errs - states[:, p:]).max() <= tol * largest
            if method == "exact":
                assert np.abs(seg.leader - states[:, :p]).max() <= 1e-11 * lead


def test_kept_states_form_only_what_is_kept(monkeypatch):
    # a 3000-step window at stride 30 forms its 100 kept states and the
    # ends of its chunks, not its 3000 steps
    import omaslab.simulate as simulate

    formed = []
    leap = simulate._leap

    def counting(*args):
        out = leap(*args)
        formed.append(len(out))
        return out

    monkeypatch.setattr(simulate, "_leap", counting)
    run_one(random_mode(3, 2, 2, -0.3), np.ones(6), ZERO, (0.0, 30.0), dt=1e-2,
            sample_stride=30)
    assert formed == [34, 34, 34]  # kept: 33, 33 and 34; ends: 1000 and 2000


def test_leap_refuses_a_gap_whose_middle_overflows(monkeypatch):
    # a weighted cyclic shift of 60 coordinates has E^60 = I: a leap over 60
    # steps lands back on its finite start, while stepping grows the state
    # 2^29 on the way and overflows. Only the reach of the table sees that:
    # the chunk is formed again one step at a time, and the window stops at
    # the exact first non-finite step
    import omaslab.simulate as simulate

    n = 60
    w = np.where(np.arange(n) < n // 2, 2.0, 0.5)
    E = np.roll(np.eye(n), 1, axis=0) * w[:, None]
    x = np.zeros(n)
    x[0] = 2.0**995
    y, finite = x, []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            y = E @ y
            finite.append(np.isfinite(y).all())
    first_bad = finite.index(False) + 1
    assert first_bad == 29
    powers, reach = _power_table(E, n)
    np.testing.assert_array_equal(powers[n], np.eye(n))
    np.testing.assert_array_equal(_leap(powers, x, None, [(n, 1)]), x[None, :])

    calls = []
    leap = simulate._leap

    def recording(powers, x, G, runs):
        calls.append((len(powers), runs))
        return leap(powers, x, G, runs)

    monkeypatch.setattr(simulate, "_leap", recording)
    mode = ModeMatrix(mode_id=1, n_agents=n, p=1, A=np.zeros((1, 1)),
                      cZ=np.zeros((n, n)), alpha=0.0, stable=False)
    dt = 0.5
    lay = _lay_out({1: mode}, SwitchingSignal(0.0, n * dt, (Segment(0.0, 1),)), dt, n,
                   np.zeros(1))
    rows = lay.trajectory.z[:, 1:]  # the error columns
    rows[0] = x
    # the window steps under run_switched's errstate
    with np.errstate(over="ignore", invalid="ignore"):
        written, diverged_at = integrate_segment(
            mode, rows, ZERO, (0.0, n * dt), dt, lay.blocks[0],
            {dt: (None, None, powers, reach)})
    assert calls == [(len(powers), [(n, 1)]), (1, [(1, n)])]
    assert diverged_at == first_bad * dt
    # of the window's rows only its start is kept
    np.testing.assert_array_equal(lay.trajectory.t[:written], [0.0], strict=True)
    np.testing.assert_array_equal(rows[:written], x[None, :], strict=True)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.floats(-4.0, 0.6), min_size=2, max_size=12),
    method=st.sampled_from(["exact", "rk4"]),
)
@example(dim=2, seed=0, sizes=[-4.0, 0.6], method="exact")
@example(dim=40, seed=1, sizes=[-3.0, -1.0, -0.2, 0.1, 0.3, 0.6, -3.0], method="exact")
def test_stacked_builds_equal_single_builds(dim, seed, sizes, method):
    # each step length's matrices out of a stack have the bits of a build
    # of that step alone, whichever (s, m) group of the scaling it falls in
    M = np.random.default_rng(seed).standard_normal((dim, dim))
    steps = [10.0**e / np.linalg.norm(M, 1) for e in sizes]  # ||M h||_1 = 10^e
    scalings = {math.frexp(np.linalg.norm(M * h, 1))[1] for h in steps}
    assume(len(scalings) > 1 or method == "rk4")
    stack = _step_matrix_stack(M, steps, method)
    assert len(stack) == len(steps)
    for step, mats in zip(steps, stack):
        for got, want in zip(mats, step_matrices(M, step, method)):
            np.testing.assert_array_equal(got, want, strict=True)
            assert got.strides == want.strides


def fractional_run(scenario, n_segments: int, dt: float, seed: int):
    """The demo's modes, stable and unstable in turn, on segments of whole
    steps plus a random fraction of one, so that every segment has a
    remainder step of its own length."""
    rng = np.random.default_rng(seed)
    modes = [1 if k % 2 == 0 else (2, 3, 4)[(k // 2) % 3] for k in range(n_segments)]
    starts = np.concatenate(([0.0], np.cumsum(
        [((40 if m == 1 else 3) + rng.uniform(0.2, 0.8)) * dt for m in modes])))
    segments = tuple(Segment(start=float(t), mode=m) for t, m in zip(starts, modes))
    events = tuple(scenario.build_event(k, modes[k - 1], modes[k], seed)
                   for k in range(1, n_segments))
    leader, errors = scenario.resolve_initial_state(seed, 1)
    return SwitchingSignal(0.0, float(starts[-1]), segments, events), np.concatenate(
        [leader, errors])


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_run_builds_in_stacks_within_the_byte_budget(monkeypatch, practical_scenario, method):
    import omaslab.simulate as simulate

    stacks = []

    def recording(M, steps, method):
        stacks.append((M.tobytes(), M.shape[0], list(steps)))
        return _step_matrix_stack(M, steps, method)

    matrices = practical_scenario.mode_matrices()
    h = practical_scenario.perturbation.with_seed(11)
    sig, x0 = fractional_run(practical_scenario, 61, 0.05, 11)
    monkeypatch.setattr(simulate, "_step_matrix_stack", recording)
    traj = run_switched(matrices, sig, x0, h, dt=0.05, method=method, sample_stride=4)
    keys = [(M, step) for M, _, steps in stacks for step in steps]
    assert len(keys) == len(set(keys)) == 4 + 61  # dt per mode, one remainder per segment
    assert max(len(steps) for _, _, steps in stacks) > 1
    for _, dim, steps in stacks:
        assert len(steps) * 3 * 8 * dim * dim <= simulate._STACK_BYTES
    # stacks change no bit: one build per stack gives the same run
    monkeypatch.setattr(simulate, "_STACK_BYTES", 0)
    stacks.clear()
    alone = run_switched(matrices, sig, x0, h, dt=0.05, method=method, sample_stride=4)
    assert all(len(steps) == 1 for _, _, steps in stacks)
    assert len(alone.segments) == len(traj.segments) and len(alone.events) == len(traj.events)
    for seg, ref in zip(traj.segments, alone.segments):
        np.testing.assert_array_equal(seg.t, ref.t, strict=True)
        np.testing.assert_array_equal(seg.leader, ref.leader, strict=True)
        np.testing.assert_array_equal(seg.errs, ref.errs, strict=True)
    for ev, ref in zip(traj.events, alone.events):
        np.testing.assert_array_equal(ev.post_err, ref.post_err, strict=True)


def _overflowing_jump_dict(scale: float = 1e12):
    """The demo practical scenario parked in mode 3 until t = 117, whose
    errors are then near 1e301, and a jump 3 -> 1 with a dependence gain of
    norm scale: 1e12 overflows them."""
    doc = demo_scenario_dict("practical", seed=11)
    for ev in doc["events"]:
        if (ev["from"], ev["to"]) == (3, 1):
            ev["dep_gain"] = {"scale": scale}
    doc["signal"] = {"type": "explicit", "t0": 0.0, "tf": 300.0,
                     "segments": [{"t": 0.0, "mode": 3}, {"t": 117.0, "mode": 1}]}
    doc["simulation"]["dt"] = 1e-2
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_jump_diverges_at_the_switch():
    run = run_scenario(parse_scenario(_overflowing_jump_dict()), seed=11)
    traj = run.trajectory
    assert run.summary.diverged and run.summary.diverged_at == 117.0
    # the run stops at the jump: the pre-jump state is kept, nothing after it
    assert [seg.index for seg in traj.segments] == [0] and traj.events == []
    assert traj.segments[0].t[-1] == 117.0
    assert np.isfinite(traj.segments[0].errs).all()
    assert np.abs(traj.segments[0].errs[-1]).max() > 1e300
    assert run.summary.tail_sup_error == math.inf and run.summary.n_events == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_finite_jump_reports_an_infinite_norm(tmp_path):
    # the demo's own gain keeps the jump finite: the run goes on, and
    # events.csv reports the pre-jump error's norm, past the float range,
    # as inf
    run = run_scenario(parse_scenario(_overflowing_jump_dict(0.05)), seed=11)
    assert not run.summary.diverged and len(run.trajectory.events) == 1
    assert np.isfinite(run.trajectory.events[0].pre_err).all()
    export_events_csv(run.trajectory, str(tmp_path / "events.csv"))
    assert (tmp_path / "events.csv").read_text().splitlines()[1].split(",")[6] == "inf"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_events_csv_matches_reference_writer(tmp_path, practical_run, asymptotic_run):
    huge = run_scenario(parse_scenario(_overflowing_jump_dict(0.05)), seed=11).trajectory
    awkward = copy.deepcopy(huge)
    ev = awkward.events[0]
    extra = [(0.1, 0.0), (1e17, 5e-324), (1.0 / 3.0, -0.0)]
    awkward.events += [replace(ev, index=ev.index + 1 + j, t=t, impulse_norm=norm)
                       for j, (t, norm) in enumerate(extra)]
    for traj in (practical_run.trajectory, asymptotic_run.trajectory, huge, awkward):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        export_events_csv(traj, str(fast))
        reference_events_csv(traj, str(ref))
        assert fast.read_bytes() == ref.read_bytes()
    assert b",inf," in (tmp_path / "fast.csv").read_bytes()


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


# --------------------------------------------------------------------------
# energy trace over the run's rows


def _explicit_run(doc: dict, segments: list[dict], tf: float, dt: float):
    """The run of doc on an explicit signal at step dt, and the bundle of
    that signal."""
    doc["signal"] = {"type": "explicit", "t0": 0.0, "tf": tf, "segments": segments}
    doc["simulation"]["dt"] = dt
    scenario = parse_scenario(doc)
    signal = scenario.resolve_signal(11)
    bundle = build_bundle(scenario, signal)
    return run_scenario(scenario, seed=11, bundle=bundle, signal=signal), bundle


def _many_switches_run():
    """The asymptotic demo on 1,000 (stable, unstable) pairs after a stable
    lead-in, 110 and 6 steps of 0.05 plus a random fraction of a step, the
    unstable modes 2, 3 and 4 in shuffled turn: 2,001 windows."""
    rng = np.random.default_rng(27)
    unstable = [2, 3, 4] * 333 + [2]
    rng.shuffle(unstable)
    frac = rng.uniform(0.2, 0.8, size=2001)
    segments, t = [], 0.0
    for k in range(2001):
        stable = k % 2 == 0
        segments.append({"t": round(t, 9), "mode": 1 if stable else int(unstable[k // 2])})
        t += ((110 if stable else 6) + frac[k]) * 0.05
    return _explicit_run(demo_scenario_dict("asymptotic", seed=11), segments, round(t, 9), 0.05)


def _diverging_run():
    """Parked in the repelling mode 3, the errors overflow near t = 120."""
    return _explicit_run(demo_scenario_dict("practical", seed=11),
                         [{"t": 0.0, "mode": 3}, {"t": 200.0, "mode": 1}], 1000.0, 1e-2)


def _chatter_run():
    doc = demo_scenario_dict("practical", seed=11)
    doc["certification"]["chatter_bound"] = 2.5
    scenario = parse_scenario(doc)
    bundle = build_bundle(scenario, scenario.resolve_signal(11))
    return run_scenario(scenario, seed=11, bundle=bundle), bundle


def _jump_overflow_run():
    scenario = parse_scenario(_overflowing_jump_dict())
    bundle = build_bundle(scenario, scenario.resolve_signal(11))
    return run_scenario(scenario, seed=11, bundle=bundle), bundle


def test_lyapunov_trace_equals_window_by_window(
    practical_run, practical_bundle, asymptotic_run, asymptotic_bundle
):
    tampered = copy.deepcopy(practical_run.trajectory)
    tampered.z[len(tampered.t) // 3 :: 7] *= 1e4
    chatter, long, many, diverging, overflow = (
        _chatter_run(), _long_asymptotic_run(300.0), _many_switches_run(), _diverging_run(),
        _jump_overflow_run())
    assert chatter[1].chatter_bound == 2.5
    assert long[0].trajectory.t[1] - long[0].trajectory.t[0] == pytest.approx(3e-2)  # stride 3
    assert len(many[0].trajectory.starts) == 2001
    assert diverging[0].summary.diverged and overflow[0].summary.diverged_at == 117.0
    runs = [(run.trajectory, bundle) for run, bundle in (chatter, long, many, diverging, overflow)]
    runs += [(practical_run.trajectory, practical_bundle),
             (asymptotic_run.trajectory, asymptotic_bundle), (tampered, practical_bundle)]
    for traj, bundle in runs:
        # a diverged run's V overflows, as the window-by-window oracle's does
        with np.errstate(over="ignore", invalid="ignore"):
            trace = lyapunov_trace(traj, bundle)
            oracle = lyapunov_trace_by_window(traj, bundle)
        for name in ("t", "v", "envelope"):
            assert np.array_equal(getattr(trace, name), getattr(oracle, name), equal_nan=True), name
        assert trace.violations == oracle.violations
        assert trace.jump_checks == oracle.jump_checks
    assert trace.violations  # the tampered rows escape the envelope


# --------------------------------------------------------------------------
# each window's last row on the window's end


def _assert_windows_end_on_their_ends(traj, signal):
    """The last row of every window reads exactly that window's end, and
    every other row t_start + k dt of its step k."""
    lasts = np.append(traj.starts[1:], len(traj.t)) - 1
    ends = [seg.start for seg in signal.segments[1:]] + [signal.tf]
    assert traj.t[lasts].tolist() == ends[: len(lasts)]


def test_the_demo_run_ends_on_its_horizon(practical_run, asymptotic_run):
    # the demo's last window drops a remainder of rounding: its last full
    # step ends at 29.999999999999996, which the row no longer reads
    for run in (practical_run, asymptotic_run):
        _assert_windows_end_on_their_ends(run.trajectory, run.signal)
        assert run.trajectory.t[-1] == 30.0
    run, _ = _many_switches_run()
    _assert_windows_end_on_their_ends(run.trajectory, run.signal)


@settings(max_examples=60, deadline=None)
@given(
    dt=st.sampled_from([0.05, 0.1, 0.013, 1e-3]),
    steps=st.lists(st.integers(1, 60), min_size=1, max_size=8),
    fractions=st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.37]), min_size=8, max_size=8),
    stride=st.sampled_from([1, 3, 7]),
)
def test_windows_end_on_their_ends(practical_scenario, dt, steps, fractions, stride):
    # windows of whole steps laid end to end in floating point, some a
    # rounding short of or past a whole step, some with a remainder step
    matrices = practical_scenario.mode_matrices()
    starts, t = [], 0.0
    for n, frac in zip(steps, fractions):
        starts.append(t)
        t += (n + frac) * dt
    modes = [1 if i % 2 == 0 else 2 for i in range(len(starts))]
    segments = tuple(Segment(start, mode) for start, mode in zip(starts, modes))
    events = tuple(practical_scenario.build_event(k, modes[k - 1], modes[k], 11)
                   for k in range(1, len(modes)))
    signal = SwitchingSignal(0.0, t, segments, events)
    leader, errors = practical_scenario.resolve_initial_state(11, 1)
    traj = run_switched(matrices, signal, np.concatenate([leader, errors]), ZERO, dt=dt,
                        sample_stride=stride)
    _assert_windows_end_on_their_ends(traj, signal)
    for i, (a, b) in enumerate(zip(traj.starts, np.append(traj.starts[1:], len(traj.t)))):
        k = np.arange(b - a - 1) * stride
        np.testing.assert_array_equal(traj.t[a : b - 1], starts[i] + k * dt, strict=True)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**40),
    bound=st.sampled_from([0.2, 3.0, 1e-300, 1e300]),
    hold=st.sampled_from([0.05, 0.001, 0.7]),
    t0=st.floats(-5.0, 5.0),
    method=st.sampled_from(["exact", "rk4"]),
)
def test_max_h_norm_is_at_most_the_bound(practical_scenario, practical_signal, seed, bound,
                                         hold, t0, method):
    # the largest radius the run's holds drew, whatever the bound, the
    # holds or the horizon's side of t = 0
    h = PerturbationModel(kind="random", bound=bound, hold=hold, seed=seed)
    segments = tuple(Segment(seg.start / 10.0 + t0, seg.mode) for seg in practical_signal.segments)
    signal = SwitchingSignal(t0, t0 + 3.0, segments, practical_signal.events)
    leader, errors = practical_scenario.resolve_initial_state(11, 1)
    traj = run_switched(practical_scenario.mode_matrices(), signal,
                        np.concatenate([leader, errors]), h, dt=0.01, method=method)
    assert 0.0 < traj.max_h_norm <= bound
