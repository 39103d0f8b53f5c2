"""Switching signals, suffix conditions and compliant-signal generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab import validate_switching
from omaslab.certificate import ModeCertificate, assemble_bundle
from omaslab.errors import ConfigError
from omaslab.switching import (
    _TIME_EPS,
    Segment,
    SignalGenSpec,
    SwitchingBudget,
    SwitchingSignal,
    brute_force_suffix_scan,
    generate_segments,
    suffix_sweep,
)
from omaslab.transition import ImpulseBounds

from helpers import pure_relabel_event, random_signal_and_budget, suffix_by_intervals


def _signal(starts_modes, tf, with_events=True, t0=None):
    segs = tuple(Segment(start=t, mode=m) for t, m in starts_modes)
    events = tuple(
        pure_relabel_event(k, segs[k - 1].mode, segs[k].mode, n=2, p=1)
        for k in range(1, len(segs))
    ) if with_events else ()
    t0 = starts_modes[0][0] if t0 is None else t0
    return SwitchingSignal(t0=t0, tf=tf, segments=segs, events=events)


# --------------------------------------------------------------------------
# signal mechanics


def test_mode_at_is_cadlag():
    # the mode active at t is the one whose half-open segment [start, end)
    # holds t; the simulator integrates each mode over exactly that interval
    sig = _signal([(0.0, 1), (2.0, 3)], tf=5.0)
    assert sig.segment_bounds(0) == (0.0, 2.0)
    assert sig.segment_bounds(1) == (2.0, 5.0)
    sweep = suffix_sweep(_signal([(1.999, 1), (2.0, 3)], tf=5.0), {1}, 0.0)
    assert sweep.t_stable[0] == pytest.approx(0.001, abs=1e-12)
    assert sweep.t_unstable[0] == pytest.approx(3.0, abs=1e-12)
    # right-continuous at the switch: from t = 2.0 on only mode 3 is active
    sweep = suffix_sweep(sig, {3}, 0.0)
    assert (sweep.t_stable[1], sweep.t_unstable[1]) == (3.0, 0.0)
    # the first segment may start up to _TIME_EPS after t0
    late = _signal([(0.5e-12, 2), (1.0, 1)], tf=3.0, t0=0.0)
    sweep = suffix_sweep(late, {2}, 0.0)
    assert sweep.t_stable[0] == pytest.approx(1.0, abs=1e-11)
    assert sweep.t_unstable[0] == pytest.approx(2.0, abs=1e-12)
    assert sweep.start[0] == 0.0


def test_switch_times_and_bounds():
    sig = _signal([(0.0, 1), (2.0, 3), (4.0, 1)], tf=9.0)
    assert sig.switch_times == (2.0, 4.0)
    assert sig.n_switches == 2
    assert sig.segment_bounds(0) == (0.0, 2.0)
    assert sig.segment_bounds(2) == (4.0, 9.0)


def test_suffix_start_indexing():
    sig = _signal([(0.0, 1), (2.0, 3)], tf=5.0)
    np.testing.assert_array_equal(suffix_sweep(sig, {1}, 0.0).start, [0.0, 2.0])
    # the first segment may start up to _TIME_EPS after t0; suffix 0 starts at t0
    late = _signal([(0.5e-12, 2), (1.0, 1)], tf=3.0, t0=0.0)
    np.testing.assert_array_equal(suffix_sweep(late, {2}, 0.0).start, [0.0, 1.0])


def test_activation_times_hand_case():
    sig = _signal([(0.0, 1), (2.0, 3), (5.0, 1)], tf=8.0)
    sweep = suffix_sweep(sig, {1}, 0.0)
    np.testing.assert_allclose(sweep.t_stable, [5.0, 3.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(sweep.t_unstable, [3.0, 3.0, 0.0], atol=1e-12)


def test_count_switches_strictly_after():
    # with no chatter allowance adt = (tf - t_j) / N_j, N_j the switches after t_j
    sig = _signal([(0.0, 1), (2.0, 3), (5.0, 1)], tf=8.0)
    adt = suffix_sweep(sig, {1}, 0.0).adt
    assert adt[0] == 8.0 / 2
    assert adt[1] == 6.0 / 1  # the instant t_1 itself is excluded
    assert adt[2] == math.inf


def test_piecewise_adt_hand_case():
    # 4 switches over 12 seconds
    sig = _signal([(0.0, 1), (2.0, 3), (4.0, 1), (6.0, 3), (8.0, 1)], tf=12.0)
    assert suffix_sweep(sig, {1}, 0.0).adt[0] == pytest.approx(3.0, abs=1e-12)
    assert suffix_sweep(sig, {1}, 1.0).adt[0] == pytest.approx(4.0, abs=1e-12)
    assert suffix_sweep(sig, {1}, 4.0).adt[0] == math.inf  # chatter allowance covers all
    assert suffix_sweep(sig, {1}, 0.0).adt[2] == pytest.approx(4.0, abs=1e-12)  # (12-4)/2


# --------------------------------------------------------------------------
# constructor validation


def test_signal_rejects_consecutive_same_mode():
    with pytest.raises(ConfigError, match="different mode"):
        _signal([(0.0, 1), (2.0, 1)], tf=5.0)


def test_signal_rejects_event_count_mismatch():
    segs = (Segment(0.0, 1), Segment(2.0, 3))
    with pytest.raises(ConfigError, match="boundaries"):
        SwitchingSignal(t0=0.0, tf=5.0, segments=segs, events=())


def test_signal_rejects_event_mode_mismatch():
    segs = (Segment(0.0, 1), Segment(2.0, 3))
    bad = (pure_relabel_event(1, 1, 2, n=2, p=1),)  # boundary switches 1 -> 3
    with pytest.raises(ConfigError, match="maps modes"):
        SwitchingSignal(t0=0.0, tf=5.0, segments=segs, events=bad)


def test_signal_rejects_bad_time_layout():
    with pytest.raises(ConfigError, match="strictly increasing"):
        _signal([(0.0, 1), (3.0, 2), (2.0, 3)], tf=5.0)
    with pytest.raises(ConfigError, match="at or after tf"):
        _signal([(0.0, 1), (5.0, 2)], tf=5.0)
    with pytest.raises(ConfigError, match="start at t0"):
        SwitchingSignal(t0=0.0, tf=5.0, segments=(Segment(1.0, 1),), events=())
    with pytest.raises(ConfigError, match="at least one segment"):
        SwitchingSignal(t0=0.0, tf=5.0, segments=(), events=())
    with pytest.raises(ConfigError, match="empty horizon"):
        SwitchingSignal(t0=5.0, tf=5.0, segments=(Segment(5.0, 1),), events=())


# --------------------------------------------------------------------------
# budget floors


def test_budget_hand_floors():
    b = SwitchingBudget(
        chatter_bound=0.0,
        gamma_common=-1.0,
        gamma_stable_max=-2.0,
        gamma_unstable_max=4.0,
        jump_gain=math.e,
    )
    # (4 - (-1)) / (-1 - (-2)) = 5
    assert b.ratio_floor == pytest.approx(5.0, abs=1e-12)
    assert b.dwell_floor == pytest.approx(1.0, rel=1e-12)
    b2 = SwitchingBudget(0.0, -0.5, -2.0, 4.0, jump_gain=math.e)
    assert b2.dwell_floor == pytest.approx(2.0, rel=1e-12)


def test_budget_no_unstable_ratio_vacuous():
    b = SwitchingBudget(0.0, -1.0, -2.0, None, jump_gain=1.0)
    assert b.ratio_floor == 0.0
    assert b.dwell_floor == 0.0


def test_budget_validation():
    with pytest.raises(ConfigError, match="chatter"):
        SwitchingBudget(-1.0, -1.0, -2.0, 4.0, 1.5)
    with pytest.raises(ConfigError, match="gamma_common"):
        SwitchingBudget(0.0, -3.0, -2.0, 4.0, 1.5)  # below gamma_stable_max
    with pytest.raises(ConfigError, match="gamma_common"):
        SwitchingBudget(0.0, 0.0, -2.0, 4.0, 1.5)  # not negative
    with pytest.raises(ConfigError, match="gamma_unstable_max"):
        SwitchingBudget(0.0, -1.0, -2.0, -0.5, 1.5)
    with pytest.raises(ConfigError, match="jump_gain"):
        SwitchingBudget(0.0, -1.0, -2.0, 4.0, 0.9)


# --------------------------------------------------------------------------
# suffix validation: hand-worked report


def test_validate_hand_worked_report():
    sig = _signal([(0.0, 1), (4.0, 3), (4.5, 1)], tf=9.0)
    budget = SwitchingBudget(
        chatter_bound=0.0,
        gamma_common=-1.0,
        gamma_stable_max=-2.0,
        gamma_unstable_max=4.0,
        jump_gain=math.e,
    )
    rep = validate_switching(sig, budget, {1})
    assert rep.ok and rep.ratio_ok and rep.adt_ok
    sweep = suffix_sweep(sig, {1}, budget.chatter_bound)
    # j=0: T_s = 8.5, T_u = 0.5, lhs = 8.5*(-1) + 0.5*5 = -6, two switches after t=0
    # j=1 (t=4): T_s = 4.5, T_u = 0.5, lhs = -4.5 + 2.5 = -2, one switch after t=4
    # j=2 (t=4.5): purely stable suffix (lhs = -4.5), no further switches
    np.testing.assert_allclose(sweep.t_stable, [8.5, 4.5, 4.5], atol=1e-12)
    np.testing.assert_allclose(sweep.t_unstable, [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(sweep.adt, [4.5, 5.0, math.inf], atol=1e-12)
    assert rep.worst_ratio_j == 1
    assert rep.ratio_slack_min == pytest.approx(2.0, abs=1e-12)
    assert rep.worst_adt_j == 0
    assert rep.adt_slack_min == pytest.approx(4.5 - budget.dwell_floor, rel=1e-12)


def test_validate_first_only_checks_prefix_suffix():
    # lhs = 4*(-1) + 1*5 = 1 on [0, 5] and 0 + 1*5 = 5 on the unstable tail [4, 5]
    sig = _signal([(0.0, 1), (4.0, 3)], tf=5.0)
    budget = SwitchingBudget(0.0, -1.0, -2.0, 4.0, 1.5)
    every = validate_switching(sig, budget, {1})
    assert every.worst_ratio_j == 1
    assert every.ratio_slack_min == pytest.approx(-5.0, abs=1e-12)
    rep = validate_switching(sig, budget, {1}, suffixes="first")
    assert rep.worst_ratio_j == rep.worst_adt_j == 0
    assert rep.ratio_slack_min == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ConfigError, match="suffixes"):
        validate_switching(sig, budget, {1}, suffixes="last")


def test_validate_flags_ratio_violation():
    # long unstable tail: every suffix is ratio-infeasible
    sig = _signal([(0.0, 1), (1.0, 3)], tf=30.0)
    budget = SwitchingBudget(0.0, -1.0, -2.0, 4.0, 1.5)
    rep = validate_switching(sig, budget, {1})
    assert not rep.ok and not rep.ratio_ok
    assert brute_force_suffix_scan(sig, budget, {1}) is False


def test_validate_flags_dwell_violation():
    # rapid alternation with no chatter allowance; g_u None isolates the
    # dwell condition (the ratio condition is vacuous without unstable rates)
    starts = [(round(0.1 * k, 10), 1 if k % 2 == 0 else 3) for k in range(10)]
    sig = _signal(starts, tf=1.0)
    budget = SwitchingBudget(0.0, -1.0, -2.0, None, jump_gain=1.5)
    rep = validate_switching(sig, budget, {1})
    assert rep.ratio_ok
    assert not rep.adt_ok and not rep.ok
    assert brute_force_suffix_scan(sig, budget, {1}) is False


def test_validate_no_switch_signal():
    sig = _signal([(0.0, 1)], tf=10.0)
    budget = SwitchingBudget(0.0, -1.0, -2.0, 4.0, 1.5)
    rep = validate_switching(sig, budget, {1})
    assert rep.ok
    assert rep.worst_adt_j == 0 and rep.adt_slack_min == math.inf


def test_validate_agrees_with_brute_force_on_random_signals():
    rng = np.random.default_rng(7)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        sig, budget, stable = random_signal_and_budget(rng)
        fast = validate_switching(sig, budget, stable).ok
        slow = brute_force_suffix_scan(sig, budget, stable)
        assert fast == slow
        verdicts[fast] += 1
    # the sample must actually exercise both verdicts
    assert verdicts[True] > 0 and verdicts[False] > 0


# --------------------------------------------------------------------------
# signal generation


def _gen(spec):
    segs = generate_segments(spec)
    events = tuple(pure_relabel_event(k, segs[k - 1].mode, segs[k].mode, n=2, p=1)
                   for k in range(1, len(segs)))
    return SwitchingSignal(t0=spec.t0, tf=spec.t0 + spec.horizon, segments=segs, events=events)


def test_generated_signal_is_compliant():
    spec = SignalGenSpec(
        horizon=100.0,
        stable_modes=(1,),
        unstable_modes=(2,),
        ratio_floor=5.0,
        dwell_floor=2.0,
        seed=3,
    )
    sig = _gen(spec)
    budget = SwitchingBudget(0.0, -1.0, -2.0, 4.0, jump_gain=math.exp(2.0))
    assert budget.ratio_floor == pytest.approx(5.0, abs=1e-12)
    assert budget.dwell_floor == pytest.approx(2.0, rel=1e-12)
    rep = validate_switching(sig, budget, {1})
    assert rep.ok
    assert sig.n_switches >= 2
    assert sig.t0 == 0.0 and sig.tf == 100.0
    # prefix windows: every truncation [t0, t] must satisfy both conditions
    # (the j=0 suffix of the truncated signal; this is what makes the energy
    # envelope pointwise, and is weaker than full suffix validation)
    breaks = [sig.t0, *sig.switch_times, sig.tf]
    cuts = list(sig.switch_times) + [
        0.5 * (a + b) for a, b in zip(breaks, breaks[1:])
    ]
    for t_cut in cuts:
        prefix_segments = tuple(s for s in sig.segments if s.start < t_cut - 1e-12)
        prefix_events = sig.events[: len(prefix_segments) - 1]
        prefix = SwitchingSignal(
            t0=sig.t0, tf=t_cut, segments=prefix_segments, events=prefix_events
        )
        assert validate_switching(prefix, budget, {1}, suffixes="first").ok


def test_generated_signal_matches_demo_budget(practical_bundle, demo_matrices):
    budget = practical_bundle.budget
    spec = SignalGenSpec(
        horizon=30.0,
        stable_modes=(1,),
        unstable_modes=(2, 3, 4),
        ratio_floor=budget.ratio_floor,
        dwell_floor=budget.dwell_floor,
        seed=5,
    )
    sig = _gen(spec)
    rep = validate_switching(sig, budget, practical_bundle.stable_set)
    assert rep.ok
    assert rep.ratio_slack_min >= 0.0 and rep.adt_slack_min >= 0.0


def test_generation_is_deterministic():
    def snapshot(seed):
        spec = SignalGenSpec(
            horizon=60.0,
            stable_modes=(1,),
            unstable_modes=(2, 3, 4),
            ratio_floor=5.0,
            dwell_floor=2.0,
            seed=seed,
        )
        sig = _gen(spec)
        return tuple((s.start, s.mode) for s in sig.segments)

    assert snapshot(0) == snapshot(0)
    assert any(snapshot(s) != snapshot(0) for s in range(1, 11))


def test_generation_no_unstable_modes_single_segment():
    spec = SignalGenSpec(
        horizon=10.0,
        stable_modes=(1,),
        unstable_modes=(),
        ratio_floor=0.0,
        dwell_floor=0.0,
        seed=0,
    )
    sig = _gen(spec)
    assert sig.n_switches == 0
    assert sig.segments[0].mode == 1


def test_generation_infeasible_horizon():
    spec = SignalGenSpec(
        horizon=1.0,
        stable_modes=(1,),
        unstable_modes=(2,),
        ratio_floor=5.0,
        dwell_floor=2.0,
        seed=0,
    )
    with pytest.raises(ConfigError, match="too short"):
        _gen(spec)


def test_generation_needs_a_seed():
    # a seedless spec stands for the master seed, which only a run supplies
    spec = SignalGenSpec(
        horizon=10.0, stable_modes=(1,), unstable_modes=(2,),
        ratio_floor=1.0, dwell_floor=1.0,
    )
    with pytest.raises(ConfigError, match="no seed"):
        _gen(spec)


def test_gen_spec_validation():
    kw = dict(
        horizon=10.0, stable_modes=(1,), unstable_modes=(2,),
        ratio_floor=1.0, dwell_floor=1.0,
    )
    with pytest.raises(ConfigError, match="horizon"):
        SignalGenSpec(**{**kw, "horizon": 0.0})
    with pytest.raises(ConfigError, match="stable mode"):
        SignalGenSpec(**{**kw, "stable_modes": ()})
    with pytest.raises(ConfigError, match=">= 0"):
        SignalGenSpec(**{**kw, "ratio_floor": -1.0})
    with pytest.raises(ConfigError, match="margin"):
        SignalGenSpec(**{**kw, "margin": 0.0})


# --------------------------------------------------------------------------
# the one-pass suffix sweep against the per-suffix recount


def _after(t: float, gap: float) -> float:
    """t + gap, raised to the first float that clears t by more than _TIME_EPS
    (the constructor's test for consecutive starts)."""
    u = max(t + gap, t + _TIME_EPS)
    while not u - t > _TIME_EPS:
        u = float(np.nextafter(u, math.inf))
    return u


# gaps between instants: ordinary ones, and ones a few _TIME_EPS wide where
# the strict count t_k > t_j + _TIME_EPS differs from n_switches - j
_gaps = st.one_of(
    st.floats(1e-3, 5.0),
    st.floats(0.0, 4.0).map(lambda f: f * _TIME_EPS),
)


@st.composite
def signals_and_budgets(draw):
    t0 = draw(st.one_of(st.sampled_from([0.0, 1.0, -2.5]), st.floats(-40.0, 40.0)))
    n = draw(st.integers(0, 30))
    gaps = draw(st.lists(_gaps, min_size=n + 1, max_size=n + 1))
    raw_modes = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
    modes = raw_modes[:1]
    for m in raw_modes[1:]:
        modes.append(m if m != modes[-1] else m % 4 + 1)
    # the first start may sit within _TIME_EPS of t0, on either side
    starts = [t0 + draw(st.sampled_from([0.0, 0.5, -0.5])) * _TIME_EPS]
    for gap in gaps[:-1]:
        starts.append(_after(starts[-1], gap))
    tf = max(starts[-1] + gaps[-1], starts[-1] + _TIME_EPS)
    while not starts[-1] < tf - _TIME_EPS:
        tf = float(np.nextafter(tf, math.inf))
    sig = _signal(list(zip(starts, modes)), tf=tf, t0=t0)
    stable = draw(st.sampled_from([{1}, {1, 2}]))
    g_s = -draw(st.floats(0.5, 3.0))
    g = g_s * draw(st.floats(0.05, 0.9))  # strictly inside (g_s, 0)
    g_u = draw(st.one_of(st.none(), st.floats(0.0, 5.0)))
    budget = SwitchingBudget(
        chatter_bound=draw(st.sampled_from([0.0, 1.0, 2.5])),
        gamma_common=g,
        gamma_stable_max=g_s,
        gamma_unstable_max=g_u,
        jump_gain=draw(st.floats(1.0, 5.0)),
    )
    return sig, budget, stable


@settings(max_examples=300, deadline=None)
@given(case=signals_and_budgets(), first_only=st.booleans())
def test_validate_matches_per_suffix_definitions(case, first_only):
    sig, budget, stable = case
    K = budget.chatter_bound
    rep = validate_switching(sig, budget, stable, suffixes="first" if first_only else "all")
    if not first_only:
        assert rep.ok == brute_force_suffix_scan(sig, budget, stable)
    sweep = suffix_sweep(sig, stable, K)
    assert len(sweep.start) == sig.n_switches + 1
    tol = 1e-12 * (sig.tf - sig.t0)
    for j in range(sig.n_switches + 1):
        t_j, t_s, t_u, adt = suffix_by_intervals(sig, stable, K, j)
        assert sweep.start[j] == t_j
        assert sweep.adt[j].hex() == adt.hex()
        assert abs(sweep.t_stable[j] - t_s) <= tol
        assert abs(sweep.t_unstable[j] - t_u) <= tol
    n = 1 if first_only else sig.n_switches + 1
    g, g_s, g_u = budget.gamma_common, budget.gamma_stable_max, budget.gamma_unstable_max
    lhs = sweep.t_stable * (g_s - g)
    if g_u is not None:
        lhs = lhs + sweep.t_unstable * (g_u - g)
    ratio_slack, adt_slack = -lhs[:n], sweep.adt[:n] - budget.dwell_floor
    assert rep.worst_ratio_j == np.argmin(ratio_slack)
    assert rep.worst_adt_j == np.argmin(adt_slack)
    assert rep.ratio_slack_min == ratio_slack.min()
    assert rep.adt_slack_min == adt_slack.min()


@settings(max_examples=150, deadline=None)
@given(case=signals_and_budgets())
def test_bundle_contraction_matches_per_suffix_adt(case):
    sig, budget, stable = case
    g, mu, K = budget.gamma_common, budget.jump_gain, budget.chatter_bound

    def cert(mid, gamma):
        return ModeCertificate(mode_id=mid, gamma=gamma, P=np.eye(1), alpha=gamma,
                               stable=gamma < 0.0, residual=-1.0,
                               lambda_min=1.0, lambda_max=1.0)

    rates = {m: budget.gamma_stable_max * (1.0 + 0.1 * m) for m in stable}
    if budget.gamma_unstable_max is not None:
        rates.update({3: budget.gamma_unstable_max, 4: 0.5 * budget.gamma_unstable_max})
    bundle = assemble_bundle(
        {m: cert(m, r) for m, r in rates.items()},
        ImpulseBounds(impulse_norm_max=0.1, err_jump_norm_max=mu),
        h_bound=0.2, signal=sig, chatter_bound=K, gamma_common=g,
    )
    assert bundle.jump_gain == mu
    ln_mu = math.log(mu)
    expected = -math.inf
    for j in range(sig.n_switches + 1):
        adt = suffix_by_intervals(sig, stable, K, j)[3]
        if not math.isinf(adt):
            expected = max(expected, adt * g + ln_mu)
    assert bundle.contraction_worst.hex() == expected.hex()


def test_suffix_sweep_counts_switches_as_the_oracle_does():
    # 1 + 4504 ulp clears 1.0 by 1.00009e-12 > _TIME_EPS, so the signal is
    # legal; yet 1.0 + _TIME_EPS rounds to that same float, so the switch at
    # 1 + 4504 ulp does not count as strictly after t_1 = 1.0
    t2 = 1.0 + 4504 * 2.0**-52
    sig = _signal([(0.0, 1), (1.0, 3), (t2, 1)], tf=5.0)
    assert t2 - 1.0 > _TIME_EPS and not t2 > 1.0 + _TIME_EPS
    sweep = suffix_sweep(sig, {1}, 0.0)
    oracle = [suffix_by_intervals(sig, {1}, 0.0, j) for j in range(3)]
    assert sweep.adt[1] == oracle[1][3] == math.inf
    assert list(sweep.adt) == [o[3] for o in oracle]
    np.testing.assert_array_equal(sweep.start, [0.0, 1.0, t2])
    np.testing.assert_allclose(sweep.t_stable, [1.0 + 5.0 - t2, 5.0 - t2, 5.0 - t2],
                               rtol=1e-15)
    np.testing.assert_allclose(sweep.t_unstable, [t2 - 1.0, t2 - 1.0, 0.0], rtol=1e-12)
    budget = SwitchingBudget(0.0, -1.0, -2.0, 4.0, jump_gain=1.5)
    rep = validate_switching(sig, budget, {1})
    assert rep.ok == brute_force_suffix_scan(sig, budget, {1})

