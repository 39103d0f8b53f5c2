"""Per-mode quadratic certificates, aggregate constants, ultimate bound."""

import math

import numpy as np
import pytest

from omaslab import apply_error_jump, build_transition_map
from omaslab.certificate import (
    ModeCertificate,
    assemble_bundle,
    calibrate_switching_floors,
    default_gamma_margin,
    gamma_aggregates,
    solve_mode_certificate,
)
from omaslab.demo import DEMO_DWELL_FLOOR, DEMO_RATIO_FLOOR
from omaslab.errors import AssumptionViolation, CertificateError, ConfigError
from omaslab.mode_dynamics import ModeMatrix
from omaslab.switching import Segment, SwitchingSignal
from omaslab.transition import ImpulseBounds

from helpers import pure_relabel_event, ultimate_bound_reference


def scalar_mode(a: float, mode_id: int | None = None) -> ModeMatrix:
    return ModeMatrix(
        mode_id=mode_id,
        n_agents=1,
        p=1,
        A=np.zeros((1, 1)),
        A_err=np.array([[a]]),
        alpha=a,
        stable=a < 0,
    )


def test_scalar_certificate_is_identity():
    cert = solve_mode_certificate(scalar_mode(-1.0), gamma_margin=0.5)
    assert cert.gamma == pytest.approx(-0.5, abs=1e-14)
    np.testing.assert_allclose(cert.P, [[1.0]], rtol=1e-12)
    assert cert.lambda_min == pytest.approx(1.0, rel=1e-12)
    assert cert.lambda_max == pytest.approx(1.0, rel=1e-12)
    assert cert.stable


def test_diagonal_certificate_hand_solution():
    # A = diag(-2, -3), margin 1 -> gamma = -1, shifted = diag(-1, -2);
    # raw P = diag(1/2, 1/4), normalized to lambda_min = 1 -> diag(2, 1)
    mm = ModeMatrix(
        mode_id=None, n_agents=2, p=1,
        A=np.zeros((1, 1)), A_err=np.diag([-2.0, -3.0]),
        alpha=-2.0, stable=True,
    )
    cert = solve_mode_certificate(mm, gamma_margin=1.0)
    assert cert.gamma == pytest.approx(-1.0, abs=1e-14)
    np.testing.assert_allclose(cert.P, np.diag([2.0, 1.0]), atol=1e-10)
    assert cert.lambda_min == pytest.approx(1.0, rel=1e-12)
    assert cert.lambda_max == pytest.approx(2.0, rel=1e-10)


def test_unstable_mode_gamma_above_abscissa(demo_matrices):
    cert = solve_mode_certificate(demo_matrices[3], gamma_margin=0.1)
    assert not cert.stable
    assert cert.gamma == pytest.approx(5.925 + 0.1, abs=1e-8)


def test_stable_clamp_when_margin_overshoots():
    cert = solve_mode_certificate(scalar_mode(-0.1), gamma_margin=1.0)
    assert cert.gamma == pytest.approx(-0.09, abs=1e-14)
    assert cert.stable


def test_margin_must_be_positive():
    with pytest.raises(CertificateError, match="margin"):
        solve_mode_certificate(scalar_mode(-1.0), gamma_margin=0.0)
    with pytest.raises(CertificateError, match="margin"):
        solve_mode_certificate(scalar_mode(-1.0), gamma_margin=-0.5)


def test_default_margin_formula():
    assert default_gamma_margin(0.0) == pytest.approx(0.05, abs=1e-15)
    assert default_gamma_margin(-3.0) == pytest.approx(0.2, abs=1e-15)
    assert default_gamma_margin(5.0) == pytest.approx(0.3, abs=1e-15)


def test_residuals_small_relative_to_certificate(practical_bundle, demo_matrices):
    # recompute the defect with raw numpy: must stay below 1e-8 * lambda_max
    for mid, cert in practical_bundle.certificates.items():
        A = demo_matrices[mid].A_err
        G = A.T @ cert.P + cert.P @ A - 2.0 * cert.gamma * cert.P
        lam = float(np.linalg.eigvalsh(0.5 * (G + G.T)).max())
        assert lam <= 1e-8 * cert.lambda_max


def test_flow_decay_quadratic_form(practical_bundle, demo_matrices, rng):
    for mid, cert in practical_bundle.certificates.items():
        A = demo_matrices[mid].A_err
        Q = A.T @ cert.P + cert.P @ A
        for _ in range(100):
            e = rng.standard_normal(A.shape[0])
            lhs = float(e @ Q @ e)
            rhs = 2.0 * cert.gamma * float(e @ cert.P @ e)
            assert lhs <= rhs + 1e-9 * (1.0 + float(e @ e))


def test_energy_sandwich_global_constants(practical_bundle, rng):
    b = practical_bundle
    for cert in b.certificates.values():
        n = cert.P.shape[0]
        for _ in range(100):
            e = rng.standard_normal(n) * rng.uniform(0.01, 10.0)
            v = math.sqrt(float(e @ cert.P @ e))
            norm = float(np.linalg.norm(e))
            assert math.sqrt(b.p_under) * norm <= v + 1e-9
            assert v <= math.sqrt(b.p_over) * norm + 1e-9


def test_jump_inequality_on_demo_events(practical_bundle, practical_signal, rng):
    b = practical_bundle
    p = 2
    for ev in practical_signal.events:
        tm = build_transition_map(ev, p)
        P_before = b.certificates[ev.mode_before].P
        P_after = b.certificates[ev.mode_after].P
        for _ in range(100):
            e = rng.standard_normal(p * ev.n_before) * rng.uniform(0.01, 5.0)
            post = apply_error_jump(tm, e)
            v_minus = math.sqrt(float(e @ P_before @ e))
            v_plus = math.sqrt(float(post @ P_after @ post))
            assert v_plus <= b.jump_gain * v_minus + b.jump_offset + 1e-9


# --------------------------------------------------------------------------
# aggregates


def _cert(gamma: float, stable: bool) -> ModeCertificate:
    return ModeCertificate(
        mode_id=None, gamma=gamma, P=np.eye(1), alpha=gamma,
        stable=stable, residual=-1.0, lambda_min=1.0, lambda_max=1.0,
    )


def test_gamma_aggregates_hand():
    agg = gamma_aggregates({1: _cert(-2.8, True), 2: _cert(-3.5, True), 3: _cert(2.0, False)})
    assert agg.gamma_stable_max == pytest.approx(-2.8, abs=1e-15)
    assert agg.gamma_unstable_max == pytest.approx(2.0, abs=1e-15)
    assert agg.gamma_common_default == pytest.approx(-1.4, abs=1e-15)


def test_gamma_aggregates_no_unstable():
    agg = gamma_aggregates({1: _cert(-2.0, True)})
    assert agg.gamma_unstable_max is None


def test_gamma_aggregates_requires_stable_mode():
    with pytest.raises(AssumptionViolation, match="no stable mode"):
        gamma_aggregates({1: _cert(1.0, False)})
    with pytest.raises(CertificateError, match="nonnegative"):
        gamma_aggregates({1: _cert(0.1, True)})


# --------------------------------------------------------------------------
# bundle assembly


def _two_scalar_certs():
    c1 = solve_mode_certificate(scalar_mode(-2.0, 1), gamma_margin=1.0)
    c2 = solve_mode_certificate(scalar_mode(-3.0, 2), gamma_margin=1.0)
    return {1: c1, 2: c2}


def _alternating_signal(tf=15.0, starts=(0.0, 5.0, 10.0)):
    modes = [1 if i % 2 == 0 else 2 for i in range(len(starts))]
    segs = tuple(Segment(start=t, mode=m) for t, m in zip(starts, modes))
    events = tuple(
        pure_relabel_event(k, segs[k - 1].mode, segs[k].mode, n=1)
        for k in range(1, len(segs))
    )
    return SwitchingSignal(t0=starts[0], tf=tf, segments=segs, events=events)


def test_unit_jump_gain_bound_matches_hand_formula():
    # both scalar modes normalize to P = 1, pure relabels keep mu = 1 exactly;
    # the bound then reduces to plain (not geometric) tail sums
    certs = _two_scalar_certs()
    assert all(c.lambda_min == pytest.approx(1.0, rel=1e-12) for c in certs.values())
    sig = _alternating_signal()
    bounds = ImpulseBounds(impulse_norm_max=0.2, err_jump_norm_max=1.0)
    bundle = assemble_bundle(certs, bounds, h_bound=0.3, signal=sig, gamma_common=-0.5)
    assert bundle.jump_gain == pytest.approx(1.0, rel=1e-12)
    assert bundle.flow_offset == pytest.approx(0.3, rel=1e-12)
    assert bundle.settled_flow == pytest.approx(0.6, rel=1e-12)
    assert bundle.jump_offset == pytest.approx(0.2, rel=1e-12)
    # suffix contractions: adt 7.5 and 10 at rate -0.5, worst is -3.75
    assert bundle.contraction_worst == pytest.approx(-3.75, rel=1e-12)
    denom = 1.0 - math.exp(-3.75)
    by_hand = 0.6 * (1.0 + 1.0 / denom) + 0.2 * (1.0 / denom)
    assert bundle.ultimate_bound == pytest.approx(by_hand, rel=1e-12)
    ref = ultimate_bound_reference(
        p_under=bundle.p_under,
        settled_flow=bundle.settled_flow,
        jump_offset=bundle.jump_offset,
        mu=bundle.jump_gain,
        chatter=bundle.chatter_bound,
        contraction=bundle.contraction_worst,
    )
    assert bundle.ultimate_bound == pytest.approx(ref, rel=1e-12)


def test_bound_matches_reference_on_demo_bundle(practical_bundle):
    b = practical_bundle
    ref = ultimate_bound_reference(
        p_under=b.p_under,
        settled_flow=b.settled_flow,
        jump_offset=b.jump_offset,
        mu=b.jump_gain,
        chatter=b.chatter_bound,
        contraction=b.contraction_worst,
    )
    assert b.ultimate_bound == pytest.approx(ref, rel=1e-12)
    assert not b.unbounded and math.isfinite(b.ultimate_bound)


def test_asymptotic_bound_is_exactly_zero(asymptotic_bundle):
    assert asymptotic_bundle.ultimate_bound == 0.0
    assert not asymptotic_bundle.unbounded
    assert asymptotic_bundle.flow_offset == 0.0
    assert asymptotic_bundle.jump_offset == 0.0


def test_bound_monotone_in_drives():
    certs = _two_scalar_certs()
    sig = _alternating_signal()

    def eps(h, phi):
        bounds = ImpulseBounds(impulse_norm_max=phi, err_jump_norm_max=1.0)
        return assemble_bundle(
            certs, bounds, h_bound=h, signal=sig, gamma_common=-0.5
        ).ultimate_bound

    assert eps(0.0, 0.1) < eps(0.1, 0.1) < eps(0.2, 0.1)
    assert eps(0.2, 0.0) < eps(0.2, 0.1) < eps(0.2, 0.5)
    assert eps(0.0, 0.0) == 0.0


def test_unbounded_flagged_not_raised():
    certs = _two_scalar_certs()
    sig = _alternating_signal(tf=0.3, starts=(0.0, 0.1, 0.2))
    bounds = ImpulseBounds(impulse_norm_max=0.0, err_jump_norm_max=3.0)
    bundle = assemble_bundle(certs, bounds, h_bound=0.1, signal=sig, gamma_common=-0.5)
    # adt 0.15 at rate -0.5 cannot pay for jump gain 3: ln 3 - 0.075 > 0
    assert bundle.unbounded
    assert bundle.ultimate_bound == math.inf
    assert bundle.contraction_worst > 0.0


def test_gamma_common_override_validation():
    certs = _two_scalar_certs()  # gamma_stable_max = -1
    sig = _alternating_signal()
    bounds = ImpulseBounds(0.0, 1.0)
    with pytest.raises(ConfigError, match="admissible"):
        assemble_bundle(certs, bounds, 0.0, sig, gamma_common=-10.0)
    with pytest.raises(ConfigError, match="admissible"):
        assemble_bundle(certs, bounds, 0.0, sig, gamma_common=0.5)
    with pytest.raises(ConfigError, match="perturbation bound"):
        assemble_bundle(certs, bounds, -0.1, sig)
    with pytest.raises(ConfigError, match="chatter"):
        assemble_bundle(certs, bounds, 0.0, sig, chatter_bound=-1.0)


def test_default_gamma_common_is_half_worst_stable():
    certs = _two_scalar_certs()
    sig = _alternating_signal()
    bundle = assemble_bundle(certs, ImpulseBounds(0.0, 1.0), 0.0, sig)
    assert bundle.gamma_common == pytest.approx(-0.5, rel=1e-12)


# --------------------------------------------------------------------------
# demo operating point and calibration


def test_demo_budget_ratio_floor_hand_value(practical_bundle):
    # gamma_s = -2.925 + 1, gamma_u = 5.925 + 1, g = -1.3:
    # (6.925 + 1.3) / (-1.3 + 1.925) = 8.225 / 0.625 = 13.16
    assert practical_bundle.budget.ratio_floor == pytest.approx(13.16, rel=1e-7)
    expected_dwell = math.log(practical_bundle.jump_gain) / 1.3
    assert practical_bundle.budget.dwell_floor == pytest.approx(expected_dwell, rel=1e-12)


def test_demo_floors_near_reference_targets(practical_bundle):
    budget = practical_bundle.budget
    assert abs(budget.ratio_floor / DEMO_RATIO_FLOOR - 1.0) <= 0.15
    assert abs(budget.dwell_floor / DEMO_DWELL_FLOOR - 1.0) <= 0.15


def test_calibration_reaches_reference_targets(demo_matrices, practical_bundle):
    result = calibrate_switching_floors(
        demo_matrices,
        err_jump_norm_max=practical_bundle.err_jump_norm_max,
        target_ratio=DEMO_RATIO_FLOOR,
        target_dwell=DEMO_DWELL_FLOOR,
    )
    assert result.max_rel_deviation <= 0.15
    assert abs(result.ratio_floor / DEMO_RATIO_FLOOR - 1.0) <= 0.15
    assert abs(result.dwell_floor / DEMO_DWELL_FLOOR - 1.0) <= 0.15
