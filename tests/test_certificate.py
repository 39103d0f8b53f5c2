"""Per-mode quadratic certificates, aggregate constants, ultimate bound."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omaslab import apply_error_jump, certificate
from omaslab.certificate import (
    ModeCertificate,
    _class_rates,
    assemble_bundle,
    calibrate_switching_floors,
    default_gamma_margin,
    solve_mode_certificate,
)
from omaslab.demo import DEMO_DWELL_FLOOR, DEMO_RATIO_FLOOR
from omaslab.errors import AssumptionViolation, CertificateError, ConfigError
from omaslab.mode_dynamics import ModeMatrix
from omaslab.signed_graph import AugmentedMode, Edge, SignedDigraph, grounded_laplacian
from omaslab.switching import Segment, SwitchingSignal
from omaslab.transition import ImpulseBounds

from helpers import dense_shifted_lyapunov, pure_relabel_event, ultimate_bound_reference


def scalar_mode(a: float, mode_id: int | None = None) -> ModeMatrix:
    return ModeMatrix(
        mode_id=mode_id,
        n_agents=1,
        p=1,
        A=np.zeros((1, 1)),
        cZ=np.array([[a]]),
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
        A=np.zeros((1, 1)), cZ=np.diag([-2.0, -3.0]),
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


def signed_grounded_laplacian(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Grounded Laplacian of a signed digraph on n agents.

    "ring": one directed ring, complex eigenvalue pairs from n = 3 on.
    "rings": two equal rings, so every eigenvalue of a ring repeats.
    "chain": a directed path fed by the leader, all weights equal, so the
    Laplacian is one Jordan block. "random": signed edges and leader links
    drawn at random.
    """
    w = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    links = [0.0] * n
    edges: list[tuple[int, int, float]] = []
    if kind == "chain":
        edges = [(i, i + 1, w) for i in range(1, n)]
        links[0] = w
    elif kind in ("ring", "rings"):
        k = n // 2 if kind == "rings" and n > 1 else n
        for start in range(0, n - k + 1, max(k, 1)):
            if k > 1:
                edges += [(start + i, start + i % k + 1, w) for i in range(1, k + 1)]
            links[start] = abs(w)
    else:
        for src in range(1, n + 1):
            for dst in range(1, n + 1):
                if src != dst and rng.random() < 0.3:
                    edges.append((src, dst, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))))
        links = [float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0 for _ in range(n)]
    graph = SignedDigraph(n_agents=n, edges=tuple(Edge(*e) for e in edges))
    return grounded_laplacian(AugmentedMode(graph=graph, leader_links=tuple(links)))


def agent_drift(kind: str, p: int, rng: np.random.Generator) -> np.ndarray:
    """p x p drift: "random" entries, a "rotation" (a complex pair for
    p >= 2) or a "jordan" block (defective for p >= 2)."""
    if kind == "jordan":
        return rng.standard_normal() * np.eye(p) + np.eye(p, k=1)
    A = rng.standard_normal((p, p))
    if kind == "rotation" and p > 1:
        b = rng.uniform(0.5, 3.0)
        A[:2, :2] = [[A[0, 0], b], [-b, A[1, 1]]]
        A[1:, 0] = 0.0
        A[2:, 1] = 0.0
    return A


@settings(max_examples=300, deadline=None)
@given(
    graph=st.sampled_from(["ring", "rings", "chain", "random"]),
    drift=st.sampled_from(["random", "rotation", "jordan"]),
    n=st.integers(1, 12),
    p=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    log_coupling=st.floats(-1.0, 0.5),
    coupling_sign=st.sampled_from([-1.0, 1.0]),
    log_margin=st.floats(-2.0, 0.5),
)
def test_structured_solve_matches_dense_oracle(
    graph, drift, n, p, seed, log_coupling, coupling_sign, log_margin
):
    # the library works from the factors A and cZ; the oracle solves the
    # same shifted equation on the dense A_err
    rng = np.random.default_rng(seed)
    A = agent_drift(drift, p, rng)
    cZ = coupling_sign * 10.0**log_coupling * signed_grounded_laplacian(graph, n, rng)
    alpha = max(float((la + lz).real) for la in np.linalg.eigvals(A) for lz in np.linalg.eigvals(cZ))
    margin = 10.0**log_margin * (1.0 + np.abs(A).max() + np.abs(cZ).max())
    # stable=False keeps gamma = alpha + margin, so S has abscissa -margin
    mm = ModeMatrix(mode_id=7, n_agents=n, p=p, A=A, cZ=cZ, alpha=alpha, stable=False)
    want = dense_shifted_lyapunov(mm.A_err, alpha + margin)
    want = 0.5 * (want + want.T)
    lam = np.linalg.eigvalsh(want)
    # a Hurwitz S whose Jordan chains leave the oracle itself indefinite or
    # near-singular in double precision is a draw neither solve can decide
    assume(lam[0] > 0.0 and lam[-1] / lam[0] < 1e10)
    cond = lam[-1] / lam[0]
    cert = solve_mode_certificate(mm, gamma_margin=margin)  # raises on a failed residual check
    err = np.linalg.norm(cert.P - want / lam[0], 2) / np.linalg.norm(want / lam[0], 2)
    assert err <= 100.0 * np.finfo(float).eps * n * p * cond
    # P normalised by 1 / lam[0] turns the right-hand side -I into -I / lam[0]
    assert abs(cert.residual + 1.0 / lam[0]) <= 1e-8 * cond / lam[0]


def test_structured_solve_divides_by_the_lapack_scale(monkeypatch, demo_matrices):
    # dtrsyl returns Y with R' Y + Y R = -scale I; the solve must undo scale
    want = solve_mode_certificate(demo_matrices[3]).P
    real = certificate.dtrsyl

    def halved(*args, **kwargs):
        y, scale, info = real(*args, **kwargs)
        return 0.5 * y, 0.5 * scale, info

    monkeypatch.setattr(certificate, "dtrsyl", halved)
    np.testing.assert_allclose(solve_mode_certificate(demo_matrices[3]).P, want, rtol=1e-14)


def test_illegal_sylvester_argument_names_the_mode(monkeypatch, demo_matrices):
    monkeypatch.setattr(certificate, "dtrsyl", lambda *a, **k: (a[2], 1.0, -3))
    with pytest.raises(CertificateError, match="mode 3: dtrsyl argument 3 is illegal"):
        solve_mode_certificate(demo_matrices[3])


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
        P_before = b.certificates[ev.mode_before].P
        P_after = b.certificates[ev.mode_after].P
        for _ in range(100):
            e = rng.standard_normal(p * ev.n_before) * rng.uniform(0.01, 5.0)
            post = apply_error_jump(ev, e)
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
    g_s, g_u = _class_rates({1: _cert(-2.8, True), 2: _cert(-3.5, True), 3: _cert(2.0, False)})
    assert g_s == pytest.approx(-2.8, abs=1e-15)
    assert g_u == pytest.approx(2.0, abs=1e-15)


def test_gamma_aggregates_no_unstable():
    assert _class_rates({1: _cert(-2.0, True)})[1] is None


def test_gamma_aggregates_requires_stable_mode():
    with pytest.raises(AssumptionViolation, match="no stable mode"):
        _class_rates({1: _cert(1.0, False)})
    with pytest.raises(CertificateError, match="nonnegative"):
        _class_rates({1: _cert(0.1, True)})


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
        pure_relabel_event(k, segs[k - 1].mode, segs[k].mode, n=1, p=1)
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
