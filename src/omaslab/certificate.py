"""Mode certificates, aggregate constants and the ultimate tracking bound.

Each mode gets a quadratic certificate P > 0 with

    A_err' P + P A_err <= 2 gamma P,

gamma sitting just above the mode's spectral abscissa (negative for stable
modes, positive for unstable ones). Along flows the energy V = sqrt(e'Pe)
then obeys Vdot <= gamma V + flow_offset, and across a switching instant
V+ <= jump_gain V- + jump_offset. Combining both with the suffix conditions
of the switching module yields an explicit ultimate bound on the tracking
error under persistent perturbations, and exponential decay when the
perturbations vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AssumptionViolation, CertificateError, ConfigError
from .mode_dynamics import ModeMatrix
from .switching import (
    SwitchingBudget,
    SwitchingSignal,
    dwell_floor_at,
    ratio_floor_at,
    suffix_sweep,
)
from .transition import ImpulseBounds

_STABLE_CLAMP = 0.1    # fallback: gamma = (1 - clamp) * alpha when alpha + margin >= 0
_RESIDUAL_REL_TOL = 1e-8
_CALIBRATION_MARGINS = np.logspace(-6.0, 0.0, 31)  # coarse grid, refined around its winner
_CALIBRATION_RATES = 2000  # common rates tried per margin


def default_gamma_margin(alpha: float) -> float:
    """Default distance between a mode's abscissa and its certificate rate."""
    return 0.05 * (1.0 + abs(alpha))


@dataclass(frozen=True, eq=False)
class ModeCertificate:
    """Quadratic certificate for one mode."""

    mode_id: int | None
    gamma: float
    P: np.ndarray
    alpha: float
    stable: bool
    residual: float
    lambda_min: float
    lambda_max: float


def solve_mode_certificate(mm: ModeMatrix, gamma_margin: float | None = None) -> ModeCertificate:
    """Pick gamma above the mode's abscissa and solve for P.

    gamma = alpha + margin, clamped to (1 - 0.1) * alpha when that would
    leave a stable mode with a nonnegative rate. P solves the shifted
    Lyapunov equation (A - gamma I)' P + P (A - gamma I) = -I; the shift is
    Hurwitz by construction, so P exists, is unique and positive definite.
    P is then rescaled so lambda_min(P) = 1 (the inequality is homogeneous
    in P, and aligning the floors across modes keeps the cross-mode energy
    ratio, hence the jump gain, as small as this Q choice allows).
    """
    margin = default_gamma_margin(mm.alpha) if gamma_margin is None else float(gamma_margin)
    if margin <= 0.0:
        raise CertificateError(f"gamma margin must be positive, got {margin}")
    gamma = mm.alpha + margin
    if mm.stable and gamma >= 0.0:
        gamma = (1.0 - _STABLE_CLAMP) * mm.alpha
    shifted = mm.A_err - gamma * np.eye(mm.A_err.shape[0])
    try:
        P = scipy.linalg.solve_continuous_lyapunov(shifted.T, -np.eye(shifted.shape[0]))
    except Exception as exc:  # scipy raises LinAlgError or ValueError here
        raise CertificateError(
            f"Lyapunov solve failed for mode {mm.mode_id}: {exc}"
        ) from exc
    P = 0.5 * (P + P.T)
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] <= 0.0:
        raise CertificateError(
            f"certificate for mode {mm.mode_id} is not positive definite "
            f"(lambda_min = {eigs[0]:.3e}); the shifted matrix is likely not Hurwitz"
        )
    # normalize to lambda_min(P) = 1: the inequality is scale-free, and a
    # common per-mode floor minimizes the cross-mode jump gain downstream
    scale = 1.0 / eigs[0]
    P = P * scale
    eigs = eigs * scale
    G = mm.A_err.T @ P + P @ mm.A_err - 2.0 * gamma * P
    residual = float(np.linalg.eigvalsh(0.5 * (G + G.T)).max())
    # exact arithmetic gives -scale; allow solver error relative to the scale
    if residual + scale > _RESIDUAL_REL_TOL * scale * max(eigs[-1], 1.0):
        raise CertificateError(
            f"certificate inequality violated for mode {mm.mode_id}: "
            f"residual {residual:.3e} vs expected {-scale:.3e}"
        )
    return ModeCertificate(
        mode_id=mm.mode_id,
        gamma=float(gamma),
        P=P,
        alpha=mm.alpha,
        stable=mm.stable,
        residual=residual,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
    )


@dataclass(frozen=True)
class GammaAggregates:
    gamma_stable_max: float
    gamma_unstable_max: float | None
    gamma_common_default: float


def gamma_aggregates(certs: dict[int, ModeCertificate]) -> GammaAggregates:
    """Worst certificate rate per class, plus the default common rate.

    The default common rate is the midpoint gamma_stable_max / 2, which is
    always inside the admissible interval (gamma_stable_max, 0).
    """
    stable = [c.gamma for c in certs.values() if c.stable]
    unstable = [c.gamma for c in certs.values() if not c.stable]
    if not stable:
        raise AssumptionViolation("no stable mode: aggregates are undefined")
    g_s = max(stable)
    if g_s >= 0.0:
        raise CertificateError(f"stable class has nonnegative worst rate {g_s}")
    g_u = max(unstable) if unstable else None
    return GammaAggregates(
        gamma_stable_max=float(g_s),
        gamma_unstable_max=None if g_u is None else float(g_u),
        gamma_common_default=float(g_s / 2.0),
    )


def _energy_constants(
    certs: dict[int, ModeCertificate], err_jump_norm_max: float
) -> tuple[float, float, float]:
    """(p_under, p_over, mu) over all modes.

    p_under |e|^2 <= V^2 <= p_over |e|^2 in every mode, so an event whose
    error jump has 2-norm at most err_jump_norm_max grows V by at most the
    jump gain mu, the square root of the sandwich ratio times that norm
    (or times 1, when the norm is smaller).
    """
    p_under = min(c.lambda_min for c in certs.values())
    p_over = max(c.lambda_max for c in certs.values())
    return p_under, p_over, math.sqrt(p_over / p_under) * max(1.0, err_jump_norm_max)


def _geom_sum(mu: float, k: float) -> float:
    """(1 - mu^k) / (1 - mu), continuously extended to k at mu = 1."""
    if k <= 0.0:
        return 0.0
    if abs(mu - 1.0) < 1e-12:
        return float(k)
    return (1.0 - mu**k) / (1.0 - mu)


@dataclass(frozen=True, eq=False)
class CertificateBundle:
    """Everything the validator and the simulator need from certification.

    The chatter bound, the rates and the jump gain live in budget alone;
    the bundle reads them through it.
    """

    certificates: dict[int, ModeCertificate]
    budget: SwitchingBudget
    p_under: float               # min over modes of lambda_min(P)
    p_over: float                # max over modes of lambda_max(P)
    flow_offset: float           # additive drive on Vdot from perturbations
    jump_offset: float           # additive drive on V from event impulses
    settled_flow: float          # flow_offset / (-gamma_common)
    contraction_worst: float     # max over suffixes of adt * gamma + ln jump_gain
    h_bound: float
    impulse_norm_max: float
    err_jump_norm_max: float
    ultimate_bound: float
    unbounded: bool

    chatter_bound = property(lambda self: self.budget.chatter_bound)
    gamma_common = property(lambda self: self.budget.gamma_common)
    gamma_stable_max = property(lambda self: self.budget.gamma_stable_max)
    gamma_unstable_max = property(lambda self: self.budget.gamma_unstable_max)
    jump_gain = property(lambda self: self.budget.jump_gain)  # worst growth across a switch

    @property
    def stable_set(self) -> set[int]:
        return {mid for mid, c in self.certificates.items() if c.stable}


def assemble_bundle(
    certs: dict[int, ModeCertificate],
    bounds: ImpulseBounds,
    h_bound: float,
    signal: SwitchingSignal,
    chatter_bound: float = 0.0,
    gamma_common: float | None = None,
) -> CertificateBundle:
    """Aggregate mode certificates into global constants and the ultimate bound.

    With mu the jump gain and g < 0 the common rate, every constrained suffix
    contributes a log-contraction adt * g + ln(mu); the worst one must be
    negative for the geometric tail to converge, otherwise the bundle is
    flagged unbounded and the bound is +inf. The bound itself is

      sqrt(1/p_under) * ( settled_flow * (geom(mu, K+1) + mu^(K+1) / (1 - e^c))
                        + jump_offset  * (geom(mu, K)   + mu^K     / (1 - e^c)) )

    with K the chatter bound, c the worst contraction and geom the partial
    geometric sum, continuously extended at mu = 1. It is zero exactly when
    both drives vanish (the asymptotic setting), and +inf, without the
    unbounded flag, when mu^(K+1) exceeds the float range. The budget checks
    the chatter bound and the common rate.
    """
    if h_bound < 0.0:
        raise ConfigError(f"perturbation bound must be >= 0, got {h_bound}")
    agg = gamma_aggregates(certs)
    p_under, p_over, mu = _energy_constants(certs, bounds.err_jump_norm_max)
    budget = SwitchingBudget(
        chatter_bound=float(chatter_bound),
        gamma_common=float(agg.gamma_common_default if gamma_common is None else gamma_common),
        gamma_stable_max=agg.gamma_stable_max,
        gamma_unstable_max=agg.gamma_unstable_max,
        jump_gain=float(mu),
    )
    g, mu, k = budget.gamma_common, budget.jump_gain, budget.chatter_bound
    flow_offset = h_bound * p_over / math.sqrt(p_under)
    jump_offset = bounds.impulse_norm_max * math.sqrt(p_over)
    settled_flow = flow_offset / (-g)

    ln_mu = math.log(mu)
    stable_set = {mid for mid, c in certs.items() if c.stable}
    adt = suffix_sweep(signal, stable_set, k).adt
    adt = adt[np.isfinite(adt)]  # an unconstrained suffix contributes -inf
    contraction = float(np.max(adt * g + ln_mu)) if adt.size else -math.inf

    # both drives zero: the asymptotic setting, the bound is exactly zero
    # and the contraction sign only matters for transients, not for epsilon
    if settled_flow == 0.0 and jump_offset == 0.0:
        unbounded = False
        epsilon = 0.0
    elif contraction >= 0.0:
        unbounded = True
        epsilon = math.inf
    else:
        unbounded = False
        tail = math.exp(contraction)  # 0.0 when contraction = -inf
        denom = 1.0 - tail
        try:
            epsilon = math.sqrt(1.0 / p_under) * (
                settled_flow * (_geom_sum(mu, k + 1.0) + mu ** (k + 1.0) / denom)
                + jump_offset * (_geom_sum(mu, k) + mu**k / denom)
            )
        except OverflowError:  # a large chatter bound: mu^(K+1) leaves the float range
            epsilon = math.inf

    return CertificateBundle(
        certificates=certs,
        budget=budget,
        p_under=float(p_under),
        p_over=float(p_over),
        flow_offset=float(flow_offset),
        jump_offset=float(jump_offset),
        settled_flow=float(settled_flow),
        contraction_worst=float(contraction),
        h_bound=float(h_bound),
        impulse_norm_max=bounds.impulse_norm_max,
        err_jump_norm_max=bounds.err_jump_norm_max,
        ultimate_bound=float(epsilon),
        unbounded=unbounded,
    )


@dataclass(frozen=True)
class CalibrationResult:
    gamma_margin: float
    gamma_common: float
    ratio_floor: float
    dwell_floor: float
    max_rel_deviation: float


def calibrate_switching_floors(
    matrices: dict[int, ModeMatrix],
    err_jump_norm_max: float,
    target_ratio: float,
    target_dwell: float,
) -> CalibrationResult:
    """Search (margin, gamma_common) configurations whose certified floors
    reproduce a pair of reference switching bounds.

    The ratio floor depends on the margin and the common rate only; the dwell
    floor additionally involves the jump gain through the certificates. A log
    grid over margins crossed with a dense rate grid is cheap (mode sizes are
    small) and lands within a fraction of a percent of any reachable target
    pair.
    """
    targets = (err_jump_norm_max, target_ratio, target_dwell)
    best = _calibrate_over(matrices, *targets, _CALIBRATION_MARGINS)
    if best is None:
        raise CertificateError("calibration failed: no margin produced valid certificates")
    # refine around the coarse winner
    fine = best.gamma_margin * np.logspace(-0.25, 0.25, 21)
    refined = _calibrate_over(matrices, *targets, fine)
    if refined is not None and refined.max_rel_deviation < best.max_rel_deviation:
        best = refined
    return best


def _calibrate_over(
    matrices: dict[int, ModeMatrix],
    err_jump_norm_max: float,
    target_ratio: float,
    target_dwell: float,
    margins,
) -> CalibrationResult | None:
    best: CalibrationResult | None = None
    for margin in margins:
        try:
            certs = {
                mid: solve_mode_certificate(mm, gamma_margin=float(margin))
                for mid, mm in matrices.items()
            }
            agg = gamma_aggregates(certs)
        except (CertificateError, AssumptionViolation):
            continue
        if agg.gamma_unstable_max is None:
            raise AssumptionViolation("calibration needs at least one unstable mode")
        mu = _energy_constants(certs, err_jump_norm_max)[2]
        g_s, g_u = agg.gamma_stable_max, agg.gamma_unstable_max
        lo, hi = g_s * (1.0 - 1e-9), g_s * 1e-9
        candidates = list(np.linspace(lo, hi, _CALIBRATION_RATES))
        # exact-ratio and exact-dwell rates, when they fall inside the interval
        g_ratio = (g_u + target_ratio * g_s) / (1.0 + target_ratio)
        if lo < g_ratio < hi:
            candidates.append(g_ratio)
        if target_dwell > 0:
            g_dwell = -math.log(mu) / target_dwell
            if lo < g_dwell < hi:
                candidates.append(g_dwell)
        g = np.array(candidates)
        ratio, dwell = ratio_floor_at(g_s, g_u, g), dwell_floor_at(mu, g)
        dev = np.maximum(
            np.abs(ratio / target_ratio - 1.0) if target_ratio else np.abs(ratio),
            np.abs(dwell / target_dwell - 1.0) if target_dwell else np.abs(dwell),
        )
        i = int(np.argmin(dev))  # the first of equal minima, as a strict < scan
        if best is None or dev[i] < best.max_rel_deviation:
            best = CalibrationResult(
                gamma_margin=float(margin),
                gamma_common=float(g[i]),
                ratio_floor=float(ratio[i]),
                dwell_floor=float(dwell[i]),
                max_rel_deviation=float(dev[i]),
            )
    return best
