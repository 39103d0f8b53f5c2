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

P solves a Lyapunov equation in the shifted error matrix
S = I_N (x) A + cZ (x) I_p - gamma I by Bartels & Stewart (CACM 15(9),
1972) on the factors: the real Schur forms cZ = U T U' and A = V R_A V'
give S a Schur form through U (x) V, once the 2p x 2p diagonal block at
each complex eigenvalue pair of cZ is brought to Schur form itself. One
N x N and one p x p decomposition, and one 2p x 2p per complex pair,
replace the pN x pN one a dense solver computes.

The triangular equation R' Y + Y R = C left in that basis is solved by the
recursive blocked scheme of Jonsson & Kagstrom (ACM TOMS 28(4), 2002): R is
split at a block boundary, never inside a 2 x 2 diagonal block, into R11,
R12 and R22; Y11 solves the leading equation recursively, Y12 one
triangular Sylvester equation R11' Y12 + Y12 R22 = C12 - Y11 R12, itself
split along its larger side, and Y22 the trailing equation with
C22 - S - S', S = R12' Y12. Y21 is Y12'. The updates are matrix products,
so most of the work runs in level-3 BLAS, and LAPACK's unblocked dtrsyl
solves only the leaves, blocks of at most _TRSYL_LEAF rows and columns. A
triangular matrix no larger than a leaf is the recursion's base case: one
dtrsyl call on a copy of C.

dtrsyl returns its solution for scale * C, scale <= 1 keeping it finite.
A leaf whose scale is below 1 rescales every block solved before it and
the right-hand sides still to be solved, so the whole Y solves
R' Y + Y R = scale * C for the product of the leaves' scales, which the
solve returns as dtrsyl would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, CertificateError, ConfigError
from .mode_dynamics import ModeMatrix
from .switching import (
    SuffixSweep,
    SwitchingBudget,
    SwitchingSignal,
    ValidationReport,
    suffix_sweep,
    sweep_verdict,
)
from .transition import ImpulseBounds

_STABLE_CLAMP = 0.1    # fallback: gamma = (1 - clamp) * alpha when alpha + margin >= 0
_RESIDUAL_REL_TOL = 1e-8
# largest block the triangular Lyapunov solve hands to dtrsyl unblocked; on
# the wide bench modes (pN about 320) leaves of 32 to 128 rows ran alike
_TRSYL_LEAF = 64


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


def _no_sort(wr: float, wi: float) -> int:
    return 0


def _real_schur(M: np.ndarray, mode_id: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(T, U) with M = U T U', U orthogonal and T quasi-upper-triangular,
    zero below its subdiagonal and nonzero on it only at complex pairs."""
    from scipy.linalg.lapack import dgees  # scipy.linalg loads only where a certificate is solved

    T, _, _, _, U, _, info = dgees(_no_sort, M)
    if info != 0:
        raise CertificateError(f"real Schur decomposition failed for mode {mode_id} (dgees info {info})")
    return T, U


def _split(R: np.ndarray) -> int:
    """A row k near the middle of quasi-triangular R where R[:k, :k] and
    R[k:, k:] split no 2x2 diagonal block (dtrsyl reads a nonzero
    subdiagonal entry as one)."""
    k = R.shape[0] // 2
    return k + 1 if R[k, k - 1] != 0.0 else k


def _triangular_lyapunov(R: np.ndarray, C: np.ndarray, mode_id: int | None) -> tuple[np.ndarray, float]:
    """(Y, scale) with R' Y + Y R = scale * C for quasi-triangular R in
    Schur canonical form and symmetric C, as dtrsyl(R, R, C, trana="T")
    returns them, by the recursive blocked solve of the module docstring.

    Every recursive step solves its blocks in place in one working copy of
    C and returns the product of its leaves' scales; a step whose part
    returns a scale below 1 multiplies its other blocks, solved or still
    right-hand sides, by it. info < 0 at any leaf raises CertificateError
    naming the mode; info 1 (near-singular, solved with perturbed values)
    is left to the caller's checks.
    """
    from scipy.linalg.lapack import dtrsyl

    def leaf(A: np.ndarray, B: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, float]:
        Y, scale, info = dtrsyl(A, B, X, trana="T")
        if info < 0:
            raise CertificateError(
                f"Lyapunov solve failed for mode {mode_id}: dtrsyl argument {-info} is illegal"
            )
        return Y, scale

    def sylvester(A: np.ndarray, B: np.ndarray, X: np.ndarray) -> float:
        # A' Y + Y B = X, Y written over X; split along the larger side
        m, n = X.shape
        if max(m, n) <= _TRSYL_LEAF:
            X[...], scale = leaf(A, B, X)
            return scale
        if m >= n:
            k = _split(A)
            s1 = sylvester(A[:k, :k], B, X[:k])
            if s1 != 1.0:
                X[k:] *= s1
            X[k:] -= A[:k, k:].T @ X[:k]
            s2 = sylvester(A[k:, k:], B, X[k:])
            if s2 != 1.0:
                X[:k] *= s2
        else:
            k = _split(B)
            s1 = sylvester(A, B[:k, :k], X[:, :k])
            if s1 != 1.0:
                X[:, k:] *= s1
            X[:, k:] -= X[:, :k] @ B[:k, k:]
            s2 = sylvester(A, B[k:, k:], X[:, k:])
            if s2 != 1.0:
                X[:, :k] *= s2
        return s1 * s2

    def lyapunov(T: np.ndarray, X: np.ndarray) -> float:
        # T' Y + Y T = X, Y written over X; X21 is never read, and Y21 is Y12'
        if T.shape[0] <= _TRSYL_LEAF:
            X[...], scale = leaf(T, T, X)
            return scale
        k = _split(T)
        T12 = T[:k, k:]
        s1 = lyapunov(T[:k, :k], X[:k, :k])
        if s1 != 1.0:
            X[:k, k:] *= s1
            X[k:, k:] *= s1
        X[:k, k:] -= X[:k, :k] @ T12
        s2 = sylvester(T[:k, :k], T[k:, k:], X[:k, k:])
        if s2 != 1.0:
            X[:k, :k] *= s2
            X[k:, k:] *= s2
        S = T12.T @ X[:k, k:]
        X[k:, k:] -= S + S.T
        s3 = lyapunov(T[k:, k:], X[k:, k:])
        if s3 != 1.0:
            X[:k] *= s3
        X[k:, :k] = X[:k, k:].T
        return s1 * s2 * s3

    Y = np.array(C, dtype=float)
    return Y, lyapunov(R, Y)


def _shifted_lyapunov(mm: ModeMatrix, gamma: float) -> np.ndarray:
    """P with S' P + P S = -I, S = I_N (x) A + cZ (x) I_p - gamma I.

    With cZ = U T U' and A = V R_A V', Q = U (x) V gives
    Q' S Q = R = I_N (x) (R_A - gamma I) + T (x) I_p. Each 2x2 block of T
    leaves the 2p x 2p diagonal block at its rows non-triangular when p > 1;
    that block's own Schur rotation W is folded into R and Q. R is then
    quasi-triangular, and R' Y + Y R = -scale I is solved by recursive
    blocked Bartels-Stewart (_triangular_lyapunov): dtrsyl on leaves of at
    most _TRSYL_LEAF rows, matrix products between them, and scale the
    product of the leaves' scales. P = Q (Y / scale) Q'.
    """
    n, p = mm.n_agents, mm.p
    T, U = _real_schur(mm.cZ, mm.mode_id)
    R_A, V = _real_schur(mm.A, mm.mode_id)
    R = np.kron(np.eye(n), R_A - gamma * np.eye(p)) + np.kron(T, np.eye(p))
    Q = np.kron(U, V)
    if p > 1:
        for i in np.flatnonzero(np.diag(T, -1)):
            b = slice(i * p, (i + 2) * p)
            R_b, W = _real_schur(R[b, b], mm.mode_id)
            # R is zero left of and below the block, so only these change
            R[b, b.stop:] = W.T @ R[b, b.stop:]
            R[: b.start, b] = R[: b.start, b] @ W
            R[b, b] = R_b
            Q[:, b] = Q[:, b] @ W
    Y, scale = _triangular_lyapunov(R, -np.eye(n * p), mm.mode_id)
    # scale <= 1 keeps Y finite; info 1 (near-singular, solved with perturbed
    # values) is left to the positive definiteness and residual checks of
    # solve_mode_certificate
    return Q @ (Y / scale) @ Q.T


def solve_mode_certificate(mm: ModeMatrix, gamma_margin: float | None = None) -> ModeCertificate:
    """Pick gamma above the mode's abscissa and solve for P.

    gamma = alpha + margin, clamped to (1 - 0.1) * alpha when that would
    leave a stable mode with a nonnegative rate. P solves the shifted
    Lyapunov equation (A_err - gamma I)' P + P (A_err - gamma I) = -I; the
    shift is Hurwitz by construction, so P exists, is unique and positive
    definite. The solve works on the Kronecker factors A and cZ (see the
    module docstring), and its P is then checked against the dense A_err:
    positive definite, and the certificate inequality holds to a residual
    relative to the scale of P. P is rescaled so lambda_min(P) = 1 (the
    inequality is homogeneous in P, and aligning the floors across modes
    keeps the cross-mode energy ratio, hence the jump gain, as small as this
    Q choice allows).
    """
    margin = default_gamma_margin(mm.alpha) if gamma_margin is None else float(gamma_margin)
    if margin <= 0.0:
        raise CertificateError(f"gamma margin must be positive, got {margin}")
    gamma = mm.alpha + margin
    if mm.stable and gamma >= 0.0:
        gamma = (1.0 - _STABLE_CLAMP) * mm.alpha
    P = _shifted_lyapunov(mm, gamma)
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


def _class_rates(certs: dict[int, ModeCertificate]) -> tuple[float, float | None]:
    """(g_s, g_u): the worst certificate rate of the stable modes and of the
    unstable ones, g_u None when there are none."""
    stable = [c.gamma for c in certs.values() if c.stable]
    unstable = [c.gamma for c in certs.values() if not c.stable]
    if not stable:
        raise AssumptionViolation("no stable mode: aggregates are undefined")
    g_s = max(stable)
    if g_s >= 0.0:
        raise CertificateError(f"stable class has nonnegative worst rate {g_s}")
    return float(g_s), float(max(unstable)) if unstable else None


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
    the bundle reads them through it. sweep is the suffix sweep of the
    certified signal, from which the bundle reads that signal's verdict.
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
    sweep: SuffixSweep

    chatter_bound = property(lambda self: self.budget.chatter_bound)
    gamma_common = property(lambda self: self.budget.gamma_common)
    jump_gain = property(lambda self: self.budget.jump_gain)  # worst growth across a switch

    @property
    def stable_set(self) -> set[int]:
        return {mid for mid, c in self.certificates.items() if c.stable}

    def validation(self, suffixes: str = "all") -> ValidationReport:
        """The certified signal's switching verdict on the given suffixes."""
        return sweep_verdict(self.sweep, self.budget, suffixes)

    def bound_applies(self, suffixes: str = "all") -> bool:
        """Whether the ultimate bound speaks for the certified signal: it
        must be finite and the signal must pass on every suffix. The
        asymptotic bound 0 rests on the suffixes asked for alone."""
        if not math.isfinite(self.ultimate_bound):
            return False
        return self.validation(suffixes if self.ultimate_bound == 0.0 else "all").ok


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
    if not math.isfinite(h_bound):
        raise ConfigError(f"perturbation bound must be finite, got {h_bound}")
    if h_bound < 0.0:
        raise ConfigError(f"perturbation bound must be >= 0, got {h_bound}")
    g_s, g_u = _class_rates(certs)
    # p_under |e|^2 <= V^2 <= p_over |e|^2 in every mode, so an event whose
    # error jump has 2-norm at most err_jump_norm_max grows V by at most mu,
    # the square root of the sandwich ratio times that norm (or times 1)
    p_under = min(c.lambda_min for c in certs.values())
    p_over = max(c.lambda_max for c in certs.values())
    mu = math.sqrt(p_over / p_under) * max(1.0, bounds.err_jump_norm_max)
    budget = SwitchingBudget(
        chatter_bound=float(chatter_bound),
        # the default common rate, g_s / 2, lies inside (g_s, 0) for any g_s < 0
        gamma_common=float(g_s / 2.0 if gamma_common is None else gamma_common),
        gamma_stable_max=g_s,
        gamma_unstable_max=g_u,
        jump_gain=float(mu),
    )
    g, mu, k = budget.gamma_common, budget.jump_gain, budget.chatter_bound
    flow_offset = h_bound * p_over / math.sqrt(p_under)
    jump_offset = bounds.impulse_norm_max * math.sqrt(p_over)
    settled_flow = flow_offset / (-g)

    ln_mu = math.log(mu)
    stable_set = {mid for mid, c in certs.items() if c.stable}
    sweep = suffix_sweep(signal, stable_set, k)
    adt = sweep.adt[np.isfinite(sweep.adt)]  # an unconstrained suffix contributes -inf
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
        sweep=sweep,
    )
