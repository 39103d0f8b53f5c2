"""Per-mode closed-loop matrices and their spectra.

Each agent runs identical linear dynamics xdot = A x plus a coupling term
that feeds back relative states through the mode's topology. Stacking the
tracking errors of all agents gives the error system

    edot = (I_N (x) A + c * Z (x) I_p) e + h(t)

with Z the grounded Laplacian of the mode and c the (negative) coupling
gain. The spectrum of a Kronecker sum is the set of pairwise eigenvalue
sums, which is what makes mode stability decidable from the factor spectra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import AssumptionViolation, ConfigError, NumericalError
from .signed_graph import (
    AugmentedMode,
    ModeClass,
    classify_mode,
    grounded_laplacian,
)

DEFAULT_MAX_DIM = 512  # refuse to assemble stacked systems larger than this
_KRON_MATCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AgentDynamics:
    """Shared open-loop agent model xdot = A x."""

    A: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"A must be square, got shape {A.shape}")
        object.__setattr__(self, "A", A)
        if spectral_abscissa(A) < 0.0:
            warnings.warn(
                "agent dynamics are already stable (spectral abscissa < 0); "
                "the certification theory assumes a non-decaying open loop",
                stacklevel=2,
            )

    @property
    def p(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class ModeMatrix:
    """Assembled stacked matrices for one mode.

    A is the agent drift (p x p), by which the leader flows; A_err drives
    the stacked tracking errors (dimension p*N). The leader is coupled to
    no follower, so (leader, errors) flows by block_diag(A, A_err). alpha
    is the spectral abscissa of A_err and decides the stable flag.
    """

    mode_id: int | None
    n_agents: int
    p: int
    A: np.ndarray
    A_err: np.ndarray
    alpha: float
    stable: bool


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest real part of the spectrum, by dense eigensolve."""
    M = np.asarray(M, dtype=float)
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {M.shape} matrix: {exc}") from exc
    return float(ev.real.max())


def coupling_gain_bound(dyn: AgentDynamics, modes: list[AugmentedMode]) -> float:
    """Strict upper bound on admissible coupling gains.

    Over the positive spanning modes, returns min alpha(A) / alpha(-Z).
    Gains strictly below this (they are <= 0 whenever alpha(A) >= 0) make
    every positive spanning mode contracting while leaving the unstable
    classes to the switching logic.
    """
    spanning = [m for m in modes if classify_mode(m) is ModeClass.POSITIVE_SPANNING]
    if not spanning:
        raise AssumptionViolation(
            "no positive spanning mode: the coupling gain bound is undefined"
        )
    alpha_a = spectral_abscissa(dyn.A)
    bounds = []
    for m in spanning:
        alpha_neg_z = spectral_abscissa(-grounded_laplacian(m))
        if alpha_neg_z >= 0.0:
            raise AssumptionViolation(
                f"{m.label()} classified positive-spanning but its grounded "
                f"Laplacian has an eigenvalue with nonpositive real part"
            )
        bounds.append(alpha_a / alpha_neg_z)
    return float(min(bounds))


def build_mode_matrix(
    dyn: AgentDynamics,
    mode: AugmentedMode,
    coupling: float,
    max_dim: int = DEFAULT_MAX_DIM,
) -> ModeMatrix:
    """Assemble the stacked error matrix for one mode.

    alpha is evaluated from the factor spectra (pairwise sums of eigenvalues
    of A and coupling * Z). That identity is exact for Kronecker sums and
    sidesteps the accuracy loss a dense eigensolve suffers on the defective
    eigenvalues these Laplacians routinely carry.
    """
    n = mode.n_agents
    p = dyn.p
    if p * n > max_dim:
        raise ConfigError(
            f"{mode.label()} stacks to dimension {p * n}, above the limit {max_dim}"
        )
    Z = grounded_laplacian(mode)
    A_err = np.kron(np.eye(n), dyn.A) + coupling * np.kron(Z, np.eye(p))
    try:
        ev_a = np.linalg.eigvals(dyn.A)
        ev_z = np.linalg.eigvals(Z)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on {mode.label()}: {exc}") from exc
    alpha = float(max((la + coupling * lz).real for la in ev_a for lz in ev_z))
    return ModeMatrix(
        mode_id=mode.mode_id,
        n_agents=n,
        p=p,
        A=dyn.A,
        A_err=A_err,
        alpha=alpha,
        stable=alpha < 0.0,
    )


def build_mode_matrices(
    dyn: AgentDynamics,
    modes: list[AugmentedMode],
    coupling: float,
    max_dim: int = DEFAULT_MAX_DIM,
) -> dict[int, ModeMatrix]:
    """Assemble all modes, keyed by mode id."""
    out: dict[int, ModeMatrix] = {}
    for m in modes:
        if m.mode_id is None:
            raise ConfigError("modes must carry ids to be assembled as a family")
        if m.mode_id in out:
            raise ConfigError(f"duplicate mode id {m.mode_id}")
        out[m.mode_id] = build_mode_matrix(dyn, m, coupling, max_dim=max_dim)
    return out


def kronecker_sum_spectrum_check(
    F: np.ndarray, G: np.ndarray, tol: float = _KRON_MATCH_TOL
) -> bool:
    """Check that eig(F (x) I + I (x) G) equals all pairwise eigenvalue sums.

    The two multisets are matched by minimum-cost assignment; the check
    passes when the worst matched distance is within tol.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    n, r = F.shape[0], G.shape[0]
    Y = np.kron(F, np.eye(r)) + np.kron(np.eye(n), G)
    ev_y = np.linalg.eigvals(Y)
    pair = np.array([lf + lg for lf in np.linalg.eigvals(F) for lg in np.linalg.eigvals(G)])
    cost = np.abs(ev_y[:, None] - pair[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(cost[rows, cols].max() <= tol)

