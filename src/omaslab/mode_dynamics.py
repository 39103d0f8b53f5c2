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
from functools import cached_property

import numpy as np

from .errors import AssumptionViolation, ConfigError, NumericalError
from .signed_graph import AugmentedMode, ModeClass, grounded_laplacian

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

    A is the agent drift (p x p), by which the leader flows; cZ is the
    coupling gain times the grounded Laplacian (N x N). The stacked tracking
    errors (dimension p*N) flow by A_err = I_N (x) A + cZ (x) I_p, apart
    from the leader, which no follower drives. alpha is the spectral
    abscissa of A_err and decides the stable flag.
    """

    mode_id: int | None
    n_agents: int
    p: int
    A: np.ndarray
    cZ: np.ndarray
    alpha: float
    stable: bool

    @cached_property
    def A_err(self) -> np.ndarray:
        return np.kron(np.eye(self.n_agents), self.A) + np.kron(self.cZ, np.eye(self.p))


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
    spanning = [m for m in modes if m.mode_class is ModeClass.POSITIVE_SPANNING]
    if not spanning:
        raise AssumptionViolation(
            "no positive spanning mode: the coupling gain bound is undefined"
        )
    alpha_a = spectral_abscissa(dyn.A)
    bounds = []
    for m in spanning:
        # alpha(-Z) is -min Re of Z's spectrum, which the mode keeps
        alpha_neg_z = -float(m.grounded_eigvals.real.min())
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
    try:
        ev_a = np.linalg.eigvals(dyn.A)
        ev_z = mode.grounded_eigvals
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on {mode.label()}: {exc}") from exc
    alpha = float(max((la + coupling * lz).real for la in ev_a for lz in ev_z))
    return ModeMatrix(
        mode_id=mode.mode_id,
        n_agents=n,
        p=p,
        A=dyn.A,
        cZ=coupling * grounded_laplacian(mode),
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


def _has_perfect_matching(adj: np.ndarray) -> bool:
    """Whether the bipartite graph with n x n biadjacency adj matches every
    row to its own column.

    Kuhn's augmenting paths, each searched depth first with an explicit
    stack, so the path length is not bounded by the recursion limit; a
    greedy pass first takes a free column for every row that has one.
    """
    n = adj.shape[0]
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    row_of = [-1] * n  # the row matched to each column
    col_of = [-1] * n  # the column matched to each row
    for r in range(n):
        for c in nbrs[r]:
            if row_of[c] < 0:
                row_of[c], col_of[r] = r, c
                break
    for root in range(n):
        if col_of[root] >= 0:
            continue
        reached_from = [-1] * n  # the row whose search reached each column
        stack = [(root, iter(nbrs[root]))]
        free = -1
        while stack and free < 0:
            r, untried = stack[-1]
            for c in untried:
                if reached_from[c] < 0:
                    reached_from[c] = r
                    if row_of[c] < 0:
                        free = c
                    else:
                        stack.append((row_of[c], iter(nbrs[row_of[c]])))
                    break
            else:
                stack.pop()
        if free < 0:
            return False
        c = free
        while c >= 0:  # flip the path: each row on it takes the column it reached
            r = reached_from[c]
            row_of[c], col_of[r], c = r, c, col_of[r]
    return True


def kronecker_sum_spectrum_check(
    F: np.ndarray, G: np.ndarray, tol: float = _KRON_MATCH_TOL
) -> bool:
    """Check that eig(F (x) I + I (x) G) equals all pairwise eigenvalue sums.

    The check passes when the two multisets can be paired one to one with
    every paired distance within tol: a perfect matching in the graph whose
    edges join values at most tol apart.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    n, r = F.shape[0], G.shape[0]
    Y = np.kron(F, np.eye(r)) + np.kron(np.eye(n), G)
    ev_y = np.linalg.eigvals(Y)
    pair = np.array([lf + lg for lf in np.linalg.eigvals(F) for lg in np.linalg.eigvals(G)])
    return _has_perfect_matching(np.abs(ev_y[:, None] - pair[None, :]) <= tol)

