"""Hybrid integration of the dimension-varying closed loop.

The state is z = (leader, stacked tracking errors). Within a segment z
flows linearly by block_diag(A, A_err): the leader by its own drift, the
errors by the mode's error dynamics plus the forcing. At boundaries the
transition map relabels the errors and injects impulses; the leader never
jumps. Agent states are rebuilt as leader + error only for output, so the
errors never suffer the cancellation of differencing a growing leader.

Two integrators are provided: exact matrix-exponential propagation of a
piecewise-linear forcing interpolant on the fixed grid, and classical
fixed-step RK4 fed the same forcing samples. They agree to high accuracy by
construction, which is exploited as a cross-check rather than trusting
either alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .certificate import CertificateBundle
from .errors import ConfigError
from .mode_dynamics import ModeMatrix
from .seeding import (
    STREAM_PERTURBATION,
    STREAM_PERTURBATION_PAST,
    stream_rng,
    uniform_in_ball,
)
from .switching import SwitchingSignal
from .transition import apply_error_jump

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

DEFAULT_DT = 1e-3
_GRID_EPS = 1e-9
_FULL_RETENTION_HORIZON = 100.0  # seconds of horizon kept at full resolution
_CHUNK_STEPS = 1000  # steps whose forcing is built and checked at once
_CSV_BLOCK_ROWS = 256  # trajectory rows formatted per write
# 1/k!, the Taylor coefficients of the phi-functions in _propagators
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(20))

PERTURBATION_KINDS = ("zero", "constant", "sinusoidal", "random")


@dataclass(frozen=True)
class PerturbationModel:
    """Norm-bounded exogenous disturbance on the stacked agent states.

    Every kind respects ||h(t)|| <= bound by construction, whatever the
    requested dimension (the agent count changes between modes):

    zero        identically zero
    constant    per-agent amplitude vector tiled across agents, rescaled
                into the ball when the tiled norm exceeds the bound
    sinusoidal  the same tiled direction modulated by sin(2 pi f t)
    random      piecewise constant over holds, each hold drawn uniformly
                from the ball of radius bound
    """

    kind: str
    bound: float = 0.0
    amplitude: tuple[float, ...] | None = None
    frequency: float = 1.0
    hold: float = 0.05
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ConfigError(f"unknown perturbation kind {self.kind!r}")
        if self.bound < 0.0:
            raise ConfigError(f"perturbation bound must be >= 0, got {self.bound}")
        if self.kind in ("constant", "sinusoidal") and self.amplitude is None:
            raise ConfigError(f"kind {self.kind!r} needs an amplitude vector")
        if self.hold <= 0.0:
            raise ConfigError(f"hold must be positive, got {self.hold}")
        if self.amplitude is not None:
            object.__setattr__(self, "amplitude", tuple(float(a) for a in self.amplitude))

    def with_seed(self, seed: int) -> "PerturbationModel":
        return self if self.seed is not None else replace(self, seed=seed)

    def _tiled(self, n_agents: int, p: int) -> np.ndarray:
        amp = np.asarray(self.amplitude, dtype=float)
        if amp.shape != (p,):
            raise ConfigError(f"amplitude has shape {amp.shape}, expected ({p},)")
        v = np.tile(amp, n_agents)
        norm = float(np.linalg.norm(v))
        if norm > self.bound and norm > 0.0:
            v *= self.bound / norm
        return v

    # kept for the bench tracer (perfbench/tracing.py), which wraps this name;
    # the library itself samples through sample_grid
    def sample(self, t: float, n_agents: int, p: int) -> np.ndarray:
        """The forcing at one time: sample_grid's row, zeros when it is None."""
        rows = self.sample_grid(np.array([t]), n_agents, p)
        return np.zeros(n_agents * p) if rows is None else rows[0]

    def _hold_draw(self, k: int, dim: int) -> np.ndarray:
        # holds before t = 0 have their own stream, keyed by -k >= 1, so
        # their keys never meet those of holds k >= 0
        if k >= 0:
            rng = stream_rng(self.seed or 0, STREAM_PERTURBATION, k, dim)
        else:
            rng = stream_rng(self.seed or 0, STREAM_PERTURBATION_PAST, -k, dim)
        return uniform_in_ball(rng, dim, self.bound)

    def sample_grid(
        self, times: np.ndarray, n_agents: int, p: int, first: np.ndarray | None = None
    ) -> np.ndarray | None:
        """The forcing at every time of a grid, as one (len(times), n_agents * p) array.

        Returns None when the perturbation is identically zero. Row i
        depends on times[i] alone, so any split of a grid into chunks gives
        the same rows. The random kind draws each hold once, however many
        grid points fall inside it. first, when
        given, is the row already sampled at times[0] (by the previous chunk
        of a segment); the random kind reuses it for its hold instead of
        drawing that hold again.
        """
        if self.kind == "zero" or self.bound == 0.0:
            return None
        times = np.asarray(times, dtype=float)
        dim = n_agents * p
        if self.kind == "constant":
            return np.broadcast_to(self._tiled(n_agents, p), (len(times), dim))
        if self.kind == "sinusoidal":
            # math.sin per point: np.sin may round differently in the last bit
            w = 2.0 * math.pi * self.frequency
            s = np.array([math.sin(w * t) for t in times.tolist()])
            return self._tiled(n_agents, p) * s[:, None]
        k = np.floor(times / self.hold + _GRID_EPS).astype(np.int64)
        holds, which = np.unique(k, return_inverse=True)
        draws = [
            first if first is not None and j == k[0] else self._hold_draw(int(j), dim)
            for j in holds
        ]
        return np.array(draws).reshape(-1, dim)[which]


@dataclass(eq=False)
class SegmentTrace:
    index: int
    mode_id: int
    n_agents: int
    t: np.ndarray
    leader: np.ndarray  # (len(t), p)
    errs: np.ndarray    # (len(t), p * n_agents)

    @property
    def states(self) -> np.ndarray:
        """(len(t), p * (n_agents + 1)): the leader, then each agent as leader + error.

        Formed afresh on every access, so read it once per segment."""
        return np.hstack([self.leader, self.errs + np.tile(self.leader, self.n_agents)])


@dataclass(eq=False)
class EventRecord:
    index: int
    t: float
    mode_before: int
    mode_after: int
    n_before: int
    n_after: int
    pre_err: np.ndarray
    post_err: np.ndarray
    impulse_norm: float

    @property
    def pre_err_norm(self) -> float:
        return float(np.linalg.norm(self.pre_err))

    @property
    def post_err_norm(self) -> float:
        return float(np.linalg.norm(self.post_err))


@dataclass(eq=False)
class Trajectory:
    p: int
    t0: float
    tf: float
    segments: list[SegmentTrace] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    diverged_at: float | None = None
    max_h_norm: float = 0.0

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def max_agents(self) -> int:
        return max(seg.n_agents for seg in self.segments)

    def tail_sup_error(self, tail_fraction: float = 0.2) -> float:
        """The largest error norm over the last tail_fraction of the horizon;
        inf for a diverged run, whose non-finite step is not kept."""
        if self.diverged:
            return math.inf
        cutoff = self.tf - tail_fraction * (self.tf - self.t0)
        sup = 0.0
        # norms of a huge but finite tail overflow to inf, which is the right answer
        with np.errstate(over="ignore"):
            for seg in self.segments:
                mask = seg.t >= cutoff - _GRID_EPS
                if mask.any():
                    sup = max(sup, float(np.linalg.norm(seg.errs[mask], axis=1).max()))
        return sup


def _grid(t_start: float, t_end: float, dt: float) -> tuple[int, float]:
    span = t_end - t_start
    n_full = int(math.floor(span / dt + _GRID_EPS))
    rem = span - n_full * dt
    # a remainder within rounding of a full step is none; a short segment is one step
    if n_full > 0 and rem < dt * 1e-9:
        rem = 0.0
    return n_full, rem


def _stacked(mode: ModeMatrix) -> np.ndarray:
    """block_diag(mode.A, mode.A_err), the matrix z flows by in one segment.

    Filled in place: scipy.linalg.block_diag spends about 60 us checking its
    arguments, and a run that switches often stacks anew for each new step.
    """
    p = mode.p
    M = np.zeros((p + mode.A_err.shape[0],) * 2)
    M[:p, :p] = mode.A
    M[p:, p:] = mode.A_err
    return M


def _propagators(M: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = e^(M h), Phi1 = h phi1(M h) and Phi2 = h^2 phi2(M h) for h = step.

    With phi1(X) = sum_k X^k / (k+1)! and phi2(X) = sum_k X^k / (k+2)!,
    Phi1 = int_0^h e^(M (h-s)) ds and Phi2 = int_0^h e^(M (h-s)) s ds: the
    flow over one step and its zeroth and first forcing moments. The closed
    forms phi1(X) = X^-1 (e^X - I) and phi2(X) = X^-1 (phi1(X) - I) need X
    invertible; the power series do not, so a singular M is no special case.

    Scaling and modified squaring (Skaflestad & Wright 2009): X = M h is
    scaled to Y = X / 2^s with the least s >= 0 that gives ||Y||_1 <= 1/2,
    and phi2(Y) is summed by Horner to the smallest degree m >= 1 with

        ||Y||_1^(m+1) e^(||Y||_1) / (m+3)! <= 2^-54,

    a bound on the 1-norm of the dropped tail sum_(k>m) Y^k / (k+2)!: at
    most the unit roundoff 2^-53 relative to phi2's leading term 1/2, so
    m <= 13. Then phi1 = I + Y phi2 and E = I + Y phi1, and s doublings
        phi2(2Y) = (e^Y phi2(Y) + phi2(Y) + phi1(Y)) / 4
        phi1(2Y) = (e^Y phi1(Y) + phi1(Y)) / 2
        e^(2Y)   = (e^Y)^2
    undo the scaling. Every product is n x n. Van Loan's construction, the
    top block row of the exponential of a 3n x 3n block matrix, gives the
    same three matrices at about ten times the cost on a wide network and
    is kept as the tests' oracle.
    """
    n = M.shape[0]
    X = M * step
    f, e = math.frexp(float(np.linalg.norm(X, 1)))
    s = max(0, e + (f > 0.5))  # the least s >= 0 with ||X||_1 / 2^s <= 1/2
    Y = X / 2.0**s
    y = math.ldexp(f, e - s)  # ||Y||_1, exactly
    m = 1
    while y ** (m + 1) * math.exp(y) * _INV_FACTORIAL[m + 3] > 2.0**-54:
        m += 1
    # Horner from the inside out: phi2 = 1/2! + Y (1/3! + ... + Y (1/(m+2)!))
    phi2 = Y * _INV_FACTORIAL[m + 2]
    for k in range(m - 1, 0, -1):
        phi2.flat[:: n + 1] += _INV_FACTORIAL[k + 2]
        phi2 = Y @ phi2
    phi2.flat[:: n + 1] += _INV_FACTORIAL[2]
    phi1 = Y @ phi2
    phi1.flat[:: n + 1] += 1.0
    E = Y @ phi1
    E.flat[:: n + 1] += 1.0
    for _ in range(s):
        phi2 = 0.25 * (E @ phi2 + phi2 + phi1)
        phi1 = 0.5 * (E @ phi1 + phi1)
        E = E @ E
    return E, step * phi1, (step * step) * phi2


def _rk4_step(M: np.ndarray, step: float, x, f0, f1):
    """One classical RK4 step of x' = M x + f.

    The forcing is f0 at the start of the step, f1 at its end and their
    mean at the midpoint (the piecewise-linear interpolant). The arguments
    may be blocks of columns, which is how the step matrices are built.
    """
    fm = 0.5 * (f0 + f1)
    k1 = M @ x + f0
    k2 = M @ (x + 0.5 * step * k1) + fm
    k3 = M @ (x + 0.5 * step * k2) + fm
    k4 = M @ (x + step * k3) + f1
    return x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_matrices(
    M: np.ndarray, step: float, method: str, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, A0, A1) with one step x' = E x + A0 f0 + A1 f1.

    f0 and f1 are the error forcing at the two ends of the step; the
    leader rows of the stacked forcing are zero, so only the error
    columns of A0 and A1 are kept. exact: A0 = Phi1 - Phi2 / step and
    A1 = Phi2 / step integrate the linear interpolant in closed form.
    rk4: the stage formula applied to identity blocks.
    """
    dim = M.shape[0]
    if method == "exact":
        E, Phi1, Phi2 = _propagators(M, step)
        A1 = Phi2 / step
        return E, (Phi1 - A1)[:, p:], A1[:, p:]
    eye = np.eye(dim)
    zero = np.zeros((dim, dim - p))
    E = _rk4_step(M, step, eye, 0.0, 0.0)
    A0 = _rk4_step(M, step, zero, eye[:, p:], 0.0)
    A1 = _rk4_step(M, step, zero, 0.0, eye[:, p:])
    return E, A0, A1


def _advance(E: np.ndarray, x: np.ndarray, G: np.ndarray | None, out: np.ndarray) -> None:
    """Row k of out becomes E (row k-1) + G[k], starting from x."""
    for k in range(len(out)):
        row = out[k]
        np.dot(E, x, out=row)
        if G is not None:
            row += G[k]
        x = row


def _max_row_norm(F: np.ndarray) -> float:
    """Largest 2-norm over the rows of F, each taken as np.linalg.norm of
    the row (so equal to the per-sample norm bit for bit); repeated
    consecutive rows, as within a hold, are normed once."""
    fresh = np.flatnonzero(np.concatenate(([True], (F[1:] != F[:-1]).any(axis=1))))
    return max(float(np.linalg.norm(F[i])) for i in fresh)


def _step_lengths(dt: float, grid: tuple[int, float]) -> tuple[float, ...]:
    """The step lengths a grid from _grid takes: dt, the remainder, or both."""
    n_full, rem = grid
    lengths = (dt,) if n_full > 0 else ()
    return lengths + ((rem,) if rem > 0.0 else ())


def _integrate(
    mode: ModeMatrix,
    x: np.ndarray,
    h: PerturbationModel,
    t_span: tuple[float, float],
    dt: float,
    grid: tuple[int, float],
    steps: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]],
    sample_stride: int,
) -> tuple[np.ndarray, np.ndarray, float | None, float]:
    """Step z = (leader, errors) over one constant-mode window of run_switched.

    The grid is laid out by _grid, steps maps each of its step lengths to
    its (E, A0, A1), and x is the checked state at t_span[0]. Returns the
    kept sample times, the states at them, the time of the first non-finite
    step (None when there is none) and the largest forcing norm.
    """
    t_start, t_end = t_span
    p, n = mode.p, mode.n_agents
    dim = len(x)
    n_full, rem = grid
    n_steps = n_full + (1 if rem > 0.0 else 0)
    # (first step, end step, step length): chunks of full steps, then the
    # remainder step onto t_end
    blocks = [(a, min(a + _CHUNK_STEPS, n_full), dt) for a in range(0, n_full, _CHUNK_STEPS)]
    if rem > 0.0:
        blocks.append((n_full, n_steps, rem))
    times = [np.array([t_start])]
    states = [x[None, :].copy()]
    max_h = 0.0
    diverged_at = None
    F = None
    for a, b, step in blocks:
        E, A0, A1 = steps[step]
        t_ends = t_start + np.arange(a + 1, b + 1) * dt if step == dt else np.array([t_end])
        t_grid = np.concatenate(([t_start + a * dt], t_ends))
        # the chunk's first time is the previous chunk's last: reuse its row
        F = h.sample_grid(t_grid, n, p, first=None if F is None else F[-1])
        G = None
        if F is not None:
            max_h = max(max_h, _max_row_norm(F))
            G = F[:-1] @ A0.T + F[1:] @ A1.T
        out = np.empty((b - a, dim))
        # overflow on a diverging run is expected and reported via
        # diverged_at, so the elementwise warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            _advance(E, x, G, out)
            finite = np.isfinite(out).all(axis=1)
        step_no = np.arange(a + 1, b + 1)  # 1-based index of each step
        keep = (step_no % sample_stride == 0) | (step_no == n_steps)
        if not finite.all():
            bad = int(np.argmin(finite))
            diverged_at = float(t_ends[bad])
            keep[bad:] = False
        times.append(t_ends[keep])
        states.append(out[keep])
        if diverged_at is not None:
            break
        x = out[-1]

    return np.concatenate(times), np.vstack(states), diverged_at, max_h


@dataclass(eq=False)
class RunSummary:
    seed: int
    dt: float
    method: str
    t0: float
    tf: float
    tail_fraction: float
    tail_sup_error: float
    convergence_tol: float
    converged: bool
    diverged: bool
    diverged_at: float | None
    n_events: int
    max_h_norm: float
    ultimate_bound: float | None
    bound_respected: bool | None


@dataclass(eq=False)
class RunResult:
    trajectory: Trajectory
    summary: RunSummary
    signal: SwitchingSignal


def run_switched(
    matrices: dict[int, ModeMatrix],
    signal: SwitchingSignal,
    x0: np.ndarray,
    perturbation: PerturbationModel,
    dt: float = DEFAULT_DT,
    method: str = "exact",
    sample_stride: int | None = None,
) -> Trajectory:
    """Integrate across all segments of a signal, applying jumps at boundaries.

    x0 is the stacked (leader, errors) vector at signal.t0. Within a segment
    z flows by block_diag(A, A_err) of its mode and the forcing drives the
    error rows only; each jump acts on the errors alone, and the leader
    carries over unchanged.

    Both methods sample the forcing only at grid points and treat it as
    piecewise-linear between samples. method "exact" integrates that
    interpolant in closed form (E = e^(M h), h phi1(M h) and h^2 phi2(M h)
    of the phi-functions, so the flow is exact and the forcing exact for
    the interpolant); "rk4" is the classical fixed-step scheme fed the same
    interpolant. Their difference is then purely the RK4 flow truncation,
    O(dt^4) globally, which is what the cross-check relies on. The step
    matrices inherit the block-diagonal form, so the leader flows by its
    own dynamics untouched by either the coupling or the forcing.

    Either method is one linear step x' = E x + A0 f0 + A1 f1, applied in
    chunks of steps whose forcing terms are computed at once. Every
    sample_stride-th step and each segment's last are kept; None picks the
    stride from the horizon. The run stops (diverged_at set) at the first
    step with a non-finite state, which is not kept.
    """
    if method not in ("exact", "rk4"):
        raise ConfigError(f"unknown integrator {method!r}")
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not math.isfinite(dt):
        raise ConfigError(f"dt must be finite, got {dt}")
    p = matrices[signal.segments[0].mode].p
    if sample_stride is None:
        horizon = signal.tf - signal.t0
        sample_stride = 1 if horizon <= _FULL_RETENTION_HORIZON else int(
            math.ceil(horizon / _FULL_RETENTION_HORIZON)
        )
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    traj = Trajectory(p=p, t0=signal.t0, tf=signal.tf)
    spans = [signal.segment_bounds(i) for i in range(len(signal.segments))]
    grids = [_grid(a, b, dt) for a, b in spans]
    # a run re-enters the same modes again and again, so step matrices are
    # kept per (mode, exact step length) -- the method is the run's -- from
    # the first segment that steps by them until the last
    keys = [
        [(seg.mode, s) for s in _step_lengths(dt, grid)]
        for seg, grid in zip(signal.segments, grids)
    ]
    last_use = {key: i for i, seg_keys in enumerate(keys) for key in seg_keys}
    kept: dict[tuple[int, float], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    z = x0
    for i, seg in enumerate(signal.segments):
        mm = matrices[seg.mode]
        bounds = spans[i]
        x = np.asarray(z, dtype=float)
        dim = p * (mm.n_agents + 1)
        if x.shape != (dim,):
            raise ConfigError(f"state has shape {x.shape}, expected ({dim},)")
        for key in keys[i]:
            if key not in kept:
                M = _stacked(mm)
                kept[key] = _step_matrices(M, key[1], method, p)
        t, states, diverged_at, max_h = _integrate(
            mm, x, perturbation, bounds, dt, grids[i],
            {key[1]: kept[key] for key in keys[i]}, sample_stride,
        )
        for key in keys[i]:
            if last_use[key] == i:
                del kept[key]
        leader, errs = states[:, :p], states[:, p:]
        traj.segments.append(
            SegmentTrace(
                index=i,
                mode_id=seg.mode,
                n_agents=mm.n_agents,
                t=t,
                leader=leader,
                errs=errs,
            )
        )
        traj.max_h_norm = max(traj.max_h_norm, max_h)
        if diverged_at is not None:
            traj.diverged_at = diverged_at
            break
        if i < len(signal.segments) - 1:
            ev = signal.events[i]
            pre_err = errs[-1]
            post_err = apply_error_jump(ev, pre_err)
            traj.events.append(
                EventRecord(
                    index=i + 1,
                    t=bounds[1],
                    mode_before=ev.mode_before,
                    mode_after=ev.mode_after,
                    n_before=ev.n_before,
                    n_after=ev.n_after,
                    pre_err=pre_err,
                    post_err=post_err,
                    impulse_norm=ev.impulse_norm,
                )
            )
            z = np.concatenate([leader[-1], post_err])
    return traj


def run_scenario(
    scenario: "Scenario",
    seed: int | None = None,
    dt: float | None = None,
    method: str | None = None,
    bundle: CertificateBundle | None = None,
    signal: SwitchingSignal | None = None,
) -> RunResult:
    """End-to-end run of a parsed scenario.

    Resolves the signal and initial state from the master seed, integrates,
    and summarises convergence. When a certificate bundle with a finite
    ultimate bound is supplied, the tail error is compared against that
    bound; an unbounded or infinite one certifies nothing and reads as no
    bound. A caller that has already resolved the signal for this seed
    passes it in and it is not resolved again. dt and method default to the
    scenario's simulation options.
    """
    master = scenario.master_seed(seed)
    dt_eff = scenario.simulation.dt if dt is None else float(dt)
    if method is None:
        method = scenario.simulation.integrator
    if signal is None:
        signal = scenario.resolve_signal(master)
    leader, errors = scenario.resolve_initial_state(master, signal.segments[0].mode)
    perturbation = scenario.perturbation.with_seed(master)
    traj = run_switched(
        scenario.mode_matrices(),
        signal,
        np.concatenate([leader, errors]),
        perturbation,
        dt=dt_eff,
        method=method,
        sample_stride=scenario.simulation.sample_stride,
    )
    tail = traj.tail_sup_error(scenario.simulation.tail_fraction)
    tol = scenario.simulation.convergence_tol
    # no bundle, an unbounded one (its bound is inf) and an infinite bound
    # alike certify nothing
    bound = math.inf if bundle is None else bundle.ultimate_bound
    ub = bound if math.isfinite(bound) else None
    converged = bool(not traj.diverged and tail < tol)
    # an ultimate bound of exactly 0 certifies asymptotic decay, which a
    # finite horizon can only witness up to the convergence tolerance
    respected = None if ub is None else converged if ub == 0.0 else bool(tail <= ub)
    summary = RunSummary(
        seed=master,
        dt=dt_eff,
        method=method,
        t0=signal.t0,
        tf=signal.tf,
        tail_fraction=scenario.simulation.tail_fraction,
        tail_sup_error=tail,
        convergence_tol=tol,
        converged=converged,
        diverged=traj.diverged,
        diverged_at=traj.diverged_at,
        n_events=len(traj.events),
        max_h_norm=traj.max_h_norm,
        ultimate_bound=ub,
        bound_respected=respected,
    )
    return RunResult(trajectory=traj, summary=summary, signal=signal)


@dataclass(eq=False)
class LyapunovTrace:
    """Per-sample certified energy and its theoretical envelope."""

    t: np.ndarray
    v: np.ndarray
    envelope: np.ndarray
    violations: list[tuple[float, float, float]]
    jump_checks: list[tuple[float, float, float, bool]]  # (t, V-, V+, ok)

    @property
    def ok(self) -> bool:
        return not self.violations and all(c[3] for c in self.jump_checks)


def lyapunov_trace(
    traj: Trajectory,
    bundle: CertificateBundle,
    rel_tol: float = 1e-6,
) -> LyapunovTrace:
    """Evaluate V(t) = sqrt(e' P e) along the run and check the decay envelope.

    The envelope combines the worst-case per-switch growth with the common
    decay rate and the settled perturbation/impulse contributions:

      V(t) <= exp(max(N(t), K) ln mu + g (t - t0)) V(t0)
              + settled_flow (1 + sum_m mu^(N-m+1) e^(g (t - t_m)))
              + jump_offset  (    sum_m mu^(N-m)   e^(g (t - t_m)))

    with N(t) the switch count up to t, K the chatter bound, mu the jump
    gain and g the common rate. The bound needs the rate condition on
    every window [tau, t], not only on the suffixes and prefixes that
    validation and the generator check: a long unstable stretch breaks it
    even on a generated signal (the demo practical scenario from a horizon
    of 2000 s on). It is therefore a diagnostic, and violations are
    reported, not raised. Each observed jump is additionally checked
    against V+ <= mu V- + jump_offset.
    """
    mu = bundle.jump_gain
    ln_mu = math.log(mu)
    g = bundle.gamma_common
    k_chatter = bundle.chatter_bound
    switch_times = [ev.t for ev in traj.events]

    all_t: list[np.ndarray] = []
    all_v: list[np.ndarray] = []
    all_env: list[np.ndarray] = []
    violations: list[tuple[float, float, float]] = []
    v0 = None
    # carry = sum_m mu^(i-m) e^(g (t_i - t_m)) over the switches m <= i seen
    # so far, advanced switch to switch: no power of mu is ever formed
    carry = 0.0
    for seg in traj.segments:
        cert = bundle.certificates[seg.mode_id]
        quad = np.einsum("ij,jk,ik->i", seg.errs, cert.P, seg.errs)
        v = np.sqrt(np.maximum(quad, 0.0))
        if v0 is None:
            v0 = float(v[0])
        i = seg.index
        beta = np.exp(max(i, k_chatter) * ln_mu + g * (seg.t - traj.t0)) * v0
        tail = 0.0  # sum_m mu^(i-m) e^(g (t - t_m)) at the segment's sample times
        if i > 0:
            if i > 1:
                carry *= mu * math.exp(g * (switch_times[i - 1] - switch_times[i - 2]))
            carry += 1.0
            tail = carry * np.exp(g * (seg.t - switch_times[i - 1]))
        flow = bundle.settled_flow * (1.0 + mu * tail) if bundle.settled_flow > 0.0 else 0.0
        imp = bundle.jump_offset * tail if bundle.jump_offset > 0.0 else 0.0
        env = beta + flow + imp
        bad = v > env * (1.0 + rel_tol) + 1e-12
        for idx in np.nonzero(bad)[0]:
            violations.append((float(seg.t[idx]), float(v[idx]), float(env[idx])))
        all_t.append(seg.t)
        all_v.append(v)
        all_env.append(env)

    jump_checks = []
    for ev in traj.events:
        pre_cert = bundle.certificates[ev.mode_before]
        post_cert = bundle.certificates[ev.mode_after]
        v_pre = math.sqrt(max(float(ev.pre_err @ pre_cert.P @ ev.pre_err), 0.0))
        v_post = math.sqrt(max(float(ev.post_err @ post_cert.P @ ev.post_err), 0.0))
        ok = v_post <= mu * v_pre + bundle.jump_offset + rel_tol * (1.0 + v_pre) + 1e-12
        jump_checks.append((ev.t, v_pre, v_post, ok))

    return LyapunovTrace(
        t=np.concatenate(all_t),
        v=np.concatenate(all_v),
        envelope=np.concatenate(all_env),
        violations=violations,
        jump_checks=jump_checks,
    )


def export_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the sampled run as CSV.

    Columns cover the largest agent count seen; rows for smaller modes leave
    the missing agents blank. Boundary times appear twice, once pre-jump in
    the outgoing mode and once post-jump in the incoming one.
    """
    n_max = traj.max_agents()
    p = traj.p
    cols = ["t", "mode", "agent_count"]
    for i in range(n_max + 1):
        for d in range(p):
            cols.append(f"xi_agent{i}_dim{d}")
    for i in range(1, n_max + 1):
        for d in range(p):
            cols.append(f"err_agent{i}_dim{d}")
    width_x, width_e = (n_max + 1) * p, n_max * p
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for seg in traj.segments:
            states = seg.states
            n_x, n_e = states.shape[1], seg.errs.shape[1]
            # one %-template per segment: mode, agent count and padding fixed
            fields = ["%.17g", str(seg.mode_id), str(n_e // p)]
            fields += ["%.17g"] * n_x + [""] * (width_x - n_x)
            fields += ["%.17g"] * n_e + [""] * (width_e - n_e)
            row = ",".join(fields) + "\n"
            for a in range(0, len(seg.t), _CSV_BLOCK_ROWS):
                b = a + _CSV_BLOCK_ROWS
                block = np.column_stack((seg.t[a:b], states[a:b], seg.errs[a:b]))
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def export_events_csv(traj: Trajectory, path: str) -> None:
    cols = [
        "k", "t", "mode_before", "mode_after", "n_before", "n_after",
        "pre_err_norm", "post_err_norm", "impulse_norm",
    ]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for ev in traj.events:
            fh.write(
                ",".join(
                    [
                        str(ev.index),
                        f"{ev.t:.17g}",
                        str(ev.mode_before),
                        str(ev.mode_after),
                        str(ev.n_before),
                        str(ev.n_after),
                        f"{ev.pre_err_norm:.17g}",
                        f"{ev.post_err_norm:.17g}",
                        f"{ev.impulse_norm:.17g}",
                    ]
                )
                + "\n"
            )
