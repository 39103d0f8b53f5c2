"""Hybrid integration of the dimension-varying closed loop.

A run steps the stacked tracking errors alone: within a segment they flow
linearly by the mode's A_err plus the forcing, and at boundaries the
transition map relabels them and injects impulses. The leader never jumps
and flows by the A every mode shares, so it is laid out in closed form,
exact under either integrator. Agent states are rebuilt as leader + error
only for output: the errors never suffer the cancellation of differencing a
growing leader, nor its overflow.

Two integrators step the errors: exact matrix-exponential propagation of a
piecewise-linear forcing interpolant on the fixed grid, and classical
fixed-step RK4 fed the same forcing samples. They agree to high accuracy by
construction, which is exploited as a cross-check rather than trusting
either alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, groupby
from typing import TYPE_CHECKING

import numpy as np

from .certificate import CertificateBundle
from .errors import ConfigError
from .floattext import _csv_block
from .mode_dynamics import ModeMatrix
from .seeding import STREAM_PERTURBATION, STREAM_PERTURBATION_PAST, KeyedRows
from .switching import SwitchingSignal
from .transition import apply_error_jump

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

DEFAULT_DT = 1e-3
_GRID_EPS = 1e-9
_FULL_RETENTION_HORIZON = 100.0  # seconds of horizon kept at full resolution
_CHUNK_STEPS = 1000  # steps whose forcing is built and checked at once
# the most values one block of a CSV renders at once: its temporaries peak
# near 220 bytes a value, 1.8 MB a block
_CSV_BLOCK_VALUES = 2**13
# 1/k!, the Taylor coefficients of the phi-functions in _propagator_stack
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(20))
# the most bytes the E, Phi1 and Phi2 of one stacked build of step matrices
# take (one step length when its own are larger), so that what a run builds
# ahead of use stays small next to its states
_STACK_BYTES = 64 * 2**10
# the bound a leap over a gap of steps keeps its states under; 2^23 below
# overflow, so that no step inside the gap can overflow either
_LEAP_LIMIT = 2.0**1000
# 0 .. _CHUNK_STEPS: offset by a chunk's first step, the step indices of its grid
_STEP_INDEX = np.arange(_CHUNK_STEPS + 1)
# the step a window's first row is at, before its first step
_FIRST_STEP = np.zeros(1, dtype=np.int64)

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
        for name in ("bound", "frequency", "hold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"perturbation {name} must be finite, got {getattr(self, name)}")
        if self.amplitude is not None and not all(math.isfinite(a) for a in self.amplitude):
            raise ConfigError(f"perturbation amplitude must be finite, got {self.amplitude}")
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

    @property
    def vanishes(self) -> bool:
        """Whether the forcing is identically zero, so that sample returns None."""
        return self.kind == "zero" or self.bound == 0.0

    def _tiled(self, n_agents: int, p: int) -> np.ndarray:
        amp = np.asarray(self.amplitude, dtype=float)
        if amp.shape != (p,):
            raise ConfigError(f"amplitude has shape {amp.shape}, expected ({p},)")
        v = np.tile(amp, n_agents)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not math.isfinite(norm):
            raise ConfigError(
                f"perturbation.amplitude: its norm tiled over {n_agents} agents overflows"
            )
        if norm > self.bound and norm > 0.0:
            v *= self.bound / norm
        return v

    def sample(
        self, times: np.ndarray, n_agents: int, p: int, draws: ForcingDraws | None = None
    ) -> np.ndarray | None:
        """The forcing at every time of a grid, as one (len(times), n_agents * p) array.

        Returns None when the perturbation is identically zero. Row i
        depends on times[i] alone, so any split of a grid into chunks gives
        the same rows. The random kind's hold k is row k of the keyed stream
        (seed, STREAM_PERTURBATION, (dim,)); a hold before t = 0 is row
        ~k = -k - 1 of STREAM_PERTURBATION_PAST, so that its key never
        meets that of a hold k >= 0 and no negation overflows. A hold row
        takes its normals and then a uniform, so its block is drawn whole:
        all its normals, then all its uniforms (KeyedRows.ball_block). draws,
        a run's ForcingDraws, keeps the last block of each stream the run
        read, so that the run draws each block once, and records the
        largest forcing norm it samples.

        A grid the forcing cannot be told on raises ConfigError naming the
        field at fault: a non-finite phase 2 pi f t, a hold index past the
        int64 range (a hold too short for the horizon), or an amplitude
        whose norm tiled over the agents overflows.
        """
        if self.vanishes:
            return None
        times = np.asarray(times, dtype=float)
        dim = n_agents * p
        if self.kind == "constant":
            v = self._tiled(n_agents, p)
            if draws is not None:
                draws.record(float(np.linalg.norm(v)))
            return np.broadcast_to(v, (len(times), dim))
        if self.kind == "sinusoidal":
            # math.sin per point: np.sin may round differently in the last bit
            w = 2.0 * math.pi * self.frequency
            # |w t| grows with |t|, so the largest |t| has the largest phase
            if not math.isfinite(w * float(np.abs(times).max(initial=0.0))):
                raise ConfigError(
                    f"perturbation.frequency: the phase 2 pi f t of f = {self.frequency} "
                    f"is not finite on [{times.min()}, {times.max()}]"
                )
            s = np.array([math.sin(w * t) for t in times.tolist()])
            v = self._tiled(n_agents, p)
            if draws is not None:
                draws.record(float(np.linalg.norm(v)) * float(np.abs(s).max(initial=0.0)))
            return v * s[:, None]
        with np.errstate(over="ignore"):
            k = np.floor(times / self.hold + _GRID_EPS)
        if not ((k >= -(2.0**63)).all() and (k < 2.0**63).all()):
            raise ConfigError(
                f"perturbation.hold: {self.hold} is too short for the horizon: "
                f"the hold index of t in [{times.min()}, {times.max()}] leaves the int64 range"
            )
        holds, which = np.unique(k.astype(np.int64), return_inverse=True)
        past = holds < 0
        rows = np.where(past, ~holds, holds)
        streams = [KeyedRows(self.seed or 0, stream, (dim,))
                   for stream in (STREAM_PERTURBATION, STREAM_PERTURBATION_PAST)]
        per = streams[0].block
        block = rows // per
        forcing = np.empty((len(holds), dim))
        radii = np.empty(len(holds))
        # blocks in time order, as draws keeps only the last of each stream
        for is_past, b in dict.fromkeys(zip(past.tolist(), block.tolist())):
            mine = (past == is_past) & (block == b)
            points, radius = self._hold_block(streams[is_past], b, draws)
            forcing[mine] = points[rows[mine] % per]
            radii[mine] = radius[rows[mine] % per]
        if draws is not None:
            draws.record(float(radii.max()))
        return forcing[which]

    def _hold_block(
        self, stream: KeyedRows, b: int, draws: ForcingDraws | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(points, radii) of block b of a stream of holds, from draws when
        it keeps that block, else drawn and, with draws, kept there in place
        of the stream's block before it."""
        kept = None if draws is None else draws.blocks.get(stream)
        if kept is not None and kept[0] == b:
            return kept[1]
        drawn = stream.ball_block(b, self.bound)
        if draws is not None:
            draws.blocks[stream] = (b, drawn)
        return drawn


@dataclass(eq=False)
class ForcingDraws:
    """What one run draws of its forcing.

    blocks keeps, per stream of holds (before t = 0 or not, and of one
    dimension), the last block the run read as (block index, (points,
    radii)): a run's times only grow, so it never reads an earlier block
    again, and each block it reads is drawn once. norm is the largest
    forcing norm of the run's samples: of the random kind the largest
    radius bound u^(1/dim) over the holds it read, at most the bound by
    construction.
    """

    blocks: dict[KeyedRows, tuple[int, tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict
    )
    norm: float = 0.0

    def record(self, norm: float) -> None:
        self.norm = max(self.norm, norm)


@dataclass(eq=False)
class SegmentTrace:
    """The kept samples of one window: t, leader and errs are views into the
    window's rows of its Trajectory."""

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
        rows, p = self.leader.shape
        agents = self.errs.reshape(rows, self.n_agents, p) + self.leader[:, None, :]
        return np.concatenate((self.leader, agents.reshape(rows, -1)), axis=1)


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

    # each the 2-norm np.linalg.norm takes of a vector, sqrt(e.e), bit for
    # bit, without its argument handling: events.csv takes two per event
    @property
    def pre_err_norm(self) -> float:
        return math.sqrt(self.pre_err.dot(self.pre_err))

    @property
    def post_err_norm(self) -> float:
        return math.sqrt(self.post_err.dot(self.post_err))


@dataclass(eq=False)
class Trajectory:
    """A run's kept samples, window after window, as one set of rows.

    Row r is the sample at time t[r], in mode mode[r] with count[r] agents:
    z[r] holds the leader (its first p entries), then the count[r] agents'
    errors, then zeros up to the widest mode of the run. Window i's rows
    run from starts[i] up to the next window's first row.
    """

    p: int
    t0: float
    tf: float
    t: np.ndarray       # (rows,)
    mode: np.ndarray    # (rows,) mode ids
    count: np.ndarray   # (rows,) agent counts
    z: np.ndarray       # (rows, p * (1 + the widest agent count))
    starts: np.ndarray  # (windows,) the first row of each window
    events: list[EventRecord] = field(default_factory=list)
    diverged_at: float | None = None
    max_h_norm: float = 0.0

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    # kept only because the frozen acceptance test and many tests read it;
    # the library reads the rows
    @property
    def segments(self) -> list[SegmentTrace]:
        """Each window's rows as a SegmentTrace of views, made afresh on
        every access."""
        p, out = self.p, []
        starts = self.starts.tolist()
        for i, (a, b) in enumerate(zip(starts, starts[1:] + [len(self.t)])):
            n = int(self.count[a])
            out.append(SegmentTrace(
                i, int(self.mode[a]), n, self.t[a:b], self.z[a:b, :p], self.z[a:b, p : p * (n + 1)]
            ))
        return out

    def max_agents(self) -> int:
        return int(self.count.max())

    def tail_sup_error(self, tail_fraction: float = 0.2) -> float:
        """The largest error norm over the last tail_fraction of the horizon;
        inf for a diverged run, whose non-finite step is not kept."""
        if self.diverged:
            return math.inf
        cutoff = self.tf - tail_fraction * (self.tf - self.t0)
        tail = self.t >= cutoff - _GRID_EPS
        sup = 0.0
        # norms of a huge but finite tail overflow to inf, which is the right answer
        with np.errstate(over="ignore"):
            # the rows of one agent count at once, each row normed over its
            # own errors as a segment's rows are
            for n in np.unique(self.count[tail]).tolist():
                errs = self.z[tail & (self.count == n), self.p : self.p * (n + 1)]
                sup = max(sup, float(np.linalg.norm(errs, axis=1).max()))
        return sup


def _grid(t_start: float, t_end: float, dt: float) -> list[tuple[int, int, float]]:
    """The steps of the window [t_start, t_end] as blocks (first step, end
    step, step length): chunks of at most _CHUNK_STEPS full steps of dt,
    then the remainder step onto t_end. The one layout of a window's steps."""
    span = t_end - t_start
    n_full = int(math.floor(span / dt + _GRID_EPS))
    rem = span - n_full * dt
    blocks = [(a, min(a + _CHUNK_STEPS, n_full), dt) for a in range(0, n_full, _CHUNK_STEPS)]
    # a remainder within rounding of a full step is none; a short segment is one step
    if rem > 0.0 and not (n_full > 0 and rem < dt * 1e-9):
        blocks.append((n_full, n_full + 1, rem))
    return blocks


def _propagator_stack(
    M: np.ndarray, steps: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = e^(M h), Phi1 = h phi1(M h) and Phi2 = h^2 phi2(M h) for each h
    of steps, as three (len(steps), n, n) stacks in the order of steps.

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

    The steps that share s and m are worked as one stack: every product is
    a stacked matmul, which multiplies each matrix of a stack by itself, so
    each step's three matrices have the bits of a stack of that step alone.
    """
    n = M.shape[0]
    h = np.asarray(steps, dtype=float)
    Y = M * h[:, None, None]  # X = M h, scaled to Y in place below
    f, e = np.frexp(np.abs(Y).sum(axis=1).max(axis=1))  # ||X||_1 of each step
    s = np.maximum(0, e + (f > 0.5))  # the least s >= 0 with ||X||_1 / 2^s <= 1/2
    Y /= np.ldexp(1.0, s)[:, None, None]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, y in enumerate(np.ldexp(f, e - s).tolist()):  # ||Y||_1, exactly
        m = 1
        while y ** (m + 1) * math.exp(y) * _INV_FACTORIAL[m + 3] > 2.0**-54:
            m += 1
        groups.setdefault((int(s[i]), m), []).append(i)
    out = None
    d = np.arange(n)  # the diagonal of each matrix of a stack
    for (s_k, m), idx in groups.items():
        whole = len(idx) == len(h)  # one group: no copy in, none out
        Yk = Y if whole else Y[idx]
        # Horner from the inside out: phi2 = 1/2! + Y (1/3! + ... + Y (1/(m+2)!))
        phi2 = Yk * _INV_FACTORIAL[m + 2]
        for k in range(m - 1, 0, -1):
            phi2[:, d, d] += _INV_FACTORIAL[k + 2]
            phi2 = Yk @ phi2
        phi2[:, d, d] += _INV_FACTORIAL[2]
        phi1 = Yk @ phi2
        phi1[:, d, d] += 1.0
        E = Yk @ phi1
        E[:, d, d] += 1.0
        for _ in range(s_k):
            phi2 = 0.25 * (E @ phi2 + phi2 + phi1)
            phi1 = 0.5 * (E @ phi1 + phi1)
            E = E @ E
        hk = h[idx][:, None, None]
        group = (E, hk * phi1, (hk * hk) * phi2)
        if whole:
            return group
        if out is None:
            out = tuple(np.empty_like(Y) for _ in range(3))
        for stack, part in zip(out, group):
            stack[idx] = part
    return out


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


def _step_matrix_stack(
    M: np.ndarray, steps: list[float], method: str
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(E, A0, A1) with one step x' = E x + A0 f0 + A1 f1 of x' = M x + f,
    for each step length of steps.

    f0 and f1 are the forcing at the two ends of the step. exact: A0 = Phi1
    - Phi2 / step and A1 = Phi2 / step integrate the linear interpolant in
    closed form, from one _propagator_stack of all the steps. rk4: the stage
    formula applied to identity blocks, step by step.
    """
    if method == "exact":
        E, Phi1, Phi2 = _propagator_stack(M, steps)
        A1 = Phi2 / np.asarray(steps, dtype=float)[:, None, None]
        A0 = Phi1 - A1
        if len(steps) == 1:
            return [(E[0], A0[0], A1[0])]
        # each step's matrices apart, so that the stack dies with the build
        # and each lives as long as its own key
        return [(E[i].copy(), A0[i].copy(), A1[i].copy()) for i in range(len(steps))]
    eye = np.eye(M.shape[0])
    zero = np.zeros_like(eye)
    return [
        (
            _rk4_step(M, step, eye, 0.0, 0.0),
            _rk4_step(M, step, zero, eye, 0.0),
            _rk4_step(M, step, zero, 0.0, eye),
        )
        for step in steps
    ]


def _power_table(E: np.ndarray, stride: int) -> tuple[dict[int, np.ndarray], float]:
    """E^g for g = 1, 2, 4, ... up to stride and for g = stride, the gap
    between most kept states, keyed by g: E^g for any other gap g below
    stride is the product of those of g's binary digits (_factors). So the
    table holds about log2(stride) matrices and costs about as many
    products, whatever the stride.

    Its reach, max(1, ||E||) prod_k max(1, ||E^(2^k)||) in the infinity
    norm, bounds per unit of start state and forcing every state and every
    partial sum that up to stride steps of E form. A power that overflows
    makes the reach inf or the states of a leap by it non-finite: a check
    of the reach refuses either.
    """
    powers = {1: E}
    g = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while 2 * g <= stride:
            powers[2 * g] = powers[g] @ powers[g]
            g *= 2
        norms = [np.abs(P).sum(axis=1).max() for P in powers.values()]
        reach = max(1.0, norms[0]) * math.prod(max(1.0, v) for v in norms)
        if stride not in powers:
            powers[stride] = functools.reduce(np.matmul, _factors(powers, stride))
    return powers, reach


def _factors(powers: dict[int, np.ndarray], g: int) -> list[np.ndarray]:
    """Matrices of a _power_table whose product is E^g."""
    if g in powers:
        return [powers[g]]
    return [powers[1 << i] for i in range(g.bit_length()) if g >> i & 1]


def _gap_sums(E: np.ndarray, G: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Row k is sum_(j < g) E^(g-1-j) G_j over the g = gaps[k] rows of G that
    gap k spans (the gaps tile G in order): what its steps add to the
    state. Horner's rule takes every gap at once, each right-aligned in as
    many slots as the longest gap has, the slots before it zero."""
    g = int(gaps.max())
    ends = np.cumsum(gaps)[:, None]
    idx = ends - g + np.arange(g)
    inside = (idx >= ends - gaps[:, None])[:, :, None]
    slots = np.where(inside, G[np.maximum(idx, 0)], 0.0)
    S = slots[:, 0]
    for j in range(1, g):
        S = S @ E.T + slots[:, j]
    return S


def _leap(
    powers: dict[int, np.ndarray],
    x: np.ndarray,
    G: np.ndarray | None,
    runs: list[tuple[int, int]],
) -> np.ndarray:
    """The state after each gap of a chunk of steps, x being the state
    before it: runs lists the gaps in order as (g, count), count gaps of g
    steps each, and G has a row per step of the chunk. Each state comes from
    the one before by x <- E^g x + sum_(j < g) E^(g-1-j) G_j, with E^g x
    formed by the _factors of powers (a _power_table of E) one after
    another. At a gap of one step that is E x plus the step's row of G,
    computed in place in the row of the result: the one state update of a
    run, whatever its stride.

    Nothing here checks a state: overflow is for the caller to find.
    """
    n = sum(count for _, count in runs)
    out = np.empty((n, len(x)))
    S = G
    if G is not None and n < len(G):
        gaps = np.repeat([g for g, _ in runs], [count for _, count in runs])
        S = _gap_sums(powers[1], G, gaps)
    y = x
    k = 0
    for g, count in runs:
        *inner, last = _factors(powers, g)
        for row in out[k : k + count]:
            for P in inner:
                y = P @ y
            np.dot(last, y, out=row)
            if S is not None:
                row += S[k]
            y = row
            k += 1
    return out


# memoised: every window that repeats a block shares its layout, and no
# caller changes one
@functools.lru_cache(maxsize=1024)
def _block_layout(
    a: int, b: int, last: int, stride: int
) -> tuple[list[tuple[int, int]], int, np.ndarray]:
    """(runs, gap, kept) of the block of steps a+1 .. b of a window whose
    last step is last. kept are the steps the block keeps: every stride-th
    step of the window and the window's last, the one rule for which rows a
    run keeps. runs are the gaps _leap takes from the state before the block
    to each kept step, then on to b, as runs (gap, count), and gap is the
    longest of them."""
    kept = np.arange(a - a % stride + stride, b + 1, stride)
    if b == last and b % stride:
        kept = np.append(kept, b)
    kept.flags.writeable = False
    gaps = np.diff(kept, prepend=a, append=b).tolist()
    runs = [(g, len(list(same))) for g, same in groupby(gaps) if g]
    return runs, max(g for g, _ in runs), kept


@dataclass(eq=False)
class _Windows:
    """The layout of a run, made before its first step: what each window
    steps, which step matrices are built before it and dropped after it,
    and the run's rows its samples go in."""

    spans: list[tuple[float, float]]
    # per window, its _grid blocks as (a, b, step, *_block_layout)
    blocks: list[list[tuple]]
    # window -> (mode, step lengths) built as one stack before it steps
    builds: dict[int, list[tuple[int, list[float]]]]
    # window -> the (mode, step length) keys no later window steps by
    drops: dict[int, list[tuple[int, float]]]
    # the run's rows: all but the errors filled, and those to be stepped
    trajectory: Trajectory


def _lay_out(
    matrices: dict[int, ModeMatrix], signal: SwitchingSignal, dt: float, stride: int,
    leader: np.ndarray,
) -> _Windows:
    """The _Windows of a run of signal at step dt from leader at t0, keeping
    every stride-th step of each window, its first state and its last."""
    modes = [seg.mode for seg in signal.segments]
    # window 0 starts at t0, which check_layout lets the first segment's
    # start miss by rounding
    starts = [signal.t0] + [seg.start for seg in signal.segments[1:]]
    spans = list(zip(starts, starts[1:] + [signal.tf]))
    # step matrices are kept per (mode, exact step length) -- the method is
    # the run's -- from the first window that steps by them to the last; a
    # window's rows are its start, at step 0, then the steps its blocks keep
    blocks, kept = [], []
    first_use: dict[tuple[int, float], int] = {}
    last_use: dict[tuple[int, float], int] = {}
    for i, (mode, span) in enumerate(zip(modes, spans)):
        grid = _grid(*span, dt)
        last = grid[-1][1]
        lay = [(a, b, step, *_block_layout(a, b, last, stride)) for a, b, step in grid]
        blocks.append(lay)
        kept += [_FIRST_STEP] + [block[-1] for block in lay]
        # every block but the last steps by dt
        for key in dict.fromkeys([(mode, grid[0][2]), (mode, grid[-1][2])]):
            first_use.setdefault(key, i)
            last_use[key] = i

    # each mode's step lengths, in the order of first use, are built in
    # batches of as many as fit _STACK_BYTES, each before the window that
    # first steps by its first length
    lengths: dict[int, list[float]] = {}
    for mode, step in first_use:
        lengths.setdefault(mode, []).append(step)
    p = matrices[modes[0]].p
    builds: dict[int, list[tuple[int, list[float]]]] = {}
    for mode, steps in lengths.items():
        dim = p * matrices[mode].n_agents
        take = max(1, _STACK_BYTES // (3 * 8 * dim * dim))
        for j in range(0, len(steps), take):
            builds.setdefault(first_use[mode, steps[j]], []).append((mode, steps[j : j + take]))
    drops: dict[int, list[tuple[int, float]]] = {}
    for key, i in last_use.items():
        drops.setdefault(i, []).append(key)

    k = np.concatenate(kept)
    firsts = np.flatnonzero(k == 0)  # no block keeps step 0
    window = np.cumsum(k == 0) - 1
    # step k ends at t_start + k dt, and a window's last step on its end,
    # whether it is a remainder step or a full one whose remainder _grid
    # dropped as rounding
    t = np.array(starts)[window] + k * dt
    lasts = np.append(firsts[1:], len(k)) - 1  # each window's last row
    t[lasts] = [end for _, end in spans]
    counts = [matrices[mode].n_agents for mode in modes]
    traj = Trajectory(
        p, signal.t0, signal.tf,
        t=t,
        mode=np.array(modes)[window],
        count=np.array(counts)[window],
        z=np.zeros((len(t), p * (1 + max(counts)))),
        starts=firsts,
    )
    # the leader never jumps and every mode shares A: window i starts at
    # L_i = e^(A span_(i-1)) L_(i-1), its j-th kept step is (e^(A stride
    # dt))^j L_i and its last row L_(i+1). No error reads it or its overflow
    with np.errstate(over="ignore", invalid="ignore"):
        E = _propagator_stack(matrices[modes[0]].A, [stride * dt, *(b - a for a, b in spans)])[0]
        L = np.array(list(accumulate(E[1:], lambda lead, e: e @ lead, initial=leader)))
        T = np.stack((np.eye(p), E[0]))  # (e^(A stride dt))^j in row j, by doubling
        while len(T) <= k.max() // stride:
            T = np.concatenate((T, T[-1] @ T[1:]))
        traj.z[:, :p] = np.einsum("rij,rj->ri", T[k // stride], L[window])
        traj.z[lasts, :p] = L[1:]
    return _Windows(spans, blocks, builds, drops, traj)


# perfbench/tracing.py times this and PerturbationModel.sample by name, and
# counts steps from t_span and dt as the 4th and 5th positional arguments
def integrate_segment(
    mode: ModeMatrix,
    rows: np.ndarray,
    h: PerturbationModel,
    t_span: tuple[float, float],
    dt: float,
    blocks: list[tuple],
    steps: dict[float, tuple],
    draws: ForcingDraws | None = None,
) -> tuple[int, float | None]:
    """Step the tracking errors over one constant-mode window of run_switched.

    rows are the window's error columns of the run's Trajectory, rows[0] its
    checked start state; blocks are its _grid blocks with their
    _block_layout, as _lay_out gives them; steps maps each of their step
    lengths to its (A0, A1, powers, reach), a _power_table of its E. Each
    block forms its kept states and its own last state, by _leap over the
    gaps between them, and writes the kept ones into rows in order. A block
    with a gap of several steps whose reach, by the table, exceeds
    _LEAP_LIMIT may overflow inside a gap: it is formed again one step at a
    time, so that its first non-finite step is found. The forcing of each
    block is sampled through draws, the run's ForcingDraws. Returns the
    count of rows written and the time of the first non-finite step (None
    when there is none).

    It steps under its caller's np.errstate: run_switched ignores overflow
    and invalid operations, which a diverging run is expected to make and
    reports through diverged_at.
    """
    t_start, t_end = t_span
    p, n = mode.p, mode.n_agents
    x = rows[0]
    r = 1
    G = None
    for a, b, step, runs, gap, kept in blocks:
        A0, A1, powers, reach = steps[step]
        if not h.vanishes:
            if step == dt:
                t_grid = t_start + (a + _STEP_INDEX[: b - a + 1]) * dt
            else:
                t_grid = np.array([t_start + a * dt, t_end])
            F = h.sample(t_grid, n, p, draws)
            G = F[:-1] @ A0.T + F[1:] @ A1.T
        out = _leap(powers, x, G, runs)
        if gap > 1:
            gmax = 0.0 if G is None else np.abs(G).max()
            # by the reach from the largest start; a NaN fails it. The
            # rows of a leap are the block's kept states, then its last
            if reach * (np.abs(x).max() + np.abs(out).max() + gap * gmax) <= _LEAP_LIMIT:
                rows[r : r + len(kept)] = out[: len(kept)]
                r += len(kept)
                x = out[-1]
                continue
            out = _leap({1: powers[1]}, x, G, [(1, b - a)])
        # a row per step, step k in row k - a - 1: the kept ones are
        # written, up to the first non-finite step
        if not np.isfinite(out).all():
            bad = a + 1 + int(np.argmin(np.isfinite(out).all(axis=1)))
            kept = kept[kept < bad]
            rows[r : r + len(kept)] = out[kept - (a + 1)]
            diverged_at = t_start + bad * dt if step == dt else t_end
            return r + len(kept), diverged_at
        rows[r : r + len(kept)] = out if len(kept) == len(out) else out[kept - (a + 1)]
        r += len(kept)
        x = out[-1]
    return r, None


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
    leader_overflow_at: float | None
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

    x0 is the stacked (leader, errors) vector at signal.t0, and every mode
    shares A. The run steps the errors alone, by each mode's A_err and the
    forcing, and each jump acts on them. The leader, which flows by A and
    never jumps, is laid out in closed form: exact under both methods. It
    may overflow on a long horizon; no error, and so no divergence, reads it.

    Both methods sample the forcing only at grid points and treat it as
    piecewise-linear between samples. method "exact" integrates that
    interpolant in closed form (E = e^(M h), h phi1(M h) and h^2 phi2(M h)
    of the phi-functions, so the flow is exact and the forcing exact for
    the interpolant); "rk4" is the classical fixed-step scheme fed the same
    interpolant. Their difference is then purely the RK4 flow truncation of
    the errors, O(dt^4) globally, which is what the cross-check relies on.

    Either method is one linear step x' = E x + A0 f0 + A1 f1, applied in
    chunks of steps whose forcing terms are computed at once; _grid, the
    one layout of a segment's steps, gives the chunks and the remainder
    step, and the step matrices are keyed by their lengths. Every
    sample_stride-th step and each segment's last are kept; None picks the
    stride from the horizon (1 up to a horizon of 100 s, ceil(horizon /
    100) beyond it). One routine, _leap, forms every error state: the kept
    ones and each chunk's last, each from the one before over the gap
    between them. Above a stride of 1 each mode's E by dt gets a
    _power_table of its binary powers up to the stride; every other step is
    taken one at a time. At a stride of 1 every gap is one step and each
    state has the bits of stepping; above it states in between are never
    computed, and the kept ones carry a rounding error that grows roughly
    with the gap (over 1,998 steps of a non-normal mode, 1.6e-12 of the
    largest state, where stepping's own was 4.7e-14).

    Step matrices are built when a segment first needs them, together with
    the next step lengths of the same mode the run will need, as one stack
    of at most _STACK_BYTES (_step_matrix_stack; every matrix has the bits
    of its own build), and are dropped after the last segment that steps
    by them.

    The whole run is laid out before its first step (_lay_out): each
    window's blocks with their gap runs and kept steps, the builds and
    drops of step matrices, and the run's preallocated Trajectory, whose
    times, modes, agent counts and leader are filled in arrays. Each window
    then steps straight into its error columns, and the Trajectory returned
    is cut after the last row and window stepped.

    The run stops (diverged_at set) at the first step with a non-finite
    error, which is not kept, or at a switching instant whose jump leaves
    a non-finite error, which is then not recorded as an event.
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
    x = np.asarray(x0, dtype=float)
    dim = p * (matrices[signal.segments[0].mode].n_agents + 1)
    if x.shape != (dim,):  # the lay-out reads the leader from x0
        raise ConfigError(f"state has shape {x.shape}, expected ({dim},)")
    lay = _lay_out(matrices, signal, dt, sample_stride, x[:p])
    traj = lay.trajectory
    z, events = traj.z, traj.events
    bounds = traj.starts.tolist() + [len(traj.t)]
    steps: dict[int, dict[float, tuple]] = {seg.mode: {} for seg in signal.segments}
    draws = ForcingDraws()
    err = x[p:]
    # overflow while stepping or at a jump is a divergence, which the run
    # reports through diverged_at and keeps no non-finite state of; a build
    # of step matrices keeps the caller's error handling
    caller = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        for i, seg in enumerate(signal.segments):
            mm = matrices[seg.mode]
            dim = p * (mm.n_agents + 1)
            if p + len(err) != dim:  # a jump's agent count against its mode's
                raise ConfigError(f"state has shape ({p + len(err)},), expected ({dim},)")
            r0, r1 = bounds[i], bounds[i + 1]
            z[r0, p:dim] = err
            for mode, batch in lay.builds.get(i, ()):
                with np.errstate(**caller):
                    built = _step_matrix_stack(matrices[mode].A_err, batch, method)
                for step, (E, A0, A1) in zip(batch, built):
                    # only the dt step has gaps of several steps, and only
                    # above a stride of 1; E alone needs no reach
                    tabled = ({1: E}, None)
                    if step == dt and sample_stride > 1:
                        tabled = _power_table(E, sample_stride)
                    steps[mode][step] = (A0, A1, *tabled)
                # no name may keep a key alive after steps drops it
                del built, E, A0, A1, tabled
            span = lay.spans[i]
            end, diverged_at = integrate_segment(
                mm, z[r0:r1, p:dim], perturbation, span, dt, lay.blocks[i], steps[seg.mode],
                draws,
            )
            for mode, step in lay.drops.get(i, ()):
                del steps[mode][step]
            end += r0
            if diverged_at is not None:
                traj.diverged_at = diverged_at
                break
            if i < len(signal.events):
                ev = signal.events[i]
                pre_err = z[end - 1, p:dim]
                err = apply_error_jump(ev, pre_err)
                if not np.isfinite(err).all():
                    traj.diverged_at = span[1]
                    break
                events.append(EventRecord(
                    i + 1, span[1], ev.mode_before, ev.mode_after, ev.n_before, ev.n_after,
                    pre_err, err, ev.impulse_norm,
                ))
    # the rows and windows it stepped
    return replace(traj, t=traj.t[:end], mode=traj.mode[:end], count=traj.count[:end],
                   z=z[:end], starts=traj.starts[: i + 1], max_h_norm=draws.norm)


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
    lead = np.isfinite(traj.z[:, : traj.p]).all(axis=1)
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
        leader_overflow_at=None if lead.all() else float(traj.t[lead.argmin()]),
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

    The trace reads the run's rows: V of each mode's rows at once, and the
    envelope of every row in array operations.
    """
    mu = bundle.jump_gain
    g = bundle.gamma_common
    t, starts = traj.t, traj.starts
    switch_times = [ev.t for ev in traj.events]
    # each row's window, and each window's start: t0, then its switch
    rows = np.diff(starts, append=len(t))
    win = np.repeat(np.arange(len(starts)), rows)
    window_start = np.array([traj.t0, *switch_times])

    # a mode fixes its agent count, so the rows of one mode are one block
    # of errors, all normed by that mode's P
    v = np.empty(len(t))
    for mode, n in dict(zip(traj.mode[starts].tolist(), traj.count[starts].tolist())).items():
        ours = traj.mode == mode
        errs = traj.z[ours, traj.p : traj.p * (n + 1)]
        quad = np.einsum("ij,jk,ik->i", errs, bundle.certificates[mode].P, errs)
        v[ours] = np.sqrt(np.maximum(quad, 0.0))

    beta = np.exp(np.maximum(win, bundle.chatter_bound) * math.log(mu) + g * (t - traj.t0)) * v[0]
    # carry[i] = sum_m mu^(i-m) e^(g (t_i - t_m)) over the switches m <= i,
    # advanced switch to switch: no power of mu is ever formed
    gains = [mu * math.exp(g * (b - a)) for a, b in zip(switch_times, switch_times[1:])]
    carry = np.array([0.0, *accumulate(gains, lambda c, gain: c * gain + 1.0, initial=1.0)])
    # sum_m mu^(i-m) e^(g (t - t_m)) at each row, exactly 0 in the first window
    tail = np.zeros(len(t))
    later = win[rows[0]:]
    tail[rows[0]:] = carry[later] * np.exp(g * (t[rows[0]:] - window_start[later]))
    flow = bundle.settled_flow * (1.0 + mu * tail) if bundle.settled_flow > 0.0 else 0.0
    imp = bundle.jump_offset * tail if bundle.jump_offset > 0.0 else 0.0
    env = beta + flow + imp
    bad = np.flatnonzero(v > env * (1.0 + rel_tol) + 1e-12)
    violations = list(zip(t[bad].tolist(), v[bad].tolist(), env[bad].tolist()))

    jump_checks = []
    for ev in traj.events:
        pre_cert = bundle.certificates[ev.mode_before]
        post_cert = bundle.certificates[ev.mode_after]
        v_pre = math.sqrt(max(float(ev.pre_err @ pre_cert.P @ ev.pre_err), 0.0))
        v_post = math.sqrt(max(float(ev.post_err @ post_cert.P @ ev.post_err), 0.0))
        ok = v_post <= mu * v_pre + bundle.jump_offset + rel_tol * (1.0 + v_pre) + 1e-12
        jump_checks.append((ev.t, v_pre, v_post, ok))

    return LyapunovTrace(t.copy(), v, env, violations, jump_checks)


def export_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the sampled run as CSV.

    Columns cover the largest agent count seen; rows for smaller modes leave
    the missing agents blank. Boundary times appear twice, once pre-jump in
    the outgoing mode and once post-jump in the incoming one. Rows are
    rendered in blocks of at most _CSV_BLOCK_VALUES fields, each filled from
    the run's rows whatever windows it spans: the agents are the padded
    errors plus the leader, and the columns past a row's agent count are
    blank.
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
    width = 3 + width_x + width_e
    size = max(1, _CSV_BLOCK_VALUES // width)
    grid = np.empty((size, width))
    blank = np.empty((size, width), dtype=bool)
    # the blank columns of a row by its agent count, and the leader's
    # column under each agent's
    blanks = np.zeros((n_max + 1, width), dtype=bool)
    for n in range(n_max + 1):
        blanks[n, 3 + p * (n + 1) : 3 + width_x] = blanks[n, 3 + width_x + p * n :] = True
    lead = np.tile(np.arange(p), n_max)
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for a in range(0, len(traj.t), size):
            b = min(len(traj.t), a + size)
            m = b - a
            z = traj.z[a:b]
            errs = z[:, p : p + width_e]
            grid[:m, 0] = traj.t[a:b]
            grid[:m, 1] = traj.mode[a:b]
            grid[:m, 2] = traj.count[a:b]
            grid[:m, 3 : 3 + p] = z[:, :p]
            np.add(errs, z[:, lead], out=grid[:m, 3 + p : 3 + width_x])
            grid[:m, 3 + width_x :] = errs
            np.take(blanks, traj.count[a:b], axis=0, out=blank[:m])
            fh.write(_csv_block(grid[:m], blank[:m]))


def export_events_csv(traj: Trajectory, path: str) -> None:
    cols = [
        "k", "t", "mode_before", "mode_after", "n_before", "n_after",
        "pre_err_norm", "post_err_norm", "impulse_norm",
    ]
    # the norm of a huge but finite error overflows to inf, the right answer
    with np.errstate(over="ignore"):
        grid = np.array([
            [ev.index, ev.t, ev.mode_before, ev.mode_after, ev.n_before, ev.n_after,
             ev.pre_err_norm, ev.post_err_norm, ev.impulse_norm]
            for ev in traj.events
        ], dtype=float).reshape(-1, len(cols))
    rows = _CSV_BLOCK_VALUES // len(cols)
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for a in range(0, len(grid), rows):
            block = grid[a : a + rows]
            fh.write(_csv_block(block, np.zeros(block.shape, dtype=bool)))
