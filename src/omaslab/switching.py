"""Switching signals, activation ratios and piecewise average dwell time.

A signal is a cadlag, piecewise-constant mode map on [t0, tf] with a
migration event at every interior boundary. Certification constrains every
suffix [t_j, tf] (j = 0 is t0, j = k is the k-th switching instant):

  ratio condition   T_s(t_j,tf) (g_s - g) + T_u(t_j,tf) (g_u - g) <= 0
  dwell condition   adt(t_j,tf) >= -ln(jump_gain) / g

with g the common (negative) comparison rate, g_s / g_u the worst stable /
unstable mode rates, T_s / T_u the stable / unstable activation times, and
adt the piecewise average dwell time. Switches are counted strictly after
t_j: each suffix is treated as a fresh run whose jump at t_j was billed to
the previous suffix.

suffix_sweep computes these quantities for every suffix in one pass; it is
their one definition. sweep_verdict reads both conditions from a sweep, and
a certificate bundle keeps its signal's sweep for that verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .seeding import STREAM_SIGNAL, stream_rng
from .transition import MigrationEvent

_TIME_EPS = 1e-12


@dataclass(frozen=True)
class Segment:
    start: float
    mode: int


def check_layout(t0: float, tf: float, segments: Sequence[Segment]) -> None:
    """Refuse segments that no signal on [t0, tf] can have: none at all, an
    empty horizon, a first start away from t0, starts that do not increase,
    a last start at or after tf, or a boundary that keeps its mode."""
    if not segments:
        raise ConfigError("a signal needs at least one segment")
    if tf <= t0:
        raise ConfigError(f"empty horizon [{t0}, {tf}]")
    if abs(segments[0].start - t0) > _TIME_EPS:
        raise ConfigError("first segment must start at t0")
    starts = [s.start for s in segments]
    if any(b - a <= _TIME_EPS for a, b in zip(starts, starts[1:])):
        raise ConfigError("segment start times must be strictly increasing")
    if starts[-1] >= tf - _TIME_EPS:
        raise ConfigError("last segment starts at or after tf")
    if any(a.mode == b.mode for a, b in zip(segments, segments[1:])):
        raise ConfigError("consecutive segments must switch to a different mode")


@dataclass(frozen=True, eq=False)
class SwitchingSignal:
    """Piecewise-constant mode signal with per-boundary migration events."""

    t0: float
    tf: float
    segments: tuple[Segment, ...]
    events: tuple[MigrationEvent, ...] = ()

    def __post_init__(self) -> None:
        check_layout(self.t0, self.tf, self.segments)
        if len(self.events) != len(self.segments) - 1:
            raise ConfigError(
                f"{len(self.segments) - 1} boundaries but {len(self.events)} events"
            )
        for k, ev in enumerate(self.events, start=1):
            if ev.mode_before != self.segments[k - 1].mode or ev.mode_after != self.segments[k].mode:
                raise ConfigError(
                    f"event {k} maps modes {ev.mode_before}->{ev.mode_after} but the "
                    f"boundary switches {self.segments[k - 1].mode}->{self.segments[k].mode}"
                )
        # segment starts, for switch_times and the suffix sweep
        object.__setattr__(self, "_starts", tuple(s.start for s in self.segments))

    @property
    def switch_times(self) -> tuple[float, ...]:
        return self._starts[1:]

    @property
    def n_switches(self) -> int:
        return len(self.segments) - 1

    def segment_bounds(self, i: int) -> tuple[float, float]:
        end = self.segments[i + 1].start if i + 1 < len(self.segments) else self.tf
        return self.segments[i].start, end


@dataclass(frozen=True, eq=False)
class SuffixSweep:
    """Per-suffix quantities of a signal, as arrays indexed by j = 0..n_switches."""

    start: np.ndarray       # t_j
    t_stable: np.ndarray    # stable activation time over [t_j, tf]
    t_unstable: np.ndarray  # unstable activation time over [t_j, tf]
    adt: np.ndarray         # piecewise average dwell time, inf when unconstrained


def suffix_sweep(
    sig: SwitchingSignal, stable_set: set[int], chatter_bound: float
) -> SuffixSweep:
    """Activation times and average dwell time of every suffix in one pass.

    t_j is t0 for j = 0 and the j-th switching instant for j >= 1. T_s(j)
    and T_u(j) are running sums of the segment lengths taken backwards from
    tf down to segment j. adt(j) is (tf - t_j) / (N_j - chatter_bound), or
    +inf when N_j <= chatter_bound (the suffix is unconstrained), where N_j
    counts the switching instants strictly after t_j: t_k > t_j + _TIME_EPS,
    found by a binary search, so N_j is not always n_switches - j.
    chatter_bound is taken as given; SwitchingBudget checks it.
    """
    seg_starts = np.array(sig._starts, dtype=float)
    start = seg_starts.copy()
    start[0] = sig.t0
    ends = np.append(seg_starts[1:], sig.tf)
    # segment 0 counts from t0, which may lie up to _TIME_EPS either side of its start
    lengths = ends - np.maximum(seg_starts, start)
    stable = np.array([s.mode in stable_set for s in sig.segments])
    t_stable = np.cumsum(np.where(stable, lengths, 0.0)[::-1])[::-1]
    t_unstable = np.cumsum(np.where(stable, 0.0, lengths)[::-1])[::-1]
    n_after = sig.n_switches - np.searchsorted(seg_starts[1:], start + _TIME_EPS, side="right")
    excess = n_after - chatter_bound
    with np.errstate(divide="ignore"):
        adt = np.where(excess > 0, (sig.tf - start) / excess, math.inf)
    return SuffixSweep(start=start, t_stable=t_stable, t_unstable=t_unstable, adt=adt)


@dataclass(frozen=True)
class SwitchingBudget:
    """Certified rates and gains a signal must respect.

    gamma_common in (gamma_stable_max, 0); gamma_unstable_max is None when no
    unstable mode exists (the ratio condition is then vacuous); jump_gain is
    the worst-case energy growth across one switching instant (>= 1). The
    certificate bundle keeps these five values here, checked only here.
    """

    chatter_bound: float
    gamma_common: float
    gamma_stable_max: float
    gamma_unstable_max: float | None
    jump_gain: float

    def __post_init__(self) -> None:
        if self.chatter_bound < 0:
            raise ConfigError(f"chatter_bound must be >= 0, got {self.chatter_bound}")
        if not (self.gamma_stable_max < self.gamma_common < 0.0):
            raise ConfigError(
                f"gamma_common {self.gamma_common} outside the admissible interval "
                f"({self.gamma_stable_max}, 0)"
            )
        if self.gamma_unstable_max is not None and self.gamma_unstable_max < 0.0:
            raise ConfigError(
                f"gamma_unstable_max {self.gamma_unstable_max} must be >= 0"
            )
        if self.jump_gain < 1.0:
            raise ConfigError(f"jump_gain must be >= 1, got {self.jump_gain}")

    @property
    def ratio_floor(self) -> float:
        """Minimum admissible T_s / T_u over any constrained suffix."""
        return ratio_floor_at(self.gamma_stable_max, self.gamma_unstable_max, self.gamma_common)

    @property
    def dwell_floor(self) -> float:
        """Minimum admissible piecewise average dwell time."""
        return dwell_floor_at(self.jump_gain, self.gamma_common)


def ratio_floor_at(g_s: float, g_u: float | None, g):
    """Ratio floor at common rate g, 0 without unstable modes; elementwise
    over an array of rates."""
    return 0.0 if g_u is None else (g_u - g) / (g - g_s)


def dwell_floor_at(jump_gain: float, g):
    """Dwell floor at common rate g; elementwise over an array of rates."""
    return -math.log(jump_gain) / g


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the two switching conditions and the worst suffix of each."""

    ok: bool
    ratio_ok: bool
    adt_ok: bool
    worst_ratio_j: int
    worst_adt_j: int
    ratio_slack_min: float
    adt_slack_min: float


def validate_switching(
    sig: SwitchingSignal,
    budget: SwitchingBudget,
    stable_set: set[int],
    suffixes: str = "all",
) -> ValidationReport:
    """Check the ratio and dwell conditions on suffixes of the signal.

    suffixes = "all" checks every j in {0..n_switches}; "first" checks only
    j = 0, the weaker variant appropriate for the vanishing-perturbation
    (asymptotic) setting. Slacks are signed so that >= 0 means satisfied.
    """
    return sweep_verdict(suffix_sweep(sig, stable_set, budget.chatter_bound), budget, suffixes)


def sweep_verdict(
    sweep: SuffixSweep, budget: SwitchingBudget, suffixes: str = "all"
) -> ValidationReport:
    """validate_switching's verdict, read from a signal's suffix sweep made
    with the budget's chatter bound."""
    if suffixes not in ("all", "first"):
        raise ConfigError(f"suffixes must be 'all' or 'first', got {suffixes!r}")
    g = budget.gamma_common
    g_s = budget.gamma_stable_max
    g_u = budget.gamma_unstable_max
    n = len(sweep.start) if suffixes == "all" else 1
    t_s, t_u = sweep.t_stable[:n], sweep.t_unstable[:n]
    ratio_slack = -(t_s * (g_s - g) + (0.0 if g_u is None else t_u * (g_u - g)))
    adt_slack = sweep.adt[:n] - budget.dwell_floor
    # argmin takes the first of equal minima
    worst_ratio_j = int(np.argmin(ratio_slack))
    worst_adt_j = int(np.argmin(adt_slack))
    ratio_slack_min = float(ratio_slack[worst_ratio_j])
    adt_slack_min = float(adt_slack[worst_adt_j])
    ratio_ok = ratio_slack_min >= 0.0
    adt_ok = adt_slack_min >= 0.0
    return ValidationReport(
        ok=ratio_ok and adt_ok,
        ratio_ok=ratio_ok,
        adt_ok=adt_ok,
        worst_ratio_j=worst_ratio_j,
        worst_adt_j=worst_adt_j,
        ratio_slack_min=ratio_slack_min,
        adt_slack_min=adt_slack_min,
    )


@dataclass(frozen=True)
class SignalGenSpec:
    """Recipe for a compliant signal.

    ratio_floor / dwell_floor are the certified minimums the emitted signal
    must clear; margin is the relative headroom above both (default 5%).
    A seed of None stands for the master seed of the run, which
    Scenario.resolve_signal fills in before generating.
    """

    horizon: float
    stable_modes: tuple[int, ...]
    unstable_modes: tuple[int, ...]
    ratio_floor: float
    dwell_floor: float
    seed: int | None = None
    margin: float = 0.05
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not self.stable_modes:
            raise ConfigError("at least one stable mode is required")
        if self.ratio_floor < 0 or self.dwell_floor < 0:
            raise ConfigError("ratio_floor and dwell_floor must be >= 0")
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")

    def block_sizes(self) -> tuple[float, float, int]:
        """(u, s, n_pairs): the unstable and the stable block lengths
        generate_segments lays down with unstable modes, and its count of
        (stable, unstable) pairs. ConfigError when the horizon holds no pair.
        """
        r = self.ratio_floor * (1.0 + self.margin)
        dwell = self.dwell_floor * (1.0 + self.margin)
        # block sizing: unstable length u, stable companions r*u, pair >= 2*dwell
        u = max(2.0 * dwell / (1.0 + r), 1e-3 * self.horizon)
        s = max(r * u, dwell)  # a lone stable block must itself clear the dwell floor
        pair = u + s
        n_pairs = int(math.floor((self.horizon - s) / pair))
        if n_pairs < 1:
            raise ConfigError(
                f"horizon {self.horizon} too short for one compliant block "
                f"(needs at least {pair + s:.3f})"
            )
        return u, s, n_pairs


def generate_segments(spec: SignalGenSpec) -> tuple[Segment, ...]:
    """The segments of a signal on [t0, t0 + horizon] satisfying both suffix
    conditions with margin.

    Layout: stable lead-in, then alternating (unstable, stable) blocks, the
    stable tail absorbing the slack. Every unstable block of length u is
    preceded and followed by at least ratio * u of stable time, so every
    suffix [t_j, tf] and every prefix window [t0, t] satisfies both
    conditions. That does not make the energy envelope hold pointwise: a
    window that starts and ends inside one unstable block is checked by
    neither condition, and u grows with the horizon (at least 1e-3 of it).
    On the demo practical scenario the envelope and the certified bound
    hold up to a horizon of 1500 s and break from 2000 s on. Unstable modes
    are used round-robin, shuffled once by the seed. Without unstable modes
    the signal is one stable segment.
    """
    if spec.seed is None:
        raise ConfigError("the spec has no seed; give it the run's master seed")
    rng = stream_rng(spec.seed, STREAM_SIGNAL)

    if not spec.unstable_modes:
        return (Segment(start=spec.t0, mode=spec.stable_modes[0]),)

    # the stable tail runs to tf and lasts at least s, since n_pairs is floored
    u, s, n_pairs = spec.block_sizes()

    stable_seq = [spec.stable_modes[i % len(spec.stable_modes)] for i in range(n_pairs + 1)]
    unstable_seq = [spec.unstable_modes[i % len(spec.unstable_modes)] for i in range(n_pairs)]
    rng.shuffle(unstable_seq)

    segments = []
    t = spec.t0
    for i in range(n_pairs):
        segments.append(Segment(start=t, mode=stable_seq[i]))
        t += s
        segments.append(Segment(start=t, mode=unstable_seq[i]))
        t += u
    segments.append(Segment(start=t, mode=stable_seq[n_pairs]))
    return tuple(segments)


def brute_force_suffix_scan(
    sig: SwitchingSignal,
    budget: SwitchingBudget,
    stable_set: set[int],
) -> bool:
    """Reference implementation of validate_switching's verdict.

    Recounts every suffix from scratch by direct interval arithmetic, in time
    quadratic in the switch count. A suffix fails, as in the validator, when
    its adt is below the dwell floor or its ratio left side is positive. It
    is an independent oracle for the tests (the acceptance suite imports it
    from this module); no command uses it.
    """
    starts = [sig.t0, *sig.switch_times]
    boundaries = [*starts[1:], sig.tf]
    for j, tj in enumerate(starts):
        n = 0
        for tk in starts[1:]:
            if tk > tj + _TIME_EPS:
                n += 1
        if n <= budget.chatter_bound:
            adt = math.inf
        else:
            adt = (sig.tf - tj) / (n - budget.chatter_bound)
        if adt < budget.dwell_floor:
            return False
        t_s = t_u = 0.0
        for i, seg in enumerate(sig.segments):
            a = seg.start
            b = boundaries[i]
            lo = max(a, tj)
            if b <= lo:
                continue
            if seg.mode in stable_set:
                t_s += b - lo
            else:
                t_u += b - lo
        g_u = budget.gamma_unstable_max
        lhs = t_s * (budget.gamma_stable_max - budget.gamma_common)
        if g_u is not None:
            lhs += t_u * (g_u - budget.gamma_common)
        if lhs > 0.0:
            return False
    return True
