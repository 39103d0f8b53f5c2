"""Migration events: the jump of the tracking errors when agents join and leave.

A migration event replaces the agent set of the outgoing mode (N- agents)
with that of the incoming mode (N+ agents). Surviving agents keep their
states, leavers are dropped, joiners enter relative to the leader. The
bookkeeping is carried by a 0/1 migration matrix: the identity with the rows
of leavers deleted and zero rows inserted at join positions (leaves are
applied first when both occur at once).

On top of pure relabelling, events may inject impulses: a state-independent
vector, plus a state-dependent term produced by an arbitrary gain matrix
acting on the pre-jump tracking errors. The leader never jumps, so an event
is one affine jump of the stacked tracking errors,
    e+ = err_jump e- + impulse,  err_jump = kron(migration, I_p) + dep_gain,
and a MigrationEvent is that jump: it checks its shapes when it is made and
builds err_jump when asked. Jumping the leader-included state and then
forming errors gives the same result, which the tests check against a
full-state reference.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class MigrationEvent:
    """One join/leave event at a switching boundary, with its error jump.

    joins are positions in the incoming mode's agent numbering, leaves are
    positions in the outgoing mode's numbering, both 1-based and sorted.
    p is the agent dimension. ``impulse`` is a state-independent additive
    vector of dimension p * n_after; ``dep_gain`` maps pre-jump stacked
    errors (p * n_before) to an additive state-dependent impulse
    (p * n_after). Either may be None.
    """

    time_index: int
    mode_before: int
    mode_after: int
    n_before: int
    n_after: int
    p: int
    joins: tuple[int, ...] = ()
    leaves: tuple[int, ...] = ()
    impulse: np.ndarray | None = None
    dep_gain: np.ndarray | None = None

    def __post_init__(self) -> None:
        joins = tuple(sorted(int(j) for j in self.joins))
        leaves = tuple(sorted(int(v) for v in self.leaves))
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)
        if len(set(joins)) != len(joins) or len(set(leaves)) != len(leaves):
            raise ConfigError("joins and leaves must not repeat positions")
        if any(j < 1 or j > self.n_after for j in joins):
            raise ConfigError(f"join positions {joins} outside 1..{self.n_after}")
        if any(v < 1 or v > self.n_before for v in leaves):
            raise ConfigError(f"leave positions {leaves} outside 1..{self.n_before}")
        if self.n_after != self.n_before + len(joins) - len(leaves):
            raise ConfigError(
                f"size bookkeeping broken: {self.n_before} agents "
                f"+ {len(joins)} joins - {len(leaves)} leaves != {self.n_after}"
            )
        if self.p < 1:
            raise ConfigError(f"state dimension p must be >= 1, got {self.p}")
        rows, cols = self.p * self.n_after, self.p * self.n_before
        if self.impulse is not None:
            impulse = np.asarray(self.impulse, dtype=float)
            if impulse.shape != (rows,):
                raise ConfigError(f"impulse shape {impulse.shape} does not match ({rows},)")
            object.__setattr__(self, "impulse", impulse)
        if self.dep_gain is not None:
            dep = np.ascontiguousarray(self.dep_gain, dtype=float)
            if dep.shape != (rows, cols):
                raise ConfigError(f"dep_gain shape {dep.shape} does not match ({rows}, {cols})")
            object.__setattr__(self, "dep_gain", dep)

    def _survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-based positions of the surviving agents before and after."""
        return _kept(self.n_before, self.leaves), _kept(self.n_after, self.joins)

    @property
    def err_jump(self) -> np.ndarray:
        """kron(migration, I_p) + dep_gain (p n+ x p n-), built on each access
        so that no event keeps a matrix alive."""
        p = self.p
        # adding 0.0 copies the gain and reads its -0.0 as +0.0, as the kron sum does
        jump = (np.zeros((p * self.n_after, p * self.n_before)) if self.dep_gain is None
                else self.dep_gain + 0.0)
        before, after = self._survivors()
        lane = np.arange(p)
        jump[(after[:, None] * p + lane).ravel(), (before[:, None] * p + lane).ravel()] += 1.0
        return jump

    @property
    def impulse_norm(self) -> float:
        return 0.0 if self.impulse is None else float(np.linalg.norm(self.impulse))


def _kept(n: int, dropped: tuple[int, ...]) -> np.ndarray:
    """0..n-1 without the 1-based positions dropped: np.delete's indices,
    read off a keep-mask, which is cheaper than np.delete's general path."""
    keep = np.ones(n, dtype=bool)
    keep[np.array(dropped, dtype=np.intp) - 1] = False
    return np.flatnonzero(keep)


# kept only because the frozen acceptance test imports it
def build_transition_map(ev: MigrationEvent, p: int) -> MigrationEvent:
    """The event, which is its own jump, once p is checked against it."""
    if p != ev.p:
        raise ConfigError(f"state dimension p = {p} does not match the event's {ev.p}")
    return ev


def apply_error_jump(ev: MigrationEvent, err: np.ndarray) -> np.ndarray:
    """Execute the jump on stacked tracking errors."""
    e = np.asarray(err, dtype=float)
    if e.shape != (ev.p * ev.n_before,):
        raise ConfigError(
            f"pre-jump error has shape {e.shape}, expected ({ev.p * ev.n_before},)"
        )
    # without an impulse, adding 0.0 gives the bits a zero impulse would
    return ev.err_jump @ e + (0.0 if ev.impulse is None else ev.impulse)


@dataclass(frozen=True)
class ImpulseBounds:
    """Worst-case event magnitudes feeding the certificate."""

    impulse_norm_max: float
    err_jump_norm_max: float


def impulse_bounds(events: Iterable[MigrationEvent]) -> ImpulseBounds:
    """Max impulse norm and max induced 2-norm of the error jump matrix
    over the given events (zeros when the list is empty)."""
    phi = 0.0
    gain = 0.0
    for ev in events:
        phi = max(phi, ev.impulse_norm)
        gain = max(gain, float(np.linalg.norm(ev.err_jump, 2)))
    return ImpulseBounds(impulse_norm_max=phi, err_jump_norm_max=gain)
