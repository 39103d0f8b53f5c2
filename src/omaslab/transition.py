"""Jump maps for agents joining and leaving at switching instants.

A migration event replaces the agent set of the outgoing mode (N- agents)
with that of the incoming mode (N+ agents). Surviving agents keep their
states, leavers are dropped, joiners enter relative to the leader. The
bookkeeping is carried by a 0/1 migration matrix built from the identity by
deleting the rows of leavers and inserting zero rows at join positions
(leaves are applied first when both occur at once).

On top of pure relabelling, events may inject impulses: a state-independent
vector, plus a state-dependent term produced by an arbitrary gain matrix
acting on the pre-jump tracking errors. The leader never jumps, so an event
acts on the stacked tracking errors alone: e+ = (migration + dep_gain) e-
+ impulse. Jumping the leader-included state and then forming errors gives
the same result, which the tests check against a full-state reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class MigrationEvent:
    """One join/leave event at a switching boundary.

    joins are positions in the incoming mode's agent numbering, leaves are
    positions in the outgoing mode's numbering, both 1-based and sorted.
    ``impulse`` is a state-independent additive vector of dimension
    p * n_after; ``dep_gain`` maps pre-jump stacked errors (p * n_before) to
    an additive state-dependent impulse (p * n_after). Either may be None.
    """

    time_index: int
    mode_before: int
    mode_after: int
    n_before: int
    n_after: int
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
        if self.impulse is not None:
            object.__setattr__(self, "impulse", np.asarray(self.impulse, dtype=float))
        if self.dep_gain is not None:
            object.__setattr__(self, "dep_gain", np.asarray(self.dep_gain, dtype=float))


def build_migration_matrix(ev: MigrationEvent) -> np.ndarray:
    """0/1 matrix of shape (n_after, n_before).

    Row r is the unit vector of the surviving agent that lands at position r,
    or all zero when position r is a joiner. Columns of leavers are zero.
    """
    keep = [i for i in range(ev.n_before) if (i + 1) not in set(ev.leaves)]
    core = np.eye(ev.n_before)[keep]
    xi = np.zeros((ev.n_after, ev.n_before))
    join_set = set(ev.joins)
    r = 0
    for pos in range(1, ev.n_after + 1):
        if pos not in join_set:
            xi[pos - 1] = core[r]
            r += 1
    return xi


@dataclass(frozen=True, eq=False)
class TransitionMap:
    """All matrices needed to execute one migration event.

    migration            0/1 agent relabelling (n_after x n_before)
    migration_stacked    same, expanded blockwise to states (p n+ x p n-)
    err_jump             jump matrix on stacked errors (migration + dep gain)
    impulse              concrete state-independent impulse (p * n_after)
    """

    p: int
    n_before: int
    n_after: int
    mode_before: int
    mode_after: int
    migration: np.ndarray
    migration_stacked: np.ndarray
    err_jump: np.ndarray
    impulse: np.ndarray

    @property
    def impulse_norm(self) -> float:
        return float(np.linalg.norm(self.impulse))


def build_transition_map(ev: MigrationEvent, p: int) -> TransitionMap:
    """Assemble the jump matrices for one event.

    Survivors keep their states, leavers are dropped and joiners enter at
    the leader, so a joiner's error starts at zero; dep_gain adds a
    multiple of the pre-jump errors. The error jump is therefore
        e+ = err_jump e- + impulse,  err_jump = migration_stacked + dep_gain.
    """
    if p < 1:
        raise ConfigError(f"state dimension p must be >= 1, got {p}")
    xi = build_migration_matrix(ev)
    xi_stacked = np.kron(xi, np.eye(p))

    if ev.dep_gain is None:
        dep = np.zeros((p * ev.n_after, p * ev.n_before))
    else:
        dep = np.asarray(ev.dep_gain, dtype=float)
        if dep.shape != (p * ev.n_after, p * ev.n_before):
            raise ConfigError(
                f"dep_gain shape {dep.shape} does not match "
                f"({p * ev.n_after}, {p * ev.n_before})"
            )
    if ev.impulse is None:
        impulse = np.zeros(p * ev.n_after)
    else:
        impulse = np.asarray(ev.impulse, dtype=float)
        if impulse.shape != (p * ev.n_after,):
            raise ConfigError(
                f"impulse shape {impulse.shape} does not match ({p * ev.n_after},)"
            )

    err_jump = xi_stacked + dep
    return TransitionMap(
        p=p,
        n_before=ev.n_before,
        n_after=ev.n_after,
        mode_before=ev.mode_before,
        mode_after=ev.mode_after,
        migration=xi,
        migration_stacked=xi_stacked,
        err_jump=err_jump,
        impulse=impulse,
    )


def apply_error_jump(tm: TransitionMap, err: np.ndarray) -> np.ndarray:
    """Execute the jump on stacked tracking errors."""
    e = np.asarray(err, dtype=float)
    if e.shape != (tm.p * tm.n_before,):
        raise ConfigError(
            f"pre-jump error has shape {e.shape}, expected ({tm.p * tm.n_before},)"
        )
    return tm.err_jump @ e + tm.impulse


@dataclass(frozen=True)
class ImpulseBounds:
    """Worst-case event magnitudes feeding the certificate."""

    impulse_norm_max: float
    err_jump_norm_max: float


def impulse_bounds(events: list[MigrationEvent], p: int) -> ImpulseBounds:
    """Max impulse norm and max induced 2-norm of the error jump matrix
    over the given events (zeros/unit defaults when the list is empty)."""
    phi = 0.0
    gain = 0.0
    for ev in events:
        tm = build_transition_map(ev, p)
        phi = max(phi, tm.impulse_norm)
        gain = max(gain, float(np.linalg.norm(tm.err_jump, 2)))
    return ImpulseBounds(impulse_norm_max=phi, err_jump_norm_max=gain)
