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

Events that share a migration pattern (p, n-, n+, joins, leaves) share their
bookkeeping: the pattern is checked and its index arrays are built once, and
impulse_bounds takes the 2-norms of a pattern's jumps as one stack.
spectral_norms is the one place a matrix 2-norm is taken.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

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
        joins, leaves = _check_pattern(self.p, self.n_before, self.n_after,
                                       tuple(self.joins), tuple(self.leaves))
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)
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

    @property
    def pattern(self) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
        """(p, n_before, n_after, joins, leaves): what fixes the migration."""
        return self.p, self.n_before, self.n_after, self.joins, self.leaves

    @property
    def err_jump(self) -> np.ndarray:
        """kron(migration, I_p) + dep_gain (p n+ x p n-), built on each access
        so that no event keeps a matrix alive."""
        # adding 0.0 copies the gain and reads its -0.0 as +0.0, as the kron sum does
        jump = (np.zeros((self.p * self.n_after, self.p * self.n_before))
                if self.dep_gain is None else self.dep_gain + 0.0)
        jump[_ones_of(*self.pattern)] += 1.0
        return jump

    @property
    def impulse_norm(self) -> float:
        return 0.0 if self.impulse is None else float(np.linalg.norm(self.impulse))


@lru_cache(maxsize=1024)
def _check_pattern(
    p: int, n_before: int, n_after: int, joins: tuple, leaves: tuple
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted joins and leaves of a migration pattern, once its
    positions and sizes are checked: once per pattern, not per event."""
    joins = tuple(sorted(int(j) for j in joins))
    leaves = tuple(sorted(int(v) for v in leaves))
    if len(set(joins)) != len(joins) or len(set(leaves)) != len(leaves):
        raise ConfigError("joins and leaves must not repeat positions")
    if any(j < 1 or j > n_after for j in joins):
        raise ConfigError(f"join positions {joins} outside 1..{n_after}")
    if any(v < 1 or v > n_before for v in leaves):
        raise ConfigError(f"leave positions {leaves} outside 1..{n_before}")
    if n_after != n_before + len(joins) - len(leaves):
        raise ConfigError(
            f"size bookkeeping broken: {n_before} agents "
            f"+ {len(joins)} joins - {len(leaves)} leaves != {n_after}"
        )
    if p < 1:
        raise ConfigError(f"state dimension p must be >= 1, got {p}")
    return joins, leaves


def _kept(n: int, dropped: tuple[int, ...]) -> np.ndarray:
    """0..n-1 without the 1-based positions dropped."""
    return np.delete(np.arange(n), np.array(dropped, dtype=np.intp) - 1)


@lru_cache(maxsize=1024)
def _ones_of(
    p: int, n_before: int, n_after: int, joins: tuple[int, ...], leaves: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the ones kron(migration, I_p) holds: each survivor's
    p lanes, from its position before to its position after. Cached, so
    read-only."""
    lane = np.arange(p)
    ones = ((_kept(n_after, joins)[:, None] * p + lane).ravel(),
            (_kept(n_before, leaves)[:, None] * p + lane).ravel())
    for index in ones:
        index.flags.writeable = False
    return ones


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


# the most memory one stack of spectral_norms takes, so that a long signal's
# norms cost one chunk of memory and not one copy of every matrix
_NORM_CHUNK_BYTES = 32 * 2**20


def spectral_norms(
    mats: Sequence[np.ndarray], finish: Callable[[np.ndarray], None] | None = None
) -> np.ndarray:
    """The induced 2-norms of matrices of one shape, in their order.

    The matrices, a sequence or one 3-d array, are copied into stacks of at
    most _NORM_CHUNK_BYTES (one matrix when a single one is larger), and
    finish(stack) may edit each stack in place. Each matrix M is then
    scaled, exactly, by the power of two 2^-e that brings its largest entry
    into [1/2, 1), so that its Gram matrix cannot overflow, and ||M||_2 =
    2^e sqrt(lambda_max) of the smaller Gram matrix, M M^T or M^T M, from
    one stacked eigvalsh per stack. Every product and eigensolve of a stack
    works on each matrix alone, so each norm has the bits of its matrix
    taken alone. A matrix with an infinite entry has norm inf, and one with
    a nan entry nan.
    """
    if len(mats) == 0:
        return np.empty(0)
    shape = mats[0].shape
    per = max(1, _NORM_CHUNK_BYTES // max(1, 8 * shape[0] * shape[1]))
    buf = np.empty((min(per, len(mats)), *shape))
    norms = np.empty(len(mats))
    for start in range(0, len(mats), per):
        stack = buf[: min(per, len(mats) - start)]
        chunk = mats[start : start + len(stack)]
        if isinstance(chunk, np.ndarray):  # a stack already: one copy, no list
            stack[...] = chunk
        else:
            np.stack(chunk, out=stack)
        if finish is not None:
            finish(stack)
        # the largest |entry| of each matrix, without a copy of the stack
        top = np.maximum(stack.max(axis=(1, 2), initial=0.0), -stack.min(axis=(1, 2), initial=0.0))
        bad = ~np.isfinite(top)
        if bad.any():
            stack[bad] = 0.0
        # 2^-e is exact, and stays finite for a subnormal largest entry
        e = np.maximum(np.frexp(np.where(bad, 0.0, top))[1], -1020)
        np.ldexp(stack, -e[:, None, None], out=stack)
        flat = stack.transpose(0, 2, 1)
        gram = stack @ flat if shape[0] <= shape[1] else flat @ stack
        # lambda_max >= 0 up to rounding, and exactly 0 for a zero matrix
        lam = np.linalg.eigvalsh(gram)[:, -1]
        sigma = np.ldexp(np.sqrt(np.maximum(lam, 0.0)), e)
        norms[start : start + len(stack)] = np.where(bad, top, sigma) if bad.any() else sigma
    return norms


def impulse_bounds(events: Iterable[MigrationEvent]) -> ImpulseBounds:
    """Max impulse norm and max induced 2-norm of the error jump matrix
    over the given events (zeros when the list is empty).

    The jumps of one migration pattern are built as one stack: the gains
    plus 0.0, as err_jump reads them, with the pattern's ones added once.
    """
    phi = 0.0
    patterns: dict[tuple, list[MigrationEvent]] = {}
    for ev in events:
        phi = max(phi, ev.impulse_norm)
        patterns.setdefault(ev.pattern, []).append(ev)
    gain = 0.0
    for pattern, group in patterns.items():
        p, n_before, n_after = pattern[:3]
        # the gain of an event without one, a view that takes no memory
        zero = np.broadcast_to(0.0, (p * n_after, p * n_before))
        ones = _ones_of(*pattern)

        def as_jumps(stack: np.ndarray) -> None:
            stack += 0.0
            stack[:, ones[0], ones[1]] += 1.0

        norms = spectral_norms([zero if ev.dep_gain is None else ev.dep_gain for ev in group],
                               as_jumps)
        # max keeps the running value against a NaN, so the order of the
        # patterns cannot change the result
        gain = max(gain, *norms.tolist())
    return ImpulseBounds(impulse_norm_max=phi, err_jump_norm_max=gain)
