"""Signed interaction digraphs and their repelling Laplacians.

Agents are numbered 1..N. An edge (src, dst, weight) means agent ``src``
sends its state to agent ``dst``; a negative weight is an antagonistic
(repelling) interaction. The leader is the extra node 0: it broadcasts to
agents through leader links d_i in {-1, 0, +1} and never receives.

The repelling Laplacian differs from the classical signed Laplacian in its
diagonal: l_ii sums the raw (signed) in-weights instead of their absolute
values, so every row still sums to zero but negative edges can push
eigenvalues into the left half plane.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError

_EIG_NEG_TOL = 1e-10  # threshold below which a real part counts as negative
_DENSE_ATOL = 1e-12  # how far a dense diagonal may stray from its in-weight sum


class Edge(NamedTuple):
    src: int
    dst: int
    weight: float


class ModeClass(Enum):
    """Topology classes that drive mode-level stability analysis."""

    POSITIVE_SPANNING = "positive_spanning"
    POSITIVE_NO_SPANNING = "positive_no_spanning"
    NEGATIVE_MAJORITY = "negative_majority"
    NEGATIVE_MINORITY = "negative_minority"


@dataclass(frozen=True)
class SignedDigraph:
    """Directed signed graph on agents 1..n_agents, no self-loops,
    at most one edge per ordered pair."""

    n_agents: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {self.n_agents}")
        object.__setattr__(
            self, "edges", tuple(Edge(int(e[0]), int(e[1]), float(e[2])) for e in self.edges)
        )
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            check_edge(e, self.n_agents, seen)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """a[i-1, j-1] = weight of edge j->i (receiver row, sender column)."""
        a = np.zeros((self.n_agents, self.n_agents))
        for e in self.edges:
            a[e.dst - 1, e.src - 1] = e.weight
        return a


def check_edge(e: Edge, n_agents: int, seen: set[tuple[int, int]]) -> None:
    """Refuse an agent outside 1..n_agents, a self-loop, a pair already in
    seen and a zero weight; an edge that passes joins seen."""
    if not (1 <= e.src <= n_agents and 1 <= e.dst <= n_agents):
        raise ConfigError(f"edge {e} references an agent outside 1..{n_agents}")
    if e.src == e.dst:
        raise ConfigError(f"self-loop on agent {e.src} is not allowed")
    if (e.src, e.dst) in seen:
        raise ConfigError(f"duplicate edge {e.src}->{e.dst}")
    if e.weight == 0.0:
        raise ConfigError(f"edge {e.src}->{e.dst} has zero weight")
    seen.add((e.src, e.dst))


@dataclass(frozen=True, eq=False)
class AugmentedMode:
    """A signed digraph plus its leader links, optionally tagged with an id.

    ``leader_links[i-1]`` is the weight of the leader edge 0->i; zero means
    agent i does not hear the leader in this mode.
    """

    graph: SignedDigraph
    leader_links: tuple[float, ...]
    mode_id: int | None = None

    def __post_init__(self) -> None:
        links = tuple(float(v) for v in self.leader_links)
        if len(links) != self.graph.n_agents:
            raise ConfigError(
                f"leader_links has length {len(links)}, expected {self.graph.n_agents}"
            )
        object.__setattr__(self, "leader_links", links)

    @property
    def n_agents(self) -> int:
        return self.graph.n_agents

    def label(self) -> str:
        return f"mode {self.mode_id}" if self.mode_id is not None else "mode"

    # the class and the spectra every command reads, taken once per mode;
    # the spectra are read-only since they are shared
    @cached_property
    def mode_class(self) -> ModeClass:
        """The topology class classify_mode assigns."""
        return classify_mode(self)

    @cached_property
    def grounded_eigvals(self) -> np.ndarray:
        """Eigenvalues of the grounded Laplacian."""
        return _read_only(np.linalg.eigvals(grounded_laplacian(self)))

    @cached_property
    def augmented_eigvals(self) -> np.ndarray:
        """Eigenvalues of the leader-augmented Laplacian."""
        return _read_only(np.linalg.eigvals(augmented_laplacian(self)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def repelling_laplacian(g: SignedDigraph) -> np.ndarray:
    """Repelling Laplacian: l_ij = -a_ij off the diagonal, l_ii = sum_j a_ij.

    Rows sum to zero by construction, so the all-ones vector is always in the
    kernel. Unlike the absolute-value signed Laplacian, antagonistic edges
    reduce the diagonal and can produce eigenvalues with negative real part.
    """
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a


def grounded_laplacian(m: AugmentedMode) -> np.ndarray:
    """Follower-block coupling matrix: repelling Laplacian plus the diagonal
    of leader-link weights. This is the block that decides tracking behaviour."""
    return repelling_laplacian(m.graph) + np.diag(m.leader_links)


def augmented_laplacian(m: AugmentedMode) -> np.ndarray:
    """(N+1) x (N+1) Laplacian of the leader-augmented graph.

    First row is zero (the leader listens to nobody); the first column below
    the diagonal carries the negated leader links; the remaining block is the
    grounded Laplacian. Every row sums to zero.
    """
    n = m.n_agents
    full = np.zeros((n + 1, n + 1))
    full[1:, 0] = -np.asarray(m.leader_links)
    full[1:, 1:] = grounded_laplacian(m)
    return full


def _signed_counts(m: AugmentedMode) -> tuple[int, int]:
    pos = sum(1 for e in m.graph.edges if e.weight > 0)
    neg = sum(1 for e in m.graph.edges if e.weight < 0)
    pos += sum(1 for d in m.leader_links if d > 0)
    neg += sum(1 for d in m.leader_links if d < 0)
    return pos, neg


def leader_reachable_set(m: AugmentedMode) -> set[int]:
    """Agents reachable from the leader along directed edges of the
    augmented graph (any sign)."""
    frontier = [i for i in range(1, m.n_agents + 1) if m.leader_links[i - 1] != 0.0]
    reached = set(frontier)
    out: dict[int, list[int]] = {}
    for e in m.graph.edges:
        out.setdefault(e.src, []).append(e.dst)
    while frontier:
        nxt = []
        for v in frontier:
            for w in out.get(v, ()):
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return reached


def has_leader_spanning_tree(m: AugmentedMode) -> bool:
    """True when every agent is reachable from the leader node."""
    return len(leader_reachable_set(m)) == m.n_agents


def classify_mode(m: AugmentedMode) -> ModeClass:
    """Assign the mode to one of the four topology classes.

    Purely cooperative modes split on leader reachability. Modes with
    antagonistic edges split on whether the negative interactions dominate:
    the sum of off-diagonal augmented-Laplacian entries decides. On unit
    weights that sum is the count of negative minus positive edges, exact in
    floats, so the weighted test is the count test; on other weights a
    disagreement between the two readings is flagged with a warning (the
    weighted reading wins).
    """
    pos, neg = _signed_counts(m)
    if neg == 0:
        if has_leader_spanning_tree(m):
            return ModeClass.POSITIVE_SPANNING
        return ModeClass.POSITIVE_NO_SPANNING

    lt = augmented_laplacian(m)
    off_sum = lt.sum() - np.trace(lt)
    majority = off_sum > 0.0
    if majority != (neg > pos):
        warnings.warn(
            f"{m.label()}: weighted and counted negative-majority tests disagree "
            f"(off-diagonal sum {off_sum:.6g}, counts {neg} negative vs {pos} positive); "
            "using the weighted test",
            stacklevel=2,
        )
    return ModeClass.NEGATIVE_MAJORITY if majority else ModeClass.NEGATIVE_MINORITY


@dataclass(frozen=True)
class InstabilityReport:
    """Structural evidence that a negative-majority mode repels consensus."""

    trace_augmented: float
    trace_grounded: float
    min_real_eig_augmented: float
    min_real_eig_grounded: float

    @property
    def ok(self) -> bool:
        return (
            self.trace_augmented < 0.0
            and self.trace_grounded < 0.0
            and self.min_real_eig_augmented < -_EIG_NEG_TOL
            and self.min_real_eig_grounded < -_EIG_NEG_TOL
        )


def check_negative_majority_instability(m: AugmentedMode) -> InstabilityReport:
    """Verify the destabilisation signature of a negative-majority mode.

    When negative interactions dominate, the traces of both the augmented
    Laplacian and the grounded Laplacian are negative, which forces at least
    one eigenvalue of each into the open left half plane (the mean of the
    eigenvalues is negative). The report carries traces and extreme real
    parts; violations are reported, not raised.
    """
    if m.mode_class is not ModeClass.NEGATIVE_MAJORITY:
        raise ConfigError(f"{m.label()} is not negative-majority")
    return InstabilityReport(
        trace_augmented=float(np.trace(augmented_laplacian(m))),
        trace_grounded=float(np.trace(grounded_laplacian(m))),
        min_real_eig_augmented=float(m.augmented_eigvals.real.min()),
        min_real_eig_grounded=float(m.grounded_eigvals.real.min()),
    )


def mode_from_dense(
    laplacian: Iterable[Iterable[float]],
    leader_diag: Iterable[float],
    mode_id: int | None = None,
) -> AugmentedMode:
    """Rebuild an AugmentedMode from a dense repelling Laplacian and the
    leader-link diagonal.

    Off-diagonal entries give the (negated) adjacency; the diagonal must then
    match the signed in-weight sums, otherwise the matrix is not a repelling
    Laplacian and a ConfigError is raised.
    """
    L = np.asarray(laplacian, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ConfigError(f"laplacian must be square, got shape {L.shape}")
    n = L.shape[0]
    d = np.asarray(leader_diag, dtype=float)
    if d.shape != (n,):
        raise ConfigError(f"leader diagonal has shape {d.shape}, expected ({n},)")
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and L[i, j] != 0.0:
                edges.append(Edge(src=j + 1, dst=i + 1, weight=-L[i, j]))
    g = SignedDigraph(n_agents=n, edges=tuple(edges))
    rebuilt = repelling_laplacian(g)
    if not np.allclose(rebuilt, L, atol=_DENSE_ATOL, rtol=0.0):
        bad = tuple(int(k) for k in np.unravel_index(np.argmax(np.abs(rebuilt - L)), L.shape))
        raise ConfigError(
            f"dense matrix is not a repelling Laplacian: diagonal entry {bad} "
            f"disagrees with its row's signed in-weight sum"
        )
    return AugmentedMode(graph=g, leader_links=tuple(d), mode_id=mode_id)
