"""Shared oracles and random generators for the test-suite.

Everything here is deliberately independent of the package internals: the
characteristic polynomial comes from the trace recursion, the ultimate
bound is re-derived from scratch, and the random mode/signal factories
construct objects through the public constructors only.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from omaslab.scenario import RandomSpec
from omaslab.seeding import (
    STREAM_DEP_GAIN,
    STREAM_IMPULSE,
    STREAM_PERTURBATION,
    STREAM_PERTURBATION_PAST,
)
from omaslab.signed_graph import AugmentedMode, Edge, SignedDigraph
from omaslab.simulate import (
    _GRID_EPS,
    LyapunovTrace,
    Trajectory,
    _grid,
    _propagator_stack,
    _step_matrix_stack,
)
from omaslab.switching import _TIME_EPS, Segment, SwitchingBudget, SwitchingSignal
from omaslab.transition import MigrationEvent, apply_error_jump, spectral_norms


def char_poly_coeffs(M: np.ndarray) -> list[float]:
    """Characteristic polynomial of M by the Faddeev-LeVerrier recursion.

    Returns [1, c1, ..., cn] with det(lambda I - M) = lambda^n + c1
    lambda^(n-1) + ... + cn. Uses only matrix products and traces, so it is
    an independent check on any eigenvalue claim.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[-1] * np.eye(n)
        coeffs.append(float(-np.trace(M @ Mk) / k))
    return coeffs


def propagators(M: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = e^(M h), Phi1 = h phi1(M h) and Phi2 = h^2 phi2(M h) for h = step,
    from a simulate._propagator_stack of the one step."""
    E, Phi1, Phi2 = _propagator_stack(M, [step])
    return E[0], Phi1[0], Phi2[0]


def step_matrices(
    M: np.ndarray, step: float, method: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, A0, A1) with one step x' = E x + A0 f0 + A1 f1, from a
    simulate._step_matrix_stack of the one step."""
    return _step_matrix_stack(M, [step], method)[0]


def van_loan_propagators(
    M: np.ndarray, step: float, digits: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, Phi1, Phi2) of one exact step by Van Loan's block construction.

    The top block row of expm([[M, I, 0], [0, 0, I], [0, 0, 0]] * step)
    carries E = e^(M step), Phi1 = int_0^step e^(M (step-s)) ds and Phi2 =
    int_0^step e^(M (step-s)) s ds. The block is exponentiated by scipy in
    double precision, or with digits by mpmath at that many significant
    digits and rounded to doubles at the end. Either way the product
    M * step is the one simulate._propagator_stack forms, so both see one
    input.
    """
    n = M.shape[0]
    B = np.zeros((3 * n, 3 * n))
    B[:n, :n] = M
    B[:n, n : 2 * n] = np.eye(n)
    B[n : 2 * n, 2 * n :] = np.eye(n)
    B *= step
    if digits is None:
        EB = scipy.linalg.expm(B)
    else:
        import mpmath

        with mpmath.workdps(digits):
            EB = np.array(mpmath.expm(mpmath.matrix(B.tolist())).tolist(), dtype=float)
    return EB[:n, :n].copy(), EB[:n, n : 2 * n].copy(), EB[:n, 2 * n :].copy()


def flow_by_eigenvectors(
    A: np.ndarray, x0: np.ndarray, times: np.ndarray, digits: int = 40
) -> np.ndarray:
    """e^(A t) x0 at each t of times, as rows: A's eigendecomposition
    V diag(lambda) V^-1 taken by mpmath at digits significant digits, each
    row the real part of sum_k V[:, k] e^(lambda_k t) c_k with V c = x0, and
    rounded to doubles at the end. A must be diagonalisable."""
    import mpmath

    with mpmath.workdps(digits):
        lam, V = mpmath.eig(mpmath.matrix(A.tolist()))
        c = mpmath.lu_solve(V, mpmath.matrix(np.asarray(x0, dtype=float).tolist()))
        n = len(lam)
        rows = []
        for t in np.asarray(times, dtype=float).tolist():
            w = [mpmath.exp(lam[k] * t) * c[k] for k in range(n)]
            rows.append([float(mpmath.re(mpmath.fsum(V[i, k] * w[k] for k in range(n))))
                         for i in range(n)])
    return np.array(rows)


def dense_shifted_lyapunov(A_err: np.ndarray, gamma: float) -> np.ndarray:
    """P with S' P + P S = -I for S = A_err - gamma I, by scipy's dense
    Bartels-Stewart on the whole pN x pN matrix: one Schur decomposition of S
    itself, blind to the Kronecker structure the library solve works from."""
    S = A_err - gamma * np.eye(A_err.shape[0])
    return scipy.linalg.solve_continuous_lyapunov(S.T, -np.eye(S.shape[0]))


def poly_from_roots(roots) -> list[float]:
    """Monic coefficients [1, c1, ..., cn] from a root multiset."""
    out = np.array([1.0])
    for r in roots:
        out = np.convolve(out, np.array([1.0, -float(r)]))
    return [float(c) for c in out]


def ultimate_bound_reference(
    p_under: float,
    settled_flow: float,
    jump_offset: float,
    mu: float,
    chatter: float,
    contraction: float,
) -> float:
    """Re-derivation of the ultimate tracking bound used as a cross-check.

    Sum of the settled flow drive over the last K+1 inter-switch windows plus
    its geometric tail, and likewise for the impulse drive over K windows;
    both tails are driven by the worst suffix contraction.
    """

    def geom(q: float, k: float) -> float:
        if k <= 0:
            return 0.0
        if abs(q - 1.0) < 1e-12:
            return k
        return (1.0 - q**k) / (1.0 - q)

    if settled_flow == 0.0 and jump_offset == 0.0:
        return 0.0
    if contraction >= 0.0:
        return math.inf
    tail = math.exp(contraction)
    return (1.0 / math.sqrt(p_under)) * (
        settled_flow * (geom(mu, chatter + 1.0) + mu ** (chatter + 1.0) / (1.0 - tail))
        + jump_offset * (geom(mu, chatter) + mu**chatter / (1.0 - tail))
    )


def random_negative_majority_mode(rng: np.random.Generator, max_agents: int = 8) -> AugmentedMode:
    """Unit-weight augmented mode whose negative interactions outnumber the
    positive ones (leader links included in the count)."""
    n = int(rng.integers(2, max_agents + 1))
    edges: list[tuple[int, int, float]] = []
    for src in range(1, n + 1):
        for dst in range(1, n + 1):
            if src == dst or rng.random() > 0.4:
                continue
            w = -1.0 if rng.random() < 0.7 else 1.0
            edges.append((src, dst, w))
    links = [(-1.0 if rng.random() < 0.3 else 0.0) for _ in range(n)]
    pos = sum(1 for e in edges if e[2] > 0)
    neg = sum(1 for e in edges if e[2] < 0) + sum(1 for d in links if d < 0)
    if neg <= pos:
        # flip positive edges until negatives dominate
        flipped = []
        for src, dst, w in edges:
            if w > 0 and neg <= pos:
                flipped.append((src, dst, -1.0))
                pos -= 1
                neg += 1
            else:
                flipped.append((src, dst, w))
        edges = flipped
    if neg == 0:
        edges.append((1, 2, -1.0))
        neg = 1
    g = SignedDigraph(n_agents=n, edges=tuple(Edge(*e) for e in edges))
    return AugmentedMode(graph=g, leader_links=tuple(links))


def pure_relabel_event(
    k: int, mode_before: int, mode_after: int, n: int, p: int
) -> MigrationEvent:
    """Population-preserving event with no impulses (sizes both n, agent
    dimension p)."""
    return MigrationEvent(
        time_index=k,
        mode_before=mode_before,
        mode_after=mode_after,
        n_before=n,
        n_after=n,
        p=p,
    )


def error_projector(n: int, p: int) -> np.ndarray:
    """Maps the leader-included stack to tracking errors: e_i = x_i - x_0."""
    return np.kron(np.hstack([-np.ones((n, 1)), np.eye(n)]), np.eye(p))


def build_migration_matrix(ev: MigrationEvent) -> np.ndarray:
    """0/1 migration matrix of shape (n_after, n_before), as the model states
    it: the identity with the leavers' rows deleted, then zero rows inserted
    at the join positions.

    Row r is the unit vector of the surviving agent that lands at position
    r, or all zero when position r is a joiner; columns of leavers are zero.
    """
    xi = np.delete(np.eye(ev.n_before), [v - 1 for v in ev.leaves], axis=0)
    for j in ev.joins:  # ascending, so no later insertion moves an earlier one
        xi = np.insert(xi, j - 1, 0.0, axis=0)
    return xi


def kron_err_jump(ev: MigrationEvent) -> np.ndarray:
    """The error jump matrix as the model states it: the migration matrix
    expanded blockwise over the agent dimension, plus the dependence gain."""
    shape = (ev.p * ev.n_after, ev.p * ev.n_before)
    dep = np.zeros(shape) if ev.dep_gain is None else ev.dep_gain
    return np.kron(build_migration_matrix(ev), np.eye(ev.p)) + dep


def keyed_block(seed: int, stream: int, shape: tuple[int, ...], b: int) -> np.random.Generator:
    """A fresh generator of block b of the keyed stream (seed, stream, shape)."""
    parts = [seed & 0xFFFFFFFFFFFFFFFF, stream, b, *shape]
    return np.random.default_rng(np.random.SeedSequence(parts))


def rows_per_block(shape: tuple[int, ...]) -> int:
    """B, the rows of one block: as many as 4096 values hold, at least one."""
    return max(1, 4096 // math.prod(shape))


def keyed_row(seed: int, stream: int, shape: tuple[int, ...], k: int) -> np.ndarray:
    """Row k of the keyed stream of normal rows (seed, stream, shape),
    recounted: the whole block k // B drawn with a fresh generator, B =
    max(1, 4096 // values in a row), and its row k % B taken. The oracle
    for seeding.KeyedRows, which reads a block only as far as it needs."""
    per = rows_per_block(shape)
    return keyed_block(seed, stream, shape, k // per).standard_normal((per, *shape))[k % per]


def ball_row(seed: int, stream: int, k: int, dim: int, bound: float) -> tuple[np.ndarray, float]:
    """(point, radius) of row k of the keyed stream of points uniform in the
    ball of radius bound in dim dimensions, recounted from its whole block:
    the block's normals, then its uniforms u, each row scaled onto the
    sphere of radius bound u^(1/dim). The oracle for the initial errors (row
    0 of STREAM_INITIAL) and for the perturbation's holds."""
    per = rows_per_block((dim,))
    rng = keyed_block(seed, stream, (dim,), k // per)
    v = rng.standard_normal((per, dim))
    radii = bound * rng.random(per) ** (1.0 / dim)
    row = v[k % per]
    return row * (radii[k % per] / math.sqrt(np.sum(row * row))), float(radii[k % per])


def hold_row(seed: int, k: int, dim: int, bound: float) -> tuple[np.ndarray, float]:
    """(forcing, radius) of the random perturbation's hold k in dim
    dimensions: its ball_row. A hold k < 0 is row -k - 1 of the past
    stream."""
    stream, j = (STREAM_PERTURBATION, k) if k >= 0 else (STREAM_PERTURBATION_PAST, -k - 1)
    return ball_row(seed, stream, j, dim, bound)


def event_by_itself(scenario, k: int, mode_before: int, mode_after: int,
                    master_seed: int) -> MigrationEvent:
    """The k-th migration of a scenario's event table, materialized on its
    own: each random impulse and gain its keyed_row, and the gain's own
    2-norm taken from that draw alone. The per-event oracle for
    Scenario.build_events, which reads the rows of many switches at once and
    takes their norms as one stack."""
    nb = scenario.modes[mode_before].n_agents
    na = scenario.modes[mode_after].n_agents
    p = scenario.p
    spec = scenario.event_specs.get((mode_before, mode_after))
    if spec is None:
        return MigrationEvent(k, mode_before, mode_after, nb, na, p,
                              joins=tuple(range(nb + 1, na + 1)),
                              leaves=tuple(range(na + 1, nb + 1)))
    impulse = spec.impulse
    if isinstance(impulse, RandomSpec):
        seed = master_seed if impulse.seed is None else impulse.seed
        if impulse.size == 0.0:
            impulse = np.zeros(p * na)
        else:
            row = keyed_row(seed, STREAM_IMPULSE, (p * na,), k)
            impulse = row * (impulse.size / math.sqrt(np.sum(row * row)))
    gain = spec.dep_gain
    if isinstance(gain, RandomSpec):
        seed = master_seed if gain.seed is None else gain.seed
        raw = keyed_row(seed, STREAM_DEP_GAIN, (p * na, p * nb), k)
        top = float(spectral_norms([raw])[0])
        scale = gain.size
        gain = np.zeros(raw.shape) if top < 1e-300 or scale == 0.0 else raw * (scale / top)
    return MigrationEvent(k, mode_before, mode_after, nb, na, p, spec.joins, spec.leaves,
                          impulse, gain)


def impulse_bounds_by_event(events) -> tuple[float, float]:
    """(max impulse norm, max error jump 2-norm), one event at a time, each
    jump built as the model states it and normed alone. The oracle for
    impulse_bounds."""
    phi = gain = 0.0
    for ev in events:
        if ev.impulse is not None:
            phi = max(phi, float(np.linalg.norm(ev.impulse)))
        gain = max(gain, float(spectral_norms([kron_err_jump(ev)])[0]))
    return phi, gain


def apply_state_jump(ev: MigrationEvent, full_state: np.ndarray, p: int) -> np.ndarray:
    """Reference jump of the leader-included stack, agent by agent.

    The leader keeps its state, survivors keep theirs, leavers are dropped
    and joiners enter at the leader; then the event's impulse and its
    dependence gain acting on the pre-jump errors are added to the
    followers. The library jumps the errors alone; this is what that jump
    must equal once errors are formed.
    """
    x = np.asarray(full_state, dtype=float)
    if x.shape != (p * (ev.n_before + 1),):
        raise ValueError(f"state has shape {x.shape}, expected ({p * (ev.n_before + 1)},)")
    leader = x[:p]
    agents = x[p:].reshape(ev.n_before, p)
    errs = (agents - leader).reshape(-1)
    survivors = [a for i, a in enumerate(agents, start=1) if i not in ev.leaves]
    followers = np.concatenate(
        [leader if pos in ev.joins else survivors.pop(0) for pos in range(1, ev.n_after + 1)]
    )
    if ev.impulse is not None:
        followers = followers + ev.impulse
    if ev.dep_gain is not None:
        followers = followers + ev.dep_gain @ errs
    return np.concatenate([leader, followers])


def random_signal_and_budget(
    rng: np.random.Generator,
) -> tuple[SwitchingSignal, SwitchingBudget, set[int]]:
    """Random piecewise-constant signal plus a random consistent budget.

    Mode ids 1..4 with a random stable subset; segments alternate between the
    two classes often enough to exercise both suffix conditions. Events are
    pure relabellings so the signal constructor's consistency checks pass.
    """
    stable = {1, 2} if rng.random() < 0.5 else {1}
    unstable = {3, 4}
    tf = float(rng.uniform(5.0, 30.0))
    n_switch = int(rng.integers(0, 13))
    times = np.sort(rng.uniform(0.05, tf - 0.05, size=n_switch))
    # enforce strictly increasing with a minimal gap
    for i in range(1, len(times)):
        if times[i] - times[i - 1] < 1e-3:
            times[i] = times[i - 1] + 1e-3
    times = times[times < tf - 1e-3]

    modes = []
    prev = None
    for _ in range(len(times) + 1):
        pool = [m for m in (stable | unstable) if m != prev]
        m = int(rng.choice(pool))
        modes.append(m)
        prev = m
    segments = [Segment(start=0.0, mode=modes[0])]
    for t, m in zip(times, modes[1:]):
        segments.append(Segment(start=float(t), mode=m))
    events = tuple(
        pure_relabel_event(k, segments[k - 1].mode, segments[k].mode, n=2, p=1)
        for k in range(1, len(segments))
    )
    sig = SwitchingSignal(t0=0.0, tf=tf, segments=tuple(segments), events=events)

    g_s = -float(rng.uniform(0.5, 3.0))
    g = float(rng.uniform(0.9 * g_s, 0.05 * g_s))  # strictly inside (g_s, 0)
    g_u = None if rng.random() < 0.2 else float(rng.uniform(0.0, 5.0))
    mu = float(rng.uniform(1.0, 5.0))
    chatter = float(rng.choice([0.0, 1.0, 2.5]))
    budget = SwitchingBudget(
        chatter_bound=chatter,
        gamma_common=g,
        gamma_stable_max=g_s,
        gamma_unstable_max=g_u,
        jump_gain=mu,
    )
    return sig, budget, stable


def tabled(p: int, t0: float, tf: float, pieces) -> Trajectory:
    """The Trajectory of hand-made SegmentTrace pieces, laid out as
    run_switched lays out a run: their rows one after another, the errors
    padded with zeros to the widest piece."""
    lens = [len(piece.t) for piece in pieces]
    ends = np.cumsum(lens).tolist()
    count = np.repeat([piece.n_agents for piece in pieces], lens)
    t = np.concatenate([piece.t for piece in pieces])
    z = np.zeros((len(t), p * (1 + count.max())))
    for piece, a, b in zip(pieces, [0, *ends], ends):
        z[a:b, :p], z[a:b, p : p * (1 + piece.n_agents)] = piece.leader, piece.errs
    mode = np.repeat([piece.mode_id for piece in pieces], lens)
    return Trajectory(p, t0, tf, t, mode, count, z, np.array([0, *ends[:-1]]))


def reference_trajectory_csv(traj, path: str) -> None:
    """Row-by-row trajectory CSV writer, one f-string per value.

    The layout oracle for the block writer in omaslab.simulate: 17
    significant digits, blank padding up to the largest agent count.
    """
    n_max = traj.max_agents()
    p = traj.p
    cols = ["t", "mode", "agent_count"]
    cols += [f"xi_agent{i}_dim{d}" for i in range(n_max + 1) for d in range(p)]
    cols += [f"err_agent{i}_dim{d}" for i in range(1, n_max + 1) for d in range(p)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for seg in traj.segments:
            states = seg.states  # formed on each access: once per segment
            for i in range(len(seg.t)):
                state, err = states[i], seg.errs[i]
                row = [f"{float(seg.t[i]):.17g}", str(seg.mode_id), str(len(err) // p)]
                vals = [f"{v:.17g}" for v in state]
                vals += [""] * ((n_max + 1) * p - len(state))
                evals = [f"{v:.17g}" for v in err]
                evals += [""] * (n_max * p - len(err))
                fh.write(",".join(row + vals + evals) + "\n")


def reference_events_csv(traj, path: str) -> None:
    """Row-by-row events CSV writer, one f-string per value.

    The oracle for the block writer in omaslab.simulate: integers as str,
    times and norms with 17 significant digits, an overflowing norm as inf.
    """
    cols = [
        "k", "t", "mode_before", "mode_after", "n_before", "n_after",
        "pre_err_norm", "post_err_norm", "impulse_norm",
    ]
    with open(path, "w") as fh, np.errstate(over="ignore"):
        fh.write(",".join(cols) + "\n")
        for ev in traj.events:
            row = [
                str(ev.index), f"{ev.t:.17g}", str(ev.mode_before), str(ev.mode_after),
                str(ev.n_before), str(ev.n_after), f"{ev.pre_err_norm:.17g}",
                f"{ev.post_err_norm:.17g}", f"{ev.impulse_norm:.17g}",
            ]
            fh.write(",".join(row) + "\n")


def envelope_by_direct_sums(traj, bundle) -> np.ndarray:
    """The energy envelope of lyapunov_trace summed term by term.

    Every sample sums mu^(N-m+1) e^(g (t - t_m)) and mu^(N-m) e^(g (t - t_m))
    over all earlier switches m. Quadratic in the switch count and it
    overflows once mu^N does, so it serves only short runs as an oracle.
    """
    mu, g = bundle.jump_gain, bundle.gamma_common
    switch_times = [ev.t for ev in traj.events]
    v0 = None
    out = []
    for seg in traj.segments:
        errs0 = seg.errs[0]
        if v0 is None:
            P = bundle.certificates[seg.mode_id].P
            v0 = math.sqrt(max(float(errs0 @ P @ errs0), 0.0))
        i = seg.index
        env = np.exp(max(i, bundle.chatter_bound) * math.log(mu) + g * (seg.t - traj.t0)) * v0
        env = env + bundle.settled_flow
        for m in range(1, i + 1):
            decay = np.exp(g * (seg.t - switch_times[m - 1]))
            env = env + bundle.settled_flow * mu ** (i - m + 1) * decay
            env = env + bundle.jump_offset * mu ** (i - m) * decay
        out.append(env)
    return np.concatenate(out)


def lyapunov_trace_by_window(traj, bundle, rel_tol: float = 1e-6) -> LyapunovTrace:
    """simulate.lyapunov_trace window by window, over Trajectory.segments.

    Each window's V is its own einsum with its mode's P, and its envelope
    takes the carry of the switches before it, advanced one switch at a
    time: the oracle for the trace over the run's rows, bit for bit.
    """
    mu = bundle.jump_gain
    ln_mu = math.log(mu)
    g = bundle.gamma_common
    switch_times = [ev.t for ev in traj.events]
    all_t, all_v, all_env, violations = [], [], [], []
    v0 = None
    carry = 0.0
    for seg in traj.segments:
        P = bundle.certificates[seg.mode_id].P
        v = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", seg.errs, P, seg.errs), 0.0))
        if v0 is None:
            v0 = float(v[0])
        i = seg.index
        beta = np.exp(max(i, bundle.chatter_bound) * ln_mu + g * (seg.t - traj.t0)) * v0
        tail = 0.0
        if i > 0:
            if i > 1:
                carry *= mu * math.exp(g * (switch_times[i - 1] - switch_times[i - 2]))
            carry += 1.0
            tail = carry * np.exp(g * (seg.t - switch_times[i - 1]))
        flow = bundle.settled_flow * (1.0 + mu * tail) if bundle.settled_flow > 0.0 else 0.0
        imp = bundle.jump_offset * tail if bundle.jump_offset > 0.0 else 0.0
        env = beta + flow + imp
        for idx in np.nonzero(v > env * (1.0 + rel_tol) + 1e-12)[0]:
            violations.append((float(seg.t[idx]), float(v[idx]), float(env[idx])))
        all_t.append(seg.t)
        all_v.append(v)
        all_env.append(env)
    jump_checks = []
    for ev in traj.events:
        pre_P = bundle.certificates[ev.mode_before].P
        post_P = bundle.certificates[ev.mode_after].P
        v_pre = math.sqrt(max(float(ev.pre_err @ pre_P @ ev.pre_err), 0.0))
        v_post = math.sqrt(max(float(ev.post_err @ post_P @ ev.post_err), 0.0))
        ok = v_post <= mu * v_pre + bundle.jump_offset + rel_tol * (1.0 + v_pre) + 1e-12
        jump_checks.append((ev.t, v_pre, v_post, ok))
    return LyapunovTrace(np.concatenate(all_t), np.concatenate(all_v), np.concatenate(all_env),
                         violations, jump_checks)


def segment_bounds(sig: SwitchingSignal, i: int) -> tuple[float, float]:
    """(start, end) of segment i of a signal: its start is t0 for the first,
    and its end is the next segment's start, or tf for the last."""
    end = sig.segments[i + 1].start if i + 1 < len(sig.segments) else sig.tf
    return (sig.t0 if i == 0 else sig.segments[i].start), end


def grid_by_count(t_start: float, t_end: float, dt: float) -> tuple[int, float]:
    """(n_full, rem) of the window [t_start, t_end]: its count of full steps
    of dt, and the remainder step onto t_end, 0.0 when there is none.

    A remainder within rounding (1e-9 dt) of a full step is none, and a
    window shorter than dt is one step of its own length. The count rule
    that simulate._grid lays out as blocks.
    """
    span = t_end - t_start
    n_full = int(math.floor(span / dt + _GRID_EPS))
    rem = span - n_full * dt
    if n_full > 0 and rem < dt * 1e-9:
        rem = 0.0
    return n_full, rem


def stepwise_window(
    M: np.ndarray, p: int, n_agents: int, x0: np.ndarray, h, t_span: tuple[float, float],
    dt: float, method: str, stride: int,
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """One constant-mode window stepped one step at a time: the reference
    for the kept samples of simulate.run_switched.

    x0 is the errors, or any unforced coordinates (the leader) and then
    the errors: the forcing drives the last p n_agents coordinates alone.
    The window's steps are the blocks simulate._grid lays out, each step
    length's matrices those of step_matrices (both checked
    against their own oracles), and the forcing is forcing_at at every grid
    time. Each block's forcing terms are formed at once, as the simulator
    forms them, so that they carry its bits; then every step is taken as
    x <- E x + G_k. Every stride-th step and the window's last are kept,
    the last at the window's end, and the run stops at the first non-finite
    state, which is not kept.
    Returns the kept times, the states at them (x0 first) and the time of
    the first non-finite step (None when there is none).
    """
    t_start, t_end = t_span
    blocks = _grid(t_start, t_end, dt)
    last = blocks[-1][1]
    times, states, x = [t_start], [np.array(x0, dtype=float)], np.array(x0, dtype=float)
    unforced = np.zeros(len(x) - n_agents * p)
    for a, b, step in blocks:
        E, A0, A1 = step_matrices(M, step, method)
        ends = [t_start + k * dt for k in range(a + 1, b + 1)] if step == dt else [t_end]
        F = np.array([np.concatenate((unforced, forcing_at(h, t, n_agents, p)))
                      for t in [t_start + a * dt, *ends]])
        G = F[:-1] @ A0.T + F[1:] @ A1.T
        for k, t in enumerate(ends, start=a + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                x = np.dot(E, x) + G[k - a - 1]
            if not np.isfinite(x).all():
                return np.array(times), np.array(states), t
            if k % stride == 0 or k == last:
                times.append(t_end if k == last else t)  # the last row on the window's end
                states.append(x)
    return np.array(times), np.array(states), None


def stepwise_run(
    matrices, signal: SwitchingSignal, x0: np.ndarray, h, dt: float, method: str, stride: int,
    stacked: bool = False,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[tuple[np.ndarray, np.ndarray]], float | None]:
    """A whole run window by window: the reference for simulate.run_switched.

    Each window is stepwise_window from the state the jump before it left,
    on the A_err of its mode, the errors alone: x0's leader is dropped.
    stacked steps (leader, errors) instead, on the block_diag(A, A_err) of
    the mode, as the run once did: a second reference, whose leader is
    stepped and whose run stops where the leader overflows as well. Each
    switch is apply_error_jump on the last kept errors (the stacked form
    carries its leader over). Returns each window's kept times and states, each switch's (pre,
    post) errors, and where the run stopped: the time of the first
    non-finite step, or the switching instant whose jump leaves a
    non-finite error (that jump not listed), None when it ran to the end.
    """
    windows, jumps = [], []
    p = matrices[signal.segments[0].mode].p
    lead = p if stacked else 0  # the leading coordinates stepped, the leader's
    x = np.asarray(x0, dtype=float)[p - lead :]
    for i, seg in enumerate(signal.segments):
        mode = matrices[seg.mode]
        M = scipy.linalg.block_diag(mode.A, mode.A_err) if stacked else mode.A_err
        t_span = segment_bounds(signal, i)
        times, states, diverged_at = stepwise_window(
            M, mode.p, mode.n_agents, x, h, t_span, dt, method, stride)
        windows.append((times, states))
        if diverged_at is not None:
            return windows, jumps, diverged_at
        if i == len(signal.events):
            break
        pre = states[-1, lead:]
        with np.errstate(over="ignore", invalid="ignore"):
            post = apply_error_jump(signal.events[i], pre)
        if not np.isfinite(post).all():
            return windows, jumps, t_span[1]
        jumps.append((pre, post))
        x = np.concatenate([states[-1, :lead], post])
    return windows, jumps, None


def forcing_at(h, t: float, n_agents: int, p: int) -> np.ndarray:
    """The forcing of perturbation model h at one time, recounted by kind.

    Tiles the amplitude across agents and rescales it into the ball; the
    random kind takes its hold's hold_row. The per-point oracle for
    PerturbationModel.sample.
    """
    dim = n_agents * p
    if h.kind == "zero" or h.bound == 0.0:
        return np.zeros(dim)
    if h.kind == "random":
        return hold_row(h.seed or 0, int(math.floor(t / h.hold + _GRID_EPS)), dim, h.bound)[0]
    v = np.tile(np.asarray(h.amplitude, dtype=float), n_agents)
    norm = float(np.linalg.norm(v))
    if norm > h.bound and norm > 0.0:
        v *= h.bound / norm
    if h.kind == "sinusoidal":
        v = v * math.sin(2.0 * math.pi * h.frequency * t)
    return v


def suffix_by_intervals(
    sig: SwitchingSignal, stable_set: set[int], chatter_bound: float, j: int
) -> tuple[float, float, float, float]:
    """(t_j, T_s, T_u, adt) of suffix j, recounted by direct interval arithmetic.

    t_j is t0 for j = 0 and the j-th switching instant otherwise. T_s and
    T_u clip every segment to [t_j, tf]; adt counts the switching instants
    strictly after t_j (t_k > t_j + _TIME_EPS). The per-suffix oracle for
    suffix_sweep.
    """
    t_j = sig.t0 if j == 0 else sig.segments[j].start
    t_s = t_u = 0.0
    for i, seg in enumerate(sig.segments):
        end = sig.segments[i + 1].start if i + 1 < len(sig.segments) else sig.tf
        lo = max(seg.start, t_j)
        if end <= lo:
            continue
        if seg.mode in stable_set:
            t_s += end - lo
        else:
            t_u += end - lo
    n = sum(1 for seg in sig.segments[1:] if seg.start > t_j + _TIME_EPS)
    adt = math.inf if n <= chatter_bound else (sig.tf - t_j) / (n - chatter_bound)
    return t_j, t_s, t_u, adt
