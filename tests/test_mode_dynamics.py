"""Stacked mode matrices, spectral abscissas and the coupling gain bound."""

import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from omaslab.demo import DEMO_A, DEMO_ALPHAS, DEMO_COUPLING
from omaslab.errors import AssumptionViolation, ConfigError
from omaslab.mode_dynamics import (
    AgentDynamics,
    _has_perfect_matching,
    build_mode_matrices,
    build_mode_matrix,
    coupling_gain_bound,
    kronecker_sum_spectrum_check,
    spectral_abscissa,
)
from omaslab.signed_graph import augmented_laplacian, mode_from_dense

from helpers import error_projector
from test_signed_graph import DEMO_D, DEMO_L, Z_SPECTRA, demo_modes


def quadratic_alpha(a: np.ndarray) -> float:
    """Largest real part of a 2x2 spectrum via the explicit quadratic formula."""
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return max(((tr + disc) / 2.0).real, ((tr - disc) / 2.0).real)


def hand_alpha(mid: int) -> float:
    """Independent alpha: quadratic-formula agent rate plus the best
    coupled shift over the hand-derived grounded spectrum."""
    return quadratic_alpha(DEMO_A) + max(DEMO_COUPLING * z for z in Z_SPECTRA[mid])


def test_agent_abscissa_matches_quadratic_formula():
    assert quadratic_alpha(DEMO_A) == pytest.approx(0.025, abs=1e-15)
    assert spectral_abscissa(np.array(DEMO_A)) == pytest.approx(0.025, abs=1e-12)


def test_demo_alphas_frozen_and_hand_derived(demo_matrices):
    for mid, mm in demo_matrices.items():
        assert mm.alpha == pytest.approx(DEMO_ALPHAS[mid], abs=1e-9), f"mode {mid}"
        assert mm.alpha == pytest.approx(hand_alpha(mid), abs=1e-12), f"mode {mid}"


def test_stable_split(demo_matrices):
    assert {mid for mid, mm in demo_matrices.items() if mm.stable} == {1}
    assert demo_matrices[1].stable
    assert not any(demo_matrices[m].stable for m in (2, 3, 4))


def test_coupling_gain_bound_hand_value():
    modes = list(demo_modes().values())
    dyn = AgentDynamics(A=np.array(DEMO_A))
    # only mode 1 is positive spanning; alpha(-Z1) = -1, alpha(A) = 0.025
    bound = coupling_gain_bound(dyn, modes)
    assert bound == pytest.approx(0.025 / -1.0, abs=1e-12)
    assert DEMO_COUPLING < bound
    assert not -0.02 < bound


def test_coupling_bound_needs_spanning_mode():
    modes = demo_modes()
    dyn = AgentDynamics(A=np.array(DEMO_A))
    with pytest.raises(AssumptionViolation):
        coupling_gain_bound(dyn, [modes[2], modes[3]])


def full_matrix(mm, mode):
    """Drift of the leader-included stack, from the augmented Laplacian."""
    n, p = mm.n_agents, mm.p
    return np.kron(np.eye(n + 1), mm.A) + DEMO_COUPLING * np.kron(
        augmented_laplacian(mode), np.eye(p)
    )


def test_error_dynamics_commute_with_projection(demo_matrices):
    # the tracking errors are autonomous: projecting the full flow equals
    # flowing the projected errors, which is why (leader, errors) may flow
    # by block_diag(A, A_err)
    modes = demo_modes()
    for mid, mm in demo_matrices.items():
        proj = error_projector(mm.n_agents, mm.p)
        A_full = full_matrix(mm, modes[mid])
        np.testing.assert_allclose(proj @ A_full, mm.A_err @ proj, atol=1e-12)


def test_full_matrix_leader_block(demo_matrices):
    modes = demo_modes()
    for mid, mm in demo_matrices.items():
        p = mm.p
        A_full = full_matrix(mm, modes[mid])
        np.testing.assert_array_equal(mm.A, np.array(DEMO_A))
        np.testing.assert_allclose(A_full[:p, :p], np.array(DEMO_A), atol=0)
        np.testing.assert_allclose(A_full[:p, p:], 0.0, atol=0)


def test_kronecker_check_demo_modes():
    # the demo Laplacians carry defective eigenvalues (a Jordan chain of
    # size 3 in mode 1), where dense eigensolves are only eps^(1/3) accurate;
    # the identity itself is exact, so a 1e-4 tolerance is the honest check
    for mid in DEMO_L:
        Z = DEMO_L[mid] + np.diag(DEMO_D[mid])
        assert kronecker_sum_spectrum_check(DEMO_COUPLING * Z, np.array(DEMO_A), tol=1e-4)


def test_kronecker_check_random_pairs(rng):
    # unit-scale version of the acceptance sweep
    for _ in range(25):
        n = int(rng.integers(1, 6))
        r = int(rng.integers(1, 6))
        F = rng.standard_normal((n, n))
        G = rng.standard_normal((r, r))
        assert kronecker_sum_spectrum_check(F, G)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 9),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_perfect_matching_agrees_with_assignment(n, density, seed):
    # a zero-cost assignment of the 0/1 costs "no edge" is a perfect matching
    adj = np.random.default_rng(seed).random((n, n)) < density
    rows, cols = linear_sum_assignment((~adj).astype(float))
    assert _has_perfect_matching(adj) == (not (~adj)[rows, cols].any())
    if n <= 5:
        want = any(all(adj[i, j] for i, j in enumerate(perm))
                   for perm in itertools.permutations(range(n)))
        assert _has_perfect_matching(adj) == want


def test_perfect_matching_follows_long_augmenting_paths():
    # the greedy pass gives row i column i, so the last row's only
    # augmenting path runs through every other row: far deeper than
    # Python's recursion limit
    n = 5000
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(n - 1)] = True
    adj[np.arange(n - 1), np.arange(1, n)] = True
    adj[n - 1, 0] = True
    assert _has_perfect_matching(adj)
    adj[n - 2, n - 1] = False
    assert not _has_perfect_matching(adj)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 5),
    r=st.integers(1, 4),
    repeat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    log_tol=st.floats(-12.0, 0.0),
)
def test_kronecker_check_passes_where_min_sum_assignment_passes(n, r, repeat, seed, log_tol):
    # the check asks for any pairing within tol, so it passes wherever the
    # min-sum pairing does; repeated factor eigenvalues give tied sums
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, n))
    G = np.eye(r) * rng.standard_normal() if repeat else rng.standard_normal((r, r))
    Y = np.kron(F, np.eye(r)) + np.kron(np.eye(n), G)
    ev_y = np.linalg.eigvals(Y)
    pair = np.array([lf + lg for lf in np.linalg.eigvals(F) for lg in np.linalg.eigvals(G)])
    cost = np.abs(ev_y[:, None] - pair[None, :])
    rows, cols = linear_sum_assignment(cost)
    tol = 10.0**log_tol
    if cost[rows, cols].max() <= tol:
        assert kronecker_sum_spectrum_check(F, G, tol=tol)


def test_build_rejects_oversized_stack():
    modes = demo_modes()
    dyn = AgentDynamics(A=np.array(DEMO_A))
    with pytest.raises(ConfigError, match="dimension"):
        build_mode_matrix(dyn, modes[3], DEMO_COUPLING, max_dim=8)


def test_family_requires_ids():
    dyn = AgentDynamics(A=np.array(DEMO_A))
    anon = mode_from_dense(DEMO_L[1], DEMO_D[1])  # no id
    with pytest.raises(ConfigError, match="ids"):
        build_mode_matrices(dyn, [anon], DEMO_COUPLING)
    dup = [mode_from_dense(DEMO_L[1], DEMO_D[1], mode_id=7), mode_from_dense(DEMO_L[2], DEMO_D[2], mode_id=7)]
    with pytest.raises(ConfigError, match="duplicate"):
        build_mode_matrices(dyn, dup, DEMO_COUPLING)


def test_stable_agent_warning():
    with pytest.warns(UserWarning, match="already stable"):
        AgentDynamics(A=np.array([[-1.0, 0.0], [0.0, -2.0]]))
