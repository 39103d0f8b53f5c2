"""Stacked mode matrices, spectral abscissas and the coupling gain bound."""

import cmath

import numpy as np
import pytest

from omaslab import (
    AgentDynamics,
    AssumptionViolation,
    ConfigError,
    augmented_laplacian,
    build_mode_matrices,
    build_mode_matrix,
    check_coupling_gain,
    coupling_gain_bound,
    kronecker_sum_spectrum_check,
    mode_from_dense,
    spectral_abscissa,
    stable_mode_ids,
    suggest_coupling_gain,
)
from omaslab.demo import DEMO_A, DEMO_ALPHAS, DEMO_COUPLING, demo_laplacians, demo_leader_links

from helpers import error_projector
from test_signed_graph import Z_SPECTRA, demo_modes


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
    assert stable_mode_ids(demo_matrices) == {1}
    assert demo_matrices[1].stable
    assert not any(demo_matrices[m].stable for m in (2, 3, 4))


def test_coupling_gain_bound_hand_value():
    modes = list(demo_modes().values())
    dyn = AgentDynamics(A=np.array(DEMO_A))
    # only mode 1 is positive spanning; alpha(-Z1) = -1, alpha(A) = 0.025
    bound = coupling_gain_bound(dyn, modes)
    assert bound == pytest.approx(0.025 / -1.0, abs=1e-12)
    assert check_coupling_gain(dyn, modes, DEMO_COUPLING)
    assert not check_coupling_gain(dyn, modes, -0.02)
    assert suggest_coupling_gain(dyn, modes) == pytest.approx(-0.05, abs=1e-12)


def test_coupling_bound_needs_spanning_mode():
    modes = demo_modes()
    dyn = AgentDynamics(A=np.array(DEMO_A))
    with pytest.raises(AssumptionViolation):
        coupling_gain_bound(dyn, [modes[2], modes[3]])


def test_suggest_rejects_bad_factor():
    modes = list(demo_modes().values())
    dyn = AgentDynamics(A=np.array(DEMO_A))
    with pytest.raises(ConfigError):
        suggest_coupling_gain(dyn, modes, margin_factor=1.0)


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
    Ls, Ds = demo_laplacians(), demo_leader_links()
    for mid in Ls:
        Z = Ls[mid] + np.diag(Ds[mid])
        assert kronecker_sum_spectrum_check(DEMO_COUPLING * Z, np.array(DEMO_A), tol=1e-4)


def test_kronecker_check_random_pairs(rng):
    # unit-scale version of the acceptance sweep
    for _ in range(25):
        n = int(rng.integers(1, 6))
        r = int(rng.integers(1, 6))
        F = rng.standard_normal((n, n))
        G = rng.standard_normal((r, r))
        assert kronecker_sum_spectrum_check(F, G)


def test_build_rejects_oversized_stack():
    modes = demo_modes()
    dyn = AgentDynamics(A=np.array(DEMO_A))
    with pytest.raises(ConfigError, match="dimension"):
        build_mode_matrix(dyn, modes[3], DEMO_COUPLING, max_dim=8)


def test_family_requires_ids():
    dyn = AgentDynamics(A=np.array(DEMO_A))
    Ls, Ds = demo_laplacians(), demo_leader_links()
    anon = mode_from_dense(Ls[1], Ds[1])  # no id
    with pytest.raises(ConfigError, match="ids"):
        build_mode_matrices(dyn, [anon], DEMO_COUPLING, warn_on_gain=False)
    dup = [mode_from_dense(Ls[1], Ds[1], mode_id=7), mode_from_dense(Ls[2], Ds[2], mode_id=7)]
    with pytest.raises(ConfigError, match="duplicate"):
        build_mode_matrices(dyn, dup, DEMO_COUPLING, warn_on_gain=False)


def test_gain_warning():
    dyn = AgentDynamics(A=np.array(DEMO_A))
    modes = list(demo_modes().values())
    with pytest.warns(UserWarning, match="not strictly below"):
        build_mode_matrices(dyn, modes, -0.01)


def test_stable_agent_warning():
    with pytest.warns(UserWarning, match="already stable"):
        AgentDynamics(A=np.array([[-1.0, 0.0], [0.0, -2.0]]))
