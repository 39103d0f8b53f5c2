"""The exact step's propagators against Van Loan's block exponential.

simulate._propagator_stack forms E = e^(M h), Phi1 = h phi1(M h) and Phi2 =
h^2 phi2(M h) by scaling and squaring at dimension n. The oracle,
helpers.van_loan_propagators, reads the same three matrices off the
exponential of a 3n x 3n block: in double precision through scipy, and at
40 digits through mpmath where double-precision Van Loan is itself the
less accurate of the two.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab.demo import DEMO_A, DEMO_COUPLING
from omaslab.mode_dynamics import AgentDynamics, build_mode_matrix
from omaslab.signed_graph import AugmentedMode, Edge, SignedDigraph
from omaslab.simulate import _grid

from helpers import propagators, segment_bounds, van_loan_propagators

RTOL = 1e-12

# the largest ||M h||_1 drawn for each family when double-precision Van
# Loan is the oracle. Past these, Van Loan itself strays more than RTOL
# from a 40-digit reference: by 1.6e-12 on rotations at 100, 2.5e-11 at
# 600, and 1.5e-12 on growing spectra at 10.
VAN_LOAN_REACH = {
    "zero": 600.0,
    "nilpotent": 30.0,
    "jordan": 3.0,
    "singular": 10.0,
    "growing": 3.0,
    "decaying": 30.0,
    "rotation": 30.0,
}
# the 40-digit oracle reaches every family to 600, but growth past e^100
# overflows the Jordan block's polynomial factor
HIGH_PRECISION_REACH = {
    **dict.fromkeys(VAN_LOAN_REACH, 600.0), "jordan": 100.0, "growing": 100.0,
}
# At ||M h||_1 in the hundreds the 1-norm scaling over-scales strongly
# non-normal matrices, and the extra squarings cost accuracy: up to 3.9e-12
# on a rank-deficient 8 x 8 matrix at ||M h||_1 = 544 whose spectrum is
# within 9 of 0. The simulator's step matrices sit at ||M h||_1 <= 5.
HIGH_PRECISION_RTOL = 1e-11


def family_matrix(family: str, n: int, seed: int, norm: float, step: float) -> np.ndarray:
    """An n x n matrix of the family, scaled so that ||M step||_1 = norm.

    zero         the zero matrix (and any family whose shape is zero at n = 1)
    nilpotent    strictly upper triangular
    jordan       one growing Jordan block, eigenvalue > 0 of multiplicity n
    singular     a product of n x r and r x n factors, rank r < n
    growing      a shifted random matrix with spectrum in the right half plane
    decaying     the same shifted into the left half plane
    rotation     orthogonally rotated 2 x 2 blocks [[0, w], [-w, 0]]
    """
    rng = np.random.default_rng(seed)
    if family == "zero":
        return np.zeros((n, n))
    if family == "nilpotent":
        S = np.triu(rng.standard_normal((n, n)), 1)
    elif family == "jordan":
        S = np.eye(n) + np.eye(n, k=1)
    elif family == "singular":
        r = int(rng.integers(0, n))
        S = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    elif family in ("growing", "decaying"):
        shift = 3.0 if family == "growing" else -3.0
        S = shift * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    else:
        S = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            w = rng.uniform(0.5, 1.0)
            S[i, i + 1], S[i + 1, i] = w, -w
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = Q @ S @ Q.T
    size = np.linalg.norm(S, 1)
    return S if size == 0.0 else S * (norm / (size * step))


def assert_close(got, want, rtol=RTOL):
    for name, g, w in zip(("E", "Phi1", "Phi2"), got, want):
        err = np.linalg.norm(g - w, 1) / np.linalg.norm(w, 1)
        assert err <= rtol, f"{name}: relative 1-norm error {err:.2e}"


def family_case(reach: dict[str, float], max_dim: int):
    """(family, n, seed, ||M h||_1, h), the norm log-uniform up to the family's reach."""
    return st.sampled_from(sorted(reach)).flatmap(
        lambda family: st.tuples(
            st.just(family),
            st.integers(1, max_dim),
            st.integers(0, 2**32 - 1),
            st.floats(-3.0, float(np.log10(reach[family]))).map(lambda e: 10.0**e),
            st.floats(-3.0, float(np.log10(2.0))).map(lambda e: 10.0**e),
        )
    )


@settings(max_examples=300, deadline=None)
@given(case=family_case(VAN_LOAN_REACH, 40))
def test_propagators_match_van_loan(case):
    family, n, seed, norm, step = case
    M = family_matrix(family, n, seed, norm, step)
    assert_close(propagators(M, step), van_loan_propagators(M, step))


@settings(max_examples=30, deadline=None)
@given(case=family_case(HIGH_PRECISION_REACH, 5))
def test_propagators_match_high_precision_van_loan(case):
    pytest.importorskip("mpmath")
    family, n, seed, norm, step = case
    M = family_matrix(family, n, seed, norm, step)
    assert_close(
        propagators(M, step), van_loan_propagators(M, step, digits=40), HIGH_PRECISION_RTOL
    )


def test_zero_matrix_propagators_are_exact():
    h = 0.3
    E, Phi1, Phi2 = propagators(np.zeros((4, 4)), h)
    assert np.array_equal(E, np.eye(4))
    assert np.array_equal(Phi1, h * np.eye(4))
    assert np.array_equal(Phi2, h * h * 0.5 * np.eye(4))


def _ring(n: int, hops: tuple[int, ...], w: float) -> list[Edge]:
    return [Edge(i + 1, (i + h) % n + 1, w) for i in range(n) for h in hops]


def wide_modes():
    """The three ring modes of the wide benchmark network at its smoke size:
    a positive ring with every agent on the leader, a negative ring with
    three leader links, a negative ring with skips and every agent linked."""
    dyn = AgentDynamics(np.array(DEMO_A))
    n1, n2, n3 = 20, 19, 21
    modes = [
        AugmentedMode(SignedDigraph(n1, tuple(_ring(n1, (1,), 1.0))), (1.0,) * n1, 1),
        AugmentedMode(
            SignedDigraph(n2, tuple(_ring(n2, (1,), -1.0))),
            tuple(1.0 if i in (0, n2 // 3, 2 * n2 // 3) else 0.0 for i in range(n2)), 2,
        ),
        AugmentedMode(SignedDigraph(n3, tuple(_ring(n3, (1, 2), -1.0))), (1.0,) * n3, 3),
    ]
    return [build_mode_matrix(dyn, m, DEMO_COUPLING) for m in modes]


def test_demo_modes_match_van_loan(practical_scenario, practical_signal):
    # every (mode, step length) the practical demo run builds
    dt = practical_scenario.simulation.dt
    matrices = practical_scenario.mode_matrices()
    builds = {
        (seg.mode, step)
        for i, seg in enumerate(practical_signal.segments)
        for _, _, step in _grid(*segment_bounds(practical_signal, i), dt)
    }
    assert {mode for mode, _ in builds} == set(matrices)
    assert len({step for _, step in builds}) > 1  # remainders as well as dt
    for mode, step in sorted(builds):
        M = matrices[mode].A_err
        assert_close(propagators(M, step), van_loan_propagators(M, step))


def test_wide_modes_match_van_loan():
    # the wide layout: stable spans of 30.2 s (60 steps of 0.5 and a
    # remainder), unstable spans of one 0.5 s step
    dt = 0.5
    steps = {step for span in ((0.0, 30.2), (30.2, 30.7)) for _, _, step in _grid(*span, dt)}
    assert len(steps) == 2
    for mode in wide_modes():
        M = mode.A_err
        for step in steps:
            assert_close(propagators(M, step), van_loan_propagators(M, step))
