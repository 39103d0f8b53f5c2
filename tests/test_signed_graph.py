"""Signed digraphs, repelling Laplacians and mode classification."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab.demo import DEMO_MODES
from omaslab.errors import ConfigError
from omaslab.signed_graph import (
    AugmentedMode,
    Edge,
    ModeClass,
    SignedDigraph,
    augmented_laplacian,
    check_negative_majority_instability,
    classify_mode,
    grounded_laplacian,
    has_leader_spanning_tree,
    leader_reachable_set,
    mode_from_dense,
    repelling_laplacian,
)

from helpers import char_poly_coeffs, poly_from_roots, random_negative_majority_mode

# hand-derived spectra of the demo grounded Laplacians: Z1 factors as
# (2 - l)(1 - l)^3, Z2 is triangular after inspection, Z3 is row-sparse with
# obvious diagonal action, Z4 expands along its third row
Z_SPECTRA = {
    1: [2.0, 1.0, 1.0, 1.0],
    2: [1.0, 0.0, 2.0],
    3: [-1.0, -2.0, 0.0, -1.0, 0.0],
    4: [1.0, -1.0, -1.0],
}

# the demo's dense Laplacians and leader links, by mode id
DEMO_L = {m["id"]: np.array(m["L"]) for m in DEMO_MODES}
DEMO_D = {m["id"]: np.array(m["D"]) for m in DEMO_MODES}

DEMO_CLASSES = {
    1: ModeClass.POSITIVE_SPANNING,
    2: ModeClass.POSITIVE_NO_SPANNING,
    3: ModeClass.NEGATIVE_MAJORITY,
    4: ModeClass.NEGATIVE_MAJORITY,
}


def demo_modes():
    return {mid: mode_from_dense(DEMO_L[mid], DEMO_D[mid], mode_id=mid) for mid in DEMO_L}


# --------------------------------------------------------------------------
# oracle self-check, then the matrix constructions


def test_char_poly_oracle_on_known_matrix():
    # companion matrix of l^2 - 3l + 2 = (l-1)(l-2)
    M = np.array([[0.0, -2.0], [1.0, 3.0]])
    assert char_poly_coeffs(M) == pytest.approx([1.0, -3.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("mid", [1, 2, 3, 4])
def test_grounded_spectra_match_hand_derivation(mid):
    modes = demo_modes()
    Z = grounded_laplacian(modes[mid])
    got = char_poly_coeffs(Z)
    want = poly_from_roots(Z_SPECTRA[mid])
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("mid", [1, 2, 3, 4])
def test_dense_round_trip(mid):
    mode = mode_from_dense(DEMO_L[mid], DEMO_D[mid], mode_id=mid)
    assert mode.mode_id == mid
    np.testing.assert_allclose(repelling_laplacian(mode.graph), DEMO_L[mid], atol=0)
    np.testing.assert_allclose(
        grounded_laplacian(mode), DEMO_L[mid] + np.diag(DEMO_D[mid]), atol=0
    )


def test_demo_mode_agent_counts():
    modes = demo_modes()
    assert {mid: m.n_agents for mid, m in modes.items()} == {1: 4, 2: 3, 3: 5, 4: 3}


def test_augmented_laplacian_structure():
    for mode in demo_modes().values():
        Lt = augmented_laplacian(mode)
        n = mode.n_agents
        assert Lt.shape == (n + 1, n + 1)
        np.testing.assert_allclose(Lt[0], 0.0, atol=0)
        np.testing.assert_allclose(Lt[1:, 0], -np.array(mode.leader_links), atol=0)
        np.testing.assert_allclose(Lt[1:, 1:], grounded_laplacian(mode), atol=0)
        np.testing.assert_allclose(Lt.sum(axis=1), 0.0, atol=1e-12)


# --------------------------------------------------------------------------
# classification


def test_demo_classification():
    for mid, mode in demo_modes().items():
        assert classify_mode(mode) is DEMO_CLASSES[mid], f"mode {mid}"


def test_leader_reachability_demo():
    modes = demo_modes()
    assert leader_reachable_set(modes[2]) == {1, 3}
    assert not has_leader_spanning_tree(modes[2])
    assert has_leader_spanning_tree(modes[1])


def test_negative_majority_instability_demo():
    modes = demo_modes()
    for mid in (3, 4):
        rep = check_negative_majority_instability(modes[mid])
        assert rep.trace_augmented < 0.0
        assert rep.trace_grounded < 0.0
        assert rep.ok, f"mode {mid}: {rep}"


def test_instability_check_rejects_other_classes():
    modes = demo_modes()
    with pytest.raises(ConfigError):
        check_negative_majority_instability(modes[1])


def test_random_negative_majority_sample(rng):
    # a small slice of the acceptance-scale sweep, as a fast regression net
    for _ in range(50):
        mode = random_negative_majority_mode(rng)
        assert classify_mode(mode) is ModeClass.NEGATIVE_MAJORITY
        rep = check_negative_majority_instability(mode)
        assert rep.ok


def test_weighted_majority_overrides_count():
    # one heavy negative edge against two light positive ones: counting says
    # minority, the weighted off-diagonal sum says majority and must win
    g = SignedDigraph(
        n_agents=3,
        edges=(Edge(1, 2, 0.1), Edge(2, 3, 0.1), Edge(3, 1, -5.0)),
    )
    mode = AugmentedMode(graph=g, leader_links=(0.0, 0.0, 0.0))
    with pytest.warns(UserWarning, match="disagree"):
        assert classify_mode(mode) is ModeClass.NEGATIVE_MAJORITY


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 9), data=st.data())
def test_unit_weight_modes_classify_by_count(n, data):
    # on unit weights the weighted test is the count test: the same verdict
    # and no disagreement warning, ties included
    pairs = [(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    weights = data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                 min_size=len(chosen), max_size=len(chosen)))
    links = data.draw(st.lists(st.sampled_from([0.0, 1.0, -1.0]), min_size=n, max_size=n))
    g = SignedDigraph(n_agents=n, edges=tuple(Edge(s, d, w) for (s, d), w in zip(chosen, weights)))
    mode = AugmentedMode(graph=g, leader_links=tuple(links))
    pos = sum(w > 0 for w in weights + links)
    neg = sum(w < 0 for w in weights + links)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = classify_mode(mode)
    if neg == 0:
        assert cls in (ModeClass.POSITIVE_SPANNING, ModeClass.POSITIVE_NO_SPANNING)
    elif neg > pos:
        assert cls is ModeClass.NEGATIVE_MAJORITY
    else:
        assert cls is ModeClass.NEGATIVE_MINORITY


# --------------------------------------------------------------------------
# constructor validation


def test_graph_rejects_self_loop():
    with pytest.raises(ConfigError):
        SignedDigraph(n_agents=2, edges=(Edge(1, 1, 1.0),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ConfigError):
        SignedDigraph(n_agents=2, edges=(Edge(1, 2, 1.0), Edge(1, 2, -1.0)))


def test_graph_rejects_zero_weight_and_range():
    with pytest.raises(ConfigError):
        SignedDigraph(n_agents=2, edges=(Edge(1, 2, 0.0),))
    with pytest.raises(ConfigError):
        SignedDigraph(n_agents=2, edges=(Edge(1, 3, 1.0),))


def test_mode_rejects_wrong_leader_length():
    g = SignedDigraph(n_agents=2)
    with pytest.raises(ConfigError):
        AugmentedMode(graph=g, leader_links=(1.0,))


def test_mode_from_dense_rejects_broken_diagonal():
    L = np.array([[1.0, -1.0], [0.0, 5.0]])  # row 1 diagonal should be 0
    with pytest.raises(ConfigError, match="not a repelling Laplacian"):
        mode_from_dense(L, np.zeros(2))


# --------------------------------------------------------------------------
# structural properties


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=3.0).flatmap(
                lambda w: st.sampled_from([w, -w])
            ),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = tuple(Edge(s, d, w) for (s, d), w in zip(chosen, weights))
    return SignedDigraph(n_agents=n, edges=edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_repelling_rows_sum_to_zero(g):
    L = repelling_laplacian(g)
    np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
    # ones vector is always in the kernel
    np.testing.assert_allclose(L @ np.ones(g.n_agents), 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_relabelling_permutes_laplacian(g, pyrandom):
    perm = list(range(1, g.n_agents + 1))
    pyrandom.shuffle(perm)  # perm[old-1] = new label
    relabeled = SignedDigraph(
        n_agents=g.n_agents,
        edges=tuple(Edge(perm[e.src - 1], perm[e.dst - 1], e.weight) for e in g.edges),
    )
    P = np.zeros((g.n_agents, g.n_agents))
    for old, new in enumerate(perm, start=1):
        P[new - 1, old - 1] = 1.0
    np.testing.assert_allclose(
        repelling_laplacian(relabeled), P @ repelling_laplacian(g) @ P.T, atol=1e-12
    )


# --------------------------------------------------------------------------
# the augmented spectrum


def _generic_mode(rng) -> AugmentedMode:
    """A mode of 2-8 agents with random signed weights of random size, and
    random leader links: its spectra are simple with probability one."""
    n = int(rng.integers(2, 9))
    edges = tuple(Edge(s, d, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)))
                  for s in range(1, n + 1) for d in range(1, n + 1)
                  if s != d and rng.random() < 0.5)
    links = tuple(float(rng.uniform(-2.0, 2.0)) if rng.random() < 0.6 else 0.0 for _ in range(n))
    return AugmentedMode(SignedDigraph(n, edges), links)


def _matched_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest distance, relative to max(1, |z|), between the values of
    a and b paired nearest first: both multisets of one size."""
    rest = list(b)
    worst = 0.0
    for z in sorted(a, key=abs):
        j = int(np.argmin([abs(z - w) for w in rest]))
        worst = max(worst, abs(z - rest.pop(j)) / max(1.0, abs(z)))
    return worst


def test_augmented_spectrum_is_the_grounded_one_and_zero():
    # [[0, 0], [-d, Z]] is block lower triangular: its spectrum is 0 and Z's
    rng = np.random.default_rng(32)
    modes = [mode_from_dense(DEMO_L[mid], DEMO_D[mid]) for mid in DEMO_L]
    modes += [_generic_mode(rng) for _ in range(200)]
    for k, m in enumerate(modes):
        aug = m.augmented_eigvals
        assert aug.tobytes() == np.concatenate(([0.0], m.grounded_eigvals)).tobytes()
        assert not aug.flags.writeable
        if k >= len(DEMO_L):  # the demo's Z1 has a defective eigenvalue 1
            assert _matched_gap(aug, np.linalg.eigvals(augmented_laplacian(m))) <= 1e-10
    # the instability report reads min(0, the grounded minimum)
    for m in modes[2:4]:  # the demo's negative-majority modes 3 and 4
        report = check_negative_majority_instability(m)
        assert report.min_real_eig_augmented == min(0.0, report.min_real_eig_grounded) < 0.0
