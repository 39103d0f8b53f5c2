"""Migration matrices, jump maps and the error/state consistency identity."""

import numpy as np
import pytest

from omaslab import apply_error_jump, build_transition_map
from omaslab.errors import ConfigError
from omaslab.transition import MigrationEvent, build_migration_matrix, impulse_bounds

from helpers import apply_state_jump, error_projector

P_DIM = 2  # agent dimension used throughout, matching the demo network

# hand-built migration matrices for the demo event table: rows of the
# incoming numbering, unit entries picking the surviving outgoing agent
HAND_MIGRATIONS = {
    (1, 2): ((4, ("leaves", (2,))),
             [[1, 0, 0, 0],
              [0, 0, 1, 0],
              [0, 0, 0, 1]]),
    (2, 1): ((3, ("joins", (3,))),
             [[1, 0, 0],
              [0, 1, 0],
              [0, 0, 0],
              [0, 0, 1]]),
    (1, 3): ((4, ("joins", (5,))),
             [[1, 0, 0, 0],
              [0, 1, 0, 0],
              [0, 0, 1, 0],
              [0, 0, 0, 1],
              [0, 0, 0, 0]]),
    (3, 1): ((5, ("leaves", (5,))),
             [[1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0],
              [0, 0, 1, 0, 0],
              [0, 0, 0, 1, 0]]),
    (1, 4): ((4, ("leaves", (1,))),
             [[0, 1, 0, 0],
              [0, 0, 1, 0],
              [0, 0, 0, 1]]),
    (4, 1): ((3, ("joins", (3,))),
             [[1, 0, 0],
              [0, 1, 0],
              [0, 0, 0],
              [0, 0, 1]]),
    (2, 3): ((3, ("joins", (2, 5))),
             [[1, 0, 0],
              [0, 0, 0],
              [0, 1, 0],
              [0, 0, 1],
              [0, 0, 0]]),
    (3, 2): ((5, ("leaves", (3, 4))),
             [[1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0],
              [0, 0, 0, 0, 1]]),
}


def _event(pair, impulse=None, dep_gain=None):
    (nb, (kind, positions)), expected = HAND_MIGRATIONS[pair]
    na = len(expected)
    return MigrationEvent(
        time_index=1,
        mode_before=pair[0],
        mode_after=pair[1],
        n_before=nb,
        n_after=na,
        joins=positions if kind == "joins" else (),
        leaves=positions if kind == "leaves" else (),
        impulse=impulse,
        dep_gain=dep_gain,
    )


@pytest.mark.parametrize("pair", sorted(HAND_MIGRATIONS))
def test_demo_migration_matrices(pair):
    _, expected = HAND_MIGRATIONS[pair]
    np.testing.assert_allclose(build_migration_matrix(_event(pair)), expected, atol=0)


def test_migration_stacked_is_kron(rng):
    for pair in HAND_MIGRATIONS:
        ev = _event(pair)
        tm = build_transition_map(ev, P_DIM)
        np.testing.assert_array_equal(
            tm.err_jump, np.kron(build_migration_matrix(ev), np.eye(P_DIM))
        )
        # pure relabelling never amplifies: unit rows or zero rows
        assert np.linalg.norm(tm.err_jump, 2) <= 1.0 + 1e-12


def random_event(rng) -> MigrationEvent:
    nb = int(rng.integers(1, 7))
    leaves = tuple(
        int(v) for v in sorted(rng.choice(nb, size=int(rng.integers(0, nb)), replace=False) + 1)
    )
    n_survive = nb - len(leaves)
    n_join = int(rng.integers(0 if n_survive > 0 else 1, 4))
    na = n_survive + n_join
    joins = tuple(
        int(v) for v in sorted(rng.choice(na, size=n_join, replace=False) + 1)
    )
    impulse = rng.standard_normal(P_DIM * na) if rng.random() < 0.5 else None
    dep = 0.3 * rng.standard_normal((P_DIM * na, P_DIM * nb)) if rng.random() < 0.5 else None
    return MigrationEvent(
        time_index=1,
        mode_before=1,
        mode_after=2,
        n_before=nb,
        n_after=na,
        joins=joins,
        leaves=leaves,
        impulse=impulse,
        dep_gain=dep,
    )


def test_consistency_identity_random(rng):
    # jumping the full stack then projecting to errors must equal jumping
    # the errors directly, for any event shape, impulse and dependence gain
    for _ in range(200):
        ev = random_event(rng)
        tm = build_transition_map(ev, P_DIM)
        x = rng.standard_normal(P_DIM * (ev.n_before + 1)) * rng.uniform(0.1, 10.0)
        err_after = error_projector(ev.n_after, P_DIM) @ apply_state_jump(ev, x, P_DIM)
        direct = apply_error_jump(tm, error_projector(ev.n_before, P_DIM) @ x)
        res = float(np.linalg.norm(err_after - direct))
        assert res <= 1e-10 * (1.0 + np.linalg.norm(x))


def test_leader_untouched_by_jumps(rng):
    for _ in range(50):
        ev = random_event(rng)
        x = rng.standard_normal(P_DIM * (ev.n_before + 1))
        post = apply_state_jump(ev, x, P_DIM)
        np.testing.assert_allclose(post[:P_DIM], x[:P_DIM], atol=1e-14)


def test_error_jump_matches_direct_formula(rng):
    ev = random_event(rng)
    tm = build_transition_map(ev, P_DIM)
    e = rng.standard_normal(P_DIM * ev.n_before)
    np.testing.assert_allclose(
        apply_error_jump(tm, e), tm.err_jump @ e + tm.impulse, atol=0
    )


def test_pure_relabel_jump_vanishes_at_zero_error():
    # no impulse, no gain: zero tracking error stays zero through any event
    ev = _event((2, 3))
    tm = build_transition_map(ev, P_DIM)
    np.testing.assert_allclose(apply_error_jump(tm, np.zeros(P_DIM * 3)), 0.0, atol=0)
    # equivalently: a perfectly synchronized stack stays synchronized
    leader = np.array([0.7, -1.2])
    x = np.tile(leader, 3 + 1)
    post = apply_state_jump(ev, x, P_DIM)
    np.testing.assert_allclose(post, np.tile(leader, 5 + 1), atol=1e-14)


def test_joiners_enter_at_leader():
    ev = _event((2, 1))  # join at position 3
    tm = build_transition_map(ev, P_DIM)
    x = np.concatenate([[1.0, 2.0], np.arange(6, dtype=float)])  # leader + 3 agents
    post = apply_state_jump(ev, x, P_DIM)
    np.testing.assert_allclose(post[P_DIM * 3 : P_DIM * 4], [1.0, 2.0], atol=1e-14)
    # so the error jump starts the joiner at zero error
    e_post = apply_error_jump(tm, error_projector(3, P_DIM) @ x)
    np.testing.assert_array_equal(e_post[P_DIM * 2 : P_DIM * 3], 0.0)


def test_error_projector_hand_case():
    proj = error_projector(2, 2)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # leader (1,2), agents (3,4), (5,6)
    np.testing.assert_allclose(proj @ x, [2.0, 2.0, 4.0, 4.0], atol=0)


def test_impulse_bounds_over_demo_events(rng):
    events = []
    expected_phi = 0.0
    expected_gain = 0.0
    for pair in HAND_MIGRATIONS:
        (nb, _), mat = HAND_MIGRATIONS[pair]
        na = len(mat)
        imp = rng.standard_normal(P_DIM * na)
        ev = _event(pair, impulse=imp)
        events.append(ev)
        expected_phi = max(expected_phi, float(np.linalg.norm(imp)))
        expected_gain = max(
            expected_gain, float(np.linalg.norm(np.kron(np.array(mat, float), np.eye(P_DIM)), 2))
        )
    b = impulse_bounds(events, P_DIM)
    assert b.impulse_norm_max == pytest.approx(expected_phi, rel=1e-12)
    assert b.err_jump_norm_max == pytest.approx(expected_gain, rel=1e-12)


def test_impulse_bounds_empty():
    b = impulse_bounds([], P_DIM)
    assert b.impulse_norm_max == 0.0
    assert b.err_jump_norm_max == 0.0


# --------------------------------------------------------------------------
# bookkeeping validation


def test_event_rejects_repeated_positions():
    with pytest.raises(ConfigError):
        MigrationEvent(1, 1, 2, n_before=3, n_after=5, joins=(2, 2))


def test_event_rejects_out_of_range():
    with pytest.raises(ConfigError):
        MigrationEvent(1, 1, 2, n_before=3, n_after=4, joins=(5,))
    with pytest.raises(ConfigError):
        MigrationEvent(1, 1, 2, n_before=3, n_after=2, leaves=(4,))


def test_event_rejects_size_mismatch():
    with pytest.raises(ConfigError, match="bookkeeping"):
        MigrationEvent(1, 1, 2, n_before=3, n_after=3, joins=(1,))


def test_map_rejects_bad_impulse_shape():
    ev = MigrationEvent(1, 1, 2, n_before=2, n_after=3, joins=(3,), impulse=np.zeros(4))
    with pytest.raises(ConfigError, match="impulse"):
        build_transition_map(ev, P_DIM)


def test_map_rejects_bad_gain_shape():
    ev = MigrationEvent(1, 1, 2, n_before=2, n_after=3, joins=(3,), dep_gain=np.zeros((2, 2)))
    with pytest.raises(ConfigError, match="dep_gain"):
        build_transition_map(ev, P_DIM)


def test_jump_rejects_bad_state_shape():
    tm = build_transition_map(_event((1, 2)), P_DIM)
    with pytest.raises(ConfigError):
        apply_error_jump(tm, np.zeros(3))
