"""Migration matrices, error jumps and the error/state consistency identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab import apply_error_jump, build_transition_map
from omaslab.errors import ConfigError
from omaslab.transition import MigrationEvent, _kept, impulse_bounds

from helpers import apply_state_jump, build_migration_matrix, error_projector, kron_err_jump

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
        p=P_DIM,
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
        np.testing.assert_array_equal(
            ev.err_jump, np.kron(build_migration_matrix(ev), np.eye(P_DIM))
        )
        # pure relabelling never amplifies: unit rows or zero rows
        assert np.linalg.norm(ev.err_jump, 2) <= 1.0 + 1e-12


def random_event(rng, p: int = P_DIM) -> MigrationEvent:
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
    impulse = rng.standard_normal(p * na) if rng.random() < 0.5 else None
    dep = 0.3 * rng.standard_normal((p * na, p * nb)) if rng.random() < 0.5 else None
    return MigrationEvent(
        time_index=1,
        mode_before=1,
        mode_after=2,
        n_before=nb,
        n_after=na,
        p=p,
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
        x = rng.standard_normal(P_DIM * (ev.n_before + 1)) * rng.uniform(0.1, 10.0)
        err_after = error_projector(ev.n_after, P_DIM) @ apply_state_jump(ev, x, P_DIM)
        direct = apply_error_jump(ev, error_projector(ev.n_before, P_DIM) @ x)
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
    e = rng.standard_normal(P_DIM * ev.n_before)
    impulse = np.zeros(P_DIM * ev.n_after) if ev.impulse is None else ev.impulse
    np.testing.assert_allclose(
        apply_error_jump(ev, e), ev.err_jump @ e + impulse, atol=0
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), signed_zeros=st.booleans())
def test_err_jump_equals_kron_oracle_bit_for_bit(seed, p, signed_zeros):
    rng = np.random.default_rng(seed)
    ev = random_event(rng, p)
    if signed_zeros and ev.dep_gain is not None:
        # zeros of either sign in the gain, on and off the migration entries
        dep = ev.dep_gain.copy()
        dep[rng.random(dep.shape) < 0.5] = -0.0
        ev = MigrationEvent(1, 1, 2, ev.n_before, ev.n_after, p, ev.joins, ev.leaves,
                            ev.impulse, dep)
    got, want = ev.err_jump, kron_err_jump(ev)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert ev.impulse_norm == (0.0 if ev.impulse is None else np.linalg.norm(ev.impulse))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_before=st.integers(1, 200), n_join=st.integers(0, 6))
def test_survivors_equal_np_delete(seed, n_before, n_join):
    # leaves and joins drawn at any count, none included
    rng = np.random.default_rng(seed)
    leaves = rng.choice(n_before, size=int(rng.integers(0, n_before + 1)), replace=False) + 1
    n_after = n_before - len(leaves) + n_join
    joins = rng.choice(n_after, size=n_join, replace=False) + 1
    ev = MigrationEvent(1, 1, 2, n_before, n_after, 1, tuple(joins), tuple(leaves))
    # the 0-based positions of the surviving agents before and after
    before, after = _kept(n_before, ev.leaves), _kept(n_after, ev.joins)
    for got, n, dropped in ((before, n_before, ev.leaves), (after, n_after, ev.joins)):
        want = np.delete(np.arange(n), np.array(dropped, dtype=int) - 1)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_transition_map_is_the_event_checked_against_p():
    ev = _event((1, 2))
    assert build_transition_map(ev, P_DIM) is ev
    with pytest.raises(ConfigError, match="does not match"):
        build_transition_map(ev, P_DIM + 1)


def test_pure_relabel_jump_vanishes_at_zero_error():
    # no impulse, no gain: zero tracking error stays zero through any event
    ev = _event((2, 3))
    np.testing.assert_allclose(apply_error_jump(ev, np.zeros(P_DIM * 3)), 0.0, atol=0)
    # equivalently: a perfectly synchronized stack stays synchronized
    leader = np.array([0.7, -1.2])
    x = np.tile(leader, 3 + 1)
    post = apply_state_jump(ev, x, P_DIM)
    np.testing.assert_allclose(post, np.tile(leader, 5 + 1), atol=1e-14)


def test_joiners_enter_at_leader():
    ev = _event((2, 1))  # join at position 3
    x = np.concatenate([[1.0, 2.0], np.arange(6, dtype=float)])  # leader + 3 agents
    post = apply_state_jump(ev, x, P_DIM)
    np.testing.assert_allclose(post[P_DIM * 3 : P_DIM * 4], [1.0, 2.0], atol=1e-14)
    # so the error jump starts the joiner at zero error
    e_post = apply_error_jump(ev, error_projector(3, P_DIM) @ x)
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
    b = impulse_bounds(events)
    assert b.impulse_norm_max == pytest.approx(expected_phi, rel=1e-12)
    assert b.err_jump_norm_max == pytest.approx(expected_gain, rel=1e-12)


def test_impulse_bounds_empty():
    b = impulse_bounds([])
    assert b.impulse_norm_max == 0.0
    assert b.err_jump_norm_max == 0.0


# --------------------------------------------------------------------------
# bookkeeping validation


def test_event_rejects_repeated_positions():
    with pytest.raises(ConfigError):
        MigrationEvent(1, 1, 2, n_before=3, n_after=5, p=P_DIM, joins=(2, 2))


def test_event_rejects_out_of_range():
    with pytest.raises(ConfigError):
        MigrationEvent(1, 1, 2, n_before=3, n_after=4, p=P_DIM, joins=(5,))
    with pytest.raises(ConfigError):
        MigrationEvent(1, 1, 2, n_before=3, n_after=2, p=P_DIM, leaves=(4,))


def test_event_rejects_size_mismatch():
    with pytest.raises(ConfigError, match="bookkeeping"):
        MigrationEvent(1, 1, 2, n_before=3, n_after=3, p=P_DIM, joins=(1,))


# the event checks its shapes when it is made, before any jump is built
def test_map_rejects_bad_impulse_shape():
    with pytest.raises(ConfigError, match=r"impulse shape \(4,\) does not match \(6,\)"):
        MigrationEvent(1, 1, 2, n_before=2, n_after=3, p=P_DIM, joins=(3,),
                       impulse=np.zeros(4))


def test_map_rejects_bad_gain_shape():
    with pytest.raises(ConfigError, match=r"dep_gain shape \(2, 2\) does not match \(6, 4\)"):
        MigrationEvent(1, 1, 2, n_before=2, n_after=3, p=P_DIM, joins=(3,),
                       dep_gain=np.zeros((2, 2)))


def test_event_rejects_bad_dimension():
    with pytest.raises(ConfigError, match="p must be >= 1"):
        MigrationEvent(1, 1, 2, n_before=2, n_after=2, p=0)


def test_jump_rejects_bad_state_shape():
    with pytest.raises(ConfigError):
        apply_error_jump(_event((1, 2)), np.zeros(3))
