"""Keyed streams: rows read in blocks against whole blocks drawn afresh."""

import hashlib
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab import run_scenario
from omaslab.demo import demo_scenario
from omaslab.scenario import parse_scenario
from omaslab.seeding import (
    STREAM_DEP_GAIN,
    STREAM_IMPULSE,
    STREAM_INITIAL,
    STREAM_SIGNAL,
    KeyedRows,
    onto_spheres,
)
from omaslab.switching import SignalGenSpec, generate_segments

from helpers import ball_row, keyed_row


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.sampled_from([STREAM_IMPULSE, STREAM_DEP_GAIN]),
    shape=st.sampled_from([(1,), (6,), (10,), (4097,), (6, 8), (10, 8), (64, 64), (65, 64)]),
    ks=st.lists(st.integers(0, 5000), min_size=1, max_size=20),
)
def test_rows_are_those_of_whole_blocks(seed, stream, shape, ks):
    # each row of a read, repeats and any order included, is the row of
    # its block drawn whole by a fresh generator, and the same read alone
    rows = KeyedRows(seed, stream, shape).normals(ks)
    assert rows.shape == (len(ks), *shape)
    for k, row in zip(ks, rows):
        assert row.tobytes() == keyed_row(seed, stream, shape, k).tobytes()
        assert row.tobytes() == KeyedRows(seed, stream, shape).normals([k])[0].tobytes()


def test_blocks_hold_at_most_4096_values():
    def block(*shape):
        return KeyedRows(0, STREAM_IMPULSE, shape).block

    assert block(8) == 512 and block(6, 8) == 85
    assert block(64, 64) == 1 and block(320, 318) == 1
    assert all(block(n) * n <= 4096 < (block(n) + 1) * n for n in range(1, 4097))


def test_a_wide_gain_draws_one_row_not_a_block(monkeypatch):
    # a 320 x 318 gain is a block of one row, drawn straight into its place
    sizes = []
    real = KeyedRows.generator

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size=None, out=None):
            sizes.append(np.shape(out) if size is None else size)
            return self.rng.standard_normal(size, out=out)

    monkeypatch.setattr(KeyedRows, "generator", lambda self, b: Recording(real(self, b)))
    stream = KeyedRows(7, STREAM_DEP_GAIN, (320, 318))
    gains = stream.normals([3, 9])
    assert sizes == [(320, 318), (320, 318)]
    assert gains[1].tobytes() == keyed_row(7, STREAM_DEP_GAIN, (320, 318), 9).tobytes()
    # where a block holds many rows, a read draws each block only up to the
    # highest row it takes: rows 1 and 5 of block 1, row 3 of block 0
    sizes.clear()
    KeyedRows(7, STREAM_DEP_GAIN, (6, 8)).normals([86, 90, 3])
    assert sizes == [(6, 6, 8), (4, 6, 8)]


def test_rows_onto_spheres():
    v = np.random.default_rng(3).standard_normal((50, 7))
    v[4] = 0.0  # the probability-zero row points along the first axis
    radii = np.linspace(0.0, 2.0, 50)
    out = onto_spheres(v, radii)
    assert out is v
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), radii, rtol=1e-15, atol=0.0)
    assert out[4].tolist() == [radii[4]] + [0.0] * 6


def test_row_zero_draws_are_pinned():
    # the initial errors and the generated signal of the demo, each read
    # from row 0 of its keyed stream
    scenario = demo_scenario("practical", seed=11)
    pins = {11: ("6a2d77d9787a7db0", "975884b5d33d1b3c", [4, 2, 3, 2]),
            5: ("c09267d943b1d120", "d81a7dfe3a03fdae", [3, 2, 2, 4])}
    for seed, (errors, segments, unstable) in pins.items():
        _, err = scenario.resolve_initial_state(seed, 1)
        signal = scenario.resolve_signal(seed)
        layout = np.array([(s.start, s.mode) for s in signal.segments])
        assert hashlib.sha256(err.tobytes()).hexdigest()[:16] == errors
        assert hashlib.sha256(layout.tobytes()).hexdigest()[:16] == segments
        assert [s.mode for s in signal.segments[1::2]] == unstable


def _one_mode_scenario(p: int, n: int, radius: float, seed: int | None):
    errors = {"radius": radius} if seed is None else {"radius": radius, "seed": seed}
    return parse_scenario({
        "dynamics": {"A": np.zeros((p, p)).tolist(), "coupling_gain": -1.0},
        "modes": [{"id": 1, "n_agents": n, "edges": [], "leader_links": [1.0] * n}],
        "signal": {"type": "explicit", "t0": 0.0, "tf": 1.0, "segments": [{"t": 0.0, "mode": 1}]},
        "initial_state": {"leader": [0.0] * p, "errors": errors},
    })


@settings(max_examples=60, deadline=None)
@given(
    master=st.integers(0, 2**63 - 1),
    own=st.none() | st.integers(0, 2**64 - 1),
    p=st.integers(1, 4),
    n=st.integers(1, 40),
    radius=st.floats(0.0, 1e6, allow_subnormal=False),
)
def test_initial_errors_are_row_0_of_a_ball_block(master, own, p, n, radius):
    # the errors are row 0 of the ball stream (seed, STREAM_INITIAL,
    # (p n,)), its block drawn whole afresh; a spec's own seed overrides
    # the master seed
    _, err = _one_mode_scenario(p, n, radius, own).resolve_initial_state(master, 1)
    point, r = ball_row(master if own is None else own, STREAM_INITIAL, 0, p * n, radius)
    assert err.tobytes() == point.tobytes()
    assert np.linalg.norm(err) <= radius * (1.0 + 1e-15) and r <= radius


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    horizon=st.sampled_from([30.0, 300.0, 3000.0, 50_000.0]),
    unstable=st.sampled_from([(2,), (2, 3, 4), (4, 3), (5, 2, 7, 3)]),
)
def test_generated_order_is_the_argsort_of_row_0(seed, horizon, unstable):
    spec = SignalGenSpec(horizon=horizon, stable_modes=(1,), unstable_modes=unstable,
                         ratio_floor=14.5, dwell_floor=2.8, seed=seed)
    n_pairs = spec.block_sizes()[2]
    order = np.argsort(keyed_row(seed, STREAM_SIGNAL, (n_pairs,), 0), kind="stable")
    want = [unstable[i % len(unstable)] for i in order.tolist()]
    assert [s.mode for s in generate_segments(spec)[1::2]] == want


def test_a_run_makes_every_generator_by_keyed_rows(monkeypatch):
    # a demo signal and run make each generator in KeyedRows.generator, and
    # nowhere else
    makers = []
    real = np.random.default_rng

    def default_rng(*args, **kwargs):
        makers.append(sys._getframe(1).f_code.co_qualname)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    scenario = demo_scenario("practical", seed=11)
    run_scenario(scenario, signal=scenario.resolve_signal(11))
    assert len(makers) > 2 and set(makers) == {"KeyedRows.generator"}
