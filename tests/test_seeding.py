"""Keyed streams: rows read in blocks against whole blocks drawn afresh."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omaslab.demo import demo_scenario
from omaslab.seeding import (
    STREAM_DEP_GAIN,
    STREAM_IMPULSE,
    KeyedRows,
    onto_spheres,
)

from helpers import keyed_row


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


def test_single_draws_keep_their_bits():
    # the initial errors and the generated signal of the demo stay those of
    # one (seed, stream, occurrence) generator each, as before keyed blocks
    scenario = demo_scenario("practical", seed=11)
    pins = {11: ("d66e730047106b33", "7dc121249a2ebba5"),
            5: ("69bdf73729d1167e", "3cd18a5e022d8621")}
    for seed, (errors, segments) in pins.items():
        _, err = scenario.resolve_initial_state(seed, 1)
        layout = np.array([(s.start, s.mode) for s in scenario.resolve_signal(seed).segments])
        assert hashlib.sha256(err.tobytes()).hexdigest()[:16] == errors
        assert hashlib.sha256(layout.tobytes()).hexdigest()[:16] == segments
