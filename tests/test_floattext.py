"""The float renderer's JSON dialect: every value as repr writes it.

The CSV dialect's tests, against the per-value '%.17g', are with the CSV
exports in test_simulate.py.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omaslab.floattext import _significands, _tables, json_block


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _written(values) -> list[str]:
    """The JSON dialect's text of each of values."""
    values = np.array(values, dtype=np.float64)
    seps = np.full(values.size, ord(","), dtype=np.uint8)
    return json_block(values, seps).decode("ascii").split(",")[:-1]


def _values_of(bits) -> list[float]:
    """The bit patterns as doubles, their negatives too, non-finite ones left out."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values]).tolist()


# every edge class of repr's digits and layout, each with its neighbours
_EDGES = (
    [2.0**e for e in range(-1074, 1024, 7)]  # powers of two, subnormal ones too
    + [10.0**15 + j for j in range(-3, 4)] + [10.0**16 + 2 * j for j in range(-3, 4)]
    + [10.0**17 + 16 * j for j in range(-3, 4)]  # whole numbers about 1e15, 1e16, 1e17
    + [1e-4, 9.999999999999999e-05, 1e-5, 1e15, 9999999999999998.0, 1e16]  # notation switches
    + [5e-324, np.finfo(float).tiny, np.finfo(float).max, -0.0, 0.0]
    + [0.1, 0.3, 1 / 3]
    + [float(f"{'123456789012345678'[:n]}e{e}") for n in range(1, 18) for e in (-20, -n, 0, 20)]
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([_bits(x) for x in _EDGES[:150]])
@example([_bits(x) for x in _EDGES[150:]])
@example([_bits(2.0**e) for e in range(-1074, 1024)])  # every power of two
@example([_bits(float(10**15 + j)) for j in range(-64, 64)])
@example([_bits(float(10**16 + 2 * j)) for j in range(-64, 64)])
@example([_bits(float(10**17 + 16 * j)) for j in range(-64, 64)])
@example([_bits(x) for x in (1e-4, 1e-5, 1e15, 1e16)]
         + [_bits(float(np.nextafter(x, d))) for x in (1e-4, 1e-5, 1e15, 1e16) for d in (0, math.inf)])
@example([_bits(x) for x in (5e-324, np.finfo(float).tiny, np.finfo(float).max, -0.0)])
@example([_bits(x) for x in (0.1, 0.3, 1 / 3)])
# ties of the 16-digit rounding that reads back: j / 2^16 for odd j in
# [2^19, 10 2^16) has 17 digits, the last a 5, and an ulp of 18 in the 17th
@example([_bits(j / 65536) for j in range(524289, 524289 + 128, 2)])
@example([_bits(float(f"{'98765432109876543'[:n]}e-{n + 3}")) for n in range(1, 18)])
def test_json_dialect_writes_every_bit_pattern_as_repr(bits):
    values = _values_of(bits)
    assert _written(values) == [float.__repr__(v) for v in values]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_dialect_writes_decimals_of_every_length_as_repr():
    rng = np.random.default_rng(7)
    values = [float(f"{rng.integers(10 ** (n - 1), 10**n)}e{rng.integers(-330, 300)}")
              for n in range(1, 18) for _ in range(300)]
    values = [v for v in values if math.isfinite(v)]
    values += [-v for v in values]
    assert _written(values) == [float.__repr__(v) for v in values]


def test_json_dialect_falls_back_for_under_one_percent_of_normals():
    a = np.abs(np.random.default_rng(28).standard_normal(100_000))
    _, _, certain = _significands(a, _tables(), shortest=True)
    assert 1.0 - certain.mean() < 0.01


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_dialect_refuses_a_value_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _written([0.5, bad, 1.0])
