"""Deterministic random streams.

Every stochastic element (initial errors, impulses, state-dependent gains,
perturbation holds, signal shuffling) draws from a generator keyed by
(seed, stream id, occurrence index), so results are independent of call
order and reproducible from the scenario's master seed alone.
"""

from __future__ import annotations

import numpy as np

STREAM_INITIAL = 0
STREAM_IMPULSE = 1
STREAM_DEP_GAIN = 2
STREAM_PERTURBATION = 3
STREAM_SIGNAL = 4
STREAM_PERTURBATION_PAST = 5  # perturbation holds before t = 0


def stream_rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    """Generator for one (seed, stream, occurrence) slot."""
    parts = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)]
    parts.extend(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(parts))


def uniform_on_sphere(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Point drawn uniformly from the sphere of the given radius."""
    if dim <= 0:
        return np.zeros(0)
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    while n == 0.0:  # probability-zero guard
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
    return v * (radius / n)


def uniform_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Point drawn uniformly from the closed ball of the given radius."""
    if dim <= 0:
        return np.zeros(0)
    direction = uniform_on_sphere(rng, dim, 1.0)
    r = radius * rng.uniform() ** (1.0 / dim)
    return direction * r
