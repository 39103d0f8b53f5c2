"""Deterministic random streams.

Every stochastic element draws from generators keyed by the scenario's
master seed, so results are independent of call order and reproducible from
that seed alone. Every draw is a row of a keyed stream of rows, KeyedRows:
row k of the stream (seed, stream id, row shape) is row k mod B of block
k div B, and block b comes from one generator keyed (seed, stream id, b,
*row shape), with B = max(1, 4096 // (values in a row)). A row thus depends
on its own index alone, a block holds at most 32 KB, and a run makes one
generator per block of rows it reads, not one per row. An impulse and a
dependence gain are row k of their streams at switch k, a perturbation row
k at hold k; the initial errors are row 0 of STREAM_INITIAL, and the
generated signal orders its unstable blocks by row 0 of STREAM_SIGNAL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

STREAM_INITIAL = 0
STREAM_IMPULSE = 1
STREAM_DEP_GAIN = 2
STREAM_PERTURBATION = 3
STREAM_SIGNAL = 4
STREAM_PERTURBATION_PAST = 5  # perturbation holds before t = 0

# the most values one block of a keyed stream holds: 32 KB of float64
_BLOCK_VALUES = 4096


@dataclass(frozen=True)
class KeyedRows:
    """The keyed stream of rows (seed, stream id, row shape).

    Row k (k >= 0) is row k % block of block k // block, and block b is
    drawn by generator(b). A block of standard normal rows can be read in
    part: the first m rows of a (block, *shape) draw are an m-row draw of
    the same generator, so a row has the same bits however few rows of its
    block a call reads.
    """

    seed: int
    stream: int
    shape: tuple[int, ...]

    @property
    def block(self) -> int:
        """The rows one block holds."""
        return max(1, _BLOCK_VALUES // max(1, math.prod(self.shape)))

    def generator(self, b: int) -> np.random.Generator:
        """The generator of block b: the one place a generator is made."""
        parts = [int(self.seed) & 0xFFFFFFFFFFFFFFFF, int(self.stream), int(b)]
        parts.extend(int(n) for n in self.shape)
        return np.random.default_rng(np.random.SeedSequence(parts))

    def normals(self, ks: Sequence[int]) -> np.ndarray:
        """Rows ks of standard normals, as one (len(ks), *shape) array in the
        order of ks. Each block is read only up to the highest row ks take
        of it, and a block of one row is drawn straight into its place."""
        per = self.block
        out = np.empty((len(ks), *self.shape))
        at: dict[int, list[int]] = {}
        for i, k in enumerate(ks):
            at.setdefault(k // per, []).append(i)
        for b, idx in at.items():
            rows = [ks[i] % per for i in idx]
            m = max(rows) + 1
            if m == 1:
                self.generator(b).standard_normal(out=out[idx[0]])
                out[idx[1:]] = out[idx[0]]
            else:
                out[idx] = self.generator(b).standard_normal((m, *self.shape))[rows]
        return out

    def ball_block(self, b: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(points, radii) of block b of a stream of points drawn uniformly
        from the ball of the given radius in dim = shape[0] dimensions, and
        each point's distance radius u^(1/dim) from the centre. The block is
        drawn whole: all its rows' normals first, then their uniforms."""
        rng, dim = self.generator(b), self.shape[0]
        v = rng.standard_normal((self.block, dim))
        radii = radius * rng.random(self.block) ** (1.0 / dim)
        return onto_spheres(v, radii), radii


def onto_spheres(v: np.ndarray, radii) -> np.ndarray:
    """Each row of v scaled in place onto the sphere of its radius (radii: one
    per row, or one for all), and returned. A row of zeros, of probability
    zero for normal draws, points along the first axis."""
    norms = np.linalg.norm(v, axis=1)
    zero = norms == 0.0
    if zero.any():
        v[zero, 0] = norms[zero] = 1.0
    v *= (radii / norms)[:, None]
    return v
