"""Reproducible multichannel Brownian increment grids with exact dyadic coarsening.

Channel k of seed s is the counter-based Philox stream keyed ``(s, k)``
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
each channel is an independent stream and the same ``(seed, T, M)`` always
reproduces the same grid bit for bit, across runs and platforms.  Path j of
a Monte-Carlo ensemble takes draws j*M ... j*M + M - 1 of each stream, so
path 0 is the single-path grid and ensembles on different seeds share no
increment.  An ensemble draws its paths in consecutive blocks that
continue the same streams, so no block size moves a bit.  Increments are
stored at the finest level only; coarser views are derived by
:func:`coarsen`, which sums adjacent pairs repeatedly (factor 2 at a time)
so that coarsening twice by 2 is bitwise identical to coarsening once by 4.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import _aligned

__all__ = [
    "GENERATOR_ID",
    "NoiseSpec",
    "BrownianGrid",
    "sample_grid",
    "time_grid",
    "coarsen",
]

GENERATOR_ID = "philox4x64"


def _check_horizon(T: float) -> None:
    """Refuses a horizon T outside 0 < T < inf, NaN included."""
    if not 0 < T < np.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")


def _integer(value, least: int, rule: str) -> int:
    """``value`` as an int >= ``least``; refuses a bool or a non-integer, stating ``rule``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{rule}, got {value!r}")
    return int(value)


def _power_of_two(value, rule: str) -> int:
    """``value`` as an int that is a power of two, by :func:`_integer`'s rule."""
    if (n := _integer(value, 1, rule)) & (n - 1):
        raise ValueError(f"{rule}, got {value!r}")
    return n


def _check_seed(seed) -> None:
    """Refuses a seed that is not an integer 0 <= seed < 2**64: a float or a
    bool would silently reuse an integer seed's streams."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer that fits in 64 bits, got {seed!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Diffusion directions xi_k in the Lie algebra plus an RNG seed.

    ``xi`` is (channels, r); a zero-channel (0, r) keeps its r.
    """

    channels: int
    xi: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        xi = np.array(self.xi, dtype=float)
        if xi.shape == (0,):
            xi = xi.reshape(0, 0)
        if xi.ndim != 2 or xi.shape[0] != self.channels:
            raise ValueError(
                f"xi must be an array of {self.channels} algebra vectors, "
                f"got shape {xi.shape}"
            )
        if not np.all(np.isfinite(xi)):
            raise ValueError(f"xi must be finite, got {xi.tolist()}")
        _check_seed(self.seed)
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @staticmethod
    def make(xi, seed: int) -> "NoiseSpec":
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (0,):
            xi = np.atleast_2d(xi)
        return NoiseSpec(channels=xi.shape[0], xi=xi, seed=seed)


@dataclass(frozen=True)
class BrownianGrid:
    """Increment table dW[step][channel], each entry N(0, T/M).

    ``seed`` and ``generator`` name the stream the increments came from;
    both are None for a :func:`time_grid`, which draws nothing.
    """

    T: float
    steps: int
    dW: np.ndarray = field(repr=False)
    seed: Optional[int] = 0
    generator: Optional[str] = GENERATOR_ID

    def __post_init__(self):
        dW = np.array(self.dW, dtype=float)
        if dW.shape[0] != self.steps:
            raise ValueError(f"dW has {dW.shape[0]} rows, expected {self.steps}")
        if self.seed is not None:
            _check_seed(self.seed)
        dW.setflags(write=False)
        object.__setattr__(self, "dW", dW)

    @property
    def channels(self) -> int:
        return self.dW.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.steps


# Paths drawn per generator call when filling an increment table; it
# bounds the (rows, M) temporary of one call and changes no value, since
# consecutive calls continue the same stream.
_FILL_ROWS = 1024


def _increment_blocks(seed: int, channels: int, T: float, M: int):
    """A drawer ``draw(paths)`` of consecutive path blocks: each call returns
    the next ``paths`` paths' Brownian increments (M, paths, C), each N(0, T/M).

    The drawer refills one table, allocated by the first call (and again by
    any call for more paths), and returns its leading ``paths`` columns, so
    a call overwrites what the call before it returned; copy a block to keep
    it; each step's row starts on a cache line.  Channel k keeps one Philox
    stream keyed (seed, k) across calls, so the j-th path drawn, counting
    over all calls, takes draws j*M ... j*M + M - 1 of each stream whatever
    the block sizes.  The ziggurat normals take a variable number of counter
    words, so blocks must be drawn in order.
    """
    _check_horizon(T)
    M = _power_of_two(M, "M: the step count must be a power of two")
    _check_seed(seed)
    scale = np.sqrt(T / M)
    # a uint64 key: numpy makes a list holding a seed >= 2**63 a float64 array
    gens = [np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
            for k in range(channels)]
    table = np.empty((M, 0, channels))

    def draw(paths: int) -> np.ndarray:
        nonlocal table
        if table.shape[1] < paths:
            table = _aligned((M, paths * channels)).reshape(M, paths, channels)
        dW = table[:, :paths]
        for k, gen in enumerate(gens):
            for j in range(0, paths, _FILL_ROWS):
                z = gen.standard_normal((min(_FILL_ROWS, paths - j), M))
                z *= scale
                dW[:, j:j + len(z), k] = z.T
        return dW

    return draw


def sample_grid(spec: NoiseSpec, T: float, M: int) -> BrownianGrid:
    """Sample a grid of M Brownian increments for each of the spec's channels.

    Channel k is the first M draws of the Philox stream keyed (seed, k),
    making the grid a deterministic function of (seed, T, M, channels); it
    is path 0 of every ensemble on that seed.
    """
    dW = _increment_blocks(spec.seed, spec.channels, T, M)(1)[:, 0, :]
    return BrownianGrid(T=T, steps=M, dW=dW, seed=spec.seed)


def time_grid(T: float, M: int) -> BrownianGrid:
    """A zero-channel grid: pure time stepping for deterministic integrations.

    The power-of-two constraint applies to sampled noise (it is what makes
    dyadic coarsening exact); a bare time grid may use any step count.  No
    random numbers are drawn, so its seed and generator are None.
    """
    _check_horizon(T)
    M = _integer(M, 1, "M: the step count must be an integer of at least 1")
    return BrownianGrid(T=T, steps=M, dW=np.zeros((M, 0)), seed=None, generator=None)


def coarsen(grid: BrownianGrid, factor: int) -> BrownianGrid:
    """The same Brownian path on a grid coarser by ``factor`` (exact coupling).

    Blocks are summed by repeated adjacent-pair reduction, so
    coarsen(coarsen(g, 2), 2) is bitwise identical to coarsen(g, 4).
    """
    factor = _power_of_two(factor, "factor: the coarsening factor must be a power of two")
    if grid.steps % factor != 0:
        raise ValueError(f"factor {factor} does not divide {grid.steps} steps")
    if factor == 1:
        return grid
    dW = grid.dW
    f = factor
    while f > 1:
        dW = dW[0::2] + dW[1::2]
        f //= 2
    return BrownianGrid(T=grid.T, steps=grid.steps // factor, dW=dW,
                        seed=grid.seed, generator=grid.generator)

