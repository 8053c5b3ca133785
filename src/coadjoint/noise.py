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

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "GENERATOR_ID",
    "NoiseSpec",
    "BrownianGrid",
    "sample_grid",
    "time_grid",
    "coarsen",
    "write_grid",
    "read_grid",
]

GENERATOR_ID = "philox4x64"

_MAGIC = b"COADGRID"
_VERSION = 1
_HEADER = struct.Struct("<8sIIQQd16s")


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _check_horizon(T: float) -> None:
    """Refuses a horizon T outside 0 < T < inf, NaN included."""
    if not 0 < T < np.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")


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
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
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
        dW.setflags(write=False)
        object.__setattr__(self, "dW", dW)

    @property
    def channels(self) -> int:
        return self.dW.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def variance_deviation(self) -> float:
        """Per-channel |sample variance - T/M| in units of the chi^2 noise floor.

        The sample variance of M centred Gaussians has standard deviation
        (T/M) sqrt(2/M); returns the worst channel's deviation divided by
        that, so values <~ 5 are statistically unremarkable.
        """
        if self.channels == 0:
            return 0.0
        target = self.dt
        sample = np.mean(self.dW ** 2, axis=0)
        return float(np.max(np.abs(sample - target)) / (target * np.sqrt(2.0 / self.steps)))


# Paths drawn per generator call when filling an increment table; it
# bounds the (rows, M) temporary of one call and changes no value, since
# consecutive calls continue the same stream.
_FILL_ROWS = 1024


def _increment_blocks(seed: int, channels: int, T: float, M: int):
    """A drawer ``draw(paths)`` of consecutive path blocks: each call returns
    the next ``paths`` paths' Brownian increments (M, paths, C), each N(0, T/M).

    Channel k keeps one Philox stream keyed (seed, k) across calls, so the
    j-th path drawn, counting over all calls, takes draws j*M ... j*M + M - 1
    of each stream whatever the block sizes.  The ziggurat normals take a
    variable number of counter words, so blocks must be drawn in order.
    """
    _check_horizon(T)
    if not _is_power_of_two(M):
        raise ValueError(f"step count must be a power of two, got {M}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    scale = np.sqrt(T / M)
    gens = [np.random.Generator(np.random.Philox(key=[seed, k])) for k in range(channels)]

    def draw(paths: int) -> np.ndarray:
        dW = np.empty((M, paths, channels))
        for k, gen in enumerate(gens):
            for j in range(0, paths, _FILL_ROWS):
                rows = min(_FILL_ROWS, paths - j)
                dW[:, j:j + rows, k] = (gen.standard_normal((rows, M)) * scale).T
        return dW

    return draw


def _increments(seed: int, channels: int, T: float, M: int, paths: int) -> np.ndarray:
    """The whole increment table (M, paths, C) of the first ``paths`` paths:
    one block of :func:`_increment_blocks`, so path j of channel k is draws
    j*M ... j*M + M - 1 of the Philox stream keyed (seed, k).
    """
    return _increment_blocks(seed, channels, T, M)(paths)


def sample_grid(spec: NoiseSpec, T: float, M: int) -> BrownianGrid:
    """Sample a grid of M Brownian increments for each of the spec's channels.

    Channel k is the first M draws of the Philox stream keyed (seed, k),
    making the grid a deterministic function of (seed, T, M, channels); it
    is path 0 of every ensemble on that seed.
    """
    dW = _increments(spec.seed, spec.channels, T, M, 1)[:, 0, :]
    return BrownianGrid(T=T, steps=M, dW=dW, seed=spec.seed)


def time_grid(T: float, M: int) -> BrownianGrid:
    """A zero-channel grid: pure time stepping for deterministic integrations.

    The power-of-two constraint applies to sampled noise (it is what makes
    dyadic coarsening exact); a bare time grid may use any step count.  No
    random numbers are drawn, so its seed and generator are None.
    """
    _check_horizon(T)
    if M < 1:
        raise ValueError(f"step count must be at least 1, got {M}")
    return BrownianGrid(T=T, steps=M, dW=np.zeros((M, 0)), seed=None, generator=None)


def coarsen(grid: BrownianGrid, factor: int) -> BrownianGrid:
    """The same Brownian path on a grid coarser by ``factor`` (exact coupling).

    Blocks are summed by repeated adjacent-pair reduction, so
    coarsen(coarsen(g, 2), 2) is bitwise identical to coarsen(g, 4).
    """
    if not _is_power_of_two(factor):
        raise ValueError(f"coarsening factor must be a power of two, got {factor}")
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


def write_grid(path, grid: BrownianGrid) -> None:
    """Binary export: header (magic, version, N, M, T, seed, generator id)
    followed by little-endian float64 increments, row-major [step][channel]."""
    if grid.generator is None:
        raise ValueError("a time grid draws no noise; there is nothing to write")
    gen_id = grid.generator.encode("ascii")[:16].ljust(16, b"\0")
    header = _HEADER.pack(_MAGIC, _VERSION, grid.channels, grid.steps,
                          grid.seed, grid.T, gen_id)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.dW, dtype="<f8").tobytes())


def read_grid(path) -> BrownianGrid:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        magic, version, channels, steps, seed, T, gen_id = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a Brownian grid file (magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported grid file version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != steps * channels:
        raise ValueError("grid file truncated")
    dW = data.reshape(steps, channels).astype(float)
    return BrownianGrid(T=T, steps=steps, dW=dW, seed=seed,
                        generator=gen_id.rstrip(b"\0").decode("ascii"))
