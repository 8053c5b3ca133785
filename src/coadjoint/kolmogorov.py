"""Process generator as nested Poisson brackets, grid solvers, and Monte-Carlo checks.

The generator of the Stratonovich process driven by the noise Hamiltonians
g_k and drift Hamiltonian psi is

    L f = {f, psi} + (1/2) sum_k {g_k, {g_k, f}},

and its formal adjoint (boundaryless, Hamiltonian volume) flips the sign of
the first-order part only.  The backward equation d rho/dt = L rho is
discretized with central differences on a box in the dual of so(3); the
forward (Fokker-Planck) equation reuses the same stepper with the adjoint
coefficients and a narrow-Gaussian surrogate for the delta initial datum.
The grid coefficients are the drift, Ito correction and noise fields of the
collective SdeSystem that ``lie_poisson_generator`` builds, and Monte-Carlo
expectations over Heun ensembles of that same system cross-validate both
solves; the bracket form of L is kept as the independent oracle.
"""

from __future__ import annotations

import csv
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import LieAlgebraSpec
from .actions import ActionChart
from .dynamics import ReducedHamiltonian, lie_poisson_system
from .fields import HamelBracket, LiePoissonBracket, PoissonBracket, ScalarField, double_bracket
from .integrators import IntegrationDiverged, SdeSystem, _drive, integrate
from .noise import NoiseSpec, _increments, time_grid

__all__ = [
    "GeneratorSpec",
    "LiePoissonGeneratorSpec",
    "lie_poisson_generator",
    "hamel_generator",
    "generator_apply",
    "adjoint_apply",
    "GridGeometry",
    "DensityGrid",
    "admissible_dt",
    "backward_solve",
    "forward_solve",
    "interpolate",
    "ensemble_finals",
    "mc_expectation",
    "pde_mc_gate",
    "write_density",
    "read_density",
    "write_density_slice_csv",
]


@dataclass(frozen=True, kw_only=True)
class GeneratorSpec:
    """Bracket structure plus channel-contracted noise Hamiltonians g_k and drift psi."""

    bracket: PoissonBracket
    phi: tuple
    psi: ScalarField

    @property
    def channels(self) -> int:
        return len(self.phi)


@dataclass(frozen=True, kw_only=True)
class LiePoissonGeneratorSpec(GeneratorSpec):
    """Generator data for the collective system on the dual of a Lie algebra.

    ``system`` is the collective SDE dm = ad*(K m, m) dt + ad*(xi_k, m) o dW^k
    itself: the grid solvers evaluate its drift, Ito correction and stacked
    diffusion on whole node arrays, and Monte-Carlo cross-checks run it, so
    both sides solve one equation.  The bracket-form ``phi`` and ``psi`` are
    the independent oracle for the same generator.
    """

    system: SdeSystem


def lie_poisson_generator(alg: LieAlgebraSpec, K, xi) -> LiePoissonGeneratorSpec:
    """Generator of the stochastic coadjoint flow with Hamiltonian (1/2) m.Km."""
    noise = NoiseSpec.make(xi, 0)
    h = ReducedHamiltonian(alg=alg, kinetic_inverse=K)
    phi = tuple(ScalarField.linear(x, name=f"g{k+1}") for k, x in enumerate(noise.xi))
    return LiePoissonGeneratorSpec(
        bracket=LiePoissonBracket(alg),
        phi=phi,
        psi=h.as_field(),
        system=lie_poisson_system(alg, K, noise),
    )


def hamel_generator(chart: ActionChart, h: ReducedHamiltonian, xi) -> GeneratorSpec:
    """Generator on the mixed (m, q) level; psi is the reduced Hamiltonian."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float)) if np.size(xi) else np.zeros((0, h.alg.dim))
    r = h.alg.dim
    phi = tuple(
        ScalarField(
            value=lambda x, _w=w: float(_w @ x[:r]),
            grad=lambda x, _w=w: np.concatenate([_w, np.zeros(x.size - r)]),
            name=f"g{k+1}",
        )
        for k, w in enumerate(xi)
    )
    return GeneratorSpec(bracket=HamelBracket(chart), phi=phi, psi=h.as_mq_field(chart.n))


def _apply(spec: GeneratorSpec, f: ScalarField, x, sign: float) -> float:
    """sign {f, psi}(x) + (1/2) sum_k {g_k, {g_k, f}}(x)."""
    x = np.asarray(x, dtype=float)
    out = sign * spec.bracket(f, spec.psi, x)
    for g in spec.phi:
        out += 0.5 * double_bracket(spec.bracket, g, f, x)
    return float(out)


def generator_apply(spec: GeneratorSpec, f: ScalarField, x) -> float:
    """L f(x) = {f, psi}(x) + (1/2) sum_k {g_k, {g_k, f}}(x).

    Inner brackets use analytic gradients where the fields carry them; the
    outer bracket differentiates actual inner-bracket evaluations by central
    differences.
    """
    return _apply(spec, f, x, 1.0)


def adjoint_apply(spec: GeneratorSpec, f: ScalarField, x) -> float:
    """L* f(x) = -{f, psi}(x) + (1/2) sum_k {g_k, {g_k, f}}(x)."""
    return _apply(spec, f, x, -1.0)


@dataclass(frozen=True)
class GridGeometry:
    """A box in R^3 with per-axis resolution."""

    bounds: np.ndarray  # (3, 2) [axis][lo, hi]
    shape: tuple

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.shape != (3, 2) or np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ValueError("bounds must be a (3, 2) array of increasing pairs")
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != 3 or any(s < 4 for s in shape):
            raise ValueError("grid needs at least 4 nodes per axis")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)

    @staticmethod
    def cube(lo: float, hi: float, nodes: int) -> "GridGeometry":
        return GridGeometry(bounds=np.array([[lo, hi]] * 3), shape=(nodes,) * 3)

    @property
    def dx(self) -> np.ndarray:
        return (self.bounds[:, 1] - self.bounds[:, 0]) / (np.array(self.shape) - 1)

    def axes(self):
        return [np.linspace(self.bounds[i, 0], self.bounds[i, 1], self.shape[i])
                for i in range(3)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (*shape, 3)."""
        ax = self.axes()
        mesh = np.meshgrid(*ax, indexing="ij")
        return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class DensityGrid:
    """Scalar values on a box grid at one time stamp."""

    geometry: GridGeometry
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.geometry.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.geometry.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", values)


def _pad_linear(rho: np.ndarray) -> np.ndarray:
    """One ghost layer per face by linear extrapolation (2 a - b)."""
    out = np.pad(rho, 1, mode="edge")
    for axis in range(3):
        lo = [slice(None)] * 3
        lo_in1 = [slice(None)] * 3
        lo_in2 = [slice(None)] * 3
        lo[axis], lo_in1[axis], lo_in2[axis] = 0, 1, 2
        out[tuple(lo)] = 2.0 * out[tuple(lo_in1)] - out[tuple(lo_in2)]
        hi = [slice(None)] * 3
        hi_in1 = [slice(None)] * 3
        hi_in2 = [slice(None)] * 3
        hi[axis], hi_in1[axis], hi_in2[axis] = -1, -2, -3
        out[tuple(hi)] = 2.0 * out[tuple(hi_in1)] - out[tuple(hi_in2)]
    return out


def _shift(padded: np.ndarray, offsets) -> np.ndarray:
    """Interior view of the padded array displaced by integer offsets."""
    idx = []
    for off in offsets:
        if off not in (-1, 0, 1):
            raise ValueError("stencil offsets must be -1, 0, or 1")
        start = 1 + off
        stop = padded.shape[len(idx)] - 1 + off
        idx.append(slice(start, stop))
    return padded[tuple(idx)]


class _GridOperator:
    """Explicit finite-difference form of L (or L*) on a box in so(3)*.

    First and second derivatives use central differences; one ghost layer of
    linear extrapolation supplies one-sided behaviour at the faces.  The
    coefficients are the generator's own SdeSystem on the node array: the
    transport is the Ito drift (Stratonovich drift, sign flipped for the
    adjoint, plus the double-bracket correction) and the diffusion matrix is
    (1/2) sum_k sigma_k sigma_k^T over the stacked channel fields sigma_k.
    """

    def __init__(self, spec: LiePoissonGeneratorSpec, geometry: GridGeometry,
                 mode: str = "backward"):
        if not isinstance(spec, LiePoissonGeneratorSpec):
            raise ValueError(
                "grid solvers support generators on the dual of so(3) built "
                "by lie_poisson_generator"
            )
        sys = spec.system
        if sys.state_dim != 3:
            raise ValueError("grid solvers are limited to 3-dimensional duals")
        if mode not in ("backward", "forward"):
            raise ValueError(f"mode must be 'backward' or 'forward', not {mode!r}")
        self.geometry = geometry
        nodes = geometry.nodes()
        sign = 1.0 if mode == "backward" else -1.0
        self.transport = sign * sys.drift(0.0, nodes) + sys.ito_correction(0.0, nodes)
        sigma = sys.diffusion(0.0, nodes)
        self.diff = 0.5 * np.einsum("...ki,...kj->...ij", sigma, sigma)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        dx = self.geometry.dx
        p = _pad_linear(rho)
        out = np.zeros_like(rho)
        grads = []
        for i in range(3):
            off_p = [0, 0, 0]
            off_m = [0, 0, 0]
            off_p[i], off_m[i] = 1, -1
            grads.append((_shift(p, off_p) - _shift(p, off_m)) / (2.0 * dx[i]))
        for i in range(3):
            out += self.transport[..., i] * grads[i]
        for i in range(3):
            off_p = [0, 0, 0]
            off_m = [0, 0, 0]
            off_p[i], off_m[i] = 1, -1
            second = (_shift(p, off_p) - 2.0 * rho + _shift(p, off_m)) / dx[i] ** 2
            out += self.diff[..., i, i] * second
        for i in range(3):
            for j in range(i + 1, 3):
                opp = [0, 0, 0]
                opm = [0, 0, 0]
                omp = [0, 0, 0]
                omm = [0, 0, 0]
                opp[i], opp[j] = 1, 1
                opm[i], opm[j] = 1, -1
                omp[i], omp[j] = -1, 1
                omm[i], omm[j] = -1, -1
                cross = (
                    _shift(p, opp) - _shift(p, opm) - _shift(p, omp) + _shift(p, omm)
                ) / (4.0 * dx[i] * dx[j])
                out += 2.0 * self.diff[..., i, j] * cross
        return out

    def admissible_dt(self) -> float:
        dx = self.geometry.dx
        a_max = float(np.max(np.einsum("...ii->...i", self.diff)))
        dt_diff = float(np.min(dx ** 2)) / (6.0 * a_max) if a_max > 0 else np.inf
        dt_drift = np.inf
        for i in range(3):
            b_max = float(np.max(np.abs(self.transport[..., i])))
            if b_max > 0:
                dt_drift = min(dt_drift, dx[i] / b_max)
        return min(dt_diff, dt_drift)


def admissible_dt(spec: LiePoissonGeneratorSpec, geometry: GridGeometry,
                  mode: str = "backward") -> float:
    """Largest explicit-Euler step the diffusion and drift CFL bounds allow."""
    return _GridOperator(spec, geometry, mode).admissible_dt()


def _evaluate_on_nodes(f: ScalarField, nodes: np.ndarray) -> np.ndarray:
    flat = nodes.reshape(-1, nodes.shape[-1])
    return np.array([f(x) for x in flat]).reshape(nodes.shape[:-1])


def _evolve(spec, f0_values: np.ndarray, T: float, geometry: GridGeometry,
            dt: Optional[float], mode: str) -> DensityGrid:
    op = _GridOperator(spec, geometry, mode)
    dt_adm = op.admissible_dt()
    if dt is None:
        dt = 0.5 * dt_adm
    elif dt > dt_adm:
        raise ValueError(
            f"time step {dt:.3e} violates the CFL bounds; admissible dt is "
            f"{dt_adm:.3e}"
        )
    nsteps = max(1, int(np.ceil(T / dt)))
    dt = T / nsteps
    rho = f0_values.astype(float).copy()
    for _ in range(nsteps):
        rho += dt * op.apply(rho)
        if not np.all(np.isfinite(rho)):
            raise ArithmeticError("grid solve diverged; reduce dt or enlarge the box")
    return DensityGrid(geometry=geometry, values=rho, time=T)


def backward_solve(spec: LiePoissonGeneratorSpec, f0: ScalarField, T: float,
                   geometry: GridGeometry, dt: Optional[float] = None) -> DensityGrid:
    """Explicit-Euler solve of d rho/dt = L rho, rho(0, m) = f0(m).

    The result at (T, m) approximates E_m[f0(m(T))].
    """
    values = _evaluate_on_nodes(f0, geometry.nodes())
    return _evolve(spec, values, T, geometry, dt, "backward")


def forward_solve(spec: LiePoissonGeneratorSpec, x0, T: float,
                  geometry: GridGeometry, dt: Optional[float] = None,
                  width_cells: float = 2.0) -> DensityGrid:
    """Explicit-Euler solve of the Fokker-Planck equation d rho/dt = L* rho.

    The delta initial datum at x0 is approximated by an isotropic Gaussian
    of width ``width_cells`` grid cells; refine the grid to sharpen it.
    """
    x0 = np.asarray(x0, dtype=float)
    nodes = geometry.nodes()
    sigma = width_cells * float(np.mean(geometry.dx))
    r2 = np.sum((nodes - x0) ** 2, axis=-1)
    values = np.exp(-0.5 * r2 / sigma ** 2) / ((2.0 * np.pi) ** 1.5 * sigma ** 3)
    return _evolve(spec, values, T, geometry, dt, "forward")


def interpolate(grid: DensityGrid, x) -> float:
    """Trilinear interpolation of the grid values at a point inside the box."""
    x = np.asarray(x, dtype=float)
    g = grid.geometry
    rel = (x - g.bounds[:, 0]) / g.dx
    idx = np.floor(rel).astype(int)
    idx = np.clip(idx, 0, np.array(g.shape) - 2)
    frac = rel - idx
    if np.any(frac < -1e-9) or np.any(frac > 1.0 + 1e-9):
        raise ValueError(f"point {x} lies outside the grid box")
    frac = np.clip(frac, 0.0, 1.0)
    out = 0.0
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = (
                    (frac[0] if di else 1.0 - frac[0])
                    * (frac[1] if dj else 1.0 - frac[1])
                    * (frac[2] if dk else 1.0 - frac[2])
                )
                out += w * grid.values[idx[0] + di, idx[1] + dj, idx[2] + dk]
    return float(out)


def ensemble_finals(sys: SdeSystem, x0, T: float, M: int, ensemble: int,
                    seed: int) -> np.ndarray:
    """Final states (ensemble, state_dim) of independent Heun paths.

    Path j takes draws j*M ... j*M + M - 1 of each channel's Philox stream
    keyed (seed, k), so path 0 runs on ``sample_grid``'s grid for this seed
    and ensembles on different seeds share no increment.  Each path ends
    bit for bit where ``integrate`` on its own grid ends.  The
    COADJOINT_THREADS environment variable caps the number of column
    blocks of the increment table advanced in parallel; blocks recombine
    in path order and a divergence reports the earliest (step, path), so
    the outcome does not depend on the thread count.
    """
    if ensemble <= 0:
        raise ValueError(f"ensemble count must be positive, got {ensemble}")
    x0 = np.asarray(x0, dtype=float)
    dW = _increments(seed, sys.channels, T, M, ensemble)
    x = np.broadcast_to(x0, (ensemble, x0.size))
    threads = max(1, int(os.environ.get("COADJOINT_THREADS", "1")))
    if threads == 1 or ensemble < 2 * threads:
        return _drive(sys, "heun_strat", x, T / M, dW)

    def block(cols):
        try:
            return _drive(sys, "heun_strat", x[cols], T / M, dW[:, cols],
                          first_path=cols.start)
        except IntegrationDiverged as err:
            return err

    edges = [ensemble * i // threads for i in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(block, map(slice, edges[:-1], edges[1:])))
    diverged = [p for p in parts if isinstance(p, IntegrationDiverged)]
    if diverged:
        raise min(diverged, key=lambda err: (err.step, err.path))
    return np.concatenate(parts, axis=0)


def mc_expectation(sys: SdeSystem, f: ScalarField, x0, T: float, M: int,
                   ensemble: int, seed: int):
    """Ensemble average of f over independent Heun paths; returns (mean, stderr).

    With zero channels the dynamics is deterministic and a single RK4 path
    is used (stderr 0).
    """
    if ensemble <= 0:
        raise ValueError(f"ensemble count must be positive, got {ensemble}")
    x0 = np.asarray(x0, dtype=float)
    if sys.channels == 0:
        traj = integrate(sys, "rk4", time_grid(T, M), x0)
        return float(f(traj.final())), 0.0
    finals = ensemble_finals(sys, x0, T, M, ensemble, seed)
    values = np.array([f(row) for row in finals])
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(ensemble)) if ensemble > 1 else 0.0
    return mean, stderr


def pde_mc_gate(stderr: float, geometry: GridGeometry) -> float:
    """Bound on |MC mean - PDE value|: 3 MC standard errors plus 2 max(dx)^2."""
    return 3.0 * stderr + 2.0 * float(np.max(geometry.dx)) ** 2


_DMAGIC = b"COADDENS"
_DVERSION = 1
_DHEADER = struct.Struct("<8sIIIIdd6d")


def write_density(path, grid: DensityGrid) -> None:
    """Binary export: header then float64 values with the z index fastest."""
    g = grid.geometry
    header = _DHEADER.pack(
        _DMAGIC, _DVERSION, g.shape[0], g.shape[1], g.shape[2],
        grid.time, 0.0, *g.bounds.reshape(-1),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_density(path) -> DensityGrid:
    with open(path, "rb") as fh:
        magic, version, nx, ny, nz, time, _, *bounds = _DHEADER.unpack(
            fh.read(_DHEADER.size)
        )
        if magic != _DMAGIC:
            raise ValueError(f"not a density file (magic {magic!r})")
        if version != _DVERSION:
            raise ValueError(f"unsupported density file version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    geometry = GridGeometry(bounds=np.array(bounds).reshape(3, 2), shape=(nx, ny, nz))
    if data.size != nx * ny * nz:
        raise ValueError("density file truncated")
    return DensityGrid(geometry=geometry, values=data.reshape(nx, ny, nz).astype(float),
                       time=time)


def write_density_slice_csv(path, grid: DensityGrid, axis: int, index: int) -> None:
    """CSV of the plane values[index] across the chosen axis."""
    if not 0 <= axis < 3:
        raise ValueError("axis must be 0, 1, or 2")
    if not 0 <= index < grid.geometry.shape[axis]:
        raise ValueError(
            f"plane index {index} out of range for axis {axis} with "
            f"{grid.geometry.shape[axis]} nodes"
        )
    axes = grid.geometry.axes()
    rest = [i for i in range(3) if i != axis]
    plane = np.take(grid.values, index, axis=axis)
    names = ["m1", "m2", "m3"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((names[rest[0]], names[rest[1]], "value"))
        for i, a in enumerate(axes[rest[0]]):
            for j, b in enumerate(axes[rest[1]]):
                writer.writerow([repr(float(a)), repr(float(b)), repr(float(plane[i, j]))])
