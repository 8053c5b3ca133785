"""Process generator as nested Poisson brackets, grid solvers, and Monte-Carlo checks.

The generator of the Stratonovich process driven by the noise Hamiltonians
g_k and drift Hamiltonian psi is

    L f = {f, psi} + (1/2) sum_k {g_k, {g_k, f}},

and its formal adjoint (boundaryless, Hamiltonian volume) flips the sign of
the first-order part only.  The backward equation d rho/dt = L rho is
discretized with central differences on a box in the dual of so(3) and
stepped by damped second-order Runge-Kutta-Chebyshev (RKC2) steps at the
drift CFL bound, with as many stages as the diffusion needs; the forward
(Fokker-Planck) equation reuses the same stepper with the adjoint
coefficients and a narrow-Gaussian surrogate for the delta initial datum.
States and stencil weights share one padded, C-order flat layout whose
pad is the ghost layer; each stage refills it (axis 0, 1, 2 faces in
turn) and makes one pass over the grid in chunks of ``_CHUNK`` contiguous
nodes, each taking the fused stencil and then its RKC2 combination.
The grid coefficients are the drift, Ito correction and noise fields of the
collective SdeSystem that ``lie_poisson_generator`` builds, and Monte-Carlo
expectations over Heun ensembles of that same system cross-validate both
solves; the bracket form of L is kept as the independent oracle.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import LieAlgebraSpec
from .actions import ActionChart
from .dynamics import ReducedHamiltonian, hamel_system, lie_poisson_system
from .fields import (
    HamelBracket,
    LiePoissonBracket,
    PoissonBracket,
    ScalarField,
    double_bracket,
)
from .integrators import (
    IntegrationDiverged,
    SdeSystem,
    _checked_state,
    _drive,
    _write_rows,
    integrate,
)
from .noise import NoiseSpec, _check_horizon, _increment_blocks, time_grid

__all__ = [
    "GeneratorSpec",
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
    """A process generator in bracket form and as the SDE it generates.

    ``system`` is the level's Stratonovich SDE itself, e.g. on the dual of a
    Lie algebra dm = ad*(K m, m) dt + ad*(xi_k, m) o dW^k: the grid solvers
    evaluate its drift, Ito correction and stacked diffusion on whole node
    arrays, and Monte-Carlo cross-checks run it, so both sides solve one
    equation.  The bracket structure with the channel-contracted noise
    Hamiltonians g_k (``phi``) and drift ``psi`` is the independent oracle
    for the same generator.
    """

    bracket: PoissonBracket
    phi: tuple
    psi: ScalarField
    system: SdeSystem


def lie_poisson_generator(alg: LieAlgebraSpec, K, xi) -> GeneratorSpec:
    """Generator of the stochastic coadjoint flow with Hamiltonian (1/2) m.Km."""
    noise = NoiseSpec.make(xi, 0)
    h = ReducedHamiltonian(alg=alg, kinetic_inverse=K)
    phi = tuple(ScalarField.linear(x, name=f"g{k+1}") for k, x in enumerate(noise.xi))
    return GeneratorSpec(bracket=LiePoissonBracket(alg), phi=phi, psi=h.as_field(),
                         system=lie_poisson_system(alg, K, noise))


def hamel_generator(chart: ActionChart, h: ReducedHamiltonian, xi) -> GeneratorSpec:
    """Generator on the mixed (m, q) level; psi is the reduced Hamiltonian."""
    noise = NoiseSpec.make(xi, 0)
    phi = tuple(ScalarField.linear(np.concatenate([w, np.zeros(chart.n)]), name=f"g{k+1}")
                for k, w in enumerate(noise.xi))
    return GeneratorSpec(bracket=HamelBracket(chart), phi=phi, psi=h.as_mq_field(chart.n),
                         system=hamel_system(chart, h, noise))


def _apply(spec: GeneratorSpec, f: ScalarField, x, sign: float):
    """sign {f, psi}(x) + (1/2) sum_k {g_k, {g_k, f}}(x)."""
    x = np.asarray(x, dtype=float)
    out = sign * spec.bracket(f, spec.psi, x)
    for g in spec.phi:
        out += 0.5 * double_bracket(spec.bracket, g, f, x)
    return out


def generator_apply(spec: GeneratorSpec, f: ScalarField, x):
    """L f(x) = {f, psi}(x) + (1/2) sum_k {g_k, {g_k, f}}(x), one value per
    state of x (..., d); a float for one state.

    Inner brackets use analytic gradients where the fields carry them; the
    outer bracket differentiates actual inner-bracket evaluations by central
    differences.
    """
    return _apply(spec, f, x, 1.0)


def adjoint_apply(spec: GeneratorSpec, f: ScalarField, x):
    """L* f(x) = -{f, psi}(x) + (1/2) sum_k {g_k, {g_k, f}}(x), per state."""
    return _apply(spec, f, x, -1.0)


@dataclass(frozen=True)
class GridGeometry:
    """A box in R^3 with per-axis resolution."""

    bounds: np.ndarray  # (3, 2) [axis][lo, hi]
    shape: tuple

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.shape != (3, 2) or not (np.isfinite(bounds).all()
                                          and np.all(bounds[:, 0] < bounds[:, 1])):
            raise ValueError("bounds must be a (3, 2) array of finite increasing pairs")
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

    def contains(self, x) -> bool:
        """Whether the point ``x``, shape (3,), lies in the closed box."""
        if np.shape(x) != (3,):
            raise ValueError(f"point has shape {np.shape(x)}, expected (3,)")
        lo, hi = self.bounds.T
        return bool(np.all((lo <= x) & (x <= hi)))

    def axes(self):
        return [np.linspace(self.bounds[i, 0], self.bounds[i, 1], self.shape[i])
                for i in range(3)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (*shape, 3), stored component-major.

        Each coordinate is one contiguous block, the layout of the ensemble
        states, on which the coefficient einsums run several times faster
        than on row-major nodes, with the same results.
        """
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.moveaxis(np.stack(mesh), 0, -1)


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


def _transport(spec: GeneratorSpec, geometry: GridGeometry, mode: str):
    """The grid nodes, the transport b on them and its drift CFL bound.

    b is the Ito drift of the generator's SdeSystem, with the Stratonovich
    drift's sign flipped for the adjoint (``mode`` "forward"); the bound
    is min_i dx_i / max|b_i|.
    """
    sys = spec.system
    if sys.state_dim != 3:
        raise ValueError("grid solvers support generators on a 3-dimensional dual, "
                         "built by lie_poisson_generator")
    if mode not in ("backward", "forward"):
        raise ValueError(f"mode must be 'backward' or 'forward', not {mode!r}")
    nodes = geometry.nodes()
    sign = 1.0 if mode == "backward" else -1.0
    transport = sign * sys.drift(0.0, nodes) + sys.ito_correction(0.0, nodes)
    b_max = np.max(np.abs(transport), axis=(0, 1, 2))
    bound = float(min((d / b for d, b in zip(geometry.dx, b_max) if b > 0), default=np.inf))
    return nodes, transport, bound


# Nodes per pass of the stage kernel: a chunk's stencil output, scratch and
# state slices stay in L2 from the stencil to its RKC2 combination, while
# each numpy call still covers enough nodes to hide its call overhead; a
# 32^3 grid is one chunk, a 48^3 grid three.  Median CPU ms of 25 rounds
# (backward) and 100 solves (forward), sizes shuffled within each round,
# and the median per-round ratio to 40960; one pinned CPU of a 2-CPU Xeon
# (2 MiB L2 per core), numpy 2.4.6, rigid-body generator with one channel:
#
#     chunk            8192   16384  32768  40960  65536  whole span
#     backward 48^3     209    206    185    183    206    255
#       ratio          1.13   1.05   1.01   1      1.13   1.40
#     forward 32^3     18.6   19.4   17.3   16.2   18.1   16.4
#       ratio          1.10   1.15   1.07   1      1.06   1.03
_CHUNK = 40960


def _padded(shape: tuple):
    """A zero C-order flat array of the padded ``shape`` and a view of its grid nodes."""
    flat = np.zeros(int(np.prod(shape)))
    return flat, flat.reshape(shape)[1:-1, 1:-1, 1:-1]


class _PaddedState:
    """One solve state in a _GridOperator's padded, C-order flat layout.

    ``flat`` holds the (n0 + 2, n1 + 2, n2 + 2) array whose one-node pad is
    the ghost layer, ``interior`` views the grid nodes.  Built once per
    state: the ghost faces in refill order and, for each chunk of the
    interior span, its own slice and the slices at the six neighbour and
    the cross-corner flat offsets.
    """

    def __init__(self, op: "_GridOperator", values=None):
        self.flat, self.interior = _padded(op.padded)
        if values is not None:
            self.interior[...] = values
        g = self.flat.reshape(op.padded)
        self.faces = [tuple(g[(slice(None),) * axis + (k,)] for k in ks)
                      for axis in range(3) for ks in ((0, 1, 2), (-1, -2, -3))]

        def at(c, offset):
            return self.flat[c.start + offset:c.stop + offset]

        self.chunks = [at(c, 0) for c in op.chunks]
        self.neighbours = [[at(c, o) for o in op.neighbour_offsets] for c in op.chunks]
        self.cross = [[tuple(at(c, o) for o in corners) for corners in op.cross_offsets]
                      for c in op.chunks]


class _GridOperator:
    """Fused finite-difference form of L (or L*) on a box in so(3)*.

    First and second derivatives use central differences; one ghost layer of
    linear extrapolation supplies one-sided behaviour at the faces.  The
    coefficients are the generator's own SdeSystem on the node array: the
    transport b is the Ito drift (Stratonovich drift, sign flipped for the
    adjoint, plus the double-bracket correction) and the diffusion matrix a
    is (1/2) sum_k sigma_k sigma_k^T over the stacked channel fields
    sigma_k.  Construction folds them into per-node stencil weights, which
    are all the operator keeps:

        centre         -2 sum_i a_ii / dx_i^2
        neighbour +-i  a_ii / dx_i^2 +- b_i / (2 dx_i)
        cross i < j    a_ij / (2 dx_i dx_j) on u(++) - u(+-) - u(-+) + u(--)

    Cross weights that vanish on every node are dropped.

    Weights and solve states (:class:`_PaddedState`) share one padded,
    C-order flat layout: the grid plus a one-node pad, which is the ghost
    layer of a state and zero in every weight.  A neighbour or cross corner
    is then a constant flat offset, so each operand of a stretch of
    contiguous nodes is one contiguous slice.  :meth:`sweep` refills the
    ghost layer, faces of axis 0, 1 and 2 in turn over whole planes (so
    edges and corners take the last axis's extrapolation), then walks the
    interior span, from the first interior node to the last, in chunks of
    ``_CHUNK`` nodes; pad nodes inside the span get zero-weight values that
    the next refill overwrites.
    """

    def __init__(self, spec: GeneratorSpec, geometry: GridGeometry,
                 mode: str = "backward"):
        dx = geometry.dx
        nodes, transport, self.drift_bound = _transport(spec, geometry, mode)
        sigma = spec.system.diffusion(0.0, nodes)
        del nodes
        a_diag = 0.5 * np.einsum("...ki,...ki->...i", sigma, sigma)

        # the drift CFL bound bounds the outer step; 2 / (explicit-Euler
        # bound, which also holds min dx^2 / (6 max a_ii)) estimates the
        # spectral radius that sets the stage count
        a_max = float(np.max(a_diag))
        diff_bound = float(np.min(dx ** 2)) / (6.0 * a_max) if a_max > 0 else np.inf
        self.spectral_radius = 2.0 / min(diff_bound, self.drift_bound)

        self.padded = tuple(n + 2 for n in geometry.shape)
        strides = (self.padded[1] * self.padded[2], self.padded[2], 1)
        start = sum(strides)
        stop = sum(s * n for s, n in zip(strides, geometry.shape)) + 1
        self.chunks = [slice(a, min(a + _CHUNK, stop)) for a in range(start, stop, _CHUNK)]
        self.neighbour_offsets = [s * strides[i] for i in range(3) for s in (1, -1)]

        def weight(ufunc, *operands):
            flat, interior = _padded(self.padded)
            ufunc(*operands, out=interior)
            return flat

        # each 3-D temporary is dropped as soon as its weights are built
        self._cross, self.cross_offsets = [], []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            w = np.einsum("...k,...k->...", sigma[..., i], sigma[..., j])
            if np.any(w):
                self._cross.append(weight(np.multiply, w, 0.5 / (2.0 * dx[i] * dx[j])))
                self.cross_offsets.append([si * strides[i] + sj * strides[j] for si, sj
                                           in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
        del sigma, w
        second = a_diag / dx ** 2
        del a_diag
        first = transport / (2.0 * dx)
        del transport
        self._centre = weight(np.multiply, np.sum(second, axis=-1), -2.0)
        # a - b rounds exactly as a + (-1) b
        self._neighbours = [weight(np.add if s > 0 else np.subtract, second[..., i], first[..., i])
                            for i in range(3) for s in (1, -1)]
        del second, first
        self._chunk_weights = [(self._centre[c], [w[c] for w in self._neighbours],
                                [w[c] for w in self._cross]) for c in self.chunks]
        self._tmp = self.scratch()

    def scratch(self) -> list:
        """Per-chunk views of one new array of the longest chunk's length."""
        buf = np.empty(self.chunks[0].stop - self.chunks[0].start)
        return [buf[:c.stop - c.start] for c in self.chunks]

    def sweep(self, src: _PaddedState, out: list):
        """Apply L (or L*) to ``src`` chunk by chunk, yielding each chunk's index.

        Refills ``src``'s ghost layer, then for each chunk c writes the
        operator on that chunk into ``out[c]`` and yields c, so the caller
        can use the chunk while it is in cache.  Each node takes the centre
        term, the six neighbour terms and the cross terms in that order.
        """
        for ghost, in1, in2 in src.faces:
            np.multiply(in1, 2.0, out=ghost)
            ghost -= in2
        for c, (centre, neighbours, cross) in enumerate(self._chunk_weights):
            o, tmp = out[c], self._tmp[c]
            np.multiply(centre, src.chunks[c], out=o)
            for w, view in zip(neighbours, src.neighbours[c]):
                np.multiply(w, view, out=tmp)
                o += tmp
            for w, (pp, pm, mp, mm) in zip(cross, src.cross[c]):
                np.subtract(pp, pm, out=tmp)
                tmp -= mp
                tmp += mm
                tmp *= w
                o += tmp
            yield c

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L rho (or L* rho) on every node of the grid-shaped ``rho``."""
        out = _PaddedState(self)
        for _ in self.sweep(_PaddedState(self, rho), out.chunks):
            pass
        return out.interior


def admissible_dt(spec: GeneratorSpec, geometry: GridGeometry,
                  mode: str = "backward") -> float:
    """Largest outer step of the grid solves: the drift CFL bound min_i dx_i / max|b_i|.

    Diffusion sets no step limit; each step takes as many Runge-Kutta-
    Chebyshev stages as the diffusion's spectral radius needs.  Computed
    without the stencil weights.
    """
    return _transport(spec, geometry, mode)[2]


# Damping of the RKC2 stages; it leaves a real stability interval of length
# beta(s) ~ 0.653 s^2 (Verwer, Sommeijer and Hundsdorfer, J. Comput. Phys.
# 201 (2004)).
_RKC_DAMPING = 2.0 / 13.0


def _rkc_coefficients(s: int):
    """Damped second-order Runge-Kutta-Chebyshev scheme with s >= 2 stages.

    Returns mu~_1 and, for j = 2..s, (mu_j, nu_j, mu~_j, gamma~_j) of
        Y_1 = Y_0 + mu~_1 tau F(Y_0)
        Y_j = (1 - mu_j - nu_j) Y_0 + mu_j Y_{j-1} + nu_j Y_{j-2}
              + mu~_j tau F(Y_{j-1}) + gamma~_j tau F(Y_0),
    with Y_s the next state (Sommeijer, Shampine and Verwer, J. Comput.
    Appl. Math. 88 (1998)), and beta(s) = 2 w0 / w1: the stages are stable
    for tau F with real eigenvalues in [-beta(s), 0], where the Chebyshev
    argument w0 + w1 z of the stability polynomial stays in [-w0, w0].
    """
    w0 = 1.0 + _RKC_DAMPING / s ** 2
    # Chebyshev polynomials T_j and their first two derivatives at w0
    t, t1, t2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        t.append(2.0 * w0 * t[j - 1] - t[j - 2])
        t1.append(2.0 * t[j - 1] + 2.0 * w0 * t1[j - 1] - t1[j - 2])
        t2.append(4.0 * t1[j - 1] + 2.0 * w0 * t2[j - 1] - t2[j - 2])
    w1 = t1[s] / t2[s]
    b = [t2[max(j, 2)] / t1[max(j, 2)] ** 2 for j in range(s + 1)]
    stages = []
    for j in range(2, s + 1):
        mt = 2.0 * w1 * b[j] / b[j - 1]
        stages.append((2.0 * w0 * b[j] / b[j - 1], -b[j] / b[j - 2], mt,
                       -(1.0 - b[j - 1] * t[j - 1]) * mt))
    return b[1] * w1, stages, 2.0 * w0 / w1


def _rkc_stages(tau_rho: float) -> int:
    """The fewest stages s >= 2 whose stability interval holds tau_rho."""
    s = 2
    while tau_rho > _rkc_coefficients(s)[2]:
        s += 1
    return s


def _evolve(spec, f0_values: np.ndarray, T: float, geometry: GridGeometry,
            dt: Optional[float], mode: str) -> DensityGrid:
    """Damped RKC2 steps of d rho/dt = L rho (or L* rho) up to time T.

    The outer step is ``dt``, by default the drift CFL bound, shortened to
    divide T.  Each step takes the fewest stages s >= 2 with tau r <= beta(s)
    for the operator's spectral-radius estimate r, so the diffusion sets the
    stage count and not the step.  Each stage is one :meth:`_GridOperator.sweep`
    whose chunks take their RKC2 combination as they come, in place on
    rotating padded states.
    """
    _check_horizon(T)
    op = _GridOperator(spec, geometry, mode)
    bound = op.drift_bound
    if dt is None:
        dt = min(bound, T)
    elif not 0 < dt <= bound:
        raise ValueError(
            f"time step {dt:.3e} is not positive or violates the drift CFL bound; "
            f"admissible dt is {bound:.3e}"
        )
    nsteps = max(1, int(np.ceil(T / dt)))
    tau = T / nsteps
    mt1, coeffs, _ = _rkc_coefficients(_rkc_stages(tau * op.spectral_radius))
    y0 = _PaddedState(op, f0_values)
    f0, prev, older = (_PaddedState(op) for _ in range(3))
    f = op.scratch()
    for _ in range(nsteps):
        for c in op.sweep(y0, f0.chunks):
            np.copyto(older.chunks[c], y0.chunks[c])
            np.multiply(f0.chunks[c], mt1 * tau, out=prev.chunks[c])
            prev.chunks[c] += y0.chunks[c]
        for mu, nu, mt, gt in coeffs:
            # Y_j overwrites Y_{j-2}, chunk by chunk; f is the scratch for each term
            for c in op.sweep(prev, f):
                fc, o = f[c], older.chunks[c]
                o *= nu
                fc *= mt * tau
                o += fc
                np.multiply(prev.chunks[c], mu, out=fc)
                o += fc
                np.multiply(y0.chunks[c], 1.0 - mu - nu, out=fc)
                o += fc
                np.multiply(f0.chunks[c], gt * tau, out=fc)
                o += fc
            prev, older = older, prev
        y0, prev = prev, y0
        if not np.all(np.isfinite(y0.interior)):
            raise ArithmeticError("grid solve diverged; reduce dt or enlarge the box")
    return DensityGrid(geometry=geometry, values=y0.interior.copy(), time=T)


def backward_solve(spec: GeneratorSpec, f0: ScalarField, T: float,
                   geometry: GridGeometry, dt: Optional[float] = None) -> DensityGrid:
    """Damped RKC2 solve of d rho/dt = L rho, rho(0, m) = f0(m).

    The result at (T, m) approximates E_m[f0(m(T))].  ``dt`` is the outer
    step, at most (and by default) :func:`admissible_dt`.
    """
    values = f0.evaluate(geometry.nodes())
    return _evolve(spec, values, T, geometry, dt, "backward")


# Width, in grid cells, of the Gaussian standing in for forward_solve's delta datum
_DELTA_WIDTH_CELLS = 2.0


def forward_solve(spec: GeneratorSpec, x0, T: float,
                  geometry: GridGeometry, dt: Optional[float] = None) -> DensityGrid:
    """Damped RKC2 solve of the Fokker-Planck equation d rho/dt = L* rho.

    The delta initial datum at x0 is approximated by an isotropic Gaussian
    of width ``_DELTA_WIDTH_CELLS`` grid cells; refine the grid to sharpen it.
    ``dt`` is the outer step, at most (and by default) the drift CFL bound
    of the adjoint coefficients.  ``x0`` must lie in the box.
    """
    x0 = np.asarray(x0, dtype=float)
    if not geometry.contains(x0):
        raise ValueError(f"x0 {x0} lies outside the grid box {geometry.bounds.tolist()}")
    nodes = geometry.nodes()
    sigma = _DELTA_WIDTH_CELLS * float(np.mean(geometry.dx))
    r2 = np.sum((nodes - x0) ** 2, axis=-1)
    values = np.exp(-0.5 * r2 / sigma ** 2) / ((2.0 * np.pi) ** 1.5 * sigma ** 3)
    return _evolve(spec, values, T, geometry, dt, "forward")


def interpolate(grid: DensityGrid, x) -> float:
    """Trilinear interpolation of the grid values at a point inside the box."""
    x = np.asarray(x, dtype=float)
    g = grid.geometry
    if not g.contains(x):
        raise ValueError(f"point {x} lies outside the grid box {g.bounds.tolist()}")
    rel = (x - g.bounds[:, 0]) / g.dx
    idx = np.clip(np.floor(rel).astype(int), 0, np.array(g.shape) - 2)
    frac = np.clip(rel - idx, 0.0, 1.0)
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


# Values per stacked stage array of an ensemble block: a block holds
# _BLOCK_VALUES // ((1 + C) d) consecutive paths, so each (1 + C, paths, d)
# stack of a Heun stage (512 KiB at 2^16) stays in L2 from the field call
# to its reduction.  Median CPU ms of ensemble_finals on so(3), budgets
# shuffled within each round, one pinned CPU of a 2-CPU Xeon (2 MiB L2 per
# core), numpy 2.4.6; 40 rounds of the short-time check (5e4 paths x 2
# steps, 2 channels) and 12 of the MC cross-check (1e4 x 256, 1 channel),
# where 2^16 and up are all one 1e4-path block and differ only by noise:
#
#     values per stack    2^14   2^15   2^16   2^17   2^18   whole ensemble
#     5e4 x 2, C = 2      21.6   16.6   15.4   16.0   19.1   22.0
#     1e4 x 256, C = 1     243    213    222    212    223    224
_BLOCK_VALUES = 2 ** 16


def _ensemble_size(ensemble) -> int:
    """``ensemble`` as an int; refuses anything but an integer >= 1."""
    if isinstance(ensemble, bool) or not isinstance(ensemble, numbers.Integral) or ensemble < 1:
        raise ValueError(f"ensemble must be a positive integer, got {ensemble!r}")
    return int(ensemble)


def ensemble_finals(sys: SdeSystem, x0, T: float, M: int, ensemble: int,
                    seed: int) -> np.ndarray:
    """Final states (ensemble, state_dim) of independent Heun paths from ``x0``.

    Path j takes draws j*M ... j*M + M - 1 of each channel's Philox stream
    keyed (seed, k), so path 0 runs on ``sample_grid``'s grid for this seed
    and ensembles on different seeds share no increment.  Each path ends
    bit for bit where ``integrate`` on its own grid ends.

    Paths are drawn and stepped in blocks of ``_BLOCK_VALUES // ((1 + C) d)``
    consecutive paths, one block at a time in stream order, so an ensemble
    holds one block's increments and stage stacks, not the whole table.
    Every block runs; a divergence reports the earliest (step, path) of all
    blocks, so the outcome does not depend on the block size.
    """
    ensemble = _ensemble_size(ensemble)
    x0 = _checked_state(sys, x0)
    draw = _increment_blocks(seed, sys.channels, T, M)
    size = max(1, _BLOCK_VALUES // ((1 + sys.channels) * sys.state_dim))
    finals = np.empty((ensemble, sys.state_dim))
    diverged = []
    for start in range(0, ensemble, size):
        dW = draw(min(size, ensemble - start))
        rows = finals[start:start + dW.shape[1]]
        try:
            rows[...] = _drive(sys, "heun_strat", np.broadcast_to(x0, rows.shape), T / M,
                               dW, first_path=start)
        except IntegrationDiverged as err:
            diverged.append(err)
    if diverged:
        raise min(diverged, key=lambda err: (err.step, err.path))
    return finals


def _mean_stderr(values: np.ndarray):
    """Mean of ``values`` and its standard error (0 for a single value)."""
    n = len(values)
    stderr = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), stderr


def mc_expectation(sys: SdeSystem, f: ScalarField, x0, T: float, M: int,
                   ensemble: int, seed: int):
    """Ensemble average of f over independent Heun paths; returns (mean, stderr).

    With zero channels the dynamics is deterministic and a single RK4 path
    is used (stderr 0).
    """
    _ensemble_size(ensemble)
    if sys.channels == 0:
        traj = integrate(sys, "rk4", time_grid(T, M), x0)
        return float(f(traj.final())), 0.0
    return _mean_stderr(f.evaluate(ensemble_finals(sys, x0, T, M, ensemble, seed)))


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
    _write_rows(path, (names[rest[0]], names[rest[1]], "value"),
                ((a, b, plane[i, j]) for i, a in enumerate(axes[rest[0]])
                 for j, b in enumerate(axes[rest[1]])))
