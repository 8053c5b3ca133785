import re
import threading

import numpy as np
import pytest

from coadjoint.algebra import builtin
from coadjoint.dynamics import (
    QuadraticLagrangian,
    ReducedHamiltonian,
    casimir,
    lie_poisson_system,
    momentum_pairing_field,
    phase_space_system,
)
from coadjoint.fields import (
    CanonicalBracket,
    HamelBracket,
    LiePoissonBracket,
    ScalarField,
    double_bracket,
)
from coadjoint.integrators import IntegrationDiverged, SdeSystem, _drive, integrate
from coadjoint.kolmogorov import (
    DensityGrid,
    GridGeometry,
    adjoint_apply,
    admissible_dt,
    backward_solve,
    ensemble_finals,
    forward_solve,
    generator_apply,
    hamel_generator,
    interpolate,
    lie_poisson_generator,
    mc_expectation,
    read_density,
    write_density,
    write_density_slice_csv,
)
from coadjoint import kolmogorov
from coadjoint.kolmogorov import _GridOperator, _rkc_coefficients, _rkc_stages, _transport
from coadjoint.noise import BrownianGrid, NoiseSpec, _increment_blocks, sample_grid, time_grid
from coadjoint.actions import builtin_chart

SO3 = builtin("so3")
K_RIGID = np.diag([1.0, 0.5, 1.0 / 3.0])
XI_PAIR = [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]


def rigid_spec(xi=((0.0, 0.0, 1.0),)):
    return lie_poisson_generator(SO3, K_RIGID, np.array(xi))


def bump(center, radius):
    c = np.asarray(center, dtype=float)

    def inside(m):
        s = np.sum((m - c) ** 2, axis=-1) / radius ** 2
        return s < 1.0, np.where(s < 1.0, s, 0.0)

    def value(m):
        ok, s = inside(m)
        return np.where(ok, np.exp(-s / (1.0 - s)), 0.0)

    def grad(m):
        ok, s = inside(m)
        dv = np.where(ok, np.exp(-s / (1.0 - s)) * (-1.0 / (1.0 - s) ** 2), 0.0)
        return dv[..., None] * (2.0 * (m - c) / radius ** 2)

    return ScalarField(value=value, grad=grad, name="bump")


def reference_apply(spec, geo, rho):
    """Unfused central differences with linearly extrapolated ghost layers."""
    nodes = geo.nodes()
    b = spec.system.drift(0.0, nodes) + spec.system.ito_correction(0.0, nodes)
    sigma = spec.system.diffusion(0.0, nodes)
    a = 0.5 * np.einsum("...ki,...kj->...ij", sigma, sigma)
    p = np.pad(rho, 1)
    for axis in range(3):
        face = np.moveaxis(p, axis, 0)
        face[0] = 2.0 * face[1] - face[2]
        face[-1] = 2.0 * face[-2] - face[-3]

    def u(off):
        return p[tuple(slice(1 + o, n - 1 + o) for o, n in zip(off, p.shape))]

    e = np.eye(3, dtype=int)
    dx = geo.dx
    out = np.zeros_like(rho)
    for i in range(3):
        out += b[..., i] * (u(e[i]) - u(-e[i])) / (2.0 * dx[i])
        out += a[..., i, i] * (u(e[i]) - 2.0 * rho + u(-e[i])) / dx[i] ** 2
        for j in range(i + 1, 3):
            cross = u(e[i] + e[j]) - u(e[i] - e[j]) - u(e[j] - e[i]) + u(-e[i] - e[j])
            out += 2.0 * a[..., i, j] * cross / (4.0 * dx[i] * dx[j])
    return out


def _shifted(ghost, offsets):
    """Interior-shaped view of the ghost-padded array moved by {axis: +-1}."""
    return ghost[tuple(slice(1 + offsets.get(a, 0), n - 1 + offsets.get(a, 0))
                       for a, n in enumerate(ghost.shape))]


class ReferenceOperator:
    """The whole-array fused stencil on 3-D node arrays, with its own ghost
    array: the per-node operations, in their order, that the chunked stage
    kernel must reproduce bit for bit."""

    def __init__(self, spec, geometry):
        dx = geometry.dx
        nodes, transport, self.drift_bound = _transport(spec, geometry)
        sigma = spec.system.diffusion(0.0, nodes)
        a_diag = 0.5 * np.einsum("...ki,...ki->...i", sigma, sigma)
        a_max = float(np.max(a_diag))
        diff_bound = float(np.min(dx ** 2)) / (6.0 * a_max) if a_max > 0 else np.inf
        self.spectral_radius = 2.0 / min(diff_bound, self.drift_bound)
        g = self._ghost = np.zeros(tuple(n + 2 for n in geometry.shape))
        self._scratch = np.empty(geometry.shape)
        self._faces = [tuple(g[(slice(None),) * axis + (k,)] for k in ks)
                       for axis in range(3) for ks in ((0, 1, 2), (-1, -2, -3))]
        second = a_diag / dx ** 2
        first = transport / (2.0 * dx)
        self._centre = -2.0 * np.sum(second, axis=-1)
        self._neighbours = [(second[..., i] + s * first[..., i], _shifted(g, {i: s}))
                            for i in range(3) for s in (1, -1)]
        self._cross = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            w = np.einsum("...k,...k->...", sigma[..., i], sigma[..., j])
            if np.any(w):
                w *= 0.5 / (2.0 * dx[i] * dx[j])
                views = tuple(_shifted(g, {i: si, j: sj})
                              for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
                self._cross.append((w, views))

    def apply(self, rho, out):
        self._ghost[1:-1, 1:-1, 1:-1] = rho
        for ghost, in1, in2 in self._faces:
            np.multiply(in1, 2.0, out=ghost)
            ghost -= in2
        tmp = self._scratch
        np.multiply(self._centre, rho, out=out)
        for w, view in self._neighbours:
            np.multiply(w, view, out=tmp)
            out += tmp
        for w, (pp, pm, mp, mm) in self._cross:
            np.subtract(pp, pm, out=tmp)
            tmp -= mp
            tmp += mm
            tmp *= w
            out += tmp
        return out


def grid_apply(op, rho):
    """The operator ``op`` on rho at every node: one whole sweep of it."""
    (src, interior), (out, applied) = (kolmogorov._padded(op.padded) for _ in range(2))
    interior[...] = rho
    for c, o in op.sweep(src):
        out[c] = o
    return applied


def reference_evolve(spec, values, T, geometry):
    """Damped RKC2 steps at the default outer step, each stage one whole-array
    apply followed by a whole-array update on rotating buffers."""
    op = ReferenceOperator(spec, geometry)
    nsteps = max(1, int(np.ceil(T / min(op.drift_bound, T))))
    tau = T / nsteps
    mt1, coeffs, _ = _rkc_coefficients(_rkc_stages(tau * op.spectral_radius))
    y0 = np.array(values, dtype=float)
    f0, f, prev, older = (np.empty_like(y0) for _ in range(4))
    for _ in range(nsteps):
        op.apply(y0, out=f0)
        older[...] = y0
        np.multiply(f0, mt1 * tau, out=prev)
        prev += y0
        for mu, nu, mt, gt in coeffs:
            op.apply(prev, out=f)
            older *= nu
            f *= mt * tau
            older += f
            np.multiply(prev, mu, out=f)
            older += f
            np.multiply(y0, 1.0 - mu - nu, out=f)
            older += f
            np.multiply(f0, gt * tau, out=f)
            older += f
            prev, older = older, prev
        y0, prev = prev, y0
    return y0


class TestGenerator:
    def test_kills_casimir(self):
        spec = rigid_spec()
        C = casimir(SO3)
        ms = np.random.default_rng(0).normal(size=(50, 3))
        assert np.max(np.abs(generator_apply(spec, C, ms))) <= 1e-8
        assert np.max(np.abs(adjoint_apply(spec, C, ms))) <= 1e-8

    def test_kills_constants_exactly(self):
        spec = rigid_spec()
        one = ScalarField.constant(1.0)
        assert generator_apply(spec, one, np.array([0.4, 0.1, -0.2])) == 0.0

    def test_noise_free_is_liouville(self):
        spec = rigid_spec(xi=np.zeros((0, 3)))
        rng = np.random.default_rng(1)
        for i in range(3):
            f = ScalarField.coordinate(i, 3)
            ms = rng.normal(size=(5, 3))
            lf = generator_apply(spec, f, ms)
            assert lf == pytest.approx(spec.system.drift(0.0, ms)[:, i], abs=1e-10)
            # noise-free adjoint is minus the generator
            assert adjoint_apply(spec, f, ms) == pytest.approx(-lf, abs=1e-12)

    def test_bracket_antisymmetric_at_samples(self):
        spec = rigid_spec()
        rng = np.random.default_rng(2)
        f = ScalarField.coordinate(0, 3)
        g = ScalarField.coordinate(2, 3)
        ms = rng.normal(size=(20, 3))
        assert spec.bracket(f, g, ms) == pytest.approx(-spec.bracket(g, f, ms), abs=1e-10)

    def test_hamel_generator_casimir_on_m_block(self):
        chart = builtin_chart("so3_on_r3")
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID)
        spec = hamel_generator(chart, h, [[0.0, 0.0, 1.0]])
        C = casimir(SO3)
        Cmq = ScalarField(
            value=lambda x: C.value(x[..., :3]),
            grad=lambda x: np.concatenate([C.gradient(x[..., :3]), np.zeros_like(x[..., 3:])],
                                          axis=-1),
        )
        xs = np.random.default_rng(3).normal(size=(20, 6))
        assert np.max(np.abs(generator_apply(spec, Cmq, xs))) <= 1e-8

    @pytest.mark.parametrize("level", ["lie_poisson", "hamel"])
    def test_generator_is_its_systems_ito_drift(self, level):
        # L x_i is component i of the Ito drift (drift plus Ito correction)
        # of the SDE the spec carries, on either level
        xi = [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID)
        spec = (rigid_spec(xi) if level == "lie_poisson"
                else hamel_generator(builtin_chart("so3_on_r3"), h, xi))
        sys, d = spec.system, spec.system.state_dim
        xs = np.random.default_rng(5).normal(size=(20, d))
        ito_drift = sys.drift(0.0, xs) + sys.ito_correction(0.0, xs)
        for i in range(d):
            lx = generator_apply(spec, ScalarField.coordinate(i, d), xs)
            assert np.max(np.abs(lx - ito_drift[..., i])) <= 1e-9

    def test_duality_quadrature(self):
        # integral of (Lf) g minus integral of f (L*g) over a box that
        # contains both bump supports; trapezoid sums on a 64^3 grid
        spec = rigid_spec()
        f = bump([0.15, 0.0, 0.1], 0.45)
        g = bump([-0.05, 0.1, 0.0], 0.5)
        geo = GridGeometry.cube(-0.8, 0.8, 64)
        nodes = geo.nodes().reshape(-1, 3)
        dV = float(np.prod(geo.dx))
        margin = 0.02
        in_f = np.linalg.norm(nodes - [0.15, 0.0, 0.1], axis=1) <= 0.45 + margin
        in_g = np.linalg.norm(nodes - [-0.05, 0.1, 0.0], axis=1) <= 0.5 + margin
        x = nodes[in_f & in_g]
        lhs = np.sum(generator_apply(spec, f, x) * g.evaluate(x)) * dV
        rhs = np.sum(f.evaluate(x) * adjoint_apply(spec, g, x)) * dV
        assert abs(lhs - rhs) <= 1e-4


def states(lead, dim, layout, seed=11):
    """Normal states of shape (*lead, dim) in row-major or component-major
    (``GridGeometry.nodes()``) layout."""
    x = np.random.default_rng(seed).normal(size=lead + (dim,))
    if layout == "component-major":
        x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    return x


def assert_rows_equal_single_states(fn, x):
    """fn on the whole state array equals fn on each state alone, a contiguous
    copy, bit for bit."""
    whole = fn(x)
    single = [fn(row.copy()) for row in x.reshape(-1, x.shape[-1])]
    assert all(isinstance(v, float) for v in single)
    assert np.array_equal(whole, np.reshape(single, x.shape[:-1]))


def wavy(dim):
    """A field without an analytic gradient, so brackets take finite differences."""
    return ScalarField(value=lambda x: np.sin(x[..., 0]) * x[..., -1] + x[..., 1] ** 2,
                       name="wavy")


LEADS = [(40,), (5, 7)]
# a full K, whose gradient einsum rounds by memory layout
K_FULL = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 1.0 / 3.0]])
LAYOUTS = ["row-major", "component-major"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("lead", LEADS)
class TestBracketBatch:
    """Brackets, the nested bracket and the generator evaluate on state
    arrays, each row as the call on that state alone."""

    def cases(self):
        chart = builtin_chart("so3_on_r3")
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_FULL)
        pairing = momentum_pairing_field(chart, [0.3, -1.0, 0.7])
        yield CanonicalBracket(3), pairing, wavy(6), 6
        for name in ("so3", "se2", "h3"):
            yield LiePoissonBracket(builtin(name)), ScalarField.linear([0.4, -0.2, 1.1]), wavy(3), 3
        yield HamelBracket(chart), h.as_mq_field(), wavy(6), 6

    def test_bracket(self, lead, layout):
        for br, f, g, dim in self.cases():
            assert_rows_equal_single_states(lambda x: br(f, g, x), states(lead, dim, layout))
            assert_rows_equal_single_states(lambda x: br(g, f, x), states(lead, dim, layout))

    def test_double_bracket(self, lead, layout):
        for br, f, g, dim in self.cases():
            assert_rows_equal_single_states(lambda x: double_bracket(br, f, g, x),
                                            states(lead, dim, layout))

    @pytest.mark.parametrize("xi", [np.zeros((0, 3)), [[0.0, 0.0, 1.0]],
                                    [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]])
    def test_generator_and_adjoint(self, lead, layout, xi):
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_FULL)
        specs = [(rigid_spec(xi), 3), (hamel_generator(builtin_chart("so3_on_r3"), h, xi), 6)]
        for spec, dim in specs:
            for f in (ScalarField.coordinate(1, dim), wavy(dim)):
                for apply in (generator_apply, adjoint_apply):
                    assert_rows_equal_single_states(lambda x: apply(spec, f, x),
                                                    states(lead, dim, layout))


class TestBackwardSolve:
    def test_casimir_annihilated_on_interior(self):
        spec = rigid_spec(xi=[[1.0, 0.0, 0.0]])
        C = casimir(SO3)
        geo = GridGeometry.cube(-1.3, 1.3, 64)
        rho = backward_solve(spec, C, T=0.1, geometry=geo)
        nodes = geo.nodes()
        exact = np.sum(nodes ** 2, axis=-1)
        err = np.abs(rho.values - exact)
        # interior = central half of the box per axis; boundary-layer
        # contamination has not propagated that deep by T = 0.1
        q = 64 // 4
        assert float(np.max(err[q:-q, q:-q, q:-q])) <= 1e-4

    def test_refuses_a_generator_off_a_3_dimensional_dual(self):
        # a Hamel generator carries its 6-dimensional (m, q) system
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID)
        spec = hamel_generator(builtin_chart("so3_on_r3"), h, [[0.0, 0.0, 1.0]])
        assert spec.system.state_dim == 6
        with pytest.raises(ValueError, match="3-dimensional dual, built by lie_poisson_generator"):
            backward_solve(spec, casimir(SO3), 0.1, GridGeometry.cube(-1.0, 1.0, 8))

    @pytest.mark.parametrize("T", [0.0, -0.1, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, T):
        geo = GridGeometry.cube(-1.0, 1.0, 8)
        for solve, datum in ((backward_solve, casimir(SO3)), (forward_solve, np.zeros(3))):
            with pytest.raises(ValueError, match="horizon T must be positive and finite, got"):
                solve(rigid_spec(), datum, T, geo)

    def test_constant_initial_data_stays_constant(self):
        spec = rigid_spec()
        one = ScalarField.constant(1.0)
        geo = GridGeometry.cube(-1.0, 1.0, 16)
        rho = backward_solve(spec, one, T=0.05, geometry=geo)
        assert np.max(np.abs(rho.values - 1.0)) <= 1e-13

    def test_pure_transport_matches_characteristics(self):
        spec = rigid_spec(xi=np.zeros((0, 3)))

        def f0v(m):
            m = np.asarray(m, dtype=float)
            return np.sin(m[..., 0]) + 0.5 * m[..., 1] ** 2

        f0 = ScalarField(value=f0v)
        geo = GridGeometry.cube(-1.2, 1.2, 24)
        T = 0.05
        rho = backward_solve(spec, f0, T, geometry=geo)
        grid = time_grid(T, 64)
        nodes = geo.nodes()
        dx = float(geo.dx[0])
        for idx in [(6, 6, 6), (12, 12, 12), (16, 8, 10), (9, 14, 5)]:
            x = nodes[idx]
            flow_end = integrate(spec.system, "rk4", grid, x).final()
            exact = float(f0v(flow_end))
            assert abs(rho.values[idx] - exact) <= 5.0 * (dx ** 2 + 1e-3)

    def test_grid_operator_matches_pointwise_generator(self):
        # central differences are exact on quadratics, so away from the
        # boundary the stencil reproduces the nested-bracket generator
        spec = rigid_spec()
        A = np.array([[0.5, 0.3, 0.0], [0.3, -0.2, 0.1], [0.0, 0.1, 0.8]])
        b = np.array([0.2, -0.5, 1.0])
        f = ScalarField(
            value=lambda m: np.einsum("...i,ij,...j->...", m, A, m) + m @ b,
            grad=lambda m: m @ (A + A.T) + b,
        )
        geo = GridGeometry.cube(-1.2, 1.2, 24)
        nodes = geo.nodes()
        vals = np.einsum("...i,ij,...j->...", nodes, A, nodes) + nodes @ b
        applied = grid_apply(_GridOperator(spec, geo), vals)
        idx = tuple(np.array([(5, 6, 7), (12, 12, 12), (18, 4, 9), (8, 15, 3)]).T)
        assert applied[idx] == pytest.approx(generator_apply(spec, f, nodes[idx]), abs=1e-10)

    @pytest.mark.parametrize("xi", [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]])
    def test_fused_stencil_matches_reference(self, xi):
        # the fused weights only reorder the sums of the unfused stencil,
        # ghost layers included
        spec = rigid_spec(xi=xi)
        geo = GridGeometry(bounds=np.array([[-1.2, 1.2], [-1.0, 1.1], [-0.9, 1.3]]),
                           shape=(12, 10, 9))
        rho = np.random.default_rng(7).normal(size=geo.shape)
        ref = reference_apply(spec, geo, rho)
        fused = grid_apply(_GridOperator(spec, geo), rho)
        assert np.max(np.abs(fused - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cfl_violation_reports_admissible_dt(self):
        spec = rigid_spec()
        geo = GridGeometry.cube(-1.0, 1.0, 24)
        dt_adm = admissible_dt(spec, geo)
        with pytest.raises(ValueError, match="admissible"):
            backward_solve(spec, casimir(SO3), T=0.1, geometry=geo, dt=10.0 * dt_adm)


class TestGridStepper:
    def test_second_order_in_time(self):
        # one fixed 24^3 grid, so the spatial error cancels in the
        # differences; T = 3 tau keeps every step count exact
        spec = rigid_spec(xi=[[1.0, 0.0, 0.0]])
        f0 = ScalarField(value=lambda m: np.sin(2.0 * m[..., 0]) * np.cos(m[..., 1]) + m[..., 2] ** 2)
        geo = GridGeometry.cube(-1.3, 1.3, 24)
        tau = admissible_dt(spec, geo)
        inner = (slice(6, -6),) * 3
        vals = [backward_solve(spec, f0, 3.0 * tau, geo, dt=tau / 2 ** i).values[inner]
                for i in range(3)]
        coarse = float(np.max(np.abs(vals[0] - vals[1])))
        fine = float(np.max(np.abs(vals[1] - vals[2])))
        assert coarse / fine >= 3.0

    def test_admissible_dt_is_drift_bound(self):
        spec = rigid_spec(xi=[[1.0, 0.0, 0.0]])
        geo = GridGeometry.cube(-1.0, 1.0, 16)
        nodes = geo.nodes()
        b = spec.system.drift(0.0, nodes) + spec.system.ito_correction(0.0, nodes)
        drift_bound = min(geo.dx[i] / np.max(np.abs(b[..., i])) for i in range(3))
        dt_adm = admissible_dt(spec, geo)
        assert dt_adm == pytest.approx(drift_bound, rel=1e-12)
        rho = backward_solve(spec, casimir(SO3), T=0.1, geometry=geo, dt=dt_adm)
        assert np.all(np.isfinite(rho.values))
        with pytest.raises(ValueError, match=f"drift CFL bound; admissible dt is {dt_adm:.3e}"):
            backward_solve(spec, casimir(SO3), T=0.1, geometry=geo, dt=1.01 * dt_adm)

    @pytest.mark.parametrize("xi", [np.zeros((0, 3)), [[1.0, 0.0, 0.0]],
                                    [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]])
    def test_admissible_dt_is_backward_operator_bound(self, xi):
        spec = rigid_spec(xi=xi)
        geo = GridGeometry(bounds=np.array([[-1.2, 1.2], [-1.0, 1.1], [-0.9, 1.3]]),
                           shape=(12, 10, 9))
        assert admissible_dt(spec, geo) == _GridOperator(spec, geo).drift_bound

    def test_stage_count_keeps_steps_stable(self):
        # |R(-z)| of the chosen scheme, from its stages stepped on the scalar
        # problem tau F(y) = -z y, stays at most 1 on all of [0, tau r]
        def amplification(s, z):
            mt1, coeffs, _ = _rkc_coefficients(s)
            older, prev = np.ones_like(z), 1.0 - mt1 * z
            for mu, nu, mt, gt in coeffs:
                older, prev = prev, ((1.0 - mu - nu) + mu * prev + nu * older
                                     - mt * z * prev - gt * z)
            return np.abs(prev)

        top = _rkc_coefficients(16)[2]
        for tau_r in np.append(np.linspace(0.0, top, 300), [2.5, 10.2]):
            s = _rkc_stages(tau_r)
            z = np.linspace(0.0, tau_r, 2001)
            assert np.max(amplification(s, z)) <= 1.0 + 1e-12, (tau_r, s)

    def test_zero_channels_take_two_stages(self, monkeypatch):
        # no diffusion: the spectral-radius estimate is 2 / (drift bound),
        # so each outer step takes the minimum of two stages
        spec = rigid_spec(xi=np.zeros((0, 3)))
        geo = GridGeometry.cube(-1.2, 1.2, 24)
        applies = []
        sweep = _GridOperator.sweep
        monkeypatch.setattr(_GridOperator, "sweep",
                            lambda self, *a: applies.append(1) or sweep(self, *a))
        T = 1.0
        steps = int(np.ceil(T / admissible_dt(spec, geo)))
        rho = backward_solve(spec, ScalarField.coordinate(0, 3), T, geometry=geo)
        assert len(applies) == 2 * steps
        assert np.all(np.isfinite(rho.values))


class TestNodeLayout:
    def test_nodes_are_component_major(self):
        geo = GridGeometry.cube(-1.0, 1.0, 6)
        nodes = geo.nodes()
        assert nodes.shape == (6, 6, 6, 3)
        assert all(nodes[..., i].flags.c_contiguous for i in range(3))
        mesh = np.meshgrid(*geo.axes(), indexing="ij")
        assert np.array_equal(nodes, np.stack(mesh, axis=-1))

    @pytest.mark.parametrize("xi", [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]],
                                    np.eye(3)])
    def test_coefficients_independent_of_layout(self, monkeypatch, xi):
        spec = rigid_spec(xi=xi)
        geo = GridGeometry(bounds=np.array([[-1.2, 1.2], [-1.0, 1.1], [-0.9, 1.3]]),
                           shape=(12, 10, 9))
        nodes = geo.nodes()
        rows = np.ascontiguousarray(nodes)
        sys = spec.system
        for fn in (sys.drift, sys.ito_correction, sys.diffusion):
            assert np.array_equal(fn(0.0, nodes), fn(0.0, rows))
        op = _GridOperator(spec, geo)
        monkeypatch.setattr(GridGeometry, "nodes", lambda self: rows)
        ref = _GridOperator(spec, geo)
        assert len(op._terms) == len(ref._terms) == 7
        for (w, j, k), (w_ref, j_ref, k_ref) in zip(op._terms, ref._terms):
            assert np.array_equal(w, w_ref) and (j, k) == (j_ref, k_ref) == (0, k)
        assert len(op._cross) == len(ref._cross)
        for (w, ks), (w_ref, ks_ref) in zip(op._cross, ref._cross):
            assert np.array_equal(w, w_ref) and ks == ks_ref
        assert (op.drift_bound, op.spectral_radius) == (ref.drift_bound, ref.spectral_radius)


class TestStageKernel:
    GEO = GridGeometry(bounds=np.array([[-1.2, 1.2], [-1.0, 1.1], [-0.9, 1.3]]),
                       shape=(12, 10, 9))

    @pytest.mark.parametrize("chunk", [100, 1 << 20])
    @pytest.mark.parametrize("xi", [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]])
    def test_solves_bit_identical_to_whole_array_stages(self, monkeypatch, xi, chunk):
        # the chunked stage kernel gives each node the operations of the
        # whole-array apply and RKC2 update, in their order, however the
        # interior span is cut: several chunks with a remainder, or one
        monkeypatch.setattr(kolmogorov, "_CHUNK", chunk)
        spec, geo = rigid_spec(xi=xi), self.GEO
        chunks = _GridOperator(spec, geo).chunks
        span = chunks[-1].stop - chunks[0].start
        if chunk < span:
            assert len(chunks) > 1 and span % chunk != 0
        else:
            assert len(chunks) == 1
        f0 = ScalarField(value=lambda m: np.sin(2.0 * m[..., 0]) * np.cos(m[..., 1]) + m[..., 2] ** 2)
        back = backward_solve(spec, f0, 0.1, geo)
        assert np.array_equal(back.values, reference_evolve(spec, f0.evaluate(geo.nodes()), 0.1, geo))

    @pytest.mark.parametrize("xi", [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]])
    def test_forward_stages_independent_of_chunking(self, monkeypatch, xi):
        # A^T's sweep gives each node the same operations however the span
        # is cut; the box cuts this surrogate, which forward_solve refuses,
        # so the stages evolve it directly
        spec, geo = rigid_spec(xi=xi), self.GEO
        delta = kolmogorov._delta_surrogate(geo, np.array([0.6, 0.0, 0.3]))
        solves = []
        for chunk in (100, 1 << 20):
            monkeypatch.setattr(kolmogorov, "_CHUNK", chunk)
            op = _GridOperator(spec, geo).transposed()
            assert (len(op.chunks) > 1) == (chunk == 100)
            solves.append(kolmogorov._evolve(op, delta, 0.05, geo, None).values)
        assert np.array_equal(*solves)

    @pytest.mark.parametrize("chunk", [100, 1 << 20])
    def test_apply_bit_identical_to_whole_array_apply(self, monkeypatch, chunk):
        monkeypatch.setattr(kolmogorov, "_CHUNK", chunk)
        spec = rigid_spec(xi=[[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]])
        rho = np.random.default_rng(8).normal(size=self.GEO.shape)
        ref = ReferenceOperator(spec, self.GEO).apply(rho, np.empty_like(rho))
        assert np.array_equal(grid_apply(_GridOperator(spec, self.GEO), rho), ref)


class TestWholeArrayFields:
    def test_pointwise_field_rejected_by_backward_solve(self):
        pointwise = ScalarField(value=lambda m: float(m[2]), name="pointwise m3")
        geo = GridGeometry.cube(-1.0, 1.0, 8)
        with pytest.raises(ValueError, match="'pointwise m3'"):
            backward_solve(rigid_spec(), pointwise, T=0.05, geometry=geo)

    def test_pointwise_field_rejected_by_mc_expectation(self):
        sys = rigid_spec().system
        pointwise = ScalarField(value=lambda m: float(m[2]), name="pointwise m3")
        with pytest.raises(ValueError, match="'pointwise m3'"):
            mc_expectation(sys, pointwise, np.array([0.8, 0.3, 0.5]), 0.1, 4, 8, 0)


def dense(apply, shape):
    """The matrix of a linear map on grid arrays of ``shape``, column n its
    value on the n-th unit array (C order)."""
    cols = []
    for n in range(int(np.prod(shape))):
        unit = np.zeros(shape)
        unit[np.unravel_index(n, shape)] = 1.0
        cols.append(apply(unit).reshape(-1))
    return np.stack(cols, axis=1)


class TestForwardSolve:
    @pytest.mark.parametrize("xi", [[[1.0, 0.0, 0.0]], XI_PAIR, np.eye(3)],
                             ids=["1-channel", "2-channel", "3-channel"])
    def test_operator_is_the_transpose_of_the_backward_operator(self, xi):
        # probed by unit arrays on every node, the forward operator equals
        # the dense transpose of the whole-array backward stencil, ghost
        # extrapolation included, to a few roundings of the largest entry
        spec, geo = rigid_spec(xi=xi), TestStageKernel.GEO
        ref = ReferenceOperator(spec, geo)
        A = dense(lambda u: ref.apply(u, np.empty_like(u)), geo.shape)
        op = _GridOperator(spec, geo).transposed()
        assert len(op._terms) == (11 if len(xi) == 1 else 19)
        At = dense(lambda u: grid_apply(op, u), geo.shape)
        bound = 16 * np.finfo(float).eps * np.max(np.abs(A))
        assert np.max(np.abs(At - A.T)) <= bound
        # A kills constants, so A^T conserves the sum
        assert np.max(np.abs(A.sum(axis=1))) <= bound

    def test_conserves_the_surrogates_mass(self):
        spec = rigid_spec(xi=XI_PAIR)
        geo = GridGeometry.cube(-1.4, 1.4, 32)
        x0 = np.array([0.8, 0.45, 0.3])
        fw = forward_solve(spec, x0, 0.2, geo)
        mass0 = float(np.sum(kolmogorov._delta_surrogate(geo, x0)) * np.prod(geo.dx))
        assert mass0 == pytest.approx(0.999846, abs=1e-6)
        assert abs(float(np.sum(fw.values) * np.prod(geo.dx)) - mass0) <= 1e-12

    @pytest.mark.parametrize("xi", [[[1.0, 0.0, 0.0]], XI_PAIR])
    def test_dual_to_backward_solve(self, xi):
        # <rho_T, f> = <rho_0, u_T>: the same RKC2 polynomial in A and A^T
        spec = rigid_spec(xi=xi)
        geo = GridGeometry.cube(-1.4, 1.4, 32)
        x0, f = np.array([0.8, 0.45, 0.3]), ScalarField.coordinate(2, 3)
        fw = forward_solve(spec, x0, 0.2, geo)
        u = backward_solve(spec, f, 0.2, geo)
        paired = np.sum(kolmogorov._delta_surrogate(geo, x0) * u.values)
        assert abs(np.sum(fw.values * f.evaluate(geo.nodes())) - paired) <= 1e-12 * abs(paired)

    def test_delta_surrogate_mass(self):
        spec = rigid_spec()
        x0 = np.array([0.6, 0.0, 0.3])
        masses = []
        for nodes in (24, 32):
            geo = GridGeometry.cube(-1.2, 1.2, nodes)
            fw = forward_solve(spec, x0, T=0.05, geometry=geo)
            masses.append(float(np.sum(fw.values) * np.prod(geo.dx)))
        # delta surrogate plus short evolution: mass near 1, improving with
        # refinement (reported at both resolutions, no rate asserted)
        assert abs(masses[0] - 1.0) <= 0.05
        assert abs(masses[1] - 1.0) <= abs(masses[0] - 1.0)

    @pytest.mark.parametrize("x0, nodes, mass", [
        ([0.6, 0.0, 0.3], 32, 0.99998), ([0.6, 0.0, 0.3], 24, 0.9992),
        ([0.6, 0.0, 0.3], 16, 0.983), ([1.2, 0.0, 0.0], 16, 0.600),
        ([1.2, 1.2, 0.0], 16, 0.360), ([1.2, 1.2, 1.2], 16, 0.216),
    ], ids=["inside_32", "inside_24", "inside_16", "face_16", "edge_16", "corner_16"])
    def test_delta_cut_by_box_rejected(self, monkeypatch, x0, nodes, mass):
        # the Gaussian's discrete mass at t = 0 on [-1.2, 1.2]^3 must reach
        # 1 - 1e-3; a refused datum is never evolved
        evolved = []
        monkeypatch.setattr(kolmogorov, "_evolve", lambda *args: evolved.append(args))
        geo = GridGeometry.cube(-1.2, 1.2, nodes)
        if mass >= 1.0 - 1e-3:
            forward_solve(rigid_spec(), x0, 0.05, geo)
            assert len(evolved) == 1
            return
        box = re.escape(str(geo.bounds.tolist()))
        with pytest.raises(ValueError, match=rf"box {box} cuts the delta surrogate at x0 "
                                             r".*: its mass is [\d.]+, below 1 - 1e-3") as err:
            forward_solve(rigid_spec(), x0, 0.05, geo)
        found = re.search(r"mass is ([\d.]+)", str(err.value)).group(1)
        assert float(found) == pytest.approx(mass, abs=5e-4)
        assert not evolved

    @pytest.mark.parametrize("x0", [[5.0, 0.0, 0.0], [0.0, -1.3, 0.2], [0.0, 0.0, np.nan]])
    def test_delta_outside_box_rejected(self, x0):
        geo = GridGeometry.cube(-1.2, 1.2, 16)
        with pytest.raises(ValueError, match=r"x0 .* lies outside the grid box \[\[-1.2, 1.2\]"):
            forward_solve(rigid_spec(), x0, 0.05, geo)


class TestMcExpectation:
    def test_deterministic_reduces_to_rk4(self):
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0))
        f = ScalarField.coordinate(0, 3)
        mean, stderr = mc_expectation(sys, f, np.array([0.8, 0.3, 0.5]),
                                      T=1.0, M=128, ensemble=10, seed=0)
        ref = integrate(sys, "rk4", time_grid(1.0, 128), np.array([0.8, 0.3, 0.5]))
        assert mean == pytest.approx(float(ref.final()[0]), abs=0.0)
        assert stderr == 0.0

    def test_abelian_martingale(self):
        chart = builtin_chart("rn_translation")
        L = QuadraticLagrangian(alg=builtin("r3"), kinetic=np.eye(3), chart=chart)
        noise = NoiseSpec.make([[1.0, 0.0, 0.0]], seed=0)
        zero_u = lambda t, x: np.zeros(x.shape[:-1] + (3,))
        sys = phase_space_system(L, noise, u_of=zero_u)
        f = ScalarField.coordinate(0, 6, name="q1")
        q01 = 0.2
        x0 = np.concatenate([[q01, 0.0, 0.0], np.zeros(3)])
        mean, stderr = mc_expectation(sys, f, x0, T=1.0, M=64, ensemble=2000, seed=13)
        assert abs(mean - q01) <= 3.0 * stderr

    @pytest.mark.parametrize("stderr", [np.inf, np.nan])
    def test_gate_refuses_a_non_finite_stderr(self, stderr):
        # an overflowing ensemble spread would give an infinite gate, which any value meets
        geo = GridGeometry.cube(-1.0, 1.0, 8)
        with pytest.raises(ArithmeticError, match=f"standard error is {stderr}"):
            kolmogorov.pde_mc_gate(stderr, geo)
        assert kolmogorov.pde_mc_gate(0.1, geo) == 3.0 * 0.1 + 2.0 * float(geo.dx[0]) ** 2

    def test_ensemble_must_be_positive(self):
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0))
        with pytest.raises(ValueError, match="positive"):
            mc_expectation(sys, ScalarField.coordinate(0, 3), np.ones(3), 1.0, 8, 0, 0)

    @pytest.mark.parametrize("channels", [0, 1])
    @pytest.mark.parametrize("ensemble", [-3, 2.5, 8.0, True, "8", None])
    def test_ensemble_must_be_an_integer(self, channels, ensemble):
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(np.eye(3)[:channels], seed=0))
        f = ScalarField.coordinate(0, 3)
        with pytest.raises(ValueError, match=f"ensemble must be a positive integer, got {ensemble!r}"):
            mc_expectation(sys, f, np.ones(3), 1.0, 8, ensemble, 0)
        with pytest.raises(ValueError, match="ensemble must be a positive integer"):
            ensemble_finals(sys, np.ones(3), 1.0, 8, ensemble, 0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_seed_must_be_an_integer(self, seed):
        # seed 1.5 and True would draw seed 1's paths
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0))
        with pytest.raises(ValueError, match=rf"seed must be an integer .*got {seed!r}"):
            ensemble_finals(sys, np.ones(3), 0.5, 8, 4, seed)
        with pytest.raises(ValueError, match=rf"seed must be an integer .*got {seed!r}"):
            mc_expectation(sys, ScalarField.coordinate(0, 3), np.ones(3), 0.5, 8, 4, seed)

    @pytest.mark.parametrize("channels", [0, 1])
    @pytest.mark.parametrize("M", [4.0, 2.5, True])
    def test_step_count_must_be_an_integer(self, channels, M):
        # 4.0 used to fail inside numpy with "unsupported operand type(s) for &"
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(np.eye(3)[:channels], seed=0))
        # without noise one rk4 path steps a time grid, which takes any integer
        want = re.escape("M: the step count must be " + (
            "a power of two" if channels else "an integer of at least 1") + f", got {M!r}")
        with pytest.raises(ValueError, match=want):
            mc_expectation(sys, ScalarField.coordinate(0, 3), np.ones(3), 1.0, M, 4, 0)
        if channels:
            with pytest.raises(ValueError, match=want):
                ensemble_finals(sys, np.ones(3), 1.0, M, 4, 0)

    def test_numpy_integer_ensemble(self):
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0))
        x0 = np.array([0.8, 0.3, 0.5])
        assert np.array_equal(ensemble_finals(sys, x0, 0.5, 8, np.int64(12), 3),
                              ensemble_finals(sys, x0, 0.5, 8, 12, 3))

    @pytest.mark.parametrize("channels", [0, 1])
    @pytest.mark.parametrize("x0", [np.ones(2), np.ones((4, 3)), 1.0])
    def test_x0_must_be_one_state(self, channels, x0):
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(np.eye(3)[:channels], seed=0))
        shape = re.escape(f"x0 has shape {np.shape(x0)}, expected (3,)")
        with pytest.raises(ValueError, match=shape):
            mc_expectation(sys, ScalarField.coordinate(0, 3), x0, 1.0, 8, 16, 0)
        with pytest.raises(ValueError, match=shape):
            ensemble_finals(sys, x0, 1.0, 8, 16, 0)

    @pytest.mark.parametrize("channels", [0, 1])
    @pytest.mark.parametrize("x0", [[np.nan, 0.3, 0.5], [0.8, -np.inf, 0.5]])
    def test_x0_must_be_finite(self, channels, x0):
        # a non-finite start is refused, not reported as a divergence at step 1
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(np.eye(3)[:channels], seed=0))
        with pytest.raises(ValueError, match=r"x0 \[.*\] is not finite"):
            mc_expectation(sys, ScalarField.coordinate(0, 3), x0, 1.0, 8, 16, 0)
        with pytest.raises(ValueError, match=r"x0 \[.*\] is not finite"):
            ensemble_finals(sys, x0, 1.0, 8, 16, 0)

    @pytest.mark.parametrize("budget", [None, 1, 6, 60, 96, 378, 384, 390])
    def test_block_size_does_not_change_result(self, monkeypatch, budget):
        # a path takes 6 values: budgets of 1 and 6 make 1-path blocks, 60
        # makes 10-path blocks (6 of them and a 4-path remainder), 96 four
        # 16-path blocks, 378 one 63-path block and one path, and 384 and
        # 390 one block of the whole ensemble
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0)
        sys = lie_poisson_system(SO3, K_RIGID, noise)
        f = ScalarField.coordinate(2, 3)
        x0 = np.array([0.8, 0.3, 0.5])
        whole = mc_expectation(sys, f, x0, T=0.2, M=32, ensemble=64, seed=5)
        _run_blocks(monkeypatch, budget)
        assert mc_expectation(sys, f, x0, T=0.2, M=32, ensemble=64, seed=5) == whole

    @pytest.mark.parametrize("budget", [None, 1, 36, 63, 576])
    @pytest.mark.parametrize("j", [3, 10, 40])
    def test_path_independent_of_batch(self, monkeypatch, j, budget):
        # path j ends bit for bit alike alone, in a batch of 7 and in the
        # full ensemble, whatever the block size is; a path takes 9 values,
        # so a budget of 1 makes 1-path blocks, 36 makes 4-path blocks
        # (path 3 ends one, path 40 starts one), 63 makes 7-path blocks
        # (9 of them and one path) and 576 one block of all 64 paths
        _run_blocks(monkeypatch, budget)
        xi = np.array([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]])
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec(channels=2, xi=xi, seed=0))
        x0 = np.array([0.8, 0.3, 0.5])
        seed, T, M = 17, 0.5, 64
        grid = BrownianGrid(T=T, steps=M, dW=_increment_blocks(seed, 2, T, M)(j + 1)[:, j], seed=seed)
        alone = integrate(sys, "heun_strat", grid, x0).final()
        dW = _increment_blocks(seed, 2, T, M)(64)[:, j - 3:j + 4]
        batch = _drive(sys, "heun_strat", np.broadcast_to(x0, (7, 3)), T / M, dW)
        full = ensemble_finals(sys, x0, T, M, ensemble=64, seed=seed)
        assert np.array_equal(batch[3], alone)
        assert np.array_equal(full[j], alone)

    @pytest.mark.parametrize("budget", [None, 1, 10, 100, 297, 450, 900])
    def test_ensemble_holds_one_block_at_a_time(self, monkeypatch, budget):
        # every table drawn holds at most one block of paths, the blocks
        # cover the ensemble in order, and no block is drawn before the
        # one before it is stepped; a path takes 9 values, so budgets of
        # 1 and 10 make 1-path blocks, 297 three 33-path blocks and one
        # path, 450 two 50-path blocks and 900 one block of all 100 paths.
        # The drawer refills one table, so each block is recorded as a copy
        _run_blocks(monkeypatch, budget)
        xi = np.array([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]])
        sys = lie_poisson_system(SO3, K_RIGID, NoiseSpec(channels=2, xi=xi, seed=0))
        x0, seed, T, M, paths = np.array([0.8, 0.3, 0.5]), 4, 0.5, 16, 100
        block = max(1, kolmogorov._BLOCK_VALUES // ((1 + 2) * 3))
        tables, drawn, firsts, done, held, idents = [], [], [], [0], [0], set()
        blocks, drive = kolmogorov._increment_blocks, kolmogorov._drive

        def recording_blocks(*args):
            draw = blocks(*args)

            def recording_draw(n):
                held[0] = max(held[0], len(tables) - done[0] + 1)
                drawn.append(draw(n))
                tables.append(drawn[-1].copy())
                return drawn[-1]

            return recording_draw

        def counting_drive(*args, first_path, run):
            firsts.append(first_path)
            idents.add(threading.get_ident())
            try:
                return drive(*args, first_path=first_path, run=run)
            finally:
                done[0] += 1

        monkeypatch.setattr(kolmogorov, "_increment_blocks", recording_blocks)
        monkeypatch.setattr(kolmogorov, "_drive", counting_drive)
        finals = ensemble_finals(sys, x0, T, M, ensemble=paths, seed=seed)
        assert [t.shape[1] for t in tables] == [min(block, paths - a) for a in range(0, paths, block)]
        assert firsts == list(range(0, paths, block))
        assert held[0] == 1
        assert all(np.shares_memory(t, drawn[0]) for t in drawn)
        # every block is stepped in the calling thread
        assert idents == {threading.get_ident()}
        table = _increment_blocks(seed, 2, T, M)(paths)
        assert np.array_equal(np.concatenate(tables, axis=1), table)
        assert np.array_equal(finals, _drive(sys, "heun_strat", np.broadcast_to(x0, (paths, 3)),
                                             T / M, table))

    @pytest.mark.parametrize("budget", [None, 36])
    def test_run_after_another_system_repeats_bit_for_bit(self, monkeypatch, budget):
        # each call sets up its own run: a 1-channel ensemble between two
        # calls on a 2-channel system leaves nothing the second call reads;
        # a budget of 36 makes 4-path blocks and a 1-path last block
        _run_blocks(monkeypatch, budget)
        xi = np.array([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]])
        pair = lie_poisson_system(SO3, K_RIGID, NoiseSpec(channels=2, xi=xi, seed=0))
        single = lie_poisson_system(SO3, K_RIGID, NoiseSpec(channels=1, xi=xi[:1], seed=0))
        x0 = np.array([0.8, 0.3, 0.5])
        first = ensemble_finals(pair, x0, 0.5, 16, ensemble=13, seed=6)
        ensemble_finals(single, x0 + 0.1, 0.5, 16, ensemble=29, seed=7)
        again = ensemble_finals(pair, x0, 0.5, 16, ensemble=13, seed=6)
        assert first.tobytes() == again.tobytes()

    def test_neighbouring_seeds_share_no_path(self):
        # dX = dW, so each final state is the sum of its path's increments
        eye = np.eye(2)
        sys = SdeSystem(2, 2, drift=lambda t, x: np.zeros_like(x),
                        diffusion=lambda t, x: np.broadcast_to(eye, x.shape[:-1] + eye.shape))
        a = ensemble_finals(sys, np.zeros(2), 1.0, 16, ensemble=32, seed=8)
        b = ensemble_finals(sys, np.zeros(2), 1.0, 16, ensemble=32, seed=9)
        assert np.intersect1d(a, b).size == 0

    @pytest.mark.parametrize("budget", [None, 1, 2, 10, 26, 28])
    def test_divergent_path_reported(self, monkeypatch, budget):
        # dx = x^3 dt + 0.8 dW from 0 on seed 2 blows up on path 0 at step 58
        # and on path 13 at step 38, and the earlier one (path 13) must be
        # reported wherever the blocks split; a path takes 2 values, so
        # budgets of 1 and 2 make 1-path blocks, 10 makes 5-path blocks
        # (path 13 in block 2), 26 makes 13-path blocks (path 13 starts
        # block 1), and 28 makes 14-path blocks, which hold both in block 0
        _run_blocks(monkeypatch, budget)
        sys = SdeSystem(1, 1, drift=lambda t, x: x ** 3,
                        diffusion=lambda t, x: np.full_like(x, 0.8)[..., None, :])
        x0, seed, T, M, paths = np.array([0.0]), 2, 1.0, 64, 16
        dW = _increment_blocks(seed, 1, T, M)(paths)
        fates = []
        for j in range(paths):
            grid = BrownianGrid(T=T, steps=M, dW=dW[:, j], seed=seed)
            try:
                integrate(sys, "heun_strat", grid, x0)
            except IntegrationDiverged as err:
                fates.append((err.step, j, err.last_state))
        step, j, last = min(fates, key=lambda fate: fate[:2])
        assert [fate[:2] for fate in fates] == [(58, 0), (38, 13)]
        with pytest.raises(IntegrationDiverged, match=f"path {j} diverged at step {step}") as err:
            ensemble_finals(sys, x0, T, M, ensemble=paths, seed=seed)
        assert (err.value.step, err.value.path) == (step, j)
        assert np.array_equal(err.value.last_state, last)


def _run_blocks(monkeypatch, budget):
    """Set the ensemble block budget (the default for None)."""
    if budget is not None:
        monkeypatch.setattr(kolmogorov, "_BLOCK_VALUES", budget)


class TestDensityIO:
    def test_roundtrip(self, tmp_path):
        geo = GridGeometry.cube(-1.0, 1.0, 8)
        values = np.arange(512, dtype=float).reshape(8, 8, 8)
        grid = DensityGrid(geometry=geo, values=values, time=0.25)
        path = tmp_path / "rho.bin"
        write_density(path, grid)
        back = read_density(path)
        assert back.time == 0.25
        assert back.geometry.shape == (8, 8, 8)
        assert np.array_equal(back.values, values)

    def test_slice_csv(self, tmp_path):
        geo = GridGeometry.cube(0.0, 1.0, 8)
        values = np.zeros((8, 8, 8))
        values[:, :, 3] = 7.0
        grid = DensityGrid(geometry=geo, values=values)
        path = tmp_path / "slice.csv"
        write_density_slice_csv(path, grid, axis=2, index=3)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "m1,m2,value"
        assert len(rows) == 65
        assert all(r.endswith("7.0") for r in rows[1:])

    def test_slice_bounds_checked(self):
        geo = GridGeometry.cube(0.0, 1.0, 8)
        grid = DensityGrid(geometry=geo, values=np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="plane index"):
            write_density_slice_csv("/tmp/x.csv", grid, axis=0, index=99)


class TestInterpolate:
    def test_exact_on_affine(self):
        geo = GridGeometry.cube(-1.0, 1.0, 9)
        nodes = geo.nodes()
        w = np.array([0.3, -0.7, 0.2])
        grid = DensityGrid(geometry=geo, values=nodes @ w + 0.1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-0.99, 0.99, size=3)
            assert interpolate(grid, x) == pytest.approx(float(x @ w + 0.1), abs=1e-12)

    @pytest.mark.parametrize("x", [[2.0, 0.0, 0.0], [1.0 + 1e-12, 0.0, 0.0],
                                   [np.nan, 0.0, 0.0], [0.0, 0.0, np.inf]])
    def test_outside_box_rejected(self, x):
        # the closed box of GridGeometry.contains, the rule forward_solve and
        # the kolmogorov command apply; a NaN point lies in no box
        geo = GridGeometry.cube(-1.0, 1.0, 9)
        grid = DensityGrid(geometry=geo, values=np.zeros((9, 9, 9)))
        with pytest.raises(ValueError, match="outside"):
            interpolate(grid, np.array(x))

    def test_corners_inside(self):
        geo = GridGeometry.cube(-1.0, 1.0, 9)
        grid = DensityGrid(geometry=geo, values=geo.nodes()[..., 0])
        assert interpolate(grid, [1.0, -1.0, 1.0]) == 1.0
        assert interpolate(grid, [-1.0, 1.0, -1.0]) == -1.0

    def test_equals_nested_corner_loops(self):
        # the corners in the same order, each weight multiplied in the same order
        def nested(grid, x):
            g = grid.geometry
            rel = (np.asarray(x, dtype=float) - g.bounds[:, 0]) / g.dx
            idx = np.clip(np.floor(rel).astype(int), 0, np.array(g.shape) - 2)
            frac = np.clip(rel - idx, 0.0, 1.0)
            out = 0.0
            for di in (0, 1):
                for dj in (0, 1):
                    for dk in (0, 1):
                        w = ((frac[0] if di else 1.0 - frac[0])
                             * (frac[1] if dj else 1.0 - frac[1])
                             * (frac[2] if dk else 1.0 - frac[2]))
                        out += w * grid.values[idx[0] + di, idx[1] + dj, idx[2] + dk]
            return float(out)

        geo = GridGeometry(bounds=np.array([[-1.4, 1.4], [-0.3, 2.0], [-2.0, -1.0]]),
                           shape=(9, 6, 13))
        rng = np.random.default_rng(5)
        grid = DensityGrid(geometry=geo, values=rng.normal(size=geo.shape))
        points = [geo.bounds[np.arange(3), list(c)] for c in np.ndindex(2, 2, 2)]
        points += list(rng.uniform(geo.bounds[:, 0], geo.bounds[:, 1], size=(500, 3)))
        points += list(geo.nodes().reshape(-1, 3)[::37])
        for x in points:
            assert interpolate(grid, x) == nested(grid, x), x

    def test_point_must_be_one_state(self):
        geo = GridGeometry.cube(-1.0, 1.0, 9)
        grid = DensityGrid(geometry=geo, values=np.zeros((9, 9, 9)))
        with pytest.raises(ValueError, match=re.escape("point has shape (2, 3), expected (3,)")):
            interpolate(grid, np.zeros((2, 3)))


class TestGridGeometry:
    @pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (0.5, 0.5), (np.nan, 1.0), (-1.0, np.nan),
                                        (-np.inf, 1.0), (-1.0, np.inf)])
    def test_bounds_must_be_finite_increasing_pairs(self, lo, hi):
        with pytest.raises(ValueError, match="finite increasing pairs"):
            GridGeometry.cube(lo, hi, 8)

    @pytest.mark.parametrize("shape", [(48.9, 48, 48), (8, 8.0, 8), (8, 8, np.float64(8)),
                                       (True, 8, 8), (8, "8", 8), (8, 8, 3)])
    def test_shape_must_be_integers_of_at_least_4(self, shape):
        # a float node count must not be truncated (48.9 to 48 nodes)
        with pytest.raises(ValueError, match="shape: need integer node counts of at least 4"):
            GridGeometry(bounds=np.array([[-1.0, 1.0]] * 3), shape=shape)

    def test_cube_refuses_a_fractional_node_count(self):
        with pytest.raises(ValueError, match=re.escape("shape: need integer node counts "
                                                       "of at least 4, got 4.99")):
            GridGeometry.cube(-1.0, 1.0, 4.99)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 8, 8)])
    def test_shape_needs_three_axes(self, shape):
        with pytest.raises(ValueError, match="shape: need 3 node counts"):
            GridGeometry(bounds=np.array([[-1.0, 1.0]] * 3), shape=shape)

    def test_numpy_integer_shape_accepted(self):
        geo = GridGeometry(bounds=np.array([[-1.0, 1.0]] * 3), shape=np.array([4, 5, 6]))
        assert geo.shape == (4, 5, 6) and all(type(n) is int for n in geo.shape)

    def test_contains_is_the_closed_box(self):
        geo = GridGeometry(bounds=np.array([[-1.0, 1.0], [0.0, 2.0], [-3.0, -2.0]]), shape=(4, 4, 4))
        assert geo.contains([1.0, 0.0, -2.0]) and geo.contains([-1.0, 2.0, -3.0])
        assert not geo.contains([0.0, 0.0, -1.9]) and not geo.contains([0.0, np.nan, -2.5])
        with pytest.raises(ValueError, match=re.escape("point has shape (6,), expected (3,)")):
            geo.contains(np.zeros(6))
