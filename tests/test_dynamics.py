import dataclasses
from pathlib import Path

import numpy as np
import pytest

from coadjoint import algebra, dynamics, integrators
from coadjoint.actions import ActionChart, PhaseState, builtin_chart, momentum_map
from coadjoint.algebra import (_TRIPLE_MIN_ROWS, LieAlgebraSpec, _ad_star, _ad_star_kernel,
                               ad_star, builtin)
from coadjoint.diagnostics import observable_series, strong_error
from coadjoint.dynamics import (
    QuadraticLagrangian,
    ReducedHamiltonian,
    casimir,
    hamel_system,
    lie_poisson_system,
    linear_potential,
    momentum_pairing_field,
    phase_space_system,
    quadratic_potential,
    reconstruct_momentum,
    zero_potential,
)
from coadjoint.fields import (
    CanonicalBracket,
    HamelBracket,
    LiePoissonBracket,
    ScalarField,
    double_bracket,
    fd_jacobian,
)
from coadjoint.integrators import (_drive, _run, _stack_buffer, _stacked, euler_ito_step,
                                   heun_stratonovich_step, integrate)
from coadjoint.kolmogorov import ensemble_finals
from coadjoint.noise import BrownianGrid, NoiseSpec, _increment_blocks, sample_grid, time_grid

SO3 = builtin("so3")
K_RIGID = np.diag([1.0, 0.5, 1.0 / 3.0])
G_RIGID = np.diag([1.0, 2.0, 3.0])
XI_PAIR = [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]
# a rigid body off its principal axes
K_DENSE = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 1.0 / 3.0]])


def rotation_chart():
    return builtin_chart("so3_on_r3")


def no_noise():
    return NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0)


def phase_ito(chart, noise, x):
    """The phase-space builder's Ito correction; it does not depend on G."""
    L = QuadraticLagrangian(alg=chart.alg, kinetic=np.eye(chart.alg.dim), chart=chart)
    return phase_space_system(L, noise).ito_correction(0.0, x)


class TestLegendre:
    # m = G u, and h = (1/2) m . K m + V(q) is the Hamiltonian from_lagrangian builds
    def test_identity_metric(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=np.eye(3))
        u = np.array([0.2, -0.4, 1.0])
        m = L.kinetic @ u
        assert np.allclose(m, u)
        assert ReducedHamiltonian.from_lagrangian(L).value(m) == pytest.approx(0.5 * u @ u)

    def test_rigid_body_hand_values(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID)
        m = L.kinetic @ np.array([1.0, 1.0, 1.0])
        assert np.allclose(m, [1.0, 2.0, 3.0])
        assert ReducedHamiltonian.from_lagrangian(L).value(m) == pytest.approx(3.0)

    def test_roundtrip_exact(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID)
        h = ReducedHamiltonian.from_lagrangian(L)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.normal(size=3)
            assert np.max(np.abs(h.velocity(L.kinetic @ u) - u)) <= 1e-12

    def test_potential_enters_value(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=np.eye(3),
                                potential=linear_potential([0.0, 0.0, 2.0]))
        h = ReducedHamiltonian.from_lagrangian(L)
        assert h.value(np.zeros(3), q=np.array([0.0, 0.0, 1.5])) == pytest.approx(3.0)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticLagrangian(alg=SO3, kinetic=-np.eye(3))
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticLagrangian(alg=SO3, kinetic=np.array(
                [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("what", ["kinetic matrix G", "kinetic inverse K", "lie_poisson K"])
    def test_rejects_non_finite_matrix(self, what, bad):
        # refused by name before the symmetry check can warn (tier-1 makes a
        # RuntimeWarning an error) or the eigenvalue solve can fail
        mat = np.diag([1.0, bad, 1.0 / 3.0])
        build = {
            "kinetic matrix G": lambda: QuadraticLagrangian(alg=SO3, kinetic=mat),
            "kinetic inverse K": lambda: ReducedHamiltonian(alg=SO3, kinetic_inverse=mat),
            "lie_poisson K": lambda: lie_poisson_system(SO3, mat, no_noise()),
        }[what]
        with pytest.raises(ValueError, match=rf"{what.split()[-1]} must be finite, got .*{bad}"):
            build()

    @pytest.mark.parametrize("what", ["kinetic matrix G", "kinetic inverse K", "lie_poisson K"])
    def test_rejects_matrix_of_wrong_size(self, what):
        # refused when built, not at the first step with a broadcast error
        build = {
            "kinetic matrix G": lambda: QuadraticLagrangian(alg=SO3, kinetic=np.eye(2)),
            "kinetic inverse K": lambda: ReducedHamiltonian(alg=SO3, kinetic_inverse=np.eye(2)),
            "lie_poisson K": lambda: lie_poisson_system(SO3, np.eye(2), no_noise()),
        }[what]
        with pytest.raises(ValueError, match=rf"{what.split()[-1]} is 2x2, algebra dimension is 3"):
            build()

    @pytest.mark.parametrize("potential", [zero_potential(), linear_potential([0.0, 0.0, 2.0]),
                                           quadratic_potential(2.0)])
    def test_potential_is_a_scalar_field(self, potential):
        # V(q) is a ScalarField like h and the observables: a float on one
        # state, shape-checked values and gradients on a batch
        q = np.random.default_rng(3).normal(size=(5, 3))
        assert isinstance(potential, ScalarField)
        assert isinstance(potential(q[0]), float)
        assert potential.evaluate(q).shape == (5,)
        assert potential.gradient(q).shape == (5, 3)

    def test_quadratic_potential_values(self):
        V = quadratic_potential(2.0)
        q = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 0.5]])
        assert V(q[0]) == 9.0
        assert np.array_equal(V.evaluate(q), [9.0, 0.25])
        assert np.array_equal(V.gradient(q), 2.0 * q)


class TestPhaseSpaceSystem:
    def test_translation_chart_linear_path(self):
        chart = builtin_chart("rn_translation")
        alg = builtin("r3")
        L = QuadraticLagrangian(alg=alg, kinetic=np.eye(3), chart=chart)
        u_const = np.array([0.3, 0.0, -0.1])
        noise = NoiseSpec.make([[1.0, 0.0, 0.0]], seed=3)
        sys = phase_space_system(L, noise, u_of=lambda t, x: u_const)
        g = sample_grid(noise, 1.0, 256)
        x0 = np.concatenate([np.zeros(3), np.array([0.1, 0.2, 0.3])])
        traj = integrate(sys, "heun_strat", g, x0)
        w = np.concatenate([[0.0], np.cumsum(g.dW[:, 0])])
        expected_q1 = u_const[0] * traj.times + w
        assert np.allclose(traj.states[:, 0], expected_q1, atol=1e-12)
        assert np.allclose(traj.states[:, 3:], x0[3:], atol=0.0)
        assert np.allclose(sys.ito_correction(0.0, x0), 0.0)

    def test_free_motion_reproduces_euler_equations(self):
        chart = rotation_chart()
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID, chart=chart)
        sys = phase_space_system(L, no_noise())
        grid = time_grid(1.0, 10_000)
        q0, p0 = np.array([1.0, 0.2, -0.3]), np.array([0.1, 0.7, 0.4])
        traj = integrate(sys, "rk4", grid, np.concatenate([q0, p0]))
        mtraj = reconstruct_momentum(traj, chart)
        lp = lie_poisson_system(SO3, K_RIGID, no_noise())
        m0 = momentum_map(chart, PhaseState(q0, p0))
        ref = integrate(lp, "rk4", grid, m0)
        assert strong_error(mtraj, ref) <= 1e-6

    def test_u_policy_dimension_checked(self):
        chart = rotation_chart()
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID, chart=chart)
        sys = phase_space_system(L, no_noise(), u_of=lambda t, x: np.ones(4))
        with pytest.raises(ValueError, match="u policy"):
            sys.drift(0.0, np.ones(6))

    def test_chart_required(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID)
        with pytest.raises(ValueError, match="chart"):
            phase_space_system(L, no_noise())

    def test_chart_algebra_must_equal_lagrangian_algebra(self):
        # se(2) has so(3)'s dimension, so only algebra equality tells them apart
        L = QuadraticLagrangian(alg=builtin("se2"), kinetic=G_RIGID, chart=rotation_chart())
        with pytest.raises(ValueError, match="chart 'so3_on_r3' acts with algebra 'so3', "
                                             "the Lagrangian is on 'se2'"):
            phase_space_system(L, no_noise())


class TestItoCorrectionPhase:
    def test_constant_coefficients_vanish(self):
        chart = builtin_chart("rn_translation")
        noise = NoiseSpec.make([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]], seed=0)
        x = np.concatenate([np.array([0.4, 0.5, 0.6]), np.array([1.0, -1.0, 2.0])])
        assert np.allclose(phase_ito(chart, noise, x), 0.0)

    def test_rotation_chart_symbolic_oracle(self):
        # independent symbolic expansion of the epsilon contractions
        sympy = pytest.importorskip("sympy")
        chart = rotation_chart()
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0)

        q = sympy.symbols("q1 q2 q3")
        p = sympy.symbols("p1 p2 p3")
        eps = sympy.LeviCivita
        # B^i = A_3^i = eps(3, i, j) q_j ; C_i = -p_l dB^l/dq_i
        B = [sum(eps(3, i + 1, j + 1) * q[j] for j in range(3)) for i in range(3)]
        C = [
            -sum(p[l] * sympy.diff(B[l], q[i]) for l in range(3))
            for i in range(3)
        ]
        state = sympy.Matrix(list(q) + list(p))
        fields = sympy.Matrix(B + C)
        jac = fields.jacobian(state)
        corr = sympy.Rational(1, 2) * jac @ fields
        point = {q[0]: 1.0, q[1]: 0.0, q[2]: 0.0,
                 p[0]: 0.3, p[1]: -0.2, p[2]: 0.8}
        expected = np.array([float(c.subs(point)) for c in corr])

        x = np.array([1.0, 0.0, 0.0, 0.3, -0.2, 0.8])
        got = phase_ito(chart, noise, x)
        assert np.allclose(got, expected, atol=1e-12)
        # closed form at this configuration: -(q1, q2, 0, p1, p2, 0) / 2
        assert np.allclose(got, [-0.5, 0.0, 0.0, -0.15, 0.1, 0.0])

    def test_matches_nested_canonical_brackets(self):
        chart = rotation_chart()
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.4, -0.1, 0.2]], seed=0)
        cb = CanonicalBracket(3)
        gks = [momentum_pairing_field(chart, noise.xi[k]) for k in range(2)]
        xs = np.random.default_rng(1).normal(size=(20, 6))
        oracle = np.stack([
            sum(0.5 * double_bracket(cb, g, ScalarField.coordinate(i, 6), xs) for g in gks)
            for i in range(6)
        ], axis=-1)
        assert np.max(np.abs(phase_ito(chart, noise, xs) - oracle)) <= 1e-9

    @pytest.mark.parametrize("shape", [(5,), (7,), (4, 8)])
    @pytest.mark.parametrize("fn", ["momentum_map", "pairing_value"])
    def test_packed_state_width_refused(self, fn, shape):
        # a packed state must hold (q, p) of the chart, 2n = 6 wide
        chart = rotation_chart()
        call = {
            "momentum_map": lambda x: momentum_map(chart, x),
            "pairing_value": lambda x: momentum_pairing_field(chart, [0.0, 0.0, 1.0]).value(x),
        }[fn]
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*'so3_on_r3'.* 2n = 6"):
            call(np.ones(shape))


class TestLiePoissonSystem:
    def test_isotropic_body_stationary(self):
        sys = lie_poisson_system(SO3, np.eye(3), no_noise())
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal(size=3)
            assert np.allclose(sys.drift(0.0, m), 0.0, atol=1e-15)

    def test_principal_axes_stationary(self):
        sys = lie_poisson_system(SO3, K_RIGID, no_noise())
        for axis in np.eye(3):
            assert np.max(np.abs(sys.drift(0.0, axis))) <= 1e-12

    def test_euler_equation_form(self):
        sys = lie_poisson_system(SO3, K_RIGID, no_noise())
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=3)
            assert np.allclose(sys.drift(0.0, m), np.cross(m, K_RIGID @ m), atol=1e-14)

    def test_correction_single_channel_e3(self):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0)
        sys = lie_poisson_system(SO3, K_RIGID, noise)
        m = np.array([0.7, -0.4, 0.9])
        assert np.allclose(sys.ito_correction(0.0, m), [-0.35, 0.2, 0.0])

    def test_correction_matches_nested_brackets(self):
        noise = NoiseSpec.make([[0.2, 0.0, 1.0], [0.5, 0.5, 0.0]], seed=0)
        sys = lie_poisson_system(SO3, K_RIGID, noise)
        br = LiePoissonBracket(SO3)
        ms = np.random.default_rng(4).normal(size=(20, 3))
        oracle = np.stack([
            sum(0.5 * double_bracket(br, ScalarField.linear(noise.xi[k]),
                                     ScalarField.coordinate(a, 3), ms)
                for k in range(2))
            for a in range(3)
        ], axis=-1)
        assert np.max(np.abs(sys.ito_correction(0.0, ms) - oracle)) <= 1e-9

    def test_constant_u_policy(self):
        u = np.array([0.0, 0.0, 2.0])
        sys = lie_poisson_system(SO3, K_RIGID, no_noise(),
                                 u_of=lambda t, m: np.broadcast_to(u, m.shape))
        m = np.array([1.0, 0.0, 0.0])
        assert np.allclose(sys.drift(0.0, m), np.cross(m, u))


class TestHamelSystem:
    def test_chart_algebra_must_equal_hamiltonian_algebra(self):
        from coadjoint.kolmogorov import hamel_generator

        h = ReducedHamiltonian(alg=builtin("se2"), kinetic_inverse=K_RIGID)
        message = "chart 'so3_on_r3' acts with algebra 'so3', the Hamiltonian is on 'se2'"
        with pytest.raises(ValueError, match=message):
            hamel_system(rotation_chart(), h, no_noise())
        with pytest.raises(ValueError, match=message):
            hamel_generator(rotation_chart(), h, [[0.0, 0.0, 1.0]])

    def test_decouples_without_potential(self):
        chart = rotation_chart()
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID)
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=6)
        hs = hamel_system(chart, h, noise)
        lp = lie_poisson_system(SO3, K_RIGID, noise)
        g = sample_grid(noise, 1.0, 512)
        m0 = np.array([0.8, 0.3, 0.5])
        q0 = np.array([1.0, 0.0, 0.0])
        th = integrate(hs, "heun_strat", g, np.concatenate([m0, q0]))
        tl = integrate(lp, "heun_strat", g, m0)
        assert np.max(np.abs(th.states[:, :3] - tl.states)) <= 1e-14

    def test_heavy_top_torque(self):
        chart = rotation_chart()
        gravity = np.array([0.0, 0.0, 1.0])
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID,
                               potential=linear_potential(gravity))
        sys = hamel_system(chart, h, no_noise())
        m = np.array([0.3, 0.4, 0.8])
        q = np.array([0.1, -0.2, 1.0])
        out = sys.drift(0.0, np.concatenate([m, q]))
        u = K_RIGID @ m
        assert np.allclose(out[:3], np.cross(m, u) + np.cross(q, gravity), atol=1e-14)
        assert np.allclose(out[3:], np.cross(q, u), atol=1e-14)

    def test_heavy_top_energy_conserved_by_rk4(self):
        chart = rotation_chart()
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID,
                               potential=linear_potential([0.0, 0.0, 1.0]))
        sys = hamel_system(chart, h, no_noise())
        x0 = np.concatenate([np.array([0.3, 0.4, 0.8]), np.array([0.0, 0.0, 1.0])])
        traj = integrate(sys, "rk4", time_grid(10.0, 10_000), x0)
        drift = observable_series(traj, h.as_mq_field()).sup()
        assert drift <= 1e-8

    def test_matches_phase_space_dynamics_with_potential(self):
        # the (m, q) equations are the image of the T*Q dynamics under
        # (momentum map, projection), torque term included
        chart = rotation_chart()
        gravity = np.array([0.0, 0.0, 1.0])
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID,
                                potential=linear_potential(gravity), chart=chart)
        h = ReducedHamiltonian.from_lagrangian(L)
        grid = time_grid(1.0, 10_000)
        q0, p0 = np.array([0.2, -0.1, 1.0]), np.array([0.4, 0.6, 0.1])
        phase = integrate(phase_space_system(L, no_noise()), "rk4", grid,
                          np.concatenate([q0, p0]))
        m0 = momentum_map(chart, PhaseState(q0, p0))
        hamel = integrate(hamel_system(chart, h, no_noise()), "rk4", grid,
                          np.concatenate([m0, q0]))
        image = np.concatenate(
            [momentum_map(chart, phase.states), phase.states[:, :3]], axis=1
        )
        assert np.max(np.abs(image - hamel.states)) <= 1e-6

    def test_abelian_chart_gives_canonical_equations(self):
        chart = builtin_chart("rn_translation")
        alg = builtin("r3")
        h = ReducedHamiltonian(alg=alg, kinetic_inverse=np.eye(3),
                               potential=linear_potential([1.0, 0.0, 0.0]))
        sys = hamel_system(chart, h, NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0))
        m = np.array([0.5, -0.5, 0.2])
        q = np.array([0.0, 1.0, 2.0])
        out = sys.drift(0.0, np.concatenate([m, q]))
        assert np.allclose(out[:3], [-1.0, 0.0, 0.0])  # dm = -dV/dq
        assert np.allclose(out[3:], m)                 # dq = dh/dm

    def test_correction_matches_nested_brackets(self):
        chart = rotation_chart()
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_RIGID)
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = hamel_system(chart, h, noise)
        hb = HamelBracket(chart)
        gks = [
            ScalarField(
                value=lambda y, w=noise.xi[k]: y[..., :3] @ w,
                grad=lambda y, w=np.concatenate([noise.xi[k], np.zeros(3)]):
                    np.broadcast_to(w, y.shape).copy(),
            )
            for k in range(2)
        ]
        xs = np.random.default_rng(7).normal(size=(20, 6))
        oracle = np.stack([
            sum(0.5 * double_bracket(hb, g, ScalarField.coordinate(i, 6), xs) for g in gks)
            for i in range(6)
        ], axis=-1)
        assert np.max(np.abs(sys.ito_correction(0.0, xs) - oracle)) <= 1e-9


class TestOtherAlgebras:
    def test_h3_collective_flow_closed_form(self):
        # for the Heisenberg algebra with K = I the third component is
        # central, so m1 + i m2 rotates at the constant rate m3
        h3 = builtin("h3")
        sys = lie_poisson_system(h3, np.eye(3), no_noise())
        m0 = np.array([0.7, -0.2, 0.9])
        T = 2.0
        traj = integrate(sys, "rk4", time_grid(T, 2000), m0)
        theta = m0[2] * traj.times
        exact = np.stack(
            [
                m0[0] * np.cos(theta) - m0[1] * np.sin(theta),
                m0[0] * np.sin(theta) + m0[1] * np.cos(theta),
                np.full_like(traj.times, m0[2]),
            ],
            axis=1,
        )
        assert np.max(np.abs(traj.states - exact)) <= 1e-8

    def test_se2_planar_casimir_conserved_pathwise(self):
        # m1^2 + m2^2 Poisson-commutes with everything on se(2)*, so the
        # Stratonovich flow keeps it up to scheme error
        se2 = builtin("se2")
        rng = np.random.default_rng(10)
        for _ in range(50):
            v, m = rng.normal(size=(2, 3))
            grad = np.array([2 * m[0], 2 * m[1], 0.0])
            assert abs(grad @ ad_star(se2, v, m)) <= 1e-13
        noise = NoiseSpec.make([[0.4, 0.1, 1.0]], seed=17)
        sys = lie_poisson_system(se2, np.eye(3), noise)
        m0 = np.array([0.6, -0.3, 0.4])
        sups = []
        for M in (256, 2048):
            g = sample_grid(noise, 1.0, M)
            traj = integrate(sys, "heun_strat", g, m0)
            planar = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
            sups.append(float(np.max(np.abs(planar - planar[0]))))
        assert sups[0] <= 1e-2
        assert sups[1] < sups[0]


class TestReconstructMomentum:
    def test_translation_returns_p_block(self):
        chart = builtin_chart("rn_translation")
        alg = builtin("r3")
        L = QuadraticLagrangian(alg=alg, kinetic=np.eye(3), chart=chart)
        noise = NoiseSpec.make([[1.0, 0.0, 0.0]], seed=9)
        sys = phase_space_system(L, noise)
        g = sample_grid(noise, 1.0, 64)
        x0 = np.concatenate([np.zeros(3), np.array([0.3, -0.2, 0.9])])
        traj = integrate(sys, "heun_strat", g, x0)
        mtraj = reconstruct_momentum(traj, chart)
        assert np.array_equal(mtraj.states, traj.states[:, 3:])

    def test_label_mismatch_rejected(self):
        chart = rotation_chart()
        lp = lie_poisson_system(SO3, K_RIGID, no_noise())
        traj = integrate(lp, "rk4", time_grid(1.0, 4), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="labels"):
            reconstruct_momentum(traj, chart)


class TestCasimir:
    def test_values_and_gradient(self):
        C = casimir(SO3)
        assert C(np.zeros(3)) == 0.0
        m = np.array([1.0, -2.0, 0.5])
        assert C(m) == pytest.approx(5.25)
        assert np.allclose(C.gradient(m), 2 * m)

    def test_fields_tangent_to_spheres(self):
        C = casimir(SO3)
        rng = np.random.default_rng(8)
        for _ in range(100):
            v, m = rng.normal(size=(2, 3))
            assert abs(C.gradient(m) @ ad_star(SO3, v, m)) <= 1e-12

    def test_ito_correction_not_tangent(self):
        # Casimir conservation is a Stratonovich statement: the Ito
        # correction drift points off the sphere
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0)
        sys = lie_poisson_system(SO3, K_RIGID, noise)
        m = np.array([1.0, 0.0, 0.0])
        C = casimir(SO3)
        assert abs(C.gradient(m) @ sys.ito_correction(0.0, m)) > 0.5

    def test_unsupported_algebra(self):
        with pytest.raises(LookupError, match="so3"):
            casimir(builtin("h3"))

    def test_weak_conservation_under_corrected_euler(self):
        # |E C(m_T) - C(m_0)| shrinks with the step (weak consistency)
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=21)
        sys = lie_poisson_system(SO3, K_RIGID, noise)
        m0 = np.array([0.8, 0.3, 0.5])
        C = casimir(SO3)
        biases = []
        for M in (64, 512):
            sys_ito = lie_poisson_system(SO3, K_RIGID, noise)
            finals = _euler_ensemble(sys_ito, m0, T=1.0, M=M, ensemble=4000, seed=77)
            vals = np.array([C(x) for x in finals])
            biases.append(abs(np.mean(vals) - C(m0)))
        assert biases[1] < biases[0]


def fd_rotation_chart():
    """The rotation chart with its derivatives by central finite differences."""
    A = rotation_chart().A

    def dA(q):
        return fd_jacobian(A, q)

    return ActionChart(alg=SO3, n=3, A=A, dA=dA, d2A=lambda q: fd_jacobian(dA, q),
                       name="fd_rotation")


def _three_levels(noise, potential=None, chart=None):
    """The phase-space, Hamel and collective systems of one so(3) rigid body."""
    chart = chart or rotation_chart()
    kw = {} if potential is None else {"potential": potential}
    L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID, chart=chart, **kw)
    h = ReducedHamiltonian.from_lagrangian(L)
    return {
        "phase_space": phase_space_system(L, noise),
        "hamel": hamel_system(chart, h, noise),
        "lie_poisson": lie_poisson_system(SO3, K_RIGID, noise),
    }


class TestCoupling:
    @pytest.mark.parametrize("width", ["short", "long"])
    @pytest.mark.parametrize("callback", ["drift", "diffusion", "ito_correction"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_state_width_refused(self, level, callback, width):
        # each public callback names the system and the width it needs
        sys = _three_levels(NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0))[level]
        d = sys.state_dim
        x = np.ones(d - 1 if width == "short" else d + 1)
        want = f"state has shape ({x.size},); system {sys.name!r} needs a last axis of {d}"
        with pytest.raises(ValueError) as err:
            getattr(sys, callback)(0.0, x)
        assert str(err.value) == want

    def test_constructors_keep_caller_arrays_writable(self):
        # each constructor freezes its own copy, never the caller's array
        G, K, c = np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 0.5, 0.25]), SO3.c.copy()
        xi, dW = np.array([[0.0, 0.0, 1.0]]), np.zeros((4, 1))
        built = [
            (QuadraticLagrangian(alg=SO3, kinetic=G).kinetic, G),
            (ReducedHamiltonian(alg=SO3, kinetic_inverse=K).kinetic_inverse, K),
            (NoiseSpec(channels=1, xi=xi).xi, xi),
            (BrownianGrid(T=1.0, steps=4, dW=dW).dW, dW),
            (LieAlgebraSpec(dim=3, c=c).c, c),
        ]
        for stored, caller in built:
            assert caller.flags.writeable
            assert not stored.flags.writeable
            before = stored.copy()
            caller[0, 0] += 1.0
            assert np.array_equal(stored, before)

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_noise_free_diffusion_is_empty_stack(self, level):
        for noise in (no_noise(), NoiseSpec.make([], seed=0)):
            sys = _three_levels(noise)[level]
            d = sys.state_dim
            assert sys.diffusion(0.0, np.ones(d)).shape == (0, d)
            assert sys.diffusion(0.0, np.ones((5, d))).shape == (5, 0, d)
            assert np.array_equal(sys.ito_correction(0.0, np.ones((5, d))), np.zeros((5, d)))

    def test_systems_carry_their_momentum_map(self):
        # phase space maps through p . A(q), the Hamel level keeps its m
        # block and the collective level is the momentum itself
        levels = _three_levels(NoiseSpec.make([[0.0, 0.0, 1.0]], seed=0))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 5, 6))
        assert np.array_equal(levels["phase_space"].momentum(x),
                              momentum_map(rotation_chart(), x))
        assert np.array_equal(levels["hamel"].momentum(x), x[..., :3])
        m = rng.normal(size=(4, 5, 3))
        assert np.array_equal(levels["lie_poisson"].momentum(m), m)

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_noise_rows_are_hamiltonian_fields(self, level):
        # channel k of every level is X_{xi_k} = P(x) grad <mu, xi_k>, the
        # Hamiltonian vector field of the momentum pairing in the level's bracket
        xi = np.array([[0.0, 0.0, 1.0], [0.3, -1.0, 0.7]])
        chart = rotation_chart()
        sys = _three_levels(NoiseSpec.make(xi, seed=0), linear_potential([0.0, 0.0, 1.0]))[level]
        bracket, pairing = {
            "phase_space": (CanonicalBracket(3), lambda w: momentum_pairing_field(chart, w)),
            "hamel": (HamelBracket(chart),
                      lambda w: ScalarField.linear(np.concatenate([w, np.zeros(3)]))),
            "lie_poisson": (LiePoissonBracket(SO3), ScalarField.linear),
        }[level]
        x = np.random.default_rng(15).normal(size=(20, sys.state_dim))
        rows = sys.diffusion(0.0, x)
        for k, w in enumerate(xi):
            field = (bracket.tensor(x) @ pairing(w).gradient(x)[..., None])[..., 0]
            assert np.max(np.abs(rows[..., k, :] - field)) <= 1e-12

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel",
                                       "phase_space-fd_chart", "hamel-fd_chart"])
    def test_path_independent_of_batch(self, level, scheme):
        # row 3 of a 7-row batch ends bit for bit where its own path ends,
        # also on a chart whose derivatives are finite differences
        level, _, fd = level.partition("-")
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        chart = fd_rotation_chart() if fd else None
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]), chart)[level]
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(7, sys.state_dim))
        seed, T, M = 23, 0.5, 32
        dW = _increment_blocks(seed, 2, T, M)(7)
        batch = _drive(sys, scheme, x0, T / M, dW)
        grid = BrownianGrid(T=T, steps=M, dW=dW[:, 3], seed=seed)
        alone = integrate(sys, scheme, grid, x0[3]).final()
        assert np.array_equal(batch[3], alone)

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("level, xi", [
        ("lie_poisson-se2", XI_PAIR), ("lie_poisson-h3", XI_PAIR), ("hamel-so3", XI_PAIR),
        ("lie_poisson-so3", XI_PAIR), ("lie_poisson-so3", [[1.0, 0.0, 0.0]])],
        ids=["lie_poisson-se2", "lie_poisson-h3", "hamel-so3", "lie_poisson-so3", "lie_poisson-so3-e1"])
    def test_rows_independent_of_ad_star_kernel(self, level, xi, scheme):
        # a batch of N + 7 rows steps through the triple kernel of ad* (on the
        # collective level, the drift row alone, the noise rows through the
        # fixed maps ad*(xi_k, .)), a row alone through einsum; every row
        # ends bit for bit where it ends alone
        level, _, name = level.partition("-")
        noise = NoiseSpec.make(xi, seed=0)
        if level == "hamel":
            sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        else:
            sys = lie_poisson_system(builtin(name), K_RIGID, noise)
        E, T, M = _TRIPLE_MIN_ROWS + 7, 0.5, 16
        x0 = np.random.default_rng(13).normal(size=(E, sys.state_dim))
        dW = _increment_blocks(29, len(xi), T, M)(E)
        batch = _drive(sys, scheme, x0, T / M, dW)
        for j in range(E):
            assert np.array_equal(batch[j], _drive(sys, scheme, x0[j], T / M, dW[:, j])), j

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("rows", [7, _TRIPLE_MIN_ROWS + 7])
    def test_rows_independent_of_batch_on_a_non_exact_spec(self, rows, scheme):
        # such a spec always takes einsum, whose sums follow the memory
        # layout of the state; every state of a batch, the first included,
        # is component-major, so every row ends where it ends alone
        c = np.random.default_rng(14).normal(size=(3, 3, 3))
        alg = LieAlgebraSpec(dim=3, c=c - c.transpose(1, 0, 2), name="generic")
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = lie_poisson_system(alg, K_RIGID, noise)
        x0 = np.random.default_rng(15).normal(size=(rows, 3))
        T, M = 0.5, 16
        dW = _increment_blocks(31, 2, T, M)(rows)
        batch = _drive(sys, scheme, x0, T / M, dW)
        for j in range(rows):
            assert np.array_equal(batch[j], _drive(sys, scheme, x0[j], T / M, dW[:, j])), j

    @pytest.mark.parametrize("level", ["phase_space", "hamel"])
    def test_fd_chart_coefficients_independent_of_batch(self, level):
        # each row's finite-difference step depends on that row alone
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]), fd_rotation_chart())[level]
        x = np.random.default_rng(12).normal(scale=2.0, size=(7, sys.state_dim))
        for fn in (sys.drift, sys.diffusion, sys.ito_correction):
            assert np.array_equal(fn(0.0, x), np.array([fn(0.0, row) for row in x])), fn



def _loop_heun(sys, t, x, dt, dW):
    """Stochastic Heun with one drift and one diffusion call per stage and a
    per-channel sum, the reference the stacked kernel must reproduce."""
    fx = sys.drift(t, x)
    incr = fx * dt
    gx = sys.diffusion(t, x)
    for k in range(sys.channels):
        incr = incr + gx[..., k, :] * dW[..., k, None]
    xp = x + incr
    out = x + 0.5 * dt * (fx + sys.drift(t + dt, xp))
    gp = sys.diffusion(t + dt, xp)
    for k in range(sys.channels):
        out = out + 0.5 * (gx[..., k, :] + gp[..., k, :]) * dW[..., k, None]
    return out


def _loop_euler_ito(sys, t, x, dt, dW):
    out = x + (sys.drift(t, x) + sys.ito_correction(t, x)) * dt
    gx = sys.diffusion(t, x)
    for k in range(sys.channels):
        out = out + gx[..., k, :] * dW[..., k, None]
    return out


def _loop_rk4(sys, t, x, dt, dW):
    """Classical RK4 on the public drift, four calls and the textbook sum,
    the reference the in-place kernel on the drift row must reproduce; dW,
    which holds no increments, is unused."""
    k1 = sys.drift(t, x)
    k2 = sys.drift(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = sys.drift(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = sys.drift(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _evaluate(sys, t, x, ito=False, stacked=None):
    """One run's stacked evaluator, the builder's or ``stacked``'s, set up
    for x's batch shape, on x, into a new stack."""
    lead = x.shape[:-1]
    F = (stacked or sys.drift.stacked)(lead, ito)
    return F(t, x, _stack_buffer((1 + sys.channels,), lead, sys.state_dim))


def _own_callbacks(sys):
    """The same system with wrapped drift and diffusion, so the integrators
    stack its two callbacks instead of the builder's one-call evaluator."""
    return dataclasses.replace(sys, drift=lambda t, x: sys.drift(t, x),
                               diffusion=lambda t, x: sys.diffusion(t, x))


class TestStackedFields:
    @pytest.mark.parametrize("channels", [0, 1, 2, 3])
    @pytest.mark.parametrize("layout", ["single", "row_major", "component_major"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson", "lie_poisson-policy"])
    def test_one_call_steps_equal_per_channel_loop(self, level, layout, channels):
        # the builder's stacked evaluator, the generic stack of the two
        # callbacks and the per-channel loop agree bit for bit
        rng = np.random.default_rng(channels)
        noise = NoiseSpec(channels=channels, xi=rng.normal(size=(channels, 3)), seed=0)
        if level == "lie_poisson-policy":
            sys = lie_poisson_system(SO3, K_RIGID, noise, u_of=lambda t, x: np.array([0.2, -0.1, 0.4]))
        else:
            sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        d = sys.state_dim
        if layout == "single":
            x, dW = rng.normal(size=d), rng.normal(scale=0.1, size=channels)
        else:
            x, dW = rng.normal(size=(7, d)), rng.normal(scale=0.1, size=(7, channels))
            if layout == "component_major":
                x = np.asfortranarray(x)
        for step, loop in ((heun_stratonovich_step, _loop_heun),
                           (euler_ito_step, _loop_euler_ito)):
            want = loop(sys, 0.3, x, 0.01, dW)
            assert np.array_equal(step(sys, 0.3, x, 0.01, dW), want), step
            assert np.array_equal(step(_own_callbacks(sys), 0.3, x, 0.01, dW), want), step

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_driven_batch_equals_own_callbacks(self, level, scheme):
        # the builder's evaluator keeps ensemble rows component-major and the
        # generic stack makes them row-major; every state _drive records
        # matches between the two
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        x0 = np.random.default_rng(3).normal(size=sys.state_dim)
        dW = _increment_blocks(5, 2, 0.5, 16)(7)
        runs = []
        for s in (sys, _own_callbacks(sys)):
            states = np.empty((17, 7, sys.state_dim))
            _drive(s, scheme, np.broadcast_to(x0, (7, sys.state_dim)), 0.5 / 16, dW, states=states)
            runs.append(states)
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("rows", [3, 4])
    @pytest.mark.parametrize("level", ["phase_space", "lie_poisson"])
    def test_shared_increments_broadcast_over_batch(self, level, rows):
        # one dW row of C = 2 increments drives every state of a batch; the
        # increments line up with the state's leading axes from the right,
        # also when the batch has 1 + C rows
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        rng = np.random.default_rng(rows)
        x, dW = rng.normal(size=(rows, sys.state_dim)), np.array([0.1, -0.2])
        for step, loop in ((heun_stratonovich_step, _loop_heun),
                           (euler_ito_step, _loop_euler_ito)):
            want = loop(sys, 0.3, x, 0.01, dW)
            assert np.array_equal(step(sys, 0.3, x, 0.01, dW), want), step
            assert np.array_equal(step(_own_callbacks(sys), 0.3, x, 0.01, dW), want), step
            assert np.array_equal(step(sys, 0.3, x[0], 0.01, np.tile(dW, (rows, 1))),
                                  loop(sys, 0.3, x[0], 0.01, np.tile(dW, (rows, 1)))), step
        table = _increment_blocks(5, 2, 0.5, 16)(1)[:, 0]
        shared = _drive(sys, "heun_strat", x, 0.5 / 16, table)
        per_row = _drive(sys, "heun_strat", x, 0.5 / 16, np.repeat(table[:, None], rows, axis=1))
        assert np.array_equal(shared, per_row)

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_evaluator_reuse_across_batch_shapes(self, level):
        # one run's evaluator serves its batch and the leading slices a
        # shorter block steps on: each call writes only the out it is given,
        # and every slice matches an evaluator set up for its own shape
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        x = np.random.default_rng(4).normal(size=(5, sys.state_dim))
        F = sys.drift.stacked((5,))
        first = F(0.1, x, _stack_buffer((3,), (5,), sys.state_dim))
        kept = first.copy()
        for arg in (x[:3], x, x[:1]):
            out = _stack_buffer((3,), arg.shape[:-1], sys.state_dim)
            assert F(0.1, arg, out) is out
            assert np.array_equal(out, _evaluate(sys, 0.1, arg))
        assert np.array_equal(first, kept)
        assert np.array_equal(first[0], sys.drift(0.1, x))
        assert np.array_equal(np.moveaxis(first[1:], 0, -2), sys.diffusion(0.1, x))

    def test_replaced_drift_is_the_one_stepped(self):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        lp = lie_poisson_system(SO3, K_RIGID, noise)
        free = dataclasses.replace(lp, drift=lambda t, x: np.zeros_like(x))
        m, dW = np.array([0.8, 0.3, 0.5]), np.array([0.1, -0.2])
        assert np.array_equal(heun_stratonovich_step(free, 0.0, m, 0.01, dW),
                              _loop_heun(free, 0.0, m, 0.01, dW))
        assert not np.array_equal(heun_stratonovich_step(free, 0.0, m, 0.01, dW),
                                  heun_stratonovich_step(lp, 0.0, m, 0.01, dW))

    @pytest.mark.parametrize("step", [heun_stratonovich_step, euler_ito_step])
    @pytest.mark.parametrize("dW", [[0.1, 0.2, 5.0], [0.1], np.zeros((4, 3)), 0.1],
                             ids=["three", "one", "batch_of_three", "scalar"])
    def test_wrong_increment_count_rejected(self, step, dW):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        lp = lie_poisson_system(SO3, K_RIGID, noise)
        given = f"{np.shape(dW)[-1]} increments" if np.ndim(dW) else "a scalar"
        with pytest.raises(ValueError, match=f"dW holds {given} per step.* 2 noise channels"):
            step(lp, 0.0, np.ones((4, 3)), 0.01, dW)

    @pytest.mark.parametrize("channels", [0, 1, 2, 3])
    @pytest.mark.parametrize("layout", ["single", "row_major", "component_major"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_ito_mode_rows(self, level, layout, channels):
        # the Ito-mode evaluator's row 0 is the drift plus the public
        # correction, built from its own noise rows, which are the diffusion;
        # the generic stack of wrapped callbacks gives the same rows
        rng = np.random.default_rng(40 + channels)
        noise = NoiseSpec(channels=channels, xi=rng.normal(size=(channels, 3)), seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        x = _layouts(rng.normal(size=(7, sys.state_dim)))[layout]
        want = np.concatenate([(sys.drift(0.3, x) + sys.ito_correction(0.3, x))[None],
                               np.moveaxis(sys.diffusion(0.3, x), -2, 0)])
        for s in (sys, _own_callbacks(sys)):
            got = _evaluate(s, 0.3, x, ito=True,
                            stacked=lambda lead, ito, s=s: _stacked(s, lead, ito))
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(_evaluate(sys, 0.3, x, ito=True), want)

    def test_replaced_correction_is_the_one_stepped(self):
        # the builder's Ito mode serves only its own correction
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        lp = lie_poisson_system(SO3, K_RIGID, noise)
        free = dataclasses.replace(lp, ito_correction=lambda t, x: np.zeros_like(x))
        m, dW = np.array([0.8, 0.3, 0.5]), np.array([0.1, -0.2])
        assert np.array_equal(euler_ito_step(free, 0.0, m, 0.01, dW),
                              _loop_euler_ito(free, 0.0, m, 0.01, dW))
        assert not np.array_equal(euler_ito_step(free, 0.0, m, 0.01, dW),
                                  euler_ito_step(lp, 0.0, m, 0.01, dW))


def _counting_chart(calls):
    """The rotation chart, recording the name of every A and dA call."""
    chart = rotation_chart()

    def counted(name, fn):
        def call(q):
            calls.append(name)
            return fn(q)
        return call

    return dataclasses.replace(chart, A=counted("A", chart.A), dA=counted("dA", chart.dA))


class TestOneEvaluationPerStage:
    @pytest.mark.parametrize("ito", [False, True])
    @pytest.mark.parametrize("level", ["phase_space", "hamel"])
    def test_one_chart_call_per_stage(self, level, ito):
        # the stage evaluates A(q) once for the momentum map, the field and
        # the force; dA once where the field or the Ito drift needs it
        calls = []
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]),
                            _counting_chart(calls))[level]
        x = np.random.default_rng(41).normal(size=(7, sys.state_dim))
        for arg in (x, x[0]):
            F = sys.drift.stacked(arg.shape[:-1], ito)
            out = _stack_buffer((3,), arg.shape[:-1], sys.state_dim)
            calls.clear()
            F(0.3, arg, out)
            want = ["A", "dA"] if level == "phase_space" or ito else ["A"]
            assert sorted(calls) == want, calls

    def test_collective_euler_ito_step_makes_two_ad_star_calls(self, monkeypatch):
        # one call for the field at (u, xi_1, ..., xi_C), one for DX_xi on
        # the evaluator's own noise rows, each to a kernel bound for the run
        self._assert_bound_kernel_calls(monkeypatch, "euler_ito", euler_ito_step, 2)

    def test_collective_heun_step_makes_two_ad_star_calls(self, monkeypatch):
        # one call for the field at (u, xi_1, ..., xi_C) per stage
        self._assert_bound_kernel_calls(monkeypatch, "heun_strat", heun_stratonovich_step, 2)

    def test_collective_rk4_step_makes_four_ad_star_calls(self, monkeypatch):
        # rk4 steps the same bound evaluator: one call for the drift row per
        # stage on a zero-channel system, none through the public drift
        self._assert_bound_kernel_calls(monkeypatch, "rk4", None, 4, xi=[])

    @pytest.mark.parametrize("xi", [XI_PAIR, [[1.0, 0.0, 0.0]]], ids=["pair", "e1"])
    def test_collective_batch_at_triple_size_calls_triples_on_the_drift_row_only(
            self, monkeypatch, xi):
        # the noise rows come from the run's fixed maps ad*(xi_k, .), which
        # read neither the triple kernel nor the noise rows of W
        calls, made = [], []
        triples, stack_buffer = algebra._ad_star_triples, dynamics._stack_buffer
        monkeypatch.setattr(algebra, "_ad_star_triples",
                            lambda alg, v, m, *a: calls.append(v.shape) or triples(alg, v, m, *a))
        monkeypatch.setattr(dynamics, "_stack_buffer",
                            lambda *a: made.append(stack_buffer(*a)) or made[-1])
        lp = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(xi, seed=0))
        E, C = _TRIPLE_MIN_ROWS + 7, len(xi)
        x = np.random.default_rng(43).normal(size=(E, 3))
        F = lp.drift.stacked((E,))
        W, = made
        W[1:] = np.nan
        for n in (E, E - 5):
            calls.clear()
            out = F(0.0, x[:n], _stack_buffer((1 + C,), (n,), 3))
            assert calls == [(n, 3)]
            assert np.array_equal(out[0], lp.drift(0.0, x[:n]))
            assert np.array_equal(out[1:], np.moveaxis(lp.diffusion(0.0, x[:n]), -2, 0))
        calls.clear()
        _drive(lp, "heun_strat", x, 0.01, np.full((5, E, C), 0.1))
        assert calls == [(E, 3)] * 10

    @staticmethod
    def _assert_bound_kernel_calls(monkeypatch, scheme, step, per_step, xi=XI_PAIR):
        calls = []

        def counting(alg, size=None, rows=None):
            kernel = _ad_star_kernel(alg, size, rows)

            def call(*args, **kwargs):
                calls.append(size)
                return kernel(*args, **kwargs)

            return call

        monkeypatch.setattr(dynamics, "_ad_star_kernel", counting)
        lp = lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(xi, seed=0))
        for x, dW in ((np.array([0.8, 0.3, 0.5]), np.array([0.1, -0.2])),
                      (np.ones((7, 3)), np.full((7, 2), 0.1))):
            dW = dW[..., :len(xi)]
            if step is not None:
                calls.clear()
                step(lp, 0.0, x, 0.01, dW)
                assert len(calls) == per_step and None not in calls, calls
            calls.clear()
            _drive(lp, scheme, x, 0.01, np.tile(dW, (5,) + (1,) * dW.ndim))
            assert len(calls) == 5 * per_step and None not in calls, calls


def _einsum_velocity_drift(level, K, x):
    """The drift of a zero-potential system of ``level`` with the Legendre
    velocity u = K mu(x) contracted by ``einsum``, its form before the
    diagonal kernel; the level's action field is written out here."""
    chart = rotation_chart()
    if level == "phase_space":
        u = np.einsum("ab,...b->...a", K, momentum_map(chart, x))
        at, field, _, _ = dynamics._phase_fields(chart)
        return field(None, at(x), u)
    u = np.einsum("ab,...b->...a", K, x[..., :3])
    if level == "lie_poisson":
        return ad_star(SO3, u, x)
    dq = np.einsum("...bi,...b->...i", chart.coefficients(x[..., 3:]), u)
    return np.concatenate([ad_star(SO3, u, x[..., :3]), dq], axis=-1)


def _layouts(x):
    """One state, and a batch of them row-major and component-major."""
    return {"single": x[0], "row_major": x, "component_major": np.asfortranarray(x)}


class TestVelocityKernel:
    @pytest.mark.parametrize("layout", ["single", "row_major", "component_major"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_diagonal_kernel_equals_einsum(self, level, layout):
        # a diagonal K scales mu by one entry per component, which rounds as
        # the einsum over the whole row of K does; the drift and the
        # evaluator's drift row keep every bit
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise)[level]
        K = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID).kinetic_inverse
        assert np.array_equal(K, np.diag(np.diag(K)))
        rows = np.random.default_rng(21).normal(size=(2 * _TRIPLE_MIN_ROWS, sys.state_dim))
        x = _layouts(rows)[layout]
        want = _einsum_velocity_drift(level, K, x)
        assert np.array_equal(sys.drift(0.3, x), want)
        assert np.array_equal(_evaluate(sys, 0.3, x)[0], want)

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_dense_kernel_rows_equal_single_state(self, level):
        # off the principal axes each row of K * mu is summed in one order,
        # so a batch row in either layout is the single-state call
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _dense_levels(noise)[level]
        x = np.random.default_rng(22).normal(size=(_TRIPLE_MIN_ROWS + 7, sys.state_dim))
        for layout in ("row_major", "component_major"):
            batch = _layouts(x)[layout]
            drift, stack = sys.drift(0.3, batch), _evaluate(sys, 0.3, batch)
            for j, row in enumerate(x):
                assert np.array_equal(drift[j], sys.drift(0.3, row)), (layout, j)
                assert np.array_equal(stack[:, j], _evaluate(sys, 0.3, row)), (layout, j)

    @pytest.mark.parametrize("layout", ["single", "row_major", "component_major"])
    def test_hamiltonian_diagonal_velocity_equals_einsum(self, layout):
        # dh/dm, the gradient of as_field() and the m block of as_mq_field's
        # gradient take the systems' Legendre rule, which for a diagonal K
        # keeps the einsum's values
        K = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID).kinetic_inverse
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K)
        x = _layouts(np.random.default_rng(25).normal(size=(2000, 6)))[layout]
        want = np.einsum("ab,...b->...a", K, x[..., :3])
        assert np.array_equal(h.velocity(x[..., :3]), want)
        assert np.array_equal(h.as_field().gradient(x[..., :3]), want)
        assert np.array_equal(h.as_mq_field().gradient(x)[..., :3], want)

    def test_hamiltonian_dense_velocity_rows_equal_single_state(self):
        h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_DENSE)
        rows = np.random.default_rng(26).normal(size=(2000, 6))
        grads = {"velocity": lambda x: h.velocity(x[..., :3]),
                 "as_field": lambda x: h.as_field().gradient(x[..., :3]),
                 "as_mq_field": lambda x: h.as_mq_field().gradient(x)[..., :3]}
        for name, grad in grads.items():
            single = np.array([grad(row) for row in rows])
            for layout in ("row_major", "component_major"):
                assert np.array_equal(grad(_layouts(rows)[layout]), single), (name, layout)

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_dense_kernel_ensemble_path_is_integrate(self, level):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=31)
        sys = _dense_levels(noise)[level]
        x0 = np.random.default_rng(23).normal(size=sys.state_dim)
        T, M = 0.5, 32
        finals = ensemble_finals(sys, x0, T, M, ensemble=_TRIPLE_MIN_ROWS, seed=31)
        alone = integrate(sys, "heun_strat", sample_grid(noise, T, M), x0).final()
        assert np.array_equal(finals[0], alone)


def _dense_levels(noise):
    """The three levels of the rigid body with kinetic inverse K_DENSE and a
    linear potential."""
    chart, potential = rotation_chart(), linear_potential([0.0, 0.0, 1.0])
    L = QuadraticLagrangian(alg=SO3, kinetic=np.linalg.inv(K_DENSE), chart=chart,
                            potential=potential)
    h = ReducedHamiltonian(alg=SO3, kinetic_inverse=K_DENSE, potential=potential)
    return {
        "phase_space": phase_space_system(L, noise),
        "hamel": hamel_system(chart, h, noise),
        "lie_poisson": lie_poisson_system(SO3, K_DENSE, noise),
    }


class TestZeroPotential:
    @pytest.mark.parametrize("level", ["phase_space", "hamel"])
    def test_no_gradient_call_and_same_bits(self, level, monkeypatch):
        # the shared zero potential adds no force, so its gradient is never
        # called; a second V = 0 is stepped as a force and gives the same bits
        calls = []

        def grad(q):
            calls.append(q.shape)
            return np.zeros_like(q)

        counting = ScalarField(value=lambda q: np.zeros(q.shape[:-1]), grad=grad)
        monkeypatch.setattr(dynamics, "_ZERO_POTENTIAL", counting)
        assert zero_potential() is counting
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        free = _three_levels(noise, zero_potential())[level]
        forced = _three_levels(noise, dataclasses.replace(counting))[level]
        rng = np.random.default_rng(24)
        x, dW = rng.normal(size=(7, free.state_dim)), rng.normal(scale=0.1, size=(7, 2))
        runs = [lambda s: s.drift(0.3, x), lambda s: _evaluate(s, 0.3, x[0])]
        for step in (heun_stratonovich_step, euler_ito_step):
            runs += [lambda s, step=step: step(s, 0.3, x[0], 0.01, dW[0]),
                     lambda s, step=step: step(s, 0.3, x, 0.01, dW)]
        table = _increment_blocks(5, 2, 0.5, 16)(7)
        runs += [lambda s: _drive(s, "heun_strat", x, 0.5 / 16, table),
                 lambda s: _drive(s, "euler_ito", x[3], 0.5 / 16, table[:, 3])]
        for run in runs:
            calls.clear()
            got = run(free)
            assert not calls
            want = run(forced)
            assert calls
            assert np.array_equal(got, want)


def _ito_drift_channel_last(field, dfield, xi, x):
    """The Ito correction in its earlier form, channels on the second-to-last
    axis of every term."""
    xs = x[..., None, :]
    terms = dfield(xi, xs, field(xi, xs))
    out = np.zeros_like(x)
    for k in range(xi.shape[0]):
        out = out + terms[..., k, :]
    return 0.5 * out


def _level_fields(level, chart):
    """A level's action field X_w and its derivative DX_w on the state x,
    written out."""
    if level == "phase_space":
        at, field, dfield, _ = dynamics._phase_fields(chart)
        return (lambda w, x: field(None, at(x), w)), (lambda w, x, v: dfield(None, at(x), w, v))
    if level == "lie_poisson":
        return (lambda w, m: _ad_star(SO3, w, m)), (lambda w, m, v: _ad_star(SO3, w, v))

    def field(w, x):
        dq = np.einsum("...bi,...b->...i", chart.coefficients(x[..., 3:]), w)
        return np.concatenate([_ad_star(SO3, w, x[..., :3]), dq], axis=-1)

    def dfield(w, x, v):
        db = dynamics._chart_jacobian(chart.d_coefficients(x[..., 3:]), w)
        dq = np.einsum("...ij,...j->...i", db, v[..., 3:])
        return np.concatenate([_ad_star(SO3, w, v[..., :3]), dq], axis=-1)

    return field, dfield


class TestItoCorrectionShape:
    @pytest.mark.parametrize("channels", [1, 2, 3, 9])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_channel_first_equals_channel_last(self, level, channels):
        # channels outermost changes where each term is stored, not how it
        # is computed: single states and batches keep every bit
        rng = np.random.default_rng(30 + channels)
        noise = NoiseSpec(channels=channels, xi=rng.normal(size=(channels, 3)), seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        field, dfield = _level_fields(level, rotation_chart())
        x = rng.normal(size=(_TRIPLE_MIN_ROWS + 7, sys.state_dim))
        for arg in (x[0], x[:7], np.asfortranarray(x)):
            want = _ito_drift_channel_last(field, dfield, noise.xi, arg)
            assert np.array_equal(sys.ito_correction(0.0, arg), want), arg.shape


def _euler_ensemble(sys, x0, T, M, ensemble, seed):
    dW = _increment_blocks(seed, sys.channels, T, M)(ensemble)
    return _drive(sys, "euler_ito", np.broadcast_to(x0, (ensemble, len(x0))), T / M, dW)


def _same_bits(a, b):
    """Equal values, and equal signs on the zeros."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _chart_for(name):
    """A chart each algebra acts by: the built-in so(3) and h3 charts, se(2)
    on the plane and so(3) with doubled constants (a non-exact spec) by the
    doubled rotation fields."""
    if name in ("so3", "h3"):
        return builtin_chart(f"{name}_on_r3")
    if name == "se2":
        # translations e1, e2 and the rotation (y, -x): [A3, A1] = A2, [A3, A2] = -A1
        def A(q):
            out = np.zeros(q.shape[:-1] + (3, 2))
            out[..., 0, 0] = out[..., 1, 1] = 1.0
            out[..., 2, 0], out[..., 2, 1] = q[..., 1], -q[..., 0]
            return out

        def dA(q):
            out = np.zeros(q.shape[:-1] + (3, 2, 2))
            out[..., 2, 0, 1], out[..., 2, 1, 0] = 1.0, -1.0
            return out

        return ActionChart(alg=builtin("se2"), n=2, A=A, dA=dA,
                           d2A=lambda q: np.zeros(q.shape[:-1] + (3, 2, 2, 2)), name="se2_on_r2")
    rot = builtin_chart("so3_on_r3")
    return ActionChart(alg=LieAlgebraSpec(dim=3, c=2.0 * SO3.c, name="so3x2"), n=3,
                       A=lambda q: 2.0 * rot.A(q), dA=lambda q: 2.0 * rot.dA(q),
                       d2A=rot.d2A, name="so3x2_on_r3")


class TestEinsumEntryPoint:
    """Every einsum of the package goes through algebra._einsum, which calls
    numpy's C kernel directly; routed back through np.einsum, every result
    keeps every bit."""

    def test_finds_the_c_kernel(self):
        assert algebra._c_einsum is not np.einsum

    @pytest.mark.parametrize("with_out", [False, True])
    def test_equals_np_einsum(self, with_out):
        rng = np.random.default_rng(40)
        m = rng.normal(size=(5, 3))
        m[0] = [0.0, -0.0, 1.0]
        v = rng.normal(size=(2, 1, 3))
        v[1, 0, 1] = -0.0
        for subscripts, ops in [("abg,...g,...b->...a", (SO3._minus_c, m, v)),
                                ("abg,...a,...b->...g", (SO3.c, m, v)),
                                ("...i,...i->...", (m, -m)), ("abd,dge->abge", (SO3.c, SO3.c))]:
            want = np.einsum(subscripts, *ops)
            if with_out:
                out = np.empty_like(want)
                assert algebra._einsum(subscripts, *ops, out=out) is out
            else:
                out = algebra._einsum(subscripts, *ops)
            assert _same_bits(out, want), subscripts
        assert np.signbit(algebra._einsum("abg,...g,...b->...a", SO3._minus_c, m, v)).any()

    @pytest.mark.parametrize("layout", ["single", "component_major"])
    @pytest.mark.parametrize("name", ["so3", "se2", "h3", "so3x2"])
    def test_fields_and_steps_keep_every_bit(self, monkeypatch, name, layout):
        chart = _chart_for(name)
        alg, n = chart.alg, chart.n
        rng = np.random.default_rng(41)
        assert chart.closure_residual(rng.normal(size=n)) <= 1e-12
        noise = NoiseSpec(channels=2, xi=rng.normal(size=(2, 3)), seed=0)
        L = QuadraticLagrangian(alg=alg, kinetic=G_RIGID, chart=chart,
                                potential=linear_potential(rng.normal(size=n)))
        systems = [lie_poisson_system(alg, K_RIGID, noise), phase_space_system(L, noise),
                   hamel_system(chart, ReducedHamiltonian.from_lagrangian(L), noise)]
        dW = 0.1 * rng.normal(size=(8, 2))

        def state(d):
            x = 0.5 * (rng.normal(size=d) if layout == "single" else rng.normal(size=(d, 7)).T)
            x[..., 0] = -0.0  # a signed zero in every state
            return x

        x0s = [state(sys.state_dim) for sys in systems]
        phase_x = x0s[1]

        def results():
            out = [ad_star(alg, noise.xi[:, None] if layout != "single" else noise.xi, x0s[0]),
                   momentum_map(chart, phase_x), systems[1].momentum(phase_x)]
            for sys, x0 in zip(systems, x0s):
                for scheme in ("heun_strat", "euler_ito"):
                    states = np.empty((len(dW) + 1,) + x0.shape)
                    _drive(sys, scheme, x0, 1.0 / 8, dW, states=states)
                    out.append(states)
                out.append(sys.drift.stacked(x0.shape[:-1], True)(
                    0.0, x0, _stack_buffer((3,), x0.shape[:-1], sys.state_dim)))
            return out

        got = results()
        monkeypatch.setattr(algebra, "_c_einsum", np.einsum)
        want = results()
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape and _same_bits(a, b), i
        assert any(np.signbit(a[a == 0]).any() for a in got)


def _ito_loop(terms):
    """(1/2) sum_k terms[k], added to zeros in channel order."""
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out = out + term
    return 0.5 * out


class TestItoSum:
    @pytest.mark.parametrize("channels", [1, 2, 3, 9])
    @pytest.mark.parametrize("layout", ["single", "row_major", "component_major"])
    def test_equals_zero_initialised_loop(self, channels, layout):
        rng = np.random.default_rng(channels)
        if layout == "single":
            terms = rng.normal(size=(channels, 6))
        elif layout == "row_major":
            terms = rng.normal(size=(channels, 11, 6))
        else:
            terms = _stack_buffer((channels,), (11,), 6)
            terms[...] = rng.normal(size=terms.shape)
        # signed zeros alone, and against a term that is zero
        terms[..., 0] = -0.0
        terms[0, ..., 1] = -0.0
        terms[-1, ..., 2] = 0.0
        got = dynamics._ito_sum(terms)
        want = _ito_loop(terms)
        assert _same_bits(got, want)
        assert not np.signbit(got[..., 0]).any()


def _oracle_states(sys, scheme, x0, dt, dW):
    """Every state of the per-step oracle through the public callbacks."""
    loop = {"heun_strat": _loop_heun, "euler_ito": _loop_euler_ito, "rk4": _loop_rk4}[scheme]
    states = [np.asarray(x0, dtype=float)]
    for i, row in enumerate(dW):
        states.append(loop(sys, i * dt, states[-1], dt, row))
    return np.array(states)


class TestBlockTable:
    """A run lays out its increments one table at a time: a single path's
    holds a block of _CHECK_STEPS steps at the state's width, a batch's one
    step.  133 steps are two full blocks and a short last block of 5."""

    M, DT = 2 * integrators._CHECK_STEPS + 5, 0.01

    def _case(self, level):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        x0 = np.random.default_rng(43).normal(size=(7, sys.state_dim))
        x0[:, 0] = -0.0  # a signed zero the first step must keep or lose as the oracle does
        dW = np.random.default_rng(37).normal(scale=self.DT ** 0.5, size=(self.M, 7, 2))
        return sys, x0, dW

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_single_path_equals_per_step_oracle(self, level, scheme):
        sys, x0, dW = self._case(level)
        want = _oracle_states(sys, scheme, x0[2], self.DT, dW[:, 2])
        grid = BrownianGrid(T=self.M * self.DT, steps=self.M, dW=dW[:, 2], seed=37)
        assert _same_bits(integrate(sys, scheme, grid, x0[2]).states, want)
        assert _same_bits(_drive(sys, scheme, x0[2], self.DT, dW[:, 2]), want[-1])

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_batch_equals_per_step_oracle(self, level, scheme):
        # every row of a 7-row batch, recorded, and of a 4-row block stepped
        # in the 7-row run's workspace, as the ensembles' short last block is
        sys, x0, dW = self._case(level)
        want = np.stack([_oracle_states(sys, scheme, x0[j], self.DT, dW[:, j])
                         for j in range(7)], axis=1)
        states = np.empty((self.M + 1, 7, sys.state_dim))
        run = _run(sys, scheme, x0, self.DT, dW)
        assert _same_bits(_drive(sys, scheme, x0, self.DT, dW, states=states, run=run), want[-1])
        assert _same_bits(states, want)
        assert _same_bits(_drive(sys, scheme, x0[:4], self.DT, dW[:, :4], run=run), want[-1, :4])

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_rk4_equals_textbook_formula(self, level):
        # rk4 steps the bound drift row in place and keeps every bit of the
        # textbook formula on the public drift: one path recorded by
        # integrate, and a batch at the collective triple-kernel size
        # stepped on one shared (M, 0) table and on per-row (M, E, 0) rows
        sys = _three_levels(no_noise(), linear_potential([0.0, 0.0, 1.0]))[level]
        E = _TRIPLE_MIN_ROWS + 7
        x0 = np.random.default_rng(45).normal(size=(E, sys.state_dim))
        x0[:, 0] = -0.0
        dW = np.zeros((self.M, 0))
        grid = time_grid(self.M * self.DT, self.M)
        assert _same_bits(integrate(sys, "rk4", grid, x0[2]).states,
                          _oracle_states(sys, "rk4", x0[2], self.DT, dW))
        want = _oracle_states(sys, "rk4", x0, self.DT, dW)
        states = np.empty((self.M + 1, E, sys.state_dim))
        assert _same_bits(_drive(sys, "rk4", x0, self.DT, dW, states=states), want[-1])
        assert _same_bits(states, want)
        assert _same_bits(_drive(sys, "rk4", x0, self.DT, np.zeros((self.M, E, 0))), want[-1])

    @pytest.mark.parametrize("level", ["phase_space", "lie_poisson"])
    def test_table_shapes(self, level):
        # a single path's table holds a block of steps at the state's
        # width; a batch's is one step, no larger than one row of increments
        sys, x0, dW = self._case(level)
        d = sys.state_dim
        for x, w, steps, shape in ((x0[0], dW[:, 0], integrators._CHECK_STEPS, (3, d)),
                                   (x0, dW, 1, (3, 7, 1))):
            _, table, *_ = _run(sys, "heun_strat", x, self.DT, w)(x, w)
            seen = []
            for i, inc, half in table(0, self.M):
                want = np.empty(shape)
                want[0] = self.DT
                want[1:] = w[i][:, None] if x.ndim == 1 else w[i].T[..., None]
                assert _same_bits(inc, want) and _same_bits(half, 0.5 * want)
                seen.append((i, inc))
            assert [i for i, _ in seen] == list(range(self.M))
            # the table's rows are reused once per table length
            for i, inc in seen:
                assert np.shares_memory(inc, seen[i % steps][1])
                assert not any(np.shares_memory(inc, other) for _, other in seen[i - i % steps:i])


class TestConstantFields:
    @pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 4, 3)])
    def test_grads_keep_bits_and_are_fresh(self, shape):
        # the gradient of V = g . q, of a linear field and of a coordinate
        # function: g broadcast over the states' leading axes, -0.0 kept,
        # in a new writable array on every call
        g = np.array([-0.0, 0.0, 1.5])
        e = np.array([0.0, 1.0, 0.0])
        x = np.random.default_rng(44).normal(size=shape)
        for grad, value in ((linear_potential(g).grad, g), (ScalarField.linear(g).grad, g),
                            (ScalarField.coordinate(1, 3).grad, e)):
            first, second = grad(x), grad(x)
            assert _same_bits(first, np.broadcast_to(value, shape).copy())
            assert first.flags.writeable and first.flags.c_contiguous
            assert not np.shares_memory(first, second) and not np.shares_memory(first, value)
            first[...] = 7.0
            assert _same_bits(grad(x), second)

    @pytest.mark.parametrize("policy", [{"id": "constant", "value": [-0.0, 0.5, -1.25]},
                                        {"id": "zero"}])
    def test_scenario_policy_keeps_bits(self, policy):
        # a scenario's constant or zero u policy steps as the same policy
        # given as a broadcast view
        from coadjoint.scenario import build_scenario, load_scenario

        doc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "rigid_body.json")
        built = build_scenario({**doc, "u_policy": policy})
        value = np.array(policy.get("value", [0.0, 0.0, 0.0]))
        view = lie_poisson_system(built.alg, built.hamiltonian.kinetic_inverse, built.noise,
                                  u_of=lambda t, x: np.broadcast_to(value, x.shape[:-1] + (3,)))
        x = np.random.default_rng(45).normal(size=(7, 3))
        assert _same_bits(built.system.drift(0.3, x), view.drift(0.3, x))
        grid = sample_grid(built.noise, 0.5, 64)
        for scheme in ("heun_strat", "euler_ito"):
            assert _same_bits(integrate(built.system, scheme, grid, built.x0).states,
                              integrate(view, scheme, grid, built.x0).states)
