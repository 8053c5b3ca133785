import dataclasses

import numpy as np
import pytest

from coadjoint.actions import ActionChart, PhaseState, builtin_chart, momentum_map
from coadjoint.algebra import _TRIPLE_MIN_ROWS, LieAlgebraSpec, abelian, ad_star, builtin
from coadjoint.diagnostics import observable_series, strong_error
from coadjoint.dynamics import (
    QuadraticLagrangian,
    ReducedHamiltonian,
    casimir,
    hamel_system,
    ito_correction_phase,
    legendre,
    lie_poisson_system,
    linear_potential,
    momentum_pairing_field,
    phase_space_system,
    reconstruct_momentum,
)
from coadjoint.fields import (
    CanonicalBracket,
    HamelBracket,
    LiePoissonBracket,
    ScalarField,
    double_bracket,
)
from coadjoint.integrators import _drive, euler_ito_step, heun_stratonovich_step, integrate
from coadjoint.kolmogorov import ensemble_finals
from coadjoint.noise import BrownianGrid, NoiseSpec, _increments, sample_grid, time_grid

SO3 = builtin("so3")
K_RIGID = np.diag([1.0, 0.5, 1.0 / 3.0])
G_RIGID = np.diag([1.0, 2.0, 3.0])


def rotation_chart():
    return builtin_chart("so3_on_r3")


def no_noise():
    return NoiseSpec(channels=0, xi=np.zeros((0, 3)), seed=0)


class TestLegendre:
    def test_identity_metric(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=np.eye(3))
        u = np.array([0.2, -0.4, 1.0])
        m, h = legendre(L, u)
        assert np.allclose(m, u)
        assert h == pytest.approx(0.5 * u @ u)

    def test_rigid_body_hand_values(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID)
        m, h = legendre(L, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(m, [1.0, 2.0, 3.0])
        assert h == pytest.approx(3.0)

    def test_roundtrip_exact(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=G_RIGID)
        rng = np.random.default_rng(0)
        K = L.kinetic_inverse
        for _ in range(100):
            u = rng.normal(size=3)
            m, _ = legendre(L, u)
            assert np.max(np.abs(K @ m - u)) <= 1e-12

    def test_potential_enters_value(self):
        L = QuadraticLagrangian(alg=SO3, kinetic=np.eye(3),
                                potential=linear_potential([0.0, 0.0, 2.0]))
        _, h = legendre(L, np.zeros(3), q=np.array([0.0, 0.0, 1.5]))
        assert h == pytest.approx(3.0)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticLagrangian(alg=SO3, kinetic=-np.eye(3))
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticLagrangian(alg=SO3, kinetic=np.array(
                [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


class TestPhaseSpaceSystem:
    def test_translation_chart_linear_path(self):
        chart = builtin_chart("rn_translation")
        alg = abelian(3)
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


class TestItoCorrectionPhase:
    def test_constant_coefficients_vanish(self):
        chart = builtin_chart("rn_translation")
        noise = NoiseSpec.make([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]], seed=0)
        x = np.concatenate([np.array([0.4, 0.5, 0.6]), np.array([1.0, -1.0, 2.0])])
        assert np.allclose(ito_correction_phase(chart, noise, x), 0.0)

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
        got = ito_correction_phase(chart, noise, x)
        assert np.allclose(got, expected, atol=1e-12)
        # closed form at this configuration: -(q1, q2, 0, p1, p2, 0) / 2
        assert np.allclose(got, [-0.5, 0.0, 0.0, -0.15, 0.1, 0.0])

    def test_matches_nested_canonical_brackets(self):
        chart = rotation_chart()
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.4, -0.1, 0.2]], seed=0)
        cb = CanonicalBracket(3)
        gks = [momentum_pairing_field(chart, noise.xi[k]) for k in range(2)]
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=6)
            closed = ito_correction_phase(chart, noise, x)
            oracle = np.array([
                sum(0.5 * double_bracket(cb, g, ScalarField.coordinate(i, 6), x)
                    for g in gks)
                for i in range(6)
            ])
            assert np.max(np.abs(closed - oracle)) <= 1e-9


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
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.normal(size=3)
            closed = sys.ito_correction(0.0, m)
            oracle = np.array([
                sum(0.5 * double_bracket(br, ScalarField.linear(noise.xi[k]),
                                         ScalarField.coordinate(a, 3), m)
                    for k in range(2))
                for a in range(3)
            ])
            assert np.max(np.abs(closed - oracle)) <= 1e-9

    def test_constant_u_policy(self):
        u = np.array([0.0, 0.0, 2.0])
        sys = lie_poisson_system(SO3, K_RIGID, no_noise(),
                                 u_of=lambda t, m: np.broadcast_to(u, m.shape))
        m = np.array([1.0, 0.0, 0.0])
        assert np.allclose(sys.drift(0.0, m), np.cross(m, u))

    def test_casimir_reprojection_toggle(self):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=5)
        sys = lie_poisson_system(SO3, K_RIGID, noise, reproject_casimir=True)
        g = sample_grid(noise, 1.0, 512)
        m0 = np.array([0.6, 0.0, 0.8])
        traj = integrate(sys, "heun_strat", g, m0)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_casimir_reprojection_in_ensembles(self):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=5)
        sys = lie_poisson_system(SO3, K_RIGID, noise, reproject_casimir=True)
        m0 = np.array([0.6, 0.0, 0.8]) * 0.99
        finals = ensemble_finals(sys, m0, T=1.0, M=256, ensemble=64, seed=9)
        norms = np.linalg.norm(finals, axis=1)
        assert np.max(np.abs(norms - np.linalg.norm(m0))) <= 1e-12

    def test_casimir_reprojection_rowwise(self):
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=5)
        sys = lie_poisson_system(SO3, K_RIGID, noise, reproject_casimir=True)
        x0 = np.array([[0.6, 0.0, 0.8], [0.0, 3.0, 4.0]])
        x_new = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 2.0]])
        out = sys.post_step(x_new, x0)
        assert np.allclose(np.linalg.norm(out, axis=1), [1.0, 5.0], rtol=0.0, atol=1e-15)
        assert np.allclose(out[1], [0.0, 0.0, 5.0], rtol=0.0, atol=0.0)
        assert np.array_equal(sys.post_step(np.zeros((2, 3)), x0), np.zeros((2, 3)))


class TestHamelSystem:
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
        drift = observable_series(traj, h.as_mq_field(3)).sup()
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
        alg = abelian(3)
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
                value=lambda y, w=noise.xi[k]: float(w @ y[:3]),
                grad=lambda y, w=noise.xi[k]: np.concatenate([w, np.zeros(3)]),
            )
            for k in range(2)
        ]
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=6)
            closed = sys.ito_correction(0.0, x)
            oracle = np.array([
                sum(0.5 * double_bracket(hb, g, ScalarField.coordinate(i, 6), x)
                    for g in gks)
                for i in range(6)
            ])
            assert np.max(np.abs(closed - oracle)) <= 1e-9


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
        alg = abelian(3)
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
        with pytest.raises(LookupError, match="quadratic"):
            casimir(SO3, name="quartic")

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
    """The rotation chart with its derivatives left to finite differences."""
    return ActionChart(alg=SO3, n=3, A=rotation_chart().A, name="fd_rotation")


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
        dW = _increments(seed, 2, T, M, 7)
        batch = _drive(sys, scheme, x0, T / M, dW)
        grid = BrownianGrid(T=T, steps=M, dW=dW[:, 3], seed=seed)
        alone = integrate(sys, scheme, grid, x0[3]).final()
        assert np.array_equal(batch[3], alone)

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito"])
    @pytest.mark.parametrize("level", ["lie_poisson-se2", "lie_poisson-h3", "hamel-so3"])
    def test_rows_independent_of_ad_star_kernel(self, level, scheme):
        # a batch of N + 7 rows steps through the triple kernel of ad*, a row
        # alone through einsum; every row ends bit for bit where it ends alone
        level, _, name = level.partition("-")
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        if level == "hamel":
            sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        else:
            sys = lie_poisson_system(builtin(name), K_RIGID, noise)
        E, T, M = _TRIPLE_MIN_ROWS + 7, 0.5, 16
        x0 = np.random.default_rng(13).normal(size=(E, sys.state_dim))
        dW = _increments(29, 2, T, M, E)
        batch = _drive(sys, scheme, x0, T / M, dW)
        for j in range(E):
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
        dW = _increments(5, 2, 0.5, 16, 7)
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
        table = _increments(5, 2, 0.5, 16, 1)[:, 0]
        shared = _drive(sys, "heun_strat", x, 0.5 / 16, table)
        per_row = _drive(sys, "heun_strat", x, 0.5 / 16, np.repeat(table[:, None], rows, axis=1))
        assert np.array_equal(shared, per_row)

    @pytest.mark.parametrize("level", ["phase_space", "hamel", "lie_poisson"])
    def test_evaluator_reuse_across_batch_shapes(self, level):
        # one evaluator keeps its stacked elements between calls: outputs it
        # returned stay intact, and a new batch shape refills the noise rows
        noise = NoiseSpec.make([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]], seed=0)
        sys = _three_levels(noise, linear_potential([0.0, 0.0, 1.0]))[level]
        x = np.random.default_rng(4).normal(size=(5, sys.state_dim))
        F = sys.drift.stacked()
        first = F(0.1, x)
        kept = first.copy()
        for arg in (x[0], x[:3], x, x[2]):
            assert np.array_equal(F(0.1, arg), sys.drift.stacked()(0.1, arg))
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


def _euler_ensemble(sys, x0, T, M, ensemble, seed):
    dW = _increments(seed, sys.channels, T, M, ensemble)
    return _drive(sys, "euler_ito", np.broadcast_to(x0, (ensemble, len(x0))), T / M, dW)
