from pathlib import Path

import numpy as np
import pytest

from coadjoint.actions import (
    ActionChart,
    PhaseState,
    builtin_chart,
    equivariance_residual,
    momentum_map,
)
from coadjoint.algebra import builtin
from coadjoint.dynamics import (
    ReducedHamiltonian,
    casimir,
    linear_potential,
    momentum_pairing_field,
)
from coadjoint.fields import (
    CanonicalBracket,
    LiePoissonBracket,
    ScalarField,
    double_bracket,
    fd_jacobian,
)
from coadjoint.kolmogorov import hamel_generator, lie_poisson_generator
from coadjoint.scenario import build_scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def builtin_fields():
    """(field, state dimension) for every ScalarField the package builds."""
    so3 = builtin("so3")
    chart = builtin_chart("so3_on_r3")
    K = np.diag([1.0, 0.5, 1.0 / 3.0])
    xi = np.array([[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]])
    h = ReducedHamiltonian(alg=so3, kinetic_inverse=K, potential=linear_potential([0.0, 0.0, 1.0]))
    lp = lie_poisson_generator(so3, K, xi)
    hamel = hamel_generator(chart, h, xi)
    fields = [
        (ScalarField.coordinate(1, 3), 3),
        (ScalarField.constant(2.5), 3),
        (ScalarField.linear([0.3, -1.2, 0.7]), 3),
        (ScalarField.linear([0.3, -1.2, 0.7, 0.5, -0.4, 1.1]), 6),
        (casimir(so3), 3),
        (h.as_field(), 3),
        (h.as_mq_field(), 6),
        (momentum_pairing_field(chart, [0.3, -1.0, 0.7]), 6),
        (lp.psi, 3), (hamel.psi, 6),
        *((g, 3) for g in lp.phi), *((g, 6) for g in hamel.phi),
    ]
    for path in sorted(SCENARIOS.glob("*.json")):
        built = build_scenario(load_scenario(path))
        fields.append((built.energy, built.system.state_dim))
    return fields


@pytest.fixture
def rotation():
    return builtin_chart("so3_on_r3")


@pytest.fixture
def translation():
    return builtin_chart("rn_translation")


@pytest.fixture
def heisenberg():
    return builtin_chart("h3_on_r3")


class TestActionField:
    def test_rotation_sign_pinned(self, rotation):
        # closure with +Levi-Civita constants fixes A_a(q) = q x e_a
        a = rotation.coefficients(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(a[2], [0.0, -1.0, 0.0])
        assert np.array_equal(a, np.cross(np.array([1.0, 0.0, 0.0]), np.eye(3)))


class TestMomentumMap:
    def test_rotation_angular_momentum(self, rotation):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q, p = rng.normal(size=(2, 3))
            m = momentum_map(rotation, PhaseState(q, p))
            assert np.allclose(m, np.cross(p, q))

    def test_linear_in_p(self, rotation):
        q = np.array([1.0, 2.0, 3.0])
        assert np.allclose(momentum_map(rotation, PhaseState(q, np.zeros(3))), 0.0)

    def test_translation_returns_p(self, translation):
        q, p = np.array([1.0, 0.0, 2.0]), np.array([0.4, -0.1, 0.8])
        assert np.allclose(momentum_map(translation, PhaseState(q, p)), p)


class TestCanonicalPoisson:
    def test_canonical_relations(self):
        s = PhaseState(np.array([0.2, -0.4, 1.1]), np.array([0.5, 0.7, -0.3]))
        for i in range(3):
            for j in range(3):
                qi = ScalarField.coordinate(i, 6)
                pj = ScalarField.coordinate(3 + j, 6)
                assert CanonicalBracket(3)(qi, pj, s.packed()) == pytest.approx(float(i == j), abs=1e-12)

    def test_antisymmetry(self, rotation):
        f = momentum_pairing_field(rotation, [1.0, 0.5, -0.2])
        s = PhaseState(np.array([0.3, 0.1, -0.8]), np.array([1.0, 0.0, 0.4]))
        assert CanonicalBracket(3)(f, f, s.packed()) == pytest.approx(0.0, abs=1e-14)

    def test_momentum_components_close_on_constants(self, rotation):
        # {m_1, m_2} = -m_3 at random states
        rng = np.random.default_rng(1)
        m1 = momentum_pairing_field(rotation, [1.0, 0.0, 0.0])
        m2 = momentum_pairing_field(rotation, [0.0, 1.0, 0.0])
        for _ in range(20):
            s = PhaseState(rng.normal(size=3), rng.normal(size=3))
            m = momentum_map(rotation, s)
            assert CanonicalBracket(3)(m1, m2, s.packed()) == pytest.approx(-m[2], abs=1e-9)


class TestEquivariance:
    @pytest.mark.parametrize("name", ["so3_on_r3", "rn_translation", "h3_on_r3"])
    def test_valid_charts(self, name):
        chart = builtin_chart(name)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = PhaseState(rng.normal(size=3), rng.normal(size=3))
            assert np.max(np.abs(equivariance_residual(chart, s))) <= 1e-10

    def test_translation_exactly_zero(self, translation):
        s = PhaseState(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
        assert np.all(equivariance_residual(translation, s) == 0.0)

    def test_detects_corrupted_chart(self, rotation):
        def bad_A(q):
            out = rotation.coefficients(q)
            out[..., 0, :] = out[..., 0, :] + np.array([0.0, 0.2, 0.1]) * q[..., 0, None]
            return out

        def bad_dA(q):
            return fd_jacobian(bad_A, q)

        corrupt = ActionChart(alg=rotation.alg, n=3, A=bad_A, dA=bad_dA,
                              d2A=lambda q: fd_jacobian(bad_dA, q), name="corrupt")
        s = PhaseState(np.array([0.9, -0.4, 0.2]), np.array([1.1, 0.5, -0.7]))
        assert np.max(np.abs(equivariance_residual(corrupt, s))) > 1e-3

    @pytest.mark.parametrize("name", ["so3_on_r3", "rn_translation", "h3_on_r3"])
    def test_batch_rows_equal_single_states(self, name):
        chart = builtin_chart(name)
        rng = np.random.default_rng(14)
        batch = PhaseState(rng.normal(size=(5, 7, 3)), rng.normal(size=(5, 7, 3)))
        whole = equivariance_residual(chart, batch)
        assert whole.shape == (5, 7, 3, 3)
        for idx in np.ndindex(5, 7):
            assert np.array_equal(whole[idx],
                                  equivariance_residual(chart, PhaseState(batch.q[idx], batch.p[idx])))


class TestBuiltinCharts:
    @pytest.mark.parametrize("name", ["so3_on_r3", "rn_translation", "h3_on_r3"])
    def test_closure_at_random_points(self, name):
        chart = builtin_chart(name)
        rng = np.random.default_rng(4)
        qs = rng.uniform(-2, 2, size=(100, chart.n))
        assert chart.closure_residual(qs) <= 1e-9

    def test_translation_identity_everywhere(self, translation):
        q = np.array([3.0, -1.0, 0.5])
        assert np.allclose(translation.coefficients(q), np.eye(3))

    def test_h3_commutator(self, heisenberg):
        # [A_1, A_2] = A_3 by direct vector-field computation
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = rng.normal(size=3)
            a = heisenberg.coefficients(q)
            da = heisenberg.d_coefficients(q)
            comm = np.einsum("s,ks->k", a[0], da[1]) - np.einsum("s,ks->k", a[1], da[0])
            assert np.allclose(comm, a[2])

    @pytest.mark.parametrize("name", ["so3_on_r3", "rn_translation", "h3_on_r3"])
    def test_derivatives_match_finite_differences(self, name):
        # analytic dA and d2A against central differences of A and dA
        chart = builtin_chart(name)
        qs = np.random.default_rng(6).uniform(-2, 2, size=(100, chart.n))
        for d, d_fd in ((chart.d_coefficients(qs), fd_jacobian(chart.coefficients, qs)),
                        (chart.d2_coefficients(qs), fd_jacobian(chart.d_coefficients, qs))):
            assert np.max(np.abs(d - d_fd)) <= 1e-6 * (1.0 + np.max(np.abs(d)))

    def test_unknown_chart(self):
        with pytest.raises(LookupError, match="unknown chart"):
            builtin_chart("mystery")

    def test_translation_acts_with_r3(self):
        chart = builtin_chart("rn_translation")
        assert chart.n == 3
        assert chart.alg == builtin("r3")


class TestUserCharts:
    @pytest.mark.parametrize("missing", [("dA",), ("d2A",), ("dA", "d2A")])
    def test_chart_without_derivatives_refused(self, rotation, missing):
        # a chart carries its own dA and d2A: no finite-difference fallback
        # stands in for a missing one
        kw = {k: getattr(rotation, k) for k in ("dA", "d2A") if k not in missing}
        with pytest.raises(TypeError, match=r"missing \d required positional arguments?: "
                                            + " and ".join(f"'{k}'" for k in missing)):
            ActionChart(alg=builtin("so3"), n=3, A=rotation.A, name="user_rot", **kw)


class TestScalarField:
    def test_fd_fallback_matches_analytic(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=4)

        def value(x):
            return np.sin(x @ w) + 0.5 * np.sum(x * x, axis=-1)

        def grad(x):
            return np.cos(x @ w)[..., None] * w + x

        with_grad = ScalarField(value=value, grad=grad)
        without = ScalarField(value=value)
        for _ in range(20):
            x = rng.normal(size=4)
            g1, g2 = with_grad.gradient(x), without.gradient(x)
            assert np.max(np.abs(g1 - g2)) <= 1e-5 * (1.0 + np.max(np.abs(g1)))

    @pytest.mark.parametrize("dim", [3, 6])
    def test_fd_jacobian_matches_per_state_loop(self, dim):
        # reference: one state, step 1e-5 (1 + |x|), one coordinate at a time
        def reference(fn, x):
            h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
            g = np.empty_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
            return g

        def value(x):
            return np.sin(x[..., 0] * x[..., -1]) + 0.5 * np.sum(x ** 3, axis=-1)

        rng = np.random.default_rng(12)
        xs = rng.normal(scale=3.0, size=(50, dim))
        for x in xs:
            assert np.array_equal(fd_jacobian(value, x), reference(value, x))
        # a batch steps each row by its own norm: rows equal single states
        batch = fd_jacobian(value, xs)
        assert np.array_equal(batch, np.array([fd_jacobian(value, x) for x in xs]))
        # one call on all shifted copies, in either layout; a contiguous result
        calls = []
        counted = lambda x: calls.append(x.shape) or value(x)  # noqa: E731
        comp = np.moveaxis(np.ascontiguousarray(xs.T), 0, -1)
        assert np.array_equal(fd_jacobian(counted, comp), batch)
        assert calls == [(2, dim, 50, dim)] and batch.flags.c_contiguous

    @pytest.mark.parametrize("layout", ["row-major", "component-major"])
    def test_whole_array_value_matches_each_state(self, layout):
        rng = np.random.default_rng(10)
        for f, dim in builtin_fields():
            states = rng.normal(size=(5, 7, dim))
            if layout == "component-major":
                states = np.moveaxis(np.ascontiguousarray(np.moveaxis(states, -1, 0)), 0, -1)
            whole = f.evaluate(states)
            each = np.array([f(x) for x in states.reshape(-1, dim)]).reshape(5, 7)
            assert np.array_equal(whole, each), f.name
            grad = f.gradient(states)
            each = np.array([f.gradient(x) for x in states.reshape(-1, dim)])
            assert np.array_equal(grad, each.reshape(grad.shape)), f.name

    def test_wrong_shape_names_the_field(self):
        pointwise = ScalarField(value=lambda m: float(m[2]), name="pointwise m3")
        vector = ScalarField(value=lambda m: 2.0 * m, name="doubled")
        states = np.ones((4, 3))
        with pytest.raises(ValueError, match="'pointwise m3'"):
            pointwise.evaluate(states)
        with pytest.raises(ValueError, match=r"'doubled' returned shape \(4, 3\)"):
            vector.evaluate(states)

    def test_wrong_gradient_shape_names_the_field(self):
        one_state = ScalarField(value=lambda m: m[..., 2], grad=lambda m: np.array([0.0, 0.0, 1.0]),
                                name="one-state grad")
        states = np.ones((4, 3))
        with pytest.raises(ValueError, match=r"'one-state grad' gradient returned shape \(3,\)"):
            one_state.gradient(states)
        assert ScalarField.coordinate(0, 3).gradient(states).shape == (4, 3)

    def test_pointwise_value_refused_by_fd_gradient(self):
        # the finite-difference fallback evaluates all shifted states in one
        # call, so a value that takes one state fails there, even on one state
        pointwise = ScalarField(value=lambda m: float(m[2]), name="pointwise m3")
        with pytest.raises(ValueError, match="'pointwise m3'"):
            pointwise.gradient(np.ones(3))
        with pytest.raises(ValueError, match="'pointwise m3'"):
            pointwise.gradient(np.ones((4, 3)))
        bracket = LiePoissonBracket(builtin("so3"))
        with pytest.raises(ValueError, match="'pointwise m3'"):
            double_bracket(bracket, ScalarField.linear([0.0, 0.0, 1.0]), pointwise, np.ones(3))
