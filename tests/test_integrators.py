import csv

import numpy as np
import pytest
from scipy.linalg import expm

from coadjoint.algebra import builtin
from coadjoint.diagnostics import empirical_order
from coadjoint.dynamics import lie_poisson_system
from coadjoint.integrators import (
    IntegrationDiverged,
    SdeSystem,
    Trajectory,
    _drive,
    euler_ito_step,
    heun_stratonovich_step,
    integrate,
    write_trajectory_csv,
)
from coadjoint.noise import BrownianGrid, NoiseSpec, _increment_blocks, coarsen, sample_grid, time_grid


def scalar_multiplicative(with_correction=True):
    """dx = x o dW (Stratonovich), exact solution x0 exp(W_t)."""
    return SdeSystem(
        state_dim=1,
        channels=1,
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: x[..., None, :],
        ito_correction=(lambda t, x: 0.5 * x) if with_correction else None,
        labels=("x",),
        name="geometric",
    )


def additive(sigma=0.7):
    return SdeSystem(
        state_dim=1,
        channels=1,
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: np.full_like(x, sigma)[..., None, :],
        ito_correction=lambda t, x: np.zeros_like(x),
        labels=("x",),
    )


def additive_plane(sigma=0.7):
    """dx = sigma dW on both coordinates of the plane."""
    return SdeSystem(
        state_dim=2,
        channels=1,
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: np.full_like(x, sigma)[..., None, :],
    )


class TestHeunStep:
    def test_deterministic_reduction_linear_drift(self):
        a = 1.3
        sys = SdeSystem(1, 0, drift=lambda t, x: a * x,
                        diffusion=lambda t, x: x[..., None, :], ito_correction=None)
        dt = 1e-2
        x1 = heun_stratonovich_step(sys, 0.0, np.array([1.0]), dt, np.zeros(0))
        exact = np.exp(a * dt)
        heun_exact = 1.0 + a * dt + 0.5 * (a * dt) ** 2
        assert x1[0] == pytest.approx(heun_exact, abs=1e-15)
        assert abs(x1[0] - exact) <= (a * dt) ** 3

    def test_additive_noise_exact(self):
        sys = additive(0.7)
        dW = np.array([0.35])
        x1 = heun_stratonovich_step(sys, 0.0, np.array([2.0]), 0.1, dW)
        assert x1[0] == pytest.approx(2.0 + 0.7 * 0.35, abs=0.0)

    def test_strong_convergence_to_exponential(self):
        spec = NoiseSpec(channels=1, xi=np.zeros((1, 1)), seed=31)
        fine = sample_grid(spec, 1.0, 2 ** 12)
        sys = scalar_multiplicative()
        errs, hs = [], []
        for ex in (6, 7, 8, 9, 10):
            g = coarsen(fine, 2 ** 12 // 2 ** ex)
            traj = integrate(sys, "heun_strat", g, np.array([1.0]))
            w = np.concatenate([[0.0], np.cumsum(g.dW[:, 0])])
            errs.append(float(np.max(np.abs(traj.states[:, 0] - np.exp(w)))))
            hs.append(1.0 / 2 ** ex)
        assert errs[-1] < errs[0]
        order = empirical_order(hs, errs)
        assert 0.4 <= order <= 1.5


class TestEulerItoStep:
    def test_requires_correction(self):
        sys = scalar_multiplicative(with_correction=False)
        with pytest.raises(ValueError, match="ito_correction"):
            euler_ito_step(sys, 0.0, np.array([1.0]), 0.1, np.array([0.1]))

    def test_converges_to_exponential(self):
        spec = NoiseSpec(channels=1, xi=np.zeros((1, 1)), seed=8)
        fine = sample_grid(spec, 1.0, 2 ** 12)
        sys = scalar_multiplicative()
        errs = []
        for ex in (8, 10, 12):
            g = coarsen(fine, 2 ** 12 // 2 ** ex)
            traj = integrate(sys, "euler_ito", g, np.array([1.0]))
            w = np.sum(g.dW[:, 0])
            errs.append(abs(traj.states[-1, 0] - np.exp(w)))
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.05

    def test_zero_noise_is_explicit_euler(self):
        sys = SdeSystem(1, 0, drift=lambda t, x: 2.0 * x,
                        diffusion=lambda t, x: x[..., None, :],
                        ito_correction=lambda t, x: np.zeros_like(x))
        x1 = euler_ito_step(sys, 0.0, np.array([1.0]), 0.25, np.zeros(0))
        assert x1[0] == pytest.approx(1.5, abs=0.0)

    def test_additive_matches_heun(self):
        sys = additive(1.1)
        dW = np.array([-0.4])
        xh = heun_stratonovich_step(sys, 0.0, np.array([0.3]), 0.05, dW)
        xi = euler_ito_step(sys, 0.0, np.array([0.3]), 0.05, dW)
        assert xh[0] == pytest.approx(xi[0], abs=1e-16)


class TestRk4:
    def test_constant_drift_exact(self):
        sys = SdeSystem(2, 0, drift=lambda t, x: np.array([3.0, -1.0]),
                        diffusion=lambda t, x: x[..., None, :])
        out = integrate(sys, "rk4", time_grid(0.5, 1), np.array([0.0, 0.0])).final()
        assert np.allclose(out, [1.5, -0.5], atol=0.0)

    def test_linear_drift_matches_expm(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3))
        x0 = rng.normal(size=3)
        grid = time_grid(1.0, 1000)
        sys = SdeSystem(3, 0, drift=lambda t, x: A @ x, diffusion=lambda t, x: x[..., None, :])
        traj = integrate(sys, "rk4", grid, x0)
        exact = expm(A) @ x0
        rel = np.linalg.norm(traj.final() - exact) / np.linalg.norm(exact)
        assert rel <= 1e-8

    def test_harmonic_oscillator_energy_drift(self):
        def drift(t, x):
            return np.array([x[1], -x[0]])

        grid = time_grid(10.0, 10_000)
        sys = SdeSystem(2, 0, drift=drift, diffusion=lambda t, x: x[..., None, :])
        traj = integrate(sys, "rk4", grid, np.array([1.0, 0.0]))
        energy = 0.5 * np.sum(traj.states ** 2, axis=1)
        assert np.max(np.abs(energy - energy[0])) <= 10.0 * (1e-3) ** 4


class TestIntegrate:
    def test_single_step_two_states(self):
        g = time_grid(1.0, 1)
        sys = SdeSystem(1, 0, drift=lambda t, x: np.ones_like(x),
                        diffusion=lambda t, x: x[..., None, :])
        traj = integrate(sys, "rk4", g, np.array([0.0]))
        assert traj.states.shape == (2, 1)
        assert traj.times[-1] == 1.0

    def test_bit_identical_reruns(self):
        spec = NoiseSpec(channels=1, xi=np.zeros((1, 1)), seed=5)
        g = sample_grid(spec, 1.0, 64)
        sys = scalar_multiplicative()
        t1 = integrate(sys, "heun_strat", g, np.array([1.0]))
        t2 = integrate(sys, "heun_strat", g, np.array([1.0]))
        assert np.array_equal(t1.states, t2.states)

    def test_channel_mismatch(self):
        spec = NoiseSpec(channels=2, xi=np.zeros((2, 1)), seed=5)
        g = sample_grid(spec, 1.0, 8)
        with pytest.raises(ValueError, match="channels"):
            integrate(scalar_multiplicative(), "heun_strat", g, np.array([1.0]))

    def test_grid_channels_must_match_system(self):
        # one check, in the run set-up, names dW and the system
        so3 = builtin("so3")
        sys = lie_poisson_system(so3, np.eye(3), NoiseSpec.make(np.eye(3)[:2], seed=0))
        g = sample_grid(NoiseSpec.make(np.eye(3)[:1], seed=0), 1.0, 8)
        with pytest.raises(ValueError, match="^dW holds 1 increments per step, system "
                                             r"'lie_poisson\[so3\]' has 2 noise channels$"):
            integrate(sys, "heun_strat", g, np.array([0.8, 0.3, 0.5]))

    def test_rk4_rejects_noise(self):
        # rk4 steps the drift alone and would silently drop the noise
        with pytest.raises(ValueError, match="rk4.*1 noise channels"):
            integrate(scalar_multiplicative(), "rk4", time_grid(1.0, 4), np.array([1.0]))

    def test_rk4_ignores_sampled_channels(self):
        # a noise-free system stepped by rk4 on a sampled grid that carries
        # increments takes only the number of steps from it
        sys = SdeSystem(1, 0, drift=lambda t, x: -x, diffusion=lambda t, x: x[..., None, :])
        sampled = sample_grid(NoiseSpec(channels=2, xi=np.eye(2), seed=3), 1.0, 8)
        plain = integrate(sys, "rk4", time_grid(1.0, 8), np.array([1.0]))
        assert np.array_equal(integrate(sys, "rk4", sampled, np.array([1.0])).states,
                              plain.states)

    def test_unknown_scheme(self):
        g = time_grid(1.0, 4)
        with pytest.raises(ValueError, match="scheme"):
            integrate(scalar_multiplicative(), "milstein", g, np.array([1.0]))

    def test_divergence_carries_step_and_partial(self):
        sys = SdeSystem(1, 0, drift=lambda t, x: x ** 3,
                        diffusion=lambda t, x: x[..., None, :])
        g = time_grid(10.0, 64)
        with pytest.raises(IntegrationDiverged) as err:
            integrate(sys, "rk4", g, np.array([5.0]))
        assert err.value.step >= 1
        assert err.value.partial is not None
        assert err.value.partial.metadata["diverged_at"] == err.value.step
        assert np.all(np.isfinite(err.value.partial.states))

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(times=np.array([0.0, 0.5, 2.0]), states=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)))


def _first_divergence(sys, x0, dt, dW):
    """(step, last finite state, path) of the first step whose state has a
    non-finite entry, found by checking every entry after each step."""
    x = np.array(x0)
    for i in range(len(dW)):
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = heun_stratonovich_step(sys, i * dt, x, dt, dW[i])
        finite = np.isfinite(x_new).all(axis=-1)
        if not finite.all():
            if x.ndim == 1:
                return i + 1, x, None
            bad = int(np.argmin(finite))
            return i + 1, x[bad], bad
        x = x_new
    return None


def _blowing_up(bad):
    """dx = f(x) dt + x o dW with f(x) = x**3 (bad = inf: overflow) or
    f(x) = x until an entry passes 2, then NaN (bad = nan)."""
    if bad == "inf":
        def drift(t, x):
            return x ** 3
    else:
        def drift(t, x):
            return np.where(x > 2.0, np.nan, x)
    return SdeSystem(2, 1, drift=drift, diffusion=lambda t, x: x[..., None, :])


class TestDivergenceCheck:
    def test_finite_state_whose_sum_overflows_keeps_stepping(self):
        # every entry is finite though their sum is not
        x0 = np.array([1e308, 1e308])
        dW = _increment_blocks(3, 1, 1.0, 16)(7)
        states = np.empty((17, 7, 2))
        final = _drive(additive_plane(), "heun_strat", np.tile(x0, (7, 1)), 1.0 / 16, dW,
                       states=states)
        assert np.all(np.isfinite(states))
        assert np.array_equal(final, np.tile(x0, (7, 1)))
        grid = BrownianGrid(T=1.0, steps=16, dW=dW[:, 0], seed=3)
        traj = integrate(additive_plane(), "heun_strat", grid, x0)
        assert np.array_equal(traj.final(), x0)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(traj.final()))

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_divergence_reports_first_bad_step_and_path(self, bad):
        sys = _blowing_up(bad)
        # the largest row, which diverges first, is row 3
        x0 = np.linspace(0.4, 1.2, 14).reshape(7, 2)[[2, 5, 0, 6, 1, 4, 3]]
        T, M = 2.0, 64
        dW = _increment_blocks(4, 1, T, M)(7)
        step, last, path = _first_divergence(sys, x0, T / M, dW)
        assert path == 3
        with pytest.raises(IntegrationDiverged) as err:
            _drive(sys, "heun_strat", x0, T / M, dW, first_path=100)
        assert (err.value.step, err.value.path) == (step, 100 + path)
        assert np.array_equal(err.value.last_state, last)
        for j in (1, 3):
            step, last, _ = _first_divergence(sys, x0[j], T / M, dW[:, j])
            grid = BrownianGrid(T=T, steps=M, dW=dW[:, j], seed=4)
            with pytest.raises(IntegrationDiverged) as err:
                integrate(sys, "heun_strat", grid, x0[j])
            assert (err.value.step, err.value.path) == (step, None)
            assert np.array_equal(err.value.last_state, last)
            assert np.array_equal(err.value.partial.states[-1], last)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        spec = NoiseSpec(channels=1, xi=np.zeros((1, 1)), seed=77)
        g = sample_grid(spec, 1.0, 32)
        traj = integrate(scalar_multiplicative(), "heun_strat", g, np.array([1.0]))
        csv_path = tmp_path / "traj.csv"
        meta_path = tmp_path / "traj.meta.json"
        write_trajectory_csv(traj, csv_path, meta_path)
        with open(csv_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        back = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(back[:, 1:], traj.states)
        assert np.array_equal(back[:, 0], traj.times)
        assert header == ["t", "x"]
        assert meta_path.exists()

    def test_rewrite_byte_identical(self, tmp_path):
        spec = NoiseSpec(channels=1, xi=np.zeros((1, 1)), seed=78)
        g = sample_grid(spec, 1.0, 32)
        traj = integrate(scalar_multiplicative(), "heun_strat", g, np.array([1.0]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, p1)
        write_trajectory_csv(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()
