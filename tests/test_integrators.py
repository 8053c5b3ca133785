import csv
import math
import types

import numpy as np
import pytest
from scipy.linalg import expm

from coadjoint.algebra import builtin
from coadjoint.diagnostics import empirical_order
from coadjoint.dynamics import lie_poisson_system
from coadjoint import integrators
from coadjoint.integrators import (
    IntegrationDiverged,
    SdeSystem,
    Trajectory,
    _drive,
    _one_step,
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
        # rk4 steps the drift alone and would silently drop the noise, on
        # a recorded path and in the driver that ensembles step through
        with pytest.raises(ValueError, match="rk4.*1 noise channels"):
            integrate(scalar_multiplicative(), "rk4", time_grid(1.0, 4), np.array([1.0]))
        with pytest.raises(ValueError, match="rk4.*1 noise channels"):
            _drive(scalar_multiplicative(), "rk4", np.ones((3, 1)), 0.25, np.zeros((4, 3, 1)))

    def test_rk4_refuses_sampled_channels(self):
        # rk4 checks its increments like every scheme: a noise-free system
        # on a sampled grid that carries increments is refused by the same
        # run set-up check that names dW and the system
        sys = SdeSystem(1, 0, drift=lambda t, x: -x, diffusion=lambda t, x: x[..., None, :],
                        name="decay")
        sampled = sample_grid(NoiseSpec(channels=2, xi=np.eye(2), seed=3), 1.0, 8)
        with pytest.raises(ValueError, match="^dW holds 2 increments per step, system "
                                             "'decay' has 0 noise channels$"):
            integrate(sys, "rk4", sampled, np.array([1.0]))

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


def _stepwise_divergence(sys, scheme, x0, dt, dW):
    """(step, last finite state, path, states so far) of the first step
    whose state has a non-finite entry, testing every entry after every
    step, or None."""
    x, states = np.array(x0), [np.array(x0)]
    for i in range(len(dW)):
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = _one_step(sys, scheme, i * dt, x, dt, dW[i])
        finite = np.isfinite(x_new).all(axis=-1)
        if not finite.all():
            if x.ndim == 1:
                return i + 1, x, None, np.array(states)
            bad = int(np.argmin(finite))
            return i + 1, x[bad], bad, np.array(states)
        x = x_new
        states.append(x)
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
        step, last, path, _ = _stepwise_divergence(sys, "heun_strat", x0, T / M, dW)
        assert path == 3
        with pytest.raises(IntegrationDiverged) as err:
            _drive(sys, "heun_strat", x0, T / M, dW, first_path=100)
        assert (err.value.step, err.value.path) == (step, 100 + path)
        assert np.array_equal(err.value.last_state, last)
        for j in (1, 3):
            step, last, _, _ = _stepwise_divergence(sys, "heun_strat", x0[j], T / M, dW[:, j])
            grid = BrownianGrid(T=T, steps=M, dW=dW[:, j], seed=4)
            with pytest.raises(IntegrationDiverged) as err:
                integrate(sys, "heun_strat", grid, x0[j])
            assert (err.value.step, err.value.path) == (step, None)
            assert np.array_equal(err.value.last_state, last)
            assert np.array_equal(err.value.partial.states[-1], last)


def _bursting(bad, channels):
    """x = (s, b) with ds = dt + 0 o dW, db = 0: a state whose s passes b
    gets drift ``bad`` (inf or NaN) in s.  With dt = 1, Heun's corrector
    and rk4's last stage see s + 1, so a path from (0, k - 1/2) diverges at
    step k; Euler-Ito sees s alone, and one from (0, k - 3/2) does.  A
    non-finite s gets drift 1 again: a blown-up state need not make its
    fields return non-finite values."""
    def drift(t, x):
        out = np.zeros_like(x)
        out[..., 0] = np.where(x[..., 0] > x[..., 1], bad, 1.0)
        return out

    return SdeSystem(2, channels, drift=drift,
                     diffusion=lambda t, x: np.zeros(x.shape[:-1] + (channels, 2)),
                     ito_correction=lambda t, x: np.zeros_like(x), name="bursting")


class TestBlockCheck:
    """The driver tests finiteness once per block of _CHECK_STEPS steps and
    replays a failed block step by step; it must report exactly what a test
    after every step reports."""

    M = 2 * integrators._CHECK_STEPS + 5
    # step 1, mid-block, the last step of a block, the first step of the
    # next block and the final step of the run (in a short last block)
    STEPS = [1, 30, integrators._CHECK_STEPS, integrators._CHECK_STEPS + 1, M]

    def _case(self, scheme, bad, diverge_at):
        channels = 0 if scheme == "rk4" else 2
        sys = _bursting(bad, channels)
        dW = np.random.default_rng(diverge_at).normal(size=(self.M, 5, channels))
        # rows diverge at diverge_at + (3, 0, 5, 0, 1): rows 1 and 3 first
        x0 = np.zeros((5, 2))
        x0[:, 1] = diverge_at + np.array([3, 0, 5, 0, 1]) - (1.5 if scheme == "euler_ito" else 0.5)
        return sys, x0, dW

    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito", "rk4"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("diverge_at", STEPS)
    def test_single_path_matches_per_step_test(self, scheme, bad, diverge_at):
        sys, x0, dW = self._case(scheme, bad, diverge_at)
        step, last, path, states = _stepwise_divergence(sys, scheme, x0[1], 1.0, dW[:, 1])
        assert (step, path) == (diverge_at, None)
        grid = BrownianGrid(T=float(self.M), steps=self.M, dW=dW[:, 1], seed=0)
        with pytest.raises(IntegrationDiverged,
                           match=f"integration diverged at step {diverge_at};") as err:
            integrate(sys, scheme, grid, x0[1])
        assert (err.value.step, err.value.path) == (step, None)
        assert np.array_equal(err.value.last_state, last)
        partial = err.value.partial
        assert partial.metadata["diverged_at"] == step
        assert np.array_equal(partial.states, states)
        assert np.array_equal(partial.times, np.arange(step) * 1.0)
        # unrecorded, the driver keeps the block's first state itself
        with pytest.raises(IntegrationDiverged) as err:
            _drive(sys, scheme, x0[1], 1.0, dW[:, 1])
        assert err.value.step == step and np.array_equal(err.value.last_state, last)

    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("scheme", ["heun_strat", "euler_ito", "rk4"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("diverge_at", STEPS)
    def test_batch_matches_per_step_test(self, scheme, bad, diverge_at, recorded):
        sys, x0, dW = self._case(scheme, bad, diverge_at)
        step, last, path, states = _stepwise_divergence(sys, scheme, x0, 1.0, dW)
        assert (step, path) == (diverge_at, 1)
        recorded_states = np.full((self.M + 1,) + x0.shape, -1.0) if recorded else None
        with pytest.raises(IntegrationDiverged,
                           match=f"ensemble path 8 diverged at step {diverge_at};") as err:
            _drive(sys, scheme, x0, 1.0, dW, states=recorded_states, first_path=7)
        assert (err.value.step, err.value.path) == (step, 7 + path)
        assert np.array_equal(err.value.last_state, last)
        if recorded:
            assert np.array_equal(recorded_states[:step], states)

    @pytest.mark.parametrize("diverge_at", STEPS)
    def test_steps_at_most_a_block_past_a_blowup(self, diverge_at):
        sys, x0, dW = self._case("heun_strat", np.inf, diverge_at)
        seen = []
        counted = SdeSystem(2, 2, drift=lambda t, x: seen.append(t) or sys.drift(t, x),
                            diffusion=sys.diffusion)
        with pytest.raises(IntegrationDiverged):
            _drive(counted, "heun_strat", x0, 1.0, dW)
        # step i's corrector evaluates at t = i: the run steps to the end
        # of the block that holds the blow-up, then replays that block
        n = integrators._CHECK_STEPS
        end = min(-(-diverge_at // n) * n, self.M)
        assert max(seen) == end and end - diverge_at <= n - 1
        assert seen[-1] == diverge_at

    def test_finite_run_tests_each_block_once(self, monkeypatch):
        tested = []
        monkeypatch.setattr(integrators, "math", types.SimpleNamespace(
            isfinite=lambda v: tested.append(v) or math.isfinite(v)))
        sys, x0, dW = self._case("heun_strat", np.inf, 10 * self.M)
        final = _drive(sys, "heun_strat", x0, 1.0, dW)
        assert len(tested) == -(-self.M // integrators._CHECK_STEPS)
        assert tested[-1] == np.sum(final)

    @pytest.mark.parametrize("check_steps", [1, 2, 3, 7])
    def test_outcome_independent_of_block_length(self, monkeypatch, check_steps):
        sys, x0, dW = self._case("heun_strat", np.nan, 30)
        step, last, path, states = _stepwise_divergence(sys, "heun_strat", x0, 1.0, dW)
        monkeypatch.setattr(integrators, "_CHECK_STEPS", check_steps)
        with pytest.raises(IntegrationDiverged) as err:
            _drive(sys, "heun_strat", x0, 1.0, dW, first_path=7)
        assert (err.value.step, err.value.path) == (step, 7 + path)
        assert np.array_equal(err.value.last_state, last)


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

    def test_floats_written_as_the_per_value_repr(self, tmp_path):
        # csv prints a Python float as its repr: the same bytes as formatting
        # each value with repr(float(v)), on the edge cases of that text
        rows = np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308],
                         [1.0, -2.0, 1e16, 3.0, 0.1, -1e-300, 2.0 ** 53]])
        path, expected = tmp_path / "rows.csv", tmp_path / "expected.csv"
        integrators._write_rows(path, ("a", "b", "c", "d", "e", "f", "g"), rows)
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("a", "b", "c", "d", "e", "f", "g"))
            writer.writerows([repr(float(v)) for v in row] for row in rows)
        assert path.read_bytes() == expected.read_bytes()
        assert path.read_text().splitlines()[1] == "-0.0,0.0,inf,-inf,nan,5e-324,1e+308"
