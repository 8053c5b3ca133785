import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coadjoint.algebra import builtin
from coadjoint.diagnostics import empirical_order, observable_series, strong_error
from coadjoint.dynamics import casimir, lie_poisson_system
from coadjoint.fields import ScalarField
from coadjoint.integrators import Trajectory, integrate, write_trajectory_csv
from coadjoint.noise import NoiseSpec, coarsen, sample_grid


def rigid_traj(M=256, seed=0):
    so3 = builtin("so3")
    noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=seed)
    sys = lie_poisson_system(so3, np.diag([1.0, 0.5, 1 / 3]), noise)
    g = sample_grid(noise, 1.0, M)
    return integrate(sys, "heun_strat", g, np.array([0.8, 0.3, 0.5]))


class TestObservableSeries:
    def test_constant_observable_all_zero(self):
        traj = rigid_traj(64)
        series = observable_series(traj, ScalarField.constant(3.0))
        assert series.states.shape == (65, 1)
        assert np.all(series.states == 0.0)
        assert series.states[0, 0] == 0.0

    def test_casimir_drift_shrinks_with_refinement(self):
        so3 = builtin("so3")
        C = casimir(so3)
        sups = [observable_series(rigid_traj(M), C).sup() for M in (128, 2048)]
        assert sups[1] < sups[0]

    def test_series_csv(self, tmp_path):
        traj = rigid_traj(16)
        series = observable_series(traj, casimir(builtin("so3")))
        path = tmp_path / "drift.csv"
        write_trajectory_csv(series, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,casimir"
        assert len(rows) == 18

    def test_pointwise_field_rejected(self):
        pointwise = ScalarField(value=lambda m: float(m @ m), name="pointwise casimir")
        with pytest.raises(ValueError, match="'pointwise casimir'"):
            observable_series(rigid_traj(16), pointwise)


class TestStrongError:
    def test_identical_trajectories(self):
        traj = rigid_traj(64)
        assert strong_error(traj, traj) == 0.0

    def test_subsamples_finer_grid(self):
        so3 = builtin("so3")
        noise = NoiseSpec.make([[0.0, 0.0, 1.0]], seed=3)
        sys = lie_poisson_system(so3, np.diag([1.0, 0.5, 1 / 3]), noise)
        fine_grid = sample_grid(noise, 1.0, 512)
        fine = integrate(sys, "heun_strat", fine_grid, np.array([0.8, 0.3, 0.5]))
        coarse = integrate(sys, "heun_strat", coarsen(fine_grid, 4),
                           np.array([0.8, 0.3, 0.5]))
        err_ab = strong_error(coarse, fine)
        err_ba = strong_error(fine, coarse)
        assert err_ab == err_ba
        assert 0.0 < err_ab < 0.1

    def test_incompatible_grids(self):
        a = Trajectory(times=np.linspace(0, 1, 4), states=np.zeros((4, 2)))
        b = Trajectory(times=np.linspace(0, 1, 5), states=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="incompatible|multiple"):
            strong_error(a, b)

    def test_different_state_spaces(self):
        a = Trajectory(times=np.linspace(0, 1, 4), states=np.zeros((4, 2)))
        b = Trajectory(times=np.linspace(0, 1, 4), states=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="state spaces"):
            strong_error(a, b)


class TestEmpiricalOrder:
    def test_linear_errors(self):
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        assert empirical_order(hs, hs) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_errors(self):
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        assert empirical_order(hs, hs ** 2) == pytest.approx(2.0, abs=1e-12)

    @given(
        k=st.floats(0.25, 3.0),
        c=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovers_power_law(self, k, c):
        hs = np.array([2.0 ** -e for e in range(4, 10)])
        errs = c * hs ** k
        assert empirical_order(hs, errs) == pytest.approx(k, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least 3"):
            empirical_order([0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            empirical_order([0.1, 0.05, 0.025], [1.0, 0.0, 0.5])
