"""The layout rule: every array that a hot ufunc writes into starts on a
64-byte cache line, and the results do not depend on where arrays start."""

import numpy as np
import pytest

from coadjoint import algebra, dynamics, kolmogorov
from coadjoint.algebra import builtin
from coadjoint.dynamics import lie_poisson_system
from coadjoint.integrators import _run
from coadjoint.kolmogorov import (
    GridGeometry,
    _GridOperator,
    backward_solve,
    ensemble_finals,
    forward_solve,
    lie_poisson_generator,
)
from coadjoint.fields import ScalarField
from coadjoint.noise import NoiseSpec, _increment_blocks

SO3 = builtin("so3")
K_RIGID = np.diag([1.0, 0.5, 1.0 / 3.0])
XI_E1 = [[1.0, 0.0, 0.0]]
XI_PAIR = [[0.0, 0.0, 1.0], [0.3, 0.4, 0.1]]
X0 = np.array([0.8, 0.45, 0.3])


def on_line(a: np.ndarray) -> bool:
    return a.ctypes.data % 64 == 0


def rows_on_lines(a: np.ndarray, axis: int) -> bool:
    """Whether every row of ``a`` along ``axis``, its contiguous axis, starts on a line."""
    assert a.strides[axis] == 8
    starts = np.moveaxis(a, axis, -1)[..., :1]
    return all(on_line(starts[i]) for i in np.ndindex(starts.shape[:-1]))


def system(xi):
    return lie_poisson_system(SO3, K_RIGID, NoiseSpec.make(xi, 0))


def workspace(sys, x0, dW, run=None):
    """A run's workspace views as stepped: the two stage stacks, the
    predictor, the three states and every (inc, half) row of its table."""
    step, table, x, y, z, M = (run or _run(sys, "heun_strat", x0, 0.01, dW))(x0, dW)
    _, _, fx, out, _, _, xp = step.args
    incs = [a for _, inc, half in table(0, M) for a in (inc, half)]
    return [fx, out, xp, x, y, z], incs


class TestRunWorkspace:
    def test_single_path(self):
        sys = system(XI_PAIR)
        dW = _increment_blocks(3, 2, 1.0, 128)(1)[:, 0]
        stages, incs = workspace(sys, X0, dW)
        # two (3, 3) stacks, each a line or more, and the packed 3-vector states
        assert all(on_line(a) for a in stages[:3])
        # one table of 64 steps and its halves, laid out twice
        assert all(on_line(a) for a in incs[::2 * 64] + incs[1::2 * 64])

    @pytest.mark.parametrize("xi, paths", [(XI_E1, 10_000), (XI_PAIR, 7281)],
                             ids=["1e4 rows", "7281-row block"])
    def test_batch_rows_and_a_shorter_blocks_leading_slices(self, xi, paths):
        sys = system(xi)
        dW = _increment_blocks(3, len(xi), 1.0, 2)(paths).copy()
        x0s = np.broadcast_to(X0, (paths, 3))
        run = _run(sys, "heun_strat", x0s, 0.5, dW)
        for n in (paths, paths - 5, 3):
            stages, incs = workspace(sys, x0s[:n], dW[:, :n], run)
            assert stages[3].shape == (n, 3)
            # a stack (1 + C, n, d) or state (n, d) is component-major
            assert all(rows_on_lines(a, a.ndim - 2) for a in stages + incs)

    @pytest.mark.parametrize("lead", [(), (10_000,), (7281,)])
    def test_rows_of_W(self, monkeypatch, lead):
        made, stack_buffer = [], dynamics._stack_buffer

        def recording(*args):
            made.append(stack_buffer(*args))
            return made[-1]

        monkeypatch.setattr(dynamics, "_stack_buffer", recording)
        system(XI_PAIR).drift.stacked(lead)
        W, = made
        assert W.shape == (3,) + lead + (3,)
        # a single path's 3-vector rows are packed behind an aligned start
        assert on_line(W) if not lead else rows_on_lines(W, 1)


    @pytest.mark.parametrize("paths", [10_000, 7281])
    def test_scratch_of_the_fixed_noise_rows(self, monkeypatch, paths):
        # the drift row's triple kernel and the fixed noise rows share one
        # scratch row per block shape; XI_PAIR has no zero, so every so(3)
        # component of a noise row adds its second term through it
        made, aligned = [], algebra._aligned

        def recording(*args):
            made.append(aligned(*args))
            return made[-1]

        monkeypatch.setattr(algebra, "_aligned", recording)
        sys = system(XI_PAIR)
        x = np.broadcast_to(X0, (paths, 3)).copy(order="F")
        out = np.stack([np.empty((3, paths)).T] * 3)
        for n in (paths, paths - 5):
            sys.drift.stacked((paths,))(0.0, x[:n], out[:, :n])
        assert len(made) == 2 and all(on_line(a) for a in made)


class TestGridLayout:
    GEO = GridGeometry.cube(-1.4, 1.4, 48)

    @pytest.mark.parametrize("transposed", [False, True], ids=["A", "A^T"])
    def test_states_chunks_and_buffers(self, monkeypatch, transposed):
        made, padded = [], kolmogorov._padded

        def recording(shape):
            made.append(padded(shape))
            return made[-1]

        monkeypatch.setattr(kolmogorov, "_padded", recording)
        op = _GridOperator(lie_poisson_generator(SO3, K_RIGID, np.array(XI_PAIR)), self.GEO)
        if transposed:
            op = op.transposed()
        assert len(op.chunks) == 3 and on_line(op._out) and on_line(op._tmp)
        weights = len(made)
        kolmogorov._evolve(op, np.ones(self.GEO.shape), 1e-3, self.GEO, None)
        states = made[weights:]
        assert len(states) == 4
        for flat, interior in made if not transposed else states:
            assert on_line(interior[0, 0, 0:1])
            assert all(on_line(flat[c]) for c in op.chunks)


class TestNoiseTable:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_rows(self, channels):
        draw = _increment_blocks(5, channels, 1.0, 8)
        for paths in (7281, 5003, 3):
            table = draw(paths)
            assert all(on_line(row) for row in table)
        # one path's rows, narrower than a line, are packed, as sample_grid's are
        assert _increment_blocks(5, channels, 1.0, 8)(1).strides[0] == 8 * channels


def off_line(shape, first=0, alloc=np.empty, aligned=algebra._aligned):
    """``_aligned``'s array with entry ``first`` (of each row a line or more
    long) 8 bytes past a line."""
    *outer, n = shape
    return aligned((*outer, n + 1), first, alloc)[..., 1:]


class TestLayoutIndependence:
    """Arrays placed 8 bytes off a line give the same bits, signs of zero included."""

    @staticmethod
    def both(monkeypatch, compute):
        aligned = compute()
        monkeypatch.setattr(algebra, "_aligned", off_line)
        monkeypatch.setattr(kolmogorov, "_aligned", off_line)
        shifted = compute()
        assert np.array_equal(aligned, shifted)
        assert np.array_equal(np.signbit(aligned), np.signbit(shifted))

    def test_the_helper_is_shifted(self, monkeypatch):
        monkeypatch.setattr(algebra, "_aligned", off_line)
        assert all(row.ctypes.data % 64 == 8 for row in algebra._aligned((2, 9)))

    @pytest.mark.parametrize("xi, paths, M", [(XI_E1, 10_000, 256), (XI_PAIR, 5003, 2)],
                             ids=["1e4x256", "5003x2"])
    def test_ensemble_finals(self, monkeypatch, xi, paths, M):
        sys = system(xi)
        self.both(monkeypatch, lambda: ensemble_finals(sys, X0, 1.0, M, paths, seed=1))

    @pytest.mark.parametrize("xi", [XI_E1, XI_PAIR], ids=["e1", "pair"])
    def test_grid_solves(self, monkeypatch, xi):
        spec = lie_poisson_generator(SO3, K_RIGID, np.array(xi))
        geo, m3, x0 = GridGeometry.cube(-1.2, 1.2, 24), ScalarField.coordinate(2, 3), np.array([0.6, 0.0, 0.3])
        self.both(monkeypatch, lambda: np.stack([
            backward_solve(spec, m3, 0.2, geo).values, forward_solve(spec, x0, 0.2, geo).values]))
