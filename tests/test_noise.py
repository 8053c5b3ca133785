import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coadjoint import noise
from coadjoint.noise import (
    GENERATOR_ID,
    NoiseSpec,
    coarsen,
    read_grid,
    sample_grid,
    time_grid,
    write_grid,
    _increment_blocks,
    _increments,
)


def spec(channels=2, seed=42):
    return NoiseSpec(channels=channels, xi=np.zeros((channels, 3)), seed=seed)


class TestSampling:
    def test_deterministic(self):
        a = sample_grid(spec(), 1.0, 256)
        b = sample_grid(spec(), 1.0, 256)
        assert np.array_equal(a.dW, b.dW)
        assert a.generator == GENERATOR_ID

    def test_channels_differ_and_seeds_differ(self):
        g = sample_grid(spec(), 1.0, 256)
        assert not np.array_equal(g.dW[:, 0], g.dW[:, 1])
        other = sample_grid(spec(seed=43), 1.0, 256)
        assert not np.array_equal(g.dW, other.dW)

    def test_mean_bound_large_grid(self):
        g = sample_grid(spec(channels=1, seed=7), 1.0, 2 ** 16)
        bound = 5.0 * np.sqrt(1.0 / 2 ** 16) / np.sqrt(2 ** 16)
        assert abs(np.mean(g.dW)) <= bound

    def test_variance_within_sampling_noise(self):
        g = sample_grid(spec(channels=3, seed=1), 2.0, 2 ** 12)
        assert g.variance_deviation() <= 5.0

    def test_zero_channels(self):
        g = sample_grid(spec(channels=0), 1.0, 8)
        assert g.dW.shape == (8, 0)
        assert g.variance_deviation() == 0.0

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            sample_grid(spec(), 1.0, 100)
        with pytest.raises(ValueError, match="power of two"):
            sample_grid(spec(), 1.0, 0)
        with pytest.raises(ValueError, match="positive"):
            sample_grid(spec(), -1.0, 8)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, T):
        for make in (sample_grid, lambda _, T, M: time_grid(T, M)):
            with pytest.raises(ValueError, match=r"horizon T must be positive and finite, got"):
                make(spec(), T, 8)

    def test_time_grid_allows_any_steps(self):
        g = time_grid(1.0, 10000)
        assert g.steps == 10000
        assert g.channels == 0

    def test_time_grid_claims_no_generator(self, tmp_path):
        g = time_grid(1.0, 8)
        assert g.seed is None and g.generator is None
        with pytest.raises(ValueError, match="no noise"):
            write_grid(tmp_path / "grid.bin", g)


class TestEnsembleKeying:
    def test_channel_is_philox_stream(self):
        # channel k of seed s is the first M draws of Philox keyed (s, k)
        g = sample_grid(spec(seed=11), 0.5, 64)
        for k in range(2):
            gen = np.random.Generator(np.random.Philox(key=[11, k]))
            assert np.array_equal(g.dW[:, k], gen.standard_normal(64) * np.sqrt(0.5 / 64))

    def test_path_zero_is_sample_grid(self):
        table = _increments(42, 2, 1.0, 256, 5)
        assert table.shape == (256, 5, 2)
        assert np.array_equal(table[:, 0, :], sample_grid(spec(), 1.0, 256).dW)

    @pytest.mark.parametrize("seed", [0, 41, 2 ** 32 + 7])
    def test_neighbouring_seeds_share_no_increment(self, seed):
        a = _increments(seed, 2, 1.0, 64, 16)
        b = _increments(seed + 1, 2, 1.0, 64, 16)
        assert np.intersect1d(a, b).size == 0
        assert np.unique(a).size == a.size

    @pytest.mark.parametrize("fill_rows", [1, 7, 1024])
    @pytest.mark.parametrize("j", [0, 1023, 1024, 9999])
    def test_path_independent_of_ensemble_size_and_fill(self, monkeypatch, j, fill_rows):
        alone = _increments(5, 2, 1.0, 8, j + 1)[:, j, :]
        monkeypatch.setattr(noise, "_FILL_ROWS", fill_rows)
        assert np.array_equal(_increments(5, 2, 1.0, 8, j + 1)[:, j, :], alone)
        assert np.array_equal(_increments(5, 2, 1.0, 8, 10_000)[:, j, :], alone)

    @pytest.mark.parametrize("fill_rows", [3, 1024])
    @pytest.mark.parametrize("blocks", [[1, 1, 1], [5, 2, 9], [17], [4, 0, 13]])
    def test_blocks_continue_the_streams(self, monkeypatch, blocks, fill_rows):
        # consecutive blocks are the whole table cut along its path axis
        monkeypatch.setattr(noise, "_FILL_ROWS", fill_rows)
        draw = _increment_blocks(7, 3, 0.5, 16)
        tables = [draw(n) for n in blocks]
        assert [t.shape for t in tables] == [(16, n, 3) for n in blocks]
        assert np.array_equal(np.concatenate(tables, axis=1), _increments(7, 3, 0.5, 16, sum(blocks)))

    def test_seed_range_checked(self):
        with pytest.raises(ValueError, match="64 bits"):
            _increments(-1, 1, 1.0, 8, 4)
        with pytest.raises(ValueError, match="64 bits"):
            _increments(2 ** 64, 1, 1.0, 8, 4)


class TestCoarsen:
    def test_identity(self):
        g = sample_grid(spec(), 1.0, 64)
        assert coarsen(g, 1) is g

    def test_composition_bitwise(self):
        g = sample_grid(spec(), 1.0, 256)
        twice = coarsen(coarsen(g, 2), 2)
        once = coarsen(g, 4)
        assert np.array_equal(twice.dW, once.dW)
        assert twice.steps == 64

    def test_total_displacement_preserved(self):
        g = sample_grid(spec(), 1.0, 512)
        for factor in (2, 8, 64):
            c = coarsen(g, factor)
            assert np.allclose(np.sum(c.dW, axis=0), np.sum(g.dW, axis=0), atol=1e-12)

    @given(ex=st.integers(0, 6))
    @settings(max_examples=7, deadline=None)
    def test_variance_scales_with_step(self, ex):
        g = sample_grid(spec(channels=1, seed=3), 1.0, 2 ** 10)
        c = coarsen(g, 2 ** ex)
        assert c.dt == pytest.approx(2.0 ** ex / 2 ** 10)
        assert c.variance_deviation() <= 5.0

    def test_invalid_factor(self):
        g = sample_grid(spec(), 1.0, 64)
        with pytest.raises(ValueError, match="power of two"):
            coarsen(g, 3)
        with pytest.raises(ValueError, match="divide"):
            coarsen(g, 128)


class TestIO:
    def test_roundtrip_bitwise(self, tmp_path):
        g = sample_grid(spec(channels=3, seed=99), 0.5, 128)
        path = tmp_path / "grid.bin"
        write_grid(path, g)
        back = read_grid(path)
        assert back.T == g.T
        assert back.steps == g.steps
        assert back.seed == g.seed
        assert back.generator == g.generator
        assert np.array_equal(back.dW, g.dW)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a grid" * 10)
        with pytest.raises(ValueError, match="magic"):
            read_grid(path)

    def test_detects_truncation(self, tmp_path):
        g = sample_grid(spec(), 1.0, 64)
        path = tmp_path / "grid.bin"
        write_grid(path, g)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_grid(path)


class TestSpecValidation:
    def test_xi_shape(self):
        with pytest.raises(ValueError, match="algebra vectors"):
            NoiseSpec(channels=2, xi=np.zeros((3, 3)), seed=0)

    def test_make_helper(self):
        s = NoiseSpec.make([[1.0, 0.0, 0.0]], seed=5)
        assert s.channels == 1
        empty = NoiseSpec.make([], seed=5)
        assert empty.channels == 0

    def test_zero_channels_keep_algebra_dimension(self):
        assert NoiseSpec(channels=0, xi=np.zeros((0, 3))).xi.shape == (0, 3)
        assert NoiseSpec.make(np.zeros((0, 3)), seed=5).xi.shape == (0, 3)
        assert NoiseSpec.make([], seed=5).xi.shape == (0, 0)
