"""Feature statistics, Frechet distances, warping distances, 2-D embedding."""

import tracemalloc

import numpy as np
import pytest

from decolite.data import synthetic_trend_dataset
from decolite.diversity import (Embedding2D, FeatureStats, _dtw_batch, dtw, embed_2d,
                                feature_statistics, fid, filter_distance_matrix)
from decolite.errors import ConfigError, InputError, UsageError
from decolite.model import LiteArchitectureConfig, init_model
from decolite.oracles import dtw_dp, dtw_enumerate


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture(scope="module")
def models():
    arch = LiteArchitectureConfig()
    return [init_model(arch, 2, seed) for seed in range(3)]


class TestFeatureStatistics:
    def test_duplicated_samples_give_zero_covariance(self, models):
        x = synthetic_trend_dataset(n=4, length=20, seed=0).X[:1]
        doubled = np.concatenate([x, x], axis=0)
        stats = feature_statistics(models[0], doubled)
        np.testing.assert_allclose(stats.sigma, 0.0, atol=1e-18)

    def test_sample_order_invariance(self, models):
        x = synthetic_trend_dataset(n=8, length=20, seed=1).X
        a = feature_statistics(models[0], x)
        b = feature_statistics(models[0], x[::-1].copy())
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, atol=1e-12)

    def test_hand_covariance_of_pooled_features(self):
        # bypass the network: the statistics operate on plain vectors
        pooled = np.array([[1.0, 2.0], [3.0, 5.0], [5.0, 11.0]])
        mu = pooled.mean(axis=0)
        centered = pooled - mu
        sigma = centered.T @ centered / 2.0
        np.testing.assert_allclose(mu, [3.0, 6.0])
        np.testing.assert_allclose(sigma, np.cov(pooled, rowvar=False, ddof=1))
        np.testing.assert_allclose(sigma, [[4.0, 9.0], [9.0, 21.0]])

    def test_dimension_and_symmetry_invariants(self, models):
        x = synthetic_trend_dataset(n=8, length=20, seed=1).X
        stats = feature_statistics(models[1], x, model_id="m1")
        assert stats.mu.shape == (32,)
        assert stats.sigma.shape == (32, 32)
        assert np.abs(stats.sigma - stats.sigma.T).max() < 1e-9
        assert stats.n_samples == 8

    def test_needs_two_samples(self, models):
        with pytest.raises(UsageError):
            feature_statistics(models[0], synthetic_trend_dataset(4, 20, 0).X[:1])

    def test_chunked_forwards_match_one_forward_in_bounded_memory(self, models):
        x = synthetic_trend_dataset(n=300, length=32, seed=2).X
        pooled = models[0].forward(x, mode="eval")[1].data.mean(axis=2)
        stats = feature_statistics(models[0], x)
        assert np.array_equal(stats.mu, pooled.mean(axis=0))
        assert np.array_equal(stats.sigma, np.cov(pooled, rowvar=False, ddof=1))

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = peak(lambda: models[0].forward(x[:128], mode="eval"))
        # One forward over all 300 rows peaks at about 2.3 chunks.
        assert peak(lambda: feature_statistics(models[0], x)) <= 1.25 * chunk


class TestFid:
    def test_identical_stats_are_zero(self, rng):
        cov = rng.normal(size=(4, 4))
        cov = cov @ cov.T + np.eye(4)
        s = FeatureStats("m", rng.normal(size=4), cov, 8)
        assert fid(s, s) <= 1e-8

    def test_one_dimensional_closed_form(self):
        a = FeatureStats("a", np.array([0.0]), np.array([[1.0]]), 8)
        b = FeatureStats("b", np.array([1.0]), np.array([[4.0]]), 8)
        np.testing.assert_allclose(fid(a, b), 2.0, atol=1e-10)

    def test_diagonal_closed_form(self, rng):
        mu_a, mu_b = rng.normal(size=6), rng.normal(size=6)
        da, db = rng.uniform(0.1, 3.0, size=6), rng.uniform(0.1, 3.0, size=6)
        want = ((mu_a - mu_b) ** 2).sum() + (da + db - 2 * np.sqrt(da * db)).sum()
        got = fid(FeatureStats("a", mu_a, np.diag(da), 8),
                  FeatureStats("b", mu_b, np.diag(db), 8))
        assert abs(got - want) <= 1e-8

    def test_symmetric(self, rng):
        def posdef():
            m = rng.normal(size=(5, 5))
            return m @ m.T + 0.5 * np.eye(5)
        a = FeatureStats("a", rng.normal(size=5), posdef(), 8)
        b = FeatureStats("b", rng.normal(size=5), posdef(), 8)
        assert abs(fid(a, b) - fid(b, a)) <= 1e-8

    def test_handles_singular_covariances(self, rng):
        # rank-deficient covariances (fewer samples than features) must not
        # produce NaN or negative distances
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=(4, 8))
        a = FeatureStats("a", x.mean(0), np.cov(x, rowvar=False, ddof=1), 4)
        b = FeatureStats("b", y.mean(0), np.cov(y, rowvar=False, ddof=1), 4)
        v = fid(a, b)
        assert np.isfinite(v) and v >= 0.0

    def test_asymmetric_sigma_rejected(self, rng):
        bad = rng.normal(size=(3, 3)) + np.eye(3) * 5
        bad[0, 1] = bad[1, 0] + 1.0
        with pytest.raises(InputError):
            fid(FeatureStats("a", np.zeros(3), bad, 8),
                FeatureStats("b", np.zeros(3), np.eye(3), 8))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            fid(FeatureStats("a", np.zeros(2), np.eye(2), 8),
                FeatureStats("b", np.zeros(3), np.eye(3), 8))


class TestDtw:
    def test_identical_sequences_zero(self, rng):
        a = rng.normal(size=7)
        assert dtw(a, a) == 0.0

    def test_hand_case(self):
        assert dtw([1.0, 2.0], [2.0]) == 1.0

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_exhaustive_path_enumeration(self, trial):
        rng = np.random.default_rng(1000 + trial)
        a = rng.normal(size=int(rng.integers(1, 7)))
        b = rng.normal(size=int(rng.integers(1, 7)))
        assert dtw(a, b) == dtw_enumerate(a, b)

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(10):
            a = rng.normal(size=5)
            b = rng.normal(size=8)
            assert dtw(a, b) == dtw(b, a)
            assert dtw(a, b) >= 0.0

    def test_bounded_by_diagonal_path(self, rng):
        for _ in range(10):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            assert dtw(a, b) <= ((a - b) ** 2).sum() + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            dtw([], [1.0])

    def test_batch_path_equals_scalar_path(self, rng):
        left = rng.normal(size=(12, 9))
        right = rng.normal(size=(12, 20))
        batched = _dtw_batch(left, right)
        for i in range(12):
            assert batched[i] == dtw_dp(left[i], right[i])

    # 20 is the final layer's kernel length, beyond path enumeration's reach.
    @pytest.mark.parametrize("length", [1, 20])
    def test_batch_path_equals_scalar_path_with_ties(self, rng, length):
        left = rng.normal(size=(8, length))
        right = rng.normal(size=(8, length))
        left[0] = right[0]                      # zero cost along the diagonal
        left[1], right[1] = 0.0, 1.0            # every cell costs the same
        left[2:5] = rng.integers(-1, 2, size=(3, length))
        right[2:5] = rng.integers(-1, 2, size=(3, length))
        batched = _dtw_batch(left, right)
        for i in range(8):
            assert batched[i] == dtw_dp(left[i], right[i])


class TestFilterDistanceMatrix:
    def test_single_model_shape_and_diagonal(self, models):
        m = filter_distance_matrix(models[:1])
        assert m.values.shape == (32, 32)
        np.testing.assert_array_equal(np.diag(m.values), np.zeros(32))
        np.testing.assert_allclose(m.values, m.values.T, atol=0)

    def test_duplicate_models_have_zero_cross_diagonal(self, models):
        m = filter_distance_matrix([models[0], models[0]], ["a", "b"])
        cross = m.values[:32, 32:]
        np.testing.assert_array_equal(np.diag(cross), np.zeros(32))

    def test_five_models_give_160_square(self, models):
        arch = LiteArchitectureConfig()
        five = [init_model(arch, 2, s) for s in range(5)]
        m = filter_distance_matrix(five)
        assert m.values.shape == (160, 160)
        assert len(m.labels) == 160

    def test_order_invariance_up_to_relabeling(self, models):
        a = filter_distance_matrix([models[0], models[1]], ["x", "y"])
        b = filter_distance_matrix([models[1], models[0]], ["y", "x"])
        perm = np.concatenate([np.arange(32, 64), np.arange(0, 32)])
        np.testing.assert_array_equal(a.values, b.values[np.ix_(perm, perm)])

    def test_inconsistent_shapes_rejected(self, models):
        other = init_model(LiteArchitectureConfig(dwsc_kernel_sizes=(20, 10)), 2, 0)
        with pytest.raises(ConfigError):
            filter_distance_matrix([models[0], other])

    def test_csv_export(self, models, tmp_path):
        m = filter_distance_matrix(models[:1], ["ref"])
        m.to_csv(tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[0].startswith("filter,ref:0,ref:1")
        assert len(lines) == 33


class TestEmbed2d:
    def test_three_equidistant_points(self):
        d = np.full((3, 3), 2.0)
        np.fill_diagonal(d, 0.0)
        emb = embed_2d(d)
        rec = np.sqrt(((emb.coords[:, None] - emb.coords[None]) ** 2).sum(-1))
        np.testing.assert_allclose(rec[~np.eye(3, dtype=bool)], 2.0, atol=1e-6)

    def test_collinear_points_have_flat_second_axis(self):
        xs = np.array([0.0, 1.0, 2.5, 4.0])
        d = np.abs(xs[:, None] - xs[None, :])
        emb = embed_2d(d)
        assert np.abs(emb.coords[:, 1]).max() <= 1e-8

    def test_recovers_planted_plane_config(self, rng):
        pts = rng.normal(size=(5, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        emb = embed_2d(d)
        rec = np.sqrt(((emb.coords[:, None] - emb.coords[None]) ** 2).sum(-1))
        np.testing.assert_allclose(rec, d, atol=1e-6)

    def test_deterministic_sign_convention(self, rng):
        pts = rng.normal(size=(6, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        a = embed_2d(d).coords
        b = embed_2d(d).coords
        np.testing.assert_array_equal(a, b)
        for axis in range(2):
            col = a[:, axis]
            nz = col[np.abs(col) > 1e-12]
            assert nz.size == 0 or nz[0] > 0

    def test_degenerate_all_zero(self):
        emb = embed_2d(np.zeros((4, 4)))
        assert emb.degenerate
        np.testing.assert_array_equal(emb.coords, np.zeros((4, 2)))

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            embed_2d(np.zeros((2, 2)))

    def test_csv_export(self, tmp_path):
        emb = Embedding2D(coords=np.array([[1.0, 2.0], [3.0, 4.0]]), degenerate=False)
        emb.to_csv(tmp_path / "e.csv", labels=["p0", "p1"])
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0] == "label,x,y"
        assert lines[1].startswith("p0,1")
