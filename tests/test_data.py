"""Ingestion: TSV parsing, normalization, batching, synthetic data."""

import numpy as np
import pytest

from decolite.data import (batch_indices, handle_irregular, interpolate_missing,
                           load_dataset, load_ucr_split, synthetic_trend_dataset,
                           z_normalize)
from decolite.errors import ConfigError, DataError, FormatError, UsageError


def _write_split(root, name, split, rows):
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{name}_{split.upper()}.tsv").write_text(
        "\n".join("\t".join(str(v) for v in row) for row in rows) + "\n")


@pytest.fixture
def archive(tmp_path):
    _write_split(tmp_path, "Toy", "train", [
        [2, 0.1, 0.2, 0.3],
        [-1, 1.0, 1.5, 0.5],
        [2, 0.4, 0.1, 0.2],
        [-1, 2.0, 1.0, 1.5],
    ])
    _write_split(tmp_path, "Toy", "test", [
        [-1, 0.3, 0.2, 0.1],
        [2, 1.5, 1.0, 0.5],
    ])
    return tmp_path


class TestLoadUcrSplit:
    def test_line_format(self, archive):
        series, labels = load_ucr_split(archive, "Toy", "train")
        assert labels[0] == 2.0
        np.testing.assert_allclose(series[0], [0.1, 0.2, 0.3])
        assert len(series) == 4

    def test_row_order_preserved(self, archive):
        _, labels = load_ucr_split(archive, "Toy", "train")
        assert labels == [2.0, -1.0, 2.0, -1.0]

    def test_missing_file(self, archive):
        with pytest.raises(FileNotFoundError):
            load_ucr_split(archive, "Nope", "train")

    def test_ragged_rows_need_declaration(self, tmp_path):
        _write_split(tmp_path, "Rag", "train", [[1, 0.5, 0.2], [0, 0.1]])
        with pytest.raises(FormatError):
            load_ucr_split(tmp_path, "Rag", "train")
        series, _ = load_ucr_split(tmp_path, "Rag", "train", variable_length=True)
        assert [s.size for s in series] == [2, 1]

    def test_non_numeric_field(self, tmp_path):
        _write_split(tmp_path, "Bad", "train", [[1, "x", 0.2]])
        with pytest.raises(FormatError):
            load_ucr_split(tmp_path, "Bad", "train")


class TestLoadDataset:
    def test_label_map_sorted_and_shared(self, archive):
        train, test = load_dataset(archive, "Toy")
        assert train.label_map == {-1.0: 0, 2.0: 1}
        assert test.label_map == train.label_map
        np.testing.assert_array_equal(train.y, [1, 0, 1, 0])
        np.testing.assert_array_equal(test.y, [0, 1])

    def test_one_hot_matches_labels(self, archive):
        train, _ = load_dataset(archive, "Toy")
        np.testing.assert_array_equal(train.Y.argmax(axis=1), train.y)
        np.testing.assert_array_equal(train.Y.sum(axis=1), np.ones(train.n))

    def test_series_are_z_normalized(self, archive):
        train, test = load_dataset(archive, "Toy")
        for ds in (train, test):
            flat = ds.X[:, 0, :]
            np.testing.assert_allclose(flat.mean(axis=1), 0.0, atol=1e-6)
            np.testing.assert_allclose(flat.std(axis=1), 1.0, atol=1e-6)

    def test_unseen_test_label_is_data_error(self, tmp_path):
        _write_split(tmp_path, "Odd", "train", [[0, 1.0, 2.0], [1, 2.0, 1.0]])
        _write_split(tmp_path, "Odd", "test", [[7, 1.0, 2.0], [0, 0.5, 1.5]])
        with pytest.raises(DataError):
            load_dataset(tmp_path, "Odd")

    def test_nan_tokens_are_interpolated(self, tmp_path):
        _write_split(tmp_path, "Gappy", "train",
                     [[0, 1.0, "NaN", 3.0, 4.0], [1, 4.0, 3.0, "NaN", 1.0]])
        _write_split(tmp_path, "Gappy", "test", [[0, 1.0, 2.0, 3.0, 4.0],
                                                 [1, 4.0, 3.0, 2.0, 1.0]])
        train, _ = load_dataset(tmp_path, "Gappy")
        assert np.isfinite(train.X).all()
        np.testing.assert_allclose(train.X[0, 0], z_normalize(np.array([1.0, 2, 3, 4])))


class TestZNormalize:
    def test_hand_case(self):
        np.testing.assert_allclose(z_normalize(np.array([1.0, 2.0, 3.0])),
                                   [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_guard(self):
        np.testing.assert_array_equal(z_normalize(np.array([5.0, 5.0, 5.0])), np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = z_normalize(rng.normal(size=50))
        np.testing.assert_allclose(z_normalize(x), x, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            z_normalize(np.array([]))


class TestIrregularHandling:
    def test_interpolation_hand_case(self):
        np.testing.assert_allclose(interpolate_missing(np.array([1.0, np.nan, 3.0])),
                                   [1.0, 2.0, 3.0])

    def test_edge_nans_take_nearest(self):
        out = interpolate_missing(np.array([np.nan, 2.0, np.nan]))
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0])

    def test_all_nan_is_data_error(self):
        with pytest.raises(DataError):
            interpolate_missing(np.full(4, np.nan))

    def test_padding_rule(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=8), rng.normal(size=10)
        out = handle_irregular([a, b])
        assert out.shape == (2, 10)
        np.testing.assert_array_equal(out[0, 8:], [0.0, 0.0])
        np.testing.assert_allclose(out[0, :8], z_normalize(a))

    def test_identity_on_clean_normalized_input(self):
        rng = np.random.default_rng(2)
        rows = [z_normalize(rng.normal(size=12)) for _ in range(3)]
        out = handle_irregular(rows)
        np.testing.assert_allclose(out, np.stack(rows), atol=1e-9)

    def test_series_longer_than_target_rejected(self):
        with pytest.raises(DataError):
            handle_irregular([np.zeros(5), np.zeros(9)], target_length=6)


class TestBatchIndices:
    def test_sizes_130(self):
        sizes = [b.size for b in batch_indices(130, 64, seed=0, epoch=0)]
        assert sizes == [64, 64, 2]

    def test_singleton_merged(self):
        sizes = [b.size for b in batch_indices(65, 64, seed=0, epoch=0)]
        assert sizes == [65]

    def test_deterministic_per_seed_epoch(self):
        a = batch_indices(50, 16, seed=3, epoch=9)
        b = batch_indices(50, 16, seed=3, epoch=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = batch_indices(50, 16, seed=3, epoch=10)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_partition_property(self):
        merged = np.sort(np.concatenate(batch_indices(97, 10, seed=1, epoch=2)))
        np.testing.assert_array_equal(merged, np.arange(97))

    def test_single_sample_rejected(self):
        with pytest.raises(DataError):
            batch_indices(1, 4, seed=0, epoch=0)
        with pytest.raises(ConfigError):
            batch_indices(10, 0, seed=0, epoch=0)


class TestSyntheticDataset:
    def test_shape_and_balance(self):
        ds = synthetic_trend_dataset(n=32, length=16, seed=0)
        assert ds.X.shape == (32, 1, 16)
        np.testing.assert_array_equal(np.bincount(ds.y), [16, 16])

    def test_normalized(self):
        ds = synthetic_trend_dataset(n=32, length=16, seed=0)
        np.testing.assert_allclose(ds.X[:, 0, :].mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(ds.X[:, 0, :].std(axis=1), 1.0, atol=1e-9)

    def test_deterministic_and_split_dependent(self):
        a = synthetic_trend_dataset(n=16, length=16, seed=4)
        b = synthetic_trend_dataset(n=16, length=16, seed=4)
        np.testing.assert_array_equal(a.X, b.X)
        c = synthetic_trend_dataset(n=16, length=16, seed=4, split="test")
        assert not np.array_equal(a.X, c.X)

    def test_classes_follow_trend_direction(self):
        ds = synthetic_trend_dataset(n=32, length=64, seed=1)
        # after z-normalization the class-1 series still slope upward
        slopes = ds.X[:, 0, -8:].mean(axis=1) - ds.X[:, 0, :8].mean(axis=1)
        assert ((slopes > 0) == (ds.y == 1)).mean() == 1.0
