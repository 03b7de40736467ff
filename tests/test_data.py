"""Ingestion: TSV parsing, normalization, batching, synthetic data."""

import csv

import numpy as np
import pytest

from decolite.cli import dispatch
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

    def test_ragged_rows_are_format_error(self, tmp_path):
        _write_split(tmp_path, "Rag", "train", [[1, 0.5, 0.2], [0, 0.1]])
        with pytest.raises(FormatError, match=r"Rag_TRAIN\.tsv:2: 1 values, the first row has 2"):
            load_ucr_split(tmp_path, "Rag", "train")

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
        out = handle_irregular([a, b], target_length=10)
        assert out.shape == (2, 10)
        np.testing.assert_array_equal(out[0, 8:], [0.0, 0.0])
        np.testing.assert_allclose(out[0, :8], z_normalize(a))

    def test_identity_on_clean_normalized_input(self):
        rng = np.random.default_rng(2)
        rows = [z_normalize(rng.normal(size=12)) for _ in range(3)]
        out = handle_irregular(rows, target_length=12)
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


def _rows(*labels, length=8):
    """One tab-separated line per label: an upward ramp for label 0, a
    downward one for any other label."""
    return "".join(f"{lab}\t" + "\t".join(str(float(v if lab == 0 else length - v))
                                          for v in range(length)) + "\n"
                   for lab in labels)


GOOD = _rows(0, 1, 0, 1)

# name: (TRAIN text, TEST text or None for no file, error class, what the
# one stderr line must hold)
MALFORMED = {
    "NanLabel": (GOOD + "NaN\t1\t2\t3\t4\t5\t6\t7\t8\n", GOOD, "FormatError",
                 "NanLabel_TRAIN.tsv:5: label 'NaN' is not finite"),
    "NanTestLabel": (GOOD, _rows(0) + _rows(1).replace("1", "nan", 1), "FormatError",
                     "NanTestLabel_TEST.tsv:2: label 'nan' is not finite"),
    "InfLabel": (_rows(1).replace("1", "inf", 1) + _rows(0, 1), GOOD, "FormatError",
                 "InfLabel_TRAIN.tsv:1: label 'inf' is not finite"),
    "OneClass": (_rows(1, 1, 1, 1), _rows(1, 1), "DataError",
                 "OneClass/train: a classifier needs at least two classes"),
    "RaggedTrain": (_rows(0) + _rows(1, length=5) + _rows(0, 1), GOOD, "FormatError",
                    "RaggedTrain_TRAIN.tsv:2: 5 values, the first row has 8"),
    "RaggedTest": (GOOD, _rows(0) + _rows(1, length=7), "FormatError",
                   "RaggedTest_TEST.tsv:2: 7 values, the first row has 8"),
    "NonNumeric": (_rows(0, 1).replace("\t3.0", "\tx", 1) + _rows(0, 1), GOOD,
                   "FormatError", "NonNumeric_TRAIN.tsv:1: non-numeric field"),
    "Spaces": (_rows(0).replace("\t", " ") + _rows(1, 0, 1), GOOD, "FormatError",
               "Spaces_TRAIN.tsv:1: expected a label and at least one value"),
    "Empty": ("", GOOD, "FormatError", "Empty_TRAIN.tsv: file holds no data rows"),
    "InfValue": (_rows(0, 1).replace("\t3.0", "\tinf", 1) + _rows(0, 1), GOOD, "DataError",
                 "InfValue/train: non-finite values survived ingestion"),
    "LongTest": (GOOD, _rows(0, 1, length=10), "DataError",
                 "LongTest/test: series of length 10 exceeds target length 8"),
    "UnseenLabel": (GOOD, _rows(0, 7), "DataError",
                    "UnseenLabel/test: labels [7.0] do not appear in the training split"),
    "MissingTest": (GOOD, None, "FileNotFoundError", "MissingTest_TEST.tsv"),
}

# name: (TRAIN text, the raw first series it must give, or None for GOOD's)
WELL_FORMED = {
    "Crlf": (GOOD.replace("\n", "\r\n"), None),
    "BlankLines": ("\n" + GOOD.replace("\n", "\n\n", 2) + "\n\n", None),
    "InteriorNan": (GOOD.replace("\t3.0", "\tNaN", 1), np.arange(8.0)),
    "TrailingNan": (GOOD.replace("\t5.0\t6.0\t7.0", "\tNaN\tNaN\tNaN", 1),
                    np.array([0.0, 1, 2, 3, 4, 4, 4, 4])),
}


def _write_archive(root, cases):
    for name, (train_text, test_text, *_) in cases.items():
        (root / name).mkdir(parents=True)
        (root / name / f"{name}_TRAIN.tsv").write_bytes(train_text.encode())
        if test_text is not None:
            (root / name / f"{name}_TEST.tsv").write_bytes(test_text.encode())


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning is a second line
class TestIngestionContract:
    """A malformed archive is refused at load time with one error that
    names the file (and line); a well-formed one loads."""

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_train_command_refuses_malformed_archive(self, name, tmp_path, capsys):
        _write_archive(tmp_path / "archive", {name: MALFORMED[name]})
        out = tmp_path / "out"
        code = dispatch(["train", "--dataset", name, "--data-root", str(tmp_path / "archive"),
                         "--epochs", "1", "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("data error: ")
        assert MALFORMED[name][3] in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("name", list(WELL_FORMED))
    def test_well_formed_archive_loads(self, name, tmp_path):
        train_text, first = WELL_FORMED[name]
        _write_archive(tmp_path, {"Good": (GOOD, GOOD), name: (train_text, GOOD)})
        good, _ = load_dataset(tmp_path, "Good")
        train, _ = load_dataset(tmp_path, name)
        assert train.label_map == good.label_map
        np.testing.assert_array_equal(train.y, good.y)
        np.testing.assert_array_equal(train.X[1:], good.X[1:])
        np.testing.assert_array_equal(train.X[0, 0], good.X[0, 0] if first is None
                                      else z_normalize(first))

    def test_full_benchmark_lists_every_malformed_dataset(self, script, tmp_path):
        _write_archive(tmp_path / "archive", {"Good": (GOOD, GOOD), **MALFORMED})
        out = tmp_path / "out"
        script.main(["--data-root", str(tmp_path / "archive"), "--out", str(out),
                     "--datasets", ",".join(["Good", *MALFORMED]),
                     "--runs", "1", "--epochs", "1"])
        with open(out / "results.csv", encoding="utf-8") as fh:
            assert [ln.split(",")[0] for ln in fh.read().splitlines()[1:]] == ["Good"]
        with open(out / "failures.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "error"]
        assert {r[0]: r[1].split(":")[0] for r in rows[1:]} == \
            {name: case[2] for name, case in MALFORMED.items()}
