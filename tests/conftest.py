"""Shared fixtures, including the archive-gated BirdChicken experiment."""

import time

import pytest

from decolite.data import load_dataset, resolve_data_root
from decolite.model import model_checksum
from decolite.training import TrainConfig, train_base, train_decorrelated


def ucr_root_or_none(dataset: str):
    """The archive root from DECO_DATA_ROOT when it holds ``dataset``."""
    root = resolve_data_root(None)
    if root is None:
        return None
    return root if (root / dataset / f"{dataset}_TRAIN.tsv").is_file() else None


def train_twins(train_ds, config_for_seed):
    """Reference seed 0, then same-seed (plain, decorrelated) twins for
    seeds 1-5, the decorrelated one trained against the reference.

    ``ref_checksum`` is taken before any twin trains, so a test can show
    that training against the reference left it untouched.
    """
    ref, _ = train_base(train_ds, config_for_seed(0))
    ref_checksum = model_checksum(ref)
    pairs = []
    for seed in range(1, 6):
        base, _ = train_base(train_ds, config_for_seed(seed))
        deco, _ = train_decorrelated(train_ds, config_for_seed(seed), [ref])
        pairs.append({"seed": seed, "base": base, "deco": deco})
    return {"ref": ref, "ref_checksum": ref_checksum, "pairs": pairs}


@pytest.fixture(scope="session")
def birdchicken_runs():
    """One reference plus five (plain, decorrelated) twins on BirdChicken.

    Trains 11 models at 500 epochs, shared by every archive-gated test so
    the expensive runs happen at most once per session. Skips when the
    archive is not available.
    """
    root = ucr_root_or_none("BirdChicken")
    if root is None:
        pytest.skip(
            "BirdChicken is not available offline (point DECO_DATA_ROOT at the UCR "
            "archive to enable); desk-scale decorrelation evidence runs in "
            "tests/test_training.py::TestDecorrelationEffect")
    start = time.perf_counter()
    train_ds, test_ds = load_dataset(root, "BirdChicken")
    assert (train_ds.n, test_ds.n, train_ds.length, train_ds.n_classes) == (20, 20, 512, 2)

    twins = train_twins(train_ds, lambda seed: TrainConfig(epochs=500, seed=seed))
    return {"train": train_ds, "test": test_ds, **twins,
            "elapsed": time.perf_counter() - start}
