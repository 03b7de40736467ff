"""Shared fixtures, including the archive-gated BirdChicken experiment."""

import importlib.util
import time
from pathlib import Path

import pytest

from decolite import training
from decolite.data import load_dataset, resolve_data_root
from decolite.model import load_model, model_checksum
from decolite.training import TrainConfig, build_ensemble

FULL_BENCHMARK = Path(__file__).resolve().parents[1] / "scripts" / "run_full_benchmark.py"


@pytest.fixture(scope="module")
def script():
    """``scripts/run_full_benchmark.py``, imported as a module."""
    spec = importlib.util.spec_from_file_location("run_full_benchmark", FULL_BENCHMARK)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def ucr_root_or_none(dataset: str):
    """The archive root from DECO_DATA_ROOT when it holds ``dataset``."""
    root = resolve_data_root(None)
    if root is None:
        return None
    return root if (root / dataset / f"{dataset}_TRAIN.tsv").is_file() else None


def count_training(monkeypatch):
    """The argument tuples of every ``training._train_loop`` call from now
    on, one per member trained rather than reloaded."""
    calls = []
    real_loop = training._train_loop

    def counting_loop(*args, **kwargs):
        calls.append(args)
        return real_loop(*args, **kwargs)

    monkeypatch.setattr(training, "_train_loop", counting_loop)
    return calls


def train_twins(train_ds, config, root):
    """Reference seed 0, then same-seed (plain, decorrelated) twins for
    seeds 1-5. Decorrelated twin s is member 1 of a two-member chain whose
    reference lives in ``root / "ref"``: the first chain trains it, the
    others reload it. ``ref`` is the first chain's, and ``ref_checksum``
    that of its checkpoint, written before any twin trains, so a test can
    show that training against the reference left it untouched.
    """
    chains = [build_ensemble(train_ds, config, 2, "deco", seeds=[0, s],
                             out_dirs=[root / "ref", root / f"deco{s}"]).models
              for s in range(1, 6)]
    bases = build_ensemble(train_ds, config, 5, "base", seeds=[1, 2, 3, 4, 5]).models
    pairs = [{"seed": s, "base": b, "deco": c[1]} for s, b, c in zip(range(1, 6), bases, chains)]
    return {"ref": chains[0][0], "pairs": pairs,
            "ref_checksum": model_checksum(load_model(root / "ref" / "checkpoint_best.ckpt"))}


@pytest.fixture(scope="session")
def birdchicken_runs(tmp_path_factory):
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

    twins = train_twins(train_ds, TrainConfig(epochs=500),
                        tmp_path_factory.mktemp("birdchicken"))
    return {"train": train_ds, "test": test_ds, **twins,
            "elapsed": time.perf_counter() - start}
