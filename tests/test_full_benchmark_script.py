"""Resume and failure reporting of scripts/run_full_benchmark.py."""

import ast
import csv
from pathlib import Path

import numpy as np
import pytest

from conftest import count_training
from decolite.data import load_dataset, synthetic_trend_dataset
from decolite.evaluation import accuracy, ensemble_predict
from decolite.model import LiteModel, load_model, model_checksum
from decolite.training import TrainConfig, build_ensemble

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _write_ucr(path, ds):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(ds.y, ds.X[:, 0, :]):
            fh.write("\t".join([str(int(label))] + [repr(float(v)) for v in row]) + "\n")


def _failures(out):
    with open(out / "failures.csv", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestResume:
    def test_truncated_checkpoint_is_retrained(self, tmp_path, monkeypatch):
        ds = synthetic_trend_dataset(n=8, length=16)
        cfg = TrainConfig(epochs=1, batch_size=8)
        out_dirs = [tmp_path / "models" / f"base{i}" for i in range(2)]
        first = build_ensemble(ds, cfg, 2, "base", out_dirs=out_dirs).models[0]
        path = out_dirs[0] / "checkpoint_best.ckpt"
        path.write_bytes(path.read_bytes()[:100])

        calls = count_training(monkeypatch)
        again = build_ensemble(ds, cfg, 2, "base", out_dirs=out_dirs).models[0]
        assert len(calls) == 1
        assert model_checksum(again) == model_checksum(first)
        assert model_checksum(load_model(path)) == model_checksum(first)

        # an intact checkpoint is loaded, not retrained
        build_ensemble(ds, cfg, 2, "base", out_dirs=out_dirs)
        assert len(calls) == 1

    def test_changed_config_retrains_every_member(self, script, tmp_path, monkeypatch):
        root = tmp_path / "archive"
        _write_ucr(root / "Good" / "Good_TRAIN.tsv", synthetic_trend_dataset(n=8, length=16))
        _write_ucr(root / "Good" / "Good_TEST.tsv",
                   synthetic_trend_dataset(n=6, length=16, split="test"))
        out = tmp_path / "out"
        base = ["--data-root", str(root), "--out", str(out), "--datasets", "Good",
                "--runs", "1"]
        mdir = out / "models" / "Good" / "run0"
        names = [f"base{i}" for i in range(5)] + [f"deco{i}" for i in range(1, 5)]

        script.main(base + ["--epochs", "1"])
        before = {n: model_checksum(load_model(mdir / n / "checkpoint_best.ckpt"))
                  for n in names}
        calls = count_training(monkeypatch)
        script.main(base + ["--epochs", "30", "--alpha", "0.9"])
        assert len(calls) == len(names)
        for n in names:
            assert model_checksum(load_model(mdir / n / "checkpoint_best.ckpt")) != before[n]
            assert len((mdir / n / "train_log.csv").read_text().splitlines()) == 1 + 30


class TestArguments:
    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--epochs", "0"], ["--alpha", "1.5"],
                                       ["--datasets", "@missing.txt"]])
    def test_bad_value_is_usage_error_before_any_output(self, script, tmp_path, flags):
        root = tmp_path / "archive"
        _write_ucr(root / "Good" / "Good_TRAIN.tsv", synthetic_trend_dataset(n=8, length=16))
        _write_ucr(root / "Good" / "Good_TEST.tsv",
                   synthetic_trend_dataset(n=6, length=16, split="test"))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            script.main(["--data-root", str(root), "--out", str(out), "--datasets", "Good"]
                        + flags)
        assert exc.value.code == 2
        assert not out.exists()


class TestFailureReport:
    def test_skipped_dataset_is_listed(self, script, tmp_path):
        root = tmp_path / "archive"
        _write_ucr(root / "Good" / "Good_TRAIN.tsv", synthetic_trend_dataset(n=8, length=16))
        _write_ucr(root / "Good" / "Good_TEST.tsv",
                   synthetic_trend_dataset(n=8, length=16, split="test"))
        _write_ucr(root / "Bad" / "Bad_TRAIN.tsv", synthetic_trend_dataset(n=8, length=16))
        out = tmp_path / "out"
        base = ["--data-root", str(root), "--out", str(out), "--runs", "1", "--epochs", "1"]

        script.main(base + ["--datasets", "Good,Bad"])
        rows = _failures(out)
        assert rows[0] == ["dataset", "error"]
        assert [r[0] for r in rows[1:]] == ["Bad"]
        assert rows[1][1].startswith("FileNotFoundError")
        with open(out / "results.csv", encoding="utf-8") as fh:
            assert [ln.split(",")[0] for ln in fh.read().splitlines()[1:]] == ["Good"]

        script.main(base + ["--datasets", "Good"])
        assert _failures(out) == [["dataset", "error"]]

    def test_nothing_finished_exits_nonzero(self, script, tmp_path):
        out = tmp_path / "out"
        (tmp_path / "archive").mkdir()
        with pytest.raises(SystemExit) as exc:
            script.main(["--data-root", str(tmp_path / "archive"), "--out", str(out),
                         "--datasets", "Missing"])
        assert exc.value.code == 1
        assert [r[0] for r in _failures(out)] == ["dataset", "Missing"]
        assert not (out / "results.csv").exists()


class TestScoring:
    def test_one_test_forward_per_member(self, script, tmp_path, monkeypatch):
        root = tmp_path / "archive"
        _write_ucr(root / "Good" / "Good_TRAIN.tsv", synthetic_trend_dataset(n=8, length=16))
        _write_ucr(root / "Good" / "Good_TEST.tsv",
                   synthetic_trend_dataset(n=6, length=16, split="test"))
        out = tmp_path / "out"
        _, test = load_dataset(root, "Good")

        test_forwards = []
        real_forward = LiteModel.forward

        def counting_forward(self, x, mode="eval"):
            if mode == "eval" and np.shape(getattr(x, "data", x))[0] == test.n:
                test_forwards.append(1)
            return real_forward(self, x, mode=mode)

        monkeypatch.setattr(LiteModel, "forward", counting_forward)
        accs, _, _ = script.run_dataset("Good", root, out, TrainConfig(epochs=1), 1)
        # Nine distinct members. The deco chain is scored with the base
        # build's base0, which keeps the logits and pooled features of its
        # prefix_accuracies pass, and so does every member feature_statistics
        # reads (base0, base1, deco1); none of them forwards twice.
        assert len(test_forwards) == 2 * 5 - 1

        mdir = out / "models" / "Good" / "run0"
        base = [load_model(mdir / f"base{i}" / "checkpoint_best.ckpt") for i in range(5)]
        deco = base[:1] + [load_model(mdir / f"deco{i}" / "checkpoint_best.ckpt")
                           for i in range(1, 5)]
        for s in script.SIZES:
            for prefix, chain in (("", base), ("Deco-", deco)):
                probs = ensemble_predict(chain[:s], test.X)
                assert accs[f"{prefix}LITETime-{s}"] == accuracy(probs.argmax(axis=1), test.y)

    def test_one_train_forward_per_deco_predecessor(self, script, tmp_path, monkeypatch):
        root = tmp_path / "archive"
        train = synthetic_trend_dataset(n=8, length=16)
        _write_ucr(root / "Good" / "Good_TRAIN.tsv", train)
        _write_ucr(root / "Good" / "Good_TEST.tsv",
                   synthetic_trend_dataset(n=6, length=16, split="test"))
        out = tmp_path / "out"
        cfg = TrainConfig(epochs=1)

        train_forwards = []
        real_forward = LiteModel.forward

        def counting_forward(self, x, mode="eval"):
            if mode == "eval" and np.shape(getattr(x, "data", x))[0] == train.n:
                train_forwards.append(1)
            return real_forward(self, x, mode=mode)

        monkeypatch.setattr(LiteModel, "forward", counting_forward)
        script.run_dataset("Good", root, out, cfg, 1)
        # Four deco members train against the chain before them: one
        # training-set forward for each of the first four members.
        assert len(train_forwards) == 4

        mdir = out / "models" / "Good" / "run0"
        ds, _ = load_dataset(root, "Good")
        chain = build_ensemble(ds, cfg, 5, "deco").models
        for i in range(1, 5):
            assert model_checksum(load_model(mdir / f"deco{i}" / "checkpoint_best.ckpt")) \
                == model_checksum(chain[i])

        # A rerun over a missing middle checkpoint retrains it against loaded
        # predecessors, forwarding each of them once.
        (mdir / "deco3" / "checkpoint_best.ckpt").unlink()
        del train_forwards[:]
        script.run_dataset("Good", root, out, cfg, 1)
        assert len(train_forwards) == 3
        assert model_checksum(load_model(mdir / "deco3" / "checkpoint_best.ckpt")) \
            == model_checksum(chain[3])


def test_scripts_use_no_private_decolite_name():
    # Every name a script takes from decolite, and every attribute it reads
    # off one, must be public.
    for path in sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("decolite"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name}:{node.lineno} imports {private}"
                bound.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names
                             if a.name.split(".")[0] == "decolite")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                assert not (isinstance(root, ast.Name) and root.id in bound), \
                    f"{path.name}:{node.lineno} reads private attribute {node.attr}"
