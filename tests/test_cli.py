"""Command-line contracts: layouts, manifests, exit codes, determinism."""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decolite
from decolite import arrayio, smoke
from decolite.cli import _append_manifest, dispatch
from decolite.diversity import Embedding2D, FeatureStats, FilterDistanceMatrix, write_fid_report
from decolite.evaluation import ResultsTable, mcm
from decolite.model import LiteArchitectureConfig, init_model, save_model
from decolite.training import EpochRecord, TrainLog


def _manifest(run_root):
    with open(run_root / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _half_write(self, data):
    with open(self, "wb") as fh:
        fh.write(data[:len(data) // 2])
    raise OSError("disk full")


@pytest.fixture
def train_args(tmp_path):
    return ["train", "--dataset", "synthetic", "--seeds", "0",
            "--epochs", "6", "--batch-size", "16", "--out", str(tmp_path / "runs")]


class TestTrainCommand:
    def test_writes_checkpoints_log_manifest(self, tmp_path, train_args):
        assert dispatch(train_args) == 0
        seed_dir = tmp_path / "runs" / "synthetic" / "base-1" / "seed0"
        assert (seed_dir / "checkpoint_best.ckpt").is_file()
        assert (seed_dir / "checkpoint_last.ckpt").is_file()
        assert (seed_dir / "train_log.csv").is_file()
        run_root = seed_dir.parent
        assert (run_root / "metrics.json").is_file()
        manifest = _manifest(run_root)
        assert len(manifest["runs"]) == 1
        listed = set(manifest["runs"][0]["artifacts"])
        assert "seed0/checkpoint_best.ckpt" in listed
        assert "seed0/train_log.csv" in listed
        assert "metrics.json" in listed

    def test_log_columns(self, tmp_path, train_args):
        dispatch(train_args)
        log = (tmp_path / "runs" / "synthetic" / "base-1" / "seed0"
               / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,lr,ce_loss,orth_loss,total_loss,train_acc,seconds"
        assert len(log) == 1 + 6

    def test_manifest_is_append_only(self, train_args, tmp_path):
        dispatch(train_args)
        dispatch(train_args)
        manifest = _manifest(tmp_path / "runs" / "synthetic" / "base-1")
        assert len(manifest["runs"]) == 2

    @pytest.mark.parametrize("corrupt", [b'{"runs": [', b"[]", b'{"runs": {}}'],
                             ids=["truncated", "list", "runs-not-list"])
    def test_corrupt_manifest_is_data_error_and_kept(self, train_args, tmp_path, capsys,
                                                     corrupt):
        path = tmp_path / "runs" / "synthetic" / "base-1" / "manifest.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(corrupt)
        assert dispatch(train_args) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert path.read_bytes() == corrupt

    def test_repeated_seed_is_usage_error_before_any_output(self, tmp_path):
        code = dispatch(["train", "--dataset", "synthetic", "--seeds", "0,0",
                         "--epochs", "1", "--out", str(tmp_path / "runs")])
        assert code == 1
        assert not (tmp_path / "runs").exists()

    def test_missing_dataset_is_usage_error(self, tmp_path):
        code = dispatch(["train", "--out", str(tmp_path), "--epochs", "2"])
        assert code == 1

    def test_archive_dataset_without_root_is_usage_error(self, tmp_path):
        code = dispatch(["train", "--dataset", "Coffee", "--epochs", "2",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_missing_archive_data_is_data_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DECO_DATA_ROOT", raising=False)
        code = dispatch(["train", "--dataset", "Coffee", "--epochs", "2",
                         "--data-root", str(tmp_path / "nowhere"),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("lr=1e200\n")
        with np.errstate(all="ignore"):
            code = dispatch(["train", "--dataset", "synthetic", "--seeds", "0",
                             "--epochs", "5", "--out", str(tmp_path / "runs"),
                             "--config", str(cfg)])
        assert code == 3


class TestManifestWrite:
    def test_failed_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        _append_manifest(tmp_path, {"command": "train"})
        before = (tmp_path / "manifest.json").read_bytes()
        monkeypatch.setattr(Path, "write_bytes", _half_write)
        with pytest.raises(OSError):
            _append_manifest(tmp_path, {"command": "evaluate"})
        monkeypatch.undo()
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        # the next command appends to the intact manifest
        _append_manifest(tmp_path, {"command": "evaluate"})
        assert [r["command"] for r in _manifest(tmp_path)["runs"]] == ["train", "evaluate"]

    def test_failed_artifact_writes_keep_previous_files(self, tmp_path, monkeypatch):
        table = ResultsTable(["a", "b"], ["d1", "d2"], np.array([[0.9, 0.8], [0.7, 0.8]]))
        report = mcm(table)
        stats = [FeatureStats(f"m{i}", np.array([float(i)]), np.eye(1), 8) for i in range(2)]
        writers = {
            "train_log.csv": TrainLog([EpochRecord(1, 1e-3, 0.5, 0.1, 0.3, 1.0, 0.01)]).to_csv,
            "results.csv": table.to_csv,
            "mcm_report.json": report.to_json,
            "mcm_matrix.csv": report.matrix_csv,
            "filter_distances.csv": FilterDistanceMatrix(
                [("m0", 0), ("m1", 0)], np.array([[0.0, 1.0], [1.0, 0.0]])).to_csv,
            "embedding.csv": Embedding2D(np.zeros((2, 2)), True).to_csv,
            "fid_report.json": lambda path: write_fid_report(stats, path),
        }
        for name in writers:
            (tmp_path / name).write_bytes(b"previous\n")
        monkeypatch.setattr(Path, "write_bytes", _half_write)
        for name, write in writers.items():
            with pytest.raises(OSError):
                write(tmp_path / name)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)
        assert all((tmp_path / name).read_bytes() == b"previous\n" for name in writers)


class TestConfigFile:
    def test_file_provides_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=4\nbatch-size=8\nseeds=3\n# comment\n")
        out = tmp_path / "runs"
        assert dispatch(["train", "--dataset", "synthetic", "--config", str(cfg),
                         "--epochs", "2", "--out", str(out)]) == 0
        manifest = _manifest(out / "synthetic" / "base-1")
        rec = manifest["runs"][0]
        assert rec["config"]["epochs"] == 2          # flag wins
        assert rec["config"]["batch_size"] == 8      # file fills the gap
        assert rec["seeds"] == [3]

    def test_bad_lr_in_config_file_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad_lr.cfg"
        cfg.write_text("lr=abc\n")
        assert dispatch(["train", "--dataset", "synthetic", "--config", str(cfg),
                         "--out", str(tmp_path / "runs")]) == 1

    def test_non_finite_lr_is_usage_error_before_training(self, tmp_path):
        cfg = tmp_path / "nan_lr.cfg"
        cfg.write_text("lr=nan\n")
        out = tmp_path / "runs"
        assert dispatch(["train", "--dataset", "synthetic", "--config", str(cfg),
                         "--epochs", "1", "--out", str(out)]) == 1
        assert not out.exists()

    def test_unknown_keys_are_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("epoch=3\nlearning_rate=0.1\n")
        out = tmp_path / "runs"
        assert dispatch(["train", "--dataset", "synthetic", "--config", str(cfg),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "epoch" in err and "learning_rate" in err
        assert not out.exists()

    def test_key_of_another_command_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "train_only.cfg"
        cfg.write_text("epochs=3\n")
        assert dispatch(["smoke", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "epochs" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        assert dispatch(["train", "--dataset", "synthetic", "--config", str(cfg)]) == 2

    def test_orth_norm_flag_reaches_config(self, tmp_path):
        out = tmp_path / "runs"
        assert dispatch(["ensemble", "--dataset", "synthetic", "--kind", "deco",
                         "--size", "2", "--epochs", "3", "--batch-size", "16",
                         "--orth-norm", "raw", "--out", str(out)]) == 0
        rec = _manifest(out / "synthetic" / "deco-2")["runs"][0]
        assert rec["config"]["orth_normalization"] == "raw"
        assert rec["wall_seconds"] > 0


class TestEnsembleCommand:
    def test_deco_ensemble_end_to_end(self, tmp_path):
        out = tmp_path / "runs"
        code = dispatch(["ensemble", "--dataset", "synthetic", "--kind", "deco",
                         "--size", "2", "--seeds", "0,1", "--epochs", "6",
                         "--batch-size", "32", "--out", str(out)])
        assert code == 0
        root = out / "synthetic" / "deco-2"
        metrics = json.loads((root / "metrics.json").read_text())
        assert metrics["name"] == "Deco-LITETime-2"
        assert 0.0 <= metrics["ensemble_test_accuracy"] <= 1.0
        assert len(metrics["member_test_accuracies"]) == 2
        for seed in (0, 1):
            assert (root / f"seed{seed}" / "checkpoint_best.ckpt").is_file()

    def test_kind_required(self, tmp_path):
        assert dispatch(["ensemble", "--dataset", "synthetic", "--size", "2",
                         "--out", str(tmp_path)]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["ensemble", "--nope", "1"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err


class TestEvaluateCommand:
    def test_evaluates_saved_checkpoints(self, tmp_path, train_args):
        dispatch(train_args)
        ckpt = tmp_path / "runs" / "synthetic" / "base-1" / "seed0" / "checkpoint_best.ckpt"
        code = dispatch(["evaluate", "--models", str(ckpt), "--dataset", "synthetic",
                         "--split", "train", "--out", str(tmp_path / "runs")])
        assert code == 0
        payload = json.loads((tmp_path / "runs" / "synthetic" / "evaluate"
                              / "evaluation.json").read_text())
        assert payload["split"] == "train"
        assert 0.0 <= payload["ensemble_accuracy"] <= 1.0

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, train_args):
        dispatch(train_args)
        ckpt = tmp_path / "runs" / "synthetic" / "base-1" / "seed0" / "checkpoint_best.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[60] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        code = dispatch(["evaluate", "--models", str(ckpt), "--dataset", "synthetic",
                         "--out", str(tmp_path / "runs")])
        assert code == 2


    def test_class_count_mismatch_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "five.ckpt"
        save_model(init_model(LiteArchitectureConfig(), 5, 0), ckpt)
        code = dispatch(["evaluate", "--models", str(ckpt), "--dataset", "synthetic",
                         "--out", str(tmp_path / "runs")])
        assert code == 1
        err = capsys.readouterr().err
        assert "5 classes" in err and "has 2" in err


class TestMcmCommand:
    def test_report_matches_library_oracle(self, tmp_path):
        table = ResultsTable(["a", "b"], ["d1", "d2", "d3"],
                             np.array([[0.9, 0.8, 0.7], [0.8, 0.8, 0.6]]))
        results = tmp_path / "results.csv"
        table.to_csv(results)
        assert dispatch(["mcm", "--results", str(results),
                         "--out", str(tmp_path / "runs")]) == 0
        payload = json.loads((tmp_path / "runs" / "mcm" / "mcm_report.json").read_text())
        want = mcm(table).to_json_dict()
        assert payload == json.loads(json.dumps(want))
        assert (tmp_path / "runs" / "mcm" / "mcm_matrix.csv").is_file()

    @pytest.mark.parametrize("cell", ["1.5", "nan"])
    def test_bad_accuracy_cell_is_data_error(self, tmp_path, capsys, cell):
        results = tmp_path / "results.csv"
        results.write_text(f"dataset,a,b\nd1,0.9,{cell}\nd2,0.8,0.7\n")
        assert dispatch(["mcm", "--results", str(results),
                         "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "results.csv" in err

    def test_missing_results_flag(self, tmp_path):
        assert dispatch(["mcm", "--out", str(tmp_path)]) == 1


class TestDiversityCommand:
    def test_artifacts_written(self, tmp_path, train_args):
        dispatch(train_args)
        dispatch(["train", "--dataset", "synthetic", "--seeds", "1", "--epochs", "6",
                  "--batch-size", "16", "--out", str(tmp_path / "runs")])
        root = tmp_path / "runs" / "synthetic" / "base-1"
        ck = [str(root / f"seed{s}" / "checkpoint_best.ckpt") for s in (0, 1)]
        code = dispatch(["diversity", "--models", ",".join(ck), "--dataset",
                         "synthetic", "--out", str(tmp_path / "runs")])
        assert code == 0
        out = tmp_path / "runs" / "synthetic" / "diversity"
        for name in ("feature_stats.json", "fid_report.json",
                     "filter_distances.csv", "embedding.csv"):
            assert (out / name).is_file()
        fid_payload = json.loads((out / "fid_report.json").read_text())
        assert len(fid_payload["pairs"]) == 1
        assert fid_payload["pairs"][0]["fid"] >= 0.0
        header = (out / "filter_distances.csv").read_text().splitlines()[0]
        assert header.startswith("filter,model0:0")


@pytest.fixture(scope="class")
def smoke_run(tmp_path_factory):
    """(exit code, stdout lines, output root) of one clean smoke run, shared
    by the tests that only read it: the battery takes seconds."""
    root = tmp_path_factory.mktemp("smoke") / "runs"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["smoke", "--out", str(root)])
    return code, out.getvalue().splitlines(), root


class TestSmokeCommand:
    def test_passes_and_prints_table(self, smoke_run):
        code, lines, root = smoke_run
        assert code == 0
        passes = [ln for ln in lines if ln.startswith("[PASS]")]
        assert len(passes) == 13
        report = json.loads((root / "smoke" / "smoke_report.json").read_text())
        assert report["passed"] is True

    def test_repeat_invocation_identical_table(self, smoke_run, tmp_path, capsys):
        first = [ln for ln in smoke_run[1] if ln.startswith("[")]
        dispatch(["smoke", "--out", str(tmp_path / "b")])
        second = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
        assert first == second

    def test_injected_checkpoint_corruption_is_named_failure(self, tmp_path, capsys,
                                                             monkeypatch):
        import decolite.model as model_mod
        real_save = arrayio.save_bundle

        def corrupting_save(path, kind, meta, arrays):
            real_save(path, kind, meta, arrays)
            blob = bytearray(Path(path).read_bytes())
            blob[-1] ^= 0x01
            Path(path).write_bytes(bytes(blob))

        # save_model writes through this binding, so every checkpoint the
        # smoke run produces lands on disk corrupted; only the check that
        # round-trips one runs
        monkeypatch.setattr(model_mod, "save_bundle", corrupting_save)
        monkeypatch.setattr(smoke, "SMOKE_CHECKS", tuple(
            c for c in smoke.SMOKE_CHECKS if c[0] == "checkpoint-roundtrip"))
        code = dispatch(["smoke", "--out", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] checkpoint-roundtrip" in out


class TestByteDeterminism:
    def test_same_argv_same_bytes_outside_manifest_and_timings(self, tmp_path):
        args = lambda out: ["ensemble", "--dataset", "synthetic", "--kind", "base",  # noqa: E731
                            "--size", "2", "--epochs", "4", "--batch-size", "16",
                            "--out", str(out)]
        assert dispatch(args(tmp_path / "a")) == 0
        assert dispatch(args(tmp_path / "b")) == 0
        root_a, root_b = tmp_path / "a", tmp_path / "b"
        rels = sorted(p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file())
        assert rels == sorted(p.relative_to(root_b) for p in root_b.rglob("*")
                              if p.is_file())
        for rel in rels:
            fa, fb = root_a / rel, root_b / rel
            if rel.name == "manifest.json":
                continue  # timestamps live here by design
            if rel.name == "train_log.csv":
                # identical apart from the wall-time column
                rows_a = [r.rsplit(",", 1)[0] for r in fa.read_text().splitlines()]
                rows_b = [r.rsplit(",", 1)[0] for r in fb.read_text().splitlines()]
                assert rows_a == rows_b
                continue
            assert fa.read_bytes() == fb.read_bytes(), rel


def test_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "decolite", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: decolite" in proc.stdout


def test_package_exports_are_pinned():
    assert sorted(decolite.__all__) == """
        Adam FeatureStats INCEPTIONTIME_REFERENCE_PARAM_COUNT LiteArchitectureConfig LiteModel
        MCMReport ReduceLROnPlateau ResultsTable Tensor TimeSeriesDataset TrainConfig TrainLog
        absolute accuracy arrayio backward batch_indices batch_norm_1d build_custom_filters
        build_ensemble conv1d cosine_similarity_matrix data dense diversity dtw embed_2d
        embed_taps ensemble_accuracy ensemble_predict errors evaluation extract_final_filters
        feature_statistics fid filter_distance_matrix global_avg_pool handle_irregular
        init_model interpolate_missing load_dataset load_model load_ucr_split mcm model
        model_checksum optim param_count prefix_accuracies ratio_vs_reference relu save_model
        sequential_orthogonality_loss softmax_cross_entropy sum_all synthetic_trend_dataset
        tensor total_loss train_base training wilcoxon_signed_rank z_normalize
        """.split()
    # Every module's __all__ names only what that module defines, so a
    # deleted function cannot leave its entry behind.
    for info in pkgutil.iter_modules(decolite.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        mod = importlib.import_module(f"decolite.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert name in vars(mod), f"{mod.__name__}.__all__ names missing {name!r}"
            value = vars(mod)[name]
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == mod.__name__, \
                    f"{mod.__name__}.__all__ re-exports {name!r}"
