"""Command-line front end.

Subcommands: train, ensemble, evaluate, mcm, diversity, smoke. Outputs
land under ``--out`` in a deterministic layout
(``<dataset>/<kind>-<size>/seed<k>/...``) and every file written by a run
is listed in that run root's append-only ``manifest.json``. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arrayio import write_json
from .data import load_dataset, resolve_data_root, synthetic_trend_dataset
from .diversity import embed_2d, feature_statistics, filter_distance_matrix, write_fid_report
from .errors import ConfigError, DataError, FormatError, NumericError, UsageError
from .evaluation import ResultsTable, ensemble_accuracy, mcm
from .model import load_model
from .smoke import run_smoke
from .training import TrainConfig, build_ensemble

__all__ = ["dispatch", "main"]

SYNTHETIC_NAME = "synthetic"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n\n{self.format_help()}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"--seeds expects comma-separated integers, got {text!r}") from exc
    if not seeds:
        raise UsageError("--seeds lists no seeds")
    if len(set(seeds)) != len(seeds):
        raise UsageError(f"--seeds lists a seed more than once: {text!r}")
    return seeds


def _load_config_file(path, known: frozenset[str]) -> dict[str, str]:
    """``key=value`` lines; a key the command does not read is a usage error."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, value = stripped.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    unknown = sorted(set(values) - known)
    if unknown:
        raise UsageError(f"{path}: unknown config key(s) for this command: {', '.join(unknown)}")
    return values


def _coalesce(args, file_cfg: dict, name: str, default, cast):
    value = getattr(args, name, None)
    if value is None and name in file_cfg:
        try:
            value = cast(file_cfg[name])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config file value for {name!r} is invalid") from exc
    return default if value is None else value


def _train_config(args, file_cfg) -> TrainConfig:
    base = TrainConfig()
    cfg = TrainConfig(
        alpha=_coalesce(args, file_cfg, "alpha", base.alpha, float),
        epochs=_coalesce(args, file_cfg, "epochs", base.epochs, int),
        batch_size=_coalesce(args, file_cfg, "batch_size", base.batch_size, int),
        orth_normalization=_coalesce(args, file_cfg, "orth_norm",
                                     base.orth_normalization, str),
        lr=_coalesce(args, file_cfg, "lr", base.lr, float),
    )
    cfg.validate()
    return cfg


def _load_splits(name: str, data_root):
    if name == SYNTHETIC_NAME:
        return (synthetic_trend_dataset(split="train"),
                synthetic_trend_dataset(split="test"))
    root = resolve_data_root(data_root)
    if root is None:
        raise UsageError("archive datasets need --data-root or the DECO_DATA_ROOT variable")
    return load_dataset(root, name)


def _append_manifest(run_root: Path, record: dict) -> None:
    """Append ``record`` to the run root's manifest; an existing manifest that
    is not ``{"runs": [...]}`` is a :class:`FormatError` and stays untouched."""
    path = run_root / "manifest.json"
    runs = []
    if path.exists():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:  # invalid JSON or UTF-8
            raise FormatError(f"{path}: corrupt manifest: {exc}") from exc
        runs = manifest.get("runs") if isinstance(manifest, dict) else None
        if not isinstance(runs, list):
            raise FormatError(f'{path}: corrupt manifest: expected {{"runs": [...]}}')
    runs.append(record)
    write_json(path, {"runs": runs})


def _manifest_record(command: str, run_root: Path, artifacts: list[Path],
                     started: str, started_clock: float, **extra) -> dict:
    rec = {
        "command": command,
        "artifacts": sorted(str(p.relative_to(run_root)) for p in artifacts if p.exists()),
        "version": __version__,
        "started_at": started,
        "finished_at": _utc_now(),
        "wall_seconds": round(time.perf_counter() - started_clock, 3),
    }
    rec.update(extra)
    return rec


# ---------------------------------------------------------------------------
# commands


def _run_build(args, file_cfg, command: str, kind: str, run_size: int, size: int,
               seeds: list[int], report) -> int:
    """The body ``train`` and ``ensemble`` share: build ``size`` members of
    ``kind`` with ``seeds`` into ``<out>/<dataset>/<kind>-<run_size>/seed<k>``,
    write the metrics that ``report(build, dataset, train_ds, test_ds)``
    returns with its lines to print, and append the manifest, which records
    ``run_size`` as the size."""
    started, clock = _utc_now(), time.perf_counter()
    cfg = _train_config(args, file_cfg)
    dataset = _coalesce(args, file_cfg, "dataset", None, str)
    if dataset is None:
        raise UsageError("--dataset is required")
    out = Path(_coalesce(args, file_cfg, "out", "runs", str))
    train_ds, test_ds = _load_splits(dataset, _coalesce(args, file_cfg, "data_root", None, str))

    run_root = out / dataset / f"{kind}-{run_size}"
    seed_dirs = [run_root / f"seed{seed}" for seed in seeds]
    build = build_ensemble(train_ds, cfg, size, kind, seeds=seeds, out_dirs=seed_dirs)
    metrics, lines = report(build, dataset, train_ds, test_ds)
    metrics_path = run_root / "metrics.json"
    write_json(metrics_path, metrics)
    artifacts = [metrics_path] + [d / name for d in seed_dirs for name in
                                  ("checkpoint_best.ckpt", "checkpoint_last.ckpt",
                                   "train_log.csv")]
    _append_manifest(run_root, _manifest_record(
        command, run_root, artifacts, started, clock, dataset=dataset, kind=kind,
        size=run_size, seeds=seeds, config=asdict(cfg)))
    print("\n".join(lines))
    return 0


def _member_report(build, dataset, train_ds, test_ds):
    _, train_accs = ensemble_accuracy(build.models, train_ds)
    _, test_accs = ensemble_accuracy(build.models, test_ds)
    models = [{"seed": seed, "train_accuracy": train_acc, "test_accuracy": test_acc}
              for seed, train_acc, test_acc in zip(build.metadata["seeds"], train_accs,
                                                   test_accs)]
    lines = [f"seed {m['seed']}: train acc {m['train_accuracy']:.4f}, "
             f"test acc {m['test_accuracy']:.4f}" for m in models]
    return {"dataset": dataset, "models": models}, lines


def _ensemble_report(build, dataset, train_ds, test_ds):
    ens_acc, member_acc = ensemble_accuracy(build.models, test_ds)
    meta = build.metadata
    metrics = {
        "name": meta["name"],
        "dataset": dataset,
        "kind": meta["kind"],
        "size": meta["size"],
        "seeds": meta["seeds"],
        "ensemble_test_accuracy": ens_acc,
        "member_test_accuracies": member_acc,
    }
    return metrics, [f"{meta['name']} on {dataset}: ensemble test acc {ens_acc:.4f}"]


def _cmd_train(args, file_cfg) -> int:
    # Each seed is its own one-member base ensemble; all share base-1.
    seeds = _parse_seeds(_coalesce(args, file_cfg, "seeds", "0", str))
    return _run_build(args, file_cfg, "train", "base", 1, len(seeds), seeds,
                      _member_report)


def _cmd_ensemble(args, file_cfg) -> int:
    size = _coalesce(args, file_cfg, "size", 2, int)
    kind = _coalesce(args, file_cfg, "kind", None, str)
    if kind not in ("base", "deco"):
        raise UsageError("--kind must be 'base' or 'deco'")
    seeds_text = _coalesce(args, file_cfg, "seeds", None, str)
    seeds = _parse_seeds(seeds_text) if seeds_text is not None else list(range(size))
    if size > 0 and not 2 <= size <= 5:  # build_ensemble rejects size < 1
        print(f"warning: ensemble size {size} is outside the studied range 2..5",
              file=sys.stderr)
    return _run_build(args, file_cfg, "ensemble", kind, size, size, seeds,
                      _ensemble_report)


def _load_models_and_split(args, file_cfg, command: str):
    """The preamble ``evaluate`` and ``diversity`` share. Returns the
    ``--models`` paths and their models, the dataset name, its ``--split``
    split, and the created directory ``<out>/<dataset>/<command>``."""
    if args.models is None:
        raise UsageError("--models is required")
    dataset = _coalesce(args, file_cfg, "dataset", None, str)
    if dataset is None:
        raise UsageError("--dataset is required")
    paths = [Path(tok) for tok in args.models.split(",") if tok]
    if not paths:
        raise UsageError("--models lists no checkpoint paths")
    models = [load_model(p) for p in paths]
    train_ds, test_ds = _load_splits(dataset, _coalesce(args, file_cfg, "data_root", None, str))
    out = Path(_coalesce(args, file_cfg, "out", "runs", str)) / dataset / command
    out.mkdir(parents=True, exist_ok=True)
    return paths, models, dataset, train_ds if args.split == "train" else test_ds, out


def _cmd_evaluate(args, file_cfg) -> int:
    started, clock = _utc_now(), time.perf_counter()
    paths, models, dataset, ds, out = _load_models_and_split(args, file_cfg, "evaluate")
    ens_acc, member_acc = ensemble_accuracy(models, ds)
    payload = {
        "dataset": dataset,
        "split": args.split,
        "checkpoints": [str(p) for p in paths],
        "ensemble_accuracy": ens_acc,
        "member_accuracies": member_acc,
    }
    path = out / "evaluation.json"
    write_json(path, payload)
    _append_manifest(out, _manifest_record("evaluate", out, [path], started, clock,
                                           dataset=dataset, split=args.split))
    print(f"ensemble accuracy on {dataset}/{args.split}: {ens_acc:.4f}")
    return 0


def _cmd_mcm(args, file_cfg) -> int:
    started, clock = _utc_now(), time.perf_counter()
    if args.results is None:
        raise UsageError("--results is required")
    table = ResultsTable.from_csv(args.results)
    report = mcm(table)
    out = Path(_coalesce(args, file_cfg, "out", "runs", str)) / "mcm"
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "mcm_report.json")
    report.matrix_csv(out / "mcm_matrix.csv")
    _append_manifest(out, _manifest_record(
        "mcm", out, [out / "mcm_report.json", out / "mcm_matrix.csv"], started, clock,
        results=str(args.results)))
    ranked = ", ".join(f"{n}={a:.4f}" for n, a in zip(report.classifiers,
                                                      report.mean_accuracy))
    print(f"mean accuracy ranking: {ranked}")
    return 0


def _cmd_diversity(args, file_cfg) -> int:
    started, clock = _utc_now(), time.perf_counter()
    paths, models, dataset, ds, out = _load_models_and_split(args, file_cfg, "diversity")
    ids = [f"model{i}" for i in range(len(models))]
    stats = [feature_statistics(m, ds.X, model_id=i) for m, i in zip(models, ids)]
    write_json(out / "feature_stats.json", {"stats": [s.to_json_dict() for s in stats]})
    write_fid_report(stats, out / "fid_report.json")
    matrix = filter_distance_matrix(models, ids)
    matrix.to_csv(out / "filter_distances.csv")
    emb = embed_2d(matrix)
    emb.to_csv(out / "embedding.csv", labels=[f"{m}:{i}" for m, i in matrix.labels])

    artifacts = [out / "feature_stats.json", out / "fid_report.json",
                 out / "filter_distances.csv", out / "embedding.csv"]
    _append_manifest(out, _manifest_record("diversity", out, artifacts, started, clock,
                                           dataset=dataset, split=args.split,
                                           checkpoints=[str(p) for p in paths]))
    print(f"diversity artifacts written to {out}")
    return 0


def _cmd_smoke(args, file_cfg) -> int:
    started, clock = _utc_now(), time.perf_counter()
    out = Path(_coalesce(args, file_cfg, "out", "runs", str)) / "smoke"
    results = run_smoke(out)
    width = max(len(c.name) for c in results)
    for c in results:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name:<{width}}  {c.detail}")
    _append_manifest(out, _manifest_record(
        "smoke", out, [out / "smoke_report.json", out / "smoke_checkpoint.ckpt"], started, clock))
    failed = [c.name for c in results if not c.passed]
    if failed:
        print(f"smoke failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} smoke checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p: _Parser, *, training_flags: bool) -> None:
    p.add_argument("--data-root", dest="data_root")
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.add_argument("--config", dest="config_file")
    if training_flags:
        p.add_argument("--seeds")
        p.add_argument("--alpha", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--orth-norm", dest="orth_norm", choices=("mean", "raw"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="decolite",
                     description="Diversity-driven LITE ensembles for time series classification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train single models with cross-entropy only")
    _add_common(p, training_flags=True)

    p = sub.add_parser("ensemble", help="train and evaluate a base or decorrelated ensemble")
    _add_common(p, training_flags=True)
    p.add_argument("--kind", choices=("base", "deco"))
    p.add_argument("--size", type=int)

    p = sub.add_parser("evaluate", help="evaluate saved checkpoints as an ensemble")
    _add_common(p, training_flags=False)
    p.add_argument("--models")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("mcm", help="pairwise comparison report from a results CSV")
    _add_common(p, training_flags=False)
    p.add_argument("--results")

    p = sub.add_parser("diversity", help="feature and filter diversity analysis")
    _add_common(p, training_flags=False)
    p.add_argument("--models")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("smoke", help="run the offline self-check battery")
    _add_common(p, training_flags=False)
    return parser


# Each command's handler and the config-file keys it reads through _coalesce.
_DATA_KEYS = frozenset({"dataset", "data_root", "out"})
_TRAINING_KEYS = _DATA_KEYS | {"alpha", "epochs", "batch_size", "orth_norm", "lr", "seeds"}
_HANDLERS = {
    "train": (_cmd_train, _TRAINING_KEYS),
    "ensemble": (_cmd_ensemble, _TRAINING_KEYS | {"kind", "size"}),
    "evaluate": (_cmd_evaluate, _DATA_KEYS),
    "mcm": (_cmd_mcm, frozenset({"out"})),
    "diversity": (_cmd_diversity, _DATA_KEYS),
    "smoke": (_cmd_smoke, frozenset({"out"})),
}


def dispatch(argv) -> int:
    """Parse and run one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler, known = _HANDLERS[args.command]
        file_cfg = _load_config_file(args.config_file, known) if args.config_file else {}
        return handler(args, file_cfg)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
