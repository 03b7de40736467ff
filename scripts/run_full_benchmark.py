#!/usr/bin/env python3
"""Full-archive benchmark: base vs decorrelated ensembles of sizes 2..5.

This is the long-running protocol (five independent runs per dataset,
1500 epochs per model by default) and is NOT part of the test suite. On
the complete 128-dataset archive it takes GPU-free days; use --datasets
and --epochs to scope it down.

For every dataset and run it trains five plain members and, sharing the
first seed's member as the fixed reference, four decorrelated members.
Size-s ensembles reuse the first s members of each chain. Outputs:

  results.csv          accuracy table (datasets x 8 ensemble variants)
  mcm_report.json      pairwise comparison statistics over that table
  mcm_matrix.csv       plot-ready pairwise grid
  fid_comparison.json  per-dataset FID(ref, plain) vs FID(ref, deco) for
                       the 2-model configurations, with a paired Wilcoxon
                       p-value across datasets
  failures.csv         every skipped dataset with its error (header only
                       when none failed)

Members land in <out>/models/<dataset>/run<k>/{base0..4,deco1..4}/ with
checkpoint_best.ckpt, checkpoint_last.ckpt and train_log.csv. A rerun reloads
a member only if its checkpoint records the same training config (seed
included), training data and predecessors (see build_ensemble); the others,
and the old single-file layout, are retrained.
"""

import argparse
import csv
import io
import sys
import traceback
from pathlib import Path

import numpy as np

from decolite.arrayio import write_atomic, write_json
from decolite.data import load_dataset, resolve_data_root
from decolite.diversity import feature_statistics, fid
from decolite.errors import ConfigError
from decolite.evaluation import (ResultsTable, format_p_value, mcm, prefix_accuracies,
                                 wilcoxon_signed_rank)
from decolite.training import TrainConfig, build_ensemble

SIZES = (2, 3, 4, 5)


def run_dataset(name, root, out, cfg, n_runs):
    train_ds, test_ds = load_dataset(root, name)
    acc = {f"{prefix}LITETime-{s}": [] for s in SIZES for prefix in ("", "Deco-")}
    fid_plain, fid_deco = [], []
    for run in range(n_runs):
        seeds = [run * 100 + k for k in range(5)]
        mdir = out / "models" / name / f"run{run}"
        base_models = build_ensemble(train_ds, cfg, 5, "base", seeds=seeds,
                                     out_dirs=[mdir / f"base{i}" for i in range(5)]).models
        # The chain reloads base member 0 from its directory, with the same bits,
        # and is scored with the base build's instance, which holds its eval pass.
        deco_models = base_models[:1] + build_ensemble(
            train_ds, cfg, 5, "deco", seeds=seeds,
            out_dirs=[mdir / "base0"] + [mdir / f"deco{i}" for i in range(1, 5)]).models[1:]
        for prefix, chain in (("", base_models), ("Deco-", deco_models)):
            for s, a in zip(SIZES, prefix_accuracies(chain, test_ds)[1:]):
                acc[f"{prefix}LITETime-{s}"].append(a)
        ref_stats = feature_statistics(base_models[0], test_ds.X, "ref")
        fid_plain.append(fid(ref_stats, feature_statistics(base_models[1], test_ds.X, "b")))
        fid_deco.append(fid(ref_stats, feature_statistics(deco_models[1], test_ds.X, "d")))
    return ({k: float(np.mean(v)) for k, v in acc.items()},
            float(np.mean(fid_plain)), float(np.mean(fid_deco)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-root", help="archive root (or DECO_DATA_ROOT)")
    ap.add_argument("--out", default="benchmark", help="output directory")
    ap.add_argument("--datasets", default="all",
                    help="'all', a comma list, or @file with one name per line")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=1500)
    ap.add_argument("--alpha", type=float, default=0.5)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    cfg = TrainConfig(epochs=args.epochs, alpha=args.alpha)
    try:
        cfg.validate()
    except ConfigError as exc:
        ap.error(str(exc))

    root = resolve_data_root(args.data_root)
    if root is None:
        ap.error("need --data-root or DECO_DATA_ROOT")
    if args.datasets == "all":
        names = sorted(p.name for p in root.iterdir()
                       if (p / f"{p.name}_TRAIN.tsv").is_file())
    elif args.datasets.startswith("@"):
        try:
            text = Path(args.datasets[1:]).read_text()
        except OSError as exc:
            ap.error(f"cannot read the --datasets file: {exc}")
        names = [ln.strip() for ln in text.splitlines() if ln.strip()]
    else:
        names = [n for n in args.datasets.split(",") if n]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows, fid_pairs, failures = {}, {}, []
    for i, name in enumerate(names):
        print(f"[{i + 1}/{len(names)}] {name}", flush=True)
        try:
            accs, f_plain, f_deco = run_dataset(name, root, out, cfg, args.runs)
        except Exception as exc:  # noqa: BLE001
            failures.append((name, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc()
            print(f"  skipped ({failures[-1][1]})", file=sys.stderr)
            continue
        rows[name] = accs
        fid_pairs[name] = {"plain": f_plain, "deco": f_deco}
        best = max(accs, key=accs.get)
        print(f"  best {best} = {accs[best]:.4f}")

    failures_csv = io.StringIO()
    writer = csv.writer(failures_csv)
    writer.writerow(["dataset", "error"])
    writer.writerows(failures)
    write_atomic(out / "failures.csv", failures_csv.getvalue().encode("utf-8"))
    if not rows:
        ap.exit(1, f"no dataset finished; see {out / 'failures.csv'}\n")

    classifiers = [f"{p}LITETime-{s}" for s in SIZES for p in ("", "Deco-")]
    table = ResultsTable(
        classifiers, list(rows),
        np.array([[rows[d][c] for d in rows] for c in classifiers]))
    table.to_csv(out / "results.csv")
    report = mcm(table)
    report.to_json(out / "mcm_report.json")
    report.matrix_csv(out / "mcm_matrix.csv")

    plain_vec = np.array([v["plain"] for v in fid_pairs.values()])
    deco_vec = np.array([v["deco"] for v in fid_pairs.values()])
    wres = wilcoxon_signed_rank(deco_vec, plain_vec) if len(plain_vec) > 1 else None
    write_json(out / "fid_comparison.json", {
        "per_dataset": fid_pairs,
        "deco_higher": int((deco_vec > plain_vec).sum()),
        "plain_higher": int((plain_vec > deco_vec).sum()),
        "equal": int((plain_vec == deco_vec).sum()),
        "wilcoxon_p": None if wres is None else wres.p_value,
        "wilcoxon_p_display": None if wres is None else format_p_value(wres.p_value),
    })

    print("\nmean accuracy ranking:")
    for name, macc in zip(report.classifiers, report.mean_accuracy):
        print(f"  {name:18s} {macc:.4f}")
    if wres is not None:
        print(f"FID shift (decorrelated vs plain) Wilcoxon p: "
              f"{format_p_value(wres.p_value)}")


if __name__ == "__main__":
    main()
