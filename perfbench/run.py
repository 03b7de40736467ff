"""Benchmark of decorrelated-ensemble training, evaluation and analysis.

Run from the repository root:

    python3 perfbench/run.py --workload deco-long --seed 1 --seconds 30 --trace 0

It imports decolite from ``src/`` of the checkout it sits in, builds the
workload's inputs from ``--seed``, warms up, then runs whole rounds until
``--seconds`` have passed: each round sets the inputs up again, three
times (the median is ``setup_s``), runs the pipeline in ``workloads.py``,
and has its outputs checked. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 1``
the metrics are the per-layer ones from ``tracing.py``; ``--workload all``
runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("deco-long", "deco-short", "eval-analyze")
BLAS_THREADS = 1   # one BLAS thread: steadier on a shared box, and no more than nproc
SETUPS_PER_ROUND = 3  # set-up takes tens of ms, so it is sampled more often than a round
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "decolite" / "__init__.py").is_file():
        print(f"perfbench: no decolite package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def measure(args, work: Path):
    import workloads
    from checks import NOT_RUN, Checker

    spec = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    # Set-up runs before every round, so that its median samples the whole
    # run as the stage times do; one untimed set-up feeds the warm-up.
    inputs = workloads.setup(spec, args.seed, work)
    workloads.warm_up(inputs, work)
    checker = Checker(spec, inputs, args.seed)
    counts = {"attempted": 0, "failed": 0, "wrong": 0}
    setup_s = []

    def one_round(stage):
        with stage("setup"):
            for _ in range(SETUPS_PER_ROUND):
                tic = time.perf_counter()
                checker.inputs = workloads.setup(spec, args.seed, work)
                setup_s.append(time.perf_counter() - tic)
        out = workloads.run_round(spec, checker.inputs, args.seed, work, stage)
        with tracer.paused() if tracer else nullcontext():
            problems = checker.check(out)
        for op, found in problems.items():
            for msg in found:
                print(f"perfbench: {spec.name} {op}: {msg}", file=sys.stderr)
        counts["attempted"] += len(problems)
        counts["failed"] += sum(1 for found in problems.values() if found)
        # An operation that raised is failed; one that returned a wrong
        # output also makes the run incorrect.
        counts["wrong"] += sum(1 for found in problems.values()
                               if any(not msg.startswith(NOT_RUN) for msg in found))
        return out if not out.error else None

    def untraced(name):
        return nullcontext()

    stage = untraced
    if tracer:
        baseline = one_round(untraced)
        if baseline is None:
            print("perfbench: the untraced baseline round failed", file=sys.stderr)
            return None
        tracer.install()

        def stage(name):
            return tracer.span("stage." + name)

    rounds, attempts = [], 0
    start = time.perf_counter()
    while attempts == 0 or time.perf_counter() - start < args.seconds:
        with tracer.span("round") if tracer else nullcontext():
            out = one_round(stage)
        attempts += 1
        if out is not None:
            rounds.append(out)
    if not rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return None

    def med(values):
        return float(statistics.median(values))

    if tracer:
        metrics = tracer.per_layer()
        busy = [r.train_s + r.eval_s + r.analysis_s for r in rounds]
        base = baseline.train_s + baseline.eval_s + baseline.analysis_s
        metrics["trace.overhead_pct"] = (100.0 * (med(busy) / base - 1.0), "%")
        coverage = metrics["trace.step_coverage_pct"][0]
        if not 90.0 <= coverage <= 110.0:
            print(f"perfbench: per-primitive rows cover {coverage:.1f}% of a step",
                  file=sys.stderr)
            counts["wrong"] += 1
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{spec.name}-seed{args.seed}.tsv")
    else:
        samples = spec.members * spec.epochs * spec.n_train
        metrics = {
            "setup_s": (med(setup_s), "s"),
            "train_samples_per_s": (med([samples / r.train_s for r in rounds]), "samples/s"),
            "eval_samples_per_s": (med([spec.n_test / r.eval_s for r in rounds]), "samples/s"),
            "analysis_s": (med([r.analysis_s for r in rounds]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    return {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
