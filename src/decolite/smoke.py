"""Offline self-checks over the bundled synthetic data.

Each check is small, deterministic and self-contained, so a fresh
checkout with no archive data can validate gradients, the loss algebra,
the statistical oracles and the training contracts end to end. The CLI
``smoke`` command runs them all and reports one pass/fail line each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diversity, evaluation, tensor as T, training
from .data import synthetic_trend_dataset
from .model import (LiteArchitectureConfig, init_model, load_model, model_checksum,
                    save_model)
from .training import TrainConfig, train_base, train_decorrelated

__all__ = ["SmokeCheck", "run_smoke", "SMOKE_CHECKS"]

_REL_TOL = 1e-3
_FD_STEP = 1e-4


@dataclass
class SmokeCheck:
    name: str
    passed: bool
    detail: str


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def _fd_check(build_loss, leaves: list[T.Tensor], rng, max_coords: int = 6) -> float:
    """Max relative error of backward() grads against central differences.

    ``build_loss`` must rebuild the scalar loss from the leaves' current
    data on every call.
    """
    loss = build_loss()
    for leaf in leaves:
        leaf.grad = None
    T.backward(loss)
    worst = 0.0
    for leaf in leaves:
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        n_coords = min(max_coords, flat.size)
        coords = rng.choice(flat.size, size=n_coords, replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + _FD_STEP
            up = build_loss().item()
            flat[c] = keep - _FD_STEP
            down = build_loss().item()
            flat[c] = keep
            fd = (up - down) / (2.0 * _FD_STEP)
            worst = max(worst, _rel_err(float(grad.reshape(-1)[c]), fd))
    return worst


def _check_tensor_gradients() -> SmokeCheck:
    rng = np.random.default_rng(11)
    worst = 0.0

    for dilation in (1, 2, 4):
        for groups in (1, 4):
            x = T.Tensor(rng.normal(size=(2, 4, 9)), requires_grad=True)
            k = T.Tensor(rng.normal(size=(4, 4 // groups, 3)), requires_grad=True)
            bias = T.Tensor(rng.normal(size=4), requires_grad=True)
            worst = max(worst, _fd_check(
                lambda x=x, k=k, bias=bias, d=dilation, g=groups:
                    T.sum_all(T.relu(T.conv1d(x, k, bias, dilation=d, groups=g))),
                [x, k, bias], rng))

    x = T.Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
    beta = T.Tensor(rng.normal(size=2), requires_grad=True)
    worst = max(worst, _fd_check(
        lambda: T.sum_all(T.absolute(T.batch_norm_1d(x, gamma, beta, mode="train"))),
        [x, gamma, beta], rng))

    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    worst = max(worst, _fd_check(lambda: T.sum_all(T.global_avg_pool(x)), [x], rng))

    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    targets = np.eye(2)[rng.integers(0, 2, size=3)]
    worst = max(worst, _fd_check(
        lambda: T.softmax_cross_entropy(T.dense(x, w, b), targets), [x, w, b], rng))

    fa = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    fb = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    worst = max(worst, _fd_check(
        lambda: T.sum_all(T.absolute(T.cosine_similarity_matrix(fa, fb))) * 0.25,
        [fa, fb], rng))

    ok = worst <= _REL_TOL
    return SmokeCheck("tensor-gradients", ok, f"max rel err {worst:.2e}")


def _check_model_gradient() -> SmokeCheck:
    rng = np.random.default_rng(23)
    arch = LiteArchitectureConfig()
    net = init_model(arch, n_classes=2, seed=5)
    frozen = init_model(arch, n_classes=2, seed=9)
    x = T.Tensor(rng.normal(size=(2, 1, 24)))
    targets = np.eye(2)[np.array([0, 1])]
    _, prev_const = frozen.forward(x, mode="eval")

    def build_loss():
        logits, feats = net.forward(x, mode="train")
        ce = T.softmax_cross_entropy(logits, targets)
        orth = training.orthogonality_loss(feats, prev_const)
        return training.total_loss(ce, orth, 0.5)

    worst = _fd_check(build_loss, net.trainable_parameters(), rng, max_coords=3)
    ok = worst <= _REL_TOL
    return SmokeCheck("model-gradient", ok, f"max rel err {worst:.2e}")


def _check_loss_algebra() -> SmokeCheck:
    rng = np.random.default_rng(3)
    problems = []

    single = rng.normal(size=(2, 1, 6))
    if training.orthogonality_loss(single, rng.normal(size=(2, 1, 6))).item() != 0.0:
        problems.append("single-channel loss not zero")

    ortho = np.zeros((1, 2, 2))
    ortho[0] = np.eye(2)
    if abs(training.orthogonality_loss(ortho, ortho).item()) > 1e-12:
        problems.append("orthonormal identical maps not zero")

    fa = np.array([[[1.0, 0.0], [1.0, 1.0]]]) / np.array([1.0, np.sqrt(2.0)])[None, :, None]
    fb = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    raw = training.orthogonality_loss(fa, fb, mode="raw").item()
    mean = training.orthogonality_loss(fa, fb, mode="mean").item()
    if abs(raw - np.sqrt(0.5)) > 1e-6 or abs(mean - np.sqrt(0.5) / 2.0) > 1e-6:
        problems.append(f"hand 2x2 case off: raw={raw:.7f} mean={mean:.7f}")

    f1 = rng.normal(size=(2, 3, 5))
    f2 = rng.normal(size=(2, 3, 5))
    seq = training.sequential_orthogonality_loss(f1, [f2]).item()
    if seq != training.orthogonality_loss(f1, f2).item():
        problems.append("single-term sequential loss differs")

    if training.total_loss(1.0, 0.5, 0.5).item() != 0.75:
        problems.append("alpha blend arithmetic off")
    if training.total_loss(1.25, 9.0, 1.0).item() != 1.25:
        problems.append("alpha=1 boundary not exact")
    if training.total_loss(9.0, 0.25, 0.0).item() != 0.25:
        problems.append("alpha=0 boundary not exact")

    return SmokeCheck("loss-algebra", not problems, "; ".join(problems) or "all identities hold")


def _dtw_paths(n: int, m: int):
    """Every monotone index path from (0, 0) to (n-1, m-1)."""
    stack = [[(0, 0)]]
    while stack:
        path = stack.pop()
        i, j = path[-1]
        if (i, j) == (n - 1, m - 1):
            yield path
            continue
        for step in ((i + 1, j), (i, j + 1), (i + 1, j + 1)):
            if step[0] < n and step[1] < m:
                stack.append(path + [step])


def dtw_brute_force(a, b) -> float:
    """Minimum forward-accumulated cost over explicitly enumerated paths."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    best = np.inf
    for path in _dtw_paths(a.size, b.size):
        cost = 0.0
        for i, j in path:
            cost = cost + (a[i] - b[j]) ** 2
        best = min(best, cost)
    return best


def _check_dtw_oracle() -> SmokeCheck:
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.normal(size=rng.integers(1, 7))
        b = rng.normal(size=rng.integers(1, 7))
        if diversity.dtw(a, b) != dtw_brute_force(a, b):
            return SmokeCheck("dtw-oracle", False,
                              f"mismatch on lengths {a.size}x{b.size}")
    if diversity.dtw([1.0, 2.0], [2.0]) != 1.0:
        return SmokeCheck("dtw-oracle", False, "hand case [1,2] vs [2] != 1")
    return SmokeCheck("dtw-oracle", True, "20 random pairs match enumeration exactly")


def wilcoxon_brute_force(a, b) -> float:
    """Two-sided p by enumerating all sign assignments of the ranked pairs."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return 1.0
    order = np.argsort(np.abs(diff), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(diff)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r2 = np.rint(2 * ranks).astype(np.int64)
    observed = int(r2[diff > 0].sum())
    sums = np.zeros(2 ** n, dtype=np.int64)
    for bit, r in enumerate(r2):
        sums[(np.arange(2 ** n) >> bit) & 1 == 1] += r
    n_le = int((sums <= observed).sum())
    n_ge = int((sums >= observed).sum())
    return min(1.0, 2.0 * min(n_le, n_ge) / float(2 ** n))


def _check_wilcoxon() -> SmokeCheck:
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=n)
        b = a - rng.normal(size=n)
        if rng.random() < 0.5:
            b[rng.integers(0, n)] = a[rng.integers(0, n)]  # provoke zero/tie cases
        got = evaluation.wilcoxon_signed_rank(a, b).p_value
        want = wilcoxon_brute_force(a, b)
        if got != want:
            return SmokeCheck("wilcoxon-exact", False,
                              f"trial {trial}: p={got} vs enumeration {want}")
    res = evaluation.wilcoxon_signed_rank(np.arange(6.0) + 1.0, np.zeros(6))
    if res.p_value != 2.0 / 64.0:
        return SmokeCheck("wilcoxon-exact", False, "n=6 all-positive case != 2/64")
    return SmokeCheck("wilcoxon-exact", True, "12 random cases match 2^n enumeration")


def _check_mcm() -> SmokeCheck:
    table = evaluation.ResultsTable(["a", "b"], ["d1", "d2", "d3"],
                                    np.array([[0.9, 0.8, 0.7], [0.8, 0.8, 0.6]]))
    report = evaluation.mcm(table)
    ok = (abs(report.mean_difference[0, 1] - (0.2 / 3.0)) < 1e-12
          and report.wins[0, 1] == 2 and report.ties[0, 1] == 1
          and report.losses[0, 1] == 0
          and report.classifiers == ["a", "b"])
    return SmokeCheck("mcm-hand-table", ok,
                      "2x3 table reproduced" if ok else "hand oracle mismatch")


def _check_fid() -> SmokeCheck:
    s1 = diversity.FeatureStats("m0", np.array([0.0]), np.array([[1.0]]), 8)
    s2 = diversity.FeatureStats("m1", np.array([1.0]), np.array([[4.0]]), 8)
    v = diversity.fid(s1, s2)
    if abs(v - 2.0) > 1e-8:
        return SmokeCheck("fid-closed-form", False, f"1-D case gave {v}")
    if diversity.fid(s1, s1) > 1e-8:
        return SmokeCheck("fid-closed-form", False, "identical stats not ~0")
    rng = np.random.default_rng(31)
    mu_a, mu_b = rng.normal(size=4), rng.normal(size=4)
    da, db = rng.uniform(0.2, 2.0, size=4), rng.uniform(0.2, 2.0, size=4)
    closed = ((mu_a - mu_b) ** 2).sum() + (da + db - 2.0 * np.sqrt(da * db)).sum()
    v = diversity.fid(diversity.FeatureStats("a", mu_a, np.diag(da), 8),
                      diversity.FeatureStats("b", mu_b, np.diag(db), 8))
    ok = abs(v - closed) <= 1e-8
    return SmokeCheck("fid-closed-form", ok, f"diagonal case err {abs(v - closed):.2e}")


def _check_mds() -> SmokeCheck:
    rng = np.random.default_rng(37)
    pts = rng.normal(size=(5, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = diversity.embed_2d(dist)
    rec = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    err = np.abs(rec - dist).max()
    ok = err <= 1e-6 and not emb.degenerate
    return SmokeCheck("mds-roundtrip", ok, f"distance err {err:.2e}")


def _quick_config(**kw) -> TrainConfig:
    base = TrainConfig(epochs=25, batch_size=16, plateau_patience=10)
    return replace(base, **kw)


def _check_training_accuracy() -> SmokeCheck:
    ds = synthetic_trend_dataset(n=32, length=16, seed=0)
    cfg = TrainConfig(epochs=200, batch_size=64, seed=0)
    net, log = train_base(ds, cfg)
    hit = next((r.epoch for r in log.records if r.train_accuracy == 1.0), None)
    logits, _ = net.forward(ds.X, mode="eval")
    eval_acc = evaluation.accuracy(logits.data.argmax(axis=1), ds.y)
    ok = hit is not None and eval_acc == 1.0
    return SmokeCheck("train-synthetic", ok,
                      f"batch acc 1.0 at epoch {hit}, eval train acc {eval_acc:.3f}")


def _check_training_determinism() -> SmokeCheck:
    ds = synthetic_trend_dataset(n=16, length=16, seed=1)
    sums = []
    for _ in range(2):
        net, _ = train_base(ds, _quick_config(seed=4))
        sums.append(model_checksum(net))
    ok = sums[0] == sums[1]
    return SmokeCheck("train-determinism", ok,
                      "identical checksums" if ok else "re-run diverged")


def _check_checkpoint_roundtrip(out_dir: Path) -> SmokeCheck:
    net = init_model(LiteArchitectureConfig(), n_classes=2, seed=2)
    path = out_dir / "smoke_checkpoint.ckpt"
    save_model(net, path)
    back = load_model(path)
    ok = model_checksum(back) == model_checksum(net)
    return SmokeCheck("checkpoint-roundtrip", ok,
                      "bit-exact round trip" if ok else "reloaded state differs")


def _check_frozen_and_paired() -> SmokeCheck:
    ds = synthetic_trend_dataset(n=16, length=16, seed=2)
    ref, _ = train_base(ds, _quick_config(seed=0, epochs=15))
    before = model_checksum(ref)
    paired_init = model_checksum(init_model(ref.config, ds.n_classes, 1))
    deco, _ = train_decorrelated(ds, _quick_config(seed=1, epochs=15), [ref])
    problems = []
    if model_checksum(ref) != before:
        problems.append("frozen predecessor changed")
    if model_checksum(init_model(ref.config, ds.n_classes, 1)) != paired_init:
        problems.append("same-seed init not reproducible")
    if model_checksum(deco) == paired_init:
        problems.append("decorrelated model never moved from its init")
    return SmokeCheck("frozen-and-paired", not problems,
                      "; ".join(problems) or "contracts hold")


def _check_alpha_one() -> SmokeCheck:
    ds = synthetic_trend_dataset(n=16, length=16, seed=3)
    ref, _ = train_base(ds, _quick_config(seed=0, epochs=10))
    base, _ = train_base(ds, _quick_config(seed=6, epochs=40))
    deco, _ = train_decorrelated(ds, _quick_config(seed=6, epochs=40, alpha=1.0), [ref])
    ok = model_checksum(base) == model_checksum(deco)
    return SmokeCheck("alpha-one-degeneracy", ok,
                      "bit-identical to plain training" if ok else "parameters differ")


SMOKE_CHECKS = (
    ("tensor-gradients", _check_tensor_gradients),
    ("model-gradient", _check_model_gradient),
    ("loss-algebra", _check_loss_algebra),
    ("dtw-oracle", _check_dtw_oracle),
    ("wilcoxon-exact", _check_wilcoxon),
    ("mcm-hand-table", _check_mcm),
    ("fid-closed-form", _check_fid),
    ("mds-roundtrip", _check_mds),
    ("train-synthetic", _check_training_accuracy),
    ("train-determinism", _check_training_determinism),
    ("checkpoint-roundtrip", _check_checkpoint_roundtrip),
    ("frozen-and-paired", _check_frozen_and_paired),
    ("alpha-one-degeneracy", _check_alpha_one),
)


def run_smoke(out_dir) -> list[SmokeCheck]:
    """Run every check; failures are reported, never raised."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name, fn in SMOKE_CHECKS:
        try:
            if fn is _check_checkpoint_roundtrip:
                results.append(fn(out_dir))
            else:
                results.append(fn())
        except Exception as exc:  # noqa: BLE001  (a crashed check is a failed check)
            results.append(SmokeCheck(name, False, f"raised {type(exc).__name__}: {exc}"))
    results = [SmokeCheck(c.name, bool(c.passed), str(c.detail)) for c in results]
    report = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in results],
        "passed": all(c.passed for c in results),
    }
    with open(out_dir / "smoke_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results
