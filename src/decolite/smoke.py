"""Offline self-checks over the bundled synthetic data.

Each check is small, deterministic and self-contained, so a fresh
checkout with no archive data can validate gradients, the loss algebra,
the statistical oracles and the training contracts end to end. The CLI
``smoke`` command runs them all and reports one pass/fail line each, and
acceptance criteria 1-4, 6 and 7 (``tests/test_acceptance.py``) run them
as their only implementation.

Every check takes the output directory and returns ``(passed, detail)``;
its name appears only in :data:`SMOKE_CHECKS`. The reference
implementations it compares against live in :mod:`decolite.oracles`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import diversity, evaluation, tensor as T, training
from .arrayio import write_json
from .data import synthetic_trend_dataset
from .model import (LiteArchitectureConfig, init_model, load_model, model_checksum,
                    save_model)
from .oracles import dtw_dp, dtw_enumerate, fd_max_rel_err, wilcoxon_enumerate
from .training import TrainConfig, build_ensemble, train_base

__all__ = ["SmokeCheck", "run_smoke", "SMOKE_CHECKS"]

_REL_TOL = 1e-3


@dataclass
class SmokeCheck:
    name: str
    passed: bool
    detail: str


def _check_tensor_gradients(out_dir):
    rng = np.random.default_rng(11)
    errors = []

    # The first layer (one input channel) and depthwise (groups=4) at each
    # dilation, then one pointwise conv.
    convs = [(cin, (4, 1, 3), dilation, cin) for dilation in (1, 2, 4) for cin in (1, 4)]
    for cin, kshape, dilation, groups in convs + [(4, (3, 4, 1), 1, 1)]:
        x = T.Tensor(rng.normal(size=(2, cin, 9)), requires_grad=True)
        k = T.Tensor(rng.normal(size=kshape), requires_grad=True)
        errors.append(fd_max_rel_err(
            lambda x=x, k=k, d=dilation, g=groups:
                T.sum_all(T.relu(T.conv1d(x, k, dilation=d, groups=g))),
            [x, k], rng, 8))

    x = T.Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
    beta = T.Tensor(rng.normal(size=2), requires_grad=True)
    errors.append(fd_max_rel_err(
        lambda: T.sum_all(T.absolute(T.batch_norm_1d(x, gamma, beta, mode="train"))),
        [x, gamma, beta], rng, 8))
    rm, rv = rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
    errors.append(fd_max_rel_err(
        lambda: T.sum_all(T.absolute(T.batch_norm_1d(x, gamma, beta, rm.copy(), rv.copy(),
                                                     mode="eval"))),
        [x, gamma, beta], rng, 8))

    x = T.Tensor(rng.normal(size=(2, 3, 4)) + 0.3, requires_grad=True)
    errors.append(fd_max_rel_err(lambda: T.sum_all(T.relu(x)), [x], rng, 8))
    errors.append(fd_max_rel_err(lambda: T.sum_all(T.global_avg_pool(x)), [x], rng, 8))

    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    targets = np.eye(2)[rng.integers(0, 2, size=3)]
    errors.append(fd_max_rel_err(
        lambda: T.softmax_cross_entropy(T.dense(x, w, b), targets), [x, w, b], rng, 8))

    fa = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    fb = T.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    errors.append(fd_max_rel_err(
        lambda: T.sum_all(T.absolute(T.cosine_similarity_matrix(fa, fb))) * 0.25,
        [fa, fb], rng, 8))

    worst = float(np.max(errors))
    return worst <= _REL_TOL, f"max rel err {worst:.2e}"


def _check_model_gradient(out_dir):
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
        orth = training.sequential_orthogonality_loss(feats, [prev_const])
        return training.total_loss(ce, orth, 0.5)

    worst = fd_max_rel_err(build_loss, net.trainable_parameters(), rng, 3)
    return worst <= _REL_TOL, f"max rel err {worst:.2e}"


def _check_loss_algebra(out_dir):
    rng = np.random.default_rng(3)
    problems = []

    single = rng.normal(size=(2, 1, 6))
    if training.sequential_orthogonality_loss(single, [rng.normal(size=(2, 1, 6))]).item() != 0.0:
        problems.append("single-channel loss not zero")

    ortho = np.zeros((1, 2, 2))
    ortho[0] = np.eye(2)
    if abs(training.sequential_orthogonality_loss(ortho, [ortho]).item()) > 1e-12:
        problems.append("orthonormal identical maps not zero")

    fa = np.array([[[1.0, 0.0], [1.0, 1.0]]]) / np.array([1.0, np.sqrt(2.0)])[None, :, None]
    fb = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    raw = training.sequential_orthogonality_loss(fa, [fb], mode="raw").item()
    mean = training.sequential_orthogonality_loss(fa, [fb], mode="mean").item()
    if abs(raw - np.sqrt(0.5)) > 1e-6 or abs(mean - np.sqrt(0.5) / 2.0) > 1e-6:
        problems.append(f"hand 2x2 case off: raw={raw:.7f} mean={mean:.7f}")

    if training.total_loss(1.0, 0.5, 0.5).item() != 0.75:
        problems.append("alpha blend arithmetic off")
    if training.total_loss(1.25, 9.0, 1.0).item() != 1.25:
        problems.append("alpha=1 boundary not exact")
    if training.total_loss(9.0, 0.25, 0.0).item() != 0.25:
        problems.append("alpha=0 boundary not exact")

    return not problems, "; ".join(problems) or "all identities hold"


def _check_dtw_oracle(out_dir):
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.normal(size=rng.integers(1, 7))
        b = rng.normal(size=rng.integers(1, 7))
        if diversity.dtw(a, b) != dtw_enumerate(a, b):
            return False, f"mismatch on lengths {a.size}x{b.size}"
    if diversity.dtw([1.0, 2.0], [2.0]) != 1.0:
        return False, "hand case [1,2] vs [2] != 1"
    # The batched sweep over many pairs at once, longer than enumeration
    # reaches, with the left side both shorter and longer than the right.
    for n, m in ((3, 20), (20, 3)):
        left, right = rng.normal(size=(40, n)), rng.normal(size=(40, m))
        left[:8], right[:8] = rng.integers(-1, 2, size=(8, n)), rng.integers(-1, 2, size=(8, m))
        got = diversity._dtw_batch(left, right)
        for p in range(40):
            if got[p] != dtw_dp(left[p], right[p]):
                return False, f"batched mismatch on lengths {n}x{m}, pair {p}"
    return True, ("50 random pairs match enumeration exactly; "
                  "80 batched pairs match the scalar dynamic program")


def _check_wilcoxon(out_dir):
    rng = np.random.default_rng(29)
    for trial in range(30):
        n = trial % 10 + 1
        a = rng.normal(size=n)
        b = a - rng.normal(size=n)
        if trial % 3 == 0 and n > 1:
            b[0] = a[0]  # zero difference
        if trial % 4 == 0 and n > 2:
            d = float(rng.normal())
            b[1], b[2] = a[1] - d, a[2] + d  # tied magnitudes
        got = evaluation.wilcoxon_signed_rank(a, b).p_value
        want = wilcoxon_enumerate(a, b)
        if got != want:
            return False, f"trial {trial}: p={got} vs enumeration {want}"
    res = evaluation.wilcoxon_signed_rank(np.arange(6.0) + 1.0, np.zeros(6))
    if res.p_value != 2.0 / 64.0:
        return False, "n=6 all-positive case != 2/64"
    return True, "30 random cases match 2^n enumeration"


def _check_mcm(out_dir):
    table = evaluation.ResultsTable(["a", "b"], ["d1", "d2", "d3"],
                                    np.array([[0.9, 0.8, 0.7], [0.8, 0.8, 0.6]]))
    report = evaluation.mcm(table)
    ok = (abs(report.mean_difference[0, 1] - (0.2 / 3.0)) < 1e-12
          and report.wins[0, 1] == 2 and report.ties[0, 1] == 1
          and report.losses[0, 1] == 0
          and report.classifiers == ["a", "b"])
    return ok, "2x3 table reproduced" if ok else "hand oracle mismatch"


def _check_fid(out_dir):
    s1 = diversity.FeatureStats("m0", np.array([0.0]), np.array([[1.0]]), 8)
    s2 = diversity.FeatureStats("m1", np.array([1.0]), np.array([[4.0]]), 8)
    v = diversity.fid(s1, s2)
    if abs(v - 2.0) > 1e-8:
        return False, f"1-D case gave {v}"
    if diversity.fid(s1, s1) > 1e-8:
        return False, "identical stats not ~0"
    rng = np.random.default_rng(31)
    mu_a, mu_b = rng.normal(size=4), rng.normal(size=4)
    da, db = rng.uniform(0.2, 2.0, size=4), rng.uniform(0.2, 2.0, size=4)
    closed = ((mu_a - mu_b) ** 2).sum() + (da + db - 2.0 * np.sqrt(da * db)).sum()
    v = diversity.fid(diversity.FeatureStats("a", mu_a, np.diag(da), 8),
                      diversity.FeatureStats("b", mu_b, np.diag(db), 8))
    return abs(v - closed) <= 1e-8, f"diagonal case err {abs(v - closed):.2e}"


def _check_mds(out_dir):
    rng = np.random.default_rng(37)
    pts = rng.normal(size=(5, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    emb = diversity.embed_2d(dist)
    rec = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
    err = np.abs(rec - dist).max()
    return err <= 1e-6 and not emb.degenerate, f"distance err {err:.2e}"


def _quick_config(**kw) -> TrainConfig:
    base = TrainConfig(epochs=25, batch_size=16, plateau_patience=10)
    return replace(base, **kw)


def _check_training_accuracy(out_dir):
    ds = synthetic_trend_dataset(n=32, length=16, seed=0)
    cfg = TrainConfig(epochs=200, batch_size=64, seed=0)
    net, log = train_base(ds, cfg)
    hit = next((r.epoch for r in log.records if r.train_accuracy == 1.0), None)
    logits, _ = net.forward(ds.X, mode="eval")
    eval_acc = evaluation.accuracy(logits.data.argmax(axis=1), ds.y)
    return (hit is not None and eval_acc == 1.0,
            f"batch acc 1.0 at epoch {hit}, eval train acc {eval_acc:.3f}")


def _check_training_determinism(out_dir):
    ds = synthetic_trend_dataset(n=16, length=16, seed=1)
    sums = []
    for _ in range(2):
        net, _ = train_base(ds, _quick_config(seed=4))
        sums.append(model_checksum(net))
    ok = sums[0] == sums[1]
    return ok, "identical checksums" if ok else "re-run diverged"


def _check_checkpoint_roundtrip(out_dir):
    net = init_model(LiteArchitectureConfig(), n_classes=2, seed=2)
    path = out_dir / "smoke_checkpoint.ckpt"
    save_model(net, path)
    back = load_model(path)
    ok = model_checksum(back) == model_checksum(net)
    return ok, "bit-exact round trip" if ok else "reloaded state differs"


def _check_frozen_and_paired(out_dir):
    # Training is deterministic, so a reference trained alone holds the
    # bits the chain's reference must keep while member 1 trains against it.
    ds = synthetic_trend_dataset(n=16, length=16, seed=2)
    cfg = _quick_config(epochs=15)
    alone, _ = train_base(ds, cfg)
    paired_init = model_checksum(init_model(alone.config, ds.n_classes, 1))
    ref, deco = build_ensemble(ds, cfg, 2, "deco", seeds=[0, 1]).models
    problems = []
    if model_checksum(ref) != model_checksum(alone):
        problems.append("frozen predecessor changed")
    if model_checksum(init_model(ref.config, ds.n_classes, 1)) != paired_init:
        problems.append("same-seed init not reproducible")
    if model_checksum(deco) == paired_init:
        problems.append("decorrelated model never moved from its init")
    return not problems, "; ".join(problems) or "contracts hold"


def _check_alpha_one(out_dir):
    ds = synthetic_trend_dataset(n=16, length=16, seed=3)
    base, _ = train_base(ds, _quick_config(seed=6, epochs=40))
    deco = build_ensemble(ds, _quick_config(epochs=40, alpha=1.0), 2, "deco",
                          seeds=[0, 6]).models[1]
    ok = model_checksum(base) == model_checksum(deco)
    return ok, "bit-identical to plain training" if ok else "parameters differ"


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
            passed, detail = fn(out_dir)
        except Exception as exc:  # noqa: BLE001  (a crashed check is a failed check)
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SmokeCheck(name, bool(passed), detail))
    write_json(out_dir / "smoke_report.json",
               {"checks": [asdict(c) for c in results],
                "passed": all(c.passed for c in results)})
    return results
