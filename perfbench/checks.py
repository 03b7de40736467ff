"""Output checks: every operation of a round against an independent computation.

``Checker.check`` returns, for each operation name of the round, the list
of problems found; an operation passes when its list is empty. Costly
references (the numpy eval forward over the test split, the gradient
spot-check and the convolution checks) are computed once per set of
member checksums and reused while the members stay bit-identical.
Tolerances are stated next to each check and in the README.
"""

from __future__ import annotations

import numpy as np

from decolite import diversity, evaluation, model, tensor, training

import reference as ref
from workloads import Inputs, RoundOutput, TABLE_SIZES, Workload, op_names

# The smoke battery's step of 1e-4 crosses ReLU and |.| kinks at length 512
# (42 of 180 probed coordinates came out off by more than 1e-3 with a
# correct gradient), so the step is 1e-6 and a coordinate passes when the
# central or either one-sided difference agrees: a kink spoils only the
# estimates whose interval contains it.
FD_STEP = 1e-6
FD_REL_TOL = 1e-3      # relative error of analytic vs finite-difference gradient, as in smoke
# Per parameter, the FD_COORDS largest-gradient coordinates of FD_DRAWN drawn
# at random are probed: at a near-zero gradient the O(step) error of a
# one-sided difference is a large relative error (seen: 4e-2 at 7e-6).
FD_COORDS = 2
FD_DRAWN = 8
FORWARD_TOL = 1e-9     # reference eval forward vs model.forward, relative to scale
CONV_TOL = 1e-11       # depthwise conv vs tap-by-tap sum, relative to scale
STATS_TOL = 1e-9       # feature mean/covariance vs np.mean/np.cov, relative to scale
# Frechet distances: the slack of fid()'s eigenvalue clamp (reference.frechet;
# the clamped and unclamped values were seen to differ by the slack to 2e-9)
# plus this much times max(1, Tr S_a + Tr S_b).
FID_TOL = 1e-7
EXACT_TOL = 1e-12      # orthogonality loss, probabilities, DTW entries, p-values
N_PROBE_SERIES = 4     # series used for the per-member forward and predict checks
N_DTW_SAMPLES = 12     # sampled entries of the filter distance matrix
NOT_RUN = "did not run"


def _scaled_err(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return np.inf
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


class Checker:
    def __init__(self, spec: Workload, inputs: Inputs, seed: int):
        self.spec = spec
        self.inputs = inputs
        self.rng = np.random.default_rng((seed, 23))
        self._forward_ref: dict[tuple, tuple] = {}
        self._member_ref: dict[tuple, list[str]] = {}

    def check(self, out: RoundOutput) -> dict[str, list[str]]:
        problems = {name: [] for name in op_names(self.spec)}
        checks = [
            ("train.member", out.build and out.members, self._check_members),
            ("eval.", out.accuracy, self._check_eval),
            ("analysis.feature_statistics", out.stats, self._check_stats),
            ("analysis.fid", out.fids, self._check_fid),
            ("analysis.filter_distance_matrix", out.distances, self._check_distances),
            ("analysis.embed_2d", out.embedding, self._check_embedding),
            ("analysis.mcm", out.reports, self._check_mcm),
        ]
        for prefix, produced, fn in checks:
            names = [n for n in problems if n.startswith(prefix)]
            if not produced:
                for n in names:
                    problems[n].append(f"{NOT_RUN} ({out.error or 'earlier stage failed'})")
                continue
            try:
                fn(out, problems)
            except Exception as exc:  # noqa: BLE001 - a raising check fails its ops
                for n in names:
                    problems[n].append(f"check raised {type(exc).__name__}: {exc}")
        return problems

    # -- training --------------------------------------------------------

    def _check_members(self, out: RoundOutput, problems) -> None:
        built = out.build.models
        last = len(built) - 1
        for i, (log, trained, reloaded) in enumerate(zip(out.build.logs, built, out.members)):
            p = problems[f"train.member{i}"]
            losses = [(r.ce_loss, r.orth_loss, r.total_loss) for r in log.records]
            if len(losses) != self.spec.epochs or not np.isfinite(losses).all():
                p.append("logged losses missing or not finite")
            # The checkpoint was written when member i finished; later members
            # must not have changed it in memory since.
            if model.model_checksum(trained) != model.model_checksum(reloaded):
                p.append("member changed after its checkpoint was written")
        key = tuple(model.model_checksum(m) for m in out.members)
        if key not in self._member_ref:
            self._member_ref[key] = self._last_member_problems(out)
        problems[f"train.member{last}"] += self._member_ref[key]

    def _last_member_problems(self, out: RoundOutput) -> list[str]:
        found = []
        *prev, last = out.members
        x = self.inputs.test.X[:N_PROBE_SERIES]
        new_f = last.forward(x, mode="eval")[1].data
        prev_f = [p.forward(x, mode="eval")[1].data for p in prev]
        got = training.sequential_orthogonality_loss(
            tensor.Tensor(new_f), [tensor.Tensor(f) for f in prev_f]).item()
        if ref.rel_err(got, ref.orthogonality_loss(new_f, prev_f)) > EXACT_TOL:
            found.append(f"orthogonality loss {got!r} differs from the numpy loss")
        found += self._gradient_problems(out)
        cfg = last.config
        for name, dilation in (("dw1", cfg.dwsc_dilations[0]), ("dw2", cfg.dwsc_dilations[1])):
            k = last.state_arrays()[name]
            xin = self.rng.normal(size=(2, k.shape[0], self.spec.length))
            got = tensor.conv1d(tensor.Tensor(xin), tensor.Tensor(k), dilation=dilation,
                                groups=k.shape[0]).data
            err = _scaled_err(got, ref.conv_same(xin, k, dilation, depthwise=True))
            if err > CONV_TOL:
                found.append(f"{name} depthwise conv off direct summation by {err:.2e}")
        return found

    def _gradient_problems(self, out: RoundOutput) -> list[str]:
        """Finite differences of the alpha=0.5 decorrelated loss on 2 series."""
        *prev, _ = out.members
        net = model.load_model(out.member_dirs[-1] / "checkpoint_best.ckpt")
        x = tensor.Tensor(self.inputs.train.X[:2])
        targets = self.inputs.train.Y[:2]
        prev_f = [p.forward(x, mode="eval")[1].detach() for p in prev]

        def loss():
            logits, feats = net.forward(x, mode="train")
            ce = tensor.softmax_cross_entropy(logits, targets)
            orth = training.sequential_orthogonality_loss(feats, prev_f)
            return training.total_loss(ce, orth, 0.5)

        params = net.trainable_parameters()
        for p in params:
            p.grad = None
        root = loss()
        tensor.backward(root)
        mid = root.item()
        worst = 0.0
        for p in params:
            flat = p.data.reshape(-1)
            grad = p.grad.reshape(-1) if p.grad is not None else np.zeros_like(flat)
            drawn = self.rng.choice(flat.size, size=min(FD_DRAWN, flat.size), replace=False)
            for c in drawn[np.argsort(-np.abs(grad[drawn]), kind="stable")[:FD_COORDS]]:
                keep = flat[c]
                flat[c] = keep + FD_STEP
                up = loss().item()
                flat[c] = keep - FD_STEP
                down = loss().item()
                flat[c] = keep
                analytic = float(grad[c])
                estimates = ((up - down) / 2, up - mid, mid - down)
                worst = max(worst, min(ref.rel_err(analytic, e / FD_STEP) for e in estimates))
        return [] if worst <= FD_REL_TOL else [f"gradient off finite differences by {worst:.2e}"]

    # -- evaluation ------------------------------------------------------

    def _reference(self, members) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Numpy forward of every member over the test split.

        Returns the logits, the time-pooled features and the problems found
        comparing ``model.forward`` with it on the first few series.
        """
        key = tuple(model.model_checksum(m) for m in members)
        if key not in self._forward_ref:
            x = self.inputs.test.X
            runs = [ref.lite_eval_forward(m.state_arrays(), m.custom_filters.banks,
                                          m.config, x) for m in members]
            found = []
            for i, (m, (logits, feats)) in enumerate(zip(members, runs)):
                got_logits, got_feats = m.forward(x[:N_PROBE_SERIES], mode="eval")
                err = max(_scaled_err(got_logits.data, logits[:N_PROBE_SERIES]),
                          _scaled_err(got_feats.data, feats[:N_PROBE_SERIES]))
                if err > FORWARD_TOL:
                    found.append(f"member{i} eval forward off the numpy forward by {err:.2e}")
            self._forward_ref[key] = (np.stack([lg for lg, _ in runs]),
                                      np.stack([f.mean(axis=2) for _, f in runs]), found)
        return self._forward_ref[key]

    def _check_eval(self, out: RoundOutput, problems) -> None:
        test = self.inputs.test
        logits, _, found = self._reference(out.members)
        p = problems["eval.ensemble_accuracy"]
        p += found
        probs = np.stack([ref.softmax(lg) for lg in logits])
        want_members = [float((pr.argmax(axis=1) == test.y).mean()) for pr in probs]
        want_ens = float((probs.mean(axis=0).argmax(axis=1) == test.y).mean())
        ens, members = out.accuracy
        if ens != want_ens or list(members) != want_members:
            p.append(f"accuracies {ens}, {members} != recount {want_ens}, {want_members}")

        p = problems["eval.ensemble_predict"]
        got = evaluation.ensemble_predict(out.members, test.X[:N_PROBE_SERIES])
        if np.abs(got.sum(axis=1) - 1.0).max() > EXACT_TOL:
            p.append("ensemble probabilities do not sum to 1")
        if _scaled_err(got, probs[:, :N_PROBE_SERIES].mean(axis=0)) > FORWARD_TOL:
            p.append("ensemble probabilities differ from the mean member softmax")

    # -- analysis --------------------------------------------------------

    def _check_stats(self, out: RoundOutput, problems) -> None:
        _, pooled, _ = self._reference(out.members)
        for i, (s, feats) in enumerate(zip(out.stats, pooled)):
            err = max(_scaled_err(s.mu, feats.mean(axis=0)),
                      _scaled_err(s.sigma, np.cov(feats, rowvar=False)))
            if s.n_samples != feats.shape[0] or err > STATS_TOL:
                problems[f"analysis.feature_statistics{i}"].append(
                    f"mean/covariance off np.mean/np.cov by {err:.2e}")

    def _check_fid(self, out: RoundOutput, problems) -> None:
        for (i, j), value in out.fids.items():
            a, b = out.stats[i], out.stats[j]
            scale = FID_TOL * max(1.0, np.trace(a.sigma) + np.trace(b.sigma))
            want, slack = ref.frechet(a.mu, a.sigma, b.mu, b.sigma)
            errs = {"sqrtm formula": (abs(value - want), slack + scale),
                    "symmetry": (abs(diversity.fid(b, a) - value), 2 * slack + scale)}
            for name, s in (("fid(a, a)", a), ("fid(b, b)", b)):
                errs[name] = (abs(diversity.fid(s, s)),
                              ref.frechet(s.mu, s.sigma, s.mu, s.sigma)[1] + scale)
            problems[f"analysis.fid{i}-{j}"] += [
                f"{k} off by {err:.2e} (tolerance {tol:.2e})"
                for k, (err, tol) in errs.items() if err > tol]

    def _check_distances(self, out: RoundOutput, problems) -> None:
        p = problems["analysis.filter_distance_matrix"]
        d = out.distances.values
        filters = np.concatenate([m.state_arrays()["dw2"][:, 0, :] for m in out.members])
        n = filters.shape[0]
        if d.shape != (n, n) or not np.array_equal(d, d.T) or np.any(np.diag(d) != 0.0):
            p.append("distance matrix is not square, symmetric with a zero diagonal")
            return
        for _ in range(N_DTW_SAMPLES):
            i, j = self.rng.choice(n, size=2, replace=False)
            if ref.rel_err(d[i, j], ref.dtw(filters[i], filters[j])) > EXACT_TOL:
                p.append(f"entry ({i}, {j}) differs from the dynamic program")

    def _check_embedding(self, out: RoundOutput, problems) -> None:
        coords = out.embedding.coords
        if coords.shape != (out.distances.values.shape[0], 2) or \
                np.abs(coords.sum(axis=0)).max() > 1e-9 * max(1.0, np.abs(coords).sum()):
            problems["analysis.embed_2d"].append("MDS coordinates are not centred")

    def _check_mcm(self, out: RoundOutput, problems) -> None:
        for n, table, rep in zip(TABLE_SIZES, self.inputs.tables, out.reports):
            p = problems[f"analysis.mcm{n}"]
            off = ~np.eye(len(rep.classifiers), dtype=bool)
            if np.any((rep.wins + rep.ties + rep.losses)[off] != n):
                p.append("wins + ties + losses differ from the dataset count")
            if not (np.array_equal(rep.wins, rep.losses.T) and np.array_equal(rep.ties, rep.ties.T)
                    and np.array_equal(rep.mean_difference, -rep.mean_difference.T)
                    and np.array_equal(rep.p_values, rep.p_values.T)):
                p.append("report is not antisymmetric")
            rows = {name: table.acc[table.classifiers.index(name)] for name in rep.classifiers}
            for a in range(len(rep.classifiers)):
                for b in range(a + 1, len(rep.classifiers)):
                    want = ref.wilcoxon_p(rows[rep.classifiers[a]], rows[rep.classifiers[b]])
                    if ref.rel_err(rep.p_values[a, b], want, floor=1e-300) > 1e-9:
                        p.append(f"p-value {rep.classifiers[a]} vs {rep.classifiers[b]} "
                                 f"{rep.p_values[a, b]!r} != scipy {want!r}")
