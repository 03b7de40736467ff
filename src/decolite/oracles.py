"""Independent reference implementations that the smoke battery and the
tests check the package against.

Everything here is deliberately written the slow, obvious way (direct
summation, explicit path enumeration, full sign enumeration) and never
calls into the code paths it is used to verify. The one import from the
package is :func:`tensor.backward`, which produces the analytic gradients
that :func:`fd_max_rel_err` compares against finite differences.
"""

import itertools

import numpy as np

from .tensor import backward


def conv1d_direct(x, kernel, bias=None, dilation=1, groups=1):
    """Quadruple-loop cross-correlation with floor/ceil zero padding."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    batch, cin, t = x.shape
    cout, cg, klen = kernel.shape
    span = (klen - 1) * dilation
    pad_left = span // 2
    padded = np.zeros((batch, cin, t + span))
    padded[:, :, pad_left:pad_left + t] = x
    out = np.zeros((batch, cout, t))
    out_per_group = cout // groups
    for b in range(batch):
        for o in range(cout):
            grp = o // out_per_group
            for tt in range(t):
                acc = 0.0
                for c in range(cg):
                    for i in range(klen):
                        acc += kernel[o, c, i] * padded[b, grp * cg + c, tt + i * dilation]
                out[b, o, tt] = acc
            if bias is not None:
                out[b, o, :] += bias[o]
    return out


def fd_gradient(fn, array, indices, step=1e-4):
    """Central finite differences of scalar fn at the given flat indices.

    ``fn`` must re-evaluate from the array's current contents; the array
    is restored after each probe.
    """
    flat = array.reshape(-1)
    grads = {}
    for c in indices:
        keep = flat[c]
        flat[c] = keep + step
        up = fn()
        flat[c] = keep - step
        down = fn()
        flat[c] = keep
        grads[c] = (up - down) / (2.0 * step)
    return grads


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_max_rel_err(build_loss, leaves, rng, n_coords, step=1e-4):
    """Worst relative error of backward() gradients against central differences.

    Draws up to ``n_coords`` flat coordinates per leaf from ``rng``, leaf
    by leaf. ``build_loss`` must rebuild the scalar loss from the leaves'
    current data on every call. A leaf with no gradient counts as an
    infinite error, and a NaN error is returned as NaN.
    """
    loss = build_loss()
    for leaf in leaves:
        leaf.grad = None
    backward(loss)
    errors = []
    for leaf in leaves:
        if leaf.grad is None:
            return np.inf
        size = leaf.data.size
        idx = rng.choice(size, size=min(n_coords, size), replace=False)
        fd = fd_gradient(lambda: build_loss().item(), leaf.data, idx, step)
        errors += [rel_err(float(leaf.grad.reshape(-1)[c]), v) for c, v in fd.items()]
    return float(np.max(errors, initial=0.0))


def dtw_paths(n, m):
    """Yield every monotone warping path from (0,0) to (n-1,m-1)."""
    def walk(i, j, path):
        if (i, j) == (n - 1, m - 1):
            yield path
            return
        if i + 1 < n:
            yield from walk(i + 1, j, path + [(i + 1, j)])
        if j + 1 < m:
            yield from walk(i, j + 1, path + [(i, j + 1)])
        if i + 1 < n and j + 1 < m:
            yield from walk(i + 1, j + 1, path + [(i + 1, j + 1)])
    yield from walk(0, 0, [(0, 0)])


def dtw_enumerate(a, b):
    """Min over all warping paths, each accumulated front to back."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    best = np.inf
    for path in dtw_paths(a.size, b.size):
        cost = 0.0
        for i, j in path:
            cost = cost + (a[i] - b[j]) ** 2
        if cost < best:
            best = cost
    return best


def average_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    ranks = np.empty(n)
    order = np.argsort(values, kind="stable")
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_enumerate(a, b):
    """Two-sided p over all 2^n sign assignments of the ranked |differences|."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return 1.0
    doubled = np.rint(2.0 * average_ranks(np.abs(diff))).astype(int)
    observed = int(doubled[diff > 0].sum())
    sums = [sum(pick) for r in [doubled]
            for pick in itertools.product(*[(0, int(v)) for v in r])]
    n_le = sum(1 for s in sums if s <= observed)
    n_ge = sum(1 for s in sums if s >= observed)
    return min(1.0, 2.0 * min(n_le, n_ge) / float(2 ** n))


def adam_trace(grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, start=0.0):
    """Scalar Adam recurrence, transcribed step by step."""
    m = v = 0.0
    p = start
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(p)
    return out
