"""The lattice normals by their first transform, and the per-draw swap estimator, kept as
test oracles.

``rng.lattice_normals`` wraps ``base + shift`` into [0, 1) by subtracting its floor, and
``rng.ndtri`` evaluates AS241's central ratio at every point before the tails overwrite
theirs, and the near-tail ratio at every tail point before the far ones overwrite theirs.
This is the form they replace: the wrap by ``% 1.0``, and a quantile that gathers the
central points, evaluates them alone and scatters them back, and gathers each tail apart.
Both must agree with it bit for bit.

A swap group of ``duality`` reduces each chunk of payoff rows to replicate means and
differences the means.  ``swap_means`` is the per-draw form it replaces: the difference and
its control variate on every draw, reduced to replicate means after.
"""

import numpy as np

from selfdual import rng


def ndtri(p) -> np.ndarray:
    """AS241 with its central region gathered: the quantile of each ``p`` in (0, 1)."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * rng._ratio(rng._AS241[0], 0.180625 - qc * qc)
    tail = ~central
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    r[near] = rng._ratio(rng._AS241[1], r[near] - 1.6)
    r[~near] = rng._ratio(rng._AS241[2], r[~near] - 5.0)
    out[tail] = np.copysign(r, q[tail])
    return out


def lattice_normals(points: int, shifts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rng.lattice_normals`` with the wrap by ``% 1.0`` and the gathered quantile."""
    dim, replicates = out.shape[0], shifts.shape[0]
    base = np.arange(points) * rng.korobov(points, dim)[:, None] % points / points
    u = out.reshape(dim, replicates, points)
    np.add(base[:, None, :], shifts.T[:, :, None], out=u)
    u %= 1.0
    np.abs(np.subtract(np.multiply(u, 2.0, out=u), 1.0, out=u), out=u)
    np.subtract(1.0, u, out=u)
    np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
    out[...] = ndtri(out)
    return out


def payoffs(family: str, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The ``(k, B)`` payoffs of weight rows ``(u0, u)`` on column-major draws ``(n, B)``."""
    u0, u = weights[:, :1], weights[:, 1:]
    if family == "basket":
        return np.maximum(u @ cols + u0, 0.0)
    return np.maximum(np.max(u[:, :, None] * cols[None], axis=1), u0)


def swap_means(family: str, i: int, vectors, cols: np.ndarray, width: int):
    """``(means, level sums)`` of the test vectors' swap residuals on ``cols``, per draw:
    ``f(u0, u) - f(pi_i(u0, u)) - control @ (x - 1)`` on each draw, then the mean of each run
    of ``width`` draws; the level sums are those of ``f(u0, u)`` over the draws."""
    first = np.array([[u0, *u] for u0, u in vectors])
    second = first.copy()
    second[:, [0, i]] = first[:, [i, 0]]
    control = np.zeros((len(first), first.shape[1] - 1))
    control[:, i - 1] = np.maximum(first[:, i], 0.0) - np.maximum(first[:, 0], 0.0)
    # both halves in one matrix product, as the kernel takes them: a product of one row
    # takes another BLAS path, whose bits differ
    both = payoffs(family, np.concatenate([first, second]), cols)
    level = both[: len(first)]
    diffs = level - both[len(first) :]
    diffs -= control @ (cols - 1.0)
    means = np.add.reduce(diffs.reshape(len(diffs), -1, width), axis=-1) / width
    return means, np.add.reduce(level, axis=1)
