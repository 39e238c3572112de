"""The lattice normals by their first transform, kept as a test oracle.

``rng.lattice_normals`` wraps ``base + shift`` into [0, 1) by subtracting its floor, and
``rng.ndtri`` evaluates AS241's central ratio at every point before the tails overwrite
theirs, and the near-tail ratio at every tail point before the far ones overwrite theirs.
This is the form they replace: the wrap by ``% 1.0``, and a quantile that gathers the
central points, evaluates them alone and scatters them back, and gathers each tail apart.
Both must agree with it bit for bit.
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
