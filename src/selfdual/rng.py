"""Deterministic random-number streams.

Every Monte-Carlo routine in this package takes an explicit
:class:`RngStream`.  A stream is identified by ``(seed, stream_id)``;
reconstructing a stream with the same pair replays exactly the same
sample sequence, while distinct ``stream_id`` values give statistically
independent streams (numpy ``SeedSequence`` spawning).

Streams are stateful and single-owner: do not use one instance from two
threads at once.  For parallel work derive children with :meth:`RngStream.child`.

The standard normals of a jump-free law's common-random-number checks, and of a
continuous hedge's price check, come from randomly shifted copies of a rank-1
lattice instead (randomised quasi-Monte Carlo: Owen, Ann. Statist. 25, 1997;
L'Ecuyer & Lemieux, 2002): :func:`lattice_normals` maps each shift, drawn from
a stream in [0, 1), to the lattice points moved by it and wrapped exactly into
[0, 1), folded by the tent transform and passed through :func:`ndtri` in place.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class RngStream:
    def __init__(self, seed: int, stream_id: int = 0, _key: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key = _key if _key is not None else (self.stream_id,)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, index: int) -> "RngStream":
        """Independent stream keyed by (seed, stream_id, ..., index)."""
        return RngStream(self.seed, self.stream_id, _key=self._key + (int(index),))

    # Thin pass-throughs for the draws used in this package.

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size)

    def choice(self, a, size=None, p=None):
        return self._gen.choice(a, size=size, p=p)

    def multivariate_normal(self, mean, cov, size=None):
        return self._gen.multivariate_normal(mean, cov, size=size, method="eigh")

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self._key})"


# Wichura's AS241 (PPND16), Appl. Statist. 37 (1988): numerator and denominator
# coefficients, lowest order first, of the central region |p - 1/2| <= 0.425 (in
# 0.180625 - (p - 1/2)^2), and of the tails, in r - 1.6 for r = sqrt(-log min(p, 1 - p))
# up to 5 and in r - 5 beyond.
_AS241 = [
    (
        [3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
         1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
         3.3430575583588128105e4, 2.5090809287301226727e3],
        [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
         2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
         5.2264952788528545610e3],
    ),
    (
        [1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
         3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
         2.27238449892691845833e-2, 7.74545014278341407640e-4],
        [1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
         1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
         1.05075007164441684324e-9],
    ),
    (
        [6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
         2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
         2.71155556874348757815e-5, 2.01033439929228813265e-7],
        [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
         7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
         2.04426310338993978564e-15],
    ),
]


def _ratio(coefs, x):
    """Numerator over denominator at ``x``, by Horner's rule in place: bit for bit
    ``np.polyval``, without its two temporaries a step."""
    num, den = (np.full_like(x, c[-1]) for c in coefs)
    for a, b in zip(coefs[0][-2::-1], coefs[1][-2::-1]):
        num *= x
        num += a
        den *= x
        den += b
    num /= den
    return num


def ndtri(p, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal quantile of each ``p`` in (0, 1) by AS241 (about 1e-16 relative), into
    ``out``, which may be ``p``.  The central ratio, finite on all of (0, 1), is taken at every
    point, and the tail points then overwrite theirs."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    tail = np.abs(q) > 0.425
    pt = p[tail]  # gathered before ``out``, which may be ``p``, is written
    out = np.empty_like(p) if out is None else out
    np.multiply(q, _ratio(_AS241[0], np.subtract(0.180625, q * q)), out=out)
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    far = r > 5.0  # within exp(-25) of 0 or 1: about once in 3.6e10 lattice coordinates
    near = _ratio(_AS241[1], r - 1.6)  # positive coefficients: finite on the far points too
    near[far] = _ratio(_AS241[2], r[far] - 5.0)
    out[tail] = np.copysign(near, q[tail])
    return out


@functools.cache
def korobov(points: int, dim: int) -> np.ndarray:
    """The generating vector ``(1, a, a^2, ...) mod points`` of a rank-1 lattice: of the
    multipliers ``a`` prime to ``points``, the one with the least P_2 criterion
    (Sloan & Joe, 1994)."""
    k = np.arange(points)[:, None]
    best = (math.inf, None)
    for a in range(1, max(points, 2)):
        if math.gcd(a, points) == 1:
            z = np.array([pow(a, j, points) for j in range(dim)])
            x = k * z % points / points
            p2 = np.prod(1.0 + 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0), axis=1).sum()
            best = min(best, (float(p2), a))
    return np.array([pow(best[1], j, points) for j in range(dim)])


def lattice_normals(points: int, shifts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normals of the rank-1 lattice of ``points`` points moved by each row of
    ``shifts`` (uniforms in [0, 1), ``(replicates, dim)``), folded by the tent transform, into the
    C-contiguous ``out`` of shape ``(dim, replicates * points)``: replicate ``r`` fills columns
    ``r * points`` to ``(r + 1) * points``.  No point maps to 0 or 1, where the
    quantile is infinite."""
    dim, replicates = out.shape[0], shifts.shape[0]
    base = np.arange(points) * korobov(points, dim)[:, None] % points / points
    u = out.reshape(dim, replicates, points)
    np.add(base[:, None, :], shifts.T[:, :, None], out=u)
    np.subtract(u, np.floor(u), out=u)  # exact, as base + shift lies in [0, 2)
    np.abs(np.subtract(np.multiply(u, 2.0, out=u), 1.0, out=u), out=u)
    np.subtract(1.0, u, out=u)
    np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
    return ndtri(out, out=out)
