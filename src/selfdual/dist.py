"""Positive scalar and vector price-change models.

Scalar models represent an almost surely positive random variable with
(where available) density, distribution function, moments, integrated
tail ``E min(eta, z)``, tail mean ``E[eta 1{eta > k}]``, and a
deterministic sampler.  Vector models represent a positive random vector
with joint density and sampler.

Each model owns its closed forms: ``expect_affine(w, c, p, b)`` returns
``E[eta^b (w eta + c)_+^p]`` (the lift-zonoid support value at ``(c, w)``
when ``p = 1, b = 0``, the binary and gap values when ``p = 0``) or
``None`` where the law has none, and ``power_transformed(lam, alpha)``
returns the law of ``(e^lam eta)^alpha`` when it stays in the family.
Callers ask the model instead of branching on its class.

All models are immutable after construction and safe to share across
threads; samplers consume a caller-owned :class:`~selfdual.rng.RngStream`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    MomentDiverges,
    NoDensity,
    UnsupportedSampler,
)
from .quadrature import decays_at_scales, integrate_interval, integrate_positive
from .rng import RngStream

__all__ = [
    "ScalarModel",
    "LogNormal",
    "LpSelfDual",
    "HeavyTail",
    "DiscreteAtoms",
    "CustomDensity",
    "VectorModel",
    "MultiLogNormal",
    "CommonFactor",
    "UnitBallMax",
    "IndependentProduct",
]


SAMPLE_BLOCK = 1 << 16  # rows per block of a column-major draw


def positive_power(x, p: float):
    """``x_+^p`` elementwise, reading ``x_+^0`` as the strict indicator ``1{x > 0}``."""
    if p == 0:
        return (x > 0).astype(float)
    out = np.maximum(x, 0.0)
    return out if p == 1 else out**p


def _integrate_split(f: Callable[[float], float], a: float, b: float, *, what: str) -> float:
    """Integrate over (a, b), split at 1 when the interval contains it.

    One is the reflection point of ``p(x) = x^-3 p(1/x)``, where piecewise
    self-dual densities (and those ``extend_self_dual_density`` builds) have
    their kink; QUADPACK's error estimate across a kink is not to be trusted.
    """
    if a < 1.0 < b:
        return integrate_interval(f, a, 1.0, what=what) + integrate_interval(f, 1.0, b, what=what)
    return integrate_interval(f, a, b, what=what)


# --------------------------------------------------------------------------- #
# Scalar models
# --------------------------------------------------------------------------- #


class ScalarModel(ABC):
    """A positive integrable random variable."""

    has_density: bool = True
    dim = 1

    @abstractmethod
    def pdf(self, x):
        """Density at ``x`` (zero outside the support)."""

    @abstractmethod
    def cdf(self, x):
        """Distribution function P(eta <= x)."""

    @abstractmethod
    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """``n`` i.i.d. draws, strictly positive."""

    @abstractmethod
    def raw_moment(self, r: float) -> float:
        """E eta^r; raises :class:`MomentDiverges` when infinite."""

    @property
    def mean(self) -> float:
        return self.raw_moment(1.0)

    @property
    def means(self) -> np.ndarray:
        """The mean as a length-1 vector, as :attr:`VectorModel.means` gives it."""
        return np.array([self.mean])

    def integrated_tail(self, z: float) -> float:
        """E min(eta, z) = integral of P(eta > t) over (0, z)."""
        if z < 0:
            raise DomainError("integrated tail requires z >= 0")
        return 0.0 if z == 0 else self._integrated_tail(z)

    def _integrated_tail(self, z: float) -> float:
        """The integrated tail at ``z > 0`` by quadrature; closed-form models override it."""
        lower = _integrate_split(lambda t: t * self.pdf(t), 0.0, z, what="E[eta 1{eta<=z}]")
        upper = _integrate_split(lambda t: self.pdf(t), z, math.inf, what="P(eta>z)")
        return lower + z * upper

    def tail_mean(self, k):
        """E[eta 1{eta > k}], the gap-call value at forward one, per strike of ``k``.

        Quadrature, one integral per strike; models with a closed form override it.
        """

        def upper(strike):
            return _integrate_split(
                lambda t: t * self.pdf(t), strike, math.inf, what="E[eta 1{eta>k}]"
            )

        return self._by_strike(k, np.vectorize(upper, otypes=[float]))

    def expect_affine(self, w: float, c: float, p: float = 1.0, b: float = 0.0) -> float | None:
        """E[eta^b (w eta + c)_+^p] in closed form, or None where the law has none."""
        return None

    def power_transformed(self, lam, alpha: float) -> "ScalarModel | None":
        """The law of (e^lam eta)^alpha when it stays in the model's family, else None."""
        return None

    def _by_strike(self, k, positive: Callable):
        """``positive(k)`` at strikes k > 0 and the mean where k <= 0.

        ``k`` is a number (a float is returned) or an array of strikes,
        which ``positive`` receives as one array of the positive ones.
        """
        if np.ndim(k) == 0:
            return self.mean if k <= 0 else float(positive(k))
        k = np.asarray(k, dtype=float)
        pos = k > 0
        out = np.empty(k.shape)
        out[pos] = positive(k[pos])
        if not pos.all():
            out[~pos] = self.mean
        return out

    def _check_positive(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if np.any(arr <= 0):
            raise DomainError("argument must be strictly positive")
        return arr


class LogNormal(ScalarModel):
    """eta = exp(xi) with xi ~ N(mu, sigma^2).

    The martingale-normalised (mean one) member of the family has
    ``mu = -sigma^2 / 2`` and is the canonical self-dual example.
    """

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def mean_one(cls, sigma: float) -> "LogNormal":
        return cls(-0.5 * sigma * sigma, sigma)

    def pdf(self, x):
        x = self._check_positive(x)
        z = (np.log(x) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (x * self.sigma * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        from scipy.special import ndtr

        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = ndtr((np.log(x[pos]) - self.mu) / self.sigma)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        return np.exp(self.mu + self.sigma * rng.standard_normal(int(n)))

    def raw_moment(self, r):
        return math.exp(r * self.mu + 0.5 * r * r * self.sigma * self.sigma)

    def _integrated_tail(self, z):
        # E min(eta, z) = E eta - E (eta - z)_+
        return self.mean - self._call(z, 1.0)

    def tail_mean(self, k):
        from scipy.special import ndtr

        # math.log for one strike keeps the scalar closed forms bit-identical;
        # np.log may differ from it by one ulp
        log = math.log if np.ndim(k) == 0 else np.log

        def positive(kk):
            d = (log(kk) - self.mu) / self.sigma
            return self.mean * (1.0 - ndtr(d - self.sigma))

        return self._by_strike(k, positive)

    def _call(self, k: float, big_f: float) -> float:
        """E (F eta - k)_+ for F > 0, the undiscounted Black call."""
        from scipy.special import ndtr

        if k <= 0:
            return big_f * self.mean - k
        d = (math.log(k / big_f) - self.mu) / self.sigma
        return float(big_f * self.mean * ndtr(self.sigma - d) - k * ndtr(-d))

    def expect_affine(self, w, c, p=1.0, b=0.0):
        """Closed forms for p in {0, 1} and b in {0, 1}.

        The claim pays above ``k = -c/w`` when ``w > 0`` and below it when
        ``w < 0``: p = 1 is the Black call or the put by parity, p = 0 the
        binary value (b = 0) or the gap value (b = 1).  p = 1, b = 1
        prices under the size-biased law, log-normal with mean mu + sigma^2.
        """
        if p == 1 and b == 1:
            return self.mean * LogNormal(self.mu + self.sigma**2, self.sigma).expect_affine(w, c)
        if p not in (0, 1) or b not in (0, 1):
            return None
        if w == 0:
            return (self.mean if b else 1.0) * c**p if c > 0 else 0.0
        k, above = -c / w, w > 0
        if p == 1:
            return self._call(-c, w) if above else self._call(c, -w) + w * self.mean + c
        if b == 0:
            return 1.0 - self.cdf(k) if above else self.cdf(k)
        return self.tail_mean(k) if above else self.mean - self.tail_mean(k)

    def power_transformed(self, lam, alpha):
        (lam,) = np.atleast_1d(lam)
        return LogNormal(alpha * (lam + self.mu), abs(alpha) * self.sigma)

    def __repr__(self):
        return f"LogNormal(mu={self.mu}, sigma={self.sigma})"


class LpSelfDual(ScalarModel):
    """Self-dual law whose lift max-zonoid support function is the lp norm.

    Density ``(p-1) t^(p-2) (t^p+1)^(1/p-2)`` on (0, inf); the distribution
    function is ``t^(p-1) (t^p+1)^(1/p-1)`` and E max(t, eta) = |(t, 1)|_p.
    """

    def __init__(self, p: float):
        if p <= 1:
            raise DomainError("p must exceed 1")
        self.p = float(p)

    def pdf(self, x):
        x = self._check_positive(x)
        p = self.p
        return (p - 1.0) * x ** (p - 2.0) * (x**p + 1.0) ** (1.0 / p - 2.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        p = self.p
        xp = x[pos]
        out[pos] = xp ** (p - 1.0) * (xp**p + 1.0) ** (1.0 / p - 1.0)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        u = rng.uniform(size=int(n))
        v = u ** (self.p / (self.p - 1.0))
        return (v / (1.0 - v)) ** (1.0 / self.p)

    def raw_moment(self, r):
        from scipy.special import beta

        p = self.p
        if not (-(p - 1.0) < r < p):
            raise MomentDiverges(
                f"E eta^{r} diverges for LpSelfDual(p={p}); finite iff {1-p} < r < {p}",
                critical_exponent=p if r > 0 else 1.0 - p,
            )
        # t = y^(1/p) reduces the moment to a Beta integral.
        return (p - 1.0) / p * beta((r + p - 1.0) / p, (p - r) / p)

    def _integrated_tail(self, z):
        # min + max = z + eta and E max(z, eta) = |(z, 1)|_p.
        return z + 1.0 - (z**self.p + 1.0) ** (1.0 / self.p)

    def tail_mean(self, k):
        # self-duality: E[eta 1{eta > k}] = P(1/eta > k) = P(eta < 1/k)
        return self._by_strike(k, lambda kk: self.cdf(1.0 / kk))

    def __repr__(self):
        return f"LpSelfDual(p={self.p})"


class HeavyTail(ScalarModel):
    """Self-dual density with a power tail: ``c x^g`` below one and
    ``c x^-(3+g)`` above, ``c = (1+g)(2+g)/(3+2g)``, ``g > -1``."""

    def __init__(self, gamma: float):
        if gamma <= -1:
            raise DomainError("gamma must exceed -1")
        self.gamma = float(gamma)
        g = self.gamma
        self.c = (1.0 + g) * (2.0 + g) / (3.0 + 2.0 * g)

    def pdf(self, x):
        x = self._check_positive(x)
        g = self.gamma
        return np.where(x <= 1.0, self.c * x**g, self.c * x ** (-(3.0 + g)))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        g, c = self.gamma, self.c
        out = np.zeros_like(x)
        low = (x > 0) & (x <= 1.0)
        high = x > 1.0
        out[low] = c * x[low] ** (1.0 + g) / (1.0 + g)
        out[high] = 1.0 - c * x[high] ** (-(2.0 + g)) / (2.0 + g)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        g, c = self.gamma, self.c
        u = rng.uniform(size=int(n))
        split = c / (1.0 + g)  # P(eta <= 1)
        low = u < split
        out = np.empty(int(n))
        out[low] = ((1.0 + g) * u[low] / c) ** (1.0 / (1.0 + g))
        out[~low] = (c / ((2.0 + g) * (1.0 - u[~low]))) ** (1.0 / (2.0 + g))
        return out

    def raw_moment(self, r):
        g = self.gamma
        if not (-(1.0 + g) < r < 2.0 + g):
            raise MomentDiverges(
                f"E eta^{r} diverges for HeavyTail(gamma={g}); finite iff {-(1+g)} < r < {2+g}",
                critical_exponent=2.0 + g if r > 0 else -(1.0 + g),
            )
        return self.c * (1.0 / (r + g + 1.0) + 1.0 / (2.0 + g - r))

    def _integrated_tail(self, z):
        g, c = self.gamma, self.c
        denom = (1.0 + g) * (2.0 + g)
        if z <= 1.0:
            return z - c * z ** (2.0 + g) / denom
        return 1.0 - c * z ** (-(1.0 + g)) / denom

    def tail_mean(self, k):
        # self-duality: E[eta 1{eta > k}] = P(1/eta > k) = P(eta < 1/k)
        return self._by_strike(k, lambda kk: self.cdf(1.0 / kk))

    def __repr__(self):
        return f"HeavyTail(gamma={self.gamma})"


class DiscreteAtoms(ScalarModel):
    """Finitely many positive atoms.

    Atom values and probabilities may be :class:`fractions.Fraction`
    instances, in which case the mass check and the self-duality pairing
    are exact; float probabilities must sum to one within 1e-12.
    """

    has_density = False

    def __init__(self, atoms: Sequence[tuple]):
        if not atoms:
            raise DomainError("at least one atom required")
        self.atoms = [(v, p) for v, p in atoms]
        for v, p in self.atoms:
            if v <= 0:
                raise DomainError("atom values must be positive")
            if not (0 < p <= 1):
                raise DomainError("atom probabilities must lie in (0, 1]")
        total = sum(p for _, p in self.atoms)
        if all(isinstance(p, Fraction) for _, p in self.atoms):
            if total != 1:
                raise DomainError(f"atom probabilities sum to {total}, not 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise DomainError(f"atom probabilities sum to {float(total)!r}, not 1")
        self.values = np.array([float(v) for v, _ in self.atoms])
        self.probs = np.array([float(p) for _, p in self.atoms])

    def pdf(self, x):
        raise NoDensity("atomic model has no density")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = (self.values[None, ...] <= np.atleast_1d(x)[..., None]) @ self.probs
        return out if np.ndim(x) else float(out[0])

    def sample(self, n, rng):
        return rng.choice(self.values, size=int(n), p=self.probs / self.probs.sum())

    def raw_moment(self, r):
        return float(np.sum(self.probs * self.values**r))

    def _integrated_tail(self, z):
        return float(np.sum(self.probs * np.minimum(self.values, z)))

    def tail_mean(self, k):
        gap = lambda kk: self.expect_affine(1.0, -kk, 0.0, 1.0)
        return gap(k) if np.ndim(k) == 0 else np.vectorize(gap, otypes=[float])(k)

    def expect_affine(self, w, c, p=1.0, b=0.0):
        """Exact atom sum; at p = 0 the indicator 1{w eta + c > 0} is strict."""
        pay = positive_power(w * self.values + c, p)
        return float((pay if b == 0 else pay * self.values**b) @ self.probs)

    def __repr__(self):
        return f"DiscreteAtoms({self.atoms!r})"


class CustomDensity(ScalarModel):
    """User-supplied density on (0, inf).

    The density must be normalised; construction verifies total mass one
    within quadrature tolerance.  Sampling needs a registered rejection
    envelope (``with_envelope``); moment existence is probed numerically
    at dyadic scales because no symbolic analysis is available.
    """

    def __init__(
        self,
        density: Callable[[float], float],
        *,
        name: str = "custom",
        check_mass: bool = True,
    ):
        self.density = density
        self.name = name
        self._proposal: ScalarModel | None = None
        self._bound: float | None = None
        if check_mass:
            mass = integrate_positive(density, what=f"{name}: total mass")
            if abs(mass - 1.0) > 1e-8:
                raise DomainError(f"{name}: density mass {mass!r} is not 1")

    def with_envelope(self, proposal: ScalarModel, bound: float) -> "CustomDensity":
        """Register ``density <= bound * proposal.pdf`` for rejection sampling."""
        if bound <= 0:
            raise DomainError("envelope bound must be positive")
        out = CustomDensity(self.density, name=self.name, check_mass=False)
        out._proposal, out._bound = proposal, float(bound)
        return out

    def pdf(self, x):
        x = self._check_positive(x)
        if x.ndim == 0:
            return float(self.density(float(x)))
        return np.array([self.density(float(v)) for v in x])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            if x <= 0:
                return 0.0
            return _integrate_split(self.density, 0.0, float(x), what=f"{self.name}: cdf")
        return np.array([self.cdf(float(v)) for v in x])

    def sample(self, n, rng):
        if self._proposal is None:
            raise UnsupportedSampler(
                f"{self.name}: no rejection envelope registered; use with_envelope()"
            )
        n = int(n)
        out = np.empty(n)
        filled = 0
        while filled < n:
            block = max(n - filled, 1024)
            x = self._proposal.sample(block, rng)
            target = self.pdf(x)
            cap = self._bound * np.asarray(self._proposal.pdf(x), dtype=float)
            if np.any(target > cap * (1.0 + 1e-9)):
                raise UnsupportedSampler(
                    f"{self.name}: envelope bound violated; density exceeds "
                    f"{self._bound} * proposal density"
                )
            accept = rng.uniform(size=block) * cap <= target
            take = min(int(accept.sum()), n - filled)
            out[filled : filled + take] = x[accept][:take]
            filled += take
        return out

    def _probe_moment(self, r: float) -> None:
        # h(x) = x^(r+1) p(x) must decay along dyadic scales at both ends.
        h = lambda x: x ** (r + 1.0) * self.density(x)
        if not decays_at_scales(h, np.array([32.0, 64.0, 128.0, 256.0])):
            raise MomentDiverges(f"{self.name}: E eta^{r} appears to diverge at infinity")
        if not decays_at_scales(h, 1.0 / np.array([32.0, 64.0, 128.0, 256.0])):
            raise MomentDiverges(f"{self.name}: E eta^{r} appears to diverge at zero")

    def raw_moment(self, r):
        self._probe_moment(r)
        return integrate_positive(
            lambda x: x**r * self.density(x), what=f"{self.name}: E eta^{r}"
        )

    def __repr__(self):
        return f"CustomDensity({self.name})"


# --------------------------------------------------------------------------- #
# Vector models
# --------------------------------------------------------------------------- #


class VectorModel(ABC):
    """A positive random vector in (0, inf)^n."""

    has_density: bool = True

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """Array of shape (n, dim), strictly positive."""

    @abstractmethod
    def pdf(self, x) -> float:
        """Joint density at a point ``x`` of length ``dim``."""

    @property
    @abstractmethod
    def means(self) -> np.ndarray: ...

    def power_transformed(self, lam, alpha: float) -> "VectorModel | None":
        """The law of (e^lam o eta)^alpha when it stays in the model's family, else None."""
        return None

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"expected a point of length {self.dim}")
        if np.any(x <= 0):
            raise DomainError("argument must be strictly positive componentwise")
        return x


class MultiLogNormal(VectorModel):
    """eta = exp(xi) with xi ~ N(mean, cov) componentwise exponentiated."""

    def __init__(self, mean, cov):
        self.mu = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        n = self.mu.shape[0]
        if self.cov.shape != (n, n):
            raise DomainError("covariance shape does not match mean")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise DomainError("covariance must be symmetric")
        w, v = np.linalg.eigh(self.cov)
        if np.min(w) < -1e-12:
            raise DomainError("covariance must be positive semidefinite")
        self._root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        self._rank_ok = np.min(w) > 1e-12
        if self._rank_ok:
            self._prec = np.linalg.inv(self.cov)
            self._logdet = float(np.linalg.slogdet(self.cov)[1])

    @classmethod
    def jointly_self_dual(cls, n: int, sigma: float) -> "MultiLogNormal":
        """The n-asset family with unit-diagonal correlations 1/2 scaled by sigma^2."""
        a = sigma * sigma * (0.5 * np.ones((n, n)) + 0.5 * np.eye(n))
        return cls(-0.5 * sigma * sigma * np.ones(n), a)

    @property
    def dim(self):
        return self.mu.shape[0]

    def sample(self, n, rng):
        z = rng.standard_normal((int(n), self.dim))
        y = z @ self._root.T
        y += self.mu
        return np.exp(y, out=y)

    def column_chunks(self, n: int, rng: RngStream):
        """The draws of :meth:`sample` laid out column-major in one (dim, n) array,
        yielded as ``(array, columns drawn)`` after each row block."""
        # Row blocks drawn in turn consume the stream as one whole draw does,
        # so only one block of z and y is held beside the result.  Blocks are
        # near-equal: a one-row block would be multiplied by BLAS gemv, whose
        # sums may round apart from gemm's.
        n = int(n)
        out = np.empty((self.dim, n))
        n_blocks = max(-(-n // SAMPLE_BLOCK), 1)
        edges = [n * j // n_blocks for j in range(n_blocks + 1)]
        for lo, hi in zip(edges, edges[1:]):
            out[:, lo:hi] = self.sample(hi - lo, rng).T
            yield out, hi

    def sample_columns(self, n: int, rng: RngStream) -> np.ndarray:
        """The draws of :meth:`sample` laid out column-major, shape (dim, n)."""
        for out, _ in self.column_chunks(n, rng):
            pass
        return out

    def pdf(self, x):
        if not self._rank_ok:
            raise NoDensity("degenerate covariance has no joint density")
        x = self._check_point(x)
        y = np.log(x) - self.mu
        q = float(y @ self._prec @ y)
        norm = (2.0 * math.pi) ** (self.dim / 2.0) * math.exp(0.5 * self._logdet)
        return math.exp(-0.5 * q) / (norm * float(np.prod(x)))

    @property
    def means(self):
        return np.exp(self.mu + 0.5 * np.diag(self.cov))

    def power_transformed(self, lam, alpha):
        return MultiLogNormal(alpha * (lam + self.mu), alpha * alpha * self.cov)

    def marginal(self, i: int) -> LogNormal:
        """1-based component index."""
        return LogNormal(self.mu[i - 1], math.sqrt(self.cov[i - 1, i - 1]))

    def __repr__(self):
        return f"MultiLogNormal(dim={self.dim})"


class CommonFactor(VectorModel):
    """eta_i = zeta_0 * zeta_i for independent scalar factors zeta_0..zeta_n.

    With i.i.d. self-dual factors the vector is jointly self-dual; the
    shared factor supplies exactly the dependence the symmetry requires.
    """

    def __init__(self, factors: Sequence[ScalarModel]):
        if len(factors) < 2:
            raise DomainError("need a common factor and at least one idiosyncratic factor")
        self.factors = list(factors)

    @property
    def dim(self):
        return len(self.factors) - 1

    def sample(self, n, rng):
        n = int(n)
        z0 = self.factors[0].sample(n, rng)
        cols = [z0 * f.sample(n, rng) for f in self.factors[1:]]
        return np.column_stack(cols)

    def pdf(self, x):
        x = self._check_point(x)
        f0 = self.factors[0]
        rest = self.factors[1:]
        if not (f0.has_density and all(f.has_density for f in rest)):
            raise NoDensity("all factors need densities for a joint density")

        def integrand(s):
            val = f0.pdf(s) * s ** (-self.dim)
            for f, xi in zip(rest, x):
                val *= f.pdf(xi / s)
            return val

        return integrate_positive(integrand, what="common-factor joint density")

    @property
    def means(self):
        m0 = self.factors[0].mean
        return np.array([m0 * f.mean for f in self.factors[1:]])

    def __repr__(self):
        return f"CommonFactor(dim={self.dim})"


class UnitBallMax(VectorModel):
    """The jointly self-dual law whose lift max-zonoid is the unit ball.

    Joint density
    ``2^n Gamma(n + 1/2) / (sqrt(pi) (1 + sum u_l^-2)^(n+1/2) prod u_l^3)``.
    The family is consistent under marginalisation (the k-marginal is the
    k-dimensional member), which yields an exact sequential inverse-CDF
    sampler in every dimension; the univariate member coincides with
    ``LpSelfDual(2)``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError("dimension must be at least 1")
        self.n = int(n)

    @property
    def dim(self):
        return self.n

    def pdf(self, x):
        from scipy.special import gamma

        x = self._check_point(x)
        n = self.n
        norm = 2.0**n * gamma(n + 0.5) / math.sqrt(math.pi)
        bracket = 1.0 + float(np.sum(x**-2.0))
        return norm / (bracket ** (n + 0.5) * float(np.prod(x**3)))

    def sample(self, n, rng):
        n = int(n)
        out = np.empty((n, self.n))
        c = np.ones(n)
        for k in range(1, self.n + 1):
            # P(u_k <= v | previous) = (c / (c + v^-2))^(k - 1/2)
            u = rng.uniform(size=n)
            out[:, k - 1] = 1.0 / np.sqrt(c * (u ** (-2.0 / (2.0 * k - 1.0)) - 1.0))
            c = c + out[:, k - 1] ** -2.0
        return out

    @property
    def means(self):
        return np.ones(self.n)

    def __repr__(self):
        return f"UnitBallMax(n={self.n})"


class IndependentProduct(VectorModel):
    """Independent scalar components; the standard negative control.

    Nontrivial independent components are incompatible with self-duality
    with respect to any numeraire in dimension two or more.
    """

    def __init__(self, models: Sequence[ScalarModel]):
        if not models:
            raise DomainError("at least one component required")
        self.models = list(models)

    @property
    def dim(self):
        return len(self.models)

    def sample(self, n, rng):
        return np.column_stack([m.sample(int(n), rng) for m in self.models])

    def pdf(self, x):
        x = self._check_point(x)
        if not all(m.has_density for m in self.models):
            raise NoDensity("all components need densities for a joint density")
        return float(np.prod([m.pdf(xi) for m, xi in zip(self.models, x)]))

    @property
    def means(self):
        return np.array([m.mean for m in self.models])

    def __repr__(self):
        return f"IndependentProduct(dim={self.dim})"
