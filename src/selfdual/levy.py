"""Levy generating triplets, Esscher transforms, and the carry-order solver.

A triplet ``(A, nu, drift)`` describes an infinitely divisible log-price
vector through its characteristic exponent, and it is the vector model of
``exp(xi)`` at ``t = 1``; :class:`MultiLogNormal` is its jump-free case.
Three drift conventions are supported: ``mean`` (drift is the expectation
of xi; jump integrand compensated everywhere), ``truncated`` (compensation
inside the unit ball of the numeraire-adapted norm |||.|||), and
``truncated_euclidean``.
Jump measures are finite: weighted atoms plus an optional Gaussian
component (the exponential tilt of a numeraire-symmetric base), so every
integral against ``nu`` is an exact sum or a Gaussian closed form.
A triplet with a Gaussian jump component must use the ``mean``
convention, where no ball integrals over the Gaussian are needed.

The module decides self-duality and quasi-self-duality of ``exp(xi)`` by
one identity of characteristic exponents, the dual market being the
reflected one, and solves the fixed-point equation tying the
quasi-self-duality order ``alpha`` to the carrying cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dist import VectorModel
from .duality import KappaMaps, ReportPoint, SymmetryReport
from .errors import DomainError, InfiniteActivity, NoBracket, NoDensity, PatternViolation
from .rng import RngStream

__all__ = [
    "triple_norm",
    "GaussianPart",
    "JumpMeasure",
    "LevyTriplet",
    "MultiLogNormal",
    "AlphaSolution",
    "char_exponent",
    "esscher",
    "check_sd_triplet",
    "check_qsd_triplet",
    "solve_alpha",
    "lambert_w0",
    "martingale_drift",
    "martingale_normalized",
    "build_tilted_gaussian_measure",
    "convert_convention",
    "gaussian_root",
    "sample_increments",
]

CONVENTIONS = ("mean", "truncated", "truncated_euclidean")
SAMPLE_BLOCK = 1 << 16  # rows per block of a column-major draw


def triple_norm(u, i: int) -> float:
    """Numeraire-adapted norm: |||u|||^2 = (||u||^2 + ||K_i u||^2) / 2.

    Invariant under K_i by construction; reduces to the Euclidean norm
    in one dimension.
    """
    u = np.asarray(u, dtype=float)
    k = KappaMaps(len(u), i).K(u)
    return math.sqrt(0.5 * (float(u @ u) + float(k @ k)))


def _dot(u, v, m=None):
    """``<u, v>``, or ``<u, m v>``, at each row of ``u`` (a vector is one row): matmul takes
    a stack of ``(1, n)`` rows one at a time, so each row gets the bits of its own call."""
    row = u[..., None, :] if m is None else u[..., None, :] @ m
    return (row @ v[..., :, None])[..., 0, 0]


def _require_covariance(m: np.ndarray, n: int, what: str) -> None:
    """Refuse ``m`` unless it is an n x n symmetric positive semidefinite matrix."""
    if m.shape != (n, n):
        raise DomainError(f"{what} must be square")
    if not np.allclose(m, m.T, atol=1e-12):
        raise DomainError(f"{what} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-12:
        raise DomainError(f"{what} must be positive semidefinite")


# --------------------------------------------------------------------------- #
# Jump measures
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GaussianPart:
    """Finite Gaussian jump component: ``mass * N(mean, cov)``."""

    mean: np.ndarray
    cov: np.ndarray
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.mass <= 0:
            raise DomainError("Gaussian jump mass must be positive")
        _require_covariance(self.cov, self.dim, "Gaussian jump covariance")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def exp_integral(self, w) -> complex:
        """integral of exp(<w, x>) against the component at each row of ``w`` (complex allowed)."""
        w = np.asarray(w)
        return self.mass * np.exp(_dot(w, self.mean) + 0.5 * _dot(w, w, self.cov))

    def weighted_mean(self, w) -> np.ndarray:
        """integral of x exp(<w, x>) against the component, at each row of ``w``."""
        w = np.asarray(w)
        return self.exp_integral(w)[..., None] * (self.mean + w @ self.cov)


@dataclass(frozen=True)
class JumpMeasure:
    """Finite Levy measure: weighted atoms plus an optional Gaussian part."""

    atoms: tuple = ()
    gaussian: GaussianPart | None = None

    def __post_init__(self):
        cleaned = []
        for x, m in self.atoms:
            x = np.asarray(x, dtype=float).reshape(-1)
            if m <= 0:
                raise DomainError("atom masses must be positive")
            if float(np.max(np.abs(x))) == 0.0:
                raise DomainError("Levy measure must not charge the origin")
            cleaned.append((x, float(m)))
        object.__setattr__(self, "atoms", tuple(cleaned))
        dims = {x.shape[0] for x, _ in self.atoms}
        if self.gaussian is not None:
            dims.add(self.gaussian.dim)
        if len(dims) > 1:
            raise DomainError("inconsistent jump dimensions")

    @property
    def dim(self) -> int | None:
        if self.atoms:
            return self.atoms[0][0].shape[0]
        if self.gaussian is not None:
            return self.gaussian.dim
        return None

    @property
    def is_empty(self) -> bool:
        return not self.atoms and self.gaussian is None

    @property
    def total_mass(self) -> float:
        m = sum(m for _, m in self.atoms)
        if self.gaussian is not None:
            m += self.gaussian.mass
        return float(m)

    def exp_integral(self, w) -> complex:
        """integral of exp(<w, x>) d nu at each row of ``w``: atom sums, Gaussian closed form."""
        w = np.asarray(w)
        out = sum((m * np.exp(_dot(w, x)) for x, m in self.atoms), np.zeros(w.shape[:-1]))
        if self.gaussian is not None:
            out = out + self.gaussian.exp_integral(w)
        return out

    def weighted_mean(self, w, n: int) -> np.ndarray:
        """integral of x exp(<w, x>) d nu at each row of a real ``w``."""
        w = np.asarray(w, dtype=float)
        out = np.zeros(n)
        for x, m in self.atoms:
            out = out + m * x * np.exp(_dot(w, x))[..., None]
        if self.gaussian is not None:
            out = out + self.gaussian.weighted_mean(w)
        return out

    def second_moment(self, n: int) -> np.ndarray:
        """integral of x x^T d nu (for increment cumulant checks)."""
        out = np.zeros((n, n))
        for x, m in self.atoms:
            out += m * np.outer(x, x)
        if self.gaussian is not None:
            g = self.gaussian
            out += g.mass * (g.cov + np.outer(g.mean, g.mean))
        return out

    def ball_mean(self, norm_kind: str, norm_index: int, tilt: np.ndarray) -> np.ndarray:
        """integral of x exp(<tilt, x>) over the unit ball of the ``truncated``
        (|||.|||) or ``truncated_euclidean`` norm; atoms only (exact indicator)."""
        if self.gaussian is not None:
            raise DomainError(
                "ball integrals over a Gaussian jump component are unsupported; "
                "use the mean drift convention"
            )
        out = np.zeros(tilt.shape[0])
        for x, m in self.atoms:
            norm = triple_norm(x, norm_index) if norm_kind == "truncated" else np.linalg.norm(x)
            if norm <= 1.0:
                out += m * math.exp(float(tilt @ x)) * x
        return out


def build_tilted_gaussian_measure(b, alpha: float, mass: float, i: int) -> JumpMeasure:
    """Gaussian jump measure satisfying the order-``alpha`` reflection law.

    Starting from the K_i-invariant base ``N(0, B)`` (``K_i B K_i^T = B``, which is the
    covariance pattern ``b_ji = b_ii / 2`` for ``j != i``), the density tilt
    ``exp(-alpha x_i / 2)`` shifts the mean to ``-(alpha/2) B e_i``.
    ``mass`` is the total mass of the resulting measure.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n) or not np.allclose(b, b.T, atol=1e-12):
        raise PatternViolation("covariance must be square symmetric")
    k = KappaMaps(n, i).matrix
    if not np.allclose(k @ b @ k.T, b, rtol=0.0, atol=1e-12 * (1.0 + float(np.max(np.abs(b))))):
        raise PatternViolation(
            f"base covariance must satisfy b[j,{i}] = b[{i},{i}]/2 for K_{i}-invariance"
        )
    mean = -(alpha / 2.0) * b[:, i - 1]
    return JumpMeasure(gaussian=GaussianPart(mean=mean, cov=b, mass=mass))


# --------------------------------------------------------------------------- #
# Triplets
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LevyTriplet(VectorModel):
    """Generating triplet of an n-dimensional infinitely divisible law, and the
    vector model of ``exp(xi)`` at ``t = 1``.

    ``drift`` is read under ``convention``: the mean of xi for ``mean``, the
    truncated drift for the ball conventions (``norm_index`` fixes the
    |||.||| ball).
    """

    a: np.ndarray
    nu: JumpMeasure = field(default_factory=JumpMeasure)
    drift: np.ndarray | None = None
    convention: str = "mean"
    norm_index: int = 1
    _names = ("A", "drift")  # what a refusal calls A and the drift

    def __post_init__(self):
        cov, mean = self._names
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        drift = np.asarray(self.drift, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise DomainError(f"{cov} shape does not match {mean}")
        if drift.shape != (n,):
            raise DomainError(f"{mean} must have length {n}, as {cov} is {n} x {n}")
        _require_covariance(a, n, cov)
        if self.convention not in CONVENTIONS:
            raise DomainError(f"unknown drift convention {self.convention!r}")
        object.__setattr__(self, "drift", drift)
        if self.nu.dim is not None and self.nu.dim != n:
            raise DomainError("jump dimension does not match A")
        if not 1 <= self.norm_index <= n:
            raise DomainError(f"norm_index {self.norm_index} out of range 1..{n}")
        if self.nu.gaussian is not None and self.convention != "mean":
            raise DomainError(
                "Gaussian jump components require the mean drift convention"
            )

    @property
    def n(self) -> int:
        return self.a.shape[0]

    dim = n

    @cached_property
    def _linear_rate(self) -> np.ndarray:
        """The drift less the jump mean its convention compensates: increments' linear rate."""
        return self.drift - _compensator_vector(self)

    @property
    def means(self) -> np.ndarray:
        """E exp(xi_j), whose log is how far drift j is from its martingale value."""
        return np.exp(self.drift - [martingale_drift(self, j) for j in range(1, self.n + 1)])

    @cached_property
    def gaussian_map(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(R, b)`` with ``xi = R z + b`` for a standard normal vector ``z`` when the law
        has no jumps, else None: the common-random-number checks draw ``z`` on a lattice."""
        if not self.nu.is_empty:
            return None
        root = gaussian_root(self, 1.0)
        return np.zeros_like(self.a) if root is None else root, self._linear_rate

    @cached_property
    def _density(self) -> tuple[np.ndarray, float] | None:
        """``(A^-1, log det A)`` of a jump-free law with a full-rank A, else None."""
        if not self.nu.is_empty or np.min(np.linalg.eigvalsh(self.a)) <= 1e-12:
            return None
        return np.linalg.inv(self.a), float(np.linalg.slogdet(self.a)[1])

    def pdf(self, x):
        if self._density is None:
            raise NoDensity("a law with jumps or a degenerate covariance has no joint density")
        prec, logdet = self._density
        x = self._check_point(x)
        y = np.log(x) - self.drift
        norm = (2.0 * math.pi) ** (self.dim / 2.0) * math.exp(0.5 * logdet)
        return math.exp(-0.5 * float(y @ prec @ y)) / (norm * float(np.prod(x)))

    def sample(self, n, rng):
        for cols, _ in self.column_chunks(n, rng):
            pass
        return cols.T.copy()

    def column_chunks(self, n: int, rng: RngStream):
        """``n`` draws laid out column-major in one (dim, n) array, yielded as
        ``(array, columns drawn)`` after each row block."""
        # Without jumps, row blocks drawn in turn take the normals of one whole draw.  Blocks
        # are near-equal: BLAS gemv, which a one-row block would get, rounds apart from gemm.
        n = int(n)
        out = np.empty((self.dim, n))
        n_blocks = max(-(-n // SAMPLE_BLOCK), 1)
        edges = [n * j // n_blocks for j in range(n_blocks + 1)]
        for lo, hi in zip(edges, edges[1:]):
            np.exp(sample_increments(self, 1.0, rng, hi - lo).T, out=out[:, lo:hi])
            yield out, hi

    def scaled(self, t: float) -> "LevyTriplet":
        """Triplet of xi_t for the Levy process: every part scales by t."""
        if t <= 0:
            raise DomainError("time scale must be positive")
        atoms = tuple((x, m * t) for x, m in self.nu.atoms)
        g = self.nu.gaussian
        gaussian = None if g is None else GaussianPart(g.mean, g.cov, g.mass * t)
        nu = JumpMeasure(atoms=atoms, gaussian=gaussian)
        return LevyTriplet(self.a * t, nu, self.drift * t, self.convention, self.norm_index)


class MultiLogNormal(LevyTriplet):
    """eta = exp(xi) with xi ~ N(mean, cov): the jump-free triplet ``(cov, 0, mean)``."""

    _names = ("covariance", "mean")

    def __init__(self, mean, cov):
        super().__init__(cov, drift=mean)

    @classmethod
    def jointly_self_dual(cls, n: int, sigma: float) -> "MultiLogNormal":
        """The n-asset family with unit-diagonal correlations 1/2 scaled by sigma^2."""
        a = sigma * sigma * (0.5 * np.ones((n, n)) + 0.5 * np.eye(n))
        return cls(-0.5 * sigma * sigma * np.ones(n), a)


def _compensator_vector(t: LevyTriplet, convention: str | None = None, tilt=None) -> np.ndarray:
    """The jump mean a drift convention compensates (``t``'s by default):
    the integral of x (times exp(<tilt, x>) when tilted) over all of nu
    for ``mean``, over its unit ball for the truncated conventions."""
    convention = convention or t.convention
    tilt = np.zeros(t.n) if tilt is None else tilt
    if convention == "mean":
        return t.nu.weighted_mean(tilt, t.n)
    return t.nu.ball_mean(convention, t.norm_index, tilt)


def convert_convention(t: LevyTriplet, to: str) -> LevyTriplet:
    """Re-express the drift under another truncation convention.

    A pure re-parametrisation: the characteristic exponent is unchanged.
    Requires an atomic jump measure unless converting to/from nothing,
    since ball integrals over a Gaussian part are not closed form.
    """
    if to not in CONVENTIONS:
        raise DomainError(f"unknown drift convention {to!r}")
    if to == t.convention:
        return t
    full = _compensator_vector(t, "mean")
    # drift_c + integral of x (1 - 1_ball_c) d nu is convention independent
    base = t.drift + (full - _compensator_vector(t))
    new_drift = base - (full - _compensator_vector(t, to))
    return LevyTriplet(t.a, t.nu, new_drift, to, t.norm_index)


def char_exponent(t: LevyTriplet, u) -> complex:
    """log of the characteristic function at ``u``, or at each row of ``u`` (complex allowed).

    The finite jump measure has exponential moments of every order, so
    the exponent extends to arbitrary imaginary shifts; ``u = 0`` gives 0
    and ``u = -i e_j`` gives ``log E exp(xi_j)``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-1:] != (t.n,):
        raise DomainError(f"argument must have length {t.n}")
    out = 1j * _dot(u, t.drift) - 0.5 * _dot(u, u, t.a)
    if not t.nu.is_empty:
        iu = 1j * u
        out += t.nu.exp_integral(iu) - t.nu.total_mass
        out -= _dot(iu, _compensator_vector(t))
    return complex(out) if u.ndim == 1 else out


def esscher(t: LevyTriplet, theta) -> LevyTriplet:
    """Exponential tilt by exp(<theta, xi>): A invariant, nu reweighted.

    The drift picks up ``A theta`` plus the compensated jump shift, so
    tilting by theta and then by -theta returns the original triplet.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (t.n,):
        raise DomainError(f"theta must have length {t.n}")
    atoms = tuple((x, m * math.exp(float(theta @ x))) for x, m in t.nu.atoms)
    g = t.nu.gaussian
    gaussian = None
    if g is not None:
        factor = float(g.exp_integral(theta).real) / g.mass
        gaussian = GaussianPart(g.mean + g.cov @ theta, g.cov, g.mass * factor)
    nu = JumpMeasure(atoms=atoms, gaussian=gaussian)
    shift = _compensator_vector(t, tilt=theta) - _compensator_vector(t)
    return LevyTriplet(t.a, nu, t.drift + t.a @ theta + shift, t.convention, t.norm_index)


# --------------------------------------------------------------------------- #
# Martingale normalisation
# --------------------------------------------------------------------------- #


def _exp_compensator(t: LevyTriplet, j: int) -> float:
    """integral of (e^(x_j) - 1 - x_j [1_ball]) d nu under t's convention."""
    e_j = np.zeros(t.n)
    e_j[j - 1] = 1.0
    val = float(np.real(t.nu.exp_integral(e_j))) - t.nu.total_mass
    return val - float(_compensator_vector(t)[j - 1])


def martingale_drift(t: LevyTriplet, j: int) -> float:
    """Drift coordinate j making E exp(xi_j) = 1.

    Any drift already stored on the triplet is ignored; the value depends
    only on (A, nu) and the drift convention.
    """
    if not 1 <= j <= t.n:
        raise DomainError(f"component {j} out of range 1..{t.n}")
    return -_exp_compensator(t, j) - 0.5 * float(t.a[j - 1, j - 1])


def martingale_normalized(
    a,
    nu: JumpMeasure | None = None,
    convention: str = "mean",
    norm_index: int = 1,
) -> LevyTriplet:
    """Triplet with every component of exp(xi) normalised to mean one."""
    nu = nu if nu is not None else JumpMeasure()
    shell = LevyTriplet(a, nu, np.zeros(len(a)), convention, norm_index)
    drift = np.array([martingale_drift(shell, j) for j in range(1, shell.n + 1)])
    return LevyTriplet(a, nu, drift, convention, norm_index)


# --------------------------------------------------------------------------- #
# Symmetry conditions on the triplet
# --------------------------------------------------------------------------- #


def check_qsd_triplet(
    t: LevyTriplet, i: int, lambda_cc, alpha: float, tol: float = 1e-10
) -> SymmetryReport:
    """exp(xi) quasi-self-dual of order ``alpha`` for numeraire ``i`` under carry ``lambda_cc``.

    With ``zeta = alpha (lambda + xi)`` and ``psi_zeta(v) = psi(alpha v) + i alpha <v, lambda>``,
    the law is quasi-self-dual exactly when ``g(u) = psi_zeta(u - i e_i / 2)`` is invariant
    under ``u -> K_i^T u`` for every real ``u``.  Only ``lambda_i`` enters the difference
    ``d(u) = g(u) - g(K_i^T u)``, so the carry is read as ``lambda_i e_i``; a carry has one
    entry or one per asset.  ``d`` is evaluated on a fixed design of 16 points in
    ``[-3, 3]^n`` and split into three parts, each reported as its largest modulus over the
    design: (1) the quadratic form of ``A``; (2) the jump transform, ``integral
    exp(<w, x>) d nu`` at both arguments; (3) the affine rest, where the drift, the carry,
    the compensator and the linear term of ``A`` enter.  A polynomial part cannot cancel the
    bounded jump part, so each part vanishes on its own when the identity holds.  All three
    are judged against ``tol * (1 + scale)``, ``scale`` the largest ``|g|`` on the design
    and its reflection.  The identity does not read the drift convention: every convention
    and ``norm_index`` gives the same verdict for the same law.
    """
    if alpha == 0:
        raise DomainError("order alpha must be nonzero: every law is quasi-self-dual of order 0")
    maps = KappaMaps(t.n, i)
    lam = np.atleast_1d(np.asarray(lambda_cc, dtype=float))
    if lam.shape not in ((1,), (t.n,)):
        raise DomainError("carrying-cost vector length does not match the model")
    lam_i = float(lam[0] if lam.shape == (1,) else lam[i - 1])

    def terms(u):
        """g, its quadratic form in u and its jump transform, at each row of ``u``."""
        v = u.astype(complex)
        v[:, i - 1] -= 0.5j
        return np.array([
            char_exponent(t, alpha * v) + 1j * alpha * lam_i * v[:, i - 1],
            -0.5 * alpha * alpha * np.einsum("kj,jl,kl->k", u, t.a, u),
            t.nu.exp_integral(1j * alpha * v),
        ], dtype=complex)

    u = np.random.default_rng(2008).uniform(-3.0, 3.0, (16, t.n))  # the same for every spec
    here, there = terms(u), terms(maps.K_transpose(u))
    d, quadratic, jumps = here - there
    tol = tol * (1.0 + float(np.max(np.abs([here[0], there[0]]))))
    return SymmetryReport(f"qsd_triplet[i={i},alpha={alpha:g}]", [
        ReportPoint(label, float(np.max(np.abs(part))), tol=tol)
        for label, part in (
            ("(1) quadratic part, from A", quadratic),
            ("(2) jump transform, from nu", jumps),
            ("(3) affine rest, from drift, carry and compensator", d - quadratic - jumps),
        )
    ])


def check_sd_triplet(t: LevyTriplet, i: int, tol: float = 1e-10) -> SymmetryReport:
    """Self-duality conditions: the quasi case at alpha = 1, lambda = 0."""
    report = check_qsd_triplet(t, i, 0.0, 1.0, tol=tol)
    report.test_name = f"sd_triplet[i={i}]"
    return report


# --------------------------------------------------------------------------- #
# The order solver
# --------------------------------------------------------------------------- #


def lambert_w0(x: float) -> float:
    """Principal branch of w e^w = x for x >= -1/e (``scipy.special.lambertw``)."""
    from scipy.special import lambertw

    if x < -1.0 / math.e:
        raise DomainError(f"lambert_w0 requires x >= -1/e, got {x!r}")
    if x == -1.0 / math.e:
        # the double nearest -1/e lies just below the branch point, where scipy returns nan
        return -1.0
    return float(lambertw(x).real)


@dataclass(frozen=True)
class AlphaSolution:
    alpha: float
    method: str  # closed_lognormal | closed_lambertw | closed_laplace | bracketed_root
    bracket: tuple[float, float] | None
    residual: float
    roots: tuple[float, ...] = ()  # the bracketed scan's root, if it found one


def solve_alpha(t: LevyTriplet, i: int, lambda_i: float) -> AlphaSolution:
    """Order alpha of quasi-self-duality for carrying cost ``lambda_i``.

    Solves ``a_ii alpha = a_ii - 2 lambda_i
    + 2 integral (e^x - 1 - x e^(alpha x / 2)) d nu_i(x)`` over the
    marginal jump measure, assuming the triplet is martingale-normalised
    in coordinate ``i``.  The two sides differ by a function of slope
    ``a_ii + integral x^2 e^(alpha x / 2) d nu_i >= 0``, with one root unless
    coordinate ``i`` has no diffusion and no jumps, which is refused.  The
    scan on [-50, 50] brackets it; closed forms replace it for no jumps and,
    when they solve the equation, for a unit-mass Gaussian jump part.
    """
    if not 1 <= i <= t.n:
        raise DomainError(f"numeraire index {i} out of range 1..{t.n}")
    aii = float(t.a[i - 1, i - 1])
    gauss = t.nu.gaussian
    # the jumps move coordinate i unless integral x_i^2 d nu is 0
    if aii <= 0 and not t.nu.second_moment(t.n)[i - 1, i - 1]:
        raise DomainError(
            f"coordinate {i} has no diffusion and no jumps: the order equation is degenerate"
        )
    # the marginal jump terms are the measure's transforms along e_i: integral (e^x_i - 1)
    # d nu, and integral x_i e^(alpha x_i / 2) d nu at each alpha of an array
    e_i = np.eye(t.n)[i - 1]
    jumps = float(t.nu.exp_integral(e_i)) - t.nu.total_mass

    def g_fun(alpha):
        # overflow at extreme scan points degrades to +-inf, and inf - inf to nan
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = t.nu.weighted_mean(np.multiply.outer(0.5 * alpha, e_i), t.n)[..., i - 1]
            return aii * alpha - aii + 2.0 * lambda_i - 2.0 * (jumps - weighted)

    roots, bracket = _scan_roots(g_fun)

    closed = None
    beta2 = 0.0 if gauss is None else float(gauss.cov[i - 1, i - 1])
    if t.nu.is_empty:
        closed, method = 1.0 - 2.0 * lambda_i / aii, "closed_lognormal"
    elif beta2 > 0 and not t.nu.atoms and abs(gauss.mass - 1.0) <= 1e-12:
        if aii <= 1e-300:
            if 1.0 + lambda_i <= 0:
                raise DomainError("carrying cost below -1: no real order exists")
            cand, cand_method = 1.0 - 2.0 / beta2 * math.log1p(lambda_i), "closed_laplace"
        else:
            z = beta2 / aii * math.exp(beta2 * (lambda_i + 1.0) / aii)
            cand = 2.0 * lambert_w0(z) / beta2 + 1.0 - 2.0 * (lambda_i + 1.0) / aii
            cand_method = "closed_lambertw"
        # closed forms presume the self-consistent tilt; validate on the equation
        if abs(g_fun(cand)) <= 1e-10 * (1.0 + abs(aii)):
            closed, method = cand, cand_method

    if closed is None:
        if not roots:
            raise NoBracket("no sign change of the order equation found in [-50, 50]")
        closed, method = roots[0], "bracketed_root"
    return AlphaSolution(closed, method, bracket, float(abs(g_fun(closed))), tuple(roots))


def _scan_roots(g_fun):
    """The first exact zero or sign change of ``g_fun`` on a symmetric geometric grid in
    [-50, 50], evaluated in one array call and refined by brentq: ``([root] or [], bracket)``."""
    from scipy.optimize import brentq

    pos = np.geomspace(1e-3, 50.0, 120)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    vals = g_fun(grid)
    va, vb = vals[:-1], vals[1:]
    # an overflowed end (or a nan, inf - inf) brackets nothing; signs, not a product, compared
    finite = np.isfinite(va) & np.isfinite(vb)
    hits = finite & ((va == 0.0) | (((va < 0.0) != (vb < 0.0)) & (vb != 0.0)))
    if not hits.any():
        return ([float(grid[-1])] if vals[-1] == 0.0 else []), None
    k = int(np.argmax(hits))
    if va[k] == 0.0:
        return [float(grid[k])], None
    lo, hi = float(grid[k]), float(grid[k + 1])
    return [float(brentq(g_fun, lo, hi, xtol=1e-15, rtol=8.9e-16))], (lo, hi)


# --------------------------------------------------------------------------- #
# Simulation
# --------------------------------------------------------------------------- #


def gaussian_root(t: LevyTriplet, dt: float) -> np.ndarray | None:
    """A root ``R`` with ``R R^T = A dt``, or None when the triplet has no Gaussian part."""
    if not np.any(t.a):
        return None
    w, v = np.linalg.eigh(t.a * dt)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def sample_increments(
    t: LevyTriplet,
    dt: float,
    rng: RngStream,
    size: int,
    return_counts: bool = False,
    root: np.ndarray | None = None,
):
    """``size`` i.i.d. increments of the Levy process over time ``dt``.

    Exact in distribution: Gaussian part plus a compound Poisson draw
    from the normalised finite jump measure, with the linear coefficient
    chosen so the characteristic exponent is ``dt`` times the triplet's.
    The variates are taken from ``rng`` in this order: the ``(size, n)``
    standard normals (none without a Gaussian part), the Poisson jump
    counts, the kinds of the jumps and the Gaussian jumps.  With
    ``return_counts`` the per-increment Poisson jump counts are returned
    alongside.  Callers that draw many batches over one ``dt`` pass
    ``root = gaussian_root(t, dt)`` to factor the covariance once.  The
    increments are built column-major, as ``(n, size)``, and returned as
    its ``(size, n)`` transpose; ``.T`` gives the columns back.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if not math.isfinite(t.nu.total_mass):
        raise InfiniteActivity("jump measure must be finite")
    n, size, mass, g = t.n, int(size), t.nu.total_mass, t.nu.gaussian
    if t.a.any():
        root = gaussian_root(t, dt) if root is None else root
        out = root @ rng.standard_normal((size, n)).T
    else:
        out = np.zeros((n, size))
    out += (t._linear_rate * dt)[:, None]
    counts = np.zeros(size, dtype=np.int64)
    if mass > 0:
        counts = rng.poisson(mass * dt, size=size)
        total = int(counts.sum())
        if total > 0:
            weights = np.array([m for _, m in t.nu.atoms] + ([] if g is None else [g.mass])) / mass
            kinds = rng.choice(len(weights), size=total, p=weights)
            jumps = np.empty((total, n))
            for idx, (x, _) in enumerate(t.nu.atoms):
                jumps[kinds == idx] = x
            m_g = 0 if g is None else int((kinds == len(t.nu.atoms)).sum())
            if m_g:
                jumps[kinds == len(t.nu.atoms)] = rng.multivariate_normal(g.mean, g.cov, size=m_g)
            np.add.at(out.T, np.repeat(np.arange(size), counts), jumps)
    return (out.T, counts) if return_counts else out.T
