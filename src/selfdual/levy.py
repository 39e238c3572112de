"""Levy generating triplets, Esscher transforms, and the carry-order solver.

A triplet ``(A, nu, drift)`` describes an infinitely divisible log-price
vector through its characteristic exponent.  Three drift conventions are
supported: ``mean`` (drift is the expectation of xi; jump integrand
compensated everywhere), ``truncated`` (compensation inside the unit
ball of the numeraire-adapted norm |||.|||), and ``truncated_euclidean``.
Jump measures are finite: weighted atoms plus an optional Gaussian
component (the exponential tilt of a numeraire-symmetric base), so every
integral against ``nu`` is an exact sum or a Gaussian closed form.
A triplet with a Gaussian jump component must use the ``mean``
convention, where no ball integrals over the Gaussian are needed.

The module verifies the triplet conditions for self-duality and
quasi-self-duality of ``exp(xi)`` and solves the fixed-point equation
tying the quasi-self-duality order ``alpha`` to the carrying cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .duality import KappaMaps, ReportPoint, SymmetryReport
from .errors import DomainError, InfiniteActivity, NoBracket, PatternViolation
from .rng import RngStream

__all__ = [
    "triple_norm",
    "GaussianPart",
    "JumpMeasure",
    "LevyTriplet",
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


def triple_norm(u, i: int) -> float:
    """Numeraire-adapted norm: |||u|||^2 = (||u||^2 + ||K_i u||^2) / 2.

    Invariant under K_i by construction; reduces to the Euclidean norm
    in one dimension.
    """
    u = np.asarray(u, dtype=float)
    k = KappaMaps(len(u), i).K(u)
    return math.sqrt(0.5 * (float(u @ u) + float(k @ k)))


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
        """integral of exp(<w, x>) against the component; w may be complex."""
        w = np.asarray(w)
        return self.mass * np.exp(w @ self.mean + 0.5 * (w @ self.cov @ w))

    def weighted_mean(self, w) -> np.ndarray:
        """integral of x exp(<w, x>) against the component."""
        w = np.asarray(w)
        return self.exp_integral(w) * (self.mean + self.cov @ w)


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
        """integral of exp(<w, x>) d nu; exact for atoms, closed form Gaussian."""
        w = np.asarray(w)
        out = sum(m * np.exp(w @ x) for x, m in self.atoms)
        if self.gaussian is not None:
            out += self.gaussian.exp_integral(w)
        return out

    def weighted_mean(self, w, n: int) -> np.ndarray:
        """integral of x exp(<w, x>) d nu for a real ``w``."""
        w = np.asarray(w, dtype=float)
        out = np.zeros(n)
        for x, m in self.atoms:
            out = out + m * x * np.exp(w @ x)
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

    Starting from the K_i-invariant base ``N(0, B)`` (which requires the
    covariance pattern ``b_ij = b_ii / 2``), the density tilt
    ``exp(-alpha x_i / 2)`` shifts the mean to ``-(alpha/2) B e_i``.
    ``mass`` is the total mass of the resulting measure.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n) or not np.allclose(b, b.T, atol=1e-12):
        raise PatternViolation("covariance must be square symmetric")
    if not 1 <= i <= n:
        raise DomainError(f"numeraire index {i} out of range 1..{n}")
    if any(p.status != "pass" for p in _half_diagonal(b, i, 1e-12)):
        raise PatternViolation(
            f"base covariance must satisfy b[j,{i}] = b[{i},{i}]/2 for K_{i}-invariance"
        )
    mean = -(alpha / 2.0) * b[:, i - 1]
    return JumpMeasure(gaussian=GaussianPart(mean=mean, cov=b, mass=mass))


# --------------------------------------------------------------------------- #
# Triplets
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LevyTriplet:
    """Generating triplet of an n-dimensional infinitely divisible law.

    ``drift`` is read under ``convention``: the mean of xi for ``mean``, the
    truncated drift for the ball conventions (``norm_index`` fixes the
    |||.||| ball).
    """

    a: np.ndarray
    nu: JumpMeasure = field(default_factory=JumpMeasure)
    drift: np.ndarray | None = None
    convention: str = "mean"
    norm_index: int = 1

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        n = a.shape[0]
        _require_covariance(a, n, "A")
        if self.convention not in CONVENTIONS:
            raise DomainError(f"unknown drift convention {self.convention!r}")
        drift = np.asarray(self.drift, dtype=float)
        if drift.shape != (n,):
            raise DomainError(f"drift must have length {n}, as A is {n} x {n}")
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

    def scaled(self, t: float) -> "LevyTriplet":
        """Triplet of xi_t for the Levy process: every part scales by t."""
        if t <= 0:
            raise DomainError("time scale must be positive")
        atoms = tuple((x, m * t) for x, m in self.nu.atoms)
        g = self.nu.gaussian
        gaussian = None if g is None else GaussianPart(g.mean, g.cov, g.mass * t)
        nu = JumpMeasure(atoms=atoms, gaussian=gaussian)
        return replace(self, a=self.a * t, nu=nu, drift=self.drift * t)


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
    return replace(t, drift=new_drift, convention=to)


def char_exponent(t: LevyTriplet, u) -> complex:
    """log of the characteristic function at ``u`` (complex allowed).

    The finite jump measure has exponential moments of every order, so
    the exponent extends to arbitrary imaginary shifts; ``u = 0`` gives 0
    and ``u = -i e_j`` gives ``log E exp(xi_j)``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (t.n,):
        raise DomainError(f"argument must have length {t.n}")
    drift = t.drift
    out = 1j * (u @ drift) - 0.5 * (u @ t.a @ u)
    if t.nu.is_empty:
        return complex(out)
    iu = 1j * u
    out += t.nu.exp_integral(iu) - t.nu.total_mass
    out -= iu @ _compensator_vector(t)
    return complex(out)


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
    return replace(t, nu=nu, drift=t.drift + t.a @ theta + shift)


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
    return replace(shell, drift=drift)


# --------------------------------------------------------------------------- #
# Symmetry conditions on the triplet
# --------------------------------------------------------------------------- #


def _half_diagonal(b: np.ndarray, i: int, tol: float, label: str = "", name: str = "b"):
    """Points of ``b[j,i] = b[i,i]/2`` for j != i, the pattern of a K_i-invariant covariance."""
    bii = float(b[i - 1, i - 1])
    return [
        ReportPoint(
            f"{label}{name}[{j + 1},{i}] - {name}[{i},{i}]/2",
            float(b[j, i - 1] - 0.5 * bii),
            tol=tol * (1.0 + abs(bii)),
        )
        for j in range(b.shape[0])
        if j != i - 1
    ]


def check_qsd_triplet(
    t: LevyTriplet, i: int, lambda_cc, alpha: float, tol: float = 1e-10
) -> SymmetryReport:
    """Triplet conditions for exp(xi) quasi-self-dual of order alpha.

    (1) the Gaussian covariance has the half-diagonal pattern in row and
    column ``i``; (2) the jump measure satisfies
    ``d nu(x) = exp(-alpha x_i) d nu(K_i x)`` -- atoms are paired exactly
    with their reflections, a Gaussian part is matched against its
    closed-form reflected parameters; (3) the drift coordinate ``i``
    equals the compensator value shifted by the carrying cost.
    """
    maps = KappaMaps(t.n, i)
    lam = np.atleast_1d(np.asarray(lambda_cc, dtype=float))
    lam_i = float(lam[0]) if lam.shape == (1,) else float(lam[i - 1])
    report = SymmetryReport(f"qsd_triplet[i={i},alpha={alpha:g}]")

    # (1) covariance pattern
    aii = float(t.a[i - 1, i - 1])
    report.points += _half_diagonal(t.a, i, tol, "(1) ", "a")

    # (2) jump measure reflection
    for idx, (x, m) in enumerate(t.nu.atoms):
        target = maps.K(x)
        want = m * math.exp(alpha * float(x[i - 1]))
        got = 0.0
        for y, my in t.nu.atoms:
            if float(np.max(np.abs(y - target))) <= 1e-12 * (1.0 + float(np.max(np.abs(target)))):
                got = my
                break
        report.points.append(
            ReportPoint(f"(2) atom[{idx}] reflection mass", got - want, tol=tol * (1.0 + want))
        )
    g = t.nu.gaussian
    if g is not None:
        b = g.cov
        bii = float(b[i - 1, i - 1])
        report.points += _half_diagonal(b, i, tol, "(2) gaussian ")
        # reflection law <=> mean = -(alpha/2) B e_i given the pattern
        want_mean = -(alpha / 2.0) * b[:, i - 1]
        report.points.append(
            ReportPoint(
                "(2) gaussian mean + (alpha/2) B e_i",
                float(np.max(np.abs(g.mean - want_mean))),
                tol=tol * (1.0 + abs(bii)),
            )
        )

    # (3) drift coordinate i
    e_i = np.zeros(t.n)
    e_i[i - 1] = 1.0
    tilted = _compensator_vector(t, tilt=0.5 * alpha * e_i)
    integral = float(np.real(_compensator_vector(t)[i - 1] - tilted[i - 1]))
    want = integral - 0.5 * alpha * aii - lam_i
    report.points.append(
        ReportPoint(
            "(3) drift[i] - compensator",
            float(t.drift[i - 1] - want),
            tol=tol * (1.0 + abs(aii)),
        )
    )
    return report


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


def _exp_safe(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _marginal_jump_terms(t: LevyTriplet, i: int):
    """Callables for the i-th marginal integrals in the order equation."""
    atoms = [(float(x[i - 1]), m) for x, m in t.nu.atoms]
    g = t.nu.gaussian
    if g is not None:
        gm, gv, gmass = float(g.mean[i - 1]), float(g.cov[i - 1, i - 1]), g.mass
    exp_int = sum(m * math.exp(x) for x, m in atoms) + (
        gmass * math.exp(gm + 0.5 * gv) if g is not None else 0.0
    )
    mass = t.nu.total_mass

    def weighted(alpha):
        # overflow at extreme scan points degrades to +-inf, never raises;
        # the scan passes its whole grid as one array
        s = 0.5 * alpha
        exp = _exp_safe if np.ndim(alpha) == 0 else np.exp
        val = sum(m * x * exp(s * x) for x, m in atoms)
        if g is not None:
            val += gmass * (gm + s * gv) * exp(s * gm + 0.5 * s * s * gv)
        return val

    return exp_int, mass, weighted


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
    # what moves coordinate i: its atoms, and the mean and variance of a Gaussian part
    moves = [x[i - 1] for x, _ in t.nu.atoms]
    moves += [] if gauss is None else [gauss.mean[i - 1], gauss.cov[i - 1, i - 1]]
    if aii <= 0 and not any(moves):
        raise DomainError(
            f"coordinate {i} has no diffusion and no jumps: the order equation is degenerate"
        )
    exp_int, mass, weighted = _marginal_jump_terms(t, i)

    def g_fun(alpha):
        return aii * alpha - aii + 2.0 * lambda_i - 2.0 * (exp_int - mass - weighted(alpha))

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

    if closed is not None:
        return AlphaSolution(closed, method, bracket, abs(g_fun(closed)), tuple(roots))
    if not roots:
        raise NoBracket("no sign change of the order equation found in [-50, 50]")
    return AlphaSolution(roots[0], "bracketed_root", bracket, abs(g_fun(roots[0])), tuple(roots))


def _scan_roots(g_fun):
    """The first exact zero or sign change of ``g_fun`` on a symmetric geometric grid in
    [-50, 50], evaluated in one array call and refined by brentq: ``([root] or [], bracket)``."""
    from scipy.optimize import brentq

    pos = np.geomspace(1e-3, 50.0, 120)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, skipped below
        vals = g_fun(grid)
    for k in range(len(grid) - 1):
        va, vb = vals[k], vals[k + 1]
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue  # overflow region; no reliable bracketing there
        if va == 0.0:
            return [float(grid[k])], None
        if (va < 0.0) != (vb < 0.0) and vb != 0.0:  # a product could overflow or underflow
            lo, hi = float(grid[k]), float(grid[k + 1])
            return [float(brentq(g_fun, lo, hi, xtol=1e-15, rtol=8.9e-16))], (lo, hi)
    return ([float(grid[-1])] if vals[-1] == 0.0 else []), None


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
    With ``return_counts`` the per-increment Poisson jump counts are
    returned alongside.  Callers that draw many batches over one ``dt``
    pass ``root = gaussian_root(t, dt)`` to factor the covariance once.
    The increments are built column-major, as ``(n, size)``, and returned
    as its ``(size, n)`` transpose; ``.T`` gives the columns back.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if not math.isfinite(t.nu.total_mass):
        raise InfiniteActivity("jump measure must be finite")
    n, size = t.n, int(size)
    counts = np.zeros(size, dtype=np.int64)

    # linear coefficient absorbing the compensation used by the convention
    linear = (np.array(t.drift, dtype=float) - _compensator_vector(t)) * dt

    root = gaussian_root(t, dt) if root is None else root
    out = np.zeros((n, size)) if root is None else root @ rng.standard_normal((size, n)).T
    out += linear[:, None]

    mass = t.nu.total_mass
    if mass > 0:
        counts = rng.poisson(mass * dt, size=size)
        total = int(counts.sum())
        if total > 0:
            g = t.nu.gaussian
            weights = np.array([m for _, m in t.nu.atoms] + ([] if g is None else [g.mass])) / mass
            kinds = rng.choice(len(weights), size=total, p=weights)
            jumps = np.empty((total, n))
            for idx, (x, _) in enumerate(t.nu.atoms):
                jumps[kinds == idx] = x
            if g is not None:
                sel = kinds == len(weights) - 1
                m_g = int(sel.sum())
                if m_g:
                    jumps[sel] = rng.multivariate_normal(g.mean, g.cov, size=m_g)
            np.add.at(out.T, np.repeat(np.arange(size), counts), jumps)
    return (out.T, counts) if return_counts else out.T
