"""Self-duality and quasi-self-duality checks at the distribution level.

A positive random vector is self-dual with respect to numeraire ``i``
when its lift zonoid is invariant under swapping coordinate 0 with
coordinate ``i``; equivalently ``E f(eta) = E[f(kappa_i(eta)) eta_i]``
for every integrable payoff.  The checks here verify the equivalent
characterisations: payoff symmetries by common-random-number Monte
Carlo, density and atom conditions exactly, the integrated-tail
functional equation, moment identities, and the quasi-self-dual variant
obtained by carry adjustment and a power transform.

Exact residuals pass at an absolute tolerance; Monte-Carlo residuals are
judged in standard-error units (the identities are exact in expectation,
so only the noise of the difference estimator matters).  Both sides of an
identity are evaluated on the same draws.  A jump-free law ``exp(R z + b)``
is drawn on randomly shifted copies of a rank-1 lattice (randomised
quasi-Monte Carlo), each copy a replicate whose mean is one sample of the
estimator, and its SE comes from the spread of those means; every other law
is drawn i.i.d. from PCG64, each draw a replicate of width one.  A lattice
point that is undecided, failing within ``DECISIVE_Z`` SE or inconclusive,
takes fresh shifts in growing looks until it is decided or the check's
``samples`` are spent; an i.i.d. point only confirms a failure, by two
batches of 2x and 4x the first.  The estimator reads only replicate means:
test-vector payoffs go to theirs in cache-sized chunks, and are differenced.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .dist import CustomDensity, ScalarModel, VectorModel
from .errors import DomainError, NoDensity, NotIntegrable, ZeroDensity
from . import quadrature
from .rng import RngStream, lattice_normals

__all__ = [
    "KappaMaps",
    "ReportPoint",
    "SymmetryReport",
    "worst_verdict",
    "check_density_self_dual",
    "check_integrated_tail_symmetry",
    "check_payoff_symmetry",
    "check_joint_self_duality",
    "check_discrete_self_dual",
    "check_empirical_integrated_tail",
    "extend_self_dual_density",
    "check_moment_and_skewness",
    "check_quasi_self_dual",
    "asymmetry_correction",
]

EXACT_TOL = 1e-10
SE_BAND = 3.0
SE_FLOOR = 1e-3  # relative to the point scale; larger SE -> inconclusive
# Absolute resolution of an MC residual relative to the payoff scale.
# Heavy-tailed difference estimators (rare-event payoffs, infinite-variance
# marginals) can report standard errors far below their true uncertainty,
# and simultaneous 3-SE tests across many points produce occasional
# borderline exceedances; residuals under this floor are within the
# resolution the check certifies regardless of SE units.  Genuine
# asymmetries of the shipped negative controls sit two orders above it.
MC_ABS_FLOOR = 5e-5
DEFAULT_SAMPLES = 200_000

# Grid defaults: log-spaced points per scalar dimension.
GRID_LO, GRID_HI, GRID_POINTS = 0.2, 5.0, 7
N_TEST_VECTORS = 20


# --------------------------------------------------------------------------- #
# Numeraire-change maps
# --------------------------------------------------------------------------- #


class KappaMaps:
    """The multiplicative numeraire-change involution and its log-space twin.

    ``kappa(x)`` divides every coordinate by ``x_i`` and replaces the
    ``i``-th one by ``1/x_i``; ``K`` is the corresponding linear map on
    logarithms.  Both are self-inverse.
    """

    def __init__(self, n: int, i: int):
        if not 1 <= i <= n:
            raise DomainError(f"numeraire index {i} out of range 1..{n}")
        self.n = int(n)
        self.i = int(i)

    def kappa(self, x, axis: int = -1, out=None):
        """``axis`` holds the coordinates: -1 for points and rows, 0 for column-major draws.
        ``out``, of the shape of ``x``, receives the result if given."""
        x = np.moveaxis(np.asarray(x, dtype=float), axis, 0)
        if np.any(x <= 0):
            raise DomainError("kappa requires strictly positive coordinates")
        xi = x[self.i - 1]
        out = np.divide(x, xi, out=None if out is None else np.moveaxis(out, axis, 0))
        out[self.i - 1] = 1.0 / xi
        return np.moveaxis(out, 0, axis)

    def K(self, x):
        x = np.asarray(x, dtype=float)
        xi = x[..., self.i - 1]
        out = x - xi[..., None]
        out[..., self.i - 1] = -xi
        return out

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(self.n)
        m[:, self.i - 1] -= 1.0
        m[self.i - 1, self.i - 1] = -1.0
        return m

    def K_transpose(self, u):
        u = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float)
        out = u.copy()
        out[..., self.i - 1] = -np.sum(u, axis=-1)
        return out


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #


def worst_verdict(verdicts) -> str:
    """The most severe of ``verdicts``: fail, then inconclusive, then pass (also of none)."""
    return max(verdicts, key=("pass", "inconclusive", "fail").index, default="pass")


@dataclass(frozen=True)
class ReportPoint:
    label: str
    residual: float
    std_error: float = 0.0  # zero on exact evaluation paths
    tol: float = EXACT_TOL
    scale: float = 1.0
    n_samples: int = 0  # pooled draws behind a Monte-Carlo estimate; zero on exact paths
    rounds: int = 0  # confirmation rounds pooled into it
    replicates: int = 0  # lattice replicates whose means gave the SE; zero for i.i.d. draws

    def relabelled(self, label: str) -> "ReportPoint":
        """This point under ``label``: a copy of its fields, and of its status once read."""
        point = object.__new__(ReportPoint)
        point.__dict__.update(self.__dict__, label=label)
        return point

    @functools.cached_property  # a report reads it several times a point
    def status(self) -> str:
        if self.std_error == 0.0:
            return "pass" if abs(self.residual) <= self.tol else "fail"
        if abs(self.residual) > SE_BAND * self.std_error + MC_ABS_FLOOR * self.scale:
            return "fail"
        if self.std_error > SE_FLOOR * max(self.scale, 1e-300):
            return "inconclusive"
        return "pass"


@dataclass
class SymmetryReport:
    test_name: str
    points: list[ReportPoint] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def grid(self) -> list[str]:
        return [p.label for p in self.points]

    @property
    def residuals(self) -> list[float]:
        return [p.residual for p in self.points]

    @property
    def max_abs_residual(self) -> float:
        return max((abs(p.residual) for p in self.points), default=0.0)

    @property
    def max_residual_in_se_units(self) -> float:
        units = [abs(p.residual) / p.std_error for p in self.points if p.std_error > 0]
        return max(units, default=0.0)

    @property
    def verdict(self) -> str:
        return worst_verdict(p.status for p in self.points)

    def merge(self, other: "SymmetryReport") -> "SymmetryReport":
        merged = SymmetryReport(self.test_name)
        merged.points = self.points + [p.relabelled(f"{other.test_name}:{p.label}") for p in other.points]
        return merged

    def one_line(self) -> str:
        return (
            f"test={self.test_name} verdict={self.verdict} "
            f"max_abs_residual={self.max_abs_residual:.6e} "
            f"max_se_units={self.max_residual_in_se_units:.3f} points={len(self.points)}"
        )


@dataclass(frozen=True)
class _Moments:
    """Sufficient statistics of difference samples: count, mean, squared deviations."""

    n: int
    mean: float | np.ndarray
    m2: float | np.ndarray

    @classmethod
    def of(cls, diffs: np.ndarray, out: np.ndarray | None = None) -> "_Moments":
        """Row-wise along the last axis; ``out``, which may be ``diffs``, gets the deviations."""
        mean = np.add.reduce(diffs, axis=-1) / diffs.shape[-1]
        dev = np.subtract(diffs, mean[..., None], out=out)
        return cls(diffs.shape[-1], mean, np.einsum("...i,...i->...", dev, dev))

    def pooled(self, other: "_Moments") -> "_Moments":
        """Both samples together, by the pairwise update of Chan, Golub & LeVeque (1979)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        return _Moments(
            n,
            self.mean + delta * (other.n / n),
            self.m2 + other.m2 + delta * delta * (self.n * other.n / n),
        )

    def take(self, rows) -> "_Moments":
        return _Moments(self.n, self.mean[rows], self.m2[rows])


def _means(x: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """The means of runs of ``width`` columns along the last axis (into ``out``); ``x`` at width 1."""
    if width == 1:
        return x
    out = np.add.reduce(x.reshape(*x.shape[:-1], -1, width), axis=-1, out=out)
    return np.divide(out, width, out=out)


def _mc_point(label: str, stats: _Moments, scale: float, rounds: int = 0, width: int = 1):
    """The point of ``stats``, whose samples are means of replicates of ``width`` draws."""
    if stats.n < 2:
        raise DomainError(f"{label}: a standard error needs at least two draws")
    se = math.sqrt(stats.m2 / (stats.n - 1)) / math.sqrt(stats.n)
    # pathwise-cancelling differences leave rounding dust; an SE below the
    # float resolution of the payoff scale is not an inference statement
    se = max(se, 1e-15 * scale)
    return ReportPoint(
        label, float(stats.mean), se, scale=scale, n_samples=stats.n * width, rounds=rounds,
        replicates=stats.n if width > 1 else 0,
    )


BLOCK = 8192  # draws per kernel block; 2,048 and 16,384 were slower
ROWS = 5  # swap points per chunk: 10 payoff rows of a block, 640 KB, fit in L2 (3, 10 were slower)
CONFIRM_ROUNDS = 2  # fresh i.i.d. batches for a failing point, of 2x and then 4x the first
# a failing point beyond this many SE at a look is decided there; no failing point of
# a positive control has gone past 4.13 SE at any look on i.i.d. draws, nor past 4.99 on
# lattice draws (tests/calibrate_confirmation.py)
DECISIVE_Z = 10.0
# a jump-free law's first look: LATTICE_SHIFTS replicates of a LATTICE_POINTS-point lattice,
# so that its SE has 63 degrees of freedom; 32 x 509 points gave smaller SEs but z-scores
# of SD 1.2 on E eta_i = 1 (tests/calibrate_confirmation.py sized them)
LATTICE_POINTS, LATTICE_SHIFTS = 251, 64
# one kernel thread per CPU this process may use; with one, blocks run inline
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# by process: a forked child has no parent threads
_POOLS: dict[int, ThreadPoolExecutor] = {}
_LOCAL = threading.local()


def _pool() -> ThreadPoolExecutor | None:
    """This process's kernel pool of ``WORKERS`` threads, or None when the process may use
    one CPU: then the caller runs its work inline and no thread is started."""
    if WORKERS == 1:
        return None
    pool = _POOLS.get(os.getpid())
    return pool or _POOLS.setdefault(os.getpid(), ThreadPoolExecutor(WORKERS, "selfdual-kernel"))


def _scratch(slot: str, rows: int, width: int) -> np.ndarray:
    """A ``(rows, width)`` buffer of the calling thread, reused block after block
    instead of a fresh temporary per block."""
    buffers = _LOCAL.__dict__.setdefault("buffers", {})
    if buffers.get(slot, np.empty(0)).size < rows * width:
        buffers[slot] = np.empty(rows * width)
    return buffers[slot][: rows * width].reshape(rows, width)


def _block_moments(groups, rows, chunks, levels: bool) -> list:
    """``(statistics, level sums or None)`` of the points ``rows`` of each group on the draws
    that ``chunks`` fill: each block reduced on a kernel thread as soon as its columns are
    drawn, while the calling thread draws on; pooled in block order whatever the thread count.
    A block holds whole replicates of ``chunks.width`` draws and is reduced to their means."""
    block, width = chunks.block, chunks.width

    def reduce_block(batch, start):
        cols = batch[:, start : start + block]
        out = []
        for (_, evaluate, _), r in zip(groups, rows):
            means, sums = evaluate(cols, r, levels, width)
            out.append((_Moments.of(means, out=means), sums))
        return out

    def pooled(total, part):
        return [(a.pooled(b), None if s is None else s + t) for (a, s), (b, t) in zip(total, part)]

    def drawn_blocks():
        start = 0
        for batch, ready in chunks:
            while start < min(start + block, batch.shape[1]) <= ready:
                yield batch, start
                start += block

    pool = _pool()
    if pool is None:
        return functools.reduce(pooled, itertools.starmap(reduce_block, drawn_blocks()))
    futures = []
    try:
        futures.extend(pool.submit(reduce_block, *block) for block in drawn_blocks())
        return functools.reduce(pooled, (f.result() for f in futures))
    finally:  # after an error, blocks not yet started are dropped
        for f in futures:
            f.cancel()


class _Draw:
    """``n`` i.i.d. draws of ``model`` from ``rng`` in one column-major (dim, n) array, iterated
    as ``(array, columns drawn)`` chunks: as they are drawn on the first pass, whole after it.
    Each draw is a replicate of width one.

    A model's ``column_chunks`` streams; any other model is drawn here, as one chunk."""

    width, block = 1, BLOCK

    def __init__(self, model, n: int, rng: RngStream):
        self.model, self.n = model, int(n)
        if hasattr(model, "column_chunks"):
            self._chunks = model.column_chunks(self.n, rng)
        else:  # row-major draws, transposed
            rows = model.sample(self.n, rng).reshape(self.n, -1)
            self._chunks = [(np.ascontiguousarray(rows.T), self.n)]

    def __iter__(self):
        for self.cols, ready in self._chunks:
            yield self.cols, ready
        self._chunks = [(self.cols, self.n)]

    def look(self, k: int, rng: RngStream) -> "_Draw | None":
        """The fresh batch of confirmation look ``k``: ``2^k n`` draws up to look
        ``CONFIRM_ROUNDS``, then none."""
        return _Draw(self.model, self.n * 2**k, rng) if k <= CONFIRM_ROUNDS else None

    def pending(self, point: ReportPoint) -> bool:
        """A failing point whose margin a further batch could still overturn."""
        return point.status == "fail" and abs(point.residual) <= DECISIVE_Z * point.std_error


class _LatticeDraw(_Draw):
    """Draws of a law ``exp(R z + b)`` of standard normals ``z`` (``model.gaussian_map``) on
    randomly shifted copies of a rank-1 lattice: each copy a replicate of ``width`` columns.
    ``cap`` bounds the draws of every look together.

    The first look takes ``LATTICE_SHIFTS`` replicates with shifts from ``rng``; confirmation
    look ``k`` takes ``2^k`` times as many, up to the cap, into thread scratch that the looks
    share, sized for the largest look at once so that it neither grows nor moves from one look
    to the next.  A cap below ``LATTICE_POINTS * LATTICE_SHIFTS`` shrinks the lattice."""

    def __init__(self, model, cap: int, rng: RngStream, shifts: int | None = None):
        self.model, self.cap = model, int(cap)
        self.width = min(LATTICE_POINTS, max(self.cap // LATTICE_SHIFTS, 1))
        self.first = min(LATTICE_SHIFTS, self.cap // self.width)
        self.n = self.width * (self.first if shifts is None else shifts)
        self.block = self.width * max(BLOCK // self.width, 1)
        self._shifts = rng.uniform(size=(self.n // self.width, model.dim))
        if shifts is None:
            self.cols = np.empty((model.dim, self.n))
        else:
            largest = max(itertools.takewhile(lambda m: m > 0, map(self._look_shifts, itertools.count(1))))
            self.cols = _scratch("look", model.dim, self.width * largest)[:, : self.n]
        self._chunks = self._drawn()

    def _drawn(self):
        (root, rate), w = self.model.gaussian_map, self.width
        for lo in range(0, self.n, self.block):
            hi = min(lo + self.block, self.n)
            z = lattice_normals(w, self._shifts[lo // w : hi // w], _scratch("normals", len(root), hi - lo))
            xi = np.matmul(root, z, out=self.cols[:, lo:hi])
            np.exp(np.add(xi, rate[:, None], out=xi), out=xi)
            yield self.cols, hi

    def _look_shifts(self, k: int) -> int:
        return min(self.first * 2**k, self.cap // self.width - self.first * (2**k - 1))

    def look(self, k: int, rng: RngStream) -> "_LatticeDraw | None":
        more = self._look_shifts(k)
        return _LatticeDraw(self.model, self.cap, rng, more) if more > 0 else None

    def pending(self, point: ReportPoint) -> bool:
        """Also an inconclusive point: fresh shifts may bring its SE under the floor."""
        return point.status == "inconclusive" or super().pending(point)


def _draw(model, samples: int, rng: RngStream) -> _Draw:
    """The first look of a common-random-number check: on a lattice for a law of standard
    normals, else ``samples`` i.i.d. draws."""
    lattice = getattr(model, "gaussian_map", None) is not None
    return (_LatticeDraw if lattice else _Draw)(model, samples, rng)


def _confirmed_mc_points(groups, first: _Draw, confirm_rng) -> list[ReportPoint]:
    """Evaluate CRN difference points with pooled re-confirmation.

    ``groups`` holds ``(labels, evaluate, scales)``: ``evaluate(cols, rows,
    levels, width)`` maps a column-major ``(n, B)`` block of draws, the indices
    of the points wanted and the replicate width to ``(means, sums)``: one row
    per point of its differences' means over each run of ``width`` draws, which
    may be overwritten, and with ``levels`` the sums of the points' levels over
    the block or ``None``.  A point's scale is its level mean on
    ``first``, at least one, or else its ``scales`` entry.
    One kernel pass reduces every group on ``first``.  ``confirm_rng`` is one
    stream, or a list of one per group.  A point that ``first.pending`` names is
    re-evaluated on the growing fresh looks of ``first.look``, drawn from its
    group's stream and each reducing only that stream's groups with such a point,
    and pooled by its sufficient statistics; the points are final when none is
    pending or the looks run out.  I.i.d. draws confirm a failing point through two looks:
    under the exact identity a borderline exceedance among many simultaneous
    3-SE tests washes out, while a genuine asymmetry reproduces and keeps
    failing.  Lattice draws also confirm an inconclusive point, and their
    looks stop at the cap of ``samples`` draws.  A failing point beyond
    ``DECISIVE_Z`` SE at a look is decided there, with the rounds it used.
    """
    streams = confirm_rng if isinstance(confirm_rng, list) else [confirm_rng] * len(groups)
    rows = [np.arange(len(labels)) for labels, _, _ in groups]
    offsets = np.cumsum([0] + [len(r) for r in rows])  # index of each group's first point
    points: list[ReportPoint] = [None] * offsets[-1]
    stats, scales = [None] * len(groups), [s for _, _, s in groups]

    def reduce(live, draws, rounds) -> bool:
        """Pool the look ``draws``, if there is one, into the pending points of ``live``."""
        if draws is None:
            return False
        got = _block_moments([groups[g] for g in live], [rows[g] for g in live], draws, not rounds)
        for g, (more, sums) in zip(live, got):
            stats[g] = more if stats[g] is None else stats[g].pooled(more)
            if sums is not None:
                scales[g] = np.maximum(sums / first.n, 1.0).tolist()
            for j, k in enumerate(rows[g]):
                point = _mc_point(groups[g][0][k], stats[g].take(j), scales[g][k], rounds, first.width)
                points[offsets[g] + k] = point
            pending = np.array([first.pending(points[offsets[g] + k]) for k in rows[g]], bool)
            rows[g], stats[g] = rows[g][pending], stats[g].take(pending)
        return True

    reduce([g for g, r in enumerate(rows) if r.size], first, 0)
    for stream in dict.fromkeys(streams):
        for rounds in itertools.count(1):  # growing batches dilute an unlucky first draw quickly
            live = [g for g, s in enumerate(streams) if s is stream and rows[g].size]
            # the last look is dropped before the next is drawn
            if not live or not reduce(live, first.look(rounds, stream.child(rounds - 1)), rounds):
                break
    return points


def default_grid(lo: float = GRID_LO, hi: float = GRID_HI, n: int = GRID_POINTS) -> np.ndarray:
    return np.geomspace(lo, hi, n)


# Fixed bounded payoffs for the weighted-change-of-numeraire identity, of
# column-major draws ``x`` (coordinates on axis -2), their shared sum
# ``s = sum(x + 1/x)`` and a scratch array ``tmp`` of the shape of ``x``.
# They decay in every coordinate and its reciprocal, so the weighted side
# f(kappa_i(eta)) eta_i keeps finite variance even for tail-index-2 models.
_BOUNDED_PAYOFFS: list[tuple[str, Callable[..., np.ndarray]]] = [
    ("exp(-sum(x+1/x))", lambda x, s, tmp: np.exp(-s)),
    ("prod x/(1+x)^2", lambda x, s, tmp: np.multiply.reduce(
        np.divide(x, np.square(np.add(1.0, x, out=tmp), out=tmp), out=tmp), axis=-2
    )),
    ("1/(1+sum(x+1/x))", lambda x, s, tmp: 1.0 / (1.0 + s)),
]


# --------------------------------------------------------------------------- #
# Exact checks
# --------------------------------------------------------------------------- #


def check_density_self_dual(model, i: int = 1, grid=None, tol: float = EXACT_TOL) -> SymmetryReport:
    """Density criterion: p(x) = x_i^-(n+2) p(kappa_i(x)).

    The univariate case (n = 1) is ``p(x) = x^-3 p(1/x)``.  Residuals are
    evaluated pointwise on a positive grid; the pass band is
    ``tol * (1 + p(x))``.
    """
    if not getattr(model, "has_density", False):
        raise NoDensity("density criterion needs an absolutely continuous model")
    n, scalar = model.dim, isinstance(model, ScalarModel)
    axes = [np.asarray(grid, dtype=float) if grid is not None else default_grid()] * n
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
    report = SymmetryReport("density_self_dual" if scalar else f"density_self_dual[i={i}]")
    for x, y in zip(mesh.tolist(), KappaMaps(n, i).kappa(mesh).tolist()):
        px = float(model.pdf(x[0] if scalar else x))
        reflected = x[i - 1] ** (-(n + 2.0)) * model.pdf(y[0] if scalar else y)
        report.points.append(
            ReportPoint(
                "x=" + ",".join(f"{v:g}" for v in x),
                float(px - reflected),
                tol=tol * (1.0 + px),
            )
        )
    return report


def check_integrated_tail_symmetry(
    model: ScalarModel, z_grid=None, tol: float = 1e-8
) -> SymmetryReport:
    """Functional equation z * Ftail_I(1/z) = Ftail_I(z) plus Ftail_I(inf) = 1.

    ``Ftail_I(z) = E min(eta, z)`` is the integrated tail; the equation on
    all of (0, inf) together with total integral one characterises
    self-duality of a positive integrable random variable.
    """
    z_grid = np.asarray(z_grid, dtype=float) if z_grid is not None else default_grid(0.1, 10.0, 9)
    report = SymmetryReport("integrated_tail_symmetry")
    for z in z_grid:
        lhs = z * model.integrated_tail(1.0 / z)
        rhs = model.integrated_tail(float(z))
        report.points.append(ReportPoint(f"z={z:g}", float(lhs - rhs), tol=tol))
    report.points.append(ReportPoint("mean-1", float(model.mean - 1.0), tol=tol))
    return report


def check_discrete_self_dual(atoms, i: int = 1) -> SymmetryReport:
    """Atom criterion: Q(eta = kappa_i(x)) = x_i Q(eta = x) for each atom.

    Accepts a :class:`DiscreteAtoms` model or a list of ``(value, prob)``
    pairs where values may be vectors.  Fraction-valued inputs are checked
    in exact rational arithmetic.
    """
    pairs = list(getattr(atoms, "atoms", atoms))
    table: dict[tuple, object] = {}
    exact = True
    for value, prob in pairs:
        key_src = value if isinstance(value, (tuple, list)) else (value,)
        exact = exact and all(isinstance(v, Fraction) for v in key_src) and isinstance(
            prob, Fraction
        )
        table[tuple(key_src)] = prob
    n = len(next(iter(table)))
    if not 1 <= i <= n:
        raise DomainError(f"numeraire index {i} out of range 1..{n}")

    def kappa_key(key):
        xi = key[i - 1]
        out = list(v / xi for v in key)
        out[i - 1] = (Fraction(1) if isinstance(xi, Fraction) else 1.0) / xi
        return tuple(out)

    def lookup(key):
        if key in table:
            return table[key]
        for cand, prob in table.items():  # float keys: nearest match
            if all(abs(float(a) - float(b)) <= 1e-12 for a, b in zip(cand, key)):
                return prob
        return None

    report = SymmetryReport(f"discrete_self_dual[i={i}]")
    for key, prob in table.items():
        partner = lookup(kappa_key(key))
        want = key[i - 1] * prob
        if partner is None:
            residual = float(want)  # missing reflected atom
        elif exact:
            residual = float(partner - want)
        else:
            residual = float(partner) - float(want)
        label = "x=" + ",".join(str(v) for v in key)
        report.points.append(ReportPoint(label, residual, tol=0.0 if exact else 1e-12))
    return report


def check_moment_and_skewness(model: ScalarModel, tol: float = 1e-9) -> SymmetryReport:
    """Moment mirror identities E eta^n = E eta^(1-n) and skewness sign.

    Requires a finite third moment.  Also validates the third-central-
    moment rewrite ``E(eta - E eta)^3 = E[(eta-1)^2 (eta + 1/eta - 2)]``
    that forces nonnegative skewness for self-dual variables.
    """
    m1 = model.raw_moment(1.0)
    m2 = model.raw_moment(2.0)
    m3 = model.raw_moment(3.0)
    m_1 = model.raw_moment(-1.0)
    m_2 = model.raw_moment(-2.0)
    report = SymmetryReport("moment_and_skewness")
    report.points.append(ReportPoint("E eta^2 - E eta^-1", m2 - m_1, tol=tol))
    report.points.append(ReportPoint("E eta^3 - E eta^-2", m3 - m_2, tol=tol))

    central3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    rewrite = m3 - 4.0 * m2 + 6.0 * m1 - 4.0 + m_1
    report.points.append(ReportPoint("central3 - rewrite", central3 - rewrite, tol=tol))

    var = m2 - m1 * m1
    skew = 0.0 if var <= tol else central3 / var**1.5
    # skewness must be nonnegative; encode as a one-sided residual
    report.points.append(ReportPoint("negative skewness excess", max(0.0, -skew), tol=tol))
    report.extras["skewness"] = skew
    return report


# --------------------------------------------------------------------------- #
# Monte-Carlo checks
# --------------------------------------------------------------------------- #


def random_test_vectors(
    rng: RngStream, n: int, family: str, count: int = N_TEST_VECTORS
) -> list[tuple[float, np.ndarray]]:
    """Weight vectors (u0, u) drawn once from the master stream.

    Basket vectors are uniform in [-1, 1]^(n+1); max-family vectors are
    uniform in [0, 1]^(n+1).
    """
    lo = -1.0 if family == "basket" else 0.0
    draw = rng.uniform(lo, 1.0, size=(count, n + 1))
    return [(float(row[0]), row[1:].copy()) for row in draw]


def _payoff(family: str, u0, u, cols: np.ndarray, out: np.ndarray | None = None, pair=None) -> np.ndarray:
    """The ``(k, B)`` test payoffs of weight rows ``u0 (k,)``, ``u (k, n)`` on draws ``(n, B)``; with
    ``pair = i`` the second half of the rows is the first with ``u0`` and ``u_i`` exchanged."""
    u0, u = np.asarray(u0, dtype=float)[:, None], np.asarray(u, dtype=float)
    out = np.empty((len(u), cols.shape[1])) if out is None else out
    if family == "basket":
        np.add(np.matmul(u, cols, out=out), u0, out=out)
        return np.maximum(out, 0.0, out=out)
    if family != "max":
        raise DomainError(f"unknown payoff family {family!r}")
    term = _scratch("work", len(u), cols.shape[1])
    if pair is None:
        np.multiply(u[:, :1], cols[0], out=out)
        for k in range(1, cols.shape[0]):
            np.maximum(out, np.multiply(u[:, k : k + 1], cols[k], out=term), out=out)
        return np.maximum(out, u0, out=out)
    # max(u0, u_i x_i, M) and max(u_i, u0 x_i, M) share M = max_{j != i} u_j x_j, bit-exact as
    # max is; at dim 1 there is no M
    c, i = len(u) // 2, pair - 1
    ui, u0, shared = u[:c, i, None], u0[:c], term[:c]
    others = [j for j in range(cols.shape[0]) if j != i]
    if others:
        np.multiply(u[:c, others[0], None], cols[others[0]], out=shared)
    for j in others[1:]:
        np.maximum(shared, np.multiply(u[:c, j, None], cols[j], out=out[:c]), out=shared)
    for half, own, other in ((out[:c], ui, u0), (out[c:], u0, ui)):
        np.multiply(own, cols[i], out=half)
        if others:
            np.maximum(half, shared, out=half)
        np.maximum(half, other, out=half)
    return out


def _swap_group(family: str, labels, first, second, control, level: bool, pair=None):
    """The replicate means of ``f(first) - f(second) - control @ (x - 1)`` for weight rows
    ``(u0, u)`` of ``family`` payoffs (``pair`` as ``_payoff``'s), as one kernel group; with
    ``level`` the payoff of ``first`` sets the scale.  The difference is linear, so each chunk of
    ``ROWS`` points is reduced to means while in cache and the means are differenced."""
    weights, k = np.concatenate([first, second]), len(labels)

    def evaluate(cols, rows, levels, width):
        r, reps = len(rows), cols.shape[1] // width
        diffs, sums = _scratch("diffs", r, reps), np.empty(r) if level and levels else None
        for lo in range(0, r, ROWS):
            chunk = rows[lo : lo + ROWS]
            c, w = len(chunk), weights[np.concatenate([chunk, chunk + k])]
            f = _payoff(family, w[:, 0], w[:, 1:], cols, _scratch("payoff", 2 * c, cols.shape[1]), pair)
            m = _means(f, width, out=_scratch("means", 2 * c, reps))
            if sums is not None:
                sums[lo : lo + c] = np.add.reduce(m[:c], axis=1) * width
            np.subtract(m[:c], m[c:], out=diffs[lo : lo + c])
        shifted = np.subtract(_means(cols, width), 1.0, out=_scratch("shifted", len(cols), reps))
        diffs -= np.matmul(control[rows], shifted, out=_scratch("control", r, reps))
        return diffs, sums

    return labels, evaluate, [1.0] * k


def _test_vector_group(family: str, i: int, vectors):
    """The swap residuals ``f(u0,u) - f(pi_i(u0,u))`` of one family's test vectors."""
    first = np.array([np.concatenate(([u0], np.asarray(u, dtype=float))) for u0, u in vectors])
    if family == "max" and np.any(first < 0):
        raise DomainError("max-family test vectors must be nonnegative")
    second = first.copy()
    second[:, [0, i]] = first[:, [i, 0]]
    # control variate: the exact linear tail of the difference in the
    # only unbounded direction eta_i; mean zero since E eta_i = 1 for
    # any candidate (and tested separately), variance finite even for
    # tail-index-2 marginals where the raw difference has none
    control = np.zeros((len(first), first.shape[1] - 1))
    control[:, i - 1] = np.maximum(first[:, i], 0.0) - np.maximum(first[:, 0], 0.0)
    labels = [f"u=({w[0]:.3f}," + ",".join(f"{v:.3f}" for v in w[1:]) + ")" for w in first.tolist()]
    # the payoff is nonnegative: its mean is its mean |f|
    return _swap_group(family, labels, first, second, control, level=True, pair=i)


def _numeraire_change_group(title: str, maps: KappaMaps, carry=None, alpha: float = 1.0):
    """``E f(x) = E[f(kappa_i(x)) x_i^alpha]`` on the bounded payoffs, with
    ``x = e^carry o eta``, as one kernel group: ``kappa_i`` of a block is
    computed once for all of them, and each is one call on both sides."""

    def evaluate(cols, rows, levels, width):
        # both sides and a temporary of their shape are thread scratch: a block
        # then allocates only single rows, and two kernel threads at once stay
        # below one sampling block however they interleave
        sides = _scratch("sides", 2 * len(cols), cols.shape[1]).reshape(2, *cols.shape)
        tmp = _scratch("tmp", 2 * len(cols), cols.shape[1]).reshape(2, *cols.shape)
        x = sides[0]
        if carry is None:
            np.copyto(x, cols)
        else:
            np.multiply(np.exp(carry)[:, None], cols, out=x)
        maps.kappa(x, axis=0, out=sides[1])
        weight = x[maps.i - 1] ** alpha
        total = np.add.reduce(np.add(np.divide(1.0, sides, out=tmp), sides, out=tmp), axis=-2)
        diffs = _scratch("payoff", len(rows), cols.shape[1])
        for row, (_, f) in zip(diffs, (_BOUNDED_PAYOFFS[k] for k in rows)):
            plain, reflected = f(sides, total, tmp)
            np.subtract(plain, reflected * weight, out=row)
        return _means(diffs, width), None

    return [f"{title} {name}" for name, _ in _BOUNDED_PAYOFFS], evaluate, [1.0] * 3


def check_payoff_symmetry(
    model,
    i: int,
    payoff_family: str = "basket",
    test_vectors: Sequence[tuple[float, np.ndarray]] | None = None,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> SymmetryReport:
    """Expected-payoff symmetry under the coordinate swap pi_i.

    For each test vector the residual ``E f(u0,u) - E f(pi_i(u0,u))`` is
    estimated on one common set of draws, so the standard error reflects
    the difference estimator.  The same draws also test the weighted
    numeraire-change identity ``E f(eta) = E[f(kappa_i(eta)) eta_i]`` for
    three fixed bounded payoffs.
    """
    if rng is None:
        raise DomainError("common-random-number check requires an RngStream")
    draw = _draw(model, n_samples, rng.child(1))
    n = model.dim
    maps = KappaMaps(n, i)
    if test_vectors is None:
        test_vectors = random_test_vectors(rng.child(0), n, payoff_family)
    groups = [_test_vector_group(payoff_family, i, test_vectors)]
    groups.append(_numeraire_change_group("change-of-numeraire", maps))
    report = SymmetryReport(f"payoff_symmetry[{payoff_family},i={i}]")
    report.points = _confirmed_mc_points(groups, draw, rng.child(9))
    return report


def check_joint_self_duality(
    model: VectorModel,
    rng: RngStream,
    n_samples: int = DEFAULT_SAMPLES,
) -> SymmetryReport:
    """Self-duality for every numeraire plus its exchangeability traces.

    Runs the payoff symmetry for each ``i`` and both families, permutation
    invariance of the max payoff, and pairwise marginal comparisons, all
    on one common first look, which one kernel pass reduces for every set.
    Each numeraire's set, and the traces, then confirm their own pending
    points on the looks of their own stream.
    """
    n = model.dim
    draw = _draw(model, n_samples, rng.child(1))
    groups, streams = [], []
    for i in range(1, n + 1):
        # both families of numeraire i draw their vectors and confirmation
        # batches from one stream, so they share one change-of-numeraire
        # evaluation, reported under each family's label
        stream = rng.child(10 + i)
        groups.extend(
            _test_vector_group(family, i, random_test_vectors(stream.child(0), n, family))
            for family in ("basket", "max")
        )
        groups.append(_numeraire_change_group("change-of-numeraire", KappaMaps(n, i)))
        streams.extend([stream.child(9)] * 3)

    perm_rng = rng.child(2)
    first = np.array([[u0, *u] for u0, u in random_test_vectors(perm_rng, n, "max", count=5)])
    second = first.copy()
    for row in second:
        row[1:] = row[1:][perm_rng.generator.permutation(n)]
    labels = [f"permutation[{idx}]" for idx in range(len(first))]
    groups.append(_swap_group("max", labels, first, second, first[:, 1:] - second[:, 1:], False))

    pairs = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in (0.5, 1.0, 2.0)]
    low, high, caps = np.array(pairs).reshape(-1, 3).T
    low, high = low.astype(int), high.astype(int)

    def marginals(cols, rows, levels, width):
        # into thread scratch; "clip" takes unbuffered, and every index is in range
        lo, hi = (
            np.take(cols, ends[rows], axis=0, out=_scratch(slot, len(rows), cols.shape[1]), mode="clip")
            for ends, slot in ((low, "payoff"), (high, "tmp"))
        )
        cap = caps[rows, None]
        diffs = np.subtract(np.minimum(lo, cap, out=lo), np.minimum(hi, cap, out=hi), out=lo)
        return _means(diffs, width), None

    labels = [f"marginal {a + 1} vs {b + 1} @min(.,{c})" for a, b, c in pairs]
    # the statistic is bounded by the cap, which sets its scale
    groups.append((labels, marginals, np.maximum(caps, 1.0).tolist()))
    streams.extend([rng.child(3)] * 2)

    points = iter(_confirmed_mc_points(groups, draw, streams))
    report = SymmetryReport("joint_self_duality")
    for i in range(1, n + 1):
        sets = groups[3 * i - 3 : 3 * i]
        basket, peak, shared = (list(itertools.islice(points, len(g[0]))) for g in sets)
        for family, own in (("basket", basket), ("max", peak)):
            report = report.merge(SymmetryReport(f"payoff_symmetry[{family},i={i}]", own + shared))
    report.points.extend(points)  # the traces
    return report


def check_empirical_integrated_tail(samples: np.ndarray, z_grid=None) -> SymmetryReport:
    """Sample version of the integrated-tail equation, with CRN errors."""
    z_grid = np.asarray(z_grid, dtype=float) if z_grid is not None else default_grid(0.2, 5.0, 7)
    samples = np.asarray(samples, dtype=float)
    report = SymmetryReport("empirical_integrated_tail")
    for z in z_grid:
        d = z * np.minimum(samples, 1.0 / z) - np.minimum(samples, z)
        report.points.append(_mc_point(f"z={z:g}", _Moments.of(d), max(1.0, float(z))))
    return report


# --------------------------------------------------------------------------- #
# Constructions and transforms
# --------------------------------------------------------------------------- #


def extend_self_dual_density(
    tail_density: Callable[[float], float], *, name: str = "extended"
) -> CustomDensity:
    """Build a self-dual density from its restriction to [1, inf).

    The values on (0, 1) are forced by the reflection condition
    ``p(x) = x^-3 p(1/x)``; one overall constant normalises the total
    mass.  The construction automatically has mean one whenever it is
    integrable, because the lower-branch mass equals the upper-branch
    mean and vice versa.
    """
    probes = np.array([32.0, 64.0, 128.0, 256.0])
    if not quadrature.decays_at_scales(lambda x: x * tail_density(x), probes):
        raise NotIntegrable("tail mass integral of p on [1, inf) diverges")
    if not quadrature.decays_at_scales(lambda x: x * x * tail_density(x), probes):
        raise NotIntegrable("tail mean integral of x p(x) on [1, inf) diverges")
    mass_hi = quadrature.integrate_interval(tail_density, 1.0, math.inf, what=f"{name}: tail mass")
    mean_hi = quadrature.integrate_interval(
        lambda t: t * tail_density(t), 1.0, math.inf, what=f"{name}: tail mean"
    )
    c = 1.0 / (mass_hi + mean_hi)

    def density(x: float) -> float:
        if x >= 1.0:
            return c * tail_density(x)
        return c * x**-3.0 * tail_density(1.0 / x)

    model = CustomDensity(density, name=name, check_mass=False)
    model.normalizer = c
    return model


class _PowerScaled:
    """Sampler adapter for (e^lambda o eta)^alpha; used by QSD checks."""

    has_density = False

    def __init__(self, base, lam: np.ndarray, alpha: float):
        self.base = base
        self.lam = lam
        self.alpha = alpha
        self.dim = base.dim

    def column_chunks(self, n, rng):
        """The base model's chunks, each transformed in place once it is drawn."""
        scale, done = np.exp(self.lam)[:, None], 0
        for cols, ready in _Draw(self.base, n, rng):
            part = cols[:, done:ready]
            part *= scale
            part **= self.alpha
            done = ready
            yield cols, ready


def check_quasi_self_dual(
    model,
    i: int,
    lambda_cc,
    alpha: float,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> SymmetryReport:
    """Quasi-self-duality of order alpha with carrying costs lambda.

    The transformed vector ``(e^lambda o eta)^alpha`` is tested for plain
    self-duality: exactly through the density criterion when the model's
    ``power_transformed`` keeps it in its family (the scalar log-normal), by
    Monte Carlo otherwise.  The defining payoff identity
    ``E f(e^zeta) = E[f(e^(K_i zeta)) e^(alpha zeta_i)]`` is also tested
    directly on bounded payoffs.  A Levy triplet's order is decided exactly
    by its exponent instead (:func:`selfdual.levy.check_qsd_triplet`).
    """
    if alpha == 0:
        raise DomainError("quasi-self-duality requires alpha != 0")
    lam = np.atleast_1d(np.asarray(lambda_cc, dtype=float))
    n = model.dim
    if lam.shape == (1,) and n > 1:
        lam = np.full(n, lam[0])
    if lam.shape != (n,):
        raise DomainError("carrying-cost vector length does not match the model")

    transformed = model.power_transformed(lam, alpha)
    if transformed is not None:
        sub = check_density_self_dual(transformed, i)
    elif rng is None:
        raise DomainError("Monte-Carlo QSD check requires an RngStream")
    else:
        adapter = _PowerScaled(model, lam, alpha)
        sub = check_payoff_symmetry(adapter, i, "basket", rng=rng.child(3), n_samples=n_samples)
    report = SymmetryReport(f"quasi_self_dual[i={i},alpha={alpha:g}]").merge(sub)

    if rng is not None:
        draw = _draw(model, n_samples, rng.child(4))
        group = _numeraire_change_group("qsd identity", KappaMaps(n, i), lam, alpha)
        report.points.extend(_confirmed_mc_points([group], draw, rng.child(5)))
    return report


def asymmetry_correction(model: ScalarModel, a: float, x: float) -> float:
    """Density ratio q(x) = p_(a eta)(1/x) / p_(a eta)(x) at reciprocal prices.

    For a self-dual model with a = 1 this equals x^3; for a
    quasi-self-dual model of order alpha with a = e^lambda it equals
    x^(2+alpha).  The ratio is what makes European claims exchangeable
    against claims on the reciprocal price.
    """
    if a <= 0 or x <= 0:
        raise DomainError("a and x must be positive")
    if not model.has_density:
        raise NoDensity("asymmetry correction needs a density")
    p_at = float(model.pdf(x / a)) / a
    p_rec = float(model.pdf(1.0 / (x * a))) / a
    if p_at <= 0.0:
        raise ZeroDensity(f"density vanishes at {x!r}")
    return p_rec / p_at
