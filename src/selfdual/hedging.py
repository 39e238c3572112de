"""Path simulation, barrier detection, and semi-static hedge evaluation.

Prices follow ``S_t = S_0 o exp(t lambda + xi_t)`` for a finite-activity
Levy log-driver whose exponential is a componentwise martingale.  A
barrier event is the first grid time at which the level lies on the
segment between the initial and the current price of the monitored
asset.  The semi-static hedge of a knock-in claim is the European claim
``(f(S_T) + (S_Ti/H)^alpha f(kappahat_i(S_T, H))) 1{H in segment}``.
The reflection maps an affine-power claim ``(S_i/H)^b (<w, S> + c)_+^p``
symbolically to another one; when the payoff's support makes one summand
vanish identically the indicator is dropped and the hedge collapses to
that reflected claim.

A continuous driver is decided without paths.  At a hit state ``s``, ``s_i = H``,
the exchange ``E f(s o Y) = E[Y_i^alpha f(s o kappa_i Y)]`` for ``Y = S_T / s =
exp(r carry + xi_r)`` is the quasi-self-duality of order ``alpha`` of ``Y``'s law
for numeraire ``i``; a Levy exponent is linear in ``r``, so it holds at every
state exactly when :func:`levy.check_qsd_triplet` passes (Carr and Lee 2009).
Given ``S_T`` the monitored log-price is a Brownian bridge, which hit the level
with probability ``p = exp(-2 (y_0 - h)(y_T - h) / (a_ii T))`` if ``S_T`` has not
crossed it and 1 if it has (Glasserman 2004, 6.4), so the hedge must price like
``p f(S_T)``, or ``(1 - p) f`` for knock-out.  Jump drivers and the joint
hedges keep the grid: a streaming first-hit pass over outer paths holds one
log-state, ``(n, paths)``, and tests every barrier at every step, so memory is
O(paths * n) whatever the number of steps; inner simulations from each hit state,
projected onto the barrier unless the driver jumps, compare the conditional values
of the two claims.  A jump driver keeps the overshoot state, and its verdicts are
one-sided.

The price check draws ``xi_T``'s standard normals on randomly shifted copies of
the rank-1 lattice of the common-random-number checks (randomised quasi-Monte
Carlo), each copy a replicate whose means give the SEs; a price gap that fails
within ``DECISIVE_Z`` SE takes fresh shifts in growing looks up to ``n_samples``.
Every draw of a hedge is made on the calling thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .duality import DECISIVE_Z, SymmetryReport, _LatticeDraw, _Moments, _scratch, worst_verdict
from .errors import DomainError, SymmetryPrereqFailed
from .levy import LevyTriplet, MultiLogNormal, check_qsd_triplet, gaussian_root, sample_increments
from .pricing import (
    AffineCall,
    AffinePower,
    BasketCall,
    BasketPut,
    CompositePayoff,
    CustomPayoff,
    Payoff,
    _mean_se,
)
from .rng import RngStream

__all__ = [
    "PathConfig",
    "Barrier",
    "HitRecord",
    "HedgePlan",
    "HitGap",
    "HedgeReport",
    "TwoAssetMinCombo",
    "ReflectedClaim",
    "TerminalKnockIndicator",
    "simulate_paths",
    "detect_first_hit",
    "reflect_claim",
    "build_hedge",
    "evaluate_hedge",
    "two_asset_joint_hedges",
    "evaluate_joint_hedge",
    "JointHedgePlan",
]

SE_BAND = 3.0
# resolution floor for nested-MC conditional values; coarser than the
# distribution-level checks because inner simulations are the cost driver
SE_FLOOR = 5e-3


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #


@dataclass
class PathConfig:
    """Market scenario: S_t = S0 o exp(t*carry + xi_t).

    ``driver`` is the unit-time generating triplet of xi, except that a
    :class:`MultiLogNormal` is read as the law of xi at the horizon and
    rescaled to unit time; every component of exp(xi_t) must be a martingale.
    """

    s0: Sequence[float]
    carry: Sequence[float]
    driver: LevyTriplet
    horizon: float = 1.0
    steps: int = 250

    def __post_init__(self):
        self.s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        self.carry = np.atleast_1d(np.asarray(self.carry, dtype=float))
        if np.any(self.s0 <= 0):
            raise DomainError("initial prices must be positive")
        if self.horizon <= 0 or self.steps < 1:
            raise DomainError("horizon must be positive and steps >= 1")
        if isinstance(self.driver, MultiLogNormal):  # a law at the horizon
            self.driver = LevyTriplet(
                self.driver.a / self.horizon, drift=self.driver.drift / self.horizon
            )
        n = self.driver.n
        if self.s0.shape != (n,) or self.carry.shape != (n,):
            raise DomainError("s0/carry length must match the driver dimension")
        for j, resid in enumerate(np.abs(np.log(self.driver.means)), 1):
            if resid > 1e-8:
                raise DomainError(
                    f"driver is not martingale-normalised in component {j} "
                    f"(|log E exp(xi_{j})| = {resid:.2e})"
                )

    @property
    def n(self) -> int:
        return self.driver.n

    @property
    def is_continuous(self) -> bool:
        return self.driver.nu.is_empty


@dataclass(frozen=True)
class Barrier:
    """Single barrier on one asset; ``direction`` fixes the crossing side.

    ``down`` requires the initial price above the level, ``up`` below;
    this is validated against the scenario before simulation.
    """

    asset: int
    level: float
    direction: str = "down"

    def __post_init__(self):
        if self.level <= 0:
            raise DomainError("barrier level must be positive")
        if self.direction not in ("down", "up"):
            raise DomainError("direction must be 'down' or 'up'")

    def validate(self, cfg: PathConfig) -> None:
        if not 1 <= self.asset <= cfg.n:
            raise DomainError(f"barrier asset {self.asset} out of range 1..{cfg.n}")
        s0 = float(cfg.s0[self.asset - 1])
        if s0 == self.level:
            raise DomainError("initial price must differ from the barrier level")
        want = "down" if s0 > self.level else "up"
        if want != self.direction:
            raise DomainError(
                f"barrier direction {self.direction!r} inconsistent with S0={s0} "
                f"and level={self.level}"
            )

    def crossed(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return values <= self.level if self.direction == "down" else values >= self.level


@dataclass(frozen=True)
class HitRecord:
    step: int  # grid index of the hit (1-based into the path rows)
    time: float
    value: float  # monitored asset's price at the hit step
    overshoot: bool  # jump step with price strictly beyond the level


# --------------------------------------------------------------------------- #
# Simulation and hit detection
# --------------------------------------------------------------------------- #


def _price_steps(cfg: PathConfig, n_paths: int, rng: RngStream):
    """Yield ``(k, t_k * carry, x, counts)`` for k = 1..steps: the simulation loop.

    Log-prices accumulate exact Levy increments per step, so the scheme
    has no discretisation bias in distribution at the grid times; only
    the current log-state ``x``, ``(n, paths)``, is held and updated in
    place.  ``counts`` are the Poisson jump counts inside step k.
    """
    n_paths = int(n_paths)
    dt = cfg.horizon / cfg.steps
    times = np.linspace(0.0, cfg.horizon, cfg.steps + 1)
    x = np.zeros((cfg.n, n_paths))
    root = gaussian_root(cfg.driver, dt)
    for k in range(1, cfg.steps + 1):
        incr, counts = sample_increments(
            cfg.driver, dt, rng.child(k - 1), n_paths, return_counts=True, root=root
        )
        x += incr.T
        yield k, times[k] * cfg.carry, x, counts


def _prices(s: np.ndarray, growth: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (n, m) price columns ``s o exp(growth + x)`` of the log-state columns ``x``."""
    return s[:, None] * np.exp(growth[:, None] + x)


def simulate_paths(cfg: PathConfig, n_paths: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Simulate full price grids; returns (paths, jump_flags).

    ``paths`` has shape (n_paths, steps+1, n) and ``jump_flags[p, k]``
    marks a Poisson event inside step k of path p.  The hedge checks do
    not hold this grid; they stream the same steps through
    :func:`_first_hits`.
    """
    paths = np.empty((int(n_paths), cfg.steps + 1, cfg.n))
    paths[:, 0] = cfg.s0
    jump_flags = np.zeros((int(n_paths), cfg.steps), dtype=bool)
    for k, growth, x, counts in _price_steps(cfg, n_paths, rng):
        paths[:, k] = _prices(cfg.s0, growth, x).T
        jump_flags[:, k - 1] = counts > 0
    return paths, jump_flags


def _first_hits(
    cfg: PathConfig, n_paths: int, rng: RngStream, barriers: Sequence[Barrier]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First hit of every barrier on every path, in one streaming pass.

    Returns ``(step, state, overshoot, terminal)``: ``step[b, p]`` is the
    first grid index at which path p crossed barrier b (0 if it never
    did), ``state[b, p]`` the price vector at that step, ``overshoot[b, p]``
    whether that step held a jump and missed the level, and ``terminal``
    the (n_paths, n) prices at the horizon.  The hit rule is the one of
    :func:`detect_first_hit`; memory is O(paths * n), not O(paths * steps * n).
    """
    n_paths = int(n_paths)
    step = np.zeros((len(barriers), n_paths), dtype=np.int64)
    state = np.zeros((len(barriers), n_paths, cfg.n))
    overshoot = np.zeros((len(barriers), n_paths), dtype=bool)
    for k, growth, x, counts in _price_steps(cfg, n_paths, rng):
        for b, barrier in enumerate(barriers):
            i = barrier.asset - 1
            values = cfg.s0[i] * np.exp(growth[i] + x[i])
            new = np.flatnonzero(barrier.crossed(values) & (step[b] == 0))
            step[b, new] = k
            state[b, new] = cfg.s0 * np.exp(growth + x[:, new].T)
            overshoot[b, new] = (counts[new] > 0) & (values[new] != barrier.level)
    return step, state, overshoot, np.ascontiguousarray(_prices(cfg.s0, growth, x).T)


def detect_first_hit(
    path: np.ndarray,
    barrier: Barrier,
    horizon: float,
    jump_steps: np.ndarray | None = None,
) -> HitRecord | None:
    """First grid time whose segment from S0 contains the barrier level.

    With the segment rule, the hit condition at time t is simply that the
    current price sits at or beyond the level relative to the start; the
    overshoot flag is set when the hit step contained a jump and the
    price did not land exactly on the level.
    """
    values = np.asarray(path, dtype=float)
    if values.ndim == 2:
        values = values[:, barrier.asset - 1]
    crossed = barrier.crossed(values[1:])
    if not np.any(crossed):
        return None
    k = int(np.argmax(crossed)) + 1
    value = float(values[k])
    had_jump = bool(jump_steps[k - 1]) if jump_steps is not None else False
    return HitRecord(k, horizon * k / (values.shape[0] - 1), value, had_jump and value != barrier.level)


# --------------------------------------------------------------------------- #
# Claim constructions
# --------------------------------------------------------------------------- #


class ReflectedClaim(Payoff):
    """(S_i/H)^alpha f(kappahat_i(S, H)); exact for any payoff f.

    ``kappahat_i`` maps S to (H/S_i) (S_1, ..., H, ..., S_n), replacing
    the i-th coordinate by H^2/S_i; applying the map twice is the
    identity, so double reflection returns the original claim pointwise.
    """

    def __init__(self, base: Payoff, i: int, level: float, alpha: float):
        if level <= 0:
            raise DomainError("barrier level must be positive")
        self.base = base
        self.i = int(i)
        self.level = float(level)
        self.alpha = float(alpha)
        self.n_assets = base.n_assets

    def __call__(self, s):
        s = self._matrix(s)
        si = s[:, self.i - 1]
        scale = self.level / si
        refl = s * scale[:, None]
        refl[:, self.i - 1] = self.level * scale
        return (si / self.level) ** self.alpha * self.base(refl)


class TerminalKnockIndicator(Payoff):
    """1{H between S0_i and S_Ti}, i.e. terminal price at/beyond the level."""

    def __init__(self, barrier: Barrier, n_assets: int | None = None):
        self.barrier = barrier
        self.n_assets = n_assets

    def __call__(self, s):
        s = self._matrix(s)
        return self.barrier.crossed(s[:, self.barrier.asset - 1]).astype(float)


class TwoAssetMinCombo(Payoff):
    """(S1 - k) + min(S2, S1 - k); may be negative."""

    def __init__(self, strike: float):
        if strike <= 0:
            raise DomainError("strike must be positive")
        self.strike = float(strike)
        self.n_assets = 2

    def __call__(self, s):
        s = self._matrix(s)
        d = s[:, 0] - self.strike
        return d + np.minimum(s[:, 1], d)


def reflect_claim(f: Payoff, i: int, level: float, alpha: float) -> Payoff:
    """Claim whose value at the barrier equals the value of ``f``.

    Affine-power claims reflect symbolically:
    ``(S_i/H)^b (<w, S> + c)_+^p`` becomes
    ``(S_i/H)^(alpha-b-p) (w_i H + (c/H) S_i + sum_{j != i} w_j S_j)_+^p``.
    That needs all of ``S`` read, and ``b = 0`` or the same ``(i, H)`` as the
    reflection.  Anything else reflects through the generic wrapper.
    """
    symbolic = isinstance(f, AffinePower) and f.asset is None
    if not symbolic or (f.b != 0 and (f.i, f.level) != (i, level)):
        return ReflectedClaim(f, i, level, alpha)
    w = list(f.weights)
    w[i - 1], c = f.constant / level, f.weights[i - 1] * level
    return AffinePower(w, c, f.p, alpha - f.b - f.p, i, level)


@dataclass
class HedgePlan:
    """Semi-static plan: hold ``hedge`` statically, exchange at first hit."""

    target: Payoff
    barrier: Barrier
    alpha: float
    knock: str  # in | out | super
    hedge: Payoff
    simplification: str = "indicator"

    @property
    def indicator_free(self) -> bool:
        return self.simplification != "indicator"


def _try_simplify(target: Payoff, barrier: Barrier, alpha: float) -> tuple[Payoff, str] | None:
    """Indicator elimination when the payoff's support allows it.

    Pattern 1 (spread with a down barrier): an affine-power target
    ``(S_i/H')^b' (a S_i - sum b_j S_j - k)_+^p`` with ``a > 0``,
    ``b_j >= 0`` and ``a H <= k`` pays nothing when knocked, and its
    reflection pays nothing when not knocked, so the hedge is the bare
    reflected claim.

    Pattern 2 (two-asset min combination with barrier at its strike):
    the indicator absorbs into ``target - (S1+S2-k)_+ + (k+S2-S1)_+``.
    """
    i = barrier.asset
    level = barrier.level
    if isinstance(target, TwoAssetMinCombo) and barrier.direction == "down":
        if i == 1 and abs(level - target.strike) <= 1e-12 * (1.0 + target.strike) and alpha == 1.0:
            k = target.strike
            combo = CompositePayoff(
                [
                    (1.0, target),
                    (-1.0, BasketCall((1.0, 1.0), k)),
                    (1.0, AffineCall((-1.0, 1.0), k)),
                ]
            )
            return combo, "min-combo indicator absorbed"
    if isinstance(target, AffinePower) and target.asset is None and barrier.direction == "down":
        w, k = np.asarray(target.weights), -target.constant
        others = np.delete(w, i - 1)
        if w[i - 1] > 0 and np.all(others <= 0) and k >= 0 and w[i - 1] * level <= k:
            return reflect_claim(target, i, level, alpha), "spread-put form"
    return None


def build_hedge(target: Payoff, barrier: Barrier, alpha: float, knock: str = "in") -> HedgePlan:
    """Hedge claim for a knock-in/knock-out target, or the super-hedge.

    ``in``: the reflected construction, indicator-free when the payoff's
    support permits.  ``out``: long target, short the knock-in hedge.
    ``super``: the bare reflected basket claim whose value dominates the
    knock-in claim from above.
    """
    if knock not in ("in", "out", "super"):
        raise DomainError("knock must be 'in', 'out' or 'super'")
    i = barrier.asset
    if knock == "super":
        return HedgePlan(
            target, barrier, alpha, knock,
            reflect_claim(target, i, barrier.level, alpha), "super-hedge reflected claim",
        )
    simplified = _try_simplify(target, barrier, alpha)
    if simplified is not None:
        hedge, how = simplified
    else:
        reflected = reflect_claim(target, i, barrier.level, alpha)
        indicator = TerminalKnockIndicator(barrier, target.n_assets)
        both = CompositePayoff([(1.0, target), (1.0, reflected)])
        hedge = CustomPayoff(lambda s, _b=both, _ind=indicator: _ind(s) * _b(s), target.n_assets)
        how = "indicator"
    if knock == "in":
        return HedgePlan(target, barrier, alpha, knock, hedge, how)
    # knock-out: target minus the knock-in hedge
    out_hedge = CompositePayoff([(1.0, target), (-1.0, hedge)])
    return HedgePlan(target, barrier, alpha, knock, out_hedge, f"out = target - in ({how})")


# --------------------------------------------------------------------------- #
# Replication measurement
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class HitGap:
    path: int
    step: int
    time: float
    state: tuple
    target_value: float
    hedge_value: float
    gap: float
    std_error: float
    overshoot: bool


@dataclass
class HedgeReport:
    knock_in_fraction: float
    knock_in_se: float
    overshoot_fraction: float
    one_sided: bool
    hit_gaps: list[HitGap] = field(default_factory=list)
    terminal_max_mismatch: float = 0.0
    price_plain: tuple[float, float] = (0.0, 0.0)
    price_knock_in: tuple[float, float] = (0.0, 0.0)
    price_knock_out: tuple[float, float] = (0.0, 0.0)
    price_gap: tuple[float, float] | None = None  # (mean, SE) of hedge - weighted target
    sub_replicates: bool = False  # a knock-out hedge: target minus a super-replicating hedge
    exchange: SymmetryReport | None = None  # a single-barrier hedge's exact exchange
    price_check: tuple[int, int, int] | None = None  # its draws: (n_samples, replicates, rounds)

    def _miss(self, gap: float) -> float:
        """How far a gap lies on the failing side: either side if two-sided, else below zero,
        or above it for a hedge that sub-replicates."""
        return abs(gap) if not self.one_sided else gap if self.sub_replicates else -gap

    @property
    def max_gap_se_units(self) -> float:
        units = (self._miss(g.gap) / g.std_error for g in self.hit_gaps if g.std_error > 0)
        return max(units, default=0.0)

    @property
    def verdict(self) -> str:
        if self.terminal_max_mismatch > 1e-10:
            return "fail"
        statuses = [] if self.exchange is None else [self.exchange.verdict]
        for g in self.hit_gaps:
            if self._miss(g.gap) > SE_BAND * g.std_error:
                return "fail"
            scale = max(1.0, abs(g.target_value))
            statuses.append("inconclusive" if g.std_error > SE_FLOOR * scale else "pass")
        if self.price_gap is not None:
            gap, se = self.price_gap
            if self._miss(gap) > SE_BAND * se:
                return "fail"
        return worst_verdict(statuses)

    def one_line(self) -> str:
        price_gap = "none"  # the driver has no price check
        if self.price_gap is not None:  # signed; a constant gap is 0 or +-inf SEs from zero
            gap, se = self.price_gap
            price_gap = f"{gap / se if se > 0 else gap * math.inf if gap else 0.0:.2f}"
        checked = [] if self.exchange is None else [f"exchange={self.exchange.max_abs_residual:.3e}"]
        if self.price_gap is None:  # the grid's hit states
            checked.append(f"states={len(self.hit_gaps)} max_gap_se={self.max_gap_se_units:.2f}")
        return (
            f"verdict={self.verdict} hits={self.knock_in_fraction:.4f}"
            f"+-{self.knock_in_se:.4f} {' '.join(checked)} price_gap_se={price_gap} "
            f"overshoot={self.overshoot_fraction:.4f}"
        )

    def gaps_csv(self, fh) -> None:
        fh.write("path,step,time,target_value,hedge_value,gap,std_error,overshoot\n")
        for g in self.hit_gaps:
            fh.write(
                f"{g.path},{g.step},{g.time:.17g},{g.target_value:.17g},"
                f"{g.hedge_value:.17g},{g.gap:.17g},{g.std_error:.17g},{int(g.overshoot)}\n"
            )


def _conditional_gap(
    cfg: PathConfig,
    state: np.ndarray,
    tau: float,
    lhs: Payoff,
    rhs: Payoff,
    incr: np.ndarray,
) -> tuple[float, float, float, float]:
    """Inner Monte Carlo from a stopping state at ``tau < horizon`` on the ``(n, dim)``
    driver increments ``incr`` to the horizon; returns (lhs_value, rhs_value, gap,
    se_of_gap) with common random numbers."""
    remaining = cfg.horizon - tau
    s_t = np.ascontiguousarray(_prices(state, remaining * cfg.carry, incr.T).T)
    lv = lhs(s_t)
    rv = rhs(s_t)
    gap, se = _mean_se(rv - lv)
    return float(np.mean(lv)), float(np.mean(rv)), gap, max(se, 1e-300)


def _require(cfg: PathConfig, barriers: Sequence[Barrier], rng: RngStream | None) -> None:
    if rng is None:
        raise DomainError("hedge evaluation requires an RngStream")
    for barrier in barriers:
        barrier.validate(cfg)


def _measure(
    cfg: PathConfig,
    barriers: Sequence[Barrier],
    exchanges: Sequence[tuple[Payoff, Payoff]],
    n_outer: int,
    n_inner: int,
    rng: RngStream,
    n_hit_states: int,
    one_sided: bool,
) -> tuple[HedgeReport, np.ndarray, np.ndarray]:
    """The outer pass and hit-state checks of the grid evaluators: returns the
    report without prices, and the paths' knock mask and terminal prices.

    A path's first hitter is the barrier it crossed first, the lower index
    on ties.  Each barrier checks the gap of its exchange at up to
    ``n_hit_states // len(barriers)`` (at least one) of the paths it hits
    first before the horizon, in path order, by inner simulation from the
    hit state, moved onto its level unless the driver jumps or it overshot.
    The ``n_outer`` paths come from ``rng.child(0)``, the j-th state's inner
    draws from ``rng.child(1000 + j)``.
    """
    quota, n_outer = max(1, int(n_hit_states) // len(barriers)), int(n_outer)
    steps, states, overshoots, terminal = _first_hits(cfg, n_outer, rng.child(0), barriers)
    first = np.argmin(np.where(steps > 0, steps, np.iinfo(steps.dtype).max), axis=0)
    paths = np.arange(n_outer)
    step, state, overshoot = steps[first, paths], states[first, paths], overshoots[first, paths]
    live = (step > 0) & (step < cfg.steps)  # a first hit at the horizon has no time left
    order = np.sort(np.concatenate(
        [np.flatnonzero(live & (first == b))[:quota] for b in range(len(barriers))]
    ))
    gaps = []
    for j, p in enumerate(order):
        b, k = int(first[p]), int(step[p])
        tau = cfg.horizon * k / cfg.steps
        if cfg.is_continuous and not overshoot[p]:
            state[p, barriers[b].asset - 1] = barriers[b].level
        incr = sample_increments(cfg.driver, cfg.horizon - tau, rng.child(1000 + j), int(n_inner))
        lv, rv, gap, se = _conditional_gap(cfg, state[p], tau, *exchanges[b], incr)
        gaps.append(HitGap(int(p), k, tau, tuple(state[p]), lv, rv, gap, se, bool(overshoot[p])))
    knocked = step > 0
    frac, n_knocked = float(np.mean(knocked)), int(knocked.sum())
    over = int(overshoot[knocked].sum()) / n_knocked if n_knocked else 0.0
    se = math.sqrt(max(frac * (1.0 - frac), 1e-300) / n_outer)
    return HedgeReport(frac, se, over, one_sided, gaps), knocked, terminal


def _no_hit_mismatch(plan: HedgePlan, no_hit: np.ndarray, hedge: np.ndarray, target: np.ndarray) -> float:
    """Largest miss where the barrier was not hit (the mask ``no_hit``): a knock-in hedge pays
    nothing there and a knock-out hedge the target; the super-hedge promises only domination."""
    if plan.knock == "super":
        return 0.0
    miss = hedge - target if plan.knock == "out" else hedge
    return float(np.max(np.abs(np.where(no_hit, miss, 0.0)), initial=0.0))


def _bridge_moments(plan: HedgePlan, cfg: PathConfig, draws: _LatticeDraw) -> tuple[_Moments, float]:
    """Moments of the replicate means of (price gap, plain, knock-in, knock-out, ``p``) on the
    lattice draws ``draws`` of ``exp(xi_T)`` weighted by the bridge hit probability ``p``, and
    their no-hit mismatch.  The gap is ``hedge - p f``, or ``hedge - (1 - p) f`` for knock-out.
    """
    b, i = plan.barrier, plan.barrier.asset - 1
    y0_h, var = math.log(cfg.s0[i] / b.level), cfg.driver.a[i, i] * cfg.horizon
    rate = -2.0 * y0_h / var if var > 0 else -math.copysign(math.inf, y0_h)
    forward, total, mismatch, lo = cfg.s0 * np.exp(cfg.horizon * cfg.carry), None, 0.0, 0
    for cols, hi in draws:
        s = np.ascontiguousarray((forward[:, None] * cols[:, lo:hi]).T)
        # p = exp(rate (y_T - h)), whose exponent is negative short of the level, and 1 past it
        p = np.exp(np.minimum(rate * np.log(s[:, i] / b.level), 0.0))
        f, hedge = plan.target(s), plan.hedge(s)
        mismatch = max(mismatch, _no_hit_mismatch(plan, ~b.crossed(s[:, i]), hedge, f))
        w = 1.0 - p if plan.knock == "out" else p
        rows = np.stack([hedge - w * f, f, p * f, (1.0 - p) * f, p], out=_scratch("bridge", 5, hi - lo))
        block = _Moments.of(rows, out=rows, width=draws.width)
        total, lo = block if total is None else total.pooled(block), hi
    return total, mismatch


def evaluate_hedge(
    plan: HedgePlan,
    cfg: PathConfig,
    n_outer: int = 10_000,
    n_inner: int = 20_000,
    rng: RngStream | None = None,
    n_hit_states: int = 50,
    n_samples: int = 200_000,
    tol: float = 1e-10,
) -> HedgeReport:
    """Measure the replication quality of a hedge plan.

    The exchange is :func:`levy.check_qsd_triplet` at the barrier's asset, the carry
    and the plan's order, judged at ``tol``, and fails the hedge even where the prices
    or the hit states balance.  A continuous driver simulates no path, so it reads
    neither ``n_outer``, ``n_inner`` nor ``n_hit_states``.  Bridge-weighted terminal
    draws give the price gap, the knock-in fraction and the prices, and check the
    no-hit algebra where they end short of the level.  They are ``LATTICE_SHIFTS``
    lattice replicates with shifts from ``rng.child(2)``; while the gap fails within
    ``DECISIVE_Z`` SE, the looks of :meth:`duality._LatticeDraw.look` are pooled with
    them, up to the cap ``n_samples``.  Jump drivers price on ``n_outer`` paths, with
    inner draws at ``n_hit_states`` hit states, and have no price gap; their hit-state
    gaps are one-sided: a gap fails below zero, or above it for a knock-out hedge.
    """
    _require(cfg, [plan.barrier], rng)
    # the exchange first: an order it cannot judge draws nothing
    exchange = check_qsd_triplet(cfg.driver, plan.barrier.asset, cfg.carry, plan.alpha, tol)
    if cfg.is_continuous:
        law = LevyTriplet(cfg.driver.a * cfg.horizon, drift=cfg.driver.drift * cfg.horizon)
        look = first = _LatticeDraw(law, n_samples, stream := rng.child(2))  # the law of xi_T
        total, mismatch = None, 0.0
        for rounds in itertools.count():
            more, miss = _bridge_moments(plan, cfg, look)
            total, mismatch = more if total is None else total.pooled(more), max(mismatch, miss)
            se = np.sqrt(total.m2 / (total.n - 1)) / math.sqrt(total.n)
            gap, plain, k_in, k_out, hit = [(float(m), float(e)) for m, e in zip(total.mean, se)]
            report = HedgeReport(
                *hit, 0.0, plan.knock == "super", terminal_max_mismatch=mismatch, price_plain=plain,
                price_knock_in=k_in, price_knock_out=k_out, price_gap=gap, exchange=exchange,
                price_check=(total.n * first.width, total.n, rounds),
            )
            if not SE_BAND * gap[1] < report._miss(gap[0]) <= DECISIVE_Z * gap[1]:
                return report  # a pass, or a fail beyond DECISIVE_Z SE
            if (look := first.look(rounds + 1, stream.child(rounds))) is None:
                return report  # the cap is spent
    # in: exact exchange; super: the reflected claim must dominate the target
    lhs = CustomPayoff(lambda s: np.zeros(s.shape[0]), cfg.n) if plan.knock == "out" else plan.target
    report, knocked, terminal = _measure(
        cfg, [plan.barrier], [(lhs, plan.hedge)], n_outer, n_inner, rng, n_hit_states, True
    )
    f, chi = plan.target(terminal), knocked.astype(float)
    miss = _no_hit_mismatch(plan, ~knocked, plan.hedge(terminal), f)
    return replace(
        report, sub_replicates=plan.knock == "out", terminal_max_mismatch=miss,
        price_plain=_mean_se(f), price_knock_in=_mean_se(chi * f),
        price_knock_out=_mean_se((1.0 - chi) * f), exchange=exchange,
    )


# --------------------------------------------------------------------------- #
# Joint two-asset hedges
# --------------------------------------------------------------------------- #


@dataclass
class JointHedgePlan:
    claim: str  # X | Y
    level: float
    alphas: tuple[float, float]
    legs: list[tuple[float, Payoff]]
    # conditional identities to verify: (asset index, lhs, rhs)
    exchanges: list[tuple[int, Payoff, Payoff]] = field(default_factory=list)


def two_asset_joint_hedges(
    cfg: PathConfig,
    claim: str,
    k_x: float | None = None,
    k_y: float | None = None,
    alphas: tuple[float, float] = (1.0, 1.0),
    carry=(0.0, 0.0),
) -> JointHedgePlan:
    """Semi-static hedges for the two-asset joint-barrier claims.

    ``X`` knocks in a spread on (first hitter minus the other) when either
    asset falls to ``k_x``; its hedge is one basket put struck at ``k_x``.
    ``Y`` is a basket-put position switched in sign by which asset first
    reaches ``k_y``; its hedge is a long/short pair of spread claims with
    the ``(k_y^-1 S_i)^(alpha_i - 1)`` weights when the orders differ from
    one.  Requires the driver to satisfy the symmetry for both numeraires.
    """
    if cfg.n != 2:
        raise DomainError("joint hedges are two-asset constructions")
    if claim not in ("X", "Y"):
        raise DomainError("claim must be 'X' or 'Y'")
    for i in (1, 2):
        rep = check_qsd_triplet(cfg.driver, i, np.asarray(carry, dtype=float), alphas[i - 1])
        if rep.verdict != "pass":
            raise SymmetryPrereqFailed(
                f"driver is not quasi-self-dual for numeraire {i}: {rep.one_line()}"
            )
    a1, a2 = alphas
    if claim == "X":
        if k_x is None or not (k_x < float(np.min(cfg.s0))):
            raise DomainError("need k_x below both initial prices")
        put = BasketPut((1.0, 1.0), k_x)
        spread1 = reflect_claim(put, 1, k_x, a1)
        spread2 = reflect_claim(put, 2, k_x, a2)
        return JointHedgePlan(
            "X", k_x, alphas, [(1.0, put)],
            exchanges=[(1, put, spread1), (2, put, spread2)],
        )
    if k_y is None or not (k_y > float(np.max(cfg.s0))):
        raise DomainError("need k_y above both initial prices")
    put = BasketPut((1.0, 1.0), k_y)
    long_leg = reflect_claim(put, 1, k_y, a1)  # (S1 - S2 - k_y)_+ weighted
    short_leg = reflect_claim(put, 2, k_y, a2)  # (S2 - S1 - k_y)_+ weighted
    return JointHedgePlan(
        "Y", k_y, alphas, [(1.0, long_leg), (-1.0, short_leg)],
        exchanges=[(1, put, long_leg), (2, put, short_leg)],
    )


def evaluate_joint_hedge(
    plan: JointHedgePlan,
    cfg: PathConfig,
    n_outer: int = 4_000,
    n_inner: int = 20_000,
    rng: RngStream | None = None,
    n_hit_states: int = 50,
) -> HedgeReport:
    """Verify the joint plan's conditional exchange identities by nested MC.

    First-hit states of each monitored asset at the plan's level are
    collected from outer paths (projected onto the barrier for continuous
    drivers) and each stated identity is checked there.
    """
    barriers = [Barrier(i, plan.level, "down" if plan.claim == "X" else "up") for i in (1, 2)]
    _require(cfg, barriers, rng)
    exchanges = {i: (lhs, rhs) for i, lhs, rhs in plan.exchanges}
    return _measure(
        cfg, barriers, [exchanges[1], exchanges[2]], n_outer, n_inner, rng, n_hit_states,
        not cfg.is_continuous,
    )[0]
