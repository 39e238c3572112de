"""The grid estimators of single-barrier hedges, kept as test oracles.

``grid_hedge`` prices a hedge on simulated paths, as every jump-driver hedge once was:
the knock fraction and the prices come from the grid indicator of ``n_outer`` paths, and
hit states are checked by inner simulation.  The grid misses crossings between its times,
so it undercounts hits by a margin that shrinks with the steps; the bridge price check of
``hedging.evaluate_hedge`` is the limit it tends to.

``hit_state_gaps`` is the per-state nested Monte Carlo of a continuous hedge.

A continuous hedge's exchange is decided by the driver's exponent identity
(``levy.check_qsd_triplet``).  Before that, it was checked by simulation: outer
paths on the grid find the first hit of the barrier before the horizon, each hit
state is moved onto the level, and inner draws from it to the horizon compare the
conditional value of the hedge with that of the target (of nothing, for a
knock-out hedge).  The identity says every such gap is zero; this oracle measures
them, each with its standard error.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from selfdual import hedging, levy, pricing


@dataclass(frozen=True)
class StateGap:
    path: int
    step: int
    time: float
    state: tuple
    target_value: float
    hedge_value: float
    gap: float  # mean of hedge - target over the inner draws
    std_error: float


def grid_hedge(plan, cfg, n_outer, n_inner, rng, n_states):
    """The grid-priced report of a single-barrier hedge, without its exchange.

    The ``n_outer`` paths of ``cfg.steps`` steps come from ``rng.child(0)`` and give the
    knock fraction, the share of hits whose step held a jump that missed the level, the
    prices and the no-hit mismatch.  Up to ``n_states`` hit states before the horizon, in
    path order, get inner draws from ``rng.child(1000 + j)``; a jump driver keeps the
    overshoot state, and its gaps are one-sided: a gap fails below zero, or above it for
    a knock-out hedge.
    """
    zero = pricing.CustomPayoff(lambda s: np.zeros(s.shape[0]), cfg.n)
    lhs = zero if plan.knock == "out" else plan.target
    report, knocked, terminal = hedging._measure(
        cfg, [plan.barrier], [(lhs, plan.hedge)], n_outer, n_inner, rng, n_states
    )
    f, chi = plan.target(terminal), knocked.astype(float)
    return replace(
        report, one_sided=report.one_sided or plan.knock == "super",
        sub_replicates=not cfg.is_continuous and plan.knock == "out",
        terminal_max_mismatch=hedging._no_hit_mismatch(plan, ~knocked, plan.hedge(terminal), f),
        price_plain=pricing._mean_se(f), price_knock_in=pricing._mean_se(chi * f),
        price_knock_out=pricing._mean_se((1.0 - chi) * f),
    )


def hit_state_gaps(plan, cfg, n_outer, n_inner, rng, n_states):
    """The gaps at the first ``n_states`` hit states before the horizon, in path order.

    The outer paths come from ``rng.child(0)``, the j-th state's inner draws from
    ``rng.child(1000 + j)``.
    """
    assert cfg.is_continuous, "a jump driver keeps its overshoot state; the grid checks it"
    paths, _ = hedging.simulate_paths(cfg, n_outer, rng.child(0))
    i = plan.barrier.asset - 1
    gaps = []
    for p in range(n_outer):
        rec = hedging.detect_first_hit(paths[p], plan.barrier, cfg.horizon)
        if rec is None or rec.step == cfg.steps:  # no hit, or no time left after it
            continue
        state = paths[p, rec.step].copy()
        state[i] = plan.barrier.level
        remaining = cfg.horizon - rec.time
        incr = levy.sample_increments(cfg.driver, remaining, rng.child(1000 + len(gaps)), n_inner)
        s_t = state * np.exp(remaining * cfg.carry + incr)
        target = np.zeros(n_inner) if plan.knock == "out" else plan.target(s_t)
        hedge = plan.hedge(s_t)
        diff = hedge - target
        se = max(float(np.std(diff, ddof=1)) / math.sqrt(n_inner), 1e-300)  # 0 on a dead state
        gaps.append(StateGap(
            p, rec.step, rec.time, tuple(state), float(np.mean(target)), float(np.mean(hedge)),
            float(np.mean(diff)), se,
        ))
        if len(gaps) == n_states:
            break
    return gaps
