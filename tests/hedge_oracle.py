"""The per-state nested Monte Carlo of a continuous single-barrier hedge, kept as a test oracle.

A continuous hedge's exchange is decided by the driver's exponent identity
(``levy.check_qsd_triplet``).  Before that, it was checked by simulation: outer
paths on the grid find the first hit of the barrier before the horizon, each hit
state is moved onto the level, and inner draws from it to the horizon compare the
conditional value of the hedge with that of the target (of nothing, for a
knock-out hedge).  The identity says every such gap is zero; this oracle measures
them, each with its standard error.
"""

import math
from dataclasses import dataclass

import numpy as np

from selfdual import hedging, levy


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
