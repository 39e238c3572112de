import importlib
import math
import multiprocessing
import os
import pkgutil
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import selfdual
from selfdual import dist, duality, hedging, levy, pricing
from selfdual import rng as rng_module
from selfdual.errors import DomainError, SymmetryPrereqFailed

import hedge_oracle
from conftest import make_rng

SIGMA = 0.25
A_SD = SIGMA**2 * np.array([[1.0, 0.5], [0.5, 1.0]])


def bs_config(steps=250, sigma=SIGMA, s0=(1.0, 1.0), carry=(0.0, 0.0)):
    a = sigma**2 * np.array([[1.0, 0.5], [0.5, 1.0]])
    return hedging.PathConfig(s0, carry, levy.martingale_normalized(a), 1.0, steps)


def jump_config(mass=3.0, steps=120, carry=(0.0, 0.0)):
    b = 0.09 * np.array([[1.0, 0.5], [0.5, 1.0]])
    nu = levy.build_tilted_gaussian_measure(b, 1.0, mass, 1)
    driver = levy.martingale_normalized(0.04 * np.array([[1.0, 0.5], [0.5, 1.0]]), nu)
    return hedging.PathConfig([1.0, 1.0], carry, driver, 1.0, steps)


# --------------------------------------------------------------------------- #
# Configuration and simulation
# --------------------------------------------------------------------------- #


def test_path_config_rejects_drift_violations():
    bad = levy.LevyTriplet(A_SD, drift=np.zeros(2))  # E e^xi != 1
    with pytest.raises(DomainError):
        hedging.PathConfig([1.0, 1.0], [0.0, 0.0], bad)


def test_path_config_accepts_multilognormal_driver():
    mln = levy.MultiLogNormal.jointly_self_dual(2, SIGMA)
    cfg = hedging.PathConfig([1.0, 1.0], [0.0, 0.0], mln, horizon=1.0, steps=10)
    assert isinstance(cfg.driver, levy.LevyTriplet)
    assert cfg.is_continuous


def test_simulate_deterministic_degenerate():
    driver = levy.LevyTriplet(np.zeros((2, 2)), drift=np.zeros(2))
    cfg = hedging.PathConfig([1.0, 2.0], [0.1, -0.05], driver, 1.0, 4)
    paths, flags = hedging.simulate_paths(cfg, 3, make_rng(90))
    times = np.linspace(0.0, 1.0, 5)
    want = cfg.s0 * np.exp(times[:, None] * cfg.carry)
    assert np.allclose(paths[0], want, rtol=1e-14)
    assert not flags.any()


def test_terminal_marginal_matches_distribution_sampler():
    mln = levy.MultiLogNormal.jointly_self_dual(2, SIGMA)
    cfg = hedging.PathConfig([1.0, 1.0], [0.0, 0.0], mln, horizon=1.0, steps=16)
    paths, _ = hedging.simulate_paths(cfg, 10**5, make_rng(91))
    terminal = paths[:, -1, 0]
    marg = dist.LogNormal(mln.drift[0], math.sqrt(mln.a[0, 0]))
    res = stats.kstest(terminal, lambda x: np.asarray(marg.cdf(x)))
    assert res.statistic < 1.628 / math.sqrt(terminal.size)


def test_forward_growth_with_carry():
    cfg = bs_config(steps=50, carry=(0.03, -0.01))
    *_, terminal = hedging._first_hits(cfg, 200_000, make_rng(92), [])
    for j, lam in enumerate(cfg.carry):
        se = terminal[:, j].std(ddof=1) / math.sqrt(terminal.shape[0])
        assert abs(terminal[:, j].mean() - math.exp(lam)) <= 4.0 * se


# --------------------------------------------------------------------------- #
# Barriers and hit detection
# --------------------------------------------------------------------------- #


def test_barrier_validation():
    cfg = bs_config(steps=4)
    with pytest.raises(DomainError):
        hedging.Barrier(1, 1.0, "down").validate(cfg)  # S0 equals the level
    with pytest.raises(DomainError):
        hedging.Barrier(1, 0.8, "up").validate(cfg)  # direction mismatch
    hedging.Barrier(1, 0.8, "down").validate(cfg)
    hedging.Barrier(2, 1.3, "up").validate(cfg)


def test_detect_first_hit_down_crossing():
    path = np.array([[1.0, 1.0], [0.95, 1.0], [0.79, 1.0], [0.9, 1.0]])
    rec = hedging.detect_first_hit(path, hedging.Barrier(1, 0.8, "down"), 1.0)
    assert rec.step == 2
    assert rec.time == pytest.approx(2.0 / 3.0)
    assert rec.value == pytest.approx(0.79)
    assert not rec.overshoot


def test_detect_first_hit_none():
    path = np.array([[1.0], [0.9], [0.85], [1.2]])
    assert hedging.detect_first_hit(path, hedging.Barrier(1, 0.8, "down"), 1.0) is None


def test_detect_first_hit_jump_overshoot():
    path = np.array([[1.2], [1.1], [0.7], [0.9]])
    jumps = np.array([False, True, False])
    rec = hedging.detect_first_hit(path, hedging.Barrier(1, 1.0, "down"), 1.0, jumps)
    assert rec.step == 2 and rec.overshoot


def test_detect_first_hit_up_barrier():
    path = np.array([[1.0], [1.1], [1.35], [1.2]])
    rec = hedging.detect_first_hit(path, hedging.Barrier(1, 1.3, "up"), 1.0)
    assert rec.step == 2


# --------------------------------------------------------------------------- #
# Claim reflection
# --------------------------------------------------------------------------- #


def test_reflection_fixed_point_at_barrier():
    f = pricing.BasketCall((0.7, 0.4), 0.9)
    g = hedging.reflect_claim(f, 1, 0.8, 1.3)
    s = np.array([[0.8, 1.7], [0.8, 0.2]])  # S_1 at the barrier
    assert np.allclose(g(s), f(s), rtol=1e-14)


def test_double_reflection_is_identity():
    f = pricing.BasketCall((0.7, 0.4), 0.9)
    gen = np.random.default_rng(13)
    s = gen.uniform(0.2, 3.0, size=(50, 2))
    once = hedging.ReflectedClaim(f, 1, 0.8, 1.3)
    twice = hedging.ReflectedClaim(once, 1, 0.8, 1.3)
    assert np.allclose(twice(s), f(s), rtol=1e-12)


def test_reflected_basket_formula():
    # (u.S - k)_+ reflects to (u_i H - (k/H) S_i + sum_j u_j S_j)_+ at alpha 1
    u, k, level = np.array([1.0, -0.5]), 0.8, 0.9
    f = pricing.BasketCall(tuple(u), k)
    g = hedging.reflect_claim(f, 1, level, 1.0)
    gen = np.random.default_rng(14)
    s = gen.uniform(0.2, 3.0, size=(100, 2))
    want = np.maximum(u[0] * level - (k / level) * s[:, 0] - 0.5 * s[:, 1], 0.0)
    assert np.allclose(g(s), want, rtol=1e-13)
    # the generic wrapper agrees with the symbolic form
    assert np.allclose(hedging.ReflectedClaim(f, 1, level, 1.0)(s), want, rtol=1e-13)


def test_reflected_claim_alpha_weight():
    f = pricing.BasketCall((1.0, -0.5), 0.8)
    alpha = 0.5
    sym = hedging.reflect_claim(f, 1, 0.9, alpha)
    gen = np.random.default_rng(15)
    s = gen.uniform(0.2, 3.0, size=(50, 2))
    base = hedging.reflect_claim(f, 1, 0.9, 1.0)(s)
    assert np.allclose(sym(s), (s[:, 0] / 0.9) ** (alpha - 1.0) * base, rtol=1e-13)


# --------------------------------------------------------------------------- #
# Hedge construction
# --------------------------------------------------------------------------- #


def test_spread_hedge_indicator_elimination():
    # Example pattern: (a S1 - b S2 - k)_+ with a H <= k -> bare basket put
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 1.0), 1.0)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    assert plan.indicator_free
    assert isinstance(plan.hedge, pricing.AffinePower)
    gen = np.random.default_rng(16)
    s = gen.uniform(0.1, 3.0, size=(200, 2))
    want = np.maximum(0.8 - 1.25 * s[:, 0] - s[:, 1], 0.0)
    assert np.allclose(plan.hedge(s), want, rtol=1e-13)


def test_indicator_form_when_unsimplifiable():
    target = pricing.BasketCall((1.0, 0.5), 1.2)  # positive weight off the barrier
    barrier = hedging.Barrier(1, 0.85, "down")
    plan = hedging.build_hedge(target, barrier, 1.0, "in")
    assert not plan.indicator_free
    gen = np.random.default_rng(17)
    s = gen.uniform(0.2, 2.5, size=(300, 2))
    refl = hedging.reflect_claim(target, 1, 0.85, 1.0)
    want = (s[:, 0] <= 0.85) * (target(s) + refl(s))
    assert np.allclose(plan.hedge(s), want, rtol=1e-12)


def test_min_combo_indicator_absorption():
    target = hedging.TwoAssetMinCombo(0.9)
    barrier = hedging.Barrier(1, 0.9, "down")
    plan = hedging.build_hedge(target, barrier, 1.0, "in")
    assert plan.indicator_free
    gen = np.random.default_rng(18)
    s = gen.uniform(0.1, 3.0, size=(400, 2))
    refl = hedging.ReflectedClaim(target, 1, 0.9, 1.0)
    indicator_form = (s[:, 0] <= 0.9) * (target(s) + refl(s))
    assert np.allclose(plan.hedge(s), indicator_form, atol=1e-12)


def test_knock_out_hedge_composition():
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 1.0), 1.0)
    barrier = hedging.Barrier(1, 0.8, "down")
    plan_in = hedging.build_hedge(target, barrier, 1.0, "in")
    plan_out = hedging.build_hedge(target, barrier, 1.0, "out")
    gen = np.random.default_rng(19)
    s = gen.uniform(0.1, 3.0, size=(100, 2))
    assert np.allclose(plan_out.hedge(s), target(s) - plan_in.hedge(s), rtol=1e-13)


def test_super_hedge_dominates_pointwise_reflection():
    target = pricing.BasketCall((1.0, 0.5), 1.2)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.85, "down"), 1.0, "super")
    assert plan.simplification == "super-hedge reflected claim"


@pytest.mark.parametrize("knock", ["in", "out", "super"])
def test_no_hit_mismatch_by_selection_equals_it_on_the_gathered_states(knock):
    target = pricing.BasketCall((1.0, 0.5), 1.2)
    barrier = hedging.Barrier(1, 0.85, "down")
    plan = hedging.build_hedge(target, barrier, 1.0, knock)
    s = np.random.default_rng(20).uniform(0.2, 2.5, size=(500, 2))
    f, hedge = target(s), plan.hedge(s)
    for no_hit in (~barrier.crossed(s[:, 0]), np.zeros(500, bool), np.ones(500, bool)):
        miss = hedge[no_hit] - f[no_hit] if knock == "out" else hedge[no_hit]
        want = 0.0 if knock == "super" else float(np.max(np.abs(miss), initial=0.0))
        assert hedging._no_hit_mismatch(plan, no_hit, hedge, f) == want
    if knock != "super":
        assert hedging._no_hit_mismatch(plan, np.ones(500, bool), hedge, f) > 0.0


# --------------------------------------------------------------------------- #
# Replication measurement
# --------------------------------------------------------------------------- #


def test_evaluate_hedge_black_scholes_smoke():
    cfg = bs_config(steps=120)
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(93))
    assert rep.verdict == "pass", rep.one_line()
    assert rep.overshoot_fraction == 0.0
    assert not rep.one_sided
    assert rep.terminal_max_mismatch == 0.0
    gap, se = rep.price_gap
    assert abs(gap) <= 3.0 * se
    assert rep.hit_gaps == [] and rep.exchange.verdict == "pass"
    # the oracle's hit states, where the exchange the exponent licenses is measured
    states = hedge_oracle.hit_state_gaps(plan, cfg, 2_000, 20_000, make_rng(93), 12)
    assert len(states) == 12 and all(abs(g.gap) <= 3.0 * g.std_error for g in states)
    assert any(g.target_value > 1e-3 for g in states)  # states carry real value


def test_evaluate_hedge_knock_out():
    cfg = bs_config(steps=120)
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "out")
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(94))
    assert rep.verdict == "pass", rep.one_line()
    assert rep.terminal_max_mismatch <= 1e-12  # exact match off the barrier


def test_evaluate_hedge_jump_driver_super_replicates():
    cfg = jump_config()
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(95))
    assert rep.one_sided and not rep.sub_replicates
    assert rep.overshoot_fraction > 0.2
    assert rep.verdict == "pass", rep.one_line()
    gap, se = rep.price_gap
    assert gap > 3.0 * se  # strict super-replication, at the price level
    # and at the overshooting hit states of the grid oracle
    grid = hedge_oracle.grid_hedge(plan, cfg, 2_000, 10_000, make_rng(95), 20)
    over = [g for g in grid.hit_gaps if g.overshoot and g.state[0] < 0.79]
    assert over and all(g.gap > 0 for g in over)


def test_super_hedge_value_dominates():
    cfg = bs_config(steps=120)
    target = pricing.BasketCall((1.0, 0.5), 1.2)
    barrier = hedging.Barrier(1, 0.85, "down")
    plan_in = hedging.build_hedge(target, barrier, 1.0, "in")
    plan_super = hedging.build_hedge(target, barrier, 1.0, "super")
    (step,), _, _, terminal = hedging._first_hits(cfg, 100_000, make_rng(96), [barrier])
    knocked = step > 0
    ki_value = np.mean(knocked * target(terminal))
    super_value = np.mean(plan_super.hedge(terminal))
    se = np.std(knocked * target(terminal) - plan_super.hedge(terminal), ddof=1) / math.sqrt(
        terminal.shape[0]
    )
    assert super_value >= ki_value - 3.0 * se


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("knock", ["in", "out"])
def test_a_first_hit_at_the_horizon_is_knocked_but_not_checked(knock, seed):
    # with no time left the projected state sits on the indicator's jump,
    # where the indicator-form hedge pays 2 f(s) against f(s), with no SE
    cfg = bs_config(steps=4)
    plan = hedging.build_hedge(_BASKET, hedging.Barrier(1, 0.85, "down"), 1.0, knock)
    states = hedge_oracle.hit_state_gaps(plan, cfg, 1_000, 20_000, selfdual.RngStream(seed), 20)
    assert len(states) == 20
    assert all(g.step < cfg.steps for g in states)
    assert all(abs(g.gap) <= 3.0 * g.std_error for g in states)
    rep = hedging.evaluate_hedge(plan, cfg, rng=selfdual.RngStream(seed))
    assert rep.verdict != "fail", rep.one_line()
    # the grid evaluators keep the same rule: a continuous joint hedge projects its states too
    joint = hedging.two_asset_joint_hedges(cfg, "X", k_x=0.85)
    rep = hedging.evaluate_joint_hedge(
        joint, cfg, n_outer=1_000, n_inner=2_000, rng=selfdual.RngStream(seed), n_hit_states=20
    )
    assert len(rep.hit_gaps) == 20 and all(g.step < cfg.steps for g in rep.hit_gaps)


# --------------------------------------------------------------------------- #
# Joint two-asset hedges
# --------------------------------------------------------------------------- #


def test_joint_hedge_requires_symmetry():
    a = 0.04 * np.eye(2)
    driver = levy.martingale_normalized(a)
    cfg = hedging.PathConfig([1.0, 1.0], [0.0, 0.0], driver, 1.0, 50)
    with pytest.raises(SymmetryPrereqFailed):
        hedging.two_asset_joint_hedges(cfg, "X", k_x=0.7)


def test_hedge_evaluators_require_an_rng_stream():
    cfg = bs_config(steps=10, sigma=0.5)
    plan = hedging.build_hedge(_BASKET, hedging.Barrier(1, 0.85, "down"), 1.0, "in")
    with pytest.raises(DomainError, match="requires an RngStream"):
        hedging.evaluate_hedge(plan, cfg)
    joint = hedging.two_asset_joint_hedges(cfg, "X", k_x=0.75)
    with pytest.raises(DomainError, match="requires an RngStream"):
        hedging.evaluate_joint_hedge(joint, cfg, n_outer=10, n_inner=10)


def test_joint_hedge_plans():
    cfg = bs_config(steps=50, sigma=0.5)
    plan_x = hedging.two_asset_joint_hedges(cfg, "X", k_x=0.75)
    assert plan_x.claim == "X" and len(plan_x.legs) == 1 and len(plan_x.exchanges) == 2
    plan_y = hedging.two_asset_joint_hedges(cfg, "Y", k_y=1.35)
    assert [c for c, _ in plan_y.legs] == [1.0, -1.0]
    with pytest.raises(DomainError):
        hedging.two_asset_joint_hedges(cfg, "X", k_x=1.5)
    with pytest.raises(DomainError):
        hedging.two_asset_joint_hedges(cfg, "Y", k_y=0.9)


def test_joint_hedge_exchange_identities():
    cfg = bs_config(steps=150, sigma=0.5)
    for claim, level in (("X", 0.75), ("Y", 1.35)):
        plan = hedging.two_asset_joint_hedges(cfg, claim, k_x=level, k_y=level)
        rep = hedging.evaluate_joint_hedge(
            plan, cfg, n_outer=1_500, n_inner=150_000, rng=make_rng(97), n_hit_states=8
        )
        assert rep.verdict == "pass", (claim, rep.one_line())
        assert rep.overshoot_fraction == 0.0


def test_joint_hedge_label_symmetry():
    # exchangeable driver, symmetric initial state: per-asset hit rates match
    cfg = bs_config(steps=100, sigma=0.5)
    plan = hedging.two_asset_joint_hedges(cfg, "X", k_x=0.75)
    rep = hedging.evaluate_joint_hedge(
        plan, cfg, n_outer=4_000, n_inner=1_000, rng=make_rng(98), n_hit_states=40
    )
    # both exchange identities exercised
    hit_assets = {1 if g.state[0] == 0.75 else 2 for g in rep.hit_gaps}
    assert hit_assets == {1, 2}


def test_joint_hedge_alpha_weights():
    cfg_carry = hedging.PathConfig(
        [1.0, 1.0],
        [0.01, 0.01],
        levy.martingale_normalized(0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])),
        1.0,
        50,
    )
    plan = hedging.two_asset_joint_hedges(cfg_carry, "Y", k_y=1.3, alphas=(0.5, 0.5))
    s = np.array([[2.2, 0.4]])
    leg = plan.legs[0][1]
    plain = max(2.2 - 0.4 - 1.3, 0.0)
    assert leg(s)[0] == pytest.approx((2.2 / 1.3) ** (-0.5) * plain, rel=1e-12)


def test_a_joint_hedge_checks_its_orders_at_the_scenario_carry():
    # at carry 0.03 the driver's order is 1 - 2 * 0.03 / 0.04 = -0.5 for both numeraires, not 1
    driver = levy.martingale_normalized(0.04 * np.array([[1.0, 0.5], [0.5, 1.0]]))
    cfg = hedging.PathConfig([1.0, 1.0], [0.03, 0.03], driver, 1.0, 50)
    for i in (1, 2):
        assert levy.check_qsd_triplet(cfg.driver, i, cfg.carry, 1.0).verdict == "fail"
        assert levy.solve_alpha(cfg.driver, i, 0.03).alpha == pytest.approx(-0.5, abs=1e-12)
    for claim in ("X", "Y"):
        with pytest.raises(SymmetryPrereqFailed, match="numeraire 1"):
            hedging.two_asset_joint_hedges(cfg, claim, k_x=0.8, k_y=1.2)
        plan = hedging.two_asset_joint_hedges(cfg, claim, k_x=0.8, k_y=1.2, alphas=(-0.5, -0.5))
        assert plan.alphas == (-0.5, -0.5)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
@pytest.mark.parametrize("b", [0.0, 0.5])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_symbolic_reflection_matches_generic(p, b, alpha):
    f = pricing.AffinePower((0.7, -0.4), -0.9, p=p, b=b, i=1, level=0.8)
    sym = hedging.reflect_claim(f, 1, 0.8, alpha)
    assert isinstance(sym, pricing.AffinePower)
    assert sym.b == pytest.approx(alpha - b - p, abs=1e-15)
    gen = np.random.default_rng(22)
    s = gen.uniform(0.2, 3.0, size=(200, 2))
    generic = hedging.ReflectedClaim(f, 1, 0.8, alpha)(s)
    assert np.allclose(sym(s), generic, rtol=1e-12, atol=1e-14)
    assert np.allclose(hedging.reflect_claim(sym, 1, 0.8, alpha)(s), f(s), rtol=1e-12, atol=1e-14)


def test_power_weighted_affine_is_the_affine_power_claim():
    # the reflected affine claim (S_i/H)^(alpha-1) (<w, S> + c)_+ of the hedges
    w, c, level, alpha = np.array([0.7, -0.4]), 0.3, 0.8, 1.3
    claim = pricing.AffinePower(w, c, b=alpha - 1.0, i=1, level=level)
    s = np.random.default_rng(23).uniform(0.1, 3.0, size=(100, 2))
    want = (s[:, 0] / level) ** (alpha - 1.0) * np.maximum(s @ w + c, 0.0)
    np.testing.assert_array_equal(claim(s), want)


# --------------------------------------------------------------------------- #
# Streaming hit pass against the full-grid, per-path loop
# --------------------------------------------------------------------------- #


def _no_hit(u, w, var):
    """The chance that a Brownian bridge of variance ``var`` from ``u`` to ``w`` (distances short
    of the level) stays short of it."""
    if u <= 0.0 or w <= 0.0:
        return 0.0
    return 1.0 if var == 0.0 else -math.expm1(-2.0 * u * w / var)


def _oracle_jumps(plan, cfg, x, looks, rng):
    """The jumps' log-growth (draws, n), and the hit probability and its jump share of each draw
    with a jump (NaN without one), one draw at a time: each look's draws take their jumps from
    ``rng.child(3)``, or its child ``k`` for look ``k > 0``, in lattice blocks of whole replicates."""
    points, t = duality.LATTICE_POINTS, cfg.horizon
    block = points * max(duality.BLOCK // points, 1)
    i, sign = plan.barrier.asset - 1, 1.0 if plan.barrier.direction == "down" else -1.0
    a, y0_h = cfg.driver.a[i, i], math.log(cfg.s0[i] / plan.barrier.level)
    growth, hit, share = np.zeros_like(x), np.full(len(x), np.nan), np.full(len(x), np.nan)
    lo = 0
    for k, m in enumerate(looks):
        stream = rng.child(3) if k == 0 else rng.child(3).child(k)
        for start in range(lo, lo + m * points, block):
            stop = min(start + block, lo + m * points)
            counts = stream.poisson(cfg.driver.nu.total_mass * t, size=stop - start)
            times = stream.uniform(0.0, t, size=counts.sum())
            sizes = cfg.driver.nu.sample(counts.sum(), stream)
            z = stream.standard_normal(counts.sum())
            first = 0
            for d, count in zip(range(start, stop), counts):
                own = slice(first, first + count)
                first += count
                growth[d] = sizes[own].sum(axis=0)
                if not count:
                    continue
                at, gauss, jumped, dist, miss, jump_share = 0.0, 0.0, 0.0, sign * y0_h, 1.0, 0.0
                for when, size, normal in zip(np.sort(times[own]), sizes[own, i], z[own]):
                    frac = (when - at) / (t - at)
                    gauss += frac * (x[d, i] - gauss) + math.sqrt(a * (when - at) * (1.0 - frac)) * normal
                    before = sign * (y0_h + cfg.carry[i] * when + gauss + jumped)
                    miss *= _no_hit(dist, before, a * (when - at))
                    jumped += size
                    dist = before + sign * size
                    jump_share += miss if dist <= 0.0 else 0.0
                    at = when
                end = sign * (y0_h + cfg.carry[i] * t + x[d, i] + jumped)
                hit[d], share[d] = 1.0 - miss * _no_hit(dist, end, a * (t - at)), jump_share
        lo += m * points
    return growth, hit, share


def _oracle_bridge(plan, cfg, n_samples, rng, rounds=0):
    """evaluate_hedge's terminal statistics, and their draws, from the lattice normals of its
    first look and ``rounds`` more drawn in one piece, with a jump driver's jumps drawn draw by
    draw: each SE is that of the replicate means.  Look k > 0 takes twice the replicates of the
    last, up to the cap."""
    points, shifts = duality.LATTICE_POINTS, duality.LATTICE_SHIFTS
    assert n_samples >= points * shifts  # the full lattice
    cap = n_samples // points
    looks = [min(shifts * 2**k, cap - shifts * (2**k - 1)) for k in range(rounds + 1)]
    streams = [rng.child(2)] + [rng.child(2).child(k) for k in range(rounds)]
    shift = np.concatenate([stream.uniform(size=(m, cfg.n)) for stream, m in zip(streams, looks)])
    shifts, n = len(shift), points * len(shift)
    z = rng_module.lattice_normals(points, shift, np.empty((cfg.n, n)))
    x = (levy.gaussian_root(cfg.driver, cfg.horizon) @ z).T + cfg.horizon * cfg.driver._linear_rate
    growth, jump_hit, share = np.zeros_like(x), np.full(n, np.nan), np.zeros(n)
    if not cfg.is_continuous:
        growth, jump_hit, share = _oracle_jumps(plan, cfg, x, looks, rng)
    s = cfg.s0 * np.exp(cfg.horizon * cfg.carry + x + growth)
    i, h = plan.barrier.asset - 1, math.log(plan.barrier.level)
    y0, y_t = math.log(cfg.s0[i]), np.log(s[:, i])
    far = ~plan.barrier.crossed(s[:, i])
    p = np.ones(n)
    p[far] = np.exp(-2.0 * (y0 - h) * (y_t[far] - h) / (cfg.driver.a[i, i] * cfg.horizon))
    jumped = ~np.isnan(jump_hit)
    p[jumped], share[~jumped] = jump_hit[jumped], 0.0
    f, hedge = plan.target(s), plan.hedge(s)
    if plan.knock == "super":
        mismatch = 0.0
    else:
        miss = hedge[far] - (f[far] if plan.knock == "out" else 0.0)
        mismatch = float(np.max(np.abs(miss), initial=0.0))

    def price(v):  # replicate r holds draws r * points to (r + 1) * points
        means = v.reshape(shifts, points).mean(axis=1)
        return float(np.mean(means)), float(np.std(means, ddof=1) / math.sqrt(shifts))

    return {
        "knock_in_fraction": price(p)[0],
        "knock_in_se": price(p)[1],
        "overshoot_fraction": price(share)[0] / price(p)[0],
        "terminal_max_mismatch": mismatch,
        "price_plain": price(f),
        "price_knock_in": price(p * f),
        "price_knock_out": price((1.0 - p) * f),
        "price_gap": price(hedge - ((1.0 - p) if plan.knock == "out" else p) * f),
    }, n


def _assert_matches_oracles(rep, plan, cfg, seed, n_samples):
    """The exponent identity at the barrier's asset, the carry and the plan's order, and the
    terminal statistics against the bridge oracle."""
    exchange = levy.check_qsd_triplet(cfg.driver, plan.barrier.asset, cfg.carry, plan.alpha)
    assert rep.exchange == exchange
    rounds = rep.price_check[2]
    want, n = _oracle_bridge(plan, cfg, n_samples, make_rng(seed), rounds)
    for name, value in want.items():
        assert getattr(rep, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
    assert rep.price_check == (n, n // duality.LATTICE_POINTS, rounds)
    assert rep.hit_gaps == []
    jumps = not cfg.is_continuous
    assert rep.one_sided == (jumps or plan.knock == "super")
    assert rep.sub_replicates == (jumps and plan.knock == "out")


def _oracle_joint_hedge(plan, cfg, n_outer, n_inner, rng, n_hit_states):
    """evaluate_joint_hedge as a full price grid plus a per-path loop."""
    direction = "down" if plan.claim == "X" else "up"
    barriers = {i: hedging.Barrier(i, plan.level, direction) for i in (1, 2)}
    paths, jump_flags = hedging.simulate_paths(cfg, n_outer, rng.child(0))
    gaps, knocked, overshoots = [], 0, 0
    quota, counts = max(1, n_hit_states // 2), {1: 0, 2: 0}
    for p in range(n_outer):
        recs = {
            i: hedging.detect_first_hit(paths[p], barriers[i], cfg.horizon, jump_flags[p])
            for i in (1, 2)
        }
        live = {i: r for i, r in recs.items() if r is not None}
        if not live:
            continue
        knocked += 1
        first = min(live, key=lambda i: live[i].step)
        rec = live[first]
        overshoots += rec.overshoot
        if counts[first] >= quota or rec.step == cfg.steps:
            continue
        counts[first] += 1
        state = paths[p, rec.step].copy()
        if cfg.is_continuous and not rec.overshoot:
            state[first - 1] = plan.level
        _, lhs, rhs = next(e for e in plan.exchanges if e[0] == first)
        incr = levy.sample_increments(
            cfg.driver, cfg.horizon - rec.time, rng.child(1000 + len(gaps)), n_inner
        )
        lv, rv, gap, se = hedging._conditional_gap(cfg, state, rec.time, lhs, rhs, incr)
        gaps.append(
            hedging.HitGap(p, rec.step, rec.time, tuple(state), lv, rv, gap, se, rec.overshoot)
        )
    frac = knocked / n_outer
    return hedging.HedgeReport(
        knock_in_fraction=frac,
        knock_in_se=math.sqrt(max(frac * (1.0 - frac), 1e-300) / n_outer),
        overshoot_fraction=overshoots / knocked if knocked else 0.0,
        one_sided=not cfg.is_continuous,
        hit_gaps=gaps,
    )


_SPREAD = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
_BASKET = pricing.BasketCall((1.0, 0.5), 1.2)
_HEDGE_CASES = {
    "down-in-carry": (
        _BASKET, hedging.Barrier(1, 0.85, "down"), "in",
        lambda: bs_config(120, carry=(0.03, -0.01)),
    ),
    "knock-out": (_SPREAD, hedging.Barrier(1, 0.8, "down"), "out", lambda: bs_config(120)),
    "up-super": (_BASKET, hedging.Barrier(2, 1.2, "up"), "super", lambda: bs_config(120)),
    "jump-in": (_SPREAD, hedging.Barrier(1, 0.8, "down"), "in", jump_config),
    "jump-up-out-carry": (
        _BASKET, hedging.Barrier(2, 1.2, "up"), "out", lambda: jump_config(carry=(0.03, -0.02)),
    ),
}


@pytest.mark.parametrize("case", sorted(_HEDGE_CASES))
def test_streaming_hedge_matches_per_path_loop(case):
    target, barrier, knock, config = _HEDGE_CASES[case]
    cfg = config()
    plan = hedging.build_hedge(target, barrier, 1.0, knock)
    # the first look's 16,064 terminal draws are two lattice blocks of 32 replicates
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(200), n_samples=50_000)
    _assert_matches_oracles(rep, plan, cfg, 200, 50_000)
    if case == "jump-in":  # some hits, not all, are jumps past the level
        assert 0.2 < rep.overshoot_fraction < 1.0


def test_each_look_of_a_jump_hedge_draws_its_own_jumps():
    # a wrong order on the jump driver: the gap fails within DECISIVE_Z SE at the first two
    # looks, so the third look is drawn, up to the cap, each with its own jumps
    cfg = jump_config()
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 2.5, "in")
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(200), n_samples=50_000)
    assert rep.price_check[1:] == (199, 2) and rep.verdict == "fail"
    _assert_matches_oracles(rep, plan, cfg, 200, 50_000)


@pytest.mark.parametrize("n_hit_states", [7, 16])  # an odd count leaves one state unused
@pytest.mark.parametrize("claim", ["X", "Y", "X-jumps"])
def test_streaming_joint_hedge_matches_per_path_loop(claim, n_hit_states):
    if claim == "X-jumps":  # overshooting first hits of either asset
        cfg = jump_config()
        plan = hedging.JointHedgePlan(
            "X", 0.8, (1.0, 1.0), [], [(1, _SPREAD, _BASKET), (2, _BASKET, _SPREAD)]
        )
    else:
        cfg = bs_config(steps=100, sigma=0.5)
        plan = hedging.two_asset_joint_hedges(cfg, claim, k_x=0.75, k_y=1.35)
    rep = hedging.evaluate_joint_hedge(
        plan, cfg, n_outer=1_500, n_inner=300, rng=make_rng(201), n_hit_states=n_hit_states
    )
    assert len(rep.hit_gaps) == 2 * (n_hit_states // 2)
    assert rep == _oracle_joint_hedge(plan, cfg, 1_500, 300, make_rng(201), n_hit_states)
    if claim == "X-jumps":
        assert 0.0 < rep.overshoot_fraction < 1.0


def three_asset_config(steps=90, a=((1.0, 0.3, 0.1), (0.3, 1.2, 0.4), (0.1, 0.4, 0.8))):
    driver = levy.martingale_normalized(0.05 * np.array(a))
    return hedging.PathConfig((1.0, 1.1, 0.9), (0.02, -0.01, 0.03), driver, 1.0, steps)


# covariances invariant under K_2 and under K_3: column i holds half the diagonal entry
_SELF_DUAL_3 = {
    2: ((1.0, 0.5, 0.2), (0.5, 1.0, 0.5), (0.2, 0.5, 1.2)),
    3: ((1.0, 0.3, 0.8), (0.3, 1.2, 0.8), (0.8, 0.8, 1.6)),
}


@pytest.mark.parametrize(
    "barrier",
    [hedging.Barrier(2, 0.95, "down"), hedging.Barrier(3, 1.0, "up")],
    ids=["down-asset-2", "up-asset-3"],
)
def test_streaming_hedge_matches_per_path_loop_on_three_assets(barrier):
    # the monitored row is not asset 1, and that asset's carry sets the order; the driver of
    # the grid tests has no order for either asset, so it licenses no hedge on them
    i = barrier.asset
    for cfg, licensed in ((three_asset_config(a=_SELF_DUAL_3[i]), True), (three_asset_config(), False)):
        alpha = levy.solve_alpha(cfg.driver, i, cfg.carry[i - 1]).alpha
        plan = hedging.build_hedge(pricing.BasketCall((0.5, 1.0, 0.5), 1.1), barrier, alpha, "in")
        rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(205), n_samples=30_000)
        assert rep.exchange.verdict == ("pass" if licensed else "fail")
        assert (rep.verdict == "pass") == licensed, rep.one_line()
        _assert_matches_oracles(rep, plan, cfg, 205, 30_000)


def test_streaming_joint_hedge_matches_per_path_loop_on_three_assets():
    cfg = three_asset_config()
    call = pricing.BasketCall((1.0, 0.5, 0.5), 1.5)
    put = pricing.BasketPut((0.5, 0.5, 1.0), 1.5)
    plan = hedging.JointHedgePlan("Y", 1.2, (1.0, 1.0), [], [(1, call, put), (2, put, call)])
    rep = hedging.evaluate_joint_hedge(
        plan, cfg, n_outer=1_500, n_inner=300, rng=make_rng(206), n_hit_states=10
    )
    assert len(rep.hit_gaps) == 10
    assert {len(g.state) for g in rep.hit_gaps} == {3}
    assert rep == _oracle_joint_hedge(plan, cfg, 1_500, 300, make_rng(206), 10)


# --------------------------------------------------------------------------- #
# The first-hit search against the per-step rule
# --------------------------------------------------------------------------- #


def _per_step_hits(cfg, n_paths, rng, barriers):
    """_first_hits as a full price grid plus one detect_first_hit call per path and barrier."""
    paths, jump_flags = hedging.simulate_paths(cfg, n_paths, rng)
    step = np.zeros((len(barriers), n_paths), dtype=np.int64)
    state = np.zeros((len(barriers), n_paths, cfg.n))
    overshoot = np.zeros((len(barriers), n_paths), dtype=bool)
    for b, barrier in enumerate(barriers):
        for p in range(n_paths):
            rec = hedging.detect_first_hit(paths[p], barrier, cfg.horizon, jump_flags[p])
            if rec is not None:
                step[b, p], overshoot[b, p] = rec.step, rec.overshoot
                state[b, p] = paths[p, rec.step]
    return step, state, overshoot, paths[:, -1]


def _assert_same_hits(got, want):
    for name, g, w in zip(("step", "state", "overshoot", "terminal"), got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)


@pytest.mark.parametrize("direction", ["down", "up"])
@pytest.mark.parametrize("steps", [1, 7, 25, 26, 120, 250])
def test_the_first_hit_search_keeps_the_per_step_rule(steps, direction):
    cfg = bs_config(steps)
    barrier = hedging.Barrier(2, 0.85 if direction == "down" else 1.15, direction)
    got = hedging._first_hits(cfg, 400, make_rng(211), [barrier])
    _assert_same_hits(got, _per_step_hits(cfg, 400, make_rng(211), [barrier]))
    assert got[0].any() and not got[0].all()


def test_the_first_hit_search_keeps_ties_and_overshoots():
    # the joint X barriers on the jump driver of the streaming joint test: both assets often
    # cross on one step, where the joint evaluator's first hitter is the lower index
    cfg, rng = jump_config(), make_rng(201).child(0)
    barriers = [hedging.Barrier(1, 0.8, "down"), hedging.Barrier(2, 0.8, "down")]
    got = hedging._first_hits(cfg, 1_500, rng, barriers)
    _assert_same_hits(got, _per_step_hits(cfg, 1_500, make_rng(201).child(0), barriers))
    step, _, overshoot, _ = got
    assert ((step[0] == step[1]) & (step[0] > 0)).sum() > 100
    assert overshoot.any() and not overshoot[step > 0].all()
    # crossings on the first and on the last step of blocks of 25, and steps not a multiple of 25
    at = step[step > 0] % 25
    assert (at == 1).any() and (at == 0).any() and cfg.steps % 25 != 0


def test_the_search_memory_does_not_grow_with_steps():
    barriers = [hedging.Barrier(1, 0.8, "down")]

    def peak(steps):
        cfg = bs_config(steps=steps)
        tracemalloc.start()
        try:
            hedging._first_hits(cfg, 2_000, make_rng(212), barriers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a (steps, n, paths) block would make the second peak 10x the first
    assert peak(1_000) <= 1.2 * peak(100)


@pytest.mark.parametrize("config", [lambda: bs_config(120), jump_config], ids=["bridge", "jump"])
def test_traced_hedge_counts_repeat(config, monkeypatch):
    # bench/run.py --trace 1 fails its self-test unless every count repeats; its recorder
    # keeps one call stack and one depth count, and a hedge draws only on the calling
    # thread, whatever the kernel workers
    monkeypatch.setattr(duality, "WORKERS", max(duality.WORKERS, 2))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    cfg = config()

    def run():
        return hedging.evaluate_hedge(plan, cfg, rng=make_rng(207))

    counts, reports = [], []
    for _ in range(2):
        recorder = spans.Recorder()
        with recorder.recording() as recorded:
            reports.append(run())
        metrics = spans.layer_metrics(recorded)
        counts.append({name: metrics.get(name, 0) for name in spans.REPEATABLE})
    assert counts[0] == counts[1]
    # the bridge draws its lattice shifts, one uniform per asset, and a jump driver's jumps;
    # no hedge draws an increment
    shifts = reports[0].price_check[1] * cfg.n
    assert counts[0]["levy.increments_inner_rows"] == counts[0]["levy.increments_outer_rows"] == 0
    if cfg.is_continuous:
        assert counts[0]["rng.draws"] == shifts == 64 * 2
    else:
        assert counts[0]["rng.draws"] > shifts + reports[0].price_check[0]
    assert reports[0] == reports[1] == run()


# --------------------------------------------------------------------------- #
# Threads: a hedge draws and evaluates on the calling thread
# --------------------------------------------------------------------------- #


def _joint_x(rng):
    cfg = bs_config(120)
    plan = hedging.two_asset_joint_hedges(cfg, "X", k_x=0.85)
    return hedging.evaluate_joint_hedge(
        plan, cfg, n_outer=2_000, n_inner=2_000, rng=rng, n_hit_states=10
    )


def test_joint_hedge_does_not_depend_on_the_kernel_workers(monkeypatch):
    # one worker or more: the grid draws inline either way
    reports = []
    for workers in (1, max(duality.WORKERS, 2)):
        monkeypatch.setattr(duality, "WORKERS", workers)
        reports.append(_joint_x(make_rng(208)))
    assert len(reports[0].hit_gaps) == 10
    assert repr(reports[0]) == repr(reports[1])


def _small_hedge(n_samples):
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    return hedging.evaluate_hedge(plan, bs_config(60), rng=make_rng(209), n_samples=n_samples)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_hedges_as_its_parent(monkeypatch):
    # a forked child has none of its parent's threads, and a hedge needs none
    monkeypatch.setattr(duality, "WORKERS", max(duality.WORKERS, 2))
    want = _small_hedge(50_000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_small_hedge, (50_000,)).get(timeout=60) == want


class _RaisesOnCall(pricing.Payoff):
    """``base`` until its ``n``-th call, which raises."""

    def __init__(self, base, n):
        self.base, self.n, self.n_assets, self.calls = base, n, base.n_assets, 0

    def __call__(self, s):
        self.calls += 1
        if self.calls == self.n:
            raise DomainError(f"call {self.n}")
        return self.base(s)


@pytest.mark.parametrize("config", [lambda: bs_config(60), jump_config], ids=["bridge", "jump"])
def test_a_payoff_that_raises_leaves_no_draw_running(config, monkeypatch):
    cfg, errors = config(), []
    hedge = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in").hedge
    for workers in (1, max(duality.WORKERS, 2)):
        monkeypatch.setattr(duality, "WORKERS", workers)
        events = []

        def counted(*args, **kwargs):
            events.append("start")
            try:
                return levy.sample_increments(*args, **kwargs)
            finally:
                events.append("end")

        monkeypatch.setattr(hedging, "sample_increments", counted)
        # the bridge calls the target once per lattice block of 32 replicates and draws no
        # increments, and its second block raises
        target = _RaisesOnCall(_SPREAD, 2)
        plan = hedging.HedgePlan(target, hedging.Barrier(1, 0.8, "down"), 1.0, "in", hedge)
        with pytest.raises(DomainError) as raised:
            hedging.evaluate_hedge(plan, cfg, rng=make_rng(210), n_samples=50_000)
        errors.append(str(raised.value))
        seen = list(events)
        assert events == seen and seen.count("start") == seen.count("end")
        assert seen == []
    assert errors == [f"call {target.n}"] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_no_hedge_starts_a_thread(workers, monkeypatch):
    # a hedge draws its lattice, and a jump driver's hedge its jumps, on the calling thread,
    # with one kernel worker or more
    monkeypatch.setattr(duality, "WORKERS", workers)
    monkeypatch.setattr(duality, "_POOLS", {})
    threads, running, jumps = set(), threading.active_count(), levy.JumpMeasure.sample

    def counted(*args, **kwargs):
        threads.add(threading.current_thread())
        return levy.sample_increments(*args, **kwargs)

    def sampled(*args, **kwargs):
        threads.add(threading.current_thread())
        return jumps(*args, **kwargs)

    monkeypatch.setattr(hedging, "sample_increments", counted)
    monkeypatch.setattr(levy.JumpMeasure, "sample", sampled)
    assert _small_hedge(50_000).price_gap is not None and threads == set()
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    rep = hedging.evaluate_hedge(plan, jump_config(), rng=make_rng(209))
    assert rep.price_gap is not None and rep.hit_gaps == []
    assert threads == {threading.current_thread()} and duality._POOLS == {}
    assert threading.active_count() == running


@pytest.mark.parametrize("config", [lambda: bs_config(60), jump_config], ids=["bridge", "jump"])
def test_every_inner_draw_runs_on_the_calling_thread(config, monkeypatch):
    # the bridge draws its lattice shifts, and a jump driver's hedge its jumps, on the calling
    # thread, where bench/spans.py counts them on one depth counter; no hedge searches a path
    # or draws a hit state's increments
    monkeypatch.setattr(duality, "WORKERS", max(duality.WORKERS, 2))
    cfg, draws, states_drawn, main = config(), [], [], threading.current_thread()
    for name in ("standard_normal", "uniform", "poisson", "choice", "multivariate_normal"):
        method = getattr(selfdual.RngStream, name)

        def watched(stream, *args, _method=method, _name=name, **kwargs):
            draws.append((stream._key, _name, threading.current_thread()))
            return _method(stream, *args, **kwargs)

        monkeypatch.setattr(selfdual.RngStream, name, watched)
    increments = hedging.sample_increments

    def watched_increments(t, dt, stream, *args, **kwargs):  # one call per hit state
        if stream._key[1:] >= (1000,):
            states_drawn.append(threading.current_thread())
        return increments(t, dt, stream, *args, **kwargs)

    monkeypatch.setattr(hedging, "sample_increments", watched_increments)
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(213), n_samples=50_000)
    # keys: (213,) the root, (213, 1000 + j) a j-th hit state, (213, 2) the bridge's shifts,
    # (213, 3) the first look's jumps, (213, 0, k) a search's step k + 1
    inner = [(key, name, thread) for key, name, thread in draws if key[1:] >= (1000,)]
    assert inner == [] and states_drawn == [] and rep.hit_gaps == []
    bridge = {thread for key, _, thread in draws if key[1:] == (2,)}
    search = {thread for key, _, thread in draws if key[1:2] == (0,)}
    jumps = [(name, thread) for key, name, thread in draws if key[1:] == (3,)]
    assert bridge == {main} and search == set()
    if cfg.is_continuous:  # only the bridge's shifts
        assert [name for _, name, _ in draws] == ["uniform"] and jumps == []
        return
    assert {thread for _, thread in jumps} == {main} and rep.price_check[2] == 0
    names = {name for name, _ in jumps}
    assert names == {"poisson", "uniform", "choice", "multivariate_normal", "standard_normal"}


def test_every_traced_and_exported_name_resolves():
    # bench/run.py --trace 1 wraps its targets by name, so a deleted name breaks it
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    functions, methods = spans._targets()
    assert [(o, attr) for o, attr, *_ in functions + methods if not hasattr(o, attr)] == []
    names = [m.name for m in pkgutil.iter_modules(selfdual.__path__)]
    modules = [importlib.import_module(f"selfdual.{name}") for name in names]
    assert len(modules) >= 10
    assert [(m.__name__, n) for m in modules for n in getattr(m, "__all__", ()) if not hasattr(m, n)] == []


def test_simulate_paths_matches_whole_grid_formula():
    cfg = jump_config()
    paths, flags = hedging.simulate_paths(cfg, 300, make_rng(202))
    dt = cfg.horizon / cfg.steps
    logs = np.zeros((300, cfg.steps + 1, cfg.n))
    want_flags = np.zeros((300, cfg.steps), dtype=bool)
    rng = make_rng(202)
    for k in range(cfg.steps):
        incr, counts = levy.sample_increments(cfg.driver, dt, rng.child(k), 300, return_counts=True)
        logs[:, k + 1] = logs[:, k] + incr
        want_flags[:, k] = counts > 0
    times = np.linspace(0.0, cfg.horizon, cfg.steps + 1)
    np.testing.assert_array_equal(paths, cfg.s0 * np.exp(times[None, :, None] * cfg.carry + logs))
    np.testing.assert_array_equal(flags, want_flags)
    assert flags.any()


def test_simulation_factors_the_covariance_once(monkeypatch):
    cfg = bs_config(steps=40)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    hedging.simulate_paths(cfg, 100, make_rng(204))
    assert len(calls) == 1


def test_hedge_memory_does_not_grow_with_steps():
    # no hedge simulates a path, on a jump driver either
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")

    def peak(steps):
        cfg = jump_config(steps=steps)
        tracemalloc.start()
        try:
            hedging.evaluate_hedge(plan, cfg, rng=make_rng(203))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a full (paths, steps+1, n) grid would make the second peak 10x the first
    assert peak(1000) <= 1.5 * peak(100)


def test_hedge_memory_does_not_grow_with_samples():
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    cfg = bs_config(steps=50)

    def peak(n_samples):
        tracemalloc.start()
        try:
            hedging.evaluate_hedge(plan, cfg, rng=make_rng(209), n_samples=n_samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one unblocked pass would make the second peak 4x the first
    assert peak(800_000) <= 1.5 * peak(200_000)


# --------------------------------------------------------------------------- #
# The price check on bridge-weighted terminal draws
# --------------------------------------------------------------------------- #


def _carry_alpha():
    # the order for asset 1 with carry 0.03 on the SIGMA driver: 1 - 2 * 0.03 / SIGMA^2
    return levy.solve_alpha(bs_config(1).driver, 1, 0.03).alpha


_PRICE_CASES = {
    "spread-in": (_SPREAD, hedging.Barrier(1, 0.8, "down"), "in", lambda: 1.0, (0.0, 0.0)),
    "spread-out": (_SPREAD, hedging.Barrier(1, 0.8, "down"), "out", lambda: 1.0, (0.0, 0.0)),
    "basket-carry-in": (
        _BASKET, hedging.Barrier(1, 0.85, "down"), "in", _carry_alpha, (0.03, -0.01)
    ),
    "basket-up-super": (_BASKET, hedging.Barrier(2, 1.2, "up"), "super", lambda: 1.0, (0.0, 0.0)),
}


@pytest.mark.parametrize("seed", [3, 4])
def test_the_grid_knock_in_price_misses_the_hedge_price(seed):
    # the grid indicator misses crossings between steps, so it prices the
    # knock-in claim low; the bench spec's hedge exposes it at 250 steps
    cfg = bs_config(250)
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    (step,), _, _, terminal = hedging._first_hits(cfg, 40_000, make_rng(seed), [plan.barrier])
    gap, se = pricing._mean_se(plan.hedge(terminal) - (step > 0) * plan.target(terminal))
    assert gap > 3.0 * se


@pytest.mark.parametrize("case", sorted(_PRICE_CASES))
def test_the_bridge_price_gap_holds_on_ten_seeds_whatever_the_steps(case):
    target, barrier, knock, alpha, carry = _PRICE_CASES[case]
    plan = hedging.build_hedge(target, barrier, alpha(), knock)
    for seed in range(10):
        gaps = {
            hedging.evaluate_hedge(plan, bs_config(steps, carry=carry), rng=make_rng(seed)).price_gap
            for steps in (1, 25, 250)
        }
        assert len(gaps) == 1  # the price check reads no grid
        ((gap, se),) = gaps
        assert (-gap if knock == "super" else abs(gap)) <= 3.0 * se, (seed, gap / se)


def test_a_wrong_order_fails_through_the_price_gap_alone():
    cfg = bs_config(250)
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.3, "in")
    for seed in range(10):
        rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(seed))
        assert replace(rep, exchange=None).verdict == "fail", (seed, rep.price_gap)


@pytest.mark.parametrize("seed", [2, 3, 8])
def test_the_hedge_line_shows_the_exchange_residual_and_the_price_gap(seed):
    # a wrong order on the README spread: the exchange fails at 0.020, and so does the price gap
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.1, "in")
    rep = hedging.evaluate_hedge(plan, bs_config(250), rng=selfdual.RngStream(seed))
    gap, se = rep.price_gap
    residual = rep.exchange.max_abs_residual
    assert rep.verdict == "fail" and residual == pytest.approx(0.0201, abs=1e-4) and gap < -3.0 * se
    assert f" exchange={residual:.3e} price_gap_se={gap / se:.2f} " in rep.one_line()
    assert "states=" not in rep.one_line()


@pytest.mark.parametrize(
    "price_gap, text",
    [(None, "none"), ((-0.5, 0.25), "-2.00"), ((0.0, 0.0), "0.00"), ((-0.5, 0.0), "-inf")],
)
def test_the_hedge_line_prints_the_signed_price_gap_in_se_units(price_gap, text):
    rep = hedging.HedgeReport(0.5, 0.01, 0.0, False, price_gap=price_gap)
    assert f" price_gap_se={text} " in rep.one_line()


@pytest.mark.parametrize("config", [lambda: bs_config(120), jump_config], ids=["continuous", "jump"])
def test_a_hedge_that_pays_where_the_barrier_was_not_hit_fails(config):
    # the bare target as a knock-in hedge: exact at every hit state, wrong on every path that misses
    cfg = config()
    plan = hedging.HedgePlan(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in", _SPREAD)
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(210), n_samples=20_000)
    # the driver licenses the exchange; the claim is wrong off the barrier
    assert rep.exchange.verdict == "pass"
    if not cfg.is_continuous:  # and exact at the grid oracle's hit states
        grid = hedge_oracle.grid_hedge(plan, cfg, 500, 200, make_rng(210), 4)
        assert grid.hit_gaps and all(g.gap == 0.0 for g in grid.hit_gaps)
    assert rep.terminal_max_mismatch > 1e-10 and rep.verdict == "fail"
    assert replace(rep, terminal_max_mismatch=0.0, price_gap=None).verdict == "pass"


@pytest.mark.parametrize("config", [lambda: bs_config(120), jump_config], ids=["continuous", "jump"])
@pytest.mark.parametrize("knock", ["in", "out", "super"])
def test_no_single_barrier_hedge_searches_a_path(config, knock, monkeypatch):
    def first_hits(*args):
        raise AssertionError("a single-barrier hedge searched a path")

    monkeypatch.setattr(hedging, "_first_hits", first_hits)
    cfg = config()
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, knock)
    rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(208), n_samples=20_000)
    assert len(rep.hit_gaps) == 0 and rep.price_gap is not None and rep.price_check is not None


# --------------------------------------------------------------------------- #
# Wrong claims: the exact exchange cannot see them, the price check must
# --------------------------------------------------------------------------- #


def _wrong_claims():
    """``{name: (plan, config)}`` of hedges that miss the reflection's algebra on a licensed
    driver, or take the order of the wrong carry."""
    barrier, level = hedging.Barrier(1, 0.8, "down"), 0.8
    spread = hedging.build_hedge(_SPREAD, barrier, 1.0, "in")
    refl = spread.hedge  # (S_1/H)^(alpha - b - p) (w_1 H + (c/H) S_1 + ...)_+^p
    weights = list(refl.weights)
    weights[0] = _SPREAD.constant * level  # c H in place of c / H
    basket = hedging.Barrier(1, 0.85, "down")
    both = pricing.CompositePayoff(
        [(1.0, _BASKET), (1.0, hedging.reflect_claim(_BASKET, 1, 0.85, 1.0))]
    )
    carry = (0.03, 0.03)
    wrong_alpha = levy.solve_alpha(bs_config(1).driver, 1, -carry[0]).alpha  # the carry's sign
    exponents = {  # the reflected claim's power of S_1 / H, a little off
        f"exponent {d:+g}": (replace(spread, hedge=replace(refl, b=refl.b + d)), bs_config(250))
        for d in (0.1, -0.1, 0.05, -0.05)
    }
    return exponents | {
        "exponent alpha - b": (
            replace(spread, hedge=replace(refl, b=refl.b + refl.p)), bs_config(250)
        ),
        "constant c H": (replace(spread, hedge=replace(refl, weights=weights)), bs_config(250)),
        "indicator dropped": (
            hedging.HedgePlan(_BASKET, basket, 1.0, "in", both), bs_config(250)
        ),
        "carry sign": (
            hedging.build_hedge(_SPREAD, barrier, wrong_alpha, "in"), bs_config(250, carry=carry)
        ),
    }


@pytest.mark.parametrize("name", sorted(_wrong_claims()))
def test_a_wrong_claim_fails_through_the_price_gap_or_the_no_hit_mismatch(name):
    plan, cfg = _wrong_claims()[name]
    for seed in range(10):
        rep = hedging.evaluate_hedge(plan, cfg, rng=make_rng(seed))
        # the exchange is the driver's: only the wrong order is outside what it licenses
        assert rep.exchange.verdict == ("fail" if name == "carry sign" else "pass")
        assert replace(rep, exchange=None).verdict == "fail", (seed, rep.one_line())
        if name.startswith("exponent "):  # its support is right: only the price gap sees it
            assert rep.terminal_max_mismatch == 0.0


def test_the_bench_hedge_price_gap_has_unit_z_spread_and_honest_standard_errors():
    # the benchmark's hedge, seeds 0-199: z = gap / SE spreads as a unit normal would, no
    # seed fails, and the reported SE of the knock-in fraction is its spread across seeds
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    cfg = bs_config(250)
    reports = [hedging.evaluate_hedge(plan, cfg, rng=selfdual.RngStream(seed)) for seed in range(200)]
    z = [gap / se for gap, se in (rep.price_gap for rep in reports)]
    assert 0.8 <= np.std(z, ddof=1) <= 1.3
    assert [rep.verdict for rep in reports] == ["pass"] * 200
    spread = np.std([rep.knock_in_fraction for rep in reports], ddof=1)
    assert np.median([rep.knock_in_se for rep in reports]) == pytest.approx(spread, rel=0.3)
