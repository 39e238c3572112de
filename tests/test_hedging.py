import importlib
import math
import pkgutil
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import selfdual
from selfdual import dist, hedging, levy, pricing
from selfdual.errors import DomainError, SymmetryPrereqFailed

from conftest import make_rng

SIGMA = 0.25
A_SD = SIGMA**2 * np.array([[1.0, 0.5], [0.5, 1.0]])


def bs_config(steps=250, sigma=SIGMA, s0=(1.0, 1.0), carry=(0.0, 0.0)):
    a = sigma**2 * np.array([[1.0, 0.5], [0.5, 1.0]])
    return hedging.PathConfig(s0, carry, levy.martingale_normalized(a), 1.0, steps)


def jump_config(mass=3.0):
    b = 0.09 * np.array([[1.0, 0.5], [0.5, 1.0]])
    nu = levy.build_tilted_gaussian_measure(b, 1.0, mass, 1)
    driver = levy.martingale_normalized(0.04 * np.array([[1.0, 0.5], [0.5, 1.0]]), nu)
    return hedging.PathConfig([1.0, 1.0], [0.0, 0.0], driver, 1.0, 120)


# --------------------------------------------------------------------------- #
# Configuration and simulation
# --------------------------------------------------------------------------- #


def test_path_config_rejects_drift_violations():
    bad = levy.LevyTriplet(A_SD, drift=np.zeros(2))  # E e^xi != 1
    with pytest.raises(DomainError):
        hedging.PathConfig([1.0, 1.0], [0.0, 0.0], bad)


def test_path_config_accepts_multilognormal_driver():
    mln = dist.MultiLogNormal.jointly_self_dual(2, SIGMA)
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
    mln = dist.MultiLogNormal.jointly_self_dual(2, SIGMA)
    cfg = hedging.PathConfig([1.0, 1.0], [0.0, 0.0], mln, horizon=1.0, steps=16)
    paths, _ = hedging.simulate_paths(cfg, 10**5, make_rng(91))
    terminal = paths[:, -1, 0]
    marg = mln.marginal(1)
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


# --------------------------------------------------------------------------- #
# Replication measurement
# --------------------------------------------------------------------------- #


def test_evaluate_hedge_black_scholes_smoke():
    cfg = bs_config(steps=120)
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    rep = hedging.evaluate_hedge(
        plan, cfg, n_outer=2_000, n_inner=20_000, rng=make_rng(93), n_hit_states=12
    )
    assert rep.verdict == "pass", rep.one_line()
    assert rep.overshoot_fraction == 0.0
    assert not rep.one_sided
    assert rep.terminal_max_mismatch == 0.0
    gap, se = rep.price_gap
    assert abs(gap) <= 3.0 * se
    assert any(g.target_value > 1e-3 for g in rep.hit_gaps)  # states carry real value


def test_evaluate_hedge_knock_out():
    cfg = bs_config(steps=120)
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "out")
    rep = hedging.evaluate_hedge(
        plan, cfg, n_outer=2_000, n_inner=20_000, rng=make_rng(94), n_hit_states=10
    )
    assert rep.verdict == "pass", rep.one_line()
    assert rep.terminal_max_mismatch <= 1e-12  # exact match off the barrier


def test_evaluate_hedge_jump_driver_super_replicates():
    cfg = jump_config()
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    plan = hedging.build_hedge(target, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    rep = hedging.evaluate_hedge(
        plan, cfg, n_outer=2_000, n_inner=10_000, rng=make_rng(95), n_hit_states=20
    )
    assert rep.one_sided
    assert rep.overshoot_fraction > 0.2
    assert rep.verdict == "pass", rep.one_line()
    over = [g for g in rep.hit_gaps if g.overshoot and g.state[0] < 0.79]
    assert over and all(g.gap > 0 for g in over)  # strict super-replication


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
    rep = hedging.evaluate_hedge(
        plan, cfg, n_outer=1_000, n_inner=20_000, rng=selfdual.RngStream(seed), n_hit_states=20
    )
    assert len(rep.hit_gaps) == 20
    assert all(g.step < cfg.steps for g in rep.hit_gaps)
    assert rep.verdict != "fail", rep.one_line()


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
        hedging.evaluate_hedge(plan, cfg, n_outer=10, n_inner=10)
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
    plan = hedging.two_asset_joint_hedges(
        cfg_carry, "Y", k_y=1.3, alphas=(0.5, 0.5), carry=(0.01, 0.01)
    )
    s = np.array([[2.2, 0.4]])
    leg = plan.legs[0][1]
    plain = max(2.2 - 0.4 - 1.3, 0.0)
    assert leg(s)[0] == pytest.approx((2.2 / 1.3) ** (-0.5) * plain, rel=1e-12)


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


def _oracle_hedge(plan, cfg, n_outer, n_inner, rng, n_hit_states):
    """evaluate_hedge as a full price grid plus one detect_first_hit call per path."""
    paths, jump_flags = hedging.simulate_paths(cfg, n_outer, rng.child(0))
    terminal = paths[:, -1, :]
    hits = []
    for p in range(n_outer):
        rec = hedging.detect_first_hit(paths[p], plan.barrier, cfg.horizon, jump_flags[p])
        if rec is not None:
            hits.append((p, rec))
    knocked = np.zeros(n_outer, dtype=bool)
    knocked[[p for p, _ in hits]] = True
    frac = float(np.mean(knocked))
    overshoots = sum(rec.overshoot for _, rec in hits)
    target_terminal, hedge_terminal = plan.target(terminal), plan.hedge(terminal)
    chi = knocked.astype(float)
    if plan.knock == "super" or knocked.all():
        mismatch = 0.0
    elif plan.knock == "in":
        mismatch = float(np.max(np.abs(hedge_terminal[~knocked])))
    else:
        mismatch = float(np.max(np.abs(hedge_terminal[~knocked] - target_terminal[~knocked])))
    zero = pricing.CustomPayoff(lambda s: np.zeros(s.shape[0]), cfg.n)
    lhs = zero if plan.knock == "out" else plan.target
    gaps = []
    for idx, (p, rec) in enumerate([h for h in hits if h[1].step < cfg.steps][:n_hit_states]):
        state = paths[p, rec.step].copy()
        if cfg.is_continuous and not rec.overshoot:
            state[plan.barrier.asset - 1] = plan.barrier.level
        tv, hv, gap, se = hedging._conditional_gap(
            cfg, state, rec.time, lhs, plan.hedge, n_inner, rng.child(1000 + idx)
        )
        gaps.append(
            hedging.HitGap(p, rec.step, rec.time, tuple(state), tv, hv, gap, se, rec.overshoot)
        )

    def price(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(n_outer))

    return hedging.HedgeReport(
        knock_in_fraction=frac,
        knock_in_se=math.sqrt(max(frac * (1.0 - frac), 1e-300) / n_outer),
        overshoot_fraction=overshoots / len(hits) if hits else 0.0,
        one_sided=(not cfg.is_continuous) or plan.knock == "super",
        hit_gaps=gaps,
        terminal_max_mismatch=mismatch,
        price_plain=price(target_terminal),
        price_knock_in=price(chi * target_terminal),
        price_knock_out=price((1.0 - chi) * target_terminal),
    )


def _oracle_bridge(plan, cfg, n_samples, rng):
    """evaluate_hedge's terminal statistics for a continuous driver, from one unblocked draw."""
    x = levy.sample_increments(cfg.driver, cfg.horizon, rng.child(2), n_samples)
    s = cfg.s0 * np.exp(cfg.horizon * cfg.carry + x)
    i, h = plan.barrier.asset - 1, math.log(plan.barrier.level)
    y0, y_t = math.log(cfg.s0[i]), np.log(s[:, i])
    far = ~plan.barrier.crossed(s[:, i])
    p = np.ones(n_samples)
    p[far] = np.exp(-2.0 * (y0 - h) * (y_t[far] - h) / (cfg.driver.a[i, i] * cfg.horizon))
    f, hedge = plan.target(s), plan.hedge(s)
    if plan.knock == "super":
        mismatch = 0.0
    else:
        miss = hedge[far] - (f[far] if plan.knock == "out" else 0.0)
        mismatch = float(np.max(np.abs(miss), initial=0.0))

    def price(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(n_samples))

    return {
        "knock_in_fraction": price(p)[0],
        "knock_in_se": price(p)[1],
        "terminal_max_mismatch": mismatch,
        "price_plain": price(f),
        "price_knock_in": price(p * f),
        "price_knock_out": price((1.0 - p) * f),
        "price_gap": price(hedge - ((1.0 - p) if plan.knock == "out" else p) * f),
    }


def _assert_matches_oracles(rep, plan, cfg, n_outer, n_inner, seed, n_hit_states, n_samples):
    """Jump drivers against the per-path loop; continuous ones against the bridge oracle and,
    for their hit states, the per-path loop on the first batch of paths."""
    if not cfg.is_continuous:
        assert rep == _oracle_hedge(plan, cfg, n_outer, n_inner, make_rng(seed), n_hit_states)
        return
    want = _oracle_bridge(plan, cfg, n_samples, make_rng(seed))
    for name, value in want.items():
        assert getattr(rep, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
    first = max(64, math.ceil(2 * n_hit_states / want["knock_in_fraction"]))
    grid = _oracle_hedge(plan, cfg, first, n_inner, make_rng(seed), n_hit_states)
    assert rep.hit_gaps == grid.hit_gaps
    assert (rep.overshoot_fraction, rep.one_sided) == (0.0, plan.knock == "super")


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
        lv, rv, gap, se = hedging._conditional_gap(
            cfg, state, rec.time, lhs, rhs, n_inner, rng.child(1000 + len(gaps))
        )
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
}


@pytest.mark.parametrize("case", sorted(_HEDGE_CASES))
def test_streaming_hedge_matches_per_path_loop(case):
    target, barrier, knock, config = _HEDGE_CASES[case]
    cfg = config()
    plan = hedging.build_hedge(target, barrier, 1.0, knock)
    # 50k terminal draws make two full blocks and a part block
    rep = hedging.evaluate_hedge(
        plan, cfg, n_outer=1_500, n_inner=400, rng=make_rng(200), n_hit_states=20, n_samples=50_000
    )
    assert len(rep.hit_gaps) == 20
    _assert_matches_oracles(rep, plan, cfg, 1_500, 400, 200, 20, 50_000)
    if case == "jump-in":
        assert rep.overshoot_fraction > 0.2
        assert any(g.overshoot for g in rep.hit_gaps) and not all(g.overshoot for g in rep.hit_gaps)


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


def three_asset_config(steps=90):
    a = 0.05 * np.array([[1.0, 0.3, 0.1], [0.3, 1.2, 0.4], [0.1, 0.4, 0.8]])
    driver = levy.martingale_normalized(a)
    return hedging.PathConfig((1.0, 1.1, 0.9), (0.02, -0.01, 0.03), driver, 1.0, steps)


@pytest.mark.parametrize(
    "barrier",
    [hedging.Barrier(2, 0.95, "down"), hedging.Barrier(3, 1.0, "up")],
    ids=["down-asset-2", "up-asset-3"],
)
def test_streaming_hedge_matches_per_path_loop_on_three_assets(barrier):
    # the monitored row is not asset 1, and the state holds three prices
    cfg = three_asset_config()
    plan = hedging.build_hedge(pricing.BasketCall((0.5, 1.0, 0.5), 1.1), barrier, 1.0, "in")
    rep = hedging.evaluate_hedge(
        plan, cfg, n_outer=1_500, n_inner=300, rng=make_rng(205), n_hit_states=12, n_samples=30_000
    )
    assert len(rep.hit_gaps) == 12
    assert all(g.state[barrier.asset - 1] == barrier.level for g in rep.hit_gaps)
    _assert_matches_oracles(rep, plan, cfg, 1_500, 300, 205, 12, 30_000)


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


def test_traced_hedge_counts_repeat():
    # bench/run.py --trace 1 fails its self-test unless every count repeats;
    # its recorder keeps one call stack, so the hedge pass must stay on one thread
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    cfg = jump_config()

    def run():
        return hedging.evaluate_hedge(
            plan, cfg, n_outer=600, n_inner=200, rng=make_rng(207), n_hit_states=4
        )

    counts, reports = [], []
    for _ in range(2):
        recorder = spans.Recorder()
        with recorder.recording() as recorded:
            reports.append(run())
        metrics = spans.layer_metrics(recorded)
        counts.append({name: metrics.get(name, 0) for name in spans.REPEATABLE})
    assert counts[0] == counts[1]
    assert counts[0]["rng.draws"] > 0 and counts[0]["levy.increments_inner_rows"] > 0
    assert reports[0] == reports[1] == run()


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
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")

    def peak(steps):
        cfg = bs_config(steps=steps)
        tracemalloc.start()
        try:
            hedging.evaluate_hedge(
                plan, cfg, n_outer=2_000, n_inner=200, rng=make_rng(203), n_hit_states=5
            )
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
            hedging.evaluate_hedge(
                plan, cfg, n_outer=2_000, n_inner=200, rng=make_rng(209), n_hit_states=5,
                n_samples=n_samples,
            )
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
            hedging.evaluate_hedge(
                plan, bs_config(steps, carry=carry), n_outer=100, n_inner=100,
                rng=make_rng(seed), n_hit_states=1,
            ).price_gap
            for steps in (1, 25, 250)
        }
        assert len(gaps) == 1  # the grid only finds hit states
        ((gap, se),) = gaps
        assert (-gap if knock == "super" else abs(gap)) <= 3.0 * se, (seed, gap / se)


def test_a_wrong_order_fails_through_the_price_gap_alone():
    cfg = bs_config(250)
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.3, "in")
    for seed in range(10):
        rep = hedging.evaluate_hedge(
            plan, cfg, n_outer=100, n_inner=100, rng=make_rng(seed), n_hit_states=1
        )
        assert replace(rep, hit_gaps=[]).verdict == "fail", (seed, rep.price_gap)


@pytest.mark.parametrize("seed", [2, 3, 8])
def test_the_hedge_line_shows_a_price_gap_that_fails_alone(seed):
    # a wrong order on the README spread: the hit states pass at 3 SE, the price gap does not
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.1, "in")
    rep = hedging.evaluate_hedge(plan, bs_config(250), rng=selfdual.RngStream(seed))
    gap, se = rep.price_gap
    assert rep.verdict == "fail" and rep.max_gap_se_units < 3.0 and gap < -3.0 * se
    assert f" max_gap_se={rep.max_gap_se_units:.2f} price_gap_se={gap / se:.2f} " in rep.one_line()


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
    plan = hedging.HedgePlan(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in", _SPREAD)
    rep = hedging.evaluate_hedge(
        plan, config(), n_outer=500, n_inner=200, rng=make_rng(210), n_hit_states=4,
        n_samples=20_000,
    )
    assert rep.hit_gaps and all(g.gap == 0.0 for g in rep.hit_gaps)
    assert rep.terminal_max_mismatch > 1e-10 and rep.verdict == "fail"
    assert replace(rep, terminal_max_mismatch=0.0, price_gap=None).verdict == "pass"


def test_the_hit_state_search_grows_until_the_quota_is_full(monkeypatch):
    sizes, first_hits = [], hedging._first_hits
    monkeypatch.setattr(
        hedging, "_first_hits", lambda cfg, n, *args: sizes.append(n) or first_hits(cfg, n, *args)
    )
    plan = hedging.build_hedge(_SPREAD, hedging.Barrier(1, 0.8, "down"), 1.0, "in")
    # with one step every hit is at the horizon, so no state is found before the cap
    rep = hedging.evaluate_hedge(
        plan, bs_config(1), n_outer=1_000, n_inner=100, rng=make_rng(208), n_hit_states=20
    )
    want = [max(64, math.ceil(2 * 20 / rep.knock_in_fraction))]
    while sum(want) < 1_000:  # each later batch doubles the paths searched
        want.append(min(sum(want), 1_000 - sum(want)))
    assert rep.hit_gaps == [] and sizes == want and len(want) > 3
    sizes.clear()  # with two steps only first-step hits are live, so one batch falls short
    rep = hedging.evaluate_hedge(
        plan, bs_config(2), n_outer=1_000, n_inner=100, rng=make_rng(208), n_hit_states=40
    )
    assert len(rep.hit_gaps) == 40 and sizes[0] == max(64, math.ceil(80 / rep.knock_in_fraction))
    assert len(sizes) > 1 and max(g.path for g in rep.hit_gaps) < sum(sizes) < 1_000
