"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the lines while passing).
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from selfdual import dist, duality, geometry, hedging, levy, pricing
from selfdual.rng import RngStream

import hedge_oracle
import pricing_oracle

SEED = 987654321


def rng(tag):
    return RngStream(SEED, tag)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------- #
# 1. Density self-duality for the log-normal family
# --------------------------------------------------------------------------- #


def test_criterion_01_density_self_duality():
    start = time.time()
    grid = np.geomspace(0.1, 10.0, 100)
    worst = 0.0
    for sigma in (0.25, 0.5, 0.75):
        rep = duality.check_density_self_dual(dist.LogNormal.mean_one(sigma), grid=grid)
        worst = max(worst, rep.max_abs_residual)
        assert rep.verdict == "pass"
    elapsed = time.time() - start
    report(
        "criterion 1: log-normal density self-duality",
        worst <= 1e-10 and elapsed < 1.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------- #
# 2. Integrated-tail symmetry across the scalar fixtures
# --------------------------------------------------------------------------- #


def test_criterion_02_integrated_tail_symmetry():
    start = time.time()
    z_grid = np.geomspace(0.1, 10.0, 21)
    fixtures = (
        [dist.HeavyTail(g) for g in (-0.5, 0.0, 1.0, 3.0)]
        + [dist.LpSelfDual(p) for p in (1.5, 2.0, 3.0)]
        + [dist.DiscreteAtoms([(F(1, 2), F(1, 3)), (F(1), F(1, 2)), (F(2), F(1, 6))])]
    )
    worst = 0.0
    for model in fixtures:
        rep = duality.check_integrated_tail_symmetry(model, z_grid=z_grid, tol=1e-8)
        worst = max(worst, rep.max_abs_residual)
        assert rep.verdict == "pass", (model, rep.one_line())
    elapsed = time.time() - start
    report(
        "criterion 2: integrated-tail symmetry",
        worst <= 1e-8 and elapsed < 5.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------- #
# 3. Vanilla symmetry, closed form, with a negative control
# --------------------------------------------------------------------------- #


def test_criterion_03_vanilla_symmetry():
    strikes = np.geomspace(0.5, 2.0, 9)
    model = dist.LogNormal.mean_one(0.25)
    worst = 0.0
    for k in strikes:
        for f in strikes:
            out = pricing_oracle.vanilla_symmetry_residual(model, float(k), float(f))
            worst = max(worst, abs(out["call_swap"][0]))
    control = dist.LogNormal(0.0, 0.5)
    worst_control = 0.0
    for k in strikes:
        for f in strikes:
            out = pricing_oracle.vanilla_symmetry_residual(control, float(k), float(f))
            worst_control = max(worst_control, abs(out["call_swap"][0]))
    report(
        "criterion 3: vanilla symmetry closed form",
        worst <= 1e-13 and worst_control > 1e-3,
        f"max residual {worst:.2e}, control max {worst_control:.2e}",
    )


# --------------------------------------------------------------------------- #
# 4. Binary/gap symmetry at the geometric-mean forward
# --------------------------------------------------------------------------- #


def test_criterion_04_binary_gap_symmetry():
    model = dist.LogNormal.mean_one(0.25)
    gen = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        k_c = float(gen.uniform(0.3, 3.0))
        k_p = float(gen.uniform(0.3, 3.0))
        out = pricing_oracle.binary_gap_symmetry_residual(model, k_c, k_p)
        worst = max(
            worst, abs(out["binary_call_gap_put"][0]), abs(out["binary_put_gap_call"][0])
        )
    report("criterion 4: binary/gap symmetry", worst <= 1e-12, f"max residual {worst:.2e}")


# --------------------------------------------------------------------------- #
# 5. Multivariate SD_i by Monte Carlo with a negative control
# --------------------------------------------------------------------------- #


def test_criterion_05_multivariate_sd_monte_carlo():
    start = time.time()
    model = levy.MultiLogNormal.jointly_self_dual(2, 0.5)  # sigma^2 = 0.25
    ok = True
    detail = []
    for family in ("basket", "max"):
        rep = duality.check_payoff_symmetry(model, 1, family, rng=rng(1), n_samples=10**6)
        ok = ok and rep.verdict == "pass"
        detail.append(f"{family}: {rep.verdict} ({rep.max_residual_in_se_units:.2f} se)")
    control = dist.IndependentProduct([dist.LogNormal.mean_one(0.5)] * 2)
    worst_units = 0.0
    for i in (1, 2):
        rep = duality.check_payoff_symmetry(control, i, "basket", rng=rng(2), n_samples=10**6)
        worst_units = max(worst_units, rep.max_residual_in_se_units)
    elapsed = time.time() - start
    report(
        "criterion 5: multivariate SD Monte Carlo",
        ok and worst_units > 5.0 and elapsed < 60.0,
        "; ".join(detail) + f"; control {worst_units:.0f} se; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------- #
# 6. Joint self-duality fixtures
# --------------------------------------------------------------------------- #


def test_criterion_06_joint_self_duality():
    start = time.time()
    cf = dist.CommonFactor([dist.LogNormal.mean_one(1.0)] * 3)
    rep_cf = duality.check_joint_self_duality(cf, rng(3), n_samples=10**6)
    ub = dist.UnitBallMax(2)
    rep_ub = duality.check_joint_self_duality(ub, rng(4), n_samples=10**6)
    elapsed = time.time() - start
    report(
        "criterion 6: joint self-duality",
        rep_cf.verdict == "pass" and rep_ub.verdict == "pass" and elapsed < 120.0,
        f"common-factor {rep_cf.verdict}, unit-ball {rep_ub.verdict}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------- #
# 7. Levy triplet conditions
# --------------------------------------------------------------------------- #


def test_criterion_07_levy_triplet_conditions():
    a = 0.09 * np.array([[1.0, 0.5], [0.5, 1.0]])
    b = 0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])
    nu = levy.build_tilted_gaussian_measure(b, 1.0, 0.8, 1)
    t = levy.martingale_normalized(a, nu)
    rep = levy.check_sd_triplet(t, 1, tol=1e-10)
    perturbed = levy.LevyTriplet(t.a, t.nu, drift=t.drift + np.array([1e-3, 0.0]))
    rep_bad = levy.check_sd_triplet(perturbed, 1, tol=1e-10)
    failing = [p.label for p in rep_bad.points if p.status == "fail"]
    report(
        "criterion 7: triplet conditions",
        rep.verdict == "pass"
        and rep.max_abs_residual <= 1e-10
        and failing == ["(3) affine rest, from drift, carry and compensator"],
        f"residual {rep.max_abs_residual:.2e}; perturbation flips {failing}",
    )


# --------------------------------------------------------------------------- #
# 8. The order solver and its closed forms
# --------------------------------------------------------------------------- #


def test_criterion_08_alpha_solver():
    # (a) pure diffusion
    t_a = levy.martingale_normalized([[0.04]])
    sol_a = levy.solve_alpha(t_a, 1, 0.01)
    ok_a = (
        sol_a.method == "closed_lognormal"
        and sol_a.alpha == 0.5
        and abs(sol_a.roots[0] - 0.5) <= 1e-12
    )
    # (b) pure jump, unit-mass Gaussian measure
    nu_b = levy.build_tilted_gaussian_measure([[1.0]], 0.5, 1.0, 1)
    t_b = levy.martingale_normalized([[0.0]], nu_b)
    sol_b = levy.solve_alpha(t_b, 1, math.exp(0.25) - 1.0)
    ok_b = sol_b.method == "closed_laplace" and abs(sol_b.alpha - 0.5) <= 1e-10
    # (c) mixed diffusion + jump: LambertW closed form vs bracketed root
    sigma2, beta2, lam = 0.04, 1.0, 0.01
    z = beta2 / sigma2 * math.exp(beta2 * (lam + 1.0) / sigma2)
    alpha_star = 2.0 * levy.lambert_w0(z) / beta2 + 1.0 - 2.0 * (lam + 1.0) / sigma2
    nu_c = levy.build_tilted_gaussian_measure([[beta2]], alpha_star, 1.0, 1)
    t_c = levy.martingale_normalized([[sigma2]], nu_c)
    sol_c = levy.solve_alpha(t_c, 1, lam)
    ok_c = sol_c.method == "closed_lambertw" and abs(sol_c.roots[0] - sol_c.alpha) <= 1e-10
    # (d) time scaling leaves the order unchanged
    ok_d = True
    for ts in (0.5, 2.0):
        scaled = levy.solve_alpha(t_c.scaled(ts), 1, lam * ts)
        ok_d = ok_d and abs(scaled.alpha - sol_c.alpha) <= 1e-12
    report(
        "criterion 8: order solver",
        ok_a and ok_b and ok_c and ok_d,
        f"a={sol_a.alpha} b={sol_b.alpha:.12f} c={sol_c.alpha:.12f} (methods "
        f"{sol_a.method}/{sol_b.method}/{sol_c.method})",
    )


# --------------------------------------------------------------------------- #
# 9. Characteristic-function bridge for SD triplets
# --------------------------------------------------------------------------- #


def test_criterion_09_char_function_bridge():
    from selfdual.duality import KappaMaps

    a = 0.09 * np.array([[1.0, 0.5], [0.5, 1.0]])
    b = 0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])
    fixtures = [
        levy.martingale_normalized(a),
        levy.martingale_normalized(a, levy.build_tilted_gaussian_measure(b, 1.0, 0.8, 1)),
        levy.martingale_normalized(
            a,
            levy.JumpMeasure(
                atoms=(
                    (np.array([0.3, 0.1]), 0.2),
                    (np.array([-0.3, -0.2]), 0.2 * math.exp(0.3)),
                )
            ),
        ),
    ]
    maps = KappaMaps(2, 1)
    shift = -0.5j * np.array([1.0, 0.0])
    gen = np.random.default_rng(SEED + 9)
    worst = 0.0
    for t in fixtures:
        assert levy.check_sd_triplet(t, 1).verdict == "pass"
        for _ in range(50):
            u = gen.uniform(-3.0, 3.0, 2)
            lhs = levy.char_exponent(t, u + shift)
            rhs = levy.char_exponent(t, maps.K_transpose(u) + shift)
            worst = max(worst, abs(lhs - rhs))
    report("criterion 9: characteristic-function bridge", worst <= 1e-10, f"max {worst:.2e}")


# --------------------------------------------------------------------------- #
# 10. Semi-static hedge replication, Black-Scholes driver
# --------------------------------------------------------------------------- #


def _hedge_criterion(cfg, alpha, name):
    # the exchange is decided by the driver's exponent; the oracle's 50 hit states of
    # nested Monte Carlo must agree with it, each within 3 SE
    start = time.time()
    target = pricing.SpreadCall((1.0, 0.0), (0.0, 0.1), 0.8)
    barrier = hedging.Barrier(1, 0.8, "down")  # H = 0.8 S0_1, a H <= k
    plan = hedging.build_hedge(target, barrier, alpha, "in")
    rep = hedging.evaluate_hedge(plan, cfg, rng=rng(10))
    states = hedge_oracle.hit_state_gaps(plan, cfg, 10_000, 20_000, rng(10), 50)
    gap, gap_se = rep.price_gap
    elapsed = time.time() - start
    worst = max(abs(g.gap) / g.std_error for g in states)
    ok = (
        rep.verdict == "pass"
        and rep.exchange.verdict == "pass"
        and rep.hit_gaps == []
        and len(states) == 50
        and worst <= 3.0
        and abs(gap) <= 3.0 * gap_se
        and rep.overshoot_fraction == 0.0
        and elapsed < 600.0
    )
    report(
        name,
        ok,
        f"verdict={rep.verdict} exchange={rep.exchange.max_abs_residual:.1e} "
        f"oracle states={len(states)} max_gap={worst:.2f}se "
        f"price_gap={gap:+.1e}+-{gap_se:.1e} {elapsed:.0f}s",
    )


def test_criterion_10_hedge_replication_black_scholes():
    a = 0.0625 * np.array([[1.0, 0.5], [0.5, 1.0]])  # sigma = 0.25, SD_1 pattern
    cfg = hedging.PathConfig(
        [1.0, 1.0], [0.0, 0.0], levy.martingale_normalized(a), 1.0, 250
    )
    _hedge_criterion(cfg, 1.0, "criterion 10: Black-Scholes hedge replication")


# --------------------------------------------------------------------------- #
# 11. Quasi-self-dual hedge with the solved order
# --------------------------------------------------------------------------- #


def test_criterion_11_hedge_replication_quasi_self_dual():
    a = 0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])  # sigma^2 = 0.04
    driver = levy.martingale_normalized(a)
    sol = levy.solve_alpha(driver, 1, 0.01)
    assert sol.alpha == 0.5  # alpha = 1 - 2 lambda / sigma^2
    cfg = hedging.PathConfig([1.0, 1.0], [0.01, 0.01], driver, 1.0, 250)
    _hedge_criterion(cfg, sol.alpha, "criterion 11: quasi-self-dual hedge replication")


# --------------------------------------------------------------------------- #
# 12. Moment identities and skewness across the fixtures
# --------------------------------------------------------------------------- #


def test_criterion_12_moments_and_skewness():
    from conftest import moment_range, self_dual_scalar_fixtures

    worst = 0.0
    all_ok = True
    positives = 0
    for model in self_dual_scalar_fixtures():
        lo, hi = moment_range(model)
        if hi > 2.0 and lo < -1.0:
            resid = abs(model.raw_moment(2.0) - model.raw_moment(-1.0))
            worst = max(worst, resid)
            all_ok = all_ok and resid <= 1e-9
        if hi > 3.0 and lo < -2.0:
            rep = duality.check_moment_and_skewness(model)
            skew = rep.extras["skewness"]
            degenerate = isinstance(model, dist.DiscreteAtoms) and model.values.size == 1
            if degenerate:
                all_ok = all_ok and abs(skew) <= 1e-9
            else:
                all_ok = all_ok and skew > 0.0
                positives += 1
    report(
        "criterion 12: moments and skewness",
        all_ok and positives >= 5,
        f"max mirror residual {worst:.2e}; {positives} strictly positive skews",
    )
