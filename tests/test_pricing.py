import math
from fractions import Fraction as F

import numpy as np
import pytest

from selfdual import dist, pricing
from selfdual.errors import DomainError, GeometryViolation, MomentDiverges
from selfdual.quadrature import integrate_interval

from conftest import make_rng

LN25 = dist.LogNormal.mean_one(0.25)
PAPER_ATOMS = dist.DiscreteAtoms([(F(1, 2), F(1, 3)), (F(1), F(1, 2)), (F(2), F(1, 6))])


# --------------------------------------------------------------------------- #
# Payoff algebra
# --------------------------------------------------------------------------- #


def test_basket_call_positive_homogeneity():
    s = np.array([[1.0, 2.0], [0.3, 0.9], [2.5, 0.1]])
    base = pricing.BasketCall((1.0, -0.5), 0.7)
    for t in (0.5, 2.0, 7.0):
        scaled = pricing.BasketCall((t * 1.0, t * -0.5), t * 0.7)
        assert np.allclose(scaled(s), t * base(s), rtol=1e-15)


def test_payoff_dimension_checks():
    with pytest.raises(DomainError):
        pricing.BasketCall((1.0,), 1.0)(np.ones((3, 2)))
    with pytest.raises(DomainError):
        pricing.BasketCall((1.0,), -0.1)
    with pytest.raises(DomainError):
        pricing.MaxOption(-0.1, (1.0,))


def test_composite_payoff_algebra():
    s = np.array([[1.3], [0.4]])
    call = pricing.BasketCall((1.0,), 1.0)
    put = pricing.BasketPut((1.0,), 1.0)
    combo = call - put  # forward minus strike pathwise
    assert np.allclose(combo(s), s[:, 0] - 1.0)
    scaled = 2.0 * call
    assert np.allclose(scaled(s), 2.0 * call(s))


def test_binaries_and_gaps_read_their_own_asset():
    s = np.array([[1.0, 0.5], [1.5, 2.0], [0.5, 1.2]])
    assert np.array_equal(pricing.BinaryCall(1.0, asset=2)(s), [0.0, 1.0, 1.0])
    assert np.array_equal(pricing.GapPut(1.0, asset=2)(s), [0.5, 0.0, 0.0])
    with pytest.raises(DomainError, match="payoff asset 3 out of range 1..2"):
        pricing.GapCall(1.0, asset=3)(s)
    # a scalar model has only asset 1, so no closed form stands in for asset 2
    assert pricing.GapCall(1.1, asset=2).closed_form(dist.LogNormal(0.0, 0.2), 1.0) is None


def test_binary_and_gap_payoffs_strict_inequality():
    s = np.array([[1.0], [1.5], [0.5]])
    assert np.allclose(pricing.BinaryCall(1.0)(s), [0.0, 1.0, 0.0])
    assert np.allclose(pricing.BinaryPut(1.0)(s), [0.0, 0.0, 1.0])
    assert np.allclose(pricing.GapCall(1.0)(s), [0.0, 1.5, 0.0])
    assert np.allclose(pricing.GapPut(1.0)(s), [0.0, 0.0, 0.5])


def test_spread_call_net_weights():
    s = np.array([[2.0, 1.0]])
    spread = pricing.SpreadCall((1.0, 0.0), (0.0, 0.5), 0.25)
    assert spread(s)[0] == pytest.approx(2.0 - 0.5 - 0.25)


# --------------------------------------------------------------------------- #
# Pricing
# --------------------------------------------------------------------------- #


def test_zero_strike_call_prices_the_forward():
    est = pricing.price(LN25, pricing.BasketCall((1.0,), 0.0), forward=1.0)
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert est.method == "closed_form"


def test_at_the_money_call_value():
    est = pricing.price(LN25, pricing.BasketCall((1.0,), 1.0))
    oracle = integrate_interval(lambda t: (t - 1.0) * LN25.pdf(t), 1.0, math.inf)
    assert est.value == pytest.approx(oracle, abs=1e-9)
    assert est.value == pytest.approx(0.09948, abs=5e-6)


def test_max_option_call_relation():
    k = 0.8
    call = pricing.price(LN25, pricing.BasketCall((1.0,), k)).value
    maxo = pricing.price(LN25, pricing.MaxOption(k, (1.0,))).value
    assert maxo - k == pytest.approx(call, abs=1e-14)


def test_price_discounting():
    est = pricing.price(LN25, pricing.BasketCall((1.0,), 1.0), r=0.05, maturity=2.0)
    assert est.discount_factor == pytest.approx(math.exp(-0.1), rel=1e-15)
    assert est.discounted == pytest.approx(est.value * math.exp(-0.1), rel=1e-15)


def test_price_monte_carlo_path():
    ht = dist.HeavyTail(1.0)
    est = pricing.price(ht, pricing.BasketCall((1.0,), 1.0), rng=make_rng(80), n_samples=200_000)
    oracle = integrate_interval(lambda t: (t - 1.0) * ht.pdf(t), 1.0, math.inf)
    assert est.method == "monte_carlo"
    assert abs(est.value - oracle) <= 4.0 * est.std_error


def test_power_call_moment_gate():
    with pytest.raises(MomentDiverges):
        pricing.price(
            dist.HeavyTail(0.0), pricing.PowerCall((1.0,), 1.0, 2.5), rng=make_rng(82)
        )


# --------------------------------------------------------------------------- #
# Parity
# --------------------------------------------------------------------------- #


def test_parity_closed_forms():
    for model in (LN25, PAPER_ATOMS, dist.LogNormal(0.1, 0.4)):
        for k, f in [(1.0, 1.0), (0.8, 1.2), (2.0, 0.5)]:
            res, se = pricing.parity_residual(model, k, f)
            assert se == 0.0
            assert abs(res) <= 1e-14


def test_parity_monte_carlo_any_model():
    res, se = pricing.parity_residual(
        dist.HeavyTail(1.0), 0.8, 1.2, rng=make_rng(83), n_samples=200_000
    )
    # common random numbers make the parity defect pathwise zero
    assert abs(res) <= max(3.0 * se, 1e-14)


# --------------------------------------------------------------------------- #
# Vanilla symmetry
# --------------------------------------------------------------------------- #


def test_vanilla_symmetry_at_the_money():
    out = pricing.vanilla_symmetry_residual(LN25, 1.0, 1.0)
    assert out["call_swap"][0] == pytest.approx(0.0, abs=1e-15)
    assert out["put_call"][0] == pytest.approx(0.0, abs=1e-15)


def test_vanilla_symmetry_closed_form():
    out = pricing.vanilla_symmetry_residual(LN25, 0.8, 1.25)
    assert abs(out["call_swap"][0]) <= 1e-14
    assert abs(out["put_call"][0]) <= 1e-14


def test_vanilla_symmetry_negative_control():
    out = pricing.vanilla_symmetry_residual(dist.LogNormal(0.0, 0.5), 0.8, 1.25)
    assert abs(out["call_swap"][0]) > 1e-3


def test_vanilla_symmetry_monte_carlo():
    out = pricing.vanilla_symmetry_residual(
        dist.HeavyTail(2.0), 0.7, 1.3, rng=make_rng(84), n_samples=300_000
    )
    for key in ("call_swap", "put_call"):
        res, se = out[key]
        assert abs(res) <= 3.0 * se + 5e-5


def test_moneyness_form():
    # (c(1,m) + 1) / (c(1,1/m) + 1) = m for self-dual models, r = 0
    for m in (0.5, 0.8, 1.25, 2.0):
        c_m = pricing.price(LN25, pricing.BasketCall((1.0,), 1.0), forward=m).value
        c_inv = pricing.price(LN25, pricing.BasketCall((1.0,), 1.0), forward=1.0 / m).value
        assert (c_m + 1.0) / (c_inv + 1.0) == pytest.approx(m, abs=1e-13)


# --------------------------------------------------------------------------- #
# Binary / gap symmetry
# --------------------------------------------------------------------------- #


def test_binary_gap_reduction_at_equal_strikes():
    out = pricing.binary_gap_symmetry_residual(LN25, 1.0, 1.0)
    assert out["forward"] == 1.0
    assert abs(out["binary_call_gap_put"][0]) <= 1e-14


def test_binary_gap_closed_form_pairs():
    gen = np.random.default_rng(12)
    for _ in range(20):
        k_c = float(gen.uniform(0.4, 2.5))
        k_p = float(gen.uniform(0.4, 2.5))
        out = pricing.binary_gap_symmetry_residual(LN25, k_c, k_p)
        assert abs(out["binary_call_gap_put"][0]) <= 1e-12
        assert abs(out["binary_put_gap_call"][0]) <= 1e-12


def test_binary_gap_monte_carlo_and_negative_control():
    out = pricing.binary_gap_symmetry_residual(
        dist.HeavyTail(1.0), 1.5, 2.0 / 3.0, rng=make_rng(85), n_samples=300_000
    )
    res, se = out["binary_call_gap_put"]
    assert abs(res) <= 3.0 * se + 5e-5
    bad = pricing.binary_gap_symmetry_residual(dist.LogNormal(0.0, 0.5), 1.5, 2.0 / 3.0)
    assert abs(bad["binary_call_gap_put"][0]) > 1e-3


def test_binary_gap_invalid_strikes():
    with pytest.raises(GeometryViolation):
        pricing.binary_gap_symmetry_residual(LN25, -1.0, 1.0)


# --------------------------------------------------------------------------- #
# Power symmetry and the general identity
# --------------------------------------------------------------------------- #


def test_power_symmetry_reduces_to_vanilla():
    res, se = pricing.power_symmetry_residual(
        LN25, 1.0, 1.0, 1.0, 0.9, make_rng(86), n_samples=200_000
    )
    assert abs(res) <= 3.0 * se + 5e-5
    # both claims have closed forms at alpha = 1, so the residual is exact
    assert se == 0.0 and abs(res) <= 1e-12


@pytest.mark.parametrize("model", [LN25, dist.HeavyTail(2.0)], ids=["lognormal", "heavy_tail"])
@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_power_symmetry_matches_the_direct_estimator(model, alpha):
    # reference: both sides drawn on one eta and reduced by hand
    a, big_f, k, n = 1.02, 1.1, 0.95, 20_000
    eta = model.sample(n, make_rng(89))
    lhs = np.maximum(big_f * eta - k, 0.0) ** alpha
    rhs = a ** (-alpha) * np.maximum(big_f - k * a * a * eta, 0.0) ** alpha
    diff = lhs - rhs
    expected = (float(np.mean(diff)), float(np.std(diff, ddof=1) / math.sqrt(n)))
    assert pricing.power_symmetry_residual(model, a, alpha, big_f, k, make_rng(89), n) == expected


@pytest.mark.parametrize("alpha, k", [(0.0, 1.0), (-0.5, 1.0), (0.5, -0.9)])
def test_power_symmetry_rejects_a_negative_strike_or_nonpositive_order(alpha, k):
    with pytest.raises(DomainError):
        pricing.power_symmetry_residual(LN25, 1.0, alpha, 1.0, k, make_rng(90), 1_000)


def test_power_symmetry_quasi_self_dual():
    sigma2, alpha = 0.04, 0.5
    lam = sigma2 * (1.0 - alpha) / 2.0
    model = dist.LogNormal.mean_one(math.sqrt(sigma2))
    res, se = pricing.power_symmetry_residual(
        model, math.exp(lam), alpha, 1.0, 1.0, make_rng(87), n_samples=10**6
    )
    assert abs(res) <= 3.0 * se + 5e-5


def test_power_symmetry_detects_wrong_order():
    sigma2 = 0.04
    lam = sigma2 * (1.0 - 0.5) / 2.0
    model = dist.LogNormal.mean_one(math.sqrt(sigma2))
    res, se = pricing.power_symmetry_residual(
        model, math.exp(lam), 0.9, 1.0, 1.0, make_rng(88), n_samples=10**6
    )
    assert abs(res) > 5.0 * se


def test_general_symmetry_special_payoffs():
    # E f(F eta) = E [f(F / eta) eta] for straddle, butterfly, min(eta, z)
    payoffs = {
        "straddle": lambda x: np.abs(x - 1.0),
        "butterfly": lambda x: np.maximum(0.2 - np.abs(x - 1.0), 0.0),
        "min": lambda x: np.minimum(x, 1.7),
    }
    big_f = 1.1
    eta = LN25.sample(300_000, make_rng(89))
    for name, f in payoffs.items():
        d = f(big_f * eta) - f(big_f / eta) * eta
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert abs(d.mean()) <= 3.0 * se + 5e-5, name
    # exact check on atoms
    vals, probs = PAPER_ATOMS.values, PAPER_ATOMS.probs
    for name, f in payoffs.items():
        lhs = float(f(big_f * vals) @ probs)
        rhs = float((f(big_f / vals) * vals) @ probs)
        assert lhs == pytest.approx(rhs, abs=1e-14), name


# --------------------------------------------------------------------------- #
# The affine-power family
# --------------------------------------------------------------------------- #


def test_legacy_constructors_match_their_formulas():
    gen = np.random.default_rng(21)
    s = gen.uniform(0.1, 3.0, size=(200, 2))
    w = np.array([0.7, -0.4])
    cases = [
        (pricing.BasketCall(w, 0.9), np.maximum(s @ w - 0.9, 0.0)),
        (pricing.BasketPut(w, 0.9), np.maximum(0.9 - s @ w, 0.0)),
        (pricing.AffineCall(w, 0.3), np.maximum(s @ w + 0.3, 0.0)),
        (pricing.SpreadCall((1.0, 0.0), (0.0, 0.5), 0.25), np.maximum(s @ [1.0, -0.5] - 0.25, 0.0)),
        (pricing.PowerCall(w, 0.2, 1.7), np.maximum(s @ w - 0.2, 0.0) ** 1.7),
        (
            pricing.AffinePower(w, 0.3, b=0.3, i=2, level=0.8),
            (s[:, 1] / 0.8) ** 0.3 * np.maximum(s @ w + 0.3, 0.0),
        ),
    ]
    for payoff, want in cases:
        assert isinstance(payoff, pricing.AffinePower)
        np.testing.assert_array_equal(payoff(s), want)


def test_legacy_constructors_keep_their_checks():
    with pytest.raises(DomainError):
        pricing.BasketPut((1.0,), -0.1)
    with pytest.raises(DomainError):
        pricing.SpreadCall((1.0, -0.5), (0.0, 0.0), 0.1)
    with pytest.raises(DomainError):
        pricing.SpreadCall((1.0,), (0.0, 0.0), 0.1)
    with pytest.raises(DomainError):
        pricing.SpreadCall((1.0,), (0.0,), -0.1)
    with pytest.raises(DomainError):
        pricing.PowerCall((1.0,), 1.0, 0.0)
    with pytest.raises(DomainError):
        pricing.PowerCall((1.0,), -1.0, 2.0)


def test_puts_at_an_atom_keep_the_strict_inequality():
    # struck exactly at the atom 1: it pays neither the binary put nor the gap put
    bp = pricing.price(PAPER_ATOMS, pricing.BinaryPut(1.0))
    gp = pricing.price(PAPER_ATOMS, pricing.GapPut(1.0))
    assert bp.method == gp.method == "closed_form"
    assert bp.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert gp.value == pytest.approx(1.0 / 6.0, abs=1e-15)
    bc = pricing.price(PAPER_ATOMS, pricing.BinaryCall(1.0))
    gc = pricing.price(PAPER_ATOMS, pricing.GapCall(1.0))
    assert bc.value == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert gc.value == pytest.approx(1.0 / 3.0, abs=1e-15)
