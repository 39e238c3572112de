import math
from fractions import Fraction as F

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfdual import dist, geometry, levy, pricing
from selfdual.errors import AtomicModel, DomainError
from selfdual.quadrature import integrate_interval, integrate_positive
from scipy.special import ndtr as norm_cdf

import geometry_oracle
from conftest import make_rng
from geometry_oracle import LiftVector

LN25 = dist.LogNormal.mean_one(0.25)
PAPER_ATOMS = dist.DiscreteAtoms([(F(1, 2), F(1, 3)), (F(1), F(1, 2)), (F(2), F(1, 6))])


# --------------------------------------------------------------------------- #
# Lift zonoid support function
# --------------------------------------------------------------------------- #


def test_support_nonnegative_cone_is_linear():
    est = geometry_oracle.support_lift_zonoid(LN25, LiftVector(1.0, (2.0,)))
    assert est.value == 3.0 and est.std_error == 0.0 and est.method == "closed_form"
    v = geometry_oracle.support_lift_zonoid(
        levy.MultiLogNormal.jointly_self_dual(2, 0.3), LiftVector(0.5, (1.0, 2.0))
    )
    assert v.value == pytest.approx(3.5, abs=1e-14)


def test_support_negative_cone_is_zero():
    assert geometry_oracle.support_lift_zonoid(LN25, LiftVector(-1.0, (-1.0,))).value == 0.0
    assert geometry_oracle.support_lift_zonoid(PAPER_ATOMS, LiftVector(-0.2, (0.0,))).value == 0.0


def test_support_lognormal_call_value():
    est = geometry_oracle.support_lift_zonoid(LN25, LiftVector(-1.0, (1.0,)))
    assert est.method == "closed_form"
    assert est.value == pytest.approx(2.0 * norm_cdf(0.125) - 1.0, abs=1e-14)
    assert est.value == pytest.approx(0.09948, abs=5e-6)
    # independent oracle: quadrature of the payoff against the density
    oracle = integrate_interval(lambda t: (t - 1.0) * LN25.pdf(t), 1.0, math.inf)
    assert est.value == pytest.approx(oracle, abs=1e-9)


def test_support_lognormal_put_side():
    est = geometry_oracle.support_lift_zonoid(LN25, LiftVector(1.0, (-1.0,)))
    oracle = integrate_interval(lambda t: (1.0 - t) * LN25.pdf(t), 0.0, 1.0)
    assert est.value == pytest.approx(oracle, abs=1e-9)


def test_support_atoms_exact():
    est = geometry_oracle.support_lift_zonoid(PAPER_ATOMS, LiftVector(-1.0, (1.0,)))
    assert est.value == pytest.approx(1.0 / 6.0, abs=1e-15)  # only the atom at 2 pays


def test_support_monte_carlo_with_errors():
    est = geometry_oracle.support_lift_zonoid(
        dist.HeavyTail(1.0), LiftVector(-1.0, (1.0,)), make_rng(20), 200_000
    )
    oracle = integrate_interval(lambda t: (t - 1.0) * dist.HeavyTail(1.0).pdf(t), 1.0, math.inf)
    assert est.method == "monte_carlo" and est.std_error > 0
    assert abs(est.value - oracle) <= 4.0 * est.std_error
    assert est.n_samples == 200_000


# (model, mixed-sign lift-zonoid vector, first-orthant lift max-zonoid vector)
SUPPORT_AS_PRICE_CASES = [
    (LN25, LiftVector(-1.0, (1.3,)), LiftVector(1.0, (0.8,))),
    (dist.HeavyTail(1.0), LiftVector(-1.0, (1.3,)), LiftVector(0.7, (1.2,))),
    (dist.LpSelfDual(1.5), LiftVector(0.8, (-1.1,)), LiftVector(1.0, (0.6,))),
    (
        levy.MultiLogNormal.jointly_self_dual(2, 0.3),
        LiftVector(-0.5, (1.0, -0.4)),
        LiftVector(0.3, (1.0, 0.8)),
    ),
    (dist.UnitBallMax(3), LiftVector(0.4, (-0.2, 0.5, -0.3)), LiftVector(0.0, (0.5, 1.0, 0.7))),
]


@pytest.mark.parametrize("tag", range(len(SUPPORT_AS_PRICE_CASES)))
def test_support_values_are_prices_of_their_claims(tag):
    model, lz, lmz = SUPPORT_AS_PRICE_CASES[tag]
    pairs = [
        (geometry_oracle.support_lift_zonoid, lz, pricing.AffinePower(lz.u, lz.u0)),
        (geometry_oracle.support_lift_max_zonoid, lmz, pricing.MaxOption(lmz.u0, lmz.u)),
    ]
    for support, lv, claim in pairs:
        est = support(model, lv, make_rng(70 + tag), 20_000)
        ref = pricing.price(model, claim, rng=make_rng(70 + tag), n_samples=20_000)
        assert (est.value, est.std_error, est.method) == (ref.value, ref.std_error, ref.method)
        assert est.method == ("closed_form" if model is LN25 else "monte_carlo")


def test_support_monte_carlo_requires_a_stream():
    with pytest.raises(DomainError, match="Monte-Carlo pricing requires an RngStream"):
        geometry_oracle.support_lift_zonoid(dist.HeavyTail(1.0), LiftVector(-1.0, (1.0,)))


# --------------------------------------------------------------------------- #
# Lift max-zonoid support function
# --------------------------------------------------------------------------- #


def test_max_zonoid_degenerate_weight():
    assert geometry_oracle.support_lift_max_zonoid(LN25, LiftVector(0.0, (2.5,))).value == 2.5


def test_max_zonoid_lognormal_matches_husler_reiss():
    est = geometry_oracle.support_lift_max_zonoid(LN25, LiftVector(1.0, (1.0,)))
    assert est.value == pytest.approx(2.0 * norm_cdf(0.125), abs=1e-14)
    assert est.value == pytest.approx(1.09948, abs=5e-6)


def test_max_zonoid_rejects_negative_coordinates():
    with pytest.raises(DomainError):
        geometry_oracle.support_lift_max_zonoid(LN25, LiftVector(-0.1, (1.0,)))


def test_max_zonoid_zonoid_consistency():
    # E max(k, F eta) - k = E (F eta - k)_+ for k, F >= 0
    for k in (0.2, 1.0, 2.5):
        for f in (0.5, 1.0, 3.0):
            mz = geometry_oracle.support_lift_max_zonoid(LN25, LiftVector(k, (f,))).value
            z = geometry_oracle.support_lift_zonoid(LN25, LiftVector(-k, (f,))).value
            assert mz - k == pytest.approx(z, abs=1e-13)
    # Monte-Carlo model: within combined standard errors
    ht = dist.HeavyTail(2.0)
    mz = geometry_oracle.support_lift_max_zonoid(ht, LiftVector(1.0, (1.0,)), make_rng(21), 100_000)
    z = geometry_oracle.support_lift_zonoid(ht, LiftVector(-1.0, (1.0,)), make_rng(21), 100_000)
    assert abs((mz.value - 1.0) - z.value) <= 3.0 * (mz.std_error + z.std_error)


def test_max_zonoid_self_dual_symmetry_grid():
    # E max(F eta, k) = E max(F, k eta) on a 7x7 grid (closed forms)
    grid = np.geomspace(0.3, 3.0, 7)
    for k in grid:
        for f in grid:
            a = geometry_oracle.support_lift_max_zonoid(LN25, LiftVector(float(k), (float(f),))).value
            b = geometry_oracle.support_lift_max_zonoid(LN25, LiftVector(float(f), (float(k),))).value
            assert a == pytest.approx(b, abs=1e-13)


def test_max_zonoid_atoms():
    est = geometry_oracle.support_lift_max_zonoid(PAPER_ATOMS, LiftVector(1.0, (1.0,)))
    # max(1, eta): 1 with prob 1/3+1/2, 2 with prob 1/6
    assert est.value == pytest.approx(5.0 / 6.0 + 2.0 / 6.0, abs=1e-15)


# --------------------------------------------------------------------------- #
# Husler-Reiss norm
# --------------------------------------------------------------------------- #


def test_husler_reiss_at_the_money():
    assert geometry.husler_reiss_norm(1.0, 1.0, 0.125) == pytest.approx(
        2.0 * norm_cdf(0.125), abs=1e-15
    )


def test_husler_reiss_degenerate_vol_limit():
    assert geometry.husler_reiss_norm(1.0, 2.0, 1e-9) == pytest.approx(2.0, abs=1e-12)
    assert geometry.husler_reiss_norm(3.0, 1.0, 1e-9) == pytest.approx(3.0, abs=1e-12)


def test_husler_reiss_symmetry_and_boundaries():
    for k, f in [(0.5, 2.0), (1.0, 3.0), (0.1, 0.2)]:
        assert geometry.husler_reiss_norm(k, f, 0.25) == pytest.approx(
            geometry.husler_reiss_norm(f, k, 0.25), abs=1e-15
        )
    assert geometry.husler_reiss_norm(0.0, 2.0, 0.25) == 2.0
    assert geometry.husler_reiss_norm(2.0, 0.0, 0.25) == 2.0
    with pytest.raises(DomainError):
        geometry.husler_reiss_norm(0.0, 0.0, 0.25)


# --------------------------------------------------------------------------- #
# Boundary parametrisation
# --------------------------------------------------------------------------- #


def test_boundary_limits():
    bc, gc = geometry.boundary_param(LN25, 1e-12)
    assert bc == pytest.approx(1.0, abs=1e-12)
    assert gc == pytest.approx(1.0, abs=1e-12)
    bc, gc = geometry.boundary_param(LN25, 1e12)
    assert bc == pytest.approx(0.0, abs=1e-12)
    assert gc == pytest.approx(0.0, abs=1e-12)


def test_boundary_gradient_matches_finite_differences():
    model = dist.LogNormal.mean_one(0.5)
    k, h = 1.0, 1e-6

    def sup(u0, u1):
        return geometry_oracle.support_lift_zonoid(model, LiftVector(u0, (u1,))).value

    bc, gc = geometry.boundary_param(model, k)
    assert (sup(-k + h, 1.0) - sup(-k - h, 1.0)) / (2 * h) == pytest.approx(bc, abs=1e-4)
    assert (sup(-k, 1.0 + h) - sup(-k, 1.0 - h)) / (2 * h) == pytest.approx(gc, abs=1e-4)


def test_boundary_param_quadrature_model():
    ht = dist.HeavyTail(1.0)
    bc, gc = geometry.boundary_param(ht, 2.0)
    assert bc == pytest.approx(1.0 - ht.cdf(2.0), abs=1e-12)
    oracle = integrate_interval(lambda t: t * ht.pdf(t), 2.0, math.inf)
    assert gc == pytest.approx(oracle, abs=1e-10)


def test_boundary_param_requires_density():
    with pytest.raises(AtomicModel):
        geometry.boundary_param(PAPER_ATOMS, 1.0)


def test_boundary_polyline_csv():
    rows = geometry.boundary_polyline(LN25, 0.1, 10.0, 17)
    assert rows.shape == (17, 3)
    assert np.all(np.diff(rows[:, 1]) <= 0)  # binary value decreasing in strike
    buf = io.StringIO()
    geometry.write_boundary_csv(rows, buf)
    text = buf.getvalue().splitlines()
    assert text[0] == "k,bc,gc_over_f"
    assert len(text) == 18
    k0 = float(text[1].split(",")[0])
    assert k0 == pytest.approx(0.1, rel=1e-15)


def _oracle_boundary_csv(rows: np.ndarray) -> str:
    """The boundary CSV with one f-string per row."""
    lines = [f"{k:.17g},{bc:.17g},{gc:.17g}\n" for k, bc, gc in rows.tolist()]
    return "k,bc,gc_over_f\n" + "".join(lines)


def _csv_rows():
    gen = np.random.default_rng(2024)
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 1e17, -1e17, 0.1, 1.0]
    random = gen.uniform(-1, 1, 600) * 10.0 ** gen.integers(-300, 301, 600)
    return {
        "empty": np.empty((0, 3)),
        "one": np.array([[0.01, 0.5, 1.0]]),
        "two": np.array([[0.5, -0.0, 5e-324], [1e16, 1e17, math.nan]]),
        "special": np.array(special * 3).reshape(-1, 3),
        "random": random.reshape(200, 3),
        "boundary": geometry.boundary_polyline(LN25, 1e-2, 1e2, 200),
    }


@pytest.mark.parametrize("name", sorted(_csv_rows()))
def test_boundary_csv_matches_the_row_by_row_writer(name):
    rows = _csv_rows()[name]
    buf = io.StringIO()
    geometry.write_boundary_csv(rows, buf)
    assert buf.getvalue().encode() == _oracle_boundary_csv(rows).encode()


# --------------------------------------------------------------------------- #
# Reflections and max-stable link
# --------------------------------------------------------------------------- #


def test_reflect_pi_examples():
    assert geometry_oracle.reflect_pi(LiftVector(1.0, (2.0, 3.0)), 1) == LiftVector(2.0, (1.0, 3.0))
    assert geometry_oracle.reflect_pi(LiftVector(0.0, (5.0, 7.0)), 2) == LiftVector(7.0, (5.0, 0.0))
    with pytest.raises(IndexError):
        geometry_oracle.reflect_pi(LiftVector(0.0, (1.0,)), 2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=5),
    st.floats(-10, 10),
    st.integers(1, 5),
)
def test_reflect_pi_involution(u, u0, i):
    if i > len(u):
        i = 1 + (i - 1) % len(u)
    lv = LiftVector(u0, tuple(u))
    assert geometry_oracle.reflect_pi(geometry_oracle.reflect_pi(lv, i), i) == lv


def test_max_stable_cdf():
    assert geometry.max_stable_cdf(lambda a, b: a + b, 0.0, 0.0) == 1.0
    l1 = geometry.max_stable_cdf(lambda a, b: a + b, 0.7, 1.1)
    assert l1 == pytest.approx(math.exp(-0.7) * math.exp(-1.1), rel=1e-15)
    hr = geometry.max_stable_cdf(
        lambda a, b: geometry.husler_reiss_norm(a, b, 0.125), 1.0, 1.0
    )
    assert hr == pytest.approx(math.exp(-2.0 * norm_cdf(0.125)), rel=1e-12)
    assert hr == pytest.approx(0.3330454, abs=5e-7)


# --------------------------------------------------------------------------- #
# Structural properties
# --------------------------------------------------------------------------- #


def test_sublinearity_closed_forms():
    gen = np.random.default_rng(3)
    for _ in range(25):
        a = LiftVector(float(gen.uniform(-2, 2)), (float(gen.uniform(-2, 2)),))
        b = LiftVector(float(gen.uniform(-2, 2)), (float(gen.uniform(-2, 2)),))
        c = float(gen.uniform(0, 3))
        ha = geometry_oracle.support_lift_zonoid(LN25, a).value
        hb = geometry_oracle.support_lift_zonoid(LN25, b).value
        hsum = geometry_oracle.support_lift_zonoid(
            LN25, LiftVector(a.u0 + b.u0, (a.u[0] + b.u[0],))
        ).value
        assert hsum <= ha + hb + 1e-12
        hscaled = geometry_oracle.support_lift_zonoid(LN25, LiftVector(c * a.u0, (c * a.u[0],))).value
        assert hscaled == pytest.approx(c * ha, abs=1e-12)


def test_sublinearity_monte_carlo():
    ht = dist.HeavyTail(2.0)
    gen = np.random.default_rng(4)
    for trial in range(5):
        a = LiftVector(float(gen.uniform(-2, 2)), (float(gen.uniform(-2, 2)),))
        b = LiftVector(float(gen.uniform(-2, 2)), (float(gen.uniform(-2, 2)),))
        ha = geometry_oracle.support_lift_zonoid(ht, a, make_rng(30 + trial), 50_000)
        hb = geometry_oracle.support_lift_zonoid(ht, b, make_rng(60 + trial), 50_000)
        hs = geometry_oracle.support_lift_zonoid(
            ht, LiftVector(a.u0 + b.u0, (a.u[0] + b.u[0],)), make_rng(90 + trial), 50_000
        )
        slack = 4.0 * (ha.std_error + hb.std_error + hs.std_error)
        assert hs.value <= ha.value + hb.value + slack


def test_central_symmetry_is_call_put_parity():
    # h(u) - h(-u) = u0 + <u, E eta> for any integrable model
    for model in (LN25, PAPER_ATOMS):
        for u0, u1 in [(-1.0, 1.0), (0.3, -0.7), (2.0, -0.5)]:
            h_plus = geometry_oracle.support_lift_zonoid(model, LiftVector(u0, (u1,))).value
            h_minus = geometry_oracle.support_lift_zonoid(model, LiftVector(-u0, (-u1,))).value
            assert h_plus - h_minus == pytest.approx(u0 + u1 * model.mean, abs=1e-12)
    ht = dist.HeavyTail(1.0)
    hp = geometry_oracle.support_lift_zonoid(ht, LiftVector(-1.0, (1.0,)), make_rng(41), 200_000)
    hm = geometry_oracle.support_lift_zonoid(ht, LiftVector(1.0, (-1.0,)), make_rng(41), 200_000)
    assert abs(hp.value - hm.value) <= 3.0 * (hp.std_error + hm.std_error) + 1e-6


def test_heavy_tail_boundary_meets_closed_form():
    # the benchmark's zonoid grid; quadrature missed by 1.154e-7 at k ~ 0.0608
    rows = geometry.boundary_polyline(dist.HeavyTail(1.0), 1e-2, 1e2, 200)
    for k, bc, gc in rows:
        if k <= 1:
            want_bc, want_gc = 1.0 - 0.6 * k * k, 1.0 - 0.4 * k**3
        else:
            want_bc, want_gc = 0.4 * k**-3, 0.6 * k**-2
        assert abs(bc - want_bc) <= 1e-10 + 1e-8 * abs(want_bc)
        assert abs(gc - want_gc) <= 1e-10 + 1e-8 * abs(want_gc)


BOUNDARY_MODELS = [
    dist.HeavyTail(1.0),
    dist.LpSelfDual(2.0),
    dist.LogNormal.mean_one(0.5),
    dist.CustomDensity(lambda x: (x * x + 1.0) ** -1.5, name="lp2"),
]


@pytest.mark.parametrize("model", BOUNDARY_MODELS, ids=repr)
def test_boundary_param_on_an_array_is_the_scalar_calls(model):
    ks = np.geomspace(1e-2, 1e2, 41)
    bc, gc = geometry.boundary_param(model, ks)
    want = np.array([geometry.boundary_param(model, float(k)) for k in ks])
    if isinstance(model, (dist.HeavyTail, dist.LpSelfDual)):
        assert bc.tobytes() == want[:, 0].tobytes()
        assert gc.tobytes() == want[:, 1].tobytes()
    else:  # np.log against math.log, one ulp apart on rare inputs
        np.testing.assert_allclose(bc, want[:, 0], rtol=1e-15, atol=0)
        np.testing.assert_allclose(gc, want[:, 1], rtol=1e-15, atol=0)
    rows = geometry.boundary_polyline(model, 1e-2, 1e2, 41)
    assert rows.tobytes() == np.column_stack((ks, bc, gc)).tobytes()


@pytest.mark.parametrize("ks", [[0.5, 0.0, 2.0], [-1.0], [1.0, 2.0, -1e-300]])
def test_boundary_param_array_rejects_nonpositive_strikes(ks):
    with pytest.raises(DomainError):
        geometry.boundary_param(dist.HeavyTail(1.0), np.array(ks))
