import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from selfdual import dist
from selfdual.errors import DomainError, MomentDiverges, NoDensity, UnsupportedSampler
from selfdual.quadrature import integrate_interval, integrate_positive

from conftest import make_rng, moment_range, self_dual_scalar_fixtures

PAPER_ATOMS = [(F(1, 2), F(1, 3)), (F(1), F(1, 2)), (F(2), F(1, 6))]


# --------------------------------------------------------------------------- #
# Densities
# --------------------------------------------------------------------------- #


def test_heavy_tail_pdf_value():
    # c_0 = (1*2)/3 = 2/3; above one the density is c_0 x^-3
    assert dist.HeavyTail(0.0).pdf(2.0) == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_lp_pdf_value():
    assert dist.LpSelfDual(2.0).pdf(1.0) == pytest.approx(2.0 ** (-1.5), abs=1e-15)


def test_lognormal_pdf_value():
    # LogNormal(-0.5, 1) at x=1: standard normal density at 0.5
    want = math.exp(-0.125) / math.sqrt(2.0 * math.pi)
    assert dist.LogNormal(-0.5, 1.0).pdf(1.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.352065, abs=5e-7)


def test_pdf_rejects_nonpositive_points():
    with pytest.raises(DomainError):
        dist.HeavyTail(1.0).pdf(-1.0)
    with pytest.raises(DomainError):
        dist.LpSelfDual(2.0).pdf(0.0)


def test_atoms_have_no_density():
    with pytest.raises(NoDensity):
        dist.DiscreteAtoms(PAPER_ATOMS).pdf(1.0)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0, 3.0])
def test_heavy_tail_density_mass(gamma):
    mass = integrate_positive(dist.HeavyTail(gamma).pdf)
    assert abs(mass - 1.0) <= 1e-10


def test_atom_probabilities_must_sum_to_one():
    with pytest.raises(DomainError):
        dist.DiscreteAtoms([(1.0, 0.5), (2.0, 0.5 + 1e-9)])
    # exact rational check
    with pytest.raises(DomainError):
        dist.DiscreteAtoms([(F(1), F(1, 3)), (F(2), F(1, 3))])


# --------------------------------------------------------------------------- #
# Integrated tail
# --------------------------------------------------------------------------- #


def test_integrated_tail_degenerate_atom():
    unit = dist.DiscreteAtoms([(F(1), F(1))])
    assert unit.integrated_tail(0.7) == pytest.approx(0.7, abs=0)
    assert unit.integrated_tail(3.0) == pytest.approx(1.0, abs=0)


def test_integrated_tail_paper_atoms():
    model = dist.DiscreteAtoms(PAPER_ATOMS)
    assert model.integrated_tail(1.0) == pytest.approx(5.0 / 6.0, abs=1e-15)


@pytest.mark.parametrize(
    "model",
    [dist.LogNormal(-0.02, 0.2), dist.HeavyTail(1.0), dist.LpSelfDual(2.0)],
    ids=["lognormal", "heavy_tail", "lp"],
)
def test_integrated_tail_limit_is_mean(model):
    assert model.integrated_tail(1e9) == pytest.approx(model.mean, abs=1e-7)


def quad_integrated_tail(model, z):
    """Independent oracle: E min(eta, z) by direct quadrature."""
    lower = integrate_interval(lambda t: t * model.pdf(t), 0.0, z)
    upper = integrate_interval(lambda t: model.pdf(t), z, math.inf)
    return lower + z * upper


@pytest.mark.parametrize(
    "model",
    [dist.LogNormal(-0.125, 0.5), dist.HeavyTail(0.0), dist.HeavyTail(2.0), dist.LpSelfDual(1.5)],
    ids=["lognormal", "heavy0", "heavy2", "lp15"],
)
def test_integrated_tail_closed_forms_match_quadrature(model):
    for z in (0.1, 0.5, 1.0, 2.7, 8.0):
        assert model.integrated_tail(z) == pytest.approx(quad_integrated_tail(model, z), abs=1e-9)


@pytest.mark.parametrize("model", self_dual_scalar_fixtures(), ids=repr)
def test_integrated_tail_shape(model):
    # nondecreasing, concave, and below both z and the mean
    zs = np.geomspace(0.05, 20.0, 25)
    vals = np.array([model.integrated_tail(float(z)) for z in zs])
    assert np.all(np.diff(vals) >= -1e-12)
    second = np.diff(vals, 2)  # nonuniform grid: sign check only needs concavity in z
    # evaluate concavity on a uniform grid instead
    zu = np.linspace(0.05, 20.0, 25)
    vu = np.array([model.integrated_tail(float(z)) for z in zu])
    assert np.all(np.diff(vu, 2) <= 1e-10)
    assert np.all(vals <= np.minimum(zs, model.mean) + 1e-12)
    assert model.integrated_tail(0.0) == 0.0


# --------------------------------------------------------------------------- #
# Sampling
# --------------------------------------------------------------------------- #


def test_lognormal_sample_mean_within_four_se():
    model = dist.LogNormal(-0.02, 0.2)
    s = model.sample(10**6, make_rng(1))
    se = s.std(ddof=1) / math.sqrt(s.size)
    assert abs(s.mean() - 1.0) <= 4.0 * se
    assert np.all(s > 0)


def test_sampler_determinism():
    model = dist.HeavyTail(1.0)
    a = model.sample(1000, make_rng(2))
    b = model.sample(1000, make_rng(2))
    assert np.array_equal(a, b)
    c = model.sample(1000, make_rng(3))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "model",
    [dist.HeavyTail(1.0), dist.LpSelfDual(2.0), dist.LpSelfDual(1.5), dist.HeavyTail(-0.5)],
    ids=repr,
)
def test_inverse_cdf_samplers_ks(model):
    s = model.sample(10**5, make_rng(4))
    res = stats.kstest(s, lambda x: np.asarray(model.cdf(x)))
    # 1% critical value for the one-sample KS statistic
    assert res.statistic < 1.628 / math.sqrt(s.size)


def test_atom_sampler():
    model = dist.DiscreteAtoms(PAPER_ATOMS)
    s = model.sample(20000, make_rng(5))
    assert set(np.unique(s)) == {0.5, 1.0, 2.0}
    assert abs(np.mean(s == 0.5) - 1.0 / 3.0) < 0.02


# --------------------------------------------------------------------------- #
# Moments
# --------------------------------------------------------------------------- #


def test_lognormal_moments():
    model = dist.LogNormal(-0.125, 0.5)  # sigma^2 = 0.25, mean one
    assert model.raw_moment(2.0) == pytest.approx(math.exp(0.25), rel=1e-14)
    assert model.raw_moment(-1.0) == pytest.approx(math.exp(0.25), rel=1e-14)


def test_unit_atom_moments():
    unit = dist.DiscreteAtoms([(F(1), F(1))])
    for r in (-3.0, -1.0, 0.5, 2.0, 7.0):
        assert unit.raw_moment(r) == 1.0


@pytest.mark.parametrize("model", self_dual_scalar_fixtures(), ids=repr)
def test_moment_mirror_identity(model):
    lo, hi = moment_range(model)
    for n in (1.0, 2.0, 3.0):
        if lo < -n + 1.0 and n < hi:
            assert abs(model.raw_moment(n) - model.raw_moment(-n + 1.0)) <= 1e-9


def test_moment_divergence_reports_critical_exponent():
    with pytest.raises(MomentDiverges) as exc:
        dist.HeavyTail(1.0).raw_moment(3.0)
    assert exc.value.critical_exponent == pytest.approx(3.0)
    with pytest.raises(MomentDiverges):
        dist.LpSelfDual(2.0).raw_moment(2.0)
    with pytest.raises(MomentDiverges):
        dist.HeavyTail(0.0).raw_moment(-1.5)


def test_lp_moment_against_quadrature():
    model = dist.LpSelfDual(3.0)
    for r in (-1.0, 0.5, 2.0):
        oracle = integrate_positive(lambda t, r=r: t**r * model.pdf(t))
        assert model.raw_moment(r) == pytest.approx(oracle, abs=1e-9)


# --------------------------------------------------------------------------- #
# Custom densities
# --------------------------------------------------------------------------- #


def lp2_density(x):
    return (x * x + 1.0) ** -1.5


def test_custom_density_mass_validation():
    dist.CustomDensity(lp2_density, name="lp2")  # normalised: fine
    with pytest.raises(DomainError):
        dist.CustomDensity(lambda x: 2.0 * lp2_density(x), name="double")


def test_custom_density_rejection_sampler():
    # (x^2+1)^-3/2 < x^-3 = 1.5 * heavy_tail_0 density above one, and
    # (x^2+1)^-3/2 <= 1 = 1.5 * (2/3) below one
    model = dist.CustomDensity(lp2_density, name="lp2").with_envelope(dist.HeavyTail(0.0), 1.5)
    s = model.sample(40000, make_rng(6))
    res = stats.kstest(s, lambda x: np.asarray(dist.LpSelfDual(2.0).cdf(x)))
    assert res.statistic < 1.628 / math.sqrt(s.size)


def test_custom_density_sampler_requires_envelope():
    model = dist.CustomDensity(lp2_density, name="lp2")
    with pytest.raises(UnsupportedSampler):
        model.sample(10, make_rng(7))


def test_custom_density_bad_envelope_fails_fast():
    model = dist.CustomDensity(lp2_density, name="lp2").with_envelope(dist.HeavyTail(0.0), 0.2)
    with pytest.raises(UnsupportedSampler):
        model.sample(1000, make_rng(8))


def test_custom_density_moment_probe():
    model = dist.CustomDensity(lp2_density, name="lp2")
    assert model.raw_moment(1.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(MomentDiverges):
        model.raw_moment(2.0)


# --------------------------------------------------------------------------- #
# Vector models
# --------------------------------------------------------------------------- #


def test_unit_ball_univariate_is_lp2():
    ub = dist.UnitBallMax(1)
    lp = dist.LpSelfDual(2.0)
    for g in np.geomspace(0.1, 10.0, 25):
        assert abs(ub.pdf(np.array([g])) - lp.pdf(g)) <= 1e-12


def test_unit_ball_sampler_marginals():
    ub = dist.UnitBallMax(2)
    s = ub.sample(10**5, make_rng(9))
    assert np.all(s > 0)
    lp = dist.LpSelfDual(2.0)
    for j in (0, 1):
        res = stats.kstest(s[:, j], lambda x: np.asarray(lp.cdf(x)))
        assert res.statistic < 1.628 / math.sqrt(s.shape[0])


def test_unit_ball_sampler_joint_cdf():
    from scipy import integrate as si

    ub = dist.UnitBallMax(2)
    s = ub.sample(2 * 10**5, make_rng(10))
    for pt in [(1.0, 1.0), (0.5, 2.0)]:
        emp = np.mean((s[:, 0] <= pt[0]) & (s[:, 1] <= pt[1]))
        val, _ = si.dblquad(lambda y, x: ub.pdf(np.array([x, y])), 0, pt[0], 0, pt[1])
        se = math.sqrt(val * (1 - val) / s.shape[0])
        assert abs(emp - val) <= 4.0 * se


def test_unit_ball_dimension_three_sampler_consistent():
    # 3-d sampler's 2-d margin must match the 2-d law (family consistency)
    ub3, ub2 = dist.UnitBallMax(3), dist.UnitBallMax(2)
    s = ub3.sample(2 * 10**5, make_rng(11))[:, :2]
    emp = np.mean((s[:, 0] <= 1.0) & (s[:, 1] <= 1.0))
    from scipy import integrate as si

    val, _ = si.dblquad(lambda y, x: ub2.pdf(np.array([x, y])), 0, 1.0, 0, 1.0)
    assert abs(emp - val) <= 4.0 * math.sqrt(val * (1 - val) / s.shape[0])


def test_common_factor_matches_multi_lognormal():
    # zeta ~ LogNormal(-1/4, sqrt(1/2)) gives log eta ~ N(-1/2 1, I/2 + J/2)
    factor = dist.LogNormal(-0.25, math.sqrt(0.5))
    cf = dist.CommonFactor([factor, factor, factor])
    mln = dist.MultiLogNormal([-0.5, -0.5], 0.5 * np.array([[2.0, 1.0], [1.0, 2.0]]) / 1.0)
    x = np.array([0.8, 1.3])
    assert cf.pdf(x) == pytest.approx(mln.pdf(x), rel=1e-8)
    assert np.allclose(cf.means, mln.means, atol=1e-12)


def test_vector_samples_positive_and_deterministic():
    models = [
        dist.MultiLogNormal.jointly_self_dual(3, 0.4),
        dist.CommonFactor([dist.LpSelfDual(2.0)] * 3),
        dist.UnitBallMax(2),
        dist.IndependentProduct([dist.HeavyTail(0.0), dist.LogNormal.mean_one(0.3)]),
    ]
    for m in models:
        a = m.sample(500, make_rng(12))
        b = m.sample(500, make_rng(12))
        assert np.all(a > 0)
        assert np.array_equal(a, b)


def test_multi_lognormal_sampler_draws_are_the_textbook_formula():
    # the in-place sampler must keep every draw bit-identical
    m = dist.MultiLogNormal.jointly_self_dual(3, 0.5)
    z = make_rng(13).standard_normal((100_000, 3))
    assert np.array_equal(m.sample(100_000, make_rng(13)), np.exp(m.mu + z @ m._root.T))


def test_multi_lognormal_validation():
    with pytest.raises(DomainError):
        dist.MultiLogNormal([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # not PSD
    with pytest.raises(DomainError):
        dist.MultiLogNormal([0.0], [[1.0, 0.0], [0.0, 1.0]])  # shape mismatch


# --------------------------------------------------------------------------- #
# Tail means and closed forms
# --------------------------------------------------------------------------- #


def _tail_mean_oracle(model, k):
    # split at the HeavyTail kink so quadrature meets a smooth integrand
    mid = max(k, 1.0)
    inner = integrate_interval(lambda t: t * model.pdf(t), k, mid) if mid > k else 0.0
    return inner + integrate_interval(lambda t: t * model.pdf(t), mid, math.inf)


@pytest.mark.parametrize(
    "model",
    [dist.HeavyTail(g) for g in (-0.5, 0.0, 1.0, 2.0)]
    + [dist.LpSelfDual(p) for p in (1.5, 2.0, 3.0)],
    ids=repr,
)
def test_self_dual_tail_mean_matches_quadrature(model):
    for k in (0.01, 0.0608022, 0.3, 1.0, 1.7, 25.0):
        want = _tail_mean_oracle(model, k)
        assert model.tail_mean(k) == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert model.tail_mean(0.0) == pytest.approx(1.0, abs=1e-14)


def test_lognormal_expect_affine_matches_quadrature():
    model = dist.LogNormal(0.1, 0.4)
    cases = [(1.3, -1.0, 1, 0), (-0.8, 1.1, 1, 0), (1.3, -1.0, 0, 0), (-0.8, 1.1, 0, 0),
             (1.3, -1.0, 0, 1), (-0.8, 1.1, 0, 1), (1.3, -1.0, 1, 1), (-0.8, 1.1, 1, 1)]
    for w, c, p, b in cases:
        # integrate over the region w t + c > 0 only, so the integrand is smooth
        lo, hi = (-c / w, math.inf) if w > 0 else (0.0, -c / w)
        oracle = integrate_interval(lambda t: t**b * (w * t + c) ** p * model.pdf(t), lo, hi)
        assert model.expect_affine(w, c, p, b) == pytest.approx(oracle, rel=1e-8), (w, c, p, b)
    assert model.expect_affine(1.0, -1.0, 2.0) is None
    assert dist.HeavyTail(1.0).expect_affine(1.0, -1.0) is None


def test_atoms_expect_affine_is_strict_at_p_zero():
    atoms = dist.DiscreteAtoms(PAPER_ATOMS)
    assert atoms.expect_affine(1.0, -1.0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert atoms.expect_affine(-1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert atoms.tail_mean(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert atoms.expect_affine(1.0, -1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_power_transformed_families():
    ln = dist.LogNormal(0.1, 0.4).power_transformed(np.array([0.2]), -0.5)
    assert (ln.mu, ln.sigma) == pytest.approx((-0.15, 0.2), abs=1e-15)
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5).power_transformed(np.zeros(2), 2.0)
    assert np.allclose(mln.cov, 4.0 * dist.MultiLogNormal.jointly_self_dual(2, 0.5).cov)
    assert dist.HeavyTail(1.0).power_transformed(0.0, 2.0) is None


def test_generic_quadrature_meets_its_contract_across_the_kink():
    # HeavyTail(1) through the generic ScalarModel quadrature: its density
    # has a kink at the reflection point 1, which the interval may straddle
    ht = dist.HeavyTail(1.0)
    wrapped = dist.CustomDensity(ht.pdf, name="ht1")

    def gap_call(k):  # E[eta 1{eta > k}] in closed form
        return 0.4 * (1.0 - k**3) + 0.6 if k <= 1.0 else 0.6 * k**-2

    for k in np.geomspace(0.01, 20.0, 200):
        k = float(k)
        for got, want in ((wrapped.tail_mean(k), gap_call(k)),
                          (wrapped.integrated_tail(k), ht.integrated_tail(k)),
                          (wrapped.cdf(k), ht.cdf(k))):
            assert abs(got - want) <= 1e-10 + 1e-8 * abs(want), k
