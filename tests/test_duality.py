import collections
import math
import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfdual import dist, duality
from selfdual.errors import DomainError, MomentDiverges, NotIntegrable, ZeroDensity
from selfdual.quadrature import integrate_positive
from selfdual.rng import RngStream

from conftest import make_rng

PAPER_ATOMS = dist.DiscreteAtoms([(F(1, 2), F(1, 3)), (F(1), F(1, 2)), (F(2), F(1, 6))])


# --------------------------------------------------------------------------- #
# Numeraire maps
# --------------------------------------------------------------------------- #


def test_kappa_examples():
    assert duality.KappaMaps(1, 1).kappa(np.array([2.0])) == pytest.approx([0.5])
    out = duality.KappaMaps(2, 1).kappa(np.array([2.0, 4.0]))
    assert out == pytest.approx([0.5, 2.0])


def test_kappa_rejects_nonpositive():
    with pytest.raises(DomainError):
        duality.KappaMaps(2, 1).kappa(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        duality.KappaMaps(2, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
)
def test_kappa_and_K_are_involutions(x, i):
    x = np.asarray(x)
    i = 1 + (i - 1) % x.size
    maps = duality.KappaMaps(x.size, i)
    assert np.allclose(maps.kappa(maps.kappa(x)), x, rtol=1e-12)
    y = np.log(x)
    assert np.allclose(maps.K(maps.K(y)), y, atol=1e-12)
    m = maps.matrix
    assert np.allclose(m @ m, np.eye(x.size), atol=0)
    assert np.allclose(m @ y, maps.K(y), atol=0)


def test_K_transpose():
    maps = duality.KappaMaps(3, 2)
    u = np.array([1.0, 2.0, 3.0])
    want = np.array([1.0, -6.0, 3.0])
    assert np.allclose(maps.K_transpose(u), want)
    assert np.allclose(maps.matrix.T @ u, want)


# --------------------------------------------------------------------------- #
# Density criterion
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
def test_density_self_dual_lognormal(sigma):
    rep = duality.check_density_self_dual(dist.LogNormal.mean_one(sigma))
    assert rep.verdict == "pass"
    assert rep.max_abs_residual <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_density_self_dual_lp(p):
    rep = duality.check_density_self_dual(dist.LpSelfDual(p))
    assert rep.verdict == "pass"


def test_density_self_dual_negative_control():
    rep = duality.check_density_self_dual(dist.LogNormal(0.0, 1.0), grid=[0.5, 2.0])
    assert rep.verdict == "fail"
    at_two = dict(zip(rep.grid, rep.residuals))["x=2"]
    assert abs(at_two) > 1e-3


@pytest.mark.parametrize("mu", [-0.125, 0.1])
def test_the_scalar_density_check_is_the_one_dimensional_case(mu):
    scalar = duality.check_density_self_dual(dist.LogNormal(mu, 0.5))
    vector = duality.check_density_self_dual(dist.MultiLogNormal([mu], [[0.25]]))
    assert scalar.grid == vector.grid and scalar.verdict == vector.verdict
    assert scalar.verdict == ("pass" if mu == -0.125 else "fail")
    assert np.allclose(scalar.residuals, vector.residuals, rtol=0.0, atol=1e-12)


def test_density_self_dual_multivariate():
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    for i in (1, 2):
        assert duality.check_density_self_dual(mln, i).verdict == "pass"
    ub = dist.UnitBallMax(2)
    for i in (1, 2):
        assert duality.check_density_self_dual(ub, i).verdict == "pass"
    # single-numeraire symmetry only: SD_1 holds, SD_2 fails
    a = 0.25 * np.array([[1.0, 0.5], [0.5, 2.0]])
    one_sided = dist.MultiLogNormal([-0.125, -0.1], a)
    assert duality.check_density_self_dual(one_sided, 1).verdict == "pass"
    assert duality.check_density_self_dual(one_sided, 2).verdict == "fail"


# --------------------------------------------------------------------------- #
# Integrated-tail criterion
# --------------------------------------------------------------------------- #


def test_integrated_tail_symmetry_unit_atom():
    rep = duality.check_integrated_tail_symmetry(dist.DiscreteAtoms([(F(1), F(1))]))
    assert rep.verdict == "pass" and rep.max_abs_residual == 0.0


def test_integrated_tail_symmetry_paper_atoms():
    rep = duality.check_integrated_tail_symmetry(PAPER_ATOMS, z_grid=[2.0])
    # both sides equal one at z = 2
    assert rep.points[0].residual == pytest.approx(0.0, abs=1e-15)
    assert PAPER_ATOMS.integrated_tail(2.0) == pytest.approx(1.0, abs=1e-15)


def test_integrated_tail_symmetry_heavy_tail_quadrature():
    # exercise the generic quadrature path through a custom wrapper
    ht = dist.HeavyTail(1.0)
    wrapped = dist.CustomDensity(lambda x: float(ht.pdf(x)), name="ht1")
    rep = duality.check_integrated_tail_symmetry(wrapped, z_grid=np.geomspace(0.1, 10, 9))
    assert rep.verdict == "pass"
    assert rep.max_abs_residual <= 1e-8


def test_integrated_tail_symmetry_detects_asymmetry():
    rep = duality.check_integrated_tail_symmetry(dist.LogNormal(0.0, 0.5))
    assert rep.verdict == "fail"


# --------------------------------------------------------------------------- #
# Discrete criterion
# --------------------------------------------------------------------------- #


def test_discrete_self_dual_paper_example():
    assert duality.check_discrete_self_dual(PAPER_ATOMS).verdict == "pass"


def test_discrete_self_dual_unit_atom():
    assert duality.check_discrete_self_dual(dist.DiscreteAtoms([(F(1), F(1))])).verdict == "pass"


def test_discrete_self_dual_counterexample():
    rep = duality.check_discrete_self_dual([(F(1, 2), F(1, 2)), (F(2), F(1, 2))])
    assert rep.verdict == "fail"


def test_discrete_self_dual_vector_atoms():
    # kappa_1 maps (2, 4) to (1/2, 2); masses must satisfy the 2:1 ratio
    good = [
        ((F(2), F(4)), F(1, 5)),
        ((F(1, 2), F(2)), F(2, 5)),
        ((F(1), F(1)), F(2, 5)),
    ]
    assert duality.check_discrete_self_dual(good, i=1).verdict == "pass"
    bad = [((F(2), F(4)), F(1, 2)), ((F(1, 2), F(2)), F(1, 2))]
    assert duality.check_discrete_self_dual(bad, i=1).verdict == "fail"


def test_discrete_self_dual_matches_float_atoms_within_rounding():
    # 1 / 1.1 is 0.9090909090909091, one unit in the last place from the atom
    atoms = [(1.1, 0.5), (0.909090909090909, 0.55)]
    assert 1.0 / 1.1 != atoms[1][0]
    rep = duality.check_discrete_self_dual(atoms)
    assert rep.verdict == "pass" and rep.max_abs_residual <= 1e-15


def test_discrete_self_dual_misses_a_reflected_atom():
    # neither 1 / 0.5 = 2 nor 1 / 1.5 is an atom: each residual is the whole of x Q(eta = x)
    rep = duality.check_discrete_self_dual([(0.5, 0.5), (1.5, 0.5)])
    assert rep.verdict == "fail"
    assert rep.residuals == [0.25, 0.75]


# --------------------------------------------------------------------------- #
# Payoff symmetry by Monte Carlo
# --------------------------------------------------------------------------- #


def test_payoff_symmetry_multilognormal_passes():
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    for family in ("basket", "max"):
        rep = duality.check_payoff_symmetry(mln, 1, family, rng=make_rng(50), n_samples=200_000)
        assert rep.verdict == "pass", rep.one_line()


def test_payoff_symmetry_zero_weight_vector():
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    rep = duality.check_payoff_symmetry(
        mln, 1, "basket", test_vectors=[(0.7, np.zeros(2))], rng=make_rng(51), n_samples=10_000
    )
    assert abs(rep.points[0].residual) <= 1e-15  # pathwise zero after the control


def test_payoff_symmetry_independent_product_fails():
    ind = dist.IndependentProduct([dist.LogNormal.mean_one(0.5)] * 2)
    for i in (1, 2):
        rep = duality.check_payoff_symmetry(ind, i, "basket", rng=make_rng(52), n_samples=200_000)
        assert rep.verdict == "fail"
        assert rep.max_residual_in_se_units > 5.0


def test_marginal_and_martingale_consequences():
    # SD_i implies the i-th marginal is self-dual with mean one
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    assert duality.check_payoff_symmetry(
        mln, 1, "basket", rng=make_rng(53), n_samples=200_000
    ).verdict == "pass"
    s = mln.sample(200_000, make_rng(54))
    marg = s[:, 0]
    rep = duality.check_empirical_integrated_tail(marg)
    assert rep.verdict in ("pass", "inconclusive")
    assert rep.max_residual_in_se_units <= 3.5
    se = marg.std(ddof=1) / math.sqrt(marg.size)
    assert abs(marg.mean() - 1.0) <= 4.0 * se
    # exact marginal consequence via the closed form
    assert duality.check_density_self_dual(mln.marginal(1)).verdict == "pass"


def test_product_of_independent_self_duals_is_self_dual():
    a = dist.LogNormal.mean_one(0.5).sample(300_000, make_rng(55))
    b = dist.HeavyTail(2.0).sample(300_000, make_rng(56))
    rep = duality.check_empirical_integrated_tail(a * b)
    assert rep.verdict in ("pass", "inconclusive")
    assert rep.max_residual_in_se_units <= 3.5


def test_default_sample_count_certifies_the_two_asset_family():
    # at 100k draws both checks came out inconclusive on nearly every seed
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    assert duality.check_joint_self_duality(mln, make_rng(79)).verdict == "pass"
    assert duality.check_payoff_symmetry(mln, 1, rng=make_rng(79)).verdict == "pass"


def test_joint_self_duality_fixtures():
    # sigma kept moderate here; the sigma = 1 paper example runs in the
    # acceptance suite at the sample size its variance needs
    cf = dist.CommonFactor([dist.LogNormal.mean_one(0.5)] * 3)
    rep = duality.check_joint_self_duality(cf, make_rng(57), n_samples=300_000)
    assert rep.verdict == "pass", rep.one_line()
    trivial = dist.IndependentProduct(
        [dist.DiscreteAtoms([(F(1), F(1))]), dist.DiscreteAtoms([(F(1), F(1))])]
    )
    rep2 = duality.check_joint_self_duality(trivial, make_rng(58), n_samples=10_000)
    assert rep2.verdict == "pass" and rep2.max_abs_residual == 0.0


def test_degenerate_detection():
    # independence with a nondegenerate partner must fail every numeraire
    ind = dist.IndependentProduct([dist.HeavyTail(2.0), dist.LogNormal.mean_one(0.4)])
    for i in (1, 2):
        rep = duality.check_payoff_symmetry(ind, i, "max", rng=make_rng(59), n_samples=200_000)
        assert rep.verdict == "fail"


# --------------------------------------------------------------------------- #
# The column-major CRN kernel
# --------------------------------------------------------------------------- #


def _weight_rows(vectors):
    return np.array([u0 for u0, _ in vectors]), np.array([u for _, u in vectors])


def test_column_payoffs_match_the_row_major_formulas():
    rows = dist.MultiLogNormal.jointly_self_dual(3, 0.5).sample(50_000, make_rng(70))
    cols = np.ascontiguousarray(rows.T)
    # one batched call, every row against the row-major formula of its vector
    vectors = duality.random_test_vectors(make_rng(71), 3, "max")
    batched = duality._payoff("max", *_weight_rows(vectors), cols)
    for (u0, u), got in zip(vectors, batched, strict=True):
        want = np.maximum(u0, np.max(rows * u, axis=1))
        assert np.array_equal(got, want)
    vectors = duality.random_test_vectors(make_rng(72), 3, "basket")
    batched = duality._payoff("basket", *_weight_rows(vectors), cols)
    for (u0, u), got in zip(vectors, batched, strict=True):
        want = np.maximum(u0 + rows @ u, 0.0)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), 1.0))


def test_pooled_moments_match_concatenated_samples():
    gen = make_rng(73).generator
    batches = [gen.standard_t(3.0, size=n) + 0.1 for n in (10_000, 20_000, 40_000)]
    stats = duality._Moments.of(batches[0])
    for batch in batches[1:]:
        stats = stats.pooled(duality._Moments.of(batch))
    pooled = np.concatenate(batches)
    assert stats.n == pooled.size
    assert stats.mean == pytest.approx(np.mean(pooled), rel=1e-12)
    std = math.sqrt(stats.m2 / (stats.n - 1))
    assert std == pytest.approx(np.std(pooled, ddof=1), rel=1e-12)


def test_joint_families_share_their_change_of_numeraire_points():
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    rep = duality.check_joint_self_duality(mln, make_rng(74), n_samples=20_000)
    for i in (1, 2):
        basket, peak = (
            [
                replace(p, label=p.label.split(":", 1)[1])
                for p in rep.points
                if p.label.startswith(f"payoff_symmetry[{family},i={i}]:change-of-numeraire")
            ]
            for family in ("basket", "max")
        )
        assert len(basket) == 3 and basket == peak


def test_control_confirms_by_pooled_rounds():
    ind = dist.IndependentProduct([dist.LogNormal.mean_one(0.5)] * 2)
    rep = duality.check_payoff_symmetry(ind, 1, "basket", rng=make_rng(75), n_samples=20_000)
    assert rep.verdict == "fail"
    failing = [p for p in rep.points if p.status == "fail"]
    # a genuine asymmetry survives both confirmation rounds: 20k + 40k + 80k draws
    assert failing and all((p.rounds, p.n_samples) == (2, 140_000) for p in failing)
    assert all((p.rounds, p.n_samples) == (0, 20_000) for p in rep.points if p.status == "pass")


class _ZeroCoordinate:
    """A sampler whose first draw has a zero coordinate."""

    dim = 2

    def sample(self, n, rng):
        out = np.ones((n, 2))
        out[0, 1] = 0.0
        return out


def test_kernel_rejects_nonpositive_draws():
    with pytest.raises(DomainError):
        duality.check_payoff_symmetry(_ZeroCoordinate(), 1, rng=make_rng(76), n_samples=1_000)
    # one draw has no standard error: refused rather than certified
    with pytest.raises(DomainError):
        duality.check_payoff_symmetry(
            dist.MultiLogNormal.jointly_self_dual(2, 0.5), 1, rng=make_rng(76), n_samples=1
        )


def test_confirmation_evaluates_only_the_pending_rows(kernel_workers):
    ind = dist.IndependentProduct([dist.LogNormal.mean_one(0.5)] * 2)
    # a zero weight vector cancels pathwise and passes; the others fail
    vectors = [(0.7, np.zeros(2))] + duality.random_test_vectors(make_rng(77), 2, "basket", 4)
    labels, evaluate, scales = duality._test_vector_group("basket", 1, vectors)
    draws = collections.Counter()

    def counted(cols, rows, levels):
        draws.update({int(k): cols.shape[1] for k in rows})
        return evaluate(cols, rows, levels)

    first = duality._Draw(ind, 20_000, make_rng(78))
    group = (labels, counted, scales)
    points = duality._confirmed_mc_points([group], first, make_rng(79))
    assert {p.rounds for p in points} == {0, 2}
    # each row was evaluated on exactly the draws its point pools
    assert [draws[k] for k in range(len(points))] == [p.n_samples for p in points]


def _forked_points(model, n_samples):
    return duality.check_payoff_symmetry(model, 1, rng=make_rng(81), n_samples=n_samples).points


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_kernel_runs_in_a_forked_child(monkeypatch):
    # the parent's kernel threads do not exist in a forked child
    monkeypatch.setattr(duality, "WORKERS", max(duality.WORKERS, 2))
    mln = dist.MultiLogNormal.jointly_self_dual(2, 0.5)
    want = _forked_points(mln, 50_000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_forked_points, (mln, 50_000)).get(timeout=60) == want


class _RecordedDraws:
    """A model whose column-major draws come whole, as one chunk, and are recorded by size."""

    def __init__(self, model):
        self.model, self.dim, self.nbytes = model, model.dim, []

    def column_chunks(self, n, rng):
        cols = self.model.sample_columns(n, rng)
        self.nbytes.append(cols.nbytes)
        yield cols, n


def test_kernel_memory_does_not_grow_with_the_sample_count(kernel_workers):
    model = _RecordedDraws(dist.MultiLogNormal.jointly_self_dual(2, 0.5))

    def peak_beyond_draws(n_samples):
        model.nbytes.clear()
        tracemalloc.start()
        try:
            duality.check_payoff_symmetry(model, 1, rng=make_rng(80), n_samples=n_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.nbytes) == 1  # no confirmation batch
        return peak - model.nbytes[0]

    peak_beyond_draws(400_000)  # every kernel thread takes blocks and sizes its buffers
    assert peak_beyond_draws(400_000) <= 1.2 * peak_beyond_draws(100_000)


# the negative control, so the confirmation batches are streamed too
_NEGATIVE = dist.MultiLogNormal([-0.125, -0.125], [[0.25, 0.0], [0.0, 0.25]])
# near-equal sampling chunks whose edges fall inside kernel blocks
_STREAMED_N = 3 * dist.SAMPLE_BLOCK + 17


def test_streamed_draws_give_the_points_of_the_whole_draw(kernel_workers):
    chunk_edges = [ready for _, ready in _NEGATIVE.column_chunks(_STREAMED_N, make_rng(83))]
    assert len(chunk_edges) == 4 and all(edge % duality.BLOCK for edge in chunk_edges)
    for check in (
        lambda model: duality.check_payoff_symmetry(model, 1, rng=make_rng(83), n_samples=_STREAMED_N),
        lambda model: duality.check_joint_self_duality(model, make_rng(84), n_samples=_STREAMED_N),
    ):
        streamed = check(_NEGATIVE).points
        # a model that yields its whole draw as one chunk hands the kernel every block at once
        assert streamed == check(_RecordedDraws(_NEGATIVE)).points
        assert max(p.rounds for p in streamed) == 2


def test_every_draw_is_made_on_the_calling_thread(kernel_workers, monkeypatch):
    threads = set()

    def recorded(draw):
        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return draw(*args, **kwargs)

        return wrapper

    for name in ("standard_normal", "uniform", "poisson", "choice", "multivariate_normal"):
        monkeypatch.setattr(RngStream, name, recorded(getattr(RngStream, name)))
    report = duality.check_payoff_symmetry(_NEGATIVE, 1, rng=make_rng(85), n_samples=_STREAMED_N)
    assert max(p.rounds for p in report.points) == 2
    assert threads == {threading.get_ident()}


class _ZeroInLastChunk:
    """A streamed draw whose last chunk ends in a zero coordinate."""

    def __init__(self, model):
        self.model, self.dim = model, model.dim

    def column_chunks(self, n, rng):
        for cols, ready in self.model.column_chunks(n, rng):
            if ready == n:
                cols[1, -1] = 0.0
            yield cols, ready


def test_a_nonpositive_draw_in_a_later_chunk_is_refused_on_every_worker_count(monkeypatch):
    model, errors, points = _ZeroInLastChunk(_NEGATIVE), [], []
    for workers in (1, max(duality.WORKERS, 2)):
        monkeypatch.setattr(duality, "WORKERS", workers)
        with pytest.raises(DomainError) as refused:
            duality.check_payoff_symmetry(model, 1, rng=make_rng(86), n_samples=_STREAMED_N)
        errors.append(str(refused.value))
        # the pool that raised still serves the next check
        points.append(duality.check_payoff_symmetry(_NEGATIVE, 1, rng=make_rng(86), n_samples=50_000).points)
    assert errors == ["kappa requires strictly positive coordinates"] * 2
    assert points[0] == points[1]


def test_power_scaled_draw_holds_one_batch():
    base = dist.MultiLogNormal.jointly_self_dual(3, 0.5)
    adapter = duality._PowerScaled(base, np.array([0.01, -0.02, 0.03]), 1.7)
    tracemalloc.start()
    try:
        for cols, _ in adapter.column_chunks(800_000, make_rng(87)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * cols.nbytes
    want = (np.exp(adapter.lam)[:, None] * base.sample_columns(800_000, make_rng(87))) ** 1.7
    assert cols.tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
# Density extension
# --------------------------------------------------------------------------- #


def test_extend_recovers_heavy_tail():
    model = duality.extend_self_dual_density(lambda x: x**-3.0, name="ht0")
    assert model.normalizer == pytest.approx(2.0 / 3.0, abs=1e-10)
    ht = dist.HeavyTail(0.0)
    for x in (0.3, 0.9, 1.0, 2.5, 7.0):
        assert model.pdf(x) == pytest.approx(float(ht.pdf(x)), rel=1e-10)
    assert duality.check_density_self_dual(model).verdict == "pass"
    assert model.raw_moment(1.0) == pytest.approx(1.0, abs=1e-8)


def test_extend_recovers_lognormal():
    ln = dist.LogNormal.mean_one(0.5)
    model = duality.extend_self_dual_density(lambda x: float(ln.pdf(x)), name="ln-ext")
    assert model.normalizer == pytest.approx(1.0, abs=1e-10)
    for x in (0.2, 0.8, 1.7, 4.0):
        assert model.pdf(x) == pytest.approx(float(ln.pdf(x)), rel=1e-9)


def test_extend_divergent_tail():
    with pytest.raises(NotIntegrable):
        duality.extend_self_dual_density(lambda x: 1.0, name="flat")
    # integrable mass but divergent mean also fails
    with pytest.raises(NotIntegrable):
        duality.extend_self_dual_density(lambda x: x**-2.0, name="slow")


def test_extension_always_passes_density_criterion():
    model = duality.extend_self_dual_density(lambda x: math.exp(-x), name="exp-tail")
    rep = duality.check_density_self_dual(model, grid=np.geomspace(0.2, 5.0, 11))
    assert rep.verdict == "pass"
    assert rep.max_abs_residual <= 1e-10
    assert model.raw_moment(1.0) == pytest.approx(1.0, abs=1e-8)


# --------------------------------------------------------------------------- #
# Moments and skewness
# --------------------------------------------------------------------------- #


def test_moaccording_identities_lognormal():
    rep = duality.check_moment_and_skewness(dist.LogNormal.mean_one(0.5))
    assert rep.verdict == "pass"
    assert rep.max_abs_residual <= 1e-12
    # log-normal skewness (e^v + 2) sqrt(e^v - 1) at v = 0.25
    v = 0.25
    want = (math.exp(v) + 2.0) * math.sqrt(math.exp(v) - 1.0)
    assert rep.extras["skewness"] == pytest.approx(want, rel=1e-10)


def test_moment_identities_unit_atom():
    rep = duality.check_moment_and_skewness(dist.DiscreteAtoms([(F(1), F(1))]))
    assert rep.verdict == "pass"
    assert rep.extras["skewness"] == 0.0


def test_skewness_strictly_positive_heavy_tail():
    rep = duality.check_moment_and_skewness(dist.HeavyTail(3.0))
    assert rep.verdict == "pass"
    assert rep.extras["skewness"] > 0.1


def test_skewness_of_paper_atoms():
    rep = duality.check_moment_and_skewness(PAPER_ATOMS)
    assert rep.verdict == "pass"
    assert rep.extras["skewness"] == pytest.approx(1.0, abs=1e-12)


def test_moment_check_requires_third_moment():
    with pytest.raises(MomentDiverges):
        duality.check_moment_and_skewness(dist.HeavyTail(1.0))


# --------------------------------------------------------------------------- #
# Quasi-self-duality
# --------------------------------------------------------------------------- #


def test_qsd_lognormal_exact():
    # lambda = sigma^2 (1 - alpha) / 2 with sigma^2 = 0.04, alpha = 0.5
    model = dist.LogNormal.mean_one(0.2)
    rep = duality.check_quasi_self_dual(model, 1, 0.01, 0.5, rng=make_rng(60), n_samples=100_000)
    assert rep.verdict == "pass", rep.one_line()


def test_qsd_reduces_to_self_duality():
    model = dist.LogNormal.mean_one(0.3)
    rep = duality.check_quasi_self_dual(model, 1, 0.0, 1.0)
    exact = [p for p in rep.points if p.std_error == 0.0]
    assert max(abs(p.residual) for p in exact) <= 1e-12


def test_qsd_wrong_order_fails():
    model = dist.LogNormal.mean_one(0.2)
    rep = duality.check_quasi_self_dual(model, 1, 0.01, 0.9)
    assert rep.verdict == "fail"


def test_qsd_multivariate():
    a = 0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])
    model = dist.MultiLogNormal([-0.02, -0.02], a)
    lam = np.array([0.01, 0.01])
    rep = duality.check_quasi_self_dual(model, 1, lam, 0.5, rng=make_rng(61), n_samples=100_000)
    assert rep.verdict == "pass", rep.one_line()


def test_qsd_monte_carlo_path():
    # no closed-form density: the sampler adapter route
    ht = dist.HeavyTail(2.0)
    rep = duality.check_quasi_self_dual(ht, 1, 0.0, 1.0, rng=make_rng(62), n_samples=200_000)
    assert rep.verdict in ("pass", "inconclusive")
    assert rep.max_residual_in_se_units <= 3.5


def test_qsd_requires_nonzero_alpha():
    with pytest.raises(DomainError):
        duality.check_quasi_self_dual(dist.LogNormal.mean_one(0.2), 1, 0.0, 0.0)


# --------------------------------------------------------------------------- #
# Asymmetry correction
# --------------------------------------------------------------------------- #


def test_asymmetry_correction_self_dual():
    model = dist.LogNormal.mean_one(0.5)
    assert duality.asymmetry_correction(model, 1.0, 2.0) == pytest.approx(8.0, rel=1e-12)
    assert duality.asymmetry_correction(model, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    ht = dist.HeavyTail(1.0)
    assert duality.asymmetry_correction(ht, 1.0, 3.0) == pytest.approx(27.0, rel=1e-12)


def test_asymmetry_correction_quasi_self_dual():
    # order 0.5 with carry factor a = e^lambda: q(x) = x^(2 + alpha)
    sigma2, alpha = 0.04, 0.5
    lam = sigma2 * (1.0 - alpha) / 2.0
    model = dist.LogNormal.mean_one(math.sqrt(sigma2))
    for x in (0.5, 2.0, 4.0):
        q = duality.asymmetry_correction(model, math.exp(lam), x)
        assert q == pytest.approx(x ** (2.0 + alpha), rel=1e-10)


def test_asymmetry_correction_zero_density():
    # density extension of a tail supported on [2, inf) vanishes on (1/2, 2)
    tail = lambda x: x**-3.0 if x >= 2.0 else 0.0
    model = duality.extend_self_dual_density(tail, name="gap")
    with pytest.raises(ZeroDensity):
        duality.asymmetry_correction(model, 1.0, 1.5)


def test_confirmation_drops_each_batch_before_drawing_the_next(monkeypatch):
    # both rounds run on the negative control: N first, then 2N, then 4N draws
    monkeypatch.setattr(duality, "WORKERS", 1)
    model = dist.MultiLogNormal([-0.125, -0.125], [[0.25, 0.0], [0.0, 0.25]])
    n = 80_000

    def peak():
        tracemalloc.start()
        try:
            report = duality.check_payoff_symmetry(model, 1, rng=make_rng(82), n_samples=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(p.rounds for p in report.points) == 2
        return peak / (n * model.dim * 8)

    peak()  # first-call allocations do not count
    # in units of N draws: the first batch and round 2's make 5 (6.7 now); also holding
    # round 1's batch while round 2's is drawn makes 7 (8.7)
    assert peak() <= 7.7
