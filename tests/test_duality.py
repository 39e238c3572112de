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

from selfdual import dist, duality, levy, pricing
from selfdual import rng as rng_module
from selfdual.errors import DomainError, MomentDiverges, NotIntegrable, ZeroDensity
from selfdual.quadrature import integrate_positive
from selfdual.rng import RngStream

import lattice_oracle
from conftest import drawn_columns, make_rng

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
    vector = duality.check_density_self_dual(levy.MultiLogNormal([mu], [[0.25]]))
    assert scalar.grid == vector.grid and scalar.verdict == vector.verdict
    assert scalar.verdict == ("pass" if mu == -0.125 else "fail")
    assert np.allclose(scalar.residuals, vector.residuals, rtol=0.0, atol=1e-12)


def test_density_self_dual_multivariate():
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
    for i in (1, 2):
        assert duality.check_density_self_dual(mln, i).verdict == "pass"
    ub = dist.UnitBallMax(2)
    for i in (1, 2):
        assert duality.check_density_self_dual(ub, i).verdict == "pass"
    # single-numeraire symmetry only: SD_1 holds, SD_2 fails
    a = 0.25 * np.array([[1.0, 0.5], [0.5, 2.0]])
    one_sided = levy.MultiLogNormal([-0.125, -0.1], a)
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
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
    for family in ("basket", "max"):
        rep = duality.check_payoff_symmetry(mln, 1, family, rng=make_rng(50), n_samples=200_000)
        assert rep.verdict == "pass", rep.one_line()


def test_payoff_symmetry_zero_weight_vector():
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
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
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
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
    assert duality.check_density_self_dual(dist.LogNormal(mln.drift[0], math.sqrt(mln.a[0, 0]))).verdict == "pass"


def test_product_of_independent_self_duals_is_self_dual():
    a = dist.LogNormal.mean_one(0.5).sample(300_000, make_rng(55))
    b = dist.HeavyTail(2.0).sample(300_000, make_rng(56))
    rep = duality.check_empirical_integrated_tail(a * b)
    assert rep.verdict in ("pass", "inconclusive")
    assert rep.max_residual_in_se_units <= 3.5


def test_default_sample_count_certifies_the_two_asset_family():
    # at 100k draws both checks came out inconclusive on nearly every seed
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
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
    rows = levy.MultiLogNormal.jointly_self_dual(3, 0.5).sample(50_000, make_rng(70))
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
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
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


def confirmation_records(points, n):
    """``(status, rounds, n_samples)`` of each point, having checked the stopping rule:
    a point that does not fail rests on the first ``n`` draws; a failing point pools
    n + 2n + 4n draws, or stops after fewer rounds beyond ``DECISIVE_Z`` SE."""
    for p in points:
        if p.status != "fail":
            assert (p.rounds, p.n_samples) == (0, n)
        elif p.rounds < duality.CONFIRM_ROUNDS:
            assert abs(p.residual) > duality.DECISIVE_Z * p.std_error
            assert p.n_samples == n * (2 ** (p.rounds + 1) - 1)
        else:
            assert (p.rounds, p.n_samples) == (2, 7 * n)
    return {(p.status, p.rounds, p.n_samples) for p in points}


def test_control_confirms_by_pooled_rounds():
    ind = dist.IndependentProduct([dist.LogNormal.mean_one(0.5)] * 2)
    rep = duality.check_payoff_symmetry(ind, 1, "basket", rng=make_rng(75), n_samples=20_000)
    assert rep.verdict == "fail"
    seen = confirmation_records(rep.points, 20_000)
    # a genuine asymmetry stops at its first look, after one round, or survives both
    assert {("fail", r, n) for r, n in ((0, 20_000), (1, 60_000), (2, 140_000))} <= seen


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
            levy.MultiLogNormal.jointly_self_dual(2, 0.5), 1, rng=make_rng(76), n_samples=1
        )


def test_confirmation_evaluates_only_the_pending_rows(kernel_workers, monkeypatch):
    monkeypatch.setattr(duality, "DECISIVE_Z", math.inf)  # every failing point runs both rounds
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


def test_test_vector_labels_from_python_floats_match_the_numpy_scalar_labels():
    # -0.0 keeps its sign, and the half-way decimals round as their binary values do
    edges = [-0.0, 0.0005, 0.0015, 2.675, 2.6745, -0.0005, 1.0005, -2.6745, 1e-300, 0.9995]
    vectors = [(u0, np.roll(edges, -k)[:4]) for k, u0 in enumerate(edges)]
    vectors += duality.random_test_vectors(make_rng(82), 4, "basket", 64)
    labels, _, _ = duality._test_vector_group("basket", 2, vectors)
    first = np.array([np.concatenate(([u0], u)) for u0, u in vectors])
    assert isinstance(first[0, 0], np.float64)
    want = [f"u=({w[0]:.3f}," + ",".join(f"{v:.3f}" for v in w[1:]) + ")" for w in first]
    assert labels == want
    # 0.0005 and 2.6745 lie just above their half-way points, 1.0005 just below
    assert labels[0] == "u=(-0.000,-0.000,0.001,0.002,2.675)"
    assert labels[6] == "u=(1.000,1.000,-2.675,0.000,1.000)"


def _forked_points(model, n_samples):
    return duality.check_payoff_symmetry(model, 1, rng=make_rng(81), n_samples=n_samples).points


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_kernel_runs_in_a_forked_child(monkeypatch):
    # the parent's kernel threads do not exist in a forked child
    monkeypatch.setattr(duality, "WORKERS", max(duality.WORKERS, 2))
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
    want = _forked_points(mln, 50_000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_forked_points, (mln, 50_000)).get(timeout=60) == want


class _RecordedDraws:
    """A model whose column-major draws come whole, as one chunk, and are recorded by size."""

    def __init__(self, model):
        self.model, self.dim, self.nbytes = model, model.dim, []

    def column_chunks(self, n, rng):
        cols = drawn_columns(self.model, n, rng)
        self.nbytes.append(cols.nbytes)
        yield cols, n


def test_kernel_memory_does_not_grow_with_the_sample_count(kernel_workers):
    model = _RecordedDraws(levy.MultiLogNormal.jointly_self_dual(2, 0.5))

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


# a negative control on i.i.d. draws, so the confirmation batches are streamed too:
# independent log-normals with a small atom, a jump law, which the checks draw from PCG64
_NEGATIVE = levy.martingale_normalized(
    [[0.25, 0.0], [0.0, 0.25]], levy.JumpMeasure(atoms=(([0.05, 0.0], 0.1),))
)
# the same without the atom: a jump-free law, which the checks draw on a lattice
_NEGATIVE_LATTICE = levy.MultiLogNormal([-0.125, -0.125], [[0.25, 0.0], [0.0, 0.25]])
# near-equal sampling chunks whose edges fall inside kernel blocks
_STREAMED_N = 3 * levy.SAMPLE_BLOCK + 17


def test_streamed_draws_give_the_points_of_the_whole_draw(kernel_workers, monkeypatch):
    monkeypatch.setattr(duality, "DECISIVE_Z", math.inf)  # every failing point runs both rounds
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


def test_a_decisive_failure_stops_at_its_look(monkeypatch):
    # normal differences of SD 0.01 shifted by a known mean: z grows as sqrt(draws)
    shifts = np.array([1.0, 0.055, 0.035, 0.0])
    group = (
        [f"shift={s}" for s in shifts],
        lambda cols, rows, levels: (0.01 * (np.log(cols[0]) + shifts[rows, None]), None),
        [1.0] * len(shifts),
    )
    model = levy.MultiLogNormal([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    runs = []
    for z in (math.inf, duality.DECISIVE_Z):  # the default last, for the checks below
        monkeypatch.setattr(duality, "DECISIVE_Z", z)
        first = duality._Draw(model, 20_000, make_rng(87))
        runs.append(duality._confirmed_mc_points([group], first, make_rng(88)))
    confirmed, decided = runs
    assert [p.status for p in decided] == [p.status for p in confirmed] == ["fail"] * 3 + ["pass"]
    # beyond 10 SE on the first 20k draws; after the first round's 40k more; borderline throughout
    assert [(p.rounds, p.n_samples) for p in decided] == [
        (0, 20_000), (1, 60_000), (2, 140_000), (0, 20_000)
    ]
    assert [p.rounds for p in confirmed] == [2, 2, 2, 0]
    assert decided[2:] == confirmed[2:]
    confirmation_records(decided, 20_000)


@pytest.mark.parametrize("seed", range(20))
def test_a_positive_control_never_meets_the_boundary(seed, monkeypatch):
    mln = levy.MultiLogNormal.jointly_self_dual(2, 0.5)
    runs = []
    for z in (math.inf, duality.DECISIVE_Z):
        monkeypatch.setattr(duality, "DECISIVE_Z", z)
        rng = RngStream(seed)
        payoff = duality.check_payoff_symmetry(mln, 1, rng=rng.child(0), n_samples=20_000)
        joint = duality.check_joint_self_duality(mln, rng.child(1), n_samples=20_000)
        runs.append(payoff.points + joint.points)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(10))
def test_the_boundary_keeps_every_status_of_the_negative_control(seed, monkeypatch):
    runs = []
    for z in (math.inf, duality.DECISIVE_Z):  # the default last, for the checks below
        monkeypatch.setattr(duality, "DECISIVE_Z", z)
        runs.append(duality.check_payoff_symmetry(_NEGATIVE, 1, rng=RngStream(seed), n_samples=20_000))
    confirmed, decided = runs
    assert decided.verdict == confirmed.verdict == "fail"
    assert [p.status for p in decided.points] == [p.status for p in confirmed.points]
    confirmation_records(decided.points, 20_000)


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
    # the lattice's shifts too, for a first look and the looks that confirm it
    first = duality._draw(_NEGATIVE_LATTICE, 200_000, make_rng(85))
    assert max(p.rounds for p in duality._confirmed_mc_points([_NOISY], first, make_rng(86))) == 3
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
    base = levy.MultiLogNormal.jointly_self_dual(3, 0.5)
    adapter = duality._PowerScaled(base, np.array([0.01, -0.02, 0.03]), 1.7)
    tracemalloc.start()
    try:
        for cols, _ in adapter.column_chunks(800_000, make_rng(87)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * cols.nbytes
    want = (np.exp(adapter.lam)[:, None] * drawn_columns(base, 800_000, make_rng(87))) ** 1.7
    assert cols.tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
# Lattice draws of a jump-free law
# --------------------------------------------------------------------------- #

# an oscillating statistic that a lattice does not smooth, inconclusive at every look,
# beside one that cancels exactly
_NOISY = (
    ["noisy", "flat"],
    lambda cols, rows, levels: (np.stack([np.sin(1e4 * cols[0]), 0.0 * cols[0]])[rows], None),
    [1.0, 1.0],
)


def test_ndtri_matches_scipy_from_1e_300_to_one_ulp_below_one():
    from scipy.special import ndtri

    p = np.concatenate([
        np.geomspace(1e-300, 0.5, 2000),
        1.0 - np.geomspace(2.0**-53, 0.5, 2000),
        np.linspace(0.0, 1.0, 2001)[1:-1],
    ])
    want = ndtri(p)
    assert np.all(np.abs(rng_module.ndtri(p) - want) <= 1e-15 * np.abs(want))
    assert rng_module.ndtri(np.array([0.5])).tolist() == [0.0]


def test_ndtri_is_within_5e_16_of_the_exact_quantile():
    # scipy's ndtri is off by 8.2e-16 at p = 0.1387, so the check above has little room there
    mpmath = pytest.importorskip("mpmath")
    p = np.concatenate(
        [np.geomspace(1e-300, 0.4, 30), np.linspace(0.01, 0.99, 99), [0.1387, 1 - 2.0**-53]]
    )
    want = []
    for v in p:
        with mpmath.workdps(40 - int(math.log10(v))):  # digits enough for 2p - 1 to keep p
            want.append(float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v) - 1)))
    want = np.array(want)
    assert np.all(np.abs(rng_module.ndtri(p) - want) <= 5e-16 * np.abs(want))


def _polyval_ratio(coefs, x):
    """The AS241 ratio by ``np.polyval``: the oracle of ``rng._ratio``'s Horner loop."""
    num, den = coefs
    return np.polyval(num[::-1], x) / np.polyval(den[::-1], x)


def test_ndtri_is_bit_equal_to_its_polyval_form_on_a_dense_grid(monkeypatch):
    p = np.concatenate([
        np.linspace(2.0**-20, 1 - 2.0**-20, 400_001),
        np.geomspace(1e-300, 0.5, 100_001),
        1 - np.geomspace(2.0**-53, 0.5, 100_001),
        [5e-324, 1e-300, math.exp(-25.0), 0.075, 0.5, 0.925, 1 - 2.0**-53],  # region edges
    ])
    got = rng_module.ndtri(p)
    monkeypatch.setattr(rng_module, "_ratio", _polyval_ratio)
    want = rng_module.ndtri(p)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()


def _ndtri_grid():
    """Dense in the centre, geometric into both tails, and the region edges."""
    return np.concatenate([
        np.linspace(2.0**-20, 1 - 2.0**-20, 400_001),
        np.geomspace(1e-300, 0.5, 100_001),
        1 - np.geomspace(2.0**-53, 0.5, 100_001),
        [5e-324, 1e-300, math.exp(-25.0), 0.075, 0.5, 0.925, 1 - 2.0**-53],
    ])


def test_ndtri_is_bit_equal_to_its_gathered_form():
    p = np.concatenate([_ndtri_grid(), np.random.default_rng(3).random(200_000)])
    assert rng_module.ndtri(p).tobytes() == lattice_oracle.ndtri(p).tobytes()
    for v in (0.5, 0.01, 0.3, 1 - 1e-12):  # a 0-d quantile stays 0-d
        got = rng_module.ndtri(v)
        assert got.shape == () and got.tobytes() == lattice_oracle.ndtri(v).tobytes()


@pytest.mark.parametrize("far", [True, False], ids=["far-tail", "no-far-tail"])
def test_ndtri_is_bit_equal_to_its_gathered_form_with_and_without_far_tail_points(far):
    # central, near-tail and (or not) far-tail points in one array: p within exp(-25)
    # of 0 or 1 takes AS241's far ratio, which overwrites the near ratio ndtri takes there
    g = np.random.default_rng(4)
    p = np.concatenate([
        g.random(5_000),
        np.geomspace(math.exp(-24.9), 0.075, 2_001),
        1 - np.geomspace(math.exp(-24.9), 0.075, 2_001),
        np.geomspace(1e-300, math.exp(-25.1), 2_001) if far else [],
        [1e-300, 5e-324, math.exp(-25.1)] if far else [math.exp(-24.9), 0.5],
    ])
    g.shuffle(p)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    assert np.any(r > 5.0) == far and np.any((r > 1.0) & (r <= 5.0))
    want = lattice_oracle.ndtri(p)
    assert rng_module.ndtri(p).tobytes() == want.tobytes()
    assert rng_module.ndtri(p, out=p).tobytes() == want.tobytes()


def test_ndtri_in_place_equals_ndtri_of_a_copy():
    p = _ndtri_grid()
    want = rng_module.ndtri(p.copy())
    assert rng_module.ndtri(p, out=p) is p
    assert p.tobytes() == want.tobytes()


def test_the_central_ratio_raises_no_floating_point_error_on_the_tails():
    # ndtri evaluates the central formula at every point before the tails overwrite theirs
    p = _ndtri_grid()
    q = p[np.abs(p - 0.5) > 0.425] - 0.5
    with np.errstate(all="raise"):
        central = q * rng_module._ratio(rng_module._AS241[0], 0.180625 - q * q)
        rng_module.ndtri(p)
    assert len(q) > 200_000 and np.all(np.isfinite(central))


def _lattice_shifts(points: int, dim: int, seed: int):
    """Uniform shifts, the edges 0 and 1 - 2^-53, and shifts that move a lattice point
    exactly onto 1."""
    base = np.arange(points) * rng_module.korobov(points, dim)[:, None] % points / points
    g = np.random.default_rng(seed)
    onto_one = 1.0 - base[:, g.integers(1, points, size=4)].T
    shifts = np.concatenate([g.random((16, dim)), np.zeros((1, dim)), [[1 - 2.0**-53] * dim], onto_one])
    assert np.any(base[:, None, :] + onto_one.T[:, :, None] == 1.0)
    return shifts


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_lattice_normals_are_bit_equal_to_the_wrapped_form(dim):
    for points in (251, 509):
        shifts = _lattice_shifts(points, dim, 100 * dim + points)
        shape = (dim, len(shifts) * points)
        got = rng_module.lattice_normals(points, shifts, np.empty(shape))
        want = lattice_oracle.lattice_normals(points, shifts, np.empty(shape))
        assert got.tobytes() == want.tobytes()


def test_lattice_normals_are_finite_at_every_shift():
    out = np.empty((3, 4 * 509))
    shifts = np.array(
        [[0.0, 0.5, 1.0 - 2.0**-53], [0.25, 0.75, 1e-300], [0.5, 0.0, 0.5], [0.1, 0.2, 0.3]]
    )
    z = rng_module.lattice_normals(509, shifts, out)
    assert z is out and np.all(np.isfinite(z)) and np.max(np.abs(z)) <= 8.3


def test_lattice_z_scores_of_closed_form_expectations_have_unit_spread():
    model = levy.MultiLogNormal([-0.125, -0.08], [[0.25, 0.1], [0.1, 0.16]])
    call = pricing.price(dist.LogNormal(-0.125, 0.5), pricing.BasketCall((1.0,), 1.1)).value

    def evaluate(cols, rows, levels):
        diffs = np.stack([cols[0] - 1.0, cols[1] - 1.0, np.maximum(cols[0] - 1.1, 0.0) - call])
        return diffs[rows], None

    group, z = (["E eta_1", "E eta_2", "call"], evaluate, [1.0] * 3), []
    for seed in range(200):  # first looks, each of LATTICE_SHIFTS fresh shifts
        first = duality._draw(model, duality.DEFAULT_SAMPLES, RngStream(seed))
        ((stats, _),) = duality._block_moments([group], [np.arange(3)], first, False)
        assert stats.n == duality.LATTICE_SHIFTS
        points = [duality._mc_point("", stats.take(k), 1.0) for k in range(3)]
        z.append([p.residual / p.std_error for p in points])
    sd = np.std(z, axis=0, ddof=1)
    assert np.all((0.8 <= sd) & (sd <= 1.25)), sd


def test_lattice_looks_extend_an_undecided_point_up_to_the_cap(kernel_workers, monkeypatch):
    first = duality._draw(_NEGATIVE_LATTICE, 200_000, make_rng(90))
    assert (first.width, first.n) == (251, 64 * 251)
    noisy, flat = duality._confirmed_mc_points([_NOISY], first, make_rng(91))
    # looks of 64, 128, 256 and the cap's last 348 shifts: 796 * 251 = 199,796 draws
    records = [(p.status, p.rounds, p.replicates, p.n_samples) for p in (noisy, flat)]
    assert records == [("inconclusive", 3, 796, 199_796), ("pass", 0, 64, 64 * 251)]
    # the confirmation looks fill one buffer of the calling thread, held from look to look:
    # made at the first look for the largest, as a buffer that grew would move, and free a
    # hole in the heap
    monkeypatch.setattr(duality._LOCAL, "buffers", {}, raising=False)  # as on a fresh thread
    looks = [first.look(k, make_rng(92)) for k in (1, 2, 3)]
    assert [look.n // 251 for look in looks] == [128, 256, 348]
    assert first.look(4, make_rng(92)) is None
    assert looks[0].cols.base is looks[2].cols.base is duality._LOCAL.buffers["look"]
    assert duality._LOCAL.buffers["look"].size == 2 * 348 * 251


def test_a_cap_below_the_first_look_shrinks_the_lattice():
    first = duality._draw(_NEGATIVE_LATTICE, 2_000, make_rng(93))
    assert (first.width, first.first, first.n) == (31, 64, 1_984)
    assert first.look(1, make_rng(94)) is None
    report = duality.check_payoff_symmetry(_NEGATIVE_LATTICE, 1, rng=make_rng(93), n_samples=2_000)
    assert {(p.n_samples, p.replicates, p.rounds) for p in report.points} == {(1_984, 64, 0)}
    # a jump law stays on i.i.d. draws, replicates of width one that the report does not count
    assert type(duality._draw(_NEGATIVE, 2_000, make_rng(93))) is duality._Draw
    report = duality.check_payoff_symmetry(_NEGATIVE, 1, rng=make_rng(93), n_samples=2_000)
    assert {p.replicates for p in report.points} == {0}


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
    # a multi_lognormal's order is decided by its exponent, as for every triplet
    a = 0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])
    model = levy.MultiLogNormal([-0.02, -0.02], a)
    lam = np.array([0.01, 0.01])
    rep = levy.check_qsd_triplet(model, 1, lam, 0.5)
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
    monkeypatch.setattr(duality, "DECISIVE_Z", math.inf)
    model = levy.MultiLogNormal([-0.125, -0.125], [[0.25, 0.0], [0.0, 0.25]])
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
