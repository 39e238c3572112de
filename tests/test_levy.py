import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from selfdual import cli, levy
from selfdual.duality import KappaMaps
from selfdual.errors import DomainError, NoBracket, PatternViolation, SelfDualError
from selfdual.levy import GaussianPart, JumpMeasure, LevyTriplet

from conftest import make_rng

SIGMA2 = 0.09
A2 = SIGMA2 * np.array([[1.0, 0.5], [0.5, 1.0]])
B2 = 0.04 * np.array([[1.0, 0.5], [0.5, 1.0]])


def sd_gauss_jump_triplet(mass=0.8):
    """Compound Poisson with Gaussian-law jumps, self-dual for numeraire 1."""
    nu = levy.build_tilted_gaussian_measure(B2, 1.0, mass, 1)
    return levy.martingale_normalized(A2, nu)


def sd_atom_triplet():
    atoms = (
        (np.array([0.3, 0.1]), 0.2),
        (np.array([-0.3, -0.2]), 0.2 * math.exp(0.3)),
    )
    return levy.martingale_normalized(A2, JumpMeasure(atoms=atoms))


# --------------------------------------------------------------------------- #
# Norm and characteristic exponent
# --------------------------------------------------------------------------- #


def test_triple_norm_univariate_is_euclidean():
    for u in (-2.0, -0.3, 0.0, 1.7):
        assert levy.triple_norm([u], 1) == pytest.approx(abs(u), abs=1e-15)


def test_triple_norm_example():
    # u = (1, 0), K_1 u = (-1, -1): |||u|||^2 = (1 + 2)/2
    assert levy.triple_norm([1.0, 0.0], 1) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert levy.triple_norm([0.0, 0.0], 2) == 0.0


@pytest.mark.parametrize("i", [0, 3])
def test_triple_norm_refuses_an_index_out_of_range(i):
    # index 0 used to read u[-1]
    with pytest.raises(DomainError, match=f"numeraire index {i} out of range 1..2"):
        levy.triple_norm([1.0, 0.5], i)


@pytest.mark.parametrize("convention", ["mean", "truncated"])
def test_a_triplet_refuses_a_norm_index_out_of_range(convention):
    nu = JumpMeasure(atoms=(([0.3, 0.1], 0.2),))
    with pytest.raises(DomainError, match="norm_index 3 out of range 1..2"):
        LevyTriplet(0.04 * np.eye(2), nu, np.zeros(2), convention, norm_index=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=4), st.integers(1, 4))
def test_triple_norm_K_invariance(u, i):
    u = np.asarray(u)
    i = 1 + (i - 1) % u.size
    k = KappaMaps(u.size, i).K(u)
    assert levy.triple_norm(u, i) == pytest.approx(levy.triple_norm(k, i), rel=1e-12)


def test_char_exponent_gaussian_reduction():
    t = LevyTriplet(A2, drift=np.array([0.1, -0.2]))
    u = np.array([0.7, -1.3])
    want = 1j * (u @ t.drift) - 0.5 * (u @ A2 @ u)
    assert levy.char_exponent(t, u) == pytest.approx(want, abs=1e-15)
    assert levy.char_exponent(t, np.zeros(2)) == 0.0


def test_char_exponent_martingale_normalisation():
    t = sd_gauss_jump_triplet()
    for j in (1, 2):
        e = np.zeros(2)
        e[j - 1] = -1.0
        assert abs(levy.char_exponent(t, 1j * e)) <= 1e-12


def test_char_exponent_wrong_length():
    t = LevyTriplet(A2, drift=np.zeros(2))
    with pytest.raises(DomainError):
        levy.char_exponent(t, np.zeros(3))


def test_char_exponent_convention_invariance():
    # drift re-parametrisation leaves the exponent unchanged
    atoms = ((np.array([0.4, 0.9]), 0.3), (np.array([-1.4, 0.2]), 0.5))
    base = levy.martingale_normalized(A2, JumpMeasure(atoms=atoms))
    trunc = levy.convert_convention(base, "truncated")
    eucl = levy.convert_convention(base, "truncated_euclidean")
    back = levy.convert_convention(trunc, "mean")
    assert np.allclose(back.drift, base.drift, atol=1e-15)
    gen = np.random.default_rng(5)
    for _ in range(10):
        u = gen.uniform(-3, 3, 2) + 1j * gen.uniform(-0.5, 0.5, 2)
        a = levy.char_exponent(base, u)
        assert levy.char_exponent(trunc, u) == pytest.approx(a, abs=1e-12)
        assert levy.char_exponent(eucl, u) == pytest.approx(a, abs=1e-12)


def test_gaussian_jump_requires_mean_convention():
    nu = levy.build_tilted_gaussian_measure(B2, 1.0, 1.0, 1)
    with pytest.raises(DomainError):
        LevyTriplet(A2, nu, drift=np.zeros(2), convention="truncated")


@pytest.mark.parametrize("convention", levy.CONVENTIONS)
@pytest.mark.parametrize("length", [1, 3])
def test_drift_must_match_the_dimension(convention, length):
    # downstream, a short drift goes unnoticed and a long one fails only when increments are drawn
    with pytest.raises(DomainError, match="drift must have length 2"):
        LevyTriplet(A2, drift=np.full(length, 0.1), convention=convention)


# --------------------------------------------------------------------------- #
# Esscher transform
# --------------------------------------------------------------------------- #


def test_esscher_identity_at_zero():
    t = sd_gauss_jump_triplet()
    t0 = levy.esscher(t, np.zeros(2))
    assert np.allclose(t0.drift, t.drift, atol=0)
    assert t0.nu.gaussian.mass == pytest.approx(t.nu.gaussian.mass, rel=1e-15)


def test_esscher_tilts_atom_mass():
    nu = JumpMeasure(atoms=((np.array([1.0]), 0.7),))
    t = LevyTriplet([[0.0]], nu, drift=np.zeros(1))
    tilted = levy.esscher(t, np.array([0.5]))
    assert tilted.nu.atoms[0][1] == pytest.approx(0.7 * math.exp(0.5), rel=1e-15)


def test_esscher_round_trip_and_A_invariance():
    theta = np.array([0.4, -0.7])
    for t in (sd_gauss_jump_triplet(), sd_atom_triplet()):
        back = levy.esscher(levy.esscher(t, theta), -theta)
        assert np.allclose(back.a, t.a, atol=0)
        assert np.allclose(back.drift, t.drift, atol=1e-12)
        for (x, m), (y, w) in zip(back.nu.atoms, t.nu.atoms):
            assert np.allclose(x, y) and m == pytest.approx(w, rel=1e-12)
    # truncated-convention path (atoms only)
    atoms = ((np.array([0.4, 0.9]), 0.3), (np.array([-1.4, 0.2]), 0.5))
    t = levy.martingale_normalized(A2, JumpMeasure(atoms=atoms), convention="truncated")
    back = levy.esscher(levy.esscher(t, theta), -theta)
    assert np.allclose(back.drift, t.drift, atol=1e-12)


def test_esscher_matches_char_exponent_shift():
    # psi_tilted(u) = psi(u - i theta) - psi(-i theta)
    t = sd_gauss_jump_triplet()
    theta = np.array([0.3, 0.2])
    tilted = levy.esscher(t, theta)
    gen = np.random.default_rng(6)
    for _ in range(10):
        u = gen.uniform(-2, 2, 2)
        lhs = levy.char_exponent(tilted, u)
        rhs = levy.char_exponent(t, u - 1j * theta) - levy.char_exponent(t, -1j * theta)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# --------------------------------------------------------------------------- #
# Triplet symmetry conditions
# --------------------------------------------------------------------------- #


def test_black_scholes_triplet_is_self_dual():
    t = levy.martingale_normalized(A2)
    rep = levy.check_sd_triplet(t, 1)
    assert rep.verdict == "pass"
    assert rep.max_abs_residual <= 1e-12


def test_compound_poisson_gaussian_triplet_is_self_dual():
    rep = levy.check_sd_triplet(sd_gauss_jump_triplet(), 1)
    assert rep.verdict == "pass" and rep.max_abs_residual <= 1e-10


def test_atom_triplet_is_self_dual():
    rep = levy.check_sd_triplet(sd_atom_triplet(), 1)
    assert rep.verdict == "pass" and rep.max_abs_residual <= 1e-12


def test_diagonal_covariance_fails_condition_one():
    t = levy.martingale_normalized(SIGMA2 * np.eye(2))
    rep = levy.check_sd_triplet(t, 1)
    assert rep.verdict == "fail"
    failing = [p.label for p in rep.points if p.status == "fail"]
    assert all(label.startswith("(1)") for label in failing)


def test_drift_perturbation_fails_condition_three():
    t = sd_gauss_jump_triplet()
    bad = LevyTriplet(t.a, t.nu, drift=t.drift + np.array([1e-3, 0.0]))
    rep = levy.check_sd_triplet(bad, 1)
    failing = [p.label for p in rep.points if p.status == "fail"]
    assert failing == ["(3) drift[i] - compensator"]


def test_unmatched_atom_fails_condition_two():
    atoms = ((np.array([0.3, 0.1]), 0.2),)  # reflection partner missing
    t = levy.martingale_normalized(A2, JumpMeasure(atoms=atoms))
    rep = levy.check_sd_triplet(t, 1)
    failing = [p.label for p in rep.points if p.status == "fail"]
    assert any(label.startswith("(2) atom") for label in failing)


def test_qsd_triplet_lognormal_relation():
    # nu = 0: QSD_i(lambda, alpha) iff lambda = sigma^2 (1 - alpha) / 2
    sigma2, alpha = 0.04, 0.5
    t = levy.martingale_normalized([[sigma2]])
    lam = sigma2 * (1.0 - alpha) / 2.0
    assert levy.check_qsd_triplet(t, 1, lam, alpha).verdict == "pass"
    assert levy.check_qsd_triplet(t, 1, lam + 1e-3, alpha).verdict == "fail"


def test_qsd_reduces_to_sd():
    t = sd_gauss_jump_triplet()
    rep = levy.check_qsd_triplet(t, 1, 0.0, 1.0)
    assert rep.verdict == "pass"


def test_qsd_tilted_gaussian_fixture():
    alpha, lam_gauss = 0.5, math.exp(0.25) - 1.0
    nu = levy.build_tilted_gaussian_measure([[1.0]], alpha, 1.0, 1)
    t = levy.martingale_normalized([[0.0]], nu)
    rep = levy.check_qsd_triplet(t, 1, lam_gauss, alpha)
    assert rep.verdict == "pass", rep.one_line()


def test_sd_char_function_bridge():
    # condition (viii): the exponent is invariant under K_i^T at shift -i/2
    maps = KappaMaps(2, 1)
    shift = -0.5j * np.array([1.0, 0.0])
    gen = np.random.default_rng(7)
    for t in (levy.martingale_normalized(A2), sd_gauss_jump_triplet(), sd_atom_triplet()):
        worst = 0.0
        for _ in range(50):
            u = gen.uniform(-3, 3, 2)
            lhs = levy.char_exponent(t, u + shift)
            rhs = levy.char_exponent(t, maps.K_transpose(u) + shift)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10


def test_qsd_char_identity_with_carry():
    # phi(u - (alpha/2) i e_i) = phi(K^T u - (alpha/2) i e_i) e^{-i lam (sum u + u_i)}
    alpha, lam = 0.5, math.exp(0.25) - 1.0
    nu = levy.build_tilted_gaussian_measure([[1.0]], alpha, 1.0, 1)
    t = levy.martingale_normalized([[0.0]], nu)
    gen = np.random.default_rng(8)
    for _ in range(25):
        u = gen.uniform(-3, 3, 1)
        lhs = levy.char_exponent(t, u - 0.5j * alpha * np.ones(1))
        rhs = levy.char_exponent(t, -u - 0.5j * alpha * np.ones(1)) - 1j * lam * 2 * u[0]
        assert abs(lhs - rhs) <= 1e-10


# --------------------------------------------------------------------------- #
# Martingale drift
# --------------------------------------------------------------------------- #


def test_martingale_drift_no_jumps():
    t = LevyTriplet(A2, drift=np.zeros(2))
    for j in (1, 2):
        assert levy.martingale_drift(t, j) == pytest.approx(-0.5 * A2[j - 1, j - 1], abs=1e-15)


def test_martingale_drift_single_atom():
    nu = JumpMeasure(atoms=((np.array([0.1]), 2.0),))
    t = LevyTriplet([[0.04]], nu, drift=np.zeros(1))
    want = -2.0 * (math.exp(0.1) - 1.0 - 0.1) - 0.02
    assert levy.martingale_drift(t, 1) == pytest.approx(want, rel=1e-14)


def test_martingale_drift_equals_sd_condition_three():
    # with alpha = 1, lambda = 0 and nu satisfying (2), the martingale drift
    # coincides with the drift condition value
    t = sd_gauss_jump_triplet()
    rep = levy.check_sd_triplet(t, 1)
    assert rep.verdict == "pass"
    assert levy.martingale_drift(t, 1) == pytest.approx(float(t.drift[0]), abs=1e-14)


# --------------------------------------------------------------------------- #
# Tilted Gaussian measures
# --------------------------------------------------------------------------- #


def test_tilted_gaussian_univariate_parameters():
    beta2, alpha = 0.25, 0.7
    nu = levy.build_tilted_gaussian_measure([[beta2]], alpha, 1.0, 1)
    g = nu.gaussian
    assert g.mean[0] == pytest.approx(-alpha * beta2 / 2.0, rel=1e-15)
    assert g.cov[0, 0] == beta2 and g.mass == 1.0


def test_tilted_gaussian_zero_order_is_invariant():
    nu = levy.build_tilted_gaussian_measure(B2, 0.0, 2.0, 1)
    assert np.allclose(nu.gaussian.mean, 0.0, atol=0)


def test_tilted_gaussian_pattern_violation():
    with pytest.raises(PatternViolation):
        levy.build_tilted_gaussian_measure(0.04 * np.eye(2), 1.0, 1.0, 1)


def test_tilted_gaussian_reflection_density_ratio():
    # d nu(x) = e^{-alpha x_i} d nu(K_i x) pointwise on a grid
    alpha = 0.6
    nu = levy.build_tilted_gaussian_measure(B2, alpha, 1.3, 1)
    g = nu.gaussian
    prec = np.linalg.inv(g.cov)
    norm = g.mass / (2.0 * math.pi * math.sqrt(np.linalg.det(g.cov)))

    def dens(x):
        y = x - g.mean
        return norm * math.exp(-0.5 * float(y @ prec @ y))

    maps = KappaMaps(2, 1)
    gen = np.random.default_rng(9)
    for _ in range(100):
        x = gen.uniform(-0.6, 0.6, 2)
        lhs = dens(x)
        rhs = math.exp(-alpha * x[0]) * dens(maps.K(x))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + lhs)


# --------------------------------------------------------------------------- #
# Order solver
# --------------------------------------------------------------------------- #


def test_lambert_w0_values():
    assert levy.lambert_w0(0.0) == 0.0
    assert levy.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)
    assert levy.lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    # Newton-iteration oracle for W(1)
    w = 0.5
    for _ in range(60):
        w = w - (w * math.exp(w) - 1.0) / (math.exp(w) * (1.0 + w))
    assert levy.lambert_w0(1.0) == pytest.approx(w, abs=1e-12)
    assert levy.lambert_w0(1.0) == pytest.approx(0.5671432904, abs=1e-10)


def test_lambert_w0_residual_bound():
    gen = np.random.default_rng(10)
    for x in np.concatenate([gen.uniform(-1 / math.e, 5, 50), gen.uniform(5, 1e6, 20)]):
        w = levy.lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-14 * (1.0 + abs(x))
    with pytest.raises(DomainError):
        levy.lambert_w0(-1.0 / math.e - 1e-9)


def test_lambert_w0_at_large_arguments():
    # a hand-written Halley iteration failed to converge on about a quarter of these
    for x in np.concatenate([[5.2e57], np.geomspace(5.1e57, 1e300, 2_000)]):
        w = levy.lambert_w0(float(x))
        assert w + math.log(w) == pytest.approx(math.log(x), rel=1e-15)


def test_solve_alpha_closed_lognormal():
    t = levy.martingale_normalized([[0.04]])
    sol = levy.solve_alpha(t, 1, 0.01)
    assert sol.method == "closed_lognormal"
    assert sol.alpha == 0.5
    assert len(sol.roots) == 1
    assert abs(sol.roots[0] - 0.5) <= 1e-12


def test_solve_alpha_closed_laplace():
    nu = levy.build_tilted_gaussian_measure([[1.0]], 0.5, 1.0, 1)
    t = levy.martingale_normalized([[0.0]], nu)
    sol = levy.solve_alpha(t, 1, math.exp(0.25) - 1.0)
    assert sol.method == "closed_laplace"
    assert sol.alpha == pytest.approx(0.5, abs=1e-10)
    assert abs(sol.roots[0] - sol.alpha) <= 1e-10


def test_solve_alpha_closed_lambertw():
    sigma2, beta2, lam = 0.04, 1.0, 0.01
    z = beta2 / sigma2 * math.exp(beta2 * (lam + 1.0) / sigma2)
    alpha_star = 2.0 * levy.lambert_w0(z) / beta2 + 1.0 - 2.0 * (lam + 1.0) / sigma2
    nu = levy.build_tilted_gaussian_measure([[beta2]], alpha_star, 1.0, 1)
    t = levy.martingale_normalized([[sigma2]], nu)
    sol = levy.solve_alpha(t, 1, lam)
    assert sol.method == "closed_lambertw"
    assert sol.alpha == pytest.approx(alpha_star, abs=1e-12)
    assert abs(sol.roots[0] - sol.alpha) <= 1e-10
    assert sol.residual <= 1e-12 * (1.0 + sigma2)


def test_solve_alpha_time_scaling_invariance():
    nu = levy.build_tilted_gaussian_measure([[1.0]], 0.9808575969854374, 1.0, 1)
    t = levy.martingale_normalized([[0.04]], nu)
    base = levy.solve_alpha(t, 1, 0.01)
    for ts in (0.5, 2.0):
        scaled = levy.solve_alpha(t.scaled(ts), 1, 0.01 * ts)
        assert scaled.alpha == pytest.approx(base.alpha, abs=1e-12)


def test_solve_alpha_bracketed_fallback():
    # non-unit mass: no closed form applies, the scan finds the root
    alpha_target = 0.4
    mass = 0.7
    beta2, sigma2 = 1.0, 0.04
    lam = 0.5 * sigma2 * (1 - alpha_target) + mass * (math.exp((1 - alpha_target) * beta2 / 2) - 1)
    nu = levy.build_tilted_gaussian_measure([[beta2]], alpha_target, mass, 1)
    t = levy.martingale_normalized([[sigma2]], nu)
    sol = levy.solve_alpha(t, 1, lam)
    assert sol.method == "bracketed_root"
    assert sol.alpha == pytest.approx(alpha_target, abs=1e-10)
    assert sol.bracket is not None


def test_solve_alpha_atoms():
    # single-sided atom fixture solved against a hand-built equation
    x, m, sigma2 = 0.25, 1.5, 0.09
    atoms = ((np.array([x]), m),)
    t = levy.martingale_normalized([[sigma2]], JumpMeasure(atoms=atoms))
    lam = 0.31

    def g(alpha):
        return (
            sigma2 * alpha
            - sigma2
            + 2 * lam
            - 2 * m * (math.exp(x) - 1.0 - x * math.exp(alpha * x / 2.0))
        )

    sol = levy.solve_alpha(t, 1, lam)
    assert abs(g(sol.alpha)) <= 1e-12


def test_solve_alpha_monotone_equation_has_unique_root():
    # g'(alpha) = a_ii + int x^2 e^(alpha x/2) d nu > 0: one root at most
    for t, lam in [
        (sd_gauss_jump_triplet(), 0.05),
        (levy.martingale_normalized([[0.04]]), 0.01),
    ]:
        sol = levy.solve_alpha(t, 1, lam)
        assert len(sol.roots) == 1


def test_solve_alpha_no_bracket():
    atoms = ((np.array([-1.0]), 1.0),)
    t = levy.martingale_normalized([[0.0]], JumpMeasure(atoms=atoms))
    with pytest.raises(NoBracket):
        levy.solve_alpha(t, 1, -1.0)


@pytest.mark.parametrize(
    "mean, cov",
    [
        ([0.0], [[-1.0]]),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]),
        ([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]]),
        ([0.0, 0.0], [[1.0]]),
    ],
)
def test_a_gaussian_jump_part_refuses_a_covariance_that_is_not_psd(mean, cov):
    with pytest.raises(DomainError, match="Gaussian jump covariance must be"):
        GaussianPart(mean, cov, 1.0)


def test_a_negative_gaussian_jump_variance_is_a_schema_error(tmp_path, capsys):
    # accepted once, it gave the order equation three roots
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(
        "model: {kind: levy_triplet, a: 0.04, "
        "tilted_gaussian: {cov: -1.0, tilt: 0.5, mass: 1.0, numeraire: 1}}\n"
        "task: {kind: alpha, carry: 0.01}\n"
    )
    assert cli.main(["alpha", str(spec_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "schema error: spec.model.tilted_gaussian: "
        "Gaussian jump covariance must be positive semidefinite\n"
    )


@pytest.mark.parametrize("a", [0.0, 0.04])
def test_solve_alpha_scans_a_unit_gaussian_jump_part_of_zero_variance(a):
    # the closed forms divide by the jump variance, so a zero one raised ZeroDivisionError;
    # the scan solves the part as the atom it is
    t = levy.martingale_normalized([[a]], JumpMeasure(gaussian=GaussianPart([0.5], [[0.0]], 1.0)))
    sol = levy.solve_alpha(t, 1, 0.1)
    want = levy.solve_alpha(levy.martingale_normalized([[a]], JumpMeasure(atoms=(([0.5], 1.0),))), 1, 0.1)
    assert sol.method == "bracketed_root" and sol.alpha == want.alpha and sol.residual <= 1e-12


def _still_in_coordinate_one():
    """Triplets with no diffusion and no jumps in coordinate 1, whose order equation is flat."""
    a = [[0.0, 0.0], [0.0, 0.04]]
    atom = JumpMeasure(atoms=((np.array([0.0, 0.2]), 1.0),))
    gauss = JumpMeasure(gaussian=GaussianPart([0.0, -0.1], [[0.0, 0.0], [0.0, 0.2]], 1.0))
    return [levy.martingale_normalized(a, nu) for nu in (atom, gauss)]


@pytest.mark.parametrize("lam", [0.0, 0.1, -0.2])
def test_solve_alpha_refuses_a_coordinate_with_no_diffusion_and_no_jumps(lam):
    # the atom triplet had every grid point a root at lam = 0 and none elsewhere; the
    # Gaussian one divided by its zero variance in the closed form
    for t in _still_in_coordinate_one():
        with pytest.raises(DomainError, match="coordinate 1 has no diffusion and no jumps"):
            levy.solve_alpha(t, 1, lam)
        assert math.isfinite(levy.solve_alpha(t, 2, lam).alpha)  # coordinate 2 moves


def _oracle_scan_roots(g_fun, lo: float = -50.0, hi: float = 50.0):
    """The scan as one scalar ``g_fun`` call per grid point, then brentq."""
    from scipy.optimize import brentq

    pos = np.geomspace(1e-3, hi, 120)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    grid = grid[(grid >= lo) & (grid <= hi)]
    vals = np.array([g_fun(float(a)) for a in grid])
    roots: list[float] = []
    bracket = None
    for k in range(len(grid) - 1):
        va, vb = vals[k], vals[k + 1]
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue
        if va == 0.0:
            roots.append(float(grid[k]))
            continue
        with np.errstate(over="ignore"):  # a product past the float range keeps its sign
            straddles = va * vb < 0.0
        if straddles:
            r = float(brentq(g_fun, float(grid[k]), float(grid[k + 1]), xtol=1e-15, rtol=8.9e-16))
            roots.append(r)
            if bracket is None:
                bracket = (float(grid[k]), float(grid[k + 1]))
    if math.isfinite(vals[-1]) and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    dedup: list[float] = []
    for r in roots:
        if not any(abs(r - q) <= 1e-9 * (1.0 + abs(q)) for q in dedup):
            dedup.append(r)
    return dedup, bracket


def _random_scalar_triplet(seed):
    """A 1-d triplet: atoms, a Gaussian jump part, diffusion, each or none, and a carry."""
    r = np.random.default_rng(seed)
    a = 0.0 if r.random() < 0.25 else float(r.uniform(0.0, 0.5))
    atoms = tuple(
        # a few atoms far enough out that the grid's ends overflow
        (np.array([r.choice([-1.0, 1.0]) * r.uniform(0.05, 40.0 if r.random() < 0.1 else 1.5)]),
         float(r.uniform(0.05, 2.0)))
        for _ in range(r.integers(0, 3))
    )
    gauss = None
    if r.random() < 0.4:
        mass = 1.0 if r.random() < 0.5 else float(r.uniform(0.1, 2.0))
        var = float(r.uniform(0.01, 3.0 if r.random() < 0.1 else 1.5))
        gauss = GaussianPart([r.uniform(-1.0, 1.0)], [[var]], mass)
    return LevyTriplet([[a]], JumpMeasure(atoms, gauss), drift=np.zeros(1)), float(r.uniform(-0.3, 0.6))


def _solve_or_error(t, lam):
    try:
        return repr(levy.solve_alpha(t, 1, lam))
    except SelfDualError as exc:
        return f"{type(exc).__name__}: {exc}"


def _named_triplets():
    """The solver's triplets from this file and the acceptance tests, with their carries."""
    sigma2, beta2, lam = 0.04, 1.0, 0.01
    z = beta2 / sigma2 * math.exp(beta2 * (lam + 1.0) / sigma2)
    alpha_star = 2.0 * levy.lambert_w0(z) / beta2 + 1.0 - 2.0 * (lam + 1.0) / sigma2
    lambertw = levy.martingale_normalized(
        [[sigma2]], levy.build_tilted_gaussian_measure([[beta2]], alpha_star, 1.0, 1)
    )
    tilted = levy.martingale_normalized(
        [[0.04]], levy.build_tilted_gaussian_measure([[1.0]], 0.9808575969854374, 1.0, 1)
    )
    lam_fallback = 0.5 * 0.04 * 0.6 + 0.7 * (math.exp(0.6 / 2) - 1)
    return [
        (levy.martingale_normalized([[0.04]]), 0.01),
        (levy.martingale_normalized(
            [[0.0]], levy.build_tilted_gaussian_measure([[1.0]], 0.5, 1.0, 1)
        ), math.exp(0.25) - 1.0),
        (lambertw, lam),
        (lambertw.scaled(0.5), lam * 0.5),
        (lambertw.scaled(2.0), lam * 2.0),
        (tilted, 0.01),
        (tilted.scaled(0.5), 0.005),
        (tilted.scaled(2.0), 0.02),
        (levy.martingale_normalized(
            [[0.04]], levy.build_tilted_gaussian_measure([[1.0]], 0.4, 0.7, 1)
        ), lam_fallback),
        (levy.martingale_normalized([[0.09]], JumpMeasure(atoms=((np.array([0.25]), 1.5),))), 0.31),
        (sd_gauss_jump_triplet(), 0.05),
        (levy.martingale_normalized([[0.0]], JumpMeasure(atoms=((np.array([-1.0]), 1.0),))), -1.0),
        (levy.martingale_normalized(
            [[0.0]], levy.build_tilted_gaussian_measure([[1.0]], 0.5, 1.0, 1)
        ), 0.2840254166877414),
    ]


def test_solve_alpha_matches_the_scalar_scan(monkeypatch):
    cases = _named_triplets() + [_random_scalar_triplet(seed) for seed in range(1200)]
    got = [_solve_or_error(t, lam) for t, lam in cases]
    monkeypatch.setattr(levy, "_scan_roots", _oracle_scan_roots)
    want = [_solve_or_error(t, lam) for t, lam in cases]
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    outcomes = {text.split("(")[0].split(":")[0] for text in want}
    assert {"AlphaSolution", "DomainError", "NoBracket"} <= outcomes
    methods = {text.split("method='")[1].split("'")[0] for text in want if "method=" in text}
    assert methods == {"bracketed_root", "closed_lognormal", "closed_lambertw", "closed_laplace"}


# an atom at 24 makes the order equation's grid values large enough that
# their product overflows
OVERFLOWING_SCAN = """\
model: {kind: levy_triplet, a: 0.15, atoms: [{x: [24], mass: 1.47}, {x: [-0.5], mass: 1}]}
task: {kind: alpha, carry: 0.1}
"""


def test_an_overflowing_scan_writes_no_warning_and_keeps_its_result(tmp_path, monkeypatch):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(OVERFLOWING_SCAN)
    src = Path(levy.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "selfdual.cli", "alpha", str(spec_file)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (run.returncode, run.stderr) == (0, "")
    monkeypatch.setattr(levy, "_scan_roots", _oracle_scan_roots)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's product overflows
        code, doc, _ = cli.run(cli.parse_model_spec(OVERFLOWING_SCAN))
    assert code == 0
    assert yaml.safe_load(run.stdout)["results"] == doc["results"]


def test_the_scan_finds_a_sign_change_between_subnormal_values():
    def g_fun(x):
        return (np.asarray(x) - 0.5) * 1e-310

    lo, hi = 0.48431254296349885, 0.5304114121850267  # the grid points around 0.5
    assert g_fun(lo) < 0.0 < g_fun(hi) and g_fun(lo) * g_fun(hi) == 0.0  # the product underflows
    roots, bracket = levy._scan_roots(g_fun)
    assert bracket == (lo, hi)
    assert len(roots) == 1 and abs(roots[0] - 0.5) <= 1e-9


# --------------------------------------------------------------------------- #
# Increment simulation
# --------------------------------------------------------------------------- #


def test_zero_triplet_increment():
    t = LevyTriplet(np.zeros((2, 2)), drift=np.zeros(2))
    incr = levy.sample_increments(t, 0.5, make_rng(70), 1)[0]
    assert np.array_equal(incr, np.zeros(2))


def test_increment_determinism():
    t = sd_gauss_jump_triplet()
    a = levy.sample_increments(t, 0.1, make_rng(71), 64)
    b = levy.sample_increments(t, 0.1, make_rng(71), 64)
    assert np.array_equal(a, b)


def test_increment_draws_match_two_pass_form():
    # Gaussian part plus linear term, summed into zeros as two passes
    t = levy.martingale_normalized(A2)
    dt = 0.01
    w, v = np.linalg.eigh(t.a * dt)
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    want = np.zeros((1000, 2))
    want += (np.array(t.drift, dtype=float) - levy._compensator_vector(t)) * dt
    want += make_rng(75).standard_normal((1000, 2)) @ root.T
    np.testing.assert_array_equal(levy.sample_increments(t, dt, make_rng(75), 1000), want)


def test_increment_draws_with_a_given_root_match():
    for t in (levy.martingale_normalized(A2), sd_gauss_jump_triplet()):
        root = levy.gaussian_root(t, 0.02)
        want = levy.sample_increments(t, 0.02, make_rng(76), 500, return_counts=True)
        got = levy.sample_increments(
            t, 0.02, make_rng(76), 500, return_counts=True, root=root
        )
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
    assert levy.gaussian_root(LevyTriplet(np.zeros((2, 2)), drift=np.zeros(2)), 0.5) is None


def test_increment_cumulants():
    t = sd_gauss_jump_triplet(mass=2.0)
    dt = 0.37
    incr = levy.sample_increments(t, dt, make_rng(72), 10**6)
    mean = incr.mean(axis=0)
    se = incr.std(axis=0, ddof=1) / math.sqrt(incr.shape[0])
    assert np.all(np.abs(mean - t.drift * dt) <= 4.0 * se)
    want_cov = (t.a + t.nu.second_moment(2)) * dt
    got_cov = np.cov(incr.T)
    # variance of a covariance estimate ~ sqrt(2/n) relative
    assert np.allclose(got_cov, want_cov, atol=6.0 * np.max(want_cov) / math.sqrt(incr.shape[0]) * 2)


def test_increment_jump_counts():
    t = sd_gauss_jump_triplet(mass=2.0)
    _, counts = levy.sample_increments(t, 0.5, make_rng(73), 10**5, return_counts=True)
    assert counts.mean() == pytest.approx(1.0, abs=0.02)  # mass * dt


def test_increment_distribution_matches_char_exponent():
    # empirical E exp(i u xi) against exp(psi(u) dt)
    t = sd_atom_triplet()
    dt = 0.8
    incr = levy.sample_increments(t, dt, make_rng(74), 200_000)
    gen = np.random.default_rng(11)
    for _ in range(5):
        u = gen.uniform(-2, 2, 2)
        emp = np.exp(1j * incr @ u).mean()
        want = np.exp(levy.char_exponent(t, u) * dt)
        assert abs(emp - want) <= 0.01


def _row_major_increments(t, dt, rng, size):
    """Increments built row-major, ``z @ root.T + linear`` and then the jumps."""
    out = np.zeros((size, t.n))
    root = levy.gaussian_root(t, dt)
    if root is not None:
        out = rng.standard_normal((size, t.n)) @ root.T
    out += (np.array(t.drift, dtype=float) - levy._compensator_vector(t)) * dt
    counts = np.zeros(size, dtype=np.int64)
    mass = t.nu.total_mass
    if mass > 0:
        counts = rng.poisson(mass * dt, size=size)
        weights = [m for _, m in t.nu.atoms] + [t.nu.gaussian.mass]
        kinds = rng.choice(len(weights), size=int(counts.sum()), p=np.array(weights) / mass)
        jumps = np.empty((kinds.size, t.n))
        for idx, (x, _) in enumerate(t.nu.atoms):
            jumps[kinds == idx] = x
        sel = kinds == len(weights) - 1
        g = t.nu.gaussian
        jumps[sel] = rng.multivariate_normal(g.mean, g.cov, size=int(sel.sum()))
        np.add.at(out, np.repeat(np.arange(size), counts), jumps)
    return out, counts


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "jumps", "mixed"])
@pytest.mark.parametrize("return_counts", [True, False])
def test_column_major_increments_equal_the_row_major_formula(n, kind, return_counts):
    a = 0.09 * (np.eye(n) + np.ones((n, n))) / 2
    nu = JumpMeasure(
        atoms=((np.linspace(-0.3, 0.2, n), 0.7), (np.linspace(0.25, -0.1, n), 0.4)),
        gaussian=GaussianPart(np.full(n, -0.05), 0.02 * np.eye(n), 0.9),
    )
    t = {
        "gaussian": levy.martingale_normalized(a),
        "jumps": levy.martingale_normalized(np.zeros((n, n)), nu),
        "mixed": levy.martingale_normalized(a, nu),
    }[kind]
    want, want_counts = _row_major_increments(t, 0.3, make_rng(77), 3_000)
    got = levy.sample_increments(t, 0.3, make_rng(77), 3_000, return_counts=return_counts)
    if return_counts:
        got, counts = got
        np.testing.assert_array_equal(counts, want_counts)
    assert got.shape == (3_000, n)
    np.testing.assert_array_equal(got, want)
    if kind != "gaussian":
        assert want_counts.sum() > 1_000
