"""The hand-derived triplet conditions for quasi-self-duality, kept as a test oracle.

For numeraire ``i``, order ``alpha`` and carry ``lambda_i``: (1) the covariance has the
half-diagonal pattern ``a[j,i] = a[i,i]/2`` in column ``i``; (2) the jump measure
satisfies ``d nu(x) = exp(-alpha x_i) d nu(K_i x)``, with atoms paired to their
reflections to 1e-12 and a Gaussian part held to the pattern and to its mean in ``i``;
(3) the drift coordinate ``i`` equals the compensator value shifted by the carry.
Condition (3) integrates the compensator over all of ``nu``, so the oracle holds for the
``mean`` drift convention only: a truncation ball that ``K_i`` does not map onto itself
breaks it.

Without jumps there is a second route: ``(e^lambda o exp(xi))^alpha`` is log-normal again,
and it is self-dual for numeraire ``i`` exactly when its density passes the density check.
"""

import math

import numpy as np

from selfdual.duality import KappaMaps, ReportPoint, SymmetryReport
from selfdual.levy import MultiLogNormal


def half_diagonal(b, i, tol, label="", name="b"):
    """Points of ``b[j,i] = b[i,i]/2`` for j != i, the pattern of a K_i-invariant covariance."""
    bii = float(b[i - 1, i - 1])
    return [
        ReportPoint(
            f"{label}{name}[{j + 1},{i}] - {name}[{i},{i}]/2",
            float(b[j, i - 1] - 0.5 * bii),
            tol=tol * (1.0 + abs(bii)),
        )
        for j in range(b.shape[0])
        if j != i - 1
    ]


def oracle_qsd_triplet(t, i, lam_i, alpha, tol=1e-10):
    """The three conditions on a ``mean``-convention triplet, as a report."""
    assert t.convention == "mean"
    maps = KappaMaps(t.n, i)
    report = SymmetryReport(f"oracle_qsd_triplet[i={i},alpha={alpha:g}]")
    aii = float(t.a[i - 1, i - 1])
    report.points += half_diagonal(t.a, i, tol, "(1) ", "a")

    for idx, (x, m) in enumerate(t.nu.atoms):
        target = maps.K(x)
        want = m * math.exp(alpha * float(x[i - 1]))
        got = 0.0
        for y, my in t.nu.atoms:
            if float(np.max(np.abs(y - target))) <= 1e-12 * (1.0 + float(np.max(np.abs(target)))):
                got = my
                break
        report.points.append(
            ReportPoint(f"(2) atom[{idx}] reflection mass", got - want, tol=tol * (1.0 + want))
        )
    g = t.nu.gaussian
    if g is not None:
        bii = float(g.cov[i - 1, i - 1])
        report.points += half_diagonal(g.cov, i, tol, "(2) gaussian ")
        # given the pattern, the reflection law is mean[i] = -(alpha/2) b[i,i]: the tilt
        # exp(alpha x_i / 2) makes the part K_i-invariant exactly when its mean has a zero
        # coordinate i, and the other coordinates of the mean are free
        report.points.append(
            ReportPoint(
                "(2) gaussian mean[i] + (alpha/2) b[i,i]",
                float(g.mean[i - 1] + 0.5 * alpha * bii),
                tol=tol * (1.0 + abs(bii)),
            )
        )

    e_i = np.zeros(t.n)
    e_i[i - 1] = 1.0
    tilted = t.nu.weighted_mean(0.5 * alpha * e_i, t.n)
    integral = float(t.nu.weighted_mean(np.zeros(t.n), t.n)[i - 1] - tilted[i - 1])
    want = integral - 0.5 * alpha * aii - lam_i
    report.points.append(
        ReportPoint("(3) drift[i] - compensator", float(t.drift[i - 1] - want), tol=tol * (1.0 + abs(aii)))
    )
    return report


def power_transformed(t, lam, alpha):
    """The law of ``(e^lam o exp(xi))^alpha`` for a jump-free triplet ``t``: the log-normal
    with mean ``alpha (lam + drift)`` and covariance ``alpha^2 A``."""
    assert t.nu.is_empty
    return MultiLogNormal(alpha * (lam + t.drift), alpha * alpha * t.a)
