"""Support functions of lift zonoids and lift max-zonoids.

A positive integrable random vector ``eta`` of dimension ``n`` is encoded
by two convex bodies in R^(n+1): the lift zonoid, whose support function
at ``(u0, u)`` is ``E (u0 + <u, eta>)_+``, and the lift max-zonoid, whose
support function on the first orthant is ``E max(u0, u_1 eta_1, ...)``.
Option-pricing identities become symmetry statements about these bodies.
A support value at ``(u0, u)`` is the price of the affine claim
``(u0 + <u, eta>)_+`` (of ``max(u0, u_1 eta_1, ...)`` on the max-zonoid),
which ``pricing.price`` supplies and the ``payoff`` check's kernel
evaluates; this module evaluates the Husler-Reiss norm and the binary/gap
boundary parametrisation, which a scalar model's ``tail_mean`` gives.
"""

from __future__ import annotations

import io
import math
from typing import Callable

import numpy as np

from .dist import ScalarModel
from .errors import AtomicModel, DomainError

__all__ = [
    "husler_reiss_norm",
    "boundary_param",
    "boundary_polyline",
    "write_boundary_csv",
    "max_stable_cdf",
]


def husler_reiss_norm(k: float, big_f: float, lambda_hr: float) -> float:
    """F Phi(lam + log(F/k)/(2 lam)) + k Phi(lam - log(F/k)/(2 lam)).

    The closed-form E max(F eta, k) for mean-one log-normal eta with
    ``lambda_hr = sigma sqrt(T) / 2``; symmetric in (k, F), which is the
    self-duality of the log-normal model.  Conventions at the boundary:
    k = 0 gives F and F = 0 gives k.
    """
    from scipy.special import ndtr

    if lambda_hr <= 0:
        raise DomainError("lambda_hr must be positive")
    if k < 0 or big_f < 0:
        raise DomainError("k and F must be nonnegative")
    if k == 0 and big_f == 0:
        raise DomainError("k and F must not both vanish")
    if k == 0:
        return float(big_f)
    if big_f == 0:
        return float(k)
    half_log = math.log(big_f / k) / (2.0 * lambda_hr)
    return float(big_f * ndtr(lambda_hr + half_log) + k * ndtr(lambda_hr - half_log))


def boundary_param(model: ScalarModel, k):
    """Gradient of the lift-zonoid support function at (-k, 1).

    Returns ``(P(eta > k), E[eta 1{eta > k}])`` -- the undiscounted
    binary-call and normalised gap-call values -- a point on the upper
    boundary of the lift zonoid, or two arrays of them for an array of
    strikes.  The gap value is the model's ``tail_mean``: closed form
    where the law has one, quadrature otherwise.  Requires a non-atomic
    model, since the support function is continuously differentiable
    exactly when the distribution has no atoms.
    """
    if np.any(np.asarray(k) <= 0):
        raise DomainError("strike must be positive")
    if not model.has_density:
        raise AtomicModel("boundary parametrisation requires a non-atomic model")
    bc = 1.0 - model.cdf(k)
    return (float(bc) if np.ndim(k) == 0 else bc), model.tail_mean(k)


def boundary_polyline(
    model: ScalarModel,
    k_min: float = 1e-2,
    k_max: float = 1e2,
    n_points: int = 200,
) -> np.ndarray:
    """Upper lift-zonoid boundary sampled at log-spaced strikes.

    Rows are ``(k, bc, gc_over_f)`` with F = 1; this is the generalised
    Lorenz curve of the model.  Requires ``0 < k_min < k_max``.
    """
    if not 0 < k_min < k_max:
        raise DomainError(f"strike range needs 0 < k_min < k_max, got k_min={k_min}, k_max={k_max}")
    ks = np.geomspace(k_min, k_max, n_points)
    return np.column_stack((ks, *boundary_param(model, ks)))


def write_boundary_csv(rows: np.ndarray, fh: io.TextIOBase) -> None:
    # %-formatting gives the bytes of f"{x:.17g}" in one call for all rows
    fh.write("k,bc,gc_over_f\n" + "%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist()))


def max_stable_cdf(norm: Callable[[float, float], float], u1: float, u2: float) -> float:
    """Bivariate max-stable CDF with unit Frechet marginals.

    ``P(xi1 <= 1/u1, xi2 <= 1/u2) = exp(-||(u1, u2)||)`` for the norm that
    encodes the dependence; ``u = (0, 0)`` is the empty constraint.
    """
    if u1 < 0 or u2 < 0:
        raise DomainError("coordinates must be nonnegative")
    if u1 == 0 and u2 == 0:
        return 1.0
    return math.exp(-float(norm(u1, u2)))
