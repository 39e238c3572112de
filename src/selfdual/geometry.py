"""Support functions of lift zonoids and lift max-zonoids.

A positive integrable random vector ``eta`` of dimension ``n`` is encoded
by two convex bodies in R^(n+1): the lift zonoid, whose support function
at ``(u0, u)`` is ``E (u0 + <u, eta>)_+``, and the lift max-zonoid, whose
support function on the first orthant is ``E max(u0, u_1 eta_1, ...)``.
Option-pricing identities become symmetry statements about these bodies;
this module evaluates the support functions, the Husler-Reiss norm, the
binary/gap boundary parametrisation, and the coordinate-swap reflection.
The support value at ``(u0, u)`` is the price of the affine claim
``(u0 + <u, eta>)_+`` (of ``max(u0, u_1 eta_1, ...)`` on the max-zonoid),
so ``pricing.price`` supplies it: in closed form where the law has one,
otherwise by Monte Carlo with standard errors.  A scalar model's
``tail_mean`` gives the boundary.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import ScalarModel
from .errors import AtomicModel, DomainError
from .pricing import DEFAULT_SAMPLES, AffinePower, MaxOption, PriceEstimate, price
from .rng import RngStream

__all__ = [
    "LiftVector",
    "support_lift_zonoid",
    "support_lift_max_zonoid",
    "husler_reiss_norm",
    "boundary_param",
    "boundary_polyline",
    "write_boundary_csv",
    "reflect_pi",
    "max_stable_cdf",
]


@dataclass(frozen=True)
class LiftVector:
    """Weight vector (u0, u1..un); coordinate 0 is the riskless bond."""

    u0: float
    u: tuple[float, ...]

    def __post_init__(self):
        u = tuple(float(v) for v in np.atleast_1d(self.u))
        object.__setattr__(self, "u", u)
        if len(u) < 1:
            raise DomainError("lift vector needs at least one asset coordinate")
        if not (math.isfinite(self.u0) and all(math.isfinite(v) for v in u)):
            raise DomainError("lift vector entries must be finite")

    @property
    def dim(self) -> int:
        return len(self.u)


def _exact(value: float) -> PriceEstimate:
    return PriceEstimate(float(value), 0.0, 0, 1.0, "closed_form")


def support_lift_zonoid(
    model,
    lv: LiftVector,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> PriceEstimate:
    """Support function of the lift zonoid: E (u0 + <u, eta>)_+.

    Sign cases with an exact value short-circuit pricing: all
    coordinates nonnegative gives ``u0 + <u, E eta>``; all nonpositive
    gives zero.  Otherwise it is the price of the affine claim.
    """
    u = np.asarray(lv.u, dtype=float)
    if lv.dim != model.dim:
        raise DomainError("lift vector dimension does not match the model")
    if lv.u0 >= 0 and np.all(u >= 0):
        return _exact(lv.u0 + float(u @ model.means))
    if lv.u0 <= 0 and np.all(u <= 0):
        return _exact(0.0)
    return price(model, AffinePower(lv.u, lv.u0), rng=rng, n_samples=n_samples)


def support_lift_max_zonoid(
    model,
    lv: LiftVector,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> PriceEstimate:
    """Support function of the lift max-zonoid: E max(u0, u1 eta1, ...).

    Restricted to the first orthant; negative coordinates raise
    ``DomainError`` because the implicit 0 in the max already covers them.
    Outside the degenerate cases it is the price of the max option.
    """
    u = np.asarray(lv.u, dtype=float)
    if lv.dim != model.dim:
        raise DomainError("lift vector dimension does not match the model")
    if lv.u0 < 0 or np.any(u < 0):
        raise DomainError("lift max-zonoid support is defined for nonnegative coordinates")
    nonzero = np.flatnonzero(u)
    if nonzero.size == 0:
        return _exact(lv.u0)
    if lv.u0 == 0 and nonzero.size == 1:
        j = int(nonzero[0])
        return _exact(float(u[j] * model.means[j]))
    return price(model, MaxOption(lv.u0, lv.u), rng=rng, n_samples=n_samples)


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


def reflect_pi(lv: LiftVector, i: int) -> LiftVector:
    """Swap coordinate 0 with asset coordinate ``i`` (1-based).

    Reflection of R^(n+1) at the hyperplane {u0 = u_i}; an involution.
    """
    if not 1 <= i <= lv.dim:
        raise IndexError(f"asset index {i} out of range 1..{lv.dim}")
    u = list(lv.u)
    new_u0 = u[i - 1]
    u[i - 1] = lv.u0
    return LiftVector(new_u0, tuple(u))


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
