"""Support functions of lift zonoids and lift max-zonoids, kept as a test oracle.

The support value at ``(u0, u)`` is the price of the affine claim
``(u0 + <u, eta>)_+`` (of ``max(u0, u_1 eta_1, ...)`` on the max-zonoid), which
``pricing.price`` supplies and the ``payoff`` check's kernel evaluates; the sign
cases with an exact value short-circuit it.  ``reflect_pi`` is the coordinate
swap that the ``payoff`` check tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from selfdual.errors import DomainError
from selfdual.pricing import DEFAULT_SAMPLES, AffinePower, MaxOption, PriceEstimate, price
from selfdual.rng import RngStream


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
