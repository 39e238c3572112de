"""Adaptive quadrature helpers for densities on the positive half-line.

All integrals over (0, inf) are computed after the substitution
``x = exp(t)``, which maps the half-line to the real line and removes the
algebraic endpoint singularities of the densities handled here
(power-law and log-normal tails).  The underlying integrator is the
adaptive Gauss-Kronrod scheme of QUADPACK via ``scipy.integrate.quad``,
imported on the first integral: a task that integrates nothing never
loads ``scipy.integrate``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

ABS_TOL = 1e-10
REL_TOL = 1e-8

# quad is asked for more than the advertised tolerance so its error
# estimate can be checked against the contract rather than trusted blindly.
_EPSABS = 1e-12
_EPSREL = 1e-10


def _quad(f: Callable[[float], float], a: float, b: float, what: str) -> float:
    """QUADPACK on (a, b) at the tightened tolerances, its error estimate checked."""
    from scipy.integrate import quad

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        value, err = quad(f, a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=400)
    if not math.isfinite(value):
        raise QuadratureFailure(f"{what}: integral is not finite")
    if err > ABS_TOL + REL_TOL * abs(value):
        raise QuadratureFailure(
            f"{what}: estimated error {err:.3e} exceeds tolerance for value {value:.6e}"
        )
    return value


# Integrands are called with numpy scalars so overflow saturates to inf
# (and typically cancels to 0 in a ratio) instead of raising.
def _np_call(f: Callable[[float], float]):
    def wrapped(x: float) -> float:
        return float(f(np.float64(x)))

    return wrapped


def integrate_positive(f: Callable[[float], float], *, what: str = "integral") -> float:
    """Integrate ``f`` over (0, inf) on the log-transformed axis.

    Outside |t| <= 200 the integrand ``f(e^t) e^t`` of any convergent
    integral handled here is far below double-precision resolution, so it
    is clamped to zero rather than risking overflow.
    """
    fx = _np_call(f)

    def g(t: float) -> float:
        if abs(t) > 200.0:
            return 0.0
        x = math.exp(t)
        return fx(x) * x

    return _quad(g, -np.inf, np.inf, what)


def integrate_interval(
    f: Callable[[float], float], a: float, b: float, *, what: str = "integral"
) -> float:
    """Integrate ``f`` over (a, b) in [0, inf]; the endpoint singularity
    at zero is handled by the log substitution."""
    if a < 0:
        raise ValueError("interval must lie in [0, inf)")
    if math.isinf(b) and a == 0.0:
        return integrate_positive(f, what=what)
    return _quad(_np_call(f), a, b, what)


def integrate_real_line(f: Callable[[float], float], *, what: str = "integral") -> float:
    return _quad(_np_call(f), -np.inf, np.inf, what)


def decays_at_scales(h: Callable[[float], float], scales: np.ndarray) -> bool:
    """True when ``h`` is decreasing along the given increasing scales.

    Used as a numeric integrability probe where no symbolic analysis is
    available: the integrand ``x * f(x)`` of a convergent
    ``int f(x) dx`` near an endpoint must eventually decay along dyadic
    scales approaching it.
    """
    vals = [abs(h(float(s))) for s in scales]
    return all(b <= a * (1 - 1e-12) + 1e-300 for a, b in zip(vals, vals[1:]))
