"""Price identities measured as residuals, kept as a test oracle.

Call-put parity, the vanilla strike/forward exchange, binary/gap symmetry and
the power symmetry, each a residual ``const + sum_j c_j E f_j(F_j eta)``: in
closed form where the model has one for every term, otherwise by
common-random-number Monte Carlo on one draw of ``eta``, so that only the
variance of each difference matters.  The CLI decides the same claims by its
checks: vanilla symmetry is the 1-d basket swap of ``payoff``, binary/gap
symmetry its strike derivative (``integrated_tail`` and ``density``), and the
power symmetry follows from ``quasi``; parity cannot fail.
"""

import math

from selfdual.dist import ScalarModel
from selfdual.errors import DomainError, GeometryViolation
from selfdual.pricing import (
    DEFAULT_SAMPLES,
    AffineCall,
    AffinePower,
    BasketCall,
    BasketPut,
    BinaryCall,
    BinaryPut,
    GapCall,
    GapPut,
    PowerCall,
    _closed_forms,
    _mean_se,
    _terminal_samples,
)
from selfdual.rng import RngStream


def _identity_residuals(model, identities, rng, n_samples) -> list[tuple[float, float]]:
    """Residuals of identities ``const + sum_j c_j E f_j(F_j eta) = 0``.

    Each identity is ``(const, [(c_j, f_j, F_j), ...])``.  When every term
    has a closed form the residuals are exact (standard error zero);
    otherwise all of them are estimated with common random numbers on one
    draw of eta, so only the variance of each difference matters.
    """
    closed = _closed_forms(model, [(f, fwd) for _, terms in identities for _, f, fwd in terms])
    if closed is not None:
        values = iter(closed)
        return [
            (const + sum(c * next(values) for c, _, _ in terms), 0.0) for const, terms in identities
        ]
    if rng is None:
        raise DomainError("Monte-Carlo residuals require an RngStream")
    eta = _terminal_samples(model, n_samples, rng)
    return [
        _mean_se(const + sum(c * f(fwd * eta) for c, f, fwd in terms))
        for const, terms in identities
    ]


def parity_residual(
    model,
    k: float,
    big_f: float,
    r: float = 0.0,
    maturity: float = 1.0,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> tuple[float, float]:
    """Call-put parity defect e^{-rT} [ (F eta - k)_+ - (k - F eta)_+ - (F eta - k) ].

    Model free: zero for every integrable model up to the noise of the
    common-random-number estimator (rounding-level on closed forms).
    """
    df = math.exp(-r * maturity)
    forward = AffineCall((1.0,), 0.0)  # (S)_+ = S for positive prices
    terms = [(1.0, BasketCall((1.0,), k), big_f), (-1.0, BasketPut((1.0,), k), big_f)]
    ((mean, se),) = _identity_residuals(
        model, [(k, terms + [(-1.0, forward, big_f)])], rng, n_samples
    )
    return df * mean, df * se


def vanilla_symmetry_residual(
    model,
    k: float,
    big_f: float,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> dict:
    """Self-duality of vanilla prices: strike/forward exchange residuals.

    Returns the undiscounted defects of ``c(k,F) + k = c(F,k) + F`` and
    of ``p(k,F) = c(F,k)`` with standard errors (zero on closed forms).
    """
    c_fk = (-1.0, BasketCall((1.0,), big_f), k)
    call_swap, put_call = _identity_residuals(
        model,
        [
            (k - big_f, [(1.0, BasketCall((1.0,), k), big_f), c_fk]),
            (0.0, [(1.0, BasketPut((1.0,), k), big_f), c_fk]),
        ],
        rng,
        n_samples,
    )
    return {"call_swap": call_swap, "put_call": put_call}


def binary_gap_symmetry_residual(
    model,
    k_c: float,
    k_p: float,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
) -> dict:
    """Binary/gap symmetry at the geometric-mean forward F = sqrt(k_c k_p).

    Residuals of ``sqrt(k_c) BC(k_c,F) = GP(k_p,F)/sqrt(k_p)`` and
    ``sqrt(k_p) BP(k_p,F) = GC(k_c,F)/sqrt(k_c)``.
    """
    if k_c <= 0 or k_p <= 0:
        raise GeometryViolation("strikes must be positive")
    big_f = math.sqrt(k_c * k_p)
    r_c, r_p = math.sqrt(k_c), math.sqrt(k_p)
    d1, d2 = _identity_residuals(
        model,
        [
            (0.0, [(r_c, BinaryCall(k_c), big_f), (-1.0 / r_p, GapPut(k_p), big_f)]),
            (0.0, [(r_p, BinaryPut(k_p), big_f), (-1.0 / r_c, GapCall(k_c), big_f)]),
        ],
        rng,
        n_samples,
    )
    return {"forward": big_f, "binary_call_gap_put": d1, "binary_put_gap_call": d2}


def power_symmetry_residual(
    model: ScalarModel,
    a: float,
    alpha: float,
    big_f: float,
    k: float,
    rng: RngStream,
    n_samples: int = DEFAULT_SAMPLES,
) -> tuple[float, float]:
    """Power symmetry E (F eta - k)_+^alpha = a^-alpha E (F - k a^2 eta)_+^alpha.

    Holds for quasi-self-dual eta of order alpha with carry factor
    ``a = e^lambda``; exact where both claims have closed forms,
    otherwise estimated with common random numbers.
    """
    model.raw_moment(alpha)  # integrability gate
    terms = [
        (1.0, PowerCall((1.0,), k, alpha), big_f),
        (-(a**-alpha), AffinePower((-k * a * a,), big_f, p=alpha), 1.0),
    ]
    return _identity_residuals(model, [(0.0, terms)], rng, n_samples)[0]
