"""Payoff algebra and Monte-Carlo pricing with standard errors.

Payoffs evaluate vectorised on a terminal-price matrix of shape
``(paths, assets)``.  One dataclass, :class:`AffinePower`, is the family
``(S_i/H)^b (<w, S> + c)_+^p``; basket, spread and power calls, basket
puts and affine calls are constructors of it, and the hedges' reflected
claims stay in it.  Closed forms are owned by the models: on a scalar
model a payoff's ``closed_form`` asks ``expect_affine`` (whose value at
``p = 1, b = 0`` is the lift-zonoid support function) and gets a number
or ``None``, in which case pricing falls back to Monte Carlo.
Identities (parity, vanilla symmetry, binary/gap symmetry, the power
symmetry) are measured as residuals: closed forms where the model admits
them, otherwise common-random-number Monte Carlo so that only the
variance of the difference matters.  Discounting is a scalar
afterthought; every identity is stated and tested undiscounted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import ScalarModel, positive_power
from .errors import DomainError, GeometryViolation, MomentDiverges
from .rng import RngStream

__all__ = [
    "Payoff",
    "AffinePower",
    "BasketCall",
    "BasketPut",
    "AffineCall",
    "MaxOption",
    "BinaryCall",
    "BinaryPut",
    "GapCall",
    "GapPut",
    "SpreadCall",
    "PowerCall",
    "CustomPayoff",
    "CompositePayoff",
    "PriceEstimate",
    "price",
    "parity_residual",
    "vanilla_symmetry_residual",
    "binary_gap_symmetry_residual",
    "power_symmetry_residual",
]

DEFAULT_SAMPLES = 200_000


class Payoff:
    """Base payoff; subclasses implement ``__call__`` on (paths, assets)."""

    n_assets: int | None = None  # None: any dimension

    def __call__(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def closed_form(self, model: ScalarModel, forward: float) -> float | None:
        """Exact E self(forward * eta) on a scalar model, or None: the default has none."""
        return None

    def _matrix(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if self.n_assets is not None and s.shape[1] != self.n_assets:
            raise DomainError(f"payoff expects {self.n_assets} assets, got {s.shape[1]}")
        return s

    def __add__(self, other):
        return CompositePayoff([(1.0, self), (1.0, other)])

    def __sub__(self, other):
        return CompositePayoff([(1.0, self), (-1.0, other)])

    def __rmul__(self, c: float):
        return CompositePayoff([(float(c), self)])


@dataclass
class AffinePower(Payoff):
    """(S_i/H)^b (<w, S> + c)_+^p with signed weights.

    ``p = 0`` reads ``x_+^0`` as the strict indicator ``1{x > 0}``.  The
    family is closed under the numeraire reflection of the hedges, and
    on a scalar model its price is the model's ``expect_affine`` value.
    A one-weight claim with ``asset`` set reads that column of a price
    matrix of any width, as binaries and gaps do.
    """

    weights: tuple
    constant: float
    p: float = 1.0
    b: float = 0.0
    i: int = 1
    level: float = 1.0
    asset: int | None = None

    def __post_init__(self):
        self.weights = tuple(float(w) for w in np.atleast_1d(self.weights))
        self.constant = float(self.constant)
        self.n_assets = len(self.weights) if self.asset is None else None
        if self.p < 0:
            raise DomainError("power must be nonnegative")
        if self.level <= 0:
            raise DomainError("level must be positive")
        if not 1 <= self.i <= len(self.weights):
            raise DomainError(f"asset index {self.i} out of range 1..{len(self.weights)}")

    def __call__(self, s):
        s = self._matrix(s)
        if self.asset is not None:
            if not 1 <= self.asset <= s.shape[1]:
                raise DomainError(f"payoff asset {self.asset} out of range 1..{s.shape[1]}")
            s = s[:, self.asset - 1, None]
        out = positive_power(s @ np.asarray(self.weights) + self.constant, self.p)
        if self.b == 0:
            return out
        return (s[:, self.i - 1] / self.level) ** self.b * out

    def closed_form(self, model, forward):
        if len(self.weights) != 1 or self.asset not in (None, 1):
            return None
        value = model.expect_affine(self.weights[0] * forward, self.constant, self.p, self.b)
        if value is None or self.b == 0:
            return value
        return (forward / self.level) ** self.b * value


def _nonnegative(strike: float) -> None:
    if strike < 0:
        raise DomainError("strike must be nonnegative")


def BasketCall(weights, strike: float) -> AffinePower:
    """(sum u_l S_l - k)_+; positively homogeneous in (u, k) jointly."""
    _nonnegative(strike)
    return AffinePower(weights, -strike)


def BasketPut(weights, strike: float) -> AffinePower:
    """(k - sum u_l S_l)_+."""
    _nonnegative(strike)
    return AffinePower(-np.atleast_1d(np.asarray(weights, dtype=float)), strike)


# (sum w_l S_l + c)_+ with signed weights: the affine-power claim at its defaults
AffineCall = AffinePower


def SpreadCall(long_weights, short_weights, strike: float) -> AffinePower:
    """(sum long_l S_l - sum short_l S_l - k)_+ with nonnegative legs."""
    long_w = np.atleast_1d(np.asarray(long_weights, dtype=float))
    short_w = np.atleast_1d(np.asarray(short_weights, dtype=float))
    if long_w.shape != short_w.shape:
        raise DomainError("long/short weight lengths differ")
    if np.any(long_w < 0) or np.any(short_w < 0):
        raise DomainError("leg weights must be nonnegative")
    _nonnegative(strike)
    return AffinePower(long_w - short_w, -strike)


def PowerCall(weights, strike: float, alpha: float) -> AffinePower:
    """(sum u_l S_l - k)_+^alpha."""
    _nonnegative(strike)
    if alpha <= 0:
        raise DomainError("power must be positive")
    return AffinePower(weights, -strike, p=alpha)


def BinaryCall(strike: float, asset: int = 1) -> AffinePower:
    """1{S_j > k} on asset j; the inequality is strict, which matters only at atoms."""
    return AffinePower((1.0,), -strike, p=0.0, asset=asset)


def BinaryPut(strike: float, asset: int = 1) -> AffinePower:
    """1{S_j < k}."""
    return AffinePower((-1.0,), strike, p=0.0, asset=asset)


def GapCall(strike: float, asset: int = 1) -> AffinePower:
    """S_j 1{S_j > k}."""
    return AffinePower((1.0,), -strike, p=0.0, b=1, asset=asset)


def GapPut(strike: float, asset: int = 1) -> AffinePower:
    """S_j 1{S_j < k}."""
    return AffinePower((-1.0,), strike, p=0.0, b=1, asset=asset)


@dataclass
class MaxOption(Payoff):
    """max(u0, max_l u_l S_l) for nonnegative weights."""

    u0: float
    weights: tuple

    def __post_init__(self):
        self.weights = tuple(float(w) for w in np.atleast_1d(self.weights))
        if self.u0 < 0 or any(w < 0 for w in self.weights):
            raise DomainError("max option requires nonnegative coordinates")
        self.n_assets = len(self.weights)

    def __call__(self, s):
        s = self._matrix(s)
        return np.maximum(self.u0, np.max(s * np.asarray(self.weights), axis=1))

    def closed_form(self, model, forward):
        # E max(u0, F w eta) = E (F w eta - u0)_+ + u0
        value = AffinePower(self.weights, -self.u0).closed_form(model, forward)
        return None if value is None else value + self.u0


class CustomPayoff(Payoff):
    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], n_assets: int | None = None):
        self.fn = fn
        self.n_assets = n_assets

    def __call__(self, s):
        return np.asarray(self.fn(self._matrix(s)), dtype=float)


class CompositePayoff(Payoff):
    """Linear combination of payoffs, evaluated termwise."""

    def __init__(self, terms: list[tuple[float, Payoff]]):
        self.terms = [(float(c), p) for c, p in terms]
        dims = {p.n_assets for _, p in self.terms if p.n_assets is not None}
        if len(dims) > 1:
            raise DomainError("mixed asset counts in composite payoff")
        self.n_assets = dims.pop() if dims else None

    def __call__(self, s):
        out = None
        for c, p in self.terms:
            v = c * p(s)
            out = v if out is None else out + v
        return out


# --------------------------------------------------------------------------- #
# Pricing
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PriceEstimate:
    """Undiscounted value with standard error plus the discount factor."""

    value: float
    std_error: float
    n_samples: int
    discount_factor: float
    method: str

    @property
    def discounted(self) -> float:
        return self.discount_factor * self.value


def _terminal_samples(model, n_samples: int, rng: RngStream) -> np.ndarray:
    return model.sample(int(n_samples), rng).reshape(int(n_samples), -1)


def _closed_forms(model, priced: list[tuple[Payoff, float]]) -> list[float] | None:
    """Closed forms of every (payoff, forward) pair on a scalar model, or None unless all exist."""
    if not isinstance(model, ScalarModel):
        return None
    values = [payoff.closed_form(model, forward) for payoff, forward in priced]
    return None if None in values else values


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n))


def price(
    model,
    payoff: Payoff,
    r: float = 0.0,
    maturity: float = 1.0,
    rng: RngStream | None = None,
    n_samples: int = DEFAULT_SAMPLES,
    forward=1.0,
) -> PriceEstimate:
    """Expected payoff of ``payoff`` on terminal prices ``forward * eta``:
    in closed form where the model has one, by Monte Carlo otherwise.

    An affine power claim of growth order ``p + b`` other than zero or one
    verifies that the moment of that order exists before anything is
    evaluated.
    """
    df = math.exp(-r * maturity)
    order = payoff.p + payoff.b if isinstance(payoff, AffinePower) else 1.0
    if order not in (0.0, 1.0) and isinstance(model, ScalarModel):
        try:
            model.raw_moment(order)
        except MomentDiverges as exc:
            raise MomentDiverges(
                f"payoff of power {order} is not integrable: {exc}",
                critical_exponent=exc.critical_exponent,
            ) from None
    closed = _closed_forms(model, [(payoff, float(forward))]) if np.ndim(forward) == 0 else None
    if closed is not None:
        return PriceEstimate(closed[0], 0.0, 0, df, "closed_form")
    if rng is None:
        raise DomainError("Monte-Carlo pricing requires an RngStream")
    forward = np.atleast_1d(np.asarray(forward, dtype=float))
    if forward.size not in (1, model.dim):
        raise DomainError(
            f"forward has {forward.size} entries; the model has dimension {model.dim}"
        )
    payoff(np.ones((1, model.dim)))  # a probe row: a payoff that does not fit raises undrawn
    s = _terminal_samples(model, n_samples, rng) * forward
    value, se = _mean_se(payoff(s))
    return PriceEstimate(value, se, s.shape[0], df, "monte_carlo")


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
