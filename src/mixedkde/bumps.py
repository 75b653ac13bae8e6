"""Smooth bump calculus.

The compactly supported bump ``k(u) = exp(-1/(1-u^2))`` on (-1, 1) is the
seed for every non-polynomial function in the package: its normalization
``Lambda`` is a C-infinity pdf, convolutions of ``Lambda`` with interval
indicators produce the plateau density factors and the mean-zero wiggle
``g``, and all derivatives are available in closed form through the
rational recurrence

    d^m/du^m k(u) = P_m(u) / (1 - u^2)^{2m} * k(u),
    P_0 = 1,
    P_{m+1} = P_m' (1-u^2)^2 + (4 m u (1-u^2) - 2u) P_m.

Indicator convolutions are evaluated through the antiderivative
``LambdaBar(u) = integral of Lambda from -1 to u``, tabulated once on
[-1, 1] and interpolated by a cubic Hermite with exact slopes Lambda;
outside [-1, 1] it is clamped to 0 and 1.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .quadrature import integrate_1d, lp_norm_1d

__all__ = [
    "bump_k",
    "bump_k_deriv",
    "bump_l1",
    "lambda_value",
    "lambda_deriv",
    "lambda_bar",
    "g_function",
    "g_deriv",
    "g_norm",
    "g_sobolev_norm",
]

_TABLE_KNOTS = 16_384
_TABLE_SCALE = (_TABLE_KNOTS - 1) / 2.0  # knot intervals per unit length, exact


def bump_k(u) -> np.ndarray:
    """``exp(-1/(1-u^2))`` on (-1, 1), zero outside."""
    u = np.asarray(u, dtype=float)
    eps = 1.0 - u * u
    out = np.zeros(np.shape(u))
    inside = eps > 0.0
    out[inside] = np.exp(-1.0 / eps[inside])
    return out


@lru_cache(maxsize=None)
def _bump_poly(m: int) -> tuple[float, ...]:
    if m == 0:
        return (1.0,)
    prev = np.asarray(_bump_poly(m - 1))
    one_minus = np.array([1.0, 0.0, -1.0])  # 1 - u^2
    dprev = nppoly.polyder(prev)
    term1 = nppoly.polymul(dprev, nppoly.polymul(one_minus, one_minus))
    # 4 (m-1) u (1 - u^2) - 2u
    factor = nppoly.polyadd(
        nppoly.polymul([0.0, 4.0 * (m - 1)], one_minus), [0.0, -2.0]
    )
    term2 = nppoly.polymul(factor, prev)
    return tuple(nppoly.polyadd(term1, term2))


def bump_k_deriv(m: int, u) -> np.ndarray:
    """m-th derivative of the bump; zero outside (-1, 1) including the edges."""
    if m == 0:
        return bump_k(u)
    u = np.asarray(u, dtype=float)
    eps = 1.0 - u * u
    out = np.zeros(np.shape(u))
    inside = eps > 0.0
    ui = u[inside]
    ei = eps[inside]
    # exp(-1/eps) * eps^{-2m} in one exponential so near-edge values
    # underflow to zero instead of producing 0 * inf
    log_scale = -1.0 / ei - 2.0 * m * np.log(ei)
    pvals = nppoly.polyval(ui, np.asarray(_bump_poly(m)))
    out[inside] = pvals * np.exp(log_scale)
    return out


@lru_cache(maxsize=1)
def bump_l1() -> float:
    """``integral of k`` over [-1, 1] (k is non-negative, so also its L1 norm)."""
    return integrate_1d(bump_k, -1.0, 1.0, panels=256, nodes=10)


def lambda_value(u) -> np.ndarray:
    """The normalized bump pdf ``Lambda = k / ||k||_1`` on (-1, 1)."""
    return bump_k(u) / bump_l1()


def lambda_deriv(m: int, u) -> np.ndarray:
    return bump_k_deriv(m, u) / bump_l1()


@lru_cache(maxsize=1)
def _lambda_bar_table() -> tuple[np.ndarray, ...]:
    """Cubic coefficients of LambdaBar on each knot interval, lowest first.

    The cubic of interval i is in the local coordinate ``s = (u - knot_i) /
    step`` on [0, 1]; it matches the table values and the exact slopes
    Lambda at both knots (cubic Hermite, O(step^4) error).
    """
    knots = np.linspace(-1.0, 1.0, _TABLE_KNOTS)
    # per-interval GL panels, accumulated; each interval is so narrow the
    # panel is exact to machine precision for the smooth integrand
    x, w = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (knots[:-1] + knots[1:])
    half = 0.5 * np.diff(knots)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = lambda_value(pts.ravel()).reshape(pts.shape)
    increments = (vals * w[None, :]).sum(axis=1) * half
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    slopes = lambda_value(knots) / (_TABLE_SCALE * cdf[-1])
    cdf /= cdf[-1]
    rise = np.diff(cdf)
    left, right = slopes[:-1], slopes[1:]
    return cdf[:-1], left, 3.0 * rise - 2.0 * left - right, left + right - 2.0 * rise


def lambda_bar(u) -> np.ndarray:
    """Antiderivative of Lambda with ``lambda_bar(-1) = 0``; clamped outside."""
    u = np.asarray(u, dtype=float)
    hi = u >= 1.0
    mid = ~(hi | (u <= -1.0))
    out = np.array(hi, dtype=float)
    if np.any(mid):
        c0, c1, c2, c3 = _lambda_bar_table()
        t = (u[mid] + 1.0) * _TABLE_SCALE
        # fmin maps NaN (which fails both clamps) to the last interval; t stays NaN
        i = np.fmin(t, _TABLE_KNOTS - 2).astype(np.intp)
        t -= i
        vals = c3[i]
        for c in (c2, c1, c0):  # Horner in the local coordinate, in place
            vals *= t
            vals += c[i]
        out[mid] = np.clip(vals, 0.0, 1.0, out=vals)
    return out


def _sobolev_norm_1d(deriv, lo: float, hi: float, order: int, p: float) -> float:
    """Sum of the ``L^p`` norms of ``deriv(m, .)`` on [lo, hi], m = 0..order."""
    total = 0.0
    for m in range(order + 1):
        total += lp_norm_1d(partial(deriv, m), lo, hi, p, panels=256, nodes=10)
    return total


@lru_cache(maxsize=None)
def bump_sobolev_norm(order: int, p: float) -> float:
    """Classical Sobolev norm of the raw bump k up to the given order."""
    return _sobolev_norm_1d(bump_k_deriv, -1.0, 1.0, order, p)


def g_function(t) -> np.ndarray:
    """Mean-zero wiggle ``Lambda * (1_[0,1] - 1_[-1,0])`` supported on [-2, 2].

    Written through the antiderivative: ``2 LambdaBar(t) - LambdaBar(t-1)
    - LambdaBar(t+1)``; odd, bounded by one.
    """
    t = np.asarray(t, dtype=float)
    return 2.0 * lambda_bar(t) - lambda_bar(t - 1.0) - lambda_bar(t + 1.0)


def g_deriv(m: int, t) -> np.ndarray:
    """m-th derivative of g; derivatives of the antiderivative are Lambda's."""
    if m == 0:
        return g_function(t)
    t = np.asarray(t, dtype=float)
    return (2.0 * lambda_deriv(m - 1, t) - lambda_deriv(m - 1, t - 1.0)
            - lambda_deriv(m - 1, t + 1.0))


@lru_cache(maxsize=None)
def g_norm(p: float) -> float:
    """``L^p`` norm of g on its support [-2, 2]."""
    return lp_norm_1d(g_function, -2.0, 2.0, p, panels=256, nodes=10)


@lru_cache(maxsize=None)
def g_sobolev_norm(order: int, p: float) -> float:
    """Classical Sobolev norm of g on R up to the given order."""
    return _sobolev_norm_1d(g_deriv, -2.0, 2.0, order, p)
