"""Test densities: products of univariate factors with exact derivatives.

Two families are built here.  ``tensor_bump_density`` is the smooth
compactly supported product of scaled bump pdfs used by the risk harness.
``plateau_density`` is the product density that is exactly ``(kappa/N)^D``
on the central cube of half-width ``(N - 2) / (2 kappa)``: each factor is ``(kappa/N) * LambdaTilde(kappa x)`` where
``LambdaTilde(u) = LambdaBar(u + N/2) - LambdaBar(u - N/2)`` is the bump
pdf convolved with the indicator of ``[-N/2, N/2]``.  The perturbation
family of the lower-bound construction is layered on top of it in
``lower_bound``.

Product densities are sampled per axis through a tabulated cumulative
trapezoid CDF inverted by bisection on the uniforms in sorted order, with
the brackets scattered back so the draws keep their order.  A density
without axis factors (a member of the lower-bound family) can be
evaluated and integrated but not sampled: sampling, like the per-axis
mean field, needs a product density.  ``pdf_ok`` holds the one pass rule
for a measured pdf.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .bumps import lambda_bar, lambda_deriv, lambda_value
from .quadrature import Box, QuadRule, integrate, tensor_product
from .sobolev import DifferentiableField

__all__ = [
    "AxisFactor",
    "Density",
    "pdf_ok",
    "tensor_bump_density",
    "plateau_density",
]

_CDF_KNOTS = 4096
# points per axis of the grid on which verify_pdf looks for negative values
_PDF_CHECK_GRID = 256


@dataclass(frozen=True)
class AxisFactor:
    """Univariate pdf factor of a product density."""

    pdf: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    deriv: Callable[[int], Callable[[np.ndarray], np.ndarray]]

    def cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.linspace(self.lo, self.hi, _CDF_KNOTS)
        vals = self.pdf(x)
        steps = np.diff(x)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * steps)))
        cdf /= cdf[-1]
        return x, cdf


def pdf_ok(integral_defect: float, min_value: float) -> bool:
    """Pass rule for a measured pdf: unit mass and no negative value, up to rounding."""
    return bool(integral_defect <= 1e-8 and min_value >= -1e-12)


@dataclass(frozen=True)
class Density:
    """Evaluable pdf on a bounded box.

    ``axis_factors`` is set for product densities and unlocks the
    factorized paths (per-axis convolutions, inverse-CDF sampling); their
    CDF tables are built with the density.
    """

    field: DifferentiableField
    axis_factors: tuple[AxisFactor, ...] | None = None
    _cdf_tables: tuple | None = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tables = (None if self.axis_factors is None
                  else tuple(f.cdf_table() for f in self.axis_factors))
        object.__setattr__(self, "_cdf_tables", tables)

    @property
    def dim(self) -> int:
        return self.field.support.dim

    @property
    def support(self) -> Box:
        return self.field.support

    @property
    def feature_scale(self) -> float:
        """Length scale of the density's features: a quarter of the
        narrowest support width, capped at one."""
        return float(min(1.0, np.min(self.support.widths()) / 4.0))

    def __call__(self, pts) -> np.ndarray:
        return self.field.eval(np.atleast_2d(np.asarray(pts, dtype=float)))

    def sample(self, seed: int, count: int) -> np.ndarray:
        """``count`` points, one uniform per point and axis inverted through
        that axis's CDF table.

        Each axis's uniforms are searched in ascending order (the search
        then narrows from the previous key) and the brackets scattered back,
        so every draw keeps its value and its place in draw order."""
        if self._cdf_tables is None:
            raise ValueError("sampling needs a product density (one with axis_factors)")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty((0, self.dim))
        rng = np.random.default_rng(np.uint64(seed))
        out = np.empty((count, self.dim))
        for j, (x, cdf) in enumerate(self._cdf_tables):
            u = rng.random(count)
            # bisection to the bracketing knots, linear within the bracket
            order = np.argsort(u)
            idx = np.empty(count, dtype=np.intp)
            idx[order] = np.searchsorted(cdf, u[order], side="right")
            idx = np.clip(idx, 1, len(cdf) - 1)
            c0, c1 = cdf[idx - 1], cdf[idx]
            frac = np.where(c1 > c0, (u - c0) / np.maximum(c1 - c0, 1e-300), 0.0)
            out[:, j] = x[idx - 1] + frac * (x[idx] - x[idx - 1])
        return out

    def on_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on the tensor grid spanned by per-axis node vectors (the
        field's ``on_grid``; a product density's is evaluated factor by factor
        and multiplied out)."""
        return self.field.eval.on_grid(axes)

    def check_axes(self) -> list[np.ndarray]:
        """Per-axis nodes of the uniform grid where ``verify_pdf`` looks for negative values."""
        return [np.linspace(lo, hi, _PDF_CHECK_GRID)
                for lo, hi in zip(self.support.lower, self.support.upper)]

    def verify_pdf(self, rule: QuadRule) -> dict:
        """Measure the unit-mass defect and the most negative value on a uniform grid."""
        total = integrate(self.field.eval, self.support, rule)
        min_val = float(np.min(self.on_grid(self.check_axes())))
        return {
            "integral": total,
            "integral_defect": abs(total - 1.0),
            "min_grid_value": min_val,
            "ok": pdf_ok(abs(total - 1.0), min_val),
        }


def _product_field(factors: Sequence[AxisFactor]) -> DifferentiableField:
    factors = tuple(factors)
    box = Box(tuple(f.lo for f in factors), tuple(f.hi for f in factors))

    def partial_factory(alpha: tuple[int, ...]) -> Callable:
        funcs = [f.deriv(a) if a > 0 else f.pdf for f, a in zip(factors, alpha)]

        def deriv_field(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return reduce(np.multiply, [fn(x) for fn, x in zip(funcs, pts.T)])

        def on_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
            return tensor_product([fn(a) for fn, a in zip(funcs, axes)])

        deriv_field.on_grid = on_grid
        return deriv_field

    return DifferentiableField(eval=partial_factory((0,) * len(factors)), support=box,
                               partial_factory=partial_factory)


def product_density(factors: Sequence[AxisFactor]) -> Density:
    factors = tuple(factors)
    return Density(field=_product_field(factors), axis_factors=factors)


def _bump_factor(center: float, width: float) -> AxisFactor:
    c, w = float(center), float(width)

    def pdf(x):
        return lambda_value((np.asarray(x, dtype=float) - c) / w) / w

    def deriv(m: int):
        def d(x):
            return lambda_deriv(m, (np.asarray(x, dtype=float) - c) / w) / w ** (m + 1)
        return d

    return AxisFactor(pdf=pdf, lo=c - w, hi=c + w, deriv=deriv)


def tensor_bump_density(widths: Sequence[float],
                        centers: Sequence[float] | None = None) -> Density:
    """Product of scaled bump pdfs, one per axis: smooth and compact."""
    widths = [float(w) for w in widths]
    if centers is None:
        centers = [0.0] * len(widths)
    if len(centers) != len(widths):
        raise ValueError("widths and centers must have the same length")
    if any(w <= 0 for w in widths):
        raise ValueError("widths must be positive")
    return product_density([_bump_factor(c, w) for c, w in zip(centers, widths)])


def _plateau_axis_factor(big_n: float, kappa: float) -> AxisFactor:
    n_half = big_n / 2.0

    def pdf(x):
        u = kappa * np.asarray(x, dtype=float)
        tilde = lambda_bar(u + n_half) - lambda_bar(u - n_half)
        return (kappa / big_n) * tilde

    def deriv(m: int):
        def d(x):
            u = kappa * np.asarray(x, dtype=float)
            tilde_m = lambda_deriv(m - 1, u + n_half) - lambda_deriv(m - 1, u - n_half)
            return (kappa / big_n) * kappa ** m * tilde_m
        return d

    half_support = (big_n + 2.0) / (2.0 * kappa)
    return AxisFactor(pdf=pdf, lo=-half_support, hi=half_support, deriv=deriv)


def plateau_density(big_n: float, kappa: float, dim: int) -> Density:
    """Product density that is exactly ``(kappa/N)^dim`` on the central cube.

    Supported in ``[-(N+2)/(2 kappa), (N+2)/(2 kappa)]^dim`` and constant on
    ``[(-N+2)/(2 kappa), (N-2)/(2 kappa)]^dim``.
    """
    if big_n <= 8:
        raise ValueError(f"plateau construction needs N > 8, got {big_n}")
    if not 0 < kappa <= 1:
        raise ValueError(f"kappa must be in (0, 1], got {kappa}")
    factors = [_plateau_axis_factor(big_n, kappa) for _ in range(dim)]
    return product_density(factors)
