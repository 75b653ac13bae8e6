"""Test densities: products of univariate factors with exact derivatives.

Two families are built here.  ``tensor_bump_density`` is the smooth
compactly supported product of scaled bump pdfs used by the risk harness.
``plateau_density`` is the product density that is exactly constant on a
central cube: each factor is ``(kappa/N) * LambdaTilde(kappa x)`` where
``LambdaTilde(u) = LambdaBar(u + N/2) - LambdaBar(u - N/2)`` is the bump
pdf convolved with the indicator of ``[-N/2, N/2]``.  The perturbation
family of the lower-bound construction is layered on top of it in
``lower_bound``.

Product densities are sampled per axis through a tabulated cumulative
trapezoid CDF inverted by bisection; non-product perturbations use
rejection sampling (see ``lower_bound``).  Every density carries its
sampler; ``pdf_ok`` holds the one pass rule for a measured pdf.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bumps import lambda_bar, lambda_deriv, lambda_value
from .quadrature import Box, QuadRule, grid_points, integrate, tensor_product
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


class _ProductSampler:
    """Per-axis inverse-CDF sampler for product densities."""

    def __init__(self, factors: Sequence[AxisFactor]):
        self._tables = [f.cdf_table() for f in factors]

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, len(self._tables)))
        for j, (x, cdf) in enumerate(self._tables):
            u = rng.random(count)
            # bisection to the bracketing knots, linear within the bracket
            idx = np.searchsorted(cdf, u, side="right")
            idx = np.clip(idx, 1, len(cdf) - 1)
            c0, c1 = cdf[idx - 1], cdf[idx]
            frac = np.where(c1 > c0, (u - c0) / np.maximum(c1 - c0, 1e-300), 0.0)
            out[:, j] = x[idx - 1] + frac * (x[idx] - x[idx - 1])
        return out


def pdf_ok(integral_defect: float, min_value: float) -> bool:
    """Pass rule for a measured pdf: unit mass and no negative value, up to rounding."""
    return bool(integral_defect <= 1e-8 and min_value >= -1e-12)


@dataclass(frozen=True)
class Density:
    """Evaluable pdf on a bounded box with its sampler.

    ``sampler.draw(rng, count)`` returns ``count`` points.  ``axis_factors``
    is set for product densities and unlocks the factorized paths
    (per-axis convolutions, tensor-grid values, inverse-CDF sampling).
    """

    field: DifferentiableField
    sampler: object = dataclasses.field(repr=False)
    axis_factors: tuple[AxisFactor, ...] | None = None

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
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty((0, self.dim))
        rng = np.random.default_rng(np.uint64(seed))
        return self.sampler.draw(rng, count)

    def on_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values of a product density on the tensor grid spanned by per-axis
        node vectors, evaluated factor by factor and multiplied out."""
        return tensor_product([f.pdf(a) for f, a in zip(self.axis_factors, axes)])

    def verify_pdf(self, rule: QuadRule) -> dict:
        """Measure the unit-mass defect and the most negative value on a uniform grid."""
        total = integrate(self.field.eval, self.support, rule)
        axes = [np.linspace(lo, hi, _PDF_CHECK_GRID)
                for lo, hi in zip(self.support.lower, self.support.upper)]
        min_val = float(np.min(self.field.eval(grid_points(axes))))
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
            vals = np.ones(pts.shape[0])
            for j, fn in enumerate(funcs):
                vals *= fn(pts[:, j])
            return vals

        return deriv_field

    return DifferentiableField(eval=partial_factory((0,) * len(factors)), support=box,
                               partial_factory=partial_factory)


def product_density(factors: Sequence[AxisFactor]) -> Density:
    factors = tuple(factors)
    return Density(field=_product_field(factors), sampler=_ProductSampler(factors),
                   axis_factors=factors)


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


@dataclass(frozen=True)
class PlateauInfo:
    big_n: float
    kappa: float
    dim: int

    @property
    def value(self) -> float:
        """Exact constant value on the central cube."""
        return (self.kappa / self.big_n) ** self.dim

    @property
    def plateau_halfwidth(self) -> float:
        return (self.big_n - 2.0) / (2.0 * self.kappa)


def plateau_density(big_n: float, kappa: float, dim: int) -> tuple[Density, PlateauInfo]:
    """Product density that is exactly ``(kappa/N)^dim`` on the central cube.

    Supported in ``[-(N+2)/(2 kappa), (N+2)/(2 kappa)]^dim`` and constant on
    ``[(-N+2)/(2 kappa), (N-2)/(2 kappa)]^dim``.
    """
    if big_n <= 8:
        raise ValueError(f"plateau construction needs N > 8, got {big_n}")
    if not 0 < kappa <= 1:
        raise ValueError(f"kappa must be in (0, 1], got {kappa}")
    factors = [_plateau_axis_factor(big_n, kappa) for _ in range(dim)]
    return product_density(factors), PlateauInfo(big_n=big_n, kappa=kappa, dim=dim)
