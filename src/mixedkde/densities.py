"""Test densities and the package's one field type.

A ``TensorField`` is a sum of Tucker ``Term``s, each a bool core over one
basis per axis whose functions have disjoint supports.  A product density
is one term with a 1 x ... x 1 core over its factors; ``lower_bound`` adds
a term per code word.  Points and grids share the arithmetic (a product
left to right from the term's scale, +0.0 where the core is unset), so
grid values are point values bit for bit; a partial acts on the bases.

``tensor_bump_density`` is the product of scaled bump pdfs the risk harness
uses.  ``plateau_density`` is exactly ``(kappa/N)^D`` on the cube of
half-width ``(N - 2) / (2 kappa)``: each factor is ``(kappa/N) *
LambdaTilde(kappa x)``, where ``LambdaTilde(u) = LambdaBar(u + N/2) -
LambdaBar(u - N/2)`` is the bump pdf convolved with the indicator of
``[-N/2, N/2]``.  Product densities are sampled per axis by inverting a
tabulated trapezoid CDF, built on the first ``sample`` call, on the sorted
uniforms, the brackets scattered back into draw order; a family member
has no axis factors, so it is not sampled.  A ``Density`` holds its
``TensorField`` as ``field``: ``field.eval`` is the density with
``on_grid``, ``field.partial_field(alpha)`` its partials, so
``sobolev.sobolev_norm`` takes the field itself.  ``pdf_ok`` holds the one
pass rule for a measured pdf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Sequence

import numpy as np

from .bumps import lambda_bar, lambda_deriv, lambda_value
from .quadrature import Box, integrate  # noqa: F401  (perfbench wraps it)

__all__ = [
    "AxisFactor",
    "Density",
    "pdf_ok",
    "tensor_bump_density",
    "plateau_density",
]

_CDF_KNOTS = 4096
# points per axis of the grid on which family_report looks for negative values
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
    CDF tables are built on the first ``sample`` call.
    """

    field: TensorField
    axis_factors: tuple[AxisFactor, ...] | None = None

    @cached_property
    def _cdf_tables(self) -> tuple:
        return tuple(f.cdf_table() for f in self.axis_factors)

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
        if self.axis_factors is None:
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
        """Values on the tensor grid spanned by per-axis node vectors (the field's ``on_grid``)."""
        return self.field.eval.on_grid(axes)

    def check_axes(self) -> list[np.ndarray]:
        """Per-axis nodes of the uniform grid where ``family_report`` looks for negative values."""
        return [np.linspace(lo, hi, _PDF_CHECK_GRID)
                for lo, hi in zip(self.support.lower, self.support.upper)]


def _row_major(indices, shape) -> np.ndarray:
    """Row-major positions in a grid of ``shape`` of per-axis indices (broadcast together)."""
    return reduce(lambda pos, j: pos * shape[j] + indices[j], range(1, len(shape)), indices[0])


@dataclass(frozen=True)
class Term:
    """A Tucker term: ``scale`` times per-axis basis values, multiplied left to
    right, where the bool ``core`` is set at their basis indices, +0.0 elsewhere.
    ``basis(axes, orders)`` gives each coordinate its index among its axis's
    disjoint basis functions (``core.shape[j]`` outside all) and that function's
    ``orders[j]``-th derivative there, and the scale of the partial ``orders``."""

    core: np.ndarray
    basis: Callable

    def points(self, pts: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
        index, values, scale = self.basis(pts.T, orders)
        core = np.pad(self.core, [(0, 1)] * self.core.ndim)  # padded for the outside index
        return np.where(core.take(_row_major(index, core.shape)),
                        reduce(np.multiply, values, scale), 0.0)

    def grid(self, basis) -> np.ndarray:
        """Values on the grid of the axes ``basis`` was taken on."""
        _, pos, (values,) = sub_grid([self], basis)
        return on_grid_at(tuple(len(ij) for ij in basis[0]), pos, values)


def sub_grid(terms: Sequence[Term], basis) -> tuple:
    """For terms of one basis, taken on a grid's axes: per axis the nodes a basis
    function reaches, the row-major positions of the sub-grid they span (None
    for the whole grid) and each term's values there, from one basis product."""
    index, values, scale = basis
    shape, grid = terms[0].core.shape, tuple(len(ij) for ij in index)
    nodes = [np.flatnonzero(ij < n) for ij, n in zip(index, shape)]
    sub = np.ix_(*nodes)
    product = reduce(np.multiply, [v[k] for v, k in zip(values, sub)], scale)
    pos = None if product.shape == grid else _row_major(sub, grid)
    if all(term.core.all() for term in terms):
        return nodes, pos, [product] * len(terms)
    ids = _row_major([ij[k] for ij, k in zip(index, sub)], shape)
    return nodes, pos, [np.where(term.core.take(ids), product, 0.0) for term in terms]


def on_grid_at(shape, pos, values: np.ndarray) -> np.ndarray:
    """A grid of ``shape``: ``values`` at the positions ``pos`` (all for None), +0.0 elsewhere."""
    if pos is None:
        return values
    out = np.zeros(shape)
    out.reshape(-1)[pos] = values
    return out


@dataclass(frozen=True)
class TensorField:
    """The sum of ``terms``, left to right, on ``support``; off its sub-grid a
    term's grid holds +0.0, as its point values do."""

    terms: tuple[Term, ...]
    support: Box

    def points(self, pts, orders: tuple[int, ...]) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return reduce(np.add, [term.points(pts, orders) for term in self.terms])

    def on_grid(self, axes: Sequence[np.ndarray], orders: tuple[int, ...]) -> np.ndarray:
        return reduce(np.add, [term.grid(term.basis(axes, orders)) for term in self.terms])

    def partial_field(self, alpha: tuple[int, ...]) -> Callable:
        """The partial ``alpha`` (it acts on the axis bases), with ``on_grid``."""
        orders = tuple(int(a) for a in alpha)
        field = partial(self.points, orders=orders)
        field.on_grid = partial(self.on_grid, orders=orders)
        return field

    @property
    def eval(self) -> Callable:
        """The field itself, the partial of order 0, with ``on_grid``."""
        return self.partial_field((0,) * self.support.dim)


def product_term(factors: Sequence[AxisFactor]) -> Term:
    """A product density's term: a 1 x ... x 1 core over its factors, which reach everywhere."""
    factors = tuple(factors)
    return Term(np.ones((1,) * len(factors), dtype=bool), lambda axes, orders: (
        tuple(np.zeros(np.shape(x), dtype=np.intp) for x in axes),
        [f.deriv(a)(x) if a > 0 else f.pdf(x) for f, a, x in zip(factors, orders, axes)], 1.0))


def product_density(factors: Sequence[AxisFactor]) -> Density:
    factors = tuple(factors)
    box = Box(tuple(f.lo for f in factors), tuple(f.hi for f in factors))
    return Density(field=TensorField((product_term(factors),), box), axis_factors=factors)


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
