"""Product-space kernel density estimator and deterministic bias fields.

The estimator places one scaled copy of the product kernel at every
sample point:

    fhat(x) = (1 / (n h^D)) sum_i K((X_i - x) / h).

``kde_eval`` answers point queries through a sorted first-axis index so
only samples inside the kernel window are touched; ``kde_on_grid``
evaluates on tensor grids by factorizing the kernel across axes, which
turns the whole grid into one matrix product per sample block.  Bias
studies use the deterministic mean field (the truth convolved with the
scaled kernel), never Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .densities import Density
from .product import ProductKernel
from .quadrature import (Box, QuadRule, grid_nodes, grid_points, tensor_product,
                         _axis_nodes)

__all__ = [
    "KdeModel",
    "bandwidth_rule",
    "kde_eval",
    "kde_eval_batch",
    "kde_on_grid",
    "kde_mass",
    "kde_mean_field",
    "mean_field_on_axes",
    "bias_lp",
]


def bandwidth_rule(n: int, s1: int, s2: int, d1: int, d2: int) -> float:
    """``h = n^(-1/(2(s1+s2)+(d1+d2)))``, clamped strictly below one."""
    if n < 2:
        raise ValueError("bandwidth rule needs n >= 2")
    h = float(n) ** (-1.0 / (2.0 * (s1 + s2) + d1 + d2))
    return min(h, 1.0 - 1e-12)


@dataclass(frozen=True)
class KdeModel:
    kernel: ProductKernel
    h: float
    sample: np.ndarray

    def __post_init__(self):
        sample = np.atleast_2d(np.asarray(self.sample, dtype=float))
        object.__setattr__(self, "sample", sample)
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"bandwidth must lie in (0, 1), got {self.h}")
        if sample.shape[0] == 0:
            raise ValueError("sample must be nonempty")
        if sample.shape[1] != self.kernel.dim:
            raise ValueError(
                f"sample dimension {sample.shape[1]} != kernel dimension {self.kernel.dim}")
        order = np.argsort(sample[:, 0], kind="stable")
        object.__setattr__(self, "_sorted", sample[order])

    @property
    def n(self) -> int:
        return self.sample.shape[0]


def _factor_values(kernel: ProductKernel, axis: int, u: np.ndarray) -> np.ndarray:
    factor = kernel.kappa1 if axis < kernel.d1 else kernel.kappa2
    return factor(u)


def kde_eval(model: KdeModel, point: Sequence[float]) -> float:
    """Estimator value at one point; only window-adjacent samples are summed."""
    point = np.asarray(point, dtype=float)
    if point.shape != (model.kernel.dim,):
        raise ValueError(
            f"point has dimension {point.shape}, kernel wants ({model.kernel.dim},)")
    sorted_sample = model._sorted
    h = model.h
    lo = np.searchsorted(sorted_sample[:, 0], point[0] - h, side="left")
    hi = np.searchsorted(sorted_sample[:, 0], point[0] + h, side="right")
    window = sorted_sample[lo:hi]
    if window.shape[0] == 0:
        return 0.0
    inside = np.all(np.abs(window - point[None, :]) <= h, axis=1)
    window = window[inside]
    if window.shape[0] == 0:
        return 0.0
    vals = model.kernel((window - point[None, :]) / h)
    return float(vals.sum()) / (model.n * h ** model.kernel.dim)


def kde_eval_batch(model: KdeModel, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.array([kde_eval(model, row) for row in pts])


def kde_on_grid(model: KdeModel, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Estimator on the tensor grid spanned by per-axis node vectors.

    The product kernel factorizes: with ``B_j[i, a] = kappa((X_ij -
    axes_j[a]) / h)`` the grid values are ``sum_i prod_j B_j[i, a_j]``,
    an einsum contraction over the sample index.
    """
    dim = model.kernel.dim
    if len(axes) != dim:
        raise ValueError(f"need {dim} axis vectors, got {len(axes)}")
    h = model.h
    sample = model.sample
    mats = []
    for j in range(dim):
        u = (sample[:, j][:, None] - np.asarray(axes[j])[None, :]) / h
        mats.append(_factor_values(model.kernel, j, u))
    if dim == 1:
        grid = mats[0].sum(axis=0)
    elif dim == 2:
        grid = mats[0].T @ mats[1]
    else:
        letters = "abcdefg"[:dim]
        spec = ",".join(f"i{c}" for c in letters) + "->" + letters
        grid = np.einsum(spec, *mats)
    return grid / (model.n * h ** dim)


def _factor_antiderivative(kernel: ProductKernel, axis: int) -> np.ndarray:
    factor = kernel.kappa1 if axis < kernel.d1 else kernel.kappa2
    return nppoly.polyint(np.asarray(factor.poly_coeffs))


def kde_mass(model: KdeModel, box: Box) -> float:
    """Exact integral of the estimator over a box via polynomial antiderivatives."""
    if box.dim != model.kernel.dim:
        raise ValueError("box dimension mismatch")
    h = model.h
    total = np.ones(model.n)
    for j in range(model.kernel.dim):
        anti = _factor_antiderivative(model.kernel, j)
        # substituting u = (X - x)/h maps x in [lo, hi] to u in
        # [(X - hi)/h, (X - lo)/h] and absorbs one 1/h factor
        u_upper = np.clip((model.sample[:, j] - box.lower[j]) / h, -1.0, 1.0)
        u_lower = np.clip((model.sample[:, j] - box.upper[j]) / h, -1.0, 1.0)
        total *= nppoly.polyval(u_upper, anti) - nppoly.polyval(u_lower, anti)
    return float(total.sum()) / model.n


def _kernel_nodes(h: float, truth: Density, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes and weights on the kernel support [-1, 1] resolving the
    truth's features seen through an h-scaled window."""
    rel = truth.feature_scale / h
    panels = max(2, int(np.ceil(2.0 / max(rel / 2.0, 1e-3))))
    return _axis_nodes(-1.0, 1.0, min(panels, 64), nodes)


def kde_mean_field(kernel: ProductKernel, h: float, truth: Density,
                   nodes: int = 10) -> Callable:
    """Field of ``E[fhat] = (scaled kernel) * truth``.

    Computed by quadrature in the kernel variable over its fixed support
    ``[-1, 1]^D``: the integrand is ``K(u) truth(x + h u)``, so accuracy is
    uniform in ``h``.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1), got {h}")
    dim = kernel.dim
    pts_1d, wts_1d = _kernel_nodes(h, truth, nodes)
    u_nodes = grid_points([pts_1d] * dim)
    weights = kernel(u_nodes) * tensor_product([wts_1d] * dim).ravel()
    truth_eval = truth.field.eval

    def field(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(pts.shape[0])
        for uk, wk in zip(u_nodes, weights):
            if wk == 0.0:
                continue
            out += wk * truth_eval(pts + h * uk[None, :])
        return out

    return field


def mean_field_on_axes(kernel: ProductKernel, h: float, truth: Density,
                       axes: Sequence[np.ndarray], nodes: int = 10) -> np.ndarray:
    """Mean field on a tensor grid; factorized per axis for product truths."""
    dim = kernel.dim
    if truth.axis_factors is None:
        field = kde_mean_field(kernel, h, truth, nodes=nodes)
        return field(grid_points(axes)).reshape([len(a) for a in axes])
    pts_1d, wts_1d = _kernel_nodes(h, truth, nodes)
    conv = []
    for j in range(dim):
        k_vals = _factor_values(kernel, j, pts_1d)
        grid = np.asarray(axes[j])
        shifted = grid[:, None] + h * pts_1d[None, :]
        f_vals = truth.axis_factors[j].pdf(shifted.ravel()).reshape(shifted.shape)
        conv.append(f_vals @ (k_vals * wts_1d))
    return tensor_product(conv)


def bias_lp(kernel: ProductKernel, h: float, truth: Density, p: float,
            box: Box, rule: QuadRule, nodes: int = 10) -> float:
    """``L^p`` norm of the mean-field error over a box (deterministic).

    The quadrature nodes form a tensor grid, so the mean field is
    evaluated through ``mean_field_on_axes`` (per-axis convolutions for
    product truths).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    axes, axis_weights = grid_nodes(box, rule)
    mean_grid = mean_field_on_axes(kernel, h, truth, axes, nodes=nodes)
    err = np.abs(mean_grid - truth.on_grid(axes)) ** p
    val = float(np.sum(tensor_product(axis_weights) * err))
    return val ** (1.0 / p)
