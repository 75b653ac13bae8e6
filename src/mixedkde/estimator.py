"""Product-space kernel density estimator and deterministic bias fields.

The estimator places one scaled copy of the product kernel at every
sample point:

    fhat(x) = (1 / (n h^D)) sum_i K((X_i - x) / h).

The estimator is evaluated on tensor grids only: ``kde_on_grid``
factorizes the kernel across axes, which turns the whole grid into one
matrix product per sample block (a point is a one-node grid).  Each
factor matrix is evaluated only inside each sample's support window and
holds exactly the values of the dense build, zeros included.  Bias
studies use the deterministic mean field (the truth convolved with the
scaled kernel), never Monte Carlo; it is computed per axis, so it needs
a product truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import Density
from .kernels import UnivariateKernel
from .product import ProductKernel
from .quadrature import Box, QuadRule, grid_nodes, tensor_product, _axis_nodes

__all__ = [
    "KdeModel",
    "bandwidth_rule",
    "kde_on_grid",
    "mean_field_on_axes",
    "bias_lp",
]

# Gauss-Legendre nodes per panel of the mean field's kernel-variable quadrature
_MEAN_FIELD_NODES = 10


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

    @property
    def n(self) -> int:
        return self.sample.shape[0]


def kde_on_grid(model: KdeModel, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Estimator on the tensor grid spanned by per-axis node vectors.

    The product kernel factorizes: with ``B_j[i, a] = kappa((X_ij -
    axes_j[a]) / h)`` the grid values are ``sum_i prod_j B_j[i, a_j]``,
    an einsum contraction over the sample index.  Each ``B_j`` is built
    by ``_factor_matrix`` from the sample's support windows only and is
    bit for bit the dense matrix.
    """
    dim = model.kernel.dim
    if len(axes) != dim:
        raise ValueError(f"grid has dimension {len(axes)}, kernel wants {dim}")
    h = model.h
    mats = [_factor_matrix(model.kernel.factor(j), model.sample[:, j], axes[j], h)
            for j in range(dim)]
    if dim == 1:
        grid = mats[0].sum(axis=0)
    elif dim == 2:
        grid = mats[0].T @ mats[1]
    else:
        letters = "abcdefg"[:dim]
        spec = ",".join(f"i{c}" for c in letters) + "->" + letters
        grid = np.einsum(spec, *mats)
    return grid / (model.n * h ** dim)


def _factor_matrix(kappa: UnivariateKernel, x: np.ndarray, axis, h: float) -> np.ndarray:
    """``kappa((x[:, None] - axis[None, :]) / h)``, evaluated only on the
    nodes of each sample's window ``[x - h, x + h]``.

    The window is widened by a margin that covers the rounding of ``u``:
    a node outside it has ``|u| > 1`` as computed, so its dense entry is
    the exact zero left here.  Inside, each entry is computed by the
    dense formula, so the matrix equals the dense one bit for bit.
    """
    axis = np.asarray(axis, dtype=float)
    order = np.argsort(axis)
    nodes = axis[order]
    pad = 4.0 * np.finfo(float).eps * (np.abs(x) + h)
    lo = np.searchsorted(nodes, x - h - pad, side="left")
    hi = np.searchsorted(nodes, x + h + pad, side="right")
    # one common width; clipping the starts keeps every window on the axis
    width = min(int(np.max(hi - lo)), nodes.size)
    cols = np.clip(lo, 0, nodes.size - width)[:, None] + np.arange(width)
    out = np.zeros((x.size, nodes.size))
    np.put_along_axis(out, order[cols], kappa((x[:, None] - nodes[cols]) / h), axis=1)
    return out


def _kernel_nodes(h: float, truth: Density) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes and weights on the kernel support [-1, 1] resolving the
    truth's features seen through an h-scaled window."""
    rel = truth.feature_scale / h
    panels = max(2, int(np.ceil(2.0 / max(rel / 2.0, 1e-3))))
    return _axis_nodes(-1.0, 1.0, min(panels, 64), _MEAN_FIELD_NODES)


def mean_field_on_axes(kernel: ProductKernel, h: float, truth: Density,
                       axes: Sequence[np.ndarray]) -> np.ndarray:
    """Field of ``E[fhat] = (scaled kernel) * truth`` on a tensor grid.

    A product truth makes the convolution a product of univariate ones,
    each computed by quadrature in the kernel variable over its fixed
    support ``[-1, 1]``, so accuracy is uniform in ``h``.  Other truths
    are rejected.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1), got {h}")
    if truth.axis_factors is None:
        raise ValueError("the mean field needs a product truth (one with axis_factors)")
    pts_1d, wts_1d = _kernel_nodes(h, truth)
    conv = []
    for j in range(kernel.dim):
        k_vals = kernel.factor(j)(pts_1d)
        grid = np.asarray(axes[j])
        shifted = grid[:, None] + h * pts_1d[None, :]
        f_vals = truth.axis_factors[j].pdf(shifted.ravel()).reshape(shifted.shape)
        conv.append(f_vals @ (k_vals * wts_1d))
    return tensor_product(conv)


def bias_lp(kernel: ProductKernel, h: float, truth: Density, p: float,
            box: Box, rule: QuadRule) -> float:
    """``L^p`` norm of the mean-field error over a box (deterministic).

    The quadrature nodes form a tensor grid, so the mean field is
    evaluated through ``mean_field_on_axes`` (per-axis convolutions; a
    product truth is required).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    axes, axis_weights = grid_nodes(box, rule)
    mean_grid = mean_field_on_axes(kernel, h, truth, axes)
    err = np.abs(mean_grid - truth.on_grid(axes)) ** p
    val = float(np.sum(tensor_product(axis_weights) * err))
    return val ** (1.0 / p)
