"""Product-space kernel density estimator and deterministic bias fields.

The estimator places one scaled copy of the product kernel at every
sample point:

    fhat(x) = (1 / (n h^D)) sum_i K((X_i - x) / h).

The estimator is evaluated on tensor grids only (a point is a one-node
grid).  ``kde_on_grid`` factorizes the kernel across axes and contracts
the samples in blocks: each kernel factor is evaluated only on the nodes
of each sample's support window, bit for bit the dense value, and each
block adds one small matrix product into the band of grid columns its
windows cover.  No sample × node matrix is built, so memory grows with
the grid and the block, not with n × nodes.  The small products round
differently on different BLAS thread counts, which is why the risk
harness computes its cells on one BLAS thread.  Bias studies use the
deterministic mean field (the truth convolved with the scaled kernel),
never Monte Carlo; it is computed per axis, so it needs a product truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
# samples per block of the grid contraction in kde_on_grid
_BLOCK = 256


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
    axes_j[a]) / h)`` the grid values are ``sum_i prod_j B_j[i, a_j]``, a
    contraction over the sample index.  No ``B_j`` is built.  The samples
    are stable-sorted by where their window starts on the band axis (the
    first axis with the most nodes) and contracted in blocks of
    ``_BLOCK``.  Per block, the band-axis windows fill a slab over the
    sorted band nodes the block covers, the products of the other axes'
    windows fill a reused block × (other-axes grid size) buffer, and one
    matrix product adds ``buffer.T @ slab`` into those band columns.  The
    other axes are scattered in node order, so only the band axis needs
    its node order restored at the end.  Every factor value is bit for bit
    the dense entry.  Memory is the grid plus ``_BLOCK`` rows of the buffer and the
    slab plus O(n), never n × nodes.

    The sum is exact up to its order, which is fixed for a given input.
    The small per-block products may round differently on different BLAS
    thread counts, so ``mc_risk`` computes every cell on one BLAS thread.
    """
    dim = model.kernel.dim
    if len(axes) != dim:
        raise ValueError(f"grid has dimension {len(axes)}, kernel wants {dim}")
    h, x = model.h, model.sample
    kappas = [model.kernel.factor(j) for j in range(dim)]
    wins = [_axis_windows(x[:, j], axes[j], h) for j in range(dim)]
    band = max(range(dim), key=lambda j: wins[j].nodes.size)
    others = [j for j in range(dim) if j != band]
    band_win = wins[band]
    strides = np.cumprod([1] + [wins[j].nodes.size for j in reversed(others)])[::-1]
    rest = int(strides[0])
    acc = np.zeros((rest, band_win.nodes.size))
    buffer = np.zeros(min(_BLOCK, model.n) * rest)
    perm = np.argsort(band_win.start, kind="stable")
    for first in range(0, model.n, _BLOCK):
        rows = perm[first:first + _BLOCK]
        m = rows.size
        # each window cell's place in the block buffer, and its factor product
        cell = np.arange(m)[:, None] * rest
        vals = np.ones((m, 1))
        for j, stride in zip(others, strides[1:]):
            cols, factor = wins[j].factor(kappas[j], x[:, j], rows, h)
            cell = (cell[:, :, None] + stride * wins[j].order[cols][:, None, :]).reshape(m, -1)
            vals = (vals[:, :, None] * factor[:, None, :]).reshape(m, -1)
        buffer[cell] = vals
        cols, factor = band_win.factor(kappas[band], x[:, band], rows, h)
        lo = int(band_win.start[rows[0]])
        span = int(band_win.start[rows[-1]]) - lo + band_win.width
        slab = np.zeros(m * span)
        slab[cols - lo + np.arange(m)[:, None] * span] = factor
        block = buffer[:m * rest].reshape(m, rest)
        acc[:, lo:lo + span] += block.T @ slab.reshape(m, span)
        buffer[cell] = 0.0
    grid = np.empty([win.nodes.size for win in wins])
    # undo the band axis's node sort; the other axes were scattered unsorted
    restored = np.moveaxis(grid, band, -1)
    restored[..., band_win.order] = acc.reshape(restored.shape)
    grid /= model.n * h ** dim
    return grid


class _AxisWindows(NamedTuple):
    """Each sample's support window on one axis.

    ``nodes = axis[order]`` is the axis sorted, and sample ``i``'s window
    is the ``width`` sorted nodes from ``start[i]`` on.
    """

    order: np.ndarray
    nodes: np.ndarray
    start: np.ndarray
    width: int

    def factor(self, kappa: UnivariateKernel, x: np.ndarray, rows,
               h: float) -> tuple[np.ndarray, np.ndarray]:
        """Sorted-node columns and ``kappa((x - node) / h)`` of the windows of ``rows``.

        Each value is computed by the dense formula, so it is bit for bit
        the dense entry.
        """
        cols = self.start[rows, None] + np.arange(self.width)
        return cols, kappa((x[rows, None] - self.nodes[cols]) / h)


def _axis_windows(x: np.ndarray, axis, h: float) -> _AxisWindows:
    """The windows ``[x - h, x + h]`` of the samples ``x`` on one axis.

    The window is widened by a margin that covers the rounding of ``u``:
    a node outside it has ``|u| > 1`` as computed, so its dense entry is
    an exact zero.  All windows share one width; clipping the starts keeps
    every window on the axis.
    """
    axis = np.asarray(axis, dtype=float)
    order = np.argsort(axis)
    nodes = axis[order]
    pad = 4.0 * np.finfo(float).eps * (np.abs(x) + h)
    lo = np.searchsorted(nodes, x - h - pad, side="left")
    hi = np.searchsorted(nodes, x + h + pad, side="right")
    width = min(int(np.max(hi - lo)), nodes.size)
    return _AxisWindows(order, nodes, np.clip(lo, 0, nodes.size - width), width)


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
