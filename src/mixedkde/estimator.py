"""Product-space kernel density estimator and deterministic bias fields.

The estimator places one scaled copy of the product kernel at every
sample point:

    fhat(x) = (1 / (n h^D)) sum_i K((X_i - x) / h).

The estimator is evaluated on tensor grids only (a point is a one-node
grid).  Every kernel factor is a polynomial on ``[-1, 1]``, so
``kde_on_grid`` sums by fast sum updating (Fan and Marron 1994): each
sample adds its power moments at the corners of its support box in one
difference table per moment, and prefix sums along the axes, contracted
with polynomials of the nodes, give every grid value.  The moments are
centred per tile about half a support wide (Langrené and Warin 2019), so
the sums stay accurate on wide grids, and a node that no sample covers is
an exact 0.0.  The cost grows with n plus the node count, never with n ×
nodes, and the estimator calls no BLAS routine.  Bias studies use the
deterministic mean field (the truth convolved with the scaled kernel),
never Monte Carlo; it is computed per axis, so it needs a product truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

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
# samples per chunk of kde_on_grid's difference-table entries
_CHUNK = 2048
# most tiles one support reaches on an axis whose kernel factor is not constant
_PIECES = 3


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

    Every kernel factor is a polynomial on its support, so the grid sums
    follow exactly from prefix sums of the samples' power moments (fast sum
    updating).  On each axis a sample covers the sorted nodes ``[lo, hi)``
    where ``|(x - node) / h| <= 1`` as the kernel factor computes it, less
    an end where the factor is exactly 0 (``_AxisPlan.support``).  Each
    axis is cut into tiles that span at most about ``h``, half a support,
    so a support reaches at most ``_PIECES`` = 3 tiles (``_tile_starts``).
    About a tile's centre ``c`` the factor expands as
    ``kappa((x - y) / h) = sum_l xi^l P_l(eta)`` with ``xi = (x - c) / h``
    and ``eta = (y - c) / h``, so ``|xi| <= 1.5`` and ``|eta| <= 0.5`` on
    any axis and the sums do not cancel as they would about one centre per
    axis.  A constant factor sums exact counts and takes the whole axis as
    one tile.

    Each sample adds its moment weights ``prod_j xi_j^l_j`` at the corners
    of its pieces in the tiles, in a difference table per moment and
    ``_CHUNK`` samples at a time.  Axis by axis, a prefix sum within each
    tile turns the differences into sums over the samples covering each
    node, and that axis's moments are contracted with its ``P_l(eta)``.
    Summing within tiles keeps the rounding of far samples out of a
    node's sum.  The moment of order 0 on every axis counts the covering
    samples exactly, and a node that no sample covers is an exact 0.0, as
    in the dense sum.  The cost is O(n 4^dim moments + nodes moments): no
    matrix product, so no dependence on BLAS threads, and no work per
    sample and node.  Memory is the tables plus one chunk.
    """
    dim = model.kernel.dim
    if len(axes) != dim:
        raise ValueError(f"grid has dimension {len(axes)}, kernel wants {dim}")
    h = model.h
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    shape = tuple(axis.size for axis in axes)
    if 0 in shape:
        return np.zeros(shape)
    plans = [_axis_plan(axes[j].tobytes(), h, model.kernel.factor(j)) for j in range(dim)]
    sums = _difference_tables(plans, model.sample, h)
    # The real part of ``work`` holds the moment sums still to contract and
    # the imaginary part of its moment-0 slot the coverage count.  Complex
    # addition adds the parts separately, so one prefix sum serves both.
    work = np.zeros(sums.shape[:1] + sums.shape[2:], dtype=complex)
    count = (slice(None),) + (0,) * (dim - 1)
    bounds = plans[0].bounds
    # axis 0 one tile at a time, while its rows are in cache: prefix sums
    # of contiguous slabs of every moment, then the contraction
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block, rows = sums[start:stop], slice(start, stop)
        for below, row in zip(block, block[1:]):
            row += below
        work.imag[rows][count] = block[count + (0,)]
        _contract(block, plans[0].poly[:, rows], sums.ndim - 2, work.real[rows])
    for j in range(1, dim):
        _tile_prefix_sums(work, work.ndim + j - dim, plans[j].bounds)
        _contract(work.real, plans[j].poly, dim - 1 - j)
        work = work[:, 0]
    work = work[tuple(slice(0, g) for g in shape)]
    # a factor of degree 0 is one constant on every node, left out of its contraction
    factor = np.prod([p.poly[0, 0] for p in plans if p.poly.shape[0] == 1]) / (model.n * h ** dim)
    grid = np.zeros(shape)
    np.multiply(work.real, factor, out=grid, where=work.imag != 0.0)
    for j, plan in enumerate(plans):
        if plan.order is not None:
            grid = np.take(grid, np.argsort(plan.order), axis=j)
    return grid


def _tile_prefix_sums(work: np.ndarray, axis: int, bounds: np.ndarray) -> None:
    """In-place prefix sums along ``axis`` that restart at every tile start."""
    for start, stop in zip(bounds[:-1], bounds[1:]):
        tile = work[(slice(None),) * axis + (slice(start, stop),)]
        np.cumsum(tile, axis=axis, out=tile)


def _difference_tables(plans: list["_AxisPlan"], x: np.ndarray, h: float) -> np.ndarray:
    """The moment difference tables, shape ``(S_0, L_0, .., L_{d-1}, S_1, .., S_{d-1})``.

    ``S_j`` is axis ``j``'s node count plus one sink node that takes the
    ends at ``hi = size``, and ``L_j`` its factor's moment count.  Axis 0
    leads, so its prefix sums add contiguous slabs.
    """
    dim = len(plans)
    sizes = [plan.poly.shape[1] for plan in plans]
    moments = [plan.poly.shape[0] for plan in plans]
    inner = int(np.prod(sizes[1:]))
    slots = int(np.prod(moments))
    strides = [slots * inner] + [int(np.prod(sizes[j + 1:])) for j in range(1, dim)]
    offsets = (inner * np.arange(slots))[:, None, None]
    table = np.zeros(sizes[0] * slots * inner)
    for first in range(0, x.shape[0], _CHUNK):
        chunk = x[first:first + _CHUNK].T
        finite = np.isfinite(chunk).all(axis=0)
        if not finite.all():
            chunk = chunk[:, finite]
        bounds = [plan.support(chunk[j], h) for j, plan in enumerate(plans)]
        live = np.logical_and.reduce([lo < hi for lo, hi in bounds])
        if not live.all():
            chunk, bounds = chunk[:, live], [b[:, live] for b in bounds]
        m = chunk.shape[1]
        if m == 0:
            continue
        corner, weight = np.zeros((1, m), dtype=np.intp), np.ones((1, 1, m))
        for j, plan in enumerate(plans):
            ends, end_weight = plan.ends(chunk[j], *bounds[j], h)
            corner = (corner[:, None] + strides[j] * ends[None, :]).reshape(-1, m)
            weight = (weight[:, None, :, None] * end_weight[None, :, None]).reshape(
                -1, corner.shape[0], m)
        np.add.at(table, (corner + offsets).ravel(), weight.ravel())
    return table.reshape(sizes[:1] + moments + sizes[1:])


def _contract(sums: np.ndarray, poly: np.ndarray, trailing: int, out=None) -> None:
    """``out = sum_l P_l * sums[:, l]``: one axis's moments contracted with its
    expansion polynomials, the axis followed by ``trailing`` grid axes.

    ``out`` defaults to ``sums[:, 0]``; ``sums[:, 1:]`` is overwritten.  A
    factor of degree 0 (one moment) is left for the caller's scale, so
    ``out`` gets ``sums[:, 0]`` as it is.
    """
    if poly.shape[0] == 1:
        if out is not None:
            out[...] = sums[:, 0]
        return
    along = poly.reshape(poly.shape + (1,) * trailing)
    out = sums[:, 0] if out is None else out
    np.multiply(sums[:, 0], along[0], out=out)
    for l in range(1, poly.shape[0]):
        part = sums[:, l]
        part *= along[l]
        out += part


class _AxisPlan(NamedTuple):
    """One axis of the grid: sorted nodes, tiles and expansion polynomials.

    ``nodes = axis[order]`` is the axis sorted (``order`` is None when it
    is sorted already), and ``step`` its spacing when it is even (None
    otherwise).  The support starts at the first sorted node with
    ``u <= limits[0]`` and ends before the first with ``u <= limits[1]``.
    Tile ``t`` holds the sorted nodes ``bounds[t]`` to ``bounds[t + 1] - 1``
    (the last one the sink node too), ``tile_of[k]`` is the tile of sorted
    node ``k``, and a support reaches at most ``pieces`` tiles.  Tile ``t``
    has centre ``centres[t]``.
    ``poly[l, k]`` is ``P_l(eta_k)``, the coefficient of ``xi^l`` in the
    kernel factor at sorted node ``k``; it is 0 on the sink node past the
    end.
    """

    order: np.ndarray | None
    nodes: np.ndarray
    step: float | None
    limits: np.ndarray
    bounds: np.ndarray
    tile_of: np.ndarray
    pieces: int
    centres: np.ndarray
    poly: np.ndarray

    @classmethod
    def build(cls, axis, h: float, kappa: UnivariateKernel) -> "_AxisPlan":
        nodes = np.asarray(axis, dtype=float)
        order = None
        if np.any(nodes[1:] < nodes[:-1]):
            order = np.argsort(nodes, kind="stable")
            nodes = nodes[order]
        size = nodes.size
        gaps = np.diff(nodes)
        step = (nodes[-1] - nodes[0]) / (size - 1) if size > 1 else 0.0
        if not (step > 0.0 and np.ptp(gaps) <= 1e-9 * step):
            step = None
        # |u| <= 1, except that an end where the factor is exactly 0 is left
        # out: it adds nothing, and a node only such ends reach stays an exact
        # 0.  polyval takes the Horner steps of UnivariateKernel.__call__; a
        # call would count as a factor evaluation in perfbench's trace, and
        # only in the first operation, since plans are cached.
        coeffs = list(kappa.poly_coeffs)
        ends = polyval(np.array([1.0, -1.0]), coeffs)
        limits = np.array([[1.0 if ends[0] else np.nextafter(1.0, 0.0)],
                           [np.nextafter(-1.0, -2.0) if ends[1] else -1.0]])
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        if len(coeffs) == 1:
            # a constant factor sums exact counts and needs no centres
            starts, pieces = [0], 1
        else:
            starts, pieces = _tile_starts(nodes, h), _PIECES
        bounds = np.array(starts + [size + 1])
        tile_of = np.repeat(np.arange(len(starts)), np.diff(bounds))
        centres = 0.5 * (nodes[bounds[:-1]] + nodes[np.minimum(bounds[1:], size) - 1])
        eta = (nodes - centres[tile_of[:size]]) / h
        # P_l(eta) = sum_{k >= l} c_k C(k, l) (-eta)^(k - l), by Horner in -eta
        poly = np.zeros((len(coeffs), size + 1))
        for l, row in enumerate(poly[:, :size]):
            row.fill(coeffs[-1] * comb(len(coeffs) - 1, l))
            for k in range(len(coeffs) - 2, l - 1, -1):
                row *= -eta
                row += coeffs[k] * comb(k, l)
        return cls(order, nodes, step, limits, bounds, tile_of, pieces, centres, poly)

    def support(self, x: np.ndarray, h: float) -> np.ndarray:
        """Each sample's support ``[lo, hi)`` on the sorted nodes, shape (2, m).

        These are exactly the nodes where ``|(x - node) / h| <= 1`` as
        ``UnivariateKernel.__call__`` computes it, less an end where the
        factor is exactly 0.  ``u`` does not increase along the sorted
        nodes, so a guess for the first node past ``x -+ h`` is walked to
        the first node past each limit.  The guess comes from the spacing
        on an even axis and from a binary search on any other; on the risk
        harness's even grids the binary search alone made a call at
        n = 2^14 about 1.6 times slower.  The samples must be finite.
        """
        nodes, limits = self.nodes, self.limits
        edges = x + np.array([[-h], [h]])
        if self.step is None:
            guess = np.searchsorted(nodes, edges)
        else:
            guess = np.clip(np.ceil((edges - nodes[0]) / self.step), 0, nodes.size)
            guess = guess.astype(np.intp)
        last = nodes.size - 1
        while True:
            back = (guess > 0) & ((x - nodes[np.maximum(guess - 1, 0)]) / h <= limits)
            ahead = (guess <= last) & ~((x - nodes[np.minimum(guess, last)]) / h <= limits)
            if not (back.any() or ahead.any()):
                return guess
            guess = guess - back + ahead

    def ends(self, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             h: float) -> tuple[np.ndarray, np.ndarray]:
        """Difference-table entries of the supports ``[lo, hi)`` of samples ``x``.

        Returns the sorted-node indices, shape (pieces + 1, m), and the
        weight of each moment there, shape (moments, pieces + 1, m).  A
        support is cut at every tile start it crosses; its piece in tile
        ``t`` adds ``xi_t^l`` at its start, and the last piece subtracts it
        at ``hi`` unless the next tile starts there.  Entries that are not
        needed get weight 0 at ``lo``.
        """
        pieces, bounds = self.pieces, self.bounds
        index = np.empty((pieces + 1, x.size), dtype=np.intp)
        weight = np.empty((self.poly.shape[0], pieces + 1, x.size))
        t = self.tile_of[lo]
        index[0] = lo
        _powers((x - self.centres[t]) / h, weight[:, 0])
        for k in range(1, pieces):
            crosses = hi > bounds[t + 1]
            t = t + crosses
            index[k] = np.where(crosses, bounds[t], lo)
            _powers((x - self.centres[t]) / h, weight[:, k])
            weight[:, k] *= crosses
        closes = hi != bounds[t + 1]
        index[pieces] = np.where(closes, hi, lo)
        _powers((x - self.centres[t]) / h, weight[:, pieces])
        weight[:, pieces] *= -1.0 * closes
        return index, weight


@lru_cache(maxsize=64)
def _axis_plan(axis: bytes, h: float, kappa: UnivariateKernel) -> _AxisPlan:
    """The plan of the axis with float64 bytes ``axis``, shared by every call
    on that axis, bandwidth and factor; its arrays are read-only.

    The risk harness evaluates every replicate of a cell on one grid and
    bandwidth.  Building the plans on every call made ``risk_pool_small_n``
    slower in 17 of 20 alternating pairs (3 to 6 % in the median), and it
    read +5.9 % wall against the banded-contraction estimator instead of
    -2.4 %.  A plan holds a few arrays of the axis's length.
    """
    plan = _AxisPlan.build(np.frombuffer(axis), h, kappa)
    for field in plan:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return plan


def _powers(xi: np.ndarray, out: np.ndarray) -> None:
    """``out[l] = xi^l`` for every row ``l`` of ``out``."""
    out[0] = 1.0
    for l in range(1, out.shape[0]):
        np.multiply(out[l - 1], xi, out=out[l])


def _tile_starts(nodes: np.ndarray, h: float) -> list[int]:
    """Greedy tile starts on the sorted nodes: each tile holds the nodes less
    than half a support's reach past its first, so it spans at most about h
    and one support reaches at most ``_PIECES`` = 3 tiles.

    Two nodes with ``|u| <= 1`` for one sample lie within ``2h (1 + 3 eps)``
    of each other; the reach below exceeds that even after its own rounding,
    and three tile starts span more than it.
    """
    eps = np.finfo(float).eps
    reach = (2.0 * h * (1.0 + 1e-9) + 4.0 * eps * np.abs(nodes)) / (_PIECES - 1)
    starts = [0]
    while True:
        first = starts[-1]
        following = int(np.searchsorted(nodes, nodes[first] + reach[first], side="right"))
        if following >= nodes.size:
            return starts
        starts.append(following)


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
