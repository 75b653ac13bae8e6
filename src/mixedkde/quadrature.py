"""Deterministic numerical integration on boxes.

The package's one tensor-grid layer (axes, weights, outer products,
row-major points), composite Gauss-Legendre quadrature, grid L^p norms
and nested central finite differences; every other module builds on these.

Conventions
-----------
Multivariate fields are callables ``f(pts)`` where ``pts`` has shape
``(npoints, dim)`` and the return value has shape ``(npoints,)``.
Univariate helpers (``integrate_1d`` and friends) take plain 1-d arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Box",
    "QuadRule",
    "trapezoid_axes",
    "tensor_product",
    "grid_points",
    "multi_indices",
    "mixed_multi_indices",
    "integrate",
    "integrate_1d",
    "lp_norm",
    "lp_norm_1d",
    "partial_fd_field",
]

# Tensor reductions work through the grid this many points at a time, so
# memory stays bounded whatever the node count.
_CHUNK = 1 << 19

MAX_FD_ORDER = 6


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lower_1, upper_1] x ... x [lower_d, upper_d]``."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lower)
        hi = tuple(float(x) for x in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("lower and upper must have the same length")
        if len(lo) < 1:
            raise ValueError("box dimension must be >= 1")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:
                raise ValueError(f"box axis {i}: lower={a} must be < upper={b}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)


@dataclass(frozen=True)
class QuadRule:
    """Composite Gauss-Legendre rule: per-axis panel counts, shared node count.

    ``nodes_per_panel`` Gauss-Legendre nodes are placed inside each of
    ``panels_per_axis[i]`` equal-width panels along axis ``i``.  The rule is
    exact on polynomials of per-axis degree ``<= 2*nodes_per_panel - 1``.
    """

    nodes_per_panel: int = 8
    panels_per_axis: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        panels = tuple(int(p) for p in self.panels_per_axis)
        object.__setattr__(self, "panels_per_axis", panels)
        if any(p < 1 for p in panels):
            raise ValueError("panel counts must be positive")
        total = self.nodes_per_panel ** len(panels)
        for p in panels:
            total *= p
        if total > 1 << 27:
            raise ValueError(f"rule would generate {total} nodes; refusing")

    def panels_for(self, dim: int) -> tuple[int, ...]:
        """Per-axis panel counts on a ``dim``-box; one count applies to every axis."""
        panels = self.panels_per_axis
        if len(panels) == 1:
            panels = panels * dim
        if len(panels) != dim:
            raise ValueError(f"rule has {len(panels)} axes but box has {dim}")
        return panels

    @staticmethod
    def for_box(box: Box, feature_scale: float, nodes_per_panel: int = 8) -> "QuadRule":
        """Rule whose panel width is at most half the caller's feature scale."""
        if feature_scale <= 0:
            raise ValueError("feature_scale must be positive")
        widths = box.widths()
        panels = tuple(int(np.ceil(w / (0.5 * feature_scale))) for w in widths)
        return QuadRule(nodes_per_panel, panels)


@lru_cache(maxsize=64)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_nodes(lo: float, hi: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and weights on [lo, hi]."""
    x, w = _gauss_nodes(nodes)
    width = (hi - lo) / panels
    edges = lo + width * np.arange(panels)
    pts = (edges[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * width * w, panels)
    return pts, wts


def grid_nodes(box: Box, rule: QuadRule) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-axis composite GL node and weight vectors for a box."""
    nodes, weights = [], []
    for lo, hi, p in zip(box.lower, box.upper, rule.panels_for(box.dim)):
        x, w = _axis_nodes(lo, hi, p, rule.nodes_per_panel)
        nodes.append(x)
        weights.append(w)
    return nodes, weights


def trapezoid_axes(box: Box, rule: QuadRule) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-axis uniform nodes and composite trapezoid weights for a box.

    Each axis gets ``panels * nodes_per_panel`` equal intervals, so the grid
    has the resolution of the Gauss-Legendre rule but includes the box edges.
    """
    axes, weights = [], []
    for lo, hi, p in zip(box.lower, box.upper, rule.panels_for(box.dim)):
        npts = p * rule.nodes_per_panel + 1
        step = (hi - lo) / (npts - 1)
        w = np.full(npts, step)
        w[0] = w[-1] = 0.5 * step
        axes.append(np.linspace(lo, hi, npts))
        weights.append(w)
    return axes, weights


def tensor_product(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of per-axis vectors, shape ``(len(v_1), ..., len(v_d))``."""
    return reduce(np.multiply.outer, vectors)


def grid_points(axes: Sequence[np.ndarray], start: int = 0,
                stop: int | None = None) -> np.ndarray:
    """Points of the tensor grid spanned by ``axes``, shape ``(npoints, dim)``.

    Rows are in row-major (last axis fastest) order; ``start``/``stop``
    select a range of flat grid indices, so a grid can be walked in chunks
    without building the whole mesh.
    """
    shape = tuple(len(a) for a in axes)
    stop = math.prod(shape) if stop is None else stop
    idx = np.unravel_index(np.arange(start, stop), shape)
    return np.stack([np.asarray(a)[i] for a, i in zip(axes, idx)], axis=-1)


def multi_indices(dim: int, max_total: int) -> list[tuple[int, ...]]:
    """All ``dim``-component multi-indices with entry sum ``<= max_total``.

    Ordered lexicographically (``itertools.product`` order).
    """
    return [a for a in itertools.product(range(max_total + 1), repeat=dim)
            if sum(a) <= max_total]


def mixed_multi_indices(d1: int, s1: int, d2: int,
                        s2: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs ``(alpha_1, alpha_2)`` with ``|alpha_1| <= s1`` and ``|alpha_2| <= s2``.

    Ordered with ``alpha_1`` outermost, each block in ``multi_indices`` order.
    """
    return list(itertools.product(multi_indices(d1, s1), multi_indices(d2, s2)))


def _check_finite(vals: np.ndarray, pts: np.ndarray) -> None:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise FloatingPointError(
            f"integrand returned non-finite value {vals[idx]} at node {pts[idx].tolist()}"
        )


def integrate(f: Callable, box: Box, rule: QuadRule) -> float:
    """Composite tensor Gauss-Legendre integral of ``f`` over ``box``.

    Raises ``FloatingPointError`` naming the offending node if ``f``
    returns a non-finite value anywhere.
    """
    nodes, weights = grid_nodes(box, rule)
    return _tensor_reduce(f, nodes, weights, power=None)


def lp_norm(f: Callable, box: Box, p: float, rule: QuadRule) -> float:
    """``(integral of |f|^p over box)^(1/p)``."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    nodes, weights = grid_nodes(box, rule)
    val = _tensor_reduce(f, nodes, weights, power=p)
    return float(val ** (1.0 / p))


def _tensor_reduce(f, nodes: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                   power: float | None) -> float:
    """Sum ``w * f`` (or ``w * |f|^p``) over the tensor grid, in chunks.

    Each chunk's points and weights are built from its flat index range;
    the weight of a node is the left-to-right product of its axis weights,
    the same value ``tensor_product`` gives.
    """
    size = math.prod(len(x) for x in nodes)
    total = 0.0
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        chunk = grid_points(nodes, start, stop)
        vals = np.asarray(f(chunk), dtype=float)
        if vals.shape != (chunk.shape[0],):
            raise ValueError(
                f"field returned shape {vals.shape}, expected ({chunk.shape[0]},)"
            )
        _check_finite(vals, chunk)
        if power is not None:
            vals = np.abs(vals) ** power
        wts = reduce(np.multiply, grid_points(weights, start, stop).T)
        total += float(wts @ vals)
    return total


def integrate_1d(f: Callable, lo: float, hi: float, panels: int = 32,
                 nodes: int = 8) -> float:
    """Composite GL integral of a univariate function (1-d array in, out)."""
    x, w = _axis_nodes(lo, hi, panels, nodes)
    vals = np.asarray(f(x), dtype=float)
    _check_finite(vals, x[:, None])
    return float(w @ vals)


def lp_norm_1d(f: Callable, lo: float, hi: float, p: float, panels: int = 32,
               nodes: int = 8) -> float:
    """``(integral of |f|^p over [lo, hi])^(1/p)`` for a univariate function."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    val = integrate_1d(lambda x: np.abs(np.asarray(f(x), dtype=float)) ** p,
                       lo, hi, panels, nodes)
    return val ** (1.0 / p)


def _fd_stencil(alpha: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (in steps) and integer coefficients of the nested central difference.

    Nesting the two-point central difference ``order`` times along one axis
    expands to the binomial stencil below; the expansion is the nested
    operator written out, not a wider one-shot stencil.  Coefficients stay
    exact integers (so constants cancel exactly) and the ``(2h)^order``
    scale is divided out once at the end.
    """
    offsets = np.zeros((1, len(alpha)))
    coeffs = np.ones(1)
    for axis, order in enumerate(alpha):
        if order == 0:
            continue
        j = np.arange(order + 1)
        cf = ((-1.0) ** j) * np.array([math.comb(order, int(k)) for k in j])
        new_offsets = np.repeat(offsets, order + 1, axis=0)
        new_offsets[:, axis] += np.tile(order - 2 * j, offsets.shape[0])
        coeffs = (coeffs[:, None] * cf[None, :]).ravel()
        offsets = new_offsets
    return offsets, coeffs


def partial_fd_field(f: Callable, alpha: Sequence[int],
                     step: float | None = None) -> Callable:
    """Field computing the nested central-difference partial at every row of a batch.

    Axes are differenced one at a time in increasing index order; the
    default step is ``1e-3 * max(1, |coordinate|)`` per axis and row.  A
    single point is a batch of one row.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be non-negative")
    if sum(alpha) > MAX_FD_ORDER:
        raise ValueError(
            f"finite-difference partials unsupported for |alpha|={sum(alpha)} "
            f"> {MAX_FD_ORDER}"
        )
    if step is not None and not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    offsets, coeffs = _fd_stencil(alpha)

    def field(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        steps = (1e-3 * np.maximum(1.0, np.abs(pts)) if step is None
                 else np.full(pts.shape, float(step)))
        acc = np.zeros(pts.shape[0])
        for off, cf in zip(offsets, coeffs):
            acc += cf * np.asarray(f(pts + off * steps), dtype=float)
        return acc / np.prod((2.0 * steps) ** np.asarray(alpha), axis=1)

    return field
