"""Deterministic numerical integration on boxes.

The package's one tensor-grid layer (axes, weights, outer products, tensor
slabs), composite Gauss-Legendre quadrature and grid L^p norms; every other
module builds on these.

Conventions
-----------
Multivariate fields are callables ``f(pts)`` where ``pts`` has shape
``(npoints, dim)`` and the return value has shape ``(npoints,)``.  A field
that ``integrate`` or ``lp_norm`` takes also carries ``f.on_grid(axes)``:
given per-axis node vectors it returns the field's values on the tensor grid
they span, shape ``(len(axes[0]), ..., len(axes[-1]))``, bit for bit the
values ``f`` gives at the grid's points in row-major order.  Both walk the
grid in tensor slabs and call ``on_grid`` on each slab; ``integrate_many``
sums several arrays per slab in one such walk, and passes the slab's index
ranges too, so they may slice per-axis values.  Each slab builds its own
weight product.  Only a slab sum that is not finite, as any NaN or inf value
makes it, has its array searched for the first such node to name in a
``FloatingPointError``; a finite ``|f|^p`` that overflows gives inf with
numpy's warning, no error.
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
    "multi_indices",
    "mixed_multi_indices",
    "integrate",
    "integrate_many",
    "integrate_1d",
    "lp_norm",
    "lp_norm_1d",
]

# Tensor reductions hand a field at most this many nodes at a time, so
# memory stays bounded whatever the node count.  At 2^19 nodes glibc gave
# each slab's 4 MB temporaries back to the kernel and faulted them in again
# (about 37,000 minor faults per family_n1e4 operation); at 2^18 it keeps them.
_CHUNK = 1 << 18

# No rule or grid holds more nodes than this.
_MAX_NODES = 1 << 27


@dataclass(frozen=True)
class Box:
    """Bounded axis-aligned box ``[lower_1, upper_1] x ... x [lower_d, upper_d]``."""

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
            if not (a < b and math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"box axis {i}: lower={a} must be < upper={b}, both finite")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)


@dataclass(frozen=True)
class QuadRule:
    """Composite Gauss-Legendre rule: per-axis panels, shared node count.

    ``nodes_per_panel`` Gauss-Legendre nodes are placed inside each of
    ``panels_per_axis[i]`` panels along axis ``i``: equal-width panels across
    the box, or, when the rule carries ``edges`` (``QuadRule.on_edges``), the
    panels between consecutive edges of axis ``i``.  The rule is exact on
    polynomials of per-axis degree ``<= 2*nodes_per_panel - 1`` on each panel.
    """

    nodes_per_panel: int = 8
    panels_per_axis: tuple[int, ...] = (1,)
    edges: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        panels = tuple(int(p) for p in self.panels_per_axis)
        object.__setattr__(self, "panels_per_axis", panels)
        if any(p < 1 for p in panels):
            raise ValueError("panel counts must be positive")
        if self.edges is not None and panels != tuple(len(e) - 1 for e in self.edges):
            raise ValueError("panels_per_axis must count the panels between the edges")
        total = math.prod(panels) * self.nodes_per_panel ** len(panels)
        if total > _MAX_NODES:
            raise ValueError(f"rule would generate {total} nodes; refusing")

    @staticmethod
    def on_edges(nodes_per_panel: int, edges: Sequence[Sequence[float]]) -> "QuadRule":
        """Rule with one panel between each pair of consecutive ``edges[i]`` on axis ``i``;
        ``grid_nodes`` checks them against the box."""
        edges = tuple(tuple(float(x) for x in axis) for axis in edges)
        return QuadRule(nodes_per_panel, tuple(len(e) - 1 for e in edges), edges)

    def panels_for(self, dim: int) -> tuple[int, ...]:
        """Per-axis panel counts on a ``dim``-box; one count applies to every axis."""
        panels = self.panels_per_axis
        if len(panels) == 1 and self.edges is None:
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
    return np.polynomial.legendre.leggauss(order)


def _axis_nodes(lo: float, hi: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and weights on [lo, hi]."""
    x, w = _gauss_nodes(nodes)
    width = (hi - lo) / panels
    edges = lo + width * np.arange(panels)
    pts = (edges[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * width * w, panels)
    return pts, wts


def _edge_nodes(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and weights on the panels between consecutive ``edges``."""
    x, w = _gauss_nodes(nodes)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x[None, :] + 1.0)).ravel(), (half * w[None, :]).ravel()


def grid_nodes(box: Box, rule: QuadRule) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-axis composite GL node and weight vectors for a box.

    Raises ``ValueError`` naming the axis whose edges do not ascend strictly
    from the box's lower bound to its upper one, or at which the grid passes
    the node cap.
    """
    panels, total = rule.panels_for(box.dim), 1
    for i, p in enumerate(panels):
        total *= p * rule.nodes_per_panel
        if total > _MAX_NODES:
            raise ValueError(f"axis {i}: grid would pass {_MAX_NODES} nodes; refusing")
    if rule.edges is None:
        axes = [_axis_nodes(lo, hi, p, rule.nodes_per_panel)
                for lo, hi, p in zip(box.lower, box.upper, panels)]
    else:
        axes = []
        for i, (lo, hi, edges) in enumerate(zip(box.lower, box.upper, rule.edges)):
            edges = np.asarray(edges)
            if not (edges[0] == lo and edges[-1] == hi and np.all(np.diff(edges) > 0)):
                raise ValueError(f"axis {i}: edges must ascend strictly from {lo} to {hi}")
            axes.append(_edge_nodes(edges, rule.nodes_per_panel))
    return [x for x, _ in axes], [w for _, w in axes]


def trapezoid_axes(box: Box, rule: QuadRule) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-axis uniform nodes and composite trapezoid weights for a box.

    Each axis gets ``panels * nodes_per_panel`` equal intervals, so the grid
    has the resolution of the Gauss-Legendre rule but includes the box edges.
    """
    if rule.edges is not None:
        raise ValueError("trapezoid axes take a rule of equal panels, not explicit edges")
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


def _check_finite(vals: np.ndarray, axes: Sequence[np.ndarray]) -> None:
    """Raise naming the first node of the grid spanned by ``axes`` whose value
    (``vals`` in row-major order) is not finite."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        flat = int(np.argmax(bad))
        idx = np.unravel_index(flat, tuple(len(a) for a in axes))
        node = [float(a[i]) for a, i in zip(axes, idx)]
        raise FloatingPointError(
            f"integrand returned non-finite value {vals.flat[flat]} at node {node}"
        )


def integrate(f: Callable, box: Box, rule: QuadRule) -> float:
    """Composite tensor Gauss-Legendre integral of ``f`` over ``box``, taken
    through ``f.on_grid`` slab by slab.

    Raises ``FloatingPointError`` naming the offending node if ``f``
    returns a non-finite value anywhere.
    """
    return _tensor_reduce(f, *grid_nodes(box, rule), power=None)


def integrate_many(arrays: Callable, box: Box, rule: QuadRule) -> list[float]:
    """Integrals of the arrays ``arrays(axes, slab)`` yields on each slab (its
    nodes and their index ranges in ``grid_nodes``), in one pass; the k-th has
    the bits of ``integrate`` on a field whose ``on_grid`` gives it.  Every
    slab must yield the same number of arrays.  Each array is summed before
    the next is drawn, so they may share a buffer."""
    return _slab_sums(arrays, *grid_nodes(box, rule), power=None)


def lp_norm(f: Callable, box: Box, p: float, rule: QuadRule) -> float:
    """``(integral of |f|^p over box)^(1/p)``."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    return float(_tensor_reduce(f, *grid_nodes(box, rule), power=p) ** (1.0 / p))


def _slabs(shape: tuple[int, ...]):
    """Per-axis index ranges of the tensor slabs that cover a grid, in row-major order.

    A slab is a range of the leading axis crossed with the whole of every
    later axis; when one leading slice alone exceeds ``_CHUNK`` nodes, each
    slice is split along the next axis in the same way.  No slab holds more
    than ``_CHUNK`` nodes.
    """
    inner = math.prod(shape[1:])
    if inner <= _CHUNK:
        step = _CHUNK // inner
        rest = (slice(None),) * (len(shape) - 1)
        for start in range(0, shape[0], step):
            yield (slice(start, start + step),) + rest
        return
    for i in range(shape[0]):
        for rest in _slabs(shape[1:]):
            yield (slice(i, i + 1),) + rest


def _tensor_reduce(f, nodes: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                   power: float | None) -> float:
    """``_slab_sums`` of one field: ``f.on_grid`` on a slab's per-axis nodes."""
    def values(axes, slab):
        vals, expected = np.asarray(f.on_grid(axes), dtype=float), tuple(len(a) for a in axes)
        if vals.shape != expected:
            raise ValueError(f"field returned shape {vals.shape}, expected {expected}")
        yield vals

    return _slab_sums(values, nodes, weights, power)[0]


def _slab_sums(arrays: Callable, nodes: Sequence[np.ndarray], weights: Sequence[np.ndarray],
               power: float | None) -> list[float]:
    """Sum ``w * v`` (or ``w * |v|^p``) over the tensor grid for each array ``v``
    that ``arrays(axes, slab)`` yields on a slab's nodes and index ranges.  The
    weight of a node is the left-to-right product of its axis weights."""
    sums: list[float] | None = None
    for slab in _slabs(tuple(len(x) for x in nodes)):
        axes = [x[s] for x, s in zip(nodes, slab)]
        wts = tensor_product([w[s] for w, s in zip(weights, slab)]).ravel()
        parts = []
        for vals in arrays(axes, slab):
            terms = vals if power is None else np.abs(vals) ** power
            # einsum's own loop, not BLAS: a threaded BLAS splits a dot this long,
            # leaves its threads spinning between slabs, and its partial sums
            # depend on the thread count
            part = float(np.einsum("i,i->", wts, terms.ravel()))
            if not math.isfinite(part):
                _check_finite(vals, axes)
            parts.append(part)
        if sums is None:
            sums = [0.0] * len(parts)  # totals start at 0.0, so a -0.0 part sums to 0.0
        elif len(parts) != len(sums):
            raise ValueError("every slab must yield the same number of arrays: the first "
                             f"yielded {len(sums)}, a later one {len(parts)}")
        sums = [total + part for total, part in zip(sums, parts)]
    return sums


def integrate_1d(f: Callable, lo: float, hi: float, panels: int = 32,
                 nodes: int = 8) -> float:
    """Composite GL integral of a univariate function (1-d array in, out)."""
    x, w = _axis_nodes(lo, hi, panels, nodes)
    vals = np.asarray(f(x), dtype=float)
    _check_finite(vals, [x])
    return float(w @ vals)


def lp_norm_1d(f: Callable, lo: float, hi: float, p: float, panels: int = 32,
               nodes: int = 8) -> float:
    """``(integral of |f|^p over [lo, hi])^(1/p)`` for a univariate function."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    val = integrate_1d(lambda x: np.abs(np.asarray(f(x), dtype=float)) ** p,
                       lo, hi, panels, nodes)
    return val ** (1.0 / p)
