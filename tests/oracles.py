"""Independent reference implementations used only as test oracles.

Nothing here imports from the package's numerical paths but the two
functions the lower-bound family is defined from, ``bumps.lambda_bar``
and the wiggle ``bumps.g_function``: quadrature is adaptive-bisection
Simpson or composite Gauss-Legendre from ``leggauss``, tensor integrals
are dense sums, derivatives are nested central finite differences,
inverse-CDF sampling bisects each uniform in draw order, the
density-estimator risk is a naive double loop with its own Horner
polynomial evaluation, the lower-bound perturbation finds its blocks by
scanning every block centre, a family member is a loop over its blocks,
and a code's minimum Hamming distance compares every ordered pair of
words.  These are deliberately slow and simple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from mixedkde.bumps import g_function, lambda_bar

# beyond this total order a nested central difference at step 1e-3 is rounding noise
MAX_FD_ORDER = 6
# The family oracle's own rule: every stretch between two consecutive edges
# gets FAMILY_PANELS equal panels of FAMILY_NODES Gauss-Legendre nodes each.
# Fixed before its first run, and not tuned to the errors it measures.
FAMILY_PANELS = 8
FAMILY_NODES = 10


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive bisection Simpson quadrature (scalar integrand)."""

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 60 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + rec(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, tol, 0)


def tensor_trapezoid(f, lower, upper, pts_per_axis: int = 801) -> float:
    """Dense trapezoid integral of f(pts)->vals over a box."""
    axes = [np.linspace(lo, hi, pts_per_axis) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(f(pts)).reshape([pts_per_axis] * len(axes))
    for ax in reversed(axes):
        vals = np.trapezoid(vals, ax, axis=-1)
    return float(vals)


def grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Points of the tensor grid spanned by ``axes``, shape ``(npoints, dim)``,
    rows in row-major (last axis fastest) order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def grid_field(f: Callable) -> Callable:
    """The point field ``f`` with the ``on_grid`` that tensor quadrature
    needs: ``f`` at the grid's points, reshaped to the grid."""
    def field(pts):
        return f(pts)

    field.on_grid = lambda axes: np.reshape(f(grid_points(axes)), [len(a) for a in axes])
    return field


@dataclass(frozen=True)
class PartialsField:
    """A field given by its partials: ``partial(alpha)`` is the point function
    of the partial ``alpha``; ``partial_field`` adds the ``on_grid`` that
    tensor quadrature needs.  A hand-built field for ``sobolev_norm``."""

    partial: Callable
    support: object

    def partial_field(self, alpha) -> Callable:
        return grid_field(self.partial(tuple(int(a) for a in alpha)))

    @property
    def eval(self) -> Callable:
        return self.partial_field((0,) * len(self.support.lower))


def composite_gauss_legendre(edges, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``nodes``-point Gauss-Legendre panels between
    consecutive ``edges``."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.asarray(edges, dtype=float)
    centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (centre[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def gauss_legendre_box(f, lower, upper, panels, nodes: int) -> tuple[float, float]:
    """Integral of ``f(pts) -> vals`` over a box on the tensor rule of
    ``panels[j]`` equal panels of ``nodes`` Gauss-Legendre nodes on axis j,
    and the smallest value at a node; 64 axis-0 nodes at a time."""
    rules = [composite_gauss_legendre(np.linspace(lo, hi, count + 1), nodes)
             for lo, hi, count in zip(lower, upper, panels)]
    axes, weights = [x for x, _ in rules], [w for _, w in rules]
    total, low = 0.0, math.inf
    for start in range(0, len(axes[0]), 64):
        rows = slice(start, start + 64)
        vals = np.asarray(f(grid_points([axes[0][rows]] + axes[1:])), dtype=float)
        total += float(np.dot(grid_points([weights[0][rows]] + weights[1:]).prod(axis=1), vals))
        low = min(low, float(vals.min()))
    return total, low


def family_centres(params) -> np.ndarray:
    """The block centres on every axis: ``xi_k = -(N - 4)/(4 kappa) + 8 sigma k``, k = 1..M."""
    return (-(params.big_n - 4.0) / (4.0 * params.kappa)
            + 8.0 * params.sigma * np.arange(1, params.m_per_axis + 1))


def family_oracle_rule(params) -> tuple[list, list]:
    """Per-axis nodes and weights of the family oracle's own rule, the same on
    every axis.  Its edges come from the family's definition: f_0's support
    ends ``+-(N + 2)/(2 kappa)`` and plateau ends ``+-(N - 2)/(2 kappa)``, and
    for each block ``xi_k - 2 sigma``, ``xi_k`` and ``xi_k + 2 sigma``, the
    wiggle's support ends and zero crossing.  Every stretch between two edges
    gets ``FAMILY_PANELS`` equal panels of ``FAMILY_NODES`` nodes."""
    support = (params.big_n + 2.0) / (2.0 * params.kappa)
    plateau = (params.big_n - 2.0) / (2.0 * params.kappa)
    sigma = params.sigma
    blocks = [(c - 2.0 * sigma, c, c + 2.0 * sigma) for c in family_centres(params)]
    edges = np.concatenate([[-support, -plateau], np.ravel(blocks), [plateau, support]])
    panels = np.concatenate([np.linspace(a, b, FAMILY_PANELS + 1)[:-1]
                             for a, b in zip(edges[:-1], edges[1:])] + [edges[-1:]])
    x, w = composite_gauss_legendre(panels, FAMILY_NODES)
    return [x] * params.dim, [w] * params.dim


class CodedFamily:
    """The lower-bound family's members at the points ``pts``, written from
    the definition ``f_0 + A sum_m omega_m prod_j g((x_j - xi_{m_j}) / sigma)``
    with ``f_0 = prod_j (kappa/N) (LambdaBar(kappa x_j + N/2) -
    LambdaBar(kappa x_j - N/2))``, one block m at a time in row-major order,
    as a word's bits index them.  Each block's product is formed once, on the
    points within 2 sigma of its centre on every axis.  With ``weights``, one
    per point, it integrates too."""

    def __init__(self, params, pts: np.ndarray, weights: np.ndarray | None = None):
        self.params, self.weights = params, weights
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        kappa, half = params.kappa, params.big_n / 2.0
        self.f0 = np.prod([(kappa / params.big_n)
                           * (lambda_bar(kappa * x + half) - lambda_bar(kappa * x - half))
                           for x in pts.T], axis=0)
        self.blocks = []
        for centre in itertools.product(family_centres(params), repeat=params.dim):
            offset = (pts - np.array(centre)) / params.sigma
            near = np.flatnonzero(np.all(np.abs(offset) <= 2.0, axis=1))
            self.blocks.append((near, np.prod(g_function(offset[near]), axis=1)))

    def perturbation(self, word) -> np.ndarray:
        """``F_omega``: the sum over the blocks whose bit is set of A times the block's product."""
        out = np.zeros(len(self.f0))
        for (near, values), bit in zip(self.blocks, np.asarray(word), strict=True):
            if bit:
                out[near] += self.params.amplitude * values
        return out

    def member(self, word) -> np.ndarray:
        return self.f0 + self.perturbation(word)

    def integral(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def mass(self, word) -> float:
        return self.integral(self.member(word))

    def distance(self, word_a, word_b) -> float:
        """``||f_a - f_b||_p``, where ``f_a - f_b = F_a - F_b``."""
        p = self.params.p
        diff = np.abs(self.perturbation(word_a) - self.perturbation(word_b))
        return self.integral(diff ** p) ** (1.0 / p)

    def chi2(self, word, n: int) -> float:
        """``(1 + integral of F^2 / f_0)^n``, the ratio taken where F is not 0 (there f_0 > 0)."""
        pert = self.perturbation(word)
        ratio = np.zeros(len(pert))
        hit = pert != 0.0
        ratio[hit] = pert[hit] ** 2 / self.f0[hit]
        return (1.0 + self.integral(ratio)) ** n


def family_oracle(params, rule: tuple | None = None) -> CodedFamily:
    """The family on the tensor grid of a rule's per-axis ``(nodes, weights)``,
    with its weights; by default the oracle's own ``family_oracle_rule``."""
    nodes, weights = rule or family_oracle_rule(params)
    return CodedFamily(params, grid_points(nodes), grid_points(weights).prod(axis=1))


def inverse_cdf_sample(tables: Sequence[tuple[np.ndarray, np.ndarray]], seed: int,
                       count: int) -> np.ndarray:
    """Inverse-CDF draws through per-axis ``(knots, cdf)`` tables: one
    ``rng.random(count)`` per axis, axis 0 first, each uniform bisected in
    draw order and interpolated linearly within its bracket."""
    rng = np.random.default_rng(np.uint64(seed))
    out = np.empty((count, len(tables)))
    for j, (x, cdf) in enumerate(tables):
        u = rng.random(count)
        idx = np.clip(np.searchsorted(cdf, u, side="right"), 1, len(cdf) - 1)
        c0, c1 = cdf[idx - 1], cdf[idx]
        frac = np.where(c1 > c0, (u - c0) / np.maximum(c1 - c0, 1e-300), 0.0)
        out[:, j] = x[idx - 1] + frac * (x[idx] - x[idx - 1])
    return out


def horner(coeffs, u):
    """Polynomial evaluation, lowest-order coefficient first."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for c in reversed(list(coeffs)):
        out = out * u + c
    return out


def kernel_factor(coeffs, u):
    """Compactly supported polynomial kernel factor on [-1, 1]."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, horner(coeffs, u), 0.0)


def polyval_kernel(coeffs, u):
    """A kernel factor as ``polyval`` + ``where``: the package's former
    evaluation, kept as a bit-for-bit reference for its in-place Horner."""
    u = np.asarray(u, dtype=float)
    # polyval forms u * 0, which warns at +-inf before where discards it
    with np.errstate(invalid="ignore"):
        vals = np.polynomial.polynomial.polyval(u, np.asarray(coeffs))
    return np.where(np.abs(u) <= 1.0, vals, 0.0)


def kde_mass(sample: np.ndarray, h: float, factor_coeffs: list, lower, upper) -> float:
    """Exact integral of the estimator over a box from per-factor antiderivatives."""
    total = np.ones(sample.shape[0])
    for j, coeffs in enumerate(factor_coeffs):
        anti = [0.0] + [c / (k + 1) for k, c in enumerate(coeffs)]
        # substituting u = (X - x)/h maps x in [lo, hi] to u in
        # [(X - hi)/h, (X - lo)/h] and absorbs one 1/h factor
        u_upper = np.clip((sample[:, j] - lower[j]) / h, -1.0, 1.0)
        u_lower = np.clip((sample[:, j] - upper[j]) / h, -1.0, 1.0)
        total *= horner(anti, u_upper) - horner(anti, u_lower)
    return float(total.sum()) / sample.shape[0]


def brute_force_kde_grid(sample: np.ndarray, h: float,
                         factor_coeffs: list, axes: list) -> np.ndarray:
    """Naive estimator values on a tensor grid: loop over grid points."""
    dim = sample.shape[1]
    shape = [len(a) for a in axes]
    out = np.empty(shape)
    n = sample.shape[0]
    for flat_idx in np.ndindex(*shape):
        point = np.array([axes[j][flat_idx[j]] for j in range(dim)])
        vals = np.ones(n)
        for j in range(dim):
            vals *= kernel_factor(factor_coeffs[j], (sample[:, j] - point[j]) / h)
        out[flat_idx] = vals.sum() / (n * h ** dim)
    return out


def kernel_variable_mean_field(truth_eval, h: float, factor_coeffs: list,
                               u_nodes: np.ndarray, u_weights: np.ndarray,
                               pts: np.ndarray) -> np.ndarray:
    """Mean field ``sum_k w_k K(u_k) f(x + h u_k)`` over the tensor grid of the
    1-d kernel-variable nodes: one truth evaluation per node, no factorization."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[0])
    for idx in np.ndindex(*[len(u_nodes)] * pts.shape[1]):
        u = u_nodes[list(idx)]
        w = np.prod(u_weights[list(idx)])
        for coeffs, uj in zip(factor_coeffs, u):
            w *= kernel_factor(coeffs, uj)
        out += w * truth_eval(pts + h * u[None, :])
    return out


def brute_force_perturbation(g, amplitude: float, sigma: float, centres: Sequence[float],
                             word: np.ndarray, alpha: Sequence[int],
                             pts: np.ndarray) -> np.ndarray:
    """Partial ``alpha`` of a coded wiggle perturbation at each point:
    ``A sigma^-|alpha| prod_j g(alpha_j, (x_j - c_{m_j}) / sigma)`` where the
    point lies in block ``m`` and the bit of ``word`` (row-major over the
    block grid) for ``m`` is set, else 0.  Blocks are found by direct search:
    every centre ``c`` of every axis claims the coordinates with
    ``|x_j - c| <= 3 sigma``.  ``g(m, t)`` is the wiggle's m-th derivative."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    count, dim = pts.shape
    block = np.full((count, dim), -1)
    offset = np.zeros((count, dim))
    for j in range(dim):
        for m, c in enumerate(centres):
            near = np.abs(pts[:, j] - c) <= 3.0 * sigma
            block[near, j] = m
            offset[near, j] = pts[near, j] - c
    bits = np.asarray(word).reshape((len(centres),) * dim)
    hit = np.all(block >= 0, axis=1)
    hit[hit] = bits[tuple(block[hit].T)] != 0
    vals = amplitude / sigma ** sum(alpha)
    for j, order in enumerate(alpha):
        vals = vals * g(order, offset[hit, j] / sigma)
    out = np.zeros(count)
    out[hit] = vals
    return out


def linear_code(rows: np.ndarray) -> np.ndarray:
    """The span of ``rows`` in ``vg_code``'s word order, one word at a time:
    word i is the XOR of the rows whose bit j is set in i."""
    rows = np.asarray(rows, dtype=np.uint8)
    words = np.zeros((2 ** len(rows), rows.shape[1]), dtype=np.uint8)
    for i in range(len(words)):
        for j, row in enumerate(rows):
            if i >> j & 1:
                words[i] ^= row
    return words


def min_pairwise_hamming(code: np.ndarray) -> int:
    """Smallest number of differing bits over every ordered pair of distinct
    rows of ``code``, one pair at a time; the word length for one word."""
    code = np.asarray(code)
    best = code.shape[1]
    for i in range(len(code)):
        for j in range(len(code)):
            if i != j:
                best = min(best, int(np.count_nonzero(code[i] != code[j])))
    return best


def trapezoid_lp_power(values: np.ndarray, axes: list, p: float) -> float:
    """``integral |values|^p`` with composite trapezoid weights per axis."""
    work = np.abs(values) ** p
    for ax in reversed(axes):
        work = np.trapezoid(work, ax, axis=-1)
    return float(work)


def brute_force_risk(sample: np.ndarray, h: float, factor_coeffs: list,
                     axes: list, truth_grid: np.ndarray, p: float) -> float:
    """Risk of one cell recomputed from scratch on the same grid."""
    fhat = brute_force_kde_grid(sample, h, factor_coeffs, axes)
    return trapezoid_lp_power(fhat - truth_grid, axes, p)


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
