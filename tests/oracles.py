"""Independent reference implementations used only as test oracles.

Nothing here imports from the package's numerical paths: quadrature is
adaptive-bisection Simpson, tensor integrals are dense midpoint/trapezoid
sums, and the density-estimator risk is a naive double loop with its own
Horner polynomial evaluation.  These are deliberately slow and simple.
"""

from __future__ import annotations

import numpy as np


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
