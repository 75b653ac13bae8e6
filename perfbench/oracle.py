"""Independent dense recomputation of one risk cell.

Shares no numerical code with the package: kernel factors are evaluated by
an own Horner loop, the estimator grid by a dense product of the two factor
matrices, and the ``L^p`` integral by ``numpy.trapezoid`` along each axis.
The sample and the truth values on the grid are inputs, taken from the
package like the repository's own brute-force oracle test does.
"""

from __future__ import annotations

import numpy as np


def horner(coeffs, u: np.ndarray) -> np.ndarray:
    """Polynomial with lowest-order coefficient first."""
    out = np.zeros_like(u)
    for c in reversed(list(coeffs)):
        out = out * u + c
    return out


def factor_matrix(coeffs, points: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    u = (points[:, None] - grid[None, :]) / h
    return np.where(np.abs(u) <= 1.0, horner(coeffs, u), 0.0)


def trapezoid_axes(eval_box, eval_rule) -> list[np.ndarray]:
    """The uniform risk grid: ``panels * nodes_per_panel + 1`` points per axis."""
    panels = eval_rule.panels_per_axis
    if len(panels) == 1:
        panels = panels * len(eval_box.lower)
    return [np.linspace(lo, hi, p * eval_rule.nodes_per_panel + 1)
            for lo, hi, p in zip(eval_box.lower, eval_box.upper, panels)]


def dense_cell_risk(sample: np.ndarray, h: float, factor_coeffs: list,
                    axes: list[np.ndarray], truth_grid: np.ndarray, p: float) -> float:
    """``integral |fhat - f|^p`` on the grid for a two-axis product kernel."""
    n = sample.shape[0]
    b0 = factor_matrix(factor_coeffs[0], sample[:, 0], axes[0], h)
    b1 = factor_matrix(factor_coeffs[1], sample[:, 1], axes[1], h)
    fhat = np.dot(b0.T, b1) / (n * h * h)
    work = np.abs(fhat - truth_grid) ** p
    for ax in reversed(axes):
        work = np.trapezoid(work, ax, axis=-1)
    return float(work)
