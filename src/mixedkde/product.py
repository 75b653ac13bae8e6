"""Tensor product kernels on R^{d1} x R^{d2} and class verification.

A product kernel multiplies ``d1`` copies of one univariate factor with
``d2`` copies of another.  Membership in the class of order-``(s1, s2)``
kernels is checked numerically: unit mass, vanishing mixed moments for
all multi-indices ``1 <= |alpha| < s1 + s2`` with ``|alpha_i| <= s_i``,
finiteness of the top absolute moment, and boundedness.  Every integral
factorizes into univariate moments; full tensor quadrature is used only
as a test oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernels import (UnivariateKernel, abs_moment, kernel_from_dict,
                      kernel_to_dict, moment, q_norm_1d)
from .quadrature import multi_indices

__all__ = [
    "ProductKernel",
    "ClassReport",
    "tensor_kernel",
    "verify_class",
    "q_norm",
    "required_moment_indices",
    "product_kernel_to_json",
    "product_kernel_from_dict",
    "product_kernel_from_json",
]


@dataclass(frozen=True)
class ProductKernel:
    kappa1: UnivariateKernel
    kappa2: UnivariateKernel
    d1: int
    d2: int
    s1: int
    s2: int

    @property
    def dim(self) -> int:
        return self.d1 + self.d2

    def __call__(self, u) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {u.shape[1]}")
        vals = np.ones(u.shape[0])
        for j in range(self.d1):
            vals *= self.kappa1(u[:, j])
        for j in range(self.d1, self.dim):
            vals *= self.kappa2(u[:, j])
        return vals

    def eval_point(self, u) -> float:
        return float(self(np.asarray(u, dtype=float)[None, :])[0])

    def sup_norm(self) -> float:
        return self.kappa1.sup_norm() ** self.d1 * self.kappa2.sup_norm() ** self.d2


@dataclass(frozen=True)
class ClassReport:
    markov_defect: float
    worst_moment: float
    i_s1_s2: float
    sup_norm: float
    passed: bool


def tensor_kernel(kappa1: UnivariateKernel, d1: int, kappa2: UnivariateKernel,
                  d2: int, s1: int, s2: int) -> ProductKernel:
    if min(d1, d2, s1, s2) < 1:
        raise ValueError("d1, d2, s1, s2 must all be >= 1")
    return ProductKernel(kappa1=kappa1, kappa2=kappa2, d1=d1, d2=d2, s1=s1, s2=s2)


def required_moment_indices(kernel: ProductKernel) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Multi-index pairs whose mixed moments must vanish for class membership."""
    out = []
    for a1 in multi_indices(kernel.d1, kernel.s1):
        for a2 in multi_indices(kernel.d2, kernel.s2):
            total = sum(a1) + sum(a2)
            if 1 <= total < kernel.s1 + kernel.s2:
                out.append((a1, a2))
    return out


def mixed_moment(kernel: ProductKernel, alpha1: tuple[int, ...],
                 alpha2: tuple[int, ...]) -> float:
    """``integral of u^alpha K(u)`` via univariate moment factorization."""
    val = 1.0
    for a in alpha1:
        val *= moment(kernel.kappa1, a)
    for a in alpha2:
        val *= moment(kernel.kappa2, a)
    return val


def top_abs_moment(kernel: ProductKernel) -> float:
    """``I_{(s1,s2)}``: max over |alpha1| = s1, |alpha2| = s2 of the absolute moment."""
    best = 0.0
    for a1 in multi_indices(kernel.d1, kernel.s1):
        if sum(a1) != kernel.s1:
            continue
        for a2 in multi_indices(kernel.d2, kernel.s2):
            if sum(a2) != kernel.s2:
                continue
            val = 1.0
            for a in a1:
                val *= abs_moment(kernel.kappa1, a)
            for a in a2:
                val *= abs_moment(kernel.kappa2, a)
            best = max(best, val)
    return best


def verify_class(kernel: ProductKernel, tol: float) -> ClassReport:
    """Numerical membership check for the order-``(s1, s2)`` kernel class.

    Every integral factorizes into univariate moments of the polynomial
    factors, so no tensor quadrature is needed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    markov = abs(mixed_moment(kernel, (0,) * kernel.d1, (0,) * kernel.d2) - 1.0)
    worst = 0.0
    for a1, a2 in required_moment_indices(kernel):
        worst = max(worst, abs(mixed_moment(kernel, a1, a2)))
    i_top = top_abs_moment(kernel)
    sup = kernel.sup_norm()
    passed = bool(markov <= tol and worst <= tol
                  and np.isfinite(i_top) and np.isfinite(sup))
    return ClassReport(markov_defect=markov, worst_moment=worst,
                       i_s1_s2=i_top, sup_norm=sup, passed=passed)


def q_norm(kernel: ProductKernel, q: float) -> float:
    """``L^q`` norm of the product kernel via per-factor factorization."""
    if q != np.inf and q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    n1 = q_norm_1d(kernel.kappa1, q)
    n2 = q_norm_1d(kernel.kappa2, q)
    return n1 ** kernel.d1 * n2 ** kernel.d2


def product_kernel_to_json(kernel: ProductKernel) -> str:
    doc = {
        "s1": kernel.s1,
        "s2": kernel.s2,
        "d1": kernel.d1,
        "d2": kernel.d2,
        "kappa1": kernel_to_dict(kernel.kappa1),
        "kappa2": kernel_to_dict(kernel.kappa2),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def product_kernel_from_dict(doc: dict) -> ProductKernel:
    return ProductKernel(
        kappa1=kernel_from_dict(doc["kappa1"]),
        kappa2=kernel_from_dict(doc["kappa2"]),
        d1=int(doc["d1"]), d2=int(doc["d2"]),
        s1=int(doc["s1"]), s2=int(doc["s2"]),
    )


def product_kernel_from_json(text: str) -> ProductKernel:
    return product_kernel_from_dict(json.loads(text))
