"""Tensor product kernels on R^{d1} x R^{d2} and class verification.

A product kernel multiplies ``d1`` copies of one univariate factor with
``d2`` copies of another.  Membership in the class of order-``(s1, s2)``
kernels is checked numerically: unit mass, vanishing mixed moments for
all multi-indices ``1 <= |alpha| < s1 + s2`` with ``|alpha_i| <= s_i``,
finiteness of the top absolute moment, and boundedness.  Every integral
factorizes into univariate moments; full tensor quadrature is used only
as a test oracle.  A product kernel's JSON form is its
``product_kernel_to_dict``, written by ``json.dumps`` with Python's
shortest round-trip float repr; ``product_kernel_from_dict`` reads it back
through ``tensor_kernel``, which requires every d and s to be at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (UnivariateKernel, abs_moment, check_tol, config_scalar, config_section,
                      config_values, kernel_from_dict, kernel_to_dict, moment, q_norm_1d)
from .quadrature import mixed_multi_indices

VERIFY_TOL = 1e-8  # kernel-verify's default tolerance

__all__ = [
    "ProductKernel",
    "ClassReport",
    "tensor_kernel",
    "verify_class",
    "check_class",
    "q_norm",
    "required_moment_indices",
    "product_kernel_to_dict",
    "product_kernel_from_dict",
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
        for j in range(self.dim):
            vals *= self.factor(j)(u[:, j])
        return vals

    def factor(self, axis: int) -> UnivariateKernel:
        """Univariate factor of coordinate ``axis``: ``kappa1`` on the first ``d1``."""
        return self.kappa1 if axis < self.d1 else self.kappa2

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
    k = kernel
    return [(a1, a2) for a1, a2 in mixed_multi_indices(k.d1, k.s1, k.d2, k.s2)
            if 1 <= sum(a1) + sum(a2) < k.s1 + k.s2]


def _factor_product(kernel: ProductKernel, alpha1: tuple[int, ...],
                    alpha2: tuple[int, ...], moment_1d) -> float:
    """Product of the univariate ``moment_1d`` of each factor over both blocks."""
    val = 1.0
    for a in alpha1:
        val *= moment_1d(kernel.kappa1, a)
    for a in alpha2:
        val *= moment_1d(kernel.kappa2, a)
    return val


def mixed_moment(kernel: ProductKernel, alpha1: tuple[int, ...],
                 alpha2: tuple[int, ...]) -> float:
    """``integral of u^alpha K(u)`` via univariate moment factorization."""
    return _factor_product(kernel, alpha1, alpha2, moment)


def top_abs_moment(kernel: ProductKernel) -> float:
    """``I_{(s1,s2)}``: max over |alpha1| = s1, |alpha2| = s2 of the absolute moment."""
    k = kernel
    return max([0.0] + [_factor_product(k, a1, a2, abs_moment)
                        for a1, a2 in mixed_multi_indices(k.d1, k.s1, k.d2, k.s2)
                        if sum(a1) == k.s1 and sum(a2) == k.s2])


def verify_class(kernel: ProductKernel, tol: float) -> ClassReport:
    """Numerical membership check for the order-``(s1, s2)`` kernel class.

    Every integral factorizes into univariate moments of the polynomial
    factors, so no tensor quadrature is needed.
    """
    check_tol(tol)
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


def check_class(kernel: ProductKernel, strict_setting: str) -> None:
    """Raise a ``ValueError`` naming ``worst_moment`` unless ``verify_class`` passes
    at ``VERIFY_TOL``; ``strict_setting`` spells the switch to strict factors."""
    if not (report := verify_class(kernel, tol=VERIFY_TOL)).passed:
        raise ValueError(
            f"this product kernel fails kernel-verify (worst_moment {report.worst_moment:.6g} "
            f"> {VERIFY_TOL:g}); {strict_setting} builds a kernel of the "
            f"order-({kernel.s1}, {kernel.s2}) class")


def q_norm(kernel: ProductKernel, q: float) -> float:
    """``L^q`` norm of the product kernel via per-factor factorization."""
    if q != np.inf and q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    n1 = q_norm_1d(kernel.kappa1, q)
    n2 = q_norm_1d(kernel.kappa2, q)
    return n1 ** kernel.d1 * n2 ** kernel.d2


def product_kernel_to_dict(kernel: ProductKernel) -> dict:
    return {
        "s1": kernel.s1,
        "s2": kernel.s2,
        "d1": kernel.d1,
        "d2": kernel.d2,
        "kappa1": kernel_to_dict(kernel.kappa1),
        "kappa2": kernel_to_dict(kernel.kappa2),
    }


def product_kernel_from_dict(doc: dict) -> ProductKernel:
    kappa1, kappa2 = (kernel_from_dict(config_section(doc, key)) for key in ("kappa1", "kappa2"))
    with config_values("kernel"):
        fields = {k: config_scalar(doc[k], int, k) for k in ("d1", "d2", "s1", "s2")}
    return tensor_kernel(kappa1=kappa1, kappa2=kappa2, **fields)

