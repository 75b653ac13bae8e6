"""Univariate higher-order kernels on [-1, 1].

A kernel of order ``s`` integrates to one and has vanishing moments
``1 .. s-1``; in strict mode the moment of order ``s`` vanishes as well.
Kernels are built by projecting the delta at zero onto the orthonormal
Legendre basis, which gives a closed-form polynomial supported on
``[-1, 1]``.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .quadrature import integrate_1d

__all__ = [
    "UnivariateKernel",
    "OrderReport",
    "build_order_kernel",
    "moment",
    "abs_moment",
    "verify_order",
    "kernel_to_dict",
    "kernel_from_dict",
    "config_section",
    "config_values",
    "config_scalar",
    "kernel_to_json",
]

MAX_ORDER = 12


@dataclass(frozen=True)
class UnivariateKernel:
    """Polynomial kernel on [-1, 1], identically zero outside.

    Attributes
    ----------
    order : int
        Claimed order ``s``.
    poly_coeffs : tuple of float
        Power-basis coefficients ``c[k] u^k`` of the polynomial part.
    strict : bool
        True when moments vanish through ``s`` rather than ``s - 1``.
    """

    order: int
    poly_coeffs: tuple[float, ...]
    strict: bool = False

    def __post_init__(self):
        object.__setattr__(self, "poly_coeffs", tuple(float(c) for c in self.poly_coeffs))

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        vals = nppoly.polyval(u, np.asarray(self.poly_coeffs))
        return np.where(np.abs(u) <= 1.0, vals, 0.0)

    def sup_norm(self, grid_points: int = 10_001) -> float:
        grid = np.linspace(-1.0, 1.0, grid_points)
        return float(np.max(np.abs(self(grid))))

    def interior_roots(self) -> np.ndarray:
        """Real roots of the polynomial part strictly inside (-1, 1)."""
        coeffs = np.asarray(self.poly_coeffs)
        if coeffs.size <= 1:
            return np.array([])
        roots = nppoly.polyroots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-12].real
        return np.sort(real[(real > -1.0) & (real < 1.0)])


@dataclass(frozen=True)
class OrderReport:
    passed: bool
    worst_violation: float
    absolute_moment_s: float
    sup_norm: float


@lru_cache(maxsize=None)
def _delta_projection_coeffs(terms: int) -> tuple[float, ...]:
    # K = sum_{m<terms} phi_m(0) phi_m(u) with phi_m the orthonormal
    # Legendre basis on [-1,1]; as a Legendre series the coefficient of
    # P_m is (2m+1)/2 * P_m(0).
    leg_coeffs = np.zeros(terms)
    for m in range(terms):
        basis = np.zeros(m + 1)
        basis[m] = 1.0
        pm0 = npleg.legval(0.0, basis)
        leg_coeffs[m] = 0.5 * (2 * m + 1) * pm0
    return tuple(npleg.leg2poly(leg_coeffs))


def build_order_kernel(s: int, strict: bool = False) -> UnivariateKernel:
    """Order-``s`` Legendre projection kernel on [-1, 1].

    Uses ``s`` basis terms, or ``s + 1`` in strict mode when ``s`` is even;
    for odd ``s`` the kernel is symmetric so the moment of order ``s``
    vanishes without the extra term.
    """
    if not 1 <= s <= MAX_ORDER:
        raise ValueError(f"kernel order must be in [1, {MAX_ORDER}], got {s}")
    terms = s + 1 if (strict and s % 2 == 0) else s
    coeffs = _delta_projection_coeffs(terms)
    return UnivariateKernel(order=s, poly_coeffs=coeffs, strict=strict)


def _poly_degree(kernel: UnivariateKernel) -> int:
    coeffs = np.asarray(kernel.poly_coeffs)
    nonzero = np.nonzero(np.abs(coeffs) > 0)[0]
    return int(nonzero[-1]) if nonzero.size else 0


def moment(kernel: UnivariateKernel, nu: int) -> float:
    """``integral of u^nu K(u) du`` over [-1, 1] by Gauss-Legendre quadrature."""
    if nu < 0:
        raise ValueError("moment order must be non-negative")
    # one panel of GL nodes is exact for the polynomial integrand
    nodes = (_poly_degree(kernel) + nu) // 2 + 2
    return integrate_1d(lambda u: u ** nu * kernel(u), -1.0, 1.0,
                        panels=1, nodes=nodes)


def abs_moment(kernel: UnivariateKernel, nu: float) -> float:
    """``integral of |u|^nu |K(u)| du``, split at sign changes of K."""
    edges = np.concatenate(([-1.0], kernel.interior_roots(), [1.0]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate_1d(lambda u: np.abs(u) ** nu * np.abs(kernel(u)),
                              lo, hi, panels=4, nodes=16)
    return total


def q_norm_1d(kernel: UnivariateKernel, q: float) -> float:
    """``L^q`` norm of the kernel; ``q = inf`` gives the grid sup norm."""
    if q == np.inf:
        return kernel.sup_norm()
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    edges = np.concatenate(([-1.0], kernel.interior_roots(), [1.0]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate_1d(lambda u: np.abs(kernel(u)) ** q, lo, hi,
                              panels=4, nodes=16)
    return total ** (1.0 / q)


def verify_order(kernel: UnivariateKernel, s: int, tol: float) -> OrderReport:
    """Check normalization, vanishing moments and finiteness for order ``s``.

    Moments ``1 .. s-1`` must vanish, and the moment of order ``s`` too when
    the kernel is strict.  The worst violation includes the normalization
    defect ``|moment_0 - 1|``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    violations = [abs(moment(kernel, 0) - 1.0)]
    top = s if kernel.strict else s - 1
    for nu in range(1, top + 1):
        violations.append(abs(moment(kernel, nu)))
    abs_m = abs_moment(kernel, s)
    sup = kernel.sup_norm()
    worst = max(violations)
    passed = bool(worst <= tol and np.isfinite(abs_m) and np.isfinite(sup))
    return OrderReport(passed=passed, worst_violation=worst,
                       absolute_moment_s=abs_m, sup_norm=sup)


class _Float17(float):
    # json.dump uses repr(); pin 17 significant digits for serialized floats
    def __repr__(self):
        return format(float(self), ".17g")


def kernel_to_dict(kernel: UnivariateKernel) -> dict:
    return {
        "order": kernel.order,
        "strict": kernel.strict,
        "poly_coeffs": [_Float17(c) for c in kernel.poly_coeffs],
    }


def config_section(doc: dict, key: str) -> dict:
    """``doc[key]``, which must be a JSON object."""
    section = doc[key]
    if not isinstance(section, dict):
        raise ValueError(f"config section {key!r}: expected a JSON object, "
                         f"got {type(section).__name__}")
    return section


@contextmanager
def config_values(key: str):
    """Report a wrong-typed config value read in the block as a ``ValueError`` naming ``key``.

    JSON allows any type in any place, so readers wrap what they read
    instead of letting a ``TypeError`` escape from deep inside a build.
    """
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"config {key!r}: wrong value type ({exc})") from exc


_JSON_KINDS = {bool: (bool, "boolean"), int: (numbers.Integral, "integer"),
               float: (numbers.Real, "number")}


def config_scalar(value, kind: type, key: str):
    """``kind(value)`` (``kind`` is bool, int or float) if ``value`` has that JSON type.

    A bool field takes only booleans, an int field only integers and a
    float field integers or floats; a boolean is never a number.  Any
    other value raises a ``TypeError`` naming ``key``, which the
    enclosing ``config_values`` block reports.
    """
    accepted, name = _JSON_KINDS[kind]
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise TypeError(f"{key!r} must be a JSON {name}, got {value!r}")
    return kind(value)


def kernel_from_dict(doc: dict) -> UnivariateKernel:
    with config_values("kernel"):
        return UnivariateKernel(
            order=config_scalar(doc["order"], int, "order"),
            poly_coeffs=tuple(config_scalar(c, float, "poly_coeffs") for c in doc["poly_coeffs"]),
            strict=config_scalar(doc["strict"], bool, "strict"))


def kernel_to_json(kernel: UnivariateKernel) -> str:
    return json.dumps(kernel_to_dict(kernel), indent=2, sort_keys=True) + "\n"

