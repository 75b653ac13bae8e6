"""Univariate higher-order kernels on [-1, 1].

A kernel of order ``s`` integrates to one and has vanishing moments
``1 .. s-1``; in strict mode the moment of order ``s`` vanishes as well.
Kernels are built by projecting the delta at zero onto the orthonormal
Legendre basis, which gives a closed-form polynomial supported on
``[-1, 1]``.  A kernel's JSON form is its ``kernel_to_dict``, written by
``json.dumps``, which prints each coefficient with Python's shortest
round-trip float repr, so ``kernel_from_dict`` reads back the same bits.
"""

from __future__ import annotations

import math
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
    "check_tol",
]

MAX_ORDER = 12
# points of the uniform grid on [-1, 1] that sup_norm scans
_SUP_GRID = 10_001


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
        if not self.poly_coeffs:
            raise ValueError("kernel 'poly_coeffs' must hold at least one coefficient")
        if not all(map(math.isfinite, self.poly_coeffs)):
            raise ValueError(f"kernel 'poly_coeffs' must be finite, got {list(self.poly_coeffs)}")

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient of ``poly_coeffs`` (0 if none)."""
        return max((k for k, c in enumerate(self.poly_coeffs) if c != 0.0), default=0)

    def __call__(self, u) -> np.ndarray:
        # in-place Horner: the same bits as polyval + where, without their temporaries
        u = np.asarray(u, dtype=float)
        coeffs = self.poly_coeffs
        out = np.full_like(u, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            out *= u
            out += c
        # written as a negated test so that NaN lands outside the support
        out[~(np.abs(u) <= 1.0)] = 0.0
        return out

    def sup_norm(self) -> float:
        """Largest ``|K|`` on a uniform grid of ``[-1, 1]``."""
        return float(np.max(np.abs(self(np.linspace(-1.0, 1.0, _SUP_GRID)))))

    def interior_roots(self) -> np.ndarray:
        """Real roots of the polynomial part strictly inside (-1, 1)."""
        roots = nppoly.polyroots(self.poly_coeffs)
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


def moment(kernel: UnivariateKernel, nu: int) -> float:
    """``integral of u^nu K(u) du`` over [-1, 1] by Gauss-Legendre quadrature."""
    if nu < 0:
        raise ValueError("moment order must be non-negative")
    # one panel of GL nodes is exact for the polynomial integrand
    nodes = (kernel.degree + nu) // 2 + 2
    return integrate_1d(lambda u: u ** nu * kernel(u), -1.0, 1.0,
                        panels=1, nodes=nodes)


def _split_at_roots(kernel: UnivariateKernel, f) -> float:
    """``integral of f`` over [-1, 1], summed over the pieces between sign
    changes of K, where ``|K|`` is smooth."""
    edges = np.concatenate(([-1.0], kernel.interior_roots(), [1.0]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate_1d(f, lo, hi, panels=4, nodes=16)
    return total


def abs_moment(kernel: UnivariateKernel, nu: float) -> float:
    """``integral of |u|^nu |K(u)| du``, split at sign changes of K."""
    return _split_at_roots(kernel, lambda u: np.abs(u) ** nu * np.abs(kernel(u)))


def check_tol(tol: float) -> None:
    """Raise a ``ValueError`` naming ``tol`` unless it is a finite number > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")


def verify_order(kernel: UnivariateKernel, s: int, tol: float) -> OrderReport:
    """Check normalization, vanishing moments and finiteness for order ``s``.

    Moments ``1 .. s-1`` must vanish, and the moment of order ``s`` too when
    the kernel is strict.  The worst violation includes the normalization
    defect ``|moment_0 - 1|``.  ``s`` must be at least 1: order 0 would
    check no moment.
    """
    if s < 1:
        raise ValueError(f"kernel order must be >= 1, got {s}")
    check_tol(tol)
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


def kernel_to_dict(kernel: UnivariateKernel) -> dict:
    return {"order": kernel.order, "strict": kernel.strict,
            "poly_coeffs": list(kernel.poly_coeffs)}


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

