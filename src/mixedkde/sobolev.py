"""Numerical Sobolev norms in three index-set variants.

The three norms differ only in which multi-indices enter the sum of
``L^p`` norms of partial derivatives:

* ``mixed``      : ``|alpha_1| <= s1`` and ``|alpha_2| <= s2``
* ``classical``  : ``|alpha| <= s1`` over all ``d1 + d2`` axes
* ``aniso``      : ``|alpha_1|/s1 + |alpha_2|/s2 <= 1``

``SmoothnessSpec.variant`` selects the index set and ``sobolev_norm``
sums ``lp_norm`` over it, so the three norms are one function.  Every
partial comes from the field's own analytic ``partial_factory``.  The
index-set enumeration is exposed separately so tests can pin the set
contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import Box, QuadRule, lp_norm, mixed_multi_indices, multi_indices

__all__ = [
    "SmoothnessSpec",
    "DifferentiableField",
    "index_set",
    "sobolev_norm",
]

_VARIANTS = ("mixed", "classical", "aniso")


@dataclass(frozen=True)
class SmoothnessSpec:
    s1: int
    s2: int
    d1: int
    d2: int
    p: float
    variant: str = "mixed"

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if min(self.s1, self.s2, self.d1, self.d2) < 1:
            raise ValueError("s1, s2, d1, d2 must all be >= 1")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    @property
    def dim(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class DifferentiableField:
    """Scalar field with its support box and analytic partials.

    ``partial_factory(alpha)`` must return the field of the derivative for a
    full multi-index ``alpha`` over all ``d1 + d2`` axes.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: Box
    partial_factory: Callable[[tuple[int, ...]], Callable]

    def partial_field(self, alpha: tuple[int, ...]) -> Callable:
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) == 0:
            return self.eval
        return self.partial_factory(alpha)


def index_set(spec: SmoothnessSpec) -> list[tuple[int, ...]]:
    """Full multi-indices (over all d1+d2 axes) entering the chosen norm."""
    if spec.variant == "classical":
        return multi_indices(spec.dim, spec.s1)
    return [a1 + a2 for a1, a2 in mixed_multi_indices(spec.d1, spec.s1, spec.d2, spec.s2)
            if spec.variant == "mixed"
            or sum(a1) / spec.s1 + sum(a2) / spec.s2 <= 1.0 + 1e-12]


def sobolev_norm(f: DifferentiableField, spec: SmoothnessSpec, rule: QuadRule) -> float:
    """Sum of ``L^p`` norms of partials over the spec's index set."""
    if f.support.dim != spec.dim:
        raise ValueError(
            f"field support has dimension {f.support.dim}, spec wants {spec.dim}"
        )
    total = 0.0
    for alpha in index_set(spec):
        field = f.partial_field(alpha)
        total += lp_norm(field, f.support, spec.p, rule)
    return total

