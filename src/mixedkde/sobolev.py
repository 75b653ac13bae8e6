"""Numerical Sobolev norms in three index-set variants.

The three norms differ only in which multi-indices enter the sum of
``L^p`` norms of partial derivatives:

* ``mixed``      : ``|alpha_1| <= s1`` and ``|alpha_2| <= s2``
* ``classical``  : ``|alpha| <= s1`` over all ``d1 + d2`` axes
* ``aniso``      : ``|alpha_1|/s1 + |alpha_2|/s2 <= 1``

``SmoothnessSpec.variant`` selects the index set and ``sobolev_norm``
sums ``lp_norm`` over it, so the three norms are one function.  Every
partial comes from the field's own analytic ``partial_field(alpha)``, as a
``densities.TensorField`` gives it.  The index-set enumeration is exposed
separately so tests can pin the set contents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadrature import QuadRule, lp_norm, mixed_multi_indices, multi_indices

__all__ = [
    "SmoothnessSpec",
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


def index_set(spec: SmoothnessSpec) -> list[tuple[int, ...]]:
    """Full multi-indices (over all d1+d2 axes) entering the chosen norm."""
    if spec.variant == "classical":
        return multi_indices(spec.dim, spec.s1)
    return [a1 + a2 for a1, a2 in mixed_multi_indices(spec.d1, spec.s1, spec.d2, spec.s2)
            if spec.variant == "mixed"
            or sum(a1) / spec.s1 + sum(a2) / spec.s2 <= 1.0 + 1e-12]


def sobolev_norm(f, spec: SmoothnessSpec, rule: QuadRule) -> float:
    """Sum of ``L^p`` norms of partials over the spec's index set, on ``f.support``.

    ``f`` is any field with a ``support`` box and ``partial_field(alpha)``,
    which gives the partial for a full multi-index ``alpha`` over all
    ``d1 + d2`` axes, with ``on_grid``; a ``densities.TensorField`` is one.
    """
    if f.support.dim != spec.dim:
        raise ValueError(
            f"field support has dimension {f.support.dim}, spec wants {spec.dim}"
        )
    total = 0.0
    for alpha in index_set(spec):
        total += lp_norm(f.partial_field(alpha), f.support, spec.p, rule)
    return total

