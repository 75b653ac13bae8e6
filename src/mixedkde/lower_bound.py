"""Constructive minimax lower-bound family.

The family consists of a plateau density ``f_0`` plus perturbations

    f_omega = f_0 + A * sum_m omega_{pi(m)} G_m,

where the ``G_m`` are rescaled tensor wiggles ``prod_j g((x_j - xi_{m_j})
/ sigma)`` placed on a ``M^D`` grid of disjoint blocks inside the plateau
of ``f_0``, and ``omega`` ranges over a binary code with controlled
cardinality and pairwise Hamming distance.  Block disjointness makes the
two closed-form identities exact:

* pairwise distance:  ``||f_w - f_w'||_p^p = A^p rho(w, w') sigma^D ||g||_p^{pD}``
* chi-square affinity: ``E (dP_w/dP_0)^2 = (1 + (N/kappa)^D ||F_w||_2^2)^n``
  with ``||F_w||_2^2 = A^2 k sigma^D ||g||_2^{2D}`` for a word with k ones.

``choose_parameters`` reproduces the construction's parameter choices,
including the non-compact variant where the plateau width N grows with n.
``F_omega`` is one ``densities.Term``: the word's bits on the block grid
over the M wiggles per axis; a member adds it to f_0's product term.
``family_report`` checks both identities and four members' mass and
minimum in one quadrature sweep: f_0's factors and the wiggles once per
axis (a slab slices them), and on each slab one whole-slab buffer, f_0's
grid, into which every integrand is written in turn; a word is kept as its
bits on the blocks' sub-grid, its values made there only when used.
``family_distance`` and ``chi2_affinity`` are the closed forms; the tests
check them against a member written from its definition and integrated on
its own rule.  ``verify_lower_hypotheses`` checks the reduction lemma's
two hypotheses from the same closed forms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import wraps
from typing import Callable, get_type_hints

import numpy as np

from .bumps import g_deriv, g_function, g_norm, g_sobolev_norm, bump_sobolev_norm, bump_l1
from .densities import (Density, TensorField, Term, on_sub_grid, plateau_density, product_term,
                        sub_grid)
from .kernels import config_scalar, config_values
from .quadrature import (QuadRule, grid_nodes, integrate,  # noqa: F401  (perfbench wraps it)
                         integrate_many)

__all__ = [
    "FamilyParams",
    "FamilyConstants",
    "LowerBoundFamily",
    "InfeasibleParameters",
    "ConstructionError",
    "vg_code",
    "hamming_distance",
    "choose_parameters",
    "family_constants",
    "params_to_report",
    "params_from_report",
    "build_family",
    "family_distance",
    "chi2_affinity",
    "family_report",
    "LowerHypothesesReport",
    "verify_lower_hypotheses",
]

MAX_CODE_WORDS = 1 << 16
_CODE_DRAWS = 100  # vg_code's draws of k rows before it gives up
# code words whose members family_report checks for unit mass and sign
_PDF_CHECKED_WORDS = 4
# family_rule's panels per half block (width sigma / 4) and per skirt of f_0
_HALF_BLOCK_PANELS = 8
_SKIRT_PANELS = 20


class InfeasibleParameters(ValueError):
    """Raised when no parameter choice satisfies the construction invariants."""


class ConstructionError(RuntimeError):
    """Raised when a built family violates a structural requirement."""


@dataclass(frozen=True)
class FamilyParams:
    s1: int
    s2: int
    d1: int
    d2: int
    p: float
    r: float
    big_n: float
    kappa: float
    sigma: float
    amplitude: float
    m_per_axis: int
    epsilon: float
    r_star: float
    compact_regime: bool

    @property
    def dim(self) -> int:
        return self.d1 + self.d2

    @property
    def smoothness(self) -> int:
        return self.s1 + self.s2

    @property
    def n_blocks(self) -> int:
        return self.m_per_axis ** self.dim


# Report key of each FamilyParams field whose key differs from the field name.
_REPORT_KEYS = {"big_n": "N", "amplitude": "A", "m_per_axis": "M"}


def params_to_report(params: FamilyParams) -> dict:
    """The ``params`` block of a family report."""
    return {_REPORT_KEYS.get(f.name, f.name): getattr(params, f.name)
            for f in dataclasses.fields(FamilyParams)}


def params_from_report(doc: dict) -> FamilyParams:
    """Inverse of ``params_to_report``; a missing key raises ``KeyError``.

    Each value must have its field's JSON type (``config_scalar``), so a
    wrong-typed value raises a ``ValueError`` naming ``params`` and the key.
    """
    types = get_type_hints(FamilyParams)
    keys = {f.name: _REPORT_KEYS.get(f.name, f.name) for f in dataclasses.fields(FamilyParams)}
    with config_values("params"):
        return FamilyParams(**{name: config_scalar(doc[key], types[name], key)
                               for name, key in keys.items()})


def _check_inputs(s1: int, s2: int, d1: int, d2: int, p: float, r: float) -> None:
    """Smoothness orders and dimensions >= 1, a finite p >= 1 and a finite radius r > 0."""
    for name, value in (("s1", s1), ("s2", s2), ("d1", d1), ("d2", d2)):
        if value < 1:
            raise InfeasibleParameters(f"{name} must be >= 1, got {value}")
    if not (math.isfinite(p) and p >= 1):
        raise InfeasibleParameters(f"p must be a finite number >= 1, got {p}")
    if not (math.isfinite(r) and r > 0):
        raise InfeasibleParameters(f"radius r must be a finite number > 0, got {r}")


def validate_params(params: FamilyParams) -> None:
    """Check every construction invariant, naming the first violated one."""
    p = params
    _check_inputs(p.s1, p.s2, p.d1, p.d2, p.p, p.r)
    if p.p == 1 and p.r <= 1:
        raise InfeasibleParameters(f"p = 1 requires radius r > 1, got r = {p.r}")
    if not p.big_n > 8:
        raise InfeasibleParameters(f"plateau parameter N must exceed 8, got {p.big_n}")
    if not 0 < p.kappa <= 1:
        raise InfeasibleParameters(f"kappa must lie in (0, 1], got {p.kappa}")
    if not 0 < p.epsilon < 1:
        raise InfeasibleParameters(f"epsilon must lie in (0, 1), got {p.epsilon}")
    sigma_cap = min(1.0, 1.0 / (20.0 * p.kappa))
    if not 0 < p.sigma < sigma_cap:
        raise InfeasibleParameters(
            f"sigma = {p.sigma} violates sigma < min(1, 1/(20 kappa)) = {sigma_cap}")
    m_exact = p.big_n / (20.0 * p.kappa * p.sigma)
    if abs(m_exact - p.m_per_axis) > 1e-9 * max(1.0, p.m_per_axis):
        raise InfeasibleParameters(
            f"M = {p.m_per_axis} does not satisfy M = N/(20 kappa sigma) = {m_exact}")
    if p.n_blocks < 8:
        raise InfeasibleParameters(
            f"M^D = {p.n_blocks} < 8: too few blocks for the binary code")
    if not (math.isfinite(p.amplitude) and p.amplitude > 0):
        raise InfeasibleParameters(f"A must be a finite number > 0, got {p.amplitude}")
    plateau_value = (p.kappa / p.big_n) ** p.dim
    if p.amplitude > plateau_value * (1 + 1e-12):
        raise InfeasibleParameters(
            f"A = {p.amplitude} exceeds the plateau value (kappa/N)^D = {plateau_value}; "
            "n is too small for this configuration")
    expected_r_star = p.r - 1.0 if p.p == 1 else p.r
    if not abs(p.r_star - expected_r_star) <= 1e-12:
        raise InfeasibleParameters(
            f"r_star = {p.r_star} inconsistent with p = {p.p}, r = {p.r}")


@dataclass(frozen=True)
class FamilyConstants:
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float | None
    g_p: float
    g_2: float
    g_sob: float


def _epsilon_rstar(p: float, r: float) -> tuple[float, float]:
    if p == 1:
        if r <= 1:
            raise InfeasibleParameters(f"p = 1 requires r > 1, got {r}")
        return 0.5 * (r + 1.0) / r, r - 1.0
    return 0.5, r


def _kappa_choice(p: float, r: float, epsilon: float, c0: float, dim: int) -> float:
    if not (math.isfinite(c0) and c0 > 0):
        raise InfeasibleParameters(
            f"plateau norm constant C0 = {c0} at p = {p} is not a finite number > 0")
    if p == 1:
        cap = (epsilon * r - 1.0) / c0
    else:
        try:
            cap = (epsilon * r / c0) ** (p / (dim * (p - 1.0)))
        except OverflowError:  # a cap far above 1, where kappa = 1 anyway
            cap = math.inf
    if cap <= 0:
        raise InfeasibleParameters(
            f"plateau norm constant C0 = {c0} leaves no admissible kappa for r = {r}")
    return min(1.0, cap)


def _finite_constants(fn: Callable) -> Callable:
    """``fn(p, dim, smooth, ...)``, an overflowing constant reported as infeasible parameters."""
    @wraps(fn)
    def checked(p: float, dim: int, smooth: int, *args):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(p, dim, smooth, *args)
        except (OverflowError, FloatingPointError) as exc:
            raise InfeasibleParameters(
                f"construction constants overflow at smoothness s1 + s2 = {smooth}, "
                f"dimension d1 + d2 = {dim} and p = {p}: {exc}") from exc
    return checked


@_finite_constants
def _plateau_constant(p: float, dim: int, smooth: int) -> float:
    """C0, the Sobolev-norm constant of the plateau density."""
    return (2.0 * bump_sobolev_norm(smooth - 1, p) / bump_l1()) ** dim


@_finite_constants
def _constants(p: float, dim: int, smooth: int, kappa: float, big_n: float,
               compact_regime: bool) -> FamilyConstants:
    """C0-C5 of the compact construction; in the non-compact one C3 and C4
    are the primed constants, which do not involve N, and C5 is None."""
    gp = g_norm(p)
    g2 = g_norm(2.0)
    gs = g_sobolev_norm(smooth, p)
    c1 = 0.5 * gp ** dim * (1.0 / (20.0 * kappa)) ** (dim / p) * 8.0 ** (-1.0 / p)
    c2 = 20.0 ** (-dim) * kappa ** (-2.0 * dim) * g2 ** (2.0 * dim)
    c5 = None
    if compact_regime:
        c3 = 2.0 * gs ** dim * (big_n / (20.0 * kappa)) ** (dim / p)
        c4 = c3 ** (1.0 / smooth)
        c5 = (math.log(2.0) / (8.0 * c2 * c4 ** dim * big_n ** dim
                               * (20.0 * kappa) ** dim)) ** (smooth / (2 * smooth + dim))
    else:
        c3 = 2.0 * (20.0 * kappa) ** (-dim / p) * gs ** dim
        c4 = c3 ** (1.0 / smooth)
    return FamilyConstants(c0=_plateau_constant(p, dim, smooth), c1=c1, c2=c2,
                           c3=c3, c4=c4, c5=c5, g_p=gp, g_2=g2, g_sob=gs)


def family_constants(params: FamilyParams) -> FamilyConstants:
    """Recompute the construction constants for a parameter set."""
    return _constants(params.p, params.dim, params.smoothness, params.kappa,
                      params.big_n, params.compact_regime)


def choose_parameters(n: int, r: float, p: float, s1: int, s2: int, d1: int,
                      d2: int, compact_regime: bool = True,
                      big_n: float = 10.0) -> FamilyParams:
    """Parameter choices of the construction at sample size ``n``.

    In the compact regime the plateau width ``big_n`` stays a fixed constant
    and the wiggle amplitude decays like ``n^{-S/(2S+D)}``; in the
    non-compact regime ``big_n`` is derived from the amplitude so the
    support grows with ``n``.  Raises ``InfeasibleParameters`` naming the
    violated constraint when an input is out of range, a construction
    constant overflows or ``n`` is too small.
    """
    _check_inputs(s1, s2, d1, d2, p, r)
    if n < 1:
        raise InfeasibleParameters("n must be a positive integer")
    dim = d1 + d2
    smooth = s1 + s2
    epsilon, r_star = _epsilon_rstar(p, r)
    kappa = _kappa_choice(p, r, epsilon, _plateau_constant(p, dim, smooth), dim)
    if compact_regime and not (math.isfinite(big_n) and big_n > 8):
        raise InfeasibleParameters(f"N must be a finite number > 8, got {big_n}")
    if not compact_regime and not p < 2:
        raise InfeasibleParameters("the non-compact regime is defined for 1 <= p < 2")
    consts = _constants(p, dim, smooth, kappa, big_n, compact_regime)

    if compact_regime:
        amplitude = consts.c5 * (r_star ** (dim / smooth) / n) ** (smooth / (2 * smooth + dim))
        sigma_raw = consts.c4 * amplitude ** (1.0 / smooth) * r_star ** (-1.0 / smooth)
        params = _finalize(s1, s2, d1, d2, p, r, big_n, kappa, sigma_raw,
                           amplitude, epsilon, r_star, compact_regime=True)
        validate_params(params)
        return params

    c5p = math.log(2.0) / (8.0 * consts.c2 * consts.c4 ** dim * (20.0 * kappa) ** dim)
    c6p = kappa ** dim / 2.0
    exponent = p * smooth / (p * smooth + (p - 1.0) * dim)
    last_error: Exception | None = None
    for _ in range(60):
        c7p = (c5p * c6p ** (-(p * smooth + dim) / (p * smooth))) ** exponent
        amplitude = (c7p * n ** (-exponent)
                     * r_star ** (p * dim / (p * smooth + (p - 1.0) * dim)))
        big_n_nc = (c6p / amplitude) ** (1.0 / dim)
        sigma_raw = (consts.c4 * amplitude ** (1.0 / smooth)
                     * big_n_nc ** (dim / (p * smooth)) * r_star ** (-1.0 / smooth))
        try:
            params = _finalize(s1, s2, d1, d2, p, r, big_n_nc, kappa, sigma_raw,
                               amplitude, epsilon, r_star, compact_regime=False)
            validate_params(params)
            return params
        except InfeasibleParameters as err:
            last_error = err
            if big_n_nc <= 8:
                # halving shrinks N further; no escape along this path
                break
            c6p /= 2.0
    raise InfeasibleParameters(
        f"no feasible non-compact parameters at n = {n}: {last_error}")


def _finalize(s1, s2, d1, d2, p, r, big_n, kappa, sigma_raw, amplitude,
              epsilon, r_star, compact_regime) -> FamilyParams:
    if sigma_raw <= 0:
        raise InfeasibleParameters("sigma must be positive")
    m_axis = int(math.floor(big_n / (20.0 * kappa * sigma_raw)))
    if m_axis < 1:
        raise InfeasibleParameters(
            f"sigma = {sigma_raw} is too large for even one block per axis; "
            "n is too small for this configuration")
    sigma = big_n / (20.0 * kappa * m_axis)
    return FamilyParams(s1=s1, s2=s2, d1=d1, d2=d2, p=p, r=r, big_n=big_n,
                        kappa=kappa, sigma=sigma, amplitude=amplitude,
                        m_per_axis=m_axis, epsilon=epsilon, r_star=r_star,
                        compact_regime=compact_regime)


# ----------------------------- binary code -----------------------------

def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"word shapes differ: {a.shape} vs {b.shape}")
    return int(np.sum(a != b))


def _span(rows: np.ndarray) -> np.ndarray:
    """Every XOR of a subset of ``rows``: word i XORs the rows whose bit is set in i."""
    words = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for row in rows:
        words = np.concatenate([words, words ^ row])
    return words


def vg_code(m: int, seed: int = 0) -> np.ndarray:
    """Binary code of length ``m`` with the packing-lemma guarantees: ``2^k``
    words, k = ``ceil(m/8)``, so at least ``ceil(2^(m/8))``, at pairwise Hamming
    distance ``>= ceil(m/8)``.  Varshamov's linear code: word i XORs the k rows
    drawn from ``default_rng(seed + 1)`` whose bit is set in i, so the all-zeros
    word comes first, as a family containing ``f_0`` needs.  The distance is the
    smallest weight of a nonzero word, checked exactly; rows that miss it are
    redrawn, at most ``_CODE_DRAWS`` times."""
    if m < 8:
        raise ValueError(f"code length must be >= 8, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    k = math.ceil(m / 8.0)
    if 2 ** k > MAX_CODE_WORDS:
        raise ValueError(f"code of length {m} needs 2^{k} words; "
                         f"cap is 2^{MAX_CODE_WORDS.bit_length() - 1}")
    rng = np.random.default_rng(seed + 1)
    for _ in range(_CODE_DRAWS):
        code = _span(rng.integers(0, 2, size=(k, m), dtype=np.uint8))
        if code[1:].sum(axis=1).min() >= k:
            return code
    raise RuntimeError(f"no linear code of length {m} at distance >= {k} in {_CODE_DRAWS} draws")


# ----------------------------- the family -----------------------------

def _sliced(basis, slab):
    """A basis taken on per-axis nodes, restricted to the index ranges ``slab``."""
    index, values, scale = basis
    return [ij[s] for ij, s in zip(index, slab)], [v[s] for v, s in zip(values, slab)], scale


def _distance_values(va: np.ndarray, vb: np.ndarray, p: float) -> np.ndarray:
    """``|F_a - F_b|^p``, formed in ``va``'s array, the power taken only where the
    members differ (0^p = 0)."""
    diff = np.abs(np.subtract(va, vb, out=va), out=va)
    differ = diff != 0.0
    diff[differ] = diff[differ] ** p
    return diff


class LowerBoundFamily:
    """The plateau density ``f0`` plus the perturbations coded by the rows of
    ``code`` (``n_words x M^D`` bits), a linear code in ``vg_code``'s word
    order.  Only the code's linearity and the block geometry are checked
    here, so small diagnostic instances (``M <= N``) build too;
    ``build_family`` also checks every construction invariant."""

    def __init__(self, params: FamilyParams, code: np.ndarray):
        # read-only copies: no write can make the weights disagree with the code
        code = np.array(code, dtype=np.uint8)
        code.flags.writeable = False
        if code.ndim != 2 or code.shape[1] != params.n_blocks:
            raise ValueError(
                f"code must have shape (n_words, {params.n_blocks}), got {code.shape}")
        rows = code[[1 << j for j in range(len(code).bit_length() - 1)]]
        if not np.array_equal(code, _span(rows)):
            raise ValueError("code must be linear in word order: word i is the XOR of "
                             "the words 2^j whose bit j is set in i")
        self.params = params
        self.f0 = plateau_density(params.big_n, params.kappa, params.dim)
        self.code = code
        # each word's count of ones
        self.weights = np.count_nonzero(code, axis=1)
        self.weights.flags.writeable = False
        kappa, sigma = params.kappa, params.sigma
        self.xi = (-(params.big_n - 4.0) / (4.0 * kappa)
                   + 8.0 * sigma * np.arange(1, params.m_per_axis + 1))
        # f0 is the constant (kappa/N)^D on the cube of this half-width
        self.plateau_halfwidth = halfwidth = (params.big_n - 2.0) / (2.0 * kappa)
        lo_block = self.xi[0] - 3.0 * sigma
        hi_block = self.xi[-1] + 3.0 * sigma
        if lo_block < -halfwidth - 1e-12 or hi_block > halfwidth + 1e-12:
            raise ConstructionError(
                f"bump blocks [{lo_block}, {hi_block}] leave the plateau "
                f"[-{halfwidth}, {halfwidth}]; parameters are inconsistent")

    def _wiggles(self, axes, orders: tuple[int, ...]):
        """Per axis, each coordinate's block index (``M`` outside every block)
        and wiggle factor ``g^(order)((x - xi) / sigma)`` (0 outside); and
        ``A sigma^-|alpha|``, the scale of the partial ``alpha = orders``."""
        sigma, m_axis = self.params.sigma, self.params.m_per_axis
        if len(axes) != self.params.dim:
            raise ValueError(f"expected dimension {self.params.dim}, got {len(axes)}")
        indices, factors = [], []
        for coords, order in zip(axes, orders):
            coords = np.asarray(coords, dtype=float)
            idx = np.rint((coords - self.xi[0]) / (8.0 * sigma)).astype(int)
            inside = (idx >= 0) & (idx < m_axis)
            idx = np.clip(idx, 0, m_axis - 1)
            inside &= np.abs(coords - self.xi[idx]) <= 3.0 * sigma
            u = (coords[inside] - self.xi[idx[inside]]) / sigma
            vals = np.zeros(coords.shape)
            vals[inside] = g_deriv(order, u) if order else g_function(u)
            indices.append(np.where(inside, idx, m_axis))
            factors.append(vals)
        return tuple(indices), factors, self.params.amplitude / sigma ** sum(orders)

    def _term(self, word: np.ndarray) -> Term:
        """``F_omega``'s term: the word's bits on the block grid over the wiggles."""
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.params.n_blocks,):
            raise ValueError(
                f"word must have length M^D = {self.params.n_blocks}, got {word.shape}")
        return Term(word.reshape((self.params.m_per_axis,) * self.params.dim) != 0, self._wiggles)

    def perturbation_field(self, word: np.ndarray,
                           alpha: tuple[int, ...] | None = None) -> Callable:
        """Field of ``F_omega`` (or its partial ``alpha``), with ``on_grid``: ``A
        sigma^-|alpha|`` times the wiggle factors where the word's bit is one, else 0."""
        field = TensorField((self._term(word),), self.f0.support)
        return field.partial_field(alpha if alpha is not None else (0,) * self.params.dim)

    def member(self, word: np.ndarray) -> Density:
        """The density ``f_omega = f_0 + F_omega``.  It has no axis factors,
        so it is evaluated and integrated, never sampled."""
        terms = (product_term(self.f0.axis_factors), self._term(word))
        return Density(field=TensorField(terms, self.f0.support))

    def min_pairwise_hamming(self) -> int:
        """Smallest Hamming distance between two code words (the word length for a
        one-word code): in a linear code, the smallest weight of a nonzero word."""
        return int(self.weights[1:].min(initial=self.params.n_blocks))


def build_family(params: FamilyParams, code_seed: int = 0) -> LowerBoundFamily:
    """The family of a parameter set that meets every construction invariant
    (``validate_params``), coded by ``vg_code(M^D, code_seed)``."""
    validate_params(params)
    return LowerBoundFamily(params, vg_code(params.n_blocks, seed=code_seed))


def family_rule(fam: LowerBoundFamily, nodes_per_panel: int = 8) -> QuadRule:
    """Composite Gauss-Legendre rule on the family's own geometry, the same on
    every axis.  Its edges are f_0's support and plateau ends and, for each
    block, ``xi_k - 2 sigma``, ``xi_k`` and ``xi_k + 2 sigma``: the wiggle's
    support ends and its zero crossing, where ``|F_a - F_b|^p`` has its kink.
    Each half block gets ``_HALF_BLOCK_PANELS`` equal panels and each of f_0's
    skirts ``_SKIRT_PANELS``; a stretch of plateau without a block gets one,
    since every integrand is constant there (f_0 is ``(kappa/N)^D`` and every
    F is 0)."""
    params, box, plateau = fam.params, fam.f0.support, fam.plateau_halfwidth
    lo, hi = box.lower[0], box.upper[0]
    knots, panels = [lo, -plateau], [_SKIRT_PANELS, 1]
    for xi in fam.xi:
        knots += [xi - 2.0 * params.sigma, xi, xi + 2.0 * params.sigma]
        panels += [_HALF_BLOCK_PANELS, _HALF_BLOCK_PANELS, 1]
    knots += [plateau, hi]
    panels += [_SKIRT_PANELS]
    edges = np.concatenate([np.linspace(a, b, n + 1)[:-1]
                            for a, b, n in zip(knots, knots[1:], panels)] + [[hi]])
    return QuadRule.on_edges(nodes_per_panel, [edges] * params.dim)


def family_distance(fam: LowerBoundFamily, word_a: np.ndarray, word_b: np.ndarray) -> float:
    """``L^p`` distance between two family members, in closed form: block
    disjointness makes it ``_member_distance`` at the words' Hamming distance."""
    fam._term(word_a), fam._term(word_b)  # each checks its word's length
    return _member_distance(fam.params, hamming_distance(word_a, word_b))


def _member_distance(params: FamilyParams, rho: int) -> float:
    """Closed-form ``L^p`` distance between members whose words differ in
    ``rho`` places: ``(A^p rho sigma^D ||g||_p^{pD})^{1/p}``."""
    p, dim = params.p, params.dim
    value_p = params.amplitude ** p * rho * params.sigma ** dim * g_norm(p) ** (p * dim)
    return value_p ** (1.0 / p)


def chi2_affinity(fam: LowerBoundFamily, word: np.ndarray, n: int) -> float:
    """``E_{f_0} (dP_{f_w}/dP_{f_0})^2`` for an i.i.d. sample of size ``n``.

    Equals ``(1 + (N/kappa)^D A^2 k sigma^D ||g||_2^{2D})^n`` for a word
    with ``k`` ones, because the perturbation lives entirely on the
    plateau where ``f_0`` is the constant ``(kappa/N)^D``.
    """
    return float(_chi2_closed_form(fam.params, int(fam._term(word).core.sum()), n))


def _chi2_closed_form(params: FamilyParams, ones, n: int):
    """Chi-square affinity at sample size ``n`` of a word with ``ones`` ones;
    ``ones`` may be an array holding the count of every word of a code."""
    dim = params.dim
    bump_mass = ((params.big_n / params.kappa) ** dim * params.amplitude ** 2
                 * ones * params.sigma ** dim * g_norm(2.0) ** (2 * dim))
    return (1.0 + bump_mass) ** n


def family_report(fam: LowerBoundFamily, pdf_rule: QuadRule | None = None) -> dict:
    """Parameters plus measured identity defects, JSON-ready.  One sweep over
    the rule's slabs gives the six integrals and each checked member's minimum
    on the rule's nodes.  Of its own, each slab holds one whole-slab array,
    f_0's grid, which every integrand overwrites in turn, and the rest on the
    blocks' sub-grid: the README family's report peaks at 6.2 MiB traced at 2
    nodes per panel and 13.2 MiB at 8."""
    params = fam.params
    rule = pdf_rule or family_rule(fam)
    consts = family_constants(params)
    rho_min = fam.min_pairwise_hamming() if fam.code.shape[0] > 1 else 0
    checked = fam.code[:_PDF_CHECKED_WORDS]
    # f_0's term and the checked words' terms, which share the wiggles as their basis
    f0, words = product_term(fam.f0.axis_factors), [fam._term(word) for word in checked]
    pair = fam.code.shape[0] >= 2
    minima = [0.0]

    def arrays(f0_basis, wiggles):
        """On the slab the bases were sliced to, each in f_0's grid, the one slab
        buffer: each checked member f_0 + F_w in turn, its minimum kept before the
        next overwrites it; then, for a code of two words or more, |F_0 - F_1|^p
        and F_1^2 / f_0.  A word's values F_w are made from its bits on the
        blocks' sub-grid only when used, so at most two are alive at once."""
        buffer, (sub, product, bits) = f0.grid(f0_basis), sub_grid(words, wiggles)
        f0_blocks = buffer[sub]
        buffer += 0.0  # off the sub-grid a member is f_0 + 0.0, the pointwise sum
        for word_bits in bits:
            buffer[sub] = f0_blocks + np.where(word_bits, product, 0.0)
            minima.append(float(buffer.min()))
            yield buffer
        if pair:
            f_1 = np.where(bits[1], product, 0.0)
            yield on_sub_grid(buffer, sub, _distance_values(
                np.where(bits[0], product, 0.0), f_1, params.p))
            yield on_sub_grid(buffer, sub, f_1 ** 2 / f0_blocks)

    # the bases are elementwise: a slab slices the values they have on the whole axes
    nodes = grid_nodes(fam.f0.support, rule)[0]
    whole = [term.basis(nodes, (0,) * params.dim) for term in (f0, words[0])]
    integrals = integrate_many(lambda axes, slab: arrays(*(_sliced(b, slab) for b in whole)),
                               fam.f0.support, rule)
    worst_pdf_defect = max([0.0] + [abs(mass - 1.0) for mass in integrals[:len(checked)]])
    dist_rel_err = aff_rel_err = 0.0
    if pair:
        distance_p, chi2_integral = integrals[len(checked):]
        closed = family_distance(fam, fam.code[0], fam.code[1])
        quad = distance_p ** (1.0 / params.p)
        dist_rel_err = abs(closed - quad) / max(abs(closed), 1e-300)
        closed = chi2_affinity(fam, fam.code[1], 1)
        quad = 1.0 + chi2_integral
        aff_rel_err = abs(closed - quad) / max(abs(closed), 1e-300)
    return {
        "params": params_to_report(params),
        "constants": {
            "C0": consts.c0, "C1": consts.c1, "C2": consts.c2,
            "C3": consts.c3, "C4": consts.c4, "C5": consts.c5,
            "g_p": consts.g_p, "g_2": consts.g_2, "g_sobolev": consts.g_sob,
        },
        "code_size": int(fam.code.shape[0]),
        "code_size_bound": float(2.0 ** (params.n_blocks / 8.0)),
        "min_hamming_distance": int(rho_min),
        "min_hamming_bound": int(math.ceil(params.n_blocks / 8.0)),
        "worst_pdf_defect": worst_pdf_defect,
        "worst_negative_value": min(minima),
        "distance_identity_rel_error": dist_rel_err,
        "affinity_identity_rel_error": aff_rel_err,
    }


@dataclass(frozen=True)
class LowerHypothesesReport:
    rho_n: float
    condition_l11: bool
    c0_estimate: float
    c0_exponential_bound: float
    min_distance: float


def verify_lower_hypotheses(fam: LowerBoundFamily, n: int) -> LowerHypothesesReport:
    """Check the two hypotheses of the reduction lemma numerically.

    The separation condition compares the minimum pairwise member distance
    (the closed form of ``family_distance`` at the code's minimum Hamming
    distance) against ``2 rho_n`` with ``rho_n = C_1 A N^{D/p}``.  The
    averaged chi-square affinity is the closed form of ``chi2_affinity``
    evaluated for every word of the code at once from its count of ones,
    and averaged with an exactly rounded sum.
    """
    params = fam.params
    consts = family_constants(params)
    rho_n = (consts.c1 * params.amplitude
             * params.big_n ** (params.dim / params.p))
    min_distance = _member_distance(params, fam.min_pairwise_hamming())
    condition = min_distance >= 2.0 * rho_n * (1.0 - 1e-12)
    affinities = _chi2_closed_form(params, fam.weights, n)
    c0 = math.fsum(affinities) / affinities.size
    bound_exponent = (consts.c2 * n * params.big_n ** (2 * params.dim)
                      * params.amplitude ** 2)
    return LowerHypothesesReport(rho_n=rho_n, condition_l11=bool(condition),
                                 c0_estimate=c0,
                                 c0_exponential_bound=math.exp(bound_exponent),
                                 min_distance=min_distance)
