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
``family_report`` checks both identities and four members' mass by
quadrature in one pass over the slabs.  Each quantity is computed where it
varies: f_0's factors and the wiggles once per axis (a slab slices them),
block ids once per slab, a word's values only on the blocks' sub-grid.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import reduce, wraps
from typing import Callable, get_type_hints

import numpy as np

from .bumps import g_deriv, g_function, g_norm, g_sobolev_norm, bump_sobolev_norm, bump_l1
from .densities import Density, plateau_density
from .kernels import config_scalar, config_values
from .quadrature import (QuadRule, grid_nodes, integrate,  # noqa: F401  (perfbench wraps it)
                         integrate_many, tensor_product)
from .sobolev import DifferentiableField

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
]

MAX_CODE_WORDS = 1 << 16
_LEX_SCAN_BUDGET = 200_000
# min_pairwise_hamming takes blocks of rows of at most this many rows x words
_HAMMING_BLOCK = 1 << 20
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


def _pack(words: np.ndarray) -> np.ndarray:
    """Rows of bits as little-endian uint64 lanes; lane 0 of a word is its integer value."""
    m = words.shape[1]
    packed = np.zeros((words.shape[0], 8 * -(-m // 64)), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(words, axis=1, bitorder="little")
    return packed.view("<u8")


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distances of packed words, ``a`` by ``b``, in the narrowest type that holds them."""
    dist = np.zeros((len(a), len(b)), dtype=np.min_scalar_type(64 * a.shape[1]))
    for k in range(a.shape[1]):
        dist += np.bitwise_count(a[:, k, None] ^ b[:, k])
    return dist


def vg_code(m: int, seed: int = 0) -> np.ndarray:
    """Binary code of length ``m`` with the packing-lemma guarantees.

    Returns an array of shape ``(n_words, m)`` with ``n_words >=
    ceil(2^(m/8))`` and pairwise Hamming distance ``>= ceil(m/8)``.  The
    all-zeros word comes first, so the code indexes a family containing
    ``f_0`` itself.  Greedy lexicode search: the smallest surviving word is
    accepted and removes its Hamming ball of radius ``ceil(m/8) - 1``.
    Lexicographic candidates stop at 200,000, so this phase fills the whole
    code only for m <= 53; for m >= 54 seeded random words supply the rest
    (the README family, m = 81, gets 3 lexicographic words and 1,113 random
    ones), so ``seed`` matters only for m >= 54.
    """
    if m < 8:
        raise ValueError(f"code length must be >= 8, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    dist = math.ceil(m / 8.0)
    target = max(2, math.ceil(2.0 ** (m / 8.0)))
    if target > MAX_CODE_WORDS:
        raise ValueError(
            f"code of length {m} needs {target} words; cap is {MAX_CODE_WORDS}. The block "
            f"count M^D grows with n, so a smaller n (--n) gives fewer blocks")

    packed = np.zeros((target, -(-m // 64)), dtype="<u8")  # row 0: all-zeros word
    count = 1
    survivors = np.arange(1, min(2 ** m, _LEX_SCAN_BUDGET + 1), dtype="<u8")
    survivors = survivors[np.bitwise_count(survivors) >= dist]
    while count < target and survivors.size:
        packed[count, 0] = survivors[0]
        survivors = survivors[np.bitwise_count(survivors ^ survivors[0]) >= dist]
        count += 1

    rng = np.random.default_rng(seed + 1)
    misses = 0
    while count < target:
        # 64 candidates: a draw of m bits takes one byte of a uint32 per bit and
        # starts a fresh uint32, so each row holds the bits of one such draw
        batch = _pack(rng.integers(0, 2, size=(64, 4 * -(-m // 4)), dtype=np.uint8)[:, :m])
        far = _distances(batch, packed[:count]).min(axis=1) >= dist
        apart = _distances(batch, batch) >= dist
        np.fill_diagonal(apart, True)  # a candidate does not clash with itself
        if far.all() and apart.all():  # no clash: the loop below would accept them all
            accepted = min(len(batch), target - count)
            packed[count:count + accepted] = batch[:accepted]
            count, misses = count + accepted, 0
            continue
        for i in range(len(batch)):
            misses += 1
            if far[i]:
                packed[count] = batch[i]
                count, misses = count + 1, 0
                if count == target:
                    break
                # later candidates of the batch must keep their distance from it
                far &= apart[i]
            elif misses == 10_000:
                raise RuntimeError(
                    f"randomized code search stalled at {count}/{target} words")
    return np.unpackbits(packed[:count].view(np.uint8), axis=1, count=m,
                         bitorder="little")


# ----------------------------- the family -----------------------------

def _row_major(indices, shape) -> np.ndarray:
    """Row-major positions in a grid of ``shape`` of per-axis indices (broadcast together)."""
    return reduce(lambda pos, j: pos * shape[j] + indices[j], range(1, len(shape)), indices[0])


def _on_blocks(axes, pos, values: np.ndarray) -> np.ndarray:
    """``values`` at the row-major positions ``pos`` of the block sub-grid of
    ``axes``, 0 elsewhere."""
    shape = tuple(len(a) for a in axes)
    out = np.zeros(math.prod(shape))
    out[pos] = values
    return out.reshape(shape)


def _member_values(out: np.ndarray, f0_blocks: np.ndarray, pos, values: np.ndarray) -> np.ndarray:
    """``f_0 + F`` written at ``pos`` into the contiguous ``out``, which holds ``f_0
    + 0.0`` (an f_0 partial's -0.0 turned into +0.0, as the pointwise sum does)."""
    out.reshape(-1)[pos] = f0_blocks + values
    return out


def _distance_values(va: np.ndarray, vb: np.ndarray, p: float) -> np.ndarray:
    """``|F_a - F_b|^p``, the power taken only where the members differ (0^p = 0)."""
    diff = np.abs(va - vb)
    differ = diff != 0.0
    diff[differ] = diff[differ] ** p
    return diff


def _chi2_values(f0_blocks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``F^2 / f_0`` from f_0's values on the blocks, where it is positive (the plateau)."""
    return values ** 2 / f0_blocks


class LowerBoundFamily:
    """The plateau density ``f0`` plus the perturbations coded by the rows of
    ``code`` (``n_words x M^D`` bits).  Only the block geometry is checked
    here, so small diagnostic instances (``M <= N``) build too;
    ``build_family`` also checks every construction invariant."""

    def __init__(self, params: FamilyParams, code: np.ndarray):
        # a read-only copy: no write can make min_pairwise_hamming's value stale
        code = np.array(code, dtype=np.uint8)
        code.flags.writeable = False
        if code.ndim != 2 or code.shape[1] != params.n_blocks:
            raise ValueError(
                f"code must have shape (n_words, {params.n_blocks}), got {code.shape}")
        self.params = params
        self.f0 = plateau_density(params.big_n, params.kappa, params.dim)
        self.code = code
        self._min_hamming: int | None = None
        kappa, sigma = params.kappa, params.sigma
        self.xi = (-(params.big_n - 4.0) / (4.0 * kappa)
                   + 8.0 * sigma * np.arange(1, params.m_per_axis + 1))
        self._padded_shape = (params.m_per_axis + 1,) * params.dim
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

    def _block_grid(self, idx, vals, scale: float):
        """From a grid's per-axis ``_wiggles``, per node of its block sub-grid: the
        row-major position, the block's row-major id in the padded block grid and
        the scaled wiggle product (multiplied left to right), the value bar the word."""
        sub = np.ix_(*(np.flatnonzero(ij < self.params.m_per_axis) for ij in idx))
        return (_row_major(sub, [len(ij) for ij in idx]),
                _row_major([ij[k] for ij, k in zip(idx, sub)], self._padded_shape),
                reduce(np.multiply, [v[k] for v, k in zip(vals, sub)], scale))

    def _word_bits(self, word: np.ndarray) -> np.ndarray:
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.params.n_blocks,):
            raise ValueError(
                f"word must have length M^D = {self.params.n_blocks}, got {word.shape}")
        return word

    def perturbation_field(self, word: np.ndarray,
                           alpha: tuple[int, ...] | None = None) -> Callable:
        """Field of ``F_omega`` (or its partial derivative ``alpha``), with
        ``on_grid`` and ``blocks(axes, grid=None)``: the positions of the block
        sub-grid of ``axes`` and the values there, from its ``_block_grid``.

        Each axis gives a coordinate its block index and wiggle factor; a
        value is ``A sigma^-|alpha|`` times the factors, multiplied left to
        right, where the word's bit of the block is one, and 0 elsewhere.
        """
        bits = self._word_bits(word)
        dim, m_axis = self.params.dim, self.params.m_per_axis
        orders = tuple(alpha) if alpha is not None else (0,) * dim
        # the word's bits on the block grid, padded with a zero block that
        # every coordinate outside the blocks of its axis points to
        padded = np.zeros(self._padded_shape, dtype=bool)
        padded[(slice(-1),) * dim] = bits.reshape((m_axis,) * dim) != 0

        def value(ids, wiggle: np.ndarray) -> np.ndarray:
            return np.where(padded.take(ids), wiggle, 0.0)  # ids index the flat bits

        def field(pts: np.ndarray) -> np.ndarray:
            idx, vals, scale = self._wiggles(np.atleast_2d(np.asarray(pts, dtype=float)).T,
                                             orders)
            return value(_row_major(idx, self._padded_shape), reduce(np.multiply, vals, scale))

        def blocks(axes, grid=None):
            pos, ids, wiggle = grid or self._block_grid(*self._wiggles(axes, orders))
            return pos, value(ids, wiggle)

        field.on_grid = lambda axes: _on_blocks(axes, *blocks(axes))
        field.blocks = blocks
        return field

    def member(self, word: np.ndarray) -> Density:
        """The density ``f_omega = f_0 + F_omega``.  It has no axis factors,
        so it is evaluated and integrated, never sampled."""
        bits = self._word_bits(word)
        f0_field = self.f0.field

        def partial_factory(alpha: tuple[int, ...]) -> Callable:
            f0, pert = f0_field.partial_field(alpha), self.perturbation_field(bits, alpha)

            def field(pts: np.ndarray) -> np.ndarray:
                return np.add(f0(pts), pert(pts))

            def on_grid(axes) -> np.ndarray:
                f0_values, (pos, values) = f0.on_grid(axes), pert.blocks(axes)
                return _member_values(f0_values + 0.0, f0_values.ravel()[pos], pos, values)

            field.on_grid = on_grid
            return field

        return Density(field=DifferentiableField(partial_factory((0,) * self.params.dim),
                                                 f0_field.support, partial_factory))

    def min_pairwise_hamming(self) -> int:
        """Smallest Hamming distance between two code words (the word length for a
        one-word code), from each pair's distance, in blocks of rows; computed once."""
        if self._min_hamming is None:
            packed, length = _pack(self.code), self.code.shape[1]
            rows = max(1, _HAMMING_BLOCK // len(packed))
            self._min_hamming = length
            for start in range(0, len(packed), rows):
                # the block's rows against the words from its first on, but
                # for a word's distance to itself
                dist = _distances(packed[start:start + rows], packed[start:])
                np.fill_diagonal(dist, length)
                self._min_hamming = min(self._min_hamming, int(dist.min()))
        return self._min_hamming


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


def family_distance(fam: LowerBoundFamily, word_a: np.ndarray, word_b: np.ndarray,
                    via_quadrature: bool = False,
                    rule: QuadRule | None = None) -> float:
    """``L^p`` distance between two family members.

    The closed form follows from block disjointness; the quadrature path
    integrates ``|f_a - f_b|^p`` directly and exists to cross-check it.
    """
    a = fam._word_bits(word_a)
    b = fam._word_bits(word_b)
    p = fam.params.p
    if via_quadrature:
        fa, fb = fam.perturbation_field(a), fam.perturbation_field(b)

        def arrays(axes, slab):
            (pos, va), vb = fa.blocks(axes), fb.blocks(axes)[1]
            yield _on_blocks(axes, pos, _distance_values(va, vb, p))

        (val,) = integrate_many(arrays, fam.f0.support, rule or family_rule(fam))
        return val ** (1.0 / p)
    return _member_distance(fam.params, hamming_distance(a, b))


def _member_distance(params: FamilyParams, rho: int) -> float:
    """Closed-form ``L^p`` distance between members whose words differ in
    ``rho`` places: ``(A^p rho sigma^D ||g||_p^{pD})^{1/p}``."""
    p, dim = params.p, params.dim
    value_p = params.amplitude ** p * rho * params.sigma ** dim * g_norm(p) ** (p * dim)
    return value_p ** (1.0 / p)


def chi2_affinity(fam: LowerBoundFamily, word: np.ndarray, n: int,
                  via_quadrature: bool = False,
                  rule: QuadRule | None = None) -> float:
    """``E_{f_0} (dP_{f_w}/dP_{f_0})^2`` for an i.i.d. sample of size ``n``.

    Equals ``(1 + (N/kappa)^D A^2 k sigma^D ||g||_2^{2D})^n`` for a word
    with ``k`` ones, because the perturbation lives entirely on the
    plateau where ``f_0`` is the constant ``(kappa/N)^D``.
    """
    bits = fam._word_bits(word)
    if via_quadrature:
        pert = fam.perturbation_field(bits)

        def arrays(axes, slab):
            pos, values = pert.blocks(axes)
            f0_blocks = fam.f0.on_grid(axes).reshape(-1).take(pos)
            yield _on_blocks(axes, pos, _chi2_values(f0_blocks, values))

        (integral,) = integrate_many(arrays, fam.f0.support, rule or family_rule(fam))
        return float((1.0 + integral) ** n)
    return float(_chi2_closed_form(fam.params, int(np.sum(bits != 0)), n))


def _chi2_closed_form(params: FamilyParams, ones, n: int):
    """Chi-square affinity at sample size ``n`` of a word with ``ones`` ones;
    ``ones`` may be an array holding the count of every word of a code."""
    dim = params.dim
    bump_mass = ((params.big_n / params.kappa) ** dim * params.amplitude ** 2
                 * ones * params.sigma ** dim * g_norm(2.0) ** (2 * dim))
    return (1.0 + bump_mass) ** n


def family_report(fam: LowerBoundFamily, pdf_rule: QuadRule | None = None) -> dict:
    """Parameters plus measured identity defects, JSON-ready.  The six integrals
    take one sweep, the four minimum checks share one grid."""
    params = fam.params
    rule = pdf_rule or family_rule(fam)
    consts = family_constants(params)
    rho_min = fam.min_pairwise_hamming() if fam.code.shape[0] > 1 else 0
    checked = fam.code[:_PDF_CHECKED_WORDS]
    perts = [fam.perturbation_field(word) for word in checked]
    pair = fam.code.shape[0] >= 2

    def members(f0_factors, idx, wiggles, scale):
        """f_0 + 0.0 on the grid of these per-axis factors, and f_0's values, the
        positions and the four perturbations' values on its block sub-grid."""
        f0, grid = tensor_product(f0_factors), fam._block_grid(idx, wiggles, scale)
        f0_blocks = f0.reshape(-1).take(grid[0])
        f0 += 0.0  # f_0's own buffer serves every member: off the sub-grid each is f_0 + 0.0
        return f0, f0_blocks, grid[0], [pert.blocks(None, grid)[1] for pert in perts]

    def factors(axes):
        return ([f.pdf(x) for f, x in zip(fam.f0.axis_factors, axes)],
                *fam._wiggles(axes, (0,) * params.dim))

    # the factors are elementwise: a slab slices the bits they have on the whole axes
    *per_axis, scale = factors(grid_nodes(fam.f0.support, rule)[0])

    def arrays(axes, slab):
        out, f0_blocks, pos, values = members(
            *[[a[s] for a, s in zip(part, slab)] for part in per_axis], scale)
        yield from (_member_values(out, f0_blocks, pos, v) for v in values)
        if pair:
            yield _on_blocks(axes, pos, _distance_values(values[0], values[1], params.p))
            yield _on_blocks(axes, pos, _chi2_values(f0_blocks, values[1]))

    integrals = integrate_many(arrays, fam.f0.support, rule)
    worst_pdf_defect = max([0.0] + [abs(mass - 1.0) for mass in integrals[:len(checked)]])
    # each member's minimum on the grid where verify_pdf looks for negative values
    out, f0_blocks, pos, values = members(*factors(fam.f0.check_axes()))
    worst_negative = min([0.0] + [float(np.min(_member_values(out, f0_blocks, pos, v)))
                                  for v in values])
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
        "worst_negative_value": worst_negative,
        "distance_identity_rel_error": dist_rel_err,
        "affinity_identity_rel_error": aff_rel_err,
    }
