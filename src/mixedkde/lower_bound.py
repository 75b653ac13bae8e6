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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, get_type_hints

import numpy as np

from .bumps import g_deriv, g_function, g_norm, g_sobolev_norm, bump_sobolev_norm, bump_l1
from .densities import Density, PlateauInfo, plateau_density
from .kernels import config_scalar, config_values
from .quadrature import QuadRule, integrate, tensor_product
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
# word pairs per block of min_pairwise_hamming's all-pairs distances
_HAMMING_BLOCK = 1 << 20
# code words whose members family_report checks for unit mass and sign
_PDF_CHECKED_WORDS = 4


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


def validate_params(params: FamilyParams) -> None:
    """Check every construction invariant, naming the first violated one."""
    p = params
    if p.p < 1:
        raise InfeasibleParameters(f"p must be >= 1, got {p.p}")
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
    plateau_value = (p.kappa / p.big_n) ** p.dim
    if p.amplitude > plateau_value * (1 + 1e-12):
        raise InfeasibleParameters(
            f"A = {p.amplitude} exceeds the plateau value (kappa/N)^D = {plateau_value}; "
            "n is too small for this configuration")
    expected_r_star = p.r - 1.0 if p.p == 1 else p.r
    if abs(p.r_star - expected_r_star) > 1e-12:
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
        return (r + 1.0) / (2.0 * r), r - 1.0
    return 0.5, r


def _kappa_choice(p: float, r: float, epsilon: float, c0: float, dim: int) -> float:
    if p == 1:
        cap = (epsilon * r - 1.0) / c0
    else:
        cap = (epsilon * r / c0) ** (p / (dim * (p - 1.0)))
    if cap <= 0:
        raise InfeasibleParameters(
            f"plateau norm constant C0 = {c0} leaves no admissible kappa for r = {r}")
    return min(1.0, cap)


def _plateau_constant(p: float, dim: int, smooth: int) -> float:
    """C0, the Sobolev-norm constant of the plateau density."""
    return (2.0 * bump_sobolev_norm(smooth - 1, p) / bump_l1()) ** dim


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
    violated constraint when ``n`` is too small.
    """
    if n < 1:
        raise InfeasibleParameters("n must be a positive integer")
    dim = d1 + d2
    smooth = s1 + s2
    epsilon, r_star = _epsilon_rstar(p, r)
    kappa = _kappa_choice(p, r, epsilon, _plateau_constant(p, dim, smooth), dim)
    if compact_regime and not big_n > 8:
        raise InfeasibleParameters(f"N must exceed 8, got {big_n}")
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
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"word shapes differ: {a.shape} vs {b.shape}")
    return int(np.sum(a != b))


def _pack(words: np.ndarray) -> np.ndarray:
    """Rows of bits as little-endian uint64 lanes; lane 0 of a word is its integer value."""
    m = words.shape[1]
    packed = np.zeros((words.shape[0], 8 * -(-m // 64)), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(words, axis=1, bitorder="little")
    return packed.view("<u8")


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
    dist = math.ceil(m / 8.0)
    target = max(2, math.ceil(2.0 ** (m / 8.0)))
    if target > MAX_CODE_WORDS:
        raise ValueError(
            f"code of length {m} needs {target} words; "
            f"cap is {MAX_CODE_WORDS}, reduce the block count")

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
        cand = _pack(rng.integers(0, 2, size=m, dtype=np.uint8)[None, :])
        if np.bitwise_count(packed[:count] ^ cand).sum(axis=1).min() >= dist:
            packed[count] = cand
            count += 1
            misses = 0
            continue
        misses += 1
        if misses == 10_000:
            raise RuntimeError(
                f"randomized code search stalled at {count}/{target} words")
    return np.unpackbits(packed[:count].view(np.uint8), axis=1, count=m,
                         bitorder="little")


# ----------------------------- the family -----------------------------

def _pointwise(op: Callable, *fields: Callable) -> Callable:
    """Field ``op(f_1, ..., f_k)`` of fields that all carry ``on_grid``; it carries one too."""
    def field(pts: np.ndarray) -> np.ndarray:
        return op(*(f(pts) for f in fields))

    field.on_grid = lambda axes: op(*(f.on_grid(axes) for f in fields))
    return field


class LowerBoundFamily:
    """The plateau density plus its coded perturbations."""

    def __init__(self, params: FamilyParams, f0: Density, info: PlateauInfo,
                 code: np.ndarray):
        self.params = params
        self.f0 = f0
        self.plateau = info
        self.code = code
        kappa, sigma = params.kappa, params.sigma
        self.xi = (-(params.big_n - 4.0) / (4.0 * kappa)
                   + 8.0 * sigma * np.arange(1, params.m_per_axis + 1))
        lo_block = self.xi[0] - 3.0 * sigma
        hi_block = self.xi[-1] + 3.0 * sigma
        if lo_block < -info.plateau_halfwidth - 1e-12 or hi_block > info.plateau_halfwidth + 1e-12:
            raise ConstructionError(
                f"bump blocks [{lo_block}, {hi_block}] leave the plateau "
                f"[-{info.plateau_halfwidth}, {info.plateau_halfwidth}]; "
                "parameters are inconsistent")

    # -- block geometry ------------------------------------------------

    def _locate(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis block index (0-based) and in-block mask for coordinates."""
        sigma = self.params.sigma
        idx = np.rint((coords - self.xi[0]) / (8.0 * sigma)).astype(int)
        valid = (idx >= 0) & (idx < self.params.m_per_axis)
        idx = np.clip(idx, 0, self.params.m_per_axis - 1)
        inside = valid & (np.abs(coords - self.xi[idx]) <= 3.0 * sigma)
        return idx, inside

    def _word_bits(self, word: np.ndarray) -> np.ndarray:
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.params.n_blocks,):
            raise ValueError(
                f"word must have length M^D = {self.params.n_blocks}, got {word.shape}")
        return word

    def perturbation_field(self, word: np.ndarray,
                           alpha: tuple[int, ...] | None = None) -> Callable:
        """Field of ``F_omega`` (or its partial derivative ``alpha``), with ``on_grid``."""
        bits = self._word_bits(word)
        params = self.params
        dim = params.dim
        sigma = params.sigma
        shape = (params.m_per_axis,) * dim
        orders = tuple(alpha) if alpha is not None else (0,) * dim
        scale = params.amplitude / sigma ** sum(orders)

        def wiggle(j: int, coords: np.ndarray, idx: np.ndarray) -> np.ndarray:
            u = (coords - self.xi[idx]) / sigma
            return g_deriv(orders[j], u) if orders[j] else g_function(u)

        def field(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            if pts.shape[1] != dim:
                raise ValueError(f"expected dimension {dim}, got {pts.shape[1]}")
            idx = np.empty((pts.shape[0], dim), dtype=int)
            inside = np.ones(pts.shape[0], dtype=bool)
            for j in range(dim):
                ij, ins = self._locate(pts[:, j])
                idx[:, j] = ij
                inside &= ins
            out = np.zeros(pts.shape[0])
            if not np.any(inside):
                return out
            sel = np.nonzero(inside)[0]
            flat = np.ravel_multi_index(tuple(idx[sel].T), shape)
            active = bits[flat] != 0
            sel = sel[active]
            if sel.size == 0:
                return out
            vals = np.full(sel.size, scale)
            for j in range(dim):
                vals *= wiggle(j, pts[sel, j], idx[sel, j])
            out[sel] = vals
            return out

        # the word's bits on the block grid, padded with a zero block that
        # every node outside the blocks of its axis points to
        padded = np.zeros((params.m_per_axis + 1,) * dim, dtype=bool)
        padded[(slice(-1),) * dim] = bits.reshape(shape) != 0

        def on_grid(axes) -> np.ndarray:
            if len(axes) != dim:
                raise ValueError(f"expected dimension {dim}, got {len(axes)}")
            factors, active = [], padded
            for j, a in enumerate(axes):
                a = np.asarray(a, dtype=float)
                idx, inside = self._locate(a)
                vals = np.zeros(a.shape)
                vals[inside] = wiggle(j, a[inside], idx[inside])
                factors.append(vals)
                active = active.take(np.where(inside, idx, params.m_per_axis), axis=j)
            factors[0] = scale * factors[0]
            return np.where(active, tensor_product(factors), 0.0)

        field.on_grid = on_grid
        return field

    def member(self, word: np.ndarray) -> Density:
        """The density ``f_omega = f_0 + F_omega`` with a rejection sampler."""
        bits = self._word_bits(word)
        f0_field = self.f0.field
        evaluate = _pointwise(np.add, f0_field.eval, self.perturbation_field(bits))

        def partial_factory(alpha: tuple[int, ...]) -> Callable:
            return _pointwise(np.add, f0_field.partial_factory(alpha),
                              self.perturbation_field(bits, alpha))

        field = DifferentiableField(eval=evaluate, support=f0_field.support,
                                    partial_factory=partial_factory)
        sampler = _RejectionSampler(self.f0, self.params.amplitude, evaluate)
        return Density(field=field, sampler=sampler)

    def min_pairwise_hamming(self) -> int:
        """Smallest Hamming distance between two code words (the word length
        for a one-word code), from all-pairs distances in blocks of rows."""
        packed = _pack(self.code)
        words, lanes = packed.shape
        length = self.code.shape[1]
        rows = max(1, _HAMMING_BLOCK // words)
        best = length
        for start in range(0, words, rows):
            block = packed[start:start + rows]
            dist = np.zeros((len(block), words), dtype=np.int32)
            for k in range(lanes):
                dist += np.bitwise_count(block[:, k, None] ^ packed[:, k])
            # a word's distance to itself does not count
            np.fill_diagonal(dist[:, start:], length)
            best = min(best, int(dist.min()))
        return best


class _RejectionSampler:
    """Envelope ``f_0 + A`` on the support of ``f_0``: mixture proposal."""

    def __init__(self, f0: Density, amplitude: float, target: Callable):
        self._f0 = f0
        self._amp = amplitude
        self._target = target
        box = f0.support
        self._volume = float(np.prod(box.widths()))
        self._box = box

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, self._f0.dim))
        got = 0
        proposed = 0
        uniform_w = self._amp * self._volume / (1.0 + self._amp * self._volume)
        lo = np.asarray(self._box.lower)
        hi = np.asarray(self._box.upper)
        while got < count:
            batch = max(1024, count - got)
            pick_uniform = rng.random(batch) < uniform_w
            pts = self._f0.sampler.draw(rng, batch)
            n_uni = int(pick_uniform.sum())
            if n_uni:
                pts[pick_uniform] = lo + (hi - lo) * rng.random((n_uni, len(lo)))
            envelope = self._f0.field.eval(pts) + self._amp
            accept = rng.random(batch) * envelope <= self._target(pts)
            take = min(int(accept.sum()), count - got)
            out[got:got + take] = pts[accept][:take]
            got += take
            proposed += batch
            if proposed >= 10_000 and got / proposed < 1e-3:
                raise RuntimeError(
                    f"rejection sampler degenerate: acceptance {got / proposed:.2e}")
        return out


def build_family(params: FamilyParams, code: np.ndarray | None = None,
                 code_seed: int = 0, validate: bool = True) -> LowerBoundFamily:
    """Assemble the family; ``code=None`` generates the packing code.

    Small diagnostic instances (``M <= N``, fewer than 8 blocks) cannot
    satisfy the full parameter invariants, which force at least nine blocks
    per axis; pass an explicit ``code`` and ``validate=False`` to build
    them anyway.  Block geometry (disjointness inside the plateau) is
    always enforced.
    """
    if validate:
        validate_params(params)
    f0, info = plateau_density(params.big_n, params.kappa, params.dim)
    if code is None:
        code = vg_code(params.n_blocks, seed=code_seed)
    else:
        code = np.asarray(code, dtype=np.uint8)
        if code.ndim != 2 or code.shape[1] != params.n_blocks:
            raise ValueError(
                f"code must have shape (n_words, {params.n_blocks}), got {code.shape}")
    return LowerBoundFamily(params=params, f0=f0, info=info, code=code)


def family_rule(fam: LowerBoundFamily, nodes_per_panel: int = 8) -> QuadRule:
    """Quadrature rule resolving the family's sigma-scale features."""
    return QuadRule.for_box(fam.f0.support, feature_scale=0.5 * fam.params.sigma,
                            nodes_per_panel=nodes_per_panel)


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
        fa = fam.perturbation_field(a)
        fb = fam.perturbation_field(b)
        rule = rule or family_rule(fam)
        val = integrate(_pointwise(partial(_abs_diff_power, p=p), fa, fb), fam.f0.support, rule)
        return val ** (1.0 / p)
    return _member_distance(fam.params, hamming_distance(a, b))


def _abs_diff_power(va: np.ndarray, vb: np.ndarray, p: float) -> np.ndarray:
    """``|va - vb|^p``, the power taken only where the members differ (0^p = 0)."""
    diff = np.abs(va - vb)
    differ = diff != 0.0
    diff[differ] = diff[differ] ** p
    return diff


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
        rule = rule or family_rule(fam)

        def ratio(f0v: np.ndarray, fv: np.ndarray) -> np.ndarray:
            out = np.zeros(fv.shape)
            mask = fv != 0.0
            out[mask] = fv[mask] ** 2 / f0v[mask]
            return out

        integrand = _pointwise(ratio, fam.f0.field.eval, fam.perturbation_field(bits))
        integral = integrate(integrand, fam.f0.support, rule)
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
    """Parameters plus measured identity defects, JSON-ready."""
    params = fam.params
    rule = pdf_rule or family_rule(fam)
    consts = family_constants(params)
    rho_min = fam.min_pairwise_hamming() if fam.code.shape[0] > 1 else 0
    checked = fam.code[:_PDF_CHECKED_WORDS]
    worst_pdf_defect = 0.0
    worst_negative = 0.0
    for word in checked:
        member = fam.member(word)
        res = member.verify_pdf(rule)
        worst_pdf_defect = max(worst_pdf_defect, res["integral_defect"])
        worst_negative = min(worst_negative, res["min_grid_value"])
    dist_rel_err = 0.0
    if fam.code.shape[0] >= 2:
        closed = family_distance(fam, fam.code[0], fam.code[1])
        quad = family_distance(fam, fam.code[0], fam.code[1], via_quadrature=True,
                               rule=rule)
        dist_rel_err = abs(closed - quad) / max(abs(closed), 1e-300)
    aff_rel_err = 0.0
    if fam.code.shape[0] >= 2:
        closed = chi2_affinity(fam, fam.code[1], 1)
        quad = chi2_affinity(fam, fam.code[1], 1, via_quadrature=True, rule=rule)
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
