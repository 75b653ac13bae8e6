import hashlib
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mixedkde.bumps import g_deriv, g_norm
from mixedkde import densities, lower_bound
from mixedkde.lower_bound import (ConstructionError, FamilyParams,
                                  InfeasibleParameters, LowerBoundFamily, build_family,
                                  chi2_affinity, choose_parameters, family_constants,
                                  family_distance, family_report, family_rule,
                                  hamming_distance, params_from_report,
                                  params_to_report, validate_params, verify_lower_hypotheses,
                                  vg_code)
from mixedkde import quadrature
from mixedkde.quadrature import QuadRule, grid_nodes, integrate, multi_indices, trapezoid_axes
from mixedkde.risk import config_from_dict
from mixedkde.sobolev import SmoothnessSpec, sobolev_norm
import oracles
from oracles import (PartialsField, brute_force_perturbation, family_centres, family_oracle,
                     grid_field, grid_points)


def small_params(m_per_axis=3, p=2.0, amplitude_frac=0.5, d2=1):
    big_n, kappa = 9.0, 1.0
    sigma = big_n / (20.0 * kappa * m_per_axis)
    return FamilyParams(s1=1, s2=1, d1=1, d2=d2, p=p, r=5.0, big_n=big_n,
                        kappa=kappa, sigma=sigma,
                        amplitude=amplitude_frac * (kappa / big_n) ** (1 + d2),
                        m_per_axis=m_per_axis, epsilon=0.5, r_star=5.0,
                        compact_regime=True)


@pytest.fixture(scope="module")
def small_family():
    return LowerBoundFamily(small_params(3), vg_code(9))


@pytest.fixture(scope="module")
def family_3d():
    # d = (1, 2): 27 blocks on a 3-d grid
    return LowerBoundFamily(small_params(3, d2=2), vg_code(27))


# ------------------------------ codes ------------------------------

@pytest.mark.parametrize("m", [8, 9, 16, 27, 40, 64])
def test_vg_code_bounds(m):
    code = vg_code(m)
    k = math.ceil(m / 8.0)
    assert code.shape == (2 ** k, m) and code.dtype == np.uint8
    assert code.shape[0] >= 2.0 ** (m / 8.0)
    # every word is the XOR of the words 2^j whose bit j is set in its index
    assert np.array_equal(code, oracles.linear_code(code[[1 << j for j in range(k)]]))
    # a one-axis family of m blocks: the smallest weight is the distance of a closest pair
    fam = LowerBoundFamily(small_params(m, d2=0), code)
    assert fam.min_pairwise_hamming() == oracles.min_pairwise_hamming(code) >= k


def test_vg_code_contains_zero_word():
    code = vg_code(16)
    assert np.all(code[0] == 0)


def test_vg_code_deterministic():
    assert np.array_equal(vg_code(27), vg_code(27))


def test_vg_code_rejects_short_words():
    for m, message in [(4, ">= 8"), (136, "cap is 65536")]:
        with pytest.raises(ValueError, match=message):
            vg_code(m)


# sha256 of the codes as uint8 bytes: 2^k words of k = ceil(m/8) rows drawn
# from default_rng(seed + 1); m = 121 is the longest code under the cap
_PINNED_CODES = {
    (27, 0): "7c2248b044e5580ff3332bc2386080b54ce38570e268866935f79f7a9aa6b736",
    (40, 0): "86d8d3a0ef0de315cf22b557d802f53872ac36f8dc68cd3b6ec7dcc29c034aad",
    (64, 0): "cedc4c471fccd1086b36e5a11b78bcf07f52ced4c5f8623b417a50a687b18483",
    (81, 0): "01639b6b5b63907680433f9063ff70cd383d2e004caa2a10af10344482035858",
    (81, 7): "7629b49c32c0d72443760278a40c95f4475528ca783c7c45f11c9ae60a4207d6",
    (96, 0): "b035cac6e3489c9ecdbad30ab1e92ac30e04aec5ac80f890dcda8e7da8b35e3b",
    (100, 2): "1926f6ad9bec9321f81e34308fd42e6fdbd2745c5213fc9cfc95a49d2715252f",
    (121, 0): "7dbb5c83a543d46f41520bfc8bbe6ffdaaaf51b5bc661b18e3ea166b256e7de0",
}


@pytest.mark.parametrize("m,seed", sorted(_PINNED_CODES))
def test_vg_code_matches_pinned_digests(m, seed):
    code = np.ascontiguousarray(vg_code(m, seed), np.uint8)
    assert hashlib.sha256(code).hexdigest() == _PINNED_CODES[m, seed]


class _Draws:
    """Generator stub that hands out the given draws of rows in turn and
    counts them; past the last it repeats the last."""

    def __init__(self, *draws):
        self.draws, self.calls = draws, 0

    def integers(self, low, high, size=None, dtype=np.int64):
        rows = self.draws[min(self.calls, len(self.draws) - 1)]
        assert (low, high, size, dtype) == (0, 2, rows.shape, np.uint8)
        self.calls += 1
        return rows.astype(dtype)


def test_vg_code_redraws_rows_that_miss_the_distance(monkeypatch):
    rng = np.random.default_rng(3)
    first, second = rng.integers(0, 2, size=(2, 4, 27), dtype=np.uint8)
    first[2] = 0  # word 4 is all zeros: weight 0 < 4
    stub = _Draws(first, second)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: stub)
    code = vg_code(27)
    assert stub.calls == 2
    assert np.array_equal(code, oracles.linear_code(second))


def test_vg_code_gives_up_after_a_fixed_number_of_draws(monkeypatch):
    stub = _Draws(np.zeros((11, 81), dtype=np.uint8))
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: stub)
    with pytest.raises(RuntimeError,
                       match=r"^no linear code of length 81 at distance >= 11 in 100 draws$"):
        vg_code(81)
    assert stub.calls == lower_bound._CODE_DRAWS == 100


def test_family_rejects_a_non_linear_code():
    code = vg_code(9)
    flipped = code.copy()
    flipped[3, 0] ^= 1  # word 3 is no longer word 1 XOR word 2
    nonzero_first = code[[1, 0, 3, 2]]  # word 0 must be all zeros
    for bad in (flipped, nonzero_first, code[:3], code[:0]):
        with pytest.raises(ValueError, match=r"^code must be linear in word order: word i "
                                             r"is the XOR of the words 2\^j whose bit j is set in i$"):
            LowerBoundFamily(small_params(3), bad)
    assert LowerBoundFamily(small_params(3), code[:1]).min_pairwise_hamming() == 9


def test_family_code_is_a_read_only_copy(monkeypatch):
    code = vg_code(9)
    fam = LowerBoundFamily(small_params(3), code)
    with pytest.raises(ValueError, match="read-only"):
        fam.code[1, 0] = 1 - fam.code[1, 0]
    code[1, 0] = 1 - code[1, 0]
    assert not np.array_equal(fam.code, code)
    rho = fam.min_pairwise_hamming()
    # the value is kept: a second call does not read the code
    monkeypatch.setattr(fam, "code", None)
    assert fam.min_pairwise_hamming() == rho


@pytest.mark.parametrize("seed", [1, 7, 50, 1 << 20])
def test_min_pairwise_hamming_matches_pairs(seed):
    rng = np.random.default_rng(seed)
    # words of 9, 81 and 225 bits spanned by 0 to 5 random rows
    codes = [oracles.linear_code(rng.integers(0, 2, size=(rows, m_per_axis ** 2)))
             for rows, m_per_axis in [(0, 3), (1, 3), (2, 3), (5, 9), (4, 15)]]
    # and dependent rows: words 3 and 4 are equal, word 7 is all zeros
    rows = rng.integers(0, 2, size=(4, 81), dtype=np.uint8)
    rows[2] = rows[0] ^ rows[1]
    for code in codes + [oracles.linear_code(rows)]:
        fam = LowerBoundFamily(small_params(math.isqrt(code.shape[1])), code)
        assert fam.min_pairwise_hamming() == oracles.min_pairwise_hamming(code)
    assert fam.min_pairwise_hamming() == 0


def test_hamming_distance_basics():
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert hamming_distance(a, a) == 0
    b = np.array([1, 1, 0, 0], dtype=np.uint8)
    assert hamming_distance(a, b) == 2
    with pytest.raises(ValueError, match="shapes"):
        hamming_distance(a, np.zeros(5, dtype=np.uint8))


# ------------------------------ parameters ------------------------------

def test_epsilon_and_rstar_rules():
    params = choose_parameters(50_000, 10.0, 2.0, 1, 1, 1, 1)
    assert params.epsilon == 0.5
    assert params.r_star == 10.0
    params1 = choose_parameters(2_000_000, 3.0, 1.0, 1, 1, 1, 1)
    assert params1.r_star == pytest.approx(2.0)
    assert params1.epsilon == pytest.approx((3.0 + 1.0) / 6.0)


def test_amplitude_scaling_in_n():
    a = choose_parameters(100_000, 10.0, 2.0, 1, 1, 1, 1)
    b = choose_parameters(200_000, 10.0, 2.0, 1, 1, 1, 1)
    s, d = 2, 2
    assert (b.amplitude / a.amplitude
            == pytest.approx(2.0 ** (-s / (2 * s + d)), rel=1e-12))


def test_infeasible_small_n_names_constraint():
    with pytest.raises(InfeasibleParameters):
        choose_parameters(50, 10.0, 2.0, 1, 1, 1, 1)


def test_p1_requires_radius_above_one():
    with pytest.raises(InfeasibleParameters, match="r > 1"):
        choose_parameters(1000, 1.0, 1.0, 1, 1, 1, 1)


def test_m_is_integer_and_sigma_backsolved():
    params = choose_parameters(100_000, 10.0, 2.0, 1, 1, 1, 1)
    m_exact = params.big_n / (20.0 * params.kappa * params.sigma)
    assert m_exact == pytest.approx(params.m_per_axis, rel=1e-12)
    validate_params(params)


def test_noncompact_parameters():
    params = choose_parameters(500_000, 30.0, 1.5, 1, 1, 1, 1, compact_regime=False)
    assert not params.compact_regime
    assert params.big_n > 8
    # A <= (kappa/N)^D holds with factor 2 slack by the C6' choice
    assert params.amplitude <= (params.kappa / params.big_n) ** 2
    validate_params(params)


def test_noncompact_rejects_large_p():
    with pytest.raises(InfeasibleParameters, match="non-compact"):
        choose_parameters(10_000, 10.0, 2.5, 1, 1, 1, 1, compact_regime=False)


# ------------------------------ family structure ------------------------------

def test_blocks_disjoint_and_inside_plateau(small_family):
    fam = small_family
    sigma = fam.params.sigma
    # adjacent centers are 8 sigma apart, blocks have half width 3 sigma
    gaps = np.diff(fam.xi)
    assert np.all(gaps == pytest.approx(8.0 * sigma))
    halfwidth = (fam.params.big_n - 2.0) / (2.0 * fam.params.kappa)
    assert fam.xi[0] - 3.0 * sigma >= -halfwidth
    assert fam.xi[-1] + 3.0 * sigma <= halfwidth


def test_all_zero_word_gives_f0(small_family):
    fam = small_family
    w0 = np.zeros(9, dtype=np.uint8)
    member = fam.member(w0)
    pts = np.random.default_rng(3).uniform(-5.5, 5.5, size=(500, 2))
    assert np.allclose(member(pts), fam.f0(pts), atol=0, rtol=0)


def test_perturbation_integrates_to_zero(small_family):
    fam = small_family
    word = fam.code[1]
    pert = fam.perturbation_field(word)
    val = integrate(pert, fam.f0.support, family_rule(fam))
    assert val == pytest.approx(0.0, abs=1e-10)


def test_block_lp_mass_identity(small_family):
    # int |G_m|^p = sigma^D ||g||_p^{pD}: through a single-one word
    fam = small_family
    word = np.zeros(9, dtype=np.uint8)
    word[4] = 1
    p = fam.params.p
    quad = family_oracle(fam.params).distance(word, np.zeros(9, dtype=np.uint8)) ** p
    expected = (fam.params.amplitude ** p * fam.params.sigma ** 2
                * g_norm(p) ** (2 * p))
    assert quad == pytest.approx(expected, rel=1e-6)


def test_family_distance_examples(small_family):
    fam = small_family
    w = fam.code[1]
    assert family_distance(fam, w, w) == 0.0
    ones = np.ones(9, dtype=np.uint8)
    zeros = np.zeros(9, dtype=np.uint8)
    full = family_distance(fam, ones, zeros)
    expected_p = (fam.params.amplitude ** fam.params.p * 9
                  * fam.params.sigma ** 2
                  * g_norm(fam.params.p) ** (2 * fam.params.p))
    assert full ** fam.params.p == pytest.approx(expected_p, rel=1e-12)


def test_distance_closed_form_vs_quadrature(small_family):
    fam = small_family
    oracle = family_oracle(fam.params)
    for a, b in itertools.combinations(range(len(fam.code)), 2):
        closed = family_distance(fam, fam.code[a], fam.code[b])
        quad = oracle.distance(fam.code[a], fam.code[b])
        assert quad == pytest.approx(closed, rel=1e-6)


def test_chi2_examples(small_family):
    fam = small_family
    zeros = np.zeros(9, dtype=np.uint8)
    assert chi2_affinity(fam, zeros, 50) == 1.0
    w = fam.code[1]
    one_shot = chi2_affinity(fam, w, 1)
    assert chi2_affinity(fam, w, 7) == pytest.approx(one_shot ** 7, rel=1e-12)
    quad = family_oracle(fam.params).chi2(w, 1)
    assert quad - 1.0 == pytest.approx(one_shot - 1.0, rel=1e-6)
    # per-bump closed form: 1 + (N/kappa)^D A^2 k sigma^D ||g||_2^{2D}
    k = int(w.sum())
    expected = 1.0 + (9.0 ** 2 * fam.params.amplitude ** 2 * k
                      * fam.params.sigma ** 2 * g_norm(2.0) ** 4)
    assert one_shot == pytest.approx(expected, rel=1e-12)


def _block_cutting_axes(fam):
    """Per-axis nodes: the first axis spans the support, the others start and
    stop inside blocks and pass between them."""
    lo, hi = fam.f0.support.lower[0], fam.f0.support.upper[0]
    first = fam.xi[0] + fam.params.sigma
    last = fam.xi[-1] - 2.0 * fam.params.sigma
    return [np.linspace(lo, hi, 41)] + [np.linspace(first, last, 23 + 2 * j)
                                        for j in range(1, fam.params.dim)]


@pytest.mark.parametrize("fixture", ["small_family", "family_3d"])
def test_family_grid_path_equals_point_path(request, fixture):
    fam = request.getfixturevalue(fixture)
    params = fam.params
    centres = family_centres(params)
    axes = _block_cutting_axes(fam)
    pts = grid_points(axes)
    shape = [len(a) for a in axes]
    ones = np.ones(params.n_blocks, dtype=np.uint8)
    for word in (fam.code[1], ones):
        member = fam.member(word)
        for alpha in multi_indices(params.dim, 2):
            pert = brute_force_perturbation(g_deriv, params.amplitude, params.sigma, centres,
                                            word, alpha, pts)
            f0 = fam.f0.field.partial_field(alpha)(pts)
            for field, expected in ((fam.perturbation_field(word, alpha), pert),
                                    (member.field.partial_field(alpha), f0 + pert)):
                point = field(pts)
                np.testing.assert_array_equal(field.on_grid(axes), point.reshape(shape))
                np.testing.assert_allclose(point, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("fixture", ["small_family", "family_3d"])
def test_family_grid_bytes_equal_point_bytes(request, fixture):
    # byte equality also tells +0.0 from -0.0; random axes are unsorted and
    # put nodes inside, between and outside the blocks
    fam = request.getfixturevalue(fixture)
    lo, hi = fam.f0.support.lower[0], fam.f0.support.upper[0]
    rng = np.random.default_rng(11)
    axes = [rng.uniform(lo, hi, 60 + 7 * j) for j in range(fam.params.dim)]
    shape = [len(a) for a in axes]
    for word in fam.code[:4]:
        member = fam.member(word)
        for alpha in multi_indices(fam.params.dim, 2):
            # an f0 partial is -0.0 on the plateau where another factor is
            # negative; off the blocks the member's sum turns it into +0.0
            for field in (fam.perturbation_field(word, alpha),
                          member.field.partial_field(alpha)):
                point = field(grid_points(axes)).reshape(shape)
                assert field.on_grid(axes).tobytes() == point.tobytes()


def _field_digest(partial, box, axes) -> str:
    """sha256 over every partial with per-axis orders <= 2 (itertools.product
    order) of its values at 1,000 seeded points in ``box``, then on ``axes``."""
    pts = np.random.default_rng(2026).uniform(box.lower, box.upper, size=(1000, box.dim))
    digest = hashlib.sha256()
    for alpha in itertools.product(range(3), repeat=box.dim):
        field = partial(alpha)
        digest.update(np.ascontiguousarray(field(pts)).tobytes())
        digest.update(np.ascontiguousarray(field.on_grid(axes)).tobytes())
    return digest.hexdigest()


# sha256 of the point and grid values of every field the package evaluates:
# the criterion-4 truth on its risk grid, and for the README family and the
# 3-d fixture f_0, the perturbations of words 1-3 and the members of words
# 0-3 on the family_rule(fam, 2) nodes (every 4th node in 3-d)
_FIELD_SHA256 = {
    "truth": "c2c92c4f99ccba57ccdd9c865e00837b9fe70a75189cca16353960df634e9f1a",
    "readme f0": "58ad8ee7858e9d13bc33b5b40b93cd724765dde0bc63073f94cf882e596a6f5e",
    "readme member 0": "b061caa7b4a202f2d0eb33826068be9bd8bf8010d59f66dcda32b74e076406b9",
    "readme F1": "95870adc54adda964d5266d56f597ef92b6c8a282b27557b4e926fd10d6b3c93",
    "readme member 1": "16ffb7f01c0234d3ea48bc2eb6269a521ebefa3db068fe59dd52ee86fa98f92c",
    "readme F2": "c15adea7aa8a3fa808f4654c8f813fad21b4f52b0bc3e9e35e9c6494a379e5e3",
    "readme member 2": "f42e77bfcee28531a10ced02a5ead09a3f30c9a1bd06aa46a222cf7353e68614",
    "readme F3": "a7005f81f10a88158b5d2f3f6c4177eb4463ef75ee24b0e4174176a931127699",
    "readme member 3": "5aea033e1a22efc97593b2d8cb6de0dbe5aa3457b363030703cdb7080aa0a974",
    "3d f0": "1987317501cc521a0f4f5ec5bc5b74a3ba6c09fd6ebc0adaf329d2a7234e2fe9",
    "3d member 0": "af02eff2a529845b15d05450652c1842b10619324eeb5533483ff9f890358f0b",
    "3d F1": "2683caf5f2862558f93f591e431746766c1346fe4261ff52feaf4bb0f634eca3",
    "3d member 1": "b6740b9356e2dbcb84f709b2b1723d6b459a686fa3947ac002e4307013969a81",
    "3d F2": "fffaa19f2106d1798b6aeffec7ce666918c48c398b6ad1b14aab25d343ccb4b0",
    "3d member 2": "67aa176c4a6c51a5d8a784cc1dfe4acd95d0fb0137c2a3223eaa811fb626a649",
    "3d F3": "191f2c02b34c0cef479b2e8dab604a8f4acb6d1d826bf0fee48172033c5a1d9a",
    "3d member 3": "4698ceb28de279c10b1403833ed4f4028da4a42f588ac0c02d2026f714fc33e3",
}


def test_field_values_keep_their_bytes(family_3d):
    config = config_from_dict({
        "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 3.0]}},
        "kernel": {"s1": 2, "s2": 1, "d1": 1, "d2": 1, "strict": True},
        "p": 2.0, "sample_sizes": [2 ** k for k in range(8, 15)], "replicates": 100,
        "master_seed": 20260810})
    truth = config.truth
    got = {"truth": _field_digest(truth.field.partial_field, truth.support,
                                  trapezoid_axes(config.eval_box, config.eval_rule)[0])}
    readme = build_family(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4), code_seed=0)
    for name, fam, stride in (("readme", readme, 1), ("3d", family_3d, 4)):
        box = fam.f0.support
        axes = [x[::stride] for x in grid_nodes(box, family_rule(fam, 2))[0]]
        got[f"{name} f0"] = _field_digest(fam.f0.field.partial_field, box, axes)
        for i in range(4):
            word = fam.code[i]
            if i:
                got[f"{name} F{i}"] = _field_digest(
                    lambda alpha: fam.perturbation_field(word, alpha), box, axes)
            got[f"{name} member {i}"] = _field_digest(fam.member(word).field.partial_field,
                                                      box, axes)
    assert got == _FIELD_SHA256


# sha256 of family_report's JSON for the README family at 2 nodes per
# panel: a drift in any bit of the grid path shows here
_README_REPORT_SHA256 = "380ffb6bcc26e120a73495cbd1b2dd72619aba2b5a5dd452cfd94e19ccb35809"


def test_readme_family_report_bytes():
    fam = build_family(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4), code_seed=0)
    report = family_report(fam, pdf_rule=family_rule(fam, nodes_per_panel=2))
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _README_REPORT_SHA256


# the same at the default 8 nodes per panel: 1,552 nodes per axis in 10
# slabs, 2 of them without a block, which still add their two zero arrays
_README_DEFAULT_RULE_REPORT_SHA256 = (
    "425937250cfe87bef34e91a11404b63070f0aef1418cf5b876927fbb2b7b0244")


def test_readme_family_report_bytes_at_default_rule():
    fam = build_family(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4), code_seed=0)
    text = json.dumps(family_report(fam), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _README_DEFAULT_RULE_REPORT_SHA256


@pytest.mark.parametrize("fixture", ["small_family", "family_3d"])
def test_family_grid_integrals_match_point_integrals(monkeypatch, request, fixture):
    fam = request.getfixturevalue(fixture)
    dim = fam.params.dim
    # slabs of at most 5,000 nodes cut through the blocks
    monkeypatch.setattr(quadrature, "_CHUNK", 5000)
    rule = QuadRule(2, (40,) * dim)
    box = fam.f0.support
    word = fam.code[1]
    fields = [fam.member(word).field.eval, fam.perturbation_field(word, (1,) * dim)]
    for field in fields:
        grid = integrate(field, box, rule)
        point = integrate(grid_field(field), box, rule)
        assert grid == pytest.approx(point, rel=1e-13, abs=0.0)
    # the identities' integrands on the grid path, against the oracle's
    # members on the rule's nodes, summed by the oracle in one dot product
    p = fam.params.p
    fa, fb, f0 = fam.perturbation_field(fam.code[0]), fam.perturbation_field(word), fam.f0
    oracle = family_oracle(fam.params, grid_nodes(box, rule))
    distance = SimpleNamespace(
        on_grid=lambda axes: np.abs(fa.on_grid(axes) - fb.on_grid(axes)) ** p)
    grid = integrate(distance, box, rule) ** (1.0 / p)
    assert grid == pytest.approx(oracle.distance(fam.code[0], word), rel=1e-12, abs=0.0)

    def ratio(axes):
        pert = fb.on_grid(axes)
        return np.where(pert != 0.0, pert ** 2 / f0.on_grid(axes), 0.0)

    grid = (1.0 + integrate(SimpleNamespace(on_grid=ratio), box, rule)) ** 3
    assert grid == pytest.approx(oracle.chi2(word, 3), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fixture", ["small_family", "family_3d"])
def test_family_report_sweep_equals_single_integrals(monkeypatch, request, fixture):
    fam = request.getfixturevalue(fixture)
    dim = fam.params.dim
    # slabs of at most 1,000 nodes, so the sweep spans many slabs
    monkeypatch.setattr(quadrature, "_CHUNK", 1000)
    rule = QuadRule(2, (40,) * dim)
    slabs = len(list(quadrature._slabs((80,) * dim)))
    checked = fam.code[:4]
    lambda_bar, wiggles, f0_sizes, wiggle_sizes = densities.lambda_bar, fam._wiggles, [], []

    def counted_lambda_bar(u):
        f0_sizes.append(len(u))
        return lambda_bar(u)

    def counted_wiggles(axes, orders):
        wiggle_sizes.append([len(a) for a in axes])
        return wiggles(axes, orders)

    monkeypatch.setattr(densities, "lambda_bar", counted_lambda_bar)
    monkeypatch.setattr(fam, "_wiggles", counted_wiggles)
    rep = family_report(fam, pdf_rule=rule)
    # f0's factors (two lambda_bar calls each) and the wiggles once per axis
    # for the sweep, then once on the grid the four minimum checks share
    assert slabs > 1
    assert f0_sizes == [80] * (2 * dim) + [256] * (2 * dim)
    assert wiggle_sizes == [[80] * dim, [256] * dim]

    # the oracle's members on the rule's nodes, summed in one dot product:
    # the same integrals up to rounding, where the sweep sums slab by slab
    oracle = family_oracle(fam.params, grid_nodes(fam.f0.support, rule))
    defects = [abs(oracle.mass(word) - 1.0) for word in checked]
    assert rep["worst_pdf_defect"] == pytest.approx(max([0.0] + defects), rel=0.0, abs=1e-12)
    lows = [float(oracle.member(word).min()) for word in checked]
    assert rep["worst_negative_value"] == min([0.0] + lows) == 0.0
    a, b = fam.code[0], fam.code[1]
    closed = family_distance(fam, a, b)
    quad = oracle.distance(a, b)
    assert rep["distance_identity_rel_error"] == pytest.approx(abs(closed - quad) / closed,
                                                               rel=0.0, abs=1e-12)
    closed = chi2_affinity(fam, b, 1)
    quad = oracle.chi2(b, 1)
    assert rep["affinity_identity_rel_error"] == pytest.approx(abs(closed - quad) / closed,
                                                               rel=0.0, abs=1e-12)


def test_word_length_validation(small_family):
    with pytest.raises(ValueError, match="length"):
        family_distance(small_family, np.zeros(4, dtype=np.uint8),
                        np.zeros(4, dtype=np.uint8))


def test_members_are_pdfs(small_family):
    fam = small_family
    oracle = family_oracle(fam.params)
    for word in fam.code:
        assert abs(oracle.mass(word) - 1.0) <= 1e-8
        assert oracle.member(word).min() >= -1e-12


def test_construction_error_on_bad_geometry():
    # huge sigma pushes blocks outside the plateau
    params = FamilyParams(s1=1, s2=1, d1=1, d2=1, p=2.0, r=5.0, big_n=9.0,
                          kappa=1.0, sigma=0.9, amplitude=1e-4, m_per_axis=6,
                          epsilon=0.5, r_star=5.0, compact_regime=True)
    with pytest.raises(ConstructionError, match="plateau"):
        LowerBoundFamily(params, np.zeros((2, 36), dtype=np.uint8))


@pytest.mark.parametrize("fixture", ["small_family", "family_3d", "diagnostic_family"])
def test_family_rule_edges_follow_the_geometry(request, fixture):
    if fixture == "diagnostic_family":  # criterion 6's M = 2 instance
        code = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
        fam = LowerBoundFamily(small_params(2), code)
    else:
        fam = request.getfixturevalue(fixture)
    params, box = fam.params, fam.f0.support
    sigma, plateau = params.sigma, (params.big_n - 2.0) / (2.0 * params.kappa)
    rule = family_rule(fam, nodes_per_panel=2)
    assert len(rule.edges) == params.dim
    for lo, hi, edges in zip(box.lower, box.upper, rule.edges):
        assert edges == rule.edges[0]
        edges = list(edges)
        assert edges[0] == lo and edges[-1] == hi
        assert all(np.diff(edges) > 0)
        # the plateau ends, and each block's support ends and zero crossing
        starts = [edges.index(-plateau)]
        for xi in fam.xi:
            start, mid, end = (edges.index(x) for x in (xi - 2 * sigma, xi, xi + 2 * sigma))
            assert mid - start == end - mid == 8
            assert max(np.diff(edges[start:end + 1])) <= sigma / 4 * (1 + 1e-12)
            starts.append(end)
            # one panel from the stretch before the block
            assert start - starts[-2] == 1
        # one panel for the stretch after the last block
        assert edges.index(plateau) - starts[-1] == 1
        assert edges.index(-plateau) == 20 and len(edges) - 1 - edges.index(plateau) == 20
    assert rule.panels_per_axis == (20 + 16 * params.m_per_axis + params.m_per_axis + 1
                                    + 20,) * params.dim
    # the rule's grid builds on the family's box
    nodes, _ = grid_nodes(box, rule)
    assert [len(x) for x in nodes] == [2 * p for p in rule.panels_per_axis]


def test_sobolev_budget_on_feasible_instance():
    # the construction's norm budget: F_omega below r(1-eps), member below r
    params = choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
    fam = build_family(params)
    word = fam.code[1]
    rule = family_rule(fam, nodes_per_panel=6)
    spec = SmoothnessSpec(1, 1, 1, 1, params.p, "mixed")
    member = fam.member(word)
    norm_member = sobolev_norm(member.field, spec, rule)
    assert norm_member <= params.r + 1e-9

    centres = family_centres(params)
    pert = PartialsField(lambda alpha: lambda pts: brute_force_perturbation(
        g_deriv, params.amplitude, params.sigma, centres, word, alpha, pts), fam.f0.support)
    norm_pert = sobolev_norm(pert, spec, rule)
    assert norm_pert <= params.r * (1.0 - params.epsilon) + 1e-9


# feasible parameter sets: (n, r, p, (s1, s2), compact regime); the compact
# ones at N = 8.4.  m = M^D runs from 81 to 3,249, and m = 1,024 makes m/8 whole
_CRITERION_9_PARAMS = [
    (10_000, 240.0, 1.5, (1, 1), True),
    (30_000, 240.0, 1.5, (1, 1), True),
    (10_000, 240.0, 1.5, (2, 1), True),
    (10_000, 240.0, 2.0, (1, 1), True),
    (100_000, 5.0, 2.0, (1, 1), True),
    (1_000_000, 40.0, 1.0, (1, 1), True),
    (1_000_000, 240.0, 3.0, (2, 1), True),
    (100_000, 240.0, 1.0, (1, 1), False),
    (100_000, 40.0, 1.5, (1, 1), False),
    (1_000_000, 240.0, 1.5, (2, 1), False),
]


@pytest.mark.parametrize("n,r,p,s,compact", _CRITERION_9_PARAMS, ids=[
    f"{'compact' if c else 'noncompact'}-n{n}-r{r:g}-p{p:g}-s{s[0]}{s[1]}"
    for n, r, p, s, c in _CRITERION_9_PARAMS])
def test_criterion_9_feasible_leg_follows_from_the_algebra(n, r, p, s, compact):
    # Both reduction-lemma checks hold for every family build_family returns:
    # L11 exactly when rho_min >= ceil(m/8), which vg_code guarantees, and the
    # mean affinity of any code below the bound.  So criterion 9's feasible leg
    # cannot catch a slip that C1, C2 and the closed forms make consistently.
    params = choose_parameters(n, r, p, *s, 1, 1, compact_regime=compact, big_n=8.4)
    m = params.n_blocks
    k = math.ceil(m / 8)
    dim = params.dim
    # b, a word's chi-square divergence per one: (N/kappa)^D A^2 sigma^D ||g||_2^{2D}
    per_one = ((params.big_n / params.kappa) ** dim * params.amplitude ** 2
               * params.sigma ** dim * g_norm(2.0) ** (2 * dim))
    for rho in (k - 1, k, m):
        code = np.zeros((2, m), dtype=np.uint8)
        code[1, :rho] = 1
        hyp = verify_lower_hypotheses(LowerBoundFamily(params, code), n)
        # min_distance / 2 rho_n = (rho / (m/8))^(1/p): 2 rho_n = A g_p^D sigma^(D/p) (m/8)^(1/p)
        assert hyp.min_distance / (2.0 * hyp.rho_n) == pytest.approx(
            (rho / (m / 8.0)) ** (1.0 / p), rel=1e-12)
        assert hyp.condition_l11 == (rho >= k)
        # each word's affinity (1 + b wt)^n is at most (1 + b m)^n <= exp(n b m),
        # and the bound exp(C2 n N^{2D} A^2) is exp(n b m)
        assert math.log(hyp.c0_exponential_bound) == pytest.approx(n * per_one * m, rel=1e-12)
        assert hyp.c0_estimate <= (1.0 + per_one * m) ** n <= hyp.c0_exponential_bound


def test_family_report_fields(small_family):
    rep = family_report(small_family)
    assert rep["code_size"] == len(small_family.code)
    assert rep["distance_identity_rel_error"] <= 1e-6
    assert rep["affinity_identity_rel_error"] <= 1e-6
    assert rep["worst_pdf_defect"] <= 1e-8
    assert rep["constants"]["C2"] > 0


def test_validate_params_messages():
    good = small_params()
    with pytest.raises(InfeasibleParameters, match="sigma"):
        validate_params(good)  # sigma too big for M <= N instances
    bad_a = choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
    validate_params(bad_a)
    from dataclasses import replace
    with pytest.raises(InfeasibleParameters, match="plateau value"):
        validate_params(replace(bad_a, amplitude=1.0))
    with pytest.raises(InfeasibleParameters, match="N must exceed 8"):
        validate_params(replace(bad_a, big_n=7.0))


@pytest.mark.parametrize("compact", [True, False])
def test_report_params_round_trip(compact):
    if compact:
        params = choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
    else:
        params = choose_parameters(10 ** 6, 40.0, 1.5, 1, 1, 1, 1, compact_regime=False)
    doc = json.loads(json.dumps(params_to_report(params)))
    assert {"N", "A", "M"} <= set(doc)
    assert params_from_report(doc) == params
