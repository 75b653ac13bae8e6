import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from mixedkde.bumps import g_deriv, g_norm
from mixedkde import densities, lower_bound
from mixedkde.lower_bound import (ConstructionError, FamilyParams,
                                  InfeasibleParameters, LowerBoundFamily, build_family,
                                  chi2_affinity, choose_parameters, family_constants,
                                  family_distance, family_report, family_rule,
                                  hamming_distance, params_from_report,
                                  params_to_report, validate_params, vg_code)
from mixedkde import quadrature
from mixedkde.quadrature import QuadRule, grid_nodes, integrate, multi_indices
from mixedkde.sobolev import SmoothnessSpec, sobolev_norm
import oracles
from oracles import brute_force_perturbation, grid_field, grid_points


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

@pytest.mark.parametrize("m", [8, 16, 27, 64])
def test_vg_code_bounds(m):
    code = vg_code(m)
    assert code.shape[0] >= 2.0 ** (m / 8.0)
    dmin = min(hamming_distance(a, b) for a, b in itertools.combinations(code, 2))
    assert dmin >= math.ceil(m / 8.0)


def test_vg_code_contains_zero_word():
    code = vg_code(16)
    assert np.all(code[0] == 0)


def test_vg_code_deterministic():
    assert np.array_equal(vg_code(27), vg_code(27))


def test_vg_code_rejects_short_words():
    for m, message in [(4, ">= 8"), (136, "cap is 65536")]:
        with pytest.raises(ValueError, match=message):
            vg_code(m)


# sha256 of the codes as uint8 bytes; m = 27 and 40 come from the
# lexicographic phase alone, m = 64 adds the random fill, m = 81 is
# mostly random fill, and the random fills of m = 96 (4,096 words) and
# m = 100 (5,793 words) span many batches of candidates.  Each digest is
# that of the search that draws and checks one candidate at a time.
_PINNED_CODES = {
    (27, 0): "68930429b79097f75993b9bbc5f47db7869e1a2b32aadd8d8aec384ba7c3557b",
    (40, 0): "544e337ab574df88f04363ee85ba8df93e85f348e283adfc6c2a5a284b74048e",
    (64, 0): "7328a41ef6e075c95e9d81df2766af91f0146f8e3ca3e8adc76ac7000f61313c",
    (81, 0): "8ce673e0fe2b24b6b03b434a313207a855346b543dbce2baf34a9992752eb093",
    (81, 7): "a0099a7b0b9c45453b51655b40af8af13efaf8da5537e24d840d3b4e2929bd19",
    (96, 0): "900ce2d402fa0afd9e62c6f48c7024611b1dfbbb16c35d4c5187eca2fbe841c7",
    (100, 2): "e6576d9dc3f477a71896516effd8a5d75011c947ff3c91da2b5d1c7f3f15f0c2",
}


@pytest.mark.parametrize("m,seed", sorted(_PINNED_CODES))
def test_vg_code_matches_pinned_digests(m, seed):
    code = np.ascontiguousarray(vg_code(m, seed), np.uint8)
    assert hashlib.sha256(code).hexdigest() == _PINNED_CODES[m, seed]


class _ZeroWords:
    """Generator stub whose every random word is all zeros."""

    def integers(self, low, high, size=None, dtype=np.int64):
        return np.zeros(size, dtype=dtype)


def test_vg_code_stalls_after_ten_thousand_misses(monkeypatch):
    # every candidate repeats the all-zeros word, so the random fill accepts
    # nothing after the 4 words of the lexicographic phase
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ZeroWords())
    with pytest.raises(RuntimeError,
                       match=r"^randomized code search stalled at 4/1117 words$"):
        vg_code(81)


class _ClashingWords:
    """Generator stub: in the first batch, rows 45 and 46 hold the same word
    W (bits 20-39, far from every lexicographic word of m = 81) and row 47
    a word V (bits 40-59) far from W; every other row is all zeros."""

    def __init__(self):
        self.batches = 0

    def integers(self, low, high, size=None, dtype=np.int64):
        words = np.zeros(size, dtype=dtype)
        if self.batches == 0:
            words[45:47, 20:40] = 1
            words[47, 40:60] = 1
        self.batches += 1
        return words


def test_vg_code_rejects_a_repeat_inside_a_batch(monkeypatch):
    stub = _ClashingWords()
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: stub)
    # W is accepted, its copy rejected and V accepted, in batch order; the 16
    # zeros after V and 156 all-zero batches make the 10,000 consecutive
    # misses of the one-at-a-time search, the copy not among them
    with pytest.raises(RuntimeError,
                       match=r"^randomized code search stalled at 6/1117 words$"):
        vg_code(81)
    assert stub.batches == 157


def test_family_code_is_a_read_only_copy(monkeypatch):
    code = vg_code(9)
    fam = LowerBoundFamily(small_params(3), code)
    with pytest.raises(ValueError, match="read-only"):
        fam.code[1, 0] = 1 - fam.code[1, 0]
    code[1, 0] = 1 - code[1, 0]
    assert not np.array_equal(fam.code, code)
    rho = fam.min_pairwise_hamming()
    # the value is kept: a second call computes no distance
    monkeypatch.setattr(lower_bound, "_distances", None)
    assert fam.min_pairwise_hamming() == rho


@pytest.mark.parametrize("block", [1, 7, 50, 1 << 20])
def test_min_pairwise_hamming_matches_pairs(monkeypatch, block):
    # below 1 << 20 the triangle of pairs spans several blocks of rows
    monkeypatch.setattr(lower_bound, "_HAMMING_BLOCK", block)
    rng = np.random.default_rng(5)
    # words of 9, 81 and 225 bits: one, two and four uint64 lanes
    codes = [rng.integers(0, 2, size=(words, m_per_axis ** 2), dtype=np.uint8)
             for words, m_per_axis in [(1, 3), (2, 3), (40, 9), (25, 15)]]
    # and two equal words in different blocks of rows, but for 1 << 20
    twin = rng.integers(0, 2, size=(20, 81), dtype=np.uint8)
    twin[13] = twin[2]
    for code in codes + [twin]:
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
    quad = family_distance(fam, word, np.zeros(9, dtype=np.uint8),
                           via_quadrature=True) ** p
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
    for a, b in itertools.combinations(range(len(fam.code)), 2):
        closed = family_distance(fam, fam.code[a], fam.code[b])
        quad = family_distance(fam, fam.code[a], fam.code[b], via_quadrature=True)
        assert quad == pytest.approx(closed, rel=1e-6)


def test_chi2_examples(small_family):
    fam = small_family
    zeros = np.zeros(9, dtype=np.uint8)
    assert chi2_affinity(fam, zeros, 50) == 1.0
    w = fam.code[1]
    one_shot = chi2_affinity(fam, w, 1)
    assert chi2_affinity(fam, w, 7) == pytest.approx(one_shot ** 7, rel=1e-12)
    quad = chi2_affinity(fam, w, 1, via_quadrature=True)
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
    # block centres as the construction places them
    centres = (-(params.big_n - 4.0) / (4.0 * params.kappa)
               + 8.0 * params.sigma * np.arange(1, params.m_per_axis + 1))
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


# sha256 of family_report's JSON for the README family at 2 nodes per
# panel: a drift in any bit of the grid path shows here
_README_REPORT_SHA256 = "bb601d5b9dd7c8f9e6d2d3ad896ebf8538d01a7c51bd192761b737ad58a879d5"


def test_readme_family_report_bytes():
    fam = build_family(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4), code_seed=0)
    report = family_report(fam, pdf_rule=family_rule(fam, nodes_per_panel=2))
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _README_REPORT_SHA256


# the same at the default 8 nodes per panel: 1,552 nodes per axis in 10
# slabs, 2 of them without a block, which still add their two zero arrays
_README_DEFAULT_RULE_REPORT_SHA256 = (
    "f347f7e222197abb040410ada7bcb14077a0656ab2d8dcaae9bd64f872622194")


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
    p = fam.params.p
    fa, fb = fam.perturbation_field(fam.code[0]), fam.perturbation_field(word)
    distance = grid_field(lambda pts: np.abs(fa(pts) - fb(pts)) ** p)
    point = integrate(distance, box, rule) ** (1.0 / p)
    grid = family_distance(fam, fam.code[0], word, via_quadrature=True, rule=rule)
    assert grid == pytest.approx(point, rel=1e-13, abs=0.0)
    f0 = fam.f0.field.eval

    def ratio(pts):
        return np.where(fb(pts) != 0.0, fb(pts) ** 2 / f0(pts), 0.0)

    point = (1.0 + integrate(grid_field(ratio), box, rule)) ** 3
    grid = chi2_affinity(fam, word, 3, via_quadrature=True, rule=rule)
    assert grid == pytest.approx(point, rel=1e-13, abs=0.0)


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

    pdfs = [fam.member(word).verify_pdf(rule) for word in checked]
    assert rep["worst_pdf_defect"] == max([0.0] + [r["integral_defect"] for r in pdfs])
    assert rep["worst_negative_value"] == min([0.0] + [r["min_grid_value"] for r in pdfs])
    a, b = fam.code[0], fam.code[1]
    closed = family_distance(fam, a, b)
    quad = family_distance(fam, a, b, via_quadrature=True, rule=rule)
    assert rep["distance_identity_rel_error"] == abs(closed - quad) / closed
    closed = chi2_affinity(fam, b, 1)
    quad = chi2_affinity(fam, b, 1, via_quadrature=True, rule=rule)
    assert rep["affinity_identity_rel_error"] == abs(closed - quad) / closed


def test_word_length_validation(small_family):
    with pytest.raises(ValueError, match="length"):
        family_distance(small_family, np.zeros(4, dtype=np.uint8),
                        np.zeros(4, dtype=np.uint8))


def test_members_are_pdfs(small_family):
    fam = small_family
    rule = family_rule(fam)
    for word in fam.code:
        res = fam.member(word).verify_pdf(rule)
        assert res["integral_defect"] <= 1e-8
        assert res["min_grid_value"] >= -1e-12


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
        fam = LowerBoundFamily(small_params(2), np.array([[0, 1, 1, 0], [1, 1, 0, 0]]))
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

    from mixedkde.sobolev import DifferentiableField
    pert = DifferentiableField(
        eval=fam.perturbation_field(word),
        support=fam.f0.support,
        partial_factory=lambda alpha: fam.perturbation_field(word, alpha))
    norm_pert = sobolev_norm(pert, spec, rule)
    assert norm_pert <= params.r * (1.0 - params.epsilon) + 1e-9


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
