import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from mixedkde.bumps import g_norm
from mixedkde.lower_bound import (ConstructionError, FamilyParams,
                                  InfeasibleParameters, build_family, chi2_affinity,
                                  choose_parameters, family_constants,
                                  family_distance, family_report, family_rule,
                                  hamming_distance, params_from_report,
                                  params_to_report, validate_params, vg_code)
from mixedkde.quadrature import QuadRule, integrate
from mixedkde.sobolev import SmoothnessSpec, sobolev_norm


def small_params(m_per_axis=3, p=2.0, amplitude_frac=0.5):
    big_n, kappa = 9.0, 1.0
    sigma = big_n / (20.0 * kappa * m_per_axis)
    return FamilyParams(s1=1, s2=1, d1=1, d2=1, p=p, r=5.0, big_n=big_n,
                        kappa=kappa, sigma=sigma,
                        amplitude=amplitude_frac * (kappa / big_n) ** 2,
                        m_per_axis=m_per_axis, epsilon=0.5, r_star=5.0,
                        compact_regime=True)


@pytest.fixture(scope="module")
def small_family():
    return build_family(small_params(3), code=vg_code(9), validate=False)


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
# mostly random fill.
_PINNED_CODES = {
    (27, 0): "68930429b79097f75993b9bbc5f47db7869e1a2b32aadd8d8aec384ba7c3557b",
    (40, 0): "544e337ab574df88f04363ee85ba8df93e85f348e283adfc6c2a5a284b74048e",
    (64, 0): "7328a41ef6e075c95e9d81df2766af91f0146f8e3ca3e8adc76ac7000f61313c",
    (81, 0): "8ce673e0fe2b24b6b03b434a313207a855346b543dbce2baf34a9992752eb093",
    (81, 7): "a0099a7b0b9c45453b51655b40af8af13efaf8da5537e24d840d3b4e2929bd19",
}


@pytest.mark.parametrize("m,seed", sorted(_PINNED_CODES))
def test_vg_code_matches_pinned_digests(m, seed):
    code = np.ascontiguousarray(vg_code(m, seed), np.uint8)
    assert hashlib.sha256(code).hexdigest() == _PINNED_CODES[m, seed]


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
    assert fam.xi[0] - 3.0 * sigma >= -fam.plateau.plateau_halfwidth
    assert fam.xi[-1] + 3.0 * sigma <= fam.plateau.plateau_halfwidth


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


def test_rejection_sampler_deterministic(small_family):
    member = small_family.member(small_family.code[1])
    a = member.sample(777, 800)
    b = member.sample(777, 800)
    assert np.array_equal(a, b)
    half = (small_family.params.big_n + 2.0) / 2.0
    assert np.all(np.abs(a) <= half)


def test_rejection_sampler_degenerate_target(small_family):
    from mixedkde.lower_bound import _RejectionSampler

    sampler = _RejectionSampler(small_family.f0, small_family.params.amplitude,
                                lambda pts: np.zeros(pts.shape[0]))
    with pytest.raises(RuntimeError, match="degenerate"):
        sampler.draw(np.random.default_rng(0), 10)


def test_construction_error_on_bad_geometry():
    # huge sigma pushes blocks outside the plateau
    params = FamilyParams(s1=1, s2=1, d1=1, d2=1, p=2.0, r=5.0, big_n=9.0,
                          kappa=1.0, sigma=0.9, amplitude=1e-4, m_per_axis=6,
                          epsilon=0.5, r_star=5.0, compact_regime=True)
    with pytest.raises(ConstructionError, match="plateau"):
        build_family(params, code=np.zeros((2, 36), dtype=np.uint8), validate=False)


def test_sobolev_budget_on_feasible_instance():
    # the construction's norm budget: F_omega below r(1-eps), member below r
    params = choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
    fam = build_family(params)
    word = fam.code[1]
    rule = QuadRule.for_box(fam.f0.support, feature_scale=0.5 * params.sigma,
                            nodes_per_panel=6)
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
