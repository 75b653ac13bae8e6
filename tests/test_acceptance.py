"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 3 and 9 contain legs that are analytically unattainable with the
stated construction (see notes in the repository-external decision log);
they are implemented exactly as stated and allowed to fail honestly.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mixedkde.densities import tensor_bump_density
from mixedkde.estimator import bias_lp
from mixedkde.kernels import build_order_kernel
from mixedkde.lower_bound import (FamilyParams, InfeasibleParameters, LowerBoundFamily,
                                  build_family, chi2_affinity, choose_parameters, family_distance,
                                  hamming_distance, verify_lower_hypotheses, vg_code)
from mixedkde.product import tensor_kernel, verify_class
from mixedkde.quadrature import Box, QuadRule
from mixedkde.risk import cell_seed, config_from_dict, mc_risk, rate_exponent
from mixedkde.sobolev import SmoothnessSpec, sobolev_norm
from oracles import brute_force_risk, family_oracle


def _line(num: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    return ok


def test_criterion_1_kernel_class_compliance():
    t0 = time.time()
    failures = []
    for s1, s2 in itertools.product((1, 2, 3), repeat=2):
        kernel = tensor_kernel(build_order_kernel(s1, True), 1,
                               build_order_kernel(s2, True), 1, s1, s2)
        report = verify_class(kernel, tol=1e-8)
        if not report.passed:
            failures.append(((s1, s2), report))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    assert _line(1, ok, f"strict tensor kernels pass class check for "
                        f"(s1,s2) in {{1,2,3}}^2 at tol 1e-8 ({elapsed:.1f} s)"), failures


def test_criterion_2_rate_exponent_table():
    got = (rate_exponent([4, 1], [1, 1], 2.0, "mixed-upper"),
           rate_exponent([4, 1], [1, 1], 2.0, "aniso"),
           rate_exponent([4, 1], [1, 1], 2.0, "classical-min"))
    expected = (Fraction(5, 12), Fraction(4, 13), Fraction(1, 4))
    ok = got == expected
    assert _line(2, ok, f"exact exponents {got[0]}, {got[1]}, {got[2]} "
                        "for s=(4,1), d=(1,1)")


def test_criterion_3_bias_order():
    t0 = time.time()
    truth = tensor_bump_density([2.0, 2.0])
    box = Box((-2.5, -2.5), (2.5, 2.5))
    rule = QuadRule.for_box(box, feature_scale=0.2)
    h_values = (0.4, 0.2, 0.1, 0.05)
    results = {}
    for s1, s2 in ((1, 1), (2, 1)):
        kernel = tensor_kernel(build_order_kernel(s1, True), 1,
                               build_order_kernel(s2, True), 1, s1, s2)
        band = (s1 + s2 - 0.4, s1 + s2 + 0.4)
        for p in (1.0, 2.0, 3.0):
            vals = [bias_lp(kernel, h, truth, p, box, rule) for h in h_values]
            ratios = [math.log2(a / b) for a, b in zip(vals, vals[1:])]
            results[(s1, s2, p)] = (ratios, band)
    elapsed = time.time() - t0
    bad = {key: (r, band) for key, (r, band) in results.items()
           if not all(band[0] <= v <= band[1] for v in r)}
    ok = not bad and elapsed < 120.0
    detail = f"log2 bias ratios within [s1+s2 +- 0.4] ({elapsed:.1f} s)"
    if bad:
        worst = "; ".join(
            f"s=({k[0]},{k[1]}) p={k[2]}: ratios {[f'{v:.2f}' for v in r]} "
            f"outside [{band[0]:.1f}, {band[1]:.1f}]" for k, (r, band) in bad.items())
        detail = f"{detail}; violations: {worst}"
    assert _line(3, ok, detail)


RISK_DOC_P2 = {
    "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 3.0]}},
    "kernel": {"s1": 2, "s2": 1, "d1": 1, "d2": 1, "strict": True},
    "p": 2.0,
    "sample_sizes": [2 ** k for k in range(8, 15)],
    "replicates": 100,
    "master_seed": 20260810,
}


def test_criterion_4_empirical_risk_rate_p2():
    t0 = time.time()
    report = mc_risk(dict(RISK_DOC_P2))
    elapsed = time.time() - t0
    target = -report.theoretical_exponent
    ok = abs(report.fitted_slope - target) <= 0.15 and elapsed < 1800.0
    assert _line(4, ok, f"p=2 fitted slope {report.fitted_slope:+.4f} vs "
                        f"{target:+.4f} (tol 0.15, stderr "
                        f"{report.slope_stderr:.4f}, {elapsed:.0f} s)")


def test_criterion_5_empirical_risk_rate_p15():
    doc = dict(RISK_DOC_P2)
    doc["p"] = 1.5
    t0 = time.time()
    report = mc_risk(doc)
    elapsed = time.time() - t0
    target = -report.theoretical_exponent
    assert target == pytest.approx(-0.5625)
    ok = abs(report.fitted_slope - target) <= 0.2 and elapsed < 1800.0
    assert _line(5, ok, f"p=1.5 fitted slope {report.fitted_slope:+.4f} vs "
                        f"{target:+.4f} (tol 0.2, stderr "
                        f"{report.slope_stderr:.4f}, {elapsed:.0f} s)")


def _diagnostic_family(m_per_axis: int, code: np.ndarray, p: float = 2.0):
    big_n, kappa = 9.0, 1.0
    sigma = big_n / (20.0 * kappa * m_per_axis)
    params = FamilyParams(s1=1, s2=1, d1=1, d2=1, p=p, r=5.0, big_n=big_n,
                          kappa=kappa, sigma=sigma,
                          amplitude=0.5 * (kappa / big_n) ** 2,
                          m_per_axis=m_per_axis, epsilon=0.5, r_star=5.0,
                          compact_regime=True)
    return LowerBoundFamily(params, code)


def test_criterion_6_family_identities():
    t0 = time.time()
    worst_dist = worst_aff = 0.0
    worst_pdf = 0.0
    worst_neg = 0.0
    for m_axis in (2, 3):
        n_blocks = m_axis ** 2
        if n_blocks >= 8:
            code = vg_code(n_blocks)
        else:
            code = np.array(list(itertools.product((0, 1), repeat=n_blocks)),
                            dtype=np.uint8)
        fam = _diagnostic_family(m_axis, code)
        # the members written from their definition, on the oracle's own rule
        oracle = family_oracle(fam.params)
        pairs = list(itertools.combinations(range(len(code)), 2))[:4]
        for a, b in pairs:
            closed = family_distance(fam, code[a], code[b])
            if closed == 0.0:
                continue
            quad = oracle.distance(code[a], code[b])
            worst_dist = max(worst_dist, abs(closed - quad) / closed)
        for idx in range(1, min(3, len(code))):
            closed = chi2_affinity(fam, code[idx], 1)
            quad = oracle.chi2(code[idx], 1)
            worst_aff = max(worst_aff, abs(closed - quad) / abs(closed - 1.0))
        for word in code:
            worst_pdf = max(worst_pdf, abs(oracle.mass(word) - 1.0))
            worst_neg = min(worst_neg, float(oracle.member(word).min()))
    elapsed = time.time() - t0
    ok = (worst_dist <= 1e-6 and worst_aff <= 1e-6 and worst_pdf <= 1e-8
          and worst_neg >= -1e-12 and elapsed < 300.0)
    assert _line(6, ok, f"distance/affinity identities at rel {worst_dist:.1e}/"
                        f"{worst_aff:.1e}, pdf defect {worst_pdf:.1e}, "
                        f"min value {worst_neg:.1e} ({elapsed:.0f} s)")


def test_criterion_7_varshamov_gilbert():
    t0 = time.time()
    ok = True
    details = []
    for m in (8, 16, 27):
        code = vg_code(m)
        dmin = min(hamming_distance(a, b)
                   for a, b in itertools.combinations(code, 2))
        good = code.shape[0] >= 2.0 ** (m / 8.0) and dmin >= math.ceil(m / 8.0)
        ok = ok and good
        details.append(f"m={m}: |P|={code.shape[0]}, dmin={dmin}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    assert _line(7, ok, "; ".join(details) + f" ({elapsed:.1f} s)")


def test_criterion_8_sobolev_inclusion_chain():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    violations = 0
    for _ in range(50):
        widths = rng.uniform(0.8, 2.2, size=2)
        centers = rng.uniform(-0.3, 0.3, size=2)
        field = tensor_bump_density(list(widths), list(centers)).field
        s1, s2 = rng.integers(1, 3, size=2)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        rule = QuadRule.for_box(field.support, feature_scale=float(min(widths)) / 3.0)
        lo = sobolev_norm(field, SmoothnessSpec(int(min(s1, s2)), int(min(s1, s2)),
                                                1, 1, p, "classical"), rule)
        mid = sobolev_norm(field, SmoothnessSpec(int(s1), int(s2), 1, 1, p, "mixed"), rule)
        hi = sobolev_norm(field, SmoothnessSpec(int(s1 + s2), int(s1 + s2),
                                                1, 1, p, "classical"), rule)
        if not (lo <= mid + 1e-9 and mid <= hi + 1e-9):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    assert _line(8, ok, f"norm chain held for 50/50 randomized tensor bumps "
                        f"({elapsed:.0f} s)")


def test_criterion_9_reduction_lemma_hypotheses():
    t0 = time.time()
    legs = []
    ok = True
    for n in (1_000, 10_000):
        try:
            params = choose_parameters(n, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
            fam = build_family(params)
            rep = verify_lower_hypotheses(fam, n)
            good = (rep.condition_l11
                    and rep.c0_estimate <= rep.c0_exponential_bound * (1.0 + 1e-9))
            legs.append(f"n={n}: L11={rep.condition_l11}, "
                        f"c0={rep.c0_estimate:.3e} <= bound={rep.c0_exponential_bound:.3e}")
            ok = ok and good
        except InfeasibleParameters as err:
            legs.append(f"n={n}: infeasible ({err})")
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    assert _line(9, ok, "; ".join(legs) + f" ({elapsed:.0f} s)")


def test_criterion_10_brute_force_oracle():
    t0 = time.time()
    doc = {
        "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
        "kernel": {"s1": 2, "s2": 1, "d1": 1, "d2": 1, "strict": True},
        "p": 2.0,
        "sample_sizes": [64, 128, 256],
        "replicates": 1,
        "master_seed": 987654321,
    }
    config = config_from_dict(doc)
    report = mc_risk(doc)
    cell = next(c for c in report.cells if c.n == 64 and c.replicate == 0)
    from mixedkde.quadrature import trapezoid_axes
    axes, _ = trapezoid_axes(config.eval_box, config.eval_rule)
    assert cell.seed == cell_seed(doc["master_seed"], 64, 0)
    sample = config.truth.sample(cell.seed, 64)
    mesh = np.meshgrid(*axes, indexing="ij")
    truth_grid = config.truth.field.eval(
        np.stack([m.ravel() for m in mesh], axis=-1)).reshape([len(a) for a in axes])
    coeffs = [config.kernel.kappa1.poly_coeffs, config.kernel.kappa2.poly_coeffs]
    oracle = brute_force_risk(sample, cell.h, coeffs, axes, truth_grid, config.p)
    rel = abs(cell.risk - oracle) / oracle
    elapsed = time.time() - t0
    ok = rel <= 1e-10 and elapsed < 10.0
    assert _line(10, ok, f"harness risk {cell.risk:.12e} vs brute force "
                         f"{oracle:.12e} (rel {rel:.1e}, {elapsed:.1f} s)")
