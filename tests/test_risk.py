import ctypes
import hashlib
import itertools
import math
import multiprocessing
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde.estimator import bandwidth_rule
from mixedkde.lower_bound import (FamilyParams, LowerBoundFamily, build_family, chi2_affinity,
                                  choose_parameters, family_distance, verify_lower_hypotheses)
from mixedkde import risk
from mixedkde.risk import (cell_seed, config_from_dict, fit_rate, mc_risk,
                           rate_exponent, report_summary, report_to_csv)
import oracles
from oracles import brute_force_risk

TINY_DOC = {
    "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
    "kernel": {"s1": 2, "s2": 1, "d1": 1, "d2": 1, "strict": True},
    "p": 2.0,
    "sample_sizes": [64, 128, 256],
    "replicates": 2,
    "master_seed": 987654321,
}


# ------------------------------ rate exponents ------------------------------

def test_rate_table_from_comparison_section():
    assert rate_exponent([4, 1], [1, 1], 2.0, "mixed-upper") == Fraction(5, 12)
    assert rate_exponent([4, 1], [1, 1], 2.0, "aniso") == Fraction(4, 13)
    assert rate_exponent([4, 1], [1, 1], 2.0, "classical-min") == Fraction(1, 4)


def test_noncompact_lower_vanishes_at_p1():
    assert rate_exponent([3, 2], [2, 1], 1.0, "noncompact-lower") == 0


def test_noncompact_lower_fractional_p():
    val = rate_exponent([1, 1], [1, 1], 1.5, "noncompact-lower")
    # S(p-1)/(Sp + D(p-1)) with S = D = 2, p = 3/2
    assert val == Fraction(2, 8) * Fraction(1, 1) * 2 / 2 or True
    assert val == (Fraction(2) * Fraction(1, 2)) / (Fraction(2) * Fraction(3, 2) + 2 * Fraction(1, 2))


def test_unknown_regime():
    with pytest.raises(ValueError, match="regime"):
        rate_exponent([1, 1], [1, 1], 2.0, "bogus")


def test_nu_fold_matches_formula():
    assert rate_exponent([1, 2, 3], [1, 1, 2], 2.0, "nu-fold") == Fraction(6, 16)
    assert rate_exponent([1, 2, 3], [1, 1, 2], 2.0, "nu-fold") == Fraction(3, 8)


def test_rational_reduction_exhaustive():
    # every (s, d) pair with entries <= 6, against by-hand gcd reduction
    for s in itertools.product(range(1, 7), repeat=2):
        for d in itertools.product(range(1, 7), repeat=2):
            total_s, total_d = sum(s), sum(d)
            frac = rate_exponent(list(s), list(d), 2.0, "mixed-upper")
            g = math.gcd(total_s, 2 * total_s + total_d)
            assert frac.numerator == total_s // g
            assert frac.denominator == (2 * total_s + total_d) // g
            aniso = rate_exponent(list(s), list(d), 2.0, "aniso")
            manual = Fraction(1, 1) / (2 + Fraction(d[0], s[0]) + Fraction(d[1], s[1]))
            assert aniso == manual
            s_min = min(s)
            cmin = rate_exponent(list(s), list(d), 2.0, "classical-min")
            g2 = math.gcd(s_min, 2 * s_min + total_d)
            assert (cmin.numerator, cmin.denominator) == (s_min // g2,
                                                          (2 * s_min + total_d) // g2)


# ------------------------------ seeds ------------------------------

def test_cell_seed_reproducible_and_distinct():
    a = cell_seed(42, 256, 0)
    assert a == cell_seed(42, 256, 0)
    seen = {cell_seed(42, n, r) for n in (256, 512) for r in range(50)}
    assert len(seen) == 100
    assert all(0 <= s < 2 ** 64 for s in seen)


# ------------------------------ rate fitting ------------------------------

def test_fit_rate_collinear():
    pts = [(n, math.exp(2.0 - 0.75 * math.log(n))) for n in (10, 100, 1000, 10000)]
    slope, stderr = fit_rate(pts)
    assert slope == pytest.approx(-0.75, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_identical_risks():
    slope, stderr = fit_rate([(10, 0.5), (100, 0.5), (1000, 0.5)])
    assert slope == 0.0
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_perturbation():
    rng = np.random.default_rng(1)
    pts = []
    for n in (16, 64, 256, 1024, 4096):
        delta = rng.uniform(-0.01, 0.01)
        pts.append((n, 3.0 * n ** -0.6 * (1.0 + delta)))
    slope, _ = fit_rate(pts)
    assert slope == pytest.approx(-0.6, abs=0.02)


def test_fit_rate_validation():
    with pytest.raises(ValueError, match="3 points"):
        fit_rate([(10, 1.0), (100, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        fit_rate([(10, 1.0), (100, 0.0), (1000, 0.1)])


# ------------------------------ mc_risk ------------------------------

def test_config_rejects_bad_schedules():
    bad = dict(TINY_DOC)
    bad["sample_sizes"] = [64, 64, 128]
    with pytest.raises(ValueError, match="increasing"):
        config_from_dict(bad)
    bad["sample_sizes"] = [64, 128]
    with pytest.raises(ValueError, match="length >= 3"):
        config_from_dict(bad)
    bad = dict(TINY_DOC)
    bad["replicates"] = 0
    with pytest.raises(ValueError, match="replicates"):
        config_from_dict(bad)


def test_mc_risk_deterministic():
    a = mc_risk(dict(TINY_DOC))
    b = mc_risk(dict(TINY_DOC))
    assert a == b


def test_mc_risk_worker_invariance():
    a = mc_risk(dict(TINY_DOC), workers=1)
    b = mc_risk(dict(TINY_DOC), workers=2)
    assert a == b
    # three workers: with 2 replicates one block is empty, with 5 blocks are uneven
    for replicates in (2, 5):
        doc = dict(TINY_DOC, replicates=replicates)
        assert mc_risk(dict(doc), workers=3) == mc_risk(dict(doc), workers=1)


def test_mc_risk_rejects_worker_count_below_one():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            mc_risk(dict(TINY_DOC), workers=workers)


def test_mc_risk_starts_no_more_workers_than_jobs(monkeypatch):
    started = []

    class InProcessPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(risk, "ProcessPoolExecutor", InProcessPool)
    serial = mc_risk(dict(TINY_DOC), workers=1)
    # with 128 CPUs TINY_DOC makes 6 jobs (3 sample sizes, 2 non-empty replicate blocks)
    monkeypatch.setattr(os, "cpu_count", lambda: 128)
    assert mc_risk(dict(TINY_DOC), workers=64) == serial
    assert started == [6]
    # with 3 CPUs 5,000 workers split 5 replicates into 3 blocks: 9 jobs, 3 workers
    doc = dict(TINY_DOC, replicates=5)
    serial = mc_risk(dict(doc), workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert mc_risk(dict(doc), workers=5000) == serial
    assert started == [6, 3]
    # an unknown CPU count runs serially
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mc_risk(dict(doc), workers=5000) == serial
    assert started == [6, 3]


def _task_children() -> list[str]:
    """Every thread's ``/proc/self/task/*/children`` text, from a snapshot in
    which no listed thread ended before its file was read; a thread that ends
    between the listing and the read (a pool's helper thread, say) makes the
    snapshot incomplete, so it is retaken."""
    for _ in range(100):
        try:
            return [path.read_text() for path in sorted(Path("/proc/self/task").glob("*/children"))]
        except (FileNotFoundError, ProcessLookupError):
            continue
    raise AssertionError("threads kept ending during 100 snapshots of /proc/self/task")


def test_mc_risk_pool_leaves_no_process():
    mc_risk(dict(TINY_DOC), workers=2)
    assert multiprocessing.active_children() == []
    children = _task_children()
    if not children:
        pytest.skip("no /proc/self/task/*/children on this system")
    assert children == [""] * len(children)


_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads")


def _blas_thread_counts() -> dict[str, int]:
    """Thread count of every OpenBLAS mapped into this process, by path."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return {}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        getter = next((getattr(lib, name) for name in _BLAS_GETTERS if hasattr(lib, name)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts[path] = getter()
    return counts


def test_mc_risk_leaves_blas_thread_counts():
    parent = _blas_thread_counts()
    if not parent:
        pytest.skip("no OpenBLAS with a thread getter is mapped into this process")
    for workers in (1, 2):
        mc_risk(dict(TINY_DOC), workers=workers)
        assert _blas_thread_counts() == parent, workers


def test_risk_dominance():
    report = mc_risk(dict(TINY_DOC))
    p = TINY_DOC["p"]
    for c in report.cells:
        assert c.risk <= 2 ** (p - 1) * (c.bias_p + c.stochastic_p) + 1e-9


def test_bias_monotone_in_n():
    doc = dict(TINY_DOC)
    doc["sample_sizes"] = [64, 256, 1024, 4096]
    report = mc_risk(doc)
    bias_by_n = {}
    for c in report.cells:
        bias_by_n[c.n] = c.bias_p
    vals = [bias_by_n[n] for n in sorted(bias_by_n)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_bias_vanishes_on_plateau_interior():
    doc = {
        "truth": {"name": "plateau", "params": {"N": 20.0, "kappa": 1.0, "dim": 2}},
        "kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1, "strict": True},
        "p": 2.0,
        "sample_sizes": [64, 128, 256],
        "replicates": 1,
        "master_seed": 5,
        "eval_box": {"lower": [-5.0, -5.0], "upper": [5.0, 5.0]},
        "eval_rule": {"nodes_per_panel": 8, "panels_per_axis": [10, 10]},
    }
    report = mc_risk(doc)
    for c in report.cells:
        assert c.bias_p == pytest.approx(0.0, abs=1e-10)


def test_seed_column_matches_derivation():
    report = mc_risk(dict(TINY_DOC))
    for c in report.cells:
        assert c.seed == cell_seed(TINY_DOC["master_seed"], c.n, c.replicate)
        assert c.h == bandwidth_rule(c.n, 2, 1, 1, 1)


def test_brute_force_oracle_equivalence():
    config = config_from_dict(dict(TINY_DOC))
    report = mc_risk(dict(TINY_DOC))
    cell = next(c for c in report.cells if c.n == 64 and c.replicate == 0)
    # rebuild the exact evaluation grid of the harness
    from mixedkde.quadrature import trapezoid_axes
    axes, _ = trapezoid_axes(config.eval_box, config.eval_rule)
    sample = config.truth.sample(cell.seed, 64)
    truth_grid = config.truth.field.eval(
        np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    ).reshape([len(a) for a in axes])
    coeffs = [config.kernel.kappa1.poly_coeffs, config.kernel.kappa2.poly_coeffs]
    oracle = brute_force_risk(sample, cell.h, coeffs, axes, truth_grid, config.p)
    assert cell.risk == pytest.approx(oracle, rel=1e-10)


CRITERION4_DOC = {
    "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 3.0]}},
    "kernel": {"s1": 2, "s2": 1, "d1": 1, "d2": 1, "strict": True},
    "p": 2.0,
    "sample_sizes": [2 ** k for k in range(8, 15)],
    "replicates": 3,
    "master_seed": 20260810,
}
# sha256 of report_to_csv: the criterion-4 experiment at 3 replicates, and the
# same truth and kernel at p = 1.5 and n = 64..1024 at 4 replicates
_PINNED_CSV = {
    "criterion4": (CRITERION4_DOC,
                   "e6a52ed5c7c119a29f39f7a36d6ebd2a14c7eb0626f1827ef7b75840bf0ad029"),
    "pool_p15": (dict(CRITERION4_DOC, p=1.5, sample_sizes=[64, 128, 256, 512, 1024],
                      replicates=4),
                 "ac300453ffc3068c8fd491630c42290dc15e8540e821222f21efa84835bad54d"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CSV))
def test_risk_csv_keeps_its_bytes(name):
    doc, digest = _PINNED_CSV[name]
    for workers in (1, 2):
        text = report_to_csv(mc_risk(dict(doc), workers=workers))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, workers


def test_csv_format():
    report = mc_risk(dict(TINY_DOC))
    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "n,replicate,seed,h,risk,bias_p,stochastic_p"
    assert len(lines) == 1 + len(report.cells)
    summary = report_summary(report, slope_tol=5.0)
    assert set(summary) == {"fitted_slope", "slope_stderr", "theoretical_exponent", "pass"}
    assert summary["pass"] is True


# ------------------------------ bound checks ------------------------------

def test_verify_lower_hypotheses_single_word():
    params = FamilyParams(s1=1, s2=1, d1=1, d2=1, p=2.0, r=5.0, big_n=9.0,
                          kappa=1.0, sigma=9.0 / 60.0, amplitude=0.5 / 81.0,
                          m_per_axis=3, epsilon=0.5, r_star=5.0,
                          compact_regime=True)
    # a single nonzero word, in a linear code with the zero word first
    code = np.zeros((2, 9), dtype=np.uint8)
    code[1, 4] = 1
    fam = LowerBoundFamily(params, code)
    rep = verify_lower_hypotheses(fam, 10)
    mean = (chi2_affinity(fam, code[0], 10) + chi2_affinity(fam, code[1], 10)) / 2.0
    assert rep.c0_estimate == pytest.approx(mean, rel=1e-14)


def test_verify_lower_hypotheses_averages_every_word_of_a_large_code():
    # more than 4,096 words: every word enters the average, none is sampled out
    n = 10_000
    params = choose_parameters(n, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
    # the span of 13 random rows: 8,192 words
    code = oracles.linear_code(np.random.default_rng(5).integers(0, 2, size=(13, params.n_blocks)))
    fam = LowerBoundFamily(params, code)
    rep = verify_lower_hypotheses(fam, n)
    mean = np.mean([chi2_affinity(fam, word, n) for word in code])
    assert rep.c0_estimate == pytest.approx(mean, rel=1e-12)
    # the separation side is family_distance at a closest pair of words
    packed = np.packbits(code, axis=1)
    closest = (params.n_blocks + 1, 0, 0)
    for i in range(len(code) - 1):
        dist = np.bitwise_count(packed[i + 1:] ^ packed[i]).sum(axis=1)
        k = int(np.argmin(dist))
        closest = min(closest, (int(dist[k]), i, i + 1 + k))
    _, i, j = closest
    assert rep.min_distance == family_distance(fam, code[i], code[j])


def test_verify_lower_hypotheses_feasible_family():
    params = choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4)
    fam = build_family(params)
    rep = verify_lower_hypotheses(fam, 10_000)
    assert rep.condition_l11
    assert rep.c0_estimate <= rep.c0_exponential_bound * (1.0 + 1e-9)
    assert rep.min_distance >= 2.0 * rep.rho_n * (1.0 - 1e-12)
