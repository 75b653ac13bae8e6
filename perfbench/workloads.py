"""Workloads: inputs, set-up, the timed operation and its output checks.

Every workload is a closed loop with one caller.  The workload seed is the
risk configs' ``master_seed`` and the family's ``code_seed``; nothing else
is random.  Operations call the package only through the public entry
points the command line uses.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from mixedkde.bumps import bump_l1, g_norm, g_sobolev_norm, lambda_bar
from mixedkde.lower_bound import (build_family, choose_parameters, family_report,
                                  family_rule)
from mixedkde.risk import (cell_seed, config_from_dict, mc_risk, report_summary,
                           report_to_csv, verify_lower_hypotheses)

import oracle
from spans import no_span

# The criterion-4 experiment of the acceptance suite, fewer replicates.
RISK_LARGE_N = {
    "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 3.0]}},
    "kernel": {"s1": 2, "s2": 1, "d1": 1, "d2": 1, "strict": True},
    "p": 2.0,
    "sample_sizes": [2 ** k for k in range(8, 15)],
    "replicates": 3,
}
# Same truth and kernel at p = 1.5 and small n, where per-cell cost is low.
RISK_POOL_SMALL_N = dict(RISK_LARGE_N, p=1.5, sample_sizes=[64, 128, 256, 512, 1024],
                         replicates=40)
POOL_WORKERS = 2
# The README's family-build at n = 10^4, then the feasible leg of criterion 9.
FAMILY = {"n": 10_000, "r": 240.0, "p": 1.5, "s": (1, 1), "d": (1, 1), "big_n": 8.4}
# family_report's identity integrals use the family's own panels with two
# Gauss-Legendre nodes each instead of the default eight.
FAMILY_REPORT_NODES_PER_PANEL = 2

ORACLE_CELLS = 3
ORACLE_REL_TOL = 1e-10
# Rounding allowance for the node-wise decomposition bound after weighting.
DECOMPOSITION_REL_SLACK = 1e-12
FAMILY_VERIFY_TOL = 1e-6

# Checks that fail at this commit because of a documented defect of the
# program.  They still count as failed; they do not make a run incorrect.
KNOWN_DEFECTS = {
    "family.distance_identity":
        "family-verify's 1e-6 tolerance on the distance identity fails for "
        "the README's own family (p = 1.5: |f_a - f_b|^p is not smooth at "
        "the wiggles' zero crossings)",
}


class Checks:
    """Attempted and failed counts per output check."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.notes: dict[str, str] = {}

    def record(self, name: str, ok: bool, note: str | None = None) -> None:
        self.attempted[name] += 1
        if not ok:
            self.failed[name] += 1
            if note is not None:
                self.notes.setdefault(name, note)

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def unexpected_failures(self) -> list[str]:
        return sorted(name for name in self.failed if name not in KNOWN_DEFECTS)

    def summary(self) -> dict:
        return {name: {"attempted": self.attempted[name], "failed": self.failed[name],
                       **({"known_defect": KNOWN_DEFECTS[name]}
                          if name in KNOWN_DEFECTS else {}),
                       **({"note": self.notes[name]} if name in self.notes else {})}
                for name in sorted(self.attempted)}


@dataclass
class Output:
    text: str            # everything the command line would write, for byte comparison
    cells: int           # risk cells computed (0 for the family)
    result: object       # RiskReport, or the family report and hypothesis report
    code_sha256: str | None = None  # of the family's code words (uint8, row-major)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    setup: Callable[[int], object]
    run: Callable[[object, Callable], Output]
    check_output: Callable[[object, Output, Checks], None]
    check_run: Callable[[object, list, Checks, int], None]


# ----------------------------- risk workloads -----------------------------

@dataclass(frozen=True)
class RiskState:
    doc: dict
    config: object


def _risk_setup(base: dict) -> Callable[[int], RiskState]:
    def setup(seed: int) -> RiskState:
        doc = dict(base, master_seed=int(seed))
        return RiskState(doc=doc, config=config_from_dict(doc))
    return setup


def _risk_output(state: RiskState, report, span) -> Output:
    with span("risk.report"):
        summary = report_summary(report, slope_tol=state.config.slope_tol)
        text = (report_to_csv(report)
                + json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return Output(text=text, cells=len(report.cells), result=report)


def _run_serial(state: RiskState, span) -> Output:
    with span("risk.mc_risk"):
        report = mc_risk(state.config)
        return _risk_output(state, report, span)


def _run_pool(state: RiskState, span) -> Output:
    with span("risk.mc_risk"):
        report = mc_risk(state.doc, workers=POOL_WORKERS)
        return _risk_output(state, report, span)


def _check_cells(state: RiskState, out: Output, checks: Checks) -> None:
    cfg = state.config
    cells = out.result.cells
    checks.record("risk.cell_count", len(cells) == len(cfg.sample_sizes) * cfg.replicates,
                  f"{len(cells)} cells")
    scale = 2.0 ** (cfg.p - 1.0)
    for c in cells:
        values = (c.risk, c.bias_p, c.stochastic_p)
        checks.record("risk.finite_nonnegative",
                      all(math.isfinite(v) and v >= 0.0 for v in values),
                      f"n={c.n} replicate={c.replicate}: {values}")
        bound = scale * (c.bias_p + c.stochastic_p)
        checks.record("risk.decomposition_bound",
                      c.risk <= bound * (1.0 + DECOMPOSITION_REL_SLACK),
                      f"n={c.n} replicate={c.replicate}: risk {c.risk!r} > {bound!r}")


def _check_oracle(state: RiskState, report, checks: Checks, seed: int) -> None:
    """Recompute a seeded choice of cells with the independent dense code."""
    cfg = state.config
    rng = np.random.default_rng(seed)
    sizes = rng.choice(np.asarray(cfg.sample_sizes), size=ORACLE_CELLS, replace=False)
    axes = oracle.trapezoid_axes(cfg.eval_box, cfg.eval_rule)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    truth_grid = cfg.truth.field.eval(pts).reshape([len(a) for a in axes])
    coeffs = [cfg.kernel.kappa1.poly_coeffs, cfg.kernel.kappa2.poly_coeffs]
    for n in sorted(int(v) for v in sizes):
        rep = int(rng.integers(cfg.replicates))
        cell = next(c for c in report.cells if c.n == n and c.replicate == rep)
        seed_ok = cell.seed == cell_seed(cfg.master_seed, n, rep)
        sample = cfg.truth.sample(cell.seed, n)
        ref = oracle.dense_cell_risk(sample, cell.h, coeffs, axes, truth_grid, cfg.p)
        rel = abs(cell.risk - ref) / abs(ref)
        checks.record("risk.oracle_agreement", seed_ok and rel <= ORACLE_REL_TOL,
                      f"n={n} replicate={rep}: rel {rel:.3e}, seed ok {seed_ok}")


def _check_repeats(outputs: list, checks: Checks, name: str) -> None:
    checks.record(name, all(out.text == outputs[0].text for out in outputs),
                  "operation outputs differ")


def _check_serial_run(state: RiskState, outputs: list, checks: Checks, seed: int) -> None:
    _check_repeats(outputs, checks, "risk.rerun_identical")
    _check_oracle(state, outputs[0].result, checks, seed)


def _check_pool_run(state: RiskState, outputs: list, checks: Checks, seed: int) -> None:
    serial = _risk_output(state, mc_risk(state.config), no_span)
    checks.record("risk.pool_matches_serial", all(out.text == serial.text for out in outputs),
                  "pool CSV differs from the serial run")
    _check_oracle(state, outputs[0].result, checks, seed)


# ----------------------------- family workload -----------------------------

@dataclass(frozen=True)
class FamilyState:
    seed: int


def _family_setup(seed: int) -> FamilyState:
    # fill the package's lazily built tables, as the first call in a fresh process does
    p = FAMILY["p"]
    lambda_bar(np.zeros(1))
    bump_l1()
    g_norm(p)
    g_norm(2.0)
    g_sobolev_norm(sum(FAMILY["s"]), p)
    return FamilyState(seed=int(seed))


def _run_family(state: FamilyState, span) -> Output:
    (s1, s2), (d1, d2) = FAMILY["s"], FAMILY["d"]
    with span("lower_bound.choose_parameters"):
        params = choose_parameters(FAMILY["n"], FAMILY["r"], FAMILY["p"], s1, s2, d1, d2,
                                   big_n=FAMILY["big_n"])
    with span("lower_bound.build_family"):
        fam = build_family(params, code_seed=state.seed)
    with span("lower_bound.family_report"):
        rule = family_rule(fam, nodes_per_panel=FAMILY_REPORT_NODES_PER_PANEL)
        report = family_report(fam, pdf_rule=rule)
    with span("risk.verify_lower_hypotheses"):
        hyp = verify_lower_hypotheses(fam, FAMILY["n"])
    text = (json.dumps(report, indent=2, sort_keys=True) + "\n"
            + json.dumps(asdict(hyp), indent=2, sort_keys=True) + "\n")
    digest = hashlib.sha256(np.ascontiguousarray(fam.code, dtype=np.uint8)).hexdigest()
    return Output(text=text, cells=0, result=(report, hyp), code_sha256=digest)


def _check_family(state: FamilyState, out: Output, checks: Checks) -> None:
    """family-verify's pass rule, plus both reduction-lemma hypotheses."""
    rep, hyp = out.result
    tol = FAMILY_VERIFY_TOL
    checks.record("family.distance_identity", rep["distance_identity_rel_error"] <= tol,
                  f"rel error {rep['distance_identity_rel_error']:.3e} > {tol:g}")
    checks.record("family.affinity_identity", rep["affinity_identity_rel_error"] <= tol,
                  f"rel error {rep['affinity_identity_rel_error']:.3e} > {tol:g}")
    checks.record("family.pdf_defect", rep["worst_pdf_defect"] <= 1e-8,
                  f"defect {rep['worst_pdf_defect']:.3e}")
    checks.record("family.nonnegative", rep["worst_negative_value"] >= -1e-12,
                  f"min value {rep['worst_negative_value']:.3e}")
    checks.record("family.code_size", rep["code_size"] >= rep["code_size_bound"],
                  f"{rep['code_size']} < {rep['code_size_bound']}")
    checks.record("family.min_hamming", rep["min_hamming_distance"] >= rep["min_hamming_bound"],
                  f"{rep['min_hamming_distance']} < {rep['min_hamming_bound']}")
    checks.record("family.l11", hyp.condition_l11,
                  f"min distance {hyp.min_distance!r} < 2 rho_n = {2 * hyp.rho_n!r}")
    checks.record("family.c0_bound", hyp.c0_estimate <= hyp.c0_exponential_bound,
                  f"c0 {hyp.c0_estimate!r} > {hyp.c0_exponential_bound!r}")


def _check_family_run(state: FamilyState, outputs: list, checks: Checks, seed: int) -> None:
    _check_repeats(outputs, checks, "family.rerun_identical")


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    "risk_large_n": Workload(
        name="risk_large_n", workers=1, setup=_risk_setup(RISK_LARGE_N), run=_run_serial,
        check_output=_check_cells, check_run=_check_serial_run),
    "risk_pool_small_n": Workload(
        name="risk_pool_small_n", workers=POOL_WORKERS, setup=_risk_setup(RISK_POOL_SMALL_N),
        run=_run_pool, check_output=_check_cells, check_run=_check_pool_run),
    "family_n1e4": Workload(
        name="family_n1e4", workers=1, setup=_family_setup, run=_run_family,
        check_output=_check_family, check_run=_check_family_run),
}
