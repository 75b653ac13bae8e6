"""Monte Carlo risk harness: seeded experiments and rate fits.

Risk cells are independent work units keyed by ``(n, replicate)``.  Each
cell derives its own seed from the master seed by a counter-based integer
hash (two rounds of multiply-xor-shift with the fixed constants
0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Serial
and pool runs execute the same job, one contiguous block of replicates at
one ``n``, and concatenate the blocks in job order.  No cell computation
calls a BLAS routine: the estimator sums by fast sum updating and the mean
field's per-axis convolutions are einsum loops.  So the output is
byte-identical for every worker count and every BLAS thread setting.

The risk, bias and stochastic terms of one cell are all computed on the
same uniform grid with composite trapezoid weights.  Sharing the grid
makes the decomposition inequality

    |fhat - f|^p <= 2^{p-1} (|E fhat - f|^p + |fhat - E fhat|^p)

hold node by node (hence after weighting), and lets an independently
coded dense-grid reimplementation match the cell risk to near machine
precision.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .densities import Density, plateau_density, tensor_bump_density
from .estimator import KdeModel, bandwidth_rule, kde_on_grid, mean_field_on_axes
from .kernels import build_order_kernel, config_scalar, config_section, config_values
from .lower_bound import (LowerHypothesesReport,  # noqa: F401  (perfbench imports them from here)
                          verify_lower_hypotheses)
from .product import ProductKernel, check_class, tensor_kernel
from .quadrature import Box, QuadRule, tensor_product, trapezoid_axes

__all__ = [
    "ExperimentConfig",
    "RiskCell",
    "RiskReport",
    "rate_exponent",
    "cell_seed",
    "fit_rate",
    "mc_risk",
    "config_from_dict",
    "report_to_csv",
    "report_summary",
]

_MASK64 = (1 << 64) - 1

# largest accepted |fitted slope + theoretical exponent| unless a config sets slope_tol
_SLOPE_TOL = 0.15

_REGIMES = ("mixed-upper", "classical-min", "classical-sum", "aniso",
            "noncompact-lower", "nu-fold")


def rate_exponent(s_list: Sequence[int], d_list: Sequence[int], p: float,
                  regime: str) -> Fraction:
    """Per-sample exponent of ``n`` in the named bound, as an exact rational.

    The factor ``p`` multiplying the exponent in the risk bounds is not
    included; callers wanting the risk slope multiply by ``p``.
    """
    if len(s_list) != len(d_list) or not s_list:
        raise ValueError("s_list and d_list must have equal positive length")
    if any(s < 1 for s in s_list) or any(d < 1 for d in d_list):
        raise ValueError("smoothness and dimension entries must be >= 1")
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    s = [Fraction(int(v)) for v in s_list]
    d = [Fraction(int(v)) for v in d_list]
    total_s, total_d = sum(s), sum(d)
    if regime in ("mixed-upper", "nu-fold", "classical-sum"):
        if regime == "mixed-upper" and len(s) != 2:
            raise ValueError("mixed-upper is a two-block rate")
        return total_s / (2 * total_s + total_d)
    if regime == "classical-min":
        s_min = min(s)
        return s_min / (2 * s_min + total_d)
    if regime == "aniso":
        return 1 / (2 + sum(di / si for si, di in zip(s, d)))
    if regime == "noncompact-lower":
        pf = Fraction(p)
        return total_s * (pf - 1) / (total_s * pf + total_d * (pf - 1))
    raise ValueError(f"unknown regime {regime!r}; expected one of {_REGIMES}")


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def cell_seed(master_seed: int, n: int, replicate: int) -> int:
    """64-bit cell seed mixed from (master_seed, n, replicate)."""
    s = _mix64(master_seed & _MASK64)
    s = _mix64(s ^ (n & _MASK64))
    s = _mix64(s ^ (replicate & _MASK64))
    return s


# ----------------------------- configuration -----------------------------

def _build_truth(doc: dict) -> Density:
    kind = doc["name"]
    params = config_section(doc, "params") if "params" in doc else {}
    if kind == "tensor_bump":
        return tensor_bump_density(params["widths"], params.get("centers"))
    if kind == "plateau":
        return plateau_density(params["N"], params["kappa"], params["dim"])
    raise ValueError(f"unknown truth density {kind!r}")


def _build_kernel(doc: dict) -> ProductKernel:
    s1, s2, d1, d2 = (config_scalar(doc[k], int, k) for k in ("s1", "s2", "d1", "d2"))
    strict = config_scalar(doc.get("strict", True), bool, "strict")
    return tensor_kernel(build_order_kernel(s1, strict), d1,
                         build_order_kernel(s2, strict), d2, s1, s2)


@dataclass(frozen=True)
class ExperimentConfig:
    truth: Density
    kernel: ProductKernel
    p: float
    sample_sizes: tuple[int, ...]
    replicates: int
    eval_box: Box
    eval_rule: QuadRule
    master_seed: int
    slope_tol: float

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        object.__setattr__(self, "sample_sizes", sizes)
        if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sample_sizes must be strictly increasing, length >= 3")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"'p' must be a finite number >= 1, got {self.p}")
        if not (math.isfinite(self.slope_tol) and self.slope_tol > 0):
            raise ValueError(f"'slope_tol' must be a finite number > 0, got {self.slope_tol}")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f"'master_seed' must be in [0, 2**64), got {self.master_seed}")

    @property
    def theoretical_exponent(self) -> float:
        frac = rate_exponent([self.kernel.s1, self.kernel.s2],
                             [self.kernel.d1, self.kernel.d2], self.p, "mixed-upper")
        return self.p * float(frac)


def _check_dim(key: str, dim: int, kernel_dim: int) -> None:
    if dim != kernel_dim:
        raise ValueError(f"config {key!r}: dimension {dim} does not match "
                         f"the kernel's dimension {kernel_dim}")


@contextmanager
def _value_named(key: str):
    """Report a ``ValueError`` raised in the block as one naming the config ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config {key!r}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from its JSON mirror, deriving grid defaults.

    The default evaluation box pads the truth support by the largest
    bandwidth on the schedule; default panels resolve half the smaller of
    the smallest bandwidth and the truth feature scale.
    """
    with config_values("truth"), _value_named("truth"):
        truth = _build_truth(config_section(doc, "truth"))
    with config_values("kernel"):
        kernel = _build_kernel(config_section(doc, "kernel"))
    if not kernel.kappa1.strict:  # strict factors make a kernel of its class by construction
        with _value_named("kernel"):
            check_class(kernel, '"strict": true')
    _check_dim("truth", truth.dim, kernel.dim)
    with config_values("sample_sizes"):
        sizes = tuple(config_scalar(n, int, "sample_sizes") for n in doc["sample_sizes"])
    k = kernel
    with _value_named("sample_sizes"):
        h_max = bandwidth_rule(min(sizes), k.s1, k.s2, k.d1, k.d2)
        h_min = bandwidth_rule(max(sizes), k.s1, k.s2, k.d1, k.d2)
    if "eval_box" in doc:
        box = config_section(doc, "eval_box")
        with config_values("eval_box"), _value_named("eval_box"):
            eval_box = Box(tuple(box["lower"]), tuple(box["upper"]))
        _check_dim("eval_box", eval_box.dim, kernel.dim)
    else:
        support = truth.support
        eval_box = Box(tuple(lo - h_max for lo in support.lower),
                       tuple(hi + h_max for hi in support.upper))
    if "eval_rule" in doc:
        rule = config_section(doc, "eval_rule")
        with config_values("eval_rule"), _value_named("eval_rule"):
            eval_rule = QuadRule(config_scalar(rule["nodes_per_panel"], int, "nodes_per_panel"),
                                 tuple(config_scalar(v, int, "panels_per_axis")
                                       for v in rule["panels_per_axis"]))
            eval_rule.panels_for(eval_box.dim)
    else:
        eval_rule = QuadRule.for_box(eval_box, feature_scale=min(h_min, truth.feature_scale),
                                     nodes_per_panel=8)
    with config_values("p, replicates, master_seed or slope_tol"):
        return ExperimentConfig(
            truth=truth, kernel=kernel, p=config_scalar(doc["p"], float, "p"),
            sample_sizes=sizes, replicates=config_scalar(doc["replicates"], int, "replicates"),
            eval_box=eval_box, eval_rule=eval_rule,
            master_seed=config_scalar(doc["master_seed"], int, "master_seed"),
            slope_tol=config_scalar(doc.get("slope_tol", _SLOPE_TOL), float, "slope_tol"),
        )


# ----------------------------- risk cells -----------------------------

@dataclass(frozen=True)
class RiskCell:
    n: int
    replicate: int
    seed: int
    h: float
    risk: float
    bias_p: float
    stochastic_p: float


@dataclass(frozen=True)
class RiskReport:
    cells: tuple[RiskCell, ...]
    fitted_slope: float
    slope_stderr: float
    theoretical_exponent: float


@dataclass(frozen=True)
class _SharedGrids:
    axes: tuple[np.ndarray, ...]
    weights: np.ndarray
    truth_grid: np.ndarray


def _shared_grids(config: ExperimentConfig) -> _SharedGrids:
    axes, axis_weights = trapezoid_axes(config.eval_box, config.eval_rule)
    return _SharedGrids(axes=tuple(axes), weights=tensor_product(axis_weights),
                        truth_grid=config.truth.on_grid(axes))


def _cells(config: ExperimentConfig, shared: _SharedGrids, n: int,
           replicates: Sequence[int]) -> list[RiskCell]:
    """Cells of one replicate block at ``n``, in replicate order.

    The bandwidth, mean-field grid and bias term are shared by every cell
    at ``n`` and computed once per block.
    """
    k = config.kernel
    h = bandwidth_rule(n, k.s1, k.s2, k.d1, k.d2)
    mean_grid = mean_field_on_axes(k, h, config.truth, list(shared.axes))
    bias_p = float(np.sum(shared.weights
                          * np.abs(mean_grid - shared.truth_grid) ** config.p))
    p, w = config.p, shared.weights
    cells = []
    for replicate in replicates:
        seed = cell_seed(config.master_seed, n, replicate)
        sample = config.truth.sample(seed, n)
        model = KdeModel(kernel=config.kernel, h=h, sample=sample)
        fhat = kde_on_grid(model, list(shared.axes))
        risk = float(np.sum(w * np.abs(fhat - shared.truth_grid) ** p))
        stochastic = float(np.sum(w * np.abs(fhat - mean_grid) ** p))
        cells.append(RiskCell(n=n, replicate=replicate, seed=seed, h=h, risk=risk,
                              bias_p=bias_p, stochastic_p=stochastic))
    return cells


@lru_cache(maxsize=4)
def _worker_state(doc_json: str):
    config = config_from_dict(json.loads(doc_json))
    return config, _shared_grids(config)


def _worker_cells(doc_json: str, n: int, replicates: list[int]) -> list[RiskCell]:
    return _cells(*_worker_state(doc_json), n, replicates)


def fit_rate(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """OLS slope and its standard error on (log n, log risk)."""
    if len(points) < 3:
        raise ValueError("rate fitting needs at least 3 points")
    ns = np.array([q[0] for q in points], dtype=float)
    risks = np.array([q[1] for q in points], dtype=float)
    if np.any(risks <= 0):
        raise ValueError("all risks must be positive for a log-log fit")
    x = np.log(ns)
    y = np.log(risks)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    resid = y - (y.mean() + slope * xc)
    dof = len(points) - 2
    stderr = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx)
    return slope, stderr


def mc_risk(config: ExperimentConfig | dict, workers: int = 1) -> RiskReport:
    """Monte Carlo risk over the sample-size schedule.

    ``workers`` is capped at the CPU count.  The work is split into jobs,
    one per contiguous block of replicates at each ``n`` (``workers``
    blocks per ``n``), and the cells come back in ``(n, replicate)``
    order.  With ``workers > 1`` the config must be the JSON-mirror dict
    so jobs can be shipped to worker processes, and every worker has
    exited when this returns.  Every cell is a pure
    function of ``(config, n, replicate)`` and calls no BLAS routine, so the
    output is byte-identical for every worker count and BLAS thread setting.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    doc = None
    if isinstance(config, dict):
        doc, config = config, config_from_dict(config)
    elif workers > 1:
        raise ValueError("parallel mc_risk needs a dict config (JSON mirror)")
    workers = min(workers, os.cpu_count() or 1)
    blocks = [b.tolist() for b in np.array_split(np.arange(config.replicates),
                                                 workers) if b.size]
    jobs = [(n, block) for n in config.sample_sizes for block in blocks]
    if workers > 1:
        # a pool forks its workers at the first submit, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(partial(_worker_cells, json.dumps(doc, sort_keys=True)),
                                    *zip(*jobs)))
    else:
        results = list(map(partial(_cells, config, _shared_grids(config)), *zip(*jobs)))
    cells = tuple(cell for block in results for cell in block)
    means = [(n, float(np.mean([c.risk for c in cells if c.n == n])))
             for n in config.sample_sizes]
    slope, stderr = fit_rate(means)
    return RiskReport(cells=cells, fitted_slope=slope, slope_stderr=stderr,
                      theoretical_exponent=config.theoretical_exponent)


# ----------------------------- output formats -----------------------------

def report_to_csv(report: RiskReport) -> str:
    lines = ["n,replicate,seed,h,risk,bias_p,stochastic_p"]
    for c in report.cells:
        lines.append(
            f"{c.n},{c.replicate},{c.seed},{c.h:.17g},{c.risk:.17g},"
            f"{c.bias_p:.17g},{c.stochastic_p:.17g}")
    return "\n".join(lines) + "\n"


def report_summary(report: RiskReport, slope_tol: float) -> dict:
    passed = abs(report.fitted_slope + report.theoretical_exponent) <= slope_tol
    return {
        "fitted_slope": report.fitted_slope,
        "slope_stderr": report.slope_stderr,
        "theoretical_exponent": report.theoretical_exponent,
        "pass": bool(passed),
    }
