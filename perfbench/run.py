"""mixedkde benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload risk_large_n --seed 1 --seconds 20 --trace 0

The timed operation repeats in a closed loop (one caller) until
``--seconds`` have passed and at least ``MIN_OPS`` operations have run.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the loop runs under the span tracer
and the last line carries the per-layer metrics.  Both check the outputs
and print the environment record; the full record (checks, per-operation
times and, when traced, every span) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("risk_large_n", "risk_pool_small_n", "family_n1e4")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# A run makes at least this many operations, so that its median discards one
# operation that a slow spell of the shared host stretched (a family_n1e4
# operation takes about 18 s; the risk workloads make many more anyway).
MIN_OPS = 3

# per-layer metric -> span names whose self time it sums
LAYER_SELF_TIMES = {
    "densities.sample_s": ("densities.sample",),
    "kernels.factor_eval_s": ("kernels.factor_eval",),
    "estimator.kde_on_grid_s": ("estimator.kde_on_grid",),
    "estimator.mean_field_s": ("estimator.mean_field",),
    "risk.self_s": ("risk.mc_risk", "risk.report"),
    "risk.pool_wall_s": ("risk.pool",),
    "risk.verify_lower_hypotheses_s": ("risk.verify_lower_hypotheses",),
    "lower_bound.self_s": ("lower_bound.choose_parameters", "lower_bound.build_family",
                           "lower_bound.family_report"),
    "lower_bound.vg_code_s": ("lower_bound.vg_code",),
    "lower_bound.field_eval_s": ("lower_bound.field_eval",),
    "bumps.lambda_bar_s": ("bumps.lambda_bar",),
    "bumps.g_eval_s": ("bumps.g_eval",),
    "quadrature.integrate_s": ("quadrature.integrate",),
    "trace.bookkeeping_s": ("trace.bookkeeping",),
    "unspanned_s": ("op",),
}
LAYER_COUNTS = {
    "densities.points_drawn": "count",
    "kernels.factor_entries": "count",
    "kernels.factor_support_entries": "count",
    "estimator.kde_calls": "count",
    "lower_bound.code_words": "count",
    "lower_bound.field_points": "count",
    "quadrature.calls": "count",
    "quadrature.nodes": "count",
    "quadrature.mesh_bytes_computed": "bytes",
}
# counts fixed by the inputs: two traced runs at one seed must agree exactly
EXACT_COUNTS = ("risk.cells", "densities.points_drawn", "kernels.factor_entries",
                "quadrature.nodes", "quadrature.mesh_bytes_computed",
                "lower_bound.code_words")
CELL_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one cold set-up of the workload and exit")
    return ap.parse_args(argv)


def _rusage_cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


@dataclass
class OpRecord:
    out: object
    wall: float
    cpu_self: float
    cpu_children: float
    counts: Counter
    spans: tuple[int, int] | None  # first and last span index, traced runs only


def run_loop(wl, state, seconds: float, min_ops: int, tracer=None) -> list[OpRecord]:
    """Closed loop: start the next operation when the previous one ends, until
    ``seconds`` have passed and ``min_ops`` operations have run."""
    from spans import no_span

    ops = []
    start = time.perf_counter()
    while True:
        counts0 = Counter(tracer.counts) if tracer else Counter()
        first = len(tracer.spans) if tracer else 0
        s0 = _rusage_cpu(resource.RUSAGE_SELF)
        c0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.run(state, no_span)
        else:
            with tracer.span("op"):
                out = wl.run(state, tracer.span)
        t1 = time.perf_counter()
        s1 = _rusage_cpu(resource.RUSAGE_SELF)
        c1 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        counts = Counter(tracer.counts) - counts0 if tracer else Counter()
        counts["risk.cells"] = out.cells
        ops.append(OpRecord(out, t1 - t0, s1 - s0, c1 - c0, counts,
                            (first, len(tracer.spans)) if tracer else None))
        if t1 - start >= seconds and len(ops) >= min_ops:
            return ops


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _setup_probes(workload: str, seed: int) -> list[float]:
    """Cold set-up times, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(wl, seed: int, ops: list[OpRecord]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "workers": wl.workers,
        "workload": wl.name,
        "seed": seed,
        "code_words_sha256": ops[0].out.code_sha256,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cell_ms(tracer, op: OpRecord) -> dict[int, list[float]]:
    """Per-cell wall time in the serial loop, keyed by n.

    A cell runs from its ``Density.sample`` call to the next sample, mean
    field or report span inside ``mc_risk`` (or the end of ``mc_risk``).
    """
    first, last = op.spans
    by_n: dict[int, list[float]] = {}
    for i in range(first, last):
        if tracer.spans[i][0] != "risk.mc_risk":
            continue
        mc_end = tracer.spans[i][2]
        children = [s for s in tracer.spans[first:last] if s[3] == i]
        bounds = sorted(s[1] for s in children
                        if s[0] in ("densities.sample", "estimator.mean_field",
                                    "risk.report")) + [mc_end]
        for s in children:
            if s[0] == "densities.sample":
                end = next(b for b in bounds if b > s[1])
                by_n.setdefault(s[4], []).append((end - s[1]) / 1e6)
    return by_n


def per_layer_metrics(tracer, ops: list[OpRecord], ref_wall: float, checks) -> dict:
    k = len(ops)
    self_ns = Counter()
    for op in ops:
        self_ns.update(tracer.self_times_ns(*op.spans))
    metrics = {}
    for name, span_names in LAYER_SELF_TIMES.items():
        metrics[name] = _metric(sum(self_ns[s] for s in span_names) / 1e9 / k, "s")
    totals = Counter()
    for op in ops:
        totals.update(op.counts)
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = _metric(totals[name] / k, unit)
    entries = totals["kernels.factor_entries"]
    metrics["kernels.factor_support_ratio"] = _metric(
        totals["kernels.factor_support_entries"] / entries if entries else 0.0, "ratio")
    metrics["risk.cells"] = _metric(ops[0].out.cells, "count")
    metrics["risk.worker_cpu_s"] = _metric(sum(op.cpu_children for op in ops) / k, "s")
    metrics["risk.cells_per_s"] = _metric(ops[0].out.cells / ref_wall, "1/s")
    cells: dict[int, list[float]] = {}
    for op in ops:
        for n, vals in _cell_ms(tracer, op).items():
            cells.setdefault(n, []).extend(vals)
    for n in CELL_SIZES:
        vals = cells.get(n)
        metrics[f"risk.cell_ms.n{n}"] = _metric(statistics.fmean(vals) if vals else 0.0, "ms")
    root_ns = [tracer.spans[op.spans[0]][2] - tracer.spans[op.spans[0]][1] for op in ops]
    traced_wall = statistics.median(root_ns) / 1e9
    metrics["traced_wall_s"] = _metric(traced_wall, "s")
    metrics["untraced_wall_s"] = _metric(ref_wall, "s")
    metrics["trace_overhead_s"] = _metric(traced_wall - ref_wall, "s")

    # the self times of every operation add up to its root span exactly
    parts = [sum(tracer.self_times_ns(*op.spans).values()) for op in ops]
    checks.record("trace.self_times_add_up", parts == root_ns,
                  f"self times {parts} ns != root spans {root_ns} ns")
    checks.record("trace.counts_repeat",
                  all(op.counts[c] == ops[0].counts[c] for op in ops for c in EXACT_COUNTS),
                  "exact counts differ between operations")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mixedkde" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'mixedkde'}; run from the root of a "
              "mixedkde checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import mixedkde
    import workloads
    if Path(mixedkde.__file__).resolve().parent != (SRC / "mixedkde").resolve():
        print(f"error: imported mixedkde from {mixedkde.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    setup_in_process = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_in_process}))
        return 0

    checks = workloads.Checks()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            ops = run_loop(wl, state, args.seconds, MIN_OPS, tracer)
        finally:
            tracer.uninstall()
        ref = run_loop(wl, state, 0.0, 1)[0]
        checks.record("trace.byte_identical", all(op.out.text == ref.out.text for op in ops),
                      "traced output differs from the untraced run")
    else:
        ops = run_loop(wl, state, args.seconds, MIN_OPS)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0

    # Every check is attempted a fixed number of times per run, whatever the
    # number of operations: the value checks run on the first operation's
    # output, and check_run requires every later output to match it byte for byte.
    wl.check_output(state, ops[0].out, checks)
    wl.check_run(state, [op.out for op in ops], checks, args.seed)

    walls = [op.wall for op in ops]
    cpus = [op.cpu_self + op.cpu_children for op in ops]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": len(ops),
        "op_wall_s": walls, "op_cpu_s": cpus,
        "setup_in_process_s": setup_in_process,
        "env": environment(wl, args.seed, ops),
    }
    if tracer is None:
        setups = _setup_probes(wl.name, args.seed)
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        record["setup_probe_s"] = setups
        if ops[0].out.cells:
            record["cells_per_s"] = ops[0].out.cells / statistics.median(walls)
    else:
        metrics = per_layer_metrics(tracer, ops, ref.wall, checks)
        record["spans"] = tracer.spans

    attempted, failed = checks.total()
    if tracer is not None:
        metrics["fail_ratio"] = _metric(failed / attempted, "ratio")
    unexpected = checks.unexpected_failures()
    record.update(checks=checks.summary(), fail_ratio=failed / attempted, metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(record["env"], sort_keys=True))
    print("checks " + json.dumps(record["checks"], sort_keys=True))
    print(f"operations {len(ops)}, wall per operation {_quartiles(walls)}, "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}"
          + (f", cells_per_s {record['cells_per_s']:.6g}" if "cells_per_s" in record else ""))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if unexpected:
        print("unexpected check failures: " + ", ".join(unexpected), file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
