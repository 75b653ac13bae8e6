"""In-memory span tracer for the traced benchmark run.

Spans are recorded only from the benchmark's own files: ``install`` rebinds
public names of the package at the module attribute (or class attribute)
their callers look up, and ``uninstall`` puts the originals back.  Each span
keeps its name, start, end and parent; everything stays in memory until the
run writes it out.  A layer's self time is its span duration minus the
durations of its direct children, so the self times of all spans under a
root span add up to the root's duration.

Pool workers started by ``fork`` inherit the wrappers; a wrapper called in a
process other than the one that installed it runs the original untraced,
so worker-side spans are neither recorded nor paid for.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


def no_span(name: str):
    """Span factory of the untraced run: does nothing."""
    return _NULL


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        # each span: [name, start_ns, end_ns, parent_index, n_or_None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _traced(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, record, args, result)`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, record, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every measured call site of the package."""
        import numpy as np

        import mixedkde.densities as densities
        import mixedkde.lower_bound as lower_bound
        import mixedkde.risk as risk
        from mixedkde.kernels import UnivariateKernel

        def count_factor(tracer, record, args, result):
            u = np.asarray(args[1])
            tracer.counts["kernels.factor_entries"] += u.size
            # counting the support is tracing work, kept out of the caller's self time
            with tracer.span("trace.bookkeeping"):
                tracer.counts["kernels.factor_support_entries"] += int(
                    np.count_nonzero(np.abs(u) <= 1.0))

        def count_sample(tracer, record, args, result):
            record[4] = int(result.shape[0])
            tracer.counts["densities.points_drawn"] += record[4]

        def count_kde(tracer, record, args, result):
            tracer.counts["estimator.kde_calls"] += 1

        def count_code(tracer, record, args, result):
            tracer.counts["lower_bound.code_words"] += int(result.shape[0])

        def count_quadrature(tracer, record, args, result):
            box, rule = args[1], args[2]
            panels = rule.panels_per_axis
            if len(panels) == 1:
                panels = panels * box.dim
            nodes = 1
            for p in panels:
                nodes *= p * rule.nodes_per_panel
            tracer.counts["quadrature.calls"] += 1
            tracer.counts["quadrature.nodes"] += nodes
            # the tensor reduction materialises dim meshgrid arrays, the
            # stacked (nodes, dim) point array and the weight grid, all float64
            tracer.counts["quadrature.mesh_bytes_computed"] += nodes * 8 * (2 * box.dim + 1)

        tracer = self
        factor_call = self._traced("kernels.factor_eval", UnivariateKernel.__call__,
                                   count_factor)
        sample_call = self._traced("densities.sample", densities.Density.sample,
                                   count_sample)
        original_field = lower_bound.LowerBoundFamily.perturbation_field

        def perturbation_field(fam, word, alpha=None):
            field = original_field(fam, word, alpha)

            def count_points(tracer, record, args, result):
                tracer.counts["lower_bound.field_points"] += int(result.shape[0])

            return tracer._traced("lower_bound.field_eval", field, count_points)

        class TracedPool(risk.ProcessPoolExecutor):
            """The pool span runs from entering the ``with`` block to shutdown."""

            def __enter__(self):
                self._span = tracer.span("risk.pool")
                self._span.__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    self._span.__exit__(None, None, None)

        self._patch(UnivariateKernel, "__call__", factor_call)
        self._patch(densities.Density, "sample", sample_call)
        self._patch(lower_bound.LowerBoundFamily, "perturbation_field", perturbation_field)
        self._patch(risk, "ProcessPoolExecutor", TracedPool)
        self._patch(risk, "kde_on_grid",
                    self._traced("estimator.kde_on_grid", risk.kde_on_grid, count_kde))
        self._patch(risk, "mean_field_on_axes",
                    self._traced("estimator.mean_field", risk.mean_field_on_axes))
        self._patch(lower_bound, "vg_code",
                    self._traced("lower_bound.vg_code", lower_bound.vg_code, count_code))
        self._patch(lower_bound, "integrate",
                    self._traced("quadrature.integrate", lower_bound.integrate,
                                 count_quadrature))
        self._patch(densities, "integrate",
                    self._traced("quadrature.integrate", densities.integrate,
                                 count_quadrature))
        self._patch(densities, "lambda_bar",
                    self._traced("bumps.lambda_bar", densities.lambda_bar))
        self._patch(lower_bound, "g_function",
                    self._traced("bumps.g_eval", lower_bound.g_function))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times_ns(self, first: int = 0, last: int | None = None) -> Counter:
        """Self time per span name over spans ``first`` .. ``last - 1``."""
        spans = self.spans[first:last]
        child = Counter()
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        totals = Counter()
        for offset, (name, start, end, parent, _) in enumerate(spans):
            totals[name] += end - start - child[first + offset]
        return totals
