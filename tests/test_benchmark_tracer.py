"""The benchmark's tracer and workloads must still find every package name they use."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_tracer_install_rebinds_and_uninstall_restores():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._originals)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner!r}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr}"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its siblings oracle.py and spans.py as top-level modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "oracle", "spans"):
            sys.modules.pop(name, None)


def test_workloads_import(workloads):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_workload_runs_one_correct_operation(workloads, name):
    # one untraced operation as perfbench/run.py makes it, then every output check
    wl, seed = workloads.WORKLOADS[name], 20260810
    state = wl.setup(seed)
    out = wl.run(state, sys.modules["spans"].no_span)
    checks = workloads.Checks()
    wl.check_output(state, out, checks)
    wl.check_run(state, [out], checks, seed)
    assert checks.total()[0] > 0
    assert checks.unexpected_failures() == [], checks.summary()
