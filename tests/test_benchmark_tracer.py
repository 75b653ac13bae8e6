"""The benchmark's tracer and workloads must still find every package name they use."""

import importlib.util
import json
import sys
from pathlib import Path

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


def test_workloads_import(monkeypatch):
    # workloads.py imports its siblings oracle.py and spans.py as top-level modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        assert set(workloads.WORKLOADS) == {w["name"] for w in declared}
    finally:
        for name in ("workloads", "oracle", "spans"):
            sys.modules.pop(name, None)
