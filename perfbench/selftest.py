"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one short untraced run and two short traced
runs at one seed, and asserts that
  * both result lines name exactly the metrics listed in BENCHMARK.json,
  * every run is correct (no check failed except documented known defects),
  * the exact counts repeat between the two traced runs;
and that in a directory holding only BENCHMARK.json and the benchmark the
command exits non-zero without printing a result.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import EXACT_COUNTS, OUT_DIR, ROOT, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
SEED = 20260810


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in WORKLOAD_NAMES:
        runs = {0: [result(workload, 0)], 1: [result(workload, 1), result(workload, 1)]}
        for trace, results in runs.items():
            for res in results:
                assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
                assert res["correct"], (workload, trace)
                assert sorted(res["metrics"]) == sorted(names[trace]), (workload, trace)
                for name, m in res["metrics"].items():
                    assert m["unit"] == units[name], (workload, name)
        first, second = (r["metrics"] for r in runs[1])
        for name in EXACT_COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)
        print(f"{workload}: ok")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(WORKLOAD_NAMES[0], 0, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
