import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedkde.cli import run
from mixedkde.estimator import _CHUNK
from mixedkde.lower_bound import choose_parameters, params_to_report


def test_rate_prints_exact_fraction(capsys):
    code = run(["rate", "--s", "4,1", "--d", "1,1", "--regime", "mixed-upper"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("5/12")


def test_rate_aniso(capsys):
    assert run(["rate", "--s", "4,1", "--d", "1,1", "--regime", "aniso"]) == 0
    assert capsys.readouterr().out.startswith("4/13")


def test_kernel_build_and_verify_roundtrip(tmp_path):
    path = tmp_path / "kernel.json"
    assert run(["kernel-build", "--order", "4", "--strict", "--out", str(path)]) == 0
    assert run(["kernel-verify", "--config", str(path)]) == 0


def test_uniform_kernel_claimed_order_3_fails(tmp_path):
    path = tmp_path / "uniform.json"
    assert run(["kernel-build", "--order", "1", "--out", str(path)]) == 0
    assert run(["kernel-verify", "--config", str(path), "--order", "3"]) == 1


def test_product_kernel_build_and_verify(tmp_path):
    path = tmp_path / "product.json"
    assert run(["kernel-build", "--s", "2,1", "--d", "1,1", "--strict",
                "--out", str(path)]) == 0
    assert run(["kernel-verify", "--config", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["s1"] == 2 and doc["d2"] == 1


def test_missing_config_exits_2(capsys):
    assert run(["risk-run", "--config", "missing.json", "--out", "x"]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    assert run(["rate", "--bogus", "1"]) == 2


def test_help_exits_zero():
    for sub in ("kernel-build", "kernel-verify", "rate", "family-build",
                "family-verify", "risk-run"):
        assert run([sub, "--help"]) == 0


def test_family_build_infeasible_names_constraint(capsys):
    code = run(["family-build", "--s", "1,1", "--d", "1,1", "--p", "2",
                "--r", "10", "--n", "100"])
    assert code == 2
    assert "error" in capsys.readouterr().err


SMALL_RISK = {
    "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
    "kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1, "strict": True},
    "p": 2.0,
    "sample_sizes": [64, 128, 256],
    "replicates": 2,
    "master_seed": 31415,
    "slope_tol": 5.0,
}
SRC = Path(__file__).resolve().parents[1] / "src"


def test_risk_run_outputs_are_byte_identical(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(SMALL_RISK))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["risk-run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["risk-run", "--config", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
    summary = json.loads(out1.with_suffix(".json").read_text())
    assert set(summary) == {"fitted_slope", "slope_stderr",
                            "theoretical_exponent", "pass"}


def test_risk_run_output_ignores_blas_threads(tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the second config's largest n spans several sample chunks of the estimator
    for name, doc in [("small", SMALL_RISK),
                      ("chunks", {**SMALL_RISK, "sample_sizes": [128, _CHUNK + 1, 3 * _CHUNK]})]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        outputs = []
        for workers in ("1", "2"):
            for blas_threads in ("1", None):
                run_env = (env if blas_threads is None
                           else {**env, "OPENBLAS_NUM_THREADS": blas_threads})
                out = tmp_path / f"{name}_threads{workers}_blas{blas_threads}"
                # run() waits for the child and kills it if the timeout expires
                proc = subprocess.run([sys.executable, "-m", "mixedkde.cli", "risk-run",
                                       "--config", str(cfg), "--out", str(out),
                                       "--threads", workers],
                                      env=run_env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                outputs.append([out.with_suffix(ext).read_bytes() for ext in (".csv", ".json")])
        assert len(outputs) == 4
        assert all(output == outputs[0] for output in outputs), name


def test_risk_run_rejects_threads_below_one(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(SMALL_RISK))
    for threads in ("0", "-1"):
        out = tmp_path / f"run{threads}"
        assert run(["risk-run", "--config", str(cfg), "--out", str(out),
                    "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()


def test_risk_run_replicate_and_seed_overrides(tmp_path):
    config = {
        "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
        "kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1, "strict": True},
        "p": 2.0,
        "sample_sizes": [64, 128, 256],
        "replicates": 1,
        "master_seed": 1,
        "slope_tol": 5.0,
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run(["risk-run", "--config", str(cfg), "--out", str(out),
                "--replicates", "2", "--seed", "77"]) == 0
    lines = out.with_suffix(".csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 2


def test_risk_run_config_missing_truth_names_key(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1},
                               "p": 2.0, "sample_sizes": [64, 128, 256],
                               "replicates": 1, "master_seed": 1}))
    assert run(["risk-run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "'truth'" in capsys.readouterr().err


def test_risk_run_rejects_non_object_config(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text("[1, 2, 3]")
    assert run(["risk-run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "expected a JSON object" in capsys.readouterr().err
    assert run(["kernel-verify", "--config", str(cfg)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err
    base = {
        "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
        "kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1},
        "p": 2.0, "sample_sizes": [64, 128, 256], "replicates": 1, "master_seed": 1,
    }
    risk_run = ["risk-run", "--config", str(cfg), "--out", str(tmp_path / "run")]
    not_object = "expected a JSON object"
    cases = [(risk_run, key, {**base, key: value}, not_object) for key, value in
             [("truth", [1]), ("kernel", "strict"), ("eval_box", [[-1, -1], [1, 1]]),
              ("eval_rule", 8)]]
    cases.append((risk_run, "params",
                  {**base, "truth": {"name": "tensor_bump", "params": ["widths"]}}, not_object))
    cases.append((risk_run, "truth",
                  {**base, "truth": {"name": "tensor_bump", "params": {"widths": 3}}},
                  "wrong value type"))
    cases.append((risk_run, "sample_sizes", {**base, "sample_sizes": 5}, "wrong value type"))
    # the truth and the evaluation box must have the kernel's dimension
    three_axes = {"lower": [-2.0, -2.0, -2.0], "upper": [2.0, 2.0, 2.0]}
    for key, dim, doc in [
            ("eval_box", 1, {**base, "eval_box": {"lower": [-2.0], "upper": [2.0]}}),
            ("truth", 3, {**base, "truth": {"name": "tensor_bump",
                                            "params": {"widths": [1.0, 3.0, 2.0]}}}),
            ("eval_box", 3, {**base, "eval_box": three_axes})]:
        cases.append((risk_run, key, doc,
                      f"dimension {dim} does not match the kernel's dimension 2"))
    product = {"s1": 1, "s2": 1, "d1": 1, "d2": 1, "kappa1": [1],
               "kappa2": {"order": 1, "poly_coeffs": [0.5], "strict": False}}
    kernel_verify = ["kernel-verify", "--config", str(cfg)]
    cases.append((kernel_verify, "kappa1", product, not_object))
    # values of the wrong JSON type are rejected, not converted
    wrong_type = "wrong value type"
    for key, value in [("strict", "false"), ("s1", 2.9), ("d2", True)]:
        cases.append((risk_run, key, {**base, "kernel": {**base["kernel"], key: value}},
                      wrong_type))
    for key, value in [("p", True), ("replicates", 2.5), ("master_seed", "1"),
                       ("slope_tol", "0.2"), ("sample_sizes", [64, 128.5, 256])]:
        cases.append((risk_run, key, {**base, key: value}, wrong_type))
    # values of the right type that no run can use
    for key, value, message in [("p", float("nan"), "finite number >= 1"),
                                ("p", float("inf"), "finite number >= 1"),
                                ("slope_tol", -0.1, "finite number > 0"),
                                ("sample_sizes", [1, 64, 128], "needs n >= 2")]:
        cases.append((risk_run, key, {**base, key: value}, message))
    cases.append((risk_run, "nodes_per_panel",
                  {**base, "eval_rule": {"nodes_per_panel": 8.5, "panels_per_axis": [4]}},
                  wrong_type))
    # a rule with the wrong number of axes and an inverted box name their key
    cases.append((risk_run, "eval_rule",
                  {**base, "eval_rule": {"nodes_per_panel": 2, "panels_per_axis": [4, 4, 4]}},
                  "rule has 3 axes but box has 2"))
    cases.append((risk_run, "eval_box",
                  {**base, "eval_box": {"lower": [1.0, -1.0], "upper": [-1.0, 1.0]}},
                  "box axis 0: lower=1.0 must be < upper=-1.0"))
    univariate = {"order": 1, "poly_coeffs": [0.5], "strict": False}
    for key, value in [("order", 2.9), ("strict", "false"), ("poly_coeffs", ["0.5"])]:
        cases.append((kernel_verify, key, {**univariate, key: value}, wrong_type))
    cases.append((kernel_verify, "poly_coeffs", {**univariate, "poly_coeffs": []},
                  "at least one coefficient"))
    cases.append((kernel_verify, "s2", {**product, "kappa1": univariate, "s2": 1.0},
                  wrong_type))
    for argv, key, doc, message in cases:
        cfg.write_text(json.dumps(doc))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and message in err
    # order 0 would check no moment, so every kernel would pass
    cfg.write_text(json.dumps(univariate))
    assert run(kernel_verify + ["--order", "0"]) == 2
    assert "kernel order must be >= 1, got 0" in capsys.readouterr().err


def test_family_verify_without_params_names_key(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    params = params_to_report(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4))
    cases = [({"code_size": 3}, "params"), ({"params": [1, 2]}, "params"),
             ({"params": "M=9"}, "params")]
    # values of the wrong JSON type are rejected, not converted
    cases += [({"params": {**params, key: value}}, key) for key, value in
              [("A", [1]), ("compact_regime", "false"), ("M", 9.5), ("p", True)]]
    for doc, key in cases:
        cfg.write_text(json.dumps(doc))
        assert run(["family-verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'params'" in err and f"'{key}'" in err


def test_family_build_reports_lemma_hypotheses(tmp_path):
    out = tmp_path / "family.json"
    assert run(["family-build", "--s", "1,1", "--d", "1,1", "--p", "1.5", "--r", "240",
                "--n", "10000", "--big-n", "8.4", "--out", str(out)]) == 0
    hyp = json.loads(out.read_text())["lemma_hypotheses"]
    assert hyp["condition_L11"] is True
    assert hyp["c0_estimate"] <= hyp["c0_exponential_bound"]
