import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedkde.cli import run
from mixedkde.estimator import _CHUNK
from mixedkde.lower_bound import choose_parameters, params_to_report

SRC = Path(__file__).resolve().parents[1] / "src"


def test_rate_prints_exact_fraction(capsys):
    code = run(["rate", "--s", "4,1", "--d", "1,1", "--regime", "mixed-upper"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("5/12")


def test_rate_aniso(capsys):
    assert run(["rate", "--s", "4,1", "--d", "1,1", "--regime", "aniso"]) == 0
    assert capsys.readouterr().out.startswith("4/13")


def test_rate_rejects_non_finite_p(capsys):
    for p in ("nan", "inf", "0.5"):
        assert run(["rate", "--s", "1,1", "--d", "1,1", "--p", p]) == 2
        assert f"p must be a finite number >= 1, got {p}" in capsys.readouterr().err


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


def test_product_kernel_build_writes_only_a_kernel_that_verifies(tmp_path, capsys):
    # without --strict the (1,1) and (3,1) products are of their class
    for s in ("1,1", "3,1"):
        path = tmp_path / f"product{s}.json"
        assert run(["kernel-build", "--s", s, "--d", "1,1", "--out", str(path)]) == 0
        assert run(["kernel-verify", "--config", str(path)]) == 0
    # the (2,1), (2,2), (3,2) and (4,3) products are not: nothing is written
    capsys.readouterr()
    for s, worst in (("2,1", "0.333333"), ("2,2", "0.333333"), ("3,2", "0.333333"),
                     ("4,3", "0.0857143")):
        path = tmp_path / f"product{s}.json"
        assert run(["kernel-build", "--s", s, "--d", "1,1", "--out", str(path)]) == 2
        assert not path.exists()
        s1, s2 = s.split(",")
        assert capsys.readouterr().err == (
            f"kernel-build: this product kernel fails kernel-verify (worst_moment {worst} "
            f"> 1e-08); --strict builds a kernel of the order-({s1}, {s2}) class\n")


KERNEL_ORDER4_STRICT = """\
{
  "order": 4,
  "poly_coeffs": [
    1.7578125,
    0.0,
    -8.203125,
    0.0,
    7.3828125
  ],
  "strict": true
}
"""
PRODUCT_S21_D11_STRICT = """\
{
  "d1": 1,
  "d2": 1,
  "kappa1": {
    "order": 2,
    "poly_coeffs": [
      1.125,
      0.0,
      -1.875
    ],
    "strict": true
  },
  "kappa2": {
    "order": 1,
    "poly_coeffs": [
      0.5
    ],
    "strict": true
  },
  "s1": 2,
  "s2": 1
}
"""


def test_kernel_build_prints_exact_json(capsys):
    # pins the JSON writer: sorted keys, indent 2, shortest round-trip floats
    assert run(["kernel-build", "--order", "4", "--strict"]) == 0
    assert capsys.readouterr().out == KERNEL_ORDER4_STRICT
    assert run(["kernel-build", "--s", "2,1", "--d", "1,1", "--strict"]) == 0
    assert capsys.readouterr().out == PRODUCT_S21_D11_STRICT


def test_kernel_verify_rejects_bad_kernels(tmp_path, capsys):
    cfg = tmp_path / "kernel.json"
    product = json.loads(PRODUCT_S21_D11_STRICT)
    univariate = {"order": 2, "strict": False}
    # orders and dimensions below 1 would make the class check vacuous
    cases = [({**product, key: value}, "d1, d2, s1, s2 must all be >= 1")
             for key, value in [("d1", 0), ("s1", 0), ("d1", -1)]]
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cases += [({**univariate, "poly_coeffs": [0.5, c]}, "'poly_coeffs' must be finite")
              for c in (float("nan"), float("inf"))]
    for doc, message in cases:
        cfg.write_text(json.dumps(doc))
        assert run(["kernel-verify", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


def test_kernel_verify_moment_overflow_exits_2(tmp_path):
    # finite coefficients whose moments overflow, alone and as a product
    # kernel's first factor; a subprocess, because the test suite turns
    # numpy's overflow warnings into errors.  stderr holds the error line
    # alone: no warning with a source path, no traceback.
    univariate = {"order": 2, "strict": False, "poly_coeffs": [1e308, 1e308]}
    cfg = tmp_path / "kernel.json"
    for doc in (univariate, {**json.loads(PRODUCT_S21_D11_STRICT), "kappa1": univariate}):
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "mixedkde.cli", "kernel-verify",
                               "--config", str(cfg)], env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: integrand returned non-finite value inf "
                               "at node [0.8204008876948148]\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verifiers_reject_bad_tol(tmp_path, capsys, tol):
    message = f"tol must be a finite number > 0, got {float(tol)}"
    kernel, product, family = (tmp_path / name for name in ("k.json", "K.json", "f.json"))
    kernel.write_text(KERNEL_ORDER4_STRICT)
    product.write_text(PRODUCT_S21_D11_STRICT)
    params = params_to_report(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4))
    family.write_text(json.dumps({"params": params}))
    for command, cfg in [("kernel-verify", kernel), ("kernel-verify", product),
                         ("family-verify", family)]:
        assert run([command, "--config", str(cfg), f"--tol={tol}"]) == 2
        assert message in capsys.readouterr().err


def test_directory_path_exits_2(tmp_path, capsys):
    folder = str(tmp_path)
    for argv in (["kernel-verify", "--config", folder], ["family-verify", "--config", folder],
                 ["risk-run", "--config", folder, "--out", str(tmp_path / "run")],
                 ["kernel-build", "--order", "2", "--out", folder]):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {folder}: ")


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
    # out-of-range p and r are rejected before any quadrature, naming the value
    for p, r, message in [("nan", "10", "p must be a finite number >= 1, got nan"),
                          ("inf", "10", "p must be a finite number >= 1, got inf"),
                          ("0.5", "10", "p must be a finite number >= 1, got 0.5"),
                          ("2", "nan", "radius r must be a finite number > 0, got nan"),
                          ("2", "inf", "radius r must be a finite number > 0, got inf"),
                          ("2", "0", "radius r must be a finite number > 0, got 0.0")]:
        assert run(["family-build", "--s", "1,1", "--d", "1,1", "--p", p, "--r", r,
                    "--n", "10000"]) == 2
        assert message in capsys.readouterr().err
    # a plateau constant that underflows, an unbounded plateau width, orders and
    # dimensions below 1 and smoothness orders whose constants overflow
    readme = ["--p", "1.5", "--r", "240", "--big-n", "8.4"]
    overflow = "construction constants overflow at smoothness s1 + s2 = {}, dimension d1 + d2 = 2"
    for extra, message in [
            (["--s", "1,1", "--d", "1,1", "--p", "1e300", "--r", "10"],
             "plateau norm constant C0 = 0.0 at p = 1e+300 is not a finite number > 0"),
            (["--s", "1,1", "--d", "1,1", "--p", "2", "--r", "10", "--big-n", "inf"],
             "N must be a finite number > 8, got inf"),
            (["--s", "1,1", "--d", "1,1", "--p", "1.5", "--r", "1e308", "--big-n", "8.4"],
             "exceeds the plateau value"),
            # at p = 1, epsilon = (r + 1) / (2 r) must not overflow to 0
            (["--s", "1,1", "--d", "1,1", "--p", "1", "--r", "1e308", "--big-n", "8.4"],
             "exceeds the plateau value"),
            (["--s", "1,1", "--d", "1,1", "--p", "1", "--r", "1.7e308", "--big-n", "8.4"],
             "exceeds the plateau value"),
            (["--s", "1,1", "--d", "0,1", *readme], "d1 must be >= 1, got 0"),
            (["--s", "1,0", "--d", "1,1", *readme], "s2 must be >= 1, got 0"),
            (["--s", "14,1", "--d", "1,1", *readme], overflow.format(15)),
            (["--s", "8,8", "--d", "1,1", *readme], overflow.format(16)),
            (["--s", "50,1", "--d", "1,1", *readme], overflow.format(51))]:
        assert run(["family-build", *extra, "--n", "10000"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


SMALL_RISK = {
    "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
    "kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1, "strict": True},
    "p": 2.0,
    "sample_sizes": [64, 128, 256],
    "replicates": 2,
    "master_seed": 31415,
    "slope_tol": 5.0,
}


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
    # the package sets no BLAS thread count, so this is the guard that no cell
    # depends on one: runs at 1 and 2 BLAS threads (two counts that differ
    # even on a one-core machine) and at the default must agree
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
            for blas_threads in ("1", "2", None):
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
        assert len(outputs) == 6
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


def test_risk_run_checks_the_class_of_a_non_strict_kernel(tmp_path, capsys):
    # the (1,1) and (3,1) products are of their class without strict
    # factors, and run exactly as their strict kernels do
    for s1 in (1, 3):
        outputs = []
        for strict in (True, False):
            cfg = tmp_path / f"exp{s1}{strict}.json"
            cfg.write_text(json.dumps({**SMALL_RISK, "kernel": {**SMALL_RISK["kernel"],
                                                                "s1": s1, "strict": strict}}))
            out = tmp_path / f"run{s1}{strict}"
            assert run(["risk-run", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append([out.with_suffix(ext).read_bytes() for ext in (".csv", ".json")])
        assert outputs[0] == outputs[1]
    # the (2,1) product is not, and the run stops before its first cell
    cfg = tmp_path / "exp21.json"
    cfg.write_text(json.dumps({**SMALL_RISK, "kernel": {**SMALL_RISK["kernel"],
                                                        "s1": 2, "strict": False}}))
    capsys.readouterr()
    out = tmp_path / "run21"
    assert run(["risk-run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.with_suffix(".csv").exists()
    assert capsys.readouterr().err == (
        "error: config 'kernel': this product kernel fails kernel-verify (worst_moment "
        '0.333333 > 1e-08); "strict": true builds a kernel of the order-(2, 1) class\n')


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
    # values that convert wrongly or describe no box name the truth too
    cases.append((risk_run, "truth",
                  {**base, "truth": {"name": "tensor_bump", "params": {"widths": "ab"}}},
                  "could not convert string to float"))
    cases.append((risk_run, "truth",
                  {**base, "truth": {"name": "tensor_bump",
                                     "params": {"widths": [float("nan")] * 2}}},
                  "must be < upper=nan"))
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
                                ("master_seed", -1, "in [0, 2**64)"),
                                ("master_seed", 2**64, "in [0, 2**64)"),
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
    # infinite bounds of the evaluation box or of the truth's support
    inf = float("inf")
    for key, doc in [
            ("eval_box", {**base, "eval_box": {"lower": [-inf, -2.0], "upper": [2.0, 2.0]}}),
            ("truth", {**base, "truth": {"name": "tensor_bump", "params": {"widths": [inf, 1.0]}}}),
            ("truth", {**base, "truth": {"name": "plateau",
                                         "params": {"N": inf, "kappa": 1.0, "dim": 2}}})]:
        cases.append((risk_run, key, doc, "both finite"))
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


def test_family_verify_rejects_out_of_range_params(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    params = params_to_report(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4))
    nan, inf = float("nan"), float("inf")
    for key, value, message in [("p", nan, "p must be a finite number >= 1, got nan"),
                                ("p", inf, "p must be a finite number >= 1, got inf"),
                                ("A", nan, "A must be a finite number > 0, got nan"),
                                ("A", -1.0, "A must be a finite number > 0, got -1.0"),
                                ("r", nan, "radius r must be a finite number > 0, got nan"),
                                ("r_star", nan, "r_star = nan inconsistent with p = 1.5"),
                                ("s1", 0, "s1 must be >= 1, got 0")]:
        cfg.write_text(json.dumps({"params": {**params, key: value}}))
        assert run(["family-verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


README_FAMILY = ["--s", "1,1", "--d", "1,1", "--p", "1.5", "--r", "240", "--big-n", "8.4"]


def test_family_commands_reject_a_negative_seed(tmp_path, capsys):
    # -1 once passed, because the code's random fill is seeded with seed + 1
    cfg = tmp_path / "family.json"
    params = params_to_report(choose_parameters(10_000, 240.0, 1.5, 1, 1, 1, 1, big_n=8.4))
    cfg.write_text(json.dumps({"params": params}))
    for argv in (["family-build", *README_FAMILY, "--n", "10000"],
                 ["family-verify", "--config", str(cfg)]):
        for seed in ("-1", "-2"):
            assert run([*argv, "--seed", seed]) == 2
            err = capsys.readouterr().err
            assert f"seed must be >= 0, got {seed}" in err
            assert "Traceback" not in err


def test_family_build_code_cap_names_the_lever(capsys):
    # at n = 4e4 the README family has 12^2 = 144 blocks: past the code-size cap
    assert run(["family-build", *README_FAMILY, "--n", "40000"]) == 2
    err = capsys.readouterr().err
    assert "code of length 144 needs 262144 words; cap is 65536" in err
    assert "block count M^D grows with n, so a smaller n (--n) gives fewer blocks" in err
    assert "Traceback" not in err


def test_family_build_reports_lemma_hypotheses(tmp_path):
    out = tmp_path / "family.json"
    assert run(["family-build", "--s", "1,1", "--d", "1,1", "--p", "1.5", "--r", "240",
                "--n", "10000", "--big-n", "8.4", "--out", str(out)]) == 0
    hyp = json.loads(out.read_text())["lemma_hypotheses"]
    assert hyp["condition_L11"] is True
    assert hyp["c0_estimate"] <= hyp["c0_exponential_bound"]


def test_readme_family_verifies(tmp_path, capsys):
    # the family's own panel edges resolve the kinks of |f_a - f_b|^p at the
    # wiggles' zero crossings, so the distance identity meets the 1e-6 tolerance
    out = tmp_path / "family.json"
    assert run(["family-build", "--s", "1,1", "--d", "1,1", "--p", "1.5", "--r", "240",
                "--n", "10000", "--big-n", "8.4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["distance_identity_rel_error"] <= 1e-6
    capsys.readouterr()
    assert run(["family-verify", "--config", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["distance_identity_rel_error"] <= 1e-6
