import json

import pytest

from mixedkde.cli import run


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


def test_risk_run_outputs_are_byte_identical(tmp_path):
    config = {
        "truth": {"name": "tensor_bump", "params": {"widths": [1.0, 1.0]}},
        "kernel": {"s1": 1, "s2": 1, "d1": 1, "d2": 1, "strict": True},
        "p": 2.0,
        "sample_sizes": [64, 128, 256],
        "replicates": 2,
        "master_seed": 31415,
        "slope_tol": 5.0,
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["risk-run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["risk-run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
    summary = json.loads(out1.with_suffix(".json").read_text())
    assert set(summary) == {"fitted_slope", "slope_stderr",
                            "theoretical_exponent", "pass"}


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
    cases = [(key, {**base, key: value}) for key, value in
             [("truth", [1]), ("kernel", "strict"), ("eval_box", [[-1, -1], [1, 1]]),
              ("eval_rule", 8)]]
    cases.append(("params", {**base, "truth": {"name": "tensor_bump", "params": ["widths"]}}))
    for key, doc in cases:
        cfg.write_text(json.dumps(doc))
        assert run(["risk-run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "expected a JSON object" in err


def test_family_verify_without_params_names_key(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    for doc in ({"code_size": 3}, {"params": [1, 2]}, {"params": "M=9"}):
        cfg.write_text(json.dumps(doc))
        assert run(["family-verify", "--config", str(cfg)]) == 2
        assert "'params'" in capsys.readouterr().err


def test_family_build_reports_lemma_hypotheses(tmp_path):
    out = tmp_path / "family.json"
    assert run(["family-build", "--s", "1,1", "--d", "1,1", "--p", "1.5", "--r", "240",
                "--n", "10000", "--big-n", "8.4", "--out", str(out)]) == 0
    hyp = json.loads(out.read_text())["lemma_hypotheses"]
    assert hyp["condition_L11"] is True
    assert hyp["c0_estimate"] <= hyp["c0_exponential_bound"]
