"""Command line entry point.

Subcommands: kernel-build, kernel-verify, rate, family-build,
family-verify, risk-run.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .densities import pdf_ok
from .kernels import (build_order_kernel, check_tol, config_section, kernel_from_dict,
                      kernel_to_dict, verify_order)
from .lower_bound import (build_family, choose_parameters, family_report, params_from_report,
                          verify_lower_hypotheses)
from .product import (VERIFY_TOL, check_class, product_kernel_from_dict,
                      product_kernel_to_dict, tensor_kernel, verify_class)
from .risk import config_from_dict, mc_risk, rate_exponent, report_summary, report_to_csv

USAGE_ERROR = 2
VERIFY_FAIL = 1


def _split_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _write_json(doc: dict, out: str | Path | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_json_object(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixedkde")
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel-build", help="build a univariate or product kernel")
    pk.add_argument("--order", type=int, help="univariate kernel order")
    pk.add_argument("--s", type=_split_pair, help="product kernel orders s1,s2")
    pk.add_argument("--d", type=_split_pair, help="product kernel dimensions d1,d2")
    pk.add_argument("--strict", action="store_true")
    pk.add_argument("--out")

    pv = sub.add_parser("kernel-verify", help="verify a kernel JSON file")
    pv.add_argument("--config", required=True, help="kernel JSON path")
    pv.add_argument("--order", type=int, help="claimed order for univariate kernels")
    pv.add_argument("--tol", type=float, default=VERIFY_TOL)
    pv.add_argument("--out")

    pr = sub.add_parser("rate", help="print an exact rate exponent")
    pr.add_argument("--s", type=_split_pair, required=True)
    pr.add_argument("--d", type=_split_pair, required=True)
    pr.add_argument("--p", type=float, default=2.0)
    pr.add_argument("--regime", default="mixed-upper")

    fb = sub.add_parser("family-build", help="build the lower-bound family")
    fb.add_argument("--s", type=_split_pair, required=True)
    fb.add_argument("--d", type=_split_pair, required=True)
    fb.add_argument("--p", type=float, required=True)
    fb.add_argument("--r", type=float, required=True)
    fb.add_argument("--n", type=int, required=True, help="sample size the parameters target")
    fb.add_argument("--noncompact", action="store_true")
    fb.add_argument("--big-n", type=float, default=10.0, help="plateau width constant (compact regime)")
    fb.add_argument("--out")

    fv = sub.add_parser("family-verify", help="rebuild a family from a report and re-check it")
    fv.add_argument("--config", required=True, help="family JSON path")
    fv.add_argument("--tol", type=float, default=1e-6)
    fv.add_argument("--out")

    for family_parser in (fb, fv):
        family_parser.add_argument("--seed", type=int, default=0, help=(
            "packing-code seed: the code is the span of ceil(M^D / 8) random rows drawn "
            "from this seed, so the seed matters at every M^D"))

    rr = sub.add_parser("risk-run", help="run a Monte Carlo risk experiment")
    rr.add_argument("--config", required=True, help="experiment JSON path")
    rr.add_argument("--out", required=True, help="output prefix (.csv and .json written)")
    rr.add_argument("--threads", type=int, default=1,
                    help="worker processes, at most one per CPU and one per job; the output "
                         "is the same for every count")
    rr.add_argument("--replicates", type=int, help="override the config replicate count")
    rr.add_argument("--seed", type=int, help="override the config master seed")

    return parser


def _cmd_kernel_build(args) -> int:
    if args.s is not None:
        if args.d is None:
            print("kernel-build: --s requires --d", file=sys.stderr)
            return USAGE_ERROR
        s1, s2 = args.s
        d1, d2 = args.d
        kernel = tensor_kernel(build_order_kernel(s1, args.strict), d1,
                               build_order_kernel(s2, args.strict), d2, s1, s2)
        try:
            check_class(kernel, "--strict")
        except ValueError as exc:
            print(f"kernel-build: {exc}", file=sys.stderr)
            return USAGE_ERROR
        _write_json(product_kernel_to_dict(kernel), args.out)
        return 0
    if args.order is None:
        print("kernel-build: need --order or --s/--d", file=sys.stderr)
        return USAGE_ERROR
    _write_json(kernel_to_dict(build_order_kernel(args.order, args.strict)), args.out)
    return 0


# an overflowing moment is an inf in the report or a non-finite value the
# quadrature names; numpy's warning would only print a source path first
@np.errstate(over="ignore")
def _cmd_kernel_verify(args) -> int:
    doc = _read_json_object(args.config)
    if "kappa1" in doc:
        kernel = product_kernel_from_dict(doc)
        report = verify_class(kernel, tol=args.tol)
        payload = {
            "markov_defect": report.markov_defect,
            "worst_moment": report.worst_moment,
            "I_s1_s2": report.i_s1_s2,
            "sup_norm": report.sup_norm,
            "pass": report.passed,
        }
    else:
        kernel = kernel_from_dict(doc)
        order = args.order if args.order is not None else kernel.order
        report = verify_order(kernel, order, args.tol)
        payload = {
            "order": order,
            "worst_violation": report.worst_violation,
            "absolute_moment_s": report.absolute_moment_s,
            "sup_norm": report.sup_norm,
            "pass": report.passed,
        }
    _write_json(payload, args.out)
    return 0 if report.passed else VERIFY_FAIL


def _cmd_rate(args) -> int:
    frac = rate_exponent(list(args.s), list(args.d), args.p, args.regime)
    print(f"{frac.numerator}/{frac.denominator} = {float(frac):.15g}")
    return 0


def _family_from_args(args):
    s1, s2 = args.s
    d1, d2 = args.d
    params = choose_parameters(args.n, args.r, args.p, s1, s2, d1, d2,
                               compact_regime=not args.noncompact,
                               big_n=args.big_n)
    return build_family(params, code_seed=args.seed)


def _cmd_family_build(args) -> int:
    fam = _family_from_args(args)
    report = family_report(fam)
    hyp = verify_lower_hypotheses(fam, args.n)
    report["lemma_hypotheses"] = {
        "rho_n": hyp.rho_n,
        "condition_L11": hyp.condition_l11,
        "c0_estimate": hyp.c0_estimate,
        "c0_exponential_bound": hyp.c0_exponential_bound,
    }
    _write_json(report, args.out)
    return 0


def _cmd_family_verify(args) -> int:
    check_tol(args.tol)
    params = params_from_report(config_section(_read_json_object(args.config), "params"))
    fam = build_family(params, code_seed=args.seed)
    report = family_report(fam)
    report["pass"] = bool(
        report["distance_identity_rel_error"] <= args.tol
        and report["affinity_identity_rel_error"] <= args.tol
        and pdf_ok(report["worst_pdf_defect"], report["worst_negative_value"])
        and report["code_size"] >= report["code_size_bound"]
        and report["min_hamming_distance"] >= report["min_hamming_bound"]
    )
    _write_json(report, args.out)
    return 0 if report["pass"] else VERIFY_FAIL


def _cmd_risk_run(args) -> int:
    if args.threads < 1:
        print(f"risk-run: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return USAGE_ERROR
    doc = _read_json_object(args.config)
    if args.replicates is not None:
        doc["replicates"] = args.replicates
    if args.seed is not None:
        doc["master_seed"] = args.seed
    report = mc_risk(doc, workers=args.threads)
    summary = report_summary(report, slope_tol=config_from_dict(doc).slope_tol)
    out = Path(args.out)
    out.with_suffix(".csv").write_text(report_to_csv(report))
    _write_json(summary, out.with_suffix(".json"))
    print(f"fitted slope {summary['fitted_slope']:+.4f} "
          f"(theory {-summary['theoretical_exponent']:+.4f}), "
          f"pass={summary['pass']}")
    return 0 if summary["pass"] else VERIFY_FAIL


_COMMANDS = {
    "kernel-build": _cmd_kernel_build,
    "kernel-verify": _cmd_kernel_verify,
    "rate": _cmd_rate,
    "family-build": _cmd_family_build,
    "family-verify": _cmd_family_verify,
    "risk-run": _cmd_risk_run,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as exc:
        print(f"error: config is missing key {exc.args[0]!r}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
