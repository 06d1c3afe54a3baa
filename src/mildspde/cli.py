"""Command-line entry point.

Subcommands:
    study       run a convergence study, write CSV (and optionally JSON)
    eoc         print the planner's case, exponents and resolution ladder
    cost        print the closed-form cost table for a resolution ladder
    noise-test  moment and identity checks of the iterated-integral sampler
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cost import CostLedger, cost_formula
from .eoc import PlanInput, classify, eoc_exponent, optimal_resolution
from .harness import ReferenceSpec, StudyConfig, paper_reference, plan_rows, run_study
from .noise import (alg1_iterated_batch, exact_second_moment,
                    sample_increments_batch, substream)
from .problems import make_example, make_problem_from_config
from .schemes import KINDS, canonical_kind


def _parse_ladder(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"--ladder takes comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"--ladder needs at least one N, got {text!r}")
    return values


def _parse_schemes(text: str):
    kinds = [canonical_kind(tok) for tok in text.split(",") if tok]
    if not kinds:
        raise ValueError(f"--schemes needs at least one scheme, got {text!r}")
    return kinds


def _load_problem(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return make_problem_from_config(json.load(fh))
    return make_example(args.example)


def _cmd_study(args) -> int:
    problem = _load_problem(args)
    rows = plan_rows(problem, _parse_schemes(args.schemes), _parse_ladder(args.ladder))
    if args.full_reference:
        if args.config:
            raise ValueError("--full-reference needs --example: published reference "
                             "resolutions exist only for the shipped examples")
        reference = paper_reference(args.example)
    else:
        reference = ReferenceSpec(args.ref_scheme, n=args.ref_n, k=args.ref_k,
                                  m=args.ref_m, d=args.ref_d)
    config = StudyConfig(problem=problem, rows=tuple(rows), reference=reference,
                         paths=args.paths, seed=args.seed,
                         error_at=args.error_at, workers=args.workers,
                         allow_big=args.allow_big)
    report = run_study(config)
    if args.out:
        Path(args.out).write_text(report.csv_text())
    else:
        sys.stdout.write(report.csv_text())
    if args.json:
        Path(args.json).write_text(report.json_text())
    return 0


def _cmd_eoc(args) -> int:
    if args.example is not None or args.config:
        problem = _load_problem(args)
        plans = {s: PlanInput.from_problem(problem, s, args.finite_dim) for s in KINDS}
    elif args.gamma is None or args.alpha is None:
        raise ValueError("eoc needs --example, --config, or both --gamma and --alpha")
    else:
        plans = {s: PlanInput(gamma=args.gamma, beta=args.beta, alpha=args.alpha,
                              rho_a=args.rho_a, rho_q=args.rho_q, scheme=s,
                              finite_dim_noise=args.finite_dim)
                 for s in KINDS}
    out = {"finite_dim": args.finite_dim, "schemes": {}}
    cls = classify(plans["DFM"])
    out["case"] = {"row": cls.row, "label": cls.label, "optimal": list(cls.optimal)}
    exps = {s: eoc_exponent(p) for s, p in plans.items()}
    ranking = sorted(exps, key=lambda s: (-exps[s], KINDS.index(s)))
    out["ranking"] = ranking
    for s in KINDS:
        entry = {"eoc": str(exps[s]), "eoc_float": float(exps[s])}
        if args.ladder:
            entry["ladder"] = []
            for n in _parse_ladder(args.ladder):
                res = optimal_resolution(plans[s], n)
                entry["ladder"].append(
                    {"N": res.n, "M": res.m, "K": res.k, "D": res.d,
                     "m_exponent": str(res.m_exponent),
                     "k_exponent": str(res.k_exponent) if res.k_exponent is not None else None})
        out["schemes"][s] = entry
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_cost(args) -> int:
    problem = _load_problem(args)
    rows = plan_rows(problem, _parse_schemes(args.schemes), _parse_ladder(args.ladder))
    q = problem.params.q_dfm
    sys.stdout.write("scheme,N,M,K,D,cost\n")
    for row in rows:
        c = cost_formula(row.scheme, row.n, row.k, row.m, q)
        d = "" if row.d is None else str(row.d)
        sys.stdout.write(f"{row.scheme},{row.n},{row.m},{row.k},{d},{c}\n")
    return 0


# largest float64 array noise-test may ask for (64 MB): the (samples, K, K)
# iterated integrals, or the 2 D K series normals of one sample
_NOISE_TEST_ELEMS = 2**23
# most (i, j) entries its report may list (K = 64): each is a dict of five
# statistics, so K^2 of them bound the JSON it prints
_NOISE_TEST_ENTRIES = 2**12


def _cmd_noise_test(args) -> int:
    k, d, h = args.k, args.d, args.h
    if args.samples < 2:
        raise ValueError("--samples must be >= 2 (moment checks need a sample variance)")
    if k < 1:
        raise ValueError("--k must be >= 1")
    if k * k > _NOISE_TEST_ENTRIES:
        raise ValueError(f"--k = {k} gives {k * k} report entries, more than the "
                         f"{_NOISE_TEST_ENTRIES} noise-test lists")
    if args.samples * k * k > _NOISE_TEST_ELEMS:
        raise ValueError(f"--samples x --k^2 = {args.samples * k * k} exceeds the "
                         f"{_NOISE_TEST_ELEMS} elements noise-test holds at once")
    if 2 * d * k > _NOISE_TEST_ELEMS:
        raise ValueError(f"2 x --d x --k = {2 * d * k} series normals per sample exceeds "
                         f"the {_NOISE_TEST_ELEMS} elements noise-test holds at once")
    if not np.isfinite(args.rho_q):
        raise ValueError(f"--rho-q must be finite, got {args.rho_q}")
    eta = np.arange(1.0, k + 1.0) ** -args.rho_q
    ledger = CostLedger()
    rng_inc = substream(args.seed, 1)
    rng_ser = substream(args.seed, 2)
    db = sample_increments_batch(rng_inc, args.samples, k, h, ledger=ledger)
    iq = alg1_iterated_batch(rng_ser, db, h, d, eta, ledger=ledger)
    report = {"samples": args.samples, "k": k, "d": d, "h": h,
              "rho_q": args.rho_q, "draws": ledger.normal_draws,
              "draws_per_sample": ledger.normal_draws / args.samples,
              "entries": {}}
    sqrt_eta = np.sqrt(eta)
    target = (sqrt_eta[:, None] * sqrt_eta[None, :]) * (db[:, :, None] * db[:, None, :]) \
        - np.diag(eta * h)[None]
    resid = np.abs(iq + np.swapaxes(iq, 1, 2) - target)
    scale = h * eta.max() + np.abs(sqrt_eta * db).max() ** 2
    report["max_identity_residual"] = float(resid.max() / scale)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            vals = iq[:, i - 1, j - 1]
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(args.samples))
            second = float((vals**2).mean())
            expect = exact_second_moment(i, j, h, eta)
            report["entries"][f"({i},{j})"] = {
                "mean": mean, "mean_z": mean / se if se else 0.0,
                "second_moment": second, "second_moment_exact": expect,
                "second_moment_rel_err": (second - expect) / expect if expect else 0.0,
            }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mildspde")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("--example", type=int, choices=(1, 2, 3), default=1)
    p_study.add_argument("--config", help="JSON file describing a custom problem")
    p_study.add_argument("--ladder", required=True, help="comma-separated N values")
    p_study.add_argument("--schemes", default="DFM,MIL,EES")
    p_study.add_argument("--paths", type=int, default=500)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--workers", type=int, default=1)
    p_study.add_argument("--error-at", choices=("final", "all-grid"), default="final")
    p_study.add_argument("--full-reference", action="store_true",
                         help="published reference resolutions of --example (long)")
    p_study.add_argument("--ref-scheme", default="LIE")
    p_study.add_argument("--ref-n", type=int, default=64)
    p_study.add_argument("--ref-k", type=int, default=3)
    p_study.add_argument("--ref-m", type=int, default=2**14)
    p_study.add_argument("--ref-d", type=int, default=None,
                         help="Algorithm 2 depth (default: D2 rule)")
    p_study.add_argument("--allow-big", action="store_true")
    p_study.add_argument("--out", help="CSV output path (default: stdout)")
    p_study.add_argument("--json", help="JSON mirror output path")
    p_study.set_defaults(func=_cmd_study)

    p_eoc = sub.add_parser("eoc", help="effective-order planner")
    p_eoc.add_argument("--example", type=int, choices=(1, 2, 3))
    p_eoc.add_argument("--config")
    p_eoc.add_argument("--gamma")
    p_eoc.add_argument("--beta", default="0")
    p_eoc.add_argument("--alpha")
    p_eoc.add_argument("--rho-a", default="2")
    p_eoc.add_argument("--rho-q", default="3")
    p_eoc.add_argument("--finite-dim", action="store_true")
    p_eoc.add_argument("--ladder", help="comma-separated N values")
    p_eoc.set_defaults(func=_cmd_eoc)

    p_cost = sub.add_parser("cost", help="closed-form cost table")
    p_cost.add_argument("--example", type=int, choices=(1, 2, 3), default=1)
    p_cost.add_argument("--config")
    p_cost.add_argument("--ladder", required=True)
    p_cost.add_argument("--schemes", default="DFM,MIL,EES")
    p_cost.set_defaults(func=_cmd_cost)

    p_noise = sub.add_parser("noise-test", help="iterated-integral statistics")
    p_noise.add_argument("--samples", type=int, default=100_000)
    p_noise.add_argument("--k", type=int, default=2)
    p_noise.add_argument("--d", type=int, default=10)
    p_noise.add_argument("--h", type=float, default=0.1)
    p_noise.add_argument("--rho-q", type=float, default=3.0)
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.set_defaults(func=_cmd_noise_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
