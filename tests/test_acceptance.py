"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-7, 9 and 10 form the fast tier and always run (the suite takes
around two minutes on two cores; criterion 7 dominates). Criterion 8
re-runs the published error tables at full resolution and 500 paths; it
takes about 2 minutes on two cores and only runs when MILDSPDE_FULL_TIER=1
is set. One more test, with no simulation, reads the paper's ordering of
the schemes off criterion 8's published tables.
"""

import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mildspde.cost import CostLedger, cost_formula, ledger_expected
from mildspde.eoc import PlanInput, classify, eoc_exponent, optimal_resolution
from mildspde.harness import (LadderRow, ReferenceSpec, StudyConfig,
                              estimate_sup_second_moment, fit_loglog,
                              measure_order, paper_reference, plan_rows,
                              run_study)
from mildspde.noise import (alg1_iterated_batch, alg1_iterated_nested,
                            choose_D1, exact_second_moment,
                            sample_increments_batch, substream)
from mildspde.problems import make_example
from mildspde.schemes import SchemeConfig, integrate

WORKERS = max(1, min(8, os.cpu_count() or 1))


def _verdict(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_cost_reproduction():
    plans = {
        1: {"DFM": [94, 864, 8481, 127744, 1344631],
            "MIL": [110, 1248, 15649, 312064, 4392055],
            "EES": [96, 1792, 37674, 1097728, 24282684]},
        2: {"DFM": [77, 556, 4137, 31314, 342791],
            "MIL": [93, 940, 11305, 154194, 3390215],
            "EES": [64, 714, 9438, 129050, 2409221]},
    }
    bad = []
    for ex, table in plans.items():
        prob = make_example(ex)
        q = prob.params.q_dfm
        for scheme, expected in table.items():
            plan = PlanInput.from_problem(prob, scheme)
            for n, want in zip([2, 4, 8, 16, 32], expected):
                res = optimal_resolution(plan, n)
                q_arg = q if scheme in ("DFM", "MIL") else None
                got = cost_formula(scheme, n, res.k, res.m, q_arg)
                if got != want:
                    bad.append((ex, scheme, n, got, want))
    _verdict(1, "cost reproduction (30 table integers, exact)", not bad, str(bad))


def test_criterion_02_eoc_reproduction():
    want = {
        (1, "DFM"): Fraction(27, 58), (1, "MIL"): Fraction(189, 460),
        (1, "EES"): Fraction(189, 514),
        (2, "DFM"): Fraction(1309, 2976), (2, "MIL"): Fraction(1309, 3900),
        (2, "EES"): Fraction(1309, 3746),
        (3, "DFM"): Fraction(14, 65), (3, "MIL"): Fraction(7, 36),
    }
    bad = []
    for (ex, scheme), frac in want.items():
        got = eoc_exponent(PlanInput.from_problem(make_example(ex), scheme))
        if got != frac:
            bad.append((ex, scheme, got, frac))
    cases = {1: 3, 2: 2, 3: 1}
    for ex, row in cases.items():
        cls = classify(PlanInput.from_problem(make_example(ex), "DFM"))
        if cls.row != row:
            bad.append((ex, "case", cls.row, row))
    if classify(PlanInput.from_problem(make_example(3), "DFM")).optimal != ("DFM", "EES"):
        bad.append((3, "optimal set"))
    _verdict(2, "EOC reproduction (exact rationals + cases)", not bad, str(bad))


def test_criterion_03_planner_bounds_sweep():
    rng = np.random.default_rng(2024)
    half = Fraction(1, 2)
    checked = 0
    worst = None
    while checked < 10_000:
        delta = Fraction(int(rng.integers(1, 12)), 24)
        beta = Fraction(int(rng.integers(0, 24)), 24)
        lo, hi = max(beta, delta), delta + half
        gamma = lo + (hi - lo) * Fraction(int(rng.integers(0, 17)), 16)
        if gamma <= beta or gamma == 0:
            continue
        alpha = Fraction(int(rng.integers(1, 49)), 12)
        rho_a = Fraction(int(rng.integers(1, 41)), 8)
        rho_q = 1 + Fraction(int(rng.integers(1, 41)), 12)
        eocs = {}
        for s in ("DFM", "MIL", "EES"):
            eocs[s] = eoc_exponent(PlanInput(gamma=gamma, beta=beta, alpha=alpha,
                                             rho_a=rho_a, rho_q=rho_q, scheme=s))
        ok = (eocs["DFM"] >= eocs["MIL"] and eocs["DFM"] >= eocs["EES"]
              and all(v <= half for v in eocs.values()))
        if not ok:
            worst = (gamma, beta, alpha, rho_a, rho_q, eocs)
            break
        checked += 1
    _verdict(3, "planner bounds over 10^4 random tuples",
             worst is None, f"checked={checked} counterexample={worst}")


def test_criterion_04_linear_b_degeneracy():
    n = k = 8
    m = 64
    paths = 100
    worst = 0.0
    for ex in (1, 2):
        prob = make_example(ex)
        d = choose_D1(m, prob.params.q_dfm)
        eta = prob.q_law.values(k)
        h = prob.horizon / m
        for path in range(paths):
            db = sample_increments_batch(substream(40 + ex, path, 1), m, k, h)
            iq = alg1_iterated_batch(substream(40 + ex, path, 2), db, h, d, eta)
            cfg_d = SchemeConfig("DFM", n=n, k=k, m=m)
            cfg_m = SchemeConfig("MIL", n=n, k=k, m=m)
            td = integrate(cfg_d, prob, db, iq)
            tm = integrate(cfg_m, prob, db, iq)
            scale = np.maximum(np.abs(td), 1.0)
            worst = max(worst, float((np.abs(td - tm) / scale).max()))
    _verdict(4, "DFM == MIL on linear problems (100 paths, every step)",
             worst <= 1e-10, f"max relative step difference {worst:.3e}")


def test_criterion_05_iterated_integral_statistics():
    s = 1_000_000
    k, d, h = 2, 10, 0.1
    eta = np.arange(1.0, k + 1.0) ** -3.0
    ledger = CostLedger()
    db = sample_increments_batch(substream(50, 1), s, k, h, ledger=ledger)
    iq = alg1_iterated_batch(substream(50, 2), db, h, d, eta, ledger=ledger)

    draws_ok = ledger.normal_draws == s * k * (1 + 2 * d)
    vals = iq[:, 0, 1]
    se = vals.std(ddof=1) / math.sqrt(s)
    mean_ok = abs(vals.mean()) < 4 * se
    second = float((vals**2).mean())
    exact = exact_second_moment(1, 2, h, eta)
    moment_ok = abs(second / exact - 1.0) < 0.01
    sq = np.sqrt(eta)
    target = (sq[:, None] * sq[None, :]) * (db[:, :, None] * db[:, None, :]) \
        - np.diag(eta * h)[None]
    resid = np.abs(iq + np.swapaxes(iq, 1, 2) - target).max()
    scale = h * eta.max() + np.abs(sq * db).max() ** 2
    ident_ok = resid / scale < 1e-12
    diag_ok = bool(np.allclose(iq[:, 0, 0], eta[0] * (db[:, 0] ** 2 - h) / 2,
                               rtol=1e-12, atol=1e-300))
    ok = draws_ok and mean_ok and moment_ok and ident_ok and diag_ok
    _verdict(5, "iterated-integral statistics (10^6 samples)", ok,
             f"mean_z={vals.mean()/se:.2f} second/exact-1={second/exact-1:.2%} "
             f"resid={resid/scale:.1e} draws/sample={ledger.normal_draws/s:.0f}")


def test_criterion_06_depth_refinement_rate():
    s = 20_000
    k, h = 2, 0.1
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = np.broadcast_to(np.array([0.11, -0.07]), (s, k))   # increments held fixed
    depths = [4, 16, 64, 256]
    nest = alg1_iterated_nested(substream(60, 1), db, h, depths + [4096], eta)
    rms = [float(np.sqrt(((nest[d][:, 0, 1] - nest[4096][:, 0, 1]) ** 2).mean()))
           for d in depths]
    fit = fit_loglog(depths, rms)
    ok = -0.6 <= fit.slope <= -0.4
    _verdict(6, "series-depth refinement rate (slope vs 1/sqrt(D))", ok,
             f"slope={fit.slope:.3f} rms={['%.2e' % r for r in rms]}")


def test_criterion_07_temporal_order():
    prob = make_example(1)
    n = k = 16
    ms = [2**j for j in range(4, 10)]
    rows = []
    for m in ms:
        rows.append(LadderRow("DFM", n=n, m=m, k=k, d=choose_D1(m, prob.params.q_dfm)))
    for m in ms:
        rows.append(LadderRow("EES", n=n, m=m, k=k))
    ref = ReferenceSpec("DFM", n=n, k=k, m=2**13)     # depth from the D1 rule
    cfg = StudyConfig(problem=prob, rows=tuple(rows), reference=ref,
                      paths=200, seed=2027, workers=WORKERS)
    rep = run_study(cfg)
    dfm_fit = measure_order(rep, axis="M", scheme="DFM")
    ees_fit = measure_order(rep, axis="M", scheme="EES")
    dfm_at = {r.m: r.error for r in rep.rows if r.scheme == "DFM"}
    ees_at = {r.m: r.error for r in rep.rows if r.scheme == "EES"}
    ok = (-1.05 <= dfm_fit.slope <= -0.70 and -0.65 <= ees_fit.slope <= -0.35
          and dfm_at[512] < ees_at[512])
    _verdict(7, "temporal order (coupled ladder, 200 paths)", ok,
             f"slope(DFM)={dfm_fit.slope:.3f} slope(EES)={ees_fit.slope:.3f} "
             f"err(DFM,2^9)={dfm_at[512]:.3e} err(EES,2^9)={ees_at[512]:.3e}")


# criterion 8's published tables: (N, error, std) per example and scheme
_PUBLISHED_ERRORS = {
    1: {"DFM": [(2, 3.77e-2, 2.38e-3), (4, 2.95e-2, 1.25e-3),
                (8, 1.81e-2, 5.33e-4), (16, 6.84e-3, 8.63e-5)],
        "MIL": [(2, 3.78e-2, 2.30e-3), (4, 2.95e-2, 1.25e-3),
                (8, 1.81e-2, 5.15e-4), (16, 6.84e-3, 8.31e-5)],
        "EES": [(2, 2.65e-2, 2.46e-3), (4, 3.06e-2, 1.41e-3),
                (8, 1.83e-2, 5.11e-4), (16, 6.81e-3, 1.15e-4)]},
    2: {"DFM": [(2, 4.42e-2, 4.10e-3), (4, 3.56e-2, 2.08e-3),
                (8, 2.13e-2, 8.73e-4), (16, 8.66e-3, 5.30e-4)],
        "MIL": [(2, 4.43e-2, 4.16e-3), (4, 3.56e-2, 2.08e-3),
                (8, 2.13e-2, 8.61e-4), (16, 8.66e-3, 5.33e-4)],
        "EES": [(2, 3.48e-2, 4.07e-3), (4, 3.70e-2, 1.43e-3),
                (8, 2.22e-2, 9.95e-4), (16, 9.07e-3, 5.73e-4)]},
}


@pytest.mark.skipif(not os.environ.get("MILDSPDE_FULL_TIER"),
                    reason="full tier is opt-in (~2 min on 2 cores): set MILDSPDE_FULL_TIER=1")
def test_criterion_08_published_error_tables():
    failures = []
    for ex, table in _PUBLISHED_ERRORS.items():
        prob = make_example(ex)
        rows = plan_rows(prob, ["DFM", "MIL", "EES"], [2, 4, 8, 16])
        cfg = StudyConfig(problem=prob, rows=tuple(rows),
                          reference=paper_reference(ex), paths=500,
                          seed=8000 + ex, workers=WORKERS)
        rep = run_study(cfg)
        for scheme, entries in table.items():
            for n, err, std in entries:
                row = next(r for r in rep.rows if r.scheme == scheme and r.n == n)
                band = 3.0 * (std + row.std)
                if abs(row.error - err) > band:
                    failures.append((ex, scheme, n, row.error, err, band))
    _verdict(8, "published error tables (full tier, 500 paths)",
             not failures, str(failures))


def test_published_tables_rank_dfm_steepest():
    # the paper's headline ordering read off its own tables, no simulation:
    # the published errors against the planned costs (criterion 1's
    # integers), one log-log slope per scheme; only the order is checked
    for ex, table in _PUBLISHED_ERRORS.items():
        prob = make_example(ex)
        slope = {}
        for scheme, entries in table.items():
            plan = PlanInput.from_problem(prob, scheme)
            costs = []
            for n, _, _ in entries:
                res = optimal_resolution(plan, n)
                costs.append(cost_formula(scheme, n, res.k, res.m, prob.params.q_dfm))
            slope[scheme] = fit_loglog(costs, [err for _, err, _ in entries]).slope
        print(f"\nexample {ex} slopes: "
              + ", ".join(f"{s} {v:.3f}" for s, v in slope.items()))
        assert slope["DFM"] <= slope["MIL"] and slope["DFM"] <= slope["EES"], (ex, slope)


def test_criterion_09_moment_boundedness():
    prob = make_example(1)
    sups = {}
    for m in (2**4, 2**6, 2**8, 2**10):
        sups[m] = estimate_sup_second_moment(prob, "DFM", n=8, k=8, m=m,
                                             paths=200, seed=90)
    ratio = max(sups.values()) / min(sups.values())
    _verdict(9, "moment boundedness across step counts", ratio < 2.0,
             f"sup second moments {dict((m, round(v, 5)) for m, v in sups.items())} "
             f"ratio={ratio:.3f}")


def test_criterion_10_determinism_across_workers():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=3, m=256)
    rows = (LadderRow("DFM", n=8, m=32, k=2, d=14),
            LadderRow("MIL", n=8, m=32, k=2, d=14),
            LadderRow("EES", n=8, m=64, k=3),
            LadderRow("LIE", n=4, m=64, k=2))
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=16, seed=77)
    rep_serial = run_study(cfg)
    rep_pool = run_study(replace(cfg, workers=8))
    same_csv = rep_serial.csv_text() == rep_pool.csv_text()
    same_json = rep_serial.json_text() == rep_pool.json_text()
    _verdict(10, "byte-identical reports at 1 and 8 workers",
             same_csv and same_json,
             f"csv_equal={same_csv} json_equal={same_json}")
