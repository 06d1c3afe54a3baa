"""Every spec and sampler rejects bad input with a ValueError that says
what is wrong, never with a traceback from deeper down."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mildspde.harness import (LadderRow, ReferenceSpec, ReportRow, StudyConfig,
                              StudyReport, estimate_sup_second_moment, measure_order,
                              paper_reference)
from mildspde.cost import cost_formula, ledger_expected
from mildspde.eoc import PlanInput, optimal_resolution
from mildspde.noise import (alg1_iterated_batch, alg1_iterated_nested, alg2_iterated_batch,
                            choose_D1, choose_D2, sample_increments_batch, substream)
from mildspde.problems import make_example, make_problem_from_config
from mildspde.schemes import SchemeConfig

RANGE = "needs 1 <= K <= N and M >= 1"
EX1 = {"p": "4/3", "rho_q": 3, "gamma": "7/8", "delta": "3/8", "alpha": "9/4"}


def _study(**overrides):
    fields = dict(problem=make_example(1), rows=(LadderRow("EES", n=4, m=8, k=2),),
                  reference=ReferenceSpec("LIE", n=8, k=2, m=64), paths=4, seed=0)
    return StudyConfig(**{**fields, **overrides})


def _report(*rows):
    return StudyReport(rows=tuple(
        ReportRow(scheme, n=4, m=m, k=2, d=None, cost_formula=10 * m, cost_ledger=10 * m,
                  error=error, std=0.0, paths=4)
        for scheme, m, error in rows), config_echo={})


_PLAN = PlanInput.from_problem(make_example(1), "DFM")
_ORDERED = _report(("EES", 8, 0.4), ("EES", 16, 0.2), ("EES", 32, 0.1))


def _samplers():
    # every sampler, as (db, h, eta) -> result
    return {
        "batch": lambda db, h, eta: alg1_iterated_batch(substream(0, 0), db, h, 3, eta),
        "nested": lambda db, h, eta: alg1_iterated_nested(substream(0, 0), db, h, [1, 3], eta),
        "alg2": lambda db, h, eta: alg2_iterated_batch(substream(0, 0), db, h, 3, eta),
    }


def _rejects():
    # name -> (build, the start of the expected message)
    cases = {
        "scheme-N": (lambda: SchemeConfig("EES", n=4.0, k=2, m=8), "N must be an integer"),
        "scheme-K": (lambda: SchemeConfig("EES", n=4, k=2.0, m=8), "K must be an integer"),
        "scheme-M": (lambda: SchemeConfig("EES", n=4, k=2, m=8.0), "M must be an integer"),
        "scheme-K>N": (lambda: SchemeConfig("EES", n=4, k=8, m=8),
                       f"scheme {RANGE}, got N=4, K=8, M=8"),
        "scheme-M<1": (lambda: SchemeConfig("EES", n=4, k=2, m=0),
                       f"scheme {RANGE}, got N=4, K=2, M=0"),
        "row-K>N": (lambda: LadderRow("EES", n=2, m=8, k=3), f"row {RANGE}, got N=2, K=3"),
        "row-K<1": (lambda: LadderRow("EES", n=2, m=8, k=0), f"row {RANGE}, got N=2, K=0"),
        "row-M<1": (lambda: LadderRow("EES", n=4, m=0, k=2), f"row {RANGE}, got N=4, K=2, M=0"),
        "row-milstein-without-D": (lambda: LadderRow("DFM", n=4, m=8, k=2),
                                   "Milstein-type rows need a series depth"),
        "row-euler-with-D": (lambda: LadderRow("EES", n=4, m=8, k=2, d=3),
                             "Euler-type rows take no series depth"),
        "reference-K>N": (lambda: ReferenceSpec("LIE", n=2, k=3, m=64),
                          f"reference {RANGE}, got N=2, K=3"),
        "reference-M<1": (lambda: ReferenceSpec("LIE", n=8, k=2, m=0),
                          f"reference {RANGE}, got N=8, K=2, M=0"),
        "study-no-rows": (lambda: _study(rows=()), "the ladder has no rows"),
        "study-error-at": (lambda: _study(error_at="last"), "error_at must be"),
        "study-error-space": (lambda: _study(error_space="state"), "error_space must be"),
        "study-workers": (lambda: _study(workers=0), "worker count must be >= 1"),
        # a row finer than the reference would put two of its points in one
        # lattice step; it is refused before any draw
        "study-row-M>reference-M": (lambda: _study(rows=(LadderRow("EES", n=4, m=65, k=2),)),
                                    "row M=65 exceeds reference M=64"),
        "study-M-overflow": (lambda: _study(rows=(LadderRow("EES", n=4, m=2**32, k=2),),
                                            reference=ReferenceSpec("LIE", n=8, k=2, m=2**32)),
                             f"row M={2**32} times reference M={2**32} must stay below 2^63"),
        "row-N=True": (lambda: LadderRow("EES", n=True, k=True, m=8),
                       "N must be an integer, got True"),
        "study-seed=True": (lambda: _study(seed=True),
                            "seed must be a non-negative integer, got True"),
        "study-workers=True": (lambda: _study(workers=True),
                               "workers must be an integer, got True"),
        "sup-moment-paths=0": (lambda: estimate_sup_second_moment(
            make_example(1), "DFM", 4, 2, 8, paths=0, seed=1), "paths must be >= 1, got 0"),
        "sup-moment-paths=2.5": (lambda: estimate_sup_second_moment(
            make_example(1), "DFM", 4, 2, 8, paths=2.5, seed=1),
                                 "paths must be an integer, got 2.5"),
        "substream-key=2.5": (lambda: substream(1, 2.5),
                              "substream key 0 must be a non-negative integer, got 2.5"),
        "substream-key=-1": (lambda: substream(1, 0, -1),
                             "substream key 1 must be a non-negative integer, got -1"),
        "choose-D1-m=True": (lambda: choose_D1(True, Fraction(1)), "m must be an integer, got True"),
        "choose-D1-m=0": (lambda: choose_D1(0, Fraction(1)), "m must be >= 1, got 0"),
        "choose-D2-k=True": (lambda: choose_D2(True, 4), "k must be an integer, got True"),
        "choose-D2-d1=True": (lambda: choose_D2(4, True), "d1 must be an integer, got True"),
        "choose-D2-d1=0": (lambda: choose_D2(4, 0), "k and d1 must be >= 1, got k=4, d1=0"),
        "resolution-anchor=True": (lambda: optimal_resolution(_PLAN, True),
                                   "anchor_n must be an integer, got True"),
        "resolution-anchor=2.0": (lambda: optimal_resolution(_PLAN, 2.0),
                                  "anchor_n must be an integer, got 2.0"),
        "resolution-anchor=0": (lambda: optimal_resolution(_PLAN, 0),
                                "anchor_n must be >= 1, got 0"),
        "increments-s=2.5": (lambda: sample_increments_batch(substream(0, 0), 2.5, 2, 0.1),
                             "s must be an integer, got 2.5"),
        "increments-s=True": (lambda: sample_increments_batch(substream(0, 0), True, 2, 0.1),
                              "s must be an integer, got True"),
        "increments-s=-1": (lambda: sample_increments_batch(substream(0, 0), -1, 2, 0.1),
                            "s must be >= 0 and k >= 1, got s=-1, k=2"),
        "increments-k=0": (lambda: sample_increments_batch(substream(0, 0), 3, 0, 0.1),
                           "s must be >= 0 and k >= 1, got s=3, k=0"),
        "cost-N=2.5": (lambda: cost_formula("EES", 2.5, 2, 4), "N must be an integer, got 2.5"),
        "cost-N=True": (lambda: cost_formula("EES", True, 1, 4),
                        "N must be an integer, got True"),
        "cost-M=8.0": (lambda: cost_formula("DFM", 4, 2, 8.0, Fraction(7, 8)),
                       "M must be an integer, got 8.0"),
        "cost-K=0": (lambda: cost_formula("EES", 4, 0, 4), "resolutions must be positive"),
        "ledger-D=2.5": (lambda: ledger_expected("DFM", 4, 2, 2.5),
                         "D must be an integer, got 2.5"),
        "ledger-K=True": (lambda: ledger_expected("EES", 4, True),
                          "K must be an integer, got True"),
        "ledger-N=0": (lambda: ledger_expected("EES", 0, 1), "resolutions must be positive"),
        "paper-reference": (lambda: paper_reference(3), "published reference resolutions"),
        "paper-reference=True": (lambda: paper_reference(True),
                                 "example_id must be an integer, got True"),
        "paper-reference=2.0": (lambda: paper_reference(2.0),
                                "example_id must be an integer, got 2.0"),
        "example=True": (lambda: make_example(True),
                         "unknown example id True (example_id must be 1, 2 or 3)"),
        "example=1.0": (lambda: make_example(1.0),
                        "unknown example id 1.0 (example_id must be 1, 2 or 3)"),
        "plan-gamma=1/0": (lambda: PlanInput(gamma="1/0", beta=0, alpha=1, rho_a=2, rho_q=3),
                           "gamma has an invalid value '1/0'"),
        "plan-alpha=x": (lambda: PlanInput(gamma=1, beta=0, alpha="x", rho_a=2, rho_q=3),
                         "alpha has an invalid value 'x'"),
        "order-axis": (lambda: measure_order(_ORDERED, axis="N"), "axis must be"),
        "order-mixed": (lambda: measure_order(_report(("EES", 8, 0.4), ("LIE", 16, 0.2),
                                                      ("EES", 32, 0.1))),
                        "report mixes schemes"),
        "order-zero-error": (lambda: measure_order(replace(_ORDERED, rows=(
            replace(_ORDERED.rows[0], error=0.0),) + _ORDERED.rows[1:])),
                             "order fit needs strictly positive errors"),
        "config-drift": (lambda: make_problem_from_config({**EX1, "drift": "cubic"}),
                         "unknown drift variant 'cubic'"),
        "config-initial": (lambda: make_problem_from_config({**EX1, "initial": "one"}),
                           "unknown initial-value law 'one'"),
        "config-p-null": (lambda: make_problem_from_config({**EX1, "p": None}),
                          "config key p has an invalid value None"),
        "config-gamma-list": (lambda: make_problem_from_config({**EX1, "gamma": [1]}),
                              "config key gamma has an invalid value [1]"),
        "config-power-null": (lambda: make_problem_from_config({**EX1,
                                                                "initial": {"power": None}}),
                              "config key initial.power has an invalid value None"),
        "config-drift-list": (lambda: make_problem_from_config({**EX1, "drift": ["x"]}),
                              "unknown drift variant ['x']"),
        "config-horizon-text": (lambda: make_problem_from_config({**EX1, "horizon": "x"}),
                                "config key horizon has an invalid value 'x'"),
        "config-not-an-object": (lambda: make_problem_from_config([EX1]),
                                 "a problem config must be a JSON object, got list"),
    }
    db, eta = np.zeros((3, 2)), np.ones(2)
    depth = {
        "batch-D=2.5": lambda: alg1_iterated_batch(substream(0, 0), db, 0.1, 2.5, eta),
        "alg2-D=2.5": lambda: alg2_iterated_batch(substream(0, 0), db, 0.1, 2.5, eta),
        "nested-D=2.5": lambda: alg1_iterated_nested(substream(0, 0), db, 0.1, [2.5, 3], eta),
    }
    for name, build in depth.items():
        cases[name] = (build, "D must be an integer, got 2.5")
    for name, sample in _samplers().items():
        for h in (0.0, -0.1, np.inf, np.nan):
            cases[f"{name}-h={h}"] = (lambda sample=sample, h=h: sample(db, h, eta),
                                      "step length must be positive and finite")
        cases[f"{name}-eta"] = (lambda sample=sample: sample(db, 0.1, np.ones(3)),
                                "eta length does not match increment count")
        cases[f"{name}-1d"] = (lambda sample=sample: sample(np.zeros(2), 0.1, eta),
                               "delta_beta must have shape (s, k), got (2,)")
        for bad in (-1.0, np.nan, np.inf):
            cases[f"{name}-eta={bad}"] = (
                lambda sample=sample, bad=bad: sample(db, 0.1, np.array([1.0, bad])),
                "eta must be finite and non-negative")
    for name, sampler in (("batch", alg1_iterated_batch), ("alg2", alg2_iterated_batch)):
        for what, bad, got in (
                ("shape", np.empty((3, 2, 3)), "float64 array of shape (3, 2, 3)"),
                ("dtype", np.empty((3, 2, 2), dtype=np.float32), "float32 array of shape"),
                ("strided", np.empty((3, 2, 4))[..., :2], "float64 array of shape (3, 2, 2)"),
                ("list", [[0.0]], "list")):
            cases[f"{name}-out-{what}"] = (
                lambda sampler=sampler, bad=bad: sampler(substream(0, 0), db, 0.1, 3, eta,
                                                         out=bad),
                "out must be a writable C-contiguous float64 array of shape (3, 2, 2), "
                f"got {got}")
    return cases


REJECTS = _rejects()


@pytest.mark.parametrize("case", REJECTS)
def test_every_spec_rejects(case):
    build, message = REJECTS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()
