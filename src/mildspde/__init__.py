"""Spectral Galerkin solvers for semilinear SPDEs with non-commutative
trace-class noise, with cost accounting and effective-order planning."""

__version__ = "0.1.0"

from .cost import CostLedger, StepCounts, cost_formula, ledger_expected
from .eoc import PlanInput, classify, eoc_exponent, optimal_resolution
from .harness import (LadderRow, OrderFit, ReferenceSpec, StudyConfig,
                      StudyReport, estimate_ms_error, measure_order,
                      paper_reference, plan_rows, run_study, scaled_reference)
from .noise import (NoisePacket, alg1_iterated_batch, alg1_iterated_nested,
                    chain_arrays, choose_D1, choose_D2, exact_second_moment,
                    sample_increments_batch, substream)
from .problems import (ProblemSpec, RegularityParams, check_growth_bounds,
                       commutativity_defect, make_example,
                       make_problem_from_config)
from .schemes import SchemeConfig, integrate
from .spectral import EigenLaw

__all__ = [
    "CostLedger", "StepCounts", "cost_formula", "ledger_expected",
    "PlanInput", "classify", "eoc_exponent", "optimal_resolution",
    "LadderRow", "OrderFit", "ReferenceSpec", "StudyConfig", "StudyReport",
    "estimate_ms_error", "measure_order", "paper_reference", "plan_rows",
    "run_study", "scaled_reference",
    "NoisePacket", "alg1_iterated_batch", "alg1_iterated_nested",
    "chain_arrays", "choose_D1", "choose_D2", "exact_second_moment",
    "sample_increments_batch", "substream",
    "ProblemSpec", "RegularityParams", "check_growth_bounds",
    "commutativity_defect", "make_example", "make_problem_from_config",
    "SchemeConfig", "integrate",
    "EigenLaw",
]
