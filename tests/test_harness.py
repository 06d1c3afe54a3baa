import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mildspde.cost import cost_formula, ledger_expected
from mildspde.harness import (LadderRow, ReferenceSpec, StudyConfig, StudyReport,
                              estimate_ms_error, fit_loglog, measure_order,
                              paper_reference, plan_rows, run_study,
                              scaled_reference)
from mildspde.problems import (ProblemSpec, PowerLawInitial, ZeroDiffusion,
                               ZeroDrift, make_example)


class _OverflowDrift:
    """Drift whose first evaluation already overflows to inf (test-local)."""

    def __call__(self, y):
        with np.errstate(over="ignore"):
            return np.square(1e200 + np.abs(y))


def _synthetic_report(scheme, ms, errors, costs=None):
    from mildspde.harness import ReportRow
    rows = []
    for i, (m, e) in enumerate(zip(ms, errors)):
        rows.append(ReportRow(scheme=scheme, n=4, m=m, k=2,
                              d=None if scheme in ("EES", "LIE") else 3,
                              cost_formula=costs[i] if costs else m * 10,
                              cost_ledger=m * 10, error=e, std=0.0, paths=100))
    return StudyReport(rows=tuple(rows), config_echo={})


def test_estimate_ms_error_trivial_cases():
    assert estimate_ms_error([0.0, 0.0, 0.0]) == (0.0, 0.0)
    err, std = estimate_ms_error([4.0, 4.0, 4.0])
    assert err == 2.0 and std == 0.0
    with pytest.raises(ValueError):
        estimate_ms_error([1.0])


def test_estimate_ms_error_chi_square_oracle():
    # squared errors ~ chi2(3): error estimate -> sqrt(3), delta-method std
    rng = np.random.default_rng(0)
    sq = rng.chisquare(3, size=10_000)
    err, std = estimate_ms_error(sq)
    assert abs(err - math.sqrt(3)) < 4 * std


def test_measure_order_exact_power_laws():
    ms = [16, 32, 64, 128, 256]
    errors = [3.0 * m ** (-7 / 8) for m in ms]
    fit = measure_order(_synthetic_report("EES", ms, errors), axis="M")
    assert fit.slope == pytest.approx(-0.875, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    costs = [m * 10 for m in ms]
    errors_c = [2.0 * c ** (-27 / 58) for c in costs]
    fit_c = measure_order(_synthetic_report("EES", ms, errors_c, costs), axis="cost")
    assert fit_c.slope == pytest.approx(-27 / 58, abs=1e-12)


def test_measure_order_constant_and_degenerate():
    fit = measure_order(_synthetic_report("EES", [8, 16, 32], [0.5, 0.5, 0.5]))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        measure_order(_synthetic_report("EES", [8, 16], [1.0, 0.5]))
    with pytest.raises(ValueError):
        fit_loglog([8, 8, 8], [1, 1, 1])


def test_reference_presets():
    ref = paper_reference(1)
    assert (ref.kind, ref.n, ref.k, ref.m) == ("LIE", 64, 3, 185364)
    ref2 = paper_reference(2)
    assert (ref2.k, ref2.m) == (3, 18391)
    assert scaled_reference().m == 2**14


def test_plan_rows_match_planner():
    prob = make_example(1)
    rows = plan_rows(prob, ["DFM", "EES"], [2, 4, 8])
    dfm = [r for r in rows if r.scheme == "DFM"]
    assert [(r.n, r.m, r.k) for r in dfm] == [(2, 4, 2), (4, 16, 2), (8, 64, 2)]
    assert dfm[2].d == 23
    ees = [r for r in rows if r.scheme == "EES"]
    assert [r.m for r in ees] == [12, 128, 1449]


def test_reference_row_has_zero_error():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=32)
    rows = (LadderRow("LIE", n=8, m=32, k=2),)
    rep = run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                                paths=4, seed=3))
    assert rep.rows[0].error == 0.0 and rep.rows[0].std == 0.0


def test_pure_heat_flow_error_is_spectral_tail():
    base = make_example(1)
    prob = ProblemSpec("heat", base.a_law, base.q_law, ZeroDrift(),
                       ZeroDiffusion(), PowerLawInitial(2.0), base.params)
    ref = ReferenceSpec("EES", n=8, k=2, m=64)
    rows = (LadderRow("EES", n=4, m=16, k=2), LadderRow("DFM", n=4, m=16, k=2, d=3))
    rep = run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                                paths=3, seed=0))
    lam = prob.a_law.values(8)
    xi = prob.initial_coeffs(8)
    tail = math.sqrt(sum((math.exp(-lam[i]) * xi[i]) ** 2 for i in range(4, 8)))
    for row in rep.rows:
        assert row.error == pytest.approx(tail, rel=1e-12)
        assert row.std == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_study_determinism_and_worker_independence(workers):
    # two lattice groups (M = 12 does not divide 128) of 5 paths each, split
    # into chunks of 5 + 5, 5 + 5 and 3+2 + 3+2 paths at 1, 2 and 3 workers
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=128)
    rows = (LadderRow("DFM", n=4, m=16, k=2, d=8),
            LadderRow("EES", n=4, m=32, k=2),
            LadderRow("MIL", n=4, m=16, k=2, d=8),
            LadderRow("DFM", n=4, m=12, k=2, d=4))
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=5, seed=11)
    serial = run_study(cfg)
    pooled = run_study(replace(cfg, workers=workers))
    assert serial.csv_text() == pooled.csv_text()
    assert serial.json_text() == pooled.json_text()


def test_chunk_size_spreads_workers_over_lattice_groups():
    from mildspde.harness import _CHUNK_NOISE_ELEMS, _chunk_size
    # six groups already keep two workers busy: one chunk per group
    assert _chunk_size(paths=6, workers=2, groups=6, noise_per_path=100) == 6
    # one group needs two chunks
    assert _chunk_size(paths=5, workers=2, groups=1, noise_per_path=100) == 3
    assert _chunk_size(paths=5, workers=3, groups=2, noise_per_path=100) == 3
    assert _chunk_size(paths=500, workers=1, groups=6, noise_per_path=100) == 500
    # the stacked-noise cap still binds, down to one path per chunk
    assert _chunk_size(6, 2, 6, _CHUNK_NOISE_ELEMS // 2) == 2
    assert _chunk_size(6, 2, 6, 2 * _CHUNK_NOISE_ELEMS) == 1


def test_coupling_aggregation_reproduces_endpoint():
    # block sums of the fine increments telescope to the fine endpoint
    # displacement; differences are summation-order roundoff only
    from mildspde.noise import sample_increments_batch, substream
    fine = sample_increments_batch(substream(0, 1), 4096, 3, 1 / 4096)
    coarse = fine.reshape(64, 64, 3).sum(axis=1)
    np.testing.assert_allclose(coarse.sum(axis=0), fine.sum(axis=0),
                               rtol=1e-12, atol=1e-15)


def test_report_ledger_equals_steps_times_expected():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=3, m=64)
    rows = (LadderRow("DFM", n=8, m=16, k=2, d=8),
            LadderRow("MIL", n=6, m=8, k=2, d=5),
            LadderRow("EES", n=8, m=32, k=3),
            LadderRow("LIE", n=4, m=64, k=2))
    rep = run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                                paths=3, seed=5))
    for row in rep.rows:
        exp = ledger_expected(row.scheme, row.n, row.k, row.d)
        assert row.cost_ledger == row.m * exp.total()


def test_report_cost_formula_column():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    rows = (LadderRow("DFM", n=4, m=16, k=2, d=8),)
    rep = run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                                paths=2, seed=1))
    assert rep.rows[0].cost_formula == cost_formula("DFM", 4, 2, 16,
                                                    prob.params.q_dfm)


def test_all_grid_error_dominates_final():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    rows = (LadderRow("EES", n=4, m=16, k=2),)
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=6, seed=2)
    final = run_study(cfg).rows[0].error
    grid = run_study(replace(cfg, error_at="all-grid")).rows[0].error
    assert grid >= final - 1e-15


def test_error_space_row_projects_the_reference():
    # "row" truncates the reference to the row's N; "reference" zero-extends
    # the row, so it adds the reference's tail mass above the row's N
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    rows = (LadderRow("EES", n=8, m=16, k=2), LadderRow("DFM", n=4, m=16, k=2, d=8))
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=4, seed=6)
    tail = run_study(cfg).rows
    own = run_study(replace(cfg, error_space="row")).rows
    assert (own[0].error, own[0].std) == (tail[0].error, tail[0].std)
    assert 0 < own[1].error <= tail[1].error
    # without noise or drift every scheme is the exact semigroup, so the
    # row-space error is roundoff and the reference-space one is the tail
    heat = ProblemSpec("heat", prob.a_law, prob.q_law, ZeroDrift(),
                       ZeroDiffusion(), PowerLawInitial(2.0), prob.params)
    rows = (LadderRow("EES", n=4, m=16, k=2),)
    cfg = replace(cfg, problem=heat, rows=rows, reference=ReferenceSpec("EES", n=8, k=2, m=64))
    assert run_study(replace(cfg, error_space="row")).rows[0].error < 1e-12
    assert run_study(cfg).rows[0].error > 1e-3


def test_incompatible_row_gets_own_lattice():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    rows = (LadderRow("EES", n=4, m=12, k=2),)   # 12 does not divide 64
    rep = run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                                paths=3, seed=4))
    assert rep.config_echo["lattices"]["0"] == 72
    assert rep.rows[0].error > 0


def test_guardrail_rejects_oversized_study():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=2**20)
    rows = (LadderRow("EES", n=4, m=16, k=2),)
    with pytest.raises(ValueError):
        run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                              paths=10_000_000, seed=0))


def test_config_validation():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    with pytest.raises(ValueError):
        StudyConfig(problem=prob, rows=(LadderRow("EES", n=16, m=8, k=2),),
                    reference=ref, paths=4, seed=0)      # row N > ref N
    with pytest.raises(ValueError):
        StudyConfig(problem=prob, rows=(LadderRow("EES", n=8, m=8, k=3),),
                    reference=ref, paths=4, seed=0)      # row K > ref K
    with pytest.raises(ValueError):
        StudyConfig(problem=prob, rows=(LadderRow("EES", n=4, m=8, k=2),),
                    reference=ref, paths=1, seed=0)      # too few paths


def test_csv_layout():
    rep = _synthetic_report("DFM", [4, 8, 16], [0.5, 0.25, 0.125])
    text = rep.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "scheme,N,M,K,D,cost_formula,cost_ledger,error,std,paths"
    assert lines[1].startswith("DFM,4,4,2,3,")


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_path_is_reported(workers):
    prob = replace(make_example(1), drift=_OverflowDrift())
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    rows = (LadderRow("DFM", n=4, m=16, k=2, d=8), LadderRow("EES", n=4, m=16, k=2))
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=4, seed=3,
                      workers=workers)
    # integrate stops at the first non-finite block, without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError,
                           match="non-finite state: seed 3, group 0, path 0, scheme LIE"):
            run_study(cfg)
