import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mildspde.cost import cost_formula, ledger_expected
from mildspde.harness import (LadderRow, ReferenceSpec, StudyConfig, StudyReport,
                              estimate_ms_error, estimate_sup_second_moment, fit_loglog,
                              measure_order, paper_reference, plan_rows, run_study)
from mildspde.noise import choose_D1, choose_D2
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
    # M = 12 does not divide 128, so that row is bridged; 5 paths run in
    # chunks of 5, 3 + 2 and 2 + 2 + 1 at 1, 2 and 3 workers
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


@pytest.mark.parametrize("ref_kind", ["LIE", "DFM"])
@pytest.mark.parametrize("error_at", ["final", "all-grid"])
def test_reports_are_independent_of_the_block_size(monkeypatch, ref_kind, error_at):
    # blocks of 1, 3, 5 and 37 lattice steps cut the rows' grid steps (8
    # and 4 lattice steps at M = 16 and 32), the bridged grid's (128 / 12)
    # and the Milstein grids' series, which continue block after block;
    # every report keeps the bytes of the default blocks
    import mildspde.harness as harness
    prob = make_example(1)
    ref = ReferenceSpec(ref_kind, n=8, k=2, m=128)
    rows = (LadderRow("DFM", n=4, m=16, k=2, d=8),
            LadderRow("EES", n=4, m=32, k=2),
            LadderRow("MIL", n=4, m=16, k=2, d=8),
            LadderRow("DFM", n=4, m=12, k=2, d=4))
    if error_at == "all-grid":
        rows = rows[:3]                   # all-grid takes no bridged row
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=5, seed=11,
                      error_at=error_at)
    default = run_study(cfg)
    per_step = harness._study_feed(cfg, 0, cfg.paths).elems_per_step()
    monkeypatch.setattr(harness, "_BLOCK_MIN_STEPS", 1)
    for steps in (1, 3, 5, 37):
        monkeypatch.setattr(harness, "_BLOCK_ELEMS", steps * cfg.paths * per_step)
        assert harness._block_steps(cfg.paths, per_step) == steps
        rep = run_study(cfg)
        assert rep.csv_text() == default.csv_text()
        assert rep.json_text() == default.json_text()


def test_study_memory_does_not_grow_with_the_lattice_noise():
    # a one-worker chunk holds all its paths, but only one block of their
    # noise: four times the paths add their observed states, not their
    # lattices (here 4096 x (4 + 16) noise elements, 655 KB, per path)
    import tracemalloc
    prob = make_example(1)
    ref = ReferenceSpec("MIL", n=8, k=4, m=4096)
    rows = (LadderRow("DFM", n=4, m=64, k=4, d=8), LadderRow("EES", n=8, m=256, k=4),
            LadderRow("EES", n=4, m=96, k=2))
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=2, seed=0)

    def peak(paths):
        tracemalloc.start()
        try:
            run_study(replace(cfg, paths=paths))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)                               # fills the problem's per-dimension caches
    small, large = peak(4), peak(16)
    # (paths, observed steps, N) states: the reference's at its one observed
    # lattice step and the rows' final ones
    states = 16 * 8 * (ref.n + sum(r.n for r in rows))
    assert large - small <= states + 256 * 1024


def test_chunk_size_spreads_paths_over_workers():
    from mildspde.harness import _chunk_size
    # one chunk per worker, whatever a path's noise
    assert _chunk_size(paths=6, workers=2) == 3
    assert _chunk_size(paths=5, workers=2) == 3
    assert _chunk_size(paths=5, workers=3) == 2
    assert _chunk_size(paths=500, workers=1) == 500
    assert _chunk_size(paths=6, workers=6) == 1


def _lattice_w(lattice, ms, paths, seed, k=2):
    """W at the lattice points 0..L and the increments of every grid in ms
    that one feed reads off that W in one block, every path drawing from
    one generator."""
    from mildspde.harness import _NoiseFeed
    rngs = [np.random.default_rng(seed)] * paths
    feed = _NoiseFeed(1.0, lattice, np.ones(k), rngs,
                      grids=[(m, None if lattice % m == 0 else rngs) for m in ms])
    db = feed.lattice_noise(0, lattice)[0]
    incs = feed.grid_noise(db, 0, lattice)[0]
    return np.concatenate([np.zeros((paths, 1, k)), np.cumsum(db, axis=1)], axis=1), incs


def _bridged_grids(lattice, ms, paths, seed, k=2):
    """W at the lattice points 0..L and at the points 0..M of every grid in
    ms."""
    w, incs = _lattice_w(lattice, ms, paths, seed, k)
    return w, {m: np.concatenate([w[:, :1], np.cumsum(incs[m], axis=1)], axis=1) for m in ms}


def test_bridge_increments_sum_to_lattice_increments():
    lattice_w, grids = _bridged_grids(64, [12, 24, 96], paths=3, seed=1)
    for m, w in grids.items():
        inc = np.diff(w, axis=1)
        # grid point j of m is lattice point 64 j / m when 3 divides j
        for j in range(3, m + 1, 3):
            np.testing.assert_allclose(inc[:, :j].sum(axis=1), lattice_w[:, 64 * j // m],
                                       rtol=0, atol=1e-14)


def test_bridge_values_have_brownian_covariance():
    # W(s) at every inner grid time of M = 3, 5 and 7 on an 8-step lattice,
    # all bridged: Cov(W(s), W(t)) = min(s, t) within each grid, and across
    # grids for times in different lattice steps (two grids' draws in one
    # step are independent given the lattice)
    ms = [3, 5, 7]
    _, grids = _bridged_grids(8, ms, paths=40_000, seed=2, k=1)
    times = np.concatenate([np.arange(1, m) / m for m in ms])
    grid = np.concatenate([np.full(m - 1, m) for m in ms])
    cell = np.floor(8 * times)
    w = np.concatenate([grids[m][:, 1:-1, 0] for m in ms], axis=1)
    cov = w.T @ w / w.shape[0]
    coupled = np.equal.outer(grid, grid) | np.not_equal.outer(cell, cell)
    np.testing.assert_allclose(cov[coupled], np.minimum.outer(times, times)[coupled],
                               atol=0.02)
    assert np.abs(w.mean(axis=0)).max() < 0.02


def test_rows_off_the_lattice_fail_where_no_bridge_serves():
    prob = make_example(1)
    lie = ReferenceSpec("LIE", n=8, k=2, m=64)
    with pytest.raises(ValueError, match="EES M=12 does not divide the reference M=64"):
        StudyConfig(problem=prob, rows=(LadderRow("EES", n=4, m=12, k=2),),
                    reference=lie, paths=3, seed=0, error_at="all-grid")
    # a Milstein-type row samples its series from its own bridged
    # increments, so it runs under a Milstein-type reference too
    mil = ReferenceSpec("MIL", n=8, k=2, m=64, d=4)
    cfg = StudyConfig(problem=prob, rows=(LadderRow("DFM", n=4, m=12, k=2, d=4),),
                      reference=mil, paths=3, seed=0)
    serial = run_study(cfg)
    assert 0 < serial.rows[0].error < math.inf
    assert 0 < serial.rows[0].std < math.inf
    assert serial.csv_text() == run_study(replace(cfg, workers=2)).csv_text()
    # and so do Euler-type rows
    StudyConfig(problem=prob, rows=(LadderRow("EES", n=4, m=12, k=2),),
                reference=mil, paths=3, seed=0)


def _fed(lattice, ms, cuts, paths=3, k=2, seed=3):
    """Every grid's increments (the lattice's own included) and the series
    of the Milstein grid M = 16, fed through the blocks between the cuts
    from one set of per-path generators; and the feed."""
    from mildspde.harness import _NoiseFeed
    from mildspde.noise import substream

    def streams(purpose, *m):
        return [substream(seed, purpose, p, *m) for p in range(paths)]

    grids = [(m, None if lattice % m == 0 else streams(2, m)) for m in ms]
    feed = _NoiseFeed(1.0, lattice, np.arange(1.0, k + 1) ** -3, streams(1),
                      grids=grids, series=[(16, k, 4, streams(3, 16))])
    parts = [feed.grid_noise(feed.lattice_noise(a, b)[0], a, b)
             for a, b in zip(cuts[:-1], cuts[1:])]
    incs = {m: np.concatenate([inc[m] for inc, _ in parts], axis=1) for m in parts[0][0]}
    return incs, np.concatenate([iq[16] for _, iq in parts if 16 in iq], axis=1), feed


def test_every_grid_reads_its_increments_off_w():
    # a row grid steps on the differences of W at its points, fed block by
    # block: dividing (8, 16) and bridged (12, 24, 96) grids telescope to
    # W(T), a dividing grid's equal the lattice block sums up to roundoff,
    # and blocks of 1, 2, 3, 5, 37 or every step give one block's bytes
    lattice, paths, k = 64, 3, 2
    ms = [8, 12, 16, 24, 96]
    incs, iq, feed = _fed(lattice, ms, [0, lattice])
    db = incs[lattice]
    assert db.shape == (paths, lattice, k) and iq.shape == (paths, 16, k, k)
    for m in ms:
        inc = incs[m]
        assert inc.shape == (paths, m, k)
        np.testing.assert_allclose(inc.sum(axis=1), feed.w_start, rtol=0, atol=1e-14)
        if lattice % m == 0:
            sums = db.reshape(paths, m, lattice // m, k).sum(axis=2)
            assert np.abs(inc - sums).max() <= 1e-12 * np.abs(sums).max()
    for cuts in ([0, 1, 3, 6, 11, 48, 64], list(range(65))):
        split, split_iq, _ = _fed(lattice, ms, cuts)
        assert split.keys() == incs.keys()
        assert all(np.array_equal(split[m], incs[m]) for m in incs)
        assert np.array_equal(split_iq, iq)


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


def test_incompatible_row_is_bridged():
    # 12 does not divide 64: the row is bridged off the one reference
    # lattice, and a row on the lattice keeps its bytes
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    on_lattice = LadderRow("EES", n=4, m=16, k=2)
    cfg = StudyConfig(problem=prob, rows=(on_lattice,), reference=ref,
                      paths=3, seed=4)
    alone = run_study(cfg)
    both = run_study(replace(cfg, rows=(on_lattice, LadderRow("EES", n=4, m=12, k=2))))
    assert "lattices" not in both.config_echo
    assert both.rows[0] == alone.rows[0]
    assert 0 < both.rows[1].error < math.inf


def test_bridged_row_is_independent_of_other_bridged_rows():
    # 12 and 24 do not divide 64: each grid draws its bridge points from its
    # own substream, so the EES row keeps its bytes next to the DFM row
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    ees = LadderRow("EES", n=4, m=12, k=2)
    cfg = StudyConfig(problem=prob, rows=(ees,), reference=ref, paths=4, seed=9)
    alone = run_study(cfg)
    both = run_study(replace(cfg, rows=(ees, LadderRow("DFM", n=4, m=24, k=2, d=4))))
    assert both.rows[0] == alone.rows[0]


# one reference of each kind: every Milstein-type M samples its own series
# under either
REFERENCE_KINDS = pytest.mark.parametrize("ref_kind", ["LIE", "DFM"])


@REFERENCE_KINDS
def test_milstein_row_on_the_lattice_is_independent_of_other_rows(ref_kind):
    # each Milstein-type M samples its own series, so a MIL row at M = 32
    # leaves the DFM row at M = 16 as it was
    prob = make_example(1)
    ref = ReferenceSpec(ref_kind, n=8, k=2, m=64)
    dfm = LadderRow("DFM", n=4, m=16, k=2, d=8)
    cfg = StudyConfig(problem=prob, rows=(dfm,), reference=ref, paths=3, seed=5)
    alone = run_study(cfg)
    both = run_study(replace(cfg, rows=(dfm, LadderRow("MIL", n=4, m=32, k=2, d=14))))
    assert both.rows[0] == alone.rows[0]


@REFERENCE_KINDS
def test_milstein_row_on_the_lattice_samples_at_its_own_depth(ref_kind):
    prob = make_example(1)
    ref = ReferenceSpec(ref_kind, n=8, k=2, m=64)
    cfg = StudyConfig(problem=prob, rows=(LadderRow("DFM", n=4, m=16, k=2, d=1),),
                      reference=ref, paths=3, seed=5)
    shallow = run_study(cfg).rows[0]
    deep = run_study(replace(cfg, rows=(LadderRow("DFM", n=4, m=16, k=2, d=8),))).rows[0]
    assert (shallow.d, deep.d) == (1, 8)
    assert shallow.error != deep.error


def test_json_echo_gives_the_reference_depth_that_ran():
    prob = make_example(1)
    rows = (LadderRow("EES", n=4, m=16, k=2),)
    lie = run_study(StudyConfig(problem=prob, rows=rows, paths=2, seed=0,
                                reference=ReferenceSpec("LIE", n=8, k=2, m=64)))
    lie_echo = json.loads(lie.json_text())["config"]["reference"]
    assert lie_echo["D"] is None and lie_echo.get("series") is None
    # a Milstein-type reference left unset runs Algorithm 2 at the D2 depth
    # matching the D1 rule at its M
    dfm = ReferenceSpec("DFM", n=8, k=2, m=64)
    cfg = StudyConfig(problem=prob, rows=rows, paths=2, seed=0, reference=dfm)
    rep = run_study(cfg)
    d1 = choose_D1(64, prob.params.q_dfm)
    d2 = choose_D2(2, d1)
    assert 1 < d2 < d1
    echo = json.loads(rep.json_text())["config"]["reference"]
    assert (echo["D"], echo["series"]) == (d2, "alg2")
    explicit = replace(dfm, d=d2)
    assert rep.json_text() == run_study(replace(cfg, reference=explicit)).json_text()
    assert rep.csv_text() != run_study(replace(cfg, reference=replace(dfm, d=d1))).csv_text()


# sha256 of the CSV and JSON of the full-tier example 2 study (LIE
# reference, 6 paths, seed 8002). Its rows sample Algorithm 1 under an
# Euler-type reference, so the Milstein-type reference's sampler must not
# move these bytes; no row M divides the reference M = 18391, so every row
# reads bridge points from its own M's substream (pinned with numpy 2.4
# and its bundled OpenBLAS)
FULLTIER_EX2_SHA256 = (
    "3d2606ebae2183fc395bdb10333588d34288f5c63fad4974012d7210db60cb78",
    "d907b884224661c5d44a7c63095dcc7653d25b0bd6d72c2cc9c2f459e2cba0d4",
)


def test_euler_type_reference_study_is_unchanged():
    prob = make_example(2)
    cfg = StudyConfig(problem=prob, rows=tuple(plan_rows(prob, ("DFM", "MIL", "EES"),
                                                         (2, 4, 8, 16))),
                      reference=paper_reference(2), paths=6, seed=8002)
    rep = run_study(cfg)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (rep.csv_text(), rep.json_text()))
    assert got == FULLTIER_EX2_SHA256


# sha256 of the CSV and JSON of the all-grid example 3 study (MIL
# reference at M = 2^10, 5 paths, seed 8003). Its rows sample Algorithm 1
# from their own increments under a Milstein-type reference, so any move of
# those random numbers shows here (pinned with numpy 2.4 and its bundled
# OpenBLAS)
MIL_ALLGRID_EX3_SHA256 = (
    "b001c607c8614031c9128ae3f75e85bee557ac94d8dab985f955c62df86c0c8e",
    "80f47d05b59ce78600c09d0e4171353913c94223f70b40fb7ec47688cb3d8f93",
)


def test_milstein_type_reference_study_is_pinned():
    prob = make_example(3)
    q = prob.params.q_dfm
    rows = tuple(LadderRow(scheme, n=16, m=2**j, k=16, d=choose_D1(2**j, q))
                 for scheme in ("DFM", "MIL") for j in range(3, 8))
    ref = ReferenceSpec("MIL", n=16, k=16, m=2**10)
    cfg = StudyConfig(problem=prob, rows=rows, reference=ref, paths=5, seed=8003,
                      error_at="all-grid")
    rep = run_study(cfg)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (rep.csv_text(), rep.json_text()))
    assert got == MIL_ALLGRID_EX3_SHA256


# sha256 of the CSV and JSON of criterion 7's study at 4 paths (DFM
# reference at M = 2^13, K = 16, seed 2027; bench/'s c7-dfm-ref). Its
# reference samples Algorithm 2 on the lattice and its DFM rows Algorithm
# 1 on their increments of W, so any move of either series shows here (pinned
# with numpy 2.4 and its bundled OpenBLAS)
C7_DFM_REF_SHA256 = (
    "96c56776176e4271829015be845aae02163260186ee3e9295d1ff573c9da8a51",
    "00b47b7af730bb4a251e774d1d9e810f6a63a7bf8d32e49521110ab812e0e70e",
)


def test_dfm_reference_study_is_pinned():
    prob = make_example(1)
    q = prob.params.q_dfm
    ms = [2**j for j in range(4, 10)]
    rows = (tuple(LadderRow("DFM", n=16, m=m, k=16, d=choose_D1(m, q)) for m in ms)
            + tuple(LadderRow("EES", n=16, m=m, k=16) for m in ms))
    cfg = StudyConfig(problem=prob, rows=rows, paths=4, seed=2027,
                      reference=ReferenceSpec("DFM", n=16, k=16, m=2**13))
    rep = run_study(cfg)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (rep.csv_text(), rep.json_text()))
    assert got == C7_DFM_REF_SHA256


@pytest.mark.parametrize("kind, k, expected", [
    ("DFM", 8, "0.12598022979119858"),    # two blocks of 64 and 36 steps
    ("LIE", 3, "0.09726894820672624"),    # one block
])
def test_sup_second_moment_is_pinned(kind, k, expected):
    got = estimate_sup_second_moment(make_example(1), kind, n=8, k=k, m=100,
                                     paths=40, seed=90)
    assert repr(got) == expected


@pytest.mark.parametrize("kind", ["DFM", "EES"])
def test_sup_second_moment_is_independent_of_the_block_size(monkeypatch, kind):
    # blocks of 1, 3, 7 and 40 steps cut the series of a Milstein-type kind
    import mildspde.harness as harness
    prob = make_example(1)
    default = estimate_sup_second_moment(prob, kind, n=8, k=4, m=40, paths=5, seed=7)
    per_step = 4 + 16 if kind == "DFM" else 4
    monkeypatch.setattr(harness, "_BLOCK_MIN_STEPS", 1)
    for steps in (1, 3, 7, 40):
        monkeypatch.setattr(harness, "_BLOCK_ELEMS", steps * 5 * per_step)
        assert harness._block_steps(5, per_step) == steps
        assert estimate_sup_second_moment(prob, kind, n=8, k=4, m=40, paths=5,
                                          seed=7) == default


def test_euler_type_reference_takes_no_series_depth():
    with pytest.raises(ValueError, match="takes no series depth"):
        ReferenceSpec("LIE", n=8, k=2, m=64, d=5)
    with pytest.raises(ValueError, match="depth"):
        ReferenceSpec("DFM", n=8, k=2, m=64, d=0)
    assert ReferenceSpec("DFM", n=8, k=2, m=64, d=5).d == 5


def test_guardrail_rejects_oversized_study():
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=2**20)
    rows = (LadderRow("EES", n=4, m=16, k=2),)
    with pytest.raises(ValueError):
        run_study(StudyConfig(problem=prob, rows=rows, reference=ref,
                              paths=10_000_000, seed=0))


def test_chunk_noise_counts_the_bridge_arrays():
    # per lattice step, rounded up: the block rule's count of one path's noise
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    cfg = StudyConfig(problem=prob, rows=(LadderRow("EES", n=4, m=12, k=2),),
                      reference=ref, paths=3, seed=0)
    # j * 64 / 12 is off the lattice for the 12 - gcd(12, 64) = 8 grid points
    # j not divisible by 3: 64 increments, 65 W values at the lattice points,
    # then the grid's 8 bridge normals, 12 W values and 12 increments
    from mildspde.harness import _study_feed

    def per_step(cfg):
        return _study_feed(cfg, 0, cfg.paths).elems_per_step()

    assert per_step(cfg) == -(-(64 + 65 + 8 + 12 + 12) * 2 // 64)
    # a grid on the lattice has no bridge points, but still reads W: 64
    # increments, 65 W values, 16 grid W values and 16 row increments; a
    # Milstein grid adds its increments and iterated integrals, m (k + k^2)
    cfg = replace(cfg, rows=(LadderRow("DFM", n=4, m=16, k=2, d=8),))
    assert (per_step(cfg)
            == -(-((64 + 65 + 16 + 16) * 2 + 16 * (2 + 4)) // 64))
    # a Milstein-type reference adds its own iterated integrals
    cfg = replace(cfg, reference=ReferenceSpec("MIL", n=8, k=2, m=64))
    assert per_step(cfg) == 2 + 4 + -(-((65 + 16 + 16) * 2 + 16 * (2 + 4)) // 64)
    # a row at the reference's own M steps on the drawn increments: no W
    # values are counted beyond the lattice's 65
    cfg = replace(cfg, rows=(LadderRow("EES", n=4, m=64, k=2),))
    assert per_step(cfg) == 2 + 4 + -(-65 * 2 // 64)


def test_blocks_fill_the_element_budget_down_to_a_minimum():
    from mildspde.harness import _BLOCK_ELEMS, _BLOCK_MIN_STEPS, _block_steps
    # c7-dfm-ref's 4 paths of 324 elements per step: 101 steps per block
    assert _block_steps(4, 324) == _BLOCK_ELEMS // (4 * 324) == 101
    # criterion 7's 100 paths per worker would get 4 steps: the minimum holds
    assert _block_steps(100, 324) == _BLOCK_MIN_STEPS == 64


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


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_config_rejects_a_bad_seed_by_name(seed):
    prob = make_example(1)
    ref = ReferenceSpec("LIE", n=8, k=2, m=64)
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        StudyConfig(problem=prob, rows=(LadderRow("EES", n=4, m=8, k=2),),
                    reference=ref, paths=4, seed=seed)


_BAD_INTEGERS = {
    "reference-N": (lambda: ReferenceSpec("LIE", n=8.0, k=2, m=64), "N", 8.0),
    "reference-K": (lambda: ReferenceSpec("LIE", n=8, k=2.0, m=64), "K", 2.0),
    "reference-M": (lambda: ReferenceSpec("DFM", n=8, k=2, m=64.5), "M", 64.5),
    "reference-D": (lambda: ReferenceSpec("DFM", n=8, k=2, m=64, d=3.0), "D", 3.0),
    "row-N": (lambda: LadderRow("EES", n=4.0, m=8, k=2), "N", 4.0),
    "row-K": (lambda: LadderRow("EES", n=4, m=8, k="2"), "K", "2"),
    "row-M": (lambda: LadderRow("EES", n=4, m=8.5, k=2), "M", 8.5),
    "row-D": (lambda: LadderRow("DFM", n=4, m=8, k=2, d=2.5), "D", 2.5),
    "paths": (lambda: StudyConfig(problem=make_example(1), rows=(), paths=3.0, seed=0,
                                  reference=ReferenceSpec("LIE", n=8, k=2, m=64)),
              "paths", 3.0),
    "workers": (lambda: StudyConfig(problem=make_example(1), rows=(), paths=4, seed=0,
                                    reference=ReferenceSpec("LIE", n=8, k=2, m=64),
                                    workers=2.5),
                "workers", 2.5),
}


@pytest.mark.parametrize("case", _BAD_INTEGERS)
def test_config_rejects_a_non_integer_count_by_name(case):
    build, field, value = _BAD_INTEGERS[case]
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        build()


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
                           match="non-finite state: seed 3, path 0, scheme LIE"):
            run_study(cfg)


def _alg2_study():
    # one worker; the DFM reference samples Algorithm 2 (D = 19) over a
    # 490-step and a 22-step block, which a draw-ahead cuts into chunks of
    # 245 and 22 rows per path
    prob = make_example(1)
    rows = (LadderRow("DFM", n=4, m=64, k=4, d=6), LadderRow("EES", n=8, m=128, k=8))
    return StudyConfig(problem=prob, rows=rows, reference=ReferenceSpec("DFM", n=8, k=8, m=512),
                       paths=3, seed=5)


@pytest.fixture
def series_threads(monkeypatch):
    """`started` records every draw-ahead thread started; set(cpus) makes
    the harness see that many CPUs."""
    import types
    import mildspde.harness as harness
    from mildspde.noise import _SeriesDraws
    started, start = [], _SeriesDraws.start

    def counted(draws):
        started.append(draws)
        start(draws)

    monkeypatch.setattr(_SeriesDraws, "start", counted)
    return types.SimpleNamespace(
        started=started, set=lambda cpus: monkeypatch.setattr(harness, "_cpu_count",
                                                              lambda: cpus))


def test_series_thread_starts_only_where_it_pays(series_threads):
    # a spare CPU and a series of at least 2^16 normals per path and block
    cfg, prob = _alg2_study(), make_example(1)
    series_threads.set(1)
    run_study(cfg)
    estimate_sup_second_moment(prob, "DFM", n=8, k=4, m=200, paths=3, seed=7)
    assert series_threads.started == []
    series_threads.set(2)
    run_study(cfg)
    estimate_sup_second_moment(prob, "DFM", n=8, k=4, m=200, paths=3, seed=7)
    assert len(series_threads.started) == 2
    # 200 steps of 2 x 54 x 4 normals pay, 64 of 2 x 23 x 4 do not
    estimate_sup_second_moment(prob, "DFM", n=8, k=4, m=64, paths=3, seed=7)
    # neither does a reference with 490 steps of 2 x 4 x 8 + 28 normals,
    # nor an Euler-type reference or kind, which draws no series
    run_study(replace(cfg, reference=ReferenceSpec("DFM", n=8, k=8, m=512, d=4)))
    run_study(replace(cfg, reference=ReferenceSpec("EES", n=8, k=8, m=512)))
    estimate_sup_second_moment(prob, "EES", n=8, k=4, m=200, paths=3, seed=7)
    assert len(series_threads.started) == 2


def test_cpu_count_falls_back_to_the_host_count(monkeypatch):
    import mildspde.harness as harness
    assert harness._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._cpu_count() == 3


def test_no_series_thread_outlives_a_study(series_threads):
    import threading
    series_threads.set(2)
    before = threading.active_count()
    run_study(_alg2_study())
    assert len(series_threads.started) == 1 and threading.active_count() == before
    # the reference overflows in its first block, while the thread draws
    cfg = replace(_alg2_study(), problem=replace(make_example(1), drift=_OverflowDrift()),
                  reference=ReferenceSpec("MIL", n=8, k=8, m=512))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^non-finite state: seed 5, path 0, scheme MIL$"):
            run_study(cfg)
    assert len(series_threads.started) == 2 and threading.active_count() == before


def test_no_series_thread_outlives_a_sup_moment_estimate(series_threads):
    import threading
    series_threads.set(2)
    before = threading.active_count()
    estimate_sup_second_moment(make_example(1), "DFM", n=8, k=4, m=200, paths=3, seed=7)
    assert len(series_threads.started) == 1 and threading.active_count() == before
    prob = replace(make_example(1), drift=_OverflowDrift())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^non-finite state: seed 7, path 0, scheme DFM$"):
            estimate_sup_second_moment(prob, "DFM", n=8, k=4, m=200, paths=3, seed=7)
    assert len(series_threads.started) == 2 and threading.active_count() == before


@pytest.mark.parametrize("block_normals", [None, 3000])
def test_series_thread_leaves_the_bytes(monkeypatch, series_threads, block_normals):
    # drawn ahead on a thread or inline, at the default chunks and at
    # chunks of a few rows, a study and a sup-moment estimate are the same
    import mildspde.noise as noise
    if block_normals:
        monkeypatch.setattr(noise, "_SERIES_BLOCK_NORMALS", block_normals)
    cfg, prob = _alg2_study(), make_example(1)
    default = run_study(cfg)
    sup = estimate_sup_second_moment(prob, "DFM", n=8, k=4, m=200, paths=3, seed=7)
    series_threads.started.clear()
    for cpus in (1, 2):
        series_threads.set(cpus)
        rep = run_study(cfg)
        assert rep.csv_text() == default.csv_text()
        assert rep.json_text() == default.json_text()
        assert estimate_sup_second_moment(prob, "DFM", n=8, k=4, m=200, paths=3,
                                          seed=7) == sup
    assert len(series_threads.started) == 2


def test_series_thread_holds_no_more_memory_than_one_buffer(series_threads):
    # the two slots a thread draws ahead into split the one an inline run
    # draws into, so the study's peak stays where it was
    import tracemalloc
    cfg = _alg2_study()

    def peak(cpus):
        series_threads.set(cpus)
        tracemalloc.start()
        try:
            run_study(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)                               # fills the problem's per-dimension caches
    inline, ahead = peak(1), peak(2)
    assert len(series_threads.started) == 1
    assert ahead <= inline + 64 * 1024


def test_single_worker_study_never_loads_the_process_pool():
    # the pool and multiprocessing cost ~2 MB RSS; only a study with more
    # than one worker imports them
    import mildspde
    code = """
import sys
import mildspde
from mildspde.harness import LadderRow, ReferenceSpec, StudyConfig, run_study
from mildspde.problems import make_example
pool = ("multiprocessing", "concurrent.futures.process")
assert not any(name in sys.modules for name in pool), "import"
run_study(StudyConfig(problem=make_example(1), rows=(LadderRow("DFM", n=4, m=8, k=2, d=3),),
                      reference=ReferenceSpec("DFM", n=4, k=2, m=16), paths=2, seed=0))
assert not any(name in sys.modules for name in pool), "run_study"
"""
    src = os.path.dirname(os.path.dirname(mildspde.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
