import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildspde import noise
from mildspde.cost import CostLedger, cost_formula
from mildspde.noise import (NoisePacket, alg1_iterated_batch,
                            alg1_iterated_nested, alg2_iterated_batch,
                            chain_arrays, choose_D1, choose_D2,
                            exact_second_moment,
                            sample_increments_batch, substream)

ETA2 = np.arange(1.0, 3.0) ** -3.0   # cubic covariance decay, two modes


def _identity_residual(db, iq, eta, h):
    sq = np.sqrt(eta)
    target = (sq[:, None] * sq[None, :]) * (db[..., :, None] * db[..., None, :])
    target = target - np.diag(eta * h)
    resid = np.abs(iq + np.swapaxes(iq, -1, -2) - target)
    scale = h * eta.max() + np.abs(sq * db).max() ** 2
    return resid.max() / scale


def test_increment_moments():
    rng = substream(0, 1)
    x = sample_increments_batch(rng, 1_000_000, 1, 1.0)[:, 0]
    assert abs(x.mean()) < 4.0 / math.sqrt(len(x))
    assert abs(x.var() - 1.0) < 0.01
    y = sample_increments_batch(substream(0, 2), 200_000, 1, 0.25)[:, 0]
    assert abs(y.var() - 0.25) < 0.25 * 0.02


def test_increment_replay_is_bit_identical():
    a = sample_increments_batch(substream(42, 5), 1, 8, 0.5)
    b = sample_increments_batch(substream(42, 5), 1, 8, 0.5)
    np.testing.assert_array_equal(a, b)


def test_increment_rejects_bad_step():
    with pytest.raises(ValueError):
        sample_increments_batch(substream(0, 0), 1, 3, 0.0)


def test_increment_draw_count():
    led = CostLedger()
    sample_increments_batch(substream(0, 0), 1, 7, 0.1, ledger=led)
    assert led.normal_draws == 7


def test_alg1_identities_every_sample():
    rng = substream(1, 1)
    db = sample_increments_batch(rng, 5000, 2, 0.1)
    iq = alg1_iterated_batch(substream(1, 2), db, 0.1, 5, ETA2)
    assert _identity_residual(db, iq, ETA2, 0.1) < 1e-12


def test_alg1_diagonal_is_depth_independent():
    rng = substream(2, 1)
    db = sample_increments_batch(rng, 1, 2, 0.3)
    for d in (1, 7, 40):
        iq = alg1_iterated_batch(substream(2, 2 + d), db, 0.3, d, ETA2)[0]
        expect = ETA2 * (db[0]**2 - 0.3) / 2.0
        np.testing.assert_allclose(np.diag(iq), expect, rtol=1e-12)


def test_alg1_draw_count_exact():
    led = CostLedger()
    db = sample_increments_batch(substream(3, 1), 1, 4, 0.1, ledger=led)
    alg1_iterated_batch(substream(3, 2), db, 0.1, 6, np.ones(4), ledger=led)
    assert led.normal_draws == 4 + 2 * 6 * 4


def test_alg1_rejects_zero_depth():
    with pytest.raises(ValueError):
        alg1_iterated_batch(substream(0, 0), np.zeros((1, 2)), 0.1, 0, ETA2)


def test_alg1_second_moment_and_mean():
    s = 300_000
    db = sample_increments_batch(substream(4, 1), s, 2, 0.1)
    iq = alg1_iterated_batch(substream(4, 2), db, 0.1, 10, ETA2)
    vals = iq[:, 0, 1]
    se = vals.std(ddof=1) / math.sqrt(s)
    assert abs(vals.mean()) < 4 * se
    second = (vals**2).mean()
    exact = exact_second_moment(1, 2, 0.1, ETA2)
    assert abs(second / exact - 1.0) < 0.01


def test_alg1_cross_moments_vanish():
    s = 200_000
    db = sample_increments_batch(substream(5, 1), s, 2, 0.1)
    iq = alg1_iterated_batch(substream(5, 2), db, 0.1, 8, ETA2)
    prod = iq[:, 0, 1] * iq[:, 1, 0]
    # E[I_(1,2) I_(2,1)] = 0 for non-matching ordered pairs
    se = prod.std(ddof=1) / math.sqrt(s)
    assert abs(prod.mean()) < 5 * se


@settings(derandomize=True, max_examples=20, deadline=None)
@given(s=st.integers(1, 6), extra=st.integers(0, 5), k=st.integers(1, 4),
       d=st.integers(1, 9))
def test_batch_prefix_matches_shorter_batch(s, extra, k, d):
    # rows are drawn in order, so the first s rows of a batch equal a batch
    # of just those rows drawn from the same substream
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(6, 1), s + extra, k, 0.2)
    full = alg1_iterated_batch(substream(6, 2), db, 0.2, d, eta)
    head = alg1_iterated_batch(substream(6, 2), db[:s], 0.2, d, eta)
    np.testing.assert_array_equal(full[:s], head)


@pytest.mark.parametrize("sampler", [alg1_iterated_batch, alg2_iterated_batch])
def test_split_draws_equal_the_whole_draw(sampler):
    # a study streams each generator in blocks of steps: successive calls on
    # one generator continue its rows, bit for bit
    k, d, h = 3, 5, 0.01
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(8, 1), 1000, k, h)
    rng = substream(8, 1)
    parts = [sample_increments_batch(rng, 317, k, h), sample_increments_batch(rng, 683, k, h)]
    assert np.array_equal(np.concatenate(parts), db)
    whole = sampler(substream(8, 2), db, h, d, eta)
    rng = substream(8, 2)
    parts = [sampler(rng, db[lo:hi], h, d, eta) for lo, hi in ((0, 117), (117, 600), (600, 1000))]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("seed", [-3, 2.5, None])
def test_substream_rejects_a_bad_seed_by_name(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        substream(seed, 1)


@pytest.mark.parametrize("sampler", [alg1_iterated_batch, alg2_iterated_batch])
def test_out_is_filled_in_place_bit_for_bit(sampler):
    # out= returns out itself, holding what the allocating call returns,
    # also when out is one path's block of a larger array
    k, d, h = 4, 6, 0.05
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(9, 1), 37, k, h)
    expect = sampler(substream(9, 2), db, h, d, eta)
    blocks = np.full((2,) + expect.shape, np.nan)
    target = blocks[1]
    got = sampler(substream(9, 2), db, h, d, eta, out=target)
    assert got is target
    assert np.array_equal(got, expect)
    assert np.isnan(blocks[0]).all()


def _alg1_all_rows_at_once(rng, db, h, d, eta, upto=None):
    # the series formula of the module docstring, every row in one draw of
    # d terms, of which the first `upto` (default all) are kept
    s, k = db.shape
    z = rng.standard_normal((s, 2, d, k))
    upto = d if upto is None else upto
    x, y = z[:, 0, :upto], z[:, 1, :upto]
    ytil = y + math.sqrt(2.0 / h) * db[:, None, :]
    basel = float(np.sum(1.0 / np.arange(1.0, upto + 1.0) ** 2))
    w = math.sqrt(np.pi**2 / 6.0 / basel) / np.arange(1.0, upto + 1.0)
    t1 = np.matmul(np.swapaxes(x * w[:, None], -1, -2), ytil)
    a = (h / (2.0 * np.pi)) * (t1 - np.swapaxes(t1, -1, -2))
    i_norm = 0.5 * (db[:, :, None] * db[:, None, :]) - 0.5 * h * np.eye(k) + a
    return np.outer(np.sqrt(eta), np.sqrt(eta)) * i_norm


@pytest.mark.parametrize("s,k,d,rows_per_block", [
    (10, 3, 7, 3), (9, 2, 5, 4), (5, 4, 30, 1), (4, 1, 1, 8),
    pytest.param(7, 2, (1, 5, 12), 2, id="nested-7-2-1,5,12-2"),
    pytest.param(9, 2, (1,), 4, id="nested-9-2-1-4"),
    pytest.param(50, 3, (2, 7), 9, id="nested-50-3-2,7-9"),
    pytest.param(300, 16, (1, 8, 40), 64, id="nested-300-16-1,8,40-64"),
    pytest.param(5, 4, (3, 30, 900), 2, id="nested-5-4-3,30,900-2")])
def test_alg1_blocks_equal_one_draw(monkeypatch, s, k, d, rows_per_block):
    # several blocks through the reused buffer, the last one partial (or a
    # single block larger than the batch): bit-identical to one draw
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(12, 1), s, k, 0.05)
    if isinstance(d, tuple):
        whole = alg1_iterated_nested(substream(12, 2), db, 0.05, d, eta)
    widest = max(d) if isinstance(d, tuple) else d
    monkeypatch.setattr(noise, "_SERIES_BLOCK_NORMALS",
                        rows_per_block * 2 * widest * k + 1)
    if isinstance(d, tuple):
        # nested: depth d is the series formula on the first d terms of the
        # batch sampler's draw at the largest depth; at that depth it is
        # alg1_iterated_batch to rounding and leaves the generator where
        # that call does
        rng, batch_rng = substream(12, 2), substream(12, 2)
        got = alg1_iterated_nested(rng, db, 0.05, d, eta)
        assert got.keys() == whole.keys()
        assert all(np.array_equal(got[depth], whole[depth]) for depth in d)
        expect = {depth: _alg1_all_rows_at_once(substream(12, 2), db, 0.05, widest, eta,
                                                upto=depth) for depth in d}
        expect[widest] = alg1_iterated_batch(batch_rng, db, 0.05, widest, eta)
        for depth in d:
            np.testing.assert_allclose(got[depth], expect[depth], rtol=1e-12,
                                       atol=1e-12 * np.abs(expect[depth]).max())
        assert np.array_equal(rng.standard_normal(8), batch_rng.standard_normal(8))
        return
    led = CostLedger()
    got = alg1_iterated_batch(substream(12, 2), db, 0.05, d, eta, ledger=led)
    expect = _alg1_all_rows_at_once(substream(12, 2), db, 0.05, d, eta)
    assert np.array_equal(got, expect)
    assert led.normal_draws == s * 2 * d * k


def _peak_beyond_output(sampler, s, k, d, h, seed):
    # tracemalloc peak of one sampler call, less its (s, k, k) output
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(seed, 1), s, k, h)
    tracemalloc.start()
    try:
        out = sampler(substream(seed, 2), db, h, d, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def _block_allowance(s, k, row):
    # one block of draws and one (rows, k, k) scratch array, plus 1 MB;
    # rows per block are capped by the row width and by k^2, so this is
    # at most two blocks plus 1 MB
    rows = min(s, noise._SERIES_BLOCK_NORMALS // max(row, k * k))
    allowed = 8 * rows * (row + k * k) + 2**20
    assert allowed <= 16 * noise._SERIES_BLOCK_NORMALS + 2**20
    return allowed


def test_alg1_peak_memory_is_output_plus_one_block():
    # the D1 depth at criterion 7's reference M: 200 rows hold 5.5 M
    # normals (44 MB), but only one block of them may be live at a time
    assert _peak_beyond_output(alg1_iterated_batch, 200, 16, 862, 1.0 / 8192, 13) < 8 * 2**20
    # mil-allgrid-ex3's depth: k^2 exceeds the row width, so a block of
    # 2^18 normals would hold 2730 rows and a 5.3 MB scratch array
    assert (_peak_beyond_output(alg1_iterated_batch, 4096, 16, 3, 1.0 / 1024, 21)
            < _block_allowance(4096, 16, 2 * 3 * 16))


def test_alg1_nested_peak_memory_is_output_plus_one_block():
    # criterion 6's sample count: 20 000 rows of 64 terms hold 5.1 M
    # normals (41 MB), but only one buffer block of them may be live
    db = np.broadcast_to(np.array([0.11, -0.07]), (20_000, 2))
    tracemalloc.start()
    try:
        out = alg1_iterated_nested(substream(14, 1), db, 0.1, [1, 64], ETA2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(v.nbytes for v in out.values()) < 8 * 2**20


ALG2_DEPTHS = pytest.mark.parametrize("d", [1, 4, 16])


def _pairs(k):
    return list(zip(*np.triu_indices(k, 1)))


def _tail_covariance(db, h):
    """Sigma, the Algorithm 2 tail's conditional covariance over the upper
    pairs up to a_D^2, built entry by entry from the series terms
    X_i Yt_j - X_j Yt_i: 2 delta + the covariance of the db-driven parts."""
    c = math.sqrt(2.0 / h) * np.asarray(db, dtype=float)
    pairs = _pairs(c.size)
    sig = np.zeros((len(pairs), len(pairs)))
    for p, (i, j) in enumerate(pairs):
        for q, (a, b) in enumerate(pairs):
            sig[p, q] = (2.0 * (p == q) + (i == a) * c[j] * c[b] - (i == b) * c[j] * c[a]
                         - (j == a) * c[i] * c[b] + (j == b) * c[i] * c[a])
    return sig


def _alg2_explicit(rng, db, h, d, eta):
    # Algorithm 2 with the tail's square root taken numerically from the
    # explicit Sigma, every row in one draw
    s, k = db.shape
    pairs = _pairs(k)
    z = rng.standard_normal((s, 2 * d * k + len(pairs)))
    x = z[:, : d * k].reshape(s, d, k) / np.arange(1.0, d + 1.0)[:, None]
    ytil = z[:, d * k: 2 * d * k].reshape(s, d, k) + math.sqrt(2.0 / h) * db[:, None, :]
    t1 = np.matmul(np.swapaxes(x, -1, -2), ytil)
    area = t1 - np.swapaxes(t1, -1, -2)
    a_d = math.sqrt(np.pi**2 / 6.0 - float(np.sum(1.0 / np.arange(1.0, d + 1.0) ** 2)))
    for row in range(s):
        w, v = np.linalg.eigh(_tail_covariance(db[row], h))
        tail = (v * np.sqrt(w)) @ v.T @ z[row, 2 * d * k:]
        for (i, j), t in zip(pairs, tail):
            area[row, i, j] += a_d * t
            area[row, j, i] -= a_d * t
    i_norm = (0.5 * (db[:, :, None] * db[:, None, :]) - 0.5 * h * np.eye(k)
              + (h / (2.0 * np.pi)) * area)
    return np.outer(np.sqrt(eta), np.sqrt(eta)) * i_norm


@ALG2_DEPTHS
def test_alg2_identities_every_sample(d):
    db = sample_increments_batch(substream(15, 1), 5000, 3, 0.1)
    eta = np.arange(1.0, 4.0) ** -3.0
    iq = alg2_iterated_batch(substream(15, 2, d), db, 0.1, d, eta)
    assert _identity_residual(db, iq, eta, 0.1) < 1e-12
    np.testing.assert_allclose(np.diagonal(iq, axis1=1, axis2=2),
                               eta * (db**2 - 0.1) / 2.0, rtol=1e-12, atol=1e-15)


@ALG2_DEPTHS
def test_alg2_matches_the_explicit_square_root(d):
    db = sample_increments_batch(substream(16, 1), 40, 4, 0.05)
    eta = np.arange(1.0, 5.0) ** -3.0
    got = alg2_iterated_batch(substream(16, 2), db, 0.05, d, eta)
    expect = _alg2_explicit(substream(16, 2), db, 0.05, d, eta)
    np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-13 * np.abs(expect).max())


@ALG2_DEPTHS
def test_alg2_conditional_covariance_is_the_exact_one(d):
    # at fixed increments the Levy areas (I - I^T) / 2 have covariance
    # (h / 2 pi)^2 (pi^2 / 6) Sigma at every depth: series plus tail
    s, h = 200_000, 0.1
    db = np.array([0.3, -0.2, 0.15])
    iq = alg2_iterated_batch(substream(17, d), np.broadcast_to(db, (s, 3)), h, d,
                             np.ones(3))
    upper = np.triu_indices(3, 1)
    areas = (0.5 * (iq - np.swapaxes(iq, -1, -2)))[:, upper[0], upper[1]]
    expect = (h / (2.0 * np.pi)) ** 2 * (np.pi**2 / 6.0) * _tail_covariance(db, h)
    assert np.abs(areas.mean(axis=0)).max() < 5.0 * math.sqrt(expect.max() / s)
    assert np.abs(np.cov(areas.T) - expect).max() < 0.015 * expect.max()


def _levy_area_excess_kurtosis(sampler, d, s=400_000, h=0.1):
    db = sample_increments_batch(substream(18, 1), s, 2, h)
    iq = sampler(substream(18, 2, d), db, h, d, np.ones(2))
    area = 0.5 * (iq[:, 0, 1] - iq[:, 1, 0])
    return (area**4).mean() / (area**2).mean() ** 2 - 3.0


@ALG2_DEPTHS
def test_alg2_levy_area_has_the_sech_kurtosis(d):
    # the K = 2 Levy area has the sech law, excess kurtosis exactly 2;
    # Algorithm 1's truncated series reads 3 at D = 1 (its tail is lost)
    assert abs(_levy_area_excess_kurtosis(alg2_iterated_batch, d) - 2.0) < 0.3
    if d == 1:
        assert abs(_levy_area_excess_kurtosis(alg1_iterated_batch, d) - 2.0) > 0.6


def test_alg2_draw_count_exact():
    s, k, d = 3, 5, 6
    led = CostLedger()
    db = sample_increments_batch(substream(19, 1), s, k, 0.1)
    rng = substream(19, 2)
    alg2_iterated_batch(rng, db, 0.1, d, np.ones(k), ledger=led)
    per_row = 2 * d * k + k * (k - 1) // 2
    assert led.normal_draws == s * per_row
    # the generator moved on by exactly that many normals
    skipped = substream(19, 2)
    skipped.standard_normal(s * per_row)
    assert rng.standard_normal() == skipped.standard_normal()


def test_alg2_rejects_bad_input():
    with pytest.raises(ValueError):
        alg2_iterated_batch(substream(0, 0), np.zeros((1, 2)), 0.1, 0, ETA2)
    with pytest.raises(ValueError):
        alg2_iterated_batch(substream(0, 0), np.zeros((1, 2)), 0.0, 1, ETA2)
    with pytest.raises(ValueError):
        alg2_iterated_batch(substream(0, 0), np.zeros((1, 3)), 0.1, 1, ETA2)


@ALG2_DEPTHS
def test_alg2_prefix_and_block_size_leave_rows_unchanged(monkeypatch, d):
    s, k = 11, 4
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(20, 1), s, k, 0.05)
    full = alg2_iterated_batch(substream(20, 2), db, 0.05, d, eta)
    head = alg2_iterated_batch(substream(20, 2), db[:7], 0.05, d, eta)
    np.testing.assert_array_equal(full[:7], head)
    row = 2 * d * k + k * (k - 1) // 2
    for rows_per_block in (1, 3, 4, 100):
        monkeypatch.setattr(noise, "_SERIES_BLOCK_NORMALS", rows_per_block * row + 1)
        got = alg2_iterated_batch(substream(20, 2), db, 0.05, d, eta)
        np.testing.assert_array_equal(got, full)


@pytest.mark.parametrize("s,k,d", [(1000, 16, 76), (4096, 16, 3)])
def test_alg2_peak_memory_is_output_plus_one_block(s, k, d):
    # criterion 7's reference depth (many normals per row) and
    # mil-allgrid-ex3's (many rows per block): beyond the output, one block
    # of draws and one (rows, k, k) scratch array may be live, not the
    # whole batch's draws or one temporary per tail term
    row = 2 * d * k + k * (k - 1) // 2
    assert (_peak_beyond_output(alg2_iterated_batch, s, k, d, 1.0 / 1024, 21)
            < _block_allowance(s, k, row))


def test_exact_second_moment_values():
    assert exact_second_moment(1, 1, 1.0, np.array([1.0, 1.0])) == 0.5
    assert exact_second_moment(1, 2, 0.0, ETA2) == 0.0
    assert exact_second_moment(2, 1, 0.5, np.array([1.0, 1 / 8])) == pytest.approx(1 / 64)


def _fine_steps(seed, g, r, k, h, d=6):
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(seed, 1), g * r, k, h)
    iq = alg1_iterated_batch(substream(seed, 2), db, h, d, eta)
    return db.reshape(g, r, k), iq.reshape(g, r, k, k), eta


def test_chain_single_packet_unchanged():
    db, iq, eta = _fine_steps(7, 4, 1, 2, 0.1)
    out_db, out_iq = chain_arrays(db, iq, eta)
    np.testing.assert_array_equal(out_db, db[:, 0])
    np.testing.assert_array_equal(out_iq, iq[:, 0])


@settings(derandomize=True, max_examples=15, deadline=None)
@given(a=st.integers(1, 5), b=st.integers(1, 5), k=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_chain_arrays_folds_associatively(a, b, k, seed):
    # folding r = a*b steps at once equals folding b steps, then a
    h = 0.05
    db, iq, eta = _fine_steps(seed, 2, a * b, k, h)
    once_db, once_iq = chain_arrays(db, iq, eta)
    inner_db, inner_iq = chain_arrays(db.reshape(2 * a, b, k),
                                      iq.reshape(2 * a, b, k, k), eta)
    two_db, two_iq = chain_arrays(inner_db.reshape(2, a, k),
                                  inner_iq.reshape(2, a, k, k), eta)
    np.testing.assert_allclose(two_db, once_db, rtol=1e-12, atol=1e-12 * np.abs(once_db).max())
    np.testing.assert_allclose(two_iq, once_iq, rtol=1e-12, atol=1e-12 * np.abs(once_iq).max())


@settings(derandomize=True, max_examples=15, deadline=None)
@given(r=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_chain_preserves_identities(r, k, seed):
    # I + I^T = dW dW^T - diag(eta) h holds after chaining r steps of length h
    h = 0.05
    db, iq, eta = _fine_steps(seed, 3, r, k, h)
    out_db, out_iq = chain_arrays(db, iq, eta)
    assert _identity_residual(out_db, out_iq, eta, r * h) < 1e-12


def test_chain_two_halves_matches_direct_coarse_moments():
    # Distributional check: chained halves against one direct coarse sample.
    # The exact second moment itself is validated against a brute-force
    # Euler discretization of the double integral on a fine subgrid.
    h = 0.2
    s = 300_000
    eta = ETA2
    db_half = sample_increments_batch(substream(9, 1), 2 * s, 2, h / 2)
    iq_half = alg1_iterated_batch(substream(9, 2), db_half, h / 2, 8, eta)
    db_pairs = db_half.reshape(s, 2, 2)
    iq_pairs = iq_half.reshape(s, 2, 2, 2)
    db_chain, iq_chain = chain_arrays(db_pairs, iq_pairs, eta)
    db_direct = sample_increments_batch(substream(9, 3), s, 2, h)
    iq_direct = alg1_iterated_batch(substream(9, 4), db_direct, h, 8, eta)

    assert _identity_residual(db_chain, iq_chain, eta, h) < 1e-12
    for i in range(2):
        for j in range(2):
            a, b = iq_chain[:, i, j], iq_direct[:, i, j]
            se = math.sqrt(a.var() / s + b.var() / s)
            assert abs(a.mean() - b.mean()) < 5 * se + 1e-12
            sa, sb = a**2, b**2
            se2 = math.sqrt(sa.var() / s + sb.var() / s)
            assert abs(sa.mean() - sb.mean()) < 5 * se2

    # brute-force oracle for the second moment of the coarse integral
    rng = np.random.default_rng(99)
    sub, s_bf = 400, 30_000
    dt = h / sub
    dw = rng.standard_normal((s_bf, sub, 2)) * math.sqrt(dt)
    left1 = np.cumsum(dw[:, :, 0], axis=1) - dw[:, :, 0]
    i12 = (left1 * dw[:, :, 1]).sum(axis=1) * math.sqrt(eta[0] * eta[1])
    bf = (i12**2).mean()
    exact = exact_second_moment(1, 2, h, eta)
    assert abs(bf / exact - 1.0) < 0.05
    assert abs((iq_chain[:, 0, 1] ** 2).mean() / exact - 1.0) < 0.02


def test_nested_shares_leading_terms_and_identities():
    db = sample_increments_batch(substream(10, 1), 500, 2, 0.1)
    nest = alg1_iterated_nested(substream(10, 2), db, 0.1, [3, 12, 48], ETA2)
    for d, iq in nest.items():
        assert _identity_residual(db, iq, ETA2, 0.1) < 1e-12
    gaps = [np.abs(nest[3] - nest[48]).mean(), np.abs(nest[12] - nest[48]).mean()]
    assert gaps[1] < gaps[0]


def test_depth_rule_examples():
    assert choose_D1(4, Fraction(7, 8)) == 3
    assert choose_D1(1, Fraction(7, 8)) == 1
    for m in (1, 5, 1000):
        assert choose_D1(m, Fraction(1, 2)) == 1
    assert choose_D1(1024, Fraction(7, 8)) == 182
    assert choose_D1(8192, Fraction(7, 8)) == 862
    with pytest.raises(ValueError):
        choose_D1(16, 0.875)              # q must be an exact rational
    with pytest.raises(ValueError):
        cost_formula("DFM", 4, 2, 16, 0.875)


def test_alg2_depth_rule():
    assert choose_D2(16, 862) == 76          # criterion 7's reference
    assert choose_D2(16, 1) == 3             # mil-allgrid-ex3's reference
    assert choose_D2(1, 1) == 1
    # the smallest x with 12 x^2 >= 5 k d1, checked exactly
    for k in range(1, 30):
        for d1 in range(1, 300, 7):
            x = choose_D2(k, d1)
            assert 12 * x * x >= 5 * k * d1 > 12 * (x - 1) ** 2
    for k, d1 in ((0, 5), (16, 0), (-1, 3), (4, -2)):
        with pytest.raises(ValueError):
            choose_D2(k, d1)


def test_packet_validation():
    with pytest.raises(ValueError):
        NoisePacket(np.zeros(2), 0.0, np.zeros((2, 2)), 1, ETA2)
    with pytest.raises(ValueError):
        NoisePacket(np.zeros(2), 0.1, np.zeros((3, 3)), 1, ETA2)
    with pytest.raises(ValueError):
        NoisePacket(np.zeros(2), 0.1, np.zeros((2, 2)), 0, ETA2)


def test_substreams_are_order_independent():
    a1 = substream(0, 5, 1).standard_normal(4)
    b1 = substream(0, 5, 2).standard_normal(4)
    b2 = substream(0, 5, 2).standard_normal(4)
    a2 = substream(0, 5, 1).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    assert not np.array_equal(a1, b1)
    assert not np.array_equal(a1, substream(1, 5, 1).standard_normal(4))
    assert isinstance(substream(0, 5, 1).bit_generator, np.random.SFC64)


def test_substreams_are_uncorrelated():
    n = 1 << 16
    # the harness's (increments, series) purposes, two groups, four paths
    keys = [(purpose, group, path) for purpose in (11, 12) for group in (0, 1)
            for path in range(4)]
    x = np.stack([substream(11, *key).standard_normal(n) for key in keys])
    bound = 5.0 / math.sqrt(n)
    assert np.abs(x.mean(axis=1)).max() < bound
    assert np.abs(x.var(axis=1) - 1.0).max() < 5.0 * math.sqrt(2.0 / n)
    rho = np.corrcoef(x)
    off = rho[~np.eye(len(keys), dtype=bool)]
    assert np.abs(off).max() < bound


def _stream_chunks(draws, blocks, paths):
    # the order in which the study feed asks for a _SeriesDraws' chunks
    for s in blocks:
        for lo in range(0, s, draws.rows):
            for p in range(paths):
                rows = min(draws.rows, s - lo)
                yield p, rows, draws.take(rows, draws.width)


@pytest.mark.parametrize("paths", [1, 3])
def test_series_draws_ahead_keep_every_generators_order(paths):
    # a thread and the caller draw small chunks at once while the
    # interpreter switches threads as often as it can, and each draw waits
    # a random while between being begun and reaching its generator; every chunk
    # must hold exactly its generator's next normals, as if drawn inline
    import random
    import sys
    import time
    pause = random.Random(0)

    class Slow:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            time.sleep(pause.uniform(0.0, 4e-4))
            return self.rng.standard_normal(out=out)

    blocks, width = [5, 9, 1, 4] * 25, 7
    draws = noise._SeriesDraws([Slow(substream(3, p)) for p in range(paths)], blocks, width,
                               k=1)
    assert draws.rows == 5            # half of the longest block, rounded up
    expect = [substream(3, p) for p in range(paths)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        draws.start()
        for p, rows, chunk in _stream_chunks(draws, blocks, paths):
            for _, _, z in chunk:
                assert np.array_equal(z, expect[p].standard_normal((rows, width)))
        draws.thread.join(timeout=30)
        assert not draws.thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        draws.close()
    with pytest.raises(RuntimeError, match="out of their sequence"):
        next(draws.take(1, width))


def test_series_draws_slots_split_what_one_buffer_holds():
    # the two slots hold the rows one inline buffer would, so drawing ahead
    # adds no buffer: criterion 7's 100-step blocks at its Algorithm 2
    # width fit a buffer of 2^18 / 2552 = 102 rows, and blocks of 200 rows
    # of 16^2 or more normals fill one of 2^18 / 16^2 = 1024 rows
    for width, k, block, buffer in ((2552, 16, 100, 100), (216, 16, 2000, 1024),
                                    (2552, 16, 300, 102)):
        assert min(block, noise._SERIES_BLOCK_NORMALS // max(width, k * k)) == buffer
        draws = noise._SeriesDraws([substream(0, 0)] * 4, [block] * 3, width, k)
        assert [z.shape for z in draws.slots] == [(buffer // 2, width)] * 2
    # a single chunk takes one slot; the other stays empty
    single = noise._SeriesDraws([substream(0, 0)], [3], 10, 2)
    assert [z.shape for z in single.slots] == [(2, 10), (1, 10)]


def test_series_draws_report_a_thread_that_failed(monkeypatch):
    # a thread that stops early must raise in the caller, not hang it
    import threading

    class Failing:
        def standard_normal(self, out):
            raise MemoryError("no room for the draws")

    monkeypatch.setattr(threading, "excepthook", lambda args: None)
    draws = noise._SeriesDraws([Failing()], [4, 4], 3, k=1)
    draws.start()
    draws.thread.join(timeout=30)
    assert not draws.thread.is_alive()
    with pytest.raises(RuntimeError, match="the series draw thread stopped early"):
        next(draws.take(draws.rows, 3))
    draws.close()
