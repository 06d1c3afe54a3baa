import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildspde import noise
from mildspde.cost import CostLedger
from mildspde.noise import (NoisePacket, alg1_iterated_batch,
                            alg1_iterated_nested, chain_arrays, choose_D1,
                            choose_D2, exact_second_moment,
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


def _alg1_all_rows_at_once(rng, db, h, d, eta):
    # the series formula of the module docstring, every row in one draw
    s, k = db.shape
    z = rng.standard_normal((s, 2, d, k))
    x, y = z[:, 0], z[:, 1]
    ytil = y + math.sqrt(2.0 / h) * db[:, None, :]
    basel = float(np.sum(1.0 / np.arange(1.0, d + 1.0) ** 2))
    w = math.sqrt(np.pi**2 / 6.0 / basel) / np.arange(1.0, d + 1.0)
    t1 = np.matmul(np.swapaxes(x * w[:, None], -1, -2), ytil)
    a = (h / (2.0 * np.pi)) * (t1 - np.swapaxes(t1, -1, -2))
    i_norm = 0.5 * (db[:, :, None] * db[:, None, :]) - 0.5 * h * np.eye(k) + a
    return np.outer(np.sqrt(eta), np.sqrt(eta)) * i_norm


def _nested_all_rows_at_once(rng, db, h, depths, eta, block):
    # the nested series, every sample's terms of a depth block in one draw
    s, k = db.shape
    t1 = np.zeros((s, k, k))
    base = 0.5 * (db[:, :, None] * db[:, None, :]) - 0.5 * h * np.eye(k)
    out, prev = {}, 0
    for depth in depths:
        for lo in range(prev, depth, block):
            hi = min(depth, lo + block)
            z = rng.standard_normal((s, 2, hi - lo, k))
            ytil = z[:, 1] + math.sqrt(2.0 / h) * db[:, None, :]
            w = 1.0 / np.arange(lo + 1.0, hi + 1.0)
            t1 += np.matmul(np.swapaxes(z[:, 0] * w[:, None], -1, -2), ytil)
        prev = depth
        basel = float(np.sum(1.0 / np.arange(1.0, depth + 1.0) ** 2))
        tail = math.sqrt(np.pi**2 / 6.0 / basel)
        a = (tail * h / (2.0 * np.pi)) * (t1 - np.swapaxes(t1, -1, -2))
        out[depth] = np.outer(np.sqrt(eta), np.sqrt(eta)) * (base + a)
    return out


@pytest.mark.parametrize("s,k,d,rows_per_block", [
    (10, 3, 7, 3), (9, 2, 5, 4), (5, 4, 30, 1), (4, 1, 1, 8),
    # nested: depth blocks of 4 terms, so depths 1, 5, 12 take four of them
    pytest.param(7, 2, (1, 5, 12), 2, id="nested-7-2-1,5,12-2")])
def test_alg1_blocks_equal_one_draw(monkeypatch, s, k, d, rows_per_block):
    # several blocks through the reused buffer, the last one partial (or a
    # single block larger than the batch): bit-identical to one draw
    widest = 4 if isinstance(d, tuple) else d
    monkeypatch.setattr(noise, "_SERIES_BLOCK_NORMALS",
                        rows_per_block * 2 * widest * k + 1)
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(12, 1), s, k, 0.05)
    if isinstance(d, tuple):
        monkeypatch.setattr(noise, "_NESTED_BLOCK_NORMALS", 2 * s * k * widest)
        got = alg1_iterated_nested(substream(12, 2), db, 0.05, d, eta)
        expect = _nested_all_rows_at_once(substream(12, 2), db, 0.05, d, eta, widest)
        assert got.keys() == expect.keys()
        assert all(np.array_equal(got[depth], expect[depth]) for depth in d)
        return
    led = CostLedger()
    got = alg1_iterated_batch(substream(12, 2), db, 0.05, d, eta, ledger=led)
    expect = _alg1_all_rows_at_once(substream(12, 2), db, 0.05, d, eta)
    assert np.array_equal(got, expect)
    assert led.normal_draws == s * 2 * d * k


def test_alg1_peak_memory_is_output_plus_one_block():
    # criterion 7's reference depth: 200 rows hold 5.5 M normals (44 MB),
    # but only one block of them may be live at a time
    s, k, d = 200, 16, 862
    eta = np.arange(1.0, k + 1.0) ** -3.0
    db = sample_increments_batch(substream(13, 1), s, k, 1.0 / 8192)
    tracemalloc.start()
    try:
        out = alg1_iterated_batch(substream(13, 2), db, 1.0 / 8192, d, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 8 * 2**20


def test_alg1_nested_peak_memory_is_output_plus_one_block():
    # criterion 6's sample count: a depth block of 52 terms holds 4.2 M
    # normals (33 MB), but only one buffer block of them may be live
    tracemalloc.start()
    try:
        out = alg1_iterated_nested(substream(14, 1), np.array([0.11, -0.07]), 0.1,
                                   [1, 64], ETA2, samples=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(v.nbytes for v in out.values()) < 8 * 2**20


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
    assert choose_D1(16, 0.875) == 8      # float path, exact power
    assert choose_D1(8192, Fraction(7, 8)) == 862


def test_depth_rule_two():
    eta = np.array([1.0, 1 / 8])
    assert choose_D2(1, 1, np.array([1.0]), Fraction(7, 8)) == 1
    d = choose_D2(256, 2, eta, Fraction(7, 8))
    # min(2*1, 8) * 256^(3/8) = 2 * 8 = 16
    assert d == 16


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
