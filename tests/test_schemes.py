import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from mildspde.noise import alg1_iterated_batch, sample_increments_batch, substream
from mildspde.problems import (ProblemSpec, ZeroDiffusion, ZeroDrift,
                               PowerLawInitial, make_example)
from mildspde.schemes import MILSTEIN_KINDS, SchemeConfig, integrate


@dataclass(frozen=True)
class _FixedInitial:
    """Initial law that returns a fixed start vector (test-local)."""

    start: tuple

    def coeffs(self, n):
        assert n == len(self.start)
        return np.array(self.start)


def _one_step(kind, prob, y, db, iq, h):
    """State after one step of `kind` from y: integrate with m = 1."""
    cfg = SchemeConfig(kind, n=len(y), k=len(db), m=1,
                       d=1 if kind in MILSTEIN_KINDS else None, horizon=h)
    start = replace(prob, initial=_FixedInitial(tuple(y)))
    iq = None if iq is None else np.asarray(iq, dtype=float)[None]
    return integrate(cfg, start, np.asarray(db, dtype=float)[None], iq, store="final")


def _zero_noise_problem():
    base = make_example(1)
    return ProblemSpec("heat", base.a_law, base.q_law, ZeroDrift(),
                       ZeroDiffusion(), PowerLawInitial(2.0), base.params)


def test_config_validation():
    SchemeConfig("DFM", n=4, k=2, m=8, d=3)
    with pytest.raises(ValueError):
        SchemeConfig("DFM", n=4, k=2, m=8)          # missing depth
    with pytest.raises(ValueError):
        SchemeConfig("EES", n=4, k=2, m=8, d=3)     # spurious depth
    with pytest.raises(ValueError):
        SchemeConfig("EES", n=4, k=8, m=8)          # K > N
    with pytest.raises(ValueError):
        SchemeConfig("EES", n=4, k=2, m=0)


def test_zero_packet_reduces_to_semigroup():
    prob = _zero_noise_problem()
    h = 0.25
    y = np.array([1.0, -2.0, 0.5])
    decay = np.exp(-prob.a_law.values(3) * h)
    for kind in ("DFM", "MIL"):
        out = _one_step(kind, prob, y, np.zeros(3), np.zeros((3, 3)), h)
        np.testing.assert_allclose(out, decay * y, rtol=1e-15)
    out = _one_step("EES", prob, y, np.zeros(3), None, h)
    np.testing.assert_allclose(out, decay * y, rtol=1e-15)


def test_dfm_from_zero_state_is_drift_only():
    # diffusion vanishes at zero state, so one step is e^{Ah}(h F(0))
    prob = make_example(1)
    h = 0.125
    eta = prob.q_law.values(4)
    rng = substream(0, 1)
    db = rng.standard_normal(4) * math.sqrt(h)
    iq = alg1_iterated_batch(substream(0, 2), db[None], h, 5, eta)[0]
    out = _one_step("DFM", prob, np.zeros(4), db, iq, h)
    decay = np.exp(-prob.a_law.values(4) * h)
    expect = decay * (h * prob.drift(np.zeros(4)))
    np.testing.assert_allclose(out, expect, rtol=1e-14)


def test_dfm_matches_mil_on_linear_diffusion():
    for ex in (1, 2):
        prob = make_example(ex)
        h = 1 / 16
        eta = prob.q_law.values(6)
        rng = np.random.default_rng(ex)
        y = rng.standard_normal(6)
        db = rng.standard_normal(6) * math.sqrt(h)
        iq = alg1_iterated_batch(substream(ex, 3), db[None], h, 8, eta)[0]
        a = _one_step("DFM", prob, y, db, iq, h)
        b = _one_step("MIL", prob, y, db, iq, h)
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_mil_single_noise_direction_expansion():
    prob = make_example(1)
    h = 0.1
    eta = prob.q_law.values(1)
    db = np.array([0.23])
    iq = np.array([[eta[0] * (db[0] ** 2 - h) / 2.0]])
    rng = np.random.default_rng(5)
    y = rng.standard_normal(4)
    got = _one_step("MIL", prob, y, db, iq, h)
    decay = np.exp(-prob.a_law.values(4) * h)
    col = prob.diffusion.column(y, 1, 4)
    deriv = prob.diffusion.deriv_column(y, col, 1, 4)
    expect = decay * (y + h * prob.drift(y)
                      + col * math.sqrt(eta[0]) * db[0]
                      + iq[0, 0] * deriv)
    np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_ees_is_dfm_without_stage_sum():
    prob = make_example(1)
    h = 0.2
    rng = np.random.default_rng(7)
    y = rng.standard_normal(4)
    db = rng.standard_normal(4) * math.sqrt(h)
    # with a zero iterated matrix every stage equals y, so the sums agree
    np.testing.assert_allclose(_one_step("DFM", prob, y, db, np.zeros((4, 4)), h),
                               _one_step("EES", prob, y, db, None, h), rtol=1e-14)


def test_ees_near_identity_for_tiny_step():
    prob = make_example(1)
    y = np.array([0.4, -0.3])
    out = _one_step("EES", prob, y, np.zeros(2), None, 1e-12)
    np.testing.assert_allclose(out, y, rtol=1e-9)


def test_lie_single_mode_resolvent():
    prob = _zero_noise_problem()
    h = 0.5
    lam = prob.a_law.values(3)
    y = np.array([2.0, 0.0, -1.0])
    out = _one_step("LIE", prob, y, np.zeros(3), None, h)
    np.testing.assert_allclose(out, y / (1 + lam * h), rtol=1e-15)


def test_lie_vs_ees_second_order_gap_per_mode():
    # scalar oracle: e^{-x} - 1/(1+x) = x^2/2 + O(x^3)
    prob = _zero_noise_problem()
    for x in (1e-2, 1e-3):
        h = x / prob.a_law.values(1)[0]
        y = np.array([1.0])
        gap = abs(_one_step("LIE", prob, y, np.zeros(1), None, h)[0]
                  - _one_step("EES", prob, y, np.zeros(1), None, h)[0])
        assert 0.4 * x**2 < gap < 0.6 * x**2


def test_integrate_single_step_matches_step():
    # each step of a trajectory is a one-step integrate from the previous state
    prob = make_example(1)
    m, h = 2, 0.5
    cfg = SchemeConfig("DFM", n=4, k=2, m=m, d=2, horizon=1.0)
    eta = prob.q_law.values(2)
    db = sample_increments_batch(substream(1, 1), m, 2, h)
    iq = alg1_iterated_batch(substream(1, 2), db, h, 2, eta)
    traj = integrate(cfg, prob, db, iq)
    for step in range(m):
        one = _one_step("DFM", prob, traj[step], db[step], iq[step], h)
        np.testing.assert_array_equal(traj[step + 1], one)


def test_integrate_pure_heat_decay():
    prob = _zero_noise_problem()
    m, n = 8, 5
    cfg = SchemeConfig("EES", n=n, k=2, m=m, horizon=1.0)
    traj = integrate(cfg, prob, np.zeros((m, 2)))
    lam = prob.a_law.values(n)
    xi = prob.initial_coeffs(n)
    for step in range(m + 1):
        expect = np.exp(-lam * (step / m)) * xi
        np.testing.assert_allclose(traj[step], expect, rtol=1e-13)


def test_integrate_replay_bitwise():
    prob = make_example(2)
    cfg = SchemeConfig("MIL", n=6, k=3, m=12, d=4, horizon=1.0)
    eta = prob.q_law.values(3)

    def run():
        db = sample_increments_batch(substream(9, 1), 12, 3, 1 / 12)
        iq = alg1_iterated_batch(substream(9, 2), db, 1 / 12, 4, eta)
        return integrate(cfg, prob, db, iq)

    np.testing.assert_array_equal(run(), run())


def test_integrate_final_mode_and_capture():
    prob = make_example(1)
    cfg = SchemeConfig("LIE", n=4, k=2, m=8, horizon=1.0)
    db = sample_increments_batch(substream(3, 1), 8, 2, 1 / 8)
    traj = integrate(cfg, prob, db)
    final, caps = integrate(cfg, prob, db, store="final", capture={0, 4, 8})
    np.testing.assert_array_equal(final, traj[-1])
    np.testing.assert_array_equal(caps[4], traj[4])
    np.testing.assert_array_equal(caps[0], traj[0])


def test_integrate_rejects_short_noise():
    prob = make_example(1)
    cfg = SchemeConfig("EES", n=4, k=2, m=8, horizon=1.0)
    with pytest.raises(ValueError):
        integrate(cfg, prob, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        integrate(cfg, prob, np.zeros((8, 3)))                     # wrong K
    with pytest.raises(ValueError):
        integrate(cfg, prob, np.zeros((8, 2)), np.zeros((8, 2, 2)))  # Euler takes no iq
    mil = SchemeConfig("MIL", n=4, k=2, m=8, d=1, horizon=1.0)
    with pytest.raises(ValueError):
        integrate(mil, prob, np.zeros((8, 2)))                     # iq missing
    with pytest.raises(ValueError):
        integrate(mil, prob, np.zeros((8, 2)), np.zeros((7, 2, 2)))


def test_step_output_stays_projected():
    prob = make_example(1)
    y = np.arange(1.0, 6.0)
    assert _one_step("DFM", prob, y, np.zeros(3), np.zeros((3, 3)), 0.1).shape == (5,)
    assert _one_step("EES", prob, y, np.zeros(3), None, 0.1).shape == (5,)
