import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildspde.cost import CostLedger
from mildspde.noise import alg1_iterated_batch, sample_increments_batch, substream
from mildspde.problems import (ProblemSpec, ZeroDiffusion, ZeroDrift,
                               PowerLawInitial, make_example)
from mildspde.schemes import (KINDS, MILSTEIN_KINDS, NonFiniteState, SchemeConfig,
                              integrate)


@dataclass(frozen=True)
class _FixedInitial:
    """Initial law that returns a fixed start vector (test-local)."""

    start: tuple

    def coeffs(self, n):
        assert n == len(self.start)
        return np.array(self.start)


def _one_step(kind, prob, y, db, iq, h):
    """State after one step of `kind` from y: integrate with m = 1."""
    cfg = SchemeConfig(kind, n=len(y), k=len(db), m=1)
    start = replace(prob, initial=_FixedInitial(tuple(y)), horizon=h)
    iq = None if iq is None else np.asarray(iq, dtype=float)[None]
    return integrate(cfg, start, np.asarray(db, dtype=float)[None], iq, at=[1])[0]


class _ForwardingDiffusion:
    """Exposes only matrix, stage_columns, deriv_column and has_derivative
    of the diffusion it wraps, as bench/tracer.py's timing wrapper does, and
    counts the calls of each (test-local)."""

    def __init__(self, diffusion):
        self._diffusion = diffusion
        self.has_derivative = diffusion.has_derivative
        self.calls = {"matrix": 0, "stage_columns": 0, "deriv_column": 0}

    def _forward(self, name, args):
        self.calls[name] += 1
        return getattr(self._diffusion, name)(*args)

    def matrix(self, *args):
        return self._forward("matrix", args)

    def stage_columns(self, *args):
        return self._forward("stage_columns", args)

    def deriv_column(self, *args):
        return self._forward("deriv_column", args)


def _zero_noise_problem():
    base = make_example(1)
    return ProblemSpec("heat", base.a_law, base.q_law, ZeroDrift(),
                       ZeroDiffusion(), PowerLawInitial(2.0), base.params)


def test_config_validation():
    SchemeConfig("DFM", n=4, k=2, m=8)
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
    col = prob.diffusion.matrix(y, 4, 1)[:, 0]
    deriv = prob.diffusion.deriv_column(y, col[None], 4)[0]
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
    cfg = SchemeConfig("DFM", n=4, k=2, m=m)
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
    cfg = SchemeConfig("EES", n=n, k=2, m=m)
    traj = integrate(cfg, prob, np.zeros((m, 2)))
    lam = prob.a_law.values(n)
    xi = prob.initial_coeffs(n)
    for step in range(m + 1):
        expect = np.exp(-lam * (step / m)) * xi
        np.testing.assert_allclose(traj[step], expect, rtol=1e-13)


def test_integrate_replay_bitwise():
    prob = make_example(2)
    cfg = SchemeConfig("MIL", n=6, k=3, m=12)
    eta = prob.q_law.values(3)

    def run():
        db = sample_increments_batch(substream(9, 1), 12, 3, 1 / 12)
        iq = alg1_iterated_batch(substream(9, 2), db, 1 / 12, 4, eta)
        return integrate(cfg, prob, db, iq)

    np.testing.assert_array_equal(run(), run())


def test_integrate_at_selects_steps_of_the_trajectory():
    prob = make_example(1)
    cfg = SchemeConfig("LIE", n=4, k=2, m=8)
    db = sample_increments_batch(substream(3, 1), 8, 2, 1 / 8)
    traj = integrate(cfg, prob, db)
    assert traj.shape == (9, 4)
    np.testing.assert_array_equal(integrate(cfg, prob, db, at=[8]), traj[[8]])
    np.testing.assert_array_equal(integrate(cfg, prob, db, at=[0, 4, 8]), traj[[0, 4, 8]])
    np.testing.assert_array_equal(integrate(cfg, prob, db, at=np.arange(2, 6)), traj[2:6])


@pytest.mark.parametrize("at", [[4, 2], [2, 2], [], [-1, 3], [3, 9], [[1, 2]], [0.5, 2]])
def test_integrate_rejects_bad_at(at):
    prob = make_example(1)
    cfg = SchemeConfig("LIE", n=4, k=2, m=8)
    with pytest.raises(ValueError, match="at must be"):
        integrate(cfg, prob, np.zeros((8, 2)), at=at)


def test_integrate_rejects_short_noise():
    prob = make_example(1)
    cfg = SchemeConfig("EES", n=4, k=2, m=8)
    with pytest.raises(ValueError):
        integrate(cfg, prob, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        integrate(cfg, prob, np.zeros((8, 3)))                     # wrong K
    with pytest.raises(ValueError):
        integrate(cfg, prob, np.zeros((8, 2)), np.zeros((8, 2, 2)))  # Euler takes no iq
    mil = SchemeConfig("MIL", n=4, k=2, m=8)
    with pytest.raises(ValueError):
        integrate(mil, prob, np.zeros((8, 2)))                     # iq missing
    with pytest.raises(ValueError):
        integrate(mil, prob, np.zeros((8, 2)), np.zeros((7, 2, 2)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batched", [False, True])
def test_integrate_continues_from_y0(kind, batched):
    # calls chained through their last states equal one call bit for bit,
    # and their bills add up to its bill
    prob = make_example(3)
    n, k, m = 6, 3, 10
    cfg = SchemeConfig(kind, n=n, k=k, m=m)
    db, iq = _path_noise(kind, prob, 3, n, k, m, seed=7)
    if not batched:
        db, iq = db[0], None if iq is None else iq[0]

    def steps(x, lo, hi):
        return None if x is None else x[:, lo:hi] if batched else x[lo:hi]

    whole_bill, parts_bill = CostLedger(), CostLedger()
    whole = integrate(cfg, prob, db, iq, ledger=whole_bill)
    head = integrate(cfg, prob, db, iq, ledger=parts_bill, at=np.arange(5))
    middle = integrate(cfg, prob, steps(db, 4, 7), steps(iq, 4, 7), ledger=parts_bill,
                       y0=head[..., -1, :], at=[0, 3])
    tail = integrate(cfg, prob, steps(db, 7, m), steps(iq, 7, m), ledger=parts_bill,
                     y0=middle[..., -1, :])
    # step 0 of a continued call is y0; the tail observes steps 7..10
    assert np.array_equal(middle[..., 0, :], head[..., -1, :])
    chained = np.concatenate([head, middle[..., 1:, :], tail[..., 1:, :]], axis=-2)
    assert np.array_equal(chained, whole[..., [0, 1, 2, 3, 4, 7, 8, 9, 10], :])
    assert parts_bill == whole_bill
    # one (n,) state serves every path
    start = prob.initial_coeffs(n)
    assert np.array_equal(integrate(cfg, prob, db, iq, y0=start), whole)


def test_integrate_rejects_bad_y0():
    prob = make_example(1)
    cfg = SchemeConfig("EES", n=4, k=2, m=8)
    y0 = np.ones(4)
    for bad in (np.ones(5), np.ones((2, 4)), np.array([1.0, np.nan, 0.0, 0.0]),
                np.array([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="y0"):
            integrate(cfg, prob, np.zeros((3, 2)), y0=bad)
    with pytest.raises(ValueError, match="y0"):
        integrate(cfg, prob, np.zeros((2, 3, 2)), y0=np.ones((3, 4)))   # 3 states, 2 paths
    # a continued call takes at most the grid's m steps
    with pytest.raises(ValueError, match="increments"):
        integrate(cfg, prob, np.zeros((9, 2)), y0=y0)
    assert integrate(cfg, prob, np.zeros((3, 2)), y0=y0).shape == (4, 4)


def test_step_output_stays_projected():
    prob = make_example(1)
    y = np.arange(1.0, 6.0)
    assert _one_step("DFM", prob, y, np.zeros(3), np.zeros((3, 3)), 0.1).shape == (5,)
    assert _one_step("EES", prob, y, np.zeros(3), None, 0.1).shape == (5,)


def _path_noise(kind, prob, paths, n, k, m, seed):
    """(P, m, k) increments and, for the Milstein-type kinds, (P, m, k, k)
    iterated integrals, each path from its own substreams."""
    h = prob.horizon / m
    eta = prob.q_law.values(k)
    db = np.stack([sample_increments_batch(substream(seed, p, 1), m, k, h)
                   for p in range(paths)])
    if kind not in MILSTEIN_KINDS:
        return db, None
    iq = np.stack([alg1_iterated_batch(substream(seed, p, 2), db[p], h, 3, eta)
                   for p in range(paths)])
    return db, iq


@settings(derandomize=True, max_examples=20, deadline=None)
@given(kind=st.sampled_from(KINDS), example=st.sampled_from((1, 3)),
       at=st.one_of(st.none(), st.sets(st.integers(0, 12), min_size=1).map(sorted)),
       paths=st.integers(1, 4), n=st.sampled_from((4, 16)), seed=st.integers(0, 999))
def test_batched_integrate_equals_stacked_single_calls(kind, example, at, paths, n, seed):
    # at ranges over every step (None) and sorted subsets of 0..m, with or
    # without 0 and m
    prob = make_example(example)
    k, m = min(n, 5), 12
    cfg = SchemeConfig(kind, n=n, k=k, m=m)
    db, iq = _path_noise(kind, prob, paths, n, k, m, seed)
    batched = integrate(cfg, prob, db, iq, at=at)
    singles = [integrate(cfg, prob, db[p], None if iq is None else iq[p], at=at)
               for p in range(paths)]
    assert batched.shape == (paths, m + 1 if at is None else len(at), n)
    assert np.array_equal(batched, np.stack(singles))


@pytest.mark.parametrize("kind", KINDS)
def test_batched_integrate_charges_one_path(kind):
    prob = make_example(2)
    n, k, m = 6, 3, 8
    cfg = SchemeConfig(kind, n=n, k=k, m=m)
    db, iq = _path_noise(kind, prob, 4, n, k, m, seed=5)
    one, four = CostLedger(), CostLedger()
    integrate(cfg, prob, db[0], None if iq is None else iq[0], ledger=one)
    integrate(cfg, prob, db, iq, ledger=four)
    assert four == one and one.functional_evals_f == m * n
    # stepping stops at at[-1], and the bill counts the steps taken
    part = CostLedger()
    integrate(cfg, prob, db, iq, ledger=part, at=[0, 3])
    assert part.functional_evals_f == 3 * n


def test_integrate_names_first_non_finite_path():
    # paths 1 and 2 overflow within a few steps; path 0 stays finite
    prob = make_example(1)
    cfg = SchemeConfig("EES", n=4, k=2, m=600)
    db = np.zeros((3, 600, 2))
    db[1:] = 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState) as exc:
            integrate(cfg, prob, db, at=[cfg.m])
    assert exc.value.path == 1 and exc.value.kind == "EES"
    assert exc.value.step < cfg.m        # stopped before the last step


@pytest.mark.parametrize("kind", KINDS)
def test_forwarding_diffusion_runs_every_kind_with_one_derivative_call_per_step(kind):
    prob = make_example(3)
    forwarding = _ForwardingDiffusion(prob.diffusion)
    cfg = SchemeConfig(kind, n=16, k=16, m=8)
    rng = np.random.default_rng(4)
    h = prob.horizon / cfg.m
    db = rng.standard_normal((3, cfg.m, cfg.k)) * math.sqrt(h)
    iq = None
    if kind in MILSTEIN_KINDS:
        eta = prob.q_law.values(cfg.k)
        iq = np.stack([alg1_iterated_batch(substream(4, p), db[p], h, 4, eta)
                       for p in range(3)])
    got = integrate(cfg, replace(prob, diffusion=forwarding), db, iq)
    np.testing.assert_array_equal(got, integrate(cfg, prob, db, iq))
    # one matrix call per step, plus one stage_columns call per DFM step and
    # one deriv_column call per MIL step; nothing else is asked for
    assert forwarding.calls == {"matrix": cfg.m,
                                "stage_columns": cfg.m if kind == "DFM" else 0,
                                "deriv_column": cfg.m if kind == "MIL" else 0}

