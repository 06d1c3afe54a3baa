import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mildspde.eoc import PlanInput, classify, eoc_exponent, optimal_resolution
from mildspde.exactmath import ceil_power
from mildspde.problems import make_example


def _plan(example_id, scheme, **kw):
    return PlanInput.from_problem(make_example(example_id), scheme, **kw)


def test_classification_of_examples():
    c1 = classify(_plan(1, "DFM"))
    assert c1.row == 3 and c1.optimal == ("DFM",)
    c2 = classify(_plan(2, "DFM"))
    assert c2.row == 2 and c2.optimal == ("DFM",)
    c3 = classify(_plan(3, "DFM"))
    assert c3.row == 1 and set(c3.optimal) == {"DFM", "EES"}


def test_eoc_exponents_example1():
    assert eoc_exponent(_plan(1, "DFM")) == Fraction(27, 58)
    assert eoc_exponent(_plan(1, "MIL")) == Fraction(189, 460)
    assert eoc_exponent(_plan(1, "EES")) == Fraction(189, 514)
    assert eoc_exponent(_plan(1, "LIE")) == Fraction(189, 514)


def test_eoc_exponents_example2():
    assert eoc_exponent(_plan(2, "DFM")) == Fraction(1309, 2976)
    assert eoc_exponent(_plan(2, "MIL")) == Fraction(1309, 3900)
    assert eoc_exponent(_plan(2, "EES")) == Fraction(1309, 3746)


def test_eoc_exponents_example3():
    assert eoc_exponent(_plan(3, "DFM")) == Fraction(14, 65)
    assert eoc_exponent(_plan(3, "EES")) == Fraction(14, 65)
    assert eoc_exponent(_plan(3, "MIL")) == Fraction(7, 36)


def test_finite_dim_exponents():
    # deep in the series-dominated regime the cap is exactly 1/2
    plan = PlanInput(gamma=Fraction(9, 10), beta=Fraction(0), alpha=Fraction(2),
                     rho_a=Fraction(8), rho_q=Fraction(3), scheme="DFM",
                     finite_dim_noise=True)
    g, q = plan.gamma * plan.rho_a, plan.q_milstein
    assert 2 * q <= g * (2 * q - 1)
    assert eoc_exponent(plan) == Fraction(1, 2)
    assert eoc_exponent(replace(plan, scheme="MIL")) == Fraction(1, 2)
    # balanced regime: g q / (g + q)
    plan2 = _plan(2, "DFM", finite_dim_noise=True)
    g2, q2 = plan2.gamma * plan2.rho_a, plan2.q_milstein
    assert eoc_exponent(plan2) == g2 * q2 / (g2 + q2)
    plan2e = _plan(2, "EES", finite_dim_noise=True)
    qe = plan2e.q
    assert eoc_exponent(plan2e) == g2 * qe / (g2 + qe)


def test_resolution_ladders_example1():
    plan = _plan(1, "DFM")
    res = optimal_resolution(plan, 8)
    assert (res.m, res.k) == (64, 2)
    assert res.m_exponent == 2 and res.k_exponent == Fraction(7, 27)
    assert res.d == 23          # ceil(64^(3/4))
    res16 = optimal_resolution(_plan(1, "EES"), 16)
    assert res16.m == 2**14 and res16.d is None
    assert res16.m_exponent == Fraction(7, 2)
    assert optimal_resolution(_plan(1, "DFM"), 32).k == 3


def test_resolution_ladders_example2_and_3():
    res = optimal_resolution(_plan(2, "DFM"), 32)
    assert (res.m, res.k) == (1024, 3)
    assert res.k_exponent == Fraction(17, 77)
    res_e = optimal_resolution(_plan(2, "EES"), 16)
    assert res_e.m == 2581      # ceil(2^(34/3))
    res3 = optimal_resolution(_plan(3, "DFM"), 2)
    assert res3.m == 2**8       # M grows like N^8
    assert res3.k_exponent == Fraction(2, 7)


def test_finite_dim_resolution_omits_k():
    res = optimal_resolution(_plan(1, "DFM", finite_dim_noise=True), 8)
    assert res.k is None and res.k_exponent is None
    assert res.m == 64


def test_boundary_tie_assigned_to_lower_row_and_formulas_agree():
    # gamma rho_A (2q-1) == q exactly: q = 3/4, gamma rho_A = 3/2
    plan = PlanInput(gamma=Fraction(3, 4), beta=Fraction(0), alpha=Fraction(2),
                     rho_a=Fraction(2), rho_q=Fraction(3), scheme="DFM")
    q, g, a = plan.q_milstein, plan.gamma * plan.rho_a, plan.alpha * plan.rho_q
    assert g * (2 * q - 1) == q
    assert classify(plan).row == 2
    balanced = g * a * q / ((a + g) * q + a * g)
    capped = a / (2 * a + 1)
    assert balanced == capped == eoc_exponent(plan)
    # MIL's tie gamma rho_A (2q-1) == 2q: q = 3/4, gamma rho_A = 3
    plan = replace(plan, rho_a=Fraction(4), scheme="MIL")
    g = plan.gamma * plan.rho_a
    assert g * (2 * q - 1) == 2 * q
    assert classify(plan).row == 3
    mil_balanced = g * a * q / ((2 * a + g) * q + a * g)
    assert mil_balanced == capped == eoc_exponent(plan)
    fd = replace(plan, finite_dim_noise=True)
    assert g * q / (g + 2 * q) == Fraction(1, 2) == eoc_exponent(fd)


def _named_exponent(plan):
    """The effective order by the paper's named regime formulas: the
    balanced M N K (DFM, EES, LIE) or M N^2 K (MIL) sweep until the
    series caps it (test-local oracle)."""
    g, a, q = plan.gamma * plan.rho_a, plan.alpha * plan.rho_q, plan.q
    half = Fraction(1, 2)
    if plan.finite_dim_noise:
        if plan.scheme in ("EES", "LIE"):
            return g * q / (g + q)
        if plan.scheme == "DFM":
            return g * q / (g + q) if g * (2 * q - 1) <= q else half
        return g * q / (g + 2 * q) if g * (2 * q - 1) <= 2 * q else half
    balanced = g * a * q / ((a + g) * q + a * g)
    capped = a / (2 * a + 1)
    if plan.scheme in ("EES", "LIE"):
        return balanced
    if plan.scheme == "DFM":
        return balanced if g * (2 * q - 1) <= q else capped
    mil_balanced = g * a * q / ((2 * a + g) * q + a * g)
    return mil_balanced if g * (2 * q - 1) <= 2 * q else capped


def test_random_sweep_invariants():
    rng = np.random.default_rng(0)
    half = Fraction(1, 2)
    checked = 0
    while checked < 1500:
        delta = Fraction(int(rng.integers(1, 12)), 24)
        beta = Fraction(int(rng.integers(0, 24)), 24)
        lo, hi = max(beta, delta), delta + half
        if lo > hi:
            continue
        num = int(rng.integers(0, 17))
        gamma = lo + (hi - lo) * Fraction(num, 16)
        if gamma <= beta or gamma == 0:
            continue
        alpha = Fraction(int(rng.integers(1, 49)), 12)
        rho_a = Fraction(int(rng.integers(1, 41)), 8)
        rho_q = 1 + Fraction(int(rng.integers(1, 41)), 12)
        for finite_dim in (False, True):
            plans = {s: PlanInput(gamma=gamma, beta=beta, alpha=alpha, rho_a=rho_a,
                                  rho_q=rho_q, scheme=s, finite_dim_noise=finite_dim)
                     for s in ("DFM", "MIL", "EES", "LIE")}
            eocs = {s: eoc_exponent(p) for s, p in plans.items()}
            assert eocs == {s: _named_exponent(p) for s, p in plans.items()}
            assert eocs["DFM"] >= eocs["MIL"]
            assert eocs["DFM"] >= eocs["EES"] == eocs["LIE"]
            assert all(v <= half for v in eocs.values())
            cls = classify(plans["DFM"])
            if cls.row == 4:
                assert eocs["DFM"] == eocs["MIL"]
        checked += 1


def test_ceil_power_exactness():
    assert ceil_power(16, Fraction(3, 4)) == 8
    assert ceil_power(8, Fraction(7, 27)) == 2
    assert ceil_power(2, Fraction(35, 2)) == 185364
    assert ceil_power(2, Fraction(34, 3)) == 2581
    assert ceil_power(5, Fraction(0)) == 1
    assert ceil_power(5, Fraction(-1, 2)) == 1
    assert ceil_power(1, Fraction(100)) == 1
    # scaled: the smallest x >= scale * n**e
    assert ceil_power(4, Fraction(1, 2), scale=3) == 6
    assert ceil_power(2, Fraction(1, 2), scale=3) == 5          # 4.24...
    assert ceil_power(16777216, Fraction(-1, 2), scale=2 * 16777216 * 2) == 16384
    # negative exponents, scaled and not
    assert ceil_power(16, Fraction(-1, 2), scale=8) == 2
    assert ceil_power(16, Fraction(-1, 2), scale=9) == 3        # 2.25
    assert ceil_power(2, Fraction(-3), scale=17) == 3           # 2.125
    assert ceil_power(1000, Fraction(-2, 3), scale=7) == 1      # 0.07
    for n in range(1, 12):
        for e in range(-4, 5):
            for scale in (1, 2, 3, 7, 100):
                assert ceil_power(n, Fraction(e), scale=scale) == math.ceil(scale * Fraction(n)**e)
    # far past the float range, and no float exponent
    assert ceil_power(10**6, Fraction(8)) == 10**48
    assert ceil_power(2**128, Fraction(8)) == 2**1024
    assert ceil_power(np.int64(2**20), np.int64(8)) == 2**160   # no int64 wrap
    with pytest.raises(ValueError):
        ceil_power(16, 0.75)


def test_plan_input_validation():
    with pytest.raises(ValueError):
        PlanInput(gamma=Fraction(1, 2), beta=Fraction(1, 2), alpha=Fraction(1),
                  rho_a=Fraction(2), rho_q=Fraction(3))
    with pytest.raises(ValueError):
        PlanInput(gamma=Fraction(1, 2), beta=Fraction(0), alpha=Fraction(1),
                  rho_a=Fraction(2), rho_q=Fraction(1))
    with pytest.raises(ValueError):
        PlanInput(gamma=Fraction(1, 2), beta=Fraction(0), alpha=Fraction(1),
                  rho_a=Fraction(2), rho_q=Fraction(3), scheme="RK4")
