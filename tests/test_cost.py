from fractions import Fraction

import numpy as np
import pytest

from mildspde.cost import CostLedger, cost_formula, ledger_expected
from mildspde.noise import alg1_iterated_batch, sample_increments_batch, substream
from mildspde.problems import make_example
from mildspde.schemes import MILSTEIN_KINDS, SchemeConfig, integrate

Q1 = Fraction(7, 8)
Q2 = Fraction(17, 24)


def test_cost_formula_published_values_example1():
    # (N, M, K) ladder of the first example's tables
    ladder = [(2, 4, 2), (4, 16, 2), (8, 64, 2), (16, 256, 3), (32, 1024, 3)]
    dfm = [cost_formula("DFM", n, k, m, Q1) for n, m, k in ladder]
    mil = [cost_formula("MIL", n, k, m, Q1) for n, m, k in ladder]
    assert dfm == [94, 864, 8481, 127744, 1344631]
    assert mil == [110, 1248, 15649, 312064, 4392055]
    ees_ladder = [(2, 12, 2), (4, 128, 2), (8, 1449, 2), (16, 16384, 3), (32, 185364, 3)]
    ees = [cost_formula("EES", n, k, m) for n, m, k in ees_ladder]
    assert ees == [96, 1792, 37674, 1097728, 24282684]


def test_cost_formula_published_values_example2():
    ladder = [(2, 4, 2), (4, 16, 2), (8, 64, 2), (16, 256, 2), (32, 1024, 3)]
    dfm = [cost_formula("DFM", n, k, m, Q2) for n, m, k in ladder]
    mil = [cost_formula("MIL", n, k, m, Q2) for n, m, k in ladder]
    assert dfm == [77, 556, 4137, 31314, 342791]
    assert mil == [93, 940, 11305, 154194, 3390215]
    ees_ladder = [(2, 8, 2), (4, 51, 2), (8, 363, 2), (16, 2581, 2), (32, 18391, 3)]
    ees = [cost_formula("EES", n, k, m) for n, m, k in ees_ladder]
    assert ees == [64, 714, 9438, 129050, 2409221]


def test_cost_formula_exact_power_path():
    # 16^(3/4) = 8 exactly: total is an exact integer, no float ceiling
    assert cost_formula("DFM", 4, 2, 16, Q1) == 64 + 256 + 32 * 17


def test_cost_formula_requires_q_for_milstein():
    with pytest.raises(ValueError):
        cost_formula("DFM", 4, 2, 16)
    with pytest.raises(ValueError):
        cost_formula("XYZ", 4, 2, 16, Q1)
    assert cost_formula("LIE", 4, 2, 16) == cost_formula("EES", 4, 2, 16)


def test_dfm_cheaper_than_mil():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(1, 50))
        m = int(rng.integers(1, 5000))
        q = Fraction(int(rng.integers(1, 16)), 16)
        assert cost_formula("DFM", n, k, m, q) < cost_formula("MIL", n, k, m, q)


def test_ledger_expected_values():
    dfm = ledger_expected("DFM", 4, 2, 3)
    assert (dfm.f, dfm.b, dfm.bprime, dfm.normals) == (4, 16, 0, 14)
    ees = ledger_expected("EES", 4, 2)
    assert (ees.f, ees.b, ees.bprime, ees.normals) == (4, 8, 0, 2)
    mil = ledger_expected("MIL", 4, 2, 3)
    assert mil.bprime == 32
    lie = ledger_expected("LIE", 4, 2)
    assert (lie.f, lie.b, lie.normals) == (4, 8, 2)
    with pytest.raises(ValueError):
        ledger_expected("DFM", 4, 2)


def test_instrumented_ledger_matches_expected_for_every_scheme():
    prob = make_example(1)
    n, k, m, d = 6, 3, 16, 4
    eta = prob.q_law.values(k)
    h = prob.horizon / m
    for kind in ("DFM", "MIL", "EES", "LIE"):
        led = CostLedger()
        db = sample_increments_batch(substream(0, 1), m, k, h, ledger=led)
        if kind in MILSTEIN_KINDS:
            cfg = SchemeConfig(kind, n=n, k=k, m=m, d=d, horizon=prob.horizon)
            iq = alg1_iterated_batch(substream(0, 2), db, h, d, eta, ledger=led)
            exp = ledger_expected(kind, n, k, d)
        else:
            cfg = SchemeConfig(kind, n=n, k=k, m=m, horizon=prob.horizon)
            iq = None
            exp = ledger_expected(kind, n, k)
        integrate(cfg, prob, db, iq, ledger=led)
        got = (led.functional_evals_f, led.functional_evals_b,
               led.functional_evals_bprime, led.normal_draws)
        assert got == (m * exp.f, m * exp.b, m * exp.bprime, m * exp.normals)


def test_ledger_total():
    # unit_ops (55) is information only and never enters the total
    led = CostLedger(11, 22, 33, 44, 55)
    assert led.total() == (11 + 22 + 33) + 44
    assert led.total(c=2) == 2 * (11 + 22 + 33) + 44
