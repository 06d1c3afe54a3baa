import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from mildspde.problems import (RegularityParams, check_growth_bounds,
                               commutativity_defect, make_example,
                               make_problem_from_config)


def _unit(i, n):
    """Coefficient vector of eigenfunction i (1-based) in dimension n."""
    return np.eye(n)[i - 1]


def test_example_parameters_exact():
    p1 = make_example(1).params
    assert (p1.beta, p1.gamma, p1.delta) == (0, Fraction(7, 8), Fraction(3, 8))
    assert p1.alpha == Fraction(9, 4)
    assert p1.q_dfm == Fraction(7, 8)
    p2 = make_example(2).params
    assert (p2.gamma, p2.alpha) == (Fraction(17, 24), Fraction(77, 36))
    assert p2.q_dfm == Fraction(17, 24)
    p3 = make_example(3).params
    assert (p3.beta, p3.gamma, p3.delta) == (Fraction(7, 8), 1, Fraction(1, 2))
    assert p3.alpha == Fraction(7, 3)
    assert p3.q_dfm == Fraction(1, 4)
    assert p3.q_ees == Fraction(1, 4)
    for p in (p1, p2, p3):
        assert (p.rho_a, p.rho_q) == (2, 3)


def test_example3_initial_and_horizon():
    prob = make_example(3)
    np.testing.assert_allclose(prob.initial_coeffs(4), [1, 1 / 4, 1 / 9, 1 / 16])
    assert prob.horizon == 1.0
    assert make_example(1).initial_coeffs(5).sum() == 0.0


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        make_example(4)


def test_drift_constant_coefficients_against_quadrature():
    # oracle: quadrature of the sine-basis integrals of the constant 1
    prob = make_example(1)
    out = prob.drift(np.zeros(4))
    for i in range(1, 5):
        val, err = quad(lambda x, i=i: math.sqrt(2) * math.sin(i * math.pi * x), 0, 1)
        assert abs(out[i - 1] - val) < 1e-12 + 10 * err
    assert out[0] == pytest.approx(2 * math.sqrt(2) / math.pi)
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_drift_affine_part():
    prob = make_example(2)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(6)
    out = prob.drift(y)
    base = prob.drift(np.zeros(6))
    np.testing.assert_allclose(out, base - y, rtol=1e-15)


def test_example3_drift_zero_at_zero_and_bounded():
    prob = make_example(3)
    assert np.all(prob.drift(np.zeros(5)) == 0.0)
    bound = math.sqrt(sum(float(i) ** -7 for i in range(1, 100000)))
    rng = np.random.default_rng(1)
    for _ in range(25):
        v = rng.standard_normal(12) * 10
        assert np.linalg.norm(prob.drift(v)) <= bound + 1e-12


def test_diffusion_column_values():
    prob = make_example(1)
    col = prob.diffusion.column(_unit(1, 3), 1, 3)
    assert col[0] == pytest.approx(0.5)   # 1/(1^{4/3}+1)
    assert np.all(prob.diffusion.column(np.zeros(3), 2, 3) == 0.0)


def test_diffusion_column_linearity_exact():
    prob = make_example(2)
    rng = np.random.default_rng(2)
    y, z = rng.standard_normal((2, 6))
    for j in (1, 3, 6):
        lhs = prob.diffusion.column(y + z, j, 6)
        rhs = prob.diffusion.column(y, j, 6) + prob.diffusion.column(z, j, 6)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_diffusion_column_out_of_range():
    prob = make_example(1)
    with pytest.raises(ValueError):
        prob.diffusion.column(np.zeros(3), 4, 3)


def test_diffusion_derivative_values():
    prob = make_example(1)
    assert prob.diffusion.has_derivative
    out = prob.diffusion.deriv_column(np.zeros(3), _unit(1, 3), 1, 3)
    assert out[1] == pytest.approx(1.0 / (2.0 ** (4.0 / 3.0) + 1.0))
    assert np.all(prob.diffusion.deriv_column(np.zeros(3), np.zeros(3), 2, 3) == 0.0)


def test_diffusion_derivative_matches_column_and_ignores_base_point():
    rng = np.random.default_rng(3)
    for ex in (1, 2, 3):
        prob = make_example(ex)
        v, y1, y2 = rng.standard_normal((3, 5))
        for j in (1, 4):
            d1 = prob.diffusion.deriv_column(y1, v, j, 5)
            d2 = prob.diffusion.deriv_column(y2, v, j, 5)
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(d1, prob.diffusion.column(v, j, 5))


def test_commutativity_defect_positive_for_examples():
    for ex in (1, 2, 3):
        prob = make_example(ex)
        ones = np.ones(4)
        assert commutativity_defect(prob, ones, n=4, k=2) > 0
        assert commutativity_defect(prob, ones, n=4, k=4) > 0


def test_commutativity_defect_trivial_cases():
    prob = make_example(1)
    assert commutativity_defect(prob, np.zeros(4), n=4, k=3) == 0.0
    ones = np.ones(4)
    assert commutativity_defect(prob, ones, n=4, k=1) == 0.0
    with pytest.raises(ValueError):
        commutativity_defect(prob, ones, n=2, k=3)


def test_growth_bounds_zero_field():
    prob = make_example(1)
    rep = check_growth_bounds(prob, [np.zeros(8)], n=8, k=8)
    assert rep.max_ratio == 0.0
    with pytest.raises(ValueError, match=r"expected \(8,\)"):
        check_growth_bounds(prob, [np.zeros(5)], n=8, k=8)


def test_growth_bounds_ratios_bounded_under_rescaling():
    # oracle: dense-matrix operator norms; linearity means the ratio is
    # bounded uniformly along rays y -> c y
    prob = make_example(1)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(8)
    samples = [c * y for c in (0.01, 0.1, 1.0, 10.0, 1000.0)]
    rep = check_growth_bounds(prob, samples, n=8, k=8)
    assert np.all(np.isfinite(rep.ratios))
    assert rep.max_ratio <= rep.ratios[-1] * 1.000001  # saturates along the ray


def test_growth_bounds_doubling_doubles_operator_norm():
    prob = make_example(2)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(8)
    m1 = prob.diffusion.matrix(y, 8, 8)
    m2 = prob.diffusion.matrix(2 * y, 8, 8)
    np.testing.assert_allclose(m2, 2 * m1, rtol=1e-15)


def test_regularity_params_validation():
    good = dict(beta=Fraction(0), gamma=Fraction(7, 8), delta=Fraction(3, 8),
                alpha=Fraction(9, 4),
                rho_a=Fraction(2), rho_q=Fraction(3))
    RegularityParams(**good)
    for key, bad in [("beta", Fraction(1)), ("delta", Fraction(0)),
                     ("gamma", Fraction(9, 8)), ("alpha", Fraction(0)),
                     ("rho_q", Fraction(1)), ("rho_a", Fraction(0))]:
        with pytest.raises(ValueError):
            RegularityParams(**{**good, key: bad})


def test_problem_from_config_roundtrip():
    cfg = {"p": "44/41", "rho_q": 3, "gamma": "17/24", "delta": "5/24",
           "alpha": "77/36", "drift": "affine", "initial": "zero"}
    prob = make_problem_from_config(cfg)
    ref = make_example(2)
    assert prob.params == ref.params
    rng = np.random.default_rng(6)
    y = rng.standard_normal(5)
    np.testing.assert_array_equal(prob.drift(y), ref.drift(y))
    np.testing.assert_array_equal(prob.diffusion.column(y, 2, 5),
                                  ref.diffusion.column(y, 2, 5))


def test_problem_from_config_sine_drift_and_power_initial():
    cfg = {"p": 4, "rho_q": 3, "gamma": 1, "delta": "1/2", "alpha": "7/3",
           "beta": "7/8", "drift": "spectral_sine",
           "s": "7/2", "r": "7/2", "initial": {"power": 2}}
    prob = make_problem_from_config(cfg)
    ref = make_example(3)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(6)
    np.testing.assert_array_equal(prob.drift(y), ref.drift(y))
    np.testing.assert_array_equal(prob.initial_coeffs(6), ref.initial_coeffs(6))


def test_problem_from_config_rejects_unknown_keys():
    cfg = {"p": "4/3", "rho_q": 3, "gamma": "7/8", "delta": "3/8", "alpha": "9/4"}
    for bad in ({"rho_Q": 5}, {"vartheta": "1/4"}):
        with pytest.raises(ValueError, match="unknown config key") as exc:
            make_problem_from_config({**cfg, **bad})
        assert next(iter(bad)) in str(exc.value)
        assert "accepted: p, rho_q, gamma" in str(exc.value)


def test_problem_from_config_names_missing_keys():
    with pytest.raises(ValueError, match="missing config key") as exc:
        make_problem_from_config({"p": "4/3", "rho_q": 3, "delta": "3/8", "alpha": "9/4"})
    assert "gamma" in str(exc.value) and "accepted:" in str(exc.value)
    with pytest.raises(ValueError, match="s, r"):
        make_problem_from_config({"p": 4, "rho_q": 3, "gamma": 1, "delta": "1/2",
                                  "alpha": "7/3", "beta": "7/8", "drift": "spectral_sine"})


def test_problem_from_config_rejects_gamma_equal_beta():
    # q = min(2(gamma-beta), gamma) would be 0; refused where PlanInput refuses it
    cfg = {"p": 4, "rho_q": 3, "gamma": "1/2", "beta": "1/2", "delta": "1/2",
           "alpha": "7/3"}
    with pytest.raises(ValueError, match="gamma must exceed beta and be positive"):
        make_problem_from_config(cfg)
