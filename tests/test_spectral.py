import math

import numpy as np
import pytest

from mildspde.problems import make_example
from mildspde.schemes import REGISTRY
from mildspde.spectral import EigenLaw

LAP = EigenLaw.laplacian(scale=0.01)
PROB = make_example(1)                 # its drift operator has the law LAP
DECAY_KINDS = ("DFM", "MIL", "EES")     # the kinds stepping with the semigroup


def _semigroup(n, h):
    props = [REGISTRY[kind].propagator(PROB, n, h) for kind in DECAY_KINDS]
    for other in props[1:]:
        assert np.array_equal(other, props[0])
    return props[0]


def test_semigroup_single_mode():
    # oracle: direct scalar evaluation of exp(-pi^2/100)
    out = _semigroup(1, 1.0)
    assert math.isclose(out[0], math.exp(-math.pi**2 / 100), rel_tol=1e-15)
    assert abs(out[0] - 0.9060) < 5e-4


def test_semigroup_zero_step_is_identity():
    f = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(_semigroup(3, 0.0) * f, f)


def test_semigroup_composition():
    rng = np.random.default_rng(1)
    f = rng.standard_normal(6)
    a = _semigroup(6, 0.45) * (_semigroup(6, 0.3) * f)
    b = _semigroup(6, 0.75) * f
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_semigroup_contracts_and_commutes_with_project():
    # projection is truncation: the semigroup of the leading 4 modes is the
    # leading part of the semigroup of 8
    rng = np.random.default_rng(2)
    f = rng.standard_normal(8)
    out = _semigroup(8, 0.5) * f
    assert np.linalg.norm(out) < np.linalg.norm(f)
    np.testing.assert_array_equal(out[:4], _semigroup(4, 0.5) * f[:4])


def test_eigenlaw_laplacian_increasing_positive():
    vals = LAP.values(20)
    assert vals[0] > 0
    assert np.all(np.diff(vals) > 0)
    assert vals[0] == pytest.approx(math.pi**2 / 100)


def test_eigenlaw_power_decreasing_summable():
    law = EigenLaw.power_decay(rho=3.0)
    vals = law.values(50)
    assert np.all(np.diff(vals) < 0)
    assert vals[1] == pytest.approx(1 / 8)


def test_eigenlaw_rejects_bad_parameters():
    with pytest.raises(ValueError):
        EigenLaw.power_decay(rho=0.0)
    with pytest.raises(ValueError):
        EigenLaw(kind="fourier")
