"""Parabolic cylinder functions: oracles and ladder relations.

Independent oracles: the Hermite closed form for integer order, the
Weber differential equation (second derivative from the differentiated
series, never finite differences), and known special values at x = 0.
"""

import math

import numpy as np
import pytest

from kreinccr.exceptions import DomainError
from kreinccr.pcf import (F, hermite_closed_form, ladder_check, weber_D,
                          weber_ode_residual)

GRID = np.arange(-3.0, 3.0 + 1e-9, 0.25)


def test_special_values_at_zero():
    # D_lambda(0) = 2^{lambda/2} sqrt(pi) / Gamma((1 - lambda)/2)
    for lam in (-0.75, -0.5, 0.0, 0.5, 1.3):
        want = 2 ** (lam / 2) * math.sqrt(math.pi) / math.gamma((1 - lam) / 2)
        got = weber_D(lam, 0.0).value
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_gaussian_case():
    # D_0(x) = exp(-x^2/4)
    for x in GRID:
        v = weber_D(0.0, x)
        assert abs(v.value - math.exp(-x * x / 4)) < 1e-13
        assert abs(v.derivative + (x / 2) * math.exp(-x * x / 4)) < 1e-12


def test_hermite_oracle():
    for n in range(9):
        for x in (-2.5, -1.0, 0.0, 0.3, 1.7):
            got = weber_D(float(n), x).value
            want = hermite_closed_form(n, x)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_hermite_rejects_negative():
    with pytest.raises(ValueError):
        hermite_closed_form(-1, 0.0)


def test_ode_residual():
    for lam in (-0.9, -0.5, -0.1, 0.0, 0.3, 1.0, 2.7):
        for x in GRID:
            assert weber_ode_residual(lam, x) < 1e-7


def test_second_solution_complex_path():
    # D_{-lambda-1}(ix) solves the same Weber equation in x
    for lam in (-0.5, 0.3, 2.7):
        mu = -lam - 1
        for x in (-2.0, -0.5, 0.7, 1.9):
            v = weber_D(mu, 1j * x)
            # d/dx D(ix) = i D'(ix); d2/dx2 = -D''(ix)
            resid = abs(-v.second + (lam + 0.5 - x * x / 4) * v.value)
            assert resid < 1e-6


def test_ladder_relations():
    for lam in (-0.9, -0.5, -0.1, 0.0, 0.3, 1.0, 2.7):
        up, down = ladder_check(lam, GRID)
        assert up < 1e-7
        assert down < 1e-7


def test_lowering_annihilates_ground_family():
    # for lambda = 0 the lowering ladder kills F_0 identically
    _, down = ladder_check(0.0, GRID)
    assert down < 1e-12


def test_F_rescaling():
    for z in (-1.2, 0.4):
        val, dv = F(0.0, z)
        assert abs(val - math.exp(-z * z / 2)) < 1e-13
        assert abs(dv + z * math.exp(-z * z / 2)) < 1e-11


def test_window_enforced():
    with pytest.raises(DomainError):
        weber_D(25.0, 0.0)
    with pytest.raises(DomainError):
        weber_D(0.5, 13.0)


def test_error_estimate_bounds_truncation():
    v = weber_D(1.7, 2.5)
    assert v.est_error < 1e-12
    assert weber_ode_residual(1.7, 2.5) < max(1e-10, 100 * v.est_error)


@pytest.mark.parametrize("lam, x", [(1.7, 2.5), (-3.25, -1.0), (0.0, 0.0), (4.0, 1 + 0.5j)])
def test_ode_residual_property_is_the_module_function(lam, x):
    assert weber_D(lam, x).ode_residual == weber_ode_residual(lam, x)
