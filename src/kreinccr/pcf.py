"""Parabolic cylinder functions D_lambda and the associated ladders.

D_lambda(x) is evaluated from the confluent-hypergeometric decomposition

    D_l(x) = 2^{l/2} e^{-x^2/4} [ sqrt(pi) rgamma((1-l)/2) M(-l/2, 1/2, x^2/2)
             - sqrt(2 pi) x rgamma(-l/2) M((1-l)/2, 3/2, x^2/2) ],

with the Kummer series summed directly and the reciprocal gamma taken as
1/math.gamma, zero at the poles.  Derivatives come from term-wise
differentiation, never finite differences, so ladder residuals are
limited only by series accuracy.

The rescaled family F_l(z) = D_l(sqrt(2) z) satisfies the raising and
lowering relations

    (z - d/dz)/sqrt(2) F_l = F_{l+1},   (z + d/dz)/sqrt(2) F_l = l F_{l-1}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

LAMBDA_WINDOW = 20.0
X_WINDOW = 12.0
_MAX_TERMS = 400
_REL_STOP = 1e-16

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PcfValue:
    lam: float
    x: complex
    value: complex
    derivative: complex
    second: complex
    est_error: float

    @property
    def ode_residual(self) -> float:
        """|D'' + (lambda + 1/2 - x^2/4) D| at x."""
        return abs(self.second + (self.lam + 0.5 - self.x * self.x / 4) * self.value)


def _rgamma(x):
    """1/Gamma(x), with the value 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0 and x.is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def _kummer(a, b, t):
    """Kummer M(a,b,t) with first and second t-derivatives and a residual bound."""
    term = 1.0 + 0j
    s0 = term
    s1 = 0j  # d/dt
    s2 = 0j  # d2/dt2
    last = 0.0
    for n in range(1, _MAX_TERMS):
        term = term * (a + n - 1) / (b + n - 1) * t / n
        s0 += term
        if t != 0:
            s1 += n * term / t
            if n >= 2:
                s2 += n * (n - 1) * term / (t * t)
        else:
            if n == 1:
                s1 += a / b
            if n == 2:
                s2 += a * (a + 1) / (b * (b + 1))
        last = abs(term)
        if last < _REL_STOP * max(1.0, abs(s0)):
            break
    return s0, s1, s2, last


def weber_D(lam: float, x) -> PcfValue:
    """D_lambda(x) with derivative and an error estimate.

    Valid in the window |lambda| <= 20, |x| <= 12; outside it the Kummer
    series is no longer well-conditioned and a DomainError is raised.
    """
    if abs(lam) > LAMBDA_WINDOW:
        raise DomainError(f"lambda = {lam} outside |lambda| <= {LAMBDA_WINDOW}")
    if abs(x) > X_WINDOW:
        raise DomainError(f"|x| = {abs(x)} outside |x| <= {X_WINDOW}")
    x = complex(x)
    t = x * x / 2
    a_coef = math.sqrt(math.pi) * _rgamma((1 - lam) / 2)
    b_coef = math.sqrt(2 * math.pi) * _rgamma(-lam / 2)
    m1, dm1, ddm1, r1 = _kummer(-lam / 2, 0.5, t)
    m2, dm2, ddm2, r2 = _kummer((1 - lam) / 2, 1.5, t)
    pref = 2 ** (lam / 2)

    p = a_coef * m1 - b_coef * x * m2
    # chain rule with t = x^2/2, dt/dx = x
    dp = a_coef * dm1 * x - b_coef * (m2 + x * x * dm2)
    ddp = a_coef * (ddm1 * x * x + dm1) - b_coef * (3 * x * dm2 + x ** 3 * ddm2)

    e = cmath.exp(-x * x / 4)
    value = pref * e * p
    deriv = pref * e * (dp - x / 2 * p)
    second = pref * e * (ddp - x * dp + (x * x / 4 - 0.5) * p)
    err = pref * abs(e) * (abs(a_coef) * r1 + abs(b_coef * x) * r2)
    return PcfValue(lam, x, value, deriv, second, err)


def weber_ode_residual(lam: float, x) -> float:
    """|D'' + (lambda + 1/2 - x^2/4) D| at x."""
    return weber_D(lam, x).ode_residual


def F(lam: float, z):
    """F_lambda(z) = D_lambda(sqrt(2) z); returns (value, d/dz value)."""
    v = weber_D(lam, SQRT2 * complex(z))
    return v.value, SQRT2 * v.derivative


def ladder_check(lam: float, grid) -> tuple[float, float]:
    """Max residuals of the raising and lowering relations on a real grid."""
    up = 0.0
    down = 0.0
    for z in np.asarray(grid, dtype=float):
        fv, fd = F(lam, z)
        up_val, _ = F(lam + 1, z)
        res_up = abs((z * fv - fd) / SQRT2 - up_val)
        if lam == 0:
            res_down = abs((z * fv + fd) / SQRT2)
        else:
            down_val, _ = F(lam - 1, z)
            res_down = abs((z * fv + fd) / SQRT2 - lam * down_val)
        up = max(up, res_up)
        down = max(down, res_down)
    return up, down


def hermite_closed_form(n: int, x) -> complex:
    """D_n(x) = 2^{-n/2} e^{-x^2/4} H_n(x / sqrt(2)) for integer n >= 0."""
    if n < 0:
        raise ValueError("closed form only for nonnegative integers")
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    h = np.polynomial.hermite.hermval(complex(x) / SQRT2, coeffs)
    return 2 ** (-n / 2) * cmath.exp(-complex(x) ** 2 / 4) * h
