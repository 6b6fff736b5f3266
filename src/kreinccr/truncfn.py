"""Truncated power series standing in for entire functions.

A TruncFn stores coefficients c_0..c_D; operations that discard nonzero
mass above the cap clear the ``exact`` flag instead of raising, so that
genuinely entire objects like exp(-z^2/2) remain representable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ParseError, SingularTransformation



@dataclass(frozen=True, eq=False)
class TruncFn:
    coeffs: np.ndarray  # complex, length D+1
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @classmethod
    def from_coeffs(cls, coeffs, degree_cap=None, exact=True):
        c = np.asarray(list(coeffs), dtype=complex)
        if degree_cap is not None:
            if degree_cap + 1 < len(c):
                dropped = np.any(c[degree_cap + 1:] != 0)
                c = c[: degree_cap + 1]
                exact = exact and not dropped
            else:
                c = np.concatenate([c, np.zeros(degree_cap + 1 - len(c))])
        return cls(c, exact)

    @classmethod
    def monomial(cls, n, degree_cap):
        c = np.zeros(degree_cap + 1, dtype=complex)
        c[n] = 1.0
        return cls(c)

    @property
    def degree_cap(self):
        return len(self.coeffs) - 1

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        a, b = _align(self, other)
        return TruncFn(a.coeffs + b.coeffs, a.exact and b.exact)

    def __sub__(self, other):
        a, b = _align(self, other)
        return TruncFn(a.coeffs - b.coeffs, a.exact and b.exact)

    def __rmul__(self, k):
        return TruncFn(self.coeffs * k, self.exact)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TruncFn(self.coeffs * other, self.exact)
        return multiply(self, other)

    def __neg__(self):
        return TruncFn(-self.coeffs, self.exact)

    def evaluate(self, z):
        return complex(np.polyval(self.coeffs[::-1], z))

    # -- serialization ------------------------------------------------

    def to_json(self):
        return json.dumps({
            "degree_cap": self.degree_cap,
            "exact": self.exact,
            "coefficients": [[c.real, c.imag] for c in self.coeffs],
        })

    @classmethod
    def from_json(cls, text):
        """Inverse of to_json; text of another shape is a ParseError."""
        try:
            obj = json.loads(text)
            c = [complex(re, im) for re, im in obj["coefficients"]]
            return cls.from_coeffs(c, obj["degree_cap"], obj["exact"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"TruncFn JSON: {e!r}", offset=getattr(e, "pos", 0),
                             expected=("coefficients", "degree_cap", "exact")) from None


def _align(a: TruncFn, b: TruncFn):
    d = min(a.degree_cap, b.degree_cap)
    return (TruncFn.from_coeffs(a.coeffs, d, a.exact),
            TruncFn.from_coeffs(b.coeffs, d, b.exact))


def multiply(a: TruncFn, b: TruncFn) -> TruncFn:
    """Cauchy product truncated at the smaller cap."""
    d = min(a.degree_cap, b.degree_cap)
    full = np.convolve(a.coeffs, b.coeffs)
    dropped = np.any(full[d + 1:] != 0)
    return TruncFn(full[: d + 1], a.exact and b.exact and not dropped)


def apply_z(f: TruncFn) -> TruncFn:
    """Multiplication by z; the top coefficient is discarded."""
    c = f.coeffs
    out = np.concatenate([[0.0], c[:-1]])
    return TruncFn(out, f.exact and c[-1] == 0)


def apply_dz(f: TruncFn) -> TruncFn:
    """Differentiation d/dz."""
    n = np.arange(1, len(f.coeffs))
    out = np.concatenate([n * f.coeffs[1:], [0.0]])
    return TruncFn(out, f.exact)


def seminorm(f: TruncFn, radius: float) -> float:
    """Sum |c_n| R^n: an upper bound for sup over |z| <= R."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return float(np.sum(np.abs(f.coeffs) * radius ** np.arange(len(f.coeffs))))


def exp_quadratic(coeff, degree_cap) -> TruncFn:
    """Truncated series of exp(coeff * z^2)."""
    c = np.zeros(degree_cap + 1, dtype=complex)
    term = 1.0 + 0j
    for k in range(degree_cap // 2 + 1):
        c[2 * k] = term
        term = term * coeff / (k + 1)
    return TruncFn(c, exact=(coeff == 0))


def gamma_S(alpha, beta, f: TruncFn) -> TruncFn:
    """The implementer of S(alpha, beta): f(z) -> f(alpha z) e^{-alpha beta z^2 / 2}.

    Conjugation by this operator realizes the automorphism z -> alpha z,
    d -> beta z + d / alpha.
    """
    if alpha == 0:
        raise SingularTransformation("alpha must be nonzero")
    scaled = TruncFn(f.coeffs * alpha ** np.arange(len(f.coeffs)), f.exact)
    if beta == 0:
        return scaled
    return multiply(scaled, exp_quadratic(-alpha * beta / 2, f.degree_cap))


def gamma_S_inverse(alpha, beta, f: TruncFn) -> TruncFn:
    """Implementer of S(alpha, beta)^{-1} = S(1/alpha, -beta)."""
    if alpha == 0:
        raise SingularTransformation("alpha must be nonzero")
    return gamma_S(1 / alpha, -beta, f)


def verify_implementation(alpha, beta, f: TruncFn) -> float:
    """Max residual of sigma(g) f - Gamma_S g Gamma_S^{-1} f over g in {z, d}.

    sigma(z) = alpha z, sigma(d) = beta z + d / alpha.  Only coefficients
    up to D-2 are compared (the truncation boundary is unstable).
    """
    if alpha == 0:
        raise SingularTransformation("alpha must be nonzero")
    stable = f.degree_cap - 2
    inner = gamma_S_inverse(alpha, beta, f)
    worst = 0.0
    for lhs, g in ((alpha * apply_z(f), apply_z),
                   (beta * apply_z(f) + (1 / alpha) * apply_dz(f), apply_dz)):
        diff = (lhs - gamma_S(alpha, beta, g(inner))).coeffs[: stable + 1]
        worst = max(worst, float(np.sum(np.abs(diff))))
    return worst


def annihilator_beta_minus(s, degree_cap) -> TruncFn:
    """Truncation of exp(-z^2/(2s)), annihilated by z + s d/dz.

    Witnesses non-implementability of automorphisms outside the
    lower-triangular subgroup.
    """
    if s == 0:
        raise SingularTransformation("s must be nonzero")
    return exp_quadratic(-1 / (2 * s), degree_cap)


def rotation_family(s, f: TruncFn) -> TruncFn:
    """U(s): f(z) -> f(e^{is} z), the Bargmann gauge rotations."""
    phases = np.exp(1j * s * np.arange(len(f.coeffs)))
    return TruncFn(f.coeffs * phases, f.exact)


def fourier_project(family, f: TruncFn, k: int) -> TruncFn:
    """Projection (2 pi)^{-1} int U(s) e^{-iks} f ds onto gauge eigenvalue k.

    ``family`` must be ``rotation_family``: U(s) z^n = e^{ins} z^n is
    diagonal, so the projection is exactly c_k z^k, and zero for k outside
    0..D.  Truncation loses nothing more, so ``exact`` is ``f.exact``.
    """
    if family is not rotation_family:
        raise DomainError("fourier_project is closed-form for rotation_family only")
    c = np.zeros_like(f.coeffs)
    if 0 <= k <= f.degree_cap:
        c[k] = f.coeffs[k]
    return TruncFn(c, f.exact)
