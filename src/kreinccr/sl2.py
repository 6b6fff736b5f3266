"""SL(2,C) automorphisms of the holomorphic algebra and adjoint orbits.

The lower-triangular subgroup S(alpha, beta) is the one implementable on
entire functions; a generic element factors as exp(a*sigma3)exp(b*sigma+)
and its adjoint action on n3*sigma3 + n-*sigma+ + n+*sigma- has the
closed form used by the orbit classifier.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exact import ExactScalar
from .exceptions import NotUnimodular, ZeroVector

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = (SIGMA1 + 1j * SIGMA2) / 2   # [[0,1],[0,0]]
SIGMA_MINUS = (SIGMA1 - 1j * SIGMA2) / 2  # [[0,0],[1,0]]
IDENTITY2 = np.eye(2, dtype=complex)


def s_lower(alpha, beta):
    """The implementable matrix S(alpha, beta) = [[alpha, 0], [beta, 1/alpha]]."""
    if alpha == 0:
        raise ZeroDivisionError("alpha must be nonzero")
    return np.array([[alpha, 0], [beta, 1 / alpha]], dtype=complex)


def conjugation_from_V(v, tol=1e-10):
    """C_K = conj(V)^{-1} sigma1 V for unimodular V."""
    v = np.asarray(v, dtype=complex)
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if abs(det - 1) > tol:
        raise NotUnimodular(f"det V = {det}")
    return np.linalg.inv(np.conj(v)) @ SIGMA1 @ v


def conjugation_from_V_exact(v):
    """conjugation_from_V over the exact scalar field Q(i, sqrt 2).

    ``v`` is a 2x2 nested sequence of exact scalars (or ints/Fractions);
    returns a 2x2 nested list.  For det V = 1, conj(V)^{-1} is the
    adjugate of conj(V), so no division is needed.
    """
    m = [[ExactScalar.coerce(v[i][j]) for j in range(2)] for i in range(2)]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if not (det - ExactScalar(1)).is_zero():
        raise NotUnimodular(f"det V = {det}")
    cb = [[m[i][j].conjugate() for j in range(2)] for i in range(2)]
    inv = [[cb[1][1], -cb[0][1]], [-cb[1][0], cb[0][0]]]
    # sigma1 swaps the rows of V
    sv = [m[1], m[0]]
    return [[inv[i][0] * sv[0][j] + inv[i][1] * sv[1][j] for j in range(2)]
            for i in range(2)]


def is_bogoliubov(t, c, tol=1e-10):
    """True iff det T = 1 and conj(T) C = C T."""
    t = np.asarray(t, dtype=complex)
    c = np.asarray(c, dtype=complex)
    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    if abs(det - 1) > tol:
        return False
    return np.max(np.abs(np.conj(t) @ c - c @ t)) <= tol * max(1.0, np.max(np.abs(c)))


class OrbitKind(Enum):
    SIGMA_PLUS = "SigmaPlus"
    SIGMA_THREE = "SigmaThree"
    SIGMA_ONE = "SigmaOne"
    SIGMA_MINUS = "SigmaMinus"


@dataclass(frozen=True)
class SlVector:
    """Coordinates of n3*sigma3 + n-*sigma+ + n+*sigma-."""

    n3: complex
    nminus: complex
    nplus: complex

    def q(self):
        """The adjoint invariant n3^2 + n- n+."""
        return self.n3 ** 2 + self.nminus * self.nplus

    def norm(self):
        return max(abs(self.n3), abs(self.nminus), abs(self.nplus))

    def scaled(self, k):
        return SlVector(self.n3 * k, self.nminus * k, self.nplus * k)


_CANONICAL = {
    OrbitKind.SIGMA_PLUS: SlVector(0, 1, 0),
    OrbitKind.SIGMA_THREE: SlVector(1, 0, 0),
    OrbitKind.SIGMA_ONE: SlVector(0, 1, 1),
    OrbitKind.SIGMA_MINUS: SlVector(0, 0, 1),
}


@dataclass(frozen=True)
class OrbitResult:
    kind: OrbitKind
    # witness: adjoint_action(a, b, canonical).scaled(scale) == input
    a: complex
    b: complex
    scale: complex

    @property
    def canonical(self):
        return _CANONICAL[self.kind]

    def reproduce(self):
        return adjoint_action(self.a, self.b, self.canonical).scaled(self.scale)


def adjoint_action(a, b, n: SlVector) -> SlVector:
    """Adjoint action of exp(a*sigma3)exp(b*sigma+) on an sl2 vector."""
    e2a = cmath.exp(2 * a)
    return SlVector(
        n.n3 + b * n.nplus,
        e2a * (n.nminus - 2 * b * n.n3 - b * b * n.nplus),
        n.nplus / e2a,
    )


def classify_orbit(n: SlVector, tol=1e-10) -> OrbitResult:
    """Orbit type of n under the lower-triangular subgroup, modulo scale.

    Zero tests are relative to the vector sup-norm.  The witness data
    (a, b, scale) reproduce n from the canonical representative.
    """
    nn = n.norm()
    if nn == 0:
        raise ZeroVector("cannot classify the zero vector")
    small = lambda x: abs(x) <= tol * nn

    if small(n.nplus):
        if small(n.n3):
            # multiples of sigma+
            return OrbitResult(OrbitKind.SIGMA_PLUS, 0.0, 0.0, n.nminus)
        # {sigma3 + n- sigma+} after scaling by n3
        lam = n.n3
        b = -n.nminus / (2 * lam)
        return OrbitResult(OrbitKind.SIGMA_THREE, 0.0, b, lam)

    q = n.q()
    if small(q):
        # degenerate: scaled orbit of sigma-
        lam = n.nplus
        b = n.n3 / n.nplus
        return OrbitResult(OrbitKind.SIGMA_MINUS, 0.0, b, lam)

    lam = cmath.sqrt(q)
    np_, n3_ = n.nplus / lam, n.n3 / lam
    b = n3_
    a = -cmath.log(np_) / 2
    return OrbitResult(OrbitKind.SIGMA_ONE, a, b, lam)
