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
from fractions import Fraction

import numpy as np

from .exact import ExactScalar, adj2, conj, mul2, unimodular_det
from .exceptions import NonFinite, NotUnimodular, ZeroVector

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


def s_lower(alpha, beta):
    """The implementable matrix S(alpha, beta) = [[alpha, 0], [beta, 1/alpha]]."""
    if alpha == 0:
        raise ZeroDivisionError("alpha must be nonzero")
    return np.array([[alpha, 0], [beta, 1 / alpha]], dtype=complex)


def conjugation_from_V(v, tol=1e-10):
    """C_K = conj(V)^{-1} sigma1 V = adj(conj V) sigma1 V / conj(det V) for unimodular V.

    Exact entries (ExactScalar, int, Fraction) must have det V = 1 exactly
    and give a 2x2 nested list of ExactScalar; other entries give a complex
    ndarray.
    """
    exact = all(isinstance(x, (ExactScalar, int, Fraction)) for row in v for x in row)
    m = [[ExactScalar.coerce(x) if exact else complex(x) for x in row] for row in v]
    det = unimodular_det(m, "V", tol)
    # sigma1 swaps the rows of V
    c = mul2(adj2([[conj(x) for x in row] for row in m]), [m[1], m[0]])
    return c if exact else np.array(c) / det.conjugate()


def is_bogoliubov(t, c, tol=1e-10):
    """True iff det T = 1 and conj(T) C = C T."""
    t = np.asarray(t, dtype=complex)
    c = np.asarray(c, dtype=complex)
    try:
        unimodular_det(t, "T", tol)
    except NotUnimodular:
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
    if not cmath.isfinite(q):
        raise NonFinite(f"the invariant q = {q} leaves the doubles")
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
