"""Multimode CCR algebras [a_i, a_j*] = delta_ij eta_i and their
holomorphic Krein representation.

The representation lives on polynomials in the mode variables truncated
at a total-degree cap, with monomial Gram

    <z^n, z^n> = prod_i n_i! (-1)^{n_i (1 - eta_i)/2},

creation operators pi(a_i*) = eta_i z_i (the sign makes the Krein
adjointness and the commutation relation [pi(a_i), pi(a_i*)] = eta_i hold
simultaneously), and gauge generator with eigenvalue = total degree, so
the spectral condition is manifest.  A build holds the basis, the Gram and
the gauge diagonal; the dense ladder matrices are built only when read.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest

import numpy as np

from .algebra import AlgebraElement, _mode_of, multimode_set, substitute
from .exceptions import (Degenerate, DomainError, NotHermitian, ParseError,
                         ZeroInput)


@dataclass(frozen=True)
class EtaSignature:
    """Per-mode signs eta_i = +-1, modes indexed from 1."""

    values: tuple

    def __post_init__(self):
        if any(v not in (1, -1) for v in self.values):
            raise ValueError("eta entries must be +-1")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        # without it, iteration would run through __getitem__, which never
        # raises IndexError
        return iter(self.values)

    def __getitem__(self, i):
        # mode index (1-based); unlisted modes default to +1, which is how
        # the unbounded-mode case is represented
        if 1 <= i <= len(self.values):
            return self.values[i - 1]
        return 1


class MultiIndexState:
    """Finitely supported map multi-index -> coefficient, total degree <= cap.

    Multi-indices are tuples (n_1, ..., n_M) with n_i >= 0; trailing zeros
    are stripped so the mode set can grow on demand.
    """

    __slots__ = ("terms", "cap")

    def __init__(self, terms=None, cap=10):
        self.cap = cap
        self.terms = {}
        for idx, c in (terms or {}).items():
            idx = _strip(idx)
            if any(n < 0 for n in idx):
                raise ValueError("multi-index entries must be nonnegative")
            if sum(idx) > cap:
                raise ValueError(f"total degree {sum(idx)} exceeds cap {cap}")
            if c != 0:
                self.terms[idx] = self.terms.get(idx, 0) + c

    @classmethod
    def vacuum(cls, cap=10):
        return cls({(): 1.0}, cap)

    @classmethod
    def monomial(cls, idx, cap=10):
        return cls({tuple(idx): 1.0}, cap)

    def __add__(self, other):
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) + c
        return MultiIndexState({k: v for k, v in out.items() if v != 0},
                               min(self.cap, other.cap))

    def __rmul__(self, k):
        return MultiIndexState({i: k * c for i, c in self.terms.items()}, self.cap)

    def __sub__(self, other):
        return self + (-1) * other

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def norm(self):
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    def to_json(self):
        keys = sorted(self.terms)
        return json.dumps({
            "cap": self.cap,
            "terms": [[list(k), [complex(self.terms[k]).real,
                                 complex(self.terms[k]).imag]] for k in keys],
        })

    @classmethod
    def from_json(cls, text):
        """State from {"cap": int, "terms": [[index, [re, im]], ...]}; text
        of another shape, or an index the cap does not admit, is a ParseError."""
        try:
            obj = json.loads(text)
            return cls({tuple(idx): complex(re, im) for idx, (re, im) in obj["terms"]},
                       obj["cap"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"state JSON: {e!r}", offset=getattr(e, "pos", 0),
                             expected=("cap", "terms")) from None

    def __repr__(self):
        return f"MultiIndexState({self.terms!r}, cap={self.cap})"


def _strip(idx):
    idx = tuple(idx)
    while idx and idx[-1] == 0:
        idx = idx[:-1]
    return idx


# ---------------------------------------------------------------------
# eta diagonalization (Sylvester reduction of a hermitian commutator matrix)
# ---------------------------------------------------------------------

def diagonalize_eta(h, tol=1e-10):
    """L with L H L^H = diag(eta), eta_i = +-1, for hermitian nondegenerate H."""
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > tol * scale:
        raise NotHermitian("commutator matrix must be hermitian")
    w, vecs = np.linalg.eigh(h)
    if np.min(np.abs(w)) <= tol * scale:
        raise Degenerate("commutator matrix has (near-)zero eigenvalues")
    order = np.argsort(-w)  # positive eta first, stable
    w = w[order]
    vecs = vecs[:, order]
    l = np.diag(1 / np.sqrt(np.abs(w))) @ vecs.conj().T
    eta = EtaSignature(tuple(int(np.sign(x)) for x in w))
    return l, eta


# ---------------------------------------------------------------------
# the rho isomorphism onto the standard multimode Heisenberg algebra
# ---------------------------------------------------------------------

def rho_iso(eta: EtaSignature, x: AlgebraElement) -> AlgebraElement:
    """rho(a_i) = (1+eta_i)/2 a_i + (1-eta_i)/2 a_i*, extended *-compatibly.

    Maps elements over the eta-signed set into the all-plus set, where the
    standard relations [rho(a_i), rho(a_j*)] = delta_ij hold.
    """
    target = multimode_set([1] * len(eta))
    images = {}
    for sym in {s for w in x.terms for s in w}:
        mode = _mode_of(sym)
        e = eta[mode]
        lower = AlgebraElement.generator(target, f"a_{mode}")
        raise_ = AlgebraElement.generator(target, f"a_{mode}*")
        if sym.endswith("*"):
            img = (1 + e) * raise_ + (1 - e) * lower
        else:
            img = (1 + e) * lower + (1 - e) * raise_
        images[sym] = Fraction(1, 2) * img
    return substitute(x, images, target)


# ---------------------------------------------------------------------
# the Bargmann-form representation with the signed monomial Gram
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiModeRep:
    eta: EtaSignature
    cap: int
    basis: list            # list of stripped multi-indices
    index: dict = field(repr=False)
    a_mats: Sequence = field(repr=False)     # dense pi(a_i), built when read
    adag_mats: Sequence = field(repr=False)  # dense pi(a_i*), built when read
    gram_diag: np.ndarray = field(repr=False)
    gauge_diag: np.ndarray = field(repr=False)

    @property
    def modes(self):
        return len(self.eta)

    @property
    def size(self):
        return len(self.basis)

    def vector(self, state: MultiIndexState):
        v = np.zeros(self.size, dtype=complex)
        for idx, c in state.terms.items():
            idx = _strip(idx)
            if idx not in self.index:
                raise DomainError(
                    f"state term {list(idx)} uses {len(idx)} modes at degree {sum(idx)}; "
                    f"the representation has {self.modes} modes, cap {self.cap}",
                    state_modes=len(idx), rep_modes=self.modes,
                    state_degree=sum(idx), degree_cap=self.cap)
            v[self.index[idx]] += c
        return v

    def inner(self, f, g):
        """Krein inner product of two MultiIndexStates (or vectors)."""
        if isinstance(f, MultiIndexState):
            f = self.vector(f)
        if isinstance(g, MultiIndexState):
            g = self.vector(g)
        return complex(np.sum(np.conj(f) * self.gram_diag * g))


def _monomials(m, cap):
    """All multi-indices over m modes with total degree <= cap, graded order."""
    return [idx for d in range(cap + 1)
            for idx in sorted(_strip(tuple(modes.count(i) for i in range(m)))
                              for modes in combinations_with_replacement(range(m), d))]


class _LadderMatrices(Sequence):
    """Dense pi(a_i), or pi(a_i*) when raising, for each mode i, built from
    the basis and its index each time it is read; no matrix is kept."""

    def __init__(self, basis, index, eta, raising):
        self.basis, self.index, self.eta, self.raising = basis, index, eta, raising

    def __len__(self):
        return len(self.eta)

    def __getitem__(self, i):
        mode0 = range(len(self.eta))[i]  # IndexError past the last mode
        mat = np.zeros((len(self.basis),) * 2, dtype=complex)
        for j, b in enumerate(self.basis):
            if len(b) > mode0 and b[mode0]:  # d/dz_i z^b = b_i z^(b - e_i)
                k = self.index[_strip(b[:mode0] + (b[mode0] - 1,) + b[mode0 + 1:])]
                if self.raising:
                    mat[j, k] = self.eta[mode0 + 1]
                else:
                    mat[k, j] = b[mode0]
        return mat


def build_multimode_rep(eta: EtaSignature, cap: int) -> MultiModeRep:
    """Monomial-basis representation with pi(a_i) = d/dz_i, pi(a_i*) = eta_i z_i,
    Gram prod n_i! (-1)^{n_i(1-eta_i)/2} and gauge the total degree.  No ladder
    matrix is built here: a_mats and adag_mats build each one when it is read."""
    if len(eta) < 1 or cap < 1:
        raise DomainError("need at least one mode and degree >= 1")
    if cap > 170:  # the Gram entry of z_1^cap is cap!, and 171! is past the doubles
        raise DomainError("the Gram leaves the range of doubles at level 171",
                          degree_cap=cap, level=171)
    basis = _monomials(len(eta), cap)
    index = {b: i for i, b in enumerate(basis)}
    exps = np.array(list(zip_longest(*basis, fillvalue=0))).T  # dim x modes
    signs = (-1.0) ** exps[:, np.array(eta.values) == -1].sum(axis=1)
    factorials = np.array([float(math.factorial(n)) for n in range(cap + 1)])
    ladders = [_LadderMatrices(basis, index, eta, raising) for raising in (False, True)]
    return MultiModeRep(eta, cap, basis, index, *ladders,
                        signs * np.prod(factorials[exps], axis=1),
                        exps.sum(axis=1).astype(float))


def spectral_condition_check(rep: MultiModeRep, f: MultiIndexState,
                             g: MultiIndexState, tol=1e-9):
    """Fourier support of s -> <g, U(s) f> = sum_k e^{iks} c_k.

    U(s) is diagonal with eigenvalue exp(i s gauge_n), so c_k is the sum of
    conj(g_n) gram_n f_n over the basis vectors with gauge_n = k.  For this
    representation the support is contained in {0, ..., cap}: the
    desk-scale form of the spectral condition.
    """
    terms = np.conj(rep.vector(g)) * rep.gram_diag * rep.vector(f)
    degree = rep.gauge_diag.astype(int)
    c = (np.bincount(degree, terms.real, rep.cap + 1)
         + 1j * np.bincount(degree, terms.imag, rep.cap + 1))
    scale = max(1.0, float(np.sum(np.abs(c))))
    return {int(k) for k in np.flatnonzero(np.abs(c) > tol * scale)}


def vacuum_descent(rep: MultiModeRep, f: MultiIndexState,
                   tol=1e-12) -> MultiIndexState:
    """Extract a vector annihilated by every pi(a_i) from a nonzero state.

    Coefficients at or below tol count as zero.  Take the lowest nonzero
    total-degree (Fourier) component and descend it with the annihilators,
    lowest mode first: pi(a_1) = d/dz_1 while it leaves a nonzero vector,
    then pi(a_2), and so on.  Each stage keeps only the terms of largest
    n_i, so the descent ends at c_n prod_i n_i! on the constant-monomial
    ray, for the lexicographically largest multi-index n of that component;
    that value is returned without walking.  A term outside the
    representation is a DomainError.
    """
    if f.is_zero(tol):
        raise ZeroInput("vacuum descent needs a nonzero state")
    rep.vector(f)  # a term outside the representation is a DomainError
    live = [idx for idx, c in f.terms.items() if abs(c) > tol]
    k = min(map(sum, live))
    n = max(idx for idx in live if sum(idx) == k)
    return MultiIndexState({(): f.terms[n] * math.prod(map(math.factorial, n))}, rep.cap)
