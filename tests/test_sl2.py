"""Conjugation matrices, Bogoliubov checks, and adjoint orbits."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinccr.algebra import HEISENBERG, AlgebraElement, Involution, apply_isomorphism
from kreinccr.exact import I, INV_SQRT2, ONE, ExactScalar, mul2
from kreinccr.exceptions import NonFinite, NotUnimodular, ZeroVector
from kreinccr.sl2 import (IDENTITY2, SIGMA1, SIGMA3, OrbitKind, SlVector,
                          adjoint_action, classify_orbit, conjugation_from_V,
                          is_bogoliubov, s_lower)


def random_unimodular(rng):
    while True:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        c = rng.standard_normal() + 1j * rng.standard_normal()
        if abs(a) > 0.2:
            return np.array([[a, b], [c, (1 + b * c) / a]])


def test_conjugation_identity_and_schroedinger():
    assert np.array_equal(conjugation_from_V(IDENTITY2), SIGMA1)
    r = INV_SQRT2
    exact = conjugation_from_V([[r, -r], [r, r]])
    assert exact[0][0] == 1 and exact[1][1] == -1
    assert exact[0][1].is_zero() and exact[1][0].is_zero()


def test_conjugation_squares_to_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = random_unimodular(rng)
        c = conjugation_from_V(v)
        assert np.max(np.abs(np.conj(c) @ c - IDENTITY2)) < 1e-10


def test_conjugation_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        conjugation_from_V([[2, 0], [0, 1]])
    with pytest.raises(NotUnimodular):
        conjugation_from_V([[ExactScalar(2), ExactScalar()],
                            [ExactScalar(), ExactScalar(1)]])


def test_conjugation_types_follow_the_entries():
    c = conjugation_from_V([[1, Fraction(1, 2)], [0, 1]])
    assert all(isinstance(x, ExactScalar) for row in c for x in row)
    assert conjugation_from_V([[1.0, 0.5], [0, 1]]).dtype == complex
    # a NaN determinant is not 1
    with pytest.raises(NotUnimodular):
        conjugation_from_V([[1.0, float("nan")], [0, 1]])


# V in SL(2, Q(i, sqrt 2)): three elementary factors with entries in
# (1/2) Z[i, sqrt 2], then the Schroedinger V or not
_HALVES = st.builds(lambda *k: ExactScalar(*(Fraction(n, 2) for n in k)),
                    *[st.integers(-2, 2)] * 4)
_ZERO = ExactScalar(0)
_A = AlgebraElement.generator(HEISENBERG, "a")
_ASTAR = AlgebraElement.generator(HEISENBERG, "a*")


@st.composite
def exact_sl2(draw):
    s, t, u = draw(_HALVES), draw(_HALVES), draw(_HALVES)
    v = mul2(mul2([[ONE, s], [_ZERO, ONE]], [[ONE, _ZERO], [t, ONE]]), [[ONE, u], [_ZERO, ONE]])
    if draw(st.booleans()):
        r = INV_SQRT2
        v = mul2(v, [[r, -r], [r, r]])
    return v


@settings(derandomize=True, max_examples=40, deadline=None)
@given(exact_sl2())
def test_conjugation_makes_the_isomorphism_a_star_map(v):
    # K(sigma_V(x)) = sigma_V(x*) exactly, for K with matrix conj(V)^{-1} sigma1 V
    k = Involution(conjugation_from_V(v))
    for x in (_A, _ASTAR, _ASTAR * _A, _A * _A * _ASTAR, (I * _A + _ASTAR) * _A):
        assert k.apply(apply_isomorphism(v, x)) == apply_isomorphism(v, x.star())


def test_is_bogoliubov():
    # sigma1-compatible squeeze: T = [[p, q], [conj(q), conj(p)]]
    p, q = cmath.cosh(0.3), cmath.sinh(0.3)
    t = np.array([[p, q], [np.conj(q), np.conj(p)]])
    assert is_bogoliubov(t, SIGMA1)
    assert not is_bogoliubov(2 * t, SIGMA1)
    assert not is_bogoliubov(np.array([[1, 1j], [0, 1]]), SIGMA1)
    # sigma3-compatible: real diagonal, imaginary off-diagonal
    t3 = np.array([[2.0, 0.5j], [0.0, 0.5]])
    assert is_bogoliubov(t3, SIGMA3)


def test_adjoint_action_matches_matrix_conjugation():
    rng = np.random.default_rng(1)
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    sigma_minus = np.array([[0, 0], [1, 0]], dtype=complex)
    for _ in range(50):
        a = rng.standard_normal() * 0.5 + 0.3j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        n = SlVector(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        g = np.array([[np.exp(a), 0], [0, np.exp(-a)]]) @ np.array([[1, b], [0, 1]])
        x = n.n3 * SIGMA3 + n.nminus * sigma_plus + n.nplus * sigma_minus
        conj = g @ x @ np.linalg.inv(g)
        got = adjoint_action(a, b, n)
        assert abs(got.n3 - conj[0, 0]) < 1e-10
        assert abs(got.nminus - conj[0, 1]) < 1e-10
        assert abs(got.nplus - conj[1, 0]) < 1e-10


def test_group_element_matrix():
    # exp(a sigma3) exp(b sigma+) acts on the generator column by S(e^a, b e^a)
    def s_from_ab(a, b):
        return s_lower(cmath.exp(a), b * cmath.exp(a))

    m = s_from_ab(0.0, 0.0)
    assert np.array_equal(m, IDENTITY2)
    m = s_from_ab(1.0, 2.0)
    e = np.exp(1.0)
    assert np.max(np.abs(m - np.array([[e, 0], [2 * e, 1 / e]]))) < 1e-14


def test_canonical_elements_classify_to_themselves():
    cases = {
        OrbitKind.SIGMA_PLUS: SlVector(0, 1, 0),
        OrbitKind.SIGMA_THREE: SlVector(1, 0, 0),
        OrbitKind.SIGMA_ONE: SlVector(0, 1, 1),
        OrbitKind.SIGMA_MINUS: SlVector(0, 0, 1),
    }
    for kind, vec in cases.items():
        res = classify_orbit(vec)
        assert res.kind is kind
        assert res.a == 0 and res.b == 0 and res.scale == 1


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        classify_orbit(SlVector(0, 0, 0))


def test_an_invariant_past_the_doubles_is_non_finite():
    # q = 1 + 1e400 overflows; its square root and logarithm would not
    with pytest.raises(NonFinite):
        classify_orbit(SlVector(1.0, 1e200, 1e200))


def test_q_is_invariant_and_classification_stable():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = SlVector(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        base = classify_orbit(n)
        a = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        b = rng.standard_normal() + 1j * rng.standard_normal()
        moved = adjoint_action(a, b, n)
        assert abs(moved.q() - n.q()) < 1e-8 * max(1.0, abs(n.q()))
        assert classify_orbit(moved).kind is base.kind


def test_witness_reproduces_input():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = SlVector(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        res = classify_orbit(n)
        back = res.reproduce()
        err = max(abs(back.n3 - n.n3), abs(back.nminus - n.nminus),
                  abs(back.nplus - n.nplus))
        assert err < 1e-8 * max(1.0, n.norm())


def test_degenerate_orbit_witnesses():
    # nilpotent with nplus != 0 lies on the sigma-minus orbit
    n = SlVector(1.0, -1.0, 1.0)
    assert abs(n.q()) < 1e-14
    res = classify_orbit(n)
    assert res.kind is OrbitKind.SIGMA_MINUS
    # sigma3 + multiple of sigma+ stays on the sigma3 orbit
    res = classify_orbit(SlVector(2.0, 3.0, 0.0))
    assert res.kind is OrbitKind.SIGMA_THREE


@settings(max_examples=100, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-2, 2),
       st.floats(-2, 2), st.floats(-2, 2))
def test_adjoint_action_fixes_q(a, b, n3, nm, np_):
    n = SlVector(n3, nm, np_)
    moved = adjoint_action(a, b, n)
    assert abs(moved.q() - n.q()) < 1e-6 * max(1.0, abs(n.q()))


def test_s_lower_shape():
    m = s_lower(2.0, 3.0)
    assert m[0, 1] == 0
    assert m[0, 0] * m[1, 1] == 1.0
