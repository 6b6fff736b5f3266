"""Normal ordering, involutions, isomorphisms, Bogoliubov checks.

The independent oracles for normal ordering are actions.  On truncated
monomials z raises the degree and d differentiates; on polynomials in
z_1, z_2, ... a_i acts as d/dz_i and a_i* as eta_i z_i; and sympy's boson
operators act on number states.  A normal form is correct iff it acts
as the original word does.  (sympy's ``wicks`` handles fermions only, so
it cannot serve for bosons.)
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Mul, Rational, expand
from sympy.physics.secondquant import B, BKet, Bd, apply_operators

from kreinccr.algebra import (HEISENBERG, HOLOMORPHIC, AlgebraElement,
                              Involution, apply_automorphism,
                              apply_isomorphism, commutator, format_element,
                              multimode_set, normal_order, substitute)
from kreinccr.exact import I, INV_SQRT2, ONE, ExactScalar
from kreinccr.exceptions import IncompatibleAlgebras, NotUnimodular

Z = AlgebraElement.generator(HOLOMORPHIC, "z")
D = AlgebraElement.generator(HOLOMORPHIC, "d")
A = AlgebraElement.generator(HEISENBERG, "a")
ASTAR = AlgebraElement.generator(HEISENBERG, "a*")


# -- monomial-action oracle -------------------------------------------

def act_word(word, vec, cap):
    """Apply a word in {z, d} to {degree: Fraction} (right factor first)."""
    for sym in reversed(word):
        out = {}
        for n, c in vec.items():
            if sym == "z":
                if n + 1 <= cap:
                    out[n + 1] = out.get(n + 1, 0) + c
            else:
                if n >= 1:
                    out[n - 1] = out.get(n - 1, 0) + n * c
        vec = out
    return {n: c for n, c in vec.items() if c != 0}


def act_element(x, vec, cap):
    total = {}
    for word, coeff in x.terms.items():
        for n, c in act_word(word, vec, cap).items():
            total[n] = total.get(n, ExactScalar()) + coeff * c
    return {n: c for n, c in total.items() if not c.is_zero()}


def test_normal_order_against_monomial_oracle():
    rng = random.Random(7)
    cap = 12
    for _ in range(200):
        word = tuple(rng.choice("zd") for _ in range(rng.randint(1, 6)))
        x = AlgebraElement(HOLOMORPHIC, {word: ONE})
        no = normal_order(x)
        for n0 in range(0, cap - len(word) + 1):
            vec = {n0: Fraction(1)}
            direct = {n: ExactScalar(c) for n, c in act_word(word, vec, cap).items()}
            rewritten = act_element(no, vec, cap)
            assert direct == rewritten


@functools.lru_cache(maxsize=None)
def sympy_boson_action(word, n):
    """sympy's boson operators (a -> B, a* -> Bd) applied to |n>."""
    ops = [Bd(0) if sym == "a*" else B(0) for sym in word]
    return apply_operators(Mul(*ops) * BKet([n]))


def test_heisenberg_normal_order_against_sympy_boson_action():
    rng = random.Random(19)
    words = [w for length in range(6) for w in itertools.product(("a", "a*"), repeat=length)]
    words += [tuple(rng.choice(("a", "a*")) for _ in range(length))
              for length in (6, 7, 8) for _ in range(8)]
    for word in words:
        no = normal_order(AlgebraElement(HEISENBERG, {word: ONE}))
        # a normal form with annihilator degree <= k is fixed by its action
        # on |0>, ..., |k>
        for n in range(word.count("a") + 1):
            got = 0
            for w, c in no.terms.items():
                assert c == c.a, "Heisenberg coefficients are rational"
                got += Rational(c.a.numerator, c.a.denominator) * sympy_boson_action(w, n)
            assert expand(got - sympy_boson_action(word, n)) == 0, (word, n)


def act_polynomial(word, poly, eta):
    """a_i -> d/dz_i, a_i* -> eta_i z_i on {exponents (mode -> power): Fraction},
    right factor first."""
    for sym in reversed(word):
        mode = int(sym[2:].rstrip("*"))
        out = {}
        for mono, c in poly.items():
            powers = dict(mono)
            n = powers.get(mode, 0)
            if sym.endswith("*"):
                powers[mode] = n + 1
                c = c * eta[mode]
            elif n:
                powers[mode] = n - 1
                c = c * n
            else:
                continue
            key = tuple(sorted((m, p) for m, p in powers.items() if p))
            out[key] = out.get(key, 0) + c
        poly = {k: c for k, c in out.items() if c}
    return poly


def _multimode_oracle_check(eta, word):
    gens = multimode_set(eta)
    no = normal_order(AlgebraElement(gens, {word: ONE}))
    for w in no.terms:
        # creators left, each group by numeric mode ("a_10" after "a_2")
        assert list(w) == sorted(w, key=lambda s: (not s.endswith("*"), int(s[2:].rstrip("*"))))
    modes = sorted({int(s[2:].rstrip("*")) for s in word})
    lowered = [word.count(f"a_{m}") for m in modes]
    for degrees in itertools.product(*(range(k + 1) for k in lowered)):
        start = {tuple((m, p) for m, p in zip(modes, degrees) if p): Fraction(1)}
        got = {}
        for w, c in no.terms.items():
            assert c == c.a
            for mono, v in act_polynomial(w, start, eta).items():
                got[mono] = got.get(mono, 0) + c.a * v
        assert {k: v for k, v in got.items() if v} == act_polynomial(word, start, eta), word


def test_signed_multimode_normal_order_against_polynomial_action():
    rng = random.Random(23)
    eta = {1: 1, 2: -1, 3: 1}
    letters = [f"a_{m}{star}" for m in eta for star in ("", "*")]
    for length in range(1, 9):
        for _ in range(12):
            _multimode_oracle_check(eta, tuple(rng.choice(letters) for _ in range(length)))


def test_multimode_modes_order_by_number():
    eta = {2: -1, 10: 1}
    word = ("a_10", "a_2", "a_10*", "a_2*", "a_2", "a_10*", "a_2*", "a_2")
    _multimode_oracle_check(eta, word)
    x = AlgebraElement(multimode_set(eta), {("a_10", "a_2", "a_10*", "a_2*"): ONE})
    assert format_element(x) == ("a_2* a_10* a_2 a_10 - a_10* a_10 + a_2* a_2 - 1")


def test_wick_coefficients_and_cost():
    # a^20 a*^20 = sum_k k! C(20,k)^2 a*^(20-k) a^(20-k)
    t0 = time.perf_counter()
    no = normal_order(A ** 20 * ASTAR ** 20)
    assert time.perf_counter() - t0 < 0.5
    want = {("a*",) * (20 - k) + ("a",) * (20 - k): math.factorial(k) * math.comb(20, k) ** 2
            for k in range(21)}
    assert no.terms == want
    # with eta = -1 each contraction carries a sign
    gens = multimode_set({1: -1})
    a = AlgebraElement.generator(gens, "a_1")
    astar = AlgebraElement.generator(gens, "a_1*")
    no = normal_order(a ** 5 * astar ** 3)
    assert no.terms == {("a_1*",) * (3 - k) + ("a_1",) * (5 - k):
                        (-1) ** k * math.factorial(k) * math.comb(5, k) * math.comb(3, k)
                        for k in range(4)}


def test_normal_order_examples():
    # (d z)^2 = 1 + 3 z d + z^2 d^2
    x = normal_order((D * Z) ** 2)
    assert x == 1 + 3 * Z * D + Z * Z * D * D
    assert normal_order(D * Z) == Z * D + 1
    assert format_element(D * Z) == "z d + 1"


def test_normal_order_is_idempotent_and_ordered():
    x = normal_order(D * D * Z * Z * D)
    for word in x.terms:
        # the creator z comes first
        assert list(word) == sorted(word, key=lambda sym: sym != "z")
    assert normal_order(x).terms == x.terms


def test_commutators():
    assert commutator(D, Z) == 1
    assert commutator(A, ASTAR) == 1
    assert commutator(ASTAR, A) == -1
    n = ASTAR * A
    assert commutator(n, ASTAR) == ASTAR
    assert commutator(n, A) == -A


def test_multimode_commutators():
    gens = multimode_set([1, -1])
    a1 = AlgebraElement.generator(gens, "a_1")
    a2 = AlgebraElement.generator(gens, "a_2")
    a1s = AlgebraElement.generator(gens, "a_1*")
    a2s = AlgebraElement.generator(gens, "a_2*")
    assert commutator(a1, a1s) == 1
    assert commutator(a2, a2s) == -1
    assert commutator(a1, a2s).is_zero()
    assert commutator(a1, a2).is_zero()


def test_star_involution():
    x = A * A * ASTAR + I * A
    assert x.star().star() == x
    assert (A * ASTAR).star() == A * ASTAR
    assert A.star() == ASTAR


def test_incompatible_sets():
    with pytest.raises(IncompatibleAlgebras):
        Z + A
    with pytest.raises(IncompatibleAlgebras):
        AlgebraElement.generator(HOLOMORPHIC, "a")


# -- involutions ------------------------------------------------------

SIGMA1_INV = Involution([[0, 1], [1, 0]])
SIGMA3_INV = Involution([[1, 0], [0, -1]])


def random_holomorphic(rng, max_len=3, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        w = tuple(rng.choice("zd") for _ in range(rng.randint(0, max_len)))
        terms[w] = ExactScalar(rng.randint(-3, 3), 0, rng.randint(-3, 3), 0)
    return AlgebraElement(HOLOMORPHIC, terms)


def test_involution_on_generators():
    assert SIGMA1_INV.apply(Z) == D
    assert SIGMA1_INV.apply(D) == Z
    # the number operator is fixed: K(z d) = K(d) K(z) = z d
    assert SIGMA1_INV.apply(Z * D) == Z * D
    assert SIGMA3_INV.apply(Z) == Z
    assert SIGMA3_INV.apply(D) == -D


def test_involution_properties():
    rng = random.Random(3)
    for k in (SIGMA1_INV, SIGMA3_INV):
        for _ in range(30):
            x = random_holomorphic(rng)
            y = random_holomorphic(rng)
            assert k.apply(k.apply(x)) == x
            assert k.apply(x * y) == k.apply(y) * k.apply(x)
            assert k.apply(x + y) == k.apply(x) + k.apply(y)
            # antilinear: K(i x) = -i K(x)
            assert k.apply(I * x) == -I * k.apply(x)


def test_involution_rejects_non_involutive_matrix():
    with pytest.raises(ValueError):
        Involution([[2, 0], [0, 1]])


# -- isomorphisms and automorphisms -----------------------------------

def test_apply_isomorphism_fock():
    # V = identity: a* -> z, a -> d
    img = apply_isomorphism([[1, 0], [0, 1]], ASTAR * A)
    assert img == Z * D


def test_apply_isomorphism_schroedinger():
    # the canonical V sends a* a + 1/2 to (z^2 - d^2) / 2
    r = INV_SQRT2
    v = [[r, -r], [r, r]]
    img = apply_isomorphism(v, ASTAR * A + Fraction(1, 2))
    expected = Fraction(1, 2) * (Z * Z - D * D)
    assert img == expected


def test_apply_isomorphism_requires_unimodular():
    with pytest.raises(NotUnimodular):
        apply_isomorphism([[2, 0], [0, 1]], A)


def test_apply_automorphism_preserves_commutator():
    rng = random.Random(5)
    for _ in range(30):
        while True:
            a, b, c = (ExactScalar(rng.randint(-3, 3), 0, rng.randint(-2, 2), 0)
                       for _ in range(3))
            if not a.is_zero():
                break
        d = (1 + b * c) / a
        t = [[a, b], [c, d]]
        z2 = apply_automorphism(t, Z)
        d2 = apply_automorphism(t, D)
        assert commutator(d2, z2) == 1


def test_substitute_is_a_homomorphism():
    images = {"a": D, "a*": Z}
    x = ASTAR * A + 2 * A
    y = A * ASTAR
    got = substitute(normal_order(x * y), images, HOLOMORPHIC)
    expected = normal_order(substitute(x, images, HOLOMORPHIC)
                            * substitute(y, images, HOLOMORPHIC))
    assert got == expected


# -- hypothesis properties --------------------------------------------

words = st.lists(st.sampled_from("zd"), min_size=0, max_size=5).map(tuple)
elements = st.dictionaries(words, st.integers(-4, 4), min_size=1, max_size=4).map(
    lambda d: AlgebraElement(HOLOMORPHIC, {w: ExactScalar(c) for w, c in d.items()}))


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_normal_order_respects_products(x, y):
    assert normal_order(x * y) == normal_order(normal_order(x) * normal_order(y))


@settings(max_examples=60, deadline=None)
@given(elements)
def test_involution_involutive_property(x):
    assert SIGMA1_INV.apply(SIGMA1_INV.apply(x)) == x


def test_elements_are_unhashable():
    # equality holds in the quotient algebra, so no hash can respect it
    a1 = AlgebraElement.generator(HEISENBERG, "a")
    a2 = AlgebraElement.generator(HEISENBERG, "a")
    assert a1 == a2
    with pytest.raises(TypeError):
        hash(a1)
    with pytest.raises(TypeError):
        {a1, a2}
