"""Field arithmetic in Q(i, sqrt 2)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kreinccr.exact import I, INV_SQRT2, ONE, SQRT2, ExactScalar, conj, is_zero

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)


def test_basic_identities():
    assert SQRT2 * SQRT2 == ExactScalar(2)
    assert I * I == ExactScalar(-1)
    assert SQRT2 * INV_SQRT2 == ONE
    assert complex(I) == 1j
    assert abs(complex(SQRT2) - math.sqrt(2)) < 1e-15


def test_inverse():
    x = ExactScalar(3, Fraction(1, 2), -1, Fraction(2, 7))
    assert x * x.inverse() == ONE
    assert 1 / x == x.inverse()
    with pytest.raises(ZeroDivisionError):
        ExactScalar().inverse()


def test_conjugate():
    x = ExactScalar(1, 2, 3, 4)
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).c == 0
    assert (x * x.conjugate()).d == 0


def test_mixed_arithmetic_degrades_to_complex():
    x = ExactScalar(1, 1)
    assert isinstance(x + 0.5, complex)
    assert isinstance(x * 2.0, complex)
    assert x + Fraction(1, 3) == ExactScalar(Fraction(4, 3), 1)


def test_unknown_types_are_not_coerced():
    assert ExactScalar(1).__add__("x") is NotImplemented
    with pytest.raises(TypeError):
        ExactScalar.coerce(0.5)


def test_helpers():
    assert conj(ExactScalar(0, 0, 1)) == -I
    assert conj(2 + 3j) == 2 - 3j
    assert is_zero(ExactScalar())
    assert is_zero(0)
    assert is_zero(1e-12, tol=1e-10)
    assert not is_zero(ExactScalar(0, 0, 0, 1))


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x
    assert x - x == ExactScalar()


@given(scalars, scalars)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(scalars)
def test_inverse_round_trip(x):
    if not x.is_zero():
        assert x * x.inverse() == ONE


@given(scalars)
def test_complex_embedding_is_faithful_enough(x):
    z = complex(x)
    w = complex(x.conjugate())
    assert abs(z.conjugate() - w) < 1e-9 * max(1.0, abs(z))


def test_float_equality_is_exact():
    assert ExactScalar(Fraction(1, 2), 0, Fraction(-3, 4)) == 0.5 - 0.75j
    assert ExactScalar(Fraction(1, 3)) != 1 / 3
    assert SQRT2 != math.sqrt(2)
    assert ExactScalar(1) != float("nan")
    assert len({ExactScalar(1), 1, 1.0, Fraction(1), 1 + 0j}) == 1


dyadics = st.builds(lambda n, k: Fraction(n, 2 ** k),
                    st.integers(-10 ** 6, 10 ** 6), st.integers(0, 30))


@st.composite
def same_value_forms(draw):
    """Two of the forms of one Gaussian dyadic value, or of a nearby
    value with a nonzero sqrt2 part, so that equal pairs are common."""
    re = draw(dyadics)
    im = draw(st.one_of(st.just(Fraction(0)), dyadics))
    forms = [ExactScalar(re, 0, im), complex(float(re), float(im)),
             ExactScalar(re, draw(rationals), im, draw(rationals))]
    if im == 0:
        forms += [re, float(re)]
        if re.denominator == 1:
            forms.append(int(re))
    return draw(st.sampled_from(forms)), draw(st.sampled_from(forms))


@given(same_value_forms())
def test_equal_values_hash_equally(pair):
    x, y = pair
    if x == y:
        assert hash(x) == hash(y)


@given(scalars, scalars)
def test_equal_scalars_hash_equally(x, y):
    if x == y:
        assert hash(x) == hash(y)
    assert hash(x) == hash(x + ExactScalar())
