"""Exact scalars in the field Q(i, sqrt(2)).

Symbolic identities in the algebra layer are meant to hold with zero
tolerance, which requires exact coefficients.  Plain Gaussian rationals
are not enough because the Schroedinger isomorphism involves 1/sqrt(2),
so scalars carry four rational components:

    value = (a + b*sqrt(2)) + (c + d*sqrt(2)) * i
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .exceptions import NotUnimodular

_HASH_MOD = 2 ** sys.hash_info.width


def _pair_mul(p, q):
    # (a + b*sqrt2)(c + d*sqrt2)
    a, b = p
    c, d = q
    return (a * c + 2 * b * d, a * d + b * c)


def _pair_inv(p):
    a, b = p
    den = a * a - 2 * b * b
    if den == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt2)")
    return (a / den, -b / den)


class ExactScalar:
    """A number (a + b*sqrt2) + (c + d*sqrt2)i with rational a, b, c, d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    @classmethod
    def _of(cls, a, b, c, d):
        """From four Fractions, without coercing them again."""
        x = object.__new__(cls)
        x.a, x.b, x.c, x.d = a, b, c, d
        return x

    @staticmethod
    def coerce(x):
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")

    def __add__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) + other
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        o = ExactScalar.coerce(other)
        return ExactScalar._of(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._of(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) - other
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, r):
        # a rational r scales the four components
        return ExactScalar._of(self.a * r, self.b * r, self.c * r, self.d * r)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if isinstance(other, (complex, float)):
            return complex(self) * other
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not (other.b or other.c or other.d):
            return self._scaled(other.a)
        if not (self.b or self.c or self.d):
            return other._scaled(self.a)
        re1, im1 = (self.a, self.b), (self.c, self.d)
        re2, im2 = (other.a, other.b), (other.c, other.d)
        rr = _pair_mul(re1, re2)
        ii = _pair_mul(im1, im2)
        ri = _pair_mul(re1, im2)
        ir = _pair_mul(im1, re2)
        return ExactScalar._of(rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1])

    __rmul__ = __mul__

    def inverse(self):
        # 1/x = conj(x) / (x * conj(x)); the denominator lives in Q(sqrt2).
        num = self.conjugate()
        den = _pair_mul((self.a, self.b), (self.a, self.b))
        den2 = _pair_mul((self.c, self.d), (self.c, self.d))
        den = (den[0] + den2[0], den[1] + den2[1])
        inv = _pair_inv(den)
        re = _pair_mul((num.a, num.b), inv)
        im = _pair_mul((num.c, num.d), inv)
        return ExactScalar(re[0], re[1], im[0], im[1])

    def __truediv__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) / other
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ExactScalar.coerce(other) * self.inverse()

    def conjugate(self):
        return ExactScalar._of(self.a, self.b, -self.c, -self.d)

    def is_zero(self):
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            o = ExactScalar.coerce(other)
            return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)
        if isinstance(other, (float, complex)):
            # exact, as Fraction compares with float: floats are rational,
            # so a nonzero sqrt2 part never equals one
            z = complex(other)
            return not (self.b or self.d) and self.a == z.real and self.c == z.imag
        return NotImplemented

    def __hash__(self):
        if self.b or self.d:
            return hash((self.a, self.b, self.c, self.d))
        # a Gaussian rational hashes like the int, Fraction, float or
        # complex it equals (CPython's complex hash, on Fraction hashes)
        h = (hash(self.a) + sys.hash_info.imag * hash(self.c)) % _HASH_MOD
        if h >= _HASH_MOD // 2:
            h -= _HASH_MOD
        return -2 if h == -1 else h

    def __complex__(self):
        s = math.sqrt(2.0)
        return complex(float(self.a) + float(self.b) * s,
                       float(self.c) + float(self.d) * s)

    def __repr__(self):
        return f"ExactScalar({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        def part(r, s):
            if s == 0:
                return str(r)
            if r == 0:
                return f"{s}*sqrt2"
            return f"{r}+{s}*sqrt2" if s > 0 else f"{r}{s}*sqrt2"

        re, im = part(self.a, self.b), part(self.c, self.d)
        if im == "0":
            return re
        if re == "0":
            return f"{im}i"
        return f"({re})+({im})i"


ONE = ExactScalar(1)
I = ExactScalar(0, 0, 1)
SQRT2 = ExactScalar(0, 1)
INV_SQRT2 = ExactScalar(0, Fraction(1, 2))


def conj(c):
    """Conjugate for either exact scalars or python numbers."""
    if isinstance(c, ExactScalar):
        return c.conjugate()
    return complex(c).conjugate()


def is_zero(c, tol=0.0):
    if isinstance(c, ExactScalar):
        return c.is_zero()
    if isinstance(c, (int, Fraction)):
        return c == 0
    return abs(c) <= tol


# 2 x 2 matrices: nested sequences of exact scalars or python or numpy numbers

def unimodular_det(m, name, tol=0.0):
    """det m if it is 1 within tol (exactly for exact entries, never for NaN)."""
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if not is_zero(det - 1, tol):
        raise NotUnimodular(f"det {name} = {det}")
    return det


def adj2(m):
    """The adjugate of m: its inverse when det m = 1."""
    return [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]


def mul2(x, y):
    """The product x y as a nested list."""
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]
