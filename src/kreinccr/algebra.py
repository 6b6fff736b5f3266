"""Exact noncommutative *-algebra engine.

Elements are finite linear combinations of words in abstract generators.
Three generator sets are supported: the holomorphic pair (z, d) with
[d, z] = 1, the Heisenberg pair (a, a*) with [a, a*] = 1, and multimode
families a_i, a_i* with [a_i, a_j*] = delta_ij * eta_i, eta_i = +-1.

Normal ordering expands each word by Wick's theorem into the unique
creation-left representative (creators by numeric mode, then
annihilators).  The word is read left to right into normal-ordered
monomials, kept as per-mode exponent vectors with integer coefficients:
an annihilator a_i raises the power of a_i, and a creator a_i* applied
to a monomial holding a_i^m gives the monomial with one more a_i* plus
m * eta_i times the monomial with one a_i fewer, since
a^m a* = a* a^m + m eta a^(m-1).  Run over a whole block this is
a^m a*^n = sum_k k! C(m,k) C(n,k) eta^k a*^(n-k) a^(m-k).  Each word's
coefficient multiplies each integer once, at the end.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ExactScalar, conj, is_zero
from .exceptions import IncompatibleAlgebras, NotUnimodular

_ONE = ExactScalar(1)

# (mode, is_creator) of the single-mode letters
_LETTERS = {"holomorphic": {"z": (0, True), "d": (0, False)},
            "heisenberg": {"a*": (0, True), "a": (0, False)}}


def _mode_of(sym):
    # "a_3*" -> 3
    return int(sym.split("_", 1)[1].rstrip("*"))


class GeneratorSet:
    """Abstract generators plus their commutator table and ordering.

    ``kind`` is one of "holomorphic", "heisenberg", "multimode".  For the
    multimode kind, ``eta`` maps mode index -> +-1 (modes absent from the
    map default to +1, which is how the unbounded-mode case is handled:
    states only ever touch finitely many modes).
    """

    def __init__(self, kind, eta=None):
        if kind not in ("holomorphic", "heisenberg", "multimode"):
            raise ValueError(f"unknown generator kind {kind!r}")
        self.kind = kind
        self.eta = dict(eta or {})
        if any(v not in (1, -1) for v in self.eta.values()):
            raise ValueError("eta entries must be +-1")

    def is_valid(self, sym):
        if self.kind != "multimode":
            return sym in _LETTERS[self.kind]
        # one spelling per mode: "a_2", never "a_02"
        i = sym[2:].removesuffix("*")
        return sym.startswith("a_") and i.isdecimal() and str(int(i)) == i

    def letter(self, sym):
        """(mode, is_creator) of a generator; the pair (z, d) is mode 0."""
        if self.kind == "multimode":
            return _mode_of(sym), sym.endswith("*")
        return _LETTERS[self.kind][sym]

    def contraction(self, mode):
        """The central scalar [a_mode, a_mode*] (1 for the single-mode sets)."""
        return self.eta.get(mode, 1)

    def star(self, sym):
        """Image of a generator under the algebra *-involution."""
        if self.kind == "holomorphic":
            raise ValueError("holomorphic set has no canonical *; use Involution")
        return sym[:-1] if sym.endswith("*") else sym + "*"

    def __eq__(self, other):
        return (isinstance(other, GeneratorSet) and self.kind == other.kind
                and self.eta == other.eta)

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.eta.items()))))

    def __repr__(self):
        return f"GeneratorSet({self.kind!r})"


HOLOMORPHIC = GeneratorSet("holomorphic")
HEISENBERG = GeneratorSet("heisenberg")


def multimode_set(eta):
    """Generator set for modes 1..M given a sequence of +-1 (or a dict)."""
    if not isinstance(eta, dict):
        eta = {i + 1: v for i, v in enumerate(eta)}
    return GeneratorSet("multimode", eta)


class AlgebraElement:
    """Finite linear combination of words, over a fixed generator set.

    Coefficients are ExactScalar by default; complex floats are accepted
    for numeric work (e.g. the CLI's isomap and involve on float matrices)
    and mixing the two coerces to complex.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms=None):
        self.gens = gens
        self.terms = {}
        for word, c in (terms or {}).items():
            for sym in word:
                if not gens.is_valid(sym):
                    raise IncompatibleAlgebras(f"generator {sym!r} not in {gens.kind} set")
            if not is_zero(c):
                self.terms[tuple(word)] = c

    @classmethod
    def _of(cls, gens, terms):
        """Element from word tuples already valid over ``gens``."""
        x = cls.__new__(cls)
        x.gens = gens
        x.terms = {w: c for w, c in terms.items() if not is_zero(c)}
        return x

    # -- constructors -------------------------------------------------

    @classmethod
    def generator(cls, gens, sym, coeff=_ONE):
        return cls(gens, {(sym,): coeff})

    @classmethod
    def scalar(cls, gens, c):
        return cls(gens, {(): c})

    @classmethod
    def zero(cls, gens):
        return cls(gens)

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if self.gens != other.gens:
            raise IncompatibleAlgebras("elements over different generator sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar, complex, float)):
            other = AlgebraElement.scalar(self.gens, _as_coeff(other))
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
        return AlgebraElement._of(self.gens, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement._of(self.gens, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar, complex, float)):
            other = AlgebraElement.scalar(self.gens, _as_coeff(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar, complex, float)):
            k = _as_coeff(other)
            return AlgebraElement._of(self.gens, {w: c * k for w, c in self.terms.items()})
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
        return AlgebraElement._of(self.gens, out)

    def __rmul__(self, other):
        return self * other  # scalars commute

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = AlgebraElement.scalar(self.gens, _ONE)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar, complex, float)):
            other = AlgebraElement.scalar(self.gens, _as_coeff(other))
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        diff = normal_order(self) - normal_order(other)
        return not diff.terms

    # equality is equality in the quotient algebra, which no cheap hash of
    # the stored words respects
    __hash__ = None

    def star(self):
        """*-involution: conjugate coefficients, reverse and star words."""
        out = {}
        for w, c in self.terms.items():
            sw = tuple(self.gens.star(s) for s in reversed(w))
            out[sw] = out.get(sw, 0) + conj(c)
        return normal_order(AlgebraElement(self.gens, out))

    def is_zero(self):
        return not normal_order(self).terms

    def __repr__(self):
        return f"AlgebraElement({format_element(self)!r})"


def _as_coeff(x):
    if isinstance(x, (int, Fraction)):
        return ExactScalar(x)
    return x


def _wick(word, gens):
    """Normal-ordered expansion of one word: {word: int coefficient}.

    The pass keeps exponent vectors (creator power, annihilator power per
    mode, modes in numeric order); the output words spell each letter as
    it first appears in ``word``.
    """
    letters = [gens.letter(s) for s in word]
    modes = sorted({m for m, _ in letters})
    slot = {m: 2 * j for j, m in enumerate(modes)}
    terms = {(0,) * (2 * len(modes)): 1}
    for m, creator in letters:
        j = slot[m]
        if not creator:
            terms = {v[:j + 1] + (v[j + 1] + 1,) + v[j + 2:]: c for v, c in terms.items()}
            continue
        # a^n a* = a* a^n + n eta a^(n-1)
        eta = gens.contraction(m)
        nxt = {}
        for v, c in terms.items():
            up = v[:j] + (v[j] + 1,) + v[j + 1:]
            nxt[up] = nxt.get(up, 0) + c
            n = v[j + 1]
            if n:
                down = v[:j + 1] + (n - 1,) + v[j + 2:]
                nxt[down] = nxt.get(down, 0) + n * eta * c
        terms = nxt
    spell = {}
    for sym, lt in zip(word, letters):
        spell.setdefault(lt, sym)
    # creators by mode, then annihilators by mode
    order = [(spell.get((m, True)), slot[m]) for m in modes]
    order += [(spell.get((m, False)), slot[m] + 1) for m in modes]
    return {sum(((s,) * v[i] for s, i in order), ()): c for v, c in terms.items()}


def normal_order(x: AlgebraElement) -> AlgebraElement:
    """Unique creation-left representative of x in the quotient algebra."""
    out = {}
    for word, coeff in x.terms.items():
        coeff = _as_coeff(coeff)
        for w, k in _wick(word, x.gens).items():
            t = coeff if k == 1 else coeff * k
            s = out.get(w)
            out[w] = t if s is None else s + t
    return AlgebraElement._of(x.gens, out)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    if x.gens != y.gens:
        raise IncompatibleAlgebras("commutator over different generator sets")
    return normal_order(x * y - y * x)


def substitute(x: AlgebraElement, images: dict, target: GeneratorSet) -> AlgebraElement:
    """Algebra homomorphism determined by generator -> element images."""
    out = AlgebraElement.zero(target)
    for w, c in x.terms.items():
        term = AlgebraElement.scalar(target, c)
        for sym in w:
            term = term * images[sym]
        out = out + term
    return normal_order(out)


class Involution:
    """Antilinear product-reversing involution on the holomorphic algebra.

    Determined by a 2x2 matrix C acting on the generator column (z, d):
    z* = C00 z + C01 d, d* = C10 z + C11 d.  Requires conj(C) C = 1.
    """

    def __init__(self, c_matrix, tol=1e-10):
        self.c = [[_as_coeff(c_matrix[i][j]) for j in range(2)] for i in range(2)]
        if not self._involutive(tol):
            raise ValueError("conj(C) C != identity; K would not square to id")

    def _involutive(self, tol):
        cc = [[conj(self.c[i][0]) * self.c[0][j] + conj(self.c[i][1]) * self.c[1][j]
               for j in range(2)] for i in range(2)]
        ident = [[1, 0], [0, 1]]
        for i in range(2):
            for j in range(2):
                if not is_zero(cc[i][j] - ident[i][j], tol):
                    return False
        return True

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.gens.kind != "holomorphic":
            raise IncompatibleAlgebras("involution acts on the holomorphic algebra")
        # K is antilinear and reverses products: substitute into the
        # reversed words with conjugated coefficients
        rev = AlgebraElement(x.gens, {w[::-1]: conj(c) for w, c in x.terms.items()})
        return substitute(rev, _linear_images(self.c, ("z", "d")), x.gens)


def _linear_images(m, syms):
    """Images m[i][0] z + m[i][1] d of the generators syms[i]."""
    z = AlgebraElement.generator(HOLOMORPHIC, "z")
    d = AlgebraElement.generator(HOLOMORPHIC, "d")
    return {sym: m[i][0] * z + m[i][1] * d for i, sym in enumerate(syms)}


def _unimodular_images(v, syms, name, tol):
    m = [[_as_coeff(v[i][j]) for j in range(2)] for i in range(2)]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if not is_zero(det - 1, tol):
        raise NotUnimodular(f"det {name} = {det}")
    return _linear_images(m, syms)


def apply_isomorphism(v, x: AlgebraElement, tol=1e-10) -> AlgebraElement:
    """Map a Heisenberg element through (a*, a)^T = V (z, d)^T.

    V must be unimodular; the result is normal-ordered over the
    holomorphic set.  Exact 2x2 entries keep the computation exact.
    """
    if x.gens.kind != "heisenberg":
        raise IncompatibleAlgebras("apply_isomorphism expects a Heisenberg element")
    return substitute(x, _unimodular_images(v, ("a*", "a"), "V", tol), HOLOMORPHIC)


def apply_automorphism(t, x: AlgebraElement, tol=1e-10) -> AlgebraElement:
    """Automorphism of the holomorphic algebra: (z, d)^T -> T (z, d)^T."""
    if x.gens.kind != "holomorphic":
        raise IncompatibleAlgebras("apply_automorphism expects a holomorphic element")
    return substitute(x, _unimodular_images(t, ("z", "d"), "T", tol), x.gens)


def _coeff_str(c):
    if isinstance(c, ExactScalar):
        return str(c)
    z = complex(c)
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return f"{z.imag!r}i"
    op = "+" if z.imag > 0 else "-"
    return f"({z.real!r}{op}{abs(z.imag)!r}i)"


def format_element(x: AlgebraElement) -> str:
    """Stable human-readable form of a normal-ordered element."""
    no = normal_order(x)
    if not no.terms:
        return "0"
    parts = []
    for w in sorted(no.terms, key=lambda w: (-len(w), w)):
        c = no.terms[w]
        body = " ".join(_word_with_powers(w))
        if not body:
            parts.append(_coeff_str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{_coeff_str(c)} {body}")
    return " + ".join(parts).replace("+ -", "- ")


def _word_with_powers(word):
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return out
