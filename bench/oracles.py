"""Independent oracles for every benchmark job.

Each oracle takes the job and the value the library returned and gives a
verdict: ``"ok"``, ``"fail"`` (a NaN/Inf in the result, or a CLI call that
exited non-zero or printed a traceback) or ``"wrong"`` (the oracle rejects
the value).  No oracle calls the module it checks:

* algebra results are compared through their action on polynomials
  (a -> d/dz, a* -> z; a_i -> d/dz_i, a_i* -> eta_i z_i) with this file's
  own arithmetic in Q(i, sqrt 2);
* ``weber_D`` against ``mpmath.pcfd`` and the Hermite closed form, the
  implementer against an independently summed Cauchy product, projections
  against "keep coefficient k", orbits against the witness formula;
* representations by direct matrix arithmetic on the returned arrays;
* CLI payloads against the in-process library result.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import defaultdict
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import sparse

from workloads import LADDER_RTOL, WEBER_RTOL, canonical_v, cli_options, letter

OK, FAIL, WRONG = "ok", "fail", "wrong"

# ---------------------------------------------------------------------
# Q(i, sqrt 2): rationals stay Python ints/Fractions (fast); anything with
# a sqrt 2 or i part is a Q4 (a, b, c, d) = (a + b sqrt2) + (c + d sqrt2) i
# ---------------------------------------------------------------------

def _rat(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def q(a, b=0, c=0, d=0):
    return _rat(a) if b == c == d == 0 else Q4(a, b, c, d)


class Q4:
    __slots__ = ("v",)

    def __init__(self, a, b, c, d):
        self.v = (_rat(a), _rat(b), _rat(c), _rat(d))

    @staticmethod
    def parts(x):
        return x.v if isinstance(x, Q4) else (x, 0, 0, 0)

    def __add__(self, o):
        return q(*(p + r for p, r in zip(self.v, Q4.parts(o))))

    __radd__ = __add__

    def __mul__(self, o):
        a1, b1, c1, d1 = self.v
        a2, b2, c2, d2 = Q4.parts(o)
        rr = (a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)
        ii = (c1 * c2 + 2 * d1 * d2, c1 * d2 + d1 * c2)
        ri = (a1 * c2 + 2 * b1 * d2, a1 * d2 + b1 * c2)
        ir = (c1 * a2 + 2 * d1 * b2, c1 * b2 + d1 * a2)
        return q(rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1])

    __rmul__ = __mul__

    def __neg__(self):
        return q(*(-p for p in self.v))

    def __eq__(self, o):
        return self.v == Q4.parts(o)

    __hash__ = None


def q_of(c):
    """Exact coefficient -> number; anything inexact raises TypeError."""
    if isinstance(c, (int, Fraction)):
        return _rat(c)
    if all(hasattr(c, k) for k in "abcd"):   # the fields of an ExactScalar
        return q(c.a, c.b, c.c, c.d)
    raise TypeError(f"inexact coefficient {c!r}")


def q_conj(x):
    return q(x.v[0], x.v[1], -x.v[2], -x.v[3]) if isinstance(x, Q4) else x


# ---------------------------------------------------------------------
# polynomial action
# ---------------------------------------------------------------------
# A polynomial is {exponent tuple: number}.  An operator "image" is a list
# of (coefficient, mode, is_creator) terms; a word of images acts right to
# left.

def _act_image(poly, image, eta):
    out = {}
    for exps, c in poly.items():
        for k, mode, creator in image:
            n = exps[mode - 1]
            if creator:
                e, f = n + 1, eta.get(mode, 1)
            elif n:
                e, f = n - 1, n
            else:
                continue
            key = exps[:mode - 1] + (e,) + exps[mode:]
            out[key] = out.get(key, 0) + k * c * f
    return {e: c for e, c in out.items() if c != 0}


def act(images_by_coeff, mono, eta):
    """Apply sum_w coeff * (product of images) to one monomial."""
    total = {}
    for coeff, images in images_by_coeff:
        poly = {mono: 1}
        for image in reversed(images):
            poly = _act_image(poly, image, eta)
        for e, c in poly.items():
            total[e] = total.get(e, 0) + coeff * c
    return {e: c for e, c in total.items() if c != 0}


def plain_images(terms):
    """Element terms {word: coeff} -> [(q, [image per letter])] with each
    letter acting as itself."""
    return [(q_of(c), [[(1, *letter(s))] for s in w]) for w, c in terms.items()]


def _annihilator_degrees(words, eta):
    """Per-mode max count of annihilators over all words: monomials up to
    these exponents determine an element of that annihilation degree."""
    nmodes = max([max(eta, default=1)] + [letter(s)[0] for w in words for s in w])
    deg = [0] * nmodes
    for w in words:
        count = defaultdict(int)
        for s in w:
            mode, creator = letter(s)
            if not creator:
                count[mode] += 1
        for mode, k in count.items():
            deg[mode - 1] = max(deg[mode - 1], k)
    return deg


def same_action(lhs, rhs, degrees, eta):
    """lhs, rhs: [(q, images)].  Compare on every monomial with exponent
    n_i <= degrees[i]."""
    return all(act(lhs, mono, eta) == act(rhs, mono, eta)
               for mono in product(*(range(d + 1) for d in degrees)))


def _order_key(sym):
    mode, creator = letter(sym)
    return (0 if creator else 1, mode)


def is_normal_ordered(terms):
    """Creators left of annihilators, each group sorted by mode."""
    return all(list(w) == sorted(w, key=_order_key) for w in terms)


def _element_check(x_images, x_words, result, gens):
    """Verdict for 'result equals the operator x_images' in the polynomial
    representation of ``gens``."""
    try:
        r_images = plain_images(result.terms)
    except TypeError:
        return WRONG
    eta = dict(gens.eta) if gens.kind == "multimode" else {}
    degrees = _annihilator_degrees(list(x_words) + list(result.terms), eta)
    if not is_normal_ordered(result.terms):
        return WRONG
    return OK if same_action(x_images, r_images, degrees, eta) else WRONG


def _linear_image(row):
    """[c_z, c_d] -> image c_z z + c_d d (holomorphic, mode 1)."""
    return [(q_of(row[0]), 1, True), (q_of(row[1]), 1, False)]


def check_algebra(job, result):
    op, args = job.op, job.args
    if op == "normal_order":
        (x,) = args
        return _element_check(plain_images(x.terms), x.terms, result, x.gens)
    if op == "commutator":
        x, y = args
        xs, ys = plain_images(x.terms), plain_images(y.terms)
        images = [(c1 * c2, i1 + i2) for c1, i1 in xs for c2, i2 in ys]
        images += [(-(c2 * c1), i2 + i1) for c1, i1 in xs for c2, i2 in ys]
        words = [w1 + w2 for w1 in x.terms for w2 in y.terms]
        return _element_check(images, words, result, x.gens)
    if op == "apply_isomorphism":
        v, x = args
        img = {"a*": _linear_image(v[0]), "a": _linear_image(v[1])}
        images = [(q_of(c), [img[s] for s in w]) for w, c in x.terms.items()]
        words = [tuple("d" for _ in w) for w in x.terms]
        return _element_check(images, words, result, result.gens)
    if op == "Involution.apply":
        cmat, x = args
        img = {"z": _linear_image(cmat[0]), "d": _linear_image(cmat[1])}
        images = [(q_conj(q_of(c)), [img[s] for s in reversed(w)])
                  for w, c in x.terms.items()]
        words = [tuple("d" for _ in w) for w in x.terms]
        return _element_check(images, words, result, x.gens)
    if op == "rho_iso":
        eta, x = args

        def flip(sym):
            mode, creator = letter(sym)
            if eta[mode] == -1:
                creator = not creator
            return [(1, mode, creator)]

        images = [(q_of(c), [flip(s) for s in w]) for w, c in x.terms.items()]
        words = [tuple(f"a_{letter(s)[0]}" for s in w) for w in x.terms]
        return _element_check(images, words, result, result.gens)
    if op == "format_element":
        (x,) = args
        try:
            terms = parse_formatted(result)
        except (ValueError, ZeroDivisionError):
            return WRONG
        return _element_check(plain_images(x.terms), x.terms,
                              _Terms(terms), x.gens)
    raise KeyError(op)


class _Terms:
    def __init__(self, terms):
        self.terms = terms


def parse_formatted(text):
    """Parse format_element output with rational coefficients back into
    {word: Fraction}.  Raises ValueError on anything else."""
    if text == "0":
        return {}
    terms = {}
    for part in text.replace(" - ", " + -").split(" + "):
        tokens = part.split(" ")
        coeff = Fraction(1)
        try:
            coeff = Fraction(tokens[0])
            tokens = tokens[1:]
        except ValueError:
            if tokens[0].startswith("-"):
                coeff, tokens[0] = Fraction(-1), tokens[0][1:]
        word = []
        for tok in tokens:
            sym, _, power = tok.partition("^")
            if sym not in ("z", "d", "a", "a*") and not (
                    sym.startswith("a_") and sym.rstrip("*")[2:].isdigit()):
                raise ValueError(f"bad symbol {sym!r}")
            word += [sym] * (int(power) if power else 1)
        terms[tuple(word)] = terms.get(tuple(word), 0) + coeff
    return terms


# ---------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------

_mp = None


def _mpmath():
    global _mp
    if _mp is None:
        import mpmath
        mpmath.mp.dps = 30
        _mp = mpmath
    return _mp


def pcfd_ref(lam, x):
    return complex(_mpmath().pcfd(lam, x))


def hermite_ref(n, x):
    mp = _mpmath()
    x = mp.mpc(x)
    return complex(mp.power(2, -mp.mpf(n) / 2) * mp.exp(-x * x / 4)
                   * mp.hermite(n, x / mp.sqrt(2)))


def _finite(*zs):
    return all(cmath.isfinite(complex(z)) for z in zs)


def check_weber(lam, x, v):
    if not _finite(v.value, v.derivative, v.second, v.est_error):
        return FAIL
    refs = [pcfd_ref(lam, x)]
    if lam >= 0 and lam == int(lam):
        refs.append(hermite_ref(int(lam), x))
    ok = all(abs(v.value - r) <= v.est_error + WEBER_RTOL * abs(r) for r in refs)
    return OK if ok else WRONG


def check_ladder(lam, grid, res):
    up, down = res
    if not _finite(up, down):
        return FAIL
    scale = 1.0
    for z in grid:
        x = math.sqrt(2) * z
        scale = max(scale, abs(pcfd_ref(lam + 1, x)), abs(lam * pcfd_ref(lam - 1, x)),
                    (abs(z) + 1) * abs(pcfd_ref(lam, x)))
    return OK if max(up, down) <= LADDER_RTOL * scale else WRONG


def implementer_coeffs(alpha, beta, coeffs):
    """Coefficients of f(alpha z) exp(-alpha beta z^2 / 2), truncated at
    len(coeffs) - 1, with the absolute sum of the terms of each."""
    d = len(coeffs) - 1
    q = -alpha * beta / 2
    exp_c = [0j] * (d + 1)
    term = 1 + 0j
    for k in range(d // 2 + 1):
        exp_c[2 * k] = term
        term = term * q / (k + 1)
    scaled = [complex(c) * alpha ** n for n, c in enumerate(coeffs)]
    out, absum = [], []
    for n in range(d + 1):
        terms = [scaled[n - j] * exp_c[j] for j in range(0, n + 1, 2)]
        out.append(sum(terms))
        absum.append(sum(abs(t) for t in terms))
    return out, absum


def check_truncfn(job, result):
    op, args = job.op, job.args
    if op == "verify_implementation":
        alpha, beta, f = args
        if not _finite(result):
            return FAIL
        grow = max(abs(alpha), 1 / abs(alpha))
        scale = sum(abs(c) * (n + 1) * grow ** n for n, c in enumerate(f.coeffs))
        return OK if result <= 1e-11 * scale * (1 + abs(beta)) else WRONG
    got = np.asarray(result.coeffs)
    if not np.all(np.isfinite(got)):
        return FAIL
    if op == "fourier_project":
        f, k = args
        want = np.zeros_like(f.coeffs)
        want[k] = f.coeffs[k]
        tol = 1e-10 * max(1.0, float(np.max(np.abs(f.coeffs))))
        good = len(got) == len(want) and float(np.max(np.abs(got - want))) <= tol
        return OK if good else WRONG
    alpha, beta, f = args
    if op == "gamma_S_inverse":
        alpha, beta = 1 / alpha, -beta
    want, absum = implementer_coeffs(alpha, beta, list(f.coeffs))
    if len(got) != len(want) or result.exact != (f.exact and beta == 0):
        return WRONG
    good = all(abs(g - w) <= 1e-11 * s + 1e-300 for g, w, s in zip(got, want, absum))
    return OK if good else WRONG


_CANONICAL_SL = {"SigmaPlus": (0, 1, 0), "SigmaThree": (1, 0, 0),
                 "SigmaOne": (0, 1, 1), "SigmaMinus": (0, 0, 1)}


def witness_vector(kind, a, b, scale):
    """scale * Ad(exp(a sigma3) exp(b sigma+)) applied to the canonical
    representative of ``kind``."""
    n3, nm, np_ = _CANONICAL_SL[kind]
    e2a = cmath.exp(2 * a)
    return (scale * (n3 + b * np_), scale * e2a * (nm - 2 * b * n3 - b * b * np_),
            scale * np_ / e2a)


def check_orbit(job, result):
    (n,) = job.args
    want = (n.n3, n.nminus, n.nplus)
    if not _finite(result.a, result.b, result.scale):
        return FAIL
    if result.kind.value != job.meta["kind"]:
        return WRONG
    tol = 1e-9 * max(1.0, max(abs(c) for c in want))
    mine = witness_vector(job.meta["kind"], result.a, result.b, result.scale)
    rep = result.reproduce()
    theirs = (rep.n3, rep.nminus, rep.nplus)
    good = all(abs(p - q) <= tol for p, q in zip(mine, want)) and \
        all(abs(p - q) <= tol for p, q in zip(theirs, want))
    return OK if good else WRONG


# ---------------------------------------------------------------------
# reps
# ---------------------------------------------------------------------

def _all_finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def krein_adjoint_of(a, gram):
    """G^-1 A^H G for diagonal G, by direct arithmetic."""
    return (np.conj(a).T * gram[None, :]) / gram[:, None]


def _maxabs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def check_rep(job, result):
    kind, params = job.args
    rep, report = result
    arrays = (rep.a_mat, rep.adag_mat, rep.gauge_diag, rep.gram_diag)
    if not _all_finite(*arrays) or not _all_finite(list(report.values())):
        return FAIL
    a, ad, g = rep.a_mat, rep.adag_mat, np.asarray(rep.gram_diag, dtype=float)
    n = len(g)
    if n != params["levels"] + 1:
        return WRONG
    lo = 1 if kind == "schroedinger" and params["theta"] != 0 else 0
    scale = max(1.0, _maxabs(a) * _maxabs(ad))
    sa, sad = sparse.csr_matrix(a), sparse.csr_matrix(ad)
    ccr = (sa @ sad - sad @ sa).toarray() - np.eye(n)
    if _maxabs(ccr[lo:n - 1, lo:n - 1]) > 1e-9 * scale:
        return WRONG
    core = slice(0, n - 1)
    for x, y in ((a, ad), (ad, a)):
        diff = krein_adjoint_of(x, g)[core, core] - y[core, core]
        if _maxabs(diff) > 1e-9 * max(1.0, _maxabs(y)):
            return WRONG
    ks = np.arange(n)
    if kind == "fock":
        ratio = ks[1:].astype(float)
    elif kind == "antifock":
        ratio = -ks[1:].astype(float)
    else:
        ratio = params["sign"] * params["gamma"] ** 2 * (params["theta"] + ks[1:])
    if np.max(np.abs(g[1:] - ratio * g[:-1]) / np.abs(g[1:])) > 1e-12:
        return WRONG
    amax = max(1.0, float(np.max(np.abs(a))))
    limits = {"ccr_max_residual": 1e-8 * scale, "star_property_max_residual": 1e-8 * amax,
              "gram_recursion_max_residual": 1e-8, "gauge_isometry_max_residual": 1e-8,
              "gauge_covariance_max_residual": 1e-8 * amax}
    return OK if all(report[k] <= lim for k, lim in limits.items()) else WRONG


def check_reduce(job, form):
    (v,) = job.args
    v = np.asarray(v, dtype=complex)
    s = np.asarray(form.s_matrix, dtype=complex)
    if not _all_finite(s, form.theta, form.gamma):
        return FAIL
    meta = job.meta
    if (form.kind, form.sign) != (meta["kind"], meta["sign"]):
        return WRONG
    if abs(form.gamma - meta["gamma"]) > 1e-8 * meta["gamma"]:
        return WRONG
    smax = float(np.max(np.abs(s)))
    if abs(s[0, 1]) > 1e-9 * smax or abs(s[0, 0] * s[1, 1] - 1) > 1e-8:
        return WRONG
    can = np.asarray(canonical_v(form.kind, form.sign, form.gamma), dtype=complex)
    vmax = max(1.0, float(np.max(np.abs(v))))
    if min(np.max(np.abs(v - can @ s)), np.max(np.abs(v + can @ s))) > 1e-9 * vmax:
        return WRONG
    theta_off = abs(form.theta - round(form.theta))
    return OK if theta_off <= 1e-8 else WRONG


def monomial_gram(idx, eta):
    g = 1.0
    for mode0, n in enumerate(idx):
        g *= math.factorial(n) * (eta[mode0 + 1] ** n)
    return g


def support_bounds(f, g, eta):
    """Degrees d of <g, U(s) f> = sum_d e^{isd} S_d with
    S_d = sum_{|n|=d} conj(g_n) gram_n f_n.  Returns (must, may): degrees
    clearly nonzero (above 1e-6 of the scale) and degrees not zero to
    rounding (above 1e-12).  The library's relative tolerance decides the
    band in between, so either answer is accepted there."""
    sums = defaultdict(complex)
    for idx, c in f.terms.items():
        if idx in g.terms:
            sums[sum(idx)] += np.conj(g.terms[idx]) * monomial_gram(idx, eta) * c
    scale = max([1.0] + [sum(abs(s) for s in sums.values())])
    must = {d for d, s in sums.items() if abs(s) > 1e-6 * scale}
    may = {d for d, s in sums.items() if abs(s) > 1e-12 * scale}
    return must, may


def check_multimode(job, result):
    eta, cap, f, g = job.args
    rep, support, vacuum = result
    mats = list(rep.a_mats) + list(rep.adag_mats)
    if not _all_finite(rep.gram_diag, *mats) or not _all_finite(list(vacuum.terms.values())):
        return FAIL
    m = len(eta)
    if rep.size != math.comb(m + cap, m):
        return WRONG
    gram = np.array([monomial_gram(b, eta) for b in rep.basis])
    if np.any(gram != np.asarray(rep.gram_diag)):
        return WRONG
    core = np.ix_(*[np.array([sum(b) < cap for b in rep.basis])] * 2)
    sa = [sparse.csr_matrix(x) for x in rep.a_mats]
    sad = [sparse.csr_matrix(x) for x in rep.adag_mats]
    eye = np.eye(rep.size)
    for i in range(m):
        for j in range(m):
            comm = (sa[i] @ sad[j] - sad[j] @ sa[i]).toarray()
            if i == j:
                comm -= eta[i + 1] * eye
            if _maxabs(comm[core]) > 1e-9:
                return WRONG
        adj = krein_adjoint_of(rep.a_mats[i], gram)
        if _maxabs((adj - rep.adag_mats[i])[core]) > 1e-9:
            return WRONG
    must, may = support_bounds(f, g, eta)
    if not must <= set(support) <= may:
        return WRONG
    on_vacuum = set(vacuum.terms) == {()} and abs(vacuum.terms[()]) > 0
    return OK if on_vacuum else WRONG


# ---------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------

def _scalar(z):
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def _num(text):
    try:
        return float(Fraction(text))
    except ValueError:
        return complex(text.replace("i", "j"))


def _state_from(text, mm, cap):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    obj = json.loads(text)
    return mm.MultiIndexState({tuple(k): complex(*v) for k, v in obj["terms"]}, cap)


def cli_expected(km, argv):
    """The payload fields each verb must print, from in-process calls."""
    alg, dsl = km.algebra, km.dsl
    verb = argv[0]
    pos, o = cli_options(argv)

    def el(text):
        return dsl.to_element(dsl.parse_expr(text))

    if verb == "normal-order":
        return {"result": alg.format_element(alg.normal_order(el(pos[0])))}
    if verb == "commutator":
        return {"result": alg.format_element(alg.commutator(el(pos[0]), el(pos[1])))}
    if verb in ("involve", "isomap"):
        vals = [_num(p) for p in o["--c-matrix" if verb == "involve" else "--v"].split(",")]
        mat = [vals[:2], vals[2:]]
        x = el(pos[0])
        out = alg.Involution(mat).apply(x) if verb == "involve" else \
            alg.apply_isomorphism(mat, x)
        return {"result": alg.format_element(out)}
    if verb == "classify-orbit":
        r = km.sl2.classify_orbit(km.sl2.SlVector(
            _num(o["--n3"]), _num(o["--nminus"]), _num(o["--nplus"])))
        return {"type": r.kind.value,
                "witness": {"a": _scalar(r.a), "b": _scalar(r.b),
                            "scale": _scalar(r.scale)}}
    if verb == "pcf-eval":
        v = km.pcf.weber_D(_num(o["--lam"]), _num(o["--x"]))
        return {"value": _scalar(v.value), "derivative": _scalar(v.derivative),
                "est_error": v.est_error}
    if verb in ("gamma-s", "project"):
        tf = km.truncfn
        f = tf.TruncFn.from_coeffs([_num(c) for c in o["--coeffs"].split(",")],
                                   degree_cap=int(o["--degree-cap"]))
        if verb == "project":
            g = tf.fourier_project(tf.rotation_family, f, int(o["--k"]))
            return {"coefficients": [[c.real, c.imag] for c in g.coeffs]}
        a, b = _num(o["--alpha"]), _num(o["--beta"])
        g = tf.gamma_S_inverse(a, b, f) if o.get("--inverse") else tf.gamma_S(a, b, f)
        return {"coefficients": [[c.real, c.imag] for c in g.coeffs], "exact": g.exact,
                "implementation_residual": tf.verify_implementation(a, b, f)}
    if verb in ("build-rep", "verify-rep"):
        reps = km.reps
        kind, levels = o.get("--kind", "fock"), int(o.get("--levels", 8))
        if kind == "fock":
            rep = reps.build_fock_bargmann(levels)
        elif kind == "antifock":
            rep = reps.build_antifock(levels)
        else:
            rep = reps.build_schroedinger_theta(float(o["--theta"]), float(o["--gamma"]),
                                                levels, sign=int(o.get("--sign", 1)))
        return json.loads(rep.to_json()) if verb == "build-rep" else reps.verify_rep(rep)
    if verb == "reduce-canonical":
        vals = [_num(p) for p in o["--v"].split(",")]
        form = km.reps.reduce_to_canonical([vals[:2], vals[2:]])
        return {"kind": form.kind, "sign": form.sign, "theta": form.theta,
                "gamma": form.gamma}
    mm = km.multimode
    eta = mm.EtaSignature(tuple(int(p) for p in o["--eta"].split(",")))
    cap = int(o["--degree-cap"])
    rep = mm.build_multimode_rep(eta, cap)
    if verb == "multimode-build":
        return {"dimension": rep.size,
                "gauge_spectrum": sorted({int(x.real) for x in rep.gauge_diag})}
    f = _state_from(o["--f"], mm, cap)
    if verb == "spectral-check":
        g = _state_from(o["--g"], mm, cap)
        return {"support": sorted(mm.spectral_condition_check(rep, f, g))}
    psi = mm.vacuum_descent(rep, f)
    return {"vacuum": json.loads(psi.to_json()), "on_constant_ray": set(psi.terms) == {()}}


def close(got, want, rel=1e-12):
    """Recursive equality with a relative tolerance on numbers."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and close(got[k], v, rel)
                                             for k, v in want.items())
    if isinstance(want, (list, tuple)):
        return isinstance(got, list) and len(got) == len(want) and \
            all(close(g, w, rel) for g, w in zip(got, want))
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if isinstance(want, (int, float, np.integer, np.floating)):
        return isinstance(got, (int, float)) and \
            abs(got - float(want)) <= rel * max(1.0, abs(float(want)))
    return False


def check_cli(km, job, result):
    argv = job.args[0]
    code, out, err = result
    if code != 0 or "Traceback" in err:
        return FAIL
    try:
        payload = json.loads(out)
    except ValueError:
        return FAIL
    if not close(payload, cli_expected(km, argv)):
        return WRONG
    if argv[0] == "normal-order":
        word = tuple(argv[1].split())
        gens = km.algebra.HOLOMORPHIC if set(word) <= {"z", "d"} else km.algebra.HEISENBERG
        try:
            terms = parse_formatted(payload["result"])
        except (ValueError, ZeroDivisionError):
            return WRONG
        x_images = [(1, [[(1, *letter(s))] for s in word])]
        return _element_check(x_images, [word], _Terms(terms), gens)
    return OK


def check(km, job, result):
    """Verdict for one job's returned value."""
    op = job.op
    if op == "cli":
        return check_cli(km, job, result)
    if op in ("normal_order", "commutator", "apply_isomorphism", "Involution.apply",
              "rho_iso", "format_element"):
        return check_algebra(job, result)
    if op == "weber_D":
        return check_weber(*job.args, result)
    if op == "ladder_check":
        return check_ladder(*job.args, result)
    if op in ("gamma_S", "gamma_S_inverse", "verify_implementation", "fourier_project"):
        return check_truncfn(job, result)
    if op == "classify_orbit":
        return check_orbit(job, result)
    if op == "build_verify":
        return check_rep(job, result)
    if op == "reduce_to_canonical":
        return check_reduce(job, result)
    if op == "multimode":
        return check_multimode(job, result)
    raise KeyError(op)
