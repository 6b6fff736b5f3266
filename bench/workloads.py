"""Seeded job decks for the four benchmark workloads.

A deck is a list of ``Job``s built from one ``random.Random(seed)``.  Each
job is one public library call (or one CLI invocation) whose inputs are
built here, before timing, so the timed call receives only generated
inputs.  Sizes are stratified: every deck has the same mix of operation
kinds and size buckets, and within a bucket the concrete inputs are drawn
from the seed.  That keeps the cost profile of a deck close from one seed
to the next while the inputs themselves change.

``Job.known`` names the known-defect class an input falls in, decided from
the input alone (see ``KNOWN_DEFECTS``).  A failed or wrong job in such a
class is counted in ``fail_frac``/``wrong_frac`` like any other; it is only
excluded from the count of *unexpected* failures that decides ``correct``.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
import os
import random
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

WORKLOADS = ("algebra", "specfun", "reps", "cli")

KNOWN_DEFECTS = {
    "pcf_cancellation": "weber_D / ladder_check where rounding in the Kummer "
                        "combination can reach the oracle's tolerance: "
                        "est_error omits the rounding error",
    "gram_overflow": "a Gram entry (or the Gamma/factorial factor in it) "
                     "within a factor 1e4 of the largest double: it, or a "
                     "sum over it, overflows",
    "det_tolerance": "reduce-canonical with |det V - 1| above the 1e-10 "
                     "tolerance (the README example)",
}

_LOG_DBL_MAX = math.log(sys.float_info.max)
GRAM_MARGIN = 1e4     # verify_rep's inner products overflow 2x below the largest double

# Relative tolerances of the weber_D and ladder_check oracles (oracles.py).
WEBER_RTOL = 1e-12
LADDER_RTOL = 1e-8


@dataclass
class Job:
    op: str                 # operation kind
    size: object            # size parameter: word length, levels, D, (m, cap), verb
    args: tuple             # inputs of the library call
    group: str              # size bucket, used to interleave the deck
    known: str | None = None
    meta: dict = field(default_factory=dict)

    def describe(self):
        """Plain-data identity of the job, for determinism checks and logs."""
        return (self.op, repr(self.size), self.known, _plain_repr(self.args))


def _plain_repr(obj):
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(_plain_repr(x) for x in obj) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k!r}:{_plain_repr(v)}" for k, v in sorted(obj.items())) + "}"
    if hasattr(obj, "terms"):
        return _plain_repr(sorted((repr(k), repr(v)) for k, v in obj.terms.items()))
    if hasattr(obj, "coeffs"):
        return repr([complex(c) for c in obj.coeffs])
    return repr(obj)


def interleave(jobs, rng):
    """Order jobs so that every prefix of the deck has about the same mix of
    groups: group members are spread evenly along [0, 1) with a random
    offset, then merged.  A run cut at any point then sees a fair sample."""
    groups = defaultdict(list)
    for j in jobs:
        groups[j.group].append(j)
    keyed = []
    for name in sorted(groups):
        members = groups[name]
        rng.shuffle(members)
        u = rng.random()
        for i, j in enumerate(members):
            keyed.append(((i + u) / len(members), rng.random(), len(keyed), j))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def make_deck(workload, seed, km, tmpdir=None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "algebra":
        jobs = _algebra_jobs(rng, km)
    elif workload == "specfun":
        jobs = _specfun_jobs(rng, km)
    elif workload == "reps":
        jobs = _reps_jobs(rng, km)
    elif workload == "cli":
        jobs = _cli_jobs(rng, km, tmpdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(jobs, rng)


# ---------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------

HOLO = ("z", "d")
HEIS = ("a*", "a")
ETA3 = (1, -1, 1)
MM3 = tuple(s for i in (1, 2, 3) for s in (f"a_{i}*", f"a_{i}"))


def letter(sym):
    """(mode, is_creator) of a generator symbol."""
    if sym in ("z", "a*"):
        return 1, True
    if sym in ("d", "a"):
        return 1, False
    return int(sym[2:].rstrip("*")), sym.endswith("*")


def contraction_patterns(word):
    """Number of sets of disjoint contractions (an annihilator paired with
    a later creator of the same mode): the terms Wick's theorem expands the
    word into.  Normal-ordering cost is about proportional to it."""
    total = 1
    for mode in {letter(s)[0] for s in word}:
        ways = {0: 1}   # open annihilators -> number of patterns
        for sym in word:
            m, creator = letter(sym)
            if m != mode:
                continue
            nxt = defaultdict(int)
            for k, v in ways.items():
                if creator:
                    nxt[k] += v
                    if k:
                        nxt[k - 1] += v * k
                else:
                    nxt[k + 1] += v
            ways = nxt
        total *= sum(ways.values())
    return total


def _word_pool(rng, letters, length, size):
    """``size`` random words, sorted by ``contraction_patterns``."""
    cands = []
    for _ in range(size):
        w = tuple(rng.choice(letters) for _ in range(length))
        cands.append((contraction_patterns(w), rng.random(), w))
    cands.sort()
    return cands


@functools.lru_cache(maxsize=None)
def _pattern_targets(letters, length, count, size, lightest):
    ref = _word_pool(random.Random(f"{letters}:{length}"), letters, length, size)
    ref = ref[:int(len(ref) * lightest)]
    step = len(ref) / count
    return [ref[int((i + 0.5) * step)][0] for i in range(count)]


def stratified_words(rng, letters, length, count, pool=16, lightest=1.0):
    """``count`` random words of one length whose numbers of contraction
    patterns are the same for every seed: the middles of ``count`` equal
    slices of the ``lightest`` fraction of a reference pool drawn with a
    fixed seed.  For each, the seed's own pool of ``pool * count`` words
    gives the word with the nearest number, so the words change with the
    seed and the deck's cost profile barely does."""
    targets = _pattern_targets(letters, length, count, pool * count, lightest)
    cands = _word_pool(rng, letters, length, pool * count)
    words = []
    for t in targets:
        j = min(range(len(cands)), key=lambda n: (abs(cands[n][0] - t), cands[n][1]))
        words.append(cands.pop(j)[2])
    return words


def _algebra_jobs(rng, km):
    alg, exact = km.algebra, km.exact
    sets = (("holo", alg.HOLOMORPHIC, HOLO),
            ("heis", alg.HEISENBERG, HEIS),
            ("mm3", alg.multimode_set(list(ETA3)), MM3))
    one = exact.ExactScalar(1)

    def elem(gens, word):
        return alg.AlgebraElement(gens, {word: one})

    jobs = []
    for name, gens, letters in sets:
        for length in range(1, 13):
            # Long words carry most of the cost.  More of them, from the
            # lightest 80% (the heaviest random words cost ten times the
            # median) of a larger pool, keep the deck's cost and its tail
            # close from seed to seed.
            long = length >= 10
            for w in stratified_words(rng, letters, length, 16 if long else 4,
                                      pool=64 if long else 16,
                                      lightest=0.8 if long else 1.0):
                jobs.append(Job("normal_order", length, (elem(gens, w),),
                                f"no-{length}"))
        for i in range(8):
            wx = stratified_words(rng, letters, 1 + i % 5, 1)[0]
            wy = stratified_words(rng, letters, 1 + (i // 5 + i) % 5, 1)[0]
            jobs.append(Job("commutator", len(wx) + len(wy),
                            (elem(gens, wx), elem(gens, wy)), "comm"))
        for length in range(1, 11):
            for w in stratified_words(rng, letters, length, 1):
                jobs.append(Job("format_element", length, (elem(gens, w),),
                                "fmt"))
    r = exact.INV_SQRT2
    schroedinger_v = ([[r, -r], [r, r]], [[-r, -r], [r, -r]])
    i_ = exact.I
    involutions = ([[0, 1], [1, 0]], [[0, i_], [i_, 0]],
                   [[1, 0], [0, 1]], [[0, -1], [-1, 0]])
    holo, heis, mm3 = (s[1] for s in sets)
    for length in range(1, 9):
        if length <= 5:   # the image of a word has 2^length words
            for k, w in enumerate(stratified_words(rng, HEIS, length, 2)):
                jobs.append(Job("apply_isomorphism", length,
                                (schroedinger_v[k % 2], elem(heis, w)), "iso"))
        for w in stratified_words(rng, HOLO, length, 2):
            jobs.append(Job("Involution.apply", length,
                            (rng.choice(involutions), elem(holo, w)), "inv"))
        for w in stratified_words(rng, MM3, length, 2):
            jobs.append(Job("rho_iso", length,
                            (km.multimode.EtaSignature(ETA3), elem(mm3, w)), "rho"))
    return jobs


# ---------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------

def _rgamma(z):
    return 0.0 if z <= 0 and z == int(z) else 1 / math.gamma(z)


def _kummer_abs_sums(a, b, t):
    """(sum of the Kummer series M(a, b, t), sum of its absolute terms)."""
    term, total, absum = 1 + 0j, 1 + 0j, 1.0
    for n in range(1, 400):
        term = term * (a + n - 1) / (b + n - 1) * t / n
        total += term
        absum += abs(term)
        if abs(term) < 1e-17 * absum:
            break
    return total, absum


def kummer_cancellation(lam, x):
    """How much larger the terms of weber_D's Kummer combination
    A M(-l/2, 1/2, x^2/2) - B x M((1-l)/2, 3/2, x^2/2) are than its value:
    rounding error grows with this ratio, and est_error leaves it out."""
    x = complex(x)
    t = x * x / 2
    a = math.sqrt(math.pi) * _rgamma((1 - lam) / 2)
    b = math.sqrt(2 * math.pi) * _rgamma(-lam / 2)
    m1, s1 = _kummer_abs_sums(-lam / 2, 0.5, t)
    m2, s2 = _kummer_abs_sums((1 - lam) / 2, 1.5, t)
    value = abs(a * m1 - b * x * m2)
    terms = abs(a) * s1 + abs(b * x) * s2
    return math.inf if value == 0 else terms / value


def pcf_known(lams, xs, rtol):
    """Known-defect class of a weber_D evaluation at every (lambda, x)
    given: rounding in the Kummer combination, up to the double epsilon
    times its cancellation ratio, can exceed a sixteenth of the oracle's
    relative tolerance ``rtol``.  On 40 seeds of the specfun deck every
    wrong weber_D result had a ratio of at least 1.3e3 (the class starts at
    2.8e2), and every wrong ladder_check one at least 1.4e15."""
    limit = rtol / 16 / sys.float_info.epsilon
    if any(kummer_cancellation(lam, x) > limit for lam in lams for x in xs):
        return "pcf_cancellation"
    return None


def _weber_point(rng, lam_lo, lam_hi, r_lo, r_hi, complex_x):
    lam = rng.uniform(lam_lo, lam_hi)
    r = rng.uniform(r_lo, r_hi)
    if complex_x:
        x = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    else:
        x = r * rng.choice((-1.0, 1.0))
    return lam, x


def _specfun_jobs(rng, km):
    pcf, tf, sl2 = km.pcf, km.truncfn, km.sl2
    jobs = []
    lam_edges = [-20 + 5 * i for i in range(9)]
    r_edges = [2 * i for i in range(7)]
    for li in range(8):
        for ri in range(6):
            for complex_x in (False, True):
                for _ in range(3):
                    lam, x = _weber_point(rng, lam_edges[li], lam_edges[li + 1],
                                          r_edges[ri], r_edges[ri + 1], complex_x)
                    jobs.append(Job("weber_D", ri, (lam, x), "weber",
                                    pcf_known((lam,), (x,), WEBER_RTOL)))
            # integer orders, where the Hermite closed form is a second oracle
            lam = float(rng.randint(lam_edges[li], lam_edges[li + 1]))
            _, x = _weber_point(rng, lam, lam, r_edges[ri], r_edges[ri + 1],
                                rng.random() < 0.5)
            jobs.append(Job("weber_D", ri, (lam, x), "weber",
                            pcf_known((lam,), (x,), WEBER_RTOL)))
    half = 12 / math.sqrt(2)   # |x| = sqrt(2) |z| <= 12
    for i in range(24):
        lam = rng.uniform(-19, 19) if i % 2 else float(rng.randint(0, 19))
        # one grid point in each sixth of [-half, half]: the Kummer series
        # lengthen with |x|, and a grid drawn at random moved the cost of
        # the dearest ladder_check jobs, the deck's job_tail_ms, from seed
        # to seed
        grid = [rng.uniform(-half + k * half / 3, -half + (k + 1) * half / 3) for k in range(6)]
        xs = [math.sqrt(2) * z for z in grid]
        lams = (lam, lam + 1) + ((lam - 1,) if lam != 0 else ())   # the orders ladder_check evaluates
        known = pcf_known(lams, xs, LADDER_RTOL)
        jobs.append(Job("ladder_check", len(grid), (lam, grid), "ladder", known))
    for degree in (16, 64, 256):
        for op in ("gamma_S", "gamma_S_inverse", "verify_implementation",
                   "fourier_project"):
            for _ in range(8):
                rho = rng.uniform(0.5, 0.95)
                coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * rho ** n
                          for n in range(degree + 1)]
                f = tf.TruncFn.from_coeffs(coeffs, degree)
                if op == "fourier_project":
                    args = (f, rng.randint(0, degree))
                else:
                    alpha = rng.uniform(0.8, 1.25) * cmath.exp(
                        1j * rng.uniform(-math.pi, math.pi))
                    beta = 0j if rng.random() < 0.125 else rng.uniform(0, 1) * cmath.exp(
                        1j * rng.uniform(-math.pi, math.pi))
                    args = (alpha, beta, f)
                jobs.append(Job(op, degree, args, f"{op}-{degree}"))

    def c():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    for kind in ("SigmaOne", "SigmaThree", "SigmaPlus", "SigmaMinus"):
        for _ in range(10):
            if kind == "SigmaOne":
                n = (c(), c(), c())
            elif kind == "SigmaThree":
                n = (c(), c(), 0j)
            elif kind == "SigmaPlus":
                n = (0j, c(), 0j)
            else:
                n3, nplus = c(), c()
                n = (n3, -n3 * n3 / nplus, nplus)
            jobs.append(Job("classify_orbit", kind, (sl2.SlVector(*n),),
                            "orbit", meta={"kind": kind}))
    return jobs


# ---------------------------------------------------------------------
# reps
# ---------------------------------------------------------------------

LEVEL_STRATA = 6
MULTIMODE_SIZES = ((2, 12), (3, 8), (3, 12), (4, 8))


def log_gram_max(kind, levels, theta=0.0, gamma=1.0):
    """Largest log of any factor the builders evaluate in floating point:
    n! for the Bargmann forms, Gamma(theta+k+1) and gamma^(2k) Gamma(...)
    for the Schroedinger family."""
    if kind in ("fock", "antifock"):
        return math.lgamma(levels + 1)
    top = math.lgamma(theta + levels + 1)
    return max(top, top + 2 * levels * math.log(gamma),
               max(2 * k * math.log(gamma) + math.lgamma(theta + k + 1)
                   for k in range(levels + 1)))


def gram_known(kind, levels, theta=0.0, gamma=1.0):
    top = _LOG_DBL_MAX - math.log(GRAM_MARGIN)
    return "gram_overflow" if log_gram_max(kind, levels, theta, gamma) >= top else None


def level_ladder(lo=8, hi=400, strata=LEVEL_STRATA):
    """One level per log-uniform stratum of [lo, hi], at its log-midpoint.
    The levels are fixed: verify_rep's cost grows as levels^3, and a draw
    of +-3% within the top stratum moved the deck's cost by +-10%."""
    width = math.log(hi / lo) / strata
    return [int(round(lo * math.exp(width * (i + 0.5)))) for i in range(strata)]


def canonical_v(kind, sign, gamma):
    if kind == "bargmann":
        return [[1, 0], [0, 1]] if sign > 0 else [[0, -1], [1, 0]]
    r, s = 1 / (gamma * math.sqrt(2)), gamma / math.sqrt(2)
    return [[r, -r], [s, s]] if sign > 0 else [[-r, -r], [s, -s]]


def _matmul2(p, q):
    return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)] for i in range(2)]


def random_state(rng, mm, m, cap, degrees):
    """A state with a few random complex monomials in each listed degree."""
    terms = {}
    for d in degrees:
        for _ in range(3):
            idx = [0] * m
            for _ in range(d):
                idx[rng.randrange(m)] += 1
            terms[tuple(idx)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return mm.MultiIndexState(terms, cap)


def _reps_jobs(rng, km):
    reps, mm = km.reps, km.multimode
    jobs = []
    for kind in ("fock", "antifock", "schroedinger"):
        for levels in level_ladder():
            if kind == "schroedinger":
                theta = -rng.uniform(0, 1)
                gamma = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
                params = {"theta": theta, "gamma": gamma, "levels": levels,
                          "sign": rng.choice((1, -1))}
                known = gram_known(kind, levels, theta, gamma)
            else:
                params = {"levels": levels}
                known = gram_known(kind, levels)
            jobs.append(Job("build_verify", levels, (kind, params),
                            f"rep-{kind}", known))
    # The median job of the deck is a Schroedinger reduction: they are the
    # largest group of similar-cost jobs, so the median stays inside it
    # (Bargmann reductions are cheaper, the builds dearer).
    for i in range(40):
        kind = "bargmann" if i < 10 else "schroedinger"
        sign = 1 if i % 2 else -1
        gamma = 1.0 if kind == "bargmann" else math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        alpha = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        s = [[alpha, 0], [beta, 1 / alpha]]
        v = _matmul2(canonical_v(kind, sign, gamma), s)
        jobs.append(Job("reduce_to_canonical", kind, (v,), "reduce",
                        meta={"kind": kind, "sign": sign, "gamma": gamma}))
    for m, cap in MULTIMODE_SIZES:
        for _ in range(2):
            eta = mm.EtaSignature(tuple(rng.choice((1, -1)) for _ in range(m)))
            degs = sorted(rng.sample(range(1, cap + 1), 3))
            f = random_state(rng, mm, m, cap, degs)
            g = random_state(rng, mm, m, cap, sorted(rng.sample(range(0, cap + 1), 4)))
            jobs.append(Job("multimode", (m, cap), (eta, cap, f, g),
                            f"mm-{m}-{cap}"))
    return jobs


# ---------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------

CLI_ROUNDS = 8   # seeded calls per verb
README_STATE = {"cap": 6, "terms": [[[1, 1], [1.0, 0.0]], [[0, 2], [0.5, -0.25]]]}

README_EXAMPLES = (
    ["normal-order", "d z"],
    ["commutator", "a* a", "a*"],
    ["classify-orbit", "--n3", "0", "--nminus", "1", "--nplus", "1"],
    ["pcf-eval", "--lam", "-0.5", "--x", "1.25"],
    ["gamma-s", "--alpha", "0.8", "--beta", "0.3", "--coeffs", "1,0,1",
     "--degree-cap", "14"],
    ["build-rep", "--kind", "schroedinger", "--theta", "-0.5", "--gamma", "2",
     "--levels", "16"],
    ["verify-rep", "--kind", "schroedinger", "--theta", "-0.5", "--gamma", "2",
     "--levels", "16"],
    ["reduce-canonical", "--v", "0.35355339,-0.35355339,1.41421356,1.41421356"],
    ["multimode-build", "--eta", "+1,-1,+1", "--degree-cap", "6"],
    ["vacuum-descent", "--eta", "+1,-1", "--degree-cap", "6", "--f", "@state.json"],
)


def _num(x):
    return repr(float(x))


def cli_options(argv):
    """(positionals, {option: value}) of a CLI call; flags map to True.
    Options are written ``--name=value`` so negative numbers parse."""
    pos, opts, i = [], {}, 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            pos.append(tok)
        elif "=" in tok:
            name, _, value = tok.partition("=")
            opts[name] = value
        elif tok == "--inverse":
            opts[tok] = True
        else:
            opts[tok] = argv[i + 1]
            i += 1
        i += 1
    return pos, opts


def _o(name, value):
    return f"{name}={value}"


def _word_text(word):
    return " ".join(word)


def _rep_argv(kind, levels, theta=0.0, gamma=1.0, sign=1):
    argv = [_o("--kind", kind), _o("--levels", levels)]
    if kind == "schroedinger":
        argv += [_o("--theta", _num(theta)), _o("--gamma", _num(gamma)), _o("--sign", sign)]
    return argv


def _cli_known(argv):
    """Known-defect class of a CLI call, from its arguments."""
    verb = argv[0]
    _, opt = cli_options(argv)
    if verb == "reduce-canonical":
        v = [float(p) for p in opt["--v"].split(",")]
        if abs(v[0] * v[3] - v[1] * v[2] - 1) > 1e-10:
            return "det_tolerance"
    if verb in ("build-rep", "verify-rep"):
        return gram_known(opt.get("--kind", "fock"), int(opt.get("--levels", 8)),
                          float(opt.get("--theta", 0)), float(opt.get("--gamma", 1)))
    return None


def _write_state(tmpdir, name, state_obj):
    path = os.path.join(tmpdir, name)
    with open(path, "w") as fh:
        json.dump(state_obj, fh)
    return path


def _state_obj(state):
    return json.loads(state.to_json())


def _cli_jobs(rng, km, tmpdir):
    mm = km.multimode
    calls = [list(a) for a in README_EXAMPLES]
    _write_state(tmpdir, "state.json", README_STATE)

    for rnd in range(CLI_ROUNDS):
        heis_word = stratified_words(rng, HEIS, rng.randint(3, 6), 1)[0]
        calls.append(["normal-order", _word_text(heis_word)])
        calls.append(["commutator", _word_text(stratified_words(rng, HOLO, 3, 1)[0]),
                      _word_text(stratified_words(rng, HOLO, 2, 1)[0])])
        calls.append(["involve", _word_text(stratified_words(rng, HOLO, 4, 1)[0]),
                      _o("--c-matrix", rng.choice(("0,1,1,0", "1,0,0,1", "0,-1,-1,0")))])
        r = 1 / math.sqrt(2)
        calls.append(["isomap", _word_text(stratified_words(rng, HEIS, 4, 1)[0]),
                      _o("--v", ",".join(_num(x) for x in (r, -r, r, r)))])
        calls.append(["classify-orbit"] + [_o(k, _num(rng.uniform(-2, 2)))
                                           for k in ("--n3", "--nminus", "--nplus")])
        cap = rng.randint(8, 16)
        coeffs = ",".join(_num(rng.uniform(-1, 1)) for _ in range(rng.randint(2, 6)))
        calls.append(["gamma-s", _o("--alpha", _num(rng.uniform(0.8, 1.25))),
                      _o("--beta", _num(rng.uniform(-1, 1))), _o("--coeffs", coeffs),
                      _o("--degree-cap", cap)] + (["--inverse"] if rng.random() < 0.5 else []))
        calls.append(["project", _o("--k", rng.randint(0, cap)), _o("--coeffs", coeffs),
                      _o("--degree-cap", cap)])
        calls.append(["pcf-eval", _o("--lam", rng.randint(0, 8)),
                      _o("--x", _num(rng.uniform(-3, 3)))])
        theta, gamma = -rng.uniform(0, 0.99), rng.uniform(0.5, 2)
        calls.append(["build-rep"] + _rep_argv("schroedinger", rng.randint(8, 24),
                                               theta, gamma, rng.choice((1, -1))))
        # verify-rep costs twice any other seeded call and grows with the
        # levels, so every deck gets the same levels: these eight calls and
        # three others are the deck's eleven dearest jobs, and the cheapest
        # of them is job_tail_ms
        calls.append(["verify-rep"] + _rep_argv(rng.choice(("fock", "antifock")),
                                                8 + 2 * rnd))
        gamma = rng.uniform(0.5, 2)
        alpha, beta = rng.uniform(0.5, 2), rng.uniform(-1, 1)
        v = _matmul2(canonical_v("schroedinger", 1, gamma), [[alpha, 0], [beta, 1 / alpha]])
        calls.append(["reduce-canonical", _o("--v", ",".join(_num(x) for row in v for x in row))])
        m, cap = rng.randint(1, 3), rng.randint(3, 6)
        eta = ",".join(rng.choice(("+1", "-1")) for _ in range(m))
        calls.append(["multimode-build", _o("--eta", eta), _o("--degree-cap", cap)])
        f = random_state(rng, mm, m, cap, sorted(rng.sample(range(1, cap + 1), 2)))
        g = random_state(rng, mm, m, cap, sorted(rng.sample(range(0, cap + 1), 3)))
        fpath = _write_state(tmpdir, f"f{rnd}.json", _state_obj(f))
        gpath = _write_state(tmpdir, f"g{rnd}.json", _state_obj(g))
        calls.append(["spectral-check", _o("--eta", eta), _o("--degree-cap", cap),
                      _o("--f", "@" + fpath), _o("--g", "@" + gpath)])
        calls.append(["vacuum-descent", _o("--eta", eta), _o("--degree-cap", cap),
                      _o("--f", "@" + fpath)])
    # Known defects, on calls that fail fast: the Fock build raises an
    # untyped OverflowError at 171 levels or more (this call as written in
    # the project's notes), and the Schroedinger Gram at gamma = 2 holds Inf
    # above 135 levels, so printing it ends in a traceback.  verify-rep on
    # that Gram fails too, but only after 0.7 s of verification, which
    # would outweigh the rest of the deck; the reps workload runs it.
    calls.append(["verify-rep", "--levels", "200"])
    calls.append(["build-rep"] + _rep_argv("schroedinger", 200, -0.5, 2.0))
    # the dense multimode representation at its largest size (dimension 495)
    calls.append(["multimode-build", _o("--eta", "+1,-1,+1,-1"), _o("--degree-cap", 8)])
    return [Job("cli", argv[0], (argv,), "readme" if i < len(README_EXAMPLES) else "seeded",
                _cli_known(argv)) for i, argv in enumerate(calls)]


# ---------------------------------------------------------------------
# execution: one public library call per job
# ---------------------------------------------------------------------

def _build_verify(km, kind, params):
    reps = km.reps
    if kind == "fock":
        rep = reps.build_fock_bargmann(params["levels"])
    elif kind == "antifock":
        rep = reps.build_antifock(params["levels"])
    else:
        rep = reps.build_schroedinger_theta(**params)
    return rep, reps.verify_rep(rep)


def _cli(km, argv):
    """``kreinccr.cli.main(argv)`` with its streams captured -> (exit code,
    stdout, stderr); an exception escaping main is printed as the
    traceback a ``kreinccr`` process would end with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = km.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _multimode(km, eta, cap, f, g):
    mm = km.multimode
    rep = mm.build_multimode_rep(eta, cap)
    return rep, mm.spectral_condition_check(rep, f, g), mm.vacuum_descent(rep, f)


# Functions are looked up through their module at call time, so a traced
# run sees the wrappers installed on the module attributes.
EXECUTORS = {
    "normal_order": lambda km, x: km.algebra.normal_order(x),
    "commutator": lambda km, x, y: km.algebra.commutator(x, y),
    "format_element": lambda km, x: km.algebra.format_element(x),
    "apply_isomorphism": lambda km, v, x: km.algebra.apply_isomorphism(v, x),
    "Involution.apply": lambda km, c, x: km.algebra.Involution(c).apply(x),
    "rho_iso": lambda km, eta, x: km.multimode.rho_iso(eta, x),
    "weber_D": lambda km, lam, x: km.pcf.weber_D(lam, x),
    "ladder_check": lambda km, lam, grid: km.pcf.ladder_check(lam, grid),
    "gamma_S": lambda km, a, b, f: km.truncfn.gamma_S(a, b, f),
    "gamma_S_inverse": lambda km, a, b, f: km.truncfn.gamma_S_inverse(a, b, f),
    "verify_implementation": lambda km, a, b, f: km.truncfn.verify_implementation(a, b, f),
    "fourier_project": lambda km, f, k: km.truncfn.fourier_project(
        km.truncfn.rotation_family, f, k),
    "classify_orbit": lambda km, n: km.sl2.classify_orbit(n),
    "build_verify": _build_verify,
    "reduce_to_canonical": lambda km, v: km.reps.reduce_to_canonical(v),
    "multimode": _multimode,
    "cli": _cli,
}

# One small call per operation kind, made during set-up.
def warmup_jobs(km):
    alg = km.algebra
    x = alg.AlgebraElement.generator(alg.HEISENBERG, "a") * \
        alg.AlgebraElement.generator(alg.HEISENBERG, "a*")
    zd = alg.AlgebraElement.generator(alg.HOLOMORPHIC, "d")
    mm1 = alg.AlgebraElement.generator(alg.multimode_set([1, -1]), "a_2")
    f = km.truncfn.TruncFn.from_coeffs([1, 0.5, 0.25], 4)
    eta = km.multimode.EtaSignature((1, -1))
    state = km.multimode.MultiIndexState({(1,): 1.0}, 2)
    return {
        "algebra": [
            ("normal_order", (x,)), ("commutator", (x, x)), ("format_element", (x,)),
            ("apply_isomorphism", ([[1, 0], [0, 1]], x)),
            ("Involution.apply", ([[0, 1], [1, 0]], zd)), ("rho_iso", (eta, mm1))],
        "specfun": [
            ("weber_D", (0.5, 1.0)), ("ladder_check", (0.5, [0.5])),
            ("gamma_S", (1.0, 0.5, f)), ("gamma_S_inverse", (1.0, 0.5, f)),
            ("verify_implementation", (1.0, 0.5, f)), ("fourier_project", (f, 1)),
            ("classify_orbit", (km.sl2.SlVector(1, 1, 1),))],
        "reps": [
            ("build_verify", ("fock", {"levels": 4})),
            ("build_verify", ("antifock", {"levels": 4})),
            ("build_verify", ("schroedinger", {"theta": -0.5, "gamma": 1.0, "levels": 4})),
            ("reduce_to_canonical", ([[1, 0], [0, 1]],)),
            ("multimode", (eta, 2, state, state))],
        "cli": [("cli", (argv,)) for argv in CLI_WARMUP],
    }


_TINY_STATE = '{"cap": 2, "terms": [[[1], [1.0, 0.0]]]}'
CLI_WARMUP = (
    ["normal-order", "a"], ["commutator", "a", "a*"],
    ["involve", "z", "--c-matrix=0,1,1,0"], ["isomap", "a", "--v=1,0,0,1"],
    ["classify-orbit", "--n3=1", "--nminus=1", "--nplus=1"],
    ["gamma-s", "--alpha=1", "--beta=0.5", "--coeffs=1,1"],
    ["project", "--k=1", "--coeffs=1,1"], ["pcf-eval", "--lam=0.5", "--x=1"],
    ["build-rep", "--levels=4"], ["verify-rep", "--levels=4"],
    ["reduce-canonical", "--v=1,0,0,1"],
    ["multimode-build", "--eta=1,-1", "--degree-cap=2"],
    ["spectral-check", "--eta=1", "--degree-cap=2", f"--f={_TINY_STATE}", f"--g={_TINY_STATE}"],
    ["vacuum-descent", "--eta=1", "--degree-cap=2", f"--f={_TINY_STATE}"],
)
