"""Acceptance battery: one test per criterion, one pass line each.

Each test prints "PASS criterion N: ..." when its assertions hold; run
with ``pytest -v`` (or ``-s`` to see the lines on success).
"""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from kreinccr.algebra import (HEISENBERG, HOLOMORPHIC, AlgebraElement,
                              commutator, normal_order)
from kreinccr.cli import main as cli_main
from kreinccr.exact import I as EXACT_I
from kreinccr.exact import INV_SQRT2, ONE, ExactScalar
from kreinccr.multimode import (EtaSignature, MultiIndexState,
                                build_multimode_rep, spectral_condition_check,
                                vacuum_descent)
from kreinccr.pcf import hermite_closed_form, ladder_check, weber_D, weber_ode_residual
from kreinccr.reps import (build_antifock, build_fock_bargmann,
                           build_schroedinger_theta, detect_null_subrep,
                           gauge_unitary, krein_adjoint, reduce_to_canonical,
                           verify_rep)
from kreinccr.sl2 import (IDENTITY2, SIGMA1, OrbitKind, SlVector,
                          adjoint_action, classify_orbit, conjugation_from_V,
                          is_bogoliubov, s_lower)
from kreinccr.truncfn import (TruncFn, annihilator_beta_minus, apply_dz,
                              apply_z, gamma_S, seminorm, verify_implementation)

SQRT2 = math.sqrt(2.0)
THETAS = (0.0, -0.25, -0.5, -0.99)
GAMMAS = (0.5, 1.0, 2.0)


def canonical_matrix(kind, sign, gamma=1.0):
    if kind == "bargmann":
        return (np.eye(2, dtype=complex) if sign > 0
                else np.array([[0, -1], [1, 0]], dtype=complex))
    r = 1 / (gamma * SQRT2)
    s = gamma / SQRT2
    return (np.array([[r, -r], [s, s]], dtype=complex) if sign > 0
            else np.array([[-r, -r], [s, -s]], dtype=complex))


# -- criterion 1 -------------------------------------------------------

def _act_word(word, vec, cap):
    for sym in reversed(word):
        out = {}
        for n, c in vec.items():
            if sym == "z":
                if n + 1 <= cap:
                    out[n + 1] = out.get(n + 1, 0) + c
            elif n >= 1:
                out[n - 1] = out.get(n - 1, 0) + n * c
        vec = out
    return {n: c for n, c in vec.items() if c != 0}


def _act_element(x, vec, cap):
    total = {}
    for word, coeff in x.terms.items():
        for n, c in _act_word(word, vec, cap).items():
            total[n] = total.get(n, ExactScalar()) + coeff * c
    return {n: c for n, c in total.items() if not c.is_zero()}


def test_criterion_01_normal_ordering_oracle():
    rng = random.Random(101)
    cap = 12
    for _ in range(500):
        word = tuple(rng.choice("zd") for _ in range(rng.randint(1, 6)))
        no = normal_order(AlgebraElement(HOLOMORPHIC, {word: ONE}))
        n0 = rng.randint(0, cap - len(word))
        vec = {n0: Fraction(1)}
        direct = {n: ExactScalar(c) for n, c in _act_word(word, vec, cap).items()}
        assert _act_element(no, vec, cap) == direct
    print("PASS criterion 1: 500 normal orderings act identically on "
          "monomials (exact rational arithmetic, degree cap 12)")


# -- criterion 2 -------------------------------------------------------

def test_criterion_02_conjugation_formula():
    assert np.array_equal(conjugation_from_V(IDENTITY2), SIGMA1)
    r = INV_SQRT2
    c = conjugation_from_V([[r, -r], [r, r]])
    assert c[0][0] == 1 and c[1][1] == ExactScalar(-1)
    assert c[0][1].is_zero() and c[1][0].is_zero()

    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        while True:
            a, b, cc = (rng.standard_normal() + 1j * rng.standard_normal()
                        for _ in range(3))
            if abs(a) > 0.2:
                break
        v = np.array([[a, b], [cc, (1 + b * cc) / a]])
        m = conjugation_from_V(v)
        worst = max(worst, float(np.max(np.abs(np.conj(m) @ m - IDENTITY2))))
    assert worst < 1e-10
    print(f"PASS criterion 2: conjugation matrices exact on canonical V, "
          f"conj(C) C = 1 residual {worst:.2e} < 1e-10 over 100 random V")


# -- criterion 3 -------------------------------------------------------

def _exact_bogoliubov_sigma1(rng):
    u = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    r = (u + 1 / u) / 2
    s = (u - 1 / u) / 2
    phase_p = rng.choice([ONE, EXACT_I, -ONE, -EXACT_I])
    phase_q = rng.choice([ONE, EXACT_I, -ONE, -EXACT_I])
    p = phase_p * ExactScalar(r)
    q = phase_q * ExactScalar(s)
    return [[p, q], [q.conjugate(), p.conjugate()]], SIGMA1


def _exact_bogoliubov_sigma3(rng):
    p = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    qp = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    rp = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    # det = p s - (i q')(i r') = p s + q' r' must equal 1
    s = (1 - qp * rp) / p
    t = [[ExactScalar(p), EXACT_I * ExactScalar(qp)],
         [EXACT_I * ExactScalar(rp), ExactScalar(s)]]
    sigma3 = np.diag([1.0, -1.0]).astype(complex)
    return t, sigma3


def test_criterion_03_bogoliubov_preserves_ccr():
    rng = random.Random(103)
    a = AlgebraElement.generator(HEISENBERG, "a")
    astar = AlgebraElement.generator(HEISENBERG, "a*")
    for trial in range(100):
        t, c = (_exact_bogoliubov_sigma1(rng) if trial % 2 == 0
                else _exact_bogoliubov_sigma3(rng))
        tn = np.array([[complex(t[i][j]) for j in range(2)] for i in range(2)])
        assert is_bogoliubov(tn, c)
        a_new = t[0][0] * a + t[0][1] * astar
        astar_new = t[1][0] * a + t[1][1] * astar
        assert commutator(a_new, astar_new) == 1  # symbolic, exact
    print("PASS criterion 3: 100 exact Bogoliubov transforms keep "
          "[a', a*'] = 1 symbolically")


# -- criterion 4 -------------------------------------------------------

def test_criterion_04_gamma_s_implements():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        alpha = (0.1 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
        beta = rng.random() * np.exp(2j * np.pi * rng.random())
        deg = int(rng.integers(0, 5))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = TruncFn.from_coeffs(coeffs, deg + 10)
        worst = max(worst, verify_implementation(alpha, beta, f))
    assert worst < 1e-9

    group_worst = 0.0
    for _ in range(100):
        a1, a2 = 0.2 + 0.8 * rng.random(2)
        b1, b2 = 0.5 * rng.standard_normal(2)
        f = TruncFn.from_coeffs(rng.standard_normal(3), 20)
        lhs = gamma_S(a1, b1, gamma_S(a2, b2, f))
        rhs = gamma_S(a2 * a1, b2 * a1 + b1 / a2, f)
        group_worst = max(group_worst,
                          float(np.max(np.abs((lhs - rhs).coeffs[:15]))))
    assert group_worst < 1e-8
    print(f"PASS criterion 4: implementation residual {worst:.2e} < 1e-9, "
          f"group law residual {group_worst:.2e} < 1e-8")


# -- criterion 5 -------------------------------------------------------

def test_criterion_05_annihilator_witness():
    worst = 0.0
    for s in (1, -1, 1j):
        g = annihilator_beta_minus(s, 30)
        resid = apply_z(g) + s * apply_dz(g)
        worst = max(worst, seminorm(resid, 1.0))
    assert worst < 1e-12
    print(f"PASS criterion 5: (z + s d/dz) annihilator residual {worst:.2e} "
          f"< 1e-12 at degree cap 30 for s in {{1, -1, i}}")


# -- criterion 6 -------------------------------------------------------

def test_criterion_06_orbit_classifier():
    for kind, vec in ((OrbitKind.SIGMA_PLUS, SlVector(0, 1, 0)),
                      (OrbitKind.SIGMA_THREE, SlVector(1, 0, 0)),
                      (OrbitKind.SIGMA_ONE, SlVector(0, 1, 1)),
                      (OrbitKind.SIGMA_MINUS, SlVector(0, 0, 1))):
        res = classify_orbit(vec)
        assert res.kind is kind and res.a == 0 and res.b == 0 and res.scale == 1

    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        n = SlVector(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        base = classify_orbit(n)
        a = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        b = rng.standard_normal() + 1j * rng.standard_normal()
        assert classify_orbit(adjoint_action(a, b, n)).kind is base.kind
        back = base.reproduce()
        worst = max(worst, max(abs(back.n3 - n.n3), abs(back.nminus - n.nminus),
                               abs(back.nplus - n.nplus)) / max(1.0, n.norm()))
    assert worst < 1e-8
    print(f"PASS criterion 6: classification stable under 1000 adjoint moves, "
          f"witness round-trip residual {worst:.2e} < 1e-8")


# -- criterion 7 -------------------------------------------------------

def test_criterion_07_ladders_ode_hermite():
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    worst_ladder = 0.0
    worst_ode = 0.0
    for lam in (-0.9, -0.5, -0.1, 0.0, 0.3, 1.0, 2.7):
        up, down = ladder_check(lam, grid)
        worst_ladder = max(worst_ladder, up, down)
        worst_ode = max(worst_ode, max(weber_ode_residual(lam, x) for x in grid))
    assert worst_ladder < 1e-7
    assert worst_ode < 1e-7

    worst_h = 0.0
    for n in range(9):
        for x in grid:
            got = weber_D(float(n), x).value
            want = hermite_closed_form(n, x)
            worst_h = max(worst_h, abs(got - want) / max(1.0, abs(want)))
    assert worst_h < 1e-9
    print(f"PASS criterion 7: ladder residual {worst_ladder:.2e} < 1e-7, "
          f"ODE residual {worst_ode:.2e} < 1e-7, Hermite error {worst_h:.2e} < 1e-9")


# -- criterion 8 -------------------------------------------------------

def test_criterion_08_gram_identities():
    worst_star = 0.0
    worst_rec = 0.0
    for th in THETAS:
        for gm in GAMMAS:
            rep = build_schroedinger_theta(th, gm, 16)
            basis = np.eye(rep.size)
            for m in range(1, rep.size):
                n = m - 1
                want = gm ** (2 * n + 1) * float(gamma_fn(th + m + 1))
                lhs = rep.inner(basis[n], rep.a_mat @ basis[m])
                rhs = rep.inner(rep.adag_mat @ basis[n], basis[m])
                scale = max(1.0, abs(want))
                worst_star = max(worst_star, abs(lhs - want) / scale,
                                 abs(rhs - want) / scale)
            g = rep.gram_diag
            for k in range(1, rep.size):
                pred = gm ** 2 * (th + k) * g[k - 1]
                worst_rec = max(worst_rec, abs(g[k] - pred) / max(1.0, abs(g[k])))
    assert worst_star < 1e-10
    assert worst_rec < 1e-12
    print(f"PASS criterion 8: *-property matrix elements {worst_star:.2e} "
          f"< 1e-10, Gram recursion {worst_rec:.2e} < 1e-12 "
          f"(theta x gamma grid, N = 16)")


# -- criterion 9 -------------------------------------------------------

def _all_reps():
    reps = [build_fock_bargmann(12), build_antifock(12)]
    for th in THETAS:
        for gm in GAMMAS:
            for sg in (+1, -1):
                reps.append(build_schroedinger_theta(th, gm, 16, sign=sg))
    return reps


def _sampled_gauge_residuals(rep, rng, samples=100):
    """The reference: simulate U(s) = exp(isN) at random s on random vectors."""
    n = rep.size
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = rep.inner(f, g)
    iso = cov = 0.0
    for s in rng.uniform(0, 2 * np.pi, size=samples):
        u = gauge_unitary(rep, s)
        iso = max(iso, abs(rep.inner(u @ f, u @ g) - base) / max(1.0, abs(base)))
        resid = u @ rep.a_mat - np.exp(-1j * s) * rep.a_mat @ u
        cov = max(cov, float(np.max(np.abs(resid))))
    return iso, cov


def test_criterion_09_gauge_isometry_covariance():
    rng = np.random.default_rng(109)
    worst_iso = 0.0
    worst_cov = 0.0
    for rep in _all_reps():
        # the band structure is the exact statement of covariance:
        # every nonzero entry of pi(a) lowers the gauge eigenvalue by 1
        rows, cols = np.nonzero(rep.a_mat)
        assert np.max(np.abs(rep.gauge_diag[rows] - rep.gauge_diag[cols] + 1)) < 1e-12
        iso, cov = _sampled_gauge_residuals(rep, rng)
        worst_iso = max(worst_iso, iso)
        worst_cov = max(worst_cov, cov)
    assert worst_iso < 1e-10
    assert worst_cov < 1e-10
    print(f"PASS criterion 9: Krein isometry residual {worst_iso:.2e} < 1e-10, "
          f"covariance residual {worst_cov:.2e} (band structure exact) over "
          f"100 gauge samples per representation")


def test_criterion_09_generator_residuals_match_the_sampled_reference():
    # verify_rep reads the gauge residuals off the generator; each must be
    # zero to rounding exactly when the simulated U(s) one is
    rng = np.random.default_rng(9)
    fock = build_fock_bargmann(12)
    a = fock.a_mat.copy()
    a[2, 5] += 0.25 - 0.5j
    gauge = fock.gauge_diag.copy()
    gauge[-1] += 0.5j
    broken = [dataclasses.replace(fock, a_mat=a), dataclasses.replace(fock, gauge_diag=gauge)]
    zero = 1e-10
    for rep in _all_reps() + broken:
        report = verify_rep(rep)
        iso, cov = _sampled_gauge_residuals(rep, rng)
        assert (report["gauge_isometry_max_residual"] < zero) == (iso < zero), rep.label
        assert (report["gauge_covariance_max_residual"] < zero) == (cov < zero), rep.label
    assert verify_rep(broken[0])["gauge_covariance_max_residual"] > 0.1
    assert verify_rep(broken[1])["gauge_isometry_max_residual"] > 0.1
    print(f"PASS criterion 9: generator residuals vanish exactly where the sampled "
          f"ones do, on {len(_all_reps())} representations and 2 broken gauges")


# -- criterion 10 ------------------------------------------------------

def test_criterion_10_null_forcing():
    diag = detect_null_subrep(0.0, -1, 8)
    assert diag.has_null
    assert diag.forced_zero_levels == list(range(0, 9))
    assert np.all(diag.gram[diag.levels >= 0] == 0)  # exact propagation

    ok = detect_null_subrep(-0.5, -1, 8)
    assert not ok.has_null and np.all(ok.gram != 0)
    print("PASS criterion 10: theta = 0 window reaching level -1 forces "
          "g_n = 0 for all n >= 0 exactly; theta = -1/2 does not")


# -- criterion 11 ------------------------------------------------------

def test_criterion_11_canonical_reduction():
    rng = np.random.default_rng(111)
    for trial in range(50):
        alpha = (0.3 + rng.random()) * np.exp(2j * np.pi * rng.random())
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        s0 = s_lower(alpha, beta)
        kind = "bargmann" if trial % 5 == 0 else "schroedinger"
        sign = +1 if trial % 2 == 0 else -1
        gamma = float(rng.choice(GAMMAS))
        rho = np.diag([1 / gamma, gamma]).astype(complex)
        v = rho @ canonical_matrix(kind, sign) @ s0
        form = reduce_to_canonical(v)
        assert form.kind == kind
        assert form.sign == sign
        if kind == "schroedinger":
            assert abs(form.gamma - gamma) < 1e-8 * gamma
        can = canonical_matrix(kind, sign, form.gamma)
        back = can @ form.s_matrix
        assert min(np.max(np.abs(back - v)), np.max(np.abs(back + v))) < 1e-8
    print("PASS criterion 11: 50 random compositions reduced; type, sign "
          "recovered, gamma to relative 1e-8")


# -- criterion 12 ------------------------------------------------------

def test_criterion_12_multimode_suite():
    eta = EtaSignature((1, -1, 1))
    rep = build_multimode_rep(eta, 6)
    stable = np.diag((rep.gauge_diag <= 5).astype(float))
    for i in range(3):
        for j in range(3):
            comm = rep.a_mats[i] @ rep.adag_mats[j] - rep.adag_mats[j] @ rep.a_mats[i]
            want = (eta[i + 1] if i == j else 0.0) * np.eye(rep.size)
            assert np.max(np.abs(stable @ (comm - want) @ stable)) == 0
        ka = krein_adjoint(rep.a_mats[i], rep)
        assert np.max(np.abs(stable @ (ka - rep.adag_mats[i]) @ stable)) == 0
    assert sorted({int(x.real) for x in rep.gauge_diag}) == list(range(7))

    rng = np.random.default_rng(112)

    def rand_state():
        terms = {}
        for _ in range(4):
            idx = tuple(rng.integers(0, 3, size=3))
            if sum(idx) <= 6:
                terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
        return MultiIndexState(terms, cap=6)

    pairs = 0
    while pairs < 100:
        f, g = rand_state(), rand_state()
        if f.is_zero() or g.is_zero():
            continue
        support = spectral_condition_check(rep, f, g)
        assert all(k >= 0 for k in support)
        pairs += 1

    descents = 0
    while descents < 100:
        f = rand_state()
        if f.is_zero():
            continue
        out = vacuum_descent(rep, f)
        assert not out.is_zero() and set(out.terms) == {()}
        descents += 1
    print("PASS criterion 12: M = 3, eta = (+1, -1, +1), D = 6 — CCR and "
          "*-property exact, gauge spectrum {0..6}, 100 spectral supports "
          "nonnegative, 100 descents land on the constant ray")


# -- criterion 13 ------------------------------------------------------

def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_criterion_13_cli_pipeline(capsys):
    # criteria 8 + 9 through build-rep / verify-rep
    for th in THETAS:
        for gm in GAMMAS:
            argv = ("verify-rep", "--kind", "schroedinger", "--theta", str(th),
                    "--gamma", str(gm), "--levels", "16")
            code, out1, _ = _run_cli(capsys, *argv)
            assert code == 0
            code, out2, _ = _run_cli(capsys, *argv)
            assert out1 == out2  # byte stability
            doc = json.loads(out1)
            assert doc["star_property_max_residual"] < 1e-10
            assert doc["gram_recursion_max_residual"] < 1e-12
            assert doc["gauge_isometry_max_residual"] < 1e-10
            assert doc["gauge_covariance_max_residual"] < 1e-10

    # build-rep output itself is byte-stable and round-trips into verify-rep
    code, rep1, _ = _run_cli(capsys, "build-rep", "--kind", "schroedinger",
                             "--theta", "-0.5", "--gamma", "2", "--levels", "16")
    assert code == 0
    code, rep2, _ = _run_cli(capsys, "build-rep", "--kind", "schroedinger",
                             "--theta", "-0.5", "--gamma", "2", "--levels", "16")
    assert rep1 == rep2
    code, out, _ = _run_cli(capsys, "verify-rep", "--rep", rep1.strip())
    assert code == 0 and json.loads(out)["ccr_max_residual"] < 1e-10

    # criterion 10 through the builder guard
    code, out, err = _run_cli(capsys, "build-rep", "--kind", "schroedinger",
                              "--theta", "0", "--min-level", "-1", "--levels", "8")
    assert code == 1 and json.loads(err)["code"] == "NullSubrepresentation"
    code, _, _ = _run_cli(capsys, "build-rep", "--kind", "schroedinger",
                          "--theta", "-0.5", "--min-level", "-1", "--levels", "8")
    assert code == 0

    # criterion 11 through reduce-canonical
    v = canonical_matrix("schroedinger", -1, 2.0) @ s_lower(0.7, -0.4)
    entries = ",".join(f"{v[i][j].real:.17g}" for i in range(2) for j in range(2))
    argv = ("reduce-canonical", f"--v={entries}")
    code, out1, _ = _run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = _run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "schroedinger" and doc["sign"] == -1
    assert abs(doc["gamma"] - 2.0) < 1e-8
    print("PASS criterion 13: build-rep / verify-rep / reduce-canonical "
          "reproduce criteria 8-11 with byte-stable JSON")
