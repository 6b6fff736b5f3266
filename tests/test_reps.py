"""Representation builders, verification, null diagnosis, reduction.

Oracle: all defining identities are checked by direct matrix arithmetic
against closed-form Gram values (factorials / Gamma), independent of the
builder internals.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from kreinccr.exceptions import (DomainError, NotRegularizable, NotUnimodular,
                                 NullSubrepresentation)
from kreinccr.reps import (BasisRep, build_antifock, build_fock_bargmann,
                           build_schroedinger_theta, detect_null_subrep,
                           gauge_unitary, krein_adjoint, krein_decomposition,
                           reduce_to_canonical, scaling_intertwiner,
                           verify_rep)
from kreinccr.sl2 import s_lower

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


def all_reps():
    reps = [build_fock_bargmann(12), build_antifock(12)]
    for th in THETAS:
        for gm in GAMMAS:
            for sg in (+1, -1):
                reps.append(build_schroedinger_theta(th, gm, 16, sign=sg))
    reps.append(build_schroedinger_theta(-0.5, 1.0, 10, min_level=-4))
    return reps


def test_fock_gram_and_ladders():
    rep = build_fock_bargmann(8)
    for n in range(9):
        assert rep.gram_diag[n] == math.factorial(n)
    for m in range(1, 9):
        assert rep.a_mat[m - 1, m] == m
        assert rep.adag_mat[m, m - 1] == 1


def test_antifock_gram_alternates():
    rep = build_antifock(8)
    for n in range(9):
        assert rep.gram_diag[n] == (-1) ** n * math.factorial(n)
    dec = krein_decomposition(rep)
    assert np.array_equal(dec.signature ** 2, np.ones(9))
    assert np.array_equal(dec.signature * dec.weights, rep.gram_diag)


def test_schroedinger_gram_closed_form():
    check_schroedinger_gram(16)


def test_schroedinger_gram_closed_form_deep_ladder():
    # the running product must track Gamma well past the first few levels
    check_schroedinger_gram(120)


def check_schroedinger_gram(levels):
    for th in THETAS:
        for gm in GAMMAS:
            rep = build_schroedinger_theta(th, gm, levels)
            for n in range(levels + 1):
                want = gm ** (2 * n) * float(gamma_fn(th + n + 1))
                assert abs(rep.gram_diag[n] - want) < 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("levels", [8, 160])
def test_fock_and_antifock_are_the_theta_zero_ladder(levels):
    for build, sign in ((build_fock_bargmann, +1), (build_antifock, -1)):
        rep = build(levels)
        ladder = build_schroedinger_theta(0.0, 1.0, levels, sign=sign)
        for name in ("a_mat", "adag_mat", "gauge_diag", "gram_diag"):
            assert np.array_equal(getattr(rep, name), getattr(ladder, name)), name


@pytest.mark.parametrize("build, args, level", [
    (build_fock_bargmann, (171,), 171),
    (build_antifock, (400,), 171),
    (build_schroedinger_theta, (-0.5, 2.0, 200), 135),
    (build_schroedinger_theta, (-0.5, 2.0, 200, -1), 135),
    (build_schroedinger_theta, (-0.5, 1e-200, 4), 1),
    (build_schroedinger_theta, (-0.5, 1e200, 4), 1),
])
def test_gram_outside_the_doubles_is_a_domain_error(build, args, level):
    with pytest.raises(DomainError) as info:
        build(*args)
    assert info.value.payload == {"level": level}
    assert f"level {level}" in str(info.value)


def test_all_reps_verify():
    for rep in all_reps():
        res = verify_rep(rep)
        assert res["ccr_max_residual"] < 1e-10, rep.label
        assert res["star_property_max_residual"] < 1e-10, rep.label
        assert res["gram_recursion_max_residual"] < 1e-12, rep.label
        assert res["gauge_isometry_max_residual"] < 1e-10, rep.label
        assert res["gauge_covariance_max_residual"] < 1e-10, rep.label


def test_star_property_matrix_elements():
    # <e_n, pi(a) e_m> = delta_{n, m-1} gamma^{2n+1} Gamma(theta+m+1)
    for th in THETAS:
        for gm in GAMMAS:
            rep = build_schroedinger_theta(th, gm, 16)
            n_dim = rep.size
            basis = np.eye(n_dim)
            for m in range(1, n_dim):
                n = m - 1
                want = gm ** (2 * n + 1) * float(gamma_fn(th + m + 1))
                lhs = rep.inner(basis[n], rep.a_mat @ basis[m])
                rhs = rep.inner(rep.adag_mat @ basis[n], basis[m])
                assert abs(lhs - want) < 1e-10 * max(1.0, abs(want))
                assert abs(rhs - want) < 1e-10 * max(1.0, abs(want))


def test_krein_adjoint_is_an_involution():
    rng = np.random.default_rng(0)
    rep = build_schroedinger_theta(-0.25, 2.0, 10)
    m = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    assert np.max(np.abs(krein_adjoint(krein_adjoint(m, rep), rep) - m)) < 1e-10


def test_gauge_unitary_is_group():
    rep = build_fock_bargmann(6)
    u1 = gauge_unitary(rep, 0.3)
    u2 = gauge_unitary(rep, 1.1)
    assert np.max(np.abs(u1 @ u2 - gauge_unitary(rep, 1.4))) < 1e-12


def test_verify_rep_detects_broken_gauge_covariance_and_isometry():
    rep = build_fock_bargmann(10)
    base = verify_rep(rep)
    assert base["gauge_covariance_max_residual"] == 0
    assert base["gauge_isometry_max_residual"] == 0

    # an entry of pi(a) that lowers the gauge eigenvalue by 3, not by 1:
    # ([N, pi(a)] + pi(a))_25 = (2 - 5 + 1) entry
    entry = 0.25 - 0.5j
    a = rep.a_mat.copy()
    a[2, 5] += entry
    report = verify_rep(dataclasses.replace(rep, a_mat=a))
    assert report["gauge_covariance_max_residual"] == pytest.approx(2 * abs(entry), rel=1e-15)

    # a non-real gauge eigenvalue makes U(s) stretch that basis vector:
    # N^[*] - N = -2i Im N
    gauge = rep.gauge_diag.copy()
    gauge[-1] += 0.5j
    report = verify_rep(dataclasses.replace(rep, gauge_diag=gauge))
    assert report["gauge_isometry_max_residual"] == 1.0


def test_verify_rep_reads_the_star_property_on_the_support_of_either_side():
    # pi(a)^T is zero at (3, 6), so only pi(a*) has an entry there; the
    # Krein adjoint of pi(a) is zero at (3, 6) and the residual is the entry
    rep = build_fock_bargmann(10)
    assert rep.a_mat.T[3, 6] == 0 and rep.adag_mat[3, 6] == 0
    entry = 0.75 + 1j
    ad = rep.adag_mat.copy()
    ad[3, 6] += entry
    report = verify_rep(dataclasses.replace(rep, adag_mat=ad))
    # the other identity, pi(a*)^[*] = pi(a), sees it at (6, 3) scaled by g_3 / g_6
    assert report["star_property_max_residual"] == pytest.approx(abs(entry), rel=1e-15)
    assert verify_rep(rep)["star_property_max_residual"] < 1e-12


def test_scaling_intertwiner():
    th = -0.25
    r1 = build_schroedinger_theta(th, 0.5, 12)
    r2 = build_schroedinger_theta(th, 2.0, 12)
    w = scaling_intertwiner(th, 0.5, 2.0, 12)
    assert np.max(np.abs(w @ r1.a_mat @ np.linalg.inv(w) - r2.a_mat)) < 1e-10
    rng = np.random.default_rng(1)
    f = rng.standard_normal(13)
    g = rng.standard_normal(13)
    assert abs(r2.inner(w @ f, w @ g) - r1.inner(f, g)) < 1e-8 * abs(r1.inner(f, g))


def test_domain_errors():
    with pytest.raises(DomainError):
        build_schroedinger_theta(0.5, 1.0, 8)
    with pytest.raises(DomainError):
        build_schroedinger_theta(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        build_schroedinger_theta(-0.5, -1.0, 8)


def test_null_subrep_forcing():
    diag = detect_null_subrep(0.0, -2, 4)
    assert diag.has_null
    assert diag.forced_zero_levels == [0, 1, 2, 3, 4]
    assert np.all(diag.gram[diag.levels >= 0] == 0)
    assert any("zero ladder factor" in line for line in diag.chain)

    ok = detect_null_subrep(-0.5, -2, 4)
    assert not ok.has_null
    assert np.all(ok.gram != 0)

    with pytest.raises(NullSubrepresentation):
        build_schroedinger_theta(0.0, 1.0, 6, min_level=-2)
    # theta = -1/2 admits the two-sided window
    rep = build_schroedinger_theta(-0.5, 1.0, 6, min_level=-2)
    assert rep.min_level == -2


def walked_null_subrep(theta, min_level, max_level, gamma=1.0):
    """Reference: the level-by-level walk that detect_null_subrep replaced."""
    ks = np.arange(min_level, max_level + 1)
    gram = np.empty(len(ks))
    gram[0] = 1.0
    chain = [f"g({min_level}) := 1 (free normalization)"]
    forced = []
    for i in range(1, len(ks)):
        k = ks[i]
        factor = gamma ** 2 * (theta + k)
        gram[i] = factor * gram[i - 1]
        if gram[i - 1] == 0 or factor == 0:
            forced.append(int(k))
            why = "zero ladder factor" if factor == 0 else "propagated zero"
            chain.append(f"g({k}) = gamma^2 (theta + {k}) g({k - 1}) = 0  [{why}]")
        else:
            chain.append(f"g({k}) = gamma^2 (theta + {k}) g({k - 1}) = {gram[i]:.6g}")
    return forced, ks, gram, chain


def test_null_subrep_closed_form_matches_the_walk():
    grid = itertools.product((0, -0.25, -0.5, -0.99, 0.5, 1, 2, -3), range(-6, 3),
                             range(9), (0.5, 1.0, 2.0, 3.7))
    for theta, lo, width, gamma in grid:
        forced, ks, gram, chain = walked_null_subrep(theta, lo, lo + width, gamma)
        diag = detect_null_subrep(theta, lo, lo + width, gamma)
        case = (theta, lo, width, gamma)
        assert diag.has_null == bool(forced), case
        assert diag.forced_zero_levels == forced, case
        assert np.array_equal(diag.levels, ks), case
        assert np.array_equal(diag.gram, gram), case
        assert diag.chain == chain, case
        assert diag.theta == theta


def test_null_forcing_is_read_off_theta_not_off_the_running_product():
    # gamma^2 underflows to 0, so the walk sees a zero factor at every level
    assert walked_null_subrep(-0.5, -1, 3, 1e-200)[0] == [0, 1, 2, 3]
    diag = detect_null_subrep(-0.5, -1, 3, 1e-200)
    assert not diag.has_null and diag.forced_zero_levels == []
    # the product overflows below level 0 and is NaN from the zero factor
    # on, so the walk stops propagating the zero
    with np.errstate(all="ignore"):
        assert walked_null_subrep(0.0, -3, 2, 1e154)[0] == [0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = detect_null_subrep(0.0, -3, 2, 1e154)
    assert diag.forced_zero_levels == [0, 1, 2]
    assert np.array_equal(diag.gram[diag.levels >= 0], np.zeros(3))
    assert diag.chain[-1] == "g(2) = gamma^2 (theta + 2) g(1) = 0  [propagated zero]"
    # the build then fails on its Gram, silently, at the level nearest zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            build_schroedinger_theta(-0.5, 1e-200, 4, min_level=-1)
    assert info.value.payload == {"level": -1}


def test_negative_window_gram_recursion():
    rep = build_schroedinger_theta(-0.5, 1.0, 8, min_level=-4)
    g = rep.gram_diag
    ks = rep.levels()
    for i in range(1, rep.size):
        assert abs(g[i] - (0.0 + (ks[i] + rep.params["theta"])) * g[i - 1]) < 1e-10


def test_json_round_trip():
    for rep in (build_fock_bargmann(6), build_antifock(5),
                build_schroedinger_theta(-0.25, 2.0, 7, sign=-1)):
        back = BasisRep.from_json(rep.to_json())
        assert np.max(np.abs(back.a_mat - rep.a_mat)) == 0
        assert np.max(np.abs(back.adag_mat - rep.adag_mat)) == 0
        assert np.array_equal(back.gram_diag, rep.gram_diag)
        assert np.array_equal(back.gauge_diag, rep.gauge_diag)
        assert back.min_level == rep.min_level
        assert rep.to_json() == back.to_json()


# -- canonical reduction ----------------------------------------------

def random_triangular(rng, complex_ok=True):
    alpha = 0.3 + rng.random()
    beta = rng.standard_normal()
    if complex_ok:
        alpha = alpha * np.exp(2j * np.pi * rng.random())
        beta = beta + 1j * rng.standard_normal()
    return s_lower(alpha, beta)


def test_reduce_canonical_identity_cases():
    form = reduce_to_canonical(np.eye(2))
    assert form.kind == "bargmann" and form.sign == 1
    form = reduce_to_canonical(canonical_matrix("bargmann", -1))
    assert form.kind == "bargmann" and form.sign == -1
    for sg in (+1, -1):
        for gm in GAMMAS:
            form = reduce_to_canonical(canonical_matrix("schroedinger", sg, gm))
            assert form.kind == "schroedinger"
            assert form.sign == sg
            assert abs(form.gamma - gm) < 1e-8 * gm


def test_reduce_canonical_round_trips():
    rng = np.random.default_rng(4)
    for trial in range(60):
        s0 = random_triangular(rng)
        kind = "bargmann" if trial % 3 == 0 else "schroedinger"
        sign = +1 if trial % 2 == 0 else -1
        gamma = float(rng.choice(GAMMAS))
        v = canonical_matrix(kind, sign, gamma) @ s0
        form = reduce_to_canonical(v)
        assert form.kind == kind
        assert form.sign == sign
        if kind == "schroedinger":
            assert abs(form.gamma - gamma) < 1e-8 * gamma
        # reconstruction: V = V_can(gamma) S with S triangular
        can = canonical_matrix(kind, sign, form.gamma)
        back = can @ form.s_matrix
        err = min(np.max(np.abs(back - v)), np.max(np.abs(back + v)))
        assert err < 1e-8
        assert abs(form.s_matrix[0, 1]) < 1e-8


def test_reduce_canonical_theta_consistency():
    # generator a* a + mu maps to sign (N_S + theta) with the matching mu
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = -rng.random() * 0.9
        for sign in (+1, -1):
            mu = -theta if sign > 0 else 1 + theta
            gamma = float(rng.choice(GAMMAS))
            v = canonical_matrix("schroedinger", sign, gamma) @ random_triangular(rng, False)
            form = reduce_to_canonical(v, mu=mu)
            assert abs(form.theta - theta) < 1e-8


def test_reduce_canonical_rejects_non_unimodular():
    # for unimodular V the image of a* a always has orbit invariant q = 1,
    # so only the determinant check can fire on well-formed input
    with pytest.raises(NotUnimodular):
        reduce_to_canonical([[2, 0], [0, 1]])


def test_reduce_canonical_non_real_ratio_is_not_regularizable():
    # unimodular, but t/q = -i is not -sign gamma^2 for a real gamma
    with pytest.raises(NotRegularizable):
        reduce_to_canonical([[1, 1j], [0, 1]])


@pytest.mark.parametrize("alpha_abs", [0.03, 0.05, 20.0, 30.0])
def test_reduce_canonical_ill_conditioned_s(alpha_abs):
    rng = np.random.default_rng(6)
    for sign in (+1, -1):
        for gamma in GAMMAS:
            theta = -rng.random() * 0.9
            alpha = alpha_abs * np.exp(2j * np.pi * rng.random())
            beta = 30 * np.exp(2j * np.pi * rng.random())
            v = canonical_matrix("schroedinger", sign, gamma) @ s_lower(alpha, beta)
            for shift in (-2, 0, 3):
                mu = (-theta if sign > 0 else 1 + theta) + shift
                form = reduce_to_canonical(v, mu=mu)
                assert (form.kind, form.sign) == ("schroedinger", sign)
                assert abs(form.theta - theta) < 1e-13
                assert abs(form.gamma - gamma) < 1e-14 * gamma


def test_reduce_canonical_bargmann_theta_is_zero():
    rng = np.random.default_rng(7)
    for sign in (+1, -1):
        v = canonical_matrix("bargmann", sign) @ random_triangular(rng)
        for mu in (0.0, 0.3, -1.7, 2 + 1j):
            form = reduce_to_canonical(v, mu=mu)
            assert (form.kind, form.sign, form.theta, form.gamma) == ("bargmann", sign, 0.0, 1.0)
