"""Signed multimode CCR algebras and their polynomial representation."""

import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from kreinccr.algebra import (AlgebraElement, commutator, multimode_set,
                              normal_order)
from kreinccr.exceptions import (Degenerate, DomainError, NonFinite, NotHermitian,
                                 ZeroInput)
from kreinccr.multimode import (EtaSignature, MultiIndexState, _monomials,
                                _strip, build_multimode_rep, diagonalize_eta,
                                rho_iso, spectral_condition_check,
                                vacuum_descent)
from kreinccr.reps import build_fock_bargmann, gauge_unitary, krein_adjoint

ETA3 = EtaSignature((1, -1, 1))


def test_eta_signature():
    assert len(ETA3) == 3
    assert ETA3[2] == -1
    assert ETA3[7] == 1  # unlisted modes default to +1
    with pytest.raises(ValueError):
        EtaSignature((1, 2))


def test_eta_signature_iterates_over_its_modes_only():
    e = EtaSignature((1, -1))
    # islice keeps an iteration that never stops from hanging the test
    assert list(itertools.islice(iter(e), 3)) == [1, -1]
    assert multimode_set(e) == multimode_set([1, -1])


def test_diagonalize_eta_examples():
    l, eta = diagonalize_eta(np.eye(3))
    assert eta.values == (1, 1, 1)
    assert np.max(np.abs(l @ np.eye(3) @ l.conj().T - np.eye(3))) < 1e-12

    h = np.diag([4.0, -9.0])
    l, eta = diagonalize_eta(h)
    assert eta.values == (1, -1)
    assert np.max(np.abs(l @ h @ l.conj().T - np.diag([1, -1]))) < 1e-12

    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    l, eta = diagonalize_eta(h)
    assert eta.values == (1, -1)
    assert np.max(np.abs(l @ h @ l.conj().T - np.diag([1, -1]))) < 1e-12


def test_diagonalize_eta_errors():
    with pytest.raises(NotHermitian):
        diagonalize_eta(np.array([[0, 1], [0, 0]], dtype=float))
    with pytest.raises(Degenerate):
        diagonalize_eta(np.array([[1, 1], [1, 1]], dtype=float))


def test_diagonalize_eta_unitary_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = h + h.conj().T
        if np.min(np.abs(np.linalg.eigvalsh(h))) < 1e-3:
            continue
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        _, eta1 = diagonalize_eta(h)
        _, eta2 = diagonalize_eta(q @ h @ q.conj().T)
        assert sorted(eta1.values) == sorted(eta2.values)


def test_rho_iso_is_star_isomorphism():
    rng = np.random.default_rng(1)
    eta = EtaSignature((1, -1, 1))
    gens = multimode_set(list(eta.values))
    syms = ["a_1", "a_1*", "a_2", "a_2*", "a_3", "a_3*"]

    def random_element():
        terms = {}
        for _ in range(3):
            w = tuple(rng.choice(syms) for _ in range(rng.integers(0, 5)))
            terms[w] = int(rng.integers(-3, 4))
        return AlgebraElement(gens, {w: c for w, c in terms.items() if c})

    for _ in range(25):
        x = random_element()
        y = random_element()
        assert rho_iso(eta, normal_order(x * y)) == rho_iso(eta, x) * rho_iso(eta, y)
        assert rho_iso(eta, x + y) == rho_iso(eta, x) + rho_iso(eta, y)
        assert rho_iso(eta, x.star()) == rho_iso(eta, x).star()
        assert rho_iso(eta, commutator(x, y)) == commutator(rho_iso(eta, x),
                                                            rho_iso(eta, y))


def test_rho_iso_generator_images():
    eta = EtaSignature((1, -1))
    gens = multimode_set([1, -1])
    a1 = AlgebraElement.generator(gens, "a_1")
    a2 = AlgebraElement.generator(gens, "a_2")
    target = multimode_set([1, 1])
    assert rho_iso(eta, a1) == AlgebraElement.generator(target, "a_1")
    assert rho_iso(eta, a2) == AlgebraElement.generator(target, "a_2*")
    # preserved commutator: rho([a_2, a_2*]) = eta_2 = -1
    a2s = AlgebraElement.generator(gens, "a_2*")
    assert commutator(rho_iso(eta, a2), rho_iso(eta, a2s)) == -1


def test_multi_index_state():
    s = MultiIndexState({(1, 0, 2): 1.0, (0, 1): -2j}, cap=5)
    assert sorted({sum(i) for i in s.terms}) == [1, 3]
    assert {i: c for i, c in s.terms.items() if sum(i) == 1} == {(0, 1): -2j}
    # the same state as written by json.dumps, before to_json went through emit_json
    dumps = '{"cap": 5, "terms": [[[0, 1], [0.0, -2.0]], [[1, 0, 2], [1.0, 0.0]]]}'
    assert s.to_json() == '{"cap":5,"terms":[[[0,1],[0,-2]],[[1,0,2],[1,0]]]}'
    for text in (s.to_json(), dumps):
        back = MultiIndexState.from_json(text)
        assert back.terms == s.terms and back.cap == s.cap
    with pytest.raises(ValueError):
        MultiIndexState({(3, 3): 1.0}, cap=5)
    with pytest.raises(ValueError):
        MultiIndexState({(-1,): 1.0}, cap=5)


def test_to_json_of_a_non_finite_coefficient_is_non_finite():
    for c in (math.inf, math.nan, complex(1, math.nan)):
        with pytest.raises(NonFinite):
            MultiIndexState({(1,): c}, 2).to_json()


def test_single_mode_matches_fock():
    rep = build_multimode_rep(EtaSignature((1,)), 6)
    fock = build_fock_bargmann(6)
    assert np.array_equal(rep.a_mats[0], fock.a_mat)
    assert np.array_equal(rep.adag_mats[0], fock.adag_mat)
    assert np.array_equal(rep.gram_diag, fock.gram_diag)


def test_signed_gram():
    rep = build_multimode_rep(EtaSignature((1, -1)), 6)
    s = MultiIndexState.monomial((1, 1), cap=6)
    assert rep.inner(s, s) == -1
    t = MultiIndexState.monomial((2, 3), cap=6)
    assert rep.inner(t, t) == math.factorial(2) * math.factorial(3) * (-1) ** 3


def test_ccr_and_star_exact():
    rep = build_multimode_rep(ETA3, 6)
    stable = rep.gauge_diag <= rep.cap - 1
    p = np.diag(stable.astype(float))
    for i in range(3):
        for j in range(3):
            comm = rep.a_mats[i] @ rep.adag_mats[j] - rep.adag_mats[j] @ rep.a_mats[i]
            want = (ETA3[i + 1] if i == j else 0.0) * np.eye(rep.size)
            assert np.max(np.abs(p @ (comm - want) @ p)) == 0
        ka = krein_adjoint(rep.a_mats[i], rep)
        assert np.max(np.abs(p @ (ka - rep.adag_mats[i]) @ p)) == 0


def test_gauge_spectrum_nonnegative():
    rep = build_multimode_rep(ETA3, 6)
    spec = sorted({int(x.real) for x in rep.gauge_diag})
    assert spec == list(range(7))


def test_spectral_condition():
    rep = build_multimode_rep(EtaSignature((1, -1)), 6)
    vac = MultiIndexState.vacuum(6)
    assert spectral_condition_check(rep, vac, vac) == {0}
    mono = MultiIndexState.monomial((1, 1), cap=6)
    assert spectral_condition_check(rep, mono, mono) == {2}
    # Gram -1 on z1 z2 and 2 on z1^2: the degree-2 terms cancel exactly
    f = MultiIndexState({(1, 1): 2.0, (2,): 1.0}, cap=6)
    g = MultiIndexState({(1, 1): 1.0, (2,): 1.0}, cap=6)
    assert spectral_condition_check(rep, f, g) == set()


def test_spectral_condition_of_a_component_past_the_doubles_is_non_finite():
    rep = build_multimode_rep(EtaSignature((1,)), 170)
    one = MultiIndexState.monomial((170,), cap=170)
    assert spectral_condition_check(rep, one, one) == {170}
    # the Gram entry is 170!, so 1e300 170! 1e300 is Inf, which no threshold keeps
    big = MultiIndexState({(170,): 1e300}, cap=170)
    with pytest.raises(NonFinite) as e, np.errstate(all="ignore"):
        spectral_condition_check(rep, big, big)
    assert e.value.payload == {"degree": 170}


def test_spectral_condition_random_support():
    rng = np.random.default_rng(2)
    rep = build_multimode_rep(ETA3, 5)
    for _ in range(20):
        def rand_state():
            terms = {}
            for _ in range(4):
                idx = tuple(rng.integers(0, 2, size=3))
                if sum(idx) <= 5:
                    terms[idx] = complex(rng.standard_normal(),
                                         rng.standard_normal())
            return MultiIndexState(terms, cap=5)
        f, g = rand_state(), rand_state()
        if f.is_zero() or g.is_zero():
            continue
        support = spectral_condition_check(rep, f, g)
        assert all(0 <= k <= 5 for k in support)


def test_vacuum_descent():
    rep = build_multimode_rep(EtaSignature((1, -1)), 6)
    vac = MultiIndexState.vacuum(6)
    out = vacuum_descent(rep, vac)
    assert set(out.terms) == {()}

    # hand-traceable: z_1^2 + z_2 has lowest component z_2 at degree 1
    f = MultiIndexState({(2,): 1.0, (0, 1): 1.0}, cap=6)
    out = vacuum_descent(rep, f)
    assert set(out.terms) == {()}

    with pytest.raises(ZeroInput):
        vacuum_descent(rep, MultiIndexState({}, cap=6))


def test_vacuum_descent_random_lands_on_constant_ray():
    rng = np.random.default_rng(3)
    rep = build_multimode_rep(ETA3, 6)
    for _ in range(50):
        terms = {}
        for _ in range(5):
            idx = tuple(rng.integers(0, 3, size=3))
            if sum(idx) <= 6:
                terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
        f = MultiIndexState(terms, cap=6)
        if f.is_zero():
            continue
        out = vacuum_descent(rep, f)
        assert not out.is_zero()
        assert set(out.terms) == {()}
        # annihilated by every pi(a_i)
        v = rep.vector(out)
        for i in range(3):
            assert np.max(np.abs(rep.a_mats[i] @ v)) < 1e-12


def walked_vacuum_descent(rep, f, tol=1e-12):
    """Reference: the annihilator walk that vacuum_descent replaced, ending
    in the state of the entries above tol."""
    if f.is_zero(tol):
        raise ZeroInput("vacuum descent needs a nonzero state")
    v = rep.vector(f)
    k = rep.gauge_diag[np.abs(v) > tol].min()
    cur = np.where(rep.gauge_diag == k, v, 0)
    a_mats = list(rep.a_mats)  # each read of rep.a_mats builds a matrix
    steps = 0
    while steps <= k:
        progressed = False
        for mode0 in range(rep.modes):
            cand = a_mats[mode0] @ cur
            if np.max(np.abs(cand)) > tol:
                cur = cand
                progressed = True
                steps += 1
                break
        if not progressed:
            break
    return MultiIndexState({rep.basis[i]: cur[i] for i in range(rep.size)
                            if abs(cur[i]) > tol}, rep.cap)


@pytest.mark.parametrize("m,cap", [(1, 6), (2, 6), (3, 6), (3, 8), (2, 12), (4, 8)])
def test_vacuum_descent_matches_the_walk(m, cap):
    rng = np.random.default_rng(10 * m + cap)
    for eta in itertools.product((1, -1), repeat=m):
        rep = build_multimode_rep(EtaSignature(eta), cap)
        for _ in range(6):
            idxs = rng.choice(rep.size, size=int(rng.integers(1, 8)), replace=False)
            mags = 10.0 ** rng.uniform(-6, 6, size=len(idxs))
            phases = np.exp(2j * np.pi * rng.random(len(idxs)))
            f = MultiIndexState({rep.basis[i]: c for i, c in zip(idxs, mags * phases)}, cap)
            got, want = vacuum_descent(rep, f), walked_vacuum_descent(rep, f)
            assert set(got.terms) == set(want.terms) == {()}
            assert abs(got.terms[()] - want.terms[()]) <= 1e-15 * abs(want.terms[()])


def test_vacuum_descent_reads_no_ladder_matrices():
    rep = build_multimode_rep(ETA3, 6)
    f = MultiIndexState({(1, 2): 1.5 - 2j, (0, 1, 2): 0.5, (2, 0, 3): 1.0}, cap=6)
    bare = dataclasses.replace(rep, a_mats=[], adag_mats=[])
    assert vacuum_descent(bare, f).terms == {(): (1.5 - 2j) * 2}
    with pytest.raises(DomainError) as info:
        vacuum_descent(bare, MultiIndexState({(0, 0, 0, 1): 1.0}, 6))
    assert (info.value.payload["state_modes"], info.value.payload["rep_modes"]) == (4, 3)


def test_vacuum_descent_ignores_terms_below_tol():
    # a z_1^3 term under tol steered the walk to 3 * 2 * 5e-13 = 3e-12
    rep = build_multimode_rep(EtaSignature((1, 1)), 6)
    f = MultiIndexState({(0, 3): 1.0, (3,): 5e-13}, cap=6)
    assert walked_vacuum_descent(rep, f).terms[()] == pytest.approx(3e-12)
    assert vacuum_descent(rep, f).terms == {(): 6.0}


def recursive_monomials(m, cap):
    """Reference: the recursive enumeration _monomials replaced."""
    res = []
    for d in range(cap + 1):
        level = []
        def rec(prefix, remaining, left):
            if remaining == 0:
                if left == 0:
                    level.append(_strip(tuple(prefix)))
                return
            for n in range(left + 1):
                rec(prefix + [n], remaining - 1, left - n)
        rec([], m, d)
        res.extend(sorted(level))
    return res


def test_monomials_match_the_recursive_enumeration():
    for m in range(1, 7):
        for cap in range(11):
            assert _monomials(m, cap) == recursive_monomials(m, cap), (m, cap)


def dense_multimode_rep(eta, cap):
    """Reference: the per-element build with stored dense ladder matrices
    that build_multimode_rep replaced; returns (basis, index, a_mats,
    adag_mats, gram, gauge)."""
    def _padded(idx, m):
        return idx + (0,) * (m - len(idx))

    m = len(eta)
    basis = _monomials(m, cap)
    index = {b: i for i, b in enumerate(basis)}
    size = len(basis)
    gram = np.empty(size)
    gauge = np.empty(size)
    for i, b in enumerate(basis):
        g = 1.0
        for mode0, n in enumerate(b):
            g *= math.factorial(n)
            if eta[mode0 + 1] == -1 and n % 2 == 1:
                g = -g
        gram[i] = g
        gauge[i] = sum(b)
    a_mats = []
    adag_mats = []
    for mode0 in range(m):
        a = np.zeros((size, size), dtype=complex)
        ad = np.zeros((size, size), dtype=complex)
        for i, b in enumerate(basis):
            bb = _padded(b, m)
            n = bb[mode0]
            if n > 0:
                lower = _strip(bb[:mode0] + (n - 1,) + bb[mode0 + 1:])
                a[index[lower], i] = n
            if sum(bb) < cap:
                upper = _strip(bb[:mode0] + (n + 1,) + bb[mode0 + 1:])
                ad[index[upper], i] = eta[mode0 + 1]
        a_mats.append(a)
        adag_mats.append(ad)
    return basis, index, a_mats, adag_mats, gram, gauge


def _identical(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_build_matches_the_dense_reference(m):
    for cap in range(1, 8):
        for eta in itertools.product((1, -1), repeat=m):
            rep = build_multimode_rep(EtaSignature(eta), cap)
            basis, index, a_mats, adag_mats, gram, gauge = dense_multimode_rep(
                EtaSignature(eta), cap)
            assert rep.basis == basis and rep.index == index
            assert _identical(rep.gram_diag, gram) and _identical(rep.gauge_diag, gauge)
            for got, want in zip(rep.a_mats, a_mats, strict=True):
                assert _identical(got, want), (eta, cap)
            for got, want in zip(rep.adag_mats, adag_mats, strict=True):
                assert _identical(got, want), (eta, cap)


def test_ladder_matrices_are_a_sequence_of_one_matrix_per_mode():
    rep = build_multimode_rep(ETA3, 4)
    assert len(rep.a_mats) == len(rep.adag_mats) == 3
    assert len(list(rep.adag_mats)) == 3  # iteration stops past the last mode
    assert np.array_equal(rep.a_mats[-1], rep.a_mats[2])
    with pytest.raises(IndexError):
        rep.a_mats[3]
    with pytest.raises(TypeError):
        rep.a_mats[0] = np.zeros((rep.size, rep.size))


def test_large_build_allocates_no_dense_matrix():
    build_multimode_rep(EtaSignature((1, -1) * 3), 10)  # warm the import caches
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rep = build_multimode_rep(EtaSignature((1, -1) * 3), 10)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.size == math.comb(16, 6) == 8008
    assert peak < 20e6  # one dense complex matrix would be 1026 MB
    assert elapsed < 1.0
    assert rep.gram_diag[rep.index[(1, 1, 1, 1, 1, 1)]] == -1
    assert spectral_condition_check(rep, MultiIndexState.monomial((0, 0, 0, 0, 0, 10), 10),
                                    MultiIndexState.monomial((0, 0, 0, 0, 0, 10), 10)) == {10}


def test_gauge_unitary_multimode():
    rep = build_multimode_rep(EtaSignature((1, -1)), 4)
    s = 0.9
    u = gauge_unitary(rep, s)
    ui = gauge_unitary(rep, -s)
    for i in range(2):
        conj = u @ rep.a_mats[i] @ ui
        assert np.max(np.abs(conj - np.exp(-1j * s) * rep.a_mats[i])) < 1e-13


def sampled_support(rep, f, g, tol=1e-9):
    """Reference: sample s -> <g, U(s) f> at 4 (cap + 1) equispaced nodes
    with the dense gauge unitary, then take a direct DFT."""
    nodes = 4 * (rep.cap + 1)
    fv, gv = rep.vector(f), rep.vector(g)
    ss = 2 * np.pi * np.arange(nodes) / nodes
    corr = np.array([rep.inner(gv, gauge_unitary(rep, s) @ fv) for s in ss])
    scale = max(1.0, float(np.max(np.abs(corr))))
    half = nodes // 2
    return {k for k in range(-half, nodes - half)
            if abs(np.mean(corr * np.exp(-1j * k * ss))) > tol * scale}


@pytest.mark.parametrize("eta,cap", [((-1,), 6), ((1, -1), 12),
                                     ((1, -1, 1), 8), ((-1, 1, -1, 1), 8)])
def test_spectral_support_matches_sampled_dft(eta, cap):
    rng = np.random.default_rng(cap * len(eta))
    rep = build_multimode_rep(EtaSignature(eta), cap)

    def rand_state(idxs):
        return MultiIndexState({i: complex(rng.standard_normal(), rng.standard_normal())
                                for i in idxs}, cap=cap)

    for _ in range(10):
        idxs = [rep.basis[i] for i in rng.choice(rep.size, size=6, replace=False)]
        f = rand_state(idxs)
        g = rand_state(idxs[:4] + [rep.basis[int(rng.integers(rep.size))]])
        support = spectral_condition_check(rep, f, g)
        assert support == sampled_support(rep, f, g)
        assert support <= set(range(cap + 1))


def test_vector_rejects_states_outside_the_rep():
    rep = build_multimode_rep(EtaSignature((1, -1)), 3)
    with pytest.raises(DomainError) as info:
        rep.vector(MultiIndexState({(0, 0, 1): 1.0}, 3))
    assert (info.value.payload["state_modes"], info.value.payload["rep_modes"]) == (3, 2)
    with pytest.raises(DomainError):
        rep.vector(MultiIndexState({(4,): 1.0}, 5))
