"""Truncated series, the implementer Gamma_S, and Fourier projections.

Oracle: every claimed operator identity is checked coefficient-wise on
the stable range of the truncation, and Gamma_S itself is checked
against direct evaluation of f(alpha z) exp(-alpha beta z^2 / 2) at
sample points inside the disk of reliability.
"""

import cmath
import math

import numpy as np
import pytest

from kreinccr.exceptions import DomainError, NonFinite, SingularTransformation
from kreinccr.truncfn import (TruncFn, annihilator_beta_minus, apply_dz,
                              apply_z, exp_quadratic, fourier_project,
                              gamma_S, gamma_S_inverse, multiply,
                              rotation_family, seminorm,
                              verify_implementation)


def test_arithmetic_and_exactness():
    f = TruncFn.from_coeffs([1, 2, 3], 5)
    g = TruncFn.from_coeffs([0, 1], 5)
    assert np.array_equal((f + g).coeffs[:3], [1, 3, 3])
    assert (f + g).exact
    h = multiply(f, f)
    assert h.exact  # degree 4 product fits under cap 5
    top = TruncFn.monomial(5, 5)
    assert not multiply(top, g).exact  # degree 6 mass discarded
    assert not apply_z(top).exact
    assert apply_dz(top).exact


def test_truncation_clears_exact_flag():
    f = TruncFn.from_coeffs([1, 1, 1, 1], degree_cap=2)
    assert not f.exact
    g = TruncFn.from_coeffs([1, 1, 1, 0, 0], degree_cap=2)
    assert g.exact


def test_evaluate_and_seminorm():
    f = TruncFn.from_coeffs([1, 0, -2], 4)
    assert f.evaluate(3.0) == 1 - 18
    assert seminorm(f, 2.0) == 1 + 8
    with pytest.raises(ValueError):
        seminorm(f, 0.0)


def test_apply_z_dz_commutator_on_series():
    f = TruncFn.from_coeffs(np.arange(1, 8, dtype=float), 10)
    lhs = apply_dz(apply_z(f)) - apply_z(apply_dz(f))
    assert np.max(np.abs((lhs - f).coeffs[:9])) == 0


def test_exp_quadratic():
    f = exp_quadratic(-0.5, 30)
    z = 0.7
    assert abs(f.evaluate(z) - cmath.exp(-0.5 * z * z)) < 1e-12


def test_gamma_S_matches_pointwise_formula():
    rng = np.random.default_rng(0)
    for _ in range(30):
        alpha = 0.3 + 0.7 * rng.random()
        beta = rng.standard_normal() * 0.7
        f = TruncFn.from_coeffs(rng.standard_normal(4), 25)
        g = gamma_S(alpha, beta, f)
        for z in (0.2, -0.5, 0.4 + 0.3j):
            want = f.evaluate(alpha * z) * cmath.exp(-alpha * beta * z * z / 2)
            assert abs(g.evaluate(z) - want) < 1e-8


def test_gamma_S_inverse_round_trip():
    rng = np.random.default_rng(1)
    f = TruncFn.from_coeffs(rng.standard_normal(5), 30)
    back = gamma_S_inverse(0.7, 0.4, gamma_S(0.7, 0.4, f))
    assert np.max(np.abs((back - f).coeffs[:20])) < 1e-10


def test_gamma_S_rejects_singular_alpha():
    f = TruncFn.from_coeffs([1], 4)
    with pytest.raises(SingularTransformation):
        gamma_S(0, 1, f)
    with pytest.raises(SingularTransformation):
        annihilator_beta_minus(0, 4)


def test_verify_implementation_small():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        alpha = (0.1 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
        beta = rng.random() * np.exp(2j * np.pi * rng.random())
        f = TruncFn.from_coeffs(rng.standard_normal(4) + 1j * rng.standard_normal(4), 14)
        worst = max(worst, verify_implementation(alpha, beta, f))
    assert worst < 1e-9


def test_verify_implementation_keeps_a_nan_residual():
    # 1/alpha overflows, so Gamma_S^{-1} f is NaN past c_0: no residual was computed
    f = TruncFn.from_coeffs([-1, 0.5], 5)
    with np.errstate(all="ignore"):
        assert math.isnan(verify_implementation(1e-320, 1, f))


def test_group_law():
    # Gamma_{S1} Gamma_{S2} = Gamma_{S2 S1} (the action reverses products)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a1, a2 = 0.2 + 0.8 * rng.random(2)
        b1, b2 = 0.5 * rng.standard_normal(2)
        f = TruncFn.from_coeffs(rng.standard_normal(3), 20)
        lhs = gamma_S(a1, b1, gamma_S(a2, b2, f))
        am, bm = a2 * a1, b2 * a1 + b1 / a2
        rhs = gamma_S(am, bm, f)
        assert np.max(np.abs((lhs - rhs).coeffs[:15])) < 1e-8


def test_annihilator():
    for s in (1, -1, 1j):
        g = annihilator_beta_minus(s, 30)
        resid = apply_z(g) + s * apply_dz(g)
        assert seminorm(resid, 1.0) < 1e-12


def test_rotation_family_and_projection():
    f = TruncFn.from_coeffs([1, 1, 1, 1], 8)
    g = rotation_family(np.pi / 2, f)
    assert abs(g.coeffs[1] - 1j) < 1e-14
    proj = fourier_project(rotation_family, f, 2)
    want = np.zeros(9)
    want[2] = 1
    assert np.max(np.abs(proj.coeffs - want)) < 1e-12
    # projection onto an absent mode is zero
    empty = fourier_project(rotation_family, f, 7)
    assert np.max(np.abs(empty.coeffs)) < 1e-12


class Aliasing(Exception):
    """The sampled reference has too few nodes to separate mode k."""


def sampled_projection(family, f, ks, nodes=None):
    """Reference: the sampled DFT fourier_project computed before its closed
    form, (1/nodes) sum_j e^{-i k s_j} family(s_j, f) at s_j = 2 pi j / nodes,
    one row per k in ks, with 4 (D+1) nodes by default.

    Mode n lands on mode k when n - k is a multiple of nodes, so nodes must
    be at least D+1 and exceed |n - k| for every n in 0..D.
    """
    d = f.degree_cap
    if nodes is None:
        nodes = 4 * (d + 1)
    for k in ks:
        need = max(d, k, d - k) + 1
        if nodes < need:
            raise Aliasing(f"{nodes} nodes < {need}: modes 0..{d} alias onto mode {k}")
    ks = np.asarray(ks)
    acc = np.zeros((len(ks), d + 1), dtype=complex)
    for j in range(nodes):
        s = 2 * np.pi * j / nodes
        acc += np.exp(-1j * ks * s)[:, None] * family(s, f).coeffs
    return acc / nodes


@pytest.mark.parametrize("d", [16, 64, 256])
def test_projection_matches_the_sampled_reference(d):
    rng = np.random.default_rng(d)
    f = TruncFn.from_coeffs(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1), d)
    ks = list(range(-2, d + 3))
    for k, want in zip(ks, sampled_projection(rotation_family, f, ks)):
        off = np.arange(d + 1) != k
        for g in (f, TruncFn(f.coeffs, exact=False)):
            got = fourier_project(rotation_family, g, k)
            assert np.max(np.abs(got.coeffs - want)) < 1e-12
            # off mode k the closed form is exactly zero, not rounding noise
            assert not np.any(got.coeffs[off])
            assert got.exact is g.exact


def test_projection_aliasing_guard():
    f = TruncFn.from_coeffs(np.ones(9), 8)
    with pytest.raises(Aliasing):
        sampled_projection(rotation_family, f, [0], nodes=5)
    # exactly D+1 nodes is the minimum that resolves every mode
    want = np.eye(9)
    ref = sampled_projection(rotation_family, f, [3], nodes=9)[0]
    assert np.max(np.abs(ref - want[3])) < 1e-12
    # the closed form takes no nodes and is exact
    for k in (0, 3):
        assert np.array_equal(fourier_project(rotation_family, f, k).coeffs, want[k])


@pytest.mark.parametrize("ones, cap, k, nodes", [
    # modes outside 0..D: with the default 68 nodes at D = 16, mode 68
    # would pick up c_0 and mode -60 would pick up c_8
    (2, 16, 68, None),
    (9, 16, -60, None),
    (9, 16, 20, 20),
])
def test_projection_aliasing_guard_outside_the_cap(ones, cap, k, nodes):
    f = TruncFn.from_coeffs(np.ones(ones), cap)
    with pytest.raises(Aliasing):
        sampled_projection(rotation_family, f, [k], nodes=nodes)
    assert np.array_equal(fourier_project(rotation_family, f, k).coeffs, np.zeros(cap + 1))


@pytest.mark.parametrize("k, nodes", [(68, 69), (-60, 77)])
def test_projection_outside_the_cap_with_enough_nodes(k, nodes):
    # a mode outside 0..D needs more nodes than its distance to each of them
    f = TruncFn.from_coeffs(np.ones(17), 16)
    ref = sampled_projection(rotation_family, f, [k], nodes=nodes)[0]
    assert np.max(np.abs(ref)) < 1e-12
    assert np.array_equal(fourier_project(rotation_family, f, k).coeffs, np.zeros(17))


def test_projection_of_another_family_is_a_domain_error():
    # U(2s) would project mode 2k onto k: the closed form is not its answer
    f = TruncFn.from_coeffs([1, 1, 1], 4)
    with pytest.raises(DomainError):
        fourier_project(lambda s, g: rotation_family(2 * s, g), f, 1)


def test_json_round_trip():
    f = TruncFn.from_coeffs([1 + 2j, 0, -0.5], 4, exact=False)
    assert f.to_json() == (
        '{"coefficients":[[1,2],[0,0],[-0.5,0],[0,0],[0,0]],"degree_cap":4,"exact":false}')
    # the same function as written by json.dumps, before to_json went through emit_json
    dumps = ('{"degree_cap": 4, "exact": false, "coefficients": '
             '[[1.0, 2.0], [0.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
    for text in (f.to_json(), dumps):
        g = TruncFn.from_json(text)
        assert np.array_equal(f.coeffs, g.coeffs)
        assert g.exact == f.exact


def test_to_json_of_a_non_finite_coefficient_is_non_finite():
    for c in (math.nan, math.inf, complex(0, -math.inf)):
        with pytest.raises(NonFinite):
            TruncFn.from_coeffs([c, 1], 2).to_json()
