"""Concrete Krein *-representations of the Heisenberg algebra.

A representation is stored as finite-section band matrices on a basis
indexed by levels, together with a diagonal gauge generator and a real
diagonal Gram.  Builders cover the Fock/anti-Fock Bargmann forms and the
parabolic-cylinder (Schroedinger) family V_theta; utilities provide the
Krein adjoint, gauge isometries, scaling intertwiners, canonical-form
reduction of a general unimodular isomorphism, and the null-subspace
diagnosis for theta = 0 windows that dip below level zero.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from . import sl2
from .algebra import (AlgebraElement, HEISENBERG, apply_automorphism,
                      apply_isomorphism, normal_order)
from .exceptions import (DomainError, NotRegularizable, NotUnimodular,
                         NullSubrepresentation)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class BasisRep:
    """Band-matrix representation on levels min_level .. min_level + N."""

    label: str
    a_mat: np.ndarray      # pi(a)
    adag_mat: np.ndarray   # pi(a*)
    gauge_diag: np.ndarray  # diagonal of the gauge generator
    gram_diag: np.ndarray   # real, nonzero
    params: dict = field(default_factory=dict)
    min_level: int = 0

    @property
    def size(self):
        return len(self.gram_diag)

    def levels(self):
        return np.arange(self.min_level, self.min_level + self.size)

    def inner(self, f, g):
        """Krein inner product <f, g> = sum conj(f_n) gram_n g_n."""
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        return complex(np.sum(np.conj(f) * self.gram_diag * g))

    def to_json(self):
        n = self.size

        def band(m):
            # ladder matrices are bidiagonal; keep both off-diagonals so
            # raising and lowering conventions both round-trip
            return {
                "lower": [_c2(m[i + 1, i]) for i in range(n - 1)],
                "upper": [_c2(m[i, i + 1]) for i in range(n - 1)],
            }

        return json.dumps({
            "label": self.label,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "min_level": self.min_level,
            "size": n,
            "a_band": band(self.a_mat),
            "adag_band": band(self.adag_mat),
            "gauge_diagonal": [_c2(x) for x in self.gauge_diag],
            "gram_diagonal": [float(x) for x in self.gram_diag],
            "signature": [int(np.sign(x)) for x in self.gram_diag],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        n = obj["size"]

        def unband(spec):
            m = np.zeros((n, n), dtype=complex)
            for i, v in enumerate(spec["lower"]):
                m[i + 1, i] = complex(*v)
            for i, v in enumerate(spec["upper"]):
                m[i, i + 1] = complex(*v)
            return m

        a = unband(obj["a_band"])
        ad = unband(obj["adag_band"])
        return cls(
            label=obj["label"],
            a_mat=a,
            adag_mat=ad,
            gauge_diag=np.array([complex(*v) for v in obj["gauge_diagonal"]]),
            gram_diag=np.array(obj["gram_diagonal"], dtype=float),
            params=obj["params"],
            min_level=obj["min_level"],
        )


def _c2(z):
    z = complex(z)
    return [z.real, z.imag]


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass(frozen=True)
class KreinDecomposition:
    """Gram = signature * weights entry-wise, signature^2 = 1."""

    signature: np.ndarray
    weights: np.ndarray


def krein_decomposition(rep: BasisRep) -> KreinDecomposition:
    g = rep.gram_diag
    return KreinDecomposition(np.sign(g), np.abs(g))


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------

def _shift_down(n, weights):
    """Matrix sending e_k -> weights[k] e_{k-1}."""
    m = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        m[k - 1, k] = weights[k]
    return m


def _shift_up(n, weights):
    """Matrix sending e_k -> weights[k] e_{k+1}; the top action is dropped."""
    m = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        m[k + 1, k] = weights[k]
    return m


def build_fock_bargmann(levels: int) -> BasisRep:
    """Standard Fock representation: e_n ~ z^n, pi(a) = d/dz, pi(a*) = z."""
    if levels < 1:
        raise ValueError("need at least one excited level")
    n = levels + 1
    ns = np.arange(n)
    return BasisRep(
        label="fock_bargmann",
        a_mat=_shift_down(n, ns.astype(complex)),
        adag_mat=_shift_up(n, np.ones(n)),
        gauge_diag=ns.astype(complex),
        gram_diag=np.array([math.factorial(k) for k in ns], dtype=float),
        params={"levels": levels, "mu": 0.0},
    )


def build_antifock(levels: int, flavor: str = "bargmann") -> BasisRep:
    """Anti-Fock representation: the cyclic vector is annihilated by a*.

    Bargmann flavor: pi(a) = z (raising), pi(a*) = -d/dz; Gram (-1)^n n!.
    The gauge generator is -n so that U(s) pi(a) U(s)^{-1} = e^{-is} pi(a).
    """
    if levels < 1:
        raise ValueError("need at least one excited level")
    if flavor not in ("bargmann", "schroedinger"):
        raise ValueError(f"unknown flavor {flavor!r}")
    n = levels + 1
    ns = np.arange(n)
    return BasisRep(
        label=f"antifock_{flavor}",
        a_mat=_shift_up(n, np.ones(n)),
        adag_mat=_shift_down(n, -ns.astype(complex)),
        gauge_diag=-ns.astype(complex),
        gram_diag=np.array([(-1.0) ** k * math.factorial(k) for k in ns]),
        params={"levels": levels, "flavor": flavor, "mu": 0.0},
    )


def build_schroedinger_theta(theta: float, gamma: float, levels: int,
                             sign: int = +1, min_level: int = 0) -> BasisRep:
    """The V_theta family: e_n ~ F_{theta+n}, Gram gamma^{2n} Gamma(theta+n+1).

    theta must lie in (-1, 0]; for theta = 0 a window reaching below level
    zero forces a null subrepresentation and the build fails with the
    forcing chain attached.
    """
    if not (-1 < theta <= 0):
        raise DomainError(f"theta = {theta} outside (-1, 0]")
    if isinstance(theta, complex):
        raise DomainError("theta must be real")
    if gamma <= 0:
        raise DomainError(f"gamma = {gamma} must be positive")
    if sign not in (+1, -1):
        raise ValueError("sign must be +-1")
    if min_level < 0:
        diag = detect_null_subrep(theta, min_level, min_level + levels, gamma)
        if diag.has_null:
            raise NullSubrepresentation(
                "theta = 0 with negative levels forces a null subspace",
                chain=diag.chain)
    n = levels + 1
    ks = np.arange(min_level, min_level + n)
    gram = _window_gram(theta, gamma, ks)
    if sign > 0:
        a_mat = _shift_down(n, gamma * (theta + ks).astype(complex))
        adag_mat = _shift_up(n, np.full(n, 1.0 / gamma))
        gauge = (ks + theta).astype(complex)
    else:
        # the composition with rho^-: a and a* exchange ladder roles and
        # the Gram alternates, keeping the adjointness identities exact
        a_mat = _shift_up(n, np.full(n, 1.0 / gamma))
        adag_mat = _shift_down(n, -gamma * (theta + ks).astype(complex))
        gauge = -(ks + theta).astype(complex)
        gram = gram * (-1.0) ** ks  # (-1)^N with N anchored at level zero
    return BasisRep(
        label="schroedinger_theta",
        a_mat=a_mat,
        adag_mat=adag_mat,
        gauge_diag=gauge,
        gram_diag=gram,
        params={"theta": theta, "gamma": gamma, "levels": levels,
                "sign": sign, "mu": theta},
        min_level=min_level,
    )


def _window_gram(theta, gamma, ks):
    """Gram values gamma^{2k} Gamma(theta+k+1) extended to negative k via
    the recursion g_k = gamma^2 (theta + k) g_{k-1}, anchored at k = 0."""
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        if k >= 0:
            out[i] = gamma ** (2 * k) * float(gamma_fn(theta + k + 1))
        else:
            # walk the recursion downward from g_0
            g = float(gamma_fn(theta + 1))
            for j in range(0, k, -1):
                g = g / (gamma ** 2 * (theta + j))
            out[i] = g
    return out


# ---------------------------------------------------------------------
# adjoints, gauge, intertwiners
# ---------------------------------------------------------------------

def krein_adjoint(a: np.ndarray, rep: BasisRep) -> np.ndarray:
    """Adjoint with respect to the diagonal Gram: G^{-1} A^H G."""
    g = rep.gram_diag
    return (a.conj().T * g[None, :]) / g[:, None]


def gauge_unitary(rep: BasisRep, s: float) -> np.ndarray:
    """U(s) = exp(i s * gauge generator); a Krein isometry."""
    return np.diag(np.exp(1j * s * rep.gauge_diag))


def scaling_intertwiner(theta: float, gamma1: float, gamma2: float,
                        levels: int) -> np.ndarray:
    """Diagonal W = diag((gamma2/gamma1)^n) with W pi_1 W^{-1} = pi_2 and
    <Wf, Wg>_2 = <f, g>_1."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise DomainError("gammas must be positive")
    return np.diag((gamma1 / gamma2) ** np.arange(levels + 1).astype(float))


# ---------------------------------------------------------------------
# null-subrepresentation diagnosis
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class NullDiagnosis:
    has_null: bool
    theta: float
    levels: np.ndarray
    gram: np.ndarray          # consistent Gram values (0 where forced)
    forced_zero_levels: list
    chain: list


def detect_null_subrep(theta: float, min_level: int, max_level: int,
                       gamma: float = 1.0) -> NullDiagnosis:
    """Propagate the adjointness recursion g_k = gamma^2 (theta+k) g_{k-1}
    across a level window and report any forced vanishing.

    For theta = 0 and a window containing level -1, the factor theta + 0
    vanishes, so every g_k with k >= 0 is forced to zero: the levels >= 0
    would span a null subrepresentation.
    """
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
    return NullDiagnosis(
        has_null=bool(forced),
        theta=theta,
        levels=ks,
        gram=gram,
        forced_zero_levels=forced,
        chain=chain,
    )


# ---------------------------------------------------------------------
# canonical reduction
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    s_matrix: np.ndarray   # lower-triangular element of the implementable group
    sign: int
    kind: str              # "bargmann" | "schroedinger"
    theta: float
    gamma: float


def _quadratic_slvector(x: AlgebraElement):
    """Read (n3, n-, n+) and the constant from a normal-ordered quadratic:
    X = n3 (z d) + (-n-/2) z^2 + (n+/2) d^2 + const."""
    c_zd = complex(x.terms.get(("z", "d"), 0))
    c_zz = complex(x.terms.get(("z", "z"), 0))
    c_dd = complex(x.terms.get(("d", "d"), 0))
    const = complex(x.terms.get((), 0))
    return sl2.SlVector(c_zd, -2 * c_zz, 2 * c_dd), const


def _canonical_matrix(kind, sign, gamma):
    if kind == "bargmann":
        if sign > 0:
            return np.eye(2, dtype=complex)
        return np.array([[0, -1], [1, 0]], dtype=complex)
    r = 1 / (gamma * SQRT2)
    s = gamma / SQRT2
    if sign > 0:
        return np.array([[r, -r], [s, s]], dtype=complex)
    return np.array([[-r, -r], [s, -s]], dtype=complex)


def _wrap_theta(t: float) -> float:
    """Map a real number into (-1, 0] modulo 1."""
    w = t - math.ceil(t)
    return w if -1 < w <= 0 else 0.0


def reduce_to_canonical(v, mu=0.0, tol=1e-8) -> CanonicalForm:
    """Reduce the isomorphism (a*, a)^T = V (z, d)^T to canonical form.

    Computes the image of a* a + mu symbolically, classifies its quadratic
    part as an sl2 adjoint orbit, and factors V = V_canonical S with S in
    the implementable lower-triangular group.  Degenerate orbits (the
    sigma+ / sigma- classes) do not generate a U(1) regularity subgroup.
    """
    v = np.asarray(v, dtype=complex)
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if abs(det - 1) > tol:
        raise NotUnimodular(f"det V = {det}")

    gens = HEISENBERG
    a = AlgebraElement.generator(gens, "a")
    astar = AlgebraElement.generator(gens, "a*")
    x = normal_order(astar * a + complex(mu))
    img = apply_isomorphism([[v[0, 0], v[0, 1]], [v[1, 0], v[1, 1]]], x)
    n, _const = _quadratic_slvector(img)

    orbit = sl2.classify_orbit(n, tol=tol)
    if orbit.kind in (sl2.OrbitKind.SIGMA_PLUS, sl2.OrbitKind.SIGMA_MINUS):
        raise NotRegularizable(
            f"gauge generator lies on the degenerate orbit {orbit.kind.value}")

    if orbit.kind is sl2.OrbitKind.SIGMA_THREE:
        lam = orbit.scale
        if abs(lam - 1) <= tol:
            sign = +1
        elif abs(lam + 1) <= tol:
            sign = -1
        else:
            raise NotRegularizable(f"generator scale {lam} is not +-1")
        gamma = 1.0  # absorbed into S by covariance
        kind = "bargmann"
        theta = 0.0
        can = _canonical_matrix(kind, sign, gamma)
        s_total = np.linalg.inv(can) @ v
        if abs(s_total[0, 1]) > tol * max(1.0, np.max(np.abs(v))):
            raise NotRegularizable("reduction did not land in the triangular group")
        return CanonicalForm(s_total, sign, kind, theta, gamma)

    # Schroedinger: quadratic of sign*N_S is the vector (0, -sign, -sign)
    best = None
    for sign in (+1, -1):
        try:
            b = -sign * n.n3
            aa = -cmath.log(-sign * n.nplus) / 2
        except ValueError:
            continue
        m = sl2.s_from_ab(aa, b)
        v0 = v @ np.linalg.inv(m)
        gamma = SQRT2 * v0[1, 0]
        if abs(gamma) < tol or abs(gamma.imag) > tol * abs(gamma):
            continue  # gamma is reduced to the positive reals
        gamma = gamma.real
        if gamma < 0:
            gamma = -gamma
        pattern = _canonical_matrix("schroedinger", sign, gamma)
        # the overall -1 is S(-1, 0), which acts as the same group element
        resid = min(np.max(np.abs(v0 - pattern)), np.max(np.abs(v0 + pattern)))
        if resid <= tol * max(1.0, np.max(np.abs(v0))):
            best = (sign, gamma, m)
            break
    if best is None:
        raise NotRegularizable("no Schroedinger canonical form matches")
    sign, gamma, m = best

    can = _canonical_matrix("schroedinger", sign, gamma)
    s_total = np.linalg.inv(can) @ v
    if abs(s_total[0, 1]) > tol * max(1.0, np.max(np.abs(v))):
        s_total = np.linalg.inv(-can) @ v
        if abs(s_total[0, 1]) > tol * max(1.0, np.max(np.abs(v))):
            raise NotRegularizable("reduction did not land in the triangular group")

    # theta from the constant part of the conjugated generator
    img0 = apply_automorphism(
        [[complex(x) for x in row] for row in np.linalg.inv(s_total)], img, tol=1e-6)
    _n0, c0 = _quadratic_slvector(img0)
    excess = c0 + sign * 0.5
    theta = _wrap_theta(-sign * excess.real)
    return CanonicalForm(s_total, sign, "schroedinger", theta, gamma)


# ---------------------------------------------------------------------
# verification battery (shared by tests and the CLI)
# ---------------------------------------------------------------------

def verify_rep(rep: BasisRep, gauge_samples=None, seed=0) -> dict:
    """Residuals of the defining identities on the stable level range."""
    n = rep.size
    core = slice(0, n - 1)
    a, ad = rep.a_mat, rep.adag_mat

    # the lowering ladder does not terminate for theta != 0, so the bottom
    # of the finite section is a truncation boundary too
    lo = 0
    if rep.label == "schroedinger_theta" and rep.params["theta"] + rep.min_level != 0:
        lo = 1
    ccr = (a @ ad - ad @ a - np.eye(n))
    ccr_res = float(np.max(np.abs(ccr[lo:n - 1, lo:n - 1])))

    star1 = krein_adjoint(a, rep) - ad
    star2 = krein_adjoint(ad, rep) - a
    star_res = float(max(np.max(np.abs(star1[core, core])),
                         np.max(np.abs(star2[core, core]))))

    gram_res = 0.0
    if rep.label == "schroedinger_theta":
        th = rep.params["theta"]
        gm = rep.params["gamma"]
        sg = rep.params.get("sign", 1)
        g = rep.gram_diag
        ks = rep.levels()
        for i in range(1, n):
            pred = sg * gm ** 2 * (th + ks[i]) * g[i - 1]
            gram_res = max(gram_res, abs(g[i] - pred) / max(1.0, abs(g[i])))

    rng = np.random.default_rng(seed)
    if gauge_samples is None:
        gauge_samples = rng.uniform(0, 2 * np.pi, size=100)
    iso_res = 0.0
    cov_res = 0.0
    fvec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gvec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = rep.inner(fvec, gvec)
    # U(s) is the diagonal exp(i s gauge), so U(s) pi(a) U(s)^{-1} has the
    # entries a_ij exp(i s (gauge_i - gauge_j)) on the support of pi(a)
    rows, cols = np.nonzero(a)
    entries = a[rows, cols]
    step = rep.gauge_diag[rows] - rep.gauge_diag[cols]
    for s in gauge_samples:
        u = np.exp(1j * s * rep.gauge_diag)
        iso_res = max(iso_res, abs(rep.inner(u * fvec, u * gvec) - base)
                      / max(1.0, abs(base)))
        conj = entries * np.exp(1j * s * step)
        cov_res = max(cov_res, float(np.max(np.abs(conj - np.exp(-1j * s) * entries),
                                            initial=0.0)))
    return {
        "ccr_max_residual": ccr_res,
        "star_property_max_residual": star_res,
        "gram_recursion_max_residual": gram_res,
        "gauge_isometry_max_residual": iso_res,
        "gauge_covariance_max_residual": cov_res,
    }
