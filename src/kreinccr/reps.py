"""Concrete Krein *-representations of the Heisenberg algebra.

A representation is stored as finite-section band matrices on a basis
indexed by levels, together with a diagonal gauge generator and a real
diagonal Gram.  Builders cover the Fock/anti-Fock Bargmann forms and the
parabolic-cylinder (Schroedinger) family V_theta; utilities provide the
Krein adjoint, gauge isometries, scaling intertwiners, canonical-form
reduction of a general unimodular isomorphism, and the null-subspace
diagnosis for windows that reach the zero of the ladder factor.

Both the reduction and the diagnosis are in closed form.  In
V = V_canonical S the second column of V is that of V_canonical up to the
factor 1/alpha of S, so it fixes kind, sign and gamma (t/q = -sign gamma^2
for V = [[p, q], [r, t]]), mu fixes theta, and S = adj(V_canonical) V.
The ladder factor gamma^2 (theta + k) vanishes only at k = -theta, so
theta alone decides which levels a window forces to a null subspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (DomainError, NotRegularizable, NotUnimodular,
                         NullSubrepresentation, ParseError)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class BasisRep:
    """Band-matrix representation on levels min_level .. min_level + N."""

    label: str
    a_mat: np.ndarray      # pi(a)
    adag_mat: np.ndarray   # pi(a*)
    gauge_diag: np.ndarray  # diagonal of the gauge generator
    gram_diag: np.ndarray   # real, finite, nonzero
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
        """Inverse of to_json; text of another shape is a ParseError."""

        def unband(spec, n):
            m = np.zeros((n, n), dtype=complex)
            for i, v in enumerate(spec["lower"]):
                m[i + 1, i] = complex(*v)
            for i, v in enumerate(spec["upper"]):
                m[i, i + 1] = complex(*v)
            return m

        try:
            obj = json.loads(text)
            n, params = obj["size"], obj["params"]
            # verify_rep reads both diagonals and a Schroedinger Gram's parameters
            if len(obj["gauge_diagonal"]) != n or len(obj["gram_diagonal"]) != n:
                raise ValueError(f"a diagonal's length differs from size {n}")
            if type(obj["min_level"]) is not int:
                raise ValueError("min_level must be an integer")
            gram = np.array(obj["gram_diagonal"], dtype=float)
            if not np.all(np.isfinite(gram) & (gram != 0)):
                raise ValueError("gram_diagonal entries must be finite and nonzero")
            gauge = np.array([complex(*v) for v in obj["gauge_diagonal"]])
            a_mat, adag_mat = unband(obj["a_band"], n), unband(obj["adag_band"], n)
            if not all(np.all(np.isfinite(x)) for x in (gauge, a_mat, adag_mat)):
                raise ValueError("band and gauge_diagonal entries must be finite")
            if obj["label"] == "schroedinger_theta":
                if not all(type(params.get(k)) in (int, float) for k in ("theta", "gamma")):
                    raise ValueError("schroedinger_theta needs real theta and gamma params")
                theta, gamma = float(params["theta"]), float(params["gamma"])
                if not (math.isfinite(theta) and 0 < gamma < math.inf):
                    raise ValueError("schroedinger_theta needs finite theta and gamma > 0")
                sign = params.get("sign", 1)
                if type(sign) is not int or sign not in (1, -1):
                    raise ValueError("a schroedinger_theta sign must be the integer +1 or -1")
            return cls(label=obj["label"], a_mat=a_mat, adag_mat=adag_mat, gauge_diag=gauge,
                       gram_diag=gram, params=params, min_level=obj["min_level"])
        except (KeyError, TypeError, ValueError, IndexError, AttributeError,
                OverflowError) as e:
            raise ParseError(f"representation JSON: {e!r}", offset=getattr(e, "pos", 0),
                             expected=("size", "a_band", "adag_band")) from None


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

def build_fock_bargmann(levels: int) -> BasisRep:
    """Standard Fock representation: e_n ~ z^n, pi(a) = d/dz, pi(a*) = z.

    The theta = 0, gamma = 1, sign = +1 member of the V_theta ladder.
    """
    return _ladder("fock_bargmann", {"levels": levels, "mu": 0.0},
                   0.0, 1.0, levels, +1)


def build_antifock(levels: int) -> BasisRep:
    """Anti-Fock representation: the cyclic vector is annihilated by a*.

    pi(a) = z (raising), pi(a*) = -d/dz; Gram (-1)^n n!.
    The gauge generator is -n so that U(s) pi(a) U(s)^{-1} = e^{-is} pi(a).
    This is the theta = 0, gamma = 1, sign = -1 member of the V_theta ladder.
    """
    return _ladder("antifock_bargmann", {"levels": levels, "mu": 0.0},
                   0.0, 1.0, levels, -1)


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
    return _ladder("schroedinger_theta",
                   {"theta": theta, "gamma": gamma, "levels": levels,
                    "sign": sign, "mu": theta},
                   theta, gamma, levels, sign, min_level)


def _ladder(label, params, theta, gamma, levels, sign, min_level=0):
    """The V_theta ladder on levels min_level .. min_level + levels.

    Krein adjointness alone fixes the Gram: g_0 = Gamma(theta + 1) and
    g_k = sign gamma^2 (theta + k) g_{k-1}, walked up from level 0 and,
    below it, down.  The sign = -1 Gram is (-1)^k times the sign = +1 one.
    Negative levels are a DomainError for every builder; a theta = 0
    window below level zero is a NullSubrepresentation.  A Gram entry that
    is zero or leaves the doubles, gamma^2 included, is a DomainError.
    """
    if levels < 0:
        raise DomainError(f"levels = {levels} must be nonnegative")
    if min_level < 0:
        diag = detect_null_subrep(theta, min_level, min_level + levels, gamma)
        if diag.has_null:
            raise NullSubrepresentation(
                "theta = 0 with negative levels forces a null subspace",
                chain=diag.chain)
    ks = np.arange(min_level, min_level + levels + 1)
    lo = min(min_level, 0)
    g0 = math.gamma(theta + 1)
    with np.errstate(all="ignore"):
        factor = sign * _square(gamma) * (theta + np.arange(lo, max(ks[-1], 0) + 1))
        up = np.cumprod(np.concatenate(([g0], factor[1 - lo:])))
        down = np.divide.accumulate(np.concatenate(([g0], factor[-lo:0:-1])))
    gram = np.concatenate((down[:0:-1], up))[ks - lo]
    _check_gram_levels(ks, ~np.isfinite(gram) | (gram == 0))
    lower = np.diag(sign * gamma * (theta + ks[1:]).astype(complex), 1)  # e_k -> e_{k-1}
    upper = np.diag(np.full(levels, 1.0 / gamma, dtype=complex), -1)  # e_k -> e_{k+1}
    # sign = -1 composes with rho^-: a and a* exchange ladder roles and the
    # Gram alternates, keeping the adjointness identities exact
    a_mat, adag_mat = (lower, upper) if sign > 0 else (upper, lower)
    return BasisRep(label=label, a_mat=a_mat, adag_mat=adag_mat,
                    gauge_diag=sign * (ks + theta).astype(complex),
                    gram_diag=gram, params=params, min_level=min_level)


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
    """The adjointness recursion g_k = gamma^2 (theta+k) g_{k-1} on a level
    window, from g(min_level) = 1, and the levels it forces to vanish.

    The factor vanishes only at k0 = -theta.  A null subrepresentation is
    forced exactly when k0 is an integer with min_level < k0 <= max_level:
    then g_k = 0 for every k >= k0, and the levels k0 .. max_level span a
    null subspace.  Forcing is read off theta, never off the running
    product, which can underflow to 0 or overflow to Inf and NaN.
    """
    ks = np.arange(min_level, max_level + 1)
    k0 = -theta
    forced = []
    if float(k0).is_integer() and min_level < k0 <= max_level:
        forced = list(range(int(k0), max_level + 1))
    with np.errstate(all="ignore"):
        factor = _square(gamma) * (theta + ks.astype(float))
        factor[:1] = 1.0
        gram = np.cumprod(factor)
    gram[len(ks) - len(forced):] = 0.0
    chain = [f"g({min_level}) := 1 (free normalization)"]
    for k, g in zip(ks[1:].tolist(), gram[1:].tolist()):
        if forced and k >= k0:
            value = f"0  [{'zero ladder factor' if k == k0 else 'propagated zero'}]"
        else:
            value = f"{g:.6g}"
        chain.append(f"g({k}) = gamma^2 (theta + {k}) g({k - 1}) = {value}")
    return NullDiagnosis(
        has_null=bool(forced),
        theta=theta,
        levels=ks,
        gram=gram,
        forced_zero_levels=forced,
        chain=chain,
    )


def _check_gram_levels(ks, bad):
    """DomainError at the level nearest zero among the levels ks[bad], if any."""
    if np.any(bad):
        level = int(ks[bad][np.argmin(np.abs(ks[bad]))])
        raise DomainError(f"the Gram leaves the range of doubles at level {level}",
                          level=level)


def _square(gamma):
    """gamma ** 2, or Inf where it leaves the doubles."""
    try:
        return gamma ** 2
    except OverflowError:
        return math.inf


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

    Factors V = V_canonical S with S = [[alpha, 0], [beta, 1/alpha]] in the
    implementable group.  The second column (q, t) of V is that of
    V_canonical divided by alpha, so it fixes the form in closed form:
    q = 0 is Fock and t = 0 anti-Fock (Bargmann, theta = 0, gamma = 1);
    otherwise t/q = -sign gamma^2 must be real (Schroedinger V_theta).
    Under V_canonical, a* a + mu has the constant mu - 1/2 for either sign,
    so theta = -mu (sign +1) or mu - 1 (sign -1), taken into (-1, 0].
    S = adj(V_canonical) V, since det V_canonical = 1.  Zero tests are
    relative to max(1, max |V|).
    """
    v = np.asarray(v, dtype=complex)
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if abs(det - 1) > tol:
        raise NotUnimodular(f"det V = {det}")

    q, t = v[0, 1], v[1, 1]
    small = tol * max(1.0, np.max(np.abs(v)))
    if abs(q) <= small or abs(t) <= small:
        kind, gamma, theta = "bargmann", 1.0, 0.0
        sign = +1 if abs(q) <= small else -1
    else:
        ratio = t / q
        if abs(ratio.imag) > tol * abs(ratio):
            raise NotRegularizable("no Schroedinger canonical form matches")
        kind = "schroedinger"
        sign = -1 if ratio.real > 0 else +1
        gamma = math.sqrt(abs(ratio))
        mu = complex(mu).real
        theta = _wrap_theta(-mu if sign > 0 else mu - 1)
    can = _canonical_matrix(kind, sign, gamma)
    adj = np.array([[can[1, 1], -can[0, 1]], [-can[1, 0], can[0, 0]]])
    return CanonicalForm(adj @ v, sign, kind, theta, gamma)


# ---------------------------------------------------------------------
# verification battery (shared by tests and the CLI)
# ---------------------------------------------------------------------

def _star_residual(x, y, g, m):
    """max |G^{-1} X^H G - Y| on levels below m, as conj(x_ji) g_j / g_i - y_ij
    where X^T or Y is nonzero: the Gram enters as a ratio, so it cannot overflow."""
    x, y = x[:m, :m], y[:m, :m]
    i, j = np.nonzero((x.T != 0) | (y != 0))
    return np.max(np.abs(np.conj(x[j, i]) * (g[j] / g[i]) - y[i, j]), initial=0.0)


def verify_rep(rep: BasisRep) -> dict:
    """Residuals of the defining identities on the stable level range.

    With N = diag(gauge) and a diagonal Gram G, U(s) = exp(isN) is a Krein
    isometry for all s iff N^[*] = G^{-1} N^H G = N, and U(s) pi(a) U(s)^{-1}
    = e^{-is} pi(a) for all s iff [N, pi(a)] = -pi(a).  Both residuals are
    read off the generator: max 2 |Im gauge_n| and max |a_ij (gauge_i -
    gauge_j + 1)|.  The CCR and the *-property are checked inside the
    truncation boundaries, a Schroedinger Gram against its recursion.
    """
    n = rep.size
    a, ad, g, gauge = rep.a_mat, rep.adag_mat, rep.gram_diag, rep.gauge_diag

    # the lowering ladder does not terminate for theta != 0, so the bottom
    # of the finite section is a truncation boundary too
    lo = 0
    if rep.label == "schroedinger_theta" and rep.params["theta"] + rep.min_level != 0:
        lo = 1
    ccr = (a @ ad - ad @ a - np.eye(n))
    # a one-level section has no stable core; its residuals are 0
    ccr_res = float(np.max(np.abs(ccr[lo:n - 1, lo:n - 1]), initial=0.0))
    star_res = float(max(_star_residual(a, ad, g, n - 1), _star_residual(ad, a, g, n - 1)))

    gram_res = 0.0
    if rep.label == "schroedinger_theta":
        p, ks = rep.params, rep.levels()[1:]
        with np.errstate(all="ignore"):
            pred = p.get("sign", 1) * _square(p["gamma"]) * (p["theta"] + ks) * g[:-1]
        _check_gram_levels(ks, ~np.isfinite(pred))  # as the builder reports it
        gram_res = float(np.max(np.abs(g[1:] - pred) / np.maximum(1.0, np.abs(g[1:])),
                                initial=0.0))

    rows, cols = np.nonzero(a)
    cov = a[rows, cols] * (gauge[rows] - gauge[cols] + 1)
    return {
        "ccr_max_residual": ccr_res,
        "star_property_max_residual": star_res,
        "gram_recursion_max_residual": gram_res,
        "gauge_isometry_max_residual": float(np.max(2 * np.abs(gauge.imag), initial=0.0)),
        "gauge_covariance_max_residual": float(np.max(np.abs(cov), initial=0.0)),
    }
