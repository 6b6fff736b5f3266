"""Involutions from isomorphisms, Bogoliubov checks, adjoint orbits.

An isomorphism (a*, a)^T = V (z, d)^T induces an antilinear
product-reversing involution on the holomorphic algebra with matrix
C = conj(V)^{-1} sigma1 V.  conjugation_from_V computes it as
adj(conj V) sigma1 V / conj(det V): exactly over Q(i, sqrt 2) for exact
entries, as a complex array for float ones.  The gauge generator a* a
maps to a quadratic whose sl2 adjoint orbit under the implementable
(lower-triangular) subgroup decides which canonical representation
family it generates.
"""

import numpy as np

from kreinccr import SlVector, adjoint_action, classify_orbit, \
    conjugation_from_V, is_bogoliubov
from kreinccr.exact import INV_SQRT2
from kreinccr.sl2 import SIGMA1

print("C for V = identity (Fock/Bargmann):")
print(conjugation_from_V(np.eye(2)).real)

r = INV_SQRT2
c = conjugation_from_V([[r, -r], [r, r]])
print("C for the canonical Schroedinger V (exact):",
      [[str(x) for x in row] for row in c])

# a squeeze transformation is Bogoliubov for the Fock involution
p, q = np.cosh(0.4), np.sinh(0.4)
t = np.array([[p, q], [q, p]])
print("squeeze is Bogoliubov w.r.t. sigma1:", is_bogoliubov(t, SIGMA1))

# orbit classification of gauge-generator candidates
for n in (SlVector(1, 0, 0), SlVector(0, 1, 1), SlVector(1, -1, 1),
          SlVector(0.3, 2.0, -1.1)):
    res = classify_orbit(n)
    print(f"n = ({n.n3}, {n.nminus}, {n.nplus}):  orbit {res.kind.value}, "
          f"invariant q = {n.q():.4g}")

# the invariant q is constant along the orbit
n = SlVector(0.3, 2.0, -1.1)
moved = adjoint_action(0.7, -1.2, n)
print("q before/after adjoint move:", n.q(), "/", f"{moved.q():.15g}")
