"""Signed multimode CCR: [a_i, a_j*] = delta_ij eta_i with eta_i = +-1.

The representation on multivariate polynomials carries the signed Gram
prod n_i! (-1)^{n_i (1 - eta_i)/2}; its gauge generator has spectrum
{0, ..., D}, the desk-scale spectral condition.  Any nonzero state
descends to the vacuum ray: annihilating the lowest Fourier component
mode by mode leaves c_n prod n_i! for its lexicographically largest
multi-index n, and vacuum_descent reads that off without walking.
"""

import numpy as np

from kreinccr import EtaSignature, MultiIndexState, build_multimode_rep, \
    diagonalize_eta, spectral_condition_check, vacuum_descent

h = np.array([[0.0, 1.0], [1.0, 0.0]])
l, eta = diagonalize_eta(h)
print("eta signature of [[0,1],[1,0]]:", eta.values)

eta = EtaSignature((1, -1, 1))
rep = build_multimode_rep(eta, 6)
print(f"modes = 3, degree cap = 6: dimension {rep.size}")
print("gauge spectrum:", sorted({int(x.real) for x in rep.gauge_diag}))

s = MultiIndexState.monomial((1, 1), cap=6)
print("<z1 z2, z1 z2> =", rep.inner(s, s).real, " (negative: Krein geometry)")

f = MultiIndexState({(1,): 1.0, (0, 2): 0.5, (2, 0, 1): 1j}, cap=6)
print("Fourier support of <f, U(s) f>:",
      sorted(spectral_condition_check(rep, f, f)))

g = MultiIndexState({(2,): 1.0, (0, 1): 1.0}, cap=6)
psi0 = vacuum_descent(rep, g)
print("vacuum descent of z1^2 + z2:", psi0.terms)
