"""Implementing algebra automorphisms on truncated entire functions.

Only the lower-triangular subgroup S(alpha, beta) is implementable:
Gamma_S f(z) = f(alpha z) exp(-alpha beta z^2 / 2) conjugates (z, d/dz)
to (alpha z, beta z + d/alpha).  The witness against implementing the
rest of SL(2, C) is the Gaussian annihilated by z + s d/dz, which the
monomial seminorms cannot control.

The gauge rotations U(s) f(z) = f(e^{is} z) act diagonally on monomials,
so projecting onto gauge eigenvalue k keeps c_k z^k exactly: it is read
off the coefficients, with no sampling of U(s).
"""

import numpy as np

from kreinccr import TruncFn, annihilator_beta_minus, fourier_project, \
    rotation_family, seminorm, verify_implementation
from kreinccr.truncfn import apply_dz, apply_z

f = TruncFn.from_coeffs([1.0, 0.5, 0.0, 2.0], degree_cap=20)
for alpha, beta in ((0.8, 0.3), (0.5, -0.7), (0.9, 0.2 + 0.4j)):
    res = verify_implementation(alpha, beta, f)
    print(f"sigma(g) f = Gamma g Gamma^-1 f residual at (alpha, beta) = "
          f"({alpha}, {beta}): {res:.3e}")

for s in (1, -1, 1j):
    g = annihilator_beta_minus(s, 30)
    resid = apply_z(g) + s * apply_dz(g)
    print(f"(z + {s} d/dz) annihilator residual (|z| <= 1 seminorm): "
          f"{seminorm(resid, 1.0):.3e}")
print("growth of the annihilator witness, seminorm at R = 1, 2, 3:",
      [round(seminorm(annihilator_beta_minus(1, 30), r), 3) for r in (1, 2, 3)])

# gauge eigenvalue k is degree k: each projection is one coefficient
h = TruncFn.from_coeffs([1.0, 2.0, 3.0, 4.0], degree_cap=8)
for k in (0, 2, 5):
    proj = fourier_project(rotation_family, h, k)
    print(f"Fourier mode k = {k}: coefficients "
          f"{proj.coeffs.real[:5]}")
