"""Normal ordering and exact commutator algebra.

Words in the holomorphic generators (z, d/dz) or the ladder pair (a, a*)
are expanded by Wick's theorem into the unique creation-left form, with
exact coefficients in Q(i, sqrt 2).
"""

from kreinccr import HEISENBERG, HOLOMORPHIC, AlgebraElement, commutator, \
    format_element, normal_order

z = AlgebraElement.generator(HOLOMORPHIC, "z")
d = AlgebraElement.generator(HOLOMORPHIC, "d")

print("d z             =", format_element(d * z))
print("(d z)^2         =", format_element((d * z) ** 2))
print("[d, z]          =", format_element(commutator(d, z)))

a = AlgebraElement.generator(HEISENBERG, "a")
astar = AlgebraElement.generator(HEISENBERG, "a*")
number = astar * a

print("[a* a, a*]      =", format_element(commutator(number, astar)))
print("[a* a, a]       =", format_element(commutator(number, a)))
print("(a + a*)^3      =", format_element((a + astar) ** 3))

# the *-involution reverses words and conjugates coefficients
x = a * a * astar
print("(a a a*)*       =", format_element(x.star()))
