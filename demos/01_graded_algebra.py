"""Exact arithmetic in free graded-commutative algebras.

Elements are rational linear combinations of monomials in graded
generators; odd generators anticommute and square to zero, even ones
commute, and every coefficient is an exact fraction.
"""

from ratimm import FreeAlgebra, Generator, parse_element

# Declare an algebra on two odd and one even generator.  Declaration
# order fixes the canonical monomial order, so printing is deterministic.
alg = FreeAlgebra([Generator("u", 3), Generator("v", 3), Generator("a", 2)])

u, v, a = alg.gen("u"), alg.gen("v"), alg.gen("a")

print("odd generators anticommute:  u*v =", u * v, "   v*u =", v * u)
print("odd squares vanish:          u*u =", u * u)
print("even generators are tame:    (2a)*(3a) =", (2 * a) * (3 * a))

# The Koszul sign appears in mixed products as well:
print("u * (a*v) =", u * (a * v), "   (a*v) * u =", (a * v) * u)

# Monomial bases per degree are enumerated exactly, in graded-lex order.
for n in range(0, 9):
    names = [alg.format_key(m) for m in alg.basis_of_degree(n)]
    print(f"degree {n}: {names}")

# Expressions parse through a small grammar (rationals as p/q):
e = parse_element("3/2*a^2 - u*v + a", alg)
print("parsed:", e)
print("squared:", e * e)

# Parsing is strict about gradedness: an odd power is rejected.
try:
    parse_element("u^2", alg)
except Exception as exc:
    print("rejected as expected:", exc)
