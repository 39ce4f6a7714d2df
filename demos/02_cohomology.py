"""Differentials and degreewise cohomology of small models.

A free CDGA carries a degree +1 derivation given on generators; d^2 = 0
is validated at construction and cohomology is computed degree by
degree with exact sparse elimination.  Two independent engines can
recompute the ranks: a modular rank certified by exactly verified kernel
vectors (the sparse walk's image rows among them), and a dense eliminator.
"""

from ratimm import (FiniteCdga, FreeCdga, Generator, check_d_squared,
                    cohomology, parse_element, tensor)

# The standard model of the 2-sphere: Lambda(e2, x3) with d(x3) = e2^2.
s2 = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"},
              label="S2")
print("d(x3) =", s2.differential_of_generator("x3"))
print("Leibniz: d(e2*x3) =",
      s2.diff(parse_element("e2*x3", s2.algebra)))
print("d^2 residues:", check_d_squared(s2, 24))

table = cohomology(s2, 8)
print("H(S2 model):", table.dims)
print("representative in degree 2:", table.representatives[2][0])

# A finite-dimensional model: the cohomology of CP^2 with its cup product.
cp2 = FiniteCdga([("one", 0), ("a", 2), ("aa", 4)], {("a", "a"): "aa"},
                 label="CP2", simply_connected=True)
print("H(CP2):", cohomology(cp2, 6, representatives=False).dims)

# Tensor products implement the Kunneth formula on the nose.
s3 = FreeCdga([Generator("x", 3)], {}, label="S3")
s5 = FreeCdga([Generator("y", 5)], {}, label="S5")
print("H(S3 x S5):", cohomology(tensor(s3, s5), 9, representatives=False).dims)

# The production and dense engines agree (the dense one is the oracle;
# `ratimm cohomology` checks against engine="certified"):
sparse = cohomology(cp2, 6, representatives=False).dims
dense = cohomology(cp2, 6, representatives=False, engine="dense").dims
print("sparse == dense:", sparse == dense)
