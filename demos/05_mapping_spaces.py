"""Mapping spaces out of a manifold: EM products and even-sphere models.

Maps into S^k are the sections of the product bundle M x S^k.  Fibre
generators that are closed and that no twist mentions, such as the one
generator of an odd sphere (rationally Eilenberg-MacLane), split off as
factor lists read off the Betti numbers of the source.  The rest, the
pair of an even sphere, gets a genuine model for the constant-map
component, built on one generator per (fibre generator, dual basis
class) pair in positive degree and then cancelled down to a minimal
model.
"""

from ratimm import (FiniteCdga, cohomology, em_mapping_space, em_split,
                    sphere_bundle, sphere_manifold, sphere_map_null_model)

s2 = sphere_manifold(2)

# Maps into Eilenberg-MacLane spaces / odd spheres: pure bookkeeping.
print("Map(S2, K(Q,3)):", [str(f) for f in em_mapping_space(s2.betti(3), 3)])
factors, kept, _ = em_split(sphere_bundle(s2.model, 7))  # kept == []
print("Map(S2, S7):    ", [str(f) for f in factors])
print()

# The even-sphere null component needs a model: the section model of
# sphere_bundle(A, k), which splits off nothing.  Map(S2, S2, 0):
model = sphere_map_null_model(s2.model, 2)
print("Map(S2,S2,0) generators:",
      ", ".join(f"{g.name}({g.degree})" for g in model.algebra.generators))
for g in model.algebra.generators:
    d = model.differential_of_generator(g.name)
    if not d.is_zero():
        print(f"  D({g.name}) = {d}")
print("Betti:", cohomology(model, 10, representatives=False).dims)
print()

# Map(S3, S2, 0) is a rational 2-sphere:
model3 = sphere_map_null_model(sphere_manifold(3).model, 2)
print("Map(S3,S2,0) Betti:", cohomology(model3, 8, representatives=False).dims)
print()

# The model does not depend on how the source is presented.  A has
# d(y1) = d(y2) = a^2; B is A after y2 -> y2 - y1, so only d(y1) = a^2.
# Both null models cancel down to the same minimal model.
basis = [("one", 0), ("a", 2), ("y1", 3), ("y2", 3), ("a2", 4)]
for name, diff in (("A", {"y1": "a2", "y2": "a2"}), ("B", {"y1": "a2"})):
    source = FiniteCdga(basis, {("a", "a"): "a2"}, diff, label=name,
                        simply_connected=True)
    model = sphere_map_null_model(source, 4)
    print(f"Map({name},S4,0) generators:",
          ", ".join(f"{g.name}({g.degree})" for g in model.algebra.generators))
    print("  Betti:", cohomology(model, 8, representatives=False).dims)
