"""A finite algebra's product table: one entry per given product.

`FiniteAlgebra` stores each product of two non-unit basis elements once,
for u <= v, and derives the other orientation (Koszul sign) and the unit
rows in `mul_key_pairs`.  Pinned here: every product and serialization
of a set of finite models, byte for byte as before the store changed;
the size of the store; and the exact rejection of a table that breaks
graded commutativity, the unit law or a product's degree.
"""

import hashlib
from pathlib import Path

import pytest

from ratimm.bundles import complex_projective_plane, sphere_manifold, sphere_product_manifold
from ratimm.cdga import FiniteAlgebra, FiniteCdga, cohomology, tensor
from ratimm.errors import DegreeError
from ratimm.io import load_cdga, load_manifold, serialize_cdga
from ratimm.sweeps import nonformal_base

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN_INPUTS = ROOT / "tests" / "golden" / "inputs"

# sha256 of `_digest_lines` over `_finite_models`, taken before the
# product store held one entry per pair
PRODUCTS_SHA256 = "0687889b983314eddd608fe883a32af32bbfd21602b53f67ad5c2e4f6db05654"


def _finite_models():
    models = [(path.name, load_manifold(path).model) for path in sorted(DATA.glob("*.manifold"))]
    models += [(path.name, load_cdga(path)) for path in sorted(GOLDEN_INPUTS.glob("*.cdga"))]
    models = [(name, model) for name, model in models if isinstance(model, FiniteCdga)]
    models += [(f"S{m}", sphere_manifold(m).model) for m in range(2, 8)]
    models += [(f"S{i}xS{j}", sphere_product_manifold(i, j).model)
               for i in range(2, 6) for j in range(2, 6)]
    models.append(("CP2", complex_projective_plane().model))
    nf5 = nonformal_base()
    nf5_2 = tensor(nf5, nf5)
    models += [("NF5", nf5), ("NF5^2", nf5_2), ("NF5^3", tensor(nf5_2, nf5))]
    # products of fractional coefficients that are integral
    half = FiniteCdga([("one", 0), ("a", 2), ("b", 4)], {("a", "a"): "1/2*b"})
    double = FiniteCdga([("one", 0), ("x", 2), ("y", 4)], {("x", "x"): "2*y"})
    models.append(("half(x)double", tensor(half, double)))
    return models


def _digest_lines(name, model):
    alg = model.algebra
    n = len(alg.basis)
    yield name
    for i in range(n):
        yield repr([alg.mul_key_pairs(i, j) for j in range(n)])
    yield serialize_cdga(model)


def test_products_and_serialization_unchanged():
    digest = hashlib.sha256()
    models = _finite_models()
    for name, model in models:
        for line in _digest_lines(name, model):
            digest.update(line.encode() + b"\n")
    assert len(models) == 34
    assert digest.hexdigest() == PRODUCTS_SHA256


def test_store_holds_each_nonzero_product_once():
    nf5 = nonformal_base()
    alg = tensor(tensor(nf5, nf5), nf5).algebra
    n = len(alg.basis)
    nonunit = [u for u in range(n) if u != alg.unit]
    nonzero = [(u, v) for u in nonunit for v in nonunit if u <= v and alg.mul_key_pairs(u, v)]
    assert n * n == 15625
    assert sorted(alg._table) == nonzero and len(nonzero) == 743


def test_mirror_takes_the_koszul_sign():
    alg = FiniteAlgebra([("one", 0), ("x", 3), ("y", 3), ("a", 2), ("z", 6), ("w", 5)],
                        {("y", "x"): "-z", ("x", "a"): "w"})
    assert alg.mul_key_pairs(1, 2) == [(4, 1)] and alg.mul_key_pairs(2, 1) == [(4, -1)]
    assert alg.mul_key_pairs(3, 1) == alg.mul_key_pairs(1, 3) == [(5, 1)]
    assert alg.mul_key_pairs(0, 2) == alg.mul_key_pairs(2, 0) == [(2, 1)]
    assert alg.mul_key_pairs(1, 1) == alg.mul_key_pairs(3, 4) == []


@pytest.mark.parametrize("basis, products, error, message, product", [
    # two orientations that disagree, once with the Koszul sign
    ([("one", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 4)],
     {("b", "a"): "c", ("a", "b"): "d"}, ValueError,
     "products for (a,b) violate graded commutativity", None),
    ([("one", 0), ("x", 3), ("y", 3), ("z", 6)],
     {("x", "y"): "z", ("y", "x"): "z"}, ValueError,
     "products for (x,y) violate graded commutativity", None),
    # several conflicts: the least pair is named, whatever the given order
    ([("one", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 4), ("e", 6)],
     {("c", "b"): "e", ("b", "c"): "0", ("b", "a"): "c", ("a", "b"): "d"}, ValueError,
     "products for (a,b) violate graded commutativity", None),
    # a nonzero odd square, alone and beside a later conflict
    ([("one", 0), ("x", 3), ("z", 6)], {("x", "x"): "z"}, ValueError,
     "products for (x,x) violate graded commutativity", None),
    ([("one", 0), ("x", 3), ("y", 3), ("z", 6)],
     {("y", "x"): "z", ("x", "y"): "z", ("x", "x"): "z"}, ValueError,
     "products for (x,x) violate graded commutativity", None),
    # the unit law and a product's degree, checked on every value first
    ([("one", 0), ("a", 2), ("b", 2)], {("one", "a"): "a + b"}, ValueError,
     "product one*a breaks the unit law; expected a", ("one", "a")),
    ([("one", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 4)],
     {("b", "a"): "c", ("a", "b"): "d", ("a", "a"): "a"}, DegreeError,
     "product a*a has a degree-2 term; expected degree 4", ("a", "a")),
])
def test_rejected_table_messages(basis, products, error, message, product):
    with pytest.raises(error) as err:
        FiniteAlgebra(basis, products)
    assert str(err.value) == message
    assert getattr(err.value, "product", None) == product


def test_product_values_are_expressions():
    with pytest.raises(TypeError):
        FiniteAlgebra([("one", 0), ("a", 2), ("b", 4)], {("a", "a"): {"b": 1}})


def test_finite_cdga_takes_products_with_its_algebra():
    basis = [("one", 0), ("a", 2), ("aa", 4)]
    with pytest.raises(TypeError):
        FiniteCdga(FiniteAlgebra(basis, {}), {("a", "a"): "aa"})
    cdga = FiniteCdga(FiniteAlgebra(basis, {("a", "a"): "aa"}))
    assert cohomology(cdga, 4, representatives=False).dims == [1, 0, 1, 0, 1]
