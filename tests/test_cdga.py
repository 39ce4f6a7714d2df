"""Differentials, cohomology, tensor products, quasi-isomorphisms."""

import random
from fractions import Fraction

import pytest

from ratimm.cdga import (CdgaMorphism, FiniteCdga, FreeCdga, RelativeModel,
                         check_d_squared, cohomology, extend_derivation,
                         is_quasi_iso, tensor, unit_cdga)
from ratimm.errors import ChainMapError, DegreeError
from ratimm.gca import Generator, parse_element


@pytest.fixture
def s2_model():
    return FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"},
                    label="S2")


@pytest.fixture
def cp2():
    return FiniteCdga([("one", 0), ("a", 2), ("aa", 4)], {("a", "a"): "aa"},
                      label="CP2", simply_connected=True)


# -- derivations -------------------------------------------------------------

def test_derivation_on_generator(s2_model):
    alg = s2_model.algebra
    assert extend_derivation(s2_model, alg.gen("x3")) == parse_element("e2^2", alg)


def test_leibniz_even_first_factor(s2_model):
    alg = s2_model.algebra
    d = extend_derivation(s2_model, parse_element("e2*x3", alg))
    assert d == parse_element("e2^3", alg)


def test_derivation_kills_closed_product():
    cdga = FreeCdga([Generator("x3", 3), Generator("y3", 3)], {})
    alg = cdga.algebra
    assert extend_derivation(cdga, parse_element("x3*y3", alg)).is_zero()


def test_derivation_sign_on_odd_prefix():
    # d(x3 * e2) = -x3 * d(e2)? here d(e2)=0; use d on second odd factor:
    # d(x3*y3) with dy3 = b4: equals -x3*b4
    cdga = FreeCdga([Generator("x3", 3), Generator("y3", 3), Generator("b4", 4)],
                    {"y3": "b4"})
    alg = cdga.algebra
    d = extend_derivation(cdga, parse_element("x3*y3", alg))
    assert d == parse_element("-x3*b4", alg)


def test_differential_raises_degree_by_one(s2_model):
    alg = s2_model.algebra
    elt = parse_element("e2*x3", alg)
    assert extend_derivation(s2_model, elt).degree() == elt.degree() + 1


# -- d^2 checks --------------------------------------------------------------

def test_d_squared_clean(s2_model):
    assert check_d_squared(s2_model, 24) == []


def test_d_squared_catches_corruption():
    # dx3 = e2^2 + b4 with db4 = w5 breaks d^2 = 0
    bad = FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("b4", 4),
                    Generator("w5", 5)],
                   {"x3": "e2^2 + b4", "b4": "w5"}, check=False)
    violations = check_d_squared(bad, 24)
    assert violations and violations[0].generator == "x3"
    with pytest.raises(ValueError):
        FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("b4", 4),
                  Generator("w5", 5)],
                 {"x3": "e2^2 + b4", "b4": "w5"})


def test_d_squared_zero_differential():
    cdga = FreeCdga([Generator("a", 2), Generator("u", 5)], {})
    assert check_d_squared(cdga, 30) == []


def test_wrong_degree_differential_rejected():
    with pytest.raises(DegreeError):
        FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2"})


# -- cohomology --------------------------------------------------------------

def test_exterior_on_one_odd_generator():
    cdga = FreeCdga([Generator("x3", 3)], {})
    assert cohomology(cdga, 5).dims == [1, 0, 0, 1, 0, 0]


def test_rational_two_sphere(s2_model):
    assert cohomology(s2_model, 6).dims == [1, 0, 1, 0, 0, 0, 0]


def test_representatives_are_cocycles_spanning(s2_model):
    table = cohomology(s2_model, 6, representatives=True)
    for n, reps in enumerate(table.representatives):
        assert len(reps) == table.dims[n]
        for rep in reps:
            assert s2_model.diff(rep).is_zero()


def test_dense_engine_agrees(s2_model, cp2):
    for cdga in (s2_model, cp2):
        sp = cohomology(cdga, 8, representatives=False)
        de = cohomology(cdga, 8, representatives=False, engine="dense")
        assert sp.dims == de.dims


def test_rank_only_representative_and_dense_paths_agree():
    from ratimm.bundles import sphere_product_manifold, stiefel_model
    from ratimm.mapping import sphere_map_null_model
    null = sphere_map_null_model(sphere_product_manifold(2, 4).model, 8)
    for cdga, cutoff in ((stiefel_model(7, 4), 20), (null, 24)):
        rank_only = cohomology(cdga, cutoff, representatives=False)
        with_reps = cohomology(cdga, cutoff, representatives=True)
        dense = cohomology(cdga, cutoff, engine="dense")
        assert rank_only.dims == with_reps.dims == dense.dims
        assert rank_only.representatives is None
        assert [len(r) for r in with_reps.representatives] == with_reps.dims


def test_finite_cdga_with_differential():
    # basis 1, a2, y3, a4=a^2, w5=a*y with dy = a^2: rationally a point up to 5?
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "a2", ("a", "y"): "w"},
                    {"y": "a2"}, label="NF", simply_connected=True)
    dims = cohomology(nf, 5).dims
    assert dims[0] == 1 and dims[1] == 0
    # Euler characteristic window equality for the full finite complex
    chain_euler = sum((-1) ** d for _, d in nf.algebra.basis)
    coh_euler = sum((-1) ** n * b for n, b in enumerate(dims))
    assert chain_euler == coh_euler


def test_cohomology_independent_of_generator_order():
    a = FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("w5", 5)],
                 {"x3": "e2^2"})
    b = FreeCdga([Generator("w5", 5), Generator("x3", 3), Generator("e2", 2)],
                 {"x3": "e2^2"})
    assert cohomology(a, 12, representatives=False).dims == \
        cohomology(b, 12, representatives=False).dims


# -- tensor products ---------------------------------------------------------

def test_kunneth_odd_spheres():
    s3 = FreeCdga([Generator("x", 3)], {})
    s5 = FreeCdga([Generator("y", 5)], {})
    prod = tensor(s3, s5)
    assert cohomology(prod, 8, representatives=False).support() == [0, 3, 5, 8]


def test_tensor_with_unit_algebra(s2_model):
    prod = tensor(s2_model, unit_cdga())
    assert cohomology(prod, 6, representatives=False).dims == \
        cohomology(s2_model, 6, representatives=False).dims


def test_tensor_renames_on_clash():
    a = FreeCdga([Generator("x", 3)], {})
    b = FreeCdga([Generator("x", 5)], {})
    prod = tensor(a, b)
    names = [g.name for g in prod.algebra.generators]
    assert names == ["x", "x_2"] and prod.renamings == {"x": "x_2"}


def test_kunneth_two_spheres(s2_model):
    other = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"})
    prod = tensor(s2_model, other)
    assert cohomology(prod, 8, representatives=False).dims == \
        [1, 0, 2, 0, 1, 0, 0, 0, 0]


def _convolve(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1 - i]):
            out[i + j] += x * y
    return out


def test_kunneth_randomized_free_pairs():
    rng = random.Random(7)
    pool = [
        FreeCdga([Generator("x", 3)], {}),
        FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"}),
        FreeCdga([Generator("a", 4), Generator("u", 7)], {"u": "a^2"}),
        FreeCdga([Generator("w", 5)], {}),
    ]
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        n = 10
        prod = tensor(a, b)
        ta = cohomology(a, n, representatives=False).dims
        tb = cohomology(b, n, representatives=False).dims
        tp = cohomology(prod, n, representatives=False).dims
        assert tp == _convolve(ta, tb, n)


def test_kunneth_finite_pairs(cp2):
    s2f = FiniteCdga([("one", 0), ("b", 2)], {}, label="S2f")
    prod = tensor(cp2, s2f)
    ta = cohomology(cp2, 8, representatives=False).dims
    tb = cohomology(s2f, 8, representatives=False).dims
    tp = cohomology(prod, 8, representatives=False).dims
    assert tp == _convolve(ta, tb, 8)


def test_kunneth_mixed_relative(cp2):
    s3 = FreeCdga([Generator("x", 3)], {})
    rel = tensor(cp2, s3)
    assert isinstance(rel, RelativeModel)
    tp = cohomology(rel, 8, representatives=False).dims
    ta = cohomology(cp2, 8, representatives=False).dims
    tb = cohomology(s3, 8, representatives=False).dims
    assert tp == _convolve(ta, tb, 8)
    # mirrored order
    rel2 = tensor(s3, cp2)
    assert cohomology(rel2, 8, representatives=False).dims == tp


# -- finite algebra validation -----------------------------------------------

def test_two_units_rejected():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("two", 0)], {})


def test_nonassociative_table_rejected():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("a", 2), ("b", 4), ("c", 6)],
                   {("a", "a"): "b", ("a", "b"): "0", ("b", "a"): "c"})


def test_graded_commutativity_conflict_rejected():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("u", 3), ("v", 3), ("w", 6)],
                   {("u", "v"): "w", ("v", "u"): "w"})


def test_leibniz_violation_rejected():
    # d(a)=0, d(aa)=w but Leibniz forces d(a*a) = 0
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("a", 2), ("aa", 4), ("w", 5)],
                   {("a", "a"): "aa"}, {"aa": "w"})


def test_simply_connected_flag_checks_h1():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("t", 1)], {}, simply_connected=True)


# -- morphisms and quasi-isomorphisms ----------------------------------------

def test_identity_is_quasi_iso(s2_model):
    assert is_quasi_iso(CdgaMorphism.identity(s2_model), 10).ok


def test_finite_identity_is_quasi_iso(cp2):
    assert is_quasi_iso(CdgaMorphism.identity(cp2), 6).ok


def test_non_chain_map_rejected(s2_model):
    src = FreeCdga([Generator("x3", 3)], {})
    with pytest.raises(ChainMapError) as err:
        CdgaMorphism(src, s2_model, {"x3": "x3"})
    assert err.value.generator == "x3"


def test_zero_map_fails_quasi_iso():
    src = FreeCdga([Generator("x3", 3)], {})
    zero_map = CdgaMorphism(src, src, {"x3": "0"})
    report = is_quasi_iso(zero_map, 5)
    assert not report.ok and 3 in report.failing_degrees()


def test_cocycle_becoming_exact_fails():
    # a chain map may send a nonzero class onto an exact cocycle (the
    # reverse is impossible for chain maps); that must fail the check
    src = FreeCdga([Generator("b4", 4)], {})
    tgt = FreeCdga([Generator("b4", 4), Generator("x3", 3)], {"x3": "b4"})
    f = CdgaMorphism(src, tgt, {"b4": "b4"})
    report = is_quasi_iso(f, 8)
    assert not report.ok and 4 in report.failing_degrees()


def test_quasi_iso_needs_injectivity_not_just_dimensions():
    # both sides have H^3 and H^5 of rank 1; f sends the degree-3 class to 0
    # and the degree-5 class to the degree-5 class: dims match in every
    # degree except none... construct: source Λ(u3, w5), target Λ(v3, z5),
    # f(u3)=0, f(w5)=z5: H^3 dims equal (1) but induced map kills u3.
    src = FreeCdga([Generator("u", 3), Generator("w", 5)], {})
    tgt = FreeCdga([Generator("v", 3), Generator("z", 5)], {})
    f = CdgaMorphism(src, tgt, {"u": "0", "w": "z"})
    report = is_quasi_iso(f, 6)
    assert not report.ok and 3 in report.failing_degrees()
