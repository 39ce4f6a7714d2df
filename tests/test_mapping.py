"""Mapping-space factor lists, section models and null-component models."""

from pathlib import Path

import pytest

from ratimm.bundles import (ManifoldModel, check_pontryagin_hypothesis,
                            framed_bundle_model, sphere_manifold,
                            sphere_product_manifold, stiefel_model)
from ratimm.cdga import (FiniteCdga, RelativeModel, TensorAlgebra, check_d_squared,
                         cohomology, tensor)
from ratimm.errors import InputError
from ratimm.gca import Element, FreeAlgebra, Generator
from ratimm.immersions import immersion_components
from ratimm.io import load_manifold
from ratimm.mapping import (em_mapping_space, em_split, section_model,
                            sphere_bundle, sphere_map_null_model,
                            sphere_model, EMFactor)
from ratimm.sweeps import nonformal_base


def point_model():
    return FiniteCdga([("one", 0)], {}, label="pt")


# -- Eilenberg-MacLane factor lists -------------------------------------------

def test_point_target_single_factor():
    betti = cohomology(point_model(), 7, representatives=False)
    assert em_mapping_space(betti, 7) == [EMFactor(1, 7)]


def test_s2_into_k3():
    betti = sphere_manifold(2).betti(3)
    assert em_mapping_space(betti, 3) == [EMFactor(1, 1), EMFactor(1, 3)]


def test_s2_into_k7():
    betti = sphere_manifold(2).betti(7)
    assert em_mapping_space(betti, 7) == [EMFactor(1, 5), EMFactor(1, 7)]


def test_multiplicities_from_betti():
    betti = sphere_product_manifold(2, 2).betti(5)  # b2 = 2
    factors = em_mapping_space(betti, 5)
    assert factors == [EMFactor(1, 1), EMFactor(2, 3), EMFactor(1, 5)]


def test_factor_count_and_total_rank_invariant():
    betti = sphere_product_manifold(2, 3).betti(9)
    n = 9
    factors = em_mapping_space(betti, n)
    assert len(factors) == sum(1 for q in range(1, n + 1) if betti.dims[n - q])
    assert sum(f.coefficient_dim for f in factors) == \
        sum(betti.dims[n - q] for q in range(1, n + 1))


def test_insufficient_betti_coverage():
    betti = sphere_manifold(2).betti(3)
    with pytest.raises(ValueError):
        em_mapping_space(betti, 5)


def test_odd_sphere_mapping_examples():
    # an odd sphere's one generator splits off whole: Map(M, S^k) is
    # Map(M, K(Q,k)); an even sphere's pair stays for the section model
    def factors(A, k):
        split, kept, _ = em_split(sphere_bundle(A, k))
        assert kept == []
        assert split == em_mapping_space(cohomology(A, k, representatives=False), k)
        return split

    assert factors(sphere_manifold(2).model, 7) == [EMFactor(1, 5), EMFactor(1, 7)]
    assert factors(point_model(), 3) == [EMFactor(1, 3)]
    assert factors(sphere_manifold(3).model, 3) == [EMFactor(1, 3)]
    split, kept, betti = em_split(sphere_bundle(sphere_manifold(2).model, 4))
    assert split == [] and [g.name for g in kept] == ["x", "y"] and betti.dims == [1, 0, 1]


# -- null-component sphere models ----------------------------------------------

def test_point_source_reproduces_sphere_model():
    model = sphere_map_null_model(point_model(), 4)
    assert [(g.name, g.degree) for g in model.algebra.generators] == \
        [("x", 4), ("y", 7)]
    assert str(model.differential_of_generator("y")) == "x^2"
    assert model.differential_of_generator("x").is_zero()


def test_map_s2_s2_null():
    model = sphere_map_null_model(sphere_manifold(2).model, 2)
    degrees = sorted(g.degree for g in model.algebra.generators)
    assert degrees == [1, 2, 3]
    table = cohomology(model, 10, representatives=False)
    assert table.dims == [1, 1, 1, 1] + [0] * 7


def test_map_s3_s2_null_is_rational_s2():
    model = sphere_map_null_model(sphere_manifold(3).model, 2)
    table = cohomology(model, 8, representatives=False)
    assert table.dims == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_null_models_satisfy_d_squared():
    for m in (2, 3, 4, 5):
        for k in (2, 4, 6):
            model = sphere_map_null_model(sphere_manifold(m).model, k)
            assert check_d_squared(model, 30) == [], f"(m={m}, k={k})"


def test_null_model_with_nonformal_source():
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "a2", ("a", "y"): "w"}, {"y": "a2"},
                    label="NF", simply_connected=True)
    model = sphere_map_null_model(nf, 4)
    assert check_d_squared(model, 30) == []
    table = cohomology(model, 8, representatives=False)
    assert table.dims[0] == 1


def test_null_model_expands_each_target_differential_once():
    E = sphere_bundle(nonformal_base(), 4)
    calls = []
    expand = E.twist_of

    def counted(name):
        calls.append(name)
        return expand(name)

    E.twist_of = counted
    section_model(E)  # cancels a pair
    assert calls == ["x", "y"]


def test_null_model_cancels_contractible_pair():
    # (y_a2, y_y) with d(y_a2) = x_a^2 - y_y is a contractible pair
    model = sphere_map_null_model(nonformal_base(), 4)
    assert [g.name for g in model.algebra.generators] == \
        ["x", "x_a", "y", "y_a", "y_w"]
    diffs = {g.name: str(model.differential_of_generator(g.name))
             for g in model.algebra.generators}
    assert {name: d for name, d in diffs.items() if d != "0"} == \
        {"y": "x^2", "y_a": "2*x*x_a"}
    assert cohomology(model, 12, representatives=False).dims == \
        [1, 0, 2, 0, 4, 0, 5, 0, 6, 1, 7, 2, 8]


# Betti numbers of the NF5 null model, as walked on its uncancelled
# quotient (7 generators at k = 4, 10 at k >= 6)
NF5_BETTI = {
    4: [1, 0, 2, 0, 4, 0, 5, 0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6, 12, 7, 13, 8, 14, 9, 15, 10, 16, 11, 17, 12, 18, 13, 19, 14, 20, 15, 21, 16, 22],
    6: [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 2, 3, 2, 2, 3, 3, 3, 3, 3, 4, 4, 3, 4, 5, 4, 4, 5, 5, 5, 5, 5, 6, 6, 5, 6, 7],
    8: [1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 2, 1, 0, 2, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 1, 3, 2, 1, 3, 2, 2, 3, 2],
    10: [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 2, 0, 1, 1, 0, 2, 1, 0, 2, 1, 1, 2, 0, 2],
}


@pytest.mark.parametrize("k", sorted(NF5_BETTI))
def test_nf5_null_model_betti_to_40(k):
    model = sphere_map_null_model(nonformal_base(), k)
    assert cohomology(model, 40, representatives=False).dims == NF5_BETTI[k]


NF5_SERIES = {
    6: [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5],
    8: [1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1],
    10: [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0],
}


@pytest.mark.parametrize("k", sorted(NF5_SERIES))
def test_nf5_immersion_growth(k):
    d = immersion_components(ManifoldModel(5, nonformal_base(), {}, name="NF5"), k, 15)
    assert d.growth == "polynomial(3)"
    assert list(d.series.coeffs) == NF5_SERIES[k]


def _source(basis, products, diff, label):
    return FiniteCdga(basis, products, diff, label=label, simply_connected=True)


# Each pair is one source in two presentations: the null-model Betti
# tables must agree.  The second source of the first pair is the first
# after y2 -> y2 - y1; the others add an acyclic pair (e, f; de = f) and
# change basis, so one basis element lies in the image of two.
PRESENTATIONS = {
    "A-B": (4, 8, [1, 1, 1, 1, 2, 2, 2, 2, 3],
            _source([("one", 0), ("a", 2), ("y1", 3), ("y2", 3), ("a2", 4)],
                    {("a", "a"): "a2"}, {"y1": "a2", "y2": "a2"}, "A"),
            _source([("one", 0), ("a", 2), ("y1", 3), ("y2", 3), ("a2", 4)],
                    {("a", "a"): "a2"}, {"y1": "a2"}, "B")),
    "S2xS4+pair": (2, 10, [1, 1, 1, 1] + [0] * 7,
                   sphere_product_manifold(2, 4).model,
                   _source([("one", 0), ("a4", 4), ("a2", 2), ("a2_a4", 6),
                            ("e2", 2), ("f3", 3)],
                           {("a4", "a2"): "a2_a4"}, {"a2": "-f3", "e2": "f3"},
                           "S2xS4+pair")),
    "S3xS3+pair": (4, 12, [1, 2, 2, 1, 1, 4, 5, 2, 2, 7, 8, 3, 3],
                   sphere_product_manifold(3, 3).model,
                   _source([("one", 0), ("a3", 3), ("a3_2", 3), ("a3_a3", 6),
                            ("e3", 3), ("f4", 4)],
                           {("a3", "e3"): "a3_a3"}, {"a3_2": "f4", "e3": "f4"},
                           "S3xS3+pair")),
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_null_model_independent_of_presentation(name):
    k, cutoff, expected, first, second = PRESENTATIONS[name]
    tables = [cohomology(sphere_map_null_model(A, k), cutoff,
                         representatives=False).dims for A in (first, second)]
    assert tables == [expected, expected]


def test_odd_k_routed_away():
    with pytest.raises(ValueError):
        sphere_map_null_model(sphere_manifold(2).model, 3)


def test_non_simply_connected_source_rejected():
    circleish = FiniteCdga([("one", 0), ("t", 1)], {})
    with pytest.raises(ValueError):
        sphere_map_null_model(circleish, 2)


def test_every_source_is_walked_once_for_h1(monkeypatch):
    # H^1 is read off em_split's table, flagged or not: one walk a call
    import ratimm.mapping as mapping
    walks = []

    def counted(model, cutoff, **kwargs):
        walks.append(model.label)
        return cohomology(model, cutoff, **kwargs)

    flagged = FiniteCdga([("one", 0), ("a", 2)], {}, label="flagged",
                         simply_connected=True)
    unflagged = FiniteCdga([("one", 0), ("a", 2)], {}, label="unflagged")
    s1xs2 = FiniteCdga([("one", 0), ("t", 1), ("a", 2), ("ta", 3)],
                       {("t", "a"): "ta"}, label="S1xS2")
    monkeypatch.setattr(mapping, "cohomology", counted)
    models = [sphere_map_null_model(A, 4) for A in (flagged, unflagged)]
    with pytest.raises(InputError, match="simply connected"):
        sphere_map_null_model(s1xs2, 4)
    assert walks == ["flagged", "unflagged", "S1xS2"]
    assert str(models[0].differential_of_generator("y")) == \
        str(models[1].differential_of_generator("y"))


def test_dual_model_of_stiefel_matches_product():
    # Map(S^3, V_3(R^5), 0): one big elimination against the factor product
    oracle = section_model(tensor(sphere_manifold(3).model, stiefel_model(3, 2)))
    table = cohomology(oracle, 12, representatives=False)
    assert table.dims == [1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1]


# -- section models ----------------------------------------------------------------

def test_section_model_names_generators_as_given():
    # the basis name x clashes with the sphere generator x, which the
    # bundle renames x_2; the section generators keep the given names
    A = FiniteCdga([("one", 0), ("x", 2)], {}, label="Sx", simply_connected=True)
    assert sphere_bundle(A, 4).renamings == {"x": "x_2"}
    model = sphere_map_null_model(A, 4)
    assert [(g.name, g.degree) for g in model.algebra.generators] == \
        [("x", 4), ("x_x", 2), ("y", 7), ("y_x", 5)]
    assert str(model.differential_of_generator("y_x")) == "2*x*x_x"


def _s2_bundle(twist):
    base = sphere_manifold(2).model
    return RelativeModel(base, [Generator("e2", 2), Generator("x3", 3)],
                         twist=twist, label="E")


def test_section_model_multiplies_in_the_base_part_of_a_twist():
    # D(x3) = a2 e2: the term (a2 (x) 1) * pairing(e2) gives
    # d(x3_a2) = e2, a contractible pair, so Lambda(x3) with d = 0
    twisted = section_model(_s2_bundle({"x3": "a2*e2"}))
    assert [(g.name, g.degree) for g in twisted.algebra.generators] == [("x3", 3)]
    assert twisted.differential_of_generator("x3").is_zero()
    untwisted = section_model(_s2_bundle({}))
    assert [(g.name, g.degree) for g in untwisted.algebra.generators] == \
        [("e2", 2), ("x3", 3), ("x3_a2", 1)]
    assert all(untwisted.differential_of_generator(g.name).is_zero()
               for g in untwisted.algebra.generators)


def test_section_model_needs_a_finite_base():
    free = sphere_model(3)
    with pytest.raises(ValueError, match="finite-dimensional"):
        section_model(sphere_bundle(free, 4))


# The null models of the demo manifolds as the dual mapping model gave
# them before it became `section_model`: (name, degree, d) per generator
DEMO_NULL_MODELS = {
    ("cp2", 2): [("x", 2, "0"), ("y", 3, "x^2"), ("y_a", 1, "0")],
    ("cp2", 4): [("x", 4, "0"), ("x_a", 2, "0"), ("y", 7, "x^2"),
                 ("y_a", 5, "2*x*x_a"), ("y_aa", 3, "x_a^2")],
    ("cp2", 6): [("x", 6, "0"), ("x_a", 4, "0"), ("x_aa", 2, "0"),
                 ("y", 11, "x^2"), ("y_a", 9, "2*x*x_a"),
                 ("y_aa", 7, "2*x*x_aa + x_a^2")],
    ("s2", 2): [("x", 2, "0"), ("y", 3, "x^2"), ("y_a2", 1, "0")],
    ("s2", 4): [("x", 4, "0"), ("x_a2", 2, "0"), ("y", 7, "x^2"),
                ("y_a2", 5, "2*x*x_a2")],
    ("s2", 6): [("x", 6, "0"), ("x_a2", 4, "0"), ("y", 11, "x^2"),
                ("y_a2", 9, "2*x*x_a2")],
    ("s3", 2): [("x", 2, "0"), ("y", 3, "x^2")],
    ("s3", 4): [("x", 4, "0"), ("x_a3", 1, "0"), ("y", 7, "x^2"),
                ("y_a3", 4, "-2*x*x_a3")],
    ("s3", 6): [("x", 6, "0"), ("x_a3", 3, "0"), ("y", 11, "x^2"),
                ("y_a3", 8, "-2*x*x_a3")],
    ("s4", 2): [("x", 2, "0"), ("y", 3, "x^2")],
    ("s4", 4): [("x", 4, "0"), ("y", 7, "x^2"), ("y_a4", 3, "0")],
    ("s4", 6): [("x", 6, "0"), ("x_a4", 2, "0"), ("y", 11, "x^2"),
                ("y_a4", 7, "2*x*x_a4")],
    ("s5", 2): [("x", 2, "0"), ("y", 3, "x^2")],
    ("s5", 4): [("x", 4, "0"), ("y", 7, "x^2"), ("y_a5", 2, "0")],
    ("s5", 6): [("x", 6, "0"), ("x_a5", 1, "0"), ("y", 11, "x^2"),
                ("y_a5", 6, "-2*x*x_a5")],
}
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
DEMO_NULL_MODELS.update({("cp2_flat", k): DEMO_NULL_MODELS["cp2", k]
                         for k in (2, 4, 6)})


def _described(model):
    return [(g.name, g.degree, str(model.differential_of_generator(g.name)))
            for g in model.algebra.generators]


@pytest.mark.parametrize("name,k", sorted(DEMO_NULL_MODELS))
def test_section_model_of_a_product_is_the_null_model(name, k):
    M = load_manifold(DATA / f"{name}.manifold")
    model = section_model(tensor(M.model, sphere_model(k)))
    assert _described(model) == DEMO_NULL_MODELS[name, k]


def _rebuilt_rest(E):
    """E on the fibre generators that `em_split` keeps, rebuilt as a
    relative model of its own with its twist re-indexed (None if none
    is kept): the route to their section model that reads no part of E
    in place."""
    gens = E.given
    twists = [E.twist_of(g.name) for g in gens]
    fibre = E.fiber
    mentioned = {i for dv in twists for _, fm in dv.terms for i, _ in fibre.factors(fm)}
    keep = [i for i, dv in enumerate(twists) if dv.terms or i in mentioned]
    if not keep:
        return None
    index = {i: n for n, i in enumerate(keep)}
    alg = TensorAlgebra(E.base.algebra, FreeAlgebra([gens[i] for i in keep]))
    twist = {gens[i].name: Element(alg, {
                 (lk, alg.right.key_of((index[j], e) for j, e in fibre.factors(fm))): c
                 for (lk, fm), c in twists[i].terms.items()})
             for i in keep}
    return RelativeModel(E.base, alg.right.generators, twist, label=E.label)


# CP^2 at k = 2 fails the Pontryagin hypothesis: p_1 != 0 enters the
# twist, and its framed model has no null section to model
@pytest.mark.parametrize("name,k", [
    (name, k) for name in sorted(p.stem for p in DATA.glob("*.manifold"))
    for k in range(2, 9) if (name, k) != ("cp2", 2)] + [("S5", 4)])
def test_section_model_of_the_kept_generators_matches_the_rebuilt_rest(name, k):
    M = sphere_manifold(5) if name == "S5" else load_manifold(DATA / f"{name}.manifold")
    assert not check_pontryagin_hypothesis(M, k)[1]
    E = framed_bundle_model(M, k)
    _, kept, _ = em_split(E)
    rest = _rebuilt_rest(E)
    if rest is None:
        assert kept == []
        return
    assert kept == list(rest.given)
    assert _described(section_model(E, kept, label="L")) == \
        _described(section_model(rest, label="L"))


def test_section_model_needs_every_generator_a_twist_mentions():
    E = sphere_bundle(sphere_manifold(2).model, 4)
    y = E.given[1]
    with pytest.raises(InputError, match="twist of y mentions x, which is not sectioned"):
        section_model(E, [y])
    x_only = section_model(E, E.given[:1])
    assert [g.name for g in x_only.algebra.generators] == ["x", "x_a2"]
    # a generator that is not E's, or one given twice, names itself
    x = E.given[0]
    with pytest.raises(InputError, match="z of degree 4 is not a fibre generator"):
        section_model(E, [x, Generator("z", 4)])
    with pytest.raises(InputError, match="x of degree 2 is not a fibre generator"):
        section_model(E, [Generator("x", 2), y])
    with pytest.raises(InputError, match="fibre generator x is given twice"):
        section_model(E, [x, y, x])


def test_section_model_names_a_basis_element_that_gives_no_generator_name():
    # FiniteAlgebra takes any basis name; the section generator x_u is
    # named after u, so u must keep it an identifier
    A = FiniteCdga([("one", 0), ("a-b", 2)], {}, label="D", simply_connected=True)
    with pytest.raises(InputError, match="basis element 'a-b' of D gives the generator "
                                         "name 'x_a-b', which is not an identifier"):
        section_model(sphere_bundle(A, 4))


def test_section_model_without_a_null_section_is_an_input_error():
    # on CP^2 at k = 2, D(x1) = e2^2 + 3*aa: x1 against aa asks 3 = 0
    E = framed_bundle_model(load_manifold(DATA / "cp2.manifold"), 2)
    with pytest.raises(InputError, match="equation of x1 at aa has the constant term 3"):
        section_model(E)


def _full_walk(E, kept):
    """A walk of E's base to its top degree or the largest split degree,
    whichever is higher, and em_split's factors as that walk gives them,
    q = 1..n for each split degree n."""
    split = [g.degree for g in E.given if g not in kept]
    betti = cohomology(E.base, max(split + [E.base.algebra.top_degree]),
                       representatives=False)
    factors = [EMFactor(betti.dims[n - q], q) for n in split for q in range(1, n + 1)
               if betti.dims[n - q]]
    return betti, sorted(factors, key=lambda f: (f.degree, -f.coefficient_dim))


def test_em_split_walks_the_base_to_its_top_degree_only(monkeypatch):
    # H(M) vanishes above M's top degree: the one walk goes there, whatever
    # splits, its factors are those of a walk to the largest split degree,
    # and its table is that walk's up to where it stopped, all zeros after
    from ratimm import mapping
    walked = []
    walk = mapping.cohomology

    def recorded(cdga, cutoff, **kwargs):
        walked.append((cdga, cutoff))
        return walk(cdga, cutoff, **kwargs)

    checked = 0
    for path in sorted(DATA.glob("*.manifold")):
        M = load_manifold(path)
        top = M.model.algebra.top_degree
        for k in range(2, 41):
            for framed, E in ((False, sphere_bundle(M.model, k)),
                              (True, framed_bundle_model(M, k))):
                monkeypatch.setattr(mapping, "cohomology", recorded)
                walked.clear()
                factors, kept, betti = em_split(E)
                monkeypatch.undo()
                assert walked == [(E.base, top)], (path.stem, k)
                full, full_factors = _full_walk(E, kept)
                assert factors == full_factors, (path.stem, k)
                assert betti.cutoff == top, (path.stem, k)
                assert betti.dims == full.dims[:top + 1], (path.stem, k)
                assert not any(full.dims[top + 1:]), (path.stem, k)
                checked += bool(factors)
    assert checked > 300


def test_em_split_of_an_empty_fibre_is_the_table_of_the_base():
    # nothing to split or keep: the table still comes, to the top degree
    # of a finite base, and to degree 0 of a free base with no top degree
    cp2 = load_manifold(DATA / "cp2.manifold").model
    free = sphere_model(2)
    for A, cutoff in ((cp2, 4), (free, 0), (sphere_model(3), 3)):
        factors, kept, betti = em_split(RelativeModel(A, [], label="bare"))
        assert factors == [] and kept == [], A.label
        assert betti == cohomology(A, cutoff, representatives=False), A.label
