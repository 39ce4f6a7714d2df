"""Mapping-space factor lists, null-component models, normalization."""

import pytest

from ratimm.bundles import sphere_manifold, sphere_product_manifold, stiefel_model
from ratimm.cdga import CdgaMorphism, FiniteCdga, check_d_squared, cohomology
from ratimm.errors import ComponentObstruction
from ratimm.mapping import (dual_mapping_null_model, em_mapping_space,
                            odd_sphere_mapping, sigma_normalize,
                            sphere_map_null_model, sphere_model, EMFactor)
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
    s2 = sphere_manifold(2).betti(7)
    assert odd_sphere_mapping(s2, 7) == [EMFactor(1, 5), EMFactor(1, 7)]
    pt = cohomology(point_model(), 3, representatives=False)
    assert odd_sphere_mapping(pt, 3) == [EMFactor(1, 3)]
    s3 = sphere_manifold(3).betti(3)
    assert odd_sphere_mapping(s3, 3) == [EMFactor(1, 3)]
    with pytest.raises(ValueError):
        odd_sphere_mapping(s2, 4)


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
    target = sphere_model(4)
    calls = []
    expand = target.differential_of_generator

    def counted(name):
        calls.append(name)
        return expand(name)

    target.differential_of_generator = counted
    dual_mapping_null_model(nonformal_base(), target)  # closure kills x_y
    assert calls == ["x", "y"]


def test_null_model_kill_path():
    model = sphere_map_null_model(nonformal_base(), 4)
    assert [g.name for g in model.algebra.generators] == \
        ["x", "x_a", "y", "y_a", "y_y", "y_a2", "y_w"]
    diffs = {g.name: str(model.differential_of_generator(g.name))
             for g in model.algebra.generators}
    assert {name: d for name, d in diffs.items() if d != "0"} == \
        {"y": "x^2", "y_a": "2*x*x_a", "y_a2": "x_a^2 - y_y"}
    assert cohomology(model, 12, representatives=False).dims == \
        [1, 0, 2, 0, 4, 0, 5, 0, 6, 1, 7, 2, 8]


def test_odd_k_routed_away():
    with pytest.raises(ValueError):
        sphere_map_null_model(sphere_manifold(2).model, 3)


def test_non_simply_connected_source_rejected():
    circleish = FiniteCdga([("one", 0), ("t", 1)], {})
    with pytest.raises(ValueError):
        sphere_map_null_model(circleish, 2)


def test_only_unflagged_sources_are_walked_for_h1(monkeypatch):
    import ratimm.mapping as mapping
    walks = []

    def counted(model, cutoff, **kwargs):
        walks.append(model.label)
        return cohomology(model, cutoff, **kwargs)

    flagged = FiniteCdga([("one", 0), ("a", 2)], {}, label="flagged",
                         simply_connected=True)
    unflagged = FiniteCdga([("one", 0), ("a", 2)], {}, label="unflagged")
    monkeypatch.setattr(mapping, "cohomology", counted)
    models = [sphere_map_null_model(A, 4) for A in (flagged, unflagged)]
    assert walks == ["unflagged"]
    assert str(models[0].differential_of_generator("y")) == \
        str(models[1].differential_of_generator("y"))


def test_dual_model_of_stiefel_matches_product():
    # Map(S^3, V_3(R^5), 0): one big elimination against the factor product
    oracle = dual_mapping_null_model(sphere_manifold(3).model, stiefel_model(3, 2))
    table = cohomology(oracle, 12, representatives=False)
    assert table.dims == [1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1]


# -- sigma normalization ---------------------------------------------------------

def test_normalize_zero_map_fixed_point():
    cp2 = sphere_manifold(4).model
    sph = sphere_model(2)
    sigma = CdgaMorphism(sph, cp2, {"x": "0", "y": "0"})
    result = sigma_normalize(sigma)
    assert result.absorbed.is_zero() and result.primitive is None
    assert result.morphism.apply(sph.algebra.gen("x")).is_zero()
    assert result.morphism.apply(sph.algebra.gen("y")).is_zero()


def test_normalize_reports_absorbed_cocycle():
    s3 = sphere_manifold(3).model
    sph = sphere_model(2)
    sigma = CdgaMorphism(sph, s3, {"x": "0", "y": "a3"})
    result = sigma_normalize(sigma)
    assert str(result.absorbed) == "a3"
    assert result.primitive is None


def test_normalize_absorbs_exact_x_image():
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "a2", ("a", "y"): "w"}, {"y": "a2"},
                    label="NF", simply_connected=True)
    sph = sphere_model(4)
    sigma = CdgaMorphism(sph, nf, {"x": "a2", "y": "0"})
    result = sigma_normalize(sigma)
    assert result.primitive is not None
    assert nf.diff(result.primitive) == nf.algebra.gen("a2")
    assert nf.diff(result.absorbed).is_zero()


def test_normalize_obstruction_on_fundamental_class():
    s2 = sphere_manifold(2).model
    sph = sphere_model(2)
    sigma = CdgaMorphism(sph, s2, {"x": "a2", "y": "0"})
    with pytest.raises(ComponentObstruction):
        sigma_normalize(sigma)


def test_normalized_morphism_is_chain_map():
    s3 = sphere_manifold(3).model
    sph = sphere_model(2)
    sigma = CdgaMorphism(sph, s3, {"x": "0", "y": "2*a3"})
    result = sigma_normalize(sigma)
    result.morphism.validate()
