"""Classifying-space, Stiefel, and framed-bundle model constructors."""

import pytest

from ratimm.bundles import (ManifoldModel, borel_assoc_model, bso_model,
                            check_pontryagin_hypothesis,
                            complex_projective_plane, framed_bundle_model,
                            is_rationally_trivial, sphere_manifold,
                            sphere_product_manifold, stiefel_model,
                            unreduced_framed_model)
from ratimm.cdga import (CdgaMorphism, FiniteCdga, FreeCdga, RelativeModel,
                         check_d_squared, cohomology, is_quasi_iso, tensor,
                         unit_cdga)
from ratimm.errors import ContextError, DegreeError
from ratimm.gca import FreeAlgebra, Generator, parse_element


# -- BSO models --------------------------------------------------------------

def test_bso_odd_rank():
    b = bso_model(3)
    assert [(g.name, g.degree) for g in b.algebra.generators] == [("p1", 4)]


def test_bso_rank_two_is_euler_only():
    b = bso_model(2)
    assert [(g.name, g.degree) for g in b.algebra.generators] == [("e2", 2)]


def test_bso_rank_four():
    b = bso_model(4)
    assert [(g.name, g.degree) for g in b.algebra.generators] == \
        [("p1", 4), ("e4", 4)]


def test_bso_rank_below_two_rejected():
    with pytest.raises(ValueError):
        bso_model(1)


# -- Stiefel models ----------------------------------------------------------

def test_stiefel_odd_odd_case():
    v = stiefel_model(3, 3)  # m=2l+1 (l=1), k=2s+1 (s=1)
    assert [(g.name, g.degree) for g in v.algebra.generators] == \
        [("x2", 7), ("ebar5", 5)]
    assert all(v.differential_of_generator(g.name).is_zero()
               for g in v.algebra.generators)


def test_stiefel_even_odd_case():
    v = stiefel_model(2, 3)
    assert [(g.name, g.degree) for g in v.algebra.generators] == [("x2", 7)]


def test_stiefel_odd_even_case():
    v = stiefel_model(3, 2)
    assert [(g.name, g.degree) for g in v.algebra.generators] == \
        [("x1", 3), ("x2", 7), ("e2", 2)]
    assert str(v.differential_of_generator("x1")) == "e2^2"
    assert v.differential_of_generator("x2").is_zero()


def test_stiefel_even_even_case():
    v = stiefel_model(2, 2)
    assert [(g.name, g.degree) for g in v.algebra.generators] == \
        [("x1", 3), ("ebar3", 3), ("e2", 2)]
    assert str(v.differential_of_generator("x1")) == "e2^2"


def test_stiefel_degree_pattern_k_odd():
    for m in range(2, 8):
        for k in (3, 5, 7):
            s, l = k // 2, m // 2
            v = stiefel_model(m, k)
            xs = sorted(g.degree for g in v.algebra.generators
                        if g.name.startswith("x"))
            assert xs == [4 * i - 1 for i in range(s + 1, l + s + 1)]
            has_top = any(g.name.startswith("ebar") for g in v.algebra.generators)
            assert has_top == (m % 2 == 1)


def test_stiefel_one_frame_is_sphere():
    # V_1(R^{1+k}) = S^k
    assert cohomology(stiefel_model(1, 4), 8, representatives=False).support() == [0, 4]
    assert cohomology(stiefel_model(1, 5), 8, representatives=False).support() == [0, 5]


def test_stiefel_codimension_below_two_rejected():
    with pytest.raises(ValueError):
        stiefel_model(2, 1)


# -- Betti tables (derived via the independent dense oracle) ------------------

@pytest.mark.parametrize("m,k,support", [
    (2, 2, [0, 2, 3, 5]),
    (2, 3, [0, 7]),
    (3, 2, [0, 2, 7, 9]),
])
def test_stiefel_betti_supports(m, k, support):
    sparse = cohomology(stiefel_model(m, k), 10, representatives=False)
    dense = cohomology(stiefel_model(m, k), 10, representatives=False,
                       engine="dense")
    assert sparse.dims == dense.dims
    assert sparse.support() == support


# -- manifold inputs ----------------------------------------------------------

def test_manifold_rejects_out_of_range_index():
    s2 = sphere_manifold(2)
    with pytest.raises(ValueError):
        ManifoldModel(2, s2.model, {1: "0"})  # 4 > 2


def test_manifold_rejects_wrong_degree_cocycle():
    cp2 = complex_projective_plane()
    with pytest.raises(DegreeError):
        ManifoldModel(4, cp2.model, {1: "a"})


def test_manifold_rejects_non_simply_connected():
    circleish = FiniteCdga([("one", 0), ("t", 1)], {})
    with pytest.raises(ValueError):
        ManifoldModel(2, circleish, {})


def test_manifold_walks_only_models_not_checked_at_construction(monkeypatch):
    import ratimm.bundles as bundles
    walks = []

    def counted(model, cutoff, **kwargs):
        walks.append(model.label)
        return cohomology(model, cutoff, **kwargs)

    flagged = FiniteCdga([("one", 0), ("a", 2)], {}, label="flagged",
                         simply_connected=True)
    unflagged = FiniteCdga([("one", 0), ("a", 2)], {}, label="unflagged")
    free = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"},
                    label="free")
    monkeypatch.setattr(bundles, "cohomology", counted)
    for model in (flagged, unflagged, free):
        ManifoldModel(2, model, {})
    assert walks == ["unflagged", "free"]


def test_manifold_rejects_non_closed_cocycle():
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "a2", ("a", "y"): "w"}, {"y": "a2"},
                    label="NF")
    M = ManifoldModel(5, nf, {})

    bad = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5),
                      ("z", 4)],
                     {("a", "a"): "a2", ("a", "y"): "w"}, {"z": "w"},
                     label="NF2")
    with pytest.raises(ValueError):
        ManifoldModel(5, bad, {1: "z"})  # dz = w != 0
    assert M.pontryagin == {}


# -- framed models -------------------------------------------------------------

def test_framed_s2_k3_is_untwisted_product():
    M = sphere_manifold(2)
    model = framed_bundle_model(M, 3)
    assert [(g.name, g.degree) for g in model.fiber.generators] == [("x2", 7)]
    assert model.twist_of("x2").is_zero()
    assert cohomology(model, 10, representatives=False).support() == [0, 2, 7, 9]


def test_framed_cp2_k2_twist():
    M = complex_projective_plane()
    model = framed_bundle_model(M, 2)
    assert str(model.twist_of("x1")) == "e2^2 + 3*aa"
    assert model.twist_of("x2").is_zero()
    assert model.twist_of("ebar5").is_zero()
    assert check_d_squared(model, 24) == []


def test_framed_zero_classes_only_euler_terms():
    M = sphere_product_manifold(2, 3)  # dim 5, no classes
    model = framed_bundle_model(M, 4)
    s = 2
    for g in model.fiber.generators:
        t = model.twist_of(g.name)
        if g.name == f"x{s}":
            assert str(t) == "e4^2"
        else:
            assert t.is_zero()


def test_framed_rejects_small_codimension():
    with pytest.raises(ValueError):
        framed_bundle_model(sphere_manifold(2), 1)


# -- unreduced model and reduction ---------------------------------------------

def test_unreduced_s2_k3():
    M = sphere_manifold(2)
    big, phi = unreduced_framed_model(M, 3)
    assert [(g.name, g.degree) for g in big.fiber.generators] == \
        [("x1", 3), ("x2", 7), ("b1", 4)]
    assert str(big.twist_of("x1")) == "-b1"
    assert is_quasi_iso(phi, 16).ok


def test_unreduced_with_nonzero_class_stays_chain_map():
    M = complex_projective_plane()  # p1 = 3 aa
    big, phi = unreduced_framed_model(M, 2)
    assert is_quasi_iso(phi, 14).ok


def test_unreduced_k_even_pairs_b_generators():
    M = sphere_manifold(3)
    big, phi = unreduced_framed_model(M, 6)  # s=3: pairs b1, b2
    names = [g.name for g in big.fiber.generators]
    assert "b1" in names and "b2" in names and "b3" not in names
    assert "e6" in names
    assert is_quasi_iso(phi, 20).ok


def test_quasi_iso_check_validates_the_reduction_once(monkeypatch):
    # the CdgaMorphism constructor validates the reduction; is_quasi_iso
    # does not validate it again
    calls = []
    validate = CdgaMorphism.validate

    def counted(self):
        calls.append(self.label)
        validate(self)

    monkeypatch.setattr(CdgaMorphism, "validate", counted)
    _, phi = unreduced_framed_model(complex_projective_plane(), 2)
    assert is_quasi_iso(phi, 14).ok
    assert calls == [phi.label]


def test_unreduced_over_point_computes_stiefel():
    # base = unit-like manifold is not allowed (dim >= 2), so compare the
    # sphere base against base (x) stiefel instead: both models' Betti agree
    M = sphere_manifold(4)
    big, phi = unreduced_framed_model(M, 5)
    reduced = framed_bundle_model(M, 5)
    tb = cohomology(big, 16, representatives=False).dims
    tr = cohomology(reduced, 16, representatives=False).dims
    assert tb == tr


def test_one_fiber_table_builds_every_framed_model():
    # the framed fiber is the Stiefel model's; the unreduced one adds x_i
    # and b_i below the threshold t and twists the rest the same way
    manifolds = [sphere_manifold(m) for m in range(2, 10)]
    manifolds.append(complex_projective_plane())  # p1 = 3 aa
    for M in manifolds:
        for k in range(2, 10):
            t = check_pontryagin_hypothesis(M, k)[0]
            framed = framed_bundle_model(M, k)
            big, _ = unreduced_framed_model(M, k)
            fiber = [(g.name, g.degree) for g in framed.fiber.generators]
            assert fiber == [(g.name, g.degree) for g in
                             stiefel_model(M.dimension, k).algebra.generators]
            xs = [g for g in fiber if g[0].startswith("x")]
            ebar = [g for g in fiber if g[0].startswith("ebar")]
            euler = [(f"e{k}", k)] if k % 2 == 0 else []
            assert [(g.name, g.degree) for g in big.fiber.generators] == (
                [(f"x{i}", 4 * i - 1) for i in range(1, t)] + xs + ebar
                + [(f"b{i}", 4 * i) for i in range(1, t)] + euler)
            for name, _ in xs:
                assert str(big.twist_of(name)) == str(framed.twist_of(name))


# -- Borel associated-bundle model ----------------------------------------------

def test_borel_zero_images_gives_tensor():
    base = FiniteCdga([("one", 0), ("a", 2)], {}, label="S2f")
    vg = FreeCdga([Generator("p1", 4)], {}, label="VG")
    phi = CdgaMorphism(vg, base, {"p1": "0"})
    model = borel_assoc_model(base, phi,
                              VK=[Generator("b1", 4)],
                              sVH=[Generator("x1", 3)],
                              Bmu_images={}, Bnu_images={})
    assert model.twist_of("x1").is_zero()
    dims = cohomology(model, 8, representatives=False).dims
    s2 = cohomology(base, 8, representatives=False).dims
    fiber = cohomology(FreeCdga([Generator("b1", 4), Generator("x1", 3)], {}),
                       8, representatives=False).dims
    conv = [sum(s2[i] * fiber[n - i] for i in range(n + 1)) for n in range(9)]
    assert dims == conv


def test_borel_pairing_example():
    # Dx1 = phi(p1) - b1 with phi(p1) = p1(xi) = 3*aa on CP2
    cp2 = complex_projective_plane().model
    vg = FreeCdga([Generator("p1", 4)], {}, label="VG")
    phi = CdgaMorphism(vg, cp2, {"p1": "3*aa"})
    model = borel_assoc_model(cp2, phi,
                              VK=[Generator("b1", 4)],
                              sVH=[Generator("x1", 3)],
                              Bmu_images={"x1": "p1"},
                              Bnu_images={"x1": "b1"})
    assert str(model.twist_of("x1")) == "-b1 + 3*aa"
    assert check_d_squared(model, 20) == []


def test_borel_unit_base_gives_fiber_model():
    base = unit_cdga()
    vg = FreeCdga([Generator("p1", 4)], {}, label="VG")
    phi = CdgaMorphism(vg, base, {"p1": "0"})
    model = borel_assoc_model(base, phi,
                              VK=[Generator("b1", 4)],
                              sVH=[Generator("x1", 3)],
                              Bmu_images={"x1": "p1"},
                              Bnu_images={"x1": "b1"})
    # contractible pair: H = Q
    dims = cohomology(model, 10, representatives=False).dims
    assert dims == [1] + [0] * 10


def test_borel_degree_mismatch_rejected():
    base = unit_cdga()
    vg = FreeCdga([Generator("p1", 4)], {}, label="VG")
    phi = CdgaMorphism(vg, base, {"p1": "0"})
    with pytest.raises(DegreeError):
        borel_assoc_model(base, phi, VK=[Generator("b1", 6)],
                          sVH=[Generator("x1", 3)],
                          Bmu_images={"x1": "p1"}, Bnu_images={"x1": "b1"})


def test_unreduced_k_odd_matches_borel_construction():
    # the untruncated framed model for k odd is the associated-bundle model
    # with Bmu(x_i) = p_i, Bnu(x_i) = b_i
    M = complex_projective_plane()  # m=4: l=2; take k=3: s=1
    big, _ = unreduced_framed_model(M, 3)
    vg = bso_model(4)  # p1, e4
    phi = CdgaMorphism(vg, M.model, {"p1": "3*aa", "e4": "0"})
    model = borel_assoc_model(
        M.model, phi,
        VK=[Generator("b1", 4)],
        sVH=[Generator("x1", 3), Generator("x2", 7), Generator("x3", 11)],
        Bmu_images={"x1": "p1", "x2": "0", "x3": "0"},
        Bnu_images={"x1": "b1", "x2": "0", "x3": "0"})
    for name in ("x1", "x2", "x3", "b1"):
        assert str(model.twist_of(name)) == str(big.twist_of(name))


# -- rational triviality ---------------------------------------------------------

def test_trivial_sphere():
    verdict = is_rationally_trivial(sphere_manifold(2), 3, 14)
    assert verdict.status == "trivial"
    assert verdict.certificate is not None and verdict.certificate.matches


def test_not_established_for_cp2():
    verdict = is_rationally_trivial(complex_projective_plane(), 2, 12)
    assert verdict.status == "not-established"
    assert verdict.failures


def test_trivial_cp2_with_zero_class():
    verdict = is_rationally_trivial(complex_projective_plane(p1=0), 2, 12)
    assert verdict.status == "trivial"


def test_threshold_is_parity_dependent():
    assert check_pontryagin_hypothesis(sphere_manifold(4), 4)[0] == 2  # k=2s, s=2
    assert check_pontryagin_hypothesis(sphere_manifold(4), 5)[0] == 3  # k=2s+1, s=2
    # p1 nonzero is allowed when the threshold exceeds 1
    M = complex_projective_plane()
    _, failures = check_pontryagin_hypothesis(M, 5)
    assert failures == []
    _, failures = check_pontryagin_hypothesis(M, 2)
    assert failures == [1]


def _clash_base():
    return FiniteCdga([("one", 0), ("e2", 2), ("x1", 4)], {("e2", "e2"): "x1"},
                      label="clash", simply_connected=True)


def test_fiber_names_renamed_on_base_clash():
    # fixed outputs: every renaming and twist string below must stay as is
    base = _clash_base()
    M = ManifoldModel(4, base, {1: "3*x1"}, name="clash4")
    fm = framed_bundle_model(M, 2)
    assert fm.renamings == {"x1": "x1_2", "e2": "e2_2"}
    assert str(fm.twist_of("x1")) == "e2_2^2 + 3*x1"
    big, phi = unreduced_framed_model(M, 2)
    assert big.renamings == {"x1": "x1_2", "e2": "e2_2"}
    assert [(g.name, str(big.twist_of(g.name))) for g in big.fiber.generators] == [
        ("x1_2", "e2_2^2 + 3*x1"), ("x2", "0"), ("ebar5", "0"), ("e2_2", "0")]
    assert is_quasi_iso(phi, 12).ok
    # sV_H names that a renamed V_K generator must also avoid
    model = _clashing_borel(base)
    assert model.renamings == {"x1": "x1_3", "e2": "e2_3"}
    assert [g.name for g in model.fiber.generators] == ["x1_3", "e2_3", "x1_2", "e2_2"]
    assert [str(model.twist_of(n)) for n in ("x1", "e2", "x1_2", "e2_2")] == [
        "0", "0", "-x1_3 + x1", "-e2_3^2 + x1"]
    assert check_d_squared(model, 20) == []
    free = FreeCdga([Generator("e2", 2), Generator("x1", 3), Generator("x1_2", 5)],
                    {"x1": "e2^2", "x1_2": "e2^3"}, label="F")
    for rel in (tensor(base, free), tensor(free, base)):
        assert rel.renamings == {"e2": "e2_2", "x1": "x1_3"}
        assert [g.name for g in rel.fiber.generators] == ["e2_2", "x1_3", "x1_2"]
        assert [str(rel.twist_of(n)) for n in ("e2", "x1", "x1_2")] == [
            "0", "e2_2^2", "e2_2^3"]


def _clashing_borel(base, **images):
    """A Borel model over `base` (basis e2, x1) whose fiber names clash."""
    vg = FreeCdga([Generator("p1", 4)], {}, label="VG")
    phi = CdgaMorphism(vg, base, {"p1": "x1"})
    return borel_assoc_model(
        base, phi, VK=[Generator("x1", 4), Generator("e2", 2)],
        sVH=[Generator("x1_2", 3), Generator("e2_2", 3)],
        Bmu_images={"x1_2": "p1", "e2_2": "p1"},
        Bnu_images={"x1_2": "x1", "e2_2": "e2^2", **images})


def test_borel_bnu_element_over_the_vk_generators_only():
    base = _clash_base()
    vk = FreeAlgebra([Generator("x1", 4), Generator("e2", 2)])
    as_given = _clashing_borel(base, e2_2=vk.name_power("e2", 2))
    assert str(as_given.twist_of("e2_2")) == "-e2_3^2 + x1"
    # an element over other generators is rejected, even where its
    # indices would fit the fiber
    for foreign in (FreeAlgebra([Generator("y", 4), Generator("e2", 2)]),
                    FreeAlgebra([Generator("x1", 4), Generator("e2", 2),
                                 Generator("z", 2)])):
        with pytest.raises(ContextError):
            _clashing_borel(base, e2_2=foreign.name_power("e2", 2))


def test_each_constructor_builds_its_model_once(monkeypatch):
    builds = []
    init = RelativeModel.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.label)

    monkeypatch.setattr(RelativeModel, "__init__", counted)
    cp2 = complex_projective_plane()
    framed_bundle_model(cp2, 2)
    assert builds == ["Framed_4(CP^2, k=2)"]
    builds.clear()
    # its own model, then the reduction's target from framed_bundle_model
    unreduced_framed_model(cp2, 2)
    assert builds == ["UnreducedFramed_4(CP^2, k=2)", "Framed_4(CP^2, k=2)"]
    builds.clear()
    _clashing_borel(_clash_base())
    assert builds == [""]
    builds.clear()
    s2 = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"})
    tensor(cp2.model, s2, label="T")
    assert builds == ["T"]
