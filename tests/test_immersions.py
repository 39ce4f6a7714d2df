"""Immersion-space component descriptions, series assembly, growth."""

import hashlib
import json
from pathlib import Path

import pytest

from ratimm.bundles import (ManifoldModel, complex_projective_plane,
                            framed_bundle_model, sphere_manifold,
                            sphere_product_manifold, stiefel_model,
                            unreduced_framed_model)
from ratimm.cdga import FiniteCdga, FreeCdga, RelativeModel, cohomology, tensor
from ratimm.errors import InputError
from ratimm.gca import Generator
from ratimm.immersions import (Growth, connectivity_verdict, description_to_dict,
                               description_to_json, growth_degree,
                               immersion_components, verify_growth_bounds)
from ratimm.mapping import EMFactor, em_split, section_model
from ratimm.series import em_series, series_product


# -- connectivity ---------------------------------------------------------------

def test_connectivity_examples():
    assert connectivity_verdict(2, 3) == "connected"
    assert connectivity_verdict(4, 2) == "components-indexed"
    assert connectivity_verdict(2, 2) == "components-indexed"
    with pytest.raises(ValueError):
        connectivity_verdict(2, 1)


@pytest.mark.parametrize("k", [1, 0, -3])
def test_small_codimension_is_an_input_error(k):
    # the five entry points that take a codimension reject k < 2 with
    # one message
    M = sphere_manifold(2)
    messages = set()
    for call in (lambda: connectivity_verdict(2, k),
                 lambda: stiefel_model(2, k),
                 lambda: unreduced_framed_model(M, k),
                 lambda: framed_bundle_model(M, k),
                 lambda: immersion_components(M, k, 10)):
        with pytest.raises(InputError, match="codimension must be >= 2") as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {f"codimension must be >= 2, got k={k} "
                        "(the fiber is not simply connected otherwise)"}


# -- desk-scale descriptions ------------------------------------------------------

def test_imm_s2_r5():
    d = immersion_components(sphere_manifold(2), 3, 15)
    assert d.status == "resolved"
    assert d.em_factors == [EMFactor(1, 5), EMFactor(1, 7)]
    expected = series_product(em_series(5, 1, 15), em_series(7, 1, 15))
    assert d.series == expected
    assert d.growth == "finite"
    assert d.connectivity == "connected"


def test_imm_s3_r5():
    d = immersion_components(sphere_manifold(3), 2, 12)
    assert d.status == "resolved"
    assert d.em_factors == [EMFactor(1, 4), EMFactor(1, 7)]
    assert d.sphere_factor is not None and d.sphere_factor.status == "resolved-null"
    # sphere part: Map(S^3, S^2, 0) is a rational S^2
    assert list(d.sphere_series.coeffs)[:5] == [1, 0, 1, 0, 0]
    # total = (1 + t^2)(1 + t^7)/(1 - t^4), cross-checked against the
    # one-shot mapping model of the whole Stiefel fiber
    oracle = section_model(tensor(sphere_manifold(3).model, stiefel_model(3, 2)))
    assert list(d.series.coeffs) == cohomology(oracle, 12,
                                               representatives=False).dims
    assert d.growth == "polynomial(0)"


def test_imm_without_a_verified_fit_has_undetermined_growth(monkeypatch):
    import ratimm.immersions as immersions
    monkeypatch.setattr(immersions, "reconstruct_rational_series",
                        lambda *args, **kwargs: None)
    d = immersion_components(sphere_manifold(3), 4, 12)  # null model not pure
    assert d.status == "resolved" and d.sphere_series.form is None
    assert d.growth == "undetermined"
    assert description_to_dict(d)["growth"] == "undetermined"


# sources in even degrees only, whose sphere null models are pure
PURE_SOURCES = {
    "S2": lambda: sphere_manifold(2),
    "S4": lambda: sphere_manifold(4),
    "S6": lambda: sphere_manifold(6),
    "S2xS2": lambda: sphere_product_manifold(2, 2),
    "S2xS4": lambda: sphere_product_manifold(2, 4),
    "S2xS6": lambda: sphere_product_manifold(2, 6),
    "CP2": lambda: complex_projective_plane(p1=0),
    "CP3": lambda: ManifoldModel(6, FiniteCdga(
        [("one", 0), ("a", 2), ("a2", 4), ("a3", 6)],
        {("a", "a"): "a2", ("a", "a2"): "a3"}, label="CP3",
        simply_connected=True), {}, name="CP^3"),
}


@pytest.mark.parametrize("name", sorted(PURE_SOURCES))
def test_krull_dimension_is_the_fitted_pole(name):
    M = PURE_SOURCES[name]()
    betti = M.betti(10)
    for k in (2, 4, 6, 8, 10):
        if betti.dims[k]:
            continue  # symbolic sphere factor
        d = immersion_components(M, k, 10)
        form = d.sphere_series.form
        assert form is not None, (name, k)
        assert d.sphere_dimension == form.pole_order_at_one(), (name, k)
        pole = d.series.form.pole_order_at_one()
        assert d.growth == ("finite" if pole == 0 else f"polynomial({pole - 1})")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pure_growth_needs_no_fit(monkeypatch):
    import ratimm.immersions as immersions

    def no_fit(*args, **kwargs):
        raise AssertionError("the closed form was fitted")

    with monkeypatch.context() as patch:
        patch.setattr(immersions, "reconstruct_rational_series", no_fit)
        d = immersion_components(sphere_product_manifold(2, 4), 8, 30)
        text = description_to_json(d)
        # an odd source whose null model, Λ(x2, y3; dy = x^2), is pure
        assert immersion_components(sphere_manifold(3), 2, 12).growth == "polynomial(0)"
    # digests of the output of the code that fitted every series at once
    assert _sha256(text) == \
        "50dca5c38aca473f87af704f0d8152d02e1721345c2d9ef95da146d6f3ca623d"
    assert _sha256(str(d.series)) == \
        "f0c51e4fe45e7cad9d8fb9e96a727bdb8acc752f13c44581708dca972fe8bbeb"
    assert str(d.series).endswith(" / (1-t^6)(1-t^8)")


def test_reading_the_form_continues_the_walk_to_n(monkeypatch):
    # the lazy fit of a pure null model extends the Betti walk that gave
    # b_0..b_N; it does not walk the model again from degree 0
    from ratimm import cdga
    from ratimm.mapping import sphere_map_null_model
    M = sphere_product_manifold(2, 4)
    label = sphere_map_null_model(M.model, 8).label
    walks = []
    cochains = cdga._cochains

    def counted(model):
        walks.append(model.label)
        return cochains(model)

    monkeypatch.setattr(cdga, "_cochains", counted)
    d = immersion_components(M, 8, 30)
    assert str(d.series).endswith(" / (1-t^6)(1-t^8)")
    assert walks.count(label) == 1


def test_em_pole_is_read_from_the_factor_list(monkeypatch):
    import ratimm.immersions as immersions
    from ratimm.io import load_manifold
    from ratimm.series import PoincareSeries
    from ratimm.sweeps import nonformal_base
    # the EM part does not depend on the sphere factor: skip walking and
    # fitting its cohomology over the whole grid
    monkeypatch.setattr(immersions, "_sphere_series",
                        lambda model, cutoff: PoincareSeries([1], cutoff))
    sources = [sphere_manifold(m) for m in range(2, 8)]
    sources += [sphere_product_manifold(a, b) for a in range(2, 5) for b in range(a, 5)]
    sources += [complex_projective_plane(p1=0),
                ManifoldModel(5, nonformal_base(), {}, name="NF5")]
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    sources += [load_manifold(path) for path in sorted(data.glob("*.manifold"))]
    read = 0
    for M in sources:
        for k in range(2, 11):
            for cutoff in (5, 15):
                d = immersion_components(M, k, cutoff)
                if d.status != "resolved":
                    continue
                em_pole = d.em_part_series.form.pole_order_at_one()
                assert sum(f.coefficient_dim for f in d.em_factors
                           if f.degree % 2 == 0) == em_pole, (M.name, k, cutoff)
                if d.sphere_factor is None or d.sphere_dimension is not None:
                    pole = em_pole + (d.sphere_dimension or 0)
                    assert str(growth_degree(d)) == \
                        ("finite" if pole == 0 else f"polynomial({pole - 1})")
                    read += 1
    assert read == 258


def test_sphere_factor_needs_a_finite_source():
    s3 = ManifoldModel(3, FreeCdga([Generator("a3", 3)], {}, label="S3"), {})
    with pytest.raises(InputError, match="the source model must be finite-dimensional"):
        immersion_components(s3, 4, 10)  # H^4 = 0: the null component is resolved


def test_imm_s2_r4_symbolic():
    d = immersion_components(sphere_manifold(2), 2, 10)
    assert d.status == "symbolic-sphere"
    assert d.em_factors == [EMFactor(1, 1), EMFactor(1, 3)]
    assert d.sphere_factor.status == "symbolic"
    assert d.series is None
    assert list(d.em_part_series.coeffs) == [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert d.growth == "symbolic"


@pytest.mark.parametrize("M,k,status", [
    (sphere_manifold(5), 4, "resolved"), (sphere_manifold(2), 4, "resolved"),
    (sphere_manifold(3), 5, "resolved"), (sphere_manifold(2), 2, "symbolic-sphere"),
], ids=["S5-4", "S2-4", "S3-5", "S2-2"])
def test_one_relative_model_per_call(monkeypatch, M, k, status):
    # the framed bundle model is built and validated once; the section
    # model reads the generators that em_split keeps off it in place
    built, validated = [], []
    init, validate = RelativeModel.__init__, RelativeModel._validate

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_validate(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(RelativeModel, "__init__", counted_init)
    monkeypatch.setattr(RelativeModel, "_validate", counted_validate)
    assert immersion_components(M, k, 12).status == status
    assert len(built) == 1 and validated == built


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.manifold")))
def test_one_walk_of_the_source_per_call(monkeypatch, name):
    # H^k(M) comes from the Betti table em_split walked; a call that
    # fails the hypotheses returns before walking
    from ratimm import cdga
    from ratimm.io import load_manifold
    M = load_manifold(DATA / f"{name}.manifold")
    walks = []
    cochains = cdga._cochains

    def counted(model):
        walks.append(model)
        return cochains(model)

    monkeypatch.setattr(cdga, "_cochains", counted)
    for k in range(2, 11):
        walks.clear()
        status = immersion_components(M, k).status
        assert sum(w is M.model for w in walks) == (status != "hypothesis-failed"), k


def test_em_factors_split_at_the_fibre():
    # S^5 at k = 4: x3 and x4 split off, the pair (x2, e4) stays
    M = sphere_manifold(5)
    E = framed_bundle_model(M, 4)
    factors, kept, _ = em_split(E)
    assert factors == [EMFactor(1, 6), EMFactor(1, 10), EMFactor(1, 11), EMFactor(1, 15)]
    assert [g.name for g in kept] == ["x2", "e4"]
    # the pair's section model has a closed generator of degree 2 that no
    # differential mentions; a split of the section model would take it
    # for a K(Q,2) factor
    model = section_model(E, kept)
    gens = model.algebra.generators
    mentioned = {i for g in gens
                 for code in model.differential_of_generator(g.name).terms
                 for i, _ in model.algebra.factors(code)}
    assert [(g.name, g.degree) for i, g in enumerate(gens)
            if i not in mentioned
            and model.differential_of_generator(g.name).is_zero()] == [("x2_a5", 2)]
    d = description_to_dict(immersion_components(M, 4, 16))
    assert d["status"] == "resolved"
    assert [(f["kind"], f["degree"]) for f in d["factors"]] == \
        [("em", 6), ("em", 10), ("em", 11), ("em", 15), ("sphere", 4)]
    assert d["em_series"] == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1]
    d = description_to_dict(immersion_components(sphere_manifold(2), 2, 16))
    assert d["status"] == "symbolic-sphere"
    assert [(f["kind"], f["degree"]) for f in d["factors"]] == \
        [("em", 1), ("em", 3), ("sphere", 2)]
    assert d["em_series"] == [1, 1, 0, 1, 1] + [0] * 12


def test_imm_cp2_hypothesis_failure():
    d = immersion_components(complex_projective_plane(), 2, 10)
    assert d.status == "hypothesis-failed"
    assert [h.status for h in d.hypotheses] == ["passed", "failed"]
    assert d.em_factors == [] and d.series is None
    with pytest.raises(ValueError):
        growth_degree(d)


def test_imm_cp2_resolves_at_higher_codimension():
    # k = 5 puts the vanishing threshold at i >= 3, allowing p1 != 0
    d = immersion_components(complex_projective_plane(), 5, 12)
    assert d.status == "resolved"
    assert all(h.status == "passed" for h in d.hypotheses)


def test_growth_examples():
    # all-odd factors: finite
    d = immersion_components(sphere_manifold(2), 3, 12)
    assert growth_degree(d) == Growth("finite")
    # descriptions with even factors: polynomial of pole order - 1
    d2 = immersion_components(sphere_manifold(3), 4, 12)
    g2 = growth_degree(d2)
    assert g2.kind == "polynomial"
    assert verify_growth_bounds(d2.series, g2)


def test_growth_bound_check_rejects_wrong_degree():
    d = immersion_components(sphere_manifold(3), 4, 12)
    g = growth_degree(d)
    assert not verify_growth_bounds(d.series, Growth("polynomial", g.degree + 1))


def test_multiplicities_enter_series():
    M = sphere_product_manifold(2, 2)
    d = immersion_components(M, 3, 12)
    assert d.status == "resolved"
    # b_2(S2xS2) = 2 pairs with the degree-7 generator at q = 5
    assert EMFactor(2, 5) in d.em_factors


def test_sweep_growth_classification():
    for m in range(2, 6):
        for k in range(2, 6):
            d = immersion_components(sphere_manifold(m), k, 12)
            if d.status != "resolved":
                assert k % 2 == 0 and k == m
                continue
            g = growth_degree(d)
            assert verify_growth_bounds(d.series, g, upto=200), (m, k, str(g))


def test_consistency_with_kunneth_certificate():
    # k odd, zero tangent classes: the immersion series equals the
    # mapping-space series into the (rationally trivial) total fiber
    from ratimm.bundles import is_rationally_trivial
    M = sphere_manifold(3)
    verdict = is_rationally_trivial(M, 3, 14)
    assert verdict.status == "trivial"
    d = immersion_components(M, 3, 14)
    oracle = section_model(tensor(M.model, stiefel_model(3, 3)))
    assert list(d.series.coeffs) == cohomology(oracle, 14,
                                               representatives=False).dims


# -- serialization ------------------------------------------------------------------

def test_json_round_trip():
    for args in [(sphere_manifold(2), 3, 15), (sphere_manifold(3), 2, 12),
                 (sphere_manifold(2), 2, 10),
                 (complex_projective_plane(), 2, 10)]:
        d = immersion_components(*args)
        payload = description_to_dict(d)
        assert json.loads(description_to_json(d)) == payload


def test_report_field_order_stable():
    d = immersion_components(sphere_manifold(2), 3, 10)
    keys = list(description_to_dict(d).keys())
    assert keys == ["manifold", "m", "k", "max_degree", "status", "hypotheses",
                    "connectivity", "factors", "series", "em_series", "growth"]


def test_total_series_invariant_under_factor_order():
    import random
    d = immersion_components(sphere_manifold(3), 2, 12)
    factor_series = [em_series(f.degree, f.coefficient_dim, 12)
                     for f in d.em_factors]
    factor_series.append(d.sphere_series)
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(factor_series)
        total = factor_series[0]
        for s in factor_series[1:]:
            total = series_product(total, s)
        assert total == d.series


def test_series_cutoff_matches_request():
    for cutoff in (5, 12, 18):
        d = immersion_components(sphere_manifold(3), 2, cutoff)
        assert d.series.cutoff == cutoff
        assert len(d.series.coeffs) == cutoff + 1
