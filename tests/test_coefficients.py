"""One coefficient rule: an integral coefficient is an `int` wherever it
is made, and only a true fraction is a `Fraction` (see `ratimm.gca`).

Pinned on the demo manifolds and on the verification sweep, at each
layer that makes coefficients: parsed models and classes, product
tables, framed twists, the reduction's images,
`CdgaMorphism._apply_terms`, representatives, section models and
`Cdga.diff`.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ratimm.bundles import (check_pontryagin_hypothesis, framed_bundle_model,
                            unreduced_framed_model)
from ratimm.cdga import FiniteCdga, cohomology
from ratimm.io import load_manifold
from ratimm.mapping import em_split, section_model
from ratimm.sweeps import sweep_instances

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
CUTOFF = 16


def _breaking(coefficients):
    """The coefficients that break the rule."""
    return [c for c in coefficients
            if type(c) is not int and not (type(c) is Fraction and c.denominator > 1)]


def _terms(elements):
    return [c for e in elements for c in e.terms.values()]


def _generator_terms(cdga):
    """Each generator's element and d-image, as the model keeps them."""
    return _terms(e for _, _, elt, dg in cdga.d2_items() for e in (elt, dg))


def _diff_terms(cdga):
    """d of each generator's element, by `Cdga.diff`."""
    return _terms(cdga.diff(elt) for _, _, elt, _ in cdga.d2_items())


def _instances():
    demos = [(load_manifold(path), k) for path in sorted(DATA.glob("*.manifold"))
             for k in (2, 3, 4, 5)]
    return demos + sweep_instances(random.Random(0))


INSTANCES = _instances()


@pytest.mark.parametrize("M, k", INSTANCES,
                         ids=[f"{j}-{M.name}-k{k}" for j, (M, k) in enumerate(INSTANCES)])
def test_integral_coefficients_are_ints(M, k):
    found = {}
    found["model"] = _generator_terms(M.model) + _terms(M.pontryagin.values())
    alg = M.model.algebra
    keys = [key for n in range(M.dimension + 1) for key in alg.keys_of_degree(n)]
    found["products"] = [c for a in keys for b in keys for _, c in alg.mul_key_pairs(a, b)]
    big, phi = unreduced_framed_model(M, k)
    E = framed_bundle_model(M, k)
    found["twists"] = _generator_terms(big) + _generator_terms(E)
    found["images"] = _terms(phi.images.values())
    reps = [rep for reps in cohomology(big, CUTOFF).representatives for rep in reps]
    reps += [rep for reps in cohomology(M.model, M.dimension).representatives
             for rep in reps]
    found["representatives"] = _terms(reps)
    memo: dict = {}
    found["apply"] = [c for rep in reps if rep.algebra is big.algebra
                      for c in phi._apply_terms(rep.terms, memo).values()]
    found["diff"] = _diff_terms(M.model) + _diff_terms(big) + _diff_terms(E)
    _, kept = em_split(E)
    # where `immersion_components` resolves the sphere factor
    if (kept and isinstance(M.model, FiniteCdga) and not check_pontryagin_hypothesis(M, k)[1]
            and not M.betti(k).dims[k]):
        model = section_model(E, kept)
        found["section"] = _generator_terms(model) + _diff_terms(model)
    assert {layer: _breaking(cs) for layer, cs in found.items() if _breaking(cs)} == {}
