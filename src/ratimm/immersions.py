"""Betti data and growth classification for components of immersion spaces.

An immersion space of a simply-connected m-manifold into R^{m+k} is
the section space of the framed bundle (Smale-Hirsch).  Under the
Pontryagin-vanishing hypothesis `em_split` factors a component into
Eilenberg-MacLane spaces and, for k even, the sections of the pair
(x_s, e_k), a mapping-space factor into S^k, read off the one framed
bundle model.  This module checks the hypotheses, reports the factors,
multiplies the Poincaré series, and classifies coefficient growth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .bundles import (ManifoldModel, check_codimension,
                      check_pontryagin_hypothesis, framed_bundle_model)
from .cdga import FreeCdga, _walk
from .groebner import pure_krull_dimension
from .mapping import EMFactor, SphereFactor, em_split, section_model
from .series import (PoincareSeries, em_product_series,
                     reconstruct_rational_series, series_product)

__all__ = [
    "HypothesisCheck", "ImmersionDescription", "Growth",
    "connectivity_verdict", "immersion_components", "growth_degree",
    "verify_growth_bounds", "description_to_dict", "description_to_json",
]


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    status: str  # "passed" | "failed"
    detail: str = ""


@dataclass(frozen=True)
class Growth:
    kind: str  # "finite" | "polynomial"
    degree: int | None = None

    def __str__(self):
        return self.kind if self.kind == "finite" else f"polynomial({self.degree})"


@dataclass
class ImmersionDescription:
    manifold: str
    m: int
    k: int
    cutoff: int
    status: str  # "resolved" | "symbolic-sphere" | "hypothesis-failed"
    hypotheses: list[HypothesisCheck]
    connectivity: str
    em_factors: list[EMFactor] = field(default_factory=list)
    sphere_factor: SphereFactor | None = None
    sphere_series: PoincareSeries | None = None
    # dim ΛQ/I of the sphere model when it is pure (see `growth_degree`)
    sphere_dimension: int | None = None
    em_part_series: PoincareSeries | None = None
    series: PoincareSeries | None = None
    growth: str = "none"


def connectivity_verdict(m: int, k: int) -> str:
    """"connected" when the fiber connectivity exceeds dim M (k >= m+1)."""
    check_codimension(k)
    return "connected" if k >= m + 1 else "components-indexed"


def _sphere_series(model: FreeCdga, cutoff: int) -> PoincareSeries:
    """Betti series of a mapping-space model, with a lazily fitted closed form.

    b_0..b_cutoff come from one Betti walk of the model (`cdga._walk`).
    The fit, run when something first reads the form, continues that
    walk past the cutoff, to 3*span+16 (span = the sum of the even
    generator degrees), fits P(t)/prod(1-t^d) over the even generator
    degrees of the model, and lets the coefficients past the
    numerator's end validate it; without a verified fit the form is
    None.  A pure model's growth needs no fit (`pure_krull_dimension`),
    so its walk stops at the cutoff unless the form is read.
    """
    even_degrees = [g.degree for g in model.algebra.generators
                    if g.degree % 2 == 0]
    recon_cutoff = max(cutoff, 3 * sum(even_degrees) + 16)
    betti = (b_n for b_n, *_ in _walk(model))
    coeffs = list(islice(betti, cutoff + 1))

    def fit():
        coeffs.extend(islice(betti, recon_cutoff + 1 - len(coeffs)))
        return reconstruct_rational_series(coeffs, even_degrees,
                                           verify_from=recon_cutoff - 8)

    return PoincareSeries(coeffs, cutoff, fit=fit)


def immersion_components(M: ManifoldModel, k: int, cutoff: int = 20) -> ImmersionDescription:
    """Description of a component of Imm(M, R^{m+k}) up to the cutoff.

    Checks the Pontryagin-vanishing hypothesis first (failure is reported
    in the returned record, not raised).  `em_split` of the framed bundle
    model E gives the EM factors, computed from the Betti numbers of M,
    and for k even the kept pair (x_s, e_k): its section model, read off
    E, is the mapping-space factor into S^k, resolved at the
    constant-map component when H^k(M;Q) = 0 (in particular whenever
    k >= m+1) and reported symbolically otherwise.
    """
    m = M.dimension
    desc = ImmersionDescription(
        manifold=M.name, m=m, k=k, cutoff=cutoff, status="hypothesis-failed",
        hypotheses=[HypothesisCheck(
            "simply-connected", "passed", "H^0 = Q and H^1 = 0 verified")],
        connectivity=connectivity_verdict(m, k))
    threshold, failures = check_pontryagin_hypothesis(M, k)
    if failures:
        desc.hypotheses.append(HypothesisCheck(
            "pontryagin-vanishing", "failed",
            f"p_i must vanish for all i >= {threshold}; "
            f"nonzero at {', '.join('p_' + str(i) for i in failures)}"))
        return desc
    desc.hypotheses.append(HypothesisCheck(
        "pontryagin-vanishing", "passed",
        f"p_i = 0 for all i >= {threshold}"))

    E = framed_bundle_model(M, k)
    desc.em_factors, kept = em_split(E)
    desc.em_part_series = desc.series = em_product_series(desc.em_factors, cutoff)
    # a second, short walk of M only where its model is nonzero in degree k
    if kept and M.model.algebra.keys_of_degree(k) and M.betti(k).dims[k]:
        desc.sphere_factor = SphereFactor(k, "symbolic")
        desc.status, desc.series, desc.growth = "symbolic-sphere", None, "symbolic"
        return desc
    desc.status = "resolved"
    if kept:
        model = section_model(E, kept, label=f"Map({M.model.label},S{k},0)")
        desc.sphere_factor = SphereFactor(k, "resolved-null")
        desc.sphere_dimension = pure_krull_dimension(model)
        desc.sphere_series = _sphere_series(model, cutoff)
        desc.series = series_product(desc.em_part_series, desc.sphere_series)
    try:
        desc.growth = str(growth_degree(desc))
    except ValueError:
        desc.growth = "undetermined"
    return desc


def growth_degree(description: ImmersionDescription) -> Growth:
    """Coefficient growth of the component's Betti numbers.

    The coefficients grow like j^(E-1) with E the pole order at t = 1 of
    the total series; E = 0 means a finite-dimensional answer.  The EM
    part is a product of factors (1 + t^q)^c for odd q, with no pole at
    t = 1, and 1/(1 - t^q)^c for even q, with a pole of order c, so its
    pole order is the sum of c over the even-degree factors, read from
    the factor list.  A pure sphere model's cohomology H is a finitely
    generated module over ΛQ/I with ΛQ/I as a direct summand, so by
    Hilbert-Serre its pole order is dim ΛQ/I (Félix-Halperin-Thomas,
    §32), and E is the sum of the two (the EM part's alone when there is
    no sphere factor).  Otherwise E is read from the fitted closed form
    of the total series.  Exponential growth cannot occur for these
    descriptions.
    """
    if description.status == "symbolic-sphere":
        raise ValueError("growth is undefined while the sphere factor is symbolic")
    if description.status == "hypothesis-failed":
        raise ValueError("no description: hypotheses failed")
    series = description.series
    if description.sphere_dimension is not None or description.sphere_factor is None:
        pole = (sum(f.coefficient_dim for f in description.em_factors if f.degree % 2 == 0)
                + (description.sphere_dimension or 0))
    elif series is None or series.form is None:
        raise ValueError("series has no verified closed form; growth undetermined")
    else:
        pole = series.form.pole_order_at_one()
    if pole == 0:
        return Growth("finite")
    return Growth("polynomial", pole - 1)


def verify_growth_bounds(series: PoincareSeries, growth: Growth,
                         upto: int = 200) -> bool:
    """Numeric check of the growth classification on degrees <= upto.

    finite: coefficients vanish from some point on.  polynomial(d):
    b_j / j^d stays bounded (windowed sup comparison) and, for d >= 1,
    b_j / j^{d-1} keeps growing.  Series arithmetic only.
    """
    coeffs = series.extend(upto)
    if growth.kind == "finite":
        support = [j for j, c in enumerate(coeffs) if c]
        return not support or max(support) <= len(series.form.numerator)

    d = growth.degree

    def windowed_sup(power: int, lo: int, hi: int) -> Fraction:
        best = Fraction(0)
        for j in range(max(lo, 1), hi + 1):
            val = Fraction(coeffs[j], j ** power) if power else Fraction(coeffs[j])
            if val > best:
                best = val
        return best

    head = windowed_sup(d, upto // 4, upto // 2)
    tail = windowed_sup(d, upto // 2 + 1, upto)
    if tail > head * Fraction(27, 20):
        return False  # still growing relative to j^d: d underestimates
    if d >= 1:
        head1 = windowed_sup(d - 1, upto // 4, upto // 2)
        tail1 = windowed_sup(d - 1, upto // 2 + 1, upto)
        if tail1 == 0 or tail1 < head1 * Fraction(7, 5):
            return False  # not actually unbounded at exponent d-1
    return True


# ---------------------------------------------------------------------------
# Report serialization (stable field order for diffing)
# ---------------------------------------------------------------------------

def description_to_dict(description: ImmersionDescription) -> dict:
    factors = [{"kind": "em", "degree": f.degree,
                "multiplicity": f.coefficient_dim, "status": "resolved"}
               for f in description.em_factors]
    if description.sphere_factor is not None:
        factors.append({"kind": "sphere", "degree": description.sphere_factor.k,
                        "multiplicity": 1,
                        "status": description.sphere_factor.status})
    return {
        "manifold": description.manifold,
        "m": description.m,
        "k": description.k,
        "max_degree": description.cutoff,
        "status": description.status,
        "hypotheses": [{"name": h.name, "status": h.status, "detail": h.detail}
                       for h in description.hypotheses],
        "connectivity": description.connectivity,
        "factors": factors,
        "series": list(description.series.coeffs) if description.series else None,
        "em_series": (list(description.em_part_series.coeffs)
                      if description.em_part_series else None),
        "growth": description.growth,
    }


def description_to_json(description: ImmersionDescription) -> str:
    return json.dumps(description_to_dict(description), indent=2) + "\n"
