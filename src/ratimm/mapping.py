"""Rational models of mapping spaces out of a finite complex.

Maps into odd spheres and Eilenberg-MacLane targets reduce to products
of Eilenberg-MacLane spaces whose degrees read off the Betti numbers of
the source.  Maps into even spheres need an actual model: the null
component is modeled on generators (sphere generator) x (dual basis
class), with the differential determined by requiring the evaluation
pairing to be a chain map; the sign conventions are pinned operationally
by the d^2 = 0 assertion at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cdga import (BettiTable, CdgaMorphism, FiniteCdga, FreeCdga,
                   TensorAlgebra, _unique_name, cohomology)
from .errors import ComponentObstruction, DegreeError
from .gca import Element, FreeAlgebra, Generator

__all__ = [
    "EMFactor", "SphereFactor", "MapDescription", "em_mapping_space",
    "odd_sphere_mapping", "sphere_model", "sigma_normalize",
    "SigmaNormalization", "sphere_map_null_model", "sphere_mapping_description",
    "dual_mapping_null_model",
]


@dataclass(frozen=True)
class EMFactor:
    """K(H^{n-q}(M;Q), q) summand: multiplicity = dim of the coefficient group."""

    coefficient_dim: int
    degree: int

    def __str__(self):
        mult = f"^{self.coefficient_dim}" if self.coefficient_dim > 1 else ""
        return f"K(Q,{self.degree}){mult}"


@dataclass(frozen=True)
class SphereFactor:
    k: int
    status: str  # "resolved-null" | "symbolic"


@dataclass
class MapDescription:
    em_factors: list[EMFactor]
    sphere_factor: SphereFactor | None = None
    model: FreeCdga | None = None


def em_mapping_space(bettiM: BettiTable, n: int) -> list[EMFactor]:
    """Factors K(H^{n-q}(M;Q), q) for 1 <= q <= n of Map(M, K(Q,n)).

    Zero-dimensional coefficient groups are omitted; the q = 0 datum (it
    would index components, not cohomology) is not part of the list.
    """
    if n < 1:
        raise ValueError(f"target degree must be >= 1, got {n}")
    if bettiM.cutoff < n:
        raise ValueError(f"need Betti numbers of the source up to degree {n}, "
                         f"have cutoff {bettiM.cutoff}")
    factors = []
    for q in range(1, n + 1):
        dim = bettiM.dims[n - q]
        if dim:
            factors.append(EMFactor(dim, q))
    return factors


def odd_sphere_mapping(bettiM: BettiTable, k: int) -> list[EMFactor]:
    """Odd spheres are rationally Eilenberg-MacLane: same factor list."""
    if k % 2 == 0:
        raise ValueError(f"odd_sphere_mapping needs odd k, got {k}")
    if k < 3:
        raise ValueError("k must be >= 3 (simply connected target)")
    return em_mapping_space(bettiM, k)


def sphere_model(k: int) -> FreeCdga:
    """Minimal model of S^k: one odd generator, or (x_k, y_{2k-1}; dy=x^2)."""
    if k < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {k}")
    if k % 2:
        return FreeCdga([Generator("x", k)], {}, label=f"S{k}")
    return FreeCdga([Generator("x", k), Generator("y", 2 * k - 1)],
                    {"y": "x^2"}, label=f"S{k}")


# ---------------------------------------------------------------------------
# Component normalization (even-sphere targets)
# ---------------------------------------------------------------------------

@dataclass
class SigmaNormalization:
    """Result of pushing an even-sphere map to the null component.

    `absorbed` is the cocycle a with sigma(y) = a once the x-image has
    been absorbed (the change of variables y' = y - a); `primitive` is
    the element h with d(h) = sigma(x) when sigma(x) was nonzero.
    """

    morphism: CdgaMorphism
    absorbed: Element
    primitive: Element | None = None


def _solve_differential(target, value: Element):
    """Find h with d(h) = value in the target CDGA, or None."""
    deg = value.degree()
    if deg is None:
        return None  # zero needs no primitive
    alg = target.algebra
    dom_keys = alg.keys_of_degree(deg - 1)
    cod_keys = alg.keys_of_degree(deg)
    index = {key: i for i, key in enumerate(cod_keys)}
    columns = []
    for key in dom_keys:
        img = target.diff_key(key)
        columns.append({index[m]: c for m, c in img.terms.items()})
    rhs = {index[m]: c for m, c in value.terms.items()}
    solution = linalg.sparse_solve(columns, rhs)
    if solution is None:
        return None
    return Element(alg, {dom_keys[j]: Fraction(c) for j, c in solution.items() if c})


def sigma_normalize(sigma: CdgaMorphism) -> SigmaNormalization:
    """Normalize a map out of an even-sphere model so both images vanish.

    Requires [sigma(x)] = 0 in H^k of the target (automatic when that
    group vanishes); a nonvanishing class is a genuine component
    obstruction and raises ComponentObstruction.  When sigma(x) = d(h)
    the y-image is corrected to the cocycle a = sigma(y) - h*sigma(x)
    before the change of variables removes it.
    """
    src = sigma.source
    if not isinstance(src, FreeCdga) or len(src.algebra.generators) != 2:
        raise TypeError("source must be the two-generator even-sphere model")
    x, y = src.algebra.generators
    if x.degree % 2 or y.degree != 2 * x.degree - 1:
        raise TypeError("source generators must have degrees (k, 2k-1) with k even")
    sigma.validate()
    sx = sigma.apply(src.algebra.gen(x.name))
    sy = sigma.apply(src.algebra.gen(y.name))
    primitive = None
    if not sx.is_zero():
        primitive = _solve_differential(sigma.target, sx)
        if primitive is None:
            raise ComponentObstruction(
                f"[sigma({x.name})] is a nonzero class in degree {x.degree}; "
                "the map does not land in the null component")
        absorbed = sy - primitive * sx
    else:
        absorbed = sy
    if not sigma.target.diff(absorbed).is_zero():
        raise AssertionError("absorbed y-image failed to be a cocycle")
    zero = sigma.target.algebra.zero()
    normalized = CdgaMorphism(src, sigma.target, {x.name: zero, y.name: zero},
                              label=f"{sigma.label}-normalized")
    return SigmaNormalization(normalized, absorbed, primitive)


# ---------------------------------------------------------------------------
# Dual-basis mapping-space models
# ---------------------------------------------------------------------------

def dual_mapping_null_model(A: FiniteCdga, target: FreeCdga, label: str = "") -> FreeCdga:
    """Model of the null component of Map(M, Y) for finite A and free target.

    Generators v_u = (target generator v) x (dual of basis element a_u)
    in degree |v| - |a_u|.  The differential is solved from the
    chain-map condition for the pairing

        v  |->  sum_u  a_u (x) v_u

    into A (x) (new model).  The null-component choice then divides by
    the differential ideal of the generators of degree <= 0: those
    generators are set to zero, and when such a generator has a nonzero
    (necessarily linear, for degree reasons) differential, the degree-1
    generators appearing in it are killed as well, iterating to closure.
    d^2 = 0 on the result is asserted at construction.
    """
    basis = A.algebra.basis
    pairs: dict[tuple[str, int], str] = {}
    gens: list[Generator] = []
    taken: set[str] = set()
    for v in target.algebra.generators:
        for u, (uname, udeg) in enumerate(basis):
            deg = v.degree - udeg
            if deg < 1:
                continue
            name = v.name if u == A.algebra.unit else f"{v.name}_{uname}"
            if name in taken:
                name = _unique_name(name, taken)
            taken.add(name)
            pairs[(v.name, u)] = name
            gens.append(Generator(name, deg))
    B = FreeAlgebra(gens, label=label or f"Map(-,{target.label})")
    T = TensorAlgebra(A.algebra, B, label="pairing")

    def equations(alive: set[str]):
        """Nominal differential for every (v, u) slot, alive gens only."""

        def pairing(vname: str) -> Element:
            terms = {}
            for u in range(len(basis)):
                gname = pairs.get((vname, u))
                if gname is None or gname not in alive:
                    continue
                mono = ((B.generator_index(gname), 1),)
                terms[(u, mono)] = Fraction(1)
            return Element(T, terms)

        eqs: dict[tuple[str, int], Element] = {}
        for v in target.algebra.generators:
            dv = target.differential_of_generator(v.name)
            rhs = T.zero()
            if not dv.is_zero():
                for mono, c in dv.terms.items():
                    term = T.one()
                    for i, e in mono:
                        factor = pairing(target.algebra.generators[i].name)
                        for _ in range(e):
                            term = term * factor
                    rhs = rhs + term * c
            # D(sum a_u (x) v_u) = sum d_A(a_u) (x) v_u
            #                      + (-1)^{|a_u|} a_u (x) delta(v_u)
            carried = T.zero()
            for u in range(len(basis)):
                gname = pairs.get((v.name, u))
                if gname is None or gname not in alive:
                    continue
                da = A.diff_key(u)
                if da.is_zero():
                    continue
                mono = ((B.generator_index(gname), 1),)
                carried = carried + Element(
                    T, {(w, mono): c for w, c in da.terms.items()})
            rhs = rhs - carried
            by_basis: dict[int, dict] = {}
            for (u, mono), c in rhs.terms.items():
                by_basis.setdefault(u, {})[mono] = c
            for w in range(len(basis)):
                value = Element(B, by_basis.get(w, {}))
                if basis[w][1] % 2:
                    value = -value
                eqs[(v.name, w)] = value
        return eqs

    alive = {g.name for g in gens}
    while True:
        eqs = equations(alive)
        new_kills: set[str] = set()
        for (vname, u), value in eqs.items():
            gname = pairs.get((vname, u))
            if gname is not None and gname in alive:
                continue
            # the slot is a dropped (degree <= 0) or killed generator: its
            # differential lies in the quotient ideal
            for mono, _c in value.terms.items():
                if len(mono) == 1 and mono[0][1] == 1:
                    name = B.generators[mono[0][0]].name
                    if name in alive:
                        new_kills.add(name)
                else:
                    raise AssertionError(
                        "null-component quotient is not free: nonlinear term "
                        f"in the differential of a dropped generator ({vname})")
        if not new_kills:
            break
        alive -= new_kills

    final_gens = [g for g in gens if g.name in alive]
    model_alg = FreeAlgebra(final_gens, label=label or f"Map(-,{target.label})")

    def translate(elt: Element) -> Element:
        terms = {}
        for mono, c in elt.terms.items():
            new = tuple(sorted((model_alg.generator_index(B.generators[i].name), e)
                               for i, e in mono))
            terms[new] = c
        return Element(model_alg, terms)

    diff = {}
    for (vname, u), value in eqs.items():
        gname = pairs.get((vname, u))
        if gname is None or gname not in alive or value.is_zero():
            continue
        diff[gname] = translate(value)
    return FreeCdga(model_alg, diff, label=model_alg.label)


def sphere_map_null_model(A: FiniteCdga, k: int) -> FreeCdga:
    """Model of Map(M, S^k, constant) for k even and A a finite model of M.

    Odd k is rejected: odd spheres are rationally Eilenberg-MacLane and
    belong to em_mapping_space(betti, k).  A must be simply connected.
    """
    if k % 2:
        raise ValueError(f"k must be even (odd spheres are Eilenberg-MacLane "
                         f"rationally; use em_mapping_space with n={k})")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not isinstance(A, FiniteCdga):
        raise TypeError("the source model must be finite-dimensional")
    table = cohomology(A, 1, representatives=False)
    if table.dims[1] != 0:
        raise ValueError("the source model must be simply connected")
    return dual_mapping_null_model(A, sphere_model(k),
                                   label=f"Map({A.label},S{k},0)")


def sphere_mapping_description(A: FiniteCdga, k: int) -> MapDescription:
    """Description of Map(M, S^k): EM factors for odd k, a model otherwise.

    For even k the null component is resolved when H^k(M;Q) = 0 (always
    when k exceeds the top degree of A); an essential component is left
    symbolic, which is as far as these methods reach.
    """
    betti = cohomology(A, min(k, A.algebra.top_degree), representatives=False)
    if k % 2:
        padded = BettiTable(k, betti.dims + [0] * (k - betti.cutoff))
        return MapDescription(em_factors=odd_sphere_mapping(padded, k))
    hk = betti.dims[k] if k <= betti.cutoff else 0
    if hk:
        return MapDescription(em_factors=[], sphere_factor=SphereFactor(k, "symbolic"))
    model = sphere_map_null_model(A, k)
    return MapDescription(em_factors=[],
                          sphere_factor=SphereFactor(k, "resolved-null"),
                          model=model)
