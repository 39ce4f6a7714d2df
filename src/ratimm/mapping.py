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
                   TensorAlgebra, _unique_name, cohomology, d_columns)
from .errors import ComponentObstruction, InputError
from .gca import Element, FreeAlgebra, Generator

__all__ = [
    "EMFactor", "SphereFactor", "em_mapping_space", "odd_sphere_mapping",
    "sphere_model", "sigma_normalize", "SigmaNormalization",
    "sphere_map_null_model", "dual_mapping_null_model",
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
        raise InputError(f"odd_sphere_mapping needs odd k, got {k}")
    if k < 3:
        raise InputError("k must be >= 3 (simply connected target)")
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
    index = {key: i for i, key in enumerate(alg.keys_of_degree(deg))}
    columns = d_columns(target, dom_keys, index)
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

    into A (x) (new model), whose equations are expanded once.  The
    null-component choice then divides by the differential ideal of the
    generators of degree <= 0: those generators are set to zero, and when
    such a generator has a nonzero (necessarily linear, for degree
    reasons) differential, the degree-1 generators appearing in it are
    killed as well, iterating to closure.  Setting generators to zero is
    an algebra map, so each round drops the terms that contain a dead
    generator instead of expanding again.  d^2 = 0 on the result is
    asserted at construction.
    """
    basis = A.algebra.basis
    targets = target.algebra.generators
    slots: list[dict[int, int]] = [{} for _ in targets]  # [v][u] = index of v_u
    gens: list[Generator] = []
    taken: set[str] = set()
    for t, v in enumerate(targets):
        for u, (uname, udeg) in enumerate(basis):
            deg = v.degree - udeg
            if deg < 1:
                continue
            name = v.name if u == A.algebra.unit else f"{v.name}_{uname}"
            if name in taken:
                name = _unique_name(name, taken)
            taken.add(name)
            slots[t][u] = len(gens)
            gens.append(Generator(name, deg))
    label = label or f"Map(-,{target.label})"
    T = TensorAlgebra(A.algebra, FreeAlgebra(gens, label=label), label="pairing")
    pairing = [Element(T, {(u, ((g, 1),)): Fraction(1) for u, g in slot.items()})
               for slot in slots]

    # D(sum a_u (x) v_u) = sum d_A(a_u) (x) v_u
    #                      + (-1)^{|a_u|} a_u (x) delta(v_u)
    eqs: dict[tuple[int, int], dict] = {}  # (v, w) -> {monomial: coefficient}
    for t, v in enumerate(targets):
        rhs = T.zero()
        for mono, c in target.differential_of_generator(v.name).terms.items():
            term = T.one()
            for i, e in mono:
                for _ in range(e):
                    term = term * pairing[i]
            rhs = rhs + term * c
        terms = dict(rhs.terms)
        for u, g in slots[t].items():
            for w, c in A.diff_key(u).terms.items():
                key = (w, ((g, 1),))
                rest = terms.get(key, 0) - c
                if rest:
                    terms[key] = rest
                else:
                    terms.pop(key, None)
        for (w, mono), c in terms.items():
            eqs.setdefault((t, w), {})[mono] = -c if basis[w][1] % 2 else c

    dead: set[int] = set()
    while True:
        kills: set[int] = set()
        for (t, w), value in eqs.items():
            g = slots[t].get(w)
            if g is not None and g not in dead:
                continue
            # the slot is a dropped (degree <= 0) or killed generator: its
            # differential lies in the quotient ideal
            for mono in value:
                if any(i in dead for i, _ in mono):
                    continue
                if len(mono) != 1 or mono[0][1] != 1:
                    raise AssertionError(
                        "null-component quotient is not free: nonlinear term "
                        f"in the differential of a dropped generator ({targets[t].name})")
                kills.add(mono[0][0])
        if not kills:
            break
        dead |= kills

    live = [i for i in range(len(gens)) if i not in dead]
    index = {i: n for n, i in enumerate(live)}  # monotone: monomials stay sorted
    model_alg = FreeAlgebra([gens[i] for i in live], label=label)
    diff = {}
    for t, slot in enumerate(slots):
        for u, g in slot.items():
            if g in dead:
                continue
            terms = {tuple((index[i], e) for i, e in mono): c
                     for mono, c in eqs.get((t, u), {}).items()
                     if all(i in index for i, _ in mono)}
            if terms:
                diff[gens[g].name] = Element(model_alg, terms)
    return FreeCdga(model_alg, diff, label=label)


def sphere_map_null_model(A: FiniteCdga, k: int) -> FreeCdga:
    """Model of Map(M, S^k, constant) for k even and A a finite model of M.

    Odd k is rejected: odd spheres are rationally Eilenberg-MacLane and
    belong to em_mapping_space(betti, k).  A must be simply connected.
    """
    if k % 2:
        raise InputError(f"k must be even (odd spheres are Eilenberg-MacLane "
                         f"rationally; use em_mapping_space with n={k})")
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    if not isinstance(A, FiniteCdga):
        raise InputError("the source model must be finite-dimensional")
    # a flagged model's constructor checked H^1 = 0
    if not A.simply_connected and cohomology(A, 1, representatives=False).dims[1]:
        raise InputError("the source model must be simply connected")
    return dual_mapping_null_model(A, sphere_model(k),
                                   label=f"Map({A.label},S{k},0)")
