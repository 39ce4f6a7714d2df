"""Rational models of section spaces, such as Map(M, S^k), over a finite complex.

`em_split` splits the section space of a relative model E over a model
A of M at its fibre into Eilenberg-MacLane factors, read off the Betti
numbers of M, and the fibre generators it keeps; it hands out the Betti
table it walked, which stops at M's top degree (H(M) is zero above
it), so a caller reads H(M) there.  `section_model`, the
one place that needs A finite, reads E in place and models the null
sections of those on generators (fibre generator) x (dual basis class),
with the differential determined by requiring the evaluation pairing
to be a chain map (signs pinned by the d^2 = 0 assertion).  One
cancellation step, a generator solved out of a linear term and
substituted away, both takes the null-component quotient and removes
contractible pairs, so the model comes out minimal.  Map(M, S^k) takes
the same route from `sphere_bundle`, which alone states the k allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .cdga import (BettiTable, FiniteCdga, FreeCdga, RelativeModel,
                   TensorAlgebra, _tensor_relative, _unique_name, cohomology)
from .errors import InputError
from .gca import _NAME_RE, Element, FreeAlgebra, Generator, _exact, add_into

__all__ = [
    "EMFactor", "SphereFactor", "em_mapping_space", "em_split",
    "section_model", "sphere_model", "sphere_bundle", "sphere_map_null_model",
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


def _em_factors(dims: list[int], n: int) -> list[EMFactor]:
    """K(Q, n - j)^{b_j} for each degree j < n with b_j = dims[j] != 0,
    q = n - j ascending; a degree past the end of `dims` counts as zero."""
    return [EMFactor(dims[j], n - j) for j in reversed(list(compress(range(n), dims)))]


def em_mapping_space(bettiM: BettiTable, n: int) -> list[EMFactor]:
    """Factors K(H^{n-q}(M;Q), q) for 1 <= q <= n of Map(M, K(Q,n)),
    read off a Betti table of M that reaches degree n.

    Zero-dimensional coefficient groups are omitted; the q = 0 datum (it
    would index components, not cohomology) is not part of the list.
    """
    if n < 1:
        raise ValueError(f"target degree must be >= 1, got {n}")
    if bettiM.cutoff < n:
        raise ValueError(f"need Betti numbers of the source up to degree {n}, "
                         f"have cutoff {bettiM.cutoff}")
    return _em_factors(bettiM.dims, n)


def sphere_model(k: int) -> FreeCdga:
    """Minimal model of S^k: one odd generator, or (x_k, y_{2k-1}; dy=x^2)."""
    if k % 2:
        return FreeCdga([Generator("x", k)], {}, label=f"S{k}")
    return FreeCdga([Generator("x", k), Generator("y", 2 * k - 1)],
                    {"y": "x^2"}, label=f"S{k}")


def sphere_bundle(A, k: int) -> RelativeModel:
    """The product bundle A (x) sphere_model(k) over A, of either kind,
    for a simply connected target: k >= 3 odd or k >= 2 even."""
    if k < 2 + k % 2:
        raise InputError("k must be >= 3 (simply connected target)" if k % 2
                         else f"k must be >= 2, got {k}")
    return _tensor_relative(A, sphere_model(k), f"{A.label}(x)S{k}")


# ---------------------------------------------------------------------------
# Section spaces
# ---------------------------------------------------------------------------

def em_split(E) -> tuple[list[EMFactor], list[Generator], BettiTable | None]:
    """Split the section space of E at its fibre.

    A fibre generator v that is closed and that no twist mentions splits
    off Map(M, K(Q,|v|)), whose factors, as `em_mapping_space` gives
    them, are read off one Betti walk of the base, which may be free.
    The walk goes to the largest |v|, or to the base's top degree if it
    has one and that is lower: the Betti numbers above it are zero.
    Returns those factors by degree, the larger multiplicity first, the
    other fibre generators as given to E, in fibre order, and the Betti
    table walked, or None when nothing splits (and nothing is walked).
    """
    twists = [E.twist_of(g.name) for g in E.given]
    mentioned = {i for dv in twists for _, fm in dv.terms for i, _ in fm}
    kept = [g for i, g in enumerate(E.given) if twists[i].terms or i in mentioned]
    split = [g.degree for g in E.given if g not in kept]
    if not split:
        return [], kept, None
    top, cutoff = E.base.algebra.top_degree, max(split)
    betti = cohomology(E.base, cutoff if top is None else min(cutoff, top),
                       representatives=False)
    factors = sorted((f for n in split for f in _em_factors(betti.dims, n)),
                     key=lambda f: (f.degree, -f.coefficient_dim))
    return factors, kept, betti


def section_model(E: RelativeModel, generators=None, label: str = "") -> FreeCdga:
    """Minimal model of the null-section component of E over a finite A.

    Generators v_u = (v in `generators`: fibre generators as given to E,
    each once, all by default, whose twists mention no others) x (dual
    of basis element a_u) in degree |v| - |a_u|; any other v is an
    InputError that names it.  The differential is solved from
    the chain-map condition for the pairing

        v  |->  sum_u  a_u (x) v_u

    into A (x) (new model): a term lk (x) fm of D(v) becomes
    (lk (x) 1) * prod pairing, so the equations are expanded once.  The
    null-component choice divides by the differential ideal of the
    generators of degree <= 0 (Brown-Szczarba).  Those generators never
    enter the equations, and their differentials are linear forms L in
    the degree-1 generators (every product has degree >= 2); d^2 = 0
    puts d(L) in the ideal already, so the quotient only sets each L to
    zero.  An L with a constant term (the twist pairs to a nonzero
    number) has no zero: E has no null section, and InputError names
    the generator.  Then a live w whose differential has a linear term
    spans a contractible pair, whose quotient is a quasi-isomorphism
    (Félix-Halperin-Thomas, Thm 14.9).  Both are one step: solve a
    generator u out of a linear term c*u of an equation e, put
    u := u - e/c into the equations that contain u, and drop u with its
    partner.  It runs over the L's in slot order, an echelon, and then
    over the live generators by increasing degree, which leaves no
    linear term: the result is minimal.  d^2 = 0 on it is asserted at
    construction.
    """
    A = E.base
    if not isinstance(A, FiniteCdga):
        raise InputError("the source model must be finite-dimensional")
    basis = A.algebra.basis
    fibre = E.given
    slots: dict[int, dict[int, int]] = {}  # [t][u] = index of v_u, v = fibre[t]
    gens: list[Generator] = []
    taken: set[str] = set()
    for v in fibre if generators is None else generators:
        if v not in fibre:
            raise InputError(f"{v.name} of degree {v.degree} is not a fibre "
                             f"generator of {E.label}")
        t = fibre.index(v)  # E's fibre index, as its twist terms use
        if t in slots:
            raise InputError(f"the fibre generator {v.name} is given twice")
        slot = slots[t] = {}
        for u, (uname, udeg) in enumerate(basis):
            deg = v.degree - udeg
            if deg < 1:
                continue
            name = v.name if u == A.algebra.unit else f"{v.name}_{uname}"
            if not _NAME_RE.match(name):
                raise InputError(f"the basis element {uname!r} of {A.label} gives the "
                                 f"generator name {name!r}, which is not an identifier")
            if name in taken:
                name = _unique_name(name, taken)
            taken.add(name)
            slot[u] = len(gens)
            gens.append(Generator(name, deg))
    label = label or f"Sect({E.label})"
    full = FreeAlgebra(gens, label=label)
    T = TensorAlgebra(A.algebra, full, label="pairing")
    pairing = {t: Element(T, {(u, ((g, 1),)): 1 for u, g in slot.items()})
               for t, slot in slots.items()}

    # D(sum a_u (x) v_u) = sum d_A(a_u) (x) v_u
    #                      + (-1)^{|a_u|} a_u (x) delta(v_u)
    eqs: dict[tuple[int, int], dict] = {}  # (v, w) -> {monomial: coefficient}
    for t, slot in slots.items():
        rhs = T.zero()
        for (lk, fm), c in E.twist_of(fibre[t].name).terms.items():
            term = Element(T, {(lk, ()): 1})
            for i, e in fm:
                if i not in slots:
                    raise InputError(f"the twist of {fibre[t].name} mentions "
                                     f"{fibre[i].name}, which is not sectioned")
                term = term * pairing[i] ** e
            rhs = rhs + term * c
        terms = dict(rhs.terms)
        for u, g in slot.items():
            add_into(terms, (((w, ((g, 1),)), c)
                             for w, c in A.diff_key(u).terms.items()), -1)
        for (w, mono), c in terms.items():
            eqs.setdefault((t, w), {})[mono] = -c if basis[w][1] % 2 else c

    # a constant (degree 0) is only ever in an L
    for (t, w), e in sorted(eqs.items()):
        if () in e:
            raise InputError(f"the equation of {fibre[t].name} at {basis[w][0]} has "
                             f"the constant term {e[()]}: {E.label} has no null section")

    # the differentials of the generators, and the dropped slots' L's
    diffs = {g: eqs.get((t, u), {}) for t, slot in slots.items()
             for u, g in slot.items()}
    dropped = [e for (t, w), e in sorted(eqs.items()) if w not in slots[t]]

    def eliminate(u: int, value: dict):
        """Drop generator u, putting u := value in every equation left."""
        diffs.pop(u, None)
        sub = Element(full, value)
        for eq in (*dropped, *diffs.values()):
            hits = [(m, p) for m in eq for p, (i, _) in enumerate(m) if i == u]
            for mono, pos in hits:
                c = eq.pop(mono)
                term = (Element(full, {mono[:pos]: c}) * sub ** mono[pos][1]
                        * Element(full, {mono[pos + 1:]: 1}))
                add_into(eq, term.terms.items())

    def solve(eq: dict, mono):
        """Eliminate the generator of the linear term `mono` by eq = 0."""
        q = _exact(Fraction(-1, eq.pop(mono)))
        eliminate(mono[0][0], {m: q * c for m, c in eq.items()})

    while dropped:
        L = dropped.pop(0)
        if L:  # linear, so its smallest term is a pivot
            solve(L, min(L))
    for w in sorted(diffs, key=lambda g: gens[g].degree):
        linear = [m for m in diffs.get(w, ()) if len(m) == 1 and m[0][1] == 1]
        if linear:
            solve(diffs.pop(w), min(linear))
            eliminate(w, {})

    live = list(diffs)  # in generator order
    index = {g: n for n, g in enumerate(live)}  # monotone: monomials stay sorted
    model_alg = FreeAlgebra([gens[g] for g in live], label=label)
    diff = {gens[g].name: Element(model_alg, {tuple((index[i], e) for i, e in m): c
                                              for m, c in diffs[g].items()})
            for g in live if diffs[g]}
    return FreeCdga(model_alg, diff, label=label)


def sphere_map_null_model(A: FiniteCdga, k: int) -> FreeCdga:
    """Model of Map(M, S^k, constant) for k even and A a finite model of M:
    the section model of what `em_split` keeps of sphere_bundle(A, k).

    Odd k is rejected: odd spheres are rationally Eilenberg-MacLane, so
    em_split takes off all of sphere_bundle(A, k).  A must be simply
    connected, and this entry walks H^1 of A itself: a bare CDGA has not
    passed `ManifoldModel`'s check, and for k even em_split splits
    nothing off, so it walks no Betti table to read H^1 from.
    """
    E = sphere_bundle(A, k)
    _, kept, _ = em_split(E)
    if not kept:
        raise InputError(f"k must be even (odd spheres are Eilenberg-MacLane "
                         f"rationally; em_split gives Map(M, S^{k}) as factors)")
    model = section_model(E, kept, label=f"Map({A.label},S{k},0)")
    # A is finite here; a flagged model's constructor checked H^1 = 0
    if not A.simply_connected and cohomology(A, 1, representatives=False).dims[1]:
        raise InputError("the source model must be simply connected")
    return model
