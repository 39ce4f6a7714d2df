"""Models of classifying spaces, Stiefel manifolds and framed bundles.

The framed frame bundle of a rank-m vector bundle has the Stiefel
manifold V_m(R^{m+k}) as fiber; its relative model over a model of the
base twists the fiber differential by the Pontryagin cocycles of the
bundle.  Every such model is built from one table of fiber generators
(`_fiber_generators`).  With t = pontryagin_vanishing_threshold(k) and
T = (m+k-1)//2 it lists, from an index `first` on,

    x_i           degree 4i-1,   first <= i <= T,
    ebar_{m+k-1}  degree m+k-1,  when m+k is even,
    b_i           degree 4i,     first <= i < t,
    e_k           degree k,      when k is even,

and the differential is D(x_i) = p_i - b_i + e_k^2, where the b_i term
is present for i < t and the e_k^2 term for 2i = k; the other generators
are closed.  `stiefel_model` (no base) and `framed_bundle_model` read
the table from first = t, `unreduced_framed_model` from first = 1, and
its reduction quasi-isomorphism sends x_i to 0 and b_i to p_i for i < t.
The module also holds the rational-triviality test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cdga import (BettiTable, CdgaMorphism, FiniteCdga, FreeCdga,
                   RelativeModel, TensorAlgebra, cohomology)
from .errors import ContextError, DegreeError, InputError, ParseError
from .gca import Element, FreeAlgebra, Generator, parse_element
from .series import PoincareSeries

__all__ = [
    "ManifoldModel", "bso_model", "stiefel_model", "framed_bundle_model",
    "unreduced_framed_model", "is_rationally_trivial", "TrivialityVerdict",
    "KunnethCertificate", "sphere_manifold", "complex_projective_plane",
    "sphere_product_manifold",
]


# ---------------------------------------------------------------------------
# Classifying-space models
# ---------------------------------------------------------------------------

def bso_model(n: int) -> FreeCdga:
    """Polynomial cohomology algebra of BSO(n) with zero differential.

    n = 2r+1: Pontryagin generators p_1..p_r (degrees 4..4r);
    n = 2r:   p_1..p_{r-1} plus the Euler generator e_n of degree n.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    gens = []
    r = n // 2
    top = r if n % 2 else r - 1
    for i in range(1, top + 1):
        gens.append(Generator(f"p{i}", 4 * i))
    if n % 2 == 0:
        gens.append(Generator(f"e{n}", n))
    return FreeCdga(gens, {}, label=f"BSO({n})")


# ---------------------------------------------------------------------------
# Manifold input data
# ---------------------------------------------------------------------------

class ManifoldModel:
    """A CDGA model of a closed simply-connected manifold plus tangent data.

    `pontryagin` maps index i to the cocycle representing p_i of the
    tangent bundle; only indices with 4i <= dimension are accepted, and
    every cocycle must be closed and homogeneous of degree 4i; a
    complaint about one names its index in the `pontryagin` attribute.
    """

    def __init__(self, dimension: int, model, pontryagin=None, name: str = ""):
        if dimension < 2:
            raise ValueError("manifold dimension must be at least 2")
        if not isinstance(model, (FiniteCdga, FreeCdga)):
            raise TypeError("model must be a FiniteCdga or FreeCdga")
        self.dimension = dimension
        self.model = model
        self.name = name or model.label
        self.pontryagin: dict[int, Element] = {}
        for i, value in dict(pontryagin or {}).items():
            i = int(i)
            try:
                if i < 1:
                    raise ValueError(f"Pontryagin index must be >= 1, got {i}")
                if 4 * i > dimension:
                    raise ValueError(f"p_{i} lives in degree {4 * i} > dimension "
                                     f"{dimension}; indices with 4i > m are rejected")
                elt = value if isinstance(value, Element) else \
                    parse_element(str(value), model.algebra)
                if not elt.is_zero() and elt.degree() != 4 * i:
                    raise DegreeError(
                        f"p_{i} cocycle has degree {elt.degree()}, expected {4 * i}")
                if not elt.is_zero() and not model.diff(elt).is_zero():
                    raise ValueError(f"p_{i} cocycle is not closed: d = {model.diff(elt)}")
            except (ValueError, ParseError, DegreeError, ContextError) as exc:
                exc.pontryagin = i
                raise
            self.pontryagin[i] = elt
        # H^0 = Q already: a finite model's constructor checks it, and a
        # free model has only the unit in degree 0, with d(1) = 0
        if isinstance(model, FiniteCdga) and model.simply_connected:
            return  # its constructor checked H^1 = 0 too
        if cohomology(model, 1, representatives=False).dims[1] != 0:
            raise ValueError("manifold model must be simply connected (H^1 = 0)")

    def pontryagin_class(self, i: int) -> Element | None:
        elt = self.pontryagin.get(i)
        if elt is None or elt.is_zero():
            return None
        return elt

    def betti(self, cutoff: int) -> BettiTable:
        return cohomology(self.model, cutoff, representatives=False)

    def __repr__(self):
        ps = ", ".join(f"p{i}" for i, e in sorted(self.pontryagin.items())
                       if not e.is_zero()) or "none"
        return f"ManifoldModel({self.name!r}, dim {self.dimension}, classes: {ps})"


def sphere_manifold(m: int) -> ManifoldModel:
    """The m-sphere with its cohomology as a finite model (m >= 2)."""
    if m < 2:
        raise ValueError("spheres must have dimension >= 2 (simply connected)")
    model = FiniteCdga([("one", 0), (f"a{m}", m)], {}, label=f"S{m}",
                       simply_connected=True)
    return ManifoldModel(m, model, {}, name=f"S^{m}")


def complex_projective_plane(p1="3*aa") -> ManifoldModel:
    """CP^2 with its truncated polynomial cohomology; p_1 defaults to 3a^2."""
    model = FiniteCdga([("one", 0), ("a", 2), ("aa", 4)], {("a", "a"): "aa"},
                       label="CP2", simply_connected=True)
    pont = {} if p1 in (0, "0", None) else {1: p1}
    return ManifoldModel(4, model, pont, name="CP^2")


def sphere_product_manifold(m1: int, m2: int) -> ManifoldModel:
    """S^{m1} x S^{m2}; tangent Pontryagin classes vanish."""
    from .cdga import tensor
    a = sphere_manifold(m1).model
    b = sphere_manifold(m2).model
    model = tensor(a, b, label=f"S{m1}xS{m2}")
    return ManifoldModel(m1 + m2, model, {}, name=f"S^{m1}xS^{m2}")


# ---------------------------------------------------------------------------
# The Stiefel fiber
# ---------------------------------------------------------------------------

def pontryagin_vanishing_threshold(k: int) -> int:
    """Smallest index from which p_i must vanish: s+1 for k=2s+1, s for k=2s."""
    s = k // 2
    return s + 1 if k % 2 else s


def _fiber_generators(m: int, k: int, first: int) -> list[Generator]:
    """The fiber table of V_m(R^{m+k}) from index `first` on, in order:
    x_i (first <= i <= (m+k-1)//2), ebar_{m+k-1}, b_i (first <= i < t),
    e_k; see the module docstring."""
    gens = [Generator(f"x{i}", 4 * i - 1) for i in range(first, (m + k + 1) // 2)]
    if (m + k) % 2 == 0:
        gens.append(Generator(f"ebar{m + k - 1}", m + k - 1))
    gens += [Generator(f"b{i}", 4 * i)
             for i in range(first, pontryagin_vanishing_threshold(k))]
    if k % 2 == 0:
        gens.append(Generator(f"e{k}", k))
    return gens


def check_codimension(k: int) -> None:
    """The codimension rule of every Stiefel fiber and framed model: k >= 2."""
    if k < 2:
        raise InputError(f"codimension must be >= 2, got k={k} "
                         "(the fiber is not simply connected otherwise)")


def stiefel_model(m: int, k: int) -> FreeCdga:
    """Minimal model of the Stiefel manifold V_m(R^{m+k}).

    The fiber table from the threshold t on: x_t..x_T of degree 4i-1
    (T = (m+k-1)//2), the top generator ebar_{m+k-1} when m+k is even, and for k even the
    Euler generator e_k with dx_s = e_k^2 (s = k/2 = t).  Requires
    k >= 2 (`check_codimension`).
    """
    if m < 1:
        raise InputError(f"frame count must be >= 1, got m={m}")
    check_codimension(k)
    t = pontryagin_vanishing_threshold(k)
    diff = {f"x{t}": f"e{k}^2"} if k % 2 == 0 else {}
    return FreeCdga(_fiber_generators(m, k, t), diff, label=f"V_{m}(R^{m + k})")


# ---------------------------------------------------------------------------
# Framed-bundle models
# ---------------------------------------------------------------------------

def _framed(M: ManifoldModel, k: int, first: int, label: str) -> RelativeModel:
    """The relative model on the fiber table from `first` on, with
    D(x_i) = p_i - b_i + e_k^2: b_i for i < t, e_k^2 for 2i = k."""
    check_codimension(k)
    m = M.dimension
    t = pontryagin_vanishing_threshold(k)
    gens = _fiber_generators(m, k, first)
    # the twist is written over the fiber generators as given
    alg = TensorAlgebra(M.model.algebra, FreeAlgebra(gens))
    twist = {}
    for g in gens:
        if not g.name.startswith("x"):
            continue  # ebar, b_i and e_k are closed
        i = (g.degree + 1) // 4
        p = M.pontryagin_class(i)
        total = alg.zero() if p is None else alg.embed_left(p)
        if i < t:
            total -= alg.embed_right(alg.right.gen(f"b{i}"))
        if 2 * i == k:
            total += alg.embed_right(alg.right.name_power(f"e{k}", 2))
        if not total.is_zero():
            twist[g.name] = total
    return RelativeModel(M.model, gens, twist=twist,
                         label=f"{label}_{m}({M.name}, k={k})")


def framed_bundle_model(M: ManifoldModel, k: int) -> RelativeModel:
    """Relative model of the framed bundle of the tangent bundle plus k.

    Fiber generators are those of stiefel_model(m, k); x_i carries the
    Pontryagin cocycle p_i of the tangent bundle (zero when M has none),
    and for k even x_s additionally carries e_k^2.
    """
    return _framed(M, k, pontryagin_vanishing_threshold(k), "Framed")


def unreduced_framed_model(M: ManifoldModel, k: int):
    """The Borel-style model before cancelling contractible pairs, with
    its reduction quasi-isomorphism onto framed_bundle_model(M, k).

    Fiber: the table from index 1 on, so below the threshold t it adds
    x_i and the closed generators b_i of BSO(k) for i < t, with

        D(x_i) = p_i - b_i          for i < t,

    and the differentials of framed_bundle_model otherwise.  The
    reduction sends x_i to 0 and b_i to p_i for i < t and fixes every
    generator of the reduced model; it is checked to be a chain map on
    construction.
    """
    big = _framed(M, k, 1, "UnreducedFramed")
    reduced = framed_bundle_model(M, k)
    t = pontryagin_vanishing_threshold(k)
    images = {g.name: reduced.fiber_gen(g.name)
              for g in _fiber_generators(M.dimension, k, t)}
    zero = reduced.algebra.zero()
    for i in range(1, t):
        p = M.pontryagin_class(i)
        images[f"x{i}"] = zero
        images[f"b{i}"] = zero if p is None else reduced.algebra.embed_left(p)
    return big, CdgaMorphism(big, reduced, images, label="reduction")


# ---------------------------------------------------------------------------
# Rational triviality
# ---------------------------------------------------------------------------

@dataclass
class KunnethCertificate:
    cutoff: int
    model_dims: list[int]
    product_dims: list[int]

    @property
    def matches(self) -> bool:
        return self.model_dims == self.product_dims


@dataclass
class TrivialityVerdict:
    status: str  # "trivial" | "not-established"
    certificate: KunnethCertificate | None = None
    failures: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.status == "trivial"


def check_pontryagin_hypothesis(M: ManifoldModel, k: int):
    """Indices >= threshold with nonvanishing supplied classes."""
    threshold = pontryagin_vanishing_threshold(k)
    failures = [i for i in sorted(M.pontryagin)
                if i >= threshold and M.pontryagin_class(i) is not None]
    return threshold, failures


def is_rationally_trivial(M: ManifoldModel, k: int, cutoff: int = 20) -> TrivialityVerdict:
    """One-sided triviality test for the framed bundle.

    Returns "trivial" when the Pontryagin classes vanish from the
    parity-dependent threshold on AND the relative model's Betti table
    equals the base-times-fiber convolution up to the cutoff; otherwise
    "not-established" (no claim of nontriviality is made).
    """
    threshold, failures = check_pontryagin_hypothesis(M, k)
    if failures:
        return TrivialityVerdict(
            "not-established", None,
            [f"p_{i} is nonzero but indices >= {threshold} must vanish"
             for i in failures])
    model = framed_bundle_model(M, k)
    model_table = cohomology(model, cutoff, representatives=False)
    base_table = M.betti(cutoff)
    fiber_table = cohomology(stiefel_model(M.dimension, k), cutoff,
                             representatives=False)
    product = (PoincareSeries(base_table.dims, cutoff)
               * PoincareSeries(fiber_table.dims, cutoff))
    cert = KunnethCertificate(cutoff, list(model_table.dims), list(product.coeffs))
    if not cert.matches:
        return TrivialityVerdict("not-established", cert,
                                 ["Kunneth certificate failed"])
    return TrivialityVerdict("trivial", cert)
