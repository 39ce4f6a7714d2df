"""Models of classifying spaces, Stiefel manifolds and framed bundles.

The framed frame bundle of a rank-m vector bundle has the Stiefel
manifold V_m(R^{m+k}) as fiber; its relative model over a model of the
base twists the fiber differential by the Pontryagin cocycles of the
bundle.  This module builds those models, the untruncated variant with
its reduction quasi-isomorphism, and the rational-triviality test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cdga import (BettiTable, CdgaMorphism, FiniteCdga, FreeCdga,
                   RelativeModel, cohomology)
from .errors import DegreeError
from .gca import Element, FreeAlgebra, Generator, parse_element

__all__ = [
    "BsoModel", "ManifoldModel", "bso_model", "borel_assoc_model",
    "stiefel_model", "framed_bundle_model", "unreduced_framed_model",
    "is_rationally_trivial", "TrivialityVerdict", "KunnethCertificate",
    "sphere_manifold", "complex_projective_plane", "sphere_product_manifold",
]


# ---------------------------------------------------------------------------
# Classifying-space models
# ---------------------------------------------------------------------------

@dataclass
class BsoModel:
    """Polynomial cohomology algebra of BSO(n) with zero differential.

    n = 2r+1: Pontryagin generators p_1..p_r (degrees 4..4r);
    n = 2r:   p_1..p_{r-1} plus the Euler generator e_n of degree n.
    """

    n: int
    cdga: FreeCdga

    @property
    def algebra(self):
        return self.cdga.algebra


def bso_model(n: int) -> BsoModel:
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    gens = []
    r = n // 2
    top = r if n % 2 else r - 1
    for i in range(1, top + 1):
        gens.append(Generator(f"p{i}", 4 * i))
    if n % 2 == 0:
        gens.append(Generator(f"e{n}", n))
    return BsoModel(n, FreeCdga(gens, {}, label=f"BSO({n})"))


# ---------------------------------------------------------------------------
# Manifold input data
# ---------------------------------------------------------------------------

class ManifoldModel:
    """A CDGA model of a closed simply-connected manifold plus tangent data.

    `pontryagin` maps index i to the cocycle representing p_i of the
    tangent bundle; only indices with 4i <= dimension are accepted, and
    every cocycle must be closed and homogeneous of degree 4i.
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
        self._betti_cache: dict[int, BettiTable] = {}
        for i, value in dict(pontryagin or {}).items():
            i = int(i)
            if i < 1:
                raise ValueError(f"Pontryagin index must be >= 1, got {i}")
            if 4 * i > dimension:
                raise ValueError(
                    f"p_{i} lives in degree {4 * i} > dimension {dimension}; "
                    "indices with 4i > m are rejected")
            elt = value if isinstance(value, Element) else \
                parse_element(str(value), model.algebra)
            if not elt.is_zero():
                if elt.degree() != 4 * i:
                    raise DegreeError(
                        f"p_{i} cocycle has degree {elt.degree()}, expected {4 * i}")
                if not model.diff(elt).is_zero():
                    raise ValueError(f"p_{i} cocycle is not closed: d = {model.diff(elt)}")
            self.pontryagin[i] = elt
        table = cohomology(model, 1, representatives=False)
        if table.dims[0] != 1:
            raise ValueError("manifold model must be connected (H^0 = Q)")
        if table.dims[1] != 0:
            raise ValueError("manifold model must be simply connected (H^1 = 0)")

    def pontryagin_class(self, i: int) -> Element | None:
        elt = self.pontryagin.get(i)
        if elt is None or elt.is_zero():
            return None
        return elt

    def betti(self, cutoff: int) -> BettiTable:
        cached = self._betti_cache.get(cutoff)
        if cached is None:
            cached = cohomology(self.model, cutoff, representatives=False)
            self._betti_cache[cutoff] = cached
        return cached

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
# Stiefel models
# ---------------------------------------------------------------------------

def _stiefel_generators(m: int, k: int):
    """Fiber generators and differentials for V_m(R^{m+k}), by parity case."""
    s, l = k // 2, m // 2
    gens: list[Generator] = []
    diff: dict[str, str] = {}
    if k % 2:  # k = 2s+1
        lo, hi = s + 1, l + s
    else:      # k = 2s
        lo, hi = s, (l + s) if m % 2 else (l + s - 1)
    for i in range(lo, hi + 1):
        gens.append(Generator(f"x{i}", 4 * i - 1))
    if (m + k) % 2 == 0:
        gens.append(Generator(f"ebar{m + k - 1}", m + k - 1))
    if k % 2 == 0:
        gens.append(Generator(f"e{k}", k))
        diff[f"x{s}"] = f"e{k}^2"
    return gens, diff


def stiefel_model(m: int, k: int) -> FreeCdga:
    """Minimal model of the Stiefel manifold V_m(R^{m+k}).

    Generators x_i of degree 4i-1 (range depending on the parities of m
    and k), an Euler generator e_k for k even with dx_s = e_k^2, and a
    top generator of degree m+k-1 when m+k is even.  Requires k >= 2 so
    the fiber is simply connected.
    """
    if m < 1:
        raise ValueError(f"frame count must be >= 1, got m={m}")
    if k < 2:
        raise ValueError(f"codimension must be >= 2, got k={k} "
                         "(the fiber is not simply connected otherwise)")
    gens, diff = _stiefel_generators(m, k)
    return FreeCdga(gens, diff, label=f"V_{m}(R^{m + k})")


# ---------------------------------------------------------------------------
# Borel associated-bundle model
# ---------------------------------------------------------------------------

def borel_assoc_model(baseA, phi: CdgaMorphism, VK, sVH, Bmu_images, Bnu_images,
                      label: str = "") -> RelativeModel:
    """Relative model of an associated homogeneous-space bundle.

    `phi` is the model of the classifying map, from a polynomial algebra
    with zero differential into the base.  Fiber generators are V_K
    (closed) together with the suspended sV_H; each sv in sV_H gets

        D(sv) = phi(Bmu(sv)) - Bnu(sv)

    with Bmu(sv) over phi's source and Bnu(sv) over Lambda(V_K).
    """
    vk = list(VK)
    svh = list(sVH)
    vk_algebra = FreeAlgebra(vk, label="VK")
    scratch = RelativeModel(baseA, vk + svh, twist={}, label=label, check=False)

    def fiber_embed(elt: Element) -> Element:
        terms = {}
        for mono, c in elt.terms.items():
            new = []
            for i, e in mono:
                nm = vk_algebra.generators[i].name
                nm = scratch.renamings.get(nm, nm)
                new.append((scratch.fiber.generator_index(nm), e))
            terms[(baseA.algebra.one_key(), tuple(sorted(new)))] = c
        return Element(scratch.algebra, terms)

    twist = {}
    for g in svh:
        mu_val = Bmu_images.get(g.name, 0)
        nu_val = Bnu_images.get(g.name, 0)
        mu_elt = mu_val if isinstance(mu_val, Element) else \
            parse_element(str(mu_val), phi.source.algebra)
        nu_elt = nu_val if isinstance(nu_val, Element) else \
            parse_element(str(nu_val), vk_algebra)
        for name, elt in ((f"Bmu({g.name})", mu_elt), (f"Bnu({g.name})", nu_elt)):
            if not elt.is_zero() and elt.degree() != g.degree + 1:
                raise DegreeError(
                    f"{name} has degree {elt.degree()}, expected {g.degree + 1}")
        image = scratch.embed_base(phi.apply(mu_elt)) - fiber_embed(nu_elt)
        if not image.is_zero():
            twist[g.name] = image
    return RelativeModel(baseA, vk + svh, twist=twist, label=label)


# ---------------------------------------------------------------------------
# Framed-bundle models
# ---------------------------------------------------------------------------

def framed_bundle_model(M: ManifoldModel, k: int) -> RelativeModel:
    """Relative model of the framed bundle of the tangent bundle plus k.

    Fiber generators come from stiefel_model(m, k); x_i carries the
    Pontryagin cocycle p_i of the tangent bundle whenever 4i <= m (zero
    otherwise), and for k even x_s additionally carries e_k^2.
    """
    if k < 2:
        raise ValueError(f"codimension must be >= 2, got k={k}")
    m = M.dimension
    s = k // 2
    gens, _ = _stiefel_generators(m, k)
    label = f"Framed_{m}({M.name}, k={k})"
    scratch = RelativeModel(M.model, gens, twist={}, label=label, check=False)
    twist = {}
    for g in gens:
        if not g.name.startswith("x"):
            continue
        i = int(g.name[1:])
        total = scratch.algebra.zero()
        if k % 2 == 0 and i == s:
            euler = scratch.renamings.get(f"e{k}", f"e{k}")
            total = total + scratch.embed_fiber(scratch.fiber.name_power(euler, 2))
        if 4 * i <= m:
            p = M.pontryagin_class(i)
            if p is not None:
                total = total + scratch.embed_base(p)
        if not total.is_zero():
            twist[g.name] = total
    return RelativeModel(M.model, gens, twist=twist, label=label)


def unreduced_framed_model(M: ManifoldModel, k: int):
    """The Borel-style model before cancelling contractible pairs, with
    its reduction quasi-isomorphism onto framed_bundle_model(M, k).

    Fiber: x_1..x_T (T from the parity of m+k), the top generator when
    m+k is even, and the auxiliary closed generators of BSO(k): b_i of
    degree 4i (plus e_k for k even).  Differentials:

        D(x_i) = p_i - b_i          for the paired range,
        D(x_s) = e_k^2 + p_s        for k even,
        D(x_i) = p_i                otherwise (zero when 4i > m),

    and the reduction sends the paired x_i to 0, b_i to p_i, and fixes
    everything else.  Chain-map and quasi-isomorphism properties are
    validated on construction.
    """
    if k < 2:
        raise ValueError(f"codimension must be >= 2, got k={k}")
    m = M.dimension
    s = k // 2
    T = (m + k - 1) // 2
    paired = s if k % 2 else s - 1

    gens = [Generator(f"x{i}", 4 * i - 1) for i in range(1, T + 1)]
    if (m + k) % 2 == 0:
        gens.append(Generator(f"ebar{m + k - 1}", m + k - 1))
    for i in range(1, paired + 1):
        gens.append(Generator(f"b{i}", 4 * i))
    if k % 2 == 0:
        gens.append(Generator(f"e{k}", k))

    scratch = RelativeModel(M.model, gens, twist={}, label="scratch", check=False)
    twist = {}
    for i in range(1, T + 1):
        total = scratch.algebra.zero()
        p = M.pontryagin_class(i) if 4 * i <= m else None
        if p is not None:
            total = total + scratch.embed_base(p)
        if i <= paired:
            total = total - scratch.fiber_gen(f"b{i}")
        if k % 2 == 0 and i == s:
            euler = scratch.renamings.get(f"e{k}", f"e{k}")
            total = total + scratch.embed_fiber(scratch.fiber.name_power(euler, 2))
        if not total.is_zero():
            twist[f"x{i}"] = total
    big = RelativeModel(M.model, gens, twist=twist,
                        label=f"UnreducedFramed_{m}({M.name}, k={k})")

    reduced = framed_bundle_model(M, k)
    images: dict[str, Element] = {}
    zero = reduced.algebra.zero()
    for i in range(1, T + 1):
        images[f"x{i}"] = zero if i <= paired else reduced.fiber_gen(f"x{i}")
    if (m + k) % 2 == 0:
        images[f"ebar{m + k - 1}"] = reduced.fiber_gen(f"ebar{m + k - 1}")
    for i in range(1, paired + 1):
        p = M.pontryagin_class(i) if 4 * i <= m else None
        images[f"b{i}"] = reduced.embed_base(p) if p is not None else zero
    if k % 2 == 0:
        images[f"e{k}"] = reduced.fiber_gen(f"e{k}")
    phi = CdgaMorphism(big, reduced, images, label="reduction")
    return big, phi


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


def pontryagin_vanishing_threshold(k: int) -> int:
    """Smallest index from which p_i must vanish: s+1 for k=2s+1, s for k=2s."""
    s = k // 2
    return s + 1 if k % 2 else s


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
    product = _convolve(base_table.dims, fiber_table.dims, cutoff)
    cert = KunnethCertificate(cutoff, list(model_table.dims), product)
    if not cert.matches:
        return TrivialityVerdict("not-established", cert,
                                 ["Kunneth certificate failed"])
    return TrivialityVerdict("trivial", cert)


def _convolve(a: list[int], b: list[int], cutoff: int) -> list[int]:
    out = [0] * (cutoff + 1)
    for i, x in enumerate(a[:cutoff + 1]):
        if not x:
            continue
        for j, y in enumerate(b[:cutoff + 1 - i]):
            out[i + j] += x * y
    return out
