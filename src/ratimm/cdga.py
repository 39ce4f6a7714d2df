"""Differential graded algebras: free, finite-dimensional, and relative.

Three algebra kinds share one element type and one cohomology routine:

* `FreeCdga` -- a free graded-commutative algebra with a degree +1
  derivation given on generators (Sullivan-style model).
* `FiniteCdga` -- a finite-dimensional algebra presented by a basis, a
  structure-constant product table and a differential matrix.
* `RelativeModel` -- an inclusion of a base CDGA into base (x) fiber with
  a twisted differential on the fiber generators.

Cohomology is computed degreewise by exact sparse elimination; a dense
eliminator is available as an independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import ChainMapError, ContextError, DegreeError
from .gca import Element, FreeAlgebra, Generator, parse_element, parse_linear

__all__ = [
    "FreeCdga", "FiniteAlgebra", "FiniteCdga", "RelativeModel",
    "TensorAlgebra", "CdgaMorphism", "BettiTable", "Violation",
    "extend_derivation", "check_d_squared", "cohomology", "tensor",
    "is_quasi_iso", "unit_cdga",
]


def _as_element(value, context) -> Element:
    if isinstance(value, Element):
        if value.algebra is not context:
            raise ContextError("differential image built over a foreign algebra")
        return value
    if isinstance(value, str):
        return parse_element(value, context)
    raise TypeError(f"cannot interpret {value!r} as an element")


def _leibniz(total, free_alg: FreeAlgebra, mono, diff_of_gen, embed_mono) -> Element:
    """Derivation of a free monomial inside a possibly larger algebra.

    D(g1^e1 ... gr^er) with D given on generators; `embed_mono` injects
    fiber monomials into the total algebra, whose product supplies all
    Koszul signs.  The derivation sign (-1)^{|prefix|} is explicit.
    """
    factors = list(mono)
    result = total.zero()
    prefix_deg = 0
    for idx, (gi, ei) in enumerate(factors):
        dg = diff_of_gen(gi)
        if dg is not None and not dg.is_zero():
            prefix = embed_mono(tuple(factors[:idx]))
            suffix = embed_mono(tuple(factors[idx + 1:]))
            power = embed_mono(((gi, ei - 1),)) if ei > 1 else None
            term = prefix * dg if power is None else prefix * (power * dg)
            term = term * suffix * ei
            if prefix_deg % 2:
                term = -term
            result = result + term
        g = free_alg.generators[gi]
        prefix_deg += g.degree * ei
    return result


# ---------------------------------------------------------------------------
# Free CDGA
# ---------------------------------------------------------------------------

class FreeCdga:
    """Free graded-commutative algebra with a differential on generators."""

    def __init__(self, generators, differential=None, label: str = "", check: bool = True):
        if isinstance(generators, FreeAlgebra):
            self.algebra = generators
        else:
            self.algebra = FreeAlgebra(generators, label=label)
        self.label = label or self.algebra.label
        diff = differential or {}
        self._diff: dict[int, Element] = {}
        for key, value in diff.items():
            name = key.name if isinstance(key, Generator) else key
            i = self.algebra.generator_index(name)
            elt = _as_element(value, self.algebra)
            self._diff[i] = elt
        if check:
            self._validate()

    def _validate(self):
        for i, elt in self._diff.items():
            g = self.algebra.generators[i]
            if elt.is_zero():
                continue
            deg = elt.degree()
            if deg != g.degree + 1:
                raise DegreeError(
                    f"d({g.name}) has degree {deg}, expected {g.degree + 1}")
        for g in self.algebra.generators:
            residue = self.diff(self.diff(self.algebra.gen(g.name)))
            if not residue.is_zero():
                raise ValueError(
                    f"d^2 != 0 on generator {g.name}: residue {residue}")

    @property
    def generators(self):
        return self.algebra.generators

    def differential_of_generator(self, name: str) -> Element:
        i = self.algebra.generator_index(name)
        return self._diff.get(i, self.algebra.zero())

    def diff_key(self, mono) -> Element:
        return _leibniz(self.algebra, self.algebra, mono,
                        lambda i: self._diff.get(i),
                        lambda m: Element(self.algebra, {m: Fraction(1)}))

    def diff(self, element: Element) -> Element:
        if element.algebra is not self.algebra:
            raise ContextError("element not over this algebra")
        result = self.algebra.zero()
        for mono, c in element.terms.items():
            result = result + self.diff_key(mono) * c
        return result

    def d2_check_generators(self):
        return [g.name for g in self.algebra.generators]

    def __repr__(self):
        return f"FreeCdga({self.label!r}, {len(self.algebra.generators)} generators)"


def unit_cdga(label: str = "unit") -> FreeCdga:
    """The base field as a CDGA (no generators, zero differential)."""
    return FreeCdga([], label=label)


# ---------------------------------------------------------------------------
# Finite-dimensional basis-presented algebras
# ---------------------------------------------------------------------------

class FiniteAlgebra:
    """Graded algebra on a finite basis with structure-constant products.

    Keys are basis indices; the single degree-0 element is the unit.
    Products may be given for either orientation of a pair, the other is
    filled in with the Koszul sign.
    """

    def __init__(self, basis, products=None, label: str = "", check: bool = True):
        self.basis = tuple((str(n), int(d)) for n, d in basis)
        self.label = label
        names = [n for n, _ in self.basis]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate basis names in {names}")
        self._index = {n: i for i, (n, _) in enumerate(self.basis)}
        units = [i for i, (_, d) in enumerate(self.basis) if d == 0]
        if len(units) != 1:
            raise ValueError("expected exactly one degree-0 basis element (the unit); "
                             f"found {len(units)}")
        if any(d < 0 for _, d in self.basis):
            raise ValueError("negative-degree basis elements are not allowed")
        self.unit = units[0]
        self._table: dict[tuple[int, int], dict[int, Fraction]] = {}
        self._load_products(products or {})
        if check:
            self._validate()

    # -- construction ----------------------------------------------------

    def _load_products(self, products):
        given: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (uname, vname), value in products.items():
            u, v = self.basis_index(uname), self.basis_index(vname)
            vec = self._value_vector(value)
            deg = self.basis[u][1] + self.basis[v][1]
            for w, c in vec.items():
                if c and self.basis[w][1] != deg:
                    raise DegreeError(
                        f"product {uname}*{vname} has a degree-{self.basis[w][1]} "
                        f"term; expected degree {deg}")
            given[(u, v)] = vec
        n = len(self.basis)
        for u in range(n):
            for v in range(n):
                du, dv = self.basis[u][1], self.basis[v][1]
                if u == self.unit:
                    vec = {v: Fraction(1)}
                elif v == self.unit:
                    vec = {u: Fraction(1)}
                else:
                    sign = Fraction(-1 if (du % 2 and dv % 2) else 1)
                    if (u, v) in given:
                        vec = given[(u, v)]
                        if (v, u) in given:
                            mirror = {w: sign * c for w, c in given[(v, u)].items()}
                            if mirror != vec:
                                raise ValueError(
                                    f"products for ({self.basis[u][0]},{self.basis[v][0]}) "
                                    "violate graded commutativity")
                    elif (v, u) in given:
                        vec = {w: sign * c for w, c in given[(v, u)].items()}
                    else:
                        vec = {}
                    if u == v and du % 2 and any(vec.values()):
                        raise ValueError(
                            f"odd element {self.basis[u][0]} has a nonzero square")
                self._table[(u, v)] = {w: Fraction(c) for w, c in vec.items() if c}

    def _value_vector(self, value) -> dict[int, Fraction]:
        if isinstance(value, Element):
            if value.algebra is not self:
                raise ContextError("product value over a foreign algebra")
            return dict(value.terms)
        if isinstance(value, str):
            # product-table entries are linear in basis names (the table is
            # what defines products, so powers cannot appear on this side)
            return parse_linear(value, self.basis_index)
        if isinstance(value, dict):
            return {self.basis_index(k) if not isinstance(k, int) else k: Fraction(c)
                    for k, c in value.items()}
        raise TypeError(f"cannot interpret product value {value!r}")

    def _validate(self):
        n = len(self.basis)
        # associativity on all basis triples
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    left = self._mul_vec(self._table[(u, v)], w)
                    right = self._mul_vec_right(u, self._table[(v, w)])
                    if left != right:
                        raise ValueError(
                            f"product table is not associative at "
                            f"({self.basis[u][0]},{self.basis[v][0]},{self.basis[w][0]})")

    def _mul_vec(self, vec: dict[int, Fraction], w: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for k, c in vec.items():
            for r, c2 in self._table[(k, w)].items():
                s = out.get(r, Fraction(0)) + c * c2
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def _mul_vec_right(self, u: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for k, c in vec.items():
            for r, c2 in self._table[(u, k)].items():
                s = out.get(r, Fraction(0)) + c * c2
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    # -- introspection ---------------------------------------------------

    def basis_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown basis element {name!r} in {self.label!r}") from None

    @property
    def top_degree(self) -> int:
        return max(d for _, d in self.basis)

    def __repr__(self):
        return f"FiniteAlgebra({self.label!r}, dim {len(self.basis)})"

    # -- key protocol ------------------------------------------------------

    def one_key(self) -> int:
        return self.unit

    def key_degree(self, i: int) -> int:
        return self.basis[i][1]

    def keys_of_degree(self, n: int) -> tuple[int, ...]:
        return tuple(i for i, (_, d) in enumerate(self.basis) if d == n)

    def mul_key_pairs(self, i: int, j: int):
        return list(self._table[(i, j)].items())

    def format_key(self, i: int) -> str:
        return self.basis[i][0] if i != self.unit else "1"

    def sort_key(self, i: int):
        return (self.basis[i][1], i)

    # -- element constructors ----------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {self.unit: Fraction(1)})

    def gen(self, name: str) -> Element:
        return Element(self, {self.basis_index(name): Fraction(1)})

    def resolve_name(self, name: str) -> Element:
        return self.gen(name)

    def name_power(self, name: str, exp: int) -> Element:
        result = self.gen(name)
        for _ in range(exp - 1):
            result = result * self.gen(name)
        return result

    def element(self, terms) -> Element:
        out = {}
        for k, c in terms.items():
            i = k if isinstance(k, int) else self.basis_index(k)
            if c:
                out[i] = Fraction(c)
        return Element(self, out)


class FiniteCdga:
    """Finite-dimensional CDGA: a FiniteAlgebra plus a differential."""

    def __init__(self, basis, products=None, differential=None, label: str = "",
                 simply_connected: bool = False, check: bool = True):
        if isinstance(basis, FiniteAlgebra):
            self.algebra = basis
        else:
            self.algebra = FiniteAlgebra(basis, products, label=label, check=check)
        self.label = label or self.algebra.label
        self.simply_connected = simply_connected
        self._diff: dict[int, Element] = {}
        for key, value in (differential or {}).items():
            i = self.algebra.basis_index(key) if not isinstance(key, int) else key
            self._diff[i] = _as_element(value, self.algebra)
        if check:
            self._validate()

    def _validate(self):
        alg = self.algebra
        for i, elt in self._diff.items():
            if elt.is_zero():
                continue
            if elt.degree() != alg.basis[i][1] + 1:
                raise DegreeError(
                    f"d({alg.basis[i][0]}) has degree {elt.degree()}, "
                    f"expected {alg.basis[i][1] + 1}")
        if not self.diff(alg.one()).is_zero():
            raise ValueError("d(1) must vanish")
        for i in range(len(alg.basis)):
            if not self.diff(self.diff_key(i)).is_zero():
                raise ValueError(f"d^2 != 0 on basis element {alg.basis[i][0]}")
        # Leibniz on basis pairs
        for u in range(len(alg.basis)):
            for v in range(len(alg.basis)):
                eu = Element(alg, {u: Fraction(1)})
                ev = Element(alg, {v: Fraction(1)})
                lhs = self.diff(eu * ev)
                sign = -1 if alg.basis[u][1] % 2 else 1
                rhs = self.diff(eu) * ev + (eu * self.diff(ev)) * sign
                if lhs != rhs:
                    raise ValueError(
                        f"differential violates the Leibniz rule on "
                        f"({alg.basis[u][0]},{alg.basis[v][0]})")
        if self.simply_connected:
            table = cohomology(self, 1, representatives=False)
            if table.dims[1] != 0:
                raise ValueError("flagged simply connected but H^1 != 0")
        if cohomology(self, 0, representatives=False).dims[0] != 1:
            raise ValueError("H^0 must be one-dimensional (connected input)")

    def diff_key(self, i: int) -> Element:
        return self._diff.get(i, self.algebra.zero())

    def diff(self, element: Element) -> Element:
        if element.algebra is not self.algebra:
            raise ContextError("element not over this algebra")
        result = self.algebra.zero()
        for i, c in element.terms.items():
            result = result + self.diff_key(i) * c
        return result

    def d2_check_generators(self):
        return [name for name, _ in self.algebra.basis]

    def __repr__(self):
        return f"FiniteCdga({self.label!r}, dim {len(self.algebra.basis)})"


# ---------------------------------------------------------------------------
# Tensor algebra of a base algebra with a free fiber algebra
# ---------------------------------------------------------------------------

class TensorAlgebra:
    """Product algebra base (x) fiber; keys are (base_key, fiber_monomial)."""

    def __init__(self, left, right: FreeAlgebra, label: str = ""):
        self.left = left
        self.right = right
        self.label = label

    def one_key(self):
        return (self.left.one_key(), self.right.one_key())

    def key_degree(self, key) -> int:
        lk, rm = key
        return self.left.key_degree(lk) + self.right.key_degree(rm)

    def keys_of_degree(self, n: int):
        out = []
        for i in range(n + 1):
            rkeys = self.right.keys_of_degree(n - i)
            if not rkeys:
                continue
            for lk in self.left.keys_of_degree(i):
                for rm in rkeys:
                    out.append((lk, rm))
        out.sort(key=self.sort_key)
        return tuple(out)

    def mul_key_pairs(self, key1, key2):
        l1, r1 = key1
        l2, r2 = key2
        sign = 1
        if self.right.key_degree(r1) % 2 and self.left.key_degree(l2) % 2:
            sign = -1
        out = []
        for rm, rc in self.right.mul_key_pairs(r1, r2):
            for lk, lc in self.left.mul_key_pairs(l1, l2):
                out.append(((lk, rm), lc * rc * sign))
        return out

    def format_key(self, key) -> str:
        lk, rm = key
        ls = self.left.format_key(lk)
        rs = self.right.format_key(rm)
        if ls == "1":
            return rs
        if rs == "1":
            return ls
        return f"{ls}*{rs}"

    def sort_key(self, key):
        lk, rm = key
        return (self.key_degree(key), self.left.sort_key(lk), self.right.sort_key(rm))

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {self.one_key(): Fraction(1)})

    # -- name resolution (fiber names first; renaming keeps them disjoint) --

    def embed_left(self, element: Element) -> Element:
        unit = self.right.one_key()
        return Element(self, {(k, unit): c for k, c in element.terms.items()})

    def embed_right(self, element: Element) -> Element:
        unit = self.left.one_key()
        return Element(self, {(unit, m): c for m, c in element.terms.items()})

    def resolve_name(self, name: str) -> Element:
        if name in self.right:
            return self.embed_right(self.right.gen(name))
        return self.embed_left(self.left.resolve_name(name))

    def name_power(self, name: str, exp: int) -> Element:
        if name in self.right:
            return self.embed_right(self.right.name_power(name, exp))
        return self.embed_left(self.left.name_power(name, exp))

    def compatible(self, other) -> bool:
        return (isinstance(other, TensorAlgebra)
                and other.left is self.left
                and other.right.generators == self.right.generators)


class RelativeModel:
    """Inclusion of a base CDGA into base (x) fiber with twisted differential.

    The fiber is a free algebra; the differential restricted to the base
    is the base differential, and on each fiber generator it is a given
    element of the tensor algebra (zero when omitted).
    """

    def __init__(self, base, fiber_generators, twist=None, label: str = "",
                 check: bool = True):
        self.base = base
        taken = self._base_names()
        self.renamings: dict[str, str] = {}
        gens = []
        for g in fiber_generators:
            name = g.name
            if name in taken:
                new = _unique_name(name, taken)
                self.renamings[name] = new
                name = new
            taken.add(name)
            gens.append(Generator(name, g.degree))
        self.fiber = FreeAlgebra(gens, label=f"{label}:fiber")
        self.algebra = TensorAlgebra(base.algebra, self.fiber, label=label)
        self.label = label
        self._twist: dict[int, Element] = {}
        for key, value in (twist or {}).items():
            name = key.name if isinstance(key, Generator) else key
            name = self.renamings.get(name, name)
            i = self.fiber.generator_index(name)
            self._twist[i] = self._as_twist(value)
        if check:
            self._validate()

    def _as_twist(self, value) -> Element:
        if isinstance(value, Element):
            if value.algebra is self.algebra:
                return value
            # retag an element built over a structurally identical tensor
            # algebra (same base object, same fiber generators)
            if self.algebra.compatible(value.algebra):
                return Element(self.algebra, value.terms)
            if value.algebra is self.base.algebra:
                return self.embed_base(value)
            if value.algebra is self.fiber:
                return self.embed_fiber(value)
            raise ContextError("twist element built over a foreign algebra")
        return _as_element(value, self.algebra)

    def _base_names(self) -> set[str]:
        alg = self.base.algebra
        if isinstance(alg, FreeAlgebra):
            return {g.name for g in alg.generators}
        return {n for n, _ in alg.basis}

    def _validate(self):
        for i, elt in self._twist.items():
            g = self.fiber.generators[i]
            if elt.is_zero():
                continue
            deg = elt.degree()
            if deg != g.degree + 1:
                raise DegreeError(
                    f"D({g.name}) has degree {deg}, expected {g.degree + 1}")
        for g in self.fiber.generators:
            residue = self.diff(self.diff(self.fiber_gen(g.name)))
            if not residue.is_zero():
                raise ValueError(f"D^2 != 0 on fiber generator {g.name}: {residue}")

    # -- embeddings --------------------------------------------------------

    def embed_base(self, element: Element) -> Element:
        if element.algebra is not self.base.algebra:
            raise ContextError("element not over the base algebra")
        unit = self.fiber.one_key()
        return Element(self.algebra,
                       {(k, unit): c for k, c in element.terms.items()})

    def embed_fiber(self, element: Element) -> Element:
        if element.algebra is not self.fiber:
            raise ContextError("element not over the fiber algebra")
        unit = self.base.algebra.one_key()
        return Element(self.algebra,
                       {(unit, m): c for m, c in element.terms.items()})

    def fiber_gen(self, name: str) -> Element:
        name = self.renamings.get(name, name)
        return self.embed_fiber(self.fiber.gen(name))

    def twist_of(self, name: str) -> Element:
        name = self.renamings.get(name, name)
        i = self.fiber.generator_index(name)
        return self._twist.get(i, self.algebra.zero())

    # -- differential --------------------------------------------------------

    def _embed_fiber_mono(self, mono) -> Element:
        unit = self.base.algebra.one_key()
        return Element(self.algebra, {(unit, mono): Fraction(1)})

    def diff_key(self, key) -> Element:
        lk, rm = key
        base_unit = self.base.algebra.one_key()
        # d_base part
        dbase = self.base.diff_key(lk)
        result = Element(self.algebra, {(k, rm): c for k, c in dbase.terms.items()})
        # twisted fiber part with the derivation sign for the base factor
        dfiber = _leibniz(self.algebra, self.fiber, rm,
                          lambda i: self._twist.get(i),
                          self._embed_fiber_mono)
        if not dfiber.is_zero():
            left = Element(self.algebra, {(lk, self.fiber.one_key()): Fraction(1)})
            term = left * dfiber
            if self.base.algebra.key_degree(lk) % 2:
                term = -term
            result = result + term
        return result

    def diff(self, element: Element) -> Element:
        if element.algebra is not self.algebra:
            raise ContextError("element not over this relative model")
        result = self.algebra.zero()
        for key, c in element.terms.items():
            result = result + self.diff_key(key) * c
        return result

    def d2_check_generators(self):
        names = [g.name for g in self.fiber.generators]
        if isinstance(self.base, FreeCdga):
            names = [g.name for g in self.base.algebra.generators] + names
        return names

    def __repr__(self):
        fg = ", ".join(f"{g.name}:{g.degree}" for g in self.fiber.generators)
        return f"RelativeModel({self.label!r}; base {self.base.label!r}; fiber {fg})"


# ---------------------------------------------------------------------------
# Derivation extension / d^2 checks
# ---------------------------------------------------------------------------

def extend_derivation(cdga, element: Element) -> Element:
    """Apply the CDGA differential to an arbitrary element (Leibniz rule)."""
    return cdga.diff(element)


@dataclass(frozen=True)
class Violation:
    generator: str
    residue: Element

    def __str__(self):
        return f"d^2({self.generator}) = {self.residue} != 0"


def check_d_squared(cdga, cutoff: int) -> list[Violation]:
    """Nonzero d^2 residues on generators with |g| + 2 <= cutoff."""
    violations = []
    for name in cdga.d2_check_generators():
        if isinstance(cdga, RelativeModel):
            if name in (g.name for g in cdga.fiber.generators):
                elt = cdga.fiber_gen(name)
                self_deg = cdga.fiber.generator(name).degree
            else:
                elt = cdga.embed_base(cdga.base.algebra.gen(name))
                self_deg = cdga.base.algebra.generator(name).degree
        elif isinstance(cdga, FiniteCdga):
            elt = cdga.algebra.gen(name)
            self_deg = cdga.algebra.basis[cdga.algebra.basis_index(name)][1]
        else:
            elt = cdga.algebra.gen(name)
            self_deg = cdga.algebra.generator(name).degree
        if self_deg + 2 > cutoff:
            continue
        residue = cdga.diff(cdga.diff(elt))
        if not residue.is_zero():
            violations.append(Violation(name, residue))
    return violations


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------

@dataclass
class BettiTable:
    """Betti numbers b_0..b_cutoff with optional representative cocycles."""

    cutoff: int
    dims: list[int]
    representatives: list[list[Element]] | None = field(default=None, compare=False)

    def support(self) -> list[int]:
        return [n for n, b in enumerate(self.dims) if b]

    def poincare_coefficients(self) -> list[int]:
        return list(self.dims)

    def __str__(self):
        return "[" + ", ".join(str(b) for b in self.dims) + f"] (N={self.cutoff})"


def _diff_columns(cdga, keys_n, index_next) -> list[dict[int, Fraction]]:
    cols = []
    for key in keys_n:
        img = cdga.diff_key(key)
        cols.append({index_next[k]: c for k, c in img.terms.items()})
    return cols

def cohomology(cdga, cutoff: int, representatives: bool = True,
               engine: str = "sparse") -> BettiTable:
    """Degreewise cohomology ranks, by exact elimination.

    engine="sparse" is the production path: fraction-free sparse
    elimination of each degree's differential, once.  Without
    representatives that elimination computes the rank only.  With them
    it also yields the kernel, and its echelon is the image that the
    next degree's cocycles are reduced against when representatives are
    chosen.  engine="dense" recomputes the ranks with the independent
    dense eliminator and returns no representatives.
    """
    alg = cdga.algebra
    keys = [alg.keys_of_degree(n) for n in range(cutoff + 2)]
    index = [{k: i for i, k in enumerate(kk)} for kk in keys]
    dims = []
    reps: list[list[Element]] = []
    if engine == "dense":
        ranks = []
        for n in range(cutoff + 1):
            cols = _diff_columns(cdga, keys[n], index[n + 1])
            mat = linalg.dense_from_columns(cols, len(keys[n + 1]))
            ranks.append(linalg.dense_rank(mat))
        for n in range(cutoff + 1):
            prev = ranks[n - 1] if n else 0
            dims.append(len(keys[n]) - ranks[n] - prev)
        return BettiTable(cutoff, dims, None)

    rank_prev = 0
    image_prev = linalg.SparseEchelon()
    for n in range(cutoff + 1):
        cols = _diff_columns(cdga, keys[n], index[n + 1])
        if not representatives:
            rank_n = linalg.sparse_rank(cols)
            dims.append(len(keys[n]) - rank_n - rank_prev)
            rank_prev = rank_n
            continue
        image, kernel = linalg.kernel_echelon(cols)
        b_n = len(keys[n]) - image.rank - rank_prev
        dims.append(b_n)
        chosen = []
        for ker in kernel:
            residue = image_prev.reduce(ker)
            if residue:
                image_prev.add(residue)
                chosen.append(Element(alg, {keys[n][j]: Fraction(c)
                                            for j, c in ker.items()}))
        if len(chosen) != b_n:
            raise AssertionError(
                f"rank bookkeeping mismatch in degree {n}: "
                f"{len(chosen)} representatives for b_{n}={b_n}")
        reps.append(chosen)
        # the image of d_n is what degree n+1's cocycles are reduced against
        image_prev = image
        rank_prev = image.rank
    return BettiTable(cutoff, dims, reps if representatives else None)


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def _unique_name(name: str, taken: set[str]) -> str:
    i = 2
    while f"{name}_{i}" in taken:
        i += 1
    return f"{name}_{i}"


def tensor(a, b, label: str = ""):
    """Tensor product CDGA with differential d(x)1 + 1(x)d.

    free (x) free yields a FreeCdga (right-hand generators renamed on a
    name clash, recorded in `.renamings`); finite (x) finite yields a
    FiniteCdga; mixed pairs yield a RelativeModel over the finite factor.
    """
    label = label or f"{a.label}(x){b.label}"
    if isinstance(a, FreeCdga) and isinstance(b, FreeCdga):
        taken = {g.name for g in a.algebra.generators}
        renamings: dict[str, str] = {}
        gens = list(a.algebra.generators)
        for g in b.algebra.generators:
            name = g.name
            if name in taken:
                name = _unique_name(name, taken)
                renamings[g.name] = name
            taken.add(name)
            gens.append(Generator(name, g.degree))
        merged = FreeAlgebra(gens, label=label)

        def relocate(elt: Element, rename: bool) -> Element:
            terms = {}
            src = b.algebra if rename else a.algebra
            for mono, c in elt.terms.items():
                new = []
                for i, e in mono:
                    nm = src.generators[i].name
                    if rename:
                        nm = renamings.get(nm, nm)
                    new.append((merged.generator_index(nm), e))
                terms[tuple(sorted(new))] = c
            return Element(merged, terms)

        diff = {}
        for g in a.algebra.generators:
            img = a.differential_of_generator(g.name)
            if not img.is_zero():
                diff[g.name] = relocate(img, rename=False)
        for g in b.algebra.generators:
            img = b.differential_of_generator(g.name)
            if not img.is_zero():
                diff[renamings.get(g.name, g.name)] = relocate(img, rename=True)
        result = FreeCdga(merged, diff, label=label)
        result.renamings = renamings
        return result

    if isinstance(a, FiniteCdga) and isinstance(b, FiniteCdga):
        return _tensor_finite(a, b, label)

    if isinstance(a, FiniteCdga) and isinstance(b, FreeCdga):
        return _tensor_relative(a, b, label)
    if isinstance(a, FreeCdga) and isinstance(b, FiniteCdga):
        return _tensor_relative(b, a, label)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _tensor_relative(base: FiniteCdga, free: FreeCdga, label: str) -> RelativeModel:
    model = RelativeModel(base, free.algebra.generators, twist={}, label=label,
                          check=False)
    twist = {}
    for g in free.algebra.generators:
        img = free.differential_of_generator(g.name)
        if img.is_zero():
            continue
        # relocate the purely fiber-side differential, following renamings
        terms = {}
        for mono, c in img.terms.items():
            new = []
            for i, e in mono:
                nm = free.algebra.generators[i].name
                nm = model.renamings.get(nm, nm)
                new.append((model.fiber.generator_index(nm), e))
            terms[(base.algebra.one_key(), tuple(sorted(new)))] = c
        twist[model.renamings.get(g.name, g.name)] = Element(model.algebra, terms)
    return RelativeModel(base, free.algebra.generators, twist=twist, label=label)


def _tensor_finite(a: FiniteCdga, b: FiniteCdga, label: str) -> FiniteCdga:
    abasis, bbasis = a.algebra.basis, b.algebra.basis
    names: list[str] = []
    taken: set[str] = set()
    pairs = [(i, j) for i in range(len(abasis)) for j in range(len(bbasis))]
    for i, j in pairs:
        if i == a.algebra.unit and j == b.algebra.unit:
            name = abasis[i][0]
        elif j == b.algebra.unit:
            name = abasis[i][0]
        elif i == a.algebra.unit:
            name = bbasis[j][0]
        else:
            name = f"{abasis[i][0]}_{bbasis[j][0]}"
        if name in taken:
            name = _unique_name(name, taken)
        taken.add(name)
        names.append(name)
    pos = {pair: t for t, pair in enumerate(pairs)}
    basis = [(names[t], abasis[i][1] + bbasis[j][1]) for t, (i, j) in enumerate(pairs)]

    products = {}
    for t1, (i1, j1) in enumerate(pairs):
        for t2, (i2, j2) in enumerate(pairs):
            sign = -1 if (bbasis[j1][1] % 2 and abasis[i2][1] % 2) else 1
            vec: dict[str, Fraction] = {}
            for ai, ac in a.algebra.mul_key_pairs(i1, i2):
                for bj, bc in b.algebra.mul_key_pairs(j1, j2):
                    t = pos[(ai, bj)]
                    c = Fraction(ac) * Fraction(bc) * sign
                    vec[names[t]] = vec.get(names[t], Fraction(0)) + c
            products[(names[t1], names[t2])] = {k: v for k, v in vec.items() if v}

    differential = {}
    for t, (i, j) in enumerate(pairs):
        vec: dict[str, Fraction] = {}
        for bi, c in a.diff_key(i).terms.items():
            vec[names[pos[(bi, j)]]] = vec.get(names[pos[(bi, j)]], Fraction(0)) + c
        sign = -1 if abasis[i][1] % 2 else 1
        for bj, c in b.diff_key(j).terms.items():
            key = names[pos[(i, bj)]]
            vec[key] = vec.get(key, Fraction(0)) + sign * c
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            differential[names[t]] = vec

    diff_exprs = {}
    result_alg = FiniteAlgebra(basis, products, label=label)
    for name, vec in differential.items():
        diff_exprs[name] = Element(result_alg,
                                   {result_alg.basis_index(k): v for k, v in vec.items()})
    result = FiniteCdga(result_alg, differential=diff_exprs, label=label)
    result.renamings = {}
    return result


# ---------------------------------------------------------------------------
# Morphisms and quasi-isomorphism checking
# ---------------------------------------------------------------------------

class CdgaMorphism:
    """Degree-preserving algebra map commuting with the differentials.

    Images are given on generators (free or relative source; a relative
    source requires the same base object on both sides and acts as the
    identity there) or on the whole basis (finite source).
    """

    def __init__(self, source, target, images, label: str = "", check: bool = True):
        self.source = source
        self.target = target
        self.label = label
        self.images: dict[str, Element] = {}
        for key, value in images.items():
            name = key.name if isinstance(key, Generator) else key
            if isinstance(source, RelativeModel):
                name = source.renamings.get(name, name)
            self.images[name] = _as_element(value, target.algebra)
        if isinstance(source, RelativeModel):
            if not isinstance(target, RelativeModel) or source.base is not target.base:
                raise ContextError(
                    "a morphism from a relative model must target a relative "
                    "model over the same base")
        if check:
            self.validate()

    # -- application -------------------------------------------------------

    def _image_of_generator(self, name: str) -> Element:
        try:
            return self.images[name]
        except KeyError:
            raise KeyError(f"morphism {self.label!r} has no image for {name!r}") from None

    def apply(self, element: Element) -> Element:
        src = self.source
        out = self.target.algebra.zero()
        if isinstance(src, (FreeCdga,)):
            if element.algebra is not src.algebra:
                raise ContextError("element not over the morphism source")
            for mono, c in element.terms.items():
                term = self.target.algebra.one()
                for i, e in mono:
                    img = self._image_of_generator(src.algebra.generators[i].name)
                    for _ in range(e):
                        term = term * img
                out = out + term * c
            return out
        if isinstance(src, RelativeModel):
            if element.algebra is not src.algebra:
                raise ContextError("element not over the morphism source")
            tgt: RelativeModel = self.target
            for (lk, rm), c in element.terms.items():
                term = Element(tgt.algebra,
                               {(lk, tgt.fiber.one_key()): Fraction(1)})
                for i, e in rm:
                    img = self._image_of_generator(src.fiber.generators[i].name)
                    for _ in range(e):
                        term = term * img
                out = out + term * c
            return out
        if isinstance(src, FiniteCdga):
            if element.algebra is not src.algebra:
                raise ContextError("element not over the morphism source")
            for i, c in element.terms.items():
                out = out + self._image_of_generator(src.algebra.basis[i][0]) * c
            return out
        raise TypeError(f"unsupported morphism source {type(src).__name__}")

    # -- validation ----------------------------------------------------------

    def _generator_items(self):
        src = self.source
        if isinstance(src, FreeCdga):
            for g in src.algebra.generators:
                yield g.name, g.degree, src.algebra.gen(g.name)
        elif isinstance(src, RelativeModel):
            for g in src.fiber.generators:
                yield g.name, g.degree, src.fiber_gen(g.name)
        elif isinstance(src, FiniteCdga):
            for i, (name, deg) in enumerate(src.algebra.basis):
                yield name, deg, Element(src.algebra, {i: Fraction(1)})

    def validate(self):
        src = self.source
        for name, deg, elt in self._generator_items():
            img = self.apply(elt)
            if not img.is_zero() and img.degree() != deg:
                raise DegreeError(
                    f"morphism image of {name} has degree {img.degree()}, "
                    f"expected {deg}")
            lhs = self.apply(src.diff(elt))
            rhs = self.target.diff(img)
            if lhs != rhs:
                raise ChainMapError(
                    f"morphism does not commute with differentials at {name}: "
                    f"f(d {name}) = {lhs} but d(f {name}) = {rhs}",
                    generator=name)
        if isinstance(src, FiniteCdga):
            alg = src.algebra
            if self.apply(alg.one()) != self.target.algebra.one():
                raise ValueError("finite-source morphism must send 1 to 1")
            for u in range(len(alg.basis)):
                for v in range(len(alg.basis)):
                    eu = Element(alg, {u: Fraction(1)})
                    ev = Element(alg, {v: Fraction(1)})
                    if self.apply(eu * ev) != self.apply(eu) * self.apply(ev):
                        raise ValueError(
                            f"finite-source morphism not multiplicative at "
                            f"({alg.basis[u][0]},{alg.basis[v][0]})")

    @staticmethod
    def identity(cdga, label: str = "id"):
        if isinstance(cdga, FreeCdga):
            images = {g.name: cdga.algebra.gen(g.name) for g in cdga.algebra.generators}
        elif isinstance(cdga, RelativeModel):
            images = {g.name: cdga.fiber_gen(g.name) for g in cdga.fiber.generators}
        elif isinstance(cdga, FiniteCdga):
            images = {name: cdga.algebra.gen(name) for name, _ in cdga.algebra.basis}
        else:
            raise TypeError(f"unsupported cdga {type(cdga).__name__}")
        return CdgaMorphism(cdga, cdga, images, label=label)

    def __repr__(self):
        return f"CdgaMorphism({self.label!r}: {self.source.label!r} -> {self.target.label!r})"


@dataclass
class QuasiIsoReport:
    ok: bool
    cutoff: int
    per_degree: list[tuple[int, int, int, bool]]  # (n, dim source, dim target, injective)

    def __bool__(self):
        return self.ok

    def failing_degrees(self) -> list[int]:
        return [n for n, ds, dt, inj in self.per_degree if ds != dt or not inj]


def is_quasi_iso(f: CdgaMorphism, cutoff: int) -> QuasiIsoReport:
    """True iff f induces isomorphisms on cohomology in degrees <= cutoff.

    Dimension equality alone is not trusted: the induced map is also
    checked to be injective on cohomology representatives.
    """
    f.validate()
    src_table = cohomology(f.source, cutoff, representatives=True)
    tgt_table = cohomology(f.target, cutoff, representatives=True)
    tgt_alg = f.target.algebra
    per_degree = []
    ok = True
    for n in range(cutoff + 1):
        ds, dt = src_table.dims[n], tgt_table.dims[n]
        keys = tgt_alg.keys_of_degree(n)
        index = {k: i for i, k in enumerate(keys)}
        prev_keys = tgt_alg.keys_of_degree(n - 1) if n else ()
        ech = linalg.SparseEchelon()
        for key in prev_keys:
            img = f.target.diff_key(key)
            ech.add({index[k]: c for k, c in img.terms.items()})
        injective = True
        for rep in src_table.representatives[n]:
            vec = {index[k]: c for k, c in f.apply(rep).terms.items()}
            pivot, _ = ech.add(vec)
            if pivot is None:
                injective = False
        per_degree.append((n, ds, dt, injective))
        if ds != dt or not injective:
            ok = False
    return QuasiIsoReport(ok, cutoff, per_degree)
