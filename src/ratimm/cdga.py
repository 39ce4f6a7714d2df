"""Differential graded algebras: free, finite-dimensional, and relative.

Three algebra kinds share one element type and one cohomology routine:

* `FreeCdga` -- a free graded-commutative algebra with a degree +1
  derivation given on generators (Sullivan-style model).
* `FiniteCdga` -- a finite-dimensional algebra presented by a basis, a
  structure-constant product table and a differential matrix.
* `RelativeModel` -- an inclusion of a free or finite base CDGA into
  base (x) fiber with a twisted differential on the fiber generators.

Generators set beside others (a relative model's fiber, the second factor
of `tensor`) are renamed where their names clash, by the one rule of
`_renamed`.  Renaming changes a name, never an index or a degree, so an
element written over the generators as given already has the keys of the
result: a relative model takes its twist in that form and is built once,
and `tensor` shifts the second factor's monomials by index.  A finite
`tensor` stores the products of `TensorAlgebra`, Koszul sign included,
once per unordered pair, and is not checked again: its factors were.

All three derive from `Cdga` and answer the same questions, so the code
that consumes them (d^2 checks, morphisms, cohomology, the CLI) never
asks which kind it holds:

* `algebra`, `label` -- the underlying key algebra and a display name;
* `_diff_terms(key, memo)` -- D*d of one basis key as a plain
  {key: coefficient} dict, D = `_scale` (see Assembly); `memo` is a
  dict that the caller keeps for one walk or one `diff` call, and the
  kind fills (see below);
* `diff_key(key)` -- d of one key as an `Element`;
* `diff(element)` -- d extended linearly, one memo for all its keys
  (shared, in `Cdga`);
* `generator_items()` -- (name, degree, element, d-image) for each
  generator a morphism is given on: the free generators, the fiber
  generators, or the finite basis;
* `generator_names()` -- their names alone, with no element built (free
  and finite kinds only: the names that a relative model's fiber or a
  `tensor` factor is renamed beside);
* `d2_items()` -- the same for every generator whose d^2 is checked (a
  relative model adds its base's generators, embedded, first);
* `key_word(key)` -- (base key or None, [(generator name, exponent)]),
  the key as a word in those generators;
* `d_symbol` -- "d", or "D" for the twisted differential;
* `_layout(n)`, `_columns(...)` -- a degree's keys and index, and its
  columns, for a walk (defaults in `Cdga`; see Assembly below).

Cohomology is computed degreewise by exact sparse elimination, in one
open-ended walk that each caller reads as far as it needs: `_cochains`
enumerates each degree's keys once and assembles the columns asked for,
and `_walk` eliminates them once and cleared: since d^2 = 0, the
columns of d_n at the pivots of im d_{n-1} depend on the others and are
skipped.  It yields b_n, `_cochains`' degree (keys, index, rows,
columns), the kept columns, their kernel and the echelon of im d_{n-1}.
The pass is rank only, or, when the caller asks for kernels, tagged:
the same pivots, with the kernel vectors of the kept columns from the
same pass, and image rows that carry tag coordinates.  `cohomology`
reads it to the cutoff and, asked for representatives, takes them from
that kernel: cocycles off the pivots of im d_{n-1}, none a coboundary,
b_n of them.  `is_quasi_iso` reads the target's walk and tests
f(representatives) against its echelons; an immersion's sphere series
reads b_0..b_N and, for its closed form, reads on.  Two independent
engines check the ranks on every column: a modular rank certified by
exactly verified kernel vectors, which reads the walk, builds the
cleared columns beside the kept ones and takes the rows of im d_{n-1}
as untrusted kernel witnesses for them, each checked exactly (what
`ratimm cohomology` checks against), and the dense eliminator, which
reads `_cochains` and clears nothing, the oracle of the tests and of
`ratimm verify`.  They share columns with the walk, and the
certificate its image rows as data, never elimination.

Assembly: `keys_of_degree` lists each degree's basis in `sort_key` order
(a finite algebra indexes its basis by degree once; a free algebra
decodes its codes; a tensor algebra lays a degree out as blocks,
below).  A walk reads each degree's keys and index from the model's
`_layout` and its columns from `_columns`: by default the keys'
`_diff_terms` mapped through a {key: row} dict (`d_columns`), for a
finite model.  Free and relative walks read monomial codes instead
(`gca`: one int per monomial, a degree's codes descending, which is
`sort_key` order, `codes_of_degree`, and the product of two monomials
the sum of their codes); their keys (`_Keys`) decode a code only where
a key is read, as `cohomology` reads those its representatives carry.
Call a generator closed when it is even with d = 0 (an even free or
fiber generator with no differential or twist).  A key's monomial
splits as P*R, P its closed factors; P is even and closed, so d(P*R) =
P*d(R).  Each model caches d on its generators once (`_dgen`, over its
free algebra `fiber`, a free CDGA's own): a key's code is p + r, r =
code & `_rest_mask` the code of R, d(R) is the Leibniz rule
(`_leibniz`) on R, decoded from r, kept in the memo under r as (base
key, code, coefficient) items (`_rest_terms`), and P*m is p + m, with
no sign.  `_diff_terms`, the key path of `diff` and
`diff_key`, reads p + m back as a monomial, and refuses a key whose d
lies at a degree where p + m could carry, as a walk refuses that
degree.  A free CDGA's `_layout` indexes its rows by code (`_CodeIndex`),
and its `_columns` writes the column of a key as {row[p + m]: c} over
d(R), the memo read inline (with no closed generator it keeps none:
each R is a whole key).  A relative model splits once more:

    D(lk (x) rm) = d_B(lk) (x) rm + (-1)^{|lk|} (lk (x) 1) * D(1 (x) rm).

Every base key of a walk meets the same fiber monomials rm and the other
way round, so its memo keeps under (None, lk) a row for each base key
lk: d_B(lk), its sign, the products lk*bk as exact coefficients, each
asked of the base once, and |lk|.  `_diff_terms` writes D(1 (x) rm), P
merged in, its memo kept for one `diff` call.  A degree n of
`TensorAlgebra` is laid out as blocks, one per base key lk in
base-degree order, each base degree read from the base's own
`keys_of_degree` (`layout`), so (lk, rm) is row start_n[lk] + pos(rm),
pos(rm) the position of the code of rm among the fiber codes of its
degree (`fiber_degree`).  The walk's memo keeps, per
fiber degree, D(1 (x) rm) of each rm as ((bk, position), coefficient), P
merged in by code, and `_columns` builds it the first time a column
asks and assembles the column of (lk, rm) as an int-keyed dict:
d_B(lk) (x) rm at start_{n+1}[k] + pos(rm) for each term k, then
start_{n+1}[lk*bk] + q for each product term.  No pair index is built,
and no pair or fiber monomial is built or hashed per key.  A fiber
degree is dropped once the walk has passed it by more than the base's
top degree.  Columns are plain dicts, with no `Element`;
`_cochains` hands them one memo that lives as long as its walk.  A free
or finite model's `_diff_terms` and columns give D*d, D (`_scale`) the
lcm of the coefficient denominators of d on its generators or basis,
found once by the constructor (1 for integral input), so their walks
assemble int columns: every column scaled by one D > 0 keeps its pivots,
ranks and primitive kernel vectors, so no output changes, and `diff`,
`diff_key` and a relative model's base rows divide D out.  A relative
model walks d itself, in ints for integral input.  An int column
`linalg.primitive` takes with one gcd: a coprime column that meets no
pivot is stored as the row itself, so a column is never changed once it
is assembled.

A morphism applies the same split, f(lk (x) word) = (lk (x) 1) * f(word)
(`CdgaMorphism._apply_terms`): f(word) is built once per word, from
the image of the word without its last factor, and multiplied by lk
into the result by the loop that multiplies D(1 (x) rm) by lk in a
walk (`_Products.add_times`).  `apply` keeps these for one call,
`is_quasi_iso` for all the representatives it maps.

Sparse sums add terms through `gca.add_into`, which pops a key whose
coefficient cancels: `Cdga.diff`, `FiniteAlgebra._mul_vec` and a
morphism's terms with no base key.  Two loops keep their own copy of
the rule, `_leibniz` and `_Products.add_times`: they build a key per
term on the hot path of every walk, where a call per term costs about
5-10 % of a quasi-isomorphism sweep.  `linalg` keeps its own as well,
so that the certificate and the dense oracle stay independent of this
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from math import lcm

from . import linalg
from .errors import ChainMapError, ContextError, DegreeError, InputError, ParseError
from .gca import _NAME_RE, Element, FreeAlgebra, Generator, _exact, add_into, parse_element

__all__ = [
    "Cdga", "FreeCdga", "FiniteAlgebra", "FiniteCdga", "RelativeModel",
    "TensorAlgebra", "CdgaMorphism", "BettiTable", "Violation",
    "check_d_squared", "cohomology", "tensor", "is_quasi_iso", "unit_cdga",
]


def _as_element(value, context) -> Element:
    if isinstance(value, Element):
        if value.algebra is not context:
            raise ContextError("differential image built over a foreign algebra")
        return value
    if isinstance(value, str):
        return parse_element(value, context)
    raise TypeError(f"cannot interpret {value!r} as an element")


def _denominator_lcm(elements) -> int:
    """D, the lcm of the coefficient denominators of `elements` (1 for
    none): D times each of them is integral."""
    return lcm(*(c.denominator for elt in elements for c in elt.terms.values()))


def _unscaled(terms: dict, scale: int) -> dict:
    """d from the D*d terms a walk reads (D = `scale`): each coefficient
    over D, an int where that is integral."""
    if scale == 1:
        return terms
    return {k: _exact(Fraction(c, scale)) for k, c in terms.items()}


def _leibniz(fiber: FreeAlgebra, mono, dgen) -> dict:
    """d(g1^e1...gr^er) = sum_i (-1)^{|prefix|} e_i prefix g_i^(e_i-1) d(g_i) suffix.

    `dgen[i]` lists the terms of d(g_i) as (base_key, base_odd, monomial,
    coefficient), base_key None in a free CDGA; a twist term b (x) m moving
    left past the prefix gains (-1)^{|prefix||b|}.  `mul_monomials` gives
    the Koszul signs.  Returns {(base_key, monomial): nonzero coefficient}.
    """
    out: dict = {}
    mul = fiber.mul_monomials
    gens = fiber.generators
    odd_prefix = False
    for idx, (gi, ei) in enumerate(mono):
        terms = dgen.get(gi)
        if terms:
            # e_i > 1 only for even g_i: prefix * g_i^(e_i-1) is one monomial
            head = mono[:idx] + ((gi, ei - 1),) if ei > 1 else mono[:idx]
            suffix = mono[idx + 1:]
            for bk, b_odd, m, c in terms:
                r = mul(head, m)
                if r is None:
                    continue
                s1, hm = r
                r = mul(hm, suffix)
                if r is None:
                    continue
                s2, key = r
                coeff = s1 * s2 * ei * c
                if odd_prefix and not b_odd:
                    coeff = -coeff
                k = (bk, key)
                v = out.get(k, 0) + coeff
                if v:
                    out[k] = v
                else:
                    del out[k]
        if gens[gi].degree * ei % 2:
            odd_prefix = not odd_prefix
    return out


def _closed_split(fiber: FreeAlgebra, dgen):
    """(`_closed`, `_rest_mask`): the closed generators of `fiber`, even
    with no terms in `dgen`, and the code bits of the others."""
    closed = frozenset(i for i, g in enumerate(fiber.generators)
                       if not g.is_odd and i not in dgen)
    return closed, fiber.code_mask(i for i in range(len(fiber.generators)) if i not in closed)


def _rest_codes(model, r) -> list:
    """d(R) for the monomial R of `model.fiber` with code r, R free of the
    factors in `model._closed`, as (base key, code of the monomial,
    coefficient) in `_leibniz` order: R is the one monomial decoded."""
    fiber = model.fiber
    code = fiber.code
    return [(bk, code(m), c)
            for (bk, m), c in _leibniz(fiber, fiber.monomial(r), model._dgen).items()]


def _rest_terms(model, code, memo):
    """(p, d(R)) for the monomial P*R of `model.fiber` with `code`, P its
    factors in `model._closed`: p the code of P, and d(R) the
    `_rest_codes` of r = code & `_rest_mask`, the code of R, kept in
    `memo` under r.  d(P*R) = P*d(R), and P*m has code p + m."""
    r = code & model._rest_mask
    terms = memo.get(r)
    if terms is None:
        terms = memo[r] = _rest_codes(model, r)
    return code - r, terms


class _Products(dict):
    """{bk: lk*bk as [(key, coefficient)]} for one key lk of `algebra`, as
    its `mul_key_pairs` gives it (ints for integral products); each
    product is asked of `algebra` on its first lookup only."""

    def __init__(self, algebra, lk):
        super().__init__()
        self.algebra, self.lk = algebra, lk

    def __missing__(self, bk):
        pairs = self[bk] = self.algebra.mul_key_pairs(self.lk, bk)
        return pairs

    def add_times(self, out: dict, terms, scale, starts=None):
        """Add scale * (lk (x) 1) * (bk (x) fm) = scale * lk*bk (x) fm, with
        no sign, into `out` for each ((bk, fm), c) of `terms`.  With the
        `starts` of a `_BlockIndex`, fm is a fiber position and the term
        goes to the row starts[lk*bk] + fm."""
        for (bk, fm), c in terms:
            c = scale * c
            for prod, bc in self[bk]:
                k = (prod, fm) if starts is None else starts[prod] + fm
                v = out.get(k, 0) + c * bc
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)


class Cdga:
    """What every CDGA kind provides; see the module docstring."""

    d_symbol = "d"
    # D: `_diff_terms` gives D*d, which a walk eliminates (see Assembly)
    _scale = 1

    def diff(self, element: Element) -> Element:
        if element.algebra is not self.algebra:
            raise ContextError("element not over this algebra")
        out: dict = {}
        memo: dict = {}
        for key, c in element.terms.items():
            add_into(out, self._diff_terms(key, memo).items(), c)
        return Element(self.algebra, _unscaled(out, self._scale))

    def d2_items(self):
        return self.generator_items()

    def _layout(self, n):
        """(keys, index) of degree n: its keys in `sort_key` order and
        {key: position}; a relative model lays them out as blocks."""
        keys = self.algebra.keys_of_degree(n)
        return keys, {k: i for i, k in enumerate(keys)}

    def _columns(self, keys, index, skip, index_next, memo) -> list[dict]:
        """d of each of `keys` (degree n, `index` from `_layout`) at a
        position not in `skip`, in key order, as `d_columns`: rows
        numbered by `index_next`, degree n+1's index."""
        return d_columns(self, [key for j, key in enumerate(keys) if j not in skip],
                         index_next, memo)

    def _validate(self):
        """d(g) has degree |g| + 1 and d^2(g) = 0 on each generator."""
        d = self.d_symbol
        for name, degree, _, dg in self.generator_items():
            if not dg.is_zero() and dg.degree() != degree + 1:
                raise DegreeError(
                    f"{d}({name}) has degree {dg.degree()}, expected {degree + 1}")
            residue = self.diff(dg)
            if not residue.is_zero():
                raise ValueError(f"{d}^2 != 0 on generator {name}: residue {residue}")


# ---------------------------------------------------------------------------
# Free CDGA
# ---------------------------------------------------------------------------

class FreeCdga(Cdga):
    """Free graded-commutative algebra with a differential on generators."""

    def __init__(self, generators, differential=None, label: str = ""):
        if isinstance(generators, FreeAlgebra):
            self.algebra = generators
        else:
            self.algebra = FreeAlgebra(generators, label=label)
        self.label = label or self.algebra.label
        self._diff: dict[int, Element] = {}
        for name, value in (differential or {}).items():
            self._diff[self.algebra.generator_index(name)] = _as_element(value, self.algebra)
        scale = self._scale = _denominator_lcm(self._diff.values())
        # the Leibniz data, named as a relative model names its own: a free
        # CDGA is its own fiber over the unit
        self.fiber = self.algebra
        self._dgen = {i: [(None, False, m, _exact(c * scale))
                          for m, c in elt.terms.items()]
                      for i, elt in self._diff.items() if elt.terms}
        self._closed, self._rest_mask = _closed_split(self.fiber, self._dgen)
        self._validate()

    @property
    def generators(self):
        return self.algebra.generators

    def differential_of_generator(self, name: str) -> Element:
        i = self.algebra.generator_index(name)
        return self._diff.get(i, self.algebra.zero())

    def _diff_terms(self, mono, memo) -> dict:
        alg = self.algebra
        # d(mono) lies one degree up, where p + m must not carry
        alg.check_degree(alg.key_degree(mono) + 1)
        p, terms = _rest_terms(self, alg.code(mono), memo)
        return {alg.monomial(p + m): c for _, m, c in terms}

    def diff_key(self, mono) -> Element:
        return Element(self.algebra, _unscaled(self._diff_terms(mono, {}), self._scale))

    def _layout(self, n):
        alg = self.algebra
        codes = alg.codes_of_degree(n)
        return _Keys([(0, None, codes)], len(codes), alg.monomial), _CodeIndex(alg, codes)

    def _columns(self, keys, index, skip, index_next, memo) -> list[dict]:
        """`_rest_terms`, inline, over the codes of `index`: d(P*R) =
        P*d(R) is row p + m of `index_next` for each term m of d(R), kept
        in `memo` under r.  No key is decoded, only each R met first."""
        closed, mask = self._closed, self._rest_mask
        out = []
        for j, code in enumerate(index):
            if j in skip:
                continue
            r = code & mask
            # with no closed generator every R is a whole key, met once in
            # a walk: nothing to memoize
            terms = memo.get(r) if closed else None
            if terms is None:
                terms = _rest_codes(self, r)
                if closed:
                    memo[r] = terms
            p = code - r
            out.append({index_next[p + m]: c for _, m, c in terms})
        return out

    def generator_items(self):
        for i, g in enumerate(self.algebra.generators):
            yield (g.name, g.degree, self.algebra.gen(g.name),
                   self._diff.get(i, self.algebra.zero()))

    def generator_names(self):
        return [g.name for g in self.algebra.generators]

    def key_word(self, mono):
        gens = self.algebra.generators
        return None, [(gens[i].name, e) for i, e in mono]

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

    Keys are basis indices; the single degree-0 element is the unit.  A
    product value is an expression linear in basis names, given for
    either orientation of a pair or both, and one with the unit gives
    the other factor; a complaint about one value names its pair in the
    exception's `product` attribute.  Each nonzero product u*v of
    non-unit u <= v is stored once; `mul_key_pairs` derives the mirror,
    with the Koszul sign, and the unit rows.  check=False skips the
    associativity check, for a table built from checked ones (`tensor`).
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
        self.top_degree = max(d for _, d in self.basis)
        self._by_degree: dict[int, tuple[int, ...]] = {}
        for i, (_, d) in enumerate(self.basis):
            self._by_degree[d] = self._by_degree.get(d, ()) + (i,)
        # {(u, v): u*v as ((key, coefficient), ...)} for non-unit u <= v
        # with u*v != 0, each coefficient an int where integral
        self._table = self._load_products(products or {})
        if check:
            self._validate()

    # -- construction ----------------------------------------------------

    def _load_products(self, products) -> dict[tuple[int, int], tuple]:
        # the basis names an expression can write, all as degree-2
        # generators: a product or power of names stays a monomial (an odd
        # square would vanish), which `_value_vector` rejects as nonlinear
        names = FreeAlgebra([Generator(n, 2) for n, _ in self.basis if _NAME_RE.match(n)])
        given: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (uname, vname), value in products.items():
            u, v = self.basis_index(uname), self.basis_index(vname)
            deg = self.basis[u][1] + self.basis[v][1]
            try:
                vec = self._value_vector(value, names)
                for w in vec:
                    if self.basis[w][1] != deg:
                        raise DegreeError(
                            f"product {uname}*{vname} has a degree-{self.basis[w][1]} "
                            f"term; expected degree {deg}")
                if self.unit in (u, v):
                    other = u if v == self.unit else v
                    if vec != {other: 1}:
                        raise ValueError(f"product {uname}*{vname} breaks the unit "
                                         f"law; expected {self.basis[other][0]}")
            except (ParseError, DegreeError, ValueError) as exc:
                exc.product = (uname, vname)
                raise
            if self.unit not in (u, v):
                given[(u, v)] = vec
        # fold each pair into its u <= v entry, given orientation first, and
        # name the least pair whose mirror disagrees (an odd square's is itself)
        store: dict[tuple[int, int], dict] = {}
        conflicts = []
        for (u, v), vec in sorted(given.items(), key=lambda item: item[0][0] > item[0][1]):
            sign = -1 if self.basis[u][1] % 2 and self.basis[v][1] % 2 else 1
            mirror = {w: sign * c for w, c in vec.items()}
            if u > v:
                u, v, vec = v, u, mirror
            if store.setdefault((u, v), vec) != vec or (u == v and mirror != vec):
                conflicts.append((u, v))
        if conflicts:
            u, v = min(conflicts)
            raise ValueError(f"products for ({self.basis[u][0]},{self.basis[v][0]}) "
                             "violate graded commutativity")
        return {pair: tuple(vec.items()) for pair, vec in store.items() if vec}

    def _value_vector(self, value, names: FreeAlgebra) -> dict[int, Fraction]:
        if isinstance(value, str):
            # product-table entries are linear in basis names (the table is
            # what defines products, so powers cannot appear on this side)
            vec = {}
            for mono, c in parse_element(value, names).terms.items():
                if len(mono) != 1 or mono[0][1] != 1:
                    raise ParseError(f"term {names.format_key(mono)!r} is not a "
                                     "basis name; a product value is linear")
                vec[self._index[names.generators[mono[0][0]].name]] = c
            return vec
        raise TypeError(f"cannot interpret product value {value!r}")

    def _validate(self):
        n = len(self.basis)
        # associativity on all basis triples
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    left = self._mul_vec(self.mul_key_pairs(u, v), lambda k: (k, w))
                    right = self._mul_vec(self.mul_key_pairs(v, w), lambda k: (u, k))
                    if left != right:
                        raise ValueError(
                            f"product table is not associative at "
                            f"({self.basis[u][0]},{self.basis[v][0]},{self.basis[w][0]})")

    def _mul_vec(self, pairs, pair) -> dict[int, Fraction]:
        """sum of c * (product of the basis pair `pair(k)`) over `pairs`."""
        out: dict[int, Fraction] = {}
        for k, c in pairs:
            add_into(out, self.mul_key_pairs(*pair(k)), c)
        return out

    # -- introspection ---------------------------------------------------

    def basis_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown basis element {name!r} in {self.label!r}") from None

    def __repr__(self):
        return f"FiniteAlgebra({self.label!r}, dim {len(self.basis)})"

    # -- key protocol ------------------------------------------------------

    def one_key(self) -> int:
        return self.unit

    def key_degree(self, i: int) -> int:
        return self.basis[i][1]

    def keys_of_degree(self, n: int) -> tuple[int, ...]:
        return self._by_degree.get(n, ())

    def mul_key_pairs(self, i: int, j: int):
        if self.unit in (i, j):
            return [(j if i == self.unit else i, 1)]
        if i <= j:
            return list(self._table.get((i, j), ()))
        sign = -1 if self.basis[i][1] % 2 and self.basis[j][1] % 2 else 1
        return [(w, sign * c) for w, c in self._table.get((j, i), ())]

    def format_key(self, i: int) -> str:
        return self.basis[i][0] if i != self.unit else "1"

    def sort_key(self, i: int):
        return (self.basis[i][1], i)

    # -- element constructors ----------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {self.unit: 1})

    def gen(self, name: str) -> Element:
        return Element(self, {self.basis_index(name): 1})

    def name_power(self, name: str, exp: int) -> Element:
        # a power above the top degree vanishes, so at most top/|name|
        # multiplications are made, whatever the exponent
        i = self.basis_index(name)
        if i == self.unit:
            return self.one()
        if exp * self.basis[i][1] > self.top_degree:
            return self.zero()
        return self.gen(name) ** exp


class FiniteCdga(Cdga):
    """Finite-dimensional CDGA: a FiniteAlgebra plus a differential keyed
    by basis name.  A FiniteAlgebra given as `basis` brings its products,
    so `products` must be None.  check=False skips `_validate`, for a
    product of checked factors (`tensor`).
    """

    def __init__(self, basis, products=None, differential=None, label: str = "",
                 simply_connected: bool = False, check: bool = True):
        if isinstance(basis, FiniteAlgebra):
            if products is not None:
                raise TypeError("products belong to the FiniteAlgebra given as basis")
            self.algebra = basis
        else:
            self.algebra = FiniteAlgebra(basis, products, label=label)
        self.label = label or self.algebra.label
        self.simply_connected = simply_connected
        self._diff: dict[int, Element] = {}
        for key, value in (differential or {}).items():
            self._diff[self.algebra.basis_index(key)] = _as_element(value, self.algebra)
        scale = self._scale = _denominator_lcm(self._diff.values())
        self._dterms = {i: {k: _exact(c * scale) for k, c in elt.terms.items()}
                        for i, elt in self._diff.items() if elt.terms}
        if check:
            self._validate()

    def _validate(self):
        alg = self.algebra
        if not self.diff(alg.one()).is_zero():
            raise ValueError("d(1) must vanish")
        super()._validate()
        # Leibniz on basis pairs
        for u in range(len(alg.basis)):
            for v in range(len(alg.basis)):
                eu = Element(alg, {u: 1})
                ev = Element(alg, {v: 1})
                lhs = self.diff(eu * ev)
                sign = -1 if alg.basis[u][1] % 2 else 1
                rhs = self.diff(eu) * ev + (eu * self.diff(ev)) * sign
                if lhs != rhs:
                    raise ValueError(
                        f"differential violates the Leibniz rule on "
                        f"({alg.basis[u][0]},{alg.basis[v][0]})")
        # one walk for both checks, the H^1 one first
        dims = cohomology(self, int(self.simply_connected), representatives=False).dims
        if self.simply_connected and dims[1] != 0:
            raise ValueError("flagged simply connected but H^1 != 0")
        if dims[0] != 1:
            raise ValueError("H^0 must be one-dimensional (connected input)")

    def _diff_terms(self, i: int, memo) -> dict:
        return self._dterms.get(i, {})

    def diff_key(self, i: int) -> Element:
        return Element(self.algebra, _unscaled(self._diff_terms(i, {}), self._scale))

    def generator_items(self):
        for i, (name, deg) in enumerate(self.algebra.basis):
            yield name, deg, Element(self.algebra, {i: 1}), self.diff_key(i)

    def generator_names(self):
        return [name for name, _ in self.algebra.basis]

    def key_word(self, i: int):
        return None, [(self.algebra.basis[i][0], 1)]

    def __repr__(self):
        return f"FiniteCdga({self.label!r}, dim {len(self.algebra.basis)})"


# ---------------------------------------------------------------------------
# Tensor algebra of a base algebra with a free fiber algebra
# ---------------------------------------------------------------------------

class _Keys:
    """One degree's keys as a walk lays them out, each decoded from its
    code only where it is read (`cohomology`'s representatives): blocks
    (offset, lkeys, codes) of the keys (lk, rm) from position offset on,
    lk major, rm the fiber monomial of each code; a free model's one
    block has lkeys None and keys rm.  Equal to a sequence of its keys."""

    __slots__ = ("_blocks", "_length", "_decode")

    def __init__(self, blocks, length, decode):
        self._blocks, self._length, self._decode = blocks, length, decode

    def __len__(self):
        return self._length

    def __getitem__(self, j):
        if not 0 <= j < self._length:
            raise IndexError(j)
        offset, lkeys, codes = next(b for b in reversed(self._blocks) if b[0] <= j)
        q, r = divmod(j - offset, len(codes))
        rm = self._decode(codes[r])
        return rm if lkeys is None else (lkeys[q], rm)

    def __eq__(self, other):
        return list(self) == list(other)


class _CodeIndex(dict):
    """{code: position} of one degree's monomials of a free algebra, in
    key order.  A monomial is looked up by its code, so one of another
    degree raises KeyError."""

    __slots__ = ("_code",)

    def __init__(self, algebra, codes):
        super().__init__(zip(codes, range(len(codes))))
        self._code = algebra.code

    def __missing__(self, key):
        if isinstance(key, tuple):
            return self[self._code(key)]
        raise KeyError(key)


class _BlockIndex:
    """The rows of one degree n of a `TensorAlgebra`, laid out as blocks:
    (lk, rm) is row starts[lk] + pos(rm), pos(rm) the position of rm
    among the fiber monomials of degree n - |lk|, found by its code.  A
    key of another degree raises KeyError."""

    __slots__ = ("degree", "starts", "_fiber", "_code")

    def __init__(self, degree, starts, fiber, code):
        self.degree, self.starts, self._fiber, self._code = degree, starts, fiber, code

    def __getitem__(self, key):
        lk, rm = key
        return self.starts[lk] + self._fiber[lk][self._code(rm)]


class TensorAlgebra:
    """Product algebra base (x) fiber; keys are (base_key, fiber_key).
    The base (free or finite) indexes its own keys by degree, so only the
    fiber's codes are indexed here, per degree (`fiber_degree`)."""

    def __init__(self, left, right, label: str = ""):
        self.left = left
        self.right = right
        self.label = label
        self._fiber: dict[int, tuple] = {}  # see fiber_degree

    def one_key(self):
        return (self.left.one_key(), self.right.one_key())

    def key_degree(self, key) -> int:
        lk, rm = key
        return self.left.key_degree(lk) + self.right.key_degree(rm)

    def keys_of_degree(self, n: int) -> tuple:
        return tuple(self.layout(n)[0])

    def layout(self, n: int):
        """Degree n as (`_Keys`, `_BlockIndex`): a block per base key
        lk, in base-degree order, of the fiber monomials of degree n - |lk|,
        none for an lk with no such monomial.  That is `sort_key` order:
        base degree ascending, then each factor's own order.  Each base
        degree i <= n, up to the base's top degree, is read from the base's
        own `keys_of_degree`, and the fiber's by code: no fiber monomial
        is decoded until a key is read."""
        top = self.left.top_degree
        blocks, length = [], 0
        starts, fiber = {}, {}
        for i in range(n + 1 if top is None else min(n, top) + 1):
            lkeys = self.left.keys_of_degree(i)
            codes, positions = self.fiber_degree(n - i)
            if not lkeys or not codes:
                continue
            width = len(codes)
            for j, lk in enumerate(lkeys):
                starts[lk] = length + j * width
                fiber[lk] = positions
            blocks.append((length, lkeys, codes))
            length += len(lkeys) * width
        return (_Keys(blocks, length, self.right.monomial),
                _BlockIndex(n, starts, fiber, self.right.code))

    def fiber_degree(self, d: int):
        """(the codes of the fiber monomials of degree d, {code: position
        among them}), built once per degree."""
        fiber = self._fiber.get(d)
        if fiber is None:
            codes = self.right.codes_of_degree(d)
            fiber = self._fiber[d] = (codes, dict(zip(codes, range(len(codes)))))
        return fiber

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
        return Element(self, {self.one_key(): 1})

    # -- name resolution (fiber names first; renaming keeps them disjoint) --

    def embed_left(self, element: Element) -> Element:
        if element.algebra is not self.left:
            raise ContextError("element not over the base algebra")
        unit = self.right.one_key()
        return Element(self, {(k, unit): c for k, c in element.terms.items()})

    def embed_right(self, element: Element) -> Element:
        if element.algebra is not self.right:
            raise ContextError("element not over the fiber algebra")
        unit = self.left.one_key()
        return Element(self, {(unit, m): c for m, c in element.terms.items()})

    def name_power(self, name: str, exp: int) -> Element:
        if name in self.right:
            return self.embed_right(self.right.name_power(name, exp))
        return self.embed_left(self.left.name_power(name, exp))


class RelativeModel(Cdga):
    """Inclusion of a base CDGA into base (x) fiber with twisted differential.

    The base is a free or finite CDGA (InputError otherwise); the fiber
    is a free algebra; the differential restricted to the base
    is the base differential, and on each fiber generator it is a given
    element of the tensor algebra (zero when omitted).  Fiber names must
    be distinct; a fiber generator whose name the base takes is renamed
    by the rule of `_renamed`; `renamings` maps given names to new ones,
    and `given` keeps the fiber generators as given.

    Renaming changes a generator's name, never its index or degree, so
    the model's keys are those of the fiber generators as given.  A twist
    is keyed by given (or new) fiber names, and each value is one of:

    * a string, parsed over the model's algebra (new fiber names);
    * an element of the base algebra;
    * an element of `FreeAlgebra(fiber_generators)`, or of
      `TensorAlgebra(base.algebra, FreeAlgebra(fiber_generators))`: an
      algebra over the fiber generators as given, whose keys are the
      model's own.

    An element over any other algebra raises ContextError.
    """

    d_symbol = "D"

    def __init__(self, base, fiber_generators, twist=None, label: str = ""):
        if not isinstance(base, (FreeCdga, FiniteCdga)):
            raise InputError("the base of a relative model must be a free or finite "
                             f"CDGA, not {type(base).__name__}")
        self.base = base
        self.given = given = tuple(fiber_generators)
        names = [g.name for g in given]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate fiber generator names in {names}")
        gens, self.renamings = _renamed(given, base.generator_names())
        self.fiber = FreeAlgebra(gens, label=f"{label}:fiber")
        self.algebra = TensorAlgebra(base.algebra, self.fiber, label=label)
        self.label = label
        self._twist: dict[int, Element] = {}
        for name, value in (twist or {}).items():
            name = self.renamings.get(name, name)
            i = self.fiber.generator_index(name)
            self._twist[i] = self._as_twist(value, given)
        base_degree = base.algebra.key_degree
        self._dgen = {i: [(bk, base_degree(bk) % 2 == 1, m, c)
                          for (bk, m), c in elt.terms.items()]
                      for i, elt in self._twist.items() if elt.terms}
        self._twist_base_keys = {bk for terms in self._dgen.values() for bk, *_ in terms}
        self._closed, self._rest_mask = _closed_split(self.fiber, self._dgen)
        self._validate()

    def _as_twist(self, value, given) -> Element:
        if not isinstance(value, Element):
            return _as_element(value, self.algebra)
        alg = value.algebra
        if alg is self.base.algebra:
            return self.algebra.embed_left(value)
        # over the fiber generators as given: the keys are already ours
        if isinstance(alg, FreeAlgebra) and alg.generators == given:
            unit = self.base.algebra.one_key()
            return Element(self.algebra, {(unit, m): c for m, c in value.terms.items()})
        if (isinstance(alg, TensorAlgebra) and alg.left is self.base.algebra
                and alg.right.generators == given):
            return Element(self.algebra, value.terms)
        raise ContextError("twist element built over a foreign algebra")

    def fiber_gen(self, name: str) -> Element:
        name = self.renamings.get(name, name)
        return self.algebra.embed_right(self.fiber.gen(name))

    def twist_of(self, name: str) -> Element:
        name = self.renamings.get(name, name)
        i = self.fiber.generator_index(name)
        return self._twist.get(i, self.algebra.zero())

    # -- differential --------------------------------------------------------

    def _base_row(self, lk, memo):
        """(d_B(lk), (-1)^{|lk|}, the products lk*bk, |lk|), kept in `memo`
        under (None, lk): every rm of a walk meets the same lk."""
        row = memo.get((None, lk))
        if row is None:
            base_alg = self.base.algebra
            degree = base_alg.key_degree(lk)
            # d_B itself: a free or finite base's `_diff_terms` give D_B*d_B
            dlk = _unscaled(self.base._diff_terms(lk, {}), self.base._scale)
            row = memo[None, lk] = (list(dlk.items()), -1 if degree % 2 else 1,
                                    _Products(base_alg, lk), degree)
        return row

    def _diff_terms(self, key, memo) -> dict:
        # D(lk (x) rm) = d_B(lk) (x) rm + (-1)^{|lk|} (lk (x) 1) * D(1 (x) rm),
        # D(1 (x) rm) with its closed factors merged in
        lk, rm = key
        dlk, sign, products, _ = self._base_row(lk, memo)
        out = {(k, rm): c for k, c in dlk}
        fiber = self.fiber
        # D(1 (x) rm) lies one fiber degree up, where p + m must not carry
        fiber.check_degree(fiber.key_degree(rm) + 1)
        p, terms = _rest_terms(self, fiber.code(rm), memo)
        products.add_times(out, [((bk, fiber.monomial(p + m)), c) for bk, m, c in terms], sign)
        return out

    def _layout(self, n):
        return self.algebra.layout(n)

    def _columns(self, keys, index, skip, index_next, memo) -> list[dict]:
        """`_diff_terms` in rows of degree n+1's blocks, block by block:
        d_B(lk) (x) rm at starts[k] + pos(rm) for each term k, then lk*bk
        at starts[lk*bk] + q for each ((bk, q), c) of D(1 (x) rm), which
        the record of rm's fiber degree (`_fiber_degree`, kept in the memo
        under None) keeps from the first column that asks for it."""
        fibers = memo.get(None)
        if fibers is None:
            fibers = memo[None] = {}
        starts = index_next.starts
        out = []
        for lk, start in index.starts.items():
            dlk, sign, products, degree = self._base_row(lk, memo)
            d = index.degree - degree
            fiber = fibers.get(d)
            if fiber is None:
                fiber = self._fiber_degree(d, fibers)
            codes, entries, targets = fiber
            for p in range(len(codes)):
                if start + p in skip:
                    continue
                terms = entries[p]
                if terms is None:
                    # rm = P*R: P*m is the fiber monomial of code q + m
                    q, rest = _rest_terms(self, codes[p], memo)
                    terms = entries[p] = [((bk, targets[bk][q + m]), c) for bk, m, c in rest]
                column = {starts[k] + p: c for k, c in dlk} if dlk else {}
                if terms:
                    products.add_times(column, terms, sign, starts)
                out.append(column)
        return out

    def _fiber_degree(self, d, fibers):
        """The walk's record of fiber degree d, kept in `fibers`: the codes
        of its monomials rm, D(1 (x) rm) of each by position (None until
        `_columns` asks), and {bk: {code: position} of fiber degree
        d + 1 - |bk|} for the base keys bk of the twist.  Degrees below
        d - (the base's top degree) are dropped: the walk has passed
        them, and no later key meets them."""
        top = self.base.algebra.top_degree
        if top is not None:
            for old in [e for e in fibers if e < d - top]:
                del fibers[old]
        fiber_degree, base_degree = self.algebra.fiber_degree, self.base.algebra.key_degree
        codes, _ = fiber_degree(d)
        targets = {bk: fiber_degree(d + 1 - base_degree(bk))[1]
                   for bk in self._twist_base_keys}
        fiber = fibers[d] = (codes, [None] * len(codes), targets)
        return fiber

    def diff_key(self, key) -> Element:
        return Element(self.algebra, self._diff_terms(key, {}))

    def generator_items(self):
        for i, g in enumerate(self.fiber.generators):
            yield (g.name, g.degree, self.algebra.embed_right(self.fiber.gen(g.name)),
                   self._twist.get(i, self.algebra.zero()))

    def d2_items(self):
        for name, deg, elt, dv in self.base.d2_items():
            yield name, deg, self.algebra.embed_left(elt), self.algebra.embed_left(dv)
        yield from self.generator_items()

    def key_word(self, key):
        lk, rm = key
        gens = self.fiber.generators
        return lk, [(gens[i].name, e) for i, e in rm]

    def __repr__(self):
        fg = ", ".join(f"{g.name}:{g.degree}" for g in self.fiber.generators)
        return f"RelativeModel({self.label!r}; base {self.base.label!r}; fiber {fg})"


# ---------------------------------------------------------------------------
# d^2 checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    generator: str
    residue: Element

    def __str__(self):
        return f"d^2({self.generator}) = {self.residue} != 0"


def check_d_squared(cdga, cutoff: int) -> list[Violation]:
    """Nonzero d^2 residues on generators with |g| + 2 <= cutoff."""
    violations = []
    for name, degree, _, dg in cdga.d2_items():
        if degree + 2 > cutoff:
            continue
        residue = cdga.diff(dg)
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

    def __str__(self):
        return "[" + ", ".join(str(b) for b in self.dims) + f"] (N={self.cutoff})"


def d_columns(cdga, keys, index, memo=None) -> list[dict]:
    """d of each of `keys` (one degree) as a sparse column {row: coefficient},
    rows numbered by `index` over the next degree's keys.  Columns come
    from `_diff_terms` as plain dicts, with no Element; `memo` is the
    caller's per-walk memo (see the module docstring), a fresh one when
    omitted."""
    if memo is None:
        memo = {}
    diff_terms = cdga._diff_terms
    return [{index[k]: c for k, c in diff_terms(key, memo).items()} for key in keys]


def _cochains(cdga):
    """Walk degrees n = 0, 1, ... once each, open-ended: the caller reads
    as far as it needs.  Degree n is (keys, index, rows, columns): its
    keys and index from the model's `_layout`, the number of
    degree-(n+1) keys, and `columns(skip)`, the model's `_columns`: d of
    each key at a position not in `skip` (a set or dict), in key order.
    One memo serves the whole walk and is dropped with it."""
    memo: dict = {}
    keys, index = cdga._layout(0)
    for n in count(1):
        keys_next, index_next = cdga._layout(n)

        def columns(skip=(), keys=keys, index=index, index_next=index_next):
            return cdga._columns(keys, index, skip, index_next, memo)

        yield keys, index, len(keys_next), columns
        keys, index = keys_next, index_next


def _walk(cdga, kernels: bool = False):
    """The Betti walk, open-ended like `_cochains`: degree n is (b_n,
    keys, index, rows, columns, kept, kernel, image_prev), `_cochains`'
    degree n between b_n and the walk's own three.

    `image_prev`, the echelon of im d_{n-1}, clears the columns of d_n
    at its pivots: its rows lie in ker d_n, as d^2 = 0, and in reduced
    echelon form each gives the column at its pivot as a combination of
    columns at non-pivots (a span's pivot set does not depend on the
    rows giving it).  The `kept` columns, eliminated once, give the
    echelon of im d_n: rank only, with `kernel` None, or with kernels,
    each column tagged by its position in `kept` (`linalg.kernel_vectors`),
    `kernel` then listing the kernel vectors of the kept columns, b_n of
    them.  Tags change no pivot, so b_n and every pivot set are those of
    the rank-only pass, but the rows of a tagged echelon carry tag
    coordinates.
    """
    image_prev = linalg.SparseEchelon()
    for keys, index, rows, columns in _cochains(cdga):
        kept = columns(image_prev.pivot_cols)
        if kernels:
            image = linalg.SparseEchelon()
            kernel = list(linalg.kernel_vectors(image, kept))
        else:
            image, kernel = linalg.SparseEchelon(kept), None
        yield (len(keys) - image.rank - image_prev.rank, keys, index, rows, columns,
               kept, kernel, image_prev)
        image_prev = image


def _dense_rank(cols, rows: int) -> int:
    return linalg.dense_rank(linalg.dense_from_columns(cols, rows))


def cohomology(cdga, cutoff: int, representatives: bool = True,
               engine: str = "sparse") -> BettiTable:
    """Degreewise cohomology ranks, by exact elimination.

    Each degree's keys are enumerated, and each column assembled and
    eliminated, once.  engine="sparse" is the production path, the first
    cutoff+1 degrees of `_walk`: one fraction-free sparse elimination of
    each degree's differential, cleared, rank only.  With
    representatives it asks the walk for kernels: the same one
    elimination is tagged, the kept columns in key order, so its image
    rows carry tag coordinates, and the b_n kernel vectors of the kept
    columns are the representatives.  A nonzero coboundary has its
    lowest coordinate at a pivot of im d_{n-1}, and a cocycle reduces
    modulo im d_{n-1} to one off them: the cocycles off the pivots, of
    dimension b_n, complement the coboundaries.

    The checking engines return no representatives.
    engine="certified" reads the same walk: it assembles the columns
    the walk cleared and hands them with the kept ones, in key order,
    to the modular certificate (`linalg.certified_rank`, or the dense
    eliminator in a degree the certificate cannot settle), and raises
    AssertionError unless that rank of d_n is |keys| - b_n - rank
    d_{n-1}.  The rows of the echelon of im d_{n-1} go with them as
    kernel witnesses, one led by each cleared column: the certificate
    checks each exactly and eliminates only the kept columns, and a
    wrong witness makes it decline (the dense eliminator then settles
    the degree), never changes its rank.  engine="dense" reads
    `_cochains`, clears nothing, and takes every rank from the dense
    eliminator alone.  The certificate and the dense eliminator share
    columns with the walk, never elimination.  Clearing needs d^2 = 0,
    which every constructor checks, except that a finite `tensor` takes
    it from its checked factors.
    """
    if engine not in ("sparse", "certified", "dense"):
        raise ValueError(f"unknown cohomology engine {engine!r}")
    degrees = max(cutoff + 1, 0)
    dims = []
    if engine == "dense":
        rank = 0
        for keys, _, rows, columns in islice(_cochains(cdga), degrees):
            prev, rank = rank, _dense_rank(columns(), rows)
            dims.append(len(keys) - rank - prev)
        return BettiTable(cutoff, dims)
    representatives = representatives and engine == "sparse"
    alg = cdga.algebra
    reps: list[list[Element]] = []
    walk = islice(_walk(cdga, kernels=representatives), degrees)
    for n, (b_n, keys, _, rows, columns, kept, kernel, image_prev) in enumerate(walk):
        dims.append(b_n)
        skip = image_prev.pivot_cols
        if engine == "certified":
            kept, cleared = iter(kept), iter(columns(
                {j for j in range(len(keys)) if j not in skip}))
            cols = [next(cleared if j in skip else kept) for j in range(len(keys))]
            check = linalg.certified_rank(cols, image_prev.rows)
            if check is None:
                check = _dense_rank(cols, rows)
            if check != len(keys) - b_n - image_prev.rank:
                # an internal fault, not bad input
                raise AssertionError(f"sparse and certified ranks disagree in "
                                     f"degree {n}; please report")
        elif representatives:
            if len(kernel) != b_n:
                raise AssertionError(
                    f"rank bookkeeping mismatch in degree {n}: "
                    f"{len(kernel)} representatives for b_{n}={b_n}")
            # decode only the keys the kernel vectors carry
            kept_at = [j for j in range(len(keys)) if j not in skip] if b_n else ()
            carried = {j: keys[kept_at[j]] for j in {j for ker in kernel for j in ker}}
            reps.append([Element(alg, {carried[j]: c for j, c in ker.items()})
                         for ker in kernel])
    return BettiTable(cutoff, dims, reps if representatives else None)


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def _unique_name(name: str, taken: set[str]) -> str:
    i = 2
    while f"{name}_{i}" in taken:
        i += 1
    return f"{name}_{i}"


def _renamed(generators, taken) -> tuple[list[Generator], dict[str, str]]:
    """The one renaming rule for generators set beside others: a generator
    whose name is taken (by `taken`, or by a new name chosen before it)
    gets the first name `<name>_<i>`, i = 2, 3, ..., that no taken and no
    given name uses; the others keep theirs.  Returns the generators, in
    order and with their degrees, and the map {given name: new name}."""
    taken = set(taken)
    avoid = taken | {g.name for g in generators}
    renamings: dict[str, str] = {}
    out = []
    for g in generators:
        name = g.name
        if name in taken:
            name = renamings[g.name] = _unique_name(name, avoid)
            avoid.add(name)
            g = Generator(name, g.degree)
        taken.add(name)
        out.append(g)
    return out, renamings


def tensor(a, b, label: str = ""):
    """Tensor product CDGA with differential d(x)1 + 1(x)d.

    free (x) free yields a FreeCdga; finite (x) finite yields a
    FiniteCdga on the basis pairs, a's index major, with the products of
    `TensorAlgebra(a.algebra, b.algebra)`; mixed pairs yield a
    RelativeModel over the finite factor.  The free (or fiber) generators
    of the second factor are renamed where their names clash, by the one
    rule of `_renamed`, and `.renamings` records it.  Renaming keeps each
    generator's index: b's generators follow a's, so b's monomials shift
    by the number of a's generators.
    """
    label = label or f"{a.label}(x){b.label}"
    if isinstance(a, FreeCdga) and isinstance(b, FreeCdga):
        gens, renamings = _renamed(b.algebra.generators, a.generator_names())
        merged = FreeAlgebra(a.algebra.generators + tuple(gens), label=label)
        shift = len(a.algebra.generators)
        diff = {}
        for g in a.algebra.generators:
            img = a.differential_of_generator(g.name)
            if not img.is_zero():
                diff[g.name] = Element(merged, img.terms)
        for g, new in zip(b.algebra.generators, gens):
            img = b.differential_of_generator(g.name)
            if not img.is_zero():
                diff[new.name] = Element(merged, {
                    tuple((i + shift, e) for i, e in mono): c
                    for mono, c in img.terms.items()})
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
    return RelativeModel(base, free.algebra.generators, label=label,
                         twist={name: dv for name, _, _, dv in free.generator_items()})


def _tensor_finite(a: FiniteCdga, b: FiniteCdga, label: str) -> FiniteCdga:
    abasis, bbasis = a.algebra.basis, b.algebra.basis
    pairs = [(i, j) for i in range(len(abasis)) for j in range(len(bbasis))]
    pos = {pair: t for t, pair in enumerate(pairs)}
    basis = []
    taken: set[str] = set()
    for i, j in pairs:
        if j == b.algebra.unit:
            name = abasis[i][0]
        elif i == a.algebra.unit:
            name = bbasis[j][0]
        else:
            name = f"{abasis[i][0]}_{bbasis[j][0]}"
        if name in taken:
            name = _unique_name(name, taken)
        taken.add(name)
        basis.append((name, abasis[i][1] + bbasis[j][1]))

    # the factors were checked: associativity, graded commutativity, the
    # Leibniz rule and d^2 = 0 hold on their product, H^0 = Q, and H^1 = 0
    # if both are simply connected (Kunneth); the store takes t1 <= t2
    alg = FiniteAlgebra(basis, label=label, check=False)
    mul = TensorAlgebra(a.algebra, b.algebra).mul_key_pairs
    nonunit = [t for t in range(len(pairs)) if t != alg.unit]
    for s, t1 in enumerate(nonunit):
        for t2 in nonunit[s:]:
            prod = mul(pairs[t1], pairs[t2])
            if prod:  # a product of true fractions may be integral
                alg._table[(t1, t2)] = tuple((pos[k], _exact(c)) for k, c in prod)
    # d(i (x) j) = d_A(i) (x) j + (-1)^{|i|} i (x) d_B(j); the two sums
    # share no pair
    differential = {}
    for t, (i, j) in enumerate(pairs):
        sign = -1 if abasis[i][1] % 2 else 1
        terms = {pos[(ai, j)]: c for ai, c in a.diff_key(i).terms.items()}
        terms.update((pos[(i, bj)], sign * c) for bj, c in b.diff_key(j).terms.items())
        if terms:
            differential[basis[t][0]] = Element(alg, terms)
    result = FiniteCdga(alg, differential=differential, label=label,
                        simply_connected=a.simply_connected and b.simply_connected,
                        check=False)
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

    def __init__(self, source, target, images, label: str = ""):
        self.source = source
        self.target = target
        self.label = label
        self.images: dict[str, Element] = {}
        for name, value in images.items():
            if isinstance(source, RelativeModel):
                name = source.renamings.get(name, name)
            self.images[name] = _as_element(value, target.algebra)
        if isinstance(source, RelativeModel):
            if not isinstance(target, RelativeModel) or source.base is not target.base:
                raise ContextError(
                    "a morphism from a relative model must target a relative "
                    "model over the same base")
        self.validate()

    # -- application -------------------------------------------------------

    def _image_of_generator(self, name: str) -> Element:
        try:
            return self.images[name]
        except KeyError:
            raise KeyError(f"morphism {self.label!r} has no image for {name!r}") from None

    def apply(self, element: Element) -> Element:
        """The multiplicative extension of the images, f(lk (x) word) =
        (lk (x) 1) * f(word): a relative source fixes its base, so a base
        key lk maps to itself (times the fiber unit); other sources have
        no base key.  One call shares f(word) among the keys of `element`
        (see `_apply_terms`)."""
        if element.algebra is not self.source.algebra:
            raise ContextError("element not over the morphism source")
        return Element(self.target.algebra, self._apply_terms(element.terms, {}))

    def _apply_terms(self, terms: dict, memo: dict) -> dict:
        """f of the element with `terms`, as a plain {key: coefficient}
        dict.  `memo` keeps f(word) under each word read by `key_word`,
        and the products of the target's base by lk under (None, lk),
        for as long as the caller keeps it."""
        key_word = self.source.key_word
        tgt = self.target.algebra
        out: dict = {}
        for key, c in terms.items():
            lk, word = key_word(key)
            image = self._word_image(tuple(word), memo).terms.items()
            if lk is None:
                add_into(out, image, c)
            else:
                products = memo.get((None, lk))
                if products is None:
                    products = memo[None, lk] = _Products(tgt.left, lk)
                products.add_times(out, image, c)
        return out

    def _word_image(self, word: tuple, memo: dict) -> Element:
        """f(word), the images multiplied from the left: f of the word
        without its last factor times that factor's image, kept in `memo`
        under the word."""
        image = memo.get(word)
        if image is None:
            if word:
                name, e = word[-1]
                prefix = word[:-1] + ((name, e - 1),) if e > 1 else word[:-1]
                image = self._word_image(prefix, memo) * self._image_of_generator(name)
            else:
                image = self.target.algebra.one()
            memo[word] = image
        return image

    # -- validation ----------------------------------------------------------

    def validate(self):
        src = self.source
        for name, deg, elt, dg in src.generator_items():
            img = self.apply(elt)
            if not img.is_zero() and img.degree() != deg:
                raise DegreeError(
                    f"morphism image of {name} has degree {img.degree()}, "
                    f"expected {deg}")
            lhs = self.apply(dg)
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
                    eu = Element(alg, {u: 1})
                    ev = Element(alg, {v: 1})
                    if self.apply(eu * ev) != self.apply(eu) * self.apply(ev):
                        raise ValueError(
                            f"finite-source morphism not multiplicative at "
                            f"({alg.basis[u][0]},{alg.basis[v][0]})")

    @staticmethod
    def identity(cdga, label: str = "id"):
        images = {name: elt for name, _, elt, _ in cdga.generator_items()}
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
    checked to be injective on cohomology representatives.  The source
    is walked by `cohomology` with representatives; the target's `_walk`
    is read to the cutoff, rank only and cleared.  f of each degree-n
    representative is added to the echelon of the target's d_{n-1},
    after b_n is read; one that adds no pivot shows a class sent into
    the span of the image and the classes before it, whatever rows span
    it.  f is not validated again: its constructor checked it.
    """
    source = cohomology(f.source, cutoff, representatives=True)
    per_degree = []
    memo: dict = {}
    walk = islice(_walk(f.target), len(source.dims))
    for n, (dt, _, index, *_, image_prev) in enumerate(walk):
        injective = True
        for rep in source.representatives[n]:
            vec = {index[k]: c for k, c in f._apply_terms(rep.terms, memo).items()}
            pivot, _ = image_prev.add(vec)
            if pivot is None:
                injective = False
        per_degree.append((n, source.dims[n], dt, injective))
    ok = all(ds == dt and inj for _, ds, dt, inj in per_degree)
    return QuasiIsoReport(ok, cutoff, per_degree)
