"""Exact arithmetic in free graded-commutative algebras over the rationals.

Values are `Element` instances: finitely supported rational linear
combinations of monomials in graded generators.  Odd-degree generators
anticommute and square to zero, even-degree generators commute.  Every
coefficient is exact, never a float, by one rule: an integral coefficient
is an `int` where it is made (every coefficient of a parsed element,
products through a table included, one built by `one` or `gen`, or one
made by a division, through `_exact`), only a true fraction is a
`Fraction`.  Arithmetic keeps the types it is given, so no layer converts
back, and a product of true fractions that is integral stays a
`Fraction`: `add_into` does not normalize, because the hot loops that
keep their own copy of its rule (see `cdga`) would then disagree with it.

Monomials are stored as tuples ``((gen_index, exponent), ...)`` sorted by
generator index; the empty tuple is the unit monomial.  Generator order is
declaration order and monomial order is graded-lexicographic, so every
serialization is deterministic.

Sparse sums of {key: coefficient} dicts are accumulated by one rule,
`add_into`: a key whose coefficient cancels is popped, so no stored
coefficient is ever 0.  `Element` arithmetic, `cdga` and `mapping` add
their terms through it; `cdga` names the loops that keep their own copy
and why.  `groebner` keeps its own too, since it imports nothing from
the algebra layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContextError, DegreeError, ParseError

Monomial = tuple  # ((gen_index, exponent), ...), index-ascending
UNIT_MONOMIAL: Monomial = ()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Generator:
    """A graded generator.  Degree must be >= 1; parity rules commutation."""

    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"generator {self.name!r} has degree {self.degree}; "
                             "degree-0 generators are not allowed")
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid generator name {self.name!r}")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def __repr__(self):
        return f"Generator({self.name!r}, {self.degree})"


class FreeAlgebra:
    """Free graded-commutative algebra on an ordered list of generators."""

    def __init__(self, generators, label: str = ""):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        self.generators = gens
        self.label = label
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._odd = tuple(g.is_odd for g in gens)
        # the highest degree of a monomial, None when an even generator
        # makes it unbounded
        self.top_degree = sum(g.degree for g in gens) if all(self._odd) else None
        # _tails[pos][rem]: the monomials of degree rem in generators[pos:]
        self._tails: list[list[tuple[Monomial, ...]]] = [[] for _ in range(len(gens) + 1)]

    # -- introspection -------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def generator_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r} in algebra {self.label!r}") from None

    def generator(self, name: str) -> Generator:
        return self.generators[self.generator_index(name)]

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"FreeAlgebra({self.label!r}; {gens})"

    # -- key protocol (shared with the other algebra kinds) ------------

    def one_key(self) -> Monomial:
        return UNIT_MONOMIAL

    def key_degree(self, mono: Monomial) -> int:
        return sum(self.generators[i].degree * e for i, e in mono)

    def mul_key_pairs(self, m1: Monomial, m2: Monomial):
        """Product of two monomials: [(monomial, coefficient)] or []."""
        res = self.mul_monomials(m1, m2)
        if res is None:
            return []
        sign, mono = res
        return [(mono, sign)]

    def keys_of_degree(self, n: int) -> tuple[Monomial, ...]:
        return self.basis_of_degree(n)

    def format_key(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        for i, e in mono:
            name = self.generators[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def sort_key(self, mono: Monomial):
        dense = [0] * len(self.generators)
        for i, e in mono:
            dense[i] = e
        return (self.key_degree(mono), tuple(-e for e in dense))

    # -- monomial arithmetic -------------------------------------------

    def mul_monomials(self, m1: Monomial, m2: Monomial):
        """Merge two monomials with the Koszul sign.

        Returns (sign, monomial) or None when an odd generator squares.
        """
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        # Koszul: each odd factor of m2 moves left past the odd factors of
        # m1 that have a larger generator index.
        odd = self._odd
        odd1 = [i for i, _ in m1 if odd[i]]
        swaps = 0
        merged: dict[int, int] = dict(m1)
        for j, e in m2:
            if odd[j]:
                if j in merged:
                    return None  # odd square
                swaps += sum(1 for i in odd1 if i > j)
                merged[j] = e
            else:
                merged[j] = merged.get(j, 0) + e
        mono = tuple(sorted(merged.items()))
        return (-1 if swaps % 2 else 1), mono

    def basis_of_degree(self, n: int) -> tuple[Monomial, ...]:
        """All monomials of total degree n, in graded-lex order.

        Read from suffix tables built bottom-up, from the last generator
        to the first, and extended to degree n on the first request:
        the monomials of degree rem in generators[pos:] are those with
        each exponent e of generator pos, largest first, times the ones
        of degree rem - e*|g| in generators[pos+1:].  That is `sort_key`
        order: no sort.
        """
        if n < 0:
            return ()
        tails = self._tails
        have = len(tails[0])
        if n >= have:
            last = tails[-1]  # no generator left: the unit, in degree 0
            if not last:
                last.append((UNIT_MONOMIAL,))
            last.extend([()] * (n + 1 - len(last)))
            for pos in range(len(self.generators) - 1, -1, -1):
                deg, odd = self.generators[pos].degree, self._odd[pos]
                below, table = tails[pos + 1], tails[pos]
                for rem in range(have, n + 1):
                    out: list[Monomial] = []
                    for e in range(min(rem // deg, 1) if odd else rem // deg, 0, -1):
                        rest = below[rem - e * deg]
                        if rest:
                            head = ((pos, e),)
                            out += [head + tail for tail in rest]
                    table.append(tuple(out) + below[rem] if out else below[rem])
        return tails[0][n]

    # -- element constructors ------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {UNIT_MONOMIAL: 1})

    def gen(self, name: str) -> "Element":
        i = self.generator_index(name)
        return Element(self, {((i, 1),): 1})

    def name_power(self, name: str, exp: int) -> "Element":
        g = self.generator(name)
        if g.is_odd and exp > 1:
            raise ValueError(f"odd generator {name} raised to power {exp}")
        i = self.generator_index(name)
        return Element(self, {((i, exp),): 1})


def _exact(c):
    """An integral coefficient as an int; any other one unchanged: the
    rule for a coefficient that a division makes."""
    return c.numerator if c.denominator == 1 else c


def add_into(out: dict, items, scale=1) -> dict:
    """Add scale * c into `out` for each (key, c) of `items` and return
    `out`; a key whose sum is 0 is popped, so no stored coefficient is 0."""
    for k, c in items:
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Element:
    """A rational linear combination of basis keys of one algebra.

    The same class serves free algebras (keys are monomials), finite
    basis-presented algebras (keys are basis indices) and tensor algebras
    (keys are pairs).  Instances are immutable by convention.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c}

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for 0; DegreeError otherwise."""
        if not self.terms:
            return None
        degs = {self.algebra.key_degree(k) for k in self.terms}
        if len(degs) > 1:
            raise DegreeError(f"inhomogeneous element (degrees {sorted(degs)}): {self}")
        return degs.pop()

    # -- arithmetic -----------------------------------------------------

    def _check_context(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ContextError(
                f"mixed algebra contexts: {self.algebra!r} vs {other.algebra!r}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_context(other)
        return Element(self.algebra, add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Element(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Element(self.algebra, {k: other * v for k, v in self.terms.items()})
        if not isinstance(other, Element):
            return NotImplemented
        self._check_context(other)
        acc: dict = {}
        alg = self.algebra
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_into(acc, alg.mul_key_pairs(k1, k2), c1 * c2)
        return Element(alg, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative powers are not defined")
        result = self.algebra.one()
        for _ in range(exp):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    # -- rendering --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        keys = sorted(self.terms, key=alg.sort_key)
        chunks = []
        for k in keys:
            c = self.terms[k]
            mono = alg.format_key(k)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<Element {self}>"


# ---------------------------------------------------------------------------
# Expression parsing
#
# Grammar:   element = term (("+"|"-") term)*
#            term    = [sign] [rational "*"] factor ("*" factor)*
#            factor  = name ["^" positive-int]
#            rational as "p/q" or an integer; whitespace insignificant.
# An integer, or a "p/q" that q divides, parses to an int.
# As a convenience a bare rational is accepted as a term, so "0" and
# constant expressions parse.  This is the one grammar of model input:
# differentials, Pontryagin classes, twists and product-table values,
# which `FiniteAlgebra` then checks to be linear in basis names.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*^()])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}",
                             position=m.start("bad"))
        if m.group("number"):
            tokens.append(("number", m.group("number").replace(" ", ""), m.start("number")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_element(text: str, context) -> Element:
    """Parse an expression string into an Element over `context`.

    `context` is any algebra exposing `name_power` and `one`: free
    algebras, finite basis-presented algebras (powers expand through the
    product table) and tensor algebras qualify.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_rational(tok) -> int | Fraction:
        try:
            if "/" in tok[1]:
                p, q = tok[1].split("/")
                return _exact(Fraction(int(p), int(q)))
            return int(tok[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rational {tok[1]!r}: {exc}",
                             position=tok[2]) from None

    def parse_factor() -> Element:
        tok = advance()
        if tok[0] != "name":
            raise ParseError(f"expected generator name, found {tok[1]!r}",
                             position=tok[2])
        name = tok[1]
        exp = 1
        if peek()[:2] == ("op", "^"):
            advance()
            etok = advance()
            if etok[0] != "number" or "/" in etok[1]:
                raise ParseError("expected positive integer exponent",
                                 position=etok[2])
            exp = int(etok[1])
            if exp < 1:
                raise ParseError("exponent must be >= 1", position=etok[2])
        try:
            return context.name_power(name, exp)
        except KeyError:
            raise ParseError(f"unknown generator {name!r}", position=tok[2]) from None
        except ValueError as exc:
            raise ParseError(str(exc), position=tok[2]) from None

    def parse_term() -> Element:
        sign = 1
        while peek()[:2] in (("op", "+"), ("op", "-")):
            if advance()[1] == "-":
                sign = -sign
        coeff = 1
        have_factor = False
        acc = context.one()
        if peek()[0] == "number":
            coeff = parse_rational(advance())
            if peek()[:2] == ("op", "*"):
                advance()
                acc = acc * parse_factor()
                have_factor = True
            elif peek()[0] == "name":
                raise ParseError("missing '*' between coefficient and generator",
                                 position=peek()[2])
        else:
            acc = acc * parse_factor()
            have_factor = True
        while have_factor and peek()[:2] == ("op", "*"):
            advance()
            acc = acc * parse_factor()
        return acc * (sign * coeff)

    result = parse_term()
    while peek()[:2] in (("op", "+"), ("op", "-")):
        # sign is consumed inside parse_term
        result = result + parse_term()
    tok = peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", position=tok[2])
    # a product of true fractions in a table may be integral
    return Element(context, {k: _exact(c) for k, c in result.terms.items()})


def basis_count_series(generators, upto: int) -> list[int]:
    """Coefficients of prod (1-t^|g|)^-1 over even g times prod (1+t^|g|) over odd g.

    Independent oracle for basis_of_degree sizes.
    """
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for g in generators:
        if g.is_odd:
            new = coeffs[:]
            for n in range(g.degree, upto + 1):
                new[n] += coeffs[n - g.degree]
            coeffs = new
        else:
            # multiply by geometric series in t^degree
            for n in range(g.degree, upto + 1):
                coeffs[n] += coeffs[n - g.degree]
    return coeffs
