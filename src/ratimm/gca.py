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

A monomial is one int, its code: its exponents as digits of `CODE_BITS`
bits, generator 0 the most significant, sum e_i << (CODE_BITS*(r-1-i))
over r generators; the unit's code is 0.  A free algebra's keys are
these codes, in `Element`s, in differentials and in walks alike, and
this module alone reads their digits: every other module reads a
monomial through `FreeAlgebra` (`factors`, `key_of`, `places`,
`code_mask`).  The product of two monomials is the sum of their codes,
up to the Koszul sign, which the odd generators' bits give (an odd
exponent is at most 1, so each odd factor is one bit); an odd square is
0.  A product that would carry an exponent to 2^CODE_BITS raises
InputError, and an algebra refuses a degree at which an exponent could
reach it, so no digit carries and no two monomials share a code.  Then
one degree's codes compare as their exponent vectors compare
lexicographically, and graded-lex order (each exponent vector, from
generator 0 on, largest first) is descending numeric order.
Generator order is declaration order, so every serialization is
deterministic.  A degree's basis is its codes, descending
(`basis_of_degree`).

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

from .errors import ContextError, DegreeError, InputError, ParseError

CODE_BITS = 16  # bits of one exponent in a monomial's code
_DIGIT = (1 << CODE_BITS) - 1

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
    """Free graded-commutative algebra on an ordered list of generators.

    Its keys are monomial codes (see the module docstring)."""

    def __init__(self, generators, label: str = ""):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        self.generators = gens
        self.label = label
        self._index = {g.name: i for i, g in enumerate(gens)}
        # the highest degree of a monomial, None when an even generator
        # makes it unbounded
        self.top_degree = sum(g.degree for g in gens) if all(g.is_odd for g in gens) else None
        # the bit offset of generator i's digit in a code, and its code
        self._shifts = tuple(CODE_BITS * i for i in range(len(gens) - 1, -1, -1))
        self._units = tuple(1 << shift for shift in self._shifts)
        # the generators' degrees, the last (least significant digit) first
        self._low_first = tuple(g.degree for g in reversed(gens))
        # the odd generators' codes: an odd exponent is at most 1, so
        # code & _odd_bits lists the odd factors of a monomial, one bit each
        self._odd_bits = sum(u for g, u in zip(gens, self._units) if g.is_odd)
        # the lowest bit of every digit but the last, and the bit above the
        # first: a sum of two codes carries exactly where these bits of
        # sum ^ a ^ b are set
        self._carry_bits = sum(u << CODE_BITS for u in self._units)
        # (|g_i|, i, or i + 1 for an odd g_i, the code of g_i) for each i
        self._steps = tuple((g.degree, i + g.is_odd, unit)
                            for i, (g, unit) in enumerate(zip(gens, self._units)))
        # _codes[n]: degree n's codes, descending; _starts[n][i]: the
        # position of its first code with no generator before i
        self._codes: list[tuple[int, ...]] = []
        self._starts: list[tuple[int, ...]] = []
        # the lowest degree at which an even generator's exponent could
        # reach 2^CODE_BITS (an odd one's is at most 1)
        evens = [g.degree for g in gens if not g.is_odd]
        self._code_limit = min(evens) << CODE_BITS if evens else None

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

    def one_key(self) -> int:
        return 0

    def key_degree(self, code: int) -> int:
        degree = 0
        for g_degree in self._low_first:
            if not code:
                break
            degree += g_degree * (code & _DIGIT)
            code >>= CODE_BITS
        return degree

    def key_parity(self, code: int) -> int:
        """The degree of the monomial with `code`, mod 2."""
        return (code & self._odd_bits).bit_count() & 1

    def mul_key_pairs(self, c1: int, c2: int):
        """Product of two monomials: [(code, Koszul sign)], or [] when an
        odd generator squares.  The product's code is c1 + c2; one that
        would carry an exponent to 2^CODE_BITS raises InputError.  Each
        odd factor of the second moves left past the odd factors of the
        first with a larger index, a lower bit."""
        o1, o2 = c1 & self._odd_bits, c2 & self._odd_bits
        if o1 & o2:
            return []
        code = c1 + c2
        if (code ^ c1 ^ c2) & self._carry_bits:
            raise InputError(f"the product {self.format_key(c1)} * {self.format_key(c2)} "
                             f"has an exponent out of range (< 2^{CODE_BITS})")
        swaps = 0
        while o1 and o2:
            low = o2 & -o2
            swaps += (o1 & (low - 1)).bit_count()
            o2 ^= low
        return [(code, -1 if swaps & 1 else 1)]

    def keys_of_degree(self, n: int) -> tuple[int, ...]:
        return self.basis_of_degree(n)

    def format_key(self, code: int) -> str:
        if not code:
            return "1"
        parts = []
        for i, e in self.factors(code):
            name = self.generators[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def sort_key(self, code: int):
        return (self.key_degree(code), -code)

    # -- monomial codes --------------------------------------------------

    def basis_of_degree(self, n: int) -> tuple[int, ...]:
        """The codes of the monomials of total degree n, descending, which
        is graded-lex order; () below 0.

        Built degree by degree up to n on the first request, each from
        the degrees below it with no sort: a monomial m whose first
        generator is g_i is g_i times a monomial of degree n - |g_i| whose
        generators are all >= i (> i for an odd g_i), so its code is the
        code of g_i plus that one's.  Those codes are the tail of their
        degree's descending codes from `_starts`, and adding the code of
        g_i keeps them descending.  The codes with first generator g_i lie
        above those with a later first generator, so the blocks, for i
        ascending, are the degree's codes in descending order.  A degree
        at which codes could collide raises InputError before anything is
        built.
        """
        codes = self._codes
        if 0 <= n < len(codes):
            return codes[n]
        if n < 0:
            return ()
        self.check_degree(n)
        starts, steps = self._starts, self._steps
        if not codes:  # the unit alone, with no generator
            codes.append((0,))
            starts.append((0,) * (len(steps) + 1))
        for m in range(len(codes), n + 1):
            out: list[int] = []
            ends = [0]
            for deg, first, unit in steps:
                if deg <= m:
                    out += [unit + c for c in codes[m - deg][starts[m - deg][first]:]]
                ends.append(len(out))
            codes.append(tuple(out))
            starts.append(tuple(ends))
        return codes[n]

    def check_degree(self, n: int):
        """InputError from the degree on at which an exponent could reach
        2^CODE_BITS, so that two monomials could share a code."""
        limit = self._code_limit
        if limit is not None and n >= limit:
            raise InputError(
                f"degree {n} is out of range in {self!r}: an exponent could "
                f"reach 2^{CODE_BITS} from degree {limit} on")

    def factors(self, code: int) -> tuple:
        """The monomial with `code` as ((i, e_i), ...), one pair for each
        generator g_i it contains, i ascending."""
        out, i = [], len(self.generators) - 1
        while code:
            if code & _DIGIT:
                out.append((i, code & _DIGIT))
            code >>= CODE_BITS
            i -= 1
        out.reverse()
        return tuple(out)

    def key_of(self, factors) -> int:
        """The code of the monomial prod g_i^e_i over the pairs (i, e_i)
        of `factors`, each i once: the inverse of `factors`.  InputError
        for an exponent of 2^CODE_BITS or more, which no code holds."""
        code = 0
        for i, e in factors:
            if e >> CODE_BITS:
                raise InputError(f"exponent {e} of {self.generators[i].name} is out "
                                 f"of range (< 2^{CODE_BITS})")
            code += e << self._shifts[i]
        return code

    def places(self, code: int) -> list:
        """For each generator g_i of the monomial P*g_i^e*S with `code`,
        P and S its factors before and after g_i: (i, e, the code of
        P*g_i^(e-1)*S, |P| odd, |S| odd)."""
        odd, out = code & self._odd_bits, []
        for i, e in self.factors(code):
            unit = self._units[i]
            before = (odd >> (self._shifts[i] + CODE_BITS)).bit_count() & 1
            out.append((i, e, code - unit, before, (odd & (unit - 1)).bit_count() & 1))
        return out

    def code_mask(self, indices) -> int:
        """The bits of the codes of the generators at `indices`: code & mask
        is the code of a monomial's factor in those generators."""
        return sum(_DIGIT << self._shifts[i] for i in indices)

    # -- element constructors ------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {0: 1})

    def gen(self, name: str) -> "Element":
        return Element(self, {self._units[self.generator_index(name)]: 1})

    def name_power(self, name: str, exp: int) -> "Element":
        g = self.generator(name)
        if g.is_odd and exp > 1:
            raise ValueError(f"odd generator {name} raised to power {exp}")
        return Element(self, {self.key_of(((self.generator_index(name), exp),)): 1})


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

    The same class serves free algebras (keys are monomial codes), finite
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
        except InputError:
            raise  # an exponent no code holds: a well-formed input out of range
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
