"""Gröbner bases of weighted-homogeneous ideals over Q, and Krull dimension.

A polynomial in n commuting variables is a dict {exponent tuple:
coefficient}, with exact coefficients.  Each variable has a positive
weight (its degree), and the generators of an ideal are homogeneous of
positive weighted degree.  Monomials are ordered by weighted degree, then
reverse lexicographically (weighted grevlex).

The Krull dimension of Q[x]/I equals that of Q[x]/in(I), and for a
monomial ideal it is n minus the fewest variables that meet the support
of every generator, so it is read from the leading monomials of a
Gröbner basis (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
§9.3).  `pure_krull_dimension` applies this to a pure Sullivan algebra
(Λ(Q ⊕ P), d) with d(Q) = 0 and d(P) ⊂ ΛQ: it returns dim ΛQ/I for
I = (d(P)), the pole order at t = 1 of its Poincaré series (Félix-Halperin-
Thomas, Rational Homotopy Theory, §32).
"""

from __future__ import annotations

import heapq
from fractions import Fraction

__all__ = ["groebner_basis", "krull_dimension", "pure_krull_dimension"]


def _weight(weights, e) -> int:
    return sum(w * a for w, a in zip(weights, e))


def _order(weights):
    """Weighted grevlex as a sort key: max(p, key=...) is the leading monomial."""
    return lambda e: (_weight(weights, e), tuple(-a for a in reversed(e)))


def _reduce(p: dict, basis: list, key) -> dict:
    """p after subtracting multiples of `basis` polynomials until no leading
    monomial of the basis divides its leading monomial."""
    while p:
        lm = max(p, key=key)
        for b, g in basis:
            if all(x <= y for x, y in zip(b, lm)):
                break
        else:
            return p
        c = p[lm]
        shift = [y - x for x, y in zip(b, lm)]
        for e, v in g.items():
            m = tuple(a + s for a, s in zip(e, shift))
            r = p.get(m, 0) - c * v
            if r:
                p[m] = r
            else:
                del p[m]
    return p


def groebner_basis(polys, weights) -> list[dict]:
    """A Gröbner basis, each element monic, of the ideal generated by
    `polys` (Buchberger's algorithm: S-pairs by increasing weighted degree,
    pairs with coprime leading monomials skipped)."""
    key = _order(weights)
    basis: list[tuple[tuple, dict]] = []  # (leading monomial, monic polynomial)
    pairs: list[tuple[int, int, int]] = []

    def add(p):
        p = _reduce({e: Fraction(c) for e, c in p.items() if c}, basis, key)
        if not p:
            return
        lm = max(p, key=key)
        c = p[lm]
        for i, (b, _) in enumerate(basis):
            if any(x and y for x, y in zip(b, lm)):
                lcm = tuple(map(max, b, lm))
                heapq.heappush(pairs, (_weight(weights, lcm), i, len(basis)))
        basis.append((lm, {e: v / c for e, v in p.items()}))

    for p in polys:
        add(p)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        (a, f), (b, g) = basis[i], basis[j]
        lcm = tuple(map(max, a, b))
        s = {}
        for poly, lead, sign in ((f, a, 1), (g, b, -1)):
            shift = [x - y for x, y in zip(lcm, lead)]
            for e, v in poly.items():
                m = tuple(x + y for x, y in zip(e, shift))
                s[m] = s.get(m, 0) + sign * v
        add(s)
    return [g for _, g in basis]


def _cover(supports, chosen: frozenset) -> int:
    """Fewest variables, `chosen` included, that meet every support."""
    for s in supports:
        if not s & chosen:
            return min(_cover(supports, chosen | {v}) for v in s)
    return len(chosen)


def krull_dimension(polys, weights) -> int:
    """dim Q[x_1..x_n]/I for I generated by weighted-homogeneous `polys` of
    positive degree (n = len(weights))."""
    key = _order(weights)
    supports = {frozenset(i for i, a in enumerate(max(g, key=key)) if a)
                for g in groebner_basis(polys, weights)}
    return len(weights) - _cover(sorted(supports, key=len), frozenset())


def pure_krull_dimension(model) -> int | None:
    """dim ΛQ/(d(odd generators)) for a pure free CDGA, else None.

    Pure: d vanishes on every even generator, and d of each odd generator
    is a polynomial in the even generators alone.
    """
    alg = model.algebra
    gens = alg.generators
    even = {i: n for n, i in enumerate(i for i, g in enumerate(gens) if not g.is_odd)}
    polys = []
    for (_, _, _, dg), g in zip(model.generator_items(), gens):
        if dg.is_zero():
            continue
        words = {alg.factors(code): c for code, c in dg.terms.items()}
        if not g.is_odd or any(i not in even for word in words for i, _ in word):
            return None
        exps = {}
        for word, c in words.items():
            e = [0] * len(even)
            for i, a in word:
                e[even[i]] = a
            exps[tuple(e)] = c
        polys.append(exps)
    return krull_dimension(polys, [gens[i].degree for i in even])
