"""Graded-commutative arithmetic: signs, bases, parsing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratimm.errors import ContextError, DegreeError, ParseError
from ratimm.gca import (Element, FreeAlgebra, Generator, add_into,
                        basis_count_series, parse_element)


@pytest.fixture
def alg():
    return FreeAlgebra([Generator("u", 3), Generator("v", 3), Generator("a", 2),
                        Generator("b", 4), Generator("w", 5)])


def test_add_into_accumulates_sparse_sums():
    out = {"a": 1, "b": Fraction(1, 2)}
    items = [("e", 2), ("a", Fraction(-1, 3)), ("d", 0), ("b", Fraction(1, 6)),
             ("c", 1)]
    assert add_into(out, items, scale=3) is out
    # a cancels and is popped, never stored as 0; the zero term on the
    # absent key d stores nothing; scale multiplies every term; new keys
    # follow the order of `items`
    assert list(out.items()) == [("b", 1), ("e", 6), ("c", 3)]
    assert [type(c) for c in out.values()] == [Fraction, int, int]
    # a popped key comes back at the end; scale defaults to 1
    assert list(add_into(out, [("a", 5), ("e", -6)]).items()) == [
        ("b", 1), ("c", 3), ("a", 5)]


def test_odd_square_vanishes(alg):
    u = alg.gen("u")
    assert (u * u).is_zero()


def test_odd_generators_anticommute(alg):
    u, v = alg.gen("u"), alg.gen("v")
    assert u * v == -(v * u)
    assert not (u * v).is_zero()


def test_even_generator_scalars(alg):
    a = alg.gen("a")
    prod = (2 * a) * (3 * a)
    assert prod == Element(alg, {((2, 2),): 6})


def test_degree_zero_generators_rejected():
    with pytest.raises(ValueError):
        Generator("bad", 0)


def test_mixed_contexts_rejected(alg):
    other = FreeAlgebra([Generator("u", 3)])
    with pytest.raises(ContextError):
        alg.gen("u") * other.gen("u")


def test_element_degree_and_homogeneity(alg):
    e = alg.gen("a") + alg.gen("u")
    with pytest.raises(DegreeError):
        e.degree()
    assert alg.gen("a").degree() == 2
    assert alg.zero().degree() is None


# -- basis enumeration -------------------------------------------------------

def test_basis_even_power():
    alg = FreeAlgebra([Generator("e2", 2)])
    assert [alg.format_key(m) for m in alg.basis_of_degree(6)] == ["e2^3"]


def test_basis_mixed():
    alg = FreeAlgebra([Generator("x3", 3), Generator("e2", 2)])
    assert [alg.format_key(m) for m in alg.basis_of_degree(5)] == ["x3*e2"]


def test_basis_odd_square_empty():
    alg = FreeAlgebra([Generator("x7", 7)])
    assert alg.basis_of_degree(14) == ()


def test_basis_degree_zero_is_unit():
    alg = FreeAlgebra([Generator("x", 3)])
    assert alg.basis_of_degree(0) == ((),)


@pytest.mark.parametrize("degrees", [(2,), (2, 3), (3, 5), (2, 2, 7), (1, 4, 6)])
def test_basis_counts_match_generating_function(degrees):
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    alg = FreeAlgebra(gens)
    upto = 16
    expected = basis_count_series(gens, upto)
    assert [len(alg.basis_of_degree(n)) for n in range(upto + 1)] == expected


@pytest.mark.parametrize("seed", range(40))
def test_basis_enumeration_is_sorted_complete_and_distinct(seed):
    rng = random.Random(seed)
    degrees = [rng.randint(1, 9) for _ in range(rng.randint(1, 7))]
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    alg = FreeAlgebra(gens)
    upto = 30
    counts = basis_count_series(gens, upto)
    for n in range(upto + 1):
        keys = alg.basis_of_degree(n)
        assert list(keys) == sorted(keys, key=alg.sort_key)
        assert len(set(keys)) == len(keys) == counts[n]


def _brute_force_basis(gens, n):
    """Every exponent vector of total degree n, odd exponents at most 1,
    as monomials, by plain depth-first search over the generators."""
    out = []

    def visit(i, rem, mono):
        if i == len(gens):
            if rem == 0:
                out.append(mono)
            return
        deg = gens[i].degree
        top = min(rem // deg, 1) if gens[i].is_odd else rem // deg
        for e in range(top + 1):
            visit(i + 1, rem - e * deg, mono + ((i, e),) if e else mono)

    visit(0, n, ())
    return out


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("seed", range(8))
def test_bottom_up_basis_matches_brute_force(seed, order):
    # the suffix tables grow with the largest degree asked so far, in
    # whatever order the degrees are asked
    rng = random.Random(seed)
    degrees = [rng.choice([1, 2, 2, 3, 3, 4, 5, 6]) for _ in range(rng.randint(1, 6))]
    degrees[0] = 2 if seed % 2 else 3  # both an even and an odd generator
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    alg = FreeAlgebra(gens)
    upto = 30
    asked = list(range(upto + 1))
    if order == "descending":
        asked.reverse()
    elif order == "random":
        rng.shuffle(asked)
    for n in asked:
        want = sorted(_brute_force_basis(gens, n), key=alg.sort_key)
        assert list(alg.basis_of_degree(n)) == want, (degrees, n)
    assert ([len(alg.basis_of_degree(n)) for n in range(upto + 1)]
            == basis_count_series(gens, upto))
    assert alg.basis_of_degree(-1) == ()


# -- randomized algebra laws -------------------------------------------------

def element_strategy(alg, max_degree=7):
    degrees = st.integers(min_value=1, max_value=max_degree)

    @st.composite
    def build(draw):
        degree = draw(degrees)
        keys = alg.basis_of_degree(degree)
        if not keys:
            return alg.zero(), degree
        coeffs = draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=len(keys), max_size=len(keys)))
        return Element(alg, dict(zip(keys, map(Fraction, coeffs)))), degree

    return build()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graded_commutativity_random(data):
    alg = FreeAlgebra([Generator("u", 3), Generator("a", 2), Generator("w", 5),
                       Generator("b", 4)])
    x, dx = data.draw(element_strategy(alg))
    y, dy = data.draw(element_strategy(alg))
    sign = -1 if (dx % 2 and dy % 2) else 1
    assert x * y == (y * x) * sign


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_associativity_random(data):
    alg = FreeAlgebra([Generator("u", 3), Generator("a", 2), Generator("w", 5)])
    x, _ = data.draw(element_strategy(alg, 6))
    y, _ = data.draw(element_strategy(alg, 6))
    z, _ = data.draw(element_strategy(alg, 6))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


# -- parsing -----------------------------------------------------------------

def test_parse_simple_term():
    alg = FreeAlgebra([Generator("a", 2)])
    elt = parse_element("3/2*a^2", alg)
    assert elt == Element(alg, {((0, 2),): Fraction(3, 2)})


def test_parse_two_terms():
    alg = FreeAlgebra([Generator("e2", 2), Generator("a", 2)])
    elt = parse_element("e2^2 + 3*a^2", alg)
    assert len(elt.terms) == 2


def test_parse_odd_power_rejected():
    alg = FreeAlgebra([Generator("x3", 3)])
    with pytest.raises(ParseError):
        parse_element("x3^2", alg)


def test_parse_unknown_generator():
    alg = FreeAlgebra([Generator("a", 2)])
    with pytest.raises(ParseError):
        parse_element("zz", alg)


def test_parse_malformed_rational():
    alg = FreeAlgebra([Generator("a", 2)])
    with pytest.raises(ParseError):
        parse_element("1/0*a", alg)


def test_parse_zero_and_constants():
    alg = FreeAlgebra([Generator("a", 2)])
    assert parse_element("0", alg).is_zero()
    assert parse_element("1", alg) == alg.one()
    assert parse_element("-2/3", alg) == alg.one() * Fraction(-2, 3)


def test_parse_signs_and_whitespace():
    alg = FreeAlgebra([Generator("a", 2), Generator("u", 3)])
    assert parse_element(" a - a ", alg).is_zero()
    assert parse_element("-a + 2*a", alg) == alg.gen("a")
    assert parse_element("a*u", alg) == alg.gen("a") * alg.gen("u")


def test_parsed_integral_coefficient_is_an_int():
    # a * a = 1/2 * b, so 2*a^2 is b: parsed, its coefficient is an int,
    # while the product of the same elements keeps its Fraction
    from ratimm.cdga import FiniteAlgebra
    alg = FiniteAlgebra([("one", 0), ("a", 2), ("b", 4)], {("a", "a"): "1/2*b"})
    b = alg.basis_index("b")
    for text in ("2*a^2", "4*a*a - b", "2*a*a"):
        terms = parse_element(text, alg).terms
        assert terms == {b: 1} and type(terms[b]) is int, text
    assert [type(c) for c in (parse_element("a", alg) ** 2 * 2).terms.values()] == [Fraction]
    assert parse_element("a^2", alg).terms == {b: Fraction(1, 2)}


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip(data):
    alg = FreeAlgebra([Generator("e2", 2), Generator("x3", 3), Generator("b", 4)])
    elt, _ = data.draw(element_strategy(alg, 9))
    assert parse_element(str(elt), alg) == elt
