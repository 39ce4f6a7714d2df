"""Graded-commutative arithmetic: signs, bases, parsing."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratimm.errors import ContextError, DegreeError, InputError, ParseError
from ratimm.gca import (CODE_BITS, Element, FreeAlgebra, Generator, add_into,
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
    assert prod == Element(alg, {alg.key_of(((2, 2),)): 6})


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
    assert alg.basis_of_degree(0) == (alg.one_key(),)
    assert alg.format_key(alg.one_key()) == "1"


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
    as ((i, e_i), ...) with each e_i > 0, by plain depth-first search over
    the generators, in graded-lex order: exponent vectors, from generator
    0 on, largest first."""
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

    def dense(word):
        exps = [0] * len(gens)
        for i, e in word:
            exps[i] = e
        return exps

    return sorted(out, key=dense, reverse=True)


# generator degrees beside the random ones: no generator, and odd ones
# alone, whose degrees are empty above their top degree
_SPECIAL_DEGREES = {"empty": [], "odd": [1, 3, 3, 5]}


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("seed", [*range(8), *_SPECIAL_DEGREES])
def test_bottom_up_basis_matches_brute_force(seed, order):
    # the code tables grow with the largest degree asked so far, in
    # whatever order the degrees are asked, and decode to graded-lex order,
    # which is `sort_key` order
    if seed in _SPECIAL_DEGREES:
        degrees, rng = _SPECIAL_DEGREES[seed], random.Random(0)
    else:
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
        keys = alg.basis_of_degree(n)
        assert [alg.factors(k) for k in keys] == _brute_force_basis(gens, n), (degrees, n)
        assert list(keys) == sorted(keys, key=alg.sort_key)
    assert ([len(alg.basis_of_degree(n)) for n in range(upto + 1)]
            == basis_count_series(gens, upto))
    assert alg.basis_of_degree(-1) == ()


@pytest.mark.parametrize("seed", range(8))
def test_monomial_codes_add_under_products(seed):
    # distinct monomials have distinct codes, asked first or second, and
    # a product multiplies the factors: its exponents are the sums of the
    # factors' (`factors` reads them), and it is 0 exactly when an odd
    # generator meets itself
    rng = random.Random(seed)
    degrees = [rng.choice([1, 2, 2, 3, 4, 5, 6]) for _ in range(rng.randint(1, 6))]
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    alg = FreeAlgebra(gens)
    upto = 24
    asked = list(range(upto, -1, -1)) if seed % 2 else list(range(upto + 1))
    for n in asked:
        codes = alg.basis_of_degree(n)
        assert len(set(codes)) == len(codes)
        assert all(alg.key_degree(c) == n for c in codes)
    monomials = [m for n in range(13) for m in alg.basis_of_degree(n)]
    for _ in range(200):
        m1, m2 = rng.choice(monomials), rng.choice(monomials)
        exps = dict(alg.factors(m1))
        meets = any(gens[i].is_odd and i in exps for i, _ in alg.factors(m2))
        for i, e in alg.factors(m2):
            exps[i] = exps.get(i, 0) + e
        product = alg.mul_key_pairs(m1, m2)
        if meets:
            assert product == []
        else:
            (code, _), = product
            assert alg.factors(code) == tuple(sorted(exps.items()))
    assert alg.basis_of_degree(-1) == ()


def _word_sign(alg, w1, w2):
    """The sign of w1 * w2 sorted into generator order, or 0 when an odd
    generator repeats: the concatenated word of single letters is bubble
    sorted, and each transposition of two odd letters changes the sign."""
    letters = [i for word in (w1, w2) for i, e in word for _ in range(e)]
    odd = [alg.generators[i].is_odd for i in letters]
    if len({i for i, o in zip(letters, odd) if o}) < sum(odd):
        return 0
    sign = 1
    for end in range(len(letters) - 1, 0, -1):
        for j in range(end):
            if letters[j] > letters[j + 1]:
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                odd[j], odd[j + 1] = odd[j + 1], odd[j]
                if odd[j] and odd[j + 1]:
                    sign = -sign
    return sign


def test_koszul_signs_match_sorting_the_word():
    # an oracle apart from the codes' bits: every pair of monomials of
    # degree <= 12, in an algebra whose odd and even generators alternate
    alg = FreeAlgebra([Generator("u", 1), Generator("a", 2), Generator("v", 3),
                       Generator("b", 2), Generator("w", 3), Generator("c", 4),
                       Generator("x", 5)])
    monomials = [m for n in range(13) for m in alg.basis_of_degree(n)]
    checked = Counter()
    for m1 in monomials:
        for m2 in monomials:
            w1, w2 = alg.factors(m1), alg.factors(m2)
            sign = _word_sign(alg, w1, w2)
            exps = dict(w1)
            for i, e in w2:
                exps[i] = exps.get(i, 0) + e
            want = [(alg.key_of(sorted(exps.items())), sign)] if sign else []
            assert alg.mul_key_pairs(m1, m2) == want, (alg.format_key(m1), alg.format_key(m2))
            checked[sign] += 1
    assert checked[-1] > 1000 and checked[1] > 1000 and checked[0] > 1000


def test_code_digits_are_guarded():
    # an exponent of 2^CODE_BITS would carry into the next generator's
    # digit: encoding one raises, and so does a degree at which an even
    # generator's exponent could reach it, before anything is enumerated
    alg = FreeAlgebra([Generator("x", 3), Generator("e", 4), Generator("f", 6)])
    top = (1 << CODE_BITS) - 1
    assert alg.key_of(((1, top),)) == top << CODE_BITS
    assert alg.factors(top << CODE_BITS) == ((1, top),)
    with pytest.raises(InputError, match="out of range"):
        alg.key_of(((1, top + 1),))
    limit = 4 << CODE_BITS
    for n in (limit, 10 ** 15):
        with pytest.raises(InputError, match=f"from degree {limit} on"):
            alg.basis_of_degree(n)
    assert alg._codes == [] and alg._starts == []
    # the one check, which a key path asks of the degree of d's result
    alg.check_degree(limit - 1)
    with pytest.raises(InputError, match=f"from degree {limit} on"):
        alg.check_degree(limit)
    # odd generators alone have exponents at most 1: no limit
    odd = FreeAlgebra([Generator("x", 3), Generator("y", 5)])
    assert odd.basis_of_degree(8) == (1 + (1 << CODE_BITS),)
    # a product, a power or a parsed term whose exponent would reach
    # 2^CODE_BITS raises, and never adds into the next digit
    two = FreeAlgebra([Generator("u", 3), Generator("a", 2)])
    half = parse_element("a^40000", two)
    for make in (lambda: half * half, lambda: half ** 2,
                 lambda: parse_element("a^40000*a^40000", two),
                 lambda: parse_element(f"u*a^{top + 1}", two)):
        with pytest.raises(InputError, match="out of range"):
            make()
    assert str(parse_element(f"u*a^{top - 1}*a", two)) == f"u*a^{top}"


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
    assert elt == Element(alg, {alg.key_of(((0, 2),)): Fraction(3, 2)})


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


@pytest.mark.parametrize("text, position, complaint", [
    ("a + $", 4, "unexpected character '$'"),
    ("2*3", 2, "expected generator name, found '3'"),
    ("a^0", 2, "exponent must be >= 1"),
    ("2 a", 2, "missing '*' between coefficient and generator"),
    ("a a", 2, "unexpected trailing input 'a'"),
], ids=["character", "name", "exponent", "star", "trailing"])
def test_every_expression_complaint_names_its_position(text, position, complaint):
    alg = FreeAlgebra([Generator("a", 2)])
    with pytest.raises(ParseError) as err:
        parse_element(text, alg)
    assert err.value.position == position
    assert str(err.value) == f"at offset {position}: {complaint}"


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
