"""Document formats: round-trips and positioned errors."""

import time

import pytest

from ratimm.bundles import complex_projective_plane, sphere_manifold
from ratimm.cdga import FiniteCdga, FreeCdga, cohomology, tensor
from ratimm.errors import ParseError
from ratimm.gca import Generator
from ratimm.io import (parse_cdga, parse_manifold, serialize_cdga,
                       serialize_manifold)


def test_free_cdga_round_trip():
    cdga = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"},
                    label="S2")
    text = serialize_cdga(cdga)
    again = parse_cdga(text)
    assert serialize_cdga(again) == text
    assert cohomology(again, 5, representatives=False).dims == \
        cohomology(cdga, 5, representatives=False).dims


def test_finite_cdga_round_trip():
    cdga = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                      {("a", "a"): "a2", ("a", "y"): "w"}, {"y": "a2"},
                      label="NF", simply_connected=True)
    text = serialize_cdga(cdga)
    again = parse_cdga(text)
    assert serialize_cdga(again) == text
    assert [b for b in again.algebra.basis] == [b for b in cdga.algebra.basis]
    assert cohomology(again, 5, representatives=False).dims == \
        cohomology(cdga, 5, representatives=False).dims


def test_product_of_simply_connected_models_round_trip():
    # a product of flagged finite models is flagged, and its text says so
    cdga = tensor(sphere_manifold(2).model, sphere_manifold(4).model, label="S2xS4")
    text = serialize_cdga(cdga)
    assert "simply-connected: true" in text.splitlines()
    again = parse_cdga(text)
    assert again.simply_connected
    assert serialize_cdga(again) == text
    assert cohomology(again, 6, representatives=False).dims == [1, 0, 1, 0, 1, 0, 1]


def test_manifold_round_trip():
    M = complex_projective_plane()
    text = serialize_manifold(M)
    again = parse_manifold(text)
    assert serialize_manifold(again) == text
    assert again.dimension == 4 and again.name == "CP^2"
    assert str(again.pontryagin[1]) == "3*aa"


def test_huge_exponent_in_a_finite_model_is_cut_at_the_top_degree():
    # a power above the top degree vanishes and the unit's power is the
    # unit, so an exponent of 10^9 costs no more than a small one
    model = ("manifold: N\ndimension: 4\npontryagin: 1 = {p}\nkind: finite\n"
             "label: N\nbasis: one 0\nbasis: a 2\nbasis: y 3\nbasis: aa 4\n"
             "product: a * a = aa\nd: y = {d}\n")
    huge = "1000000000"
    start = time.perf_counter()
    big = parse_manifold(model.format(p=f"3*one^{huge}*aa + a^{huge}",
                                      d=f"one^{huge}*aa - y^1*a^{huge}"))
    assert time.perf_counter() - start < 1
    small = parse_manifold(model.format(p="3*one^2*aa + a^3", d="one^3*aa"))
    assert serialize_manifold(big) == serialize_manifold(small)
    assert str(big.pontryagin[1]) == "3*aa"
    assert str(big.model.diff_key(big.model.algebra.basis_index("y"))) == "aa"


def test_manifold_round_trip_no_classes():
    M = sphere_manifold(3)
    text = serialize_manifold(M)
    assert parse_manifold(text).pontryagin == {}


def test_rational_coefficients_round_trip():
    cdga = FiniteCdga([("one", 0), ("a", 2), ("b", 2), ("c", 4)],
                      {("a", "b"): "3/2*c", ("a", "a"): "0", ("b", "b"): "-2*c"},
                      label="Q")
    text = serialize_cdga(cdga)
    assert serialize_cdga(parse_cdga(text)) == text


def test_unknown_field_positioned():
    with pytest.raises(ParseError) as err:
        parse_cdga("kind: free\nbogus: 1\n")
    assert err.value.line == 2


def test_missing_kind():
    with pytest.raises(ParseError):
        parse_cdga("label: X\n")


def test_bad_generator_line():
    with pytest.raises(ParseError) as err:
        parse_cdga("kind: free\ngenerator: e2\n")
    assert err.value.line == 2


def test_bad_expression_positioned():
    with pytest.raises(ParseError) as err:
        parse_cdga("kind: free\ngenerator: e2 2\ngenerator: x3 3\nd: x3 = e2^\n")
    assert err.value.line == 4


@pytest.mark.parametrize("text, message", [
    ("kind: free\ngenerator: e2 2\nd: zz = 0\n",
     "line 3: differential set on unknown generator 'zz'"),
    ("kind: free\ngenerator: e2 2\ngenerator: x3 3\nd: x3 = e2^2\nd: x3 = 0\n",
     "line 5: d: x3 given more than once"),
    ("kind: finite\nbasis: one 0\nbasis: a 2\nd: zz = 0\n",
     "line 4: differential set on unknown basis element 'zz'"),
    ("kind: finite\nbasis: one 0\nbasis: a 2\nd: a = 0\nd: a = 0\n",
     "line 5: d: a given more than once"),
], ids=["free-unknown", "free-repeated", "finite-unknown", "finite-repeated"])
def test_differential_line_errors_for_both_kinds(text, message):
    with pytest.raises(ParseError) as err:
        parse_cdga(text)
    assert str(err.value) == message


_FINITE = "kind: finite\nbasis: one 0\nbasis: a 2\nbasis: aa 4\n"
_MANIFOLD = "manifold: X\ndimension: 4\n" + _FINITE + "product: a * a = aa\n"


@pytest.mark.parametrize("text, line, complaint", [
    ("kind: free\ngenerator e2 2\n", 2, "expected 'key: value'"),
    ("kind: free\ngenerator: e2 two\n", 2, "degree must be an integer, got 'two'"),
    ("kind: free\ngenerator: e2 2\nd: e2 0\n", 3, "expected '<name> = <expression>'"),
    ("kind: free\nlabel: A\nlabel: B\n", 3, "field 'label' given more than once"),
    (_FINITE + "generator: e2 2\n", 5, "field 'generator' is not valid for kind 'finite'"),
    (_FINITE + "product: a = aa\n", 5, "product left side must be '<u> * <v>'"),
    (_FINITE + "product: a * b = aa\n", 5, "unknown basis element 'b'"),
    ("label: A\nkind: graded\n", 2, "kind must be 'free' or 'finite', got 'graded'"),
    (_FINITE + "simply-connected: yes\n", 5, "simply-connected must be 'true' or 'false'"),
    ("manifold: X\ndimension: four\n" + _FINITE, 2,
     "dimension must be an integer, got 'four'"),
    (_MANIFOLD + "pontryagin: one = aa\n", 8,
     "Pontryagin index must be an integer, got 'one'"),
    (_MANIFOLD + "pontryagin: 1 = aa\npontryagin: 1 = 2*aa\n", 9,
     "p_1 given more than once"),
    ("kind: free\ngenerator: a 2\ngenerator: y 3\nd: y = a^40000*a^40000\n", 4,
     "the product a^40000 * a^40000 has an exponent out of range"),
], ids=["no-colon", "degree", "no-equals", "repeated-field", "finite-generator",
        "product-left-side", "product-unknown", "kind", "simply-connected",
        "dimension", "pontryagin-index", "pontryagin-repeated", "exponent"])
def test_every_document_complaint_names_its_line(text, line, complaint):
    parse = parse_manifold if text.startswith("manifold:") else parse_cdga
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: {complaint}")


def test_duplicate_product_rejected():
    # the same ordered pair twice; the mirrored pair is a consistency check
    text = ("kind: finite\nbasis: one 0\nbasis: a 2\nbasis: aa 4\n"
            "product: a * a = aa\nproduct: a * a = 2*aa\n")
    with pytest.raises(ParseError) as err:
        parse_cdga(text)
    assert err.value.line == 6
    assert "product: a * a given more than once" in str(err.value)


@pytest.mark.parametrize("value, complaint", [
    ("2*aa + b", "unknown generator 'b'"),
    ("aa*aa", "term 'aa^2' is not a basis name"),
    ("a3", "product a*a has a degree-6 term; expected degree 4"),
])
def test_product_value_errors_carry_lines(value, complaint):
    text = ("kind: finite\nbasis: one 0\nbasis: a 2\nbasis: aa 4\nbasis: a3 6\n"
            f"product: a * aa = a3\nproduct: a * a = {value}\n")
    with pytest.raises(ParseError) as err:
        parse_cdga(text)
    assert err.value.line == 7
    assert complaint in str(err.value)
    assert str(err.value).endswith(f" (in expression {value!r})")


def test_pontryagin_errors_carry_lines():
    text = ("manifold: X\ndimension: 4\nkind: finite\nbasis: one 0\n"
            "basis: a 2\nbasis: aa 4\nproduct: a * a = aa\n"
            "pontryagin: 1 = a\n")
    with pytest.raises(ParseError) as err:
        parse_manifold(text)
    assert err.value.line == 8


def test_pontryagin_error_blames_the_line_of_its_own_index():
    # p_10's error must not go to the p_1 line, whose "p_1" it contains
    text = ("dimension: 4\nkind: finite\nbasis: one 0\nbasis: aa 4\n"
            "pontryagin: 1 = 3*aa\npontryagin: 10 = 0\n")
    with pytest.raises(ParseError) as err:
        parse_manifold(text)
    assert err.value.line == 6
    assert str(err.value) == ("line 6: p_10 lives in degree 40 > dimension 4; "
                              "indices with 4i > m are rejected")


def test_bad_pontryagin_expression_carries_its_line():
    text = ("manifold: X\ndimension: 8\nkind: finite\nbasis: one 0\n"
            "basis: a 2\nbasis: aa 4\nproduct: a * a = aa\n"
            "pontryagin: 1 = aa\npontryagin: 2 = q\n")
    with pytest.raises(ParseError) as err:
        parse_manifold(text)
    assert err.value.line == 9
    assert str(err.value) == ("line 9: at offset 0: unknown generator 'q' "
                              "(in expression 'q')")


@pytest.mark.parametrize("entry, message", [
    ("0 = aa", "Pontryagin index must be >= 1, got 0"),
    ("1 = a*a + a", "inhomogeneous element (degrees [2, 4]): a + aa"),
])
def test_every_pontryagin_entry_error_carries_its_line(entry, message):
    text = ("manifold: X\ndimension: 4\nkind: finite\nbasis: one 0\n"
            "basis: a 2\nbasis: aa 4\nproduct: a * a = aa\n"
            f"pontryagin: {entry}\n")
    with pytest.raises(ParseError) as err:
        parse_manifold(text)
    assert err.value.line == 8
    assert str(err.value) == f"line 8: {message}"


def test_unit_product_error_carries_its_line():
    text = ("kind: finite\nbasis: one 0\nbasis: a 2\nbasis: aa 4\n"
            "product: a * a = aa\nproduct: one * a = 5*a\n")
    with pytest.raises(ParseError) as err:
        parse_cdga(text)
    assert err.value.line == 6
    assert str(err.value) == ("line 6: product one*a breaks the unit law; "
                              "expected a (in expression '5*a')")
    assert parse_cdga(text.replace("5*a", "a")).algebra.mul_key_pairs(0, 1) == \
        [(1, 1)]


def test_pontryagin_index_out_of_range():
    text = ("manifold: X\ndimension: 2\nkind: finite\nbasis: one 0\n"
            "basis: a 2\npontryagin: 1 = 0\n")
    with pytest.raises(ParseError):
        parse_manifold(text)


def test_manifold_without_dimension():
    with pytest.raises(ParseError):
        parse_manifold("kind: finite\nbasis: one 0\n")


def test_free_kind_rejects_basis_lines():
    with pytest.raises(ParseError) as err:
        parse_cdga("kind: free\nbasis: one 0\n")
    assert err.value.line == 2


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nkind: free\ngenerator: x 3\n"
    cdga = parse_cdga(text)
    assert cdga.algebra.generators[0].name == "x"
