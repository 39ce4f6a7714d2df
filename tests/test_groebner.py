"""Gröbner bases over Q and the Krull dimension read from them."""

from fractions import Fraction

import pytest

from ratimm.bundles import sphere_manifold
from ratimm.cdga import FreeCdga, tensor
from ratimm.gca import Generator
from ratimm.groebner import groebner_basis, krull_dimension, pure_krull_dimension
from ratimm.mapping import sphere_map_null_model


@pytest.mark.parametrize("polys, weights, dim", [
    ([{(2, 0): 1}, {(0, 2): 1}], (1, 1), 0),           # (x^2, y^2)
    ([{(2, 0): 1}, {(1, 1): 1}], (1, 1), 1),           # (x^2, xy): the y-axis
    ([], (2, 4, 6), 3),                                # (0)
    ([{(0, 0, 0): 0}], (2, 4, 6), 3),                  # a zero generator
    ([{(1, 1): 1, (0, 2): 1}, {(2, 0): 1}], (1, 1), 0),  # (xy + y^2, x^2) holds y^3
    ([{(1, 1): 1, (0, 2): 1}], (1, 1), 1),             # a principal ideal
    ([{(2, 0): 1, (0, 1): Fraction(-1, 2)}], (1, 2), 1),  # x^2 - y/2, weighted
])
def test_krull_dimension_of_hand_ideals(polys, weights, dim):
    assert krull_dimension(polys, weights) == dim


def test_groebner_basis_of_a_non_monomial_ideal():
    # grevlex leads xy and x^2; the S-pair y*x^2 - x*(xy + y^2) reduces to
    # y^3, which joins the basis, monic
    basis = groebner_basis([{(1, 1): 1, (0, 2): 1}, {(2, 0): 3}], (1, 1))
    assert basis == [{(1, 1): 1, (0, 2): 1}, {(2, 0): 1}, {(0, 3): 1}]


def test_pure_krull_dimension_needs_a_pure_model():
    e, x, y, z, u = (Generator("e", 2), Generator("x", 3), Generator("y", 3),
                     Generator("z", 5), Generator("u", 4))
    assert pure_krull_dimension(FreeCdga([e, x], {"x": "e^2"})) == 0
    assert pure_krull_dimension(FreeCdga([e, u, x], {"x": "e^2"})) == 1
    # d of an even generator, or an odd generator inside d(odd): not pure
    assert pure_krull_dimension(FreeCdga([e, y, u], {"u": "e*y"})) is None
    assert pure_krull_dimension(FreeCdga([x, y, z], {"z": "x*y"})) is None


@pytest.mark.parametrize("k, dim", [(4, 1), (6, 3), (8, 4), (10, 4)])
def test_null_models_of_s2_cubed(k, dim):
    s2 = sphere_manifold(2).model
    model = sphere_map_null_model(tensor(tensor(s2, s2), s2), k)
    assert pure_krull_dimension(model) == dim
