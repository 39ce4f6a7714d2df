"""Poincaré-series arithmetic, closed forms, rational reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

from ratimm.series import (PoincareSeries, RationalForm, em_series,
                           reconstruct_rational_series, series_product)


def test_em_series_odd():
    assert list(em_series(3, 1, 5).coeffs) == [1, 0, 0, 1, 0, 0]


def test_em_series_even():
    assert list(em_series(2, 1, 6).coeffs) == [1, 0, 1, 0, 1, 0, 1]


def test_em_series_even_multiplicity():
    assert list(em_series(2, 2, 4).coeffs) == [1, 0, 2, 0, 3]


def test_product_of_odd_factors():
    s = series_product(em_series(5, 1, 15), em_series(7, 1, 15))
    assert [n for n, c in enumerate(s.coeffs) if c] == [0, 5, 7, 12]


def test_product_unit():
    a = em_series(4, 2, 12)
    assert series_product(a, PoincareSeries.one(12)) == a


def test_product_truncates_to_min_cutoff():
    a = em_series(2, 1, 10)
    b = em_series(3, 1, 6)
    assert series_product(a, b).cutoff == 6


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_product_commutative_random(data):
    n1 = data.draw(st.integers(1, 8))
    n2 = data.draw(st.integers(1, 8))
    m1 = data.draw(st.integers(1, 3))
    m2 = data.draw(st.integers(1, 3))
    a, b = em_series(n1, m1, 14), em_series(n2, m2, 14)
    assert series_product(a, b) == series_product(b, a)


def test_closed_form_extension():
    s = em_series(2, 2, 4)
    assert s.extend(10) == [1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6]


def test_extension_without_form_fails():
    s = PoincareSeries([1, 1, 1], 2)
    with pytest.raises(ValueError):
        s.extend(10)


def test_form_reduction_cancels_common_factors():
    f = RationalForm((1, 0, -1), ((2, 1),))  # (1 - t^2)/(1 - t^2)
    assert f.reduced() == RationalForm((1,), ())


def test_pole_order():
    assert em_series(3, 1, 5).form.pole_order_at_one() == 0
    assert em_series(2, 1, 5).form.pole_order_at_one() == 1
    assert em_series(2, 3, 5).form.pole_order_at_one() == 3
    mixed = series_product(em_series(2, 1, 10), em_series(5, 1, 10))
    assert mixed.form.pole_order_at_one() == 1


def test_pole_order_sees_numerator_root():
    # (1 - t) / (1 - t^2) has no pole at t = 1
    f = RationalForm((1, -1), ((2, 1),))
    assert f.pole_order_at_one() == 0


def test_form_coefficients_match_convolution():
    form = RationalForm((1, 0, 1), ((2, 1), (4, 1)))
    coeffs = form.coefficients(20)
    # independent expansion: numerator times two geometric series
    expect = [0] * 21
    for i in (0, 2):
        for a in range(0, 21, 2):
            for b in range(0, 21, 4):
                if i + a + b <= 20:
                    expect[i + a + b] += 1
    assert coeffs == expect


def test_reconstruction_success():
    target = RationalForm((1, 1, 0, 0, 1, 1), ((4, 1),)).reduced()
    data = target.coefficients(30)
    rec = reconstruct_rational_series(data, [4])
    assert rec == target


def test_reconstruction_with_spurious_factor_reduces():
    target = RationalForm((1, 0, 1), ((4, 1),))
    data = target.coefficients(40)
    rec = reconstruct_rational_series(data, [2, 4])
    assert rec is not None
    assert rec.coefficients(40) == data
    assert rec.pole_order_at_one() == 1


def test_reconstruction_rejects_exponential_data():
    assert reconstruct_rational_series([2 ** i for i in range(24)], [2]) is None


def test_reconstruction_rejects_wrong_denominator():
    data = RationalForm((1,), ((3, 1),)).coefficients(24)
    assert reconstruct_rational_series(data, [2]) is None


def test_reconstruction_needs_a_verification_sample():
    data = [2 ** i for i in range(24)]
    # with no sample past the numerator, any data would "fit"
    assert reconstruct_rational_series(data, [2], verify_from=len(data)) is None
    assert reconstruct_rational_series(data, [2], verify_from=len(data) - 1) is None
    form = RationalForm((1,), ((2, 1),))
    fitted = reconstruct_rational_series(form.coefficients(23), [2], verify_from=23)
    assert fitted == form
