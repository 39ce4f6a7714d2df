"""Poincaré-series arithmetic, closed forms, rational reconstruction."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ratimm.bundles import framed_bundle_model
from ratimm.io import load_manifold
from ratimm.mapping import em_split, sphere_bundle
from ratimm.series import (PoincareSeries, RationalForm, em_product_series,
                           em_series, reconstruct_rational_series, series_product)

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


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
    f = RationalForm(((0, 1), (2, -1)), ((2, 1),))  # (1 - t^2)/(1 - t^2)
    assert f.reduced() == RationalForm(((0, 1),), ())


def test_pole_order():
    assert em_series(3, 1, 5).form.pole_order_at_one() == 0
    assert em_series(2, 1, 5).form.pole_order_at_one() == 1
    assert em_series(2, 3, 5).form.pole_order_at_one() == 3
    mixed = series_product(em_series(2, 1, 10), em_series(5, 1, 10))
    assert mixed.form.pole_order_at_one() == 1


def test_pole_order_sees_numerator_root():
    # (1 - t) / (1 - t^2) has no pole at t = 1
    f = RationalForm(((0, 1), (1, -1)), ((2, 1),))
    assert f.pole_order_at_one() == 0


def test_form_coefficients_match_convolution():
    form = RationalForm(((0, 1), (2, 1)), ((2, 1), (4, 1)))
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
    target = RationalForm(((0, 1), (1, 1), (4, 1), (5, 1)), ((4, 1),)).reduced()
    data = target.coefficients(30)
    rec = reconstruct_rational_series(data, [4])
    assert rec == target


def test_reconstruction_with_spurious_factor_reduces():
    target = RationalForm(((0, 1), (2, 1)), ((4, 1),))
    data = target.coefficients(40)
    rec = reconstruct_rational_series(data, [2, 4])
    assert rec is not None
    assert rec.coefficients(40) == data
    assert rec.pole_order_at_one() == 1


def test_reconstruction_rejects_exponential_data():
    assert reconstruct_rational_series([2 ** i for i in range(24)], [2]) is None


def test_reconstruction_rejects_wrong_denominator():
    data = RationalForm(((0, 1),), ((3, 1),)).coefficients(24)
    assert reconstruct_rational_series(data, [2]) is None


def test_reconstruction_needs_a_verification_sample():
    data = [2 ** i for i in range(24)]
    # with no sample past the numerator, any data would "fit"
    assert reconstruct_rational_series(data, [2], verify_from=len(data)) is None
    assert reconstruct_rational_series(data, [2], verify_from=len(data) - 1) is None
    form = RationalForm(((0, 1),), ((2, 1),))
    fitted = reconstruct_rational_series(form.coefficients(23), [2], verify_from=23)
    assert fitted == form


def test_the_zero_form_has_no_pole():
    zero = RationalForm((), ((2, 1),))
    assert zero.reduced() == RationalForm(())
    assert zero.pole_order_at_one() == 0
    assert zero * RationalForm(((0, 1),), ((4, 1),)) == RationalForm(())
    fitted = reconstruct_rational_series([0] * 24, [2])
    assert fitted == RationalForm(()) and str(fitted) == "0"
    assert fitted.pole_order_at_one() == 0


# -- the dense reference: P as its full coefficient list, p[i] at t^i -----------

def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _dense_div_geom(p, d):
    """p / (1 - t^d), or None: q[i] = p[i] + q[i - d] must stop by deg p."""
    q = [0] * len(p)
    for i in range(len(p)):
        q[i] = p[i] + (q[i - d] if i >= d else 0)
    if any(q[max(0, len(p) - d):]):
        return None
    out = q[:max(0, len(p) - d)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _dense_reduced(numer, denom):
    numer, denom = list(numer), [list(x) for x in denom]
    changed = True
    while changed and numer:
        changed = False
        for pair in denom:
            while pair[1] and (q := _dense_div_geom(numer, pair[0])) is not None:
                numer, pair[1], changed = q, pair[1] - 1, True
    return numer, [tuple(p) for p in denom if p[1]]


def _dense_product(*forms):
    numer, denom = [1], {}
    for p, den in forms:
        numer = _dense_mul(numer, p)
        for d, m in den:
            denom[d] = denom.get(d, 0) + m
    return _dense_reduced(numer, sorted(denom.items()))


def _dense_coefficients(numer, denom, upto):
    out = (list(numer) + [0] * (upto + 1))[:upto + 1]
    for d, m in denom:
        for _ in range(m):
            for n in range(d, upto + 1):
                out[n] += out[n - d]
    return out


def _dense_pole(numer, denom):
    numer, denom = _dense_reduced(numer, denom)
    order = sum(m for _, m in denom)
    while numer and order and sum(numer) == 0:
        numer, order = _dense_div_geom(numer, 1), order - 1
    return order


def _dense_str(numer, denom):
    num = " + ".join(f"{c}*t^{i}" for i, c in enumerate(numer) if c)
    den = "".join(f"(1-t^{d})" + (f"^{m}" if m > 1 else "") for d, m in denom)
    return f"({num}) / {den}" if den else num


def _sparse(numer, denom):
    return RationalForm(tuple((i, c) for i, c in enumerate(numer) if c), tuple(denom))


def _assert_agrees(form, numer, denom):
    """`form` is the (nonzero) dense form numer / denom, already reduced."""
    assert form == _sparse(numer, denom)
    assert str(form) == _dense_str(numer, denom)
    assert form.coefficients(60) == _dense_coefficients(numer, denom, 60)
    assert form.pole_order_at_one() == _dense_pole(numer, denom)


def _random_dense_form(rng):
    """A nonzero numerator, often with factors (1 - t^d) a denominator
    may cancel, over up to three factors (1 - t^d)^m."""
    numer = [rng.randint(-2, 2) for _ in range(rng.randint(0, 5))] + [rng.choice([-1, 1, 2])]
    for _ in range(rng.randint(0, 3)):
        numer = _dense_mul(numer, [1] + [0] * (rng.randint(1, 4) - 1) + [-1])
    denom = {rng.randint(1, 6): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}
    return numer, sorted(denom.items())


def test_sparse_forms_agree_with_the_dense_reference():
    rng = random.Random(20260101)
    for _ in range(500):
        a, b = _random_dense_form(rng), _random_dense_form(rng)
        _assert_agrees(_sparse(*a).reduced(), *_dense_reduced(*a))
        _assert_agrees(_sparse(*a) * _sparse(*b), *_dense_product(a, b))


def _dense_em(n, multiplicity):
    if n % 2:
        return _dense_product(*[([1] + [0] * (n - 1) + [1], [])] * multiplicity)
    return [1], [(n, multiplicity)]


def test_em_products_agree_with_the_dense_reference():
    # the EM factors map-sphere and immersion split off every demo manifold
    checked = 0
    for path in sorted(DATA.glob("*.manifold")):
        M = load_manifold(path)
        for k in range(2, 41):
            for E in (sphere_bundle(M.model, k), framed_bundle_model(M, k)):
                factors, _, _ = em_split(E)
                form = em_product_series(factors, 20).form
                dense = _dense_product(*(_dense_em(f.degree, f.coefficient_dim)
                                         for f in factors))
                _assert_agrees(form, *dense)
                checked += bool(factors)
    assert checked > 300
