"""Truncated Poincaré series with exact rational closed forms.

A series is a truncated integer coefficient vector; when its generating
function is known to be P(t) / prod_i (1 - t^{d_i}) the closed form is
carried along, which lets products, arbitrary-degree expansion and
pole-order (growth) computations stay exact.  P is kept as its nonzero
terms, so a form costs what it has terms, not what its degree is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

__all__ = ["RationalForm", "PoincareSeries", "em_series", "series_product",
           "em_product_series", "reconstruct_rational_series"]


def _poly_mul(a, b) -> dict[int, int]:
    """Product of two polynomials given as (exponent, coefficient) pairs."""
    out: dict[int, int] = {}
    for i, x in a:
        for j, y in b:
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _poly_div_geom(p: dict[int, int], d: int) -> dict[int, int] | None:
    """Exact quotient p(t) / (1 - t^d), or None if it does not divide.

    The quotient's coefficient at e is the running sum of p over the
    exponents <= e in e's residue class mod d; it divides iff every
    class sums to zero.
    """
    q: dict[int, int] = {}
    run: dict[int, tuple[int, int]] = {}  # residue -> (last exponent, sum)
    for e in sorted(p):
        last, s = run.get(e % d, (e, 0))
        if s:
            q.update(dict.fromkeys(range(last, e, d), s))
        run[e % d] = (e, s + p[e])
    return None if any(s for _, s in run.values()) else q


@dataclass(frozen=True)
class RationalForm:
    """P(t) / prod (1 - t^d)^mult with integer numerator coefficients.

    `numerator` holds P's nonzero terms as (exponent, coefficient) pairs
    in ascending exponent order; () is the zero polynomial.
    """

    numerator: tuple[tuple[int, int], ...]
    denominator: tuple[tuple[int, int], ...] = ()  # sorted ((degree, mult), ...)

    def __mul__(self, other: "RationalForm") -> "RationalForm":
        numer = _poly_mul(self.numerator, other.numerator)
        denom: dict[int, int] = {}
        for d, m in self.denominator + other.denominator:
            denom[d] = denom.get(d, 0) + m
        return RationalForm(tuple(sorted(numer.items())),
                            tuple(sorted(denom.items()))).reduced()

    def reduced(self) -> "RationalForm":
        """Cancel denominator factors (1 - t^d) that divide the numerator;
        the zero form keeps no denominator."""
        numer, denom = dict(self.numerator), []
        for d, m in self.denominator:
            while m and numer and (q := _poly_div_geom(numer, d)) is not None:
                numer, m = q, m - 1
            if m and numer:
                denom.append((d, m))
        return RationalForm(tuple(sorted(numer.items())), tuple(denom))

    def coefficients(self, upto: int) -> list[int]:
        """Exact power-series coefficients c_0..c_upto."""
        out = [0] * (upto + 1)
        for e, c in self.numerator:
            if e <= upto:
                out[e] = c
        for d, m in self.denominator:
            for _ in range(m):
                for n in range(d, upto + 1):
                    out[n] += out[n - d]
        return out

    def pole_order_at_one(self) -> int:
        """Order of the pole at t = 1 (0 for polynomials).

        Each Taylor coefficient of P at t = 1 that vanishes, from the
        first on (the j-th is the sum of c * C(e, j)), cancels one pole.
        """
        form = self.reduced()
        order, j = sum(m for _, m in form.denominator), 0
        while j < order and not sum(c * comb(e, j) for e, c in form.numerator):
            j += 1
        return order - j

    def __str__(self):
        num = " + ".join(f"{c}*t^{e}" for e, c in self.numerator) or "0"
        if not self.denominator:
            return num
        den = "".join(f"(1-t^{d})" + (f"^{m}" if m > 1 else "")
                      for d, m in self.denominator)
        return f"({num}) / {den}"


class PoincareSeries:
    """Truncated Betti-number generating series with exact product.

    The closed form may be given, or computed on first use by `fit`, a
    callable that returns it (or None when there is none); a product's
    form is the product of its factors' forms, computed on first use too.
    Every coefficient is exactly an int (TypeError otherwise: no float or
    fraction is rounded, and no bool is read as a number).
    """

    def __init__(self, coeffs, cutoff: int | None = None,
                 form: RationalForm | None = None, fit=None):
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"Poincaré series coefficient {c!r} is not an int")
        if cutoff is None:
            cutoff = len(coeffs) - 1
        if len(coeffs) < cutoff + 1:
            coeffs = coeffs + [0] * (cutoff + 1 - len(coeffs))
        self.cutoff = cutoff
        self.coeffs = tuple(coeffs[:cutoff + 1])
        self._form = form
        self._fit = fit

    @property
    def form(self) -> RationalForm | None:
        if self._fit is not None:
            self._form, self._fit = self._fit(), None
        return self._form

    @staticmethod
    def from_form(form: RationalForm, cutoff: int) -> "PoincareSeries":
        return PoincareSeries(form.coefficients(cutoff), cutoff, form)

    @staticmethod
    def one(cutoff: int) -> "PoincareSeries":
        return PoincareSeries.from_form(RationalForm(((0, 1),)), cutoff)

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        cutoff = min(self.cutoff, other.cutoff)
        out = [0] * (cutoff + 1)
        terms = [(j, y) for j, y in enumerate(other.coeffs[:cutoff + 1]) if y]
        for i, x in enumerate(self.coeffs[:cutoff + 1]):
            if not x:
                continue
            for j, y in terms:
                if i + j > cutoff:
                    break
                out[i + j] += x * y
        return PoincareSeries(out, cutoff, fit=lambda: (
            self.form * other.form if self.form and other.form else None))

    def __eq__(self, other):
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.cutoff, self.coeffs))

    def extend(self, upto: int) -> list[int]:
        """Coefficients to a degree past the cutoff (requires a closed form)."""
        if upto <= self.cutoff:
            return list(self.coeffs[:upto + 1])
        if self.form is None:
            raise ValueError("series has no closed form; cannot extend "
                             f"past cutoff {self.cutoff}")
        return self.form.coefficients(upto)

    def __str__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        tail = f" = {self.form}" if self.form else ""
        return f"[{body}]{tail}"

    def __repr__(self):
        return f"PoincareSeries({list(self.coeffs)!r}, cutoff={self.cutoff})"


def em_series(n: int, multiplicity: int, cutoff: int) -> PoincareSeries:
    """Betti series of K(Q, n)^multiplicity.

    Free on one degree-n class per factor: (1 + t^n) per factor for n
    odd, 1/(1 - t^n) per factor for n even.
    """
    if n < 1:
        raise ValueError(f"Eilenberg-MacLane degree must be >= 1, got {n}")
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    if n % 2:  # (1 + t^n)^multiplicity, by the binomial theorem
        form = RationalForm(tuple((n * i, comb(multiplicity, i))
                                  for i in range(multiplicity + 1)))
    else:
        form = RationalForm(((0, 1),), ((n, multiplicity),))
    return PoincareSeries.from_form(form, cutoff)


def series_product(a: PoincareSeries, b: PoincareSeries) -> PoincareSeries:
    """Truncated convolution (cutoffs reconciled by taking the minimum)."""
    return a * b


def em_product_series(factors, cutoff: int) -> PoincareSeries:
    """Betti series of a product of Eilenberg-MacLane factors, each with
    a `degree` and a `coefficient_dim` (multiplicity)."""
    series = PoincareSeries.one(cutoff)
    for f in factors:
        series = series_product(series, em_series(f.degree, f.coefficient_dim, cutoff))
    return series


def reconstruct_rational_series(coeffs, denominator_degrees,
                                verify_from: int | None = None):
    """Fit coefficients to P(t)/prod(1-t^d) over the given degrees.

    `coeffs` must extend far enough that the numerator, if the form is
    correct, terminates before `verify_from` (default: half the data);
    every coefficient from there on acts as a verification sample.
    Returns the reduced RationalForm, or None when the data does not
    match such a form or leaves no verification sample.
    """
    coeffs = list(coeffs)
    degrees = sorted(denominator_degrees)
    if verify_from is None:
        verify_from = len(coeffs) // 2
    if verify_from >= len(coeffs):
        return None
    numer = list(coeffs)
    for d in degrees:  # times (1 - t^d), in place, from the top down
        for i in range(len(numer) - 1, d - 1, -1):
            numer[i] -= numer[i - d]
    if any(numer[verify_from:]):
        return None
    denom: dict[int, int] = {}
    for d in degrees:
        denom[d] = denom.get(d, 0) + 1
    form = RationalForm(tuple((e, c) for e, c in enumerate(numer) if c),
                        tuple(sorted(denom.items()))).reduced()
    if form.coefficients(len(coeffs) - 1) != coeffs:
        return None
    return form
