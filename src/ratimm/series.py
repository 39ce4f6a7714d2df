"""Truncated Poincaré series with exact rational closed forms.

A series is a truncated integer coefficient vector; when its generating
function is known to be P(t) / prod_i (1 - t^{d_i}) the closed form is
carried along, which lets products, arbitrary-degree expansion and
pole-order (growth) computations stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RationalForm", "PoincareSeries", "em_series", "series_product",
           "em_product_series", "reconstruct_rational_series"]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_div_geom(p, d):
    """Exact quotient p(t) / (1 - t^d), or None if it does not divide."""
    if not p:
        return []
    q = [0] * len(p)
    for i in range(len(p)):
        q[i] = p[i] + (q[i - d] if i >= d else 0)
    # remainder check: (1 - t^d) * q must reproduce p
    tail = q[len(p) - d:] if d <= len(p) else q
    if any(tail):
        return None
    out = q[:max(0, len(p) - d)]
    while out and out[-1] == 0:
        out.pop()
    return out


@dataclass(frozen=True)
class RationalForm:
    """P(t) / prod (1 - t^d)^mult with integer numerator coefficients."""

    numerator: tuple[int, ...]
    denominator: tuple[tuple[int, int], ...] = ()  # sorted ((degree, mult), ...)

    @staticmethod
    def polynomial(coeffs) -> "RationalForm":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return RationalForm(tuple(c), ())

    def __mul__(self, other: "RationalForm") -> "RationalForm":
        numer = tuple(_poly_mul(list(self.numerator), list(other.numerator)))
        denom: dict[int, int] = {}
        for d, m in self.denominator + other.denominator:
            denom[d] = denom.get(d, 0) + m
        return RationalForm(numer, tuple(sorted(denom.items()))).reduced()

    def reduced(self) -> "RationalForm":
        """Cancel denominator factors (1 - t^d) that divide the numerator."""
        numer = list(self.numerator)
        denom: list[list[int]] = [list(x) for x in self.denominator]
        changed = True
        while changed and numer:
            changed = False
            for pair in denom:
                d, m = pair
                while m > 0:
                    q = _poly_div_geom(numer, d)
                    if q is None:
                        break
                    numer = q
                    m -= 1
                    changed = True
                pair[1] = m
        denom = [p for p in denom if p[1] > 0]
        return RationalForm(tuple(numer), tuple(tuple(p) for p in denom))

    def coefficients(self, upto: int) -> list[int]:
        """Exact power-series coefficients c_0..c_upto."""
        out = [0] * (upto + 1)
        for i, c in enumerate(self.numerator[:upto + 1]):
            out[i] = c
        for d, m in self.denominator:
            for _ in range(m):
                for n in range(d, upto + 1):
                    out[n] += out[n - d]
        return out

    def pole_order_at_one(self) -> int:
        """Order of the pole at t = 1 (0 for polynomials)."""
        form = self.reduced()
        order = sum(m for _, m in form.denominator)
        numer = list(form.numerator)
        while numer and sum(numer) == 0 and order > 0:
            numer = _poly_div_geom(numer, 1)
            order -= 1
        return max(order, 0)

    def __str__(self):
        num = " + ".join(f"{c}*t^{i}" for i, c in enumerate(self.numerator) if c) or "0"
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
    """

    def __init__(self, coeffs, cutoff: int | None = None,
                 form: RationalForm | None = None, fit=None):
        coeffs = [int(c) for c in coeffs]
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
        return PoincareSeries.from_form(RationalForm.polynomial([1]), cutoff)

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        cutoff = min(self.cutoff, other.cutoff)
        out = [0] * (cutoff + 1)
        for i, x in enumerate(self.coeffs[:cutoff + 1]):
            if not x:
                continue
            for j, y in enumerate(other.coeffs[:cutoff + 1 - i]):
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
    if n % 2:
        single = [0] * (n + 1)
        single[0] = single[n] = 1
        form = RationalForm.polynomial([1])
        for _ in range(multiplicity):
            form = form * RationalForm.polynomial(single)
    else:
        form = RationalForm((1,), ((n, multiplicity),))
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
    numer = coeffs
    for d in degrees:
        numer = _poly_mul(numer, [1] + [0] * (d - 1) + [-1])[:len(coeffs)]
    while numer and numer[-1] == 0:
        numer.pop()
    if len(numer) > verify_from:
        return None
    denom: dict[int, int] = {}
    for d in degrees:
        denom[d] = denom.get(d, 0) + 1
    form = RationalForm(tuple(numer), tuple(sorted(denom.items()))).reduced()
    if form.coefficients(len(coeffs) - 1) != coeffs:
        return None
    return form
