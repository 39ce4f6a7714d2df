"""Randomized and exhaustive verification sweeps.

Shared by the CLI `verify` command and the acceptance test suite: the
d^2 = 0 grid over frame counts and codimensions, the reduction
quasi-isomorphism grid, Kunneth/triviality certificates, and the series
and growth property checks.  All randomness is seeded, so every run is
deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bundles import (ManifoldModel, complex_projective_plane, framed_bundle_model,
                      is_rationally_trivial, sphere_manifold,
                      sphere_product_manifold, stiefel_model,
                      unreduced_framed_model)
from .cdga import (FiniteCdga, FreeCdga, check_d_squared, cohomology, d_columns,
                   is_quasi_iso)
from .gca import Element, FreeAlgebra, Generator, _exact, basis_count_series, parse_element
from .immersions import (growth_degree, immersion_components,
                         verify_growth_bounds)
from .mapping import section_model
from .series import PoincareSeries, em_series, series_product

DEFAULT_SEED = 20250809


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        detail = f" -- {self.detail}" if self.detail else ""
        return f"[{status:4}] {self.name} ({self.seconds:.2f}s){detail}"


def _run(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except Exception as exc:  # noqa: BLE001 - verification must report, not crash
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    return CheckResult(name, ok, detail if isinstance(detail, str) else "",
                       time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def nonformal_base() -> FiniteCdga:
    """A fixed base with nonzero differential: d(y) = a^2 in a truncation."""
    return FiniteCdga(
        [("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
        {("a", "a"): "a2", ("a", "y"): "w"},
        {"y": "a2"}, label="nonformal5", simply_connected=True)


def random_manifold(rng: random.Random, m: int) -> ManifoldModel:
    """A small simply-connected base of dimension m with empty tangent data."""
    choices = [lambda: sphere_manifold(m)]
    for i in range(2, m - 1):
        j = m - i
        if j >= 2:
            choices.append(lambda i=i, j=j: sphere_product_manifold(i, j))
    if m == 4:
        choices.append(lambda: ManifoldModel(4, complex_projective_plane(p1=0).model,
                                             {}, name="CP^2"))
    if m == 5:
        choices.append(lambda: ManifoldModel(5, nonformal_base(), {}, name="NF5"))
    if m == 6:
        choices.append(lambda: ManifoldModel(
            6, FiniteCdga([("one", 0), ("a", 2), ("a2", 4), ("a3", 6)],
                          {("a", "a"): "a2", ("a", "a2"): "a3"},
                          label="CP3", simply_connected=True), {}, name="CP^3"))
    return rng.choice(choices)()


def random_closed_classes(rng: random.Random, M: ManifoldModel):
    """Random closed Pontryagin cocycles for indices with 4i <= dim."""
    alg = M.model.algebra
    classes = {}
    for i in range(1, M.dimension // 4 + 1):
        deg = 4 * i
        keys = alg.keys_of_degree(deg)
        if not keys:
            continue
        index = {k: j for j, k in enumerate(alg.keys_of_degree(deg + 1))}
        _, kernel = linalg.sparse_rank_kernel(d_columns(M.model, keys, index))
        if not kernel:
            continue
        vec = rng.choice(kernel)
        coeff = rng.choice([-2, -1, 1, 2, 3])
        classes[i] = Element(alg, {keys[j]: coeff * c for j, c in vec.items()})
    return classes


def with_classes(M: ManifoldModel, classes) -> ManifoldModel:
    return ManifoldModel(M.dimension, M.model, classes, name=M.name)


def sweep_instances(rng: random.Random):
    """(M, k) pairs of the verification grid: zero and random tangent classes."""
    out = []
    for m in range(2, 8):
        for k in range(2, 8):
            M = random_manifold(rng, m)
            out.append((M, k))
            classes = random_closed_classes(rng, M)
            if classes:
                out.append((with_classes(M, classes), k))
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _random_element(rng: random.Random, algebra: FreeAlgebra, degree: int) -> Element:
    keys = algebra.basis_of_degree(degree)
    terms = {}
    for key in keys:
        if rng.random() < 0.6:
            c = rng.choice([-2, -1, 1, 2, 3])
            terms[key] = _exact(Fraction(c, rng.choice([1, 1, 2])))
    return Element(algebra, terms)


def suite_core(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    def koszul():
        alg = FreeAlgebra([Generator("u", 3), Generator("v", 3), Generator("a", 2),
                           Generator("b", 4), Generator("w", 5)])
        u, v = alg.gen("u"), alg.gen("v")
        assert (u * u).is_zero(), "odd square must vanish"
        assert u * v == -(v * u), "odd generators must anticommute"
        for _ in range(40):
            d1, d2 = rng.randint(2, 7), rng.randint(2, 7)
            x = _random_element(rng, alg, d1)
            y = _random_element(rng, alg, d2)
            sign = -1 if (d1 % 2 and d2 % 2) else 1
            assert x * y == (y * x) * sign, "graded commutativity"
        return "odd squares, anticommutation, graded commutativity x40"

    def associativity():
        alg = FreeAlgebra([Generator("u", 3), Generator("a", 2), Generator("w", 5),
                           Generator("b", 4)])
        for _ in range(30):
            x = _random_element(rng, alg, rng.randint(2, 6))
            y = _random_element(rng, alg, rng.randint(2, 6))
            z = _random_element(rng, alg, rng.randint(2, 6))
            assert (x * y) * z == x * (y * z), "associativity"
            assert x * (y + z) == x * y + x * z, "distributivity"
        return "associativity and distributivity x30"

    def basis_counts():
        for trial in range(12):
            gens = []
            for gi in range(rng.randint(1, 4)):
                gens.append(Generator(f"g{gi}", rng.randint(1, 6)))
            alg = FreeAlgebra(gens)
            upto = 14
            expect = basis_count_series(gens, upto)
            got = [len(alg.basis_of_degree(n)) for n in range(upto + 1)]
            assert got == expect, f"basis counts {got} != series {expect}"
        return "monomial counts match the generating function x12"

    def parsing():
        alg = FreeAlgebra([Generator("e2", 2), Generator("x3", 3)])
        for _ in range(25):
            elt = _random_element(rng, alg, rng.randint(2, 9))
            assert parse_element(str(elt), alg) == elt, "parse/format round-trip"
        return "expression round-trips x25"

    def elimination_cross_check():
        for _ in range(20):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            cols = []
            for _j in range(ncols):
                col = {}
                for i in range(nrows):
                    if rng.random() < 0.5:
                        col[i] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                cols.append({i: c for i, c in col.items() if c})
            sparse = linalg.SparseEchelon(cols).rank
            dense = linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
            assert sparse == dense, f"rank mismatch {sparse} vs {dense}"
            certified = linalg.certified_rank(cols)
            assert certified in (None, dense), \
                f"certified rank {certified} vs dense {dense}"
            rank, kernel = linalg.sparse_rank_kernel(cols)
            assert rank + len(kernel) == ncols, "rank-nullity"
            witnessed = linalg.certified_rank(cols, linalg.SparseEchelon(kernel).rows)
            assert witnessed in (None, dense), \
                f"certified rank {witnessed} with kernel witnesses vs dense {dense}"
            for ker in kernel:
                acc: dict[int, Fraction] = {}
                for j, c in ker.items():
                    for i, v in cols[j].items():
                        acc[i] = acc.get(i, Fraction(0)) + Fraction(c) * v
                assert not any(acc.values()), "kernel vector fails"
        return "sparse and certified vs dense rank, kernel validity x20"

    results.append(_run("core.koszul", koszul))
    results.append(_run("core.associativity", associativity))
    results.append(_run("core.basis-counts", basis_counts))
    results.append(_run("core.parsing", parsing))
    results.append(_run("core.elimination", elimination_cross_check))
    return results


def suite_models(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    instances = sweep_instances(rng)

    def d2_sweep():
        count = 0
        for m in range(2, 8):
            for k in range(2, 8):
                bad = check_d_squared(stiefel_model(m, k), 24)
                assert not bad, f"stiefel({m},{k}): {bad[0]}"
                count += 1
        for M, k in instances:
            bad = check_d_squared(framed_bundle_model(M, k), 24)
            assert not bad, f"framed({M.name},{k}): {bad[0]}"
            count += 1
        return f"{count} models, d^2 = 0 to N=24"

    def stiefel_tables():
        expected = {(2, 2): [0, 2, 3, 5], (2, 3): [0, 7], (3, 2): [0, 2, 7, 9]}
        for (m, k), support in expected.items():
            model = stiefel_model(m, k)
            table = cohomology(model, 10, representatives=False, engine="dense")
            assert table.support() == support, \
                f"V_{m}(R^{m + k}) support {table.support()} != {support}"
            sparse = cohomology(model, 10, representatives=False)  # cleared
            assert sparse.dims == table.dims, \
                f"V_{m}(R^{m + k}) sparse {sparse.dims} != dense {table.dims}"
        return "V2(R4), V2(R5), V3(R5) tables (dense oracle)"

    def reduction_sweep():
        count = 0
        for M, k in instances:
            big, phi = unreduced_framed_model(M, k)
            report = is_quasi_iso(phi, 20)
            assert report.ok, \
                f"reduction fails for ({M.name}, k={k}) at {report.failing_degrees()}"
            count += 1
        return f"{count} reductions quasi-iso to N=20"

    def kunneth_sweep():
        count = 0
        for M, k in instances:
            if any(e is not None and not e.is_zero() for e in M.pontryagin.values()):
                continue
            verdict = is_rationally_trivial(M, k, cutoff=16)
            assert verdict.status == "trivial", f"({M.name}, {k}): {verdict.failures}"
            assert verdict.certificate.matches
            count += 1
        return f"{count} zero-class instances split (Kunneth certificates)"

    def permuted_generators():
        a = FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("y5", 5)],
                     {"x3": "e2^2"})
        b = FreeCdga([Generator("y5", 5), Generator("x3", 3), Generator("e2", 2)],
                     {"x3": "e2^2"})
        ta = cohomology(a, 12, representatives=False)
        tb = cohomology(b, 12, representatives=False)
        assert ta.dims == tb.dims, "cohomology depends on generator order"
        return "generator-order independence to N=12"

    results.append(_run("models.d2-sweep", d2_sweep))
    results.append(_run("models.stiefel-tables", stiefel_tables))
    results.append(_run("models.reduction-quasi-iso", reduction_sweep))
    results.append(_run("models.kunneth-triviality", kunneth_sweep))
    results.append(_run("models.generator-order", permuted_generators))
    return results


def suite_immersion(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    def series_properties():
        for _ in range(25):
            factors = [em_series(rng.randint(1, 9), rng.randint(1, 3), 18)
                       for _ in range(3)]
            a, b, c = factors
            assert series_product(a, b) == series_product(b, a), "commutativity"
            assert series_product(series_product(a, b), c) == \
                series_product(a, series_product(b, c)), "associativity"
            one = PoincareSeries.one(18)
            assert series_product(a, one) == a, "unit"
        return "series product properties x25"

    def desk_examples():
        s2 = sphere_manifold(2)
        d = immersion_components(s2, 3, 15)
        expect = series_product(em_series(5, 1, 15), em_series(7, 1, 15))
        assert d.series == expect, f"Imm(S2,R5) series {d.series}"
        assert d.growth == "finite"
        s3 = sphere_manifold(3)
        d2 = immersion_components(s3, 2, 12)
        assert d2.status == "resolved" and d2.growth == "polynomial(0)"
        d3 = immersion_components(s2, 2, 10)
        assert d3.status == "symbolic-sphere"
        d4 = immersion_components(complex_projective_plane(), 2, 10)
        assert d4.status == "hypothesis-failed"
        return "S2/S3/CP2 desk examples"

    def growth_sweep():
        checked = 0
        for m in range(2, 8):
            for k in range(2, 8):
                M = sphere_manifold(m)
                d = immersion_components(M, k, 15)
                if d.status != "resolved":
                    continue
                g = growth_degree(d)
                assert verify_growth_bounds(d.series, g, upto=200), \
                    f"bounds fail for (S^{m}, k={k}): growth {g}"
                checked += 1
        return f"{checked} resolved descriptions, coefficient bounds to 200"

    def dual_model_consistency():
        # the section model of the unsplit bundle against the assembled
        # series on every resolved case of the spheres and sphere products
        # of dimension <= 8: the whole grid is small, so no sample is drawn
        sources = [sphere_manifold(m) for m in range(2, 8)]
        sources += [sphere_product_manifold(a, b)
                    for a in range(2, 5) for b in range(a, 9 - a)]
        checked = 0
        for M in sources:
            for k in range(2, 10):
                d = immersion_components(M, k, 14)
                if d.status != "resolved":
                    continue
                oracle = section_model(framed_bundle_model(M, k))
                table = cohomology(oracle, 14, representatives=False)
                assert list(d.series.coeffs) == table.dims, \
                    f"{M.name}, k={k}: {list(d.series.coeffs)} != {table.dims}"
                checked += 1
        return (f"assembled series equals the unsplit section model's cohomology "
                f"to degree 14 on {checked} resolved cases (spheres and sphere "
                f"products of dimension <= 8, k = 2..9)")

    results.append(_run("immersion.series-properties", series_properties))
    results.append(_run("immersion.desk-examples", desk_examples))
    results.append(_run("immersion.growth-bounds", growth_sweep))
    results.append(_run("immersion.dual-model", dual_model_consistency))
    return results


def run_suites(which: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    suites = {
        "core": suite_core,
        "models": suite_models,
        "immersion": suite_immersion,
    }
    if which == "all":
        out = []
        for fn in suites.values():
            out.extend(fn(seed))
        return out
    if which not in suites:
        raise ValueError(f"unknown suite {which!r}; choose from "
                         f"{', '.join([*suites, 'all'])}")
    return suites[which](seed)
