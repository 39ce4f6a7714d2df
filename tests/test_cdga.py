"""Differentials, cohomology, tensor products, quasi-isomorphisms."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from ratimm import linalg
from ratimm.bundles import sphere_manifold
from ratimm.cdga import (CdgaMorphism, FiniteAlgebra, FiniteCdga, FreeCdga,
                         RelativeModel, TensorAlgebra, check_d_squared,
                         cohomology, is_quasi_iso, tensor, unit_cdga)
from ratimm.errors import ChainMapError, ContextError, DegreeError, InputError
from ratimm.gca import (Element, FreeAlgebra, Generator, basis_count_series,
                        parse_element)
from ratimm.sweeps import nonformal_base


@pytest.fixture
def s2_model():
    return FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"},
                    label="S2")


@pytest.fixture
def cp2():
    return FiniteCdga([("one", 0), ("a", 2), ("aa", 4)], {("a", "a"): "aa"},
                      label="CP2", simply_connected=True)


# -- derivations -------------------------------------------------------------

def test_derivation_on_generator(s2_model):
    alg = s2_model.algebra
    assert s2_model.diff(alg.gen("x3")) == parse_element("e2^2", alg)


def test_leibniz_even_first_factor(s2_model):
    alg = s2_model.algebra
    d = s2_model.diff(parse_element("e2*x3", alg))
    assert d == parse_element("e2^3", alg)


def test_derivation_kills_closed_product():
    cdga = FreeCdga([Generator("x3", 3), Generator("y3", 3)], {})
    alg = cdga.algebra
    assert cdga.diff(parse_element("x3*y3", alg)).is_zero()


def test_derivation_sign_on_odd_prefix():
    # d(x3 * e2) = -x3 * d(e2)? here d(e2)=0; use d on second odd factor:
    # d(x3*y3) with dy3 = b4: equals -x3*b4
    cdga = FreeCdga([Generator("x3", 3), Generator("y3", 3), Generator("b4", 4)],
                    {"y3": "b4"})
    alg = cdga.algebra
    d = cdga.diff(parse_element("x3*y3", alg))
    assert d == parse_element("-x3*b4", alg)


def test_differential_raises_degree_by_one(s2_model):
    alg = s2_model.algebra
    elt = parse_element("e2*x3", alg)
    assert s2_model.diff(elt).degree() == elt.degree() + 1


# -- reference Leibniz oracle ------------------------------------------------
#
# Element arithmetic on whole products, independent of the dict-based
# assembly in `cdga._leibniz`: the algebra product supplies every Koszul
# sign, only the derivation sign (-1)^{|prefix|} is explicit.

def reference_leibniz(total, free_alg, mono, diff_of_gen, embed_mono):
    factors = list(mono)
    result = total.zero()
    prefix_deg = 0
    for idx, (gi, ei) in enumerate(factors):
        dg = diff_of_gen(gi)
        if dg is not None and not dg.is_zero():
            prefix = embed_mono(tuple(factors[:idx]))
            suffix = embed_mono(tuple(factors[idx + 1:]))
            power = embed_mono(((gi, ei - 1),)) if ei > 1 else None
            term = prefix * dg if power is None else prefix * (power * dg)
            term = term * suffix * ei
            if prefix_deg % 2:
                term = -term
            result = result + term
        prefix_deg += free_alg.generators[gi].degree * ei
    return result


def reference_diff_key(cdga, key):
    if isinstance(cdga, FiniteCdga):
        # d as the model was given it: `diff_key` reads the walk's D*d
        return cdga._diff.get(key, cdga.algebra.zero())
    if isinstance(cdga, FreeCdga):
        alg = cdga.algebra
        return reference_leibniz(
            alg, alg, key,
            lambda i: cdga.differential_of_generator(alg.generators[i].name),
            lambda m: Element(alg, {m: Fraction(1)}))
    total, fiber = cdga.algebra, cdga.fiber
    lk, rm = key
    base_unit = cdga.base.algebra.one_key()
    dbase = reference_diff_key(cdga.base, lk)
    result = Element(total, {(k, rm): c for k, c in dbase.terms.items()})
    dfiber = reference_leibniz(
        total, fiber, rm,
        lambda i: cdga.twist_of(fiber.generators[i].name),
        lambda m: Element(total, {(base_unit, m): Fraction(1)}))
    if not dfiber.is_zero():
        term = Element(total, {(lk, fiber.one_key()): Fraction(1)}) * dfiber
        if cdga.base.algebra.key_degree(lk) % 2:
            term = -term
        result = result + term
    return result


_BENCH_GENERATORS = (("e2", 2), ("x3", 3), ("e4", 4), ("y5", 5), ("x7", 7),
                     ("e6", 6), ("x11", 11))
_BENCH_DIFFERENTIALS = (("x3", "e2^2"), ("y5", "e2*e4"), ("x7", "e4^2"), ("x11", "e6^2"))
# the shape with fixed non-integral coefficients (D = 6)
_FRACTIONAL = {"x3": "3/2", "y5": "-2/3", "x7": "1/3", "x11": "-2"}


def _bench_coefficients(seed):
    """The coefficients of d in the CLI benchmark model's shape, drawn from
    Random(seed) as the benchmark draws them (seed 0 is its model)."""
    rng = random.Random(seed)
    return {name: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            for name, _ in _BENCH_DIFFERENTIALS}


def _bench_shape(coefficients):
    """The shape of the 7-generator CLI benchmark model, read as `ratimm
    cohomology` reads it: d(name) = coefficients[name] * its monomial."""
    from ratimm.io import parse_cdga
    lines = ["kind: free"] + [f"generator: {n} {d}" for n, d in _BENCH_GENERATORS]
    lines += [f"d: {name} = {coefficients[name]}*{mono}"
              for name, mono in _BENCH_DIFFERENTIALS]
    return parse_cdga("\n".join(lines) + "\n")


def _free_base_models():
    """Relative models over a free base with an even generator, so with no
    top degree: the first with integral d, the second with non-integral d
    (a walk eliminates D*d of a free or finite model, but a relative
    model reads d_B itself)."""
    s2 = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"})
    free_base = RelativeModel(s2, [Generator("u2", 2), Generator("t5", 5),
                                   Generator("w6", 6)],
                              {"t5": "e2*u2^2", "w6": "x3*u2^2 - e2*t5"})
    half = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "1/2*e2^2"})
    half_free_base = RelativeModel(half, [Generator("u2", 2), Generator("t5", 5),
                                          Generator("w6", 6)],
                                   {"t5": "e2*u2^2", "w6": "x3*u2^2 - 1/2*e2*t5"})
    return free_base, half_free_base


def _oracle_models():
    from ratimm.bundles import (sphere_product_manifold, stiefel_model,
                                unreduced_framed_model)
    from ratimm.mapping import sphere_map_null_model
    from ratimm.sweeps import sweep_instances
    fractional = _bench_shape(_FRACTIONAL)
    # twists with odd base keys times fiber monomials, odd fiber prefixes,
    # and a free base with its own differential
    s3 = FiniteCdga([("one", 0), ("a", 3)], {}, label="S3f")
    odd_base = RelativeModel(s3, [Generator("x3", 3), Generator("y2", 2),
                                  Generator("z4", 4)],
                             {"x3": "y2^2", "z4": "a*y2"})
    free_base, half_free_base = _free_base_models()
    half_finite = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                             {("a", "a"): "a2", ("a", "y"): "w"}, {"y": "1/2*a2"},
                             simply_connected=True)
    half_finite_base = RelativeModel(half_finite, [Generator("u2", 2), Generator("t5", 5),
                                                   Generator("r3", 3)],
                                     {"t5": "a*u2^2", "r3": "a2 - 2*u2^2"})
    # a closed (a2) and a non-closed (z4) even generator in one free CDGA
    mixed = FreeCdga([Generator("a2", 2), Generator("y3", 3), Generator("z4", 4)],
                     {"z4": "a2*y3"})
    unclosed = _unclosed_model()
    models = [(sphere_map_null_model(sphere_product_manifold(2, 4).model, 8), 20),
              (stiefel_model(7, 4), 20), (fractional, 24),
              (odd_base, 20), (free_base, 20), (half_free_base, 20), (half_finite, 12),
              (half_finite_base, 20), (mixed, 24), (unclosed, 24)]
    for M, k in sweep_instances(random.Random(0)):
        big, phi = unreduced_framed_model(M, k)
        models += [(big, 20), (phi.target, 20)]
    return models


def _walk_scale(cdga):
    """D, by which a walk multiplies d: for a free or finite model the lcm
    of the denominators of d as given on its generators or basis, for a
    relative model 1."""
    if isinstance(cdga, RelativeModel):
        return 1
    return lcm(*(c.denominator for elt in cdga._diff.values() for c in elt.terms.values()))


def _integral(cdga):
    if isinstance(cdga, (FreeCdga, FiniteCdga)):
        return _walk_scale(cdga) == 1
    images = [cdga.twist_of(g.name) for g in cdga.fiber.generators]
    images += [cdga.base.diff_key(k) for n in range(20)
               for k in cdga.base.algebra.keys_of_degree(n)]
    return all(c.denominator == 1 for elt in images for c in elt.terms.values())


def test_diff_key_matches_reference_leibniz():
    checked = 0
    for cdga, upto in _oracle_models():
        integral = _integral(cdga)
        for n in range(upto + 1):
            for key in cdga.algebra.keys_of_degree(n):
                got = cdga.diff_key(key)
                assert got == reference_diff_key(cdga, key), (cdga, key)
                if integral:
                    assert all(type(c) is int for c in got.terms.values())
                checked += 1
    assert checked > 5000


def test_walk_columns_match_reference_leibniz():
    # one walk per model, so later degrees read d(R) from the walk's memo
    from ratimm.cdga import _cochains
    # a free or finite model's walk reads D*d, all ints, D from d as given
    checked = 0
    for cdga, upto in _oracle_models():
        scale = _walk_scale(cdga)
        integral = not isinstance(cdga, RelativeModel) or _integral(cdga)
        alg = cdga.algebra
        walk = islice(_cochains(cdga), upto + 1)
        for n, (keys, _, rows, columns) in enumerate(walk):
            rows_index = {k: i for i, k in enumerate(alg.keys_of_degree(n + 1))}
            assert rows == len(rows_index)
            for key, col in zip(keys, columns(), strict=True):
                want = reference_diff_key(cdga, key)
                assert col == {rows_index[k]: scale * c for k, c in want.terms.items()}, \
                    (cdga, key)
                if integral:
                    assert all(type(c) is int for c in col.values())
                checked += 1
    assert checked > 5000


def test_null_model_walk_expands_each_odd_word_once(monkeypatch):
    # d vanishes on the four even generators of this pure model, so a walk
    # to degree 76 runs the Leibniz rule once per word in its four odd ones
    from ratimm import cdga
    from ratimm.bundles import sphere_product_manifold
    from ratimm.mapping import sphere_map_null_model
    model = sphere_map_null_model(sphere_product_manifold(2, 4).model, 8)
    assert sum(g.is_odd for g in model.generators) == 4
    calls = Counter()
    leibniz = cdga._leibniz

    def counted(fiber, mono, dgen):
        calls[mono] += 1
        return leibniz(fiber, mono, dgen)

    monkeypatch.setattr(cdga, "_leibniz", counted)
    cohomology(model, 76, representatives=False)
    assert sum(calls.values()) == 16 and set(calls.values()) == {1}
    assert all(model.generators[i].is_odd for word in calls for i, _ in word)


def test_relative_walk_expands_each_fiber_monomial_once(monkeypatch):
    # D(lk (x) rm) = d_B(lk) (x) rm + (-1)^{|lk|} (lk (x) 1) * D(1 (x) rm):
    # a walk merges the closed factors of rm into D(1 (x) rm) once per rm
    # (`_fiber_entry`, by adding codes), expands each rest R once, and asks
    # the base for each product lk*bk once
    from ratimm import cdga
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    models = [unreduced_framed_model(M, k)[0]
              for M, k in sweep_instances(random.Random(0))[:8]]
    merges, leibniz_calls, products = Counter(), Counter(), Counter()
    fiber_entry, leibniz = RelativeModel._fiber_entry, cdga._leibniz
    mul_key_pairs = FiniteAlgebra.mul_key_pairs

    def counted_merge(self, rm, code, targets, memo):
        merges[rm] += 1
        return fiber_entry(self, rm, code, targets, memo)

    def counted_leibniz(fiber, mono, dgen):
        leibniz_calls[mono] += 1
        return leibniz(fiber, mono, dgen)

    def counted_products(self, i, j):
        products[(id(self), i, j)] += 1
        return mul_key_pairs(self, i, j)

    monkeypatch.setattr(RelativeModel, "_fiber_entry", counted_merge)
    monkeypatch.setattr(cdga, "_leibniz", counted_leibniz)
    monkeypatch.setattr(FiniteAlgebra, "mul_key_pairs", counted_products)
    for model in models:
        for counts in (merges, leibniz_calls, products):
            counts.clear()
        cohomology(model, 24, representatives=False)
        assert set(merges.values()) == {1} and set(leibniz_calls.values()) == {1}
        assert set(products.values()) == {1}
        assert {i for i, _, _ in products} == {id(model.base.algebra)}


def _layout_models():
    from ratimm.bundles import stiefel_model, unreduced_framed_model
    from ratimm.mapping import sphere_bundle
    from ratimm.sweeps import sweep_instances
    models = [stiefel_model(7, 4), sphere_bundle(nonformal_base(), 5)]
    # a relative model over a free base, with no base key above degree 0
    models.append(RelativeModel(unit_cdga(), [Generator("b1", 4), Generator("x1", 3)],
                                {"x1": "-b1"}))
    for seed in (0, 1):
        for M, k in sweep_instances(random.Random(seed)):
            phi = unreduced_framed_model(M, k)[1]
            models += [phi.source, phi.target]
    return models + _free_models()


def _free_models():
    """Free CDGAs, whose walks assemble columns from monomial codes: the
    CLI benchmark model, the golden S2xS2 input, a model with rational d
    (D = 6), one with no closed generator, and a null mapping model."""
    from pathlib import Path

    from ratimm.bundles import sphere_product_manifold
    from ratimm.io import load_cdga
    from ratimm.mapping import sphere_map_null_model
    golden = Path(__file__).resolve().parent / "golden" / "inputs" / "free_s2xs2.cdga"
    return [_bench_shape(_bench_coefficients(0)), load_cdga(str(golden)),
            _bench_shape(_FRACTIONAL), _unclosed_model(),
            sphere_map_null_model(sphere_product_manifold(2, 4).model, 8)]


def _unclosed_model():
    """A free CDGA with no closed generator: every even generator has a
    differential."""
    return FreeCdga([Generator("w2", 2), Generator("y3", 3), Generator("u4", 4)],
                    {"w2": "y3", "u4": "w2*y3"})


def test_walk_columns_match_the_key_path():
    # a walk and `_diff_terms` read one memo of d(R) by monomial code; the
    # walk writes P*m as a row of its layout (a free model's code index, a
    # relative model's blocks), `_diff_terms` as a monomial.  Every column
    # must be `_diff_terms` of its key in the rows of the next degree's
    # keys, entries in the same order (`reference_diff_key` checks both
    # apart from this code)
    from ratimm.cdga import _cochains
    checked = 0
    for cdga in _layout_models():
        alg = cdga.algebra
        for n, (keys, index, rows, columns) in enumerate(islice(_cochains(cdga), 31)):
            assert keys == alg.keys_of_degree(n)
            assert [index[k] for k in keys] == list(range(len(keys)))
            row_of = {k: i for i, k in enumerate(alg.keys_of_degree(n + 1))}
            assert rows == len(row_of)
            for key, col in zip(keys, columns(), strict=True):
                want = {row_of[k]: c for k, c in cdga._diff_terms(key, {}).items()}
                assert list(col.items()) == list(want.items()), (cdga, key)
                checked += 1
            if isinstance(cdga, FreeCdga):
                # a monomial is looked up by its code: one of another
                # degree is not a key of degree n
                for key in alg.keys_of_degree(n - 1) + tuple(row_of):
                    with pytest.raises(KeyError):
                        index[key]
    assert checked > 40000


# sha256 of `test_key_path_bytes_are_unchanged`'s lines, taken while the
# key path merged P into d(R) by monomial tuple
KEY_PATH_SHA256 = "4d73c42df9f9435cc6944e3b50b11d2a1fa1df6cccea8af5adcacbe0c089c685"


def test_key_path_bytes_are_unchanged():
    # `_diff_terms` (entry order included) and `diff_key` of every key to
    # degree 20, and `diff` of each generator's d-image
    import hashlib
    digest = hashlib.sha256()
    models = [cdga for cdga, _ in _oracle_models()] + _layout_models()
    for cdga in models:
        for n in range(21):
            for key in cdga.algebra.keys_of_degree(n):
                digest.update(repr(list(cdga._diff_terms(key, {}).items())).encode() + b"\n")
                digest.update(str(cdga.diff_key(key)).encode() + b"\n")
        for _, _, _, dg in cdga.d2_items():
            digest.update(str(cdga.diff(dg)).encode() + b"\n")
    assert len(models) == 318
    assert digest.hexdigest() == KEY_PATH_SHA256


def test_monomial_inverts_code():
    algebras = [cdga.algebra for cdga in _free_models()] + [unit_cdga().algebra]
    algebras += [cdga.fiber for cdga in _layout_models() if isinstance(cdga, RelativeModel)]
    checked = 0
    for alg in algebras:
        for n in range(31):
            for mono, code in zip(alg.basis_of_degree(n), alg.codes_of_degree(n), strict=True):
                assert alg.code(mono) == code
                assert alg.monomial(alg.code(mono)) == mono
                assert alg.code(alg.monomial(code)) == code
                checked += 1
    unit = unit_cdga().algebra
    assert unit.code(()) == 0 and unit.monomial(0) == ()
    assert checked > 20000


def test_key_path_refuses_the_degrees_where_codes_carry():
    # P*m is the code p + m, which could carry an exponent into the next
    # generator's digit from the degree L on where an exponent could reach
    # 2^CODE_BITS: d of a key is refused there, as a walk refuses degree L
    from ratimm.gca import CODE_BITS
    limit = 2 << CODE_BITS
    gens = [Generator("a", 2), Generator("y", 3)]
    free = FreeCdga(gens, {"y": "a^2"})
    relative = RelativeModel(FiniteCdga([("one", 0)]), gens, {"y": "a^2"})
    for cdga, key in ((free, lambda m: m), (relative, lambda m: (0, m))):
        largest = key(((0, limit // 2 - 3), (1, 1)))
        assert cdga.algebra.key_degree(largest) + 1 == limit - 2
        assert str(cdga.diff_key(largest)) == f"a^{limit // 2 - 1}"
        assert str(cdga.diff(Element(cdga.algebra, {largest: 1}))) == f"a^{limit // 2 - 1}"
        first = key(((0, limit // 2 - 2), (1, 1)))
        for ask in (cdga.diff_key, lambda k: cdga.diff(Element(cdga.algebra, {k: 1}))):
            with pytest.raises(InputError, match=f"from degree {limit} on"):
                ask(first)
    # a generator's d at degree L - 2 is checked (d^2 = 0) one degree up;
    # at degree L - 1 that check is refused, so the model is
    FreeCdga([Generator("a", 2), Generator("w", limit - 3)], {"w": f"a^{limit // 2 - 1}"})
    with pytest.raises(InputError, match=f"from degree {limit} on"):
        FreeCdga([Generator("a", 2), Generator("x", 3), Generator("w", limit - 2)],
                 {"w": f"a^{limit // 2 - 2}*x"})


def test_block_index_rejects_a_key_of_another_degree():
    # one position dict per fiber degree: a base key of degree n - 1 or
    # n + 1 with any fiber monomial, or a base key of degree n with a
    # fiber monomial of the wrong degree, is not a key of degree n
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    M, k = sweep_instances(random.Random(0))[0]
    alg = unreduced_framed_model(M, k)[0].algebra
    for n in range(1, 16):
        _, index = alg.layout(n)
        others = alg.keys_of_degree(n - 1) + alg.keys_of_degree(n + 1)
        assert others
        for key in others:
            with pytest.raises(KeyError):
                index[key]


def _base_counts(alg, upto):
    """The number of base keys in each degree <= upto, counted apart from
    `keys_of_degree`: by generating function for a free base, from the
    basis list for a finite one."""
    if isinstance(alg, FiniteAlgebra):
        counts = Counter(d for _, d in alg.basis)
        return [counts[n] for n in range(upto + 1)]
    return basis_count_series(alg.generators, upto)


def test_tensor_keys_are_enumerated_in_sort_order():
    # in order, no key twice, and every key: sum_i |B_i| * c_{n-i}, with c
    # counted from the fiber generators alone
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    upto = 24
    algebras = [m.algebra for m in _free_base_models()]
    for M, k in sweep_instances(random.Random(0)):
        big, phi = unreduced_framed_model(M, k)
        algebras += [big.algebra, phi.target.algebra]
    for alg in algebras:
        base = _base_counts(alg.left, upto)
        fiber = basis_count_series(alg.right.generators, upto)
        for n in range(upto + 1):
            keys = alg.keys_of_degree(n)
            assert list(keys) == sorted(keys, key=alg.sort_key)
            assert len(set(keys)) == len(keys)
            assert len(keys) == sum(base[i] * fiber[n - i] for i in range(n + 1)), (alg, n)


# -- d^2 checks --------------------------------------------------------------

def test_d_squared_clean(s2_model):
    assert check_d_squared(s2_model, 24) == []


def test_d_squared_catches_corruption(monkeypatch):
    # dx3 = e2^2 + b4 with db4 = w5 breaks d^2 = 0
    with monkeypatch.context() as patch:
        patch.setattr(FreeCdga, "_validate", lambda self: None)
        bad = FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("b4", 4),
                        Generator("w5", 5)],
                       {"x3": "e2^2 + b4", "b4": "w5"})
    violations = check_d_squared(bad, 24)
    assert violations and violations[0].generator == "x3"
    with pytest.raises(ValueError):
        FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("b4", 4),
                  Generator("w5", 5)],
                 {"x3": "e2^2 + b4", "b4": "w5"})


def test_d_squared_zero_differential():
    cdga = FreeCdga([Generator("a", 2), Generator("u", 5)], {})
    assert check_d_squared(cdga, 30) == []


def test_wrong_degree_differential_rejected():
    with pytest.raises(DegreeError):
        FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2"})


def test_every_kind_checks_its_generators_the_same_way():
    # one check, in the kind's own symbol: d(g) has degree |g| + 1, d^2(g) = 0
    s3 = FiniteCdga([("one", 0), ("a", 3)], {}, label="S3f")
    fiber = [Generator("y2", 2), Generator("x3", 3), Generator("b4", 4),
             Generator("w5", 5)]
    with pytest.raises(DegreeError, match=r"^D\(x3\) has degree 3, expected 4$"):
        RelativeModel(s3, [Generator("x3", 3)], {"x3": "a"})
    with pytest.raises(ValueError, match=r"^D\^2 != 0 on generator x3: "):
        RelativeModel(s3, fiber, {"x3": "y2^2 + b4", "b4": "w5"})
    with pytest.raises(DegreeError, match=r"^d\(a\) has degree 4, expected 3$"):
        FiniteCdga([("one", 0), ("a", 2), ("b", 4)], {}, {"a": "b"})
    with pytest.raises(ValueError, match=r"^d\^2 != 0 on generator a: "):
        FiniteCdga([("one", 0), ("a", 2), ("b", 3), ("c", 4)], {}, {"a": "b", "b": "c"})


# -- cohomology --------------------------------------------------------------

def test_exterior_on_one_odd_generator():
    cdga = FreeCdga([Generator("x3", 3)], {})
    assert cohomology(cdga, 5).dims == [1, 0, 0, 1, 0, 0]


def test_rational_two_sphere(s2_model):
    assert cohomology(s2_model, 6).dims == [1, 0, 1, 0, 0, 0, 0]


def test_representatives_are_cocycles_spanning(s2_model):
    table = cohomology(s2_model, 6, representatives=True)
    for n, reps in enumerate(table.representatives):
        assert len(reps) == table.dims[n]
        for rep in reps:
            assert s2_model.diff(rep).is_zero()


def test_dense_engine_agrees(s2_model, cp2):
    for cdga in (s2_model, cp2):
        sp = cohomology(cdga, 8, representatives=False)
        de = cohomology(cdga, 8, representatives=False, engine="dense")
        assert sp.dims == de.dims


def test_unknown_engine_is_rejected(s2_model):
    # a misspelt checking engine must not silently run the sparse path
    for engine in ("Dense", "modular", ""):
        with pytest.raises(ValueError, match="engine"):
            cohomology(s2_model, 4, engine=engine)


def test_walk_asks_for_the_degrees_to_cutoff_plus_one(s2_model, monkeypatch):
    # the walk is open-ended: cohomology to N reads degrees 0..N+1 only
    # (d_N lands in degree N+1), each once, whatever the engine
    alg = s2_model.algebra
    asked = []
    keys_of_degree = alg.keys_of_degree

    def recorded(n):
        asked.append(n)
        return keys_of_degree(n)

    monkeypatch.setattr(alg, "keys_of_degree", recorded)
    for engine, reps in (("sparse", True), ("sparse", False), ("certified", False),
                         ("dense", False)):
        asked.clear()
        cohomology(s2_model, 9, representatives=reps, engine=engine)
        assert asked == list(range(11)), engine


def _dense_ranks(cdga, cutoff):
    """rank d_n, n = 0..cutoff, by the dense oracle on every column."""
    from ratimm.cdga import _cochains
    return [linalg.dense_rank(linalg.dense_from_columns(columns(), rows))
            for _, _, rows, columns in islice(_cochains(cdga), cutoff + 1)]


def test_cleared_ranks_match_the_dense_oracle(monkeypatch):
    # the sparse rank pass skips the columns of d_n at the pivots of
    # im d_{n-1}; the rank it finds in each degree, read back from the
    # table, must be the dense rank of all the columns
    models = _oracle_models()
    ranks = [_dense_ranks(cdga, upto) for cdga, upto in models]
    counts = _count_diff_terms(monkeypatch)
    checked = 0
    for (cdga, upto), want in zip(models, ranks):
        for engine in ("sparse", "certified"):
            counts.clear()
            table = cohomology(cdga, upto, representatives=False, engine=engine)
            rank_prev = 0
            for n, rank in enumerate(want):
                keys = cdga.algebra.keys_of_degree(n)
                assert len(keys) - table.dims[n] - rank_prev == rank, (cdga, engine, n)
                # rank(d_{n-1}) keys are cleared, never assembled; the
                # certificate takes every column
                left_out = sum((id(cdga), key) not in counts for key in keys)
                assert left_out == (rank_prev if engine == "sparse" else 0), (cdga, n)
                rank_prev = rank
                checked += rank > 0
    assert checked > 1000


def test_a_walk_of_another_differential_disagrees_with_the_dense_oracle(monkeypatch):
    # the walk eliminates D*d, one D for every generator, and the dense
    # engine reads the model's columns without the walk.  A walk that
    # scaled one generator's differential by another constant would
    # eliminate another differential.  On the CLI benchmark model any
    # nonzero constant gives an isomorphic model (rescale the generator)
    # with the same ranks, so the mutant scales d(x11) by 0, as a D that
    # truncated a coefficient to 0 would
    from ratimm import cdga as cdga_module
    model = _bench_shape(_bench_coefficients(0))
    given = {g.name: model.differential_of_generator(g.name) for g in model.generators}
    mutant = FreeCdga(model.algebra, {**given, "x11": given["x11"] * 0})
    walk = cdga_module._walk

    def mutated(cdga, kernels=False):
        return walk(mutant if cdga is model else cdga, kernels)

    dense = cohomology(model, 30, engine="dense")
    assert cohomology(model, 30, representatives=False).dims == dense.dims
    monkeypatch.setattr(cdga_module, "_walk", mutated)
    assert cohomology(model, 30, representatives=False).dims != dense.dims


def test_rational_models_keep_their_representatives_byte_for_byte():
    # a free or finite model's walk eliminates D*d: every stored row is a
    # positive multiple of the row d gives in its real part, tags kept,
    # so the pivots, ranks and primitive kernel vectors are d's.  The
    # digest is the one a walk of d itself gives
    import hashlib
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "3/2*a2", ("a", "y"): "w"}, {"y": "1/2*a2"},
                    simply_connected=True)
    models = [_bench_shape(_FRACTIONAL),
              *(_bench_shape(_bench_coefficients(seed)) for seed in range(1, 5)),
              tensor(nf, nf)]
    digest = hashlib.sha256()
    for cdga in models:
        assert _walk_scale(cdga) > 1
        for reps in cohomology(cdga, 24).representatives:
            for rep in reps:
                digest.update(str(rep).encode() + b"\n")
        report = is_quasi_iso(CdgaMorphism.identity(cdga), 24)
        digest.update(repr(report.per_degree).encode())
    assert digest.hexdigest() == \
        "260f9abb37b118dc44f3457da52ae810913923fb90577ed91be53ac6996b3550"


def test_rank_only_representative_and_dense_paths_agree():
    from ratimm.bundles import sphere_product_manifold, stiefel_model
    from ratimm.mapping import sphere_map_null_model
    null = sphere_map_null_model(sphere_product_manifold(2, 4).model, 8)
    for cdga, cutoff in ((stiefel_model(7, 4), 20), (null, 24)):
        rank_only = cohomology(cdga, cutoff, representatives=False)
        with_reps = cohomology(cdga, cutoff, representatives=True)
        dense = cohomology(cdga, cutoff, engine="dense")
        assert rank_only.dims == with_reps.dims == dense.dims
        assert rank_only.representatives is None
        assert [len(r) for r in with_reps.representatives] == with_reps.dims


def test_finite_cdga_with_differential():
    # basis 1, a2, y3, a4=a^2, w5=a*y with dy = a^2: rationally a point up to 5?
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "a2", ("a", "y"): "w"},
                    {"y": "a2"}, label="NF", simply_connected=True)
    dims = cohomology(nf, 5).dims
    assert dims[0] == 1 and dims[1] == 0
    # Euler characteristic window equality for the full finite complex
    chain_euler = sum((-1) ** d for _, d in nf.algebra.basis)
    coh_euler = sum((-1) ** n * b for n, b in enumerate(dims))
    assert chain_euler == coh_euler


def test_cohomology_independent_of_generator_order():
    a = FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("w5", 5)],
                 {"x3": "e2^2"})
    b = FreeCdga([Generator("w5", 5), Generator("x3", 3), Generator("e2", 2)],
                 {"x3": "e2^2"})
    assert cohomology(a, 12, representatives=False).dims == \
        cohomology(b, 12, representatives=False).dims


# -- tensor products ---------------------------------------------------------

def test_kunneth_odd_spheres():
    s3 = FreeCdga([Generator("x", 3)], {})
    s5 = FreeCdga([Generator("y", 5)], {})
    prod = tensor(s3, s5)
    assert cohomology(prod, 8, representatives=False).support() == [0, 3, 5, 8]


def test_tensor_with_unit_algebra(s2_model):
    prod = tensor(s2_model, unit_cdga())
    assert cohomology(prod, 6, representatives=False).dims == \
        cohomology(s2_model, 6, representatives=False).dims


def test_tensor_renames_on_clash():
    a = FreeCdga([Generator("x", 3)], {})
    b = FreeCdga([Generator("x", 5)], {})
    prod = tensor(a, b)
    names = [g.name for g in prod.algebra.generators]
    assert names == ["x", "x_2"] and prod.renamings == {"x": "x_2"}
    # one rule on both tensor paths: only a clashing name is renamed, and
    # its new name avoids every given name (b's own x_2 included)
    b = FreeCdga([Generator("x", 3), Generator("x_2", 5)], {})
    prod = tensor(a, b)
    assert [g.name for g in prod.algebra.generators] == ["x", "x_3", "x_2"]
    assert prod.renamings == {"x": "x_3"}
    over_finite = tensor(FiniteCdga([("one", 0), ("x", 2)], {}, label="fb"), b)
    assert [g.name for g in over_finite.fiber.generators] == ["x_3", "x_2"]
    assert over_finite.renamings == {"x": "x_3"}
    # b's differential follows its generators by index
    a = FreeCdga([Generator("e", 2), Generator("x", 3)], {"x": "e^2"})
    b = FreeCdga([Generator("e", 2), Generator("u", 2), Generator("x", 5)],
                 {"x": "e^3 - 2*e*u^2"})
    prod = tensor(a, b)
    assert prod.renamings == {"e": "e_2", "x": "x_2"}
    assert str(prod.differential_of_generator("x")) == "e^2"
    assert str(prod.differential_of_generator("x_2")) == "e_2^3 - 2*e_2*u^2"


def test_kunneth_two_spheres(s2_model):
    other = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"})
    prod = tensor(s2_model, other)
    assert cohomology(prod, 8, representatives=False).dims == \
        [1, 0, 2, 0, 1, 0, 0, 0, 0]


def _convolve(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1 - i]):
            out[i + j] += x * y
    return out


def test_kunneth_randomized_free_pairs():
    rng = random.Random(7)
    pool = [
        FreeCdga([Generator("x", 3)], {}),
        FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"}),
        FreeCdga([Generator("a", 4), Generator("u", 7)], {"u": "a^2"}),
        FreeCdga([Generator("w", 5)], {}),
    ]
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        n = 10
        prod = tensor(a, b)
        ta = cohomology(a, n, representatives=False).dims
        tb = cohomology(b, n, representatives=False).dims
        tp = cohomology(prod, n, representatives=False).dims
        assert tp == _convolve(ta, tb, n)


def test_kunneth_finite_pairs(cp2):
    s2f = FiniteCdga([("one", 0), ("b", 2)], {}, label="S2f")
    prod = tensor(cp2, s2f)
    ta = cohomology(cp2, 8, representatives=False).dims
    tb = cohomology(s2f, 8, representatives=False).dims
    tp = cohomology(prod, 8, representatives=False).dims
    assert tp == _convolve(ta, tb, 8)
    # H^0 = Q and H^1 = 0 pass to the product when both factors have them
    assert tensor(cp2, cp2).simply_connected and not prod.simply_connected


def test_finite_tensor_does_not_recheck_its_factors(cp2, monkeypatch):
    # the product of checked factors is associative, satisfies the
    # Leibniz rule and d^2 = 0, and has H^0 = Q (and H^1 = 0 when both
    # factors are simply connected): `tensor` builds it unchecked
    nf = nonformal_base()
    checked = []
    for cls in (FiniteAlgebra, FiniteCdga):
        validate = cls._validate

        def counted(self, validate=validate):
            checked.append(self)
            return validate(self)

        monkeypatch.setattr(cls, "_validate", counted)
    for a, b in ((cp2, nf), (nf, nf)):
        prod = tensor(a, b)
        assert checked == []
        assert (cohomology(prod, 12, representatives=False).dims
                == _convolve(cohomology(a, 12, representatives=False).dims,
                             cohomology(b, 12, representatives=False).dims, 12))
    # a factor is still checked when it is built
    with pytest.raises(ValueError, match="not associative"):
        # (a*a)*b = c*b = w, but a*(a*b) = 0
        FiniteCdga([("one", 0), ("a", 2), ("b", 2), ("c", 4), ("w", 6)],
                   {("a", "a"): "c", ("c", "b"): "w"})
    with pytest.raises(ValueError, match="Leibniz"):
        FiniteCdga([("one", 0), ("a", 2), ("aa", 4), ("w", 5)],
                   {("a", "a"): "aa"}, {"aa": "w"})
    assert len(checked) == 3


def test_kunneth_finite_pairs_with_differential():
    # a factor with d != 0 reaches the differential of the finite tensor
    nf, s3 = nonformal_base(), sphere_manifold(3).model
    for a, b in ((nf, s3), (nf, nf), (s3, nf)):
        prod = tensor(a, b)
        assert isinstance(prod, FiniteCdga)
        ta = cohomology(a, 14, representatives=False).dims
        tb = cohomology(b, 14, representatives=False).dims
        tp = cohomology(prod, 14, representatives=False).dims
        assert tp == _convolve(ta, tb, 14)
        assert cohomology(prod, 14, engine="dense").dims == tp


# literal texts pin each product's sign, which the Kunneth tests, comparing
# Betti numbers only, cannot see
_NF5_S3 = """kind: finite
label: nonformal5(x)S3
basis: one 0
basis: a3 3
basis: a 2
basis: a_a3 5
basis: y 3
basis: y_a3 6
basis: a2 4
basis: a2_a3 7
basis: w 5
basis: w_a3 8
product: a3 * a = a_a3
product: a3 * y = -y_a3
product: a3 * a2 = a2_a3
product: a3 * w = -w_a3
product: a * a = a2
product: a * a_a3 = a2_a3
product: a * y = w
product: a * y_a3 = w_a3
product: a_a3 * y = -w_a3
d: y = a2
d: y_a3 = a2_a3
simply-connected: true
"""

_S3_S3 = """kind: finite
label: S3(x)S3'
basis: one 0
basis: z 3
basis: y 3
basis: y_z 6
product: z * y = -y_z
simply-connected: true
"""

_S2_S2_S2 = """kind: finite
label: S2(x)S2(x)S2
basis: one 0
basis: a2 2
basis: a2_2 2
basis: a2_a2 4
basis: a2_2_2 2
basis: a2_2_a2 4
basis: a2_a2_2 4
basis: a2_a2_a2 6
product: a2 * a2_2 = a2_a2
product: a2 * a2_2_2 = a2_2_a2
product: a2 * a2_a2_2 = a2_a2_a2
product: a2_2 * a2_2_2 = a2_a2_2
product: a2_2 * a2_2_a2 = a2_a2_a2
product: a2_a2 * a2_2_2 = a2_a2_a2
simply-connected: true
"""


def test_finite_tensor_texts_are_pinned():
    from ratimm.io import serialize_cdga
    s2, s3 = sphere_manifold(2).model, sphere_manifold(3).model
    y3 = FiniteCdga([("one", 0), ("y", 3)], {}, label="S3", simply_connected=True)
    z3 = FiniteCdga([("one", 0), ("z", 3)], {}, label="S3'", simply_connected=True)
    assert serialize_cdga(tensor(nonformal_base(), s3)) == _NF5_S3
    assert serialize_cdga(tensor(y3, z3)) == _S3_S3
    assert serialize_cdga(tensor(tensor(s2, s2), s2)) == _S2_S2_S2


def test_kunneth_mixed_relative(cp2):
    s3 = FreeCdga([Generator("x", 3)], {})
    rel = tensor(cp2, s3)
    assert isinstance(rel, RelativeModel)
    tp = cohomology(rel, 8, representatives=False).dims
    ta = cohomology(cp2, 8, representatives=False).dims
    tb = cohomology(s3, 8, representatives=False).dims
    assert tp == _convolve(ta, tb, 8)
    # mirrored order
    rel2 = tensor(s3, cp2)
    assert cohomology(rel2, 8, representatives=False).dims == tp


# -- finite algebra validation -----------------------------------------------

def test_power_in_finite_context_uses_the_product_table(cp2):
    assert parse_element("a^2", cp2.algebra) == cp2.algebra.gen("aa")


def test_finite_power_is_the_repeated_product(cp2):
    alg = cp2.algebra
    a = alg.gen("a")
    for exp, want in ((1, a), (2, a * a), (3, a * a * a)):
        power = alg.name_power("a", exp)
        assert power == want
        assert [type(c) for c in power.terms.values()] == \
            [type(c) for c in want.terms.values()]
    assert alg.name_power("a", 2) == alg.gen("aa")


@pytest.mark.parametrize("products", [{("one", "a"): "2*a"}, {("a", "one"): "0"},
                                      {("one", "a"): "a + b"}])
def test_unit_product_must_give_the_other_factor(products):
    basis = [("one", 0), ("a", 2), ("b", 2)]
    with pytest.raises(ValueError, match="breaks the unit law") as err:
        FiniteCdga(basis, products)
    assert err.value.product == next(iter(products))
    # the unit law itself is accepted, from either side
    for pair in (("one", "a"), ("a", "one")):
        assert FiniteCdga(basis, {pair: "a"}).algebra.mul_key_pairs(0, 1) == \
            [(1, Fraction(1))]


def test_basis_name_need_not_be_an_identifier_unless_written():
    cdga = FiniteCdga([("one", 0), ("a-b", 2), ("c", 4)], {("a-b", "a-b"): "0"})
    assert cohomology(cdga, 4, representatives=False).dims == [1, 0, 1, 0, 1]


def test_two_units_rejected():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("two", 0)], {})


def test_nonassociative_table_rejected():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("a", 2), ("b", 4), ("c", 6)],
                   {("a", "a"): "b", ("a", "b"): "0", ("b", "a"): "c"})


def test_graded_commutativity_conflict_rejected():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("u", 3), ("v", 3), ("w", 6)],
                   {("u", "v"): "w", ("v", "u"): "w"})


def test_leibniz_violation_rejected():
    # d(a)=0, d(aa)=w but Leibniz forces d(a*a) = 0
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("a", 2), ("aa", 4), ("w", 5)],
                   {("a", "a"): "aa"}, {"aa": "w"})


def test_simply_connected_flag_checks_h1():
    with pytest.raises(ValueError):
        FiniteCdga([("one", 0), ("t", 1)], {}, simply_connected=True)


# -- morphisms and quasi-isomorphisms ----------------------------------------

def test_identity_is_quasi_iso(s2_model):
    assert is_quasi_iso(CdgaMorphism.identity(s2_model), 10).ok


def test_finite_identity_is_quasi_iso(cp2):
    assert is_quasi_iso(CdgaMorphism.identity(cp2), 6).ok


def test_non_chain_map_rejected(s2_model):
    src = FreeCdga([Generator("x3", 3)], {})
    with pytest.raises(ChainMapError) as err:
        CdgaMorphism(src, s2_model, {"x3": "x3"})
    assert err.value.generator == "x3"


def test_zero_map_fails_quasi_iso():
    src = FreeCdga([Generator("x3", 3)], {})
    zero_map = CdgaMorphism(src, src, {"x3": "0"})
    report = is_quasi_iso(zero_map, 5)
    assert not report.ok and 3 in report.failing_degrees()


def test_cocycle_becoming_exact_fails():
    # a chain map may send a nonzero class onto an exact cocycle (the
    # reverse is impossible for chain maps); that must fail the check
    src = FreeCdga([Generator("b4", 4)], {})
    tgt = FreeCdga([Generator("b4", 4), Generator("x3", 3)], {"x3": "b4"})
    f = CdgaMorphism(src, tgt, {"b4": "b4"})
    report = is_quasi_iso(f, 8)
    assert not report.ok and 4 in report.failing_degrees()


def test_quasi_iso_needs_injectivity_not_just_dimensions():
    # both sides have H^3 and H^5 of rank 1; f sends the degree-3 class to 0
    # and the degree-5 class to the degree-5 class: dims match in every
    # degree except none... construct: source Λ(u3, w5), target Λ(v3, z5),
    # f(u3)=0, f(w5)=z5: H^3 dims equal (1) but induced map kills u3.
    src = FreeCdga([Generator("u", 3), Generator("w", 5)], {})
    tgt = FreeCdga([Generator("v", 3), Generator("z", 5)], {})
    f = CdgaMorphism(src, tgt, {"u": "0", "w": "z"})
    report = is_quasi_iso(f, 6)
    assert not report.ok and 3 in report.failing_degrees()


def test_equal_dimensions_with_a_non_injective_map_fail():
    # Λ(x2) -> Λ(x2), x -> 0: equal dimensions in every degree, yet every
    # class of positive degree maps to 0
    a = FreeCdga([Generator("x", 2)], {})
    report = is_quasi_iso(CdgaMorphism(a, a, {"x": "0"}), 6)
    assert all(ds == dt for _, ds, dt, _ in report.per_degree)
    assert not report.ok and report.failing_degrees() == [2, 4, 6]


# -- oracles for cohomology representatives and is_quasi_iso -----------------
#
# The references below are the earlier implementations: a tagged kernel
# elimination in every degree, and a quasi-isomorphism check that computes
# the target's representatives too and rebuilds the echelon of the target's
# d_{n-1} in every degree.  `reference_cleared_representatives` picks the
# basis that `cohomology` picks, by the same rule but on its own walk.

def reference_cohomology(cdga, cutoff):
    alg = cdga.algebra
    keys = [alg.keys_of_degree(n) for n in range(cutoff + 2)]
    index = [{k: i for i, k in enumerate(kk)} for kk in keys]
    dims, reps = [], []
    rank_prev, image_prev = 0, linalg.SparseEchelon()
    for n in range(cutoff + 1):
        cols = [{index[n + 1][k]: c for k, c in cdga.diff_key(key).terms.items()}
                for key in keys[n]]
        image = linalg.SparseEchelon()
        kernel = list(linalg.kernel_vectors(image, cols))
        chosen = []
        for ker in kernel:
            residue = image_prev.reduce(ker)
            if residue:
                image_prev.add(residue)
                chosen.append(Element(alg, {keys[n][j]: Fraction(c)
                                            for j, c in ker.items()}))
        dims.append(len(keys[n]) - image.rank - rank_prev)
        reps.append(chosen)
        image_prev, rank_prev = image, image.rank
    return dims, reps


def reference_is_quasi_iso(f, cutoff):
    f.validate()
    src_dims, src_reps = reference_cohomology(f.source, cutoff)
    tgt_dims, _ = reference_cohomology(f.target, cutoff)
    tgt_alg = f.target.algebra
    per_degree = []
    for n in range(cutoff + 1):
        index = {k: i for i, k in enumerate(tgt_alg.keys_of_degree(n))}
        ech = linalg.SparseEchelon()
        for key in tgt_alg.keys_of_degree(n - 1) if n else ():
            ech.add({index[k]: c for k, c in f.target.diff_key(key).terms.items()})
        injective = True
        for rep in src_reps[n]:
            pivot, _ = ech.add({index[k]: c for k, c in f.apply(rep).terms.items()})
            if pivot is None:
                injective = False
        per_degree.append((n, src_dims[n], tgt_dims[n], injective))
    ok = all(ds == dt and inj for _, ds, dt, inj in per_degree)
    return ok, cutoff, per_degree


def reference_cleared_representatives(cdga, cutoff):
    """For each degree n: the pivot set P of an uncleared echelon of all of
    d_{n-1}'s columns, the kernel vectors of a fresh echelon over d_n's
    columns off P, in key order, as elements, and d_{n-1}'s columns."""
    alg = cdga.algebra
    keys = [alg.keys_of_degree(n) for n in range(cutoff + 2)]
    index = [{k: i for i, k in enumerate(kk)} for kk in keys]
    out, pivots, cols_prev = [], {}, []
    for n in range(cutoff + 1):
        cols = [{index[n + 1][k]: c for k, c in cdga.diff_key(key).terms.items()}
                for key in keys[n]]
        kept = [j for j in range(len(cols)) if j not in pivots]
        kernel = linalg.kernel_vectors(linalg.SparseEchelon(), [cols[j] for j in kept])
        reps = [Element(alg, {keys[n][kept[j]]: Fraction(c) for j, c in ker.items()})
                for ker in kernel]
        out.append((set(pivots), reps, cols_prev))
        pivots, cols_prev = linalg.SparseEchelon(cols).pivot_cols, cols
    return out


def _failing_morphisms():
    x3 = FreeCdga([Generator("x3", 3)], {})
    b4 = FreeCdga([Generator("b4", 4)], {})
    b4x3 = FreeCdga([Generator("b4", 4), Generator("x3", 3)], {"x3": "b4"})
    uw = FreeCdga([Generator("u", 3), Generator("w", 5)], {})
    vz = FreeCdga([Generator("v", 3), Generator("z", 5)], {})
    x2 = FreeCdga([Generator("x", 2)], {})
    return [(CdgaMorphism(x3, x3, {"x3": "0"}), 5),
            (CdgaMorphism(b4, b4x3, {"b4": "b4"}), 8),
            (CdgaMorphism(uw, vz, {"u": "0", "w": "z"}), 6),
            (CdgaMorphism(x2, x2, {"x": "0"}), 6)]


def test_is_quasi_iso_matches_reference():
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    cases = _failing_morphisms()
    for seed in (0, 1):
        for M, k in sweep_instances(random.Random(seed)):
            cases.append((unreduced_framed_model(M, k)[1], 24))
    verdicts = set()
    for f, cutoff in cases:
        report = is_quasi_iso(f, cutoff)
        got = (report.ok, report.cutoff, report.per_degree)
        assert got == reference_is_quasi_iso(f, cutoff), f
        verdicts.add(report.ok)
    assert len(cases) == 104 and verdicts == {True, False}


def test_representatives_match_the_every_degree_kernel_reference():
    # the representatives are the kernel of the columns off the pivots P of
    # im d_{n-1}; by the dense oracle they are cocycles off P that span the
    # same complement of the coboundaries as the earlier greedy basis
    from ratimm.bundles import (sphere_product_manifold, stiefel_model,
                                unreduced_framed_model)
    from ratimm.mapping import sphere_map_null_model
    from ratimm.sweeps import sweep_instances
    cases = [(stiefel_model(7, 4), 20),
             (sphere_map_null_model(sphere_product_manifold(2, 4).model, 8), 24)]
    for M, k in sweep_instances(random.Random(0)):
        phi = unreduced_framed_model(M, k)[1]
        cases += [(phi.source, 24), (phi.target, 24)]
    compared = 0
    for cdga, cutoff in cases:
        table = cohomology(cdga, cutoff, representatives=True)
        dims, old = reference_cohomology(cdga, cutoff)
        assert table.dims == dims, cdga
        cleared = reference_cleared_representatives(cdga, cutoff)
        got = [[list(r.terms.items()) for r in rr] for rr in table.representatives]
        want = [[list(r.terms.items()) for r in rr] for _, rr, _ in cleared]
        assert got == want, cdga
        for n, (pivots, new, cob) in enumerate(cleared):
            assert len(new) == dims[n], (cdga, n)
            if not dims[n]:
                continue
            index = {k: i for i, k in enumerate(cdga.algebra.keys_of_degree(n))}

            def rank(*parts):
                cols = [col for part in parts for col in part]
                return linalg.dense_rank(linalg.dense_from_columns(cols, len(index)))

            new_cols = [{index[k]: c for k, c in r.terms.items()} for r in new]
            old_cols = [{index[k]: c for k, c in r.terms.items()} for r in old[n]]
            assert all(cdga.diff(r).is_zero() for r in new), (cdga, n)
            assert not any(j in pivots for col in new_cols for j in col), (cdga, n)
            full = rank(cob) + dims[n]
            assert rank(cob, new_cols) == rank(cob, old_cols) == full, (cdga, n)
            assert rank(cob, new_cols, old_cols) == full, (cdga, n)
        compared += sum(dims)
    assert compared > 1500


def _count_diff_terms(monkeypatch, *quiet):
    """Count the outermost calls of the per-key assembly routines per
    (model, key): `_diff_terms`, which `diff_key` and the walks of finite
    models use, a relative model's `_column`, which its walks use, and,
    per key whose column it returns, a free model's `_columns`, which
    assembles its walks' columns from monomial codes.  Calls made inside
    a counted call or inside the functions in `quiet` are left out, and
    so are those inside a relative model's `_base_row`: its call to its
    base's `_diff_terms` is part of its own assembly."""
    counts = Counter()
    depth = [0]

    def wrap(fn, counted):
        def wrapper(self, *args):
            if counted and not depth[0]:
                counts[(id(self), args[0])] += 1
            depth[0] += 1
            try:
                return fn(self, *args)
            finally:
                depth[0] -= 1
        return wrapper

    free_columns = FreeCdga._columns

    def columns(self, keys, index, skip, *args):
        outermost = not depth[0]
        depth[0] += 1
        try:
            out = free_columns(self, keys, index, skip, *args)
        finally:
            depth[0] -= 1
        asked = [key for j, key in enumerate(keys) if j not in skip]
        assert len(out) == len(asked)
        if outermost:
            counts.update((id(self), key) for key in asked)
        return out

    for cls in (FreeCdga, FiniteCdga, RelativeModel):
        monkeypatch.setattr(cls, "_diff_terms", wrap(cls._diff_terms, True))
    monkeypatch.setattr(FreeCdga, "_columns", columns)
    monkeypatch.setattr(RelativeModel, "_column", wrap(RelativeModel._column, True))
    for owner, name in ((RelativeModel, "_base_row"), *quiet):
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name), False))
    return counts


def test_is_quasi_iso_assembles_each_key_at_most_once(monkeypatch):
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    cutoff = 16
    phis = [unreduced_framed_model(M, k)[1]
            for M, k in sweep_instances(random.Random(0))[:6]]
    ranks = {id(model): _dense_ranks(model, cutoff)
             for phi in phis for model in (phi.source, phi.target)}
    counts = _count_diff_terms(monkeypatch, (CdgaMorphism, "validate"))
    for phi in phis:
        counts.clear()
        is_quasi_iso(phi, cutoff)
        # each key of degree <= cutoff of either side at most once; none above
        assert max(counts.values()) == 1
        assert set(counts) <= {(id(model), key) for model in (phi.source, phi.target)
                               for n in range(cutoff + 1)
                               for key in model.algebra.keys_of_degree(n)}
        # the keys left out of degree n are the rank(d_{n-1}) cleared ones,
        # on both sides: the source's representatives need no cleared column
        for model in (phi.source, phi.target):
            rank_prev = 0
            for n, rank in enumerate(ranks[id(model)]):
                keys = model.algebra.keys_of_degree(n)
                left_out = sum((id(model), key) not in counts for key in keys)
                assert left_out == rank_prev, (model, n)
                rank_prev = rank


# -- the CDGA protocol -------------------------------------------------------
#
# `CdgaMorphism.apply` reads every source kind through `key_word`, and
# computes f(lk (x) word) as (lk (x) 1) * f(word) with f(word) shared
# among keys; the oracle below is the earlier generic version, which
# multiplies the images into each key from the left.

def reference_apply(f, element):
    src = f.source
    tgt = f.target.algebra
    out = tgt.zero()
    for key, c in element.terms.items():
        base_key, word = src.key_word(key)
        term = (tgt.one() if base_key is None
                else Element(tgt, {(base_key, tgt.right.one_key()): 1}))
        for name, e in word:
            img = f.images[name]
            for _ in range(e):
                term = term * img
        out = out + term * c
    return out


def _identical(got, want):
    """Equal terms, in the same order and with the same coefficient types."""
    return (got.algebra is want.algebra
            and list(got.terms.items()) == list(want.terms.items())
            and [type(c) for c in got.terms.values()]
            == [type(c) for c in want.terms.values()])


def _assert_apply_matches(f, upto):
    alg = f.source.algebra
    checked = 0
    for n in range(upto + 1):
        keys = alg.keys_of_degree(n)
        for key in keys:
            elt = Element(alg, {key: Fraction(3, 2)})
            assert _identical(f.apply(elt), reference_apply(f, elt)), (f, key)
        whole = Element(alg, {key: j + 1 for j, key in enumerate(keys)})
        assert _identical(f.apply(whole), reference_apply(f, whole)), (f, n)
        checked += len(keys)
    return checked


def test_apply_matches_reference_on_representatives():
    # is_quasi_iso maps every representative through one memo
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    checked = 0
    for seed in (0, 1):
        for M, k in sweep_instances(random.Random(seed)):
            phi = unreduced_framed_model(M, k)[1]
            memo = {}
            for reps in cohomology(phi.source, 24).representatives:
                for rep in reps:
                    want = reference_apply(phi, rep)
                    assert _identical(phi.apply(rep), want), (phi, rep)
                    shared = phi._apply_terms(rep.terms, memo)
                    assert _identical(Element(phi.target.algebra, shared), want), (phi, rep)
                    checked += 1
    assert checked > 1500


def test_apply_matches_reference_on_free_sources(s2_model):
    from ratimm.bundles import sphere_manifold
    from ratimm.mapping import sphere_model
    nf = FiniteCdga([("one", 0), ("a", 2), ("y", 3), ("a2", 4), ("w", 5)],
                    {("a", "a"): "a2", ("a", "y"): "w"}, {"y": "a2"},
                    label="NF", simply_connected=True)
    sigmas = [CdgaMorphism(sphere_model(2), sphere_manifold(4).model,
                           {"x": "0", "y": "0"}),
              CdgaMorphism(sphere_model(2), sphere_manifold(3).model,
                           {"x": "0", "y": "a3"}),
              CdgaMorphism(sphere_model(4), nf, {"x": "a2", "y": "0"})]
    # each source and target also with the zero morphism
    morphisms = sigmas + [CdgaMorphism(s.source, s.target, {"x": "0", "y": "0"})
                          for s in sigmas]
    # a free target, where products of images do not vanish
    morphisms.append(CdgaMorphism(sphere_model(2), s2_model,
                                  {"x": "2*e2", "y": "4*x3"}))
    assert sum(_assert_apply_matches(f, 24) for f in morphisms) > 50


def test_apply_matches_reference_on_finite_sources(cp2):
    f = CdgaMorphism.identity(cp2)
    cp2s2 = tensor(cp2, FiniteCdga([("one", 0), ("b", 2)], {}, label="S2f"))
    g = CdgaMorphism.identity(cp2s2)
    for h in (f, g):
        _assert_apply_matches(h, 8)
        alg = h.source.algebra
        for u in range(len(alg.basis)):
            for v in range(len(alg.basis)):
                prod = (Element(alg, {u: Fraction(1)}) * Element(alg, {v: Fraction(1)})
                        * Fraction(-5, 3))
                assert h.apply(prod) == reference_apply(h, prod)


def test_apply_matches_reference_on_relative_sources():
    from ratimm.bundles import unreduced_framed_model
    from ratimm.sweeps import sweep_instances
    checked = 0
    for M, k in sweep_instances(random.Random(0)):
        _, phi = unreduced_framed_model(M, k)
        checked += _assert_apply_matches(phi, 24)
    assert checked > 10000


def test_d_squared_reports_the_base_generator_of_a_relative_model(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(FreeCdga, "_validate", lambda self: None)
        bad_base = FreeCdga([Generator("e2", 2), Generator("x3", 3), Generator("b4", 4),
                             Generator("w5", 5)],
                            {"x3": "e2^2 + b4", "b4": "w5"})
    model = RelativeModel(bad_base, [Generator("u3", 3), Generator("t5", 5)],
                          {"u3": "e2^2", "t5": "e2*e2*e2"})
    violations = check_d_squared(model, 24)
    assert [v.generator for v in violations] == ["x3"]
    assert check_d_squared(model, 4) == []  # |x3| + 2 > 4


def test_fiber_renaming_avoids_later_fiber_names():
    # the fiber generator x clashes with the base; its new name must not be
    # x_2, which a later fiber generator already has
    base = FreeCdga([Generator("x", 2)], label="base")
    model = RelativeModel(base, [Generator("x", 3), Generator("x_2", 5)],
                          {"x": "x^2", "x_2": "x^3"}, label="collide")
    assert model.renamings == {"x": "x_3"}
    assert [g.name for g in model.fiber.generators] == ["x_3", "x_2"]
    assert model.fiber_gen("x") == model.fiber_gen("x_3")
    assert model.fiber_gen("x").degree() == 3
    assert model.twist_of("x_2").degree() == 6
    assert check_d_squared(model, 20) == []
    assert is_quasi_iso(CdgaMorphism.identity(model), 12).ok
    # duplicate fiber names are rejected: `renamings` could not address both
    with pytest.raises(InputError, match="duplicate"):
        RelativeModel(base, [Generator("y", 3), Generator("y", 3)], {})


def test_relative_model_over_a_relative_model_is_an_input_error():
    # the base must be free or finite: a relative model's key algebra has
    # no top degree and the model no generator names to rename beside
    s2 = FreeCdga([Generator("e2", 2), Generator("x3", 3)], {"x3": "e2^2"})
    inner = RelativeModel(s2, [Generator("u2", 2), Generator("t5", 5)], {"t5": "e2*u2^2"})
    with pytest.raises(InputError, match="free or finite CDGA, not RelativeModel"):
        RelativeModel(inner, [Generator("v3", 3)], {"v3": "u2^2"})


def test_twist_over_the_fiber_generators_as_given():
    # renaming keeps indices, so a twist written over the fiber generators
    # as given has the model's keys, whatever the new names are
    base = FreeCdga([Generator("x", 2)], label="base")
    given = [Generator("x", 3), Generator("e", 2), Generator("y", 5)]
    fiber = FreeAlgebra(given)
    over = TensorAlgebra(base.algebra, fiber)
    twist = {"x": fiber.name_power("e", 2),
             "y": over.embed_right(fiber.name_power("e", 3))
             - over.embed_left(base.algebra.name_power("x", 3))}
    model = RelativeModel(base, given, twist, label="given")
    assert model.renamings == {"x": "x_2"}
    assert model.twist_of("x") == model.fiber_gen("e") ** 2
    assert str(model.twist_of("y")) == "e^3 - x^3"
    assert model.twist_of("y") == parse_element("e^3 - x^3", model.algebra)
    # the same fiber generators over another base algebra object
    other = TensorAlgebra(FreeAlgebra([Generator("x", 2)]), fiber)
    with pytest.raises(ContextError, match="foreign"):
        RelativeModel(base, given, {"x": other.zero()})


@pytest.mark.parametrize("foreign", [
    [Generator("x_2", 3), Generator("e", 2)],  # the new names
    [Generator("x", 3), Generator("e", 4)],    # another degree
    [Generator("x", 3)],                       # fewer generators
], ids=["renamed", "degree", "prefix"])
def test_twist_over_a_foreign_algebra_is_rejected(foreign):
    base = FreeCdga([Generator("x", 2)], label="base")
    given = [Generator("x", 3), Generator("e", 2)]
    fiber = FreeAlgebra(foreign)
    with pytest.raises(ContextError, match="foreign"):
        RelativeModel(base, given, {"e": fiber.gen(foreign[0].name)})
    with pytest.raises(ContextError, match="foreign"):
        RelativeModel(base, given, {"e": TensorAlgebra(base.algebra, fiber).zero()})


def test_protocol_consumers_name_no_cdga_kind():
    import ast
    import inspect
    import textwrap

    from ratimm import cli, immersions, mapping

    kinds = {"FreeCdga", "FiniteCdga", "RelativeModel"}

    def parse(fn):
        return ast.parse(textwrap.dedent(inspect.getsource(fn)))

    def named(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    for fn in (check_d_squared, CdgaMorphism.apply, CdgaMorphism.identity,
               cli._generator_lines, cli._generator_dicts, cli.cmd_map_sphere,
               mapping.em_split, immersions.immersion_components):
        assert not named(parse(fn)) & kinds, fn.__qualname__
    # validate keeps its finite-source multiplicativity check; only the
    # loop over the source's generators must be kind-free
    loop = next(n for n in ast.walk(parse(CdgaMorphism.validate))
                if isinstance(n, ast.For))
    assert "generator_items" in ast.unparse(loop.iter)
    assert not named(loop) & kinds
