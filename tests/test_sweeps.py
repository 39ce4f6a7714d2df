"""Verification sweep machinery: determinism and clean runs."""

import random
from fractions import Fraction

from ratimm.gca import FreeAlgebra, Generator
from ratimm.sweeps import (DEFAULT_SEED, _random_element, nonformal_base,
                           random_closed_classes, random_manifold, run_suites,
                           sweep_instances)

VERIFY_CHECKS = [
    "core.koszul", "core.associativity", "core.basis-counts", "core.parsing",
    "core.elimination", "models.d2-sweep", "models.stiefel-tables",
    "models.reduction-quasi-iso", "models.kunneth-triviality", "models.generator-order",
    "immersion.series-properties", "immersion.desk-examples", "immersion.growth-bounds",
    "immersion.dual-model",
]


def test_sweep_instances_deterministic():
    a = sweep_instances(random.Random(DEFAULT_SEED))
    b = sweep_instances(random.Random(DEFAULT_SEED))
    assert [(M.name, k) for M, k in a] == [(M.name, k) for M, k in b]
    assert [{i: str(e) for i, e in M.pontryagin.items()} for M, _ in a] == \
        [{i: str(e) for i, e in M.pontryagin.items()} for M, _ in b]


def test_sweep_contains_nonzero_classes():
    instances = sweep_instances(random.Random(DEFAULT_SEED))
    assert any(any(not e.is_zero() for e in M.pontryagin.values())
               for M, _ in instances)


def test_random_classes_are_closed():
    rng = random.Random(5)
    for m in (4, 5, 6, 7):
        M = random_manifold(rng, m)
        for i, elt in random_closed_classes(rng, M).items():
            assert elt.degree() == 4 * i
            assert M.model.diff(elt).is_zero()


def test_nonformal_base_valid():
    base = nonformal_base()
    assert not base.diff_key(base.algebra.basis_index("y")).is_zero()


def test_core_suite_clean():
    results = run_suites("core")
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_all_suites_clean():
    results = run_suites("all")
    assert [r.name for r in results] == VERIFY_CHECKS
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_random_element_keeps_the_coefficient_rule_and_the_stream():
    alg = FreeAlgebra([Generator("a", 2), Generator("u", 3), Generator("b", 4)])
    rng, ref = random.Random(0), random.Random(0)
    for _ in range(50):
        elt = _random_element(rng, alg, 8)
        # the terms as drawn before the rule: Fraction(c, d) for each
        want = {}
        for key in alg.basis_of_degree(8):
            if ref.random() < 0.6:
                c = ref.choice([-2, -1, 1, 2, 3])
                want[key] = Fraction(c, ref.choice([1, 1, 2]))
        assert elt.terms == want
        assert all(type(c) is int or c.denominator > 1 for c in elt.terms.values())
    assert rng.random() == ref.random()


def test_unknown_suite_rejected():
    try:
        run_suites("bogus")
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")
