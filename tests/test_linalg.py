"""Exact elimination: sparse fraction-free path against the dense oracle."""

import copy
import random
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from ratimm import linalg


def _columns_from_rows(rows):
    ncols = len(rows[0]) if rows else 0
    cols = []
    for j in range(ncols):
        col = {i: Fraction(r[j]) for i, r in enumerate(rows) if r[j]}
        cols.append(col)
    return cols


def test_rank_known_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    cols = _columns_from_rows(rows)
    assert linalg.SparseEchelon(cols).rank == 2
    assert linalg.dense_rank([[Fraction(x) for x in r] for r in rows]) == 2


def test_kernel_of_known_matrix():
    # columns c0=(1,0), c1=(0,1), c2=(1,1): kernel spanned by (1,1,-1)
    cols = [{0: 1}, {1: 1}, {0: 1, 1: 1}]
    rank, kernel = linalg.sparse_rank_kernel(cols)
    assert rank == 2 and len(kernel) == 1
    ker = kernel[0]
    acc = {}
    for j, c in ker.items():
        for i, v in cols[j].items():
            acc[i] = acc.get(i, 0) + c * v
    assert not any(acc.values())


def test_zero_column_contributes_kernel_vector():
    rank, kernel = linalg.sparse_rank_kernel([{0: 1}, {}])
    assert rank == 1 and kernel == [{1: 1}]


def test_reduce_and_membership():
    ech = linalg.SparseEchelon()
    ech.add({0: 1, 1: 1})
    ech.add({1: 1, 2: 1})
    assert not ech.reduce({0: 1, 2: -1})         # (r1 - r2)
    assert ech.reduce({0: 1}) == {2: 1}


def test_random_cross_check_against_dense_oracle():
    rng = random.Random(991)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        cols = []
        for _j in range(ncols):
            col = {}
            for i in range(nrows):
                if rng.random() < 0.45:
                    val = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                    if val:
                        col[i] = val
            cols.append(col)
        sparse = linalg.SparseEchelon(cols).rank
        dense = linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
        assert sparse == dense
        rank, kernel = linalg.sparse_rank_kernel(cols)
        assert rank + len(kernel) == ncols
        for ker in kernel:
            acc = {}
            for j, c in ker.items():
                for i, v in cols[j].items():
                    acc[i] = acc.get(i, Fraction(0)) + c * v
            assert not any(acc.values())


def test_random_sparse_fill_in_cross_check(monkeypatch):
    # larger, very sparse matrices: eliminating one pivot puts entries on
    # later pivot columns, which the reduction must then visit too
    pushes = []
    real_push = linalg.heappush
    monkeypatch.setattr(linalg, "heappush",
                        lambda heap, j: (pushes.append(j), real_push(heap, j)))
    rng = random.Random(2718)
    for _ in range(8):
        nrows, ncols = rng.randint(30, 60), rng.randint(40, 80)
        cols = []
        for _j in range(ncols):
            support = rng.sample(range(nrows), rng.randint(2, 4))
            cols.append({i: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                     rng.choice([1, 1, 2, 5]))
                         for i in support})
        rank, kernel = linalg.sparse_rank_kernel(cols)
        assert linalg.SparseEchelon(cols).rank == rank
        assert rank == linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
        assert rank + len(kernel) == ncols
        for ker in kernel:
            acc = {}
            for j, c in ker.items():
                for i, v in cols[j].items():
                    acc[i] = acc.get(i, Fraction(0)) + c * v
            assert not any(acc.values())
    assert pushes, "no reduction filled in a later pivot column"


def _random_vectors(rng, count, width):
    vecs = []
    for t in range(count):
        support = rng.sample(range(width), rng.randint(0, min(width, 5)))
        if t % 3 == 0:  # all int
            vec = {i: rng.randint(-6, 6) for i in support}
        elif t % 3 == 1:  # all Fraction
            vec = {i: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for i in support}
        else:  # mixed, with a common factor to take out
            vec = {i: rng.choice([4, -6, Fraction(8, 3), Fraction(-2, 9), 0])
                   for i in support}
        vecs.append(vec)
    return vecs


def test_primitive_scales_to_coprime_integers():
    rng = random.Random(2718)
    for vec in _random_vectors(rng, 300, 8):
        ivec = linalg.primitive(vec)
        nonzero = {i: c for i, c in vec.items() if c}
        # a positive rational multiple of vec, the factor read off ivec
        factor = Fraction(ivec[min(ivec)], nonzero[min(ivec)]) if ivec else 1
        assert factor > 0
        assert ivec == {i: c * factor for i, c in nonzero.items()}
        # integral, with gcd 1
        assert all(type(v) is int for v in ivec.values())
        assert gcd(*ivec.values()) == (1 if ivec else 0)


def test_untagged_rows_equal_tagged_rows():
    # a tagged row is the untagged row, up to a positive factor, followed
    # by the tag coordinates of the input combination it equals
    rng = random.Random(314)
    for _ in range(40):
        width = rng.randint(1, 10)
        vecs = _random_vectors(rng, rng.randint(1, 14), width)
        untagged, tagged = linalg.SparseEchelon(), linalg.SparseEchelon()
        for j, vec in enumerate(vecs):
            assert untagged.add(vec)[0] == tagged.add(vec, tag=j)[0]
        assert untagged.pivot_cols == tagged.pivot_cols
        assert linalg.SparseEchelon(vecs).rows == untagged.rows
        for row, trow in zip(untagged.rows, tagged.rows):
            real = {i: v for i, v in trow.items() if i < linalg._TAG}
            factor = Fraction(real[min(row)], row[min(row)])
            assert factor > 0 and real == {i: factor * v for i, v in row.items()}
            combo = {}
            for t, c in trow.items():
                if t >= linalg._TAG:
                    for i, v in vecs[t - linalg._TAG].items():
                        combo[i] = combo.get(i, 0) + c * v
            assert {i: v for i, v in combo.items() if v} == real
        for vec in _random_vectors(rng, 5, width):
            assert untagged.reduce(vec) == tagged.reduce(vec)


def test_tags_enter_before_scaling():
    # the tag coordinate is scaled with the column, so the relation's
    # coefficients are those of the inputs as given
    assert linalg.sparse_rank_kernel([{0: 2}, {0: 3}]) == (1, [{0: -3, 1: 2}])
    assert linalg.sparse_rank_kernel([{0: Fraction(1, 2)}, {0: 1}]) == (1, [{0: -2, 1: 1}])


def test_tagged_relations_vanish_on_the_inputs():
    rng = random.Random(4242)
    relations = 0
    for _ in range(60):
        width = rng.randint(1, 6)
        vecs = _random_vectors(rng, rng.randint(2, 12), width)
        ech = linalg.SparseEchelon()
        for j, vec in enumerate(vecs):
            pivot, rel = ech.add(vec, tag=j)
            if pivot is not None:
                continue
            relations += 1
            assert rel and rel[j] and max(rel) == j and all(rel.values())
            total = {}
            for t, c in rel.items():
                for i, v in vecs[t].items():
                    total[i] = total.get(i, 0) + c * Fraction(v)
            assert not any(total.values())
    assert relations > 100


def _fraction_scaled(vec: dict) -> dict:
    """vec scaled to coprime integers by Fraction arithmetic, zeros dropped."""
    vec = {j: Fraction(c) for j, c in vec.items() if c}
    denom = lcm(*(c.denominator for c in vec.values()))
    g = gcd(*(int(c * denom) for c in vec.values())) or 1
    return {j: int(c * denom / g) for j, c in vec.items()}


def _oracle_add(ech, vec, tag=None):
    """`SparseEchelon.add` with the Fraction scaling, reducing every column."""
    if tag is not None:
        vec = {**vec, linalg._TAG + tag: 1}
    ivec = ech._reduce(_fraction_scaled(vec))
    pivot = min(ivec) if ivec else linalg._TAG
    if pivot >= linalg._TAG:
        return None, ({j - linalg._TAG: v for j, v in ivec.items()}
                      if tag is not None else None)
    ech.pivot_cols[pivot] = len(ech.rows)
    ech.rows.append(ivec)
    return pivot, None


def _echelon_cases(rng, count):
    for _ in range(count):
        width = rng.randint(2, 7)
        vecs = _random_vectors(rng, rng.randint(3, 14), width)
        # integer columns that are coprime with no zero entry, stored as given
        vecs += [{i: rng.choice([-3, -1, 1, 2, 5]) for i in rng.sample(range(width), 2)}
                 | {width: 1} for _ in range(3)]
        rng.shuffle(vecs)
        yield vecs, rng.random() < 0.5


def test_stored_rows_and_inputs_are_never_changed(monkeypatch):
    reduced = []
    real_reduce = linalg.SparseEchelon._reduce
    monkeypatch.setattr(linalg.SparseEchelon, "_reduce",
                        lambda self, vec: (reduced.append(1), real_reduce(self, vec))[1])
    rng = random.Random(1618)
    met = 0
    for vecs, tagged in _echelon_cases(rng, 80):
        given = copy.deepcopy(vecs)
        ech, oracle = linalg.SparseEchelon(), linalg.SparseEchelon()
        for j, vec in enumerate(vecs):
            tag = j if tagged else None
            before = len(reduced)
            added = ech.add(vec, tag)
            met += len(reduced) > before
            assert added == _oracle_add(oracle, copy.deepcopy(vec), tag)
            for probe in _random_vectors(rng, 2, 8):
                kept = copy.deepcopy(probe)
                ech.reduce(probe)
                assert probe == kept
        assert vecs == given
        assert [list(row.items()) for row in ech.rows] == \
            [list(row.items()) for row in oracle.rows]
        assert ech.pivot_cols == oracle.pivot_cols
    # many columns reduced against earlier rows
    assert met > 300


def test_a_column_pays_only_for_the_pivots_it_meets(monkeypatch):
    calls = []
    real_reduce = linalg.SparseEchelon._reduce
    monkeypatch.setattr(linalg.SparseEchelon, "_reduce",
                        lambda self, vec: (calls.append(vec), real_reduce(self, vec))[1])
    ech = linalg.SparseEchelon()
    col = {0: 2, 3: -3}
    assert ech.add(col) == (0, None) and not calls
    assert ech.rows[-1] is col
    # no pivot met, but scaled: a new row, still not reduced
    assert ech.add({1: 4, 2: 0, 5: 6}) == (1, None) and not calls
    assert ech.rows[-1] == {1: 2, 5: 3}
    assert ech.add({2: Fraction(1, 2), 4: 1}) == (2, None) and not calls
    assert ech.rows[-1] == {2: 1, 4: 2}
    # meets pivot 0
    assert ech.add({0: 1, 4: 1}) == (3, None) and len(calls) == 1
    assert ech.rows[-1] == {3: 3, 4: 2}
    # a tagged column meets its pivot through its row coordinates only
    tagged = linalg.SparseEchelon()
    first, second = {0: 1, 2: 1}, {1: 1, 2: 1}
    tagged.add(first, tag=0)
    tagged.add(second, tag=1)
    assert len(calls) == 1
    assert tagged.add({0: 1, 1: 1, 2: 2}, tag=2) == (None, {0: -1, 1: -1, 2: 1})
    assert len(calls) == 2
    assert first == {0: 1, 2: 1} and second == {1: 1, 2: 1}


def test_elimination_builds_no_fraction(monkeypatch):
    def unused(*args):
        raise AssertionError("the elimination must build no Fraction")

    rng = random.Random(577)
    cases = []
    for _ in range(20):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 10)
        cols = [{i: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 7]))
                 for i in range(nrows) if rng.random() < 0.5} for _j in range(ncols)]
        cases.append(([{i: v for i, v in c.items() if v} for c in cols], nrows))
    monkeypatch.setattr(linalg, "Fraction", unused)
    results = [linalg.sparse_rank_kernel(cols) for cols, _ in cases]
    monkeypatch.undo()
    for (cols, nrows), (rank, kernel) in zip(cases, results):
        assert rank == linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
        assert rank + len(kernel) == len(cols)
        for ker in kernel:
            acc = {}
            for j, c in ker.items():
                for i, v in cols[j].items():
                    acc[i] = acc.get(i, 0) + c * v
            assert not any(acc.values())


def test_certified_rank_random_planted_dependencies(monkeypatch):
    # sparse columns, some of them rational combinations of earlier ones:
    # the certificate gives the dense rank or declines, and rarely declines
    def unused(*args):
        raise AssertionError("the certificate must not use the sparse path")
    monkeypatch.setattr(linalg, "SparseEchelon", unused)
    monkeypatch.setattr(linalg, "primitive", unused)
    rng = random.Random(1618)
    certified = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 25), rng.randint(1, 30)
        cols = []
        for _j in range(ncols):
            if cols and rng.random() < 0.4:
                col = {}
                for src in rng.sample(range(len(cols)), min(len(cols), 3)):
                    c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                    for i, v in cols[src].items():
                        col[i] = col.get(i, Fraction(0)) + c * v
            else:
                col = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for i in rng.sample(range(nrows), rng.randint(0, min(nrows, 4)))}
            cols.append({i: v for i, v in col.items() if v})
        rank = linalg.certified_rank(cols)
        assert rank in (None, linalg.dense_rank(linalg.dense_from_columns(cols, nrows)))
        certified += rank is not None
    assert certified >= 55


def test_certified_rank_declines_rather_than_undercount():
    p = linalg.PRIME
    # rank 2 over Q, rank 1 mod p: the lifted relation c0 - c1 fails
    assert linalg.certified_rank([{0: p, 1: 1}, {1: 1}]) is None
    assert linalg.certified_rank([{0: Fraction(p + 1, p)}, {0: 1}]) is None
    # relation coefficient 3^-80 is beyond rational reconstruction
    assert linalg.certified_rank([{0: 3 ** 80}, {0: 1}]) is None
    assert linalg.certified_rank([{0: 3 ** 80, 1: 1}, {0: 1}]) == 2
    assert linalg.certified_rank([]) == 0
    assert linalg.certified_rank([{}, {0: Fraction(1, 2)}, {0: 3}]) == 1


def test_certified_engine_matches_dense_on_models():
    from pathlib import Path

    from ratimm.bundles import sphere_product_manifold, stiefel_model
    from ratimm.cdga import cohomology
    from ratimm.io import load_cdga
    from ratimm.mapping import sphere_map_null_model

    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    cases = ((sphere_map_null_model(sphere_product_manifold(2, 4).model, 8), 24),
             (stiefel_model(7, 4), 20),
             (load_cdga(str(inputs / "free_s2xs2.cdga")), 30),
             (load_cdga(str(inputs / "finite_nonformal.cdga")), 12))
    for cdga, cutoff in cases:
        certified = cohomology(cdga, cutoff, engine="certified")
        assert certified.dims == cohomology(cdga, cutoff, engine="dense").dims
        assert certified.representatives is None


def test_certified_rank_with_kernel_witnesses(monkeypatch):
    # witnesses are the rows of an echelon of the kernel, built before the
    # sparse path is taken away: the certificate gives the dense rank or
    # declines, with any subset of them, and rarely declines
    rng = random.Random(2718)
    cases = []
    for _ in range(60):
        nrows, ncols = rng.randint(1, 25), rng.randint(1, 30)
        cols = []
        for _j in range(ncols):
            if cols and rng.random() < 0.5:
                col = {}
                for src in rng.sample(range(len(cols)), min(len(cols), 3)):
                    c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                    for i, v in cols[src].items():
                        col[i] = col.get(i, Fraction(0)) + c * v
            else:
                col = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for i in rng.sample(range(nrows), rng.randint(0, min(nrows, 4)))}
            cols.append({i: v for i, v in col.items() if v})
        rows = linalg.SparseEchelon(linalg.sparse_rank_kernel(cols)[1]).rows
        subset = rng.sample(rows, rng.randint(0, len(rows)))
        cases.append((cols, nrows, rows, subset))

    def unused(*args):
        raise AssertionError("the certificate must not use the sparse path")
    monkeypatch.setattr(linalg, "SparseEchelon", unused)
    monkeypatch.setattr(linalg, "primitive", unused)
    results = [(linalg.certified_rank(cols, rows), linalg.certified_rank(cols, subset))
               for cols, _, rows, subset in cases]
    monkeypatch.undo()
    certified = 0
    for (cols, nrows, rows, _), (rank, partial) in zip(cases, results):
        dense = linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
        assert rank in (None, dense) and partial in (None, dense)
        certified += rank is not None
    assert certified >= 55
    assert sum(len(rows) for _, _, rows, _ in cases) >= 100


def test_certified_rank_on_mixed_coefficient_types():
    # ints, integral Fractions such as Fraction(4, 2) (the mod-p pass
    # takes ints) and true fractions, within and across columns
    rng = random.Random(4242)
    entries = [3, -1, 2, Fraction(4, 2), Fraction(-6, 3), Fraction(1, 2), Fraction(-5, 3)]
    for _ in range(60):
        nrows = rng.randint(1, 6)
        cols = [{i: rng.choice(entries)
                 for i in rng.sample(range(nrows), rng.randint(0, nrows))}
                for _j in range(rng.randint(1, 9))]
        dense = linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
        assert linalg.certified_rank(cols) == dense
    # witnesses are checked on the columns as given: c1 = 2*c0
    cols = [{0: Fraction(4, 2), 1: 1}, {0: 4, 1: 2}, {0: Fraction(1, 2)}]
    assert linalg.certified_rank(cols, [{0: 2, 1: -1}]) == 2
    assert linalg.certified_rank(cols, [{0: 1, 1: -1}]) is None


def test_certified_rank_declines_bad_witnesses():
    # rank 2: c1 = 2*c0 and c3 = c0 + c2
    cols = [{0: 1}, {0: 2}, {1: 1}, {0: 1, 1: 1}]
    assert linalg.certified_rank(cols, [{0: 2, 1: -1}]) == 2
    assert linalg.certified_rank(cols, [{0: 2, 1: -1}, {1: 1, 2: 2, 3: -2}]) == 2
    # not in the kernel
    assert linalg.certified_rank(cols, [{0: 1, 1: -1}]) is None
    # two genuine kernel vectors with the same leading index
    assert linalg.certified_rank(cols, [{0: 2, 1: -1}, {0: 1, 2: 1, 3: -1}]) is None
    # empty, an index past the last column, a negative index
    assert linalg.certified_rank(cols, [{}]) is None
    assert linalg.certified_rank(cols, [{0: 2, 1: -1, 4: 1}]) is None
    assert linalg.certified_rank(cols, [{-1: 1, 3: -1}]) is None
    # a zero coefficient at the smallest index leads nothing
    assert linalg.certified_rank([{0: 1}, {}], [{1: 1}]) == 1
    assert linalg.certified_rank([{0: 1}, {}], [{0: 0, 1: 1}]) is None
    # checked on the columns as given, not on their integer scalings
    halves = [{0: Fraction(1, 2)}, {0: Fraction(1, 3)}]
    assert linalg.certified_rank(halves, [{0: 2, 1: -3}]) == 1
    assert linalg.certified_rank(halves, [{0: 1, 1: -1}]) is None
    # in the kernel mod p only
    p = linalg.PRIME
    assert linalg.certified_rank([{0: p, 1: 1}, {1: 1}], [{0: 1, 1: -1}]) is None


def test_certified_engine_never_falls_back(monkeypatch, tmp_path, capsys):
    # the walk's image rows are good witnesses: `ratimm cohomology`
    # settles every degree of these models, the CLI benchmark model
    # among them, without the dense fallback, and the certificate gives
    # one rank with or without them
    from pathlib import Path

    from test_cdga import _free_models

    from ratimm import cdga
    from ratimm.bundles import stiefel_model
    from ratimm.cli import main
    from ratimm.io import serialize_cdga

    def unused(cols, rows):
        raise AssertionError("the dense fallback must not run")
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    models = {
        "stiefel_3_4": serialize_cdga(stiefel_model(3, 4)),
        "free7": ("kind: free\nlabel: free7\n"
                  "generator: e2 2\ngenerator: x3 3\ngenerator: e4 4\n"
                  "generator: y5 5\ngenerator: x7 7\ngenerator: e6 6\n"
                  "generator: x11 11\n"
                  "d: x3 = 2/3*e2^2\nd: y5 = -5/7*e2*e4\n"
                  "d: x7 = 3*e4^2\nd: x11 = 1/4*e6^2\n"),
        "bench7": serialize_cdga(_free_models()[0]),
    }
    for name, text in models.items():
        (tmp_path / f"{name}.cdga").write_text(text)
    cases = ((inputs / "free_s2xs2.cdga", 30),
             (inputs / "finite_nonformal.cdga", 12),
             (tmp_path / "stiefel_3_4.cdga", 30),
             (tmp_path / "free7.cdga", 50),
             (tmp_path / "bench7.cdga", 50))
    certify = linalg.certified_rank
    calls = []

    def recorded(cols, witnesses=()):
        calls.append((cols, witnesses))
        return certify(cols, witnesses)
    monkeypatch.setattr(cdga, "_dense_rank", unused)
    monkeypatch.setattr(linalg, "certified_rank", recorded)
    for path, cutoff in cases:
        assert main(["cohomology", str(path), "--max-degree", str(cutoff)]) == 0
        assert capsys.readouterr().out.startswith("model:")
    assert len(calls) == sum(cutoff + 1 for _, cutoff in cases)
    assert sum(len(witnesses) for _, witnesses in calls) > 1000
    for cols, witnesses in calls:
        assert certify(cols, witnesses) == certify(cols) is not None


# -- the reference: the certificate with monic rows, every column reduced
# mod p and four scans per witness -------------------------------------------

def _reference_certified_rank(columns, witnesses=(), met=None):
    """`certified_rank` as it was before untouched columns were kept as
    given; `met`, if given, collects the pivots that a later column meets
    (the one added line)."""
    PRIME, _vanishes = linalg.PRIME, linalg._vanishes
    n = len(columns)
    ints = columns
    if any(type(c) is not int for col in columns for c in col.values()):
        common = lcm(*(c.denominator for col in columns for c in col.values()))
        ints = [{i: c.numerator * (common // c.denominator) for i, c in col.items()}
                for col in columns]
    leads = set()
    for w in witnesses:
        lead = min(w, default=-1)
        if (lead < 0 or lead in leads or max(w) >= n or not all(w.values())
                or not _vanishes(ints, w)):
            return None
        leads.add(lead)

    pivots = {}
    relations = []
    for j, col in enumerate(ints):
        if j in leads:
            continue
        vec = {}
        for i, v in col.items():
            v %= PRIME
            if v:
                vec[i] = v
        rel = {j: 1}
        heap = [i for i in vec if i in pivots]
        heapify(heap)
        while heap:
            i = heappop(heap)
            coeff = vec.get(i)
            if not coeff:
                continue
            if met is not None:
                met.add(i)
            row, rowrel = pivots[i]
            for k, v in row.items():
                s = (vec.get(k, 0) - coeff * v) % PRIME
                if s:
                    if k not in vec and k in pivots:
                        heappush(heap, k)
                    vec[k] = s
                else:
                    vec.pop(k, None)
            for k, v in rowrel.items():
                s = (rel.get(k, 0) - coeff * v) % PRIME
                if s:
                    rel[k] = s
                else:
                    rel.pop(k, None)
        if vec:
            pivot = min(vec)
            inv = pow(vec[pivot], -1, PRIME)
            pivots[pivot] = ({k: v * inv % PRIME for k, v in vec.items()},
                             {k: v * inv % PRIME for k, v in rel.items()})
        else:
            relations.append(rel)

    for rel in relations:
        lifted = {}
        for i, a in rel.items():
            pair = linalg._lift(a)
            if pair is None:
                return None
            lifted[i] = pair
        scale = lcm(*(s for _, s in lifted.values()))
        if not _vanishes(ints, {i: r * (scale // s) for i, (r, s) in lifted.items()}):
            return None
    return len(pivots)


def _corrupted(rng, rows, n):
    """The kernel rows with one of them made wrong: a coefficient off by
    one, an index out of range, a repeated lead or a zero coefficient."""
    rows = [dict(w) for w in rows]
    w = rows[rng.randrange(len(rows))]
    i = rng.choice(list(w))
    kind = rng.randrange(4)
    if kind == 0:
        w[i] += 1
    elif kind == 1:
        w[rng.choice([n, n + 3, -1])] = 1
    elif kind == 2:
        rows.append({k: 2 * c for k, c in w.items()})
    else:
        w[i] = 0
    return rows


def test_certified_rank_matches_the_reference():
    # every result, a rank or None, is the monic-row reference's, on
    # entries 0 mod p, >= p, negative, Fraction (denominator p too),
    # empty columns and planted dependencies, with no witnesses, the
    # kernel rows and one corrupted witness
    p = linalg.PRIME
    rng = random.Random(3141)
    small = [1, -1, 2, -3, 5, 7]
    special = [p, -2 * p, p + 1, 2 * p - 1, p * 5 + 1, 3 ** 45, -(3 ** 45)]
    rational = [Fraction(1, 2), Fraction(-5, 3), Fraction(1, p), Fraction(p + 2, p)]
    outcomes = Counter()
    for case in range(400):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 14)
        # how often an entry is special: never, now and then, often
        rate = (0, 0.05, 0.3)[case % 3]
        entries = special + rational if case % 2 else special

        def entry():
            return rng.choice(entries) if rng.random() < rate else rng.choice(small)
        cols = []
        for _j in range(ncols):
            roll = rng.random()
            if roll < 0.1:
                col = {}
            elif cols and roll < 0.45:
                col = {}
                for src in rng.sample(range(len(cols)), min(len(cols), 2)):
                    c = rng.choice([1, -2, 3, Fraction(1, 3)]) if case % 2 else entry()
                    for i, v in cols[src].items():
                        col[i] = col.get(i, 0) + c * v
            else:
                col = {i: entry()
                       for i in rng.sample(range(nrows), rng.randint(1, min(nrows, 5)))}
            cols.append({i: v for i, v in col.items() if v})
        rows = linalg.SparseEchelon(linalg.sparse_rank_kernel(cols)[1]).rows
        witness_sets = {"none": (), "kernel": rows}
        if rows:
            witness_sets["corrupted"] = _corrupted(rng, rows, ncols)
        for kind, witnesses in witness_sets.items():
            copies = copy.deepcopy((cols, witnesses))
            got = linalg.certified_rank(cols, witnesses)
            assert (cols, witnesses) == copies  # nothing changed in place
            assert got == _reference_certified_rank(cols, witnesses), (cols, witnesses)
            outcomes[kind, got is None] += 1
    # each kind of witness set both certifies and declines
    assert len(outcomes) == 6 and min(outcomes.values()) >= 10


def test_certificate_inverts_only_the_leads_it_meets(monkeypatch):
    # a column that meets no pivot is kept as given, and a lead is
    # inverted the first time a later column meets it: on the CLI
    # benchmark model to degree 50 the inverses taken are at most the
    # pivots met, far fewer than the columns eliminated
    from test_cdga import _free_models

    from ratimm.cdga import cohomology

    certify = linalg.certified_rank
    calls, inverses = [], []

    def recorded(cols, witnesses=()):
        calls.append((cols, witnesses))
        return certify(cols, witnesses)

    def counted(*args):
        inverses.append(args)
        return pow(*args)
    monkeypatch.setattr(linalg, "certified_rank", recorded)
    monkeypatch.setattr(linalg, "pow", counted, raising=False)
    assert len(cohomology(_free_models()[0], 50, engine="certified").dims) == 51
    monkeypatch.undo()
    met = eliminated = 0
    for cols, witnesses in calls:
        pivots_met = set()
        assert _reference_certified_rank(cols, witnesses, pivots_met) is not None
        met += len(pivots_met)
        eliminated += len(cols) - len(witnesses)
    assert len(calls) == 51 and eliminated > 2000
    assert len(inverses) <= met
    assert 10 * met < eliminated
