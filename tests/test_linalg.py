"""Exact elimination: sparse fraction-free path against the dense oracle."""

import random
from fractions import Fraction

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
    assert linalg.sparse_rank(cols) == 2
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


def test_solve_consistent_and_inconsistent():
    cols = [{0: Fraction(2)}, {0: Fraction(0), 1: Fraction(3)}]
    sol = linalg.sparse_solve(cols, {0: Fraction(1), 1: Fraction(1)})
    assert sol == {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert linalg.sparse_solve([{0: 1}], {1: 1}) is None
    assert linalg.sparse_solve([{0: 1}], {}) == {}


def test_reduce_and_membership():
    ech = linalg.SparseEchelon()
    ech.add({0: 1, 1: 1})
    ech.add({1: 1, 2: 1})
    assert ech.contains({0: 1, 2: -1})           # (r1 - r2)
    assert not ech.contains({0: 1})


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
        sparse = linalg.sparse_rank(cols)
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


def test_random_solve_round_trip():
    rng = random.Random(424)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cols = []
        for _j in range(ncols):
            cols.append({i: Fraction(rng.randint(-4, 4))
                         for i in range(nrows) if rng.random() < 0.5})
        x = {j: Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
             for j in range(ncols) if rng.random() < 0.6}
        target = {}
        for j, c in x.items():
            for i, v in cols[j].items():
                target[i] = target.get(i, Fraction(0)) + c * v
        target = {i: v for i, v in target.items() if v}
        sol = linalg.sparse_solve(cols, target)
        assert sol is not None
        check = {}
        for j, c in sol.items():
            for i, v in cols[j].items():
                check[i] = check.get(i, Fraction(0)) + c * v
        assert {i: v for i, v in check.items() if v} == target


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
        assert linalg.sparse_rank(cols) == rank
        assert rank == linalg.dense_rank(linalg.dense_from_columns(cols, nrows))
        assert rank + len(kernel) == ncols
        for ker in kernel:
            acc = {}
            for j, c in ker.items():
                for i, v in cols[j].items():
                    acc[i] = acc.get(i, Fraction(0)) + c * v
            assert not any(acc.values())
        x = {j: Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
             for j in range(ncols) if rng.random() < 0.3}
        target = {}
        for j, c in x.items():
            for i, v in cols[j].items():
                target[i] = target.get(i, Fraction(0)) + c * v
        target = {i: v for i, v in target.items() if v}
        sol = linalg.sparse_solve(cols, target)
        assert sol is not None
        check = {}
        for j, c in sol.items():
            for i, v in cols[j].items():
                check[i] = check.get(i, Fraction(0)) + c * v
        assert {i: v for i, v in check.items() if v} == target
    assert pushes, "no reduction filled in a later pivot column"
