"""Exact rank/kernel computations over the rationals.

Two independent elimination routines live here on purpose:

* a sparse, fraction-free (integer cross-multiplication) echelon
  accumulator used by all production code paths, and
* a dense textbook Gauss-Jordan eliminator kept solely as a cross-check
  oracle for tests and the CLI verify suites.

Sparse reduction visits only the pivot columns a vector touches, fill-in
included, smallest first (a heap); rational bookkeeping is carried only
for tagged vectors, so a rank computation pays for none of it.

Vectors are dicts mapping coordinate index -> Fraction (or int).  All
results are exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


def clear_denominators(vec: dict):
    """Scale a rational vector to coprime integers.

    Returns (ivec, alpha) with ivec = alpha * vec, alpha a positive Fraction.
    """
    vec = {j: Fraction(c) for j, c in vec.items() if c}
    if not vec:
        return {}, Fraction(1)
    denom = 1
    for c in vec.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ivec = {j: int(c * denom) for j, c in vec.items()}
    g = 0
    for v in ivec.values():
        g = gcd(g, v)
    if g > 1:
        ivec = {j: v // g for j, v in ivec.items()}
    else:
        g = 1
    return ivec, Fraction(denom, g)


class SparseEchelon:
    """Incremental fraction-free row echelon over the rationals.

    Row vectors keep integer entries; elimination uses integer
    cross-multiplication followed by a gcd reduction.  A tagged row
    carries an exact rational bookkeeping record `aug` with the invariant

        row == sum_i aug[i] * column_i

    over the tagged columns fed to :meth:`add`, which yields kernels and
    solves.  Untagged rows carry None: add tagged vectors only to an
    echelon whose rows are all tagged.
    """

    def __init__(self):
        self.rows: list[tuple[dict[int, int], dict[int, Fraction] | None]] = []
        self.pivot_cols: dict[int, int] = {}  # pivot col -> row position

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _normalize(vec: dict[int, int], aug: dict[int, Fraction] | None):
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        if vec and vec[min(vec)] < 0:
            g = -g
        if g in (0, 1):
            return vec, aug
        vec = {j: v // g for j, v in vec.items()}
        if aug is not None:
            aug = {j: v / g for j, v in aug.items()}
        return vec, aug

    def _reduce(self, vec: dict[int, int], aug: dict[int, Fraction] | None):
        """Eliminate the pivot columns of `vec`, smallest first, updating
        `aug` alongside (None: no bookkeeping)."""
        pivot_cols = self.pivot_cols
        heap = [j for j in vec if j in pivot_cols]
        heapify(heap)
        while heap:
            col = heappop(heap)
            coeff = vec.get(col)
            if not coeff:  # cancelled by an earlier row, or pushed twice
                continue
            row, rowaug = self.rows[pivot_cols[col]]
            lead = row[col]
            # vec <- lead*vec - coeff*row  (kills column `col`; a row has
            # no entries left of its pivot, so fill-in lands right of it)
            new = {j: lead * v for j, v in vec.items()}
            for j, v in row.items():
                s = new.get(j, 0) - coeff * v
                if s:
                    if j not in new and j in pivot_cols:
                        heappush(heap, j)
                    new[j] = s
                else:
                    new.pop(j, None)
            if aug is not None:
                newaug = {j: lead * v for j, v in aug.items()}
                for j, v in rowaug.items():
                    s = newaug.get(j, 0) - coeff * v
                    if s:
                        newaug[j] = s
                    else:
                        newaug.pop(j, None)
                aug = newaug
            vec, aug = self._normalize(new, aug)
        return vec, aug

    def reduce(self, vec: dict) -> dict[int, int]:
        """Residue of a vector modulo the row space (integer-normalized)."""
        ivec, _ = clear_denominators(vec)
        res, _ = self._reduce(ivec, None)
        return res

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict, tag=None):
        """Insert a vector; returns (pivot_col_or_None, relation).

        With a tag, the relation maps tags to rational coefficients: for
        a dependent vector (pivot None) it is the tagged input
        combination that equals zero.  Without a tag it is None.
        """
        ivec, alpha = clear_denominators(vec)
        aug = {tag: alpha} if tag is not None else None
        ivec, aug = self._reduce(ivec, aug)
        if not ivec:
            return None, aug
        pivot = min(ivec)
        self.pivot_cols[pivot] = len(self.rows)
        self.rows.append((ivec, aug))
        return pivot, aug


def sparse_rank(columns: list[dict]) -> int:
    """Rank of the matrix whose columns are the given sparse vectors."""
    ech = SparseEchelon()
    for col in columns:
        ech.add(col)
    return ech.rank


def kernel_echelon(columns: list[dict]):
    """Echelon of the columns, each tagged by its index, and the kernel
    basis of the linear map sending e_j to columns[j].

    Kernel vectors are integer-normalized dicts over the domain indices,
    produced in a deterministic order.
    """
    ech = SparseEchelon()
    kernel: list[dict[int, int]] = []
    for j, col in enumerate(columns):
        pivot, aug = ech.add(col, tag=j)
        if pivot is None:
            ker, _ = clear_denominators(aug)
            kernel.append(ker)
    return ech, kernel


def sparse_rank_kernel(columns: list[dict]):
    """Rank and kernel basis (see :func:`kernel_echelon`)."""
    ech, kernel = kernel_echelon(columns)
    return ech.rank, kernel


def sparse_solve(columns: list[dict], target: dict):
    """Solve sum_j x_j * columns[j] = target; None when unsolvable."""
    ech = SparseEchelon()
    for j, col in enumerate(columns):
        ech.add(col, tag=j)
    ivec, beta = clear_denominators(target)
    if not ivec:
        return {}
    # the target, tagged past the columns, reduces to
    # aug[t]*target + sum_j aug[j]*columns[j]
    t = len(columns)
    residue, aug = ech._reduce(ivec, {t: beta})
    if residue:
        return None
    scale = -aug.pop(t)
    return {j: v / scale for j, v in aug.items()}


# ---------------------------------------------------------------------------
# Dense cross-check oracle (independent code path; not used in production)
# ---------------------------------------------------------------------------

def dense_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain dense Gauss-Jordan over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def dense_from_columns(columns: list[dict], nrows: int) -> list[list[Fraction]]:
    """Materialize sparse columns as a dense row-major matrix."""
    mat = [[Fraction(0)] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            mat[i][j] = Fraction(v)
    return mat
