"""Exact rank/kernel computations over the rationals.

Three independent elimination routines live here on purpose:

* a sparse, fraction-free (integer cross-multiplication) echelon
  accumulator (`SparseEchelon`) used by all production code paths;
* a modular certificate (`certified_rank`): the rank mod a 61-bit prime,
  proved equal to the rank over Q by relations lifted from the mod-p
  kernel and verified exactly; `ratimm cohomology` checks every sparse
  rank against it, on every column, cleared or not;
* a dense textbook Gauss-Jordan eliminator (`dense_rank`), the oracle for
  tests, `ratimm verify` and `cohomology(engine="dense")`, and the
  fallback for a degree the certificate cannot settle.

Sparse reduction visits only the pivot columns a vector touches, fill-in
included, smallest first (a heap).  Every vector enters as coprime
integers (`primitive`); rational bookkeeping, a Fraction scale included,
is carried only for tagged vectors, so a rank computation or a reduction
pays for none of it, and an untagged row equals the tagged row of the
same input.

Vectors are dicts mapping coordinate index -> Fraction (or int).  All
results are exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm


def primitive(vec: dict):
    """Scale a rational vector to coprime integers, building no Fraction.

    Returns (ivec, denom, g): ivec = vec * denom / g, with denom the lcm of
    the denominators and g the gcd of the scaled entries (1 for zero).
    """
    denom = 1
    for c in vec.values():
        d = c.denominator
        if d != 1:
            denom = denom * d // gcd(denom, d)
    ivec = {j: c.numerator * (denom // c.denominator) for j, c in vec.items() if c}
    g = 0
    for v in ivec.values():
        g = gcd(g, v)
    if g > 1:
        ivec = {j: v // g for j, v in ivec.items()}
    else:
        g = 1
    return ivec, denom, g


def clear_denominators(vec: dict):
    """Scale a rational vector to coprime integers.

    Returns (ivec, alpha) with ivec = alpha * vec, alpha a positive Fraction.
    """
    ivec, denom, g = primitive(vec)
    return ivec, Fraction(denom, g)


class SparseEchelon:
    """Incremental fraction-free row echelon over the rationals.

    Row vectors keep integer entries; elimination uses integer
    cross-multiplication followed by a gcd reduction.  A tagged row
    carries an exact rational bookkeeping record `aug` with the invariant

        row == sum_i aug[i] * column_i

    over the tagged columns fed to :meth:`add`, which yields kernels and
    solves.  Untagged rows carry None: add tagged vectors only to an
    echelon whose rows are all tagged.  `columns`, if given, are added
    untagged, in order.
    """

    def __init__(self, columns=()):
        self.rows: list[tuple[dict[int, int], dict[int, Fraction] | None]] = []
        self.pivot_cols: dict[int, int] = {}  # pivot col -> row position
        for col in columns:
            self.add(col)

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
        res, _ = self._reduce(primitive(vec)[0], None)
        return res

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict, tag=None):
        """Insert a vector; returns (pivot_col_or_None, relation).

        With a tag, the relation maps tags to rational coefficients: for
        a dependent vector (pivot None) it is the tagged input
        combination that equals zero.  Without a tag it is None.
        """
        if tag is None:
            ivec, aug = primitive(vec)[0], None
        else:
            ivec, alpha = clear_denominators(vec)
            aug = {tag: alpha}
        ivec, aug = self._reduce(ivec, aug)
        if not ivec:
            return None, aug
        pivot = min(ivec)
        self.pivot_cols[pivot] = len(self.rows)
        self.rows.append((ivec, aug))
        return pivot, aug


def sparse_rank(columns: list[dict]) -> int:
    """Rank of the matrix whose columns are the given sparse vectors."""
    return SparseEchelon(columns).rank


def kernel_vectors(ech: SparseEchelon, columns):
    """Add the columns to `ech`, each tagged by its index, yielding as it
    goes a kernel basis of the map e_j -> columns[j]: integer-normalized
    dicts over the domain indices, in a deterministic order."""
    for j, col in enumerate(columns):
        pivot, aug = ech.add(col, tag=j)
        if pivot is None:
            yield primitive(aug)[0]


def sparse_rank_kernel(columns: list[dict]):
    """Rank and kernel basis of the matrix whose columns are the given
    sparse vectors, from one fresh echelon filled by `kernel_vectors`."""
    ech = SparseEchelon()
    kernel = list(kernel_vectors(ech, columns))
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
# Modular certificate (independent of SparseEchelon and the scaling helpers)
# ---------------------------------------------------------------------------

PRIME = 2**61 - 1
_LIFT_BOUND = isqrt(PRIME // 2)


def _lift(a: int):
    """Rational reconstruction: (r, s) with r == a*s (mod PRIME), |r| and
    0 < s at most sqrt(PRIME/2); None when no such pair exists."""
    r0, r1, s0, s1 = PRIME, a, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def certified_rank(columns: list[dict]) -> int | None:
    """Rank of the matrix whose columns are the given sparse vectors,
    certified exactly, or None when the certificate cannot be made.

    The entries are mapped to GF(p), p = 2^61 - 1, as num * den^-1 (None
    if p divides a denominator) and eliminated mod p column by column.
    Each dependent column j leaves a mod-p relation with coefficient 1
    on j and support on j and the independent columns before it; every
    relation is lifted to Q by rational reconstruction and checked
    exactly, sum_i c_i * column_i = 0, on the original entries.  The
    rank mod p, r_p, is returned when every relation holds:

    * r_p <= r_Q, because a minor that is nonzero mod p is nonzero over Z;
    * the verified relations are linearly independent, since each
      contains its own dependent index j and no other relation does; so
      nullity_Q >= n - r_p, which gives r_Q <= r_p.

    None (a reconstruction or a check failed, or p divides a
    denominator) says nothing about the rank; the caller must compute
    it another way.
    """
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    relations: list[dict[int, int]] = []
    for j, col in enumerate(columns):
        vec = {}
        for i, c in col.items():
            den = c.denominator % PRIME
            if not den:
                return None
            v = c.numerator * pow(den, -1, PRIME) % PRIME
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
            # pivot rows are monic with no entries left of their pivot
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

    # column_i as integers over one common denominator: column_i = ints / den
    scaled: dict[int, tuple[int, dict[int, int]]] = {}
    for rel in relations:
        lifted = {}
        for i, a in rel.items():
            pair = _lift(a)
            if pair is None:
                return None
            if i not in scaled:
                den = lcm(*(c.denominator for c in columns[i].values()))
                scaled[i] = (den, {k: c.numerator * (den // c.denominator)
                                   for k, c in columns[i].items()})
            lifted[i] = (pair[0], pair[1] * scaled[i][0])
        # sum_i (r_i / (s_i * den_i)) * ints_i, cleared to integers
        common = lcm(*(s for _, s in lifted.values()))
        total: dict[int, int] = {}
        for i, (r, s) in lifted.items():
            b = r * (common // s)
            for k, v in scaled[i][1].items():
                total[k] = total.get(k, 0) + b * v
        if any(total.values()):
            return None
    return len(pivots)


# ---------------------------------------------------------------------------
# Dense oracle (independent code path; the certificate's fallback)
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
