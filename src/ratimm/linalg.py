"""Exact rank/kernel computations over the rationals.

Three independent elimination routines live here on purpose:

* a sparse, fraction-free (integer cross-multiplication) echelon
  accumulator (`SparseEchelon`) used by all production code paths;
* a modular certificate (`certified_rank`) on integer columns (int
  columns as given, any other input over one common denominator): r_p,
  the rank mod a 61-bit prime of the columns that lead no kernel
  witness, is at most the rank over Q; the witnesses and the mod-p
  relations lifted to Q, each verified exactly and each with an index
  of its own, give nullity >= n - r_p.  It too pays per pivot met: a
  column that meets no pivot is kept as given (so a stored row may be
  the caller's column, never changed), and a row's lead is inverted
  only when a later column meets it.  `ratimm cohomology`
  checks every sparse rank against it, on every column, with the rows
  of im d_{n-1} as witnesses for the cleared ones; a wrong witness
  makes it decline, never changes the rank it returns;
* a dense textbook Gauss-Jordan eliminator (`dense_rank`), the oracle for
  tests, `ratimm verify` and `cohomology(engine="dense")`, and the
  fallback for a degree the certificate cannot settle.

A vector added to `SparseEchelon` pays only for the pivots it meets.
It is scaled to coprime integers (`primitive`: one gcd for a vector of
ints, which comes back as given when it is coprime with no zero entry)
and reduced only when a coordinate of it is a pivot; the reduction
visits the pivot columns it touches, fill-in included, smallest first
(a heap).  After clearing most columns meet none, and are stored as
given.  Every row is a plain dict of integers: a tagged vector carries
its tag as one more coordinate, put in before the scaling, so a kernel
builds no Fraction and runs the elimination a rank computation runs.
A stored row may be the caller's own dict: the echelon never changes a
row or an input in place, and a caller must not change a vector once
it has added it.

Vectors are dicts mapping coordinate index -> int or Fraction, an
integral entry an int wherever the algebra layer makes it.  All
results are exact and deterministic.  The walks of free and finite
models hand in D*d, D the lcm of d's denominators, as ints: one D > 0
on every column leaves each pivot, rank and primitive kernel vector as
d gives it, so no output changes.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

# tag j of a vector is its coordinate _TAG + j, right of every row index
_TAG = 1 << 60


def primitive(vec: dict) -> dict[int, int]:
    """Scale a rational vector to coprime integers, building no Fraction:
    vec times the lcm of its denominators over the gcd of the scaled
    entries, with no zero entry.

    A vector of ints takes one C-level gcd, and comes back as the same
    dict when it is empty or its gcd is 1 and no entry is zero; only a
    vector with a Fraction entry pays for the denominator scan.  So the
    result may be `vec` itself: neither may be changed in place.
    """
    values = vec.values()
    for c in values:  # the first entry's type picks the path
        if type(c) is int:
            try:
                g = gcd(*values)
            except TypeError:  # a Fraction entry after the first
                break
            if g == 1 and all(values):
                return vec
            return {j: v // g for j, v in vec.items() if v}
        break
    else:  # empty
        return vec
    denom = 1
    for c in values:
        d = c.denominator
        if d != 1:
            denom = denom * d // gcd(denom, d)
    ivec = {j: c.numerator * (denom // c.denominator) for j, c in vec.items() if c}
    g = gcd(*ivec.values())
    if g > 1:
        return {j: v // g for j, v in ivec.items()}
    return ivec


class SparseEchelon:
    """Incremental fraction-free row echelon over the rationals.

    Rows are dicts of integers; elimination uses integer
    cross-multiplication followed by a gcd reduction.  A vector added
    with tag j gets the coordinate _TAG + j with entry 1, scaled with
    it, so every row carries on its tag coordinates the integer
    combination of the tagged inputs that it equals.  No tag coordinate
    is ever a pivot: a tagged vector that reduces to tag coordinates
    alone is a relation among the inputs, which yields kernels.  Add
    tagged vectors only to an echelon whose rows are all tagged.
    `columns`, if given, are added untagged, in order.
    """

    def __init__(self, columns=()):
        self.rows: list[dict[int, int]] = []
        self.pivot_cols: dict[int, int] = {}  # pivot col -> row position
        for col in columns:
            self.add(col)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _normalize(vec: dict[int, int]) -> dict[int, int]:
        """Divide out the gcd, leading entry positive; a relation (tag
        coordinates only) is left as it is."""
        if not vec:
            return vec
        lead = min(vec)
        if lead >= _TAG:
            return vec
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        if vec[lead] < 0:
            g = -g
        if g == 1:
            return vec
        return {j: v // g for j, v in vec.items()}

    def _reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Eliminate the pivot columns of `vec`, smallest first."""
        pivot_cols = self.pivot_cols
        heap = [j for j in vec if j in pivot_cols]
        heapify(heap)
        while heap:
            col = heappop(heap)
            coeff = vec.get(col)
            if not coeff:  # cancelled by an earlier row, or pushed twice
                continue
            row = self.rows[pivot_cols[col]]
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
            vec = self._normalize(new)
        return vec

    def reduce(self, vec: dict) -> dict[int, int]:
        """Residue of a vector modulo the row space (integer-normalized),
        on row coordinates only."""
        res = self._reduce(primitive(vec))
        real = {j: v for j, v in res.items() if j < _TAG}
        # tags dropped can leave a common factor on the rest
        return real if len(real) == len(res) else self._normalize(real)

    def add(self, vec: dict, tag=None):
        """Insert a vector; returns (pivot_col_or_None, relation).

        With a tag, a dependent vector (pivot None) is not inserted and
        the relation maps tags to the integer coefficients of a
        combination of tagged inputs, this one included, that is zero.
        Otherwise the relation is None.  The vector, its tag coordinate
        included, is scaled by `primitive` and reduced only if it meets
        a pivot, so a row may be `vec` itself: do not change it after.
        """
        if tag is not None:
            vec = {**vec, _TAG + tag: 1}
        ivec = primitive(vec)
        if not self.pivot_cols.keys().isdisjoint(ivec.keys()):
            ivec = self._reduce(ivec)
        pivot = min(ivec) if ivec else _TAG
        if pivot >= _TAG:
            return None, ({j - _TAG: v for j, v in ivec.items()}
                          if tag is not None else None)
        self.pivot_cols[pivot] = len(self.rows)
        self.rows.append(ivec)
        return pivot, None


def kernel_vectors(ech: SparseEchelon, columns):
    """Add the columns to `ech`, each tagged by its index, yielding as it
    goes a kernel basis of the map e_j -> columns[j]: integer-normalized
    dicts over the domain indices, in a deterministic order."""
    for j, col in enumerate(columns):
        pivot, rel = ech.add(col, tag=j)
        if pivot is None:
            yield primitive(rel)


def sparse_rank_kernel(columns: list[dict]):
    """Rank and kernel basis of the matrix whose columns are the given
    sparse vectors, from one fresh echelon filled by `kernel_vectors`."""
    ech = SparseEchelon()
    kernel = list(kernel_vectors(ech, columns))
    return ech.rank, kernel


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


def _vanishes(ints: list[dict[int, int]], coeffs: dict[int, int]) -> bool:
    """Whether sum_i c_i * ints[i] is zero, over coeffs {i: c_i} of integers."""
    total: dict[int, int] = {}
    for i, c in coeffs.items():
        for k, v in ints[i].items():
            total[k] = total.get(k, 0) + c * v
    return not any(total.values())


def certified_rank(columns: list[dict], witnesses=()) -> int | None:
    """Rank of the matrix whose columns are the given sparse vectors,
    certified exactly, or None when the certificate cannot be made.

    Columns whose entries are all ints are read as given.  Any other
    input is scaled, every column by one common denominator, to
    integers, which changes no rank and no relation.
    `witnesses` are untrusted integer vectors {column index: coefficient}
    claimed to lie in the kernel; each is checked exactly, sum_i w_i *
    column_i = 0, and their leading (smallest) indices must be distinct.
    The columns that lead no witness are eliminated mod p = 2^61 - 1,
    column by column, paying only for the pivots each one meets.  A
    column whose support holds no pivot and whose smallest entry is
    nonzero mod p becomes a row as given, with relation {j: 1}: no
    mod-p copy, no inverse, so a stored row may be the caller's own
    column, which is never changed in place.  Any other column is
    reduced mod p.  Rows are kept unnormalized; the inverse of a row's
    lead is taken once, when a later column first meets it, and the
    column loses f*row, f = coeff / lead, which leaves the residues a
    monic row would.
    Each dependent column j leaves a mod-p relation with coefficient 1
    on j and support on j and the eliminated independent columns before
    it; every relation is lifted to Q by rational reconstruction and
    checked exactly on the integer columns.  The rank mod p, r_p, of the
    eliminated columns is returned when every check holds:

    * r_p <= r_Q, because a minor of the eliminated columns that is
      nonzero mod p is nonzero over Z;
    * the witnesses, restricted to their leading indices, form a
      triangular matrix with a nonzero diagonal, and every relation is
      zero there; each relation contains its own index j and no other
      relation does.  So the witnesses W and relations R are linearly
      independent, nullity_Q >= |W| + |R| = n - r_p, and r_Q <= r_p.

    None (a witness is empty, has a zero coefficient, an index out of
    range or a repeated leading index, or fails its check; or a
    reconstruction or a relation check failed) says nothing about the
    rank; the caller must compute it another way.  A wrong witness can
    only make the certificate decline, never change the rank it returns.
    """
    n = len(columns)
    ints = columns
    # on type, not denominator: the mod-p pass takes ints, not Fraction(4, 2)
    if any(type(c) is not int for col in columns for c in col.values()):
        common = lcm(*(c.denominator for col in columns for c in col.values()))
        ints = [{i: c.numerator * (common // c.denominator) for i, c in col.items()}
                for col in columns]
    leads = set()
    for w in witnesses:
        # one pass: index range, nonzero coefficients and sum_i w_i * ints_i
        lead, total = n, {}
        for i, c in w.items():
            if not c or not 0 <= i < n:
                return None
            if i < lead:
                lead = i
            for k, v in ints[i].items():
                total[k] = total.get(k, 0) + c * v
        if lead == n or lead in leads or any(total.values()):
            return None
        leads.add(lead)

    # pivot -> (row, relation), both unnormalized, row[pivot] != 0 mod p
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    inverses: dict[int, int] = {}  # pivot -> 1 / row[pivot], once met
    relations: list[dict[int, int]] = []
    for j, col in enumerate(ints):
        if j in leads:
            continue
        if col and pivots.keys().isdisjoint(col):
            lead = min(col)
            if col[lead] % PRIME:  # meets no pivot: a row as given
                pivots[lead] = (col, {j: 1})
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
            # pivot rows have no entries left of their pivot; vec - f*row
            # is zero at i
            row, rowrel = pivots[i]
            inv = inverses.get(i)
            if inv is None:
                inv = inverses[i] = pow(row[i], -1, PRIME)
            f = coeff * inv % PRIME
            for k, v in row.items():
                s = (vec.get(k, 0) - f * v) % PRIME
                if s:
                    if k not in vec and k in pivots:
                        heappush(heap, k)
                    vec[k] = s
                else:
                    vec.pop(k, None)
            for k, v in rowrel.items():
                s = (rel.get(k, 0) - f * v) % PRIME
                if s:
                    rel[k] = s
                else:
                    rel.pop(k, None)
        if vec:
            pivots[min(vec)] = (vec, rel)
        else:
            relations.append(rel)

    for rel in relations:
        lifted = {}
        for i, a in rel.items():
            pair = _lift(a)
            if pair is None:
                return None
            lifted[i] = pair
        # sum_i (r_i / s_i) * ints_i, cleared to integers
        scale = lcm(*(s for _, s in lifted.values()))
        if not _vanishes(ints, {i: r * (scale // s) for i, (r, s) in lifted.items()}):
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
