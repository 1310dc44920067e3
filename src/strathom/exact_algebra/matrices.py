"""Sparse integer matrices, kernels, solves and Smith normal form.

All arithmetic is exact (Python big integers).  One elimination kernel,
``_eliminate_units``, serves Z and F_p: it takes unit pivots in Markowitz
order from cost buckets (the last one queued first among equal costs) and
leaves the Schur complement.  Over F_p every nonzero entry is a unit, so
its pivot count is the rank.  Over Z a diagonal-only ``smith``
reads one invariant factor 1 per unit pivot and runs the gcd elimination
of ``_Work`` on the remainder only, which is the step a modular
elimination (one that bounds coefficient growth) would replace.  Kernels
and solves, over Z and F_p, back-substitute through the pivot rows that
the elimination records (``_kernel``); over Z a non-empty remainder is
handed to a Smith form with V (the kernel) or with U and V (the solve).
So every solve, kernel, rank and Smith diagonal starts with the unit-pivot
elimination; only the module maps (U in ``canonicalize``, V for an image
lattice) run a Smith form with a transform on a whole matrix, a small
module presentation.  ``split_factors`` runs it in two phases, in a block
of columns and then in all, for the homology of an allowable subcomplex.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional


class IntMatrix:
    """Immutable sparse matrix over the integers.

    Entries are stored as a dict ``(row, col) -> value`` with no explicit
    zeros.  Construction validates bounds and drops zeros.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (i, j), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
                v = int(v)
                if v:
                    clean[(i, j)] = v
        self.entries = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]]) -> "IntMatrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, r in enumerate(data):
            if len(r) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(r):
                if v:
                    ent[(i, j)] = int(v)
        return cls(rows, cols, ent)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_columns(cls, cols_data: Iterable[dict], rows: int) -> "IntMatrix":
        """Build from an iterable of sparse columns (dicts row -> value)."""
        cols_data = list(cols_data)
        ent = {}
        for j, col in enumerate(cols_data):
            for i, v in col.items():
                if v:
                    ent[(i, j)] = v
        return cls(rows, len(cols_data), ent)

    # -- basic access --------------------------------------------------

    def __getitem__(self, ij):
        return self.entries.get(ij, 0)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def __repr__(self):
        if self.rows * self.cols <= 64:
            return f"IntMatrix({self.to_dense()})"
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         {(j, i): v for (i, j), v in self.entries.items()})

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         {ij: -v for ij, v in self.entries.items()})

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        ent = dict(self.entries)
        for ij, v in other.entries.items():
            w = ent.get(ij, 0) + v
            if w:
                ent[ij] = w
            else:
                ent.pop(ij, None)
        return IntMatrix(self.rows, self.cols, ent)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols,
                             {ij: v * other for ij, v in self.entries.items()})
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        by_col_of_other = {}
        for (k, j), v in other.entries.items():
            by_col_of_other.setdefault(k, {})[j] = v
        ent = {}
        for i, rowv in by_row.items():
            acc = {}
            for k, v in rowv.items():
                rk = by_col_of_other.get(k)
                if not rk:
                    continue
                for j, w in rk.items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    ent[(i, j)] = s
        return IntMatrix(self.rows, other.cols, ent)

    __rmul__ = __mul__

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.cols)] = v
        return IntMatrix(self.rows, self.cols + other.cols, ent)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: j for j, c in enumerate(col_idx)}
        ent = {}
        for (i, j), v in self.entries.items():
            if i in rmap and j in cmap:
                ent[(rmap[i], cmap[j])] = v
        return IntMatrix(len(rmap), len(cmap), ent)

    def max_abs(self) -> int:
        return max((abs(v) for v in self.entries.values()), default=0)

    @classmethod
    def parse_triplets(cls, text: str) -> "IntMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty matrix file")
        r, c = map(int, lines[0].split())
        ent = {}
        for ln in lines[1:]:
            i, j, v = ln.split()
            ent[(int(i), int(j))] = int(v)
        return cls(r, c, ent)


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V is diagonal with the invariant factors d1 | d2 | ... | dr."""
    source: IntMatrix
    diagonal: tuple
    U: Optional[IntMatrix]
    V: Optional[IntMatrix]
    peak_abs: int = 0

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @property
    def peak_bits(self) -> int:
        return self.peak_abs.bit_length()


_EMPTY: dict = {}   # read-only stand-in for a missing row


class _Work:
    """Mutable row/column-indexed sparse matrix used during reduction.

    The matrix being reduced keeps a lazy pivot queue (the transforms,
    built by ``identity``, keep none): a heap of
    ``(|v| != 1, |v|, Markowitz cost, row, col)`` keys.  An entry is pushed
    when it is created or its |v| falls, and the sole entry of a row or
    column that an elimination leaves as a singleton is pushed again, since
    its cost has dropped to 0.  Keys of entries whose row or column has
    since grown are stale; ``pop_pivot`` recomputes them.
    """

    __slots__ = ("row", "colind", "peak", "queue", "nnz")

    def __init__(self, m: IntMatrix):
        self.row = {}
        self.colind = {}
        for (i, j), v in m.entries.items():
            self.row.setdefault(i, {})[j] = v
            self.colind.setdefault(j, set()).add(i)
        self.peak = m.max_abs()
        self.nnz = m.nnz()
        self._rebuild_queue()

    @classmethod
    def identity(cls, n: int) -> "_Work":
        """The n x n identity, built directly: small Smith forms pay for
        the two transforms more than for the reduction."""
        w = cls.__new__(cls)
        w.row = {i: {i: 1} for i in range(n)}
        w.colind = {i: {i} for i in range(n)}
        w.peak, w.nnz, w.queue = min(n, 1), n, None
        return w

    def key(self, i, j):
        r = self.row[i]
        a = abs(r[j])
        return (a != 1, a, (len(r) - 1) * (len(self.colind[j]) - 1), i, j)

    def _rebuild_queue(self):
        self.queue = [self.key(i, j) for i, r in self.row.items() for j in r]
        heapq.heapify(self.queue)

    def pop_pivot(self):
        """The live entry of least key, or None when the matrix is zero."""
        q = self.queue
        while q:
            old = heapq.heappop(q)
            i, j = old[3], old[4]
            r = self.row.get(i)
            if r is None or j not in r:
                continue
            new = self.key(i, j)
            if new > old:
                heapq.heappush(q, new)
                continue
            return i, j
        return None

    def set(self, i, j, v):
        if v:
            r = self.row.get(i)
            if r is None:
                r = self.row[i] = {}
            old = r.get(j)
            if old is None:
                self.colind.setdefault(j, set()).add(i)
                self.nnz += 1
            r[j] = v
            a = abs(v)
            if a > self.peak:
                self.peak = a
            q = self.queue
            # pop_pivot repairs a queued key that has become too low; one
            # that has become too high would hide the entry, so push again
            # when |v| fell
            if q is not None and (old is None or a < abs(old)):
                if len(q) > 4 * self.nnz + 64:
                    self._rebuild_queue()
                else:
                    heapq.heappush(q, self.key(i, j))
        else:
            r = self.row.get(i)
            if r and j in r:
                del r[j]
                self.nnz -= 1
                if not r:
                    del self.row[i]
                s = self.colind[j]
                s.discard(i)
                if not s:
                    del self.colind[j]
                if self.queue is not None:
                    if len(r) == 1:
                        heapq.heappush(self.queue, self.key(i, next(iter(r))))
                    if len(s) == 1:
                        heapq.heappush(self.queue, self.key(next(iter(s)), j))

    def get(self, i, j):
        return self.row.get(i, _EMPTY).get(j, 0)

    def add_multiple_of_row(self, target, source, factor):
        if not factor:
            return
        src = self.row.get(source, {})
        for j, v in list(src.items()):
            self.set(target, j, self.get(target, j) + factor * v)

    def add_multiple_of_col(self, target, source, factor):
        if not factor:
            return
        for i in list(self.colind.get(source, ())):
            self.set(i, target, self.get(i, target) + factor * self.get(i, source))

    def combine_rows(self, i1, i2, a, b, c, d):
        """(row i1, row i2) <- (a*r1 + b*r2, c*r1 + d*r2); ad-bc = +-1."""
        cols = set(self.row.get(i1, {})) | set(self.row.get(i2, {}))
        for j in cols:
            x, y = self.get(i1, j), self.get(i2, j)
            self.set(i1, j, a * x + b * y)
            self.set(i2, j, c * x + d * y)

    def combine_cols(self, j1, j2, a, b, c, d):
        rows = set(self.colind.get(j1, ())) | set(self.colind.get(j2, ()))
        for i in rows:
            x, y = self.get(i, j1), self.get(i, j2)
            self.set(i, j1, a * x + b * y)
            self.set(i, j2, c * x + d * y)


def _xgcd(a, b):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _rows_of(A: IntMatrix, p: int = 0) -> dict:
    """{row: {col: entry}} of A, entries reduced to 1..p-1 when p > 0."""
    rows = {}
    for (i, j), v in A.entries.items():
        if p:
            v %= p
            if not v:
                continue
        rows.setdefault(i, {})[j] = v
    return rows


def _eliminate_units(rows: dict, p: int = 0, pivots: Optional[list] = None,
                     limit: Optional[int] = None):
    """Eliminate unit pivots of ``rows`` ({row: {col: entry}}) in place.

    Over Z (p = 0) the units are the entries +-1; over F_p (entries in
    1..p-1) every entry is one.  Each step takes a unit of least Markowitz
    cost, subtracts multiples of its row from the other rows of its column
    and drops its row and column, so ``rows`` ends as the Schur complement,
    which has no unit entry (with ``limit``, none in a column below
    ``limit``: pivots are taken there only).  A unit pivot splits off one
    invariant factor 1 without changing the others.  Candidates wait in a
    dict from each cost to a list of (row, col) and a heap of the costs
    that have one, so the bookkeeping grows with the number of distinct
    costs; the last one queued at a cost goes first.  The live units of the
    pivotable columns are queued row by row whenever all lists are empty,
    an entry left alone in its row or column at cost 0, and a candidate
    whose cost has grown again at its new cost.  Each pivot is appended to
    ``pivots`` as (column, inverse of the pivot, the rest of its row).
    Returns (number of pivots, largest |entry| created).
    """
    if limit is None:
        limit = float("inf")
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    single, buckets, costs = [], {}, []     # cost 0 (first); cost > 0 -> list; heap
    count = peak = 0
    while rows:
        if not single and not costs:
            for i, r in rows.items():
                for j, v in r.items():
                    if j < limit and (p or v == 1 or v == -1):
                        c = (len(r) - 1) * (len(cols[j]) - 1)
                        (buckets.setdefault(c, []) if c else single).append((i, j))
            costs = list(buckets)
            heapq.heapify(costs)
            if not single and not costs:
                break
        if single:
            c, (pi, pj) = 0, single.pop()
        else:
            c = costs[0]
            pi, pj = buckets[c].pop()
            if not buckets[c]:
                del buckets[c]
                heapq.heappop(costs)
        r = rows.get(pi)
        u = r.get(pj) if r else None
        if u is None or not (p or u == 1 or u == -1) or pj >= limit:
            continue
        cost = (len(r) - 1) * (len(cols[pj]) - 1)
        if cost > c:
            if cost not in buckets:
                heapq.heappush(costs, cost)
            buckets.setdefault(cost, []).append((pi, pj))
            continue
        count += 1
        del rows[pi]
        del r[pj]
        others = cols.pop(pj)
        others.discard(pi)
        for j in r:
            s = cols[j]
            s.discard(pi)
            if len(s) == 1:
                (i,) = s
                v = rows[i][j]
                if p or v == 1 or v == -1:
                    single.append((i, j))
        inv = pow(u, p - 2, p) if p else u
        if pivots is not None:
            pivots.append((pj, inv, r))
        for i in others:
            ri = rows[i]
            f = ri.pop(pj) * inv
            for j, v in r.items():
                old = ri.get(j)
                w = (old or 0) - f * v
                if p:
                    w %= p
                elif w > peak or -w > peak:
                    peak = -w if w < 0 else w
                if w:
                    ri[j] = w
                    if old is None:
                        cols[j].add(i)
                    continue
                del ri[j]
                s = cols[j]
                s.discard(i)
                if len(s) == 1:
                    (k,) = s
                    v = rows[k][j]
                    if p or v == 1 or v == -1:
                        single.append((k, j))
            if not ri:
                del rows[i]
            elif len(ri) == 1:
                ((j, v),) = ri.items()
                if p or v == 1 or v == -1:
                    single.append((i, j))
    return count, peak


def smith(A: IntMatrix, need_U: bool = True, need_V: bool = True) -> SmithDecomposition:
    """Smith normal form, with unimodular transforms on request.

    Without U and V, ``_eliminate_units`` runs first: each unit pivot is an
    invariant factor 1, and the gcd elimination of ``_smith_work`` runs on
    the Schur complement that is left, which is small or empty on the
    matrices this package produces.  With U or V the gcd elimination runs
    on A itself; ``kernel_basis`` asks for V and ``solve`` for U and V of
    a remainder only.
    """
    if need_U or need_V:
        return _smith_work(A, need_U, need_V)
    diagonal, peak = _diagonal(_rows_of(A))
    return SmithDecomposition(A, diagonal, None, None, peak_abs=max(A.max_abs(), peak))


def _diagonal(rows: dict, p: int = 0, pivots: Optional[list] = None) -> tuple:
    """(invariant factors, largest |entry| made) of the matrix in ``rows``,
    consumed: unit pivots (into ``pivots``), then over Z the gcd elimination."""
    units, peak = _eliminate_units(rows, p, pivots)
    if p or not rows:
        return (1,) * units, peak
    rest = _smith_work(IntMatrix(max(rows) + 1, max(max(r) for r in rows.values()) + 1,
                                 {(i, j): v for i, r in rows.items() for j, v in r.items()}),
                       False, False)
    return (1,) * units + rest.diagonal, max(peak, rest.peak_abs)


def split_factors(rows: dict, limit: int, p: int = 0, pivots: Optional[list] = None) -> tuple:
    """(rank of the columns below ``limit``, invariant factors of x -> xM on
    the lattice L of row combinations x that vanish there) for the matrix M
    in ``rows``, consumed; over F_p the factors are rank-many 1s.

    Phase 1 pivots on units below ``limit`` (if a row has an entry there):
    its row operations keep the row lattice, so the rows left span L, except
    those that keep an entry there (non-units, over Z only).  The left
    kernel of their block below ``limit``, applied to the rest of them,
    replaces them.  Phase 2 eliminates the rows in every column, as the
    diagonal-only ``smith``, its unit pivots into ``pivots``: each is xM for
    an x in L, a unit at its column and 0 at the columns pivoted before it.
    """
    banned = any(min(r) < limit for r in rows.values())
    rank = _eliminate_units(rows, p, None, limit)[0] if banned else 0
    stalled = [i for i, r in rows.items() if min(r) < limit]
    if stalled:
        low = IntMatrix(len(stalled), limit, {(a, j): v for a, i in enumerate(stalled)
                                              for j, v in rows[i].items() if j < limit})
        K = kernel_basis(low.transpose())
        top, n = max(rows) + 1, max(max(r) for r in rows.values()) + 1
        high = IntMatrix(len(stalled), n, {(a, j): v for a, i in enumerate(stalled)
                                           for j, v in rows.pop(i).items() if j >= limit})
        for (c, j), v in (K.transpose() * high).entries.items():
            rows.setdefault(top + c, {})[j] = v
        rank += len(stalled) - K.cols
    return rank, _diagonal(rows, p, pivots)[0]


def _smith_work(A: IntMatrix, need_U: bool, need_V: bool) -> SmithDecomposition:
    """Smith normal form by gcd elimination on a ``_Work`` matrix.

    Pivots are taken from a lazy queue keyed by ``(|entry| != 1, |entry|,
    Markowitz cost, row, col)``, so unit singletons go first, coefficient
    growth stays in check on the sparse boundary matrices this package
    produces, and the pivot path does not depend on set iteration order.
    """
    w = _Work(A)
    U = _Work.identity(A.rows) if need_U else None
    V = _Work.identity(A.cols) if need_V else None
    diag = []

    while True:
        pv = w.pop_pivot()
        if pv is None:
            break
        pi, pj = pv
        # clear row and column of the pivot; gcd steps may refill, so loop
        while True:
            col_others = [i for i in w.colind.get(pj, ()) if i != pi]
            row_others = [j for j in w.row.get(pi, {}) if j != pj]
            if not col_others and not row_others:
                break
            for i in col_others:
                a = w.get(pi, pj)
                b = w.get(i, pj)
                if b == 0:
                    continue
                if b % a == 0:
                    q = b // a
                    w.add_multiple_of_row(i, pi, -q)
                    if U is not None:
                        U.add_multiple_of_row(i, pi, -q)
                else:
                    g, s, t = _xgcd(a, b)
                    # unimodular: [[s, t], [-b/g, a/g]]
                    w.combine_rows(pi, i, s, t, -(b // g), a // g)
                    if U is not None:
                        U.combine_rows(pi, i, s, t, -(b // g), a // g)
            for j in [j for j in w.row.get(pi, {}) if j != pj]:
                a = w.get(pi, pj)
                b = w.get(pi, j)
                if b == 0:
                    continue
                if b % a == 0:
                    q = b // a
                    w.add_multiple_of_col(j, pj, -q)
                    if V is not None:
                        V.add_multiple_of_col(j, pj, -q)
                else:
                    g, s, t = _xgcd(a, b)
                    w.combine_cols(pj, j, s, t, -(b // g), a // g)
                    if V is not None:
                        V.combine_cols(pj, j, s, t, -(b // g), a // g)
        d = w.get(pi, pj)
        if d < 0:
            # flip sign via the row transform
            if U is not None:
                U.add_multiple_of_row(pi, pi, -2)
            d = -d
        diag.append((d, pi, pj))
        # remove the pivot from further consideration; its row and column
        # hold nothing else, so no other entry's cost changes
        w.set(pi, pj, 0)

    # assemble: reorder pivots to the leading diagonal positions
    r = len(diag)
    drows = [pi for _, pi, _ in diag]
    dcols = [pj for _, _, pj in diag]
    pivot_rows, pivot_cols = set(drows), set(dcols)
    other_rows = [i for i in range(A.rows) if i not in pivot_rows]
    other_cols = [j for j in range(A.cols) if j not in pivot_cols]
    row_perm = drows + other_rows   # new row k = old row row_perm[k]
    col_perm = dcols + other_cols

    # Divisibility chain: whenever d_k does not divide d_{k+1}, redo the
    # 2x2 block diag(a, b) -> diag(gcd, lcm) with explicit unimodular ops
    # in original coordinates so U and V stay exact.
    def fix_pair(k, l):
        a, b = w.get(drows[k], dcols[k]), w.get(drows[l], dcols[l])
        # row_k += row_l gives the block [[a, b], [0, b]]
        w.add_multiple_of_row(drows[k], drows[l], 1)
        if U is not None:
            U.add_multiple_of_row(drows[k], drows[l], 1)
        g, s, t = _xgcd(a, b)
        # column op (c_k, c_l) <- (s*c_k + t*c_l, -(b/g)*c_k + (a/g)*c_l)
        w.combine_cols(dcols[k], dcols[l], s, t, -(b // g), a // g)
        if V is not None:
            V.combine_cols(dcols[k], dcols[l], s, t, -(b // g), a // g)
        # block is now [[g, 0], [t*b, a*b/g]]; clear the (l, k) slot
        x = w.get(drows[l], dcols[k])
        q = x // g
        w.add_multiple_of_row(drows[l], drows[k], -q)
        if U is not None:
            U.add_multiple_of_row(drows[l], drows[k], -q)
        # signs
        for idx in (k, l):
            v = w.get(drows[idx], dcols[idx])
            if v < 0:
                for jj in list(w.row.get(drows[idx], {})):
                    w.set(drows[idx], jj, -w.get(drows[idx], jj))
                if U is not None:
                    for jj in list(U.row.get(drows[idx], {})):
                        U.set(drows[idx], jj, -U.get(drows[idx], jj))

    # restore pivot entries into w for chain fixing
    w.queue = None
    for d, pi, pj in diag:
        w.set(pi, pj, d)

    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            a = w.get(drows[k], dcols[k])
            b = w.get(drows[k + 1], dcols[k + 1])
            if a and b % a != 0:
                fix_pair(k, k + 1)
                changed = True

    ds = [w.get(drows[k], dcols[k]) for k in range(r)]

    def work_to_matrix(wk, rows, cols, row_order=None, col_order=None):
        ent = {}
        rmap = {old: new for new, old in enumerate(row_order)} if row_order else None
        cmap = {old: new for new, old in enumerate(col_order)} if col_order else None
        for i, rv in wk.row.items():
            for j, v in rv.items():
                ii = rmap[i] if rmap else i
                jj = cmap[j] if cmap else j
                ent[(ii, jj)] = v
        return IntMatrix(rows, cols, ent)

    Um = work_to_matrix(U, A.rows, A.rows, row_order=row_perm) if need_U else None
    Vm = work_to_matrix(V, A.cols, A.cols, col_order=col_perm) if need_V else None
    peak = max(w.peak, U.peak if U else 0, V.peak if V else 0)
    return SmithDecomposition(A, tuple(ds), Um, Vm, peak_abs=peak)


def _kernel(A: IntMatrix, p: int = 0, limit: Optional[int] = None) -> Optional[IntMatrix]:
    """Kernel basis of A over Z (p = 0) or F_p, as columns.

    ``_eliminate_units`` takes the unit pivots (with ``limit``, in the
    columns below it only).  A pivot's row reads u*x_j + sum r_c*x_c = 0
    over columns c that are free or pivoted later, so the pivot rows are
    solved once each, latest first, for x_j as a combination of the free
    columns.  Without ``limit`` the kernel of the Schur complement on the
    free columns (over Z, the trailing columns of V in its Smith form; over
    F_p it is empty, so the unit vectors) is then extended to the pivot
    columns.  With ``limit`` the columns from ``limit`` on are pinned
    instead: the result has one column per pinned column c, 1 at c and, on
    the free columns below ``limit``, a solution of the remainder, extended
    to the pivot columns and cut to the rows below ``limit``; None when
    there is none, as when a row is left in the pinned columns alone (over
    F_p every row left is one).
    """
    rows = _rows_of(A, p)
    pivots = []
    _eliminate_units(rows, p, pivots, limit)
    coords = {}           # pivot column -> {free column: coefficient}
    for j, inv, r in reversed(pivots):
        acc = {}
        for c, v in r.items():
            for f, w in coords.get(c, {c: 1}).items():
                acc[f] = acc.get(f, 0) + v * w
        coords[j] = {f: w for f, w in ((f, -inv * v % p if p else -inv * v)
                                       for f, v in acc.items()) if w}
    through = {}          # free column -> {pivot column: coefficient}
    for j, row in coords.items():
        for f, w in row.items():
            through.setdefault(f, {})[j] = w
    n = A.cols if limit is None else limit
    free = [j for j in range(n) if j not in coords]
    at = {f: k for k, f in enumerate(free)}
    rest = IntMatrix(len(rows), len(free), {
        (i, at[j]): v for i, r in enumerate(rows.values()) for j, v in r.items() if j < n})
    if limit is None:
        basis = [{f: 1} for f in free]
        if rows:
            sd = smith(rest, need_U=False, need_V=True)
            basis = [{} for _ in range(len(free) - sd.rank)]
            for (k, c), v in sd.V.entries.items():
                if c >= sd.rank:
                    basis[c - sd.rank][free[k]] = v
    else:
        basis = [{c: 1} for c in range(n, A.cols)]
        if any(min(r) >= n for r in rows.values()):
            return None       # 0 = a nonzero entry of B
        if rows:
            Y = _smith_solve(rest, IntMatrix(len(rows), A.cols - n, {
                (i, j - n): -v for i, r in enumerate(rows.values())
                for j, v in r.items() if j >= n}))
            if Y is None:
                return None
            for (k, c), v in Y.entries.items():
                basis[c][free[k]] = v
    cols = []
    for b in basis:
        x = dict(b)
        for f, v in b.items():
            for j, w in through.get(f, _EMPTY).items():
                x[j] = x.get(j, 0) + v * w
        cols.append(x)
    return IntMatrix(n, len(cols), {(i, c): v for c, x in enumerate(cols)
                                    for i, v in x.items() if i < n})


def _smith_solve(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Solve A X = B over Z from the Smith form U A V = D of all of A:
    X = V Y with D Y = U B; None when U B leaves D's rows or its rank."""
    sd = smith(A, need_U=True, need_V=True)
    ent = {}
    for (i, j), v in (sd.U * B).entries.items():
        if i >= sd.rank:
            return None
        q, rem = divmod(v, sd.diagonal[i])
        if rem:
            return None
        ent[(i, j)] = q
    return sd.V * IntMatrix(A.cols, B.cols, ent)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice, as columns.

    The lattice is saturated: x with m*x in the kernel lies in it.
    """
    return _kernel(A)


def solve(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Solve A X = B over the integers; None when no solution exists.

    ``_kernel`` of [A | -B] with pivots in A's columns only and B's columns
    pinned: each unit pivot fixes one coordinate of X, and the unit-free
    rows left in A's free columns go to ``_smith_solve``, which picks one
    solution there when it is not unique; free coordinates that no row
    left involves are 0.
    """
    if A.rows != B.rows:
        raise ValueError("shape mismatch in solve")
    return _kernel(A.hstack(-B), 0, A.cols)


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank over the prime field F_p: the unit-pivot count of
    ``_eliminate_units``, where every nonzero entry mod p is a unit."""
    return _eliminate_units(_rows_of(A, p), p)[0]


def kernel_basis_mod_p(A: IntMatrix, p: int) -> IntMatrix:
    """Kernel basis over F_p, entries reduced to 0..p-1, as columns."""
    return _kernel(A, p)


def solve_mod_p(A: IntMatrix, B: IntMatrix, p: int) -> Optional[IntMatrix]:
    """Solve A X = B over F_p, entries in 0..p-1; None when inconsistent.

    The route of ``solve``: every nonzero entry is a unit, so a row left
    after the pivots in A's columns lies in B's columns alone and makes
    the system inconsistent; A's free coordinates are 0.
    """
    if A.rows != B.rows:
        raise ValueError("shape mismatch in solve_mod_p")
    return _kernel(A.hstack(-B), p, A.cols)


def random_sparse(rows: int, cols: int, density: float, seed: int = 0,
                  lo: int = -1, hi: int = 1) -> IntMatrix:
    """Each cell drawn with probability ``density``, valued in lo..hi (0 left
    empty); geometric gaps between drawn cells make the cost follow them."""
    rng = random.Random(seed)
    ent, cell, cells = {}, -1, rows * cols
    miss = math.log1p(-density) if density < 1 else -math.inf
    while density > 0:
        gap = math.log(1.0 - rng.random()) / miss      # cells skipped
        if gap >= cells - cell - 1:
            break
        cell += 1 + int(gap)
        if v := rng.randint(lo, hi):
            ent[divmod(cell, cols)] = v
    return IntMatrix(rows, cols, ent)
