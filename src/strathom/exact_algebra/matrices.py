"""Sparse integer matrices, kernels, solves and Smith normal form.

All arithmetic is exact (Python big integers).  One elimination kernel,
``_eliminate_units``, serves Z and F_p: it takes unit pivots in Markowitz
order from cost buckets (the last one queued first among equal costs) and
leaves the Schur complement.  Over F_p every nonzero entry is a unit, so
its pivot count is the rank.  Over Z a diagonal-only ``smith``
reads one invariant factor 1 per unit pivot and runs the gcd elimination,
``_gcd_eliminate``, on the remainder only, in the same ``{row: {col:
entry}}`` form; that is the step a modular elimination (one that bounds
coefficient growth) would replace.  Kernels
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
from typing import Iterable, Optional

from .records import Record


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
            i, j, v = map(int, ln.split())
            if (i, j) in ent:
                raise ValueError(f"entry ({i},{j}) given twice")
            ent[(i, j)] = v
        return cls(r, c, ent)


class SmithDecomposition(Record):
    """U*A*V is diagonal with the invariant factors d1 | d2 | ... | dr."""
    __slots__ = ()
    _fields = ("diagonal", "U", "V", "peak_abs")

    def __new__(cls, diagonal: tuple, U: Optional[IntMatrix], V: Optional[IntMatrix],
                peak_abs: int = 0):
        return tuple.__new__(cls, (diagonal, U, V, peak_abs))

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @property
    def peak_bits(self) -> int:
        return self.peak_abs.bit_length()


_EMPTY: dict = {}   # read-only stand-in for a missing row


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
    invariant factor 1, and ``_gcd_eliminate`` runs on the Schur complement
    that is left, which is small or empty on the matrices this package
    produces.  With U or V, ``_smith_work`` runs the gcd elimination on A
    itself; ``kernel_basis`` asks for V and ``solve`` for U and V of a
    remainder only.
    """
    if need_U or need_V:
        return _smith_work(A, need_U, need_V)
    diagonal, peak = _diagonal(_rows_of(A))
    return SmithDecomposition(diagonal, None, None, peak_abs=max(A.max_abs(), peak))


def _diagonal(rows: dict, p: int = 0, pivots: Optional[list] = None) -> tuple:
    """(invariant factors, largest |entry| made) of the matrix in ``rows``,
    consumed: unit pivots (into ``pivots``), then over Z the gcd elimination."""
    units, peak = _eliminate_units(rows, p, pivots)
    if p or not rows:
        return (1,) * units, peak
    rest, more = _gcd_eliminate(rows)
    return (1,) * units + tuple(d for d, _, _ in rest), max(peak, more)


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


def _mix(lines: dict, k1, k2, a, b, c, d) -> int:
    """(line k1, line k2) <- (a*l1 + b*l2, c*l1 + d*l2), with ad - bc = +-1,
    in a transform kept as {k: {index: entry}} whose missing line k is the
    unit vector at k; returns the largest |entry| written."""
    l1, l2 = lines.get(k1) or {k1: 1}, lines.get(k2) or {k2: 1}
    n1, n2 = {}, {}
    for j in l1.keys() | l2.keys():
        x, y = l1.get(j, 0), l2.get(j, 0)
        if v := a * x + b * y:
            n1[j] = v
        if v := c * x + d * y:
            n2[j] = v
    lines[k1], lines[k2] = n1, n2
    return max(map(abs, (*n1.values(), *n2.values())))


def _gcd_eliminate(rows: dict, U: Optional[dict] = None, V: Optional[dict] = None):
    """Smith form of the matrix in ``rows`` ({row: {col: entry}}), consumed,
    by gcd elimination.  Returns (pivots, peak): the (d, row, col) of each
    pivot, with d1 | d2 | ... in list order, and the largest |entry| made.

    The pivot is the live entry of least (|entry|, Markowitz cost, row,
    col), taken from a list of candidates sorted whenever it is empty; a
    candidate whose entry is gone or whose key has grown is dropped until
    the next refill.  The pivot's column, then its row, is cleared in sorted
    order by a multiple of the pivot's row or column, or by a 2x2 gcd step
    that makes the pivot the gcd and may refill them, until both are clear.
    Row operations are copied into the rows of U ({row: {col: entry}}) and
    column operations into the columns of V ({col: {row: entry}}) when
    given, through ``_mix``.  A last pass makes the diagonal a divisibility
    chain: a pair of pivots (a, b) becomes (gcd, lcm) by 2x2 block
    operations on their rows and columns.
    """
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    pivots, queue, peak = [], [], 0

    def key(i, j):
        r = rows[i]
        return abs(r[j]), (len(r) - 1) * (len(cols[j]) - 1), i, j

    def put(i, j, v):
        nonlocal peak
        r = rows.get(i)
        if v:
            if r is None:
                r = rows[i] = {}
            if j not in r:
                cols.setdefault(j, set()).add(i)
            r[j] = v
            if v > peak or -v > peak:
                peak = abs(v)
        elif r is not None and j in r:
            del r[j]
            if not r:
                del rows[i]
            s = cols[j]
            s.discard(i)
            if not s:
                del cols[j]

    def clear(k1, k2, a, b, by_rows):
        """Clear the entry b of row or column k2 against the pivot a in k1,
        by a multiple of k1 when a divides b, else by the gcd step
        (k1, k2) <- (s*x1 + t*x2, -(b/g)*x1 + (a/g)*x2); in U or V too."""
        nonlocal peak
        if keep := not b % a:
            m = 1, 0, -(b // a), 1
        else:
            g, s, t = _xgcd(a, b)
            m = s, t, -(b // g), a // g
        a1, b1, a2, b2 = m
        if by_rows:
            r1, r2 = rows[k1], rows[k2]
            for j in r1.keys() | r2.keys():
                x, y = r1.get(j, 0), r2.get(j, 0)
                if not keep:
                    put(k1, j, a1 * x + b1 * y)
                put(k2, j, a2 * x + b2 * y)
        else:
            for i in cols[k1] | cols[k2]:
                r = rows[i]
                x, y = r.get(k1, 0), r.get(k2, 0)
                if not keep:
                    put(i, k1, a1 * x + b1 * y)
                put(i, k2, a2 * x + b2 * y)
        T = U if by_rows else V
        if T is not None:
            peak = max(peak, _mix(T, k1, k2, *m))

    while rows:
        if not queue:
            queue = sorted((key(i, j) for i, r in rows.items() for j in r), reverse=True)
        old = queue.pop()
        pi, pj = old[2], old[3]
        if pj not in rows.get(pi, _EMPTY) or key(pi, pj) > old:
            continue
        while len(rows[pi]) > 1 or len(cols[pj]) > 1:
            for i in sorted(cols[pj] - {pi}):
                clear(pi, i, rows[pi][pj], rows[i][pj], True)
            for j in sorted(rows[pi].keys() - {pj}):
                clear(pj, j, rows[pi][pj], rows[pi][j], False)
        d = rows.pop(pi)[pj]
        del cols[pj]
        if d < 0 and U is not None:
            U[pi] = {j: -v for j, v in (U.get(pi) or {pi: 1}).items()}
        pivots.append((abs(d), pi, pj))

    done = False
    while not done:
        done = True
        for k in range(len(pivots) - 1):
            (a, ik, jk), (b, il, jl) = pivots[k], pivots[k + 1]
            if b % a:
                # rows: diag(a, b) -> [[a, b], [0, b]]; columns -> [[g, 0],
                # [t*b, a*b/g]]; rows -> diag(g, a*b/g)
                g, s, t = _xgcd(a, b)
                for T, k1, k2, m in ((U, ik, il, (1, 1, 0, 1)),
                                     (V, jk, jl, (s, t, -(b // g), a // g)),
                                     (U, ik, il, (1, 0, -(t * b // g), 1))):
                    if T is not None:
                        peak = max(peak, _mix(T, k1, k2, *m))
                pivots[k], pivots[k + 1] = (g, ik, jk), (a * b // g, il, jl)
                peak = max(peak, abs(t * b), a * b // g)
                done = False
    return pivots, peak


def _smith_work(A: IntMatrix, need_U: bool, need_V: bool) -> SmithDecomposition:
    """Smith form of A by ``_gcd_eliminate``, with U and V on request; the
    pivots' rows of U and columns of V come first, in pivot order."""
    U, V = {} if need_U else None, {} if need_V else None
    pivots, peak = _gcd_eliminate(_rows_of(A), U, V)
    Um = _transform(U, [i for _, i, _ in pivots], A.rows) if need_U else None
    Vm = _transform(V, [j for _, _, j in pivots], A.cols).transpose() if need_V else None
    peak = max(A.max_abs(), peak, *(M.max_abs() for M in (Um, Vm) if M is not None))
    return SmithDecomposition(tuple(d for d, _, _ in pivots), Um, Vm, peak_abs=peak)


def _transform(lines: dict, first: list, n: int) -> IntMatrix:
    """The n x n matrix whose rows are the lines ``first`` and then the
    others in order, a line missing from ``lines`` being a unit vector."""
    taken = set(first)
    order = first + [k for k in range(n) if k not in taken]
    return IntMatrix(n, n, {(new, j): v for new, k in enumerate(order)
                            for j, v in lines.get(k, {k: 1}).items()})


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
