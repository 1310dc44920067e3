"""Exact-algebra helpers that only the tests read: a determinant (to see
that the Smith transforms are unimodular), row stacking (to build
inconsistent right-hand sides), the triplet text of a matrix (the inverse
of ``IntMatrix.parse_triplets``), a diagonal matrix, the cyclic group Z/d,
the exponent of a torsion module and the linear dual of a chain complex.
"""
from typing import Optional

from strathom.exact_algebra import ChainComplex, FGModule, IntMatrix


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination (square only)."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.to_dense()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def vstack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    """The rows of ``top`` above those of ``bottom``."""
    if top.cols != bottom.cols:
        raise ValueError("col mismatch in vstack")
    ent = dict(top.entries)
    for (i, j), v in bottom.entries.items():
        ent[(i + top.rows, j)] = v
    return IntMatrix(top.rows + bottom.rows, top.cols, ent)


def exponent(m: FGModule) -> Optional[int]:
    """The least e > 0 with e * m = 0, or None when m has a free part."""
    if m.rank:
        return None
    return m.torsion[-1] if m.torsion else 1


def serialize_triplets(m: IntMatrix) -> str:
    """Text triplet format: one ``row col value`` per line."""
    lines = [f"{m.rows} {m.cols}"]
    for (i, j) in sorted(m.entries):
        lines.append(f"{i} {j} {m.entries[(i, j)]}")
    return "\n".join(lines) + "\n"


def diagonal_matrix(diag, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with ``diag`` on its diagonal."""
    return IntMatrix(rows, cols, {(i, i): d for i, d in enumerate(diag) if d})


def cyclic(d: int) -> FGModule:
    """Z/d, the zero module when d = 1."""
    return FGModule(0, ()) if d == 1 else FGModule(0, (d,))


def dualize(C: ChainComplex) -> ChainComplex:
    """Linear dual: transposed differentials, opposite orientation.

    The sign convention d(c) = -(-1)^|c| c(d .) scales differentials by
    units only, which leaves every (co)homology group unchanged, so plain
    transposes suffice for group-level results.
    """
    return ChainComplex("coh" if C.orientation == "hom" else "hom", dict(C.ranks),
                        {k + C.step: C.diff(k).transpose() for k in C.columns},
                        check=False, modulus=C.modulus)
