"""Small exact and symbolic matrix helpers.

Rational matrices are lists of lists of Fraction; symbolic matrices are
tuples of tuples of Expr.  Sizes here are tiny (at most 5x5), so plain
Gaussian elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .expr import Expr, Num, ZERO, add, mul

__all__ = [
    "ExprMat", "solve_exact", "mat_mul_rat", "mat_is_zero",
    "expr_matrix", "mat_mul_expr", "identity_expr",
]

RatMat = list[list[Fraction]]
ExprMat = tuple[tuple[Expr, ...], ...]


def solve_exact(rows: Sequence[Sequence[Fraction]],
                rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve a (possibly overdetermined) exact linear system.

    Returns one solution with free variables set to zero, or None when the
    system is inconsistent.  Callers needing uniqueness verify the result.
    """
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [vi - factor * vr for vi, vr in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    out = [Fraction(0)] * ncols
    for row, col in pivots:
        out[col] = m[row][ncols]
    return out


def mat_mul_rat(m1: RatMat, m2: RatMat) -> RatMat:
    """The product, as Fractions; a zero entry of m1 contributes no term."""
    columns = list(zip(*m2))
    return [[sum((p * q for p, q in zip(row, col) if p), Fraction(0)) for col in columns]
            for row in m1]


def mat_is_zero(m: RatMat) -> bool:
    return all(v == 0 for row in m for v in row)


def expr_matrix(rows: Sequence[Sequence[Expr]]) -> ExprMat:
    return tuple(tuple(row) for row in rows)


def identity_expr(n: int) -> ExprMat:
    return tuple(tuple(Num(Fraction(int(i == j))) for j in range(n)) for i in range(n))


def mat_mul_expr(m1: ExprMat, m2: ExprMat) -> ExprMat:
    """The product; a zero entry contributes no term, so sparse factors are cheap."""
    columns = list(zip(*m2))
    return tuple(tuple(add(*[mul(p, q) for p, q in zip(row, col)
                             if p is not ZERO and q is not ZERO])
                       for col in columns) for row in m1)

