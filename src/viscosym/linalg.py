"""Small exact and symbolic matrix helpers.

Rational matrices are lists of lists of Fraction; symbolic matrices are
tuples of tuples of Expr.  Sizes here are tiny (at most 6x6), so plain
Gaussian elimination is fine.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .expr import Expr, ExprError, Num, ZERO, add, func, mul, pow_

__all__ = [
    "ExprMat", "SpectrumError", "MAX_ROOT_SEARCH", "solve_exact", "mat_exp",
    "expr_matrix", "mat_mul_expr", "identity_expr",
]

RatMat = list[list[Fraction]]
ExprMat = tuple[tuple[Expr, ...], ...]

# the largest root modulus that mat_exp searches the spectrum of d*A for
MAX_ROOT_SEARCH = 10 ** 6
# a root's functions; a pair's cos and sin rows take Re and Im of i^(k - j)
_PHASES = {False: [("exp", (1, 1, 1, 1))], True: [("cos", (1, 0, -1, 0)), ("sin", (0, 1, 0, -1))]}


class SpectrumError(ExprError):
    """The characteristic polynomial does not split into z - lam, z^2 + w^2."""


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


def _taylor_row(root: int, j: int, phase: tuple[int, ...], n: int) -> list[int]:
    """(d/dz)^j z^k / j! at z = root, for k < n; at z = i*root, its real part
    for the phase (1, 0, -1, 0) and its imaginary part for (0, 1, 0, -1)."""
    return [math.comb(k, j) * root ** (k - j) * phase[(k - j) % 4] if k >= j else 0
            for k in range(n)]


@functools.lru_cache(maxsize=64)
def _interpolant(traces: tuple[int, ...], d: int, param: Expr) -> tuple:
    """The Hermite interpolant r of e^(param*z/d) on the spectrum of an n x n
    integer matrix with these traces of its powers 0..n, as (f, weights, den)
    with r(z) = the sum of f/den * sum of w z^k over (k, w) in weights: f =
    param^j times exp(param*mu/d) for a root mu, or cos and sin(param*w/d) for
    a factor z^2 + w^2 of the characteristic polynomial c, j < multiplicity.
    A nonzero root divides c's lowest nonzero coefficient and lies within its
    Cauchy bound, so the integers up to the smaller of the two are tried; a
    root's multiplicity is the number of derivatives of c vanishing there."""
    n = len(traces) - 1
    c = [1]                 # from z^n down, by Newton's identities
    for k in range(1, n + 1):
        c.append(-sum(c[k - i] * traces[i] for i in range(1, k + 1)) // k)
    c.reverse()
    low = next(v for v in c if v)
    bound = min(abs(low), 1 + max(map(abs, c[:-1])), MAX_ROOT_SEARCH)
    rows, parts = [], []
    for k in [0] + [k for k in range(1, bound + 1) if low % k == 0]:
        for root, pair in [(k, False), (-k, False), (k, True)] if k else [(0, False)]:
            j = 0
            while not any(sum(map(operator.mul, c, _taylor_row(root, j, phase, n + 1)))
                          for _, phase in _PHASES[pair]):
                # r^(j)/j! = (d/dz)^j e^(param*z/d)/j! at root, or Re, Im at i*root
                for fn, phase in _PHASES[pair]:
                    rows.append(_taylor_row(root, j, phase, n))
                    parts.append((mul(pow_(param, j), func(fn, mul(Num(Fraction(root, d)), param))),
                                  math.factorial(j) * d ** j))
                j += 1
    if len(rows) < n:
        raise SpectrumError(f"exp(p*A) needs eigenvalues lam and +-i*w of A with rational "
                            f"lam and w (of modulus at most {MAX_ROOT_SEARCH} in d*A)")
    out = []
    for index, (f, scale) in enumerate(parts):
        gamma = solve_exact(rows, [int(i == index) for i in range(n)])
        den = math.lcm(*[g.denominator for g in gamma])
        out.append((f, tuple((k, int(g * den)) for k, g in enumerate(gamma) if g), den * scale))
    return tuple(out)


def mat_exp(a: RatMat, param: Expr, vec: Sequence[Expr] | None = None):
    """exp(param*A), exactly, for a square rational matrix A (an ExprMat), or
    only the vector exp(param*A) vec: r(B) for the integer matrix B = d*A and
    the Hermite interpolant r of e^(param*z/d) on B's spectrum (Moler & Van
    Loan, SIAM Rev. 45 (2003)), solved once per spectrum; eigenvalues of B
    other than integers and pairs +-i*w raise SpectrumError."""
    n = len(a)
    d = math.lcm(*[v.denominator for row in a for v in row])
    b = [[(j, int(v * d)) for j, v in enumerate(row) if v] for row in a]
    powers = [{(i, i): 1 for i in range(n)}]            # sparse {(row, col): value}
    for _ in range(n):
        product: dict[tuple[int, int], int] = {}
        for (i, k), v in powers[-1].items():
            for j, w in b[k]:
                product[i, j] = product.get((i, j), 0) + v * w
        powers.append(product)
    traces = tuple(sum(power.get((i, i), 0) for i in range(n)) for power in powers)
    entries: dict[tuple[int, int], list[tuple[Num, Expr]]] = {}
    for f, weights, den in _interpolant(traces, d, param):
        share: dict[tuple[int, int], int] = {}
        for k, weight in weights:
            for cell, v in powers[k].items():
                share[cell] = share.get(cell, 0) + weight * v
        for cell, v in share.items():
            if v:
                entries.setdefault(cell, []).append((Num(Fraction(v, den) if den > 1 else v), f))
    if vec is None:
        return tuple(tuple(add(*[mul(q, f) for q, f in entries.get((r, c), ())])
                           for c in range(n)) for r in range(n))
    return tuple(add(*[mul(q, f, vec[c]) for c in range(n) for q, f in entries.get((r, c), ())])
                 for r in range(n))


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
