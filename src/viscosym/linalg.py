"""Exact linear algebra: one eliminator and one matrix exponential.

Rational matrices are lists of lists of Fraction; symbolic matrices are
tuples of tuples of Expr.  Exact linear systems are sparse rows, reduced
by one eliminator, ``rref``, that keeps an incremental pivot table and
touches only nonzero entries.  ``mat_exp`` builds every Ad matrix and flow
exactly and proves each result by the ODE that generates it.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .expr import (Expr, ExprError, Num, ONE, ZERO, add, diff_atom, func, mul, pow_, substitute,
                   to_text)

__all__ = [
    "ExprMat", "SpectrumError", "MAX_ROOT_SEARCH", "rref", "solve", "mat_exp",
]

RatMat = list[list[Fraction]]
ExprMat = tuple[tuple[Expr, ...], ...]

# the largest root modulus that mat_exp searches the spectrum of d*A for
MAX_ROOT_SEARCH = 10 ** 6
# a root's functions; a pair's cos and sin rows take Re and Im of i^(k - j)
_PHASES = {False: [("exp", (1, 1, 1, 1))], True: [("cos", (1, 0, -1, 0)), ("sin", (0, 1, 0, -1))]}


class SpectrumError(ExprError):
    """The characteristic polynomial does not split into z - lam, z^2 + w^2."""


def rref(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """The reduced row-echelon form of sparse rows (dicts column -> rational)
    as a pivot table, pivot column -> row.  A row is reduced by the table as
    it arrives, and its pivot is cleared from the rows before it; the form
    is unique, so it does not depend on the row order."""
    table: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {c: Fraction(v) for c, v in given.items() if v}
        for c in [c for c in row if c in table]:
            row = _combine(row, row[c], table[c])
        if row:
            pivot = min(row)
            row = {c: v / row[pivot] for c, v in row.items()}
            for p, other in table.items():
                if pivot in other:
                    table[p] = _combine(other, other[pivot], row)
            table[pivot] = row
    return table


def _combine(row: dict[int, Fraction], factor: Fraction, by: dict[int, Fraction]):
    """row - factor * by, without its zero entries."""
    return {c: v for c in row.keys() | by.keys() if (v := row.get(c, 0) - factor * by.get(c, 0))}


def solve(rows: Iterable[Mapping[int, Fraction]], n: int, m: int) -> list[list[Fraction] | None]:
    """One solution x of A x = b, free variables 0, for each column b of B,
    from the ``rref`` of the sparse rows of [A | B] (n columns, then m);
    None where a pivot row with no entry in A has one in b's column."""
    table, zero = rref(rows), Fraction(0)
    return [None if any(p >= n and col in row for p, row in table.items())
            else [table.get(k, {}).get(col, zero) for k in range(n)] for col in range(n, n + m)]


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
    # V gamma = e_index for every index at once: one reduction of [V | I]
    inverse = solve([{**dict(enumerate(row)), n + i: 1} for i, row in enumerate(rows)], n, n)
    for gamma, (f, scale) in zip(inverse, parts):
        den = math.lcm(*[g.denominator for g in gamma])
        out.append((f, tuple((k, int(g * den)) for k, g in enumerate(gamma) if g), den * scale))
    return tuple(out)


def mat_exp(a: RatMat, param: Expr, vec: Sequence[Expr] | None = None):
    """exp(param*A), exactly, for a square rational matrix A (an ExprMat), or
    only the vector exp(param*A) vec: r(B) for the integer matrix B = d*A and
    the Hermite interpolant r of e^(param*z/d) on B's spectrum (Moler & Van
    Loan, SIAM Rev. 45 (2003)), solved once per spectrum; eigenvalues of B
    other than integers and pairs +-i*w raise SpectrumError.  The result is
    proven before it is returned, as kernel identities: it is I (or vec) at
    param = 0 and solves m' = A m, so by uniqueness of solutions of ODEs it
    is exp(param*A) and nothing else; ExprError otherwise."""
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
        out = tuple(tuple(add(*[mul(q, f) for q, f in entries.get((r, c), ())])
                          for c in range(n)) for r in range(n))
        columns = list(zip(*out))
        starts = [tuple(ONE if i == c else ZERO for i in range(n)) for c in range(n)]
    else:
        out = tuple(add(*[mul(q, f, vec[c]) for c in range(n) for q, f in entries.get((r, c), ())])
                    for r in range(n))
        columns, starts = [out], [tuple(vec)]
    name = to_text(param)
    for column, start in zip(columns, starts):
        if tuple(substitute(e, {param: ZERO}) for e in column) != start:
            raise ExprError(f"exp({name}*A) is not the identity at {name} = 0")
        slope = tuple(add(*[mul(Num(Fraction(w, d)), column[j]) for j, w in row]) for row in b)
        if tuple(diff_atom(e, param) for e in column) != slope:
            raise ExprError(f"exp({name}*A) does not solve m' = A m")
    return out
