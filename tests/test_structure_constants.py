"""The construction checks of ``StructureConstants``: antisymmetry and the
Jacobi identity.

``dense_verdict`` below is the check as it stood before it ran over the
nonzero constants only: every (i, j, k) for antisymmetry, then every
(i, j, k, l) summed over every m for the Jacobi identity.  The sparse check
must accept and reject exactly where it does, with the same message.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscosym.expr import ExprError
from viscosym.vector_fields import StructureConstants, commutator_table

ANTISYMMETRY = "structure constants are not antisymmetric"
JACOBI = "structure constants violate the Jacobi identity"


def dense_verdict(c) -> str | None:
    """The reference: the error message the dense loops raise, or None."""
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return ANTISYMMETRY
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = Fraction(0)
                    for m in range(n):
                        acc += (c[i][j][m] * c[m][k][l]
                                + c[j][k][m] * c[m][i][l]
                                + c[k][i][m] * c[m][j][l])
                    if acc != 0:
                        return JACOBI
    return None


def verdict(c) -> str | None:
    try:
        StructureConstants(c, tuple(f"X{i + 1}" for i in range(len(c))))
    except ExprError as exc:
        return str(exc)
    return None


def tensor(n: int, brackets: dict[tuple[int, int], dict[int, Fraction]]):
    """The antisymmetric tensor with [X_i, X_j] = sum_k brackets[i, j][k] X_k
    for i < j (0-indexed)."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), entry in brackets.items():
        for k, v in entry.items():
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def test_accepts_the_paper_algebra():
    assert verdict(commutator_table().c) is None


def test_rejects_a_tensor_that_is_not_antisymmetric():
    # [X1, X2] = X1 = [X2, X1]
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    with pytest.raises(ExprError, match=ANTISYMMETRY):
        StructureConstants(((zero, one), (one, zero)), ("X1", "X2"))


def test_rejects_a_tensor_that_violates_the_jacobi_identity():
    # [X1, X2] = X3 and [X3, X1] = X1: the Jacobi sum of (X1, X2, X3) is X3
    c = tensor(3, {(0, 1): {2: 1}, (0, 2): {0: -1}})
    with pytest.raises(ExprError, match=JACOBI):
        StructureConstants(c, ("X1", "X2", "X3"))


# mostly zero: each pair i < j gets at most a few nonzero coordinates
_value = st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool)


@st.composite
def antisymmetric_tensors(draw):
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    if pairs:
        for _ in range(draw(st.integers(0, 5))):
            pair = draw(st.sampled_from(pairs))
            brackets.setdefault(pair, {})[draw(st.integers(0, n - 1))] = draw(_value)
    return tensor(n, brackets)


@settings(max_examples=300, deadline=None)
@given(antisymmetric_tensors())
# sl(2): [H, E] = 2E, [H, F] = -2F, [E, F] = H
@example(tensor(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}))
# the same brackets with [E, F] = H + E, which breaks the identity
@example(tensor(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1, 1: 1}}))
def test_sparse_check_agrees_with_the_dense_loops(c):
    assert verdict(c) == dense_verdict(c)
