"""Adjoint representation, the published-table audit, and the optimal system
of one-dimensional subalgebras.

The adjoint action Ad(exp(s*X_t)) = exp(-s*ad X_t) is exponentiated exactly
from the structure constants by ``linalg.mat_exp``, which proves it by its
generating ODE, once per algebra and t.  It is the single source of truth;
the published adjoint table is audited against it, mismatches reported
rather than silently corrected.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .expr import Expr, ExprError, Num, ZERO, ONE, batch_evaluator, func, mul, sub
from .linalg import ExprMat, mat_exp
from .spaces import s as S_PARAM
from .vector_fields import StructureConstants, combo_text, commutator_table

__all__ = [
    "AdjointMatrix", "OptimalClass", "NormalizationResult",
    "adjoint_matrix", "adjoint_matrices", "audit_adjoint_table",
    "apply_adjoint", "normalize", "equivalent", "PUBLISHED_ADJOINT_TABLE",
]


class AdjointMatrix(NamedTuple):
    """Matrix of Ad(exp(s*X_t)) on coefficient vectors in the basis X1..X5:
    exact expressions in the group parameter s, which ``linalg.mat_exp``
    proved to be exp(-s*ad X_t)."""

    t: int
    entries: ExprMat
    labels: tuple[str, ...]

    def at(self, value: float) -> list[list[float]]:
        """Evaluate the matrix numerically at s = value."""
        if not math.isfinite(value):
            raise ExprError("adjoint parameter must be finite")
        return _entry_evaluator(self.entries)(value)


@functools.lru_cache(maxsize=64)
def _entry_evaluator(entries: ExprMat):
    """``AdjointMatrix.at`` for one matrix.  The distinct entries (a 5x5
    matrix holds a handful) and their evaluation order are found once; each
    call evaluates them, in first-occurrence order, which raises the error
    that evaluating every entry in order would."""
    distinct = list(dict.fromkeys(e for row in entries for e in row))
    evaluate = batch_evaluator(distinct)
    where = [[distinct.index(e) for e in row] for row in entries]

    def at(value: float) -> list[list[float]]:
        values = evaluate({S_PARAM: [value]})
        return [[values[k][0] for k in row] for row in where]

    return at


def adjoint_matrix(t: int, constants: StructureConstants | None = None) -> AdjointMatrix:
    """Ad(exp(s*X_t)) = exp(-s*ad X_t) as an exact matrix in s (1-indexed t),
    generated by -ad(X_t).  Each is built and proven once per process,
    algebra and t, on first use here, in ``adjoint_matrices`` or in
    ``apply_adjoint``, and shared between callers."""
    if constants is None:
        constants = commutator_table()
    return _adjoint_matrix(constants, constants.basis_index(t) + 1)


def adjoint_matrices(constants: StructureConstants | None = None) -> tuple[AdjointMatrix, ...]:
    """Ad(exp(s*X_t)) for t = 1..dim: the shared matrices of ``adjoint_matrix``."""
    if constants is None:
        constants = commutator_table()
    return tuple(_adjoint_matrix(constants, t) for t in range(1, constants.dim + 1))


@functools.lru_cache(maxsize=64)
def _adjoint_matrix(constants: StructureConstants, t: int) -> AdjointMatrix:
    """The one cache, keyed by a t that ``basis_index`` has validated: True,
    2.0 and Fraction(2) hash like 1 and 2."""
    neg_ad = [[-v for v in row] for row in constants.adjoint_action(t)]
    return AdjointMatrix(t, mat_exp(neg_ad, S_PARAM), constants.labels)


# The adjoint table as printed in the published reference (row X_t, column
# X_r).  Cells are coefficient 5-vectors over the basis, as expressions in s.
def _published_cells() -> dict[tuple[int, int], tuple[Expr, ...]]:
    s = S_PARAM
    zero, one = ZERO, ONE
    cells: dict[tuple[int, int], tuple[Expr, ...]] = {}
    for t in range(1, 6):
        for r in range(1, 6):
            vec = [zero] * 5
            vec[r - 1] = one
            cells[(t, r)] = tuple(vec)
    cells[(1, 2)] = (zero, one, zero, mul(Num(Fraction(-1)), s), zero)   # X2 - s X4
    cells[(2, 1)] = (one, zero, zero, s, zero)                           # X1 + s X4
    cells[(4, 1)] = (func("cos", s), mul(Num(Fraction(-1)), func("sin", s)),
                     zero, zero, zero)                                   # cos(s)X1 - sin(s)X2
    cells[(4, 2)] = (func("sin", s), func("cos", s), zero, zero, zero)   # sin(s)X1 + cos(s)X2
    return cells


PUBLISHED_ADJOINT_TABLE = _published_cells()


class AdjointAuditCell(NamedTuple):
    t: int
    r: int
    expected_from_series: str
    paper_table_2: str
    match: bool


def audit_adjoint_table(constants: StructureConstants | None = None) -> list[AdjointAuditCell]:
    """Per-cell comparison of the exponentiated adjoint action against the
    published table.  Known discrepancies (the X1/X2 rows acting on each
    other and on X4) are reported, never corrected."""
    if constants is None:
        constants = commutator_table()
    matrices = adjoint_matrices(constants)
    labels = constants.labels
    out = []
    for m in matrices:
        for r in range(1, len(labels) + 1):
            derived = tuple(m.entries[k][r - 1] for k in range(len(labels)))
            published = PUBLISHED_ADJOINT_TABLE[(m.t, r)]
            match = all(sub(d, p) == ZERO for d, p in zip(derived, published))
            out.append(AdjointAuditCell(
                m.t, r,
                combo_text(derived, labels),
                combo_text(published, labels),
                match))
    return out


# ---------------------------------------------------------------------------
# Optimal system
# ---------------------------------------------------------------------------

class OptimalClass(NamedTuple):
    """A representative from the optimal system of one-dimensional
    subalgebras: (1) X1 + c1 X3 + c2 X5, (2) X2 + c1 X3 + c2 X5,
    (3) X4 + c1 X3 + c2 X5, (4) X3 + c1 X5, and the subcase (4b) X5 alone,
    which the published list omits."""

    class_id: int
    label: str
    c1: float
    c2: float
    representative: tuple[float, float, float, float, float]


class NormalizationResult(NamedTuple):
    cls: OptimalClass
    word: tuple[tuple[int, float], ...]
    scale: float


def apply_adjoint(word: Sequence[tuple[int, float]], v: Sequence[float]) -> tuple[float, ...]:
    """Apply the left-to-right product of Ad matrices M_{t1}(s1) M_{t2}(s2)...
    to a coefficient vector (so the last letter acts on v first).  Only the
    matrices the word names are built, so an empty word builds none."""
    constants = commutator_table()
    vec = [float(comp) for comp in v]
    if len(vec) != constants.dim:
        raise ExprError(f"coefficient vectors have {constants.dim} components, got {len(vec)}")
    for t, value in reversed(list(word)):
        m = _adjoint_matrix(constants, constants.basis_index(t) + 1).at(float(value))
        vec = [sum(m[i][j] * vec[j] for j in range(len(vec))) for i in range(len(m))]
    return tuple(vec)


def normalize(v: Sequence[float]) -> NormalizationResult:
    """Normalize a nonzero coefficient vector to its optimal-system
    representative, following the case split a4, then a2, then a1.

    Returns the class together with the adjoint word and the scaling used;
    apply_adjoint(word, v) times the scale reproduces the representative.
    """
    vec = [float(comp) for comp in v]
    if len(vec) != 5:
        raise ExprError("coefficient vectors have five components")
    if not any(vec):
        raise ExprError("cannot normalize the zero vector")
    a1, a2, a3, a4, a5 = vec
    word: list[tuple[int, float]] = []
    if a4 != 0.0:
        s2 = a1 / a4          # Ad(exp(s2 X2)): a1 -> a1 - s2*a4
        s1 = -a2 / a4         # Ad(exp(s1 X1)): a2 -> a2 + s1*a4
        if s1 != 0.0:
            word.append((1, s1))
        if s2 != 0.0:
            word.append((2, s2))
        scale = 1.0 / a4
        cls = OptimalClass(3, "3", a3 * scale, a5 * scale,
                           (0.0, 0.0, a3 * scale, 1.0, a5 * scale))
    elif a2 != 0.0:
        angle = -math.atan2(a1, a2)
        r = math.hypot(a1, a2)
        if angle != 0.0:
            word.append((4, angle))
        scale = 1.0 / r
        cls = OptimalClass(2, "2", a3 * scale, a5 * scale,
                           (0.0, 1.0, a3 * scale, 0.0, a5 * scale))
    elif a1 != 0.0:
        scale = 1.0 / a1
        cls = OptimalClass(1, "1", a3 * scale, a5 * scale,
                           (1.0, 0.0, a3 * scale, 0.0, a5 * scale))
    elif a3 != 0.0:
        scale = 1.0 / a3
        cls = OptimalClass(4, "4", a5 * scale, 0.0,
                           (0.0, 0.0, 1.0, 0.0, a5 * scale))
    else:
        scale = 1.0 / a5
        cls = OptimalClass(4, "4b", 0.0, 0.0, (0.0, 0.0, 0.0, 0.0, 1.0))
    moved = apply_adjoint(word, vec)
    rep = tuple(scale * comp for comp in moved)
    if not all(map(math.isfinite, (scale, *rep, *cls.representative))):
        raise ExprError("numeric overflow: the normalized vector exceeds the double range")
    worst = max(abs(p - q) for p, q in zip(rep, cls.representative))
    if worst > 1e-9:
        raise ExprError(f"normalization self-check failed (error {worst:.2e})")
    return NormalizationResult(cls, tuple(word), scale)


def equivalent(v: Sequence[float], w: Sequence[float], *, tol: float = 1e-9) -> bool:
    """Whether v and w span adjoint-equivalent one-dimensional subalgebras.

    Classes 1 and 2 form one rotation family: the plane rotation carries X1
    to X2, and rotation by pi flips the sign of (c1, c2), so those parameters
    are compared up to a joint sign.  Class 3 and class 4 parameters are
    adjoint- and scaling-invariant, hence compared exactly.
    """
    left = normalize(v)
    right = normalize(w)
    lc, rc = left.cls, right.cls
    if lc.label == "4b" or rc.label == "4b":
        return lc.label == rc.label

    def close(p: tuple[float, float], q: tuple[float, float]) -> bool:
        return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol

    pl, pr = (lc.c1, lc.c2), (rc.c1, rc.c2)
    if lc.class_id in (1, 2) and rc.class_id in (1, 2):
        return close(pl, pr) or close(pl, (-pr[0], -pr[1]))
    if lc.class_id != rc.class_id:
        return False
    if lc.class_id == 4:
        return abs(lc.c1 - rc.c1) <= tol
    return close(pl, pr)
