"""Independent references for the benchmark's output checks.

Nothing here imports viscosym.  Every expected value is either a hand-written
known answer (the commutator table of X1..X5, the published adjoint table, the
optimal-system case split) or a numpy computation from first principles
(matrix exponentials of the adjoint action and of the affine flow field,
finite-difference invariance of similarity variables).
"""

from __future__ import annotations

import math

import numpy as np

LABELS = ("X1", "X2", "X3", "X4", "X5")

# Known answer: X1 = d/dx, X2 = d/dy, X3 = d/dt, X4 = y d/dx - x d/dy,
# X5 = u d/du + f d/df.  The only nonzero brackets are [X1, X4] = -X2 and
# [X2, X4] = X1 (and their antisymmetric partners).
COMMUTATOR_CELLS = (
    ("0", "0", "0", "-X2", "0"),
    ("0", "0", "0", "X1", "0"),
    ("0", "0", "0", "0", "0"),
    ("X2", "-X1", "0", "0", "0"),
    ("0", "0", "0", "0", "0"),
)

# The published adjoint table, cell (t, r) = Ad(exp(s X_t)) X_r as
# coefficient functions of s over X1..X5; cells not listed are X_r itself.
_PUBLISHED_ADJOINT = {
    (1, 2): lambda s: (0, 1, 0, -s, 0),
    (2, 1): lambda s: (1, 0, 0, s, 0),
    (4, 1): lambda s: (math.cos(s), -math.sin(s), 0, 0, 0),
    (4, 2): lambda s: (math.sin(s), math.cos(s), 0, 0, 0),
}

# Published rows of the reduced-equation table, by generator label.
PUBLISHED_REDUCTION_LABELS = ("X1", "X2", "X3", "X1 + X3", "X2 + X3")

DETERMINING_RAW = 116
DETERMINING_UNIQUE = 72
DETERMINING_PUBLISHED = 227


def _structure_constants() -> np.ndarray:
    c = np.zeros((5, 5, 5))
    c[0, 3, 1], c[3, 0, 1] = -1.0, 1.0     # [X1, X4] = -X2
    c[1, 3, 0], c[3, 1, 0] = 1.0, -1.0     # [X2, X4] = X1
    return c


_C = _structure_constants()


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    scaled = a / (2.0 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 24):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def ad_matrix(t: int, s: float) -> np.ndarray:
    """Ad(exp(s X_t)) on coefficient vectors: exp(-s ad_{X_t}), where column
    j of ad_{X_t} holds the coordinates of [X_t, X_j]."""
    ad = _C[t - 1].T
    return expm(-s * ad)


def apply_word(word, v) -> np.ndarray:
    """M_{t1}(s1) M_{t2}(s2) ... applied to v (the last letter acts first)."""
    vec = np.asarray(v, dtype=float)
    for t, s in reversed(list(word)):
        vec = ad_matrix(int(t), float(s)) @ vec
    return vec


def adjoint_mismatch_cells() -> set[tuple[int, int]]:
    """Cells where the published adjoint table differs from exp(-s ad)."""
    out = set()
    for t in range(1, 6):
        for r in range(1, 6):
            published = _PUBLISHED_ADJOINT.get(
                (t, r), lambda s, r=r: tuple(float(k == r - 1) for k in range(5)))
            for s in (0.3, -1.1):
                if not np.allclose(ad_matrix(t, s)[:, r - 1], published(s), atol=1e-12):
                    out.add((t, r))
    return out


def optimal_class(v) -> dict:
    """The optimal-system case split a4, then a2, then a1, then a3, with the
    class parameters it implies (known answer from the classification)."""
    a1, a2, a3, a4, a5 = (float(c) for c in v)
    if a4 != 0:
        return {"class": 3, "label": "3", "c1": a3 / a4, "c2": a5 / a4,
                "representative": (0.0, 0.0, a3 / a4, 1.0, a5 / a4)}
    if a2 != 0:
        r = math.hypot(a1, a2)
        return {"class": 2, "label": "2", "c1": a3 / r, "c2": a5 / r,
                "representative": (0.0, 1.0, a3 / r, 0.0, a5 / r)}
    if a1 != 0:
        return {"class": 1, "label": "1", "c1": a3 / a1, "c2": a5 / a1,
                "representative": (1.0, 0.0, a3 / a1, 0.0, a5 / a1)}
    if a3 != 0:
        return {"class": 4, "label": "4", "c1": a5 / a3, "c2": 0.0,
                "representative": (0.0, 0.0, 1.0, 0.0, a5 / a3)}
    return {"class": 4, "label": "4b", "c1": 0.0, "c2": 0.0,
            "representative": (0.0, 0.0, 0.0, 0.0, 1.0)}


def check_normalization(v, label, c1, c2, word, scale, representative,
                        tol: float = 1e-9) -> str | None:
    """Compare a normalization against the case split, and re-apply its
    adjoint word with numpy.  Returns a failure message or None."""
    want = optimal_class(v)
    if label != want["label"]:
        return f"class {label!r}, expected {want['label']!r}"
    if abs(c1 - want["c1"]) > tol or abs(c2 - want["c2"]) > tol:
        return f"class parameters ({c1}, {c2}), expected ({want['c1']}, {want['c2']})"
    rep = np.asarray(representative, dtype=float)
    if np.max(np.abs(rep - np.asarray(want["representative"]))) > tol:
        return f"representative {tuple(rep)}, expected {want['representative']}"
    moved = scale * apply_word(word, v)
    if np.max(np.abs(moved - rep)) > tol:
        return f"adjoint word does not carry v to the representative ({moved})"
    return None


def flow_points(coeffs, seeds, eps_values) -> np.ndarray:
    """Exact flow of c1 X1 + c2 X2 + c3 X3 + c4 X4 on (x, y, t): the
    exponential of the augmented affine field, one row per (seed, eps)."""
    c1, c2, c3, c4 = (float(c) for c in coeffs[:4])
    field = np.array([[0.0, c4, 0.0, c1],
                      [-c4, 0.0, 0.0, c2],
                      [0.0, 0.0, 0.0, c3],
                      [0.0, 0.0, 0.0, 0.0]])
    maps = [expm(e * field) for e in eps_values]
    return np.array([(m @ np.array([seed[0], seed[1], seed[2], 1.0]))[:3]
                     for seed in seeds for m in maps])


def check_flow(coeffs, seeds, lo, hi, n, samples, tol: float = 1e-9) -> str | None:
    """``samples``: rows (seed_id, eps, x, y[, t]) in seed-major order."""
    grid = np.linspace(lo, hi, n)
    if len(samples) != len(seeds) * n:
        return f"{len(samples)} samples, expected {len(seeds) * n}"
    want = flow_points(coeffs, seeds, grid)
    got = np.array([row[2:] for row in samples], dtype=float)
    ids = [int(row[0]) for row in samples]
    if ids != [i for i in range(len(seeds)) for _ in range(n)]:
        return "seed ids out of order"
    eps = np.array([row[1] for row in samples], dtype=float)
    if np.max(np.abs(eps - np.tile(grid, len(seeds)))) > 1e-12:
        return "eps grid differs from linspace(lo, hi, n)"
    width = got.shape[1]
    err = np.max(np.abs(got - want[:, :width]) / (1.0 + np.abs(want[:, :width])))
    if err > tol:
        return f"flow samples differ from the closed form by {err:.3e}"
    return None


_EVAL_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
               "arctan": math.atan, "atan2": math.atan2, "sqrt": math.sqrt}


def evaluate_text(text: str, values: dict[str, float]) -> float:
    """Evaluate an expression printed by the program with Python's own
    parser (``^`` becomes ``**``), independent of the program's evaluator."""
    names = dict(_EVAL_NAMES)
    names.update(values)
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, names))


def check_chart(coeffs, xi_text: str, eta_text: str, seed: int,
                points: int = 4) -> str | None:
    """xi and eta must be invariants of V = c1 X1 + c2 X2 + c3 X3 + c4 X4
    (V(xi) = V(eta) = 0 by central differences) and independent (rank 2)."""
    c1, c2, c3, c4 = (float(c) for c in coeffs[:4])
    rng = np.random.default_rng(seed)
    h = 1e-5
    for _ in range(points):
        px, py, pt = rng.uniform(0.5, 2.0, size=3)
        grads = []
        for text in (xi_text, eta_text):
            def at(dx=0.0, dy=0.0, dt=0.0):
                return evaluate_text(text, {"x": px + dx, "y": py + dy, "t": pt + dt})
            grads.append(np.array([(at(dx=h) - at(dx=-h)) / (2 * h),
                                   (at(dy=h) - at(dy=-h)) / (2 * h),
                                   (at(dt=h) - at(dt=-h)) / (2 * h)]))
        field = np.array([c1 + c4 * py, c2 - c4 * px, c3])
        for name, grad in zip(("xi", "eta"), grads):
            if abs(field @ grad) > 1e-6 * (1.0 + np.linalg.norm(field) * np.linalg.norm(grad)):
                return f"V({name}) = {field @ grad:.3e} at ({px:.3f}, {py:.3f}, {pt:.3f})"
        if np.linalg.svd(np.array(grads), compute_uv=False)[1] <= 1e-6:
            return "xi and eta are not independent"
    return None


def commutator_mismatch(cells) -> str | None:
    got = tuple(tuple(row) for row in cells)
    if got != COMMUTATOR_CELLS:
        return f"commutator cells {got} differ from the known table"
    return None


def check_adjoint_matrix(t: int, entries, tol: float = 1e-9) -> str | None:
    for s in (0.0, 0.7, -2.3):
        got = np.array([[evaluate_text(e, {"s": s}) for e in row] for row in entries])
        err = np.max(np.abs(got - ad_matrix(t, s)))
        if err > tol:
            return f"Ad matrix for t={t} differs from exp(-s ad) by {err:.3e} at s={s}"
    return None
