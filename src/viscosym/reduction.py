"""Similarity charts from characteristic equations, chain-rule reduction of
the viscoelastic equation to two variables, and the audit of the published
reduced-equation table.

The supported chart catalog: constant-coefficient combinations
c1*X1 + c2*X2 + c3*X3 (two independent linear invariants), pure rotations
c4*X4 (xi = x^2 + y^2, eta = t), and rotation-plus-time-translation
c4*X4 + c3*X3 (xi = x^2 + y^2, eta = atan2(y, x) + (c4/c3)*t).

The reduction needs one rewrite, not one per chart kind.  After the chain
rule, x, y and t enter the residual only through the gradients of the
invariants (the invariant-coordinate construction of Olver, Applications of
Lie Groups to Differential Equations, ch. 3).  Linear invariants have
constant gradients, so nothing is left over.  The rotation charts leave
even powers of x and y, in terms and in power bases, that combine into
x^2 + y^2 = xi; folding y^2 -> xi - x^2 removes them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .expr import (Add, EvalError, Expr, ExprError, Jet, Num, OVERFLOW, Pow, Sym,
                   Unknown, UnknownFn, ZERO, add, atoms, checked, diff_atom,
                   eval_batch, func, mul, neg, numerator, pow_, rebuild, sub,
                   substitute, to_text)
from .spaces import (a as A_SYM, b as B_SYM, base_space, eta as ETA,
                     reduced_space, xi as XI, h as H_DEP, g as G_DEP,
                     t, u, f, x, y)
from .vector_fields import (Generator, PDEInstance, parse_basis_combination,
                            viscoelastic_pde)

__all__ = [
    "SimilarityChart", "ReducedPDE", "ReductionReport",
    "UnsupportedGeneratorError", "ReductionError",
    "characteristic_invariants", "reduce_pde", "verify_reduction",
    "published_reduction_rows", "published_similarity_rows", "audit_reduction_table",
    "ReductionAuditRow",
]

_CATALOG = ("constant-coefficient combinations c1*X1 + c2*X2 + c3*X3 (not all "
            "zero), pure rotations c4*X4, and c4*X4 + c3*X3 with c3 != 0; "
            "u- and f-components must vanish")


class UnsupportedGeneratorError(ExprError):
    def __init__(self, why: str):
        super().__init__(f"unsupported generator ({why}); supported: {_CATALOG}")


class ReductionError(ExprError):
    """The reduced residual could not be expressed in (xi, eta) alone."""


H_FN = UnknownFn("h", (XI, ETA))
G_FN = UnknownFn("g", (XI, ETA))
_RADIAL = add(pow_(x, 2), pow_(y, 2))


@checked
class SimilarityChart(NamedTuple):
    """Invariant coordinates of a generator, with u = h(xi, eta) and
    f = g(xi, eta).

    Construction checks V(xi) = V(eta) = 0 symbolically, with the sums in
    their denominators cleared, and that the map (x, y, t) -> (xi, eta) has
    rank 2 at five sampled points, where the Jacobian's sigma_2 exceeds 1e-9.
    """

    generator: Generator
    xi: Expr
    eta: Expr
    kind: str                         # "linear" | "rotation"; a label only

    def _check(self):
        for name, inv in (("xi", self.xi), ("eta", self.eta)):
            applied = self.generator.apply(inv)
            if numerator(applied) is not ZERO:
                raise ExprError(f"{name} is not invariant: V({name}) = {to_text(applied)}")
        self._check_rank()

    @property
    def u_subst(self) -> Expr:
        return Unknown(H_FN, (), (self.xi, self.eta))

    @property
    def f_subst(self) -> Expr:
        return Unknown(G_FN, (), (self.xi, self.eta))

    def _check_rank(self, seed: int = 7, points: int = 5):
        entries = [diff_atom(inv, v) for inv in (self.xi, self.eta) for v in (x, y, t)]
        rng = random.Random(seed)
        # positive box: keeps clear of the rotation-chart axis and branch cut
        samples = [[rng.uniform(0.5, 2.0) for _ in "xyt"] for _ in range(points)]
        failed: dict[int, EvalError] = {}
        values = eval_batch(entries, dict(zip((x, y, t), zip(*samples))), errors=failed)
        for k in range(points):
            if k in failed:
                raise failed[k]
            if _second_singular_value([column[k] for column in values]) <= 1e-9:
                raise ExprError("the invariant map does not have rank 2")

    def point(self, px: float, py: float, pt: float) -> tuple[float, float]:
        xi, eta = eval_batch((self.xi, self.eta), {x: [px], y: [py], t: [pt]})
        return xi[0], eta[0]


def _second_singular_value(jac: list[float]) -> float:
    """sigma_2 of the 2x3 matrix J with rows jac[:3] and jac[3:], scaled by its
    largest entry so no square leaves the range: sigma_2^2 = det(J J^T) /
    lambda_max(J J^T), and det(J J^T) is the sum of the squared 2x2 minors."""
    scale = max(map(abs, jac)) or 1.0
    (a0, a1, a2), (b0, b1, b2) = [v / scale for v in jac[:3]], [v / scale for v in jac[3:]]
    p, q, r = a0 * a0 + a1 * a1 + a2 * a2, a0 * b0 + a1 * b1 + a2 * b2, b0 * b0 + b1 * b1 + b2 * b2
    root_det = math.hypot(a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a1 * b2 - a2 * b1)
    return scale * root_det / math.sqrt((p + r) / 2 + math.hypot((p - r) / 2, q)) if p + r else 0.0


def _constant_of(e: Expr) -> Fraction | None:
    return e.value if isinstance(e, Num) else None


def characteristic_invariants(v: Generator) -> SimilarityChart:
    """Two functionally independent invariants of a catalog generator.

    Constant-coefficient case: coordinate functions whose coefficient
    vanishes are preferred, in the order x, y, t; the list is completed by
    differences x_i - (k_i/k_j) x_j for coefficient pairs, up to two forms.
    """
    if v.is_zero():
        raise UnsupportedGeneratorError("the zero field has no similarity chart")
    if v.phi1 != ZERO or v.phi2 != ZERO:
        raise UnsupportedGeneratorError("nonzero u- or f-component")

    ks = tuple(_constant_of(coeff) for coeff in (v.xi1, v.xi2, v.xi3))
    if all(k is not None for k in ks):
        forms = _invariant_linear_forms(ks)
        return SimilarityChart(v, forms[0], forms[1], "linear")

    # rotation pattern: xi1 = c4*y, xi2 = -c4*x, xi3 = c3
    c4 = _constant_of(diff_atom(v.xi1, y))
    c3 = _constant_of(v.xi3)
    if (c4 is None or c3 is None or c4 == 0
            or sub(v.xi1, mul(Num(c4), y)) != ZERO
            or sub(v.xi2, mul(Num(-c4), x)) != ZERO):
        raise UnsupportedGeneratorError("coefficients outside the chart catalog")
    if c3 == 0:
        return SimilarityChart(v, _RADIAL, t, "rotation")
    angular = add(func("atan2", y, x), mul(Num(Fraction(c4, c3)), t))
    return SimilarityChart(v, _RADIAL, angular, "rotation")


def _invariant_linear_forms(ks: tuple[Fraction, Fraction, Fraction]) -> list[Expr]:
    """The first two of: the coordinates with k_i = 0, then x_i - (k_i/k_j) x_j
    for the pairs with k_i, k_j != 0.  For k != 0 these two are independent:
    two coordinates, a coordinate and a form without it, or two forms of
    which only the second has t."""
    coords = (x, y, t)
    forms = [coord for coord, k in zip(coords, ks) if k == 0]
    forms += [sub(coords[i], mul(Num(Fraction(ks[i], ks[j])), coords[j]))
              for i, j in ((0, 1), (0, 2), (1, 2)) if ks[i] != 0 and ks[j] != 0]
    return forms[:2]


# ---------------------------------------------------------------------------
# Chain-rule reduction
# ---------------------------------------------------------------------------

@checked
class ReducedPDE(NamedTuple):
    """Reduced residual over (xi, eta): construction asserts that no base
    coordinate (x, y, t) or base unknown (u, f) survived the rewrite."""

    residual: Expr
    chart: SimilarityChart | None = None

    def _check(self):
        leftovers = [to_text(atom) for atom in atoms(self.residual)
                     if _is_base_atom(atom)]
        if leftovers:
            raise ReductionError(
                f"residual still mentions base-space quantities: {', '.join(leftovers)}")


def _is_base_atom(atom: Expr) -> bool:
    return atom in (x, y, t, u, f) or (isinstance(atom, Jet) and atom.base in (u, f))


def reduce_pde(pde: PDEInstance, chart: SimilarityChart) -> ReducedPDE:
    """Substitute u = h(xi, eta), f = g(xi, eta) into the residual, expand all
    derivatives by the chain rule and rewrite the result over (xi, eta).

    Once the h/g applications are named as reduced jets, x, y and t enter
    only through the gradients of xi and eta.  A linear chart has constant
    gradients, so nothing is left to rewrite.  The radial invariant
    xi = x^2 + y^2 leaves even powers of x and y, and folding y^2 into
    xi - x^2 removes them; the test reads xi, not the ``kind`` label.
    ``ReducedPDE`` rejects any other leftover with ReductionError."""
    reduced = _name_reduced_jets(pde.compose(chart.u_subst, chart.f_subst), chart)
    if chart.xi == _RADIAL:
        reduced = _eliminate_square(reduced, y, sub(XI, pow_(x, 2)))
    return ReducedPDE(reduced, chart)


def _name_reduced_jets(e: Expr, chart: SimilarityChart) -> Expr:
    """Turn h/g applications at the chart arguments into reduced-space jets."""
    args = (chart.xi, chart.eta)
    deps = {H_FN: H_DEP, G_FN: G_DEP}
    slots = (XI, ETA)

    def fn(atom: Expr) -> Expr | None:
        if isinstance(atom, Unknown) and atom.fn in deps and atom.args == args:
            dep = deps[atom.fn]
            if not atom.derivs:
                return dep
            return Jet(dep, tuple(slots[i] for i in atom.derivs))
        return None

    return rebuild(e, fn)


def _eliminate_square(e: Expr, var: Sym, replacement: Expr) -> Expr:
    """Rewrite var^(2k+r) -> replacement^k * var^r throughout, including in
    power bases, so x^2 + y^2 style invariants can be collapsed."""
    def hook(node: Expr) -> Expr | None:
        if isinstance(node, Pow) and node.base == var and node.exp.denominator == 1:
            k, r = divmod(int(node.exp), 2)
            return mul(pow_(replacement, k), pow_(var, r))
        return None

    return rebuild(e, hook)


# ---------------------------------------------------------------------------
# Numeric verification
# ---------------------------------------------------------------------------

class ReductionReport(NamedTuple):
    max_discrepancy: float
    seed: int
    n_functions: int
    n_points: int
    tol: float
    passed: bool


# (i, j) of xi^i eta^j through degree 4, in the order h's and g's c_ij are drawn
_EXPONENTS = tuple((i, j) for i in range(5) for j in range(5 - i))
_BASE = (x, y, t)            # a multi-index counts derivatives along each
_ORIGIN = (0, 0, 0)


def _below(alpha: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(n + 1) for n in alpha))


def _chart_tables(chart: SimilarityChart, betas: list[tuple[int, int, int]],
                  columns: dict, failed: dict[int, EvalError]) -> list[dict]:
    """Jet tables of xi and eta: D^beta at every point for each multi-index
    of ``betas``, each listed after its prefix.  D^beta is taken
    symbolically from its prefix, along its last variable; an exact zero is
    None and never evaluated."""
    derived = {_ORIGIN: (chart.xi, chart.eta)}
    for beta in betas[1:]:
        v = max(k for k in range(3) if beta[k])
        prefix = beta[:v] + (beta[v] - 1,) + beta[v + 1:]
        derived[beta] = tuple(e if e is ZERO else diff_atom(e, _BASE[v])
                              for e in derived[prefix])
    roots = [e for pair in derived.values() for e in pair if e is not ZERO]
    values = dict(zip(roots, eval_batch(roots, columns, errors=failed)))
    return [{beta: values.get(pair[k]) for beta, pair in derived.items()} for k in (0, 1)]


def _leibniz(fs: dict, gs: dict, alphas: Iterable[tuple[int, ...]]) -> dict:
    """The jet table of F*G at ``alphas``, point by point: D^alpha(FG) is the
    sum of C(alpha, beta) D^beta F * D^(alpha - beta) G over beta <= alpha,
    skipping exact zeros (None)."""
    out = {}
    for alpha in alphas:
        parts = []
        for beta in _below(alpha):
            rest = tuple(map(operator.sub, alpha, beta))
            if fs[beta] is not None and gs[rest] is not None:
                part = list(map(operator.mul, fs[beta], gs[rest]))
                c = math.prod(map(math.comb, alpha, beta))
                parts.append(part if c == 1 else [c * v for v in part])
        out[alpha] = list(map(sum, zip(*parts))) if parts else None
    return out


def _dots(weights: list, rows: list) -> list[float]:
    """Per point the ``math.fsum`` of weights * row, mapped in C; nan where a
    partial sum leaves the double range or is inf - inf."""
    try:
        return list(map(math.fsum, map(map, itertools.repeat(operator.mul), weights, rows)))
    except (OverflowError, ValueError):
        return [math.nan if len(rows) == 1 else _dots([w], [r])[0] for w, r in zip(weights, rows)]


def _flagged(column: list[float], failed: dict[int, EvalError]) -> list[float]:
    """``column``; a point where it is not finite fails with the overflow error."""
    for p in [p for p, value in enumerate(column) if not math.isfinite(value)]:
        failed.setdefault(p, EvalError(OVERFLOW))
    return column


def _draws(seed: int, n_functions: int, n_points: int) -> tuple[list, list, list]:
    """``verify_reduction``'s weights of h and g and its points: the numbers
    ``randint(-3, 3)`` and ``uniform`` give, drawn as they draw them: the
    rejection loop of ``random._randbelow(7)``, and lo + (hi - lo) * random()."""
    rng = random.Random(seed)
    weights = (r - 3 for r in iter(functools.partial(rng.getrandbits, 3), None) if r < 7)
    hs, gs, points = [], [], []
    for _ in range(n_functions):
        for ws in (hs, gs):             # c_ij in the order of _EXPONENTS, c_00 first
            ws.append([next(weights) + (k == 0) for k in range(len(_EXPONENTS))])
        points += [[0.6 + 1.4 * rng.random(), 0.6 + 1.4 * rng.random(), 0.6 + 1.4 * rng.random(),
                    0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random()] for _ in range(n_points)]
    return hs, gs, points


def verify_reduction(pde: PDEInstance, chart: SimilarityChart,
                     reduced: ReducedPDE | Expr, *, seed: int = 0,
                     n_functions: int = 10, n_points: int = 20,
                     tol: float = 1e-7) -> ReductionReport:
    """Numeric cross-check of a reduction candidate: the largest |original
    residual at x0 with u = h(xi, eta), f = g(xi, eta) - candidate at the
    chart's image (xi0, eta0)| over random polynomial h, g and points x0;
    rounding noise of 0 to 1e-10 for a correct reduction.

    The chain rule runs in forward mode on Taylor coefficients (Griewank and
    Walther, Evaluating Derivatives, 2nd ed., ch. 13).  h = sum of
    c_ij xi^i eta^j has degree 4, so its expansion at (xi0, eta0) is exact,
    h = sum of T_pq (xi - xi0)^p (eta - eta0)^q with T_pq = sum of
    c_ij C(i, p) C(j, q) xi0^(i-p) eta0^(j-q), and D^beta of a centred
    power vanishes at x0 for p + q > |beta|.  So D^beta u is the sum of
    T_pq D^beta[(xi - xi0)^p (eta - eta0)^q] over p + q <= |beta| (u is
    T_00), and the candidate's D_xi^p D_eta^q h is p! q! T_pq (g and the
    f-jets alike).  Each T_pq is one ``math.fsum`` per point, shared by both
    sides.  The centred powers' jets come by the Leibniz rule from D^beta xi
    and D^beta eta, each derived symbolically once, from its prefix; an
    exact zero is never evaluated.  ``random.Random(seed)`` draws, per
    function, 15 ``randint(-3, 3)`` for h (plus 1 on c_00), 15 for g, then
    per point ``uniform(0.6, 2.0)`` for x, y, t and ``uniform(0.5, 2.0)`` for
    a, b.  The earliest failing point raises the error of the original side
    (the chart's jets, a jet beyond the double range, the residual), else of
    the candidate's jets, else of the candidate.
    """
    candidate = reduced.residual if isinstance(reduced, ReducedPDE) else reduced
    hs, gs, points = _draws(seed, n_functions, n_points)
    px, py, pt, pa, pb = zip(*points) if points else [()] * 5
    columns = {x: px, y: py, t: pt, A_SYM: pa, B_SYM: pb}
    # per point: original jets, residual, candidate jets, candidate; the first of them raises
    failed: list[dict[int, EvalError]] = [{}, {}, {}, {}]
    # the residual's u- and f-jets as multi-indices, and all below them by order
    jets = {atom: (atom, _ORIGIN) if isinstance(atom, Sym) else
            (atom.base, tuple(map(atom.indices.count, _BASE)))
            for atom in atoms(pde.residual) if _is_base_atom(atom) and atom not in _BASE}
    betas = sorted({_ORIGIN}.union(*(_below(beta) for _, beta in jets.values())),
                   key=lambda beta: (sum(beta), beta))
    tops, order = {beta for _, beta in jets.values()}, sum(betas[-1])
    xis, etas = _chart_tables(chart, betas, columns, failed[0])
    xi0, eta0 = xis[_ORIGIN], etas[_ORIGIN]
    # (xi - xi0)^p (eta - eta0)^q; the mixed and highest ones at the residual's jets only
    one = {**dict.fromkeys(betas), _ORIGIN: [1.0] * len(points)}
    powers = [[one, {**table, _ORIGIN: None}] for table in (xis, etas)]
    for p in range(2, order + 1):
        for pows in powers:
            pows.append(_leibniz(pows[-1], pows[1], betas if p < order else tops))
    centred = {(p, q): powers[1][q] if p == 0 else powers[0][p] if q == 0 else
               _leibniz(powers[0][p], powers[1][q], tops)
               for p in range(order + 1) for q in range(order + 1 - p)}
    plain = {(0, 0): one[_ORIGIN]}                       # xi0^i eta0^j
    for i, j in _EXPONENTS[1:]:
        plain[i, j] = list(map(operator.mul, *((plain[i, j - 1], eta0) if j else
                                               (plain[i - 1, 0], xi0))))

    @functools.cache
    def taylor(of_h: bool, p: int, q: int) -> list[float]:
        # T_pq at every point, once per weight table: hs for u and h, gs for f and g
        kept = [(k, math.comb(i, p) * math.comb(j, q), plain[i - p, j - q])
                for k, (i, j) in enumerate(_EXPONENTS) if i >= p and j >= q]
        picked = [[w[k] * c for k, c, _ in kept] for w in (hs if of_h else gs)]
        return _dots([w for w in picked for _ in range(n_points)],
                     list(zip(*[column for _, _, column in kept])))

    for atom, (dep, beta) in jets.items():
        pairs = [(taylor(dep == u, p, q), table[beta]) for (p, q), table in centred.items()
                 if p + q <= sum(beta) and table[beta] is not None]
        ts, ds = zip(*pairs) if pairs else ([[0.0] * len(points)],) * 2
        columns[atom] = _flagged(_dots(list(zip(*ts)), list(zip(*ds))), failed[0])
    (lhs,) = eval_batch([pde.residual], columns, errors=failed[1])

    columns = {XI: xi0, ETA: eta0, A_SYM: pa, B_SYM: pb}
    for atom in atoms(candidate):
        dep, indices = (atom.base, atom.indices) if isinstance(atom, Jet) else (atom, ())
        if dep in (H_DEP, G_DEP):
            p, q = indices.count(XI), indices.count(ETA)
            # 0 along any other variable, and beyond degree 4, which h and g lack
            col = taylor(dep == H_DEP, p, q) if p + q == len(indices) <= 4 else [0.0] * len(points)
            scale = math.factorial(p) * math.factorial(q)
            columns[atom] = _flagged([scale * v for v in col], failed[2])
    (rhs,) = eval_batch([candidate], columns, errors=failed[3])
    failing = set().union(*failed)
    if failing:
        p = min(failing)
        raise next(stage[p] for stage in failed if p in stage)
    worst = max(map(abs, map(operator.sub, lhs, rhs)), default=0.0)
    return ReductionReport(worst, seed, n_functions, n_points, tol, worst < tol)


# ---------------------------------------------------------------------------
# Published-table audit
# ---------------------------------------------------------------------------

_PUBLISHED_ROWS = (
    ("X1", "y", "t",
     "h_etaeta - a*h_xixieta - a*h_etaetaeta - b*h_xixi - b*h_etaeta - g"),
    ("X2", "x", "t",
     "h_etaeta - a*h_xixieta - a*h_etaetaeta - b*h_xixi - b*h_etaeta - g"),
    ("X3", "x", "y",
     "h_etaeta - a*h_xixieta - a*h_etaetaeta - b*h_xixi - b*h_etaeta - g"),
    ("X1 + X3", "x - t", "y",
     "h_xixi + a*h_xixieta + a*h_etaetaxi + a*h_xixixi"
     " - b*h_xixi - b*h_etaeta - b*h_xixi - g"),
    ("X2 + X3", "x", "y - t",
     "h_etaeta + a*h_xixieta + a*h_etaetaeta + a*h_etaetaeta"
     " - b*h_xixi - b*h_xixi - b*h_etaeta - b*h_etaeta - g"),
)


def published_similarity_rows() -> tuple[tuple[str, Expr, Expr], ...]:
    """The published similarity-variable rows (generator, xi, eta), with
    u = h(xi, eta) and f = g(xi, eta) in every row; parsed once per process."""
    return _published()[0]


def published_reduction_rows() -> tuple[tuple[str, Expr], ...]:
    """The five published reduced equations (rows 1-3 are printed
    identically), parsed over (xi, eta) once per process."""
    return _published()[1]


@functools.cache
def _published() -> tuple[tuple[tuple[str, Expr, Expr], ...], tuple[tuple[str, Expr], ...]]:
    base, reduced = base_space(), reduced_space()
    return (tuple((label, base.parse(xi_text), base.parse(eta_text))
                  for label, xi_text, eta_text, _ in _PUBLISHED_ROWS),
            tuple((label, reduced.parse(text)) for label, _, _, text in _PUBLISHED_ROWS))


class ReductionAuditRow(NamedTuple):
    row: int
    generator: str
    derived: Expr
    published: Expr
    match: bool
    diff_terms: tuple[str, ...]


def audit_reduction_table(pde: PDEInstance | None = None) -> list[ReductionAuditRow]:
    """Compare the tool's chain-rule reductions against the published rows,
    term by term, in the published chart orientation (so differences are
    real discrepancies, not coordinate relabelings).  The rows' a and b are
    bound to pde's coefficients of -u_xxt and -u_xx, so a pde with numeric
    a and b is compared with the rows at the same values."""
    if pde is None:
        pde = viscoelastic_pde()
    params = {A_SYM: neg(diff_atom(pde.residual, Jet(u, (x, x, t)))),
              B_SYM: neg(diff_atom(pde.residual, Jet(u, (x, x))))}
    rows = published_reduction_rows()
    charts = published_similarity_rows()
    out = []
    for i, ((label, published), (_, chart_xi, chart_eta)) in \
            enumerate(zip(rows, charts), start=1):
        chart = SimilarityChart(parse_basis_combination(label),
                                chart_xi, chart_eta, "linear")
        derived = reduce_pde(pde, chart).residual
        published = substitute(published, params)
        delta = sub(derived, published)
        terms = delta.terms if isinstance(delta, Add) else ((delta,) if delta != ZERO else ())
        out.append(ReductionAuditRow(
            i, label, derived, published, delta == ZERO,
            tuple(to_text(term) for term in terms)))
    return out
