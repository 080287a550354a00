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

from dataclasses import dataclass
from fractions import Fraction

from .expr import (Add, EvalError, Expr, ExprError, Jet, Num, Pow, Sym, Unknown,
                   UnknownFn, ZERO, add, atoms, bind_jets, diff_atom,
                   eval_batch, func, mul, neg, numerator, pow_, rebuild, sub,
                   substitute, substitute_functions, to_text, unknown)
from .spaces import (a as A_SYM, b as B_SYM, base_space, eta as ETA,
                     reduced_space, xi as XI, h as H_DEP, g as G_DEP,
                     t, u, f, x, y)
from .vector_fields import (Generator, PDEInstance, parse_basis_combination,
                            viscoelastic_pde)

__all__ = [
    "SimilarityChart", "ReducedPDE", "ReductionReport",
    "UnsupportedGeneratorError", "ReductionError",
    "characteristic_invariants", "reduce_pde", "verify_reduction",
    "published_reduction_rows", "audit_reduction_table", "ReductionAuditRow",
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


@dataclass(frozen=True)
class SimilarityChart:
    """Invariant coordinates of a generator, with u = h(xi, eta) and
    f = g(xi, eta).

    Construction checks V(xi) = V(eta) = 0 symbolically, with the sums in
    their denominators cleared, and that the map (x, y, t) -> (xi, eta) has
    rank 2 at five sampled points.
    """

    generator: Generator
    xi: Expr
    eta: Expr
    kind: str                         # "linear" | "rotation"; a label only
    u_subst: Expr = None              # type: ignore[assignment]
    f_subst: Expr = None              # type: ignore[assignment]

    def __post_init__(self):
        for name, inv in (("xi", self.xi), ("eta", self.eta)):
            applied = self.generator.apply(inv)
            if numerator(applied) is not ZERO:
                raise ExprError(f"{name} is not invariant: V({name}) = {to_text(applied)}")
        self._check_rank()
        object.__setattr__(self, "u_subst", unknown(H_FN, (), (self.xi, self.eta)))
        object.__setattr__(self, "f_subst", unknown(G_FN, (), (self.xi, self.eta)))

    def _check_rank(self, seed: int = 7, points: int = 5):
        import numpy as np  # on first use: most subcommands never need it
        entries = [diff_atom(inv, v) for inv in (self.xi, self.eta) for v in (x, y, t)]
        rng = np.random.default_rng(seed)
        # positive box: keeps clear of the rotation-chart axis and branch cut
        samples = [rng.uniform(0.5, 2.0, size=3).tolist() for _ in range(points)]
        failed: dict[int, EvalError] = {}
        values = eval_batch(entries, dict(zip((x, y, t), zip(*samples))), errors=failed)
        for k in range(points):
            if k in failed:
                raise failed[k]
            jac = np.array([column[k] for column in values]).reshape(2, 3)
            if np.linalg.svd(jac, compute_uv=False)[1] <= 1e-9:
                raise ExprError("the invariant map does not have rank 2")

    def point(self, px: float, py: float, pt: float) -> tuple[float, float]:
        xi, eta = eval_batch((self.xi, self.eta), {x: [px], y: [py], t: [pt]})
        return xi[0], eta[0]


def _constant_of(e: Expr) -> Fraction | None:
    if isinstance(e, Num):
        return e.value
    return None


def characteristic_invariants(v: Generator) -> SimilarityChart:
    """Two functionally independent invariants of a catalog generator.

    Constant-coefficient case: coordinate functions whose coefficient
    vanishes are preferred, in the order x, y, t; the list is completed by
    differences x_i - (k_i/k_j) x_j for coefficient pairs, until two
    independent linear forms are found.
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
    coords = (x, y, t)
    forms: list[tuple[Expr, tuple[Fraction, ...]]] = []

    def try_add(form: Expr, vec: tuple[Fraction, ...]):
        if len(forms) == 2:
            return
        if forms:
            (_, prev) = forms[0]
            # 2x3 rank check via the three 2x2 minors
            if all(prev[i] * vec[j] - prev[j] * vec[i] == 0
                   for i in range(3) for j in range(i + 1, 3)):
                return
        forms.append((form, vec))

    for i, coord in enumerate(coords):
        if ks[i] == 0:
            vec = tuple(Fraction(int(j == i)) for j in range(3))
            try_add(coord, vec)
    for i in range(3):
        for j in range(i + 1, 3):
            if ks[i] != 0 and ks[j] != 0:
                ratio = Fraction(ks[i], ks[j])
                form = sub(coords[i], mul(Num(ratio), coords[j]))
                vec = tuple(Fraction(1) if m == i else (-ratio if m == j else Fraction(0))
                            for m in range(3))
                try_add(form, vec)
    if len(forms) != 2:
        raise UnsupportedGeneratorError("could not build two independent invariants")
    return [form for form, _ in forms]


# ---------------------------------------------------------------------------
# Chain-rule reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedPDE:
    """Reduced residual over (xi, eta): construction asserts that no base
    coordinate (x, y, t) or base unknown (u, f) survived the rewrite."""

    residual: Expr
    chart: SimilarityChart | None = None

    def __post_init__(self):
        leftovers = [to_text(atom) for atom in atoms(self.residual)
                     if _is_base_atom(atom)]
        if leftovers:
            raise ReductionError(
                f"residual still mentions base-space quantities: {', '.join(leftovers)}")


def _is_base_atom(atom: Expr) -> bool:
    if isinstance(atom, Sym):
        return atom in (x, y, t, u, f)
    if isinstance(atom, Jet):
        return atom.base in (u, f)
    return False


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

@dataclass(frozen=True)
class ReductionReport:
    max_discrepancy: float
    seed: int
    n_functions: int
    n_points: int
    tol: float
    passed: bool


# (i, j) of xi^i * eta^j, dense through degree 4, in the order the random
# coefficients are drawn
_EXPONENTS = tuple((i, j) for i in range(5) for j in range(5 - i))


def _random_coefficients(rng) -> list[Fraction]:
    """Coefficients over _EXPONENTS of a random bivariate polynomial: one
    integer in [-3, 3] per monomial, plus 1 on the constant to keep it
    nonzero."""
    coeffs = [Fraction(int(rng.integers(-3, 4))) for _ in _EXPONENTS]
    coeffs[_EXPONENTS.index((0, 0))] += 1
    return coeffs


def _combine(coeffs: list[Fraction], images: list[Expr]) -> list[Expr]:
    return [mul(Num(c), image) for c, image in zip(coeffs, images) if c]


def verify_reduction(pde: PDEInstance, chart: SimilarityChart,
                     reduced: ReducedPDE | Expr, *, seed: int = 0,
                     n_functions: int = 10, n_points: int = 20,
                     tol: float = 1e-7) -> ReductionReport:
    """Numeric cross-check of a reduction candidate.

    For random polynomial h, g: evaluate the original residual with
    u = h(xi(x,y,t), eta(x,y,t)), f = g(...) (all derivatives by the chain
    rule) at random base points, and the candidate residual at the mapped
    (xi, eta) points; report the largest absolute discrepancy.

    The original residual is affine in (u, f), which ``PDEInstance`` checks
    at construction.  So the chain rule runs once per call, on the images of
    the 15 monomials M_k = xi^i * eta^j pulled back through the chart:
    base = compose(0, 0), U_k = compose(M_k, 0) - base and
    F_k = compose(0, M_k) - base.  For h = sum c_k M_k and g = sum d_k M_k
    the original residual is then base + sum c_k U_k + sum d_k F_k, the same
    canonical tree as composing h and g directly.  The random integers and
    sample points are drawn in the same order as by composing each function,
    so a seed gives the same functions, points and discrepancy.  The
    candidate side is bound function by function, since a candidate need not
    be linear.
    """
    candidate = reduced.residual if isinstance(reduced, ReducedPDE) else reduced
    monomials = [mul(pow_(XI, i), pow_(ETA, j)) for i, j in _EXPONENTS]
    base = pde.compose(ZERO, ZERO)
    u_images, f_images = [], []
    for mono in monomials:
        pulled = substitute_functions(chart.u_subst, {H_FN: mono})
        u_images.append(sub(pde.compose(pulled, ZERO), base))
        f_images.append(sub(pde.compose(ZERO, pulled), base))
    import numpy as np
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_functions):
        hcoeffs = _random_coefficients(rng)
        gcoeffs = _random_coefficients(rng)
        original = add(base, *_combine(hcoeffs, u_images), *_combine(gcoeffs, f_images))
        hbody = add(*_combine(hcoeffs, monomials))
        gbody = add(*_combine(gcoeffs, monomials))

        reduced_expr = bind_jets(candidate, {H_DEP: hbody, G_DEP: gbody})

        points = [(rng.uniform(0.6, 2.0, size=3).tolist(),
                   rng.uniform(0.5, 2.0, size=2).tolist()) for _ in range(n_points)]
        base_columns = dict(zip((x, y, t), zip(*(xyz for xyz, _ in points))))
        params = dict(zip((A_SYM, B_SYM), zip(*(ab for _, ab in points))))
        # per point the original side, then the chart, then the candidate
        # side; the earliest point with a failure raises the first of them
        failed: list[dict[int, EvalError]] = [{}, {}, {}]
        (lhs,) = eval_batch([original], base_columns | params, errors=failed[0])
        cxi, ceta = eval_batch([chart.xi, chart.eta], base_columns, errors=failed[1])
        (rhs,) = eval_batch([reduced_expr], {XI: cxi, ETA: ceta} | params, errors=failed[2])
        for k in range(n_points):
            for stage in failed:
                if k in stage:
                    raise stage[k]
            worst = max(worst, abs(lhs[k] - rhs[k]))
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
    """The published similarity-variable rows: (generator, xi, eta); the
    dependent-variable columns are u = h(xi, eta) and f = g(xi, eta) in
    every row."""
    sp = base_space()
    return tuple((label, sp.parse(xi_text), sp.parse(eta_text))
                 for label, xi_text, eta_text, _ in _PUBLISHED_ROWS)


def published_reduction_rows() -> tuple[tuple[str, Expr], ...]:
    """The five published reduced equations (rows 1-3 are printed
    identically), parsed over (xi, eta)."""
    sp = reduced_space()
    return tuple((label, sp.parse(text)) for label, _, _, text in _PUBLISHED_ROWS)


@dataclass(frozen=True)
class ReductionAuditRow:
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
