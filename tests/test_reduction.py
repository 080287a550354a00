"""Similarity charts, chain-rule reduction and the published-table audit."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from viscosym.expr import (Add, DomainEvalError, EvalError, ExprError, Jet, Mul, Num,
                           Pow, Sym, Unknown, UnknownFn, ZERO, add, atoms, diff_atom,
                           eval_numeric, mul, numerator, pow_, sub, substitute,
                           substitute_functions, to_text, total_derivative)
from viscosym.reduction import (G_FN, H_FN, ReducedPDE, ReductionError,
                                SimilarityChart, _draws, _invariant_linear_forms,
                                _second_singular_value,
                                UnsupportedGeneratorError,
                                audit_reduction_table,
                                characteristic_invariants,
                                published_reduction_rows,
                                published_similarity_rows, reduce_pde,
                                verify_reduction)
from viscosym.spaces import (a, b, base_space, eta, f, g, h, reduced_space, t,
                             u, x, xi, y)
from viscosym.vector_fields import (Generator, PDEInstance,
                                    general_ansatz, invariance_residual,
                                    parse_basis_combination, standard_basis)

REDUCED = reduced_space()
BASE = base_space()


def normalized_form(e):
    """Scale a linear form so its first nonzero coefficient is +1."""
    lead = e.terms[0] if isinstance(e, Add) else e
    coeff = lead.coeff if isinstance(lead, Mul) else Fraction(1)
    return mul(Num(Fraction(1, coeff)), e)


def reference_invariant_linear_forms(ks):
    """The rank-checked search that ``_invariant_linear_forms`` replaced: a
    candidate form is kept only if its coefficient vector is independent of
    the first one kept, until two are kept."""
    coords = (x, y, t)
    forms = []

    def try_add(form, vec):
        if len(forms) == 2:
            return
        if forms:
            (_, prev) = forms[0]
            if all(prev[i] * vec[j] - prev[j] * vec[i] == 0
                   for i in range(3) for j in range(i + 1, 3)):
                return
        forms.append((form, vec))

    for i, coord in enumerate(coords):
        if ks[i] == 0:
            try_add(coord, tuple(Fraction(int(j == i)) for j in range(3)))
    for i in range(3):
        for j in range(i + 1, 3):
            if ks[i] != 0 and ks[j] != 0:
                ratio = Fraction(ks[i], ks[j])
                form = sub(coords[i], mul(Num(ratio), coords[j]))
                vec = tuple(Fraction(1) if m == i else (-ratio if m == j else Fraction(0))
                            for m in range(3))
                try_add(form, vec)
    assert len(forms) == 2
    return [form for form, _ in forms]


class TestCharts:
    def test_linear_forms_match_the_rank_checked_search(self):
        values = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-5, 3)]
        triples = [ks for ks in itertools.product(values, repeat=3) if any(ks)]
        assert len(triples) == 728
        for ks in triples:
            assert _invariant_linear_forms(ks) == reference_invariant_linear_forms(ks), ks

    def test_published_similarity_rows(self):
        # tool charts match the published rows up to sign/ordering of forms
        for label, pub_xi, pub_eta in published_similarity_rows():
            chart = characteristic_invariants(parse_basis_combination(label))
            got = {to_text(normalized_form(inv)) for inv in (chart.xi, chart.eta)}
            want = {to_text(normalized_form(inv)) for inv in (pub_xi, pub_eta)}
            assert got == want, label
        # a form led by an integer coefficient other than 1
        assert normalized_form(BASE.parse("2*x - t")) is BASE.parse("x - 1/2*t")

    def test_invariance_is_symbolic(self):
        cases = ["X1", "X2", "X3", "X1 + X3", "X2 + X3", "X4",
                 "X4 + 2*X3", "2*X1 + 3*X2 + X3", "X1 + X2"]
        for label in cases:
            gen = parse_basis_combination(label)
            chart = characteristic_invariants(gen)
            assert numerator(gen.apply(chart.xi)) is ZERO
            assert numerator(gen.apply(chart.eta)) is ZERO

    @pytest.mark.parametrize("eta_text", ["atan2(y, x) + 2*t", "atan2(y, x) - t",
                                          "atan2(y, x)"])
    def test_chart_rejects_a_non_invariant(self, eta_text):
        # V(atan2(y, x)) = -(x^2 + y^2)/(x^2 + y^2) under X4, so only + t
        # cancels it; the check must clear that denominator, not skip it
        gen = parse_basis_combination("X4 + X3")
        with pytest.raises(ExprError, match="eta is not invariant"):
            SimilarityChart(gen, BASE.parse("x^2 + y^2"), BASE.parse(eta_text), "rotation")

    def test_chart_accepts_the_rotation_invariant(self):
        gen = parse_basis_combination("X4 + X3")
        eta_ = BASE.parse("atan2(y, x) + t")
        chart = SimilarityChart(gen, BASE.parse("x^2 + y^2"), eta_, "rotation")
        assert chart.eta is eta_ and chart == characteristic_invariants(gen)

    def test_chart_clears_quotients_nested_in_sums(self):
        # V = p*dx + q*dt with p = (x + y)/(x + y + 1) and q = 1/(1 + 1/(x + y)):
        # p = q, so V(x - t) = p - q is zero, but only after two clearing passes
        p, q = BASE.parse("(x + y)/(x + y + 1)"), BASE.parse("1/(1 + 1/(x + y))")
        chart = SimilarityChart(Generator(xi1=p, xi3=q), y, BASE.parse("x - t"), "linear")
        assert chart.eta is BASE.parse("x - t")
        with pytest.raises(ExprError, match="eta is not invariant"):
            SimilarityChart(Generator(xi1=p, xi3=add(q, BASE.parse("1/(x + y)"))), y,
                            BASE.parse("x - t"), "linear")

    def test_rotation_chart(self):
        chart = characteristic_invariants(standard_basis()[3])
        assert chart.xi == BASE.parse("x^2 + y^2")
        assert chart.eta == t

    def test_rotation_with_time_translation(self):
        chart = characteristic_invariants(parse_basis_combination("X4 + 2*X3"))
        assert chart.xi == BASE.parse("x^2 + y^2")
        assert chart.eta == add(BASE.parse("atan2(y, x)"), mul(Num(Fraction(1, 2)), t))

    def test_unsupported_generators(self):
        with pytest.raises(UnsupportedGeneratorError):
            characteristic_invariants(Generator())                   # zero field
        with pytest.raises(UnsupportedGeneratorError):
            characteristic_invariants(Generator(xi1=x))              # x d/dx
        with pytest.raises(UnsupportedGeneratorError):
            characteristic_invariants(standard_basis()[4])           # u, f components
        with pytest.raises(UnsupportedGeneratorError):
            characteristic_invariants(
                parse_basis_combination("X4 + X1"))   # rotation plus x-translation

    def test_dependent_invariants_rejected(self):
        with pytest.raises(Exception, match="rank"):
            SimilarityChart(parse_basis_combination("X3"), x, mul(Num(Fraction(2)), x),
                            "linear")


UNIT = st.floats(-1.0, 1.0)
DECADE = st.floats(-12.0, 3.0)


class TestRankGate:
    """The closed-form sigma_2 of the chart rank gate against numpy's SVD:
    the same "sigma_2 <= 1e-9 rejects" verdict wherever the SVD's sigma_2 is
    more than 10x away from 1e-9, and the same value to 1e-12 * sigma_1."""

    @staticmethod
    def check(jac):
        sigma1, sigma2 = np.linalg.svd(np.reshape(jac, (2, 3)), compute_uv=False)
        got = _second_singular_value(jac)
        assert abs(got - sigma2) <= 1e-12 * sigma1
        if not 1e-10 <= sigma2 <= 1e-8:
            assert (got <= 1e-9) == (sigma2 <= 1e-9)

    @given(st.lists(UNIT, min_size=6, max_size=6), DECADE)
    def test_random_matrices(self, entries, decade):
        self.check([10.0 ** decade * e for e in entries])

    @given(st.lists(UNIT, min_size=2, max_size=2), st.lists(UNIT, min_size=3, max_size=3),
           DECADE)
    def test_rank_one_products(self, col, row, decade):
        # rank 1 exactly, so only rounding separates sigma_2 from 0
        self.check([10.0 ** decade * c * r for c in col for r in row])

    def test_fixed_cases(self):
        for jac in ([0.0] * 6, [1, 0, 0, 0, 1, 0], [1, 2, 3, 2, 4, 6],
                    [1e200, 0, 0, 0, 1e200, 0], [1e-300, 0, 0, 0, 0, 0]):
            self.check([float(v) for v in jac])

    def test_chart_gate_is_at_1e_9(self):
        # xi = x, eta = x + c*y has sigma_2 = c/sqrt(2) + O(c^2) everywhere
        gen = parse_basis_combination("X3")
        SimilarityChart(gen, x, BASE.parse("x + 10^-8*y"), "linear")
        with pytest.raises(ExprError, match="rank 2"):
            SimilarityChart(gen, x, BASE.parse("x + 10^-10*y"), "linear")


GOLDEN_REDUCTIONS = {
    # frozen from the chain rule; verify_reduction cross-checks numerically
    "X1": "h_etaeta - a*h_xixieta - b*h_xixi - g",
    "X2": "h_etaeta - a*h_xixieta - b*h_xixi - g",
    "X3": "-b*h_xixi - b*h_etaeta - g",
    "X1 + X3": "h_etaeta + a*h_xixieta + a*h_etaetaeta - b*h_xixi - b*h_etaeta - g",
    "X2 + X3": "h_etaeta + a*h_xixieta + a*h_etaetaeta - b*h_xixi - b*h_etaeta - g",
    "X4": "h_etaeta - 4*a*xi*h_xixieta - 4*a*h_xieta - 4*b*xi*h_xixi - 4*b*h_xi - g",
}


class TestReduce:
    @pytest.mark.parametrize("label", list(GOLDEN_REDUCTIONS))
    def test_golden_reductions(self, pde, label):
        chart = characteristic_invariants(parse_basis_combination(label))
        reduced = reduce_pde(pde, chart)
        assert reduced.residual == REDUCED.parse(GOLDEN_REDUCTIONS[label]), label

    @pytest.mark.parametrize("label", list(GOLDEN_REDUCTIONS))
    def test_numeric_verification(self, pde, label):
        chart = characteristic_invariants(parse_basis_combination(label))
        reduced = reduce_pde(pde, chart)
        report = verify_reduction(pde, chart, reduced, seed=1,
                                  n_functions=4, n_points=8)
        assert report.passed, f"{label}: {report.max_discrepancy}"

    def test_rotation_with_translation_reduces(self, pde):
        chart = characteristic_invariants(parse_basis_combination("X4 + 2*X3"))
        reduced = reduce_pde(pde, chart)
        report = verify_reduction(pde, chart, reduced, seed=2,
                                  n_functions=4, n_points=8)
        assert report.passed

    def test_reduced_pde_is_linear_in_h_and_g(self, pde):
        for label in GOLDEN_REDUCTIONS:
            chart = characteristic_invariants(parse_basis_combination(label))
            residual = reduce_pde(pde, chart).residual
            for term in (residual.terms if isinstance(residual, Add) else (residual,)):
                factors = term.factors if isinstance(term, Mul) else (term,)
                degree = 0
                for factor in factors:
                    base = factor.base if isinstance(factor, Pow) else factor
                    exp = factor.exp if isinstance(factor, Pow) else 1
                    if base in (h, g) or (isinstance(base, Jet) and base.base in (h, g)):
                        degree += exp
                assert degree == 1, to_text(term)

    def test_completeness_guard(self):
        with pytest.raises(ReductionError, match="base-space"):
            ReducedPDE(mul(x, Jet(h, (xi,))))

    def test_chart_independence(self, pde):
        # the same generator with swapped/sign-flipped invariants gives a
        # reduction that passes the same numeric verification
        gen = parse_basis_combination("X1 + X3")
        alt = SimilarityChart(gen, BASE.parse("x - t"), y, "linear")
        mine = characteristic_invariants(gen)
        for chart in (alt, mine):
            reduced = reduce_pde(pde, chart)
            report = verify_reduction(pde, chart, reduced, seed=5,
                                      n_functions=4, n_points=8)
            assert report.passed
        flipped = SimilarityChart(gen, BASE.parse("t - x"), y, "linear")
        reduced = reduce_pde(pde, flipped)
        assert verify_reduction(pde, flipped, reduced, seed=5,
                                n_functions=4, n_points=8).passed

    def test_chart_outside_catalog_raises(self, pde):
        # y^2 is invariant under X3, but its gradient is not constant and it
        # is not the radial invariant, so y survives the chain rule
        for kind in ("linear", "rotation"):
            chart = SimilarityChart(parse_basis_combination("X3"), x,
                                    pow_(y, 2), kind)
            with pytest.raises(ReductionError, match="base-space quantities: y"):
                reduce_pde(pde, chart)

    def test_kind_label_does_not_choose_the_rewrite(self, pde):
        rotation = characteristic_invariants(standard_basis()[3])
        relabelled = SimilarityChart(rotation.generator, rotation.xi,
                                     rotation.eta, "linear")
        assert reduce_pde(pde, relabelled).residual == reduce_pde(pde, rotation).residual


CATALOG = ["X1", "X2", "X3", "X1 + X3", "X2 + X3", "2*X1 - 3*X2 + X3", "X4",
           "X4 + 2*X3"]


def reference_compose(pde, u_expr, f_expr):
    """PDEInstance.compose as it was before bind_jets."""
    bindings = {u: u_expr, f: f_expr}
    for atom in atoms(pde.residual):
        if isinstance(atom, Jet) and atom.base == u:
            out = u_expr
            for ix in atom.indices:
                out = total_derivative(out, ix)
            bindings[atom] = out
    return substitute(pde.residual, bindings)


def reference_bind_reduced(candidate, hbody, gbody):
    """The candidate with h, g and their jets bound to the bodies and their
    partial derivatives, each jet by repeated diff_atom over (xi, eta)."""
    bindings = {}
    for atom in atoms(candidate):
        if isinstance(atom, Sym) and atom in (h, g):
            bindings[atom] = hbody if atom == h else gbody
        elif isinstance(atom, Jet) and atom.base in (h, g):
            expr = hbody if atom.base == h else gbody
            for ix in atom.indices:
                expr = diff_atom(expr, ix)
            bindings[atom] = expr
    return substitute(candidate, bindings)


def catalog_charts():
    charts = [characteristic_invariants(parse_basis_combination(label))
              for label in CATALOG]
    charts += [SimilarityChart(parse_basis_combination(label), cxi, ceta, "linear")
               for label, cxi, ceta in published_similarity_rows()]
    return charts


class TestBindJets:
    """compose binds u, f and their jets term by term, and builds the tree
    that one ``substitute`` of the residual builds."""

    def test_compose_matches_reference(self, pde):
        mono = mul(pow_(xi, 2), eta)
        for chart in catalog_charts():
            pulled = substitute_functions(chart.u_subst, {H_FN: mono})
            for u_expr, f_expr in ((chart.u_subst, chart.f_subst),
                                   (pulled, ZERO), (ZERO, pulled)):
                assert (pde.compose(u_expr, f_expr)
                        == reference_compose(pde, u_expr, f_expr)), to_text(chart.xi)

    def test_bodies_that_name_each_other_bind_at_once(self, pde):
        # u = f and f = u bind simultaneously: the residual with u and f swapped
        assert pde.compose(f, u) == BASE.parse(
            "f_tt - a*f_xxt - a*f_yyt - b*f_xx - b*f_yy - u")

    def test_opaque_arguments_are_bound(self, pde):
        # compose binds f_x inside F's arguments; going on shell does not
        fn = UnknownFn("F", (x, y))
        space = BASE.with_unknowns(fn)
        opaque = PDEInstance(space.parse("u_tt - f + F(x, f_x)"))
        composed = opaque.compose(ZERO, space.parse("x*y*t"))
        assert composed == space.parse("-x*y*t + F(x, y*t)")
        residual = invariance_residual(general_ansatz()[0], pde)
        applications = [atom for atom in atoms(residual) if isinstance(atom, Unknown)]
        assert applications
        assert all(app.args == (x, y, t, u, f) for app in applications)


def test_bind_jets_shares_index_prefixes(monkeypatch, pde):
    # u_xx, u_yy, u_tt, u_xxt and u_yyt need D along the prefixes x, xx,
    # xxt, y, yy, yyt, t and tt: 8 derivatives, where deriving each jet
    # from the body takes 12
    import viscosym.vector_fields as V
    directions = []

    def counting(e, v, real=V.total_derivative):
        directions.append(v.name)
        return real(e, v)

    monkeypatch.setattr(V, "total_derivative", counting)
    body = BASE.parse("x^2*y*t + sin(x - t)*y^3")
    composed = pde.compose(body, ZERO)
    assert len(directions) == 8
    assert sorted(directions) == ["t"] * 4 + ["x"] * 2 + ["y"] * 2
    monkeypatch.undo()
    assert composed == reference_compose(pde, body, ZERO)


def reference_max_discrepancy(pde, chart, candidate, seed, n_functions, n_points):
    """verify_reduction as it was before the monomial images: both random
    polynomials are composed with the chart and run through the chain rule
    one function at a time."""
    def random_body(rng):
        parts = []
        for i in range(5):
            for j in range(5 - i):
                coeff = rng.randint(-3, 3)
                if coeff:
                    parts.append(mul(Num(Fraction(coeff)), pow_(xi, i), pow_(eta, j)))
        parts.append(Num(Fraction(1)))
        return add(*parts)

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_functions):
        hbody = random_body(rng)
        gbody = random_body(rng)
        original = pde.compose(substitute_functions(chart.u_subst, {H_FN: hbody}),
                               substitute_functions(chart.f_subst, {G_FN: gbody}))
        reduced_expr = reference_bind_reduced(candidate, hbody, gbody)
        for _ in range(n_points):
            px, py, pt = (rng.uniform(0.6, 2.0) for _ in range(3))
            pa, pb = (rng.uniform(0.5, 2.0) for _ in range(2))
            lhs = eval_numeric(original, {x: px, y: py, t: pt, a: pa, b: pb})
            cxi, ceta = chart.point(px, py, pt)
            rhs = eval_numeric(reduced_expr, {xi: cxi, eta: ceta, a: pa, b: pb})
            worst = max(worst, abs(lhs - rhs))
    return worst


def reference_draws(seed, n_functions, n_points):
    """verify_reduction's draws as randint and uniform make them."""
    rng = random.Random(seed)
    hs, gs, points = [], [], []
    for _ in range(n_functions):
        for ws in (hs, gs):
            ws.append([rng.randint(-3, 3) + (k == 0) for k in range(15)])
        points += [[rng.uniform(0.6, 2.0) for _ in "xyt"] + [rng.uniform(0.5, 2.0) for _ in "ab"]
                   for _ in range(n_points)]
    return hs, gs, points


class TestDraws:
    """The seed contract: the check draws the very numbers that randint(-3, 3)
    and uniform draw from random.Random(seed), in the same order.  A change
    to how CPython's random draws them fails here."""

    def test_draws_match_randint_and_uniform(self):
        for seed in range(400):
            assert _draws(seed, 10, 20) == reference_draws(seed, 10, 20), seed

    @pytest.mark.parametrize("shape", [(0, 20), (1, 1), (3, 0), (25, 7)])
    def test_other_shapes(self, shape):
        for seed in (0, 1, 12345, 2 ** 40):
            assert _draws(seed, *shape) == reference_draws(seed, *shape)


class TestVerificationIdentity:
    """The forward-mode chain rule on jet tables gives the discrepancy of
    composing each random function directly, up to rounding: the draws,
    points and report fields are the same, only the arithmetic moves."""

    @staticmethod
    def check(pde, chart, candidate, seed, correct):
        report = verify_reduction(pde, chart, candidate, seed=seed,
                                  n_functions=2, n_points=3)
        assert report[1:4] == (seed, 2, 3)
        ref = reference_max_discrepancy(pde, chart, candidate, seed, 2, 3)
        if correct:
            # 100 times below the default tol of 1e-7
            assert report.max_discrepancy <= 1e-9 and ref <= 1e-9
        else:
            assert abs(report.max_discrepancy - ref) <= 1e-12 * ref, to_text(candidate)

    @pytest.mark.parametrize("label", ["X1", "X1 + X3", "2*X1 - 3*X2 + X3", "X4",
                                       "X4 + 2*X3"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_reference(self, pde, label, seed):
        chart = characteristic_invariants(parse_basis_combination(label))
        reduced = reduce_pde(pde, chart).residual
        # wrong in an h-jet, wrong in a g-jet only, not linear, and with an
        # h-jet along x, which every polynomial in (xi, eta) lacks
        wrongs = (add(reduced, mul(a, Jet(h, (xi, eta, eta)))),
                  add(reduced, mul(b, Jet(g, (xi,)))),
                  REDUCED.parse("a*h_xi*h_eta + b*g_xi"),
                  add(reduced, mul(b, Jet(g, (xi,))), Jet(h, (x, eta))))
        self.check(pde, chart, reduced, seed, correct=True)
        for candidate in wrongs:
            self.check(pde, chart, candidate, seed, correct=False)

    # hand-built charts whose second and third jets do not all vanish
    NONLINEAR_CHARTS = [("X1", "y^2 + sin(t)", "exp(t)*y"),
                        ("X1", "exp(t)*y^2", "y + cos(t)"),
                        ("X2", "x*t^2", "exp(x - t)")]
    # a mixed jet, explicit coordinates, a bare u and an f-jet
    OTHER_PDE = "u_xyt + t*u_x + u + t*f_x - f"

    @pytest.mark.parametrize("label,xi_text,eta_text", NONLINEAR_CHARTS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_nonlinear_charts_match_reference(self, pde, label, xi_text, eta_text, seed):
        chart = SimilarityChart(parse_basis_combination(label), BASE.parse(xi_text),
                                BASE.parse(eta_text), "linear")
        for equation in (pde, PDEInstance(BASE.parse(self.OTHER_PDE))):
            for text in ("h_xi - g", "a*h_xi*h_eta + b*g_xi", "h_xixieta + g_eta"):
                self.check(equation, chart, REDUCED.parse(text), seed, correct=False)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_other_equation_matches_reference(self, seed):
        other = PDEInstance(BASE.parse(self.OTHER_PDE))
        chart = characteristic_invariants(parse_basis_combination("X1 + X2"))
        assert (chart.xi, chart.eta) == (t, BASE.parse("x - y"))
        # u = h(t, x - y): u_xyt = -h_xietaeta, u_x = h_eta, f_x = g_eta
        reduced = REDUCED.parse("-h_xietaeta + xi*h_eta + h + xi*g_eta - g")
        self.check(other, chart, reduced, seed, correct=True)
        for text in ("h_xietaeta + xi*h_eta + h + xi*g_eta - g",
                     "-h_xietaeta + xi*h_eta + h - g", "a*h_xi*h_eta + b*g_xi"):
            self.check(other, chart, REDUCED.parse(text), seed, correct=False)


class TestNearMisses:
    """A candidate that is off by 1e-6 of one term fails on every chart kind,
    by the discrepancy that composing each random function directly gives.
    The two differ only by rounding: each route leaves noise of up to 1e-11
    on a discrepancy of 5e-6 to 3e-3, a relative gap of about 1e-8, so they
    agree to within 1e-7 relative."""

    @pytest.mark.parametrize("label", ["X1 + X3", "X4", "X4 + 2*X3"],
                             ids=["linear", "rotation", "rotation-time"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_near_miss_fails_by_the_reference_discrepancy(self, pde, label, seed):
        chart = characteristic_invariants(parse_basis_combination(label))
        reduced = reduce_pde(pde, chart).residual
        small = Num(Fraction(1, 10**6))
        for extra in (mul(small, a, Jet(h, (xi, xi))), mul(small, g)):
            candidate = add(reduced, extra)
            report = verify_reduction(pde, chart, candidate, seed=seed,
                                      n_functions=2, n_points=3)
            ref = reference_max_discrepancy(pde, chart, candidate, seed, 2, 3)
            assert not report.passed and report.max_discrepancy > report.tol
            assert abs(report.max_discrepancy - ref) <= 1e-7 * ref, to_text(extra)


class TestForwardModeCost:
    """The check differentiates the chart once per multi-index and builds no
    tree per monomial: it never composes the equation, never binds jets,
    takes at most 2 * (|S| - 1) = 20 symbolic derivatives, S the 11
    multi-indices at or below the viscoelastic residual's jets, and makes
    three batch evaluations: the chart's jets, the residual, the candidate."""

    @pytest.mark.parametrize("chart", [
        characteristic_invariants(parse_basis_combination("X1")),
        characteristic_invariants(parse_basis_combination("X4 + X3")),
        SimilarityChart(parse_basis_combination("X1"), BASE.parse("y^2 + sin(t)"),
                        BASE.parse("exp(t)*y"), "linear")], ids=["linear", "rotation", "hand"])
    def test_no_composition_and_one_derivative_per_chart_jet(self, monkeypatch, pde, chart):
        import viscosym.expr as E
        import viscosym.reduction as R
        import viscosym.vector_fields as V
        calls = {}

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(PDEInstance, "compose", counting("compose", PDEInstance.compose))
        total = counting("total_derivative", E.total_derivative)
        for module in (E, V):
            monkeypatch.setattr(module, "total_derivative", total)
        derive = counting("diff_atom", E.diff_atom)
        for module in (E, R):
            monkeypatch.setattr(module, "diff_atom", derive)
        monkeypatch.setattr(R, "eval_batch", counting("eval_batch", E.eval_batch))
        verify_reduction(pde, chart, REDUCED.parse("h_xi - g"), seed=0)
        assert "compose" not in calls
        assert "total_derivative" not in calls
        assert 0 < calls["diff_atom"] <= 20
        assert calls["eval_batch"] == 3


class TestVerificationFailures:
    """Which error a failing cross-check raises, and that a report never
    hides a non-finite value."""

    CHART = characteristic_invariants(parse_basis_combination("X1"))

    def test_overflowing_candidate_raises(self, pde):
        with pytest.raises(EvalError, match="numeric overflow") as info:
            verify_reduction(pde, self.CHART, REDUCED.parse("exp(800*xi)*h"), seed=0)
        assert type(info.value) is EvalError

    def test_earliest_failing_point_raises(self, pde):
        # xi = y is drawn in [0.6, 2]; the first draw below 13/10 fails
        candidate = REDUCED.parse("h*(xi - 13/10)^(-1/2)")
        with pytest.raises(DomainEvalError, match=r"^negative base -0\.09215943036470287 "
                                                  r"under rational power -1/2$"):
            verify_reduction(pde, self.CHART, candidate, seed=0)

    def test_overflowing_original_side_raises(self):
        # each image stays finite, but their combination does not
        big = PDEInstance(BASE.parse("10^306*u_tt - f"))
        with pytest.raises(EvalError, match="numeric overflow"):
            verify_reduction(big, self.CHART, REDUCED.parse("h"), seed=0)

    def test_overflowing_chart_jets_raise(self, pde):
        # xi^3 and beyond leave the double range at every point
        chart = SimilarityChart(parse_basis_combination("X1"), BASE.parse("exp(400*y)"),
                                t, "linear")
        with pytest.raises(EvalError, match="numeric overflow") as info:
            verify_reduction(pde, chart, REDUCED.parse("h_xi - g"), seed=0)
        assert type(info.value) is EvalError

    def test_discrepancy_is_never_nan(self, pde):
        for text in ("h", "sin(h_xi) + 10^300*h_etaeta", "-b*h_xixi - g"):
            report = verify_reduction(pde, self.CHART, REDUCED.parse(text), seed=0,
                                      n_functions=3, n_points=6)
            assert not math.isnan(report.max_discrepancy), text
        for n_functions, n_points in ((0, 20), (10, 0)):
            report = verify_reduction(pde, self.CHART, ZERO, n_functions=n_functions,
                                      n_points=n_points)
            assert report.max_discrepancy == 0.0 and report.passed


def test_the_original_side_raises_before_the_candidate(pde):
    # both sides fail at every point: the residual overflows and the
    # candidate takes a negative base, since xi = y < 3; the original
    # side's error is raised
    big = PDEInstance(BASE.parse("10^400*u_tt - f"))
    chart = characteristic_invariants(parse_basis_combination("X1"))
    with pytest.raises(EvalError, match="numeric overflow") as info:
        verify_reduction(big, chart, REDUCED.parse("h*(xi - 3)^(-1/2)"), seed=0)
    assert type(info.value) is EvalError
    with pytest.raises(DomainEvalError, match="negative base"):
        verify_reduction(pde, chart, REDUCED.parse("h*(xi - 3)^(-1/2)"), seed=0)


class TestAudit:
    def test_published_rows_disagree_with_chain_rule(self, pde):
        audit = audit_reduction_table(pde)
        assert [row.match for row in audit] == [False] * 5
        by_row = {row.row: set(row.diff_terms) for row in audit}
        assert by_row[1] == {"a*h_etaetaeta", "b*h_etaeta"}
        assert by_row[2] == {"a*h_etaetaeta", "b*h_etaeta"}
        assert by_row[3] == {"a*h_xixieta", "a*h_etaetaeta", "-h_etaeta"}
        assert by_row[4] == {"-a*h_xixieta", "b*h_xixi"}
        assert by_row[5] == {"-a*h_etaetaeta", "b*h_xixi", "b*h_etaeta"}

    def test_published_rows_are_parsed_once(self, pde, monkeypatch):
        import viscosym.reduction as R
        import viscosym.spaces as S
        assert published_reduction_rows() is published_reduction_rows()
        assert published_similarity_rows() is published_similarity_rows()
        # a fresh parse gives the same rows
        assert R._published.__wrapped__() == (published_similarity_rows(),
                                              published_reduction_rows())
        first = audit_reduction_table(pde)
        parsed = []

        def counting(space, text, real=S.VarSpace.parse):
            parsed.append(text)
            return real(space, text)

        monkeypatch.setattr(S.VarSpace, "parse", counting)
        assert audit_reduction_table(pde) == first
        # only the five generator labels are parsed again, not the rows
        assert sorted(parsed) == sorted(label for label, _ in published_reduction_rows())

    def test_rows_1_to_3_printed_identically(self):
        rows = published_reduction_rows()
        assert rows[0][1] == rows[1][1] == rows[2][1]

    def test_published_row_fails_numeric_check(self, pde):
        rows = dict(published_reduction_rows())
        chart = characteristic_invariants(parse_basis_combination("X3"))
        report = verify_reduction(pde, chart, rows["X3"], seed=0,
                                  n_functions=3, n_points=6)
        assert not report.passed
        assert report.max_discrepancy > 1e-3

    def test_zero_candidate_fails(self, pde):
        chart = characteristic_invariants(parse_basis_combination("X1"))
        report = verify_reduction(pde, chart, ZERO, seed=0,
                                  n_functions=3, n_points=6)
        assert not report.passed
