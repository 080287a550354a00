"""Similarity charts, chain-rule reduction and the published-table audit."""

from fractions import Fraction

import numpy as np
import pytest

from viscosym.expr import (Add, ExprError, Jet, Mul, Num, Pow, Sym, ZERO, add, atoms,
                           bind_jets, diff_atom, eval_numeric, mul, numerator, pow_, sub,
                           substitute, substitute_functions, to_text,
                           total_derivative)
from viscosym.reduction import (G_FN, H_FN, ReducedPDE, ReductionError,
                                SimilarityChart,
                                UnsupportedGeneratorError,
                                audit_reduction_table,
                                characteristic_invariants,
                                published_reduction_rows,
                                published_similarity_rows, reduce_pde,
                                verify_reduction)
from viscosym.spaces import (a, b, base_space, eta, f, g, h, reduced_space, t,
                             u, x, xi, y)
from viscosym.vector_fields import (Generator, basis_combination,
                                    parse_basis_combination, standard_basis)

REDUCED = reduced_space()
BASE = base_space()


def normalized_form(e):
    """Scale a linear form so its first nonzero coefficient is +1."""
    lead = e.terms[0] if isinstance(e, Add) else e
    coeff = lead.coeff if isinstance(lead, Mul) else Fraction(1)
    return mul(Num(Fraction(1, coeff)), e)


class TestCharts:
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
    """verify_reduction's h/g binding as it was before bind_jets: jets by
    repeated diff_atom over (xi, eta)."""
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
    """bind_jets builds the same trees as the two loops it replaced."""

    def test_compose_matches_reference(self, pde):
        mono = mul(pow_(xi, 2), eta)
        for chart in catalog_charts():
            pulled = substitute_functions(chart.u_subst, {H_FN: mono})
            for u_expr, f_expr in ((chart.u_subst, chart.f_subst),
                                   (pulled, ZERO), (ZERO, pulled)):
                assert (pde.compose(u_expr, f_expr)
                        == reference_compose(pde, u_expr, f_expr)), to_text(chart.xi)

    def test_reduced_side_matches_reference(self, pde):
        hbody = REDUCED.parse("3*xi^4 - xi*eta^2 + 2*eta - 1")
        gbody = REDUCED.parse("xi^2*eta^2 + 5")
        for chart in catalog_charts():
            reduced = reduce_pde(pde, chart).residual
            wrong = add(reduced, mul(a, Jet(h, (xi, eta, eta))), Jet(g, (xi,)), h)
            for candidate in (reduced, wrong):
                assert (bind_jets(candidate, {h: hbody, g: gbody})
                        == reference_bind_reduced(candidate, hbody, gbody))


def test_bind_jets_shares_index_prefixes(monkeypatch, pde):
    # u_xx, u_yy, u_tt, u_xxt and u_yyt need D along the prefixes x, xx,
    # xxt, y, yy, yyt, t and tt: 8 derivatives, where deriving each jet
    # from the body takes 12
    import viscosym.expr as E
    directions = []

    def counting(e, v, real=E.total_derivative):
        directions.append(v.name)
        return real(e, v)

    monkeypatch.setattr(E, "total_derivative", counting)
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
                coeff = int(rng.integers(-3, 4))
                if coeff:
                    parts.append(mul(Num(Fraction(coeff)), pow_(xi, i), pow_(eta, j)))
        parts.append(Num(Fraction(1)))
        return add(*parts)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_functions):
        hbody = random_body(rng)
        gbody = random_body(rng)
        original = pde.compose(substitute_functions(chart.u_subst, {H_FN: hbody}),
                               substitute_functions(chart.f_subst, {G_FN: gbody}))
        reduced_expr = reference_bind_reduced(candidate, hbody, gbody)
        for _ in range(n_points):
            px, py, pt = rng.uniform(0.6, 2.0, size=3)
            pa, pb = rng.uniform(0.5, 2.0, size=2)
            lhs = eval_numeric(original, {x: px, y: py, t: pt, a: pa, b: pb})
            cxi, ceta = chart.point(px, py, pt)
            rhs = eval_numeric(reduced_expr, {xi: cxi, eta: ceta, a: pa, b: pb})
            worst = max(worst, abs(lhs - rhs))
    return worst


class TestVerificationIdentity:
    """The monomial images give bit for bit the discrepancy of composing
    each random function directly, for correct and wrong candidates."""

    @pytest.mark.parametrize("label", ["X1", "X1 + X3", "2*X1 - 3*X2 + X3", "X4",
                                       "X4 + 2*X3"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_reference(self, pde, label, seed):
        chart = characteristic_invariants(parse_basis_combination(label))
        reduced = reduce_pde(pde, chart).residual
        wrong = add(reduced, mul(a, Jet(h, (xi, eta, eta))))
        for candidate in (reduced, wrong):
            report = verify_reduction(pde, chart, candidate, seed=seed,
                                      n_functions=2, n_points=3)
            assert report.max_discrepancy == reference_max_discrepancy(
                pde, chart, candidate, seed, 2, 3)


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
