"""Expression kernel: grammar, canonical form, calculus, evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosym.expr import (DomainEvalError, EvalError, ExprError, Jet, JetOrderError,
                           Num, Pow, TERM_BUDGET, TermBudgetError,
                           UnassignedSymbolError, UnknownFn, ZERO, ONE, _nth_root, add,
                           _derive, atoms, canonicalize, diff_atom, eval_numeric,
                           func, join_signed, max_abs_sample, mul, numerator, pow_, rebuild,
                           signed_term, sub, substitute,
                           substitute_functions, term_map, to_text,
                           total_derivative)
from viscosym.parsing import ParseError, UnknownIdentifierError
from viscosym.spaces import a, b, eps, f, s, t, u, x, xi, y

from conftest import random_expr


class TestParsing:
    def test_pde_residual(self, space):
        e = space.parse("u_tt - a*(u_xxt + u_yyt) - b*(u_xx + u_yy) - f")
        expected = sub(sub(sub(Jet(u, (t, t)),
                               mul(a, add(Jet(u, (x, x, t)), Jet(u, (y, y, t))))),
                           mul(b, add(Jet(u, (x, x)), Jet(u, (y, y))))), f)
        assert e == expected

    def test_jet_subscripts_sorted(self, space):
        assert space.parse("u_tx") == space.parse("u_xt")
        assert space.parse("u_txx") == Jet(u, (x, x, t))

    def test_like_terms_cancel(self, space):
        assert space.parse("x + x - 2*x") == ZERO

    def test_rational_arithmetic(self, space):
        assert space.parse("2/3 + 1/6") == Num(Fraction(5, 6))
        assert space.parse("3/7*x") == mul(Num(Fraction(3, 7)), x)

    def test_precedence_and_power(self, space):
        assert space.parse("2*x^2") == mul(Num(Fraction(2)), pow_(x, 2))
        assert space.parse("x^-1") == pow_(x, -1)
        assert space.parse("(x + y)^2") == space.parse("x^2 + 2*x*y + y^2")

    def test_sqrt_folds(self, space):
        assert space.parse("sqrt(4)") == Num(Fraction(2))
        assert space.parse("sqrt(x)^2") == x
        assert space.parse("sqrt(2)*sqrt(2)") == Num(Fraction(2))
        # perfect powers beyond the double range still fold exactly
        assert space.parse("sqrt(3^80) - 3^40") == ZERO
        assert space.parse("sqrt(10^800)") == Num(Fraction(10 ** 400))

    def test_unary_minus(self, space):
        assert space.parse("-x + x") == ZERO

    def test_syntax_error_offset(self, space):
        with pytest.raises(ParseError) as err:
            space.parse("x + * y")
        assert err.value.offset == 4

    def test_unknown_identifier_lists_table(self, space):
        with pytest.raises(UnknownIdentifierError) as err:
            space.parse("x + q")
        message = str(err.value)
        assert "q" in message and "u" in message and "eps" in message

    def test_jet_subscript_on_parameter_rejected(self, space):
        with pytest.raises(ParseError):
            space.parse("a_x")

    def test_unknown_function_roundtrip(self, space):
        fn = UnknownFn("F", (x, y, t))
        sp = space.with_unknowns(fn)
        e = sp.parse("F_xxt + F(x, y + 1, t)")
        assert to_text(e) == "F(x, 1 + y, t) + F_xxt"
        assert sp.parse(to_text(e)) == e

    def test_jet_order_cap(self, space):
        with pytest.raises(JetOrderError):
            space.parse("u_xxxxx")
        space.parse("u_xxxx")   # order 4 is the cap, fine

    def test_nesting_limit(self, space):
        assert space.parse("(" * 100 + "x" + ")" * 100) == x
        with pytest.raises(ParseError, match="nesting") as err:
            space.parse("(" * 101 + "x" + ")" * 101)
        assert err.value.offset == 100
        space.parse("sin(" * 100 + "x" + ")" * 100)
        with pytest.raises(ParseError, match="nesting"):
            space.parse("sin(" * 101 + "x" + ")" * 101)

    def test_power_is_not_associative(self, space):
        with pytest.raises(ParseError):
            space.parse("x^2^3")

    def test_unknown_declaration_clash(self, space):
        with pytest.raises(ValueError, match="already declared"):
            space.with_unknowns(UnknownFn("u", (x, y)))


class TestTermBudget:
    """A sum, and a product of sums before its like terms merge, may have at
    most TERM_BUDGET terms."""

    @staticmethod
    def _sum(n, atom):
        return add(*[pow_(atom, k) for k in range(n)])

    def test_product_at_the_budget_expands(self):
        assert TERM_BUDGET == 2000
        assert len(mul(self._sum(40, x), self._sum(50, y)).terms) == 2000

    def test_product_past_the_budget_is_refused(self):
        with pytest.raises(TermBudgetError, match="would have 2050 terms, more than 2000"):
            mul(self._sum(41, x), self._sum(50, y))

    def test_power_of_a_sum_is_refused_before_it_grows(self):
        # (1 + x + ... + x^49)^2 forecasts 50*50 products, though 99 terms remain
        with pytest.raises(TermBudgetError, match="2500 terms"):
            pow_(self._sum(50, x), 2)
        assert len(pow_(self._sum(40, x), 2).terms) == 79

    def test_sum_past_the_budget_is_refused(self):
        assert len(self._sum(2000, x).terms) == 2000
        with pytest.raises(TermBudgetError, match="a sum would have 2001 terms"):
            self._sum(2001, x)


class TestCanonicalForm:
    def test_roundtrip_and_idempotence_corpus(self, space):
        rng = random.Random(20240817)
        for _ in range(1000):
            e = random_expr(rng)
            assert canonicalize(e) == e
            assert space.parse(to_text(e)) == e

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_roundtrip_hypothesis(self, seed):
        sp = __import__("viscosym.spaces", fromlist=["base_space"]).base_space()
        e = random_expr(random.Random(seed), depth=4)
        assert sp.parse(to_text(e)) == e

    def test_rebuild_pow_hook(self):
        # the rotation chart's elimination of y^2 = xi - x^2
        def hook(node):
            if isinstance(node, Pow) and node.base == y:
                k, r = divmod(int(node.exp), 2)
                return mul(pow_(sub(xi, pow_(x, 2)), k), pow_(y, r))
            return None

        assert rebuild(pow_(y, 5), hook) == mul(pow_(sub(xi, pow_(x, 2)), 2), y)
        assert rebuild(add(pow_(y, 2), pow_(x, 3)), hook) == \
            sub(add(xi, pow_(x, 3)), pow_(x, 2))

    def test_term_map(self, space):
        assert term_map(space.parse("3*x*y - 2 + x")) == {
            (x, y): Fraction(3), (): Fraction(-2), (x,): Fraction(1)}
        assert term_map(ZERO) == {}

    def test_exact_integer_roots(self):
        assert _nth_root(7 ** 60, 3) == 7 ** 20
        assert _nth_root(7 ** 60 + 1, 3) is None
        assert _nth_root(10 ** 800, 2) == 10 ** 400
        for q in (2, 3, 5):
            for root in range(60):
                assert _nth_root(root ** q, q) == root
                if root > 1:
                    assert _nth_root(root ** q - 1, q) is None
                    assert _nth_root(root ** q + 1, q) is None

    def test_pythagorean_rewrite(self, space):
        assert space.parse("sin(s)^2 + cos(s)^2") == ONE
        assert space.parse("x*sin(s)^2 + x*cos(s)^2") == x
        assert space.parse("sin(s)^3 + sin(s)*cos(s)^2") == space.parse("sin(s)")
        assert space.parse("2*sin(s)^2 + cos(s)^2") == space.parse("1 + sin(s)^2")

    def test_angle_addition(self, space):
        lhs = space.parse("cos(s + eps)")
        rhs = space.parse("cos(s)*cos(eps) - sin(s)*sin(eps)")
        assert lhs == rhs

    def test_parity(self, space):
        assert space.parse("sin(-x) + sin(x)") == ZERO
        assert space.parse("cos(-x)") == space.parse("cos(x)")
        assert space.parse("arctan(-x) + arctan(x)") == ZERO

    def test_special_values(self, space):
        assert space.parse("sin(0)") == ZERO
        assert space.parse("cos(0)") == ONE
        assert space.parse("exp(0)") == ONE

    def test_quotient_reduction(self, space):
        e = space.parse("x^2/(x^2 + y^2) + y^2/(x^2 + y^2)")
        assert e != ONE                      # plain canonical form keeps the split
        assert numerator(sub(e, ONE)) is ZERO
        partial = space.parse("x^2/(x^2 + y^2) + y^2/(x^2 + y^2) + x/(x^2 + y^2)")
        assert numerator(partial) is space.parse("x^2 + y^2 + x")
        assert numerator(sub(partial, space.parse("1 + x/(x^2 + y^2)"))) is ZERO

    def test_numerator_clears_the_largest_power(self, space):
        # with S = x + y this is (x + S - (2*x + y))/S^2 = 0; clearing S
        # only once leaves 1 - x/S - y/S, which is not ZERO in form
        e = space.parse("x*(x + y)^-2 + (x + y)^-1 - (2*x + y)*(x + y)^-2")
        assert e is not ZERO
        assert numerator(e) is ZERO
        both = space.parse("1/(x + y) + 1/(x - y) - 2*x/(x^2 - y^2)")
        assert numerator(both) is ZERO       # each sum is cleared, not only one
        assert numerator(space.parse("x*(x + y)^-2")) is x
        assert numerator(space.parse("x*(x + y)^-2 + 1")) is not ZERO


class TestCalculus:
    def test_total_derivative_basics(self):
        assert total_derivative(u, t) == Jet(u, (t,))
        assert total_derivative(Jet(u, (x, x)), x) == Jet(u, (x, x, x))
        assert total_derivative(a, x) == ZERO
        assert total_derivative(x, x) == ONE
        assert total_derivative(y, x) == ZERO

    def test_product_rule(self, space):
        e = mul(Jet(u, (x, x)), u)
        expected = space.parse("u_xxt*u + u_xx*u_t")
        assert total_derivative(e, t) == expected

    def test_total_derivatives_commute(self):
        rng = random.Random(7)
        for _ in range(60):
            e = random_expr(rng, depth=4)
            try:
                dxy = total_derivative(total_derivative(e, x), y)
                dyx = total_derivative(total_derivative(e, y), x)
            except JetOrderError:
                continue
            assert dxy == dyx

    def test_derivative_matches_finite_differences(self, space):
        # oracle: restrict e to a concrete section u = w(x,y,t), f = v(x,y,t)
        # (random polynomials), where D_x e becomes an honest x-derivative
        # that central differences can check
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            e = random_expr(rng, depth=4)
            try:
                de = total_derivative(e, x)
            except JetOrderError:
                continue
            section = _section_bindings(rng)
            e_section = substitute(e, section)
            de_section = substitute(de, section)
            assignment = {sym: rng.uniform(0.3, 1.4) for sym in (x, y, t, a, b)}
            hstep = 1e-5
            try:
                hi = dict(assignment)
                hi[x] = assignment[x] + hstep
                lo = dict(assignment)
                lo[x] = assignment[x] - hstep
                fd = (eval_numeric(e_section, hi) - eval_numeric(e_section, lo)) / (2 * hstep)
                symbolic = eval_numeric(de_section, assignment)
            except DomainEvalError:
                continue
            scale = max(1.0, abs(symbolic))
            assert abs(fd - symbolic) / scale < 1e-5
            checked += 1

    def test_unknown_function_chain_rule(self, space):
        fn = UnknownFn("F", (x, y, t))
        sp = space.with_unknowns(fn)
        e = sp.parse("F(x^2, y, t)")
        de = total_derivative(e, x)
        assert de == sp.parse("2*x*F_x(x^2, y, t)")
        assert diff_atom(e, x) == de

    def test_diff_atom_treats_jets_as_coordinates(self, space):
        e = space.parse("u_xx*u + x*u")
        assert diff_atom(e, u) == space.parse("u_xx + x")
        assert diff_atom(e, Jet(u, (x, x))) == u
        assert diff_atom(e, x) == u


def _section_bindings(rng):
    """Bindings sending u, f and every jet up to order 4 to derivatives of
    two random polynomials in (x, y, t)."""
    import itertools

    coords = (x, y, t)
    monomials = [ONE, pow_(x, 3), pow_(y, 3), pow_(t, 3),
                 mul(pow_(x, 2), y), mul(pow_(y, 2), t), mul(x, pow_(t, 2))]

    def poly():
        return add(*[mul(Num(Fraction(rng.randint(-3, 3))), m) for m in monomials])

    bindings = {}
    for dep, body in ((u, poly()), (f, poly())):
        bindings[dep] = body
        for order in range(1, 5):
            for multiset in itertools.combinations_with_replacement(coords, order):
                value = body
                for v in multiset:
                    value = diff_atom(value, v)
                bindings[Jet(dep, multiset)] = value
    return bindings


class TestSubstitution:
    def test_on_shell_example(self, space, pde):
        result = substitute(f, {f: pde.solved_form})
        assert result == pde.solved_form

    def test_simple(self, space):
        assert substitute(space.parse("x + y"), {x: ZERO}) == y
        assert substitute(space.parse("sin(s)^2"), {s: ZERO}) == ZERO

    def test_self_reference_allowed(self, space):
        assert substitute(s, {s: add(s, eps)}) == add(s, eps)

    def test_swap_is_simultaneous(self, space):
        # values that name each other's keys are not substituted again
        assert substitute(space.parse("x + 2*y"), {x: y, y: x}) == space.parse("y + 2*x")
        assert substitute(x, {x: y, y: add(x, ONE)}) == y

    def test_keys_must_be_symbols_or_jets(self):
        with pytest.raises(ExprError, match="^substitution keys must be symbols or jet variables$"):
            substitute(x, {add(x, ONE): y})

    def test_substitute_functions_with_swapped_arguments(self, space):
        fn = UnknownFn("F", (x, y, t))
        sp = space.with_unknowns(fn)
        assert (substitute_functions(sp.parse("F(y, x, t)"), {fn: sp.parse("x^2 + 3*y")})
                == sp.parse("y^2 + 3*x"))
        assert isinstance(max_abs_sample(sp.parse("F(y, x, t) - F")), float)

    def test_substitute_functions(self, space):
        fn = UnknownFn("F", (x, y, t))
        sp = space.with_unknowns(fn)
        e = sp.parse("F_xt")
        body = sp.parse("x^2*t + y")
        assert substitute_functions(e, {fn: body}) == sp.parse("2*x")


def _tower(k, base=x):
    """e_0 = base, e_j = atan2(e_(j-1), e_(j-1)): k + 1 distinct nodes, but
    2^k paths from the top to base."""
    e = base
    for _ in range(k):
        e = func("atan2", e, e)
    return e


class TestSharedSubtrees:
    """Every walk visits each distinct node once per call, however many
    paths lead to it."""

    def test_rebuild_hook_sees_each_distinct_node_once(self):
        e = _tower(14)
        seen = []
        assert rebuild(e, seen.append) is e
        assert seen[0] is e and len(seen) == 15 and len(set(seen)) == 15

    def test_datom_called_once(self):
        calls = []
        _derive(_tower(14), lambda node: calls.append(node) or ONE)
        assert calls == [x]

    def test_deep_tower_walks_return_at_once(self):
        e = _tower(60)
        assert list(atoms(e)) == [x]
        assert substitute(e, {x: y}) is _tower(60, y)
        assert diff_atom(e, x) == ZERO      # atan2(p, p) is constant in p
        assert eval_numeric(e, {x: 1.0}) == pytest.approx(math.pi / 4)


class TestEvaluation:
    def test_simple(self, space):
        assert eval_numeric(space.parse("x*y"), {x: 2.0, y: 3.0}) == 6.0

    def test_pythagorean_numeric(self):
        # raw (non-canonical) tree: canonical construction would fold it to 1
        # before evaluation ever runs
        from viscosym.expr import Add, Func, Pow
        raw = Add((Pow(Func("cos", (s,)), Fraction(2)),
                   Pow(Func("sin", (s,)), Fraction(2))))
        assert eval_numeric(raw, {s: 0.7}) == pytest.approx(1.0, abs=1e-12)
        assert canonicalize(raw) == ONE

    def test_on_shell_residual_vanishes(self, space, pde):
        # u = x^2 + y^2 + t^2 gives u_tt = 2, Lap(u) = 4, Lap(u_t) = 0,
        # so f = 2 - 4b makes the residual vanish
        assignment = {
            Jet(u, (t, t)): 2.0, Jet(u, (x, x)): 2.0, Jet(u, (y, y)): 2.0,
            Jet(u, (x, x, t)): 0.0, Jet(u, (y, y, t)): 0.0,
            a: 1.3, b: 0.8, f: 2.0 - 4 * 0.8,
        }
        assert eval_numeric(pde.residual, assignment) == pytest.approx(0.0, abs=1e-12)

    def test_unassigned_symbol(self, space):
        with pytest.raises(UnassignedSymbolError):
            eval_numeric(space.parse("x + y"), {x: 1.0})

    def test_domain_errors(self, space):
        with pytest.raises(DomainEvalError):
            eval_numeric(space.parse("1/x"), {x: 0.0})
        with pytest.raises(DomainEvalError):
            eval_numeric(space.parse("sqrt(x)"), {x: -2.0})

    def test_opaque_function_has_no_value(self, space):
        fn = UnknownFn("F", (x, y, t))
        sp = space.with_unknowns(fn)
        with pytest.raises(UnassignedSymbolError, match="opaque function F"):
            eval_numeric(sp.parse("F_t(x, y, t)"), {x: 0.3, y: 0.4, t: 0.5})

    @pytest.mark.parametrize("text, value", [
        ("x^1000000", 2.0), ("exp(exp(exp(x)))", 2.0), ("10^400*x", 0.5),
        ("10^300*x^400 - 10^300*x^401", 2.0),   # inf - inf inside fsum
        ("10^300*x^400 - x", 2.0),              # inf result
        ("10^300*x^400*exp(-x^1000)", 2.0),     # inf * 0 = nan result
    ])
    def test_overflow_is_a_typed_error(self, space, text, value):
        # not a DomainEvalError: a sampler would skip the point and could
        # then pass the expression as zero
        with pytest.raises(EvalError, match="overflow") as info:
            eval_numeric(space.parse(text), {x: value})
        assert not isinstance(info.value, DomainEvalError)
        with pytest.raises(EvalError, match="overflow"):
            max_abs_sample(space.parse(text), lo=value, hi=value)


class TestPrinting:
    def test_signed_join(self, space):
        assert join_signed([(-1, "a"), (1, "b"), (-1, "c")]) == "-a + b - c"
        assert join_signed([(1, "a")]) == "a"
        assert signed_term(space.parse("-3/2*x^2")) == (-1, "3/2*x^2")
        assert signed_term(space.parse("-1")) == (-1, "1")
        e = space.parse("-2*x*y + 3 - sin(t)")
        assert to_text(e) == join_signed(signed_term(term) for term in e.terms)
