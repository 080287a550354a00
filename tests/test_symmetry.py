"""Vector fields: brackets, the commutator table, prolongation, invariance
and the determining system."""

import itertools
import random
from fractions import Fraction

import pytest

from viscosym.expr import (ExprError, Jet, JetOrderError, Kind, Num, Sym,
                           UnknownFn, ZERO, ONE, add, atoms, diff_atom,
                           max_abs_sample, mul, sub, substitute,
                           substitute_functions, to_text, total_derivative)
from viscosym.linalg import solve
from viscosym.spaces import a, b, base_space, c1, c2, c3, c4, c5, f, t, u, x, y
from viscosym.vector_fields import (Generator, NotClosedError, PDEInstance,
                                    basis_combination, bracket, commutator_table, determining_equations,
                                    express_in_span,
                                    function_shift_generator, general_ansatz,
                                    invariance_residual, monomial_text,
                                    parse_basis_combination, prolong,
                                    standard_basis, symmetry_family_bodies,
                                    verify_symmetry, viscoelastic_pde)


def random_polynomial_field(rng):
    """Generator with small random polynomial coefficients over (x,y,t,u,f)."""
    sp = base_space()
    leaves = ["1", "x", "y", "t", "u", "f", "x*y", "u*t", "x^2"]

    def coeff():
        parts = [f"{rng.randint(-2, 2)}*{rng.choice(leaves)}" for _ in range(2)]
        return sp.parse(" + ".join(parts).replace("+ -", "- "))

    return Generator(coeff(), coeff(), coeff(), coeff(), coeff())


class TestBracket:
    def test_published_entries(self, basis):
        X1, X2, X3, X4, X5 = basis
        assert bracket(X1, X4).coefficients == (-X2).coefficients
        assert bracket(X2, X4).coefficients == X1.coefficients
        assert bracket(X3, X5).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(100):
            v, w = random_polynomial_field(rng), random_polynomial_field(rng)
            lhs = bracket(v, w)
            rhs = bracket(w, v)
            assert (lhs + rhs).is_zero()

    def test_jacobi(self):
        rng = random.Random(6)
        for _ in range(25):
            g1, g2, g3 = (random_polynomial_field(rng) for _ in range(3))
            total = (bracket(g1, bracket(g2, g3))
                     + bracket(g2, bracket(g3, g1))
                     + bracket(g3, bracket(g1, g2)))
            assert total.is_zero()

    def test_jet_coefficients_rejected(self, space):
        with pytest.raises(Exception, match="jet"):
            Generator(xi1=space.parse("u_x"))


class TestCommutatorTable:
    def test_reproduces_published_table(self, basis):
        constants = commutator_table(basis)
        expected = {(1, 4): {2: Fraction(-1)}, (2, 4): {1: Fraction(1)},
                    (4, 1): {2: Fraction(1)}, (4, 2): {1: Fraction(-1)}}
        for i in range(1, 6):
            for j in range(1, 6):
                want = expected.get((i, j), {})
                got = constants.entry(i, j)
                for k in range(1, 6):
                    assert got[k - 1] == want.get(k, Fraction(0))

    def test_center(self, basis):
        constants = commutator_table([basis[2], basis[4]])
        assert all(v == 0 for plane in constants.c for row in plane for v in row)

    def test_abelian_pair(self, basis):
        constants = commutator_table([basis[0], basis[1]])
        assert all(v == 0 for plane in constants.c for row in plane for v in row)

    def test_not_closed_error(self, space):
        X1 = standard_basis()[0]
        w = Generator(xi1=space.parse("x^2"), label="W")
        for _ in range(2):   # a failed build is not cached
            with pytest.raises(NotClosedError, match="X1, W"):
                commutator_table([X1, w])

    def test_render(self, basis):
        constants = commutator_table(basis)
        assert constants.entry_text(1, 4) == "-X2"
        assert constants.entry_text(2, 4) == "X1"
        assert constants.entry_text(3, 3) == "0"


class TestExpressInSpan:
    """express_in_span decides membership by the exact solve alone: the
    solve rejects an inconsistent system, and the coordinates it returns
    rebuild the target exactly, which the dropped recombination check
    asserted."""

    @pytest.mark.parametrize("rows,rhs", [([[1], [1]], [1, 2]),
                                          ([[1, 0], [0, 0]], [0, 1]),
                                          ([[1, 2], [2, 4], [0, 1]], [1, 3, 5])])
    def test_solve_exact_rejects_an_inconsistent_system(self, rows, rhs):
        n = len(rows[0])
        augmented = [{**dict(enumerate(row)), n: v} for row, v in zip(rows, rhs)]
        assert solve(augmented, n, 1) == [None]

    def test_coordinates_rebuild_the_target(self, basis):
        rng = random.Random(5)
        targets = [bracket(v, w) for v, w in itertools.combinations(basis, 2)]
        targets += [basis_combination([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                       for _ in range(5)]) for _ in range(6)]
        for target, coeffs in zip(targets, express_in_span(targets, basis), strict=True):
            rebuilt = Generator()
            for coeff, gen in zip(coeffs, basis):
                rebuilt = rebuilt + gen.scaled(Num(coeff))
            assert all(sub(p, q) == ZERO for p, q in
                       zip(rebuilt.coefficients, target.coefficients))

    def test_targets_outside_the_span(self, basis, space):
        X1, X2, X3, X4, X5 = basis
        for target, span in ((X3, [X1, X2]), (X4, [X1, X2, X3, X5]),
                             (Generator(xi1=space.parse("x*y")), basis),
                             (Generator(phi1=space.parse("u + 1")), basis)):
            assert express_in_span([target], span) == [None]


def prolong_by_characteristic(v, order):
    """Independent prolongation oracle: the non-recursive formula
    phi^J = D_J(phi - sum_i xi^i u_i) + sum_i xi^i u_{J,i}."""
    xis = (v.xi1, v.xi2, v.xi3)
    out = {}
    for dep, phi in ((u, v.phi1), (f, v.phi2)):
        charac = sub(phi, add(*[mul(xi_i, Jet(dep, (vi,)))
                                for xi_i, vi in zip(xis, (x, y, t))]))
        out[dep] = phi
        for k in range(1, order + 1):
            for multiset in itertools.combinations_with_replacement((x, y, t), k):
                expr = charac
                for direction in multiset:
                    expr = total_derivative(expr, direction)
                expr = add(expr, *[mul(xi_i, Jet(dep, tuple(multiset) + (vi,)))
                                   for xi_i, vi in zip(xis, (x, y, t))])
                out[Jet(dep, tuple(multiset))] = expr
    return out


class TestProlongation:
    def test_translation_prolongs_trivially(self, basis):
        coeffs = prolong(basis[0], 3)
        assert all(v == ZERO for key, v in coeffs.items()
                   if isinstance(key, Jet))

    def test_scaling_prolongation(self, basis):
        coeffs = prolong(basis[4], 3)   # u du + f df
        for key, value in coeffs.items():
            assert value == key

    def test_rotation_first_order(self, basis):
        coeffs = prolong(basis[3], 1)
        assert coeffs[Jet(u, (x,))] == Jet(u, (y,))
        assert coeffs[Jet(u, (y,))] == mul(Num(Fraction(-1)), Jet(u, (x,)))
        assert coeffs[Jet(u, (t,))] == ZERO

    def test_recursion_matches_characteristic_formula(self):
        rng = random.Random(11)
        for _ in range(8):
            v = random_polynomial_field(rng)
            got = prolong(v, 3)
            want = prolong_by_characteristic(v, 3)
            assert set(got) == set(want)
            for key in got:
                assert got[key] == want[key], to_text(key)

    def test_order_cap(self, basis):
        with pytest.raises(JetOrderError, match="order"):
            prolong(basis[0], 4)
        fourth_order = PDEInstance(base_space().parse("u_tt - u_xxxx - f"))
        with pytest.raises(JetOrderError, match="prolongation order 3"):
            invariance_residual(basis[0], fourth_order)

    def test_residual_jets_only_match_full_prolongation(self, pde):
        # the invariance condition prolongs only the residual's jets; the
        # sum over the full third prolongation gives the same tree
        ansatz, _ = general_ansatz()
        coeffs = prolong(ansatz, 3)
        coeffs[x], coeffs[y], coeffs[t] = ansatz.xi1, ansatz.xi2, ansatz.xi3
        raw = add(*[mul(coeffs[atom], diff_atom(pde.residual, atom))
                    for atom in atoms(pde.residual)
                    if not (isinstance(atom, Sym) and atom.kind is Kind.PARAMETER)])
        full = substitute(raw, {f: pde.solved_form}, descend_unknown_args=False)
        assert invariance_residual(ansatz, pde) == full


class TestInvariance:
    def test_basis_generators_are_symmetries(self, basis, pde):
        for gen in basis:
            assert invariance_residual(gen, pde) == ZERO

    def test_function_shift_generator(self, pde, space):
        gen = function_shift_generator()
        expected_phi2 = space.with_unknowns(UnknownFn("F", (x, y, t))).parse(
            "F_tt - a*(F_xxt + F_yyt) - b*(F_xx + F_yy)")
        assert gen.phi2 == expected_phi2
        assert invariance_residual(gen, pde) == ZERO

    def test_scaling_x_dx_not_symmetry(self, pde, space):
        residual = invariance_residual(Generator(xi1=x), pde)
        assert residual == space.parse("2*a*u_xxt + 2*b*u_xx")
        assert max_abs_sample(residual, seed=3) > 1e-3

    def test_galilean_t_dx_not_symmetry(self, pde, space):
        residual = invariance_residual(Generator(xi1=t), pde)
        assert residual == space.parse("a*u_xxx + a*u_xyy - 2*u_xt")

    def test_linearity(self, pde):
        rng = random.Random(13)
        for _ in range(5):
            v, w = random_polynomial_field(rng), random_polynomial_field(rng)
            alpha, beta = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3))
            lhs = invariance_residual(v.scaled(Num(alpha)) + w.scaled(Num(beta)), pde)
            rhs = add(mul(Num(alpha), invariance_residual(v, pde)),
                      mul(Num(beta), invariance_residual(w, pde)))
            assert lhs == rhs

    def test_verify_symmetry_reports(self, pde):
        good = verify_symmetry(standard_basis()[3], pde)
        assert good.ok and good.symbolic_zero
        bad = verify_symmetry(Generator(xi1=t), pde)
        assert not bad.ok and not bad.symbolic_zero
        assert bad.numeric_max > 1e-3


class TestDeterminingEquations:
    def test_restricted_ansatz(self, pde):
        w = UnknownFn("w", (t,))
        system = determining_equations(pde, Generator(xi1=w()))
        got = {monomial_text(mono): to_text(eq) for mono, eq in system.records}
        assert got == {
            "u_x": "-w_tt",
            "u_xt": "-2*w_t",
            "u_xxx": "a*w_t",
            "u_xyy": "a*w_t",
        }

    def test_exact_symmetry_gives_empty_system(self, pde, basis):
        system = determining_equations(pde, basis[0])
        assert system.raw_count == 0

    def test_full_system_vanishes_at_solution(self, pde):
        ansatz, fns = general_ansatz()
        system = determining_equations(pde, ansatz)
        assert system.raw_count > 50
        assert system.unique_count <= system.raw_count
        bodies = symmetry_family_bodies(fns)
        for mono, eq in system.records:
            assert substitute_functions(eq, bodies) == ZERO, monomial_text(mono)

    def test_solution_family_with_zeroed_constants(self, pde):
        # killing any single free constant still solves the system
        from viscosym.expr import substitute
        ansatz, fns = general_ansatz()
        system = determining_equations(pde, ansatz)
        bodies = symmetry_family_bodies(fns)
        for kill in (c1, c2, c3, c4, c5):
            specialized = {fn: substitute(body, {kill: ZERO})
                           for fn, body in bodies.items()}
            for mono, eq in system.records[:20]:
                assert substitute_functions(eq, specialized) == ZERO


class TestCombinations:
    def test_parse_basis_combination(self, basis):
        gen = parse_basis_combination("X1 + 2*X3")
        assert gen.xi1 == ONE
        assert gen.xi3 == Num(Fraction(2))
        gen = parse_basis_combination("-X4/2")
        assert gen.xi1 == mul(Num(Fraction(-1, 2)), y)

    def test_rejects_nonlinear(self):
        with pytest.raises(Exception, match="linear"):
            parse_basis_combination("X1*X2")

    def test_basis_combination_matches_the_generator_sum(self, basis):
        # the reference folds scaled basis generators with Generator.__add__
        rng = random.Random(11)
        pool = [0, 0, 1, -1, Fraction(2, 3), -2.5, 0.1]
        for _ in range(50):
            coeffs = [rng.choice(pool) for _ in range(5)]
            reference = Generator()
            for coeff, gen in zip(coeffs, basis):
                if Fraction(coeff) != 0:
                    reference = reference + gen.scaled(Num(Fraction(coeff)))
            got = basis_combination(coeffs)
            assert got == reference
            assert all(p is q for p, q in zip(got.coefficients, reference.coefficients))

    def test_compose(self, pde, space):
        # by hand: u_xxt = 2, u_xx = 2*t, u_yy = -sin(y), u_tt = u_yyt = 0
        w = space.parse("x^2*t + sin(y)")
        operator = space.parse("-2*a - 2*b*t + b*sin(y)")
        assert pde.compose(w, ZERO) == operator
        assert pde.compose(w, x) == sub(operator, x)

    def test_pde_shape_validation(self, space):
        with pytest.raises(ExprError, match="coefficient -1"):
            PDEInstance(space.parse("u_tt - 2*f"))
        with pytest.raises(ExprError, match="coefficient -1"):
            PDEInstance(space.parse("u_tt - f*u - f"))
        # compose, and so verify_reduction, relies on the residual being
        # affine in (u, f)
        for text in ("u*u_xx - f", "u_tt*u_xx - f", "sin(u_x) - f"):
            with pytest.raises(ExprError, match="linear in u and its jets"):
                PDEInstance(space.parse(text))
        assert PDEInstance(space.parse("x*u_tt - t^2*u + sin(y) - f")).solved_form \
            == space.parse("x*u_tt - t^2*u + sin(y)")
