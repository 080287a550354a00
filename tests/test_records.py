"""The contract of the package's value classes: kernel nodes declare their
``__slots__``, and every other class is a named tuple, some of them checked
at construction.  Each keeps the behaviour it had as a frozen dataclass:
reprs, immutability, value equality and hashing, constructor signatures and
the checks that run when an instance is built."""

import random
from fractions import Fraction

import pytest

from viscosym import vector_fields
from viscosym.adjoint import adjoint_matrices, adjoint_matrix, normalize
from viscosym.cli import RunConfig
from viscosym.expr import (ExprError, Jet, Kind, Num, Pow, Sym, Unknown, UnknownFn, ZERO,
                           ONE, add, atoms, diff_atom, mul, sub, substitute, term_map,
                           to_text, total_derivative)
from viscosym.reduction import SimilarityChart, characteristic_invariants
from viscosym.spaces import a, b, base_space, f, t, u, x, y
from viscosym.vector_fields import (Generator, PDEInstance, StructureConstants, _prolonger,
                                    commutator_table, determining_equations,
                                    function_shift_generator, general_ansatz,
                                    invariance_residual, monomial_text,
                                    parse_basis_combination, standard_basis,
                                    viscoelastic_pde)

from conftest import random_expr


@pytest.fixture(scope="module")
def chart():
    return characteristic_invariants(parse_basis_combination("X1 + X3"))


class TestGeneratorArithmetic:
    @pytest.mark.parametrize("factor", [2, Fraction(1, 2), Num(2)])
    def test_generator_times_factor_raises(self, factor):
        # a tuple would repeat itself into a 12-tuple
        with pytest.raises(TypeError):
            standard_basis()[0] * factor

    def test_generator_times_generator_raises(self):
        x1, x2 = standard_basis()[:2]
        with pytest.raises(TypeError):
            x1 * x2

    @pytest.mark.parametrize("other", [(ONE,), ()])
    def test_tuple_plus_generator_raises(self, other):
        # a tuple would concatenate into a longer tuple
        with pytest.raises(TypeError, match="adds only to a Generator"):
            other + standard_basis()[0]

    def test_factor_times_generator_scales(self):
        x4 = standard_basis()[3]
        assert 2 * x4 == x4.scaled(2) == Generator(xi1=2 * y, xi2=-2 * x)
        assert Fraction(1, 2) * x4 == x4.scaled(Fraction(1, 2))


class TestImmutability:
    def test_nodes(self):
        with pytest.raises(AttributeError):
            ONE.value = 2
        with pytest.raises(AttributeError):
            del ONE.value
        with pytest.raises(AttributeError):
            ONE.extra = 2
        assert ONE.value == 1

    def test_generator(self):
        gen = standard_basis()[0]
        with pytest.raises(AttributeError):
            gen.xi1 = ZERO
        with pytest.raises(AttributeError):
            gen.extra = 1
        assert gen.xi1 is ONE

    def test_structure_constants(self):
        constants = commutator_table()
        with pytest.raises(AttributeError):
            constants.labels = ("Y1",)
        with pytest.raises(AttributeError):
            constants._hash = 0

    def test_similarity_chart(self, chart):
        with pytest.raises(AttributeError):
            chart.xi = x
        with pytest.raises(AttributeError):
            chart.u_subst = u


class TestRepr:
    def test_node_reprs(self):
        assert repr(Num(1)) == "Num(value=1)"
        assert repr(Num(Fraction(1, 2))) == "Num(value=Fraction(1, 2))"
        assert repr(x) == "Sym(name='x', kind=<Kind.INDEPENDENT: 'independent'>, pos=0)"

    def test_unknown_fn_repr(self):
        fn = UnknownFn("w", (t,))
        sym_t = "Sym(name='t', kind=<Kind.INDEPENDENT: 'independent'>, pos=2)"
        assert repr(fn) == f"UnknownFn(name='w', slots=({sym_t},))"
        assert repr(fn()) == f"Unknown(fn={fn!r}, derivs=(), args=({sym_t},))"


class TestValueEquality:
    def test_equal_unknown_fns_intern_one_node(self):
        first, second = UnknownFn("w", (t,)), UnknownFn("w", (t,))
        assert first == second and hash(first) == hash(second)
        assert first() is second()
        assert Unknown(first, (0,), (x,)) is Unknown(second, (0,), (x,))

    def test_generators_compare_by_value(self):
        built = Generator(xi1=y, xi2=-x, label="X4")
        assert built == standard_basis()[3]
        assert hash(built) == hash(standard_basis()[3])
        assert Generator(xi1=y, xi2=-x) != built         # the label counts

    def test_cached_algebra_is_returned(self):
        constants = commutator_table()
        assert commutator_table() is constants
        mats = adjoint_matrices()
        assert all(m is n for m, n in zip(adjoint_matrices(constants), mats))
        # an equal tensor built apart is the same cache key
        copy = StructureConstants(constants.c, constants.labels)
        assert copy == constants and hash(copy) == hash(constants)
        assert all(m is n for m, n in zip(adjoint_matrices(copy), mats))
        assert adjoint_matrix(4, copy) is mats[3]

    def test_records_are_named_tuples(self):
        result = normalize((0, 0, 2, 1, 3))
        assert result == normalize((0, 0, 2, 1, 3))
        assert result._fields == ("cls", "word", "scale")


class TestConstruction:
    def test_derived_attributes_are_not_arguments(self, chart):
        pde = viscoelastic_pde()
        with pytest.raises(TypeError):
            PDEInstance(pde.residual, solved_form=ZERO)
        with pytest.raises(TypeError):
            SimilarityChart(chart.generator, chart.xi, chart.eta, chart.kind, u_subst=u)
        with pytest.raises(TypeError):
            SimilarityChart(chart.generator, chart.xi, chart.eta, chart.kind, f_subst=u)

    def test_derived_attributes_are_read(self, chart):
        pde = viscoelastic_pde()
        assert pde.solved_form == pde.residual + base_space().parse("f")
        assert chart.u_subst.fn.name == "h" and chart.f_subst.fn.name == "g"
        assert chart.u_subst.args == chart.f_subst.args == (chart.xi, chart.eta)

    def test_checks_run_on_construction_and_replace(self, chart):
        jet = Jet(u, (x,))
        with pytest.raises(ExprError, match="jet variable"):
            Generator(xi1=jet)
        with pytest.raises(ExprError, match="jet variable"):
            standard_basis()[0]._replace(xi2=jet)
        with pytest.raises(ExprError, match="not invariant"):
            chart._replace(xi=x)
        zero = StructureConstants((((Fraction(0),),),), ("X1",))
        with pytest.raises(ExprError, match="antisymmetric"):
            zero._replace(c=(((Fraction(1),),),))

    def test_constructor_signatures(self):
        assert Generator(ONE) == Generator(xi1=ONE)
        with pytest.raises(TypeError):
            Generator(ONE, xi1=ONE)
        with pytest.raises(TypeError):
            Generator(bogus=ONE)

    def test_run_config_default_params_are_not_shared_state(self):
        params = RunConfig().params
        assert dict(params) == {}
        with pytest.raises(TypeError):
            params["a"] = Num(1)
        assert RunConfig().params == {}


# ---------------------------------------------------------------------------
# The determining system and the invariance residual against the Expr-level
# path: contraction as one sum of products, on shell by ``substitute``, then
# the split of that sum's terms
# ---------------------------------------------------------------------------

U_TT, U_XTT, U_YTT = Jet(u, (t, t)), Jet(u, (x, t, t)), Jet(u, (y, t, t))
SP = base_space()
EQUATIONS = (
    viscoelastic_pde(),
    PDEInstance(substitute(viscoelastic_pde().residual, {a: Num(2), b: Num(Fraction(1, 3))})),
    PDEInstance(SP.parse("u_tt - b*(u_xx + u_yy) - f")),
)
ANSATZES = (
    general_ansatz()[0],
    Generator(xi1=SP.parse("x*u"), phi1=SP.parse("u^2 + t")),
    Generator(xi3=SP.parse("sin(u)"), phi2=SP.parse("f*x")),
    Generator(xi1=y, xi2=-x, phi1=SP.parse("u^(1/2)")),
)
CASES = [(i, j) for i in range(len(EQUATIONS)) for j in range(len(ANSATZES))]


def reference_raw(pde, gen):
    coefficient = _prolonger(gen)       # a fresh prolongation, never the shared one
    xis = {x: gen.xi1, y: gen.xi2, t: gen.xi3}
    return add(*[mul(xis[atom] if atom in xis else coefficient(atom),
                     diff_atom(pde.residual, atom))
                 for atom in atoms(pde.residual)
                 if not (isinstance(atom, Sym) and atom.kind is Kind.PARAMETER)])


def reference_invariance(gen, pde):
    return substitute(reference_raw(pde, gen), {f: pde.solved_form},
                      descend_unknown_args=False)


def reference_shell(pde, gen):
    principal = sub(U_TT, pde.residual)
    return substitute(reference_raw(pde, gen), {
        U_TT: principal, U_XTT: total_derivative(principal, x),
        U_YTT: total_derivative(principal, y)}, descend_unknown_args=False)


def _jet_key(jet):
    return (len(jet.indices), tuple((ix.pos, ix.name) for ix in jet.indices))


def reference_records(pde, gen):
    groups = {}
    for factors, coeff in term_map(reference_shell(pde, gen)).items():
        mono, rest = [], []
        for factor in factors:
            base, exp = (factor.base, factor.exp) if isinstance(factor, Pow) else (factor, 1)
            if isinstance(base, Jet) and base.base == u and exp.denominator == 1 and exp > 0:
                mono.append((base, int(exp)))
            else:
                rest.append(factor)
        mono.sort(key=lambda pair: _jet_key(pair[0]))
        groups.setdefault(tuple(mono), []).append(mul(Num(coeff), *rest))
    order = sorted(groups, key=lambda mono: (sum(exp for _, exp in mono),
                                             tuple((_jet_key(j), exp) for j, exp in mono)))
    return tuple((mono, add(*groups[mono])) for mono in order)


def _assert_same_nodes(got, want):
    assert len(got) == len(want)
    for (mono, eq), (want_mono, want_eq) in zip(got, want):
        assert mono == want_mono
        assert eq is want_eq, monomial_text(mono)


class TestTermPath:
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_records_are_the_reference_nodes(self, order):
        # in both orders, so no cache carries one equation into the next
        for i, j in CASES if order == "forward" else CASES[::-1]:
            got = determining_equations(EQUATIONS[i], ANSATZES[j]).records
            _assert_same_nodes(got, reference_records(EQUATIONS[i], ANSATZES[j]))

    def test_invariance_residual_is_the_reference_node(self, basis):
        rng = random.Random(11)
        drawn = []
        for _ in range(4):
            coeffs = [random_expr(rng, depth=3) for _ in range(5)]
            # a point field has no jets: set the corpus's jets to zero
            drawn.append(Generator(*[substitute(e, {j: ZERO for j in atoms(e)
                                                    if isinstance(j, Jet)})
                                     for e in coeffs]))
        gens = [*basis, function_shift_generator(), *ANSATZES, *drawn]
        for gen in gens:
            for pde in EQUATIONS:
                assert invariance_residual(gen, pde) is reference_invariance(gen, pde)

    def test_a_jet_inside_a_function_takes_substitute(self, monkeypatch):
        # bound jets inside a function or under a power other than a positive
        # integer; no checked generator has them, so this one is hand-built
        phi2 = SP.parse("x*sin(u_tt) + y*u_tt^2 + u_xtt^(1/2) + t*u_ytt^-1 + u_tt*u_ytt")
        gen = tuple.__new__(Generator, (ZERO, ZERO, ZERO, ZERO, phi2, None))
        for pde in EQUATIONS:
            want = reference_records(pde, gen)
            fallback = []
            monkeypatch.setattr(vector_fields, "substitute",
                                lambda e, *args, **kw: fallback.append(e) or substitute(e, *args, **kw))
            got = determining_equations(pde, gen).records
            monkeypatch.undo()
            _assert_same_nodes(got, want)
            # one term each, and only the three that hold a bound jet elsewhere
            assert sorted(map(to_text, fallback)) == ["-sqrt(u_xtt)", "-t*u_ytt^-1",
                                                      "-x*sin(u_tt)"]

    def test_a_jet_the_shell_leaves_is_named(self):
        # u_xtt inside sin survives its own binding: both paths name it
        residual = SP.parse("u_tt - f + x*sin(u_xtt)")
        pde = tuple.__new__(PDEInstance, (residual,))      # not linear: hand-built
        gen = Generator(xi1=ONE)
        want = next(to_text(atom) for atom in atoms(reference_shell(pde, gen))
                    if isinstance(atom, Jet) and atom.indices.count(t) >= 2)
        with pytest.raises(ExprError, match=f"unexpected principal-derivative jet {want}$"):
            determining_equations(pde, gen)

    def test_u_tt_must_enter_linearly(self):
        pde = tuple.__new__(PDEInstance, (SP.parse("2*u_tt - f"),))
        with pytest.raises(ExprError, match="linear in u_tt"):
            determining_equations(pde, general_ansatz()[0])
