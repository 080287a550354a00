"""The contract of the package's value classes: kernel nodes declare their
``__slots__``, and every other class is a named tuple, some of them checked
at construction.  Each keeps the behaviour it had as a frozen dataclass:
reprs, immutability, value equality and hashing, constructor signatures and
the checks that run when an instance is built."""

from fractions import Fraction

import pytest

from viscosym.adjoint import adjoint_matrices, normalize
from viscosym.cli import RunConfig
from viscosym.expr import ExprError, Jet, Num, Unknown, UnknownFn, ZERO, ONE
from viscosym.reduction import SimilarityChart, characteristic_invariants
from viscosym.spaces import base_space, t, u, x, y
from viscosym.vector_fields import (Generator, PDEInstance, StructureConstants,
                                    commutator_table, parse_basis_combination,
                                    standard_basis, viscoelastic_pde)


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
        assert adjoint_matrices() is adjoint_matrices(constants)
        # an equal tensor built apart is the same cache key
        copy = StructureConstants(constants.c, constants.labels)
        assert copy == constants and hash(copy) == hash(constants)
        assert adjoint_matrices(copy) is adjoint_matrices()

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
