"""Kernel numbers: an int when integral, a Fraction only when the
denominator is greater than 1, never a float; and the divisions that may
see two ints stay exact."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosym.expr import (Add, Func, Jet, Kind, Mul, Num, Pow, Sym, Unknown, ZERO, ONE,
                           canonicalize, diff_atom, func, mul, pow_, rational,
                           numerator, sub, substitute, total_derivative)
from viscosym.flows import flow_map
from viscosym.linalg import mat_exp
from viscosym.reduction import characteristic_invariants
from viscosym.spaces import base_space, s, t, u, x, y
from viscosym.vector_fields import parse_basis_combination

from conftest import random_expr

SP = base_space()


def kernel_numbers(e):
    """Every Num value, Mul coefficient and Pow exponent in e."""
    if isinstance(e, Num):
        yield e.value
    elif isinstance(e, Mul):
        yield e.coeff
        for factor in e.factors:
            yield from kernel_numbers(factor)
    elif isinstance(e, Pow):
        yield e.exp
        yield from kernel_numbers(e.base)
    elif isinstance(e, Add):
        for term in e.terms:
            yield from kernel_numbers(term)
    elif isinstance(e, (Func, Unknown)):
        for arg in e.args:
            yield from kernel_numbers(arg)
    else:
        assert isinstance(e, (Sym, Jet)), e


def is_kernel_number(value) -> bool:
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_every_node_holds_an_int_or_a_proper_fraction(seed):
    e = random_expr(random.Random(seed), depth=4)
    images = [e, canonicalize(e), diff_atom(e, x), diff_atom(e, SP.parse("u_x")),
              total_derivative(e, t), total_derivative(e, x),
              substitute(e, {x: SP.parse("t/2 + 3/2"), u: SP.parse("2/3*u_x - y")})]
    for image in images:
        for value in kernel_numbers(image):
            assert is_kernel_number(value), (type(value), value)


class TestNormalization:
    def test_rational_returns_an_int_when_integral(self):
        assert type(rational(Fraction(4, 2))) is int
        assert type(rational(True)) is int
        assert rational(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(TypeError):
            rational(0.5)

    def test_constructors_normalize(self):
        assert Num(Fraction(4, 2)) is Num(2)
        assert Num(Fraction(1)) is ONE
        assert Mul(Fraction(3, 1), (x,)) is mul(Num(3), x)
        assert Pow(x, Fraction(2)) is pow_(x, 2)
        # a symbol no other tree holds, so each raw node below is new
        w = Sym("w_numbers", Kind.PARAMETER, 91)
        assert type(Num(Fraction(-10 ** 30, 1)).value) is int
        assert type(Mul(Fraction(5, 1), (w,)).coeff) is int
        assert type(Pow(w, Fraction(7, 1)).exp) is int

    def test_floats_are_rejected(self):
        for build in (lambda: Num(2.0), lambda: pow_(x, 2.0), lambda: Mul(1.5, (x,))):
            with pytest.raises(TypeError):
                build()


class TestExactDivision:
    def test_negative_integer_power_of_an_int(self):
        assert pow_(Num(2), -1) is Num(Fraction(1, 2))
        assert pow_(Num(-3), -2) is Num(Fraction(1, 9))

    def test_negative_rational_power_of_an_int(self):
        assert pow_(Num(4), Fraction(-1, 2)) is Num(Fraction(1, 2))
        assert pow_(Num(-8), Fraction(-1, 3)) is Num(Fraction(-1, 2))

    def test_linear_chart_ratio(self):
        chart = characteristic_invariants(parse_basis_combination("2*X1 + 3*X3"))
        assert SP.parse("x - 2/3*t") in (chart.xi, chart.eta)

    def test_rotation_fixed_point(self):
        # X1 + 2*X4 rotates about (0, -1/2)
        flow = flow_map(parse_basis_combination("X1 + 2*X4"))
        center = {x: ZERO, y: Num(Fraction(-1, 2))}
        assert substitute(flow.x_eps, center) is ZERO
        assert substitute(flow.y_eps, center) is Num(Fraction(-1, 2))

    def test_quotient_with_a_non_integer_coefficient(self):
        # (x + y) / (2x + 2y) is 1/2
        e = SP.parse("x/(2*x + 2*y) + y/(2*x + 2*y)")
        assert isinstance(e, Add)
        assert numerator(e) is SP.parse("x + y")
        assert numerator(sub(e, Num(Fraction(1, 2)))) is ZERO

    def test_exp_series_of_int_matrices(self):
        c, sn = func("cos", mul(Num(2), s)), func("sin", mul(Num(2), s))
        assert mat_exp([[0, 2], [-2, 0]], s) == ((c, sn), (mul(Num(-1), sn), c))
        half_s2 = mul(Num(Fraction(1, 2)), pow_(s, 2))
        assert mat_exp([[0, 1, 0], [0, 0, 1], [0, 0, 0]], s) == (
            (ONE, s, half_s2), (ZERO, ONE, s), (ZERO, ZERO, ONE))
