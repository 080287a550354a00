"""Differential test of the kernel against sympy.

Hypothesis draws small expression recipes over x, y, t and a: sums,
differences, products, small integer powers, rational powers of polynomial
subtrees, sin/cos/exp of integer linear forms, and sin/cos of such forms to
the powers -1 and -2.  Each recipe is built
twice, as a raw (uncanonicalized) kernel tree and as a sympy expression, and
``canonicalize``, ``diff_atom`` and ``substitute`` are checked against
sympy's ``expand``/``expand_trig``, ``diff`` and ``subs``.  Quotient
recipes, whose only non-polynomial nodes are the powers -1 to -3 of sums
(a polynomial plus a polynomial or the reciprocal of a polynomial sum),
check ``numerator`` against ``cancel``.

Equality is decided exactly, never by sampling: after ``expand_trig``
every angle is a single symbol, sin, cos, exp and square-root atoms become
fresh symbols, and the numerator of the difference must reduce to 0 modulo
sin^2 + cos^2 = 1 and (sqrt p)^2 = p (see ``is_zero``).  Rational powers
are halves (and -1): the kernel takes the real odd root of a negative
constant, (-8)^(1/3) = -2, where sympy takes the principal complex one.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from viscosym.expr import (ZERO, Add, DomainEvalError, Func, Mul, Num, Pow, Sym,
                           TermBudgetError, add,
                           canonicalize, diff_atom, mul, numerator, pow_, sub, substitute,
                           term_map)
from viscosym.spaces import a, t, x, y

SYMBOLS = (x, y, t, a)
SP = {s: sympy.Symbol(s.name) for s in SYMBOLS}
_SP_FUNC = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp}


# ---------------------------------------------------------------------------
# Recipes: nested tuples, built once per side
# ---------------------------------------------------------------------------

_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_leaf = st.one_of(st.sampled_from(SYMBOLS).map(lambda s: ("sym", s)),
                  _rational.map(lambda q: ("num", q)))


# sum of c_i * v_i over at most two symbols, integer c_i
_linear = st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(SYMBOLS)),
                   min_size=1, max_size=2).map(lambda terms: ("lin", tuple(terms)))


def _combine(children):
    binary = st.tuples(st.sampled_from(("add", "sub", "mul")), children, children)
    power = st.tuples(st.just("pow"), children, st.integers(0, 3))
    return st.one_of(binary, power)


_polynomial = st.recursive(_leaf, _combine, max_leaves=4)
_rational_power = st.tuples(st.just("pow"), _polynomial,
                            st.sampled_from((Fraction(1, 2), Fraction(-1, 2),
                                             Fraction(3, 2), Fraction(-1))))
_function = st.tuples(st.just("fn"), st.sampled_from(("sin", "cos", "exp")), _linear)
# p*sin(w)^2 + q*cos(w)^2: a partner pair for the Pythagorean rewrite
_pythagorean_pair = st.builds(
    lambda w, p, q: ("add", ("mul", p, ("pow", ("fn", "sin", w), 2)),
                     ("mul", q, ("pow", ("fn", "cos", w), 2))),
    _linear, _leaf, _leaf)
# sin(w)^-n and cos(w)^-n: the normal form's Laurent side
_negative_trig = st.tuples(
    st.just("pow"), st.tuples(st.just("fn"), st.sampled_from(("sin", "cos")), _linear),
    st.sampled_from((-1, -2)))
recipes = st.recursive(st.one_of(_leaf, _function, _rational_power, _pythagorean_pair,
                                 _negative_trig),
                       _combine, max_leaves=8)


def _arithmetic(children):
    return st.tuples(st.sampled_from(("add", "sub", "mul")), children, children)


# sums of polynomials to the powers -1 to -3, combined by +, - and *; a
# sum may hold a reciprocal of a sum itself, one level deep
def _quotient_of(inner, exps):
    return st.tuples(st.just("pow"), st.tuples(st.just("add"), _polynomial, inner),
                     st.sampled_from(exps))


_quotient = _quotient_of(st.one_of(_polynomial, _quotient_of(_polynomial, (-1,))), (-1, -2, -3))
quotient_recipes = st.recursive(st.one_of(_leaf, _quotient), _arithmetic, max_leaves=5)


def raw_tree(recipe):
    """The recipe as raw kernel nodes, not canonicalized."""
    op = recipe[0]
    if op == "sym":
        return recipe[1]
    if op == "num":
        return Num(recipe[1])
    if op == "lin":
        return Add(tuple(Mul(Fraction(c), (s,)) for c, s in recipe[1]) + (Num(0),))
    if op == "fn":
        return Func(recipe[1], (raw_tree(recipe[2]),))
    if op == "pow":
        return Pow(raw_tree(recipe[1]), Fraction(recipe[2]))
    left, right = raw_tree(recipe[1]), raw_tree(recipe[2])
    if op == "add":
        return Add((left, right))
    if op == "sub":
        return Add((left, Mul(Fraction(-1), (right,))))
    return Mul(Fraction(1), (left, right))


def sympy_tree(recipe):
    op = recipe[0]
    if op == "sym":
        return SP[recipe[1]]
    if op == "num":
        return sympy.Rational(recipe[1].numerator, recipe[1].denominator)
    if op == "lin":
        return sum((c * SP[s] for c, s in recipe[1]), sympy.Integer(0))
    if op == "fn":
        return _SP_FUNC[recipe[1]](sympy_tree(recipe[2]))
    if op == "pow":
        exp = Fraction(recipe[2])
        return sympy.Pow(sympy_tree(recipe[1]), sympy.Rational(exp.numerator, exp.denominator))
    left, right = sympy_tree(recipe[1]), sympy_tree(recipe[2])
    return {"add": left + right, "sub": left - right, "mul": left * right}[op]


def to_sympy(e):
    """A canonical kernel tree as a sympy expression."""
    if isinstance(e, Num):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return SP[e]
    if isinstance(e, Func):
        return _SP_FUNC[e.fn](*map(to_sympy, e.args))
    if isinstance(e, Pow):
        return sympy.Pow(to_sympy(e.base), sympy.Rational(e.exp.numerator, e.exp.denominator))
    if isinstance(e, Mul):
        return sympy.Mul(sympy.Rational(e.coeff.numerator, e.coeff.denominator),
                         *map(to_sympy, e.factors))
    if isinstance(e, Add):
        return sympy.Add(*map(to_sympy, e.terms))
    raise TypeError(f"unexpected node {e!r}")


def from_sympy(e):
    """A sympy rational function of x, y, t and a as a canonical kernel tree."""
    if e.is_Symbol:
        return next(s for s in SYMBOLS if SP[s] == e)
    if e.is_Rational:
        return Num(Fraction(int(e.p), int(e.q)))
    if e.is_Pow:
        assert e.exp.is_Integer, f"{e} is not an integer power"
        return pow_(from_sympy(e.base), int(e.exp))
    parts = [from_sympy(arg) for arg in e.args]
    return add(*parts) if e.is_Add else mul(*parts)


def _symbolize(e):
    """Replace the transcendental and radical atoms of e by fresh symbols.

    sin(v) -> S_v and cos(v) -> C_v (after ``expand_trig`` every angle is a
    symbol v), exp(sum c_i v_i) -> prod E_v^c_i, and b^(k/2) -> c^(k/2)*W^k
    for the positive rational content c and the primitive part p of the
    expanded base, with W a symbol per p.  Returns the rational function and
    the rules sym^2 -> value that the symbols obey."""
    rules = {}
    radicals = {}

    def trig(node):
        angle = node.args[0]
        assert angle.is_Symbol, f"angle {angle} survived expand_trig"
        s, c = sympy.Symbol(f"S_{angle}"), sympy.Symbol(f"C_{angle}")
        rules[s] = 1 - c ** 2
        return s if isinstance(node, sympy.sin) else c

    def exponential(node):
        out = sympy.Integer(1)
        for v, c in sympy.expand(node.args[0]).as_coefficients_dict().items():
            assert v.is_Symbol and c.is_Integer, f"exp({node.args[0]}) is not integer-linear"
            out *= sympy.Symbol(f"E_{v}") ** c
        return out

    def radical(node):
        assert (2 * node.exp).is_Integer, f"{node} is not a half-integer power"
        content, primitive = sympy.expand(node.base).as_content_primitive()
        if primitive not in radicals:
            radicals[primitive] = sympy.Symbol(f"W_{len(radicals)}")
            rules[radicals[primitive]] = primitive
        return sympy.Pow(content, node.exp) * radicals[primitive] ** int(2 * node.exp)

    e = e.replace(lambda n: isinstance(n, (sympy.sin, sympy.cos)), trig)
    e = e.replace(lambda n: isinstance(n, sympy.exp), exponential)
    e = e.replace(lambda n: n.is_Pow and not n.exp.is_Integer and not n.base.is_number,
                  radical)
    return e, rules


def is_zero(difference) -> bool:
    """Whether difference is 0: the numerator of its symbolized form
    vanishes modulo S_v^2 + C_v^2 - 1 and W^2 - p.  Those relations have
    pairwise coprime leading terms S_v^2 and W^2, so they are a Groebner
    basis and reducing every square of S_v and W to its value gives a
    canonical remainder."""
    e, rules = _symbolize(sympy.expand_trig(difference))
    numerator = sympy.expand(sympy.fraction(sympy.together(e))[0])

    def reducible(node):
        return node.is_Pow and node.base in rules and node.exp.is_Integer and node.exp >= 2

    def lower(node):
        k = int(node.exp)
        return node.base ** (k % 2) * rules[node.base] ** (k // 2)

    while True:
        reduced = sympy.expand(numerator.replace(reducible, lower))
        if reduced == numerator:
            return reduced == 0
        numerator = reduced


# expand_trig writes sin(w) and cos(w), w = sum c_i v_i, as polynomials of
# degree sum |c_i| in the sines and cosines of the v_i
MAX_ANGLE_DEGREE = 6


def _angle_degree(e) -> int:
    """The largest sum |c_i| over the angles sum c_i v_i of e's sin and cos
    (0 when e has none)."""
    if isinstance(e, Func):
        own = (sum(abs(c) for factors, c in term_map(e.args[0]).items() if factors)
               if e.fn in ("sin", "cos") else 0)
        return max(own, *map(_angle_degree, e.args))
    if isinstance(e, Pow):
        return _angle_degree(e.base)
    children = e.factors if isinstance(e, Mul) else e.terms if isinstance(e, Add) else ()
    return max(map(_angle_degree, children), default=0)


def fits(e, limit=30) -> bool:
    """Whether e has at most ``limit`` monomials, counting a sum to the power
    -k as its k-th power, and no sin/cos angle above MAX_ANGLE_DEGREE.  A
    rare draw such as a cubed product of angle sums, cos(t + 4*x - 4*y)^-6,
    or cos(4*x)^-1 after a substitution x -> 2*x - a expands to hundreds of
    terms, and sympy's side of the check then takes seconds to minutes."""
    size = 0
    for factors in term_map(e):
        monomials = 1
        for factor in factors:
            if isinstance(factor, Pow) and isinstance(factor.base, Add) and factor.exp < 0:
                monomials *= len(factor.base.terms) ** -math.floor(factor.exp)
        size += monomials
    return size <= limit and _angle_degree(e) <= MAX_ANGLE_DEGREE


def small(e, limit=30):
    """e, unless it does not fit the limits above: then the draw is rejected."""
    if not fits(e, limit):
        reject()
    return e


def canonical(recipe):
    try:
        return small(canonicalize(raw_tree(recipe)))
    except DomainEvalError:     # a zero base under a negative power
        reject()
    except TermBudgetError:     # an expansion the kernel refuses to build
        reject()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(recipes)
@example(("pow", ("mul", ("num", Fraction(4)), ("sym", x)), Fraction(1, 2)))
@example(("pow", ("add", ("sym", a), ("pow", ("pow", ("sym", a), 2), Fraction(1, 2))), 3))
@example(("mul", ("pow", ("fn", "sin", ("lin", ((2, x),))), 3),
          ("pow", ("fn", "cos", ("lin", ((2, x),))), -2)))
@example(("pow", ("add", ("num", Fraction(1)),
                  ("mul", ("num", Fraction(-1)), ("pow", ("fn", "sin", ("lin", ((1, y),))), 2))),
          -1))
def test_canonicalize_matches_expand(recipe):
    # the first two examples once canonicalized to non-canonical trees:
    # sqrt(4*x) kept a Mul(1, (x,)) base, and (a + sqrt(a^2))^3 a product
    # a*a^2; the last two take the rules for negative powers of cos
    e = canonical(recipe)
    assert canonicalize(e) is e
    assert is_zero(sympy_tree(recipe) - to_sympy(e))


@settings(max_examples=100, deadline=None)
@given(recipes, st.sampled_from(SYMBOLS))
def test_diff_atom_matches_diff(recipe, var):
    e = canonical(recipe)
    derivative = small(diff_atom(e, var), 60)
    assert is_zero(sympy.diff(sympy_tree(recipe), SP[var]) - to_sympy(derivative))


@settings(max_examples=100, deadline=None)
@given(recipes, _linear, _linear)
def test_substitute_matches_subs(recipe, for_x, for_y):
    # each form may name x and y: the substitution is simultaneous
    e = canonical(recipe)
    bindings = {x: canonicalize(raw_tree(for_x)), y: canonicalize(raw_tree(for_y))}
    try:
        result = small(substitute(e, bindings), 60)
    except DomainEvalError:     # the substitution zeroed a base under a negative power
        reject()
    except TermBudgetError:     # an expansion the kernel refuses to build
        reject()
    expected = sympy_tree(recipe).subs({SP[x]: sympy_tree(for_x), SP[y]: sympy_tree(for_y)},
                                       simultaneous=True)
    if expected.has(sympy.zoo, sympy.nan):
        reject()
    assert is_zero(expected - to_sympy(result))


@settings(max_examples=100, deadline=None)
@given(quotient_recipes, quotient_recipes)
@example(("mul", ("sym", x), ("pow", ("add", ("sym", x), ("sym", y)), -2)),
         ("sub", ("pow", ("add", ("sym", x), ("sym", y)), -1),
          ("mul", ("sym", y), ("pow", ("add", ("sym", x), ("sym", y)), -2))))
def test_numerator_is_zero_where_cancel_is(first, second):
    # x/(x+y)^2 = 1/(x+y) - y/(x+y)^2 in the example; a recipe against its
    # own cancelled form is always a zero, so both sides are exercised
    e = canonical(("sub", first, second))
    assert (numerator(e) is ZERO) == (sympy.cancel(to_sympy(e)) == 0)
    same = small(sub(canonical(first), from_sympy(sympy.cancel(sympy_tree(first)))), 60)
    assert numerator(same) is ZERO


def test_small_bounds_the_angle_degree():
    # a draw on which sympy's side ran past 90 s: x -> 2x - a turns the
    # angles 4x, 2x - a and 3x into 8x - 4a, 4x - 3a and 6x - 3a, which the
    # kernel writes over the angles 8x, 6x, 4x, a, 2a, 3a and 4a; its 35
    # monomials are below the monomial limit of 60 on their own
    cos = lambda *terms: ("fn", "cos", ("lin", terms))
    e = canonical(("add", ("sub", ("pow", cos((4, x)), -1), ("pow", cos((3, x)), -1)),
                   ("add", ("pow", cos((2, x), (-1, a)), 3), ("sym", t))))
    moved = substitute(e, {x: canonicalize(raw_tree(("lin", ((2, x), (-1, a)))))})
    assert len(term_map(moved)) == 35 and _angle_degree(moved) == 8
    assert not fits(moved, 60)
    at_limit = canonical(("pow", cos((6, x)), -1))
    assert _angle_degree(at_limit) == MAX_ANGLE_DEGREE and fits(at_limit)


def test_both_negative_powers_stay_two_nodes():
    # the open case: with sin(w) and cos(w) both under negative powers the
    # normal form is not canonical, so equal trees can stay two nodes
    lhs = canonical(("mul", ("pow", ("fn", "sin", ("lin", ((1, x),))), -2),
                     ("pow", ("fn", "cos", ("lin", ((1, x),))), -2)))
    rhs = canonical(("add", ("pow", ("fn", "sin", ("lin", ((1, x),))), -2),
                     ("pow", ("fn", "cos", ("lin", ((1, x),))), -2)))
    assert lhs is not rhs
    assert is_zero(to_sympy(lhs) - to_sympy(rhs))


def test_normal_form_separates_unequal_trees():
    # the oracle is not vacuous: near misses are told apart
    s, c = sympy.sin(SP[x]), sympy.cos(SP[x])
    assert is_zero(s ** 4 - (1 - c ** 2) ** 2)
    assert is_zero(sympy.sin(2 * SP[x] + SP[y]) - to_sympy(canonical(
        ("fn", "sin", ("lin", ((2, x), (1, y)))))))
    assert not is_zero(s ** 2 + c ** 2)
    assert not is_zero(sympy.sin(SP[x] + SP[y]) - s * sympy.cos(SP[y]))
    assert not is_zero(sympy.sqrt(SP[x] ** 2) - SP[x])
