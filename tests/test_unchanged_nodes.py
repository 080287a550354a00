"""The constructors return a canonical node that would come out unchanged
instead of building it again: ``rebuild`` (so ``substitute``) keeps a node
none of whose children changed, ``add`` keeps an input term whose
coefficient no other term changes, and ``_mul_terms`` merges the factors of
two monomials with distinct non-trig bases without going back into ``mul``.
Each shortcut must give the very node the full rebuild gives; the tests
here check that against references that rebuild every node, and count the
constructor calls that the shortcuts save."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from viscosym import expr
from viscosym.expr import (Add, DomainEvalError, Func, Jet, Mul, Num, Pow, TermBudgetError,
                           Unknown, ONE, _as_term, _mul_terms, add, canonicalize, func, mul,
                           pow_, rebuild, substitute)
from viscosym.spaces import a, b, f, t, u, x, y

from conftest import random_expr

U_X = Jet(u, (x,))


def reference_rebuild(e, table):
    """The full rebuild: every node through the constructors, a bound
    atom replaced by its value; each distinct node once."""
    done = {}

    def walk(node):
        if node in done:
            return done[node]
        if node in table:
            new = table[node]
        elif isinstance(node, Add):
            new = add(*[walk(term) for term in node.terms])
        elif isinstance(node, Mul):
            new = mul(Num(node.coeff), *[walk(factor) for factor in node.factors])
        elif isinstance(node, Pow):
            new = pow_(walk(node.base), node.exp)
        elif isinstance(node, Func):
            new = func(node.fn, *[walk(arg) for arg in node.args])
        elif isinstance(node, Unknown):
            new = Unknown(node.fn, node.derivs, tuple(walk(arg) for arg in node.args))
        else:
            new = node
        done[node] = new
        return new

    return walk(e)


# ---------------------------------------------------------------------------
# Drawn trees: conftest's random corpus, and constructor recipes whose
# leaves include sin/cos of one angle and whose powers include halves
# ---------------------------------------------------------------------------

_LEAVES = (x, y, t, a, U_X, Num(2), Num(Fraction(-1, 3)), func("sin", x), func("cos", x),
           func("exp", t), func("sin", mul(Num(2), y)))
_EXPONENTS = (2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))


def _combine(children):
    return st.one_of(st.tuples(st.sampled_from(("add", "mul")), children, children),
                     st.tuples(st.just("pow"), children, st.sampled_from(_EXPONENTS)))


recipes = st.recursive(st.sampled_from(_LEAVES), _combine, max_leaves=6)


def build(recipe):
    if isinstance(recipe, tuple):
        op, left, right = recipe
        if op == "pow":
            return pow_(build(left), right)
        return (add if op == "add" else mul)(build(left), build(right))
    return recipe


def built(recipe):
    try:
        e = build(recipe)
    except (DomainEvalError, TermBudgetError):  # 1/0, or a product past the budget
        reject()
    if len(e.terms if isinstance(e, Add) else ()) > 300:
        reject()
    return e


@settings(max_examples=200, deadline=None)
@given(recipes)
def test_constructor_trees_are_fixed_points(recipe):
    e = built(recipe)
    assert canonicalize(e) is e
    assert rebuild(e, lambda node: None) is e


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_corpus_trees_are_fixed_points(seed):
    e = random_expr(random.Random(seed), depth=5)
    assert canonicalize(e) is e


@settings(max_examples=150, deadline=None)
@given(recipes, recipes, recipes)
def test_substitute_is_the_full_rebuild(recipe, for_x, for_y):
    # the values may mention x and y: both are bound at once
    e = built(recipe)
    table = {x: built(for_x), y: built(for_y)}
    try:
        want = reference_rebuild(e, table)
    except DomainEvalError:
        reject()
    except TermBudgetError:
        # a power of a substituted sum can pass the kernel's term budget:
        # the subject must refuse it with the same typed error
        with pytest.raises(TermBudgetError):
            substitute(e, table)
        return
    assert substitute(e, table) is want


# ---------------------------------------------------------------------------
# _mul_terms against mul on drawn monomials
# ---------------------------------------------------------------------------

# shared bases, sin^k beside cos^-j, rational powers of atoms and sums
_BASES = (x, y, U_X, a, func("sin", x), func("cos", x), func("exp", t),
          add(x, ONE), pow_(Num(2), Fraction(1, 2)))
_monomial = st.tuples(
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
    st.lists(st.tuples(st.sampled_from(_BASES),
                       st.sampled_from((1, 2, 3, -1, -2, -3) + _EXPONENTS[4:])),
             max_size=4))


def _as_monomial(drawn):
    coeff, powers = drawn
    try:
        e = mul(Num(coeff), *[pow_(base, exp) for base, exp in powers])
    except DomainEvalError:
        reject()
    if isinstance(e, Add):      # cos(x)^2 = 1 - sin(x)^2, (x + 1)^2, ...
        reject()
    return _as_term(e)


@settings(max_examples=400, deadline=None)
@given(_monomial, _monomial)
def test_mul_terms_is_mul(first, second):
    (c1, f1), (c2, f2) = _as_monomial(first), _as_monomial(second)
    got = _mul_terms(c1 * c2, f1, f2)
    assert got is mul(Num(c1), *f1, Num(c2), *f2)
    assert canonicalize(got) is got


@pytest.mark.parametrize("f1, f2", [
    ((x, y), (t, a)),
    ((pow_(x, -1),), (pow_(add(x, ONE), Fraction(1, 2)), U_X)),
    ((func("exp", t),), (pow_(a, 3),)),
])
def test_mul_terms_merges_disjoint_factors_without_mul(monkeypatch, f1, f2):
    calls = _count(monkeypatch, "mul")
    got = _mul_terms(6, f1, f2)
    assert calls == []
    assert got is mul(Num(6), *f1, *f2)


@pytest.mark.parametrize("f1, f2", [
    ((x, y), (pow_(x, 2),)),                                      # a shared base
    ((pow_(func("sin", x), 2),), (pow_(func("cos", x), -1),)),    # rule (b)
    ((func("cos", x),), (func("cos", y),)),                       # any sin/cos base
])
def test_mul_terms_leaves_the_rest_to_mul(monkeypatch, f1, f2):
    calls = _count(monkeypatch, "mul")
    got = _mul_terms(1, f1, f2)
    assert len(calls) >= 1
    assert got is calls[-1]     # the outermost call returns last


# ---------------------------------------------------------------------------
# The saved work, counted
# ---------------------------------------------------------------------------

def _count(monkeypatch, name):
    """Record each result of the kernel's ``name`` as called from inside the
    kernel, the walk and the constructors' own recursion included."""
    results = []
    real = getattr(expr, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(expr, name, counted)
    return results


SAMPLE = add(mul(x, y), mul(pow_(func("sin", t), 2), U_X), pow_(add(x, y), -1),
             func("atan2", x, mul(Num(3), a)), Unknown(expr.UnknownFn("F", (x, y, t)), (0,),
                                                       (x, y, t)))


class TestSavedWork:
    def test_absent_binding_builds_nothing(self, monkeypatch):
        counts = {name: _count(monkeypatch, name) for name in ("add", "mul", "pow_", "func")}
        assert substitute(SAMPLE, {b: ONE, Jet(f, (y,)): x}) is SAMPLE
        assert {name: len(calls) for name, calls in counts.items()} == \
            {"add": 0, "mul": 0, "pow_": 0, "func": 0}

    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_binding_in_k_terms_rebuilds_their_ancestors(self, monkeypatch, k):
        # n = 8 terms a^i*u_x, of which the first k also hold b
        n = 8
        e = add(*[mul(pow_(a, i), U_X, *([b] if i <= k else [])) for i in range(1, n + 1)])
        adds, muls = _count(monkeypatch, "add"), _count(monkeypatch, "mul")
        got = substitute(e, {b: y})
        assert len(muls) == k               # one per term that holds b
        assert len(adds) == (k > 0)         # and the sum above them, once
        assert got is reference_rebuild(e, {b: y})

    def test_hand_assembled_trees_need_canonicalize(self):
        raw = Add((Mul(1, (x,)), Num(0)))
        assert rebuild(raw, lambda node: None) is raw
        assert canonicalize(raw) is x

    def test_add_keeps_terms_whose_coefficient_holds(self, monkeypatch):
        two_xy, three_t = mul(Num(2), x, y), mul(Num(3), t)
        made = _count(monkeypatch, "_from_term")
        assert add(two_xy, three_t, ONE).terms == (ONE, two_xy, three_t)
        assert made == []
        assert add(two_xy, three_t, mul(Num(-1), x, y)) is add(mul(x, y), three_t)
        assert mul(x, y) in made and three_t not in made


def test_integral_fraction_exponents_take_the_trig_rule():
    # sin(x)^(1/2) * sin(x)^(3/2) sums its exponents to Fraction(2), which
    # must meet cos(x)^-1 as sin(x)^2 does
    sin, cos = func("sin", x), func("cos", x)
    got = mul(pow_(sin, Fraction(1, 2)), pow_(sin, Fraction(3, 2)), pow_(cos, -1))
    assert got is mul(pow_(sin, 2), pow_(cos, -1))
    assert canonicalize(got) is got
