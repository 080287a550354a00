"""Differential test of the batch evaluator: ``eval_batch`` must give the
values and the failures of the recursive one-point walker below, kept here
as the reference, evaluated root by root at every point in turn."""

from __future__ import annotations

import math
import random
import struct
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expr
from viscosym.expr import (Add, DomainEvalError, EvalError, Expr, ExprError, Func,
                           Jet, Mul, Num, Pow, Sym, Unknown, UnknownFn,
                           UnassignedSymbolError, _EVAL_BLOCK, atoms, eval_batch,
                           eval_numeric, to_text)
from viscosym.flows import flow_map, sample_flow
from viscosym.spaces import base_space, eps, t, x, y
from viscosym.vector_fields import parse_basis_combination

_MATH_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
            "arctan": math.atan, "atan2": math.atan2}


def reference_eval(e: Expr, assignment: Mapping[Expr, float]) -> float:
    """The recursive per-point walker that ``eval_batch`` replaced."""
    values: dict[Expr, float] = {}
    for k, v in assignment.items():
        if not isinstance(k, (Sym, Jet)):
            raise ExprError(f"bad assignment key {k!r}")
        values[k] = float(v)

    def ev(node: Expr) -> float:
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, (Sym, Jet)):
            try:
                return values[node]
            except KeyError:
                raise UnassignedSymbolError(f"no value assigned to {to_text(node)}") from None
        if isinstance(node, Func):
            args = [ev(a) for a in node.args]
            return _MATH_FN[node.fn](*args)
        if isinstance(node, Unknown):
            raise UnassignedSymbolError(f"no value for the opaque function {node.fn.name}")
        if isinstance(node, Pow):
            base = ev(node.base)
            exp = node.exp
            if base == 0 and exp < 0:
                raise DomainEvalError("division by zero")
            if base < 0 and exp.denominator != 1:
                raise DomainEvalError(f"negative base {base!r} under rational power {exp}")
            return base ** float(exp) if exp.denominator != 1 else base ** int(exp)
        if isinstance(node, Mul):
            out = float(node.coeff)
            for fac in node.factors:
                out *= ev(fac)
            return out
        if isinstance(node, Add):
            return math.fsum(ev(t) for t in node.terms)
        raise TypeError(f"not an Expr: {node!r}")

    try:
        value = ev(e)
        if math.isfinite(value):
            return value
    except (OverflowError, ValueError):
        pass
    raise EvalError("numeric overflow: a value exceeds the double range")


def _bits(values):
    return [struct.pack("d", v) for v in values]


def _reference_points(roots, columns, npoints):
    """Per point: the values of every root, or the first exception."""
    out = []
    for point in range(npoints):
        assignment = {atom: column[point] for atom, column in columns.items()}
        try:
            out.append([reference_eval(root, assignment) for root in roots])
        except EvalError as exc:
            out.append(exc)
    return out


def assert_matches_reference(roots, columns, npoints):
    expected = _reference_points(roots, columns, npoints)
    failures = [(point, exc) for point, exc in enumerate(expected)
                if isinstance(exc, Exception)]
    if failures:
        first = failures[0][1]
        with pytest.raises(EvalError) as info:
            eval_batch(roots, columns)
        assert (type(info.value), str(info.value)) == (type(first), str(first))
    else:
        got = eval_batch(roots, columns)
        assert [_bits(values) for values in got] == \
            [_bits(row[r] for row in expected) for r in range(len(roots))]

    # the same per point, with the failures collected instead of raised
    errors = {}
    got = eval_batch(roots, columns, errors=errors)
    assert sorted(errors) == [point for point, _ in failures]
    for point, exc in failures:
        assert (type(errors[point]), str(errors[point])) == (type(exc), str(exc))
        assert all(math.isnan(values[point]) for values in got)
    for point, values in enumerate(expected):
        if not isinstance(values, Exception):
            assert _bits(column[point] for column in got) == _bits(values)


SP = base_space()
F = UnknownFn("F", (x, y, t))
SPF = SP.with_unknowns(F)

# columns draw from ordinary values and from values that hit every failure:
# 0 under a negative power, a negative base under a rational power, overflow
# of products and powers, and infinities that meet in a sum
_SPECIAL = [0.0, -0.0, -1.5, -2.0, 2.0, 1e5, -1e5, 1e300, 1e-300, 5e-324,
            math.inf, -math.inf, math.nan]
_value = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_SPECIAL))

# trees that fail in every way the walker can, alone and inside larger sums
_EDGE_TEXTS = [
    "1/x^2", "1/(x*y)", "sqrt(x) + y", "x^(3/2) - 1/y", "10^300*x^400",
    "10^300*x^2 - 10^300*y^2", "10^308*x + 10^308*y + y*u",
    "exp(exp(x)) + sin(y)", "sin(10^300*x^2)", "1/atan2(x, y)",
    "u_x*sqrt(x) + f", "f*sqrt(x)", "x^1000000 + 1/y", "10^400*x",
    "F(x, y, t) + sqrt(x)", "sqrt(x) + F_t(x, y, t)", "cos(x)^2 + 1/sin(y)",
    "1/sqrt(x)", "sqrt(x) + 10^300*y^2 - 10^300*t^2",
]
_EDGES = [SPF.parse(text) for text in _EDGE_TEXTS]


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(0, 6), st.data())
def test_random_trees_match_the_walker(seed, nroots, npoints, data):
    rng = random.Random(seed)
    roots = [random_expr(rng) if rng.random() < 0.7 else rng.choice(_EDGES)
             for _ in range(nroots)]
    atoms_seen = sorted({atom for root in roots for atom in atoms(root)
                         if isinstance(atom, (Sym, Jet))}, key=to_text)
    # leave one atom unassigned now and then
    if atoms_seen and data.draw(st.integers(0, 9)) == 0:
        atoms_seen.pop(data.draw(st.integers(0, len(atoms_seen) - 1)))
    columns = {atom: data.draw(st.lists(_value, min_size=npoints, max_size=npoints))
               for atom in atoms_seen}
    assert_matches_reference(roots, columns, npoints if columns else 1)


@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_edge_trees_match_the_walker(text):
    root = SPF.parse(text)
    grid = [0.0, -0.0, -1.5, 2.0, 1e5, 1e300, math.inf, -math.inf, math.nan, 0.7]
    columns = {atom: [grid[(i * (k + 3)) % len(grid)] for i in range(40)]
               for k, atom in enumerate(sorted((a for a in atoms(root)
                                                if isinstance(a, (Sym, Jet))), key=to_text))}
    assert_matches_reference([root], columns, 40)


def test_intermediate_fsum_overflow_comes_before_a_later_failing_term():
    # fsum stops with an overflow at the second term, before it reaches the
    # unassigned symbol; with finite terms the symbol is what fails
    root = SP.parse("10^308*x + 10^308*y + y*u")
    assert to_text(root.terms[-1]) == "y*u"
    with pytest.raises(EvalError, match="overflow"):
        eval_batch([root], {x: [1.7], y: [1.7]})
    assert_matches_reference([root], {x: [1.7, 0.5], y: [1.7, 0.5]}, 2)
    with pytest.raises(UnassignedSymbolError):
        eval_batch([root], {x: [0.5, 1.7], y: [0.5, 1.7]})


def test_failing_term_wins_over_a_non_finite_sum():
    # the walker stops at sqrt(-1.5); the other terms would be inf - inf
    root = SP.parse("sqrt(x) + 10^300*y^2 - 10^300*t^2")
    assert to_text(root.terms[0]) == "sqrt(x)"
    with pytest.raises(DomainEvalError, match="negative base"):
        eval_batch([root], {x: [-1.5], y: [1e5], t: [1e5]})
    assert_matches_reference([root], {x: [-1.5, 2.0], y: [1e5, 1e5], t: [1e5, 1.0]}, 2)


def test_earliest_point_wins_over_root_order():
    # the second root fails at point 0, the first at point 1
    roots = [SP.parse("1/x"), SP.parse("sqrt(y)")]
    with pytest.raises(DomainEvalError, match="negative base -1.0"):
        eval_batch(roots, {x: [1.0, 0.0], y: [-1.0, 4.0]})


def test_unassigned_symbol_and_opaque_function():
    with pytest.raises(UnassignedSymbolError, match="no value assigned to y"):
        eval_batch([SP.parse("x + y")], {x: [1.0, 2.0]})
    with pytest.raises(UnassignedSymbolError, match="opaque function F"):
        eval_batch([SPF.parse("F_t(x, y, t)")], {x: [0.3], y: [0.4], t: [0.5]})


def test_bad_columns():
    with pytest.raises(ExprError, match="bad assignment key"):
        eval_batch([SP.parse("x")], {SP.parse("x + 1"): [1.0]})
    with pytest.raises(ExprError, match="one value per point"):
        eval_batch([SP.parse("x + y")], {x: [1.0, 2.0], y: [1.0]})


def test_no_columns_is_one_point():
    assert eval_batch([SP.parse("2/3"), SP.parse("sin(1)")], {}) == [[2 / 3], [math.sin(1.0)]]
    assert eval_numeric(SP.parse("sqrt(2)"), {}) == 2 ** 0.5


def test_columns_across_blocks():
    root = SP.parse("x*sin(y) + 1/(x - 3/2)")
    npoints = 2 * _EVAL_BLOCK + 17
    rng = random.Random(5)
    columns = {x: [rng.uniform(-2, 2) for _ in range(npoints)],
               y: [rng.uniform(-2, 2) for _ in range(npoints)]}
    columns[x][_EVAL_BLOCK + 3] = 1.5      # the only failing point, in block 2
    assert_matches_reference([root], columns, npoints)


def test_sample_flow_over_a_partial_block():
    fm = flow_map(parse_basis_combination("X4 + X3"))
    seeds = [(0.3, -1.2, 0.5), (1.1, 0.4, -0.7), (-2.0, 0.0, 1.0)]
    n = 1500                         # 4500 points: not a multiple of the block
    assert (len(seeds) * n) % _EVAL_BLOCK != 0 and len(seeds) * n > _EVAL_BLOCK
    samples = sample_flow(fm, seeds, (-1.0, 6.0, n))
    assert len(samples) == len(seeds) * n
    for sample in samples:
        seed = seeds[sample.seed_id]
        expected = [reference_eval(c, {x: seed[0], y: seed[1], t: seed[2], eps: sample.eps})
                    for c in fm.components]
        assert _bits([sample.x, sample.y, sample.t]) == _bits(expected)
