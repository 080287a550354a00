"""Hash-consed kernel: equal trees are one object, the intern table holds
only live nodes, and equal trig sums have one normal form."""

import copy
import gc
import inspect
import os
import pickle
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import viscosym.expr as E
from viscosym.expr import (ONE, Add, Func, Jet, Kind, Num, Pow, Sym, add, canonicalize,
                           func, mul, pow_)
from viscosym.reduction import characteristic_invariants, reduce_pde, verify_reduction
from viscosym.spaces import base_space, t, u, x, y
from viscosym.vector_fields import parse_basis_combination, viscoelastic_pde


class TestIdentity:
    def test_equal_trees_are_one_object(self, space):
        assert Jet(u, (t, x)) is Jet(u, (x, t))
        assert Num(1) is ONE
        assert space.parse("x*y + 1") is space.parse("1 + y*x")
        e = space.parse("u_xt*sin(x + y)^2 - 3/2*f*sqrt(a + t)")
        assert canonicalize(e) is e

    def test_copies_are_the_interned_node(self, space):
        e = space.parse("u_xx*cos(t)^2 + 1")
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            ONE.value = Fraction(2)
        assert ONE.value == 1

    def test_kernel_has_no_structural_equality_or_caches(self):
        source = inspect.getsource(E)
        for name in ("_cached_hash", "_fast_eq", "lru_cache"):
            assert name not in source

    def test_concurrent_builds_intern_one_tree(self):
        # more threads than cores, switching often, all building the same
        # new trees at once: each tree must still be interned once
        workers = (os.cpu_count() or 2) + 2
        w = Sym("w_interning_race", Kind.PARAMETER, 90)
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def build(i):
            barrier.wait(timeout=10)
            results[i] = [pow_(add(w, x, y, Num(k)), 3) for k in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(r) == 20 and all(a is b for a, b in zip(r, results[0]))
                   for r in results)
        live = [ref() for ref in list(E._TABLE.values())]
        keys = [(type(n), *(getattr(n, f) for f in type(n).__slots__))
                for n in live if n is not None]
        assert len(keys) == len(set(keys))


def test_intern_table_is_bounded_by_live_nodes():
    # repeated reductions in one process: the table holds only the nodes
    # still in use, so it stops growing once the caches are warm
    pde = viscoelastic_pde()
    charts = []
    for spec in ("X1+X3", "2*X1-3*X2+X3", "X4", "X4+X3", "X2"):
        chart = characteristic_invariants(parse_basis_combination(spec))
        charts.append((chart, reduce_pde(pde, chart)))
    counts = []
    for seed in range(4):
        for chart, reduced in charts:
            assert verify_reduction(pde, chart, reduced, seed=seed).passed
        gc.collect()
        counts.append(len(E._TABLE))
    assert counts[3] == counts[1]


# ---------------------------------------------------------------------------
# Trig normal form
# ---------------------------------------------------------------------------

def _shift(factors, base, delta):
    """A factor tuple with delta added to the exponent of base (the factor is
    added when absent, dropped at exponent 0 and bare at exponent 1)."""
    exps = dict(E._base_exp(fac) for fac in factors)
    exp = exps.get(base, 0) + delta
    exps.pop(base, None)
    if exp:
        exps[base] = exp
    return tuple(sorted((b if e == 1 else Pow(b, e) for b, e in exps.items()),
                        key=E._factor_key))


def _restart_scan(acc):
    """The Pythagorean rewrite c1*M*sin(w)^2 + c2*M*cos(w)^2 ->
    c2*M + (c1 - c2)*M*sin(w)^2 on a term map, restarted after each step.
    The kernel's pass before the normal form ran it in this order; here it
    is the reference: it changes the terms, never the value."""
    changed = True
    while changed:
        changed = False
        for factors in sorted(acc.keys(), key=lambda fs: tuple(map(E._factor_key, fs))):
            if factors not in acc:
                continue
            for fac in factors:
                base, exp = E._base_exp(fac)
                if not (isinstance(base, Func) and base.fn == "sin"
                        and exp.denominator == 1 and exp >= 2):
                    continue
                stripped = _shift(factors, base, -2)
                partner = _shift(stripped, Func("cos", base.args), 2)
                if partner not in acc:
                    continue
                c1 = acc.pop(factors)
                c2 = acc.pop(partner)
                for mono, c in ((stripped, c2), (factors, c1 - c2)):
                    if c == 0:
                        continue
                    merged = acc.get(mono, 0) + c
                    if merged == 0:
                        acc.pop(mono, None)
                    else:
                        acc[mono] = merged
                changed = True
                break
            if changed:
                break


_SIN_X, _COS_X = Func("sin", (x,)), Func("cos", (x,))
_SIN_T, _COS_T = func("sin", mul(Num(2), t)), func("cos", mul(Num(2), t))
def _with_partners(cells):
    """Exponents (i, j, k, l) -> coefficient, each cell with i >= 2 drawn
    with a partner (i - 2, j + 2, k, l) unless its partner coefficient is 0."""
    grid = {}
    for (i, j, k, l), (coeff, partner) in cells.items():
        grid[i, j, k, l] = coeff
        if partner and i >= 2:
            grid.setdefault((i - 2, j + 2, k, l), partner)
    return grid


# sums of sin(x)^i*cos(x)^j*sin(2t)^k*cos(2t)^l over small dense grids, so
# that partner pairs are common, rewrites chain (x only, up to degree 4) and
# monomials with two partners make the order matter (both angles); cos
# exponents go down to -2, where the normal form rewrites sin^2 instead
_coefficient = st.integers(-3, 3).filter(bool)
_grid_sum = st.one_of(*[
    st.dictionaries(st.tuples(*exponents), st.tuples(_coefficient, st.integers(-3, 3)),
                    min_size=1, max_size=20).map(_with_partners)
    for exponents in ((st.integers(0, 4), st.integers(-2, 4), st.just(0), st.just(0)),
                      (st.integers(0, 4), st.integers(-2, 4), st.integers(0, 2),
                       st.sampled_from((-2, 0, 2))),
                      [st.integers(0, 2), st.integers(-2, 2)] * 2)])


def _raw_sum(acc):
    """The term map as a raw, uncanonicalized sum."""
    return Add(tuple(E._from_term(c, fs) for fs, c in acc.items()) + (Num(0),))


@settings(max_examples=300, deadline=None)
@given(_grid_sum)
@example({(0, 2, 0, 0): 1, (2, 2, 0, 0): 1, (4, 0, 0, 0): 1})
@example({(0, 2, 0, 0): 1, (0, 4, 0, 0): 1, (2, 0, 0, 0): 1, (2, 2, 0, 0): 1})
@example({(2, 2, 0, 0): 1, (0, 4, 2, 0): 1, (0, 4, 0, 2): 1})
@example({(0, 0, 0, 0): 1, (0, 2, 2, 0): 1, (2, 0, 0, 2): 1, (2, 0, 2, 0): 1})
@example({(2, -2, 0, 0): 1, (0, 0, 0, 0): 1})
@example({(4, -1, 0, 0): 2, (2, 1, 0, 0): -1, (0, -2, 2, -2): 1})
def test_normal_form_absorbs_the_pythagorean_rewrite(grid):
    # the sum before and after the reference rewrite has one normal form
    acc = {}
    for (i, j, k, l), coeff in grid.items():
        factors = ()
        for base, exp in ((_SIN_X, i), (_COS_X, j), (_SIN_T, k), (_COS_T, l)):
            factors = _shift(factors, base, exp)
        acc[factors] = coeff
    before = _raw_sum(acc)
    _restart_scan(acc)
    assert canonicalize(before) is canonicalize(_raw_sum(acc))


def test_equal_trig_sums_are_one_node(space):
    # sin(x)^2 + cos(x)^2*sin(y)^2 = sin(y)^2 + cos(y)^2*sin(x)^2: the
    # normal form writes both as one polynomial in sin(x) and sin(y)
    lhs = space.parse("sin(y)^2 + cos(y)^2*sin(x)^2")
    rhs = space.parse("sin(x)^2 + cos(x)^2*sin(y)^2")
    assert lhs is rhs
    assert str(lhs) == "sin(x)^2 + sin(y)^2 - sin(x)^2*sin(y)^2"
    for left, right in (("sin(x)^2/cos(x)^2 + 1", "cos(x)^-2"),
                        ("cos(x)^2/sin(x)^2 + 1", "sin(x)^-2"),
                        ("(1 - sin(x)^2)^-1", "cos(x)^-2"),
                        ("cos(x)^2*cos(x)^-2", "1"),
                        ("cos(x)^3/cos(x)^3", "1"),
                        ("1/cos(x)^3", "cos(x)^-3"),
                        ("1/(x*cos(x)^2)", "x^-1*cos(x)^-2"),
                        ("(sin(x)^2/cos(x))^-1", "cos(x)*sin(x)^-2")):
        assert space.parse(left) is space.parse(right), left
    assert str(space.parse("1/cos(x)^3")) == "cos(x)^-3"
    assert str(space.parse("cos(x)^3")) == "cos(x) - cos(x)*sin(x)^2"


def test_cube_of_a_wide_angle_sum_is_fast():
    start = time.perf_counter()
    e = base_space().parse("sin(x+y+t+u+f)^3")
    assert time.perf_counter() - start < 5.0
    assert e is base_space().parse("sin(x+y+t+u+f)^3")
    assert func("sin", add(x, y)) is base_space().parse("sin(x)*cos(y) + cos(x)*sin(y)")
