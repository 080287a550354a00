"""Shared fixtures, the random expression corpus used by the
canonicalization and round-trip tests, and the faked interpolant that makes
mutants of ``mat_exp``."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from viscosym import linalg
from viscosym.expr import DomainEvalError, Expr, Num, add, func, mul, pow_
from viscosym.spaces import base_space
from viscosym.vector_fields import standard_basis, viscoelastic_pde


@pytest.fixture(scope="session")
def space():
    return base_space()


@pytest.fixture(scope="session")
def pde():
    return viscoelastic_pde()


@pytest.fixture(scope="session")
def basis():
    return standard_basis()


def random_expr(rng: random.Random, depth: int = 6) -> Expr:
    """Random canonical expression of depth <= ``depth`` over the base space.

    Stays within the printable grammar so parse(print(e)) is exercised:
    rationals, symbols, jets, sums, products, integer powers, sqrt and the
    unary elementary functions.  A node budget keeps canonicalization from
    blowing up on nested power expansions.
    """
    sp = base_space()
    leaves = [sp.parse(text) for text in
              ("x", "y", "t", "u", "f", "a", "b", "u_x", "u_xt", "f_y", "u_xxt")]
    budget = [30]

    def nterms(e: Expr) -> int:
        from viscosym.expr import Add
        return len(e.terms) if isinstance(e, Add) else 1

    def build(level: int) -> Expr:
        budget[0] -= 1
        if level <= 0 or budget[0] <= 0 or rng.random() < 0.25:
            if rng.random() < 0.3:
                return Num(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
            return rng.choice(leaves)
        pick = rng.random()
        if pick < 0.35:
            return add(*[build(level - 1) for _ in range(rng.randint(2, 3))])
        if pick < 0.65:
            factors = [build(level - 1) for _ in range(rng.randint(2, 3))]
            size = 1
            for fac in factors:
                size *= nterms(fac)
            if size > 200:   # distribution would blow up; sum instead
                return add(*factors)
            return mul(*factors)
        if pick < 0.8:
            base = build(level - 2 if level > 1 else 0)
            exp = rng.choice([2, 3, -1]) if nterms(base) <= 6 else -1
            try:
                return pow_(base, exp)
            except DomainEvalError:   # rolled a literal zero into 0^-1
                return base
        fn = rng.choice(["sin", "cos", "exp", "arctan", "sqrt"])
        arg = build(level - 2 if level > 1 else 0)
        if fn in ("sin", "cos") and nterms(arg) > 4:
            fn = "arctan"   # angle addition on a wide sum explodes
        return func(fn, arg)

    return build(rng.randint(1, depth))


def fake_interpolant(monkeypatch, mutant):
    """Make ``mat_exp`` sum mutant(r, param) in place of r(param), the parts
    (f, weights, den) of the interpolant of e^(param*z) on its spectrum."""
    real = linalg._interpolant
    monkeypatch.setattr(linalg, "_interpolant", lambda traces, d, param:
                        mutant(functools.partial(real, traces, d), param))
