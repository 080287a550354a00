"""``numerator`` against the quotient pass it replaced.

``reduce_quotients`` below is the kernel's earlier zero test for quotients,
kept as the reference: it divided the joint numerator of the terms over
each sum S^-k by S (multivariate division, graded-lex order) and gave up
above 400 terms or 2,000 division steps.  Wherever it reduced an expression
to 0, ``numerator`` must clear it to ZERO as well; and a nonzero remainder
term must keep ``numerator`` away from ZERO.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import viscosym.expr as E
from viscosym.expr import ONE, ZERO, Add, Num, add, mul, numerator, pow_
from viscosym.spaces import base_space, x, y

SP = base_space()


# ---------------------------------------------------------------------------
# The reference: the earlier quotient pass, as it stood in the kernel
# ---------------------------------------------------------------------------

def reduce_quotients(e):
    """Cancel sum-denominators across the top-level terms of a sum, e.g.
    x^2*(x^2+y^2)^-1 + y^2*(x^2+y^2)^-1 -> 1.

    This is deliberately not part of plain canonicalization (products of
    sums distribute through it constantly); callers checking identities of
    rational functions apply it explicitly.

    (Reference copy: the kernel looped ``while _quotient_reduce(acc)``
    without a bound, which can cycle forever (see
    ``test_the_reference_can_cycle``); here it gives None after
    ``_PASS_LIMIT`` passes.)
    """
    e = E._coerce(e)
    if not isinstance(e, Add):
        return e
    acc = E.term_map(e)
    for _ in range(_PASS_LIMIT):
        if not _quotient_reduce(acc):
            return add(*[E._from_term(c, f) for f, c in acc.items()])
    return None


_PASS_LIMIT = 100


def _quotient_reduce(acc: dict) -> bool:
    """Cancel sum-denominators: terms sharing a factor S^(-k) with S a sum
    have their joint numerator divided by S, so e.g.
    x^2*(x^2+y^2)^-1 + y^2*(x^2+y^2)^-1 collapses to 1."""
    groups: dict[Expr, list[tuple[Expr, ...]]] = {}
    for factors in acc:
        for fac in factors:
            base, exp = E._base_exp(fac)
            if isinstance(base, Add) and exp.denominator == 1 and exp < 0:
                groups.setdefault(fac, []).append(factors)
    for den_factor in sorted(groups, key=E._factor_key):
        monos = groups[den_factor]
        base, exp = E._base_exp(den_factor)
        numerator = [( [fc for fc in mono if fc != den_factor], acc[mono])
                     for mono in monos if mono in acc]
        if not numerator:
            continue
        divisor = [E._as_term(term) for term in base.terms]
        quotient, remainder = _poly_divide(
            [(c, tuple(fs)) for fs, c in numerator], divisor)
        if quotient is None or not quotient:
            continue
        for mono in monos:
            acc.pop(mono, None)
        reduced_exp = exp + 1
        for coeff, factors in quotient:
            E._merge_into(acc, mul(Num(coeff), E._from_term(1, factors) if factors else ONE,
                                 pow_(base, reduced_exp)))
        for coeff, factors in remainder:
            E._merge_into(acc, mul(Num(coeff), E._from_term(1, factors) if factors else ONE,
                                 den_factor))
        return True
    return False


def _poly_divide(num: list,
                 den: list):
    """Multivariate division with remainder over the factors seen as
    variables (graded-lex order); non-polynomial factors count as opaque
    variables.  Returns (quotient, remainder) as (coeff, factors) lists, or
    (None, None) when the inputs are too large to bother."""
    if len(num) > 400:
        return None, None
    varix: dict[Expr, int] = {}

    def splitvar(factor: Expr) -> tuple[Expr, int]:
        fbase, fexp = E._base_exp(factor)
        if fexp.denominator == 1 and fexp > 0:
            return fbase, int(fexp)
        return factor, 1

    def tovec(factors: tuple[Expr, ...]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for fac in factors:
            v, e = splitvar(fac)
            i = varix.setdefault(v, len(varix))
            counts[i] = counts.get(i, 0) + e
        return counts

    nraw = [(c, tovec(fs)) for c, fs in num]
    draw = [(c, tovec(fs)) for c, fs in den]
    nvars = len(varix)

    def tup(counts: dict[int, int]) -> tuple[int, ...]:
        return tuple(counts.get(i, 0) for i in range(nvars))

    big: dict[tuple[int, ...], Rat] = {}
    for c, counts in nraw:
        key = tup(counts)
        big[key] = big.get(key, 0) + c
    dpoly: dict[tuple[int, ...], Rat] = {}
    for c, counts in draw:
        key = tup(counts)
        dpoly[key] = dpoly.get(key, 0) + c

    def okey(vec: tuple[int, ...]):
        return (sum(vec), vec)

    dlead = max(dpoly, key=okey)
    dlc = dpoly[dlead]
    quotient: dict[tuple[int, ...], Rat] = {}
    remainder: dict[tuple[int, ...], Rat] = {}
    guard = 0
    while big:
        guard += 1
        if guard > 2000:
            return None, None
        nlead = max(big, key=okey)
        diff = tuple(nv - dv for nv, dv in zip(nlead, dlead))
        if any(dv < 0 for dv in diff):
            remainder[nlead] = big.pop(nlead)
            continue
        qc = Fraction(big[nlead], dlc)
        quotient[diff] = quotient.get(diff, 0) + qc
        for dkey, dc in dpoly.items():
            tkey = tuple(dv + dk for dv, dk in zip(diff, dkey))
            nc = big.get(tkey, 0) - qc * dc
            if nc == 0:
                big.pop(tkey, None)
            else:
                big[tkey] = nc

    variables = [None] * nvars
    for v, i in varix.items():
        variables[i] = v

    def rebuild(poly: dict[tuple[int, ...], Rat]):
        out = []
        for vec, c in poly.items():
            factors = []
            for i, e in enumerate(vec):
                if e:
                    fac = pow_(variables[i], e)
                    out_coeff, fs = E._as_term(fac)
                    c = c * out_coeff
                    factors.extend(fs)
            factors.sort(key=E._factor_key)
            out.append((c, tuple(factors)))
        return out

    return rebuild(quotient), rebuild(remainder)


# ---------------------------------------------------------------------------
# Draws: polynomial terms times S^-k, and the same value rewritten
# ---------------------------------------------------------------------------

_monomial = st.builds(lambda c, i, j: mul(Num(c), pow_(x, i), pow_(y, j)),
                      st.integers(-3, 3).filter(bool), st.integers(0, 2), st.integers(0, 1))
_polynomial = st.lists(_monomial, min_size=1, max_size=2).map(lambda ms: add(*ms))
_sum = st.lists(_monomial, min_size=2, max_size=3).map(lambda ms: add(*ms)).filter(
    lambda s: isinstance(s, Add))
# (p, i, k, j): the term p*S^-k with S the i-th sum (mod the number drawn),
# written again as (p*S^j)*S^-(k+j); 1 <= k+j <= 3
_entry = st.tuples(_polynomial, st.integers(0, 1), st.integers(0, 3), st.integers(0, 3)).filter(
    lambda entry: 1 <= entry[2] + entry[3] <= 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(_sum, min_size=1, max_size=2, unique=True),
       st.lists(_entry, min_size=1, max_size=3),
       st.one_of(st.none(), st.tuples(_monomial, st.integers(0, 1), st.integers(1, 3))))
@example([add(pow_(x, 2), pow_(y, 2))], [(ONE, 0, 0, 1)], None)
def test_numerator_decides_zero_where_the_reference_did(sums, entries, extra):
    parts = []
    for p, which, k, j in entries:
        s = sums[which % len(sums)]
        parts.append(mul(p, pow_(s, -k)))
        parts.append(mul(Num(-1), mul(p, pow_(s, j)), pow_(s, -(k + j))))
    if extra is not None:   # one more term: the sum is then nonzero
        m, which, k = extra
        parts.append(mul(m, pow_(sums[which % len(sums)], -k)))
    e = add(*parts)
    if reduce_quotients(e) is ZERO:
        assert numerator(e) is ZERO
    assert (numerator(e) is ZERO) == (extra is None)


def test_the_reference_can_cycle():
    # with S = 5*x + 3*y the division picks its leading variable by the order
    # in which factors first appear, and that order flips on every pass
    e = SP.parse("-3*x*y*(5*x + 3*y)^-2 - 3*x^2 + (9*x^2*y + 15*x^3)*(5*x + 3*y)^-1")
    assert reduce_quotients(e) is None
    assert numerator(e) is SP.parse("-3*x*y")
    assert numerator(add(e, SP.parse("3*x*y*(5*x + 3*y)^-2"))) is ZERO


@pytest.mark.parametrize("text", [
    "1/(1 + 1/(x + y)) - (x + y)/(x + y + 1)",
    "1/(1 + 1/(1 + 1/(x + y))) - (x + y + 1)/(2*x + 2*y + 1)",
])
def test_numerator_clears_quotients_nested_in_sums(text):
    # a pass clears the sums at the top of each term, which leaves the
    # (x + y)^-1 that 1 + 1/(x + y) held; the next pass clears that
    e = SP.parse(text)
    assert numerator(e) is ZERO
    assert numerator(add(e, SP.parse("(x + y)^-1"))) is not ZERO
