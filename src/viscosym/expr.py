"""Immutable symbolic expression kernel with exact rational arithmetic.

Expressions are canonical by construction: every constructor returns a sum
of products, flattened and sorted by a fixed total order on nodes, with
like terms merged, rational coefficients in lowest terms and zero terms
removed.  Supported nodes:

* rational constants (``Num``),
* symbols with a fixed kind: independent variable, dependent variable or
  parameter (``Sym``),
* jet variables, i.e. formal partial derivatives of a dependent variable
  indexed by a sorted multiset of independent variables (``Jet``),
* elementary functions sin, cos, exp, arctan and atan2 (``Func``); sqrt is
  represented as a power with exponent 1/2,
* opaque "arbitrary" functions with formal partial derivatives taken with
  respect to argument slots (``Unknown`` applied via ``UnknownFn``),
* rational powers (``Pow``), products (``Mul``) and sums (``Add``).

The trig simplification set is deliberately small: sin(0) -> 0,
cos(0) -> 1, parity normalisation of sin/cos/arctan, angle addition for
syntactic sums, and reduction modulo the Groebner basis sin(w)^2 +
cos(w)^2 - 1 of each angle w (Cox, Little & O'Shea, *Ideals, Varieties,
and Algorithms*, ch. 2).  It is local per monomial, so ``add`` does no trig
work.  (a) ``pow_`` writes cos(w)^n, integer n >= 2, as cos(w)^(n mod 2) *
(1 - sin(w)^2)^(n div 2); (b) ``mul`` rewrites sin(w)^a, integer a >= 2,
beside a negative power of cos(w) with sin(w)^2 = 1 - cos(w)^2, a div 2
times; (c) ``pow_`` folds a sum that is one monomial times powers of cos(w)
back before raising it to a negative integer power, so 1/cos(x)^3 is
cos(x)^-3.  (a) and (b) stop where n div 2 or a div 2 exceeds
``_POW_EXPAND_LIMIT``, as powers of sums do.  The form is canonical for
every angle in which an expression is polynomial in sin(w) and cos(w), or
Laurent in exactly one of them; it is not when both carry negative powers
(sin(x)^-2*cos(x)^-2 and sin(x)^-2 + cos(x)^-2 stay two nodes).  That is
enough to make rotation flows and their group law close symbolically.

Three helpers serve every module that takes trees apart: ``rebuild`` walks
a tree through the canonical constructors with a per-node replacement hook
(substitution, canonicalization and chart rewrites are all hooks),
``term_map`` gives a sum's monomials with their rational coefficients, and
``bind_jets`` composes an equation with concrete dependents and their jets.
Canonical form never divides one sum by another, so
x^2/(x^2 + y^2) + y^2/(x^2 + y^2) stays two terms; ``numerator`` clears the
sums under negative powers, which turns a zero test of such a quotient
into the zero test of a polynomial.
Numeric evaluation has one walker, ``eval_batch``: it computes each
distinct node below a list of roots once per block of sample points, in
IEEE doubles with the ``math`` functions; ``eval_numeric`` is its one-point
case.

Kernel numbers (``Num`` values, ``Mul`` coefficients, ``Pow`` exponents)
are ints when integral and Fractions otherwise (``rational``): the two hash,
compare, sort and print alike, but int arithmetic and hashing run in C, and
most numbers here are integers.  ``/`` between two ints gives a float, so
divide kernel numbers with ``Fraction(p, q)``.

Nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): building a node returns the one live node with the
same class and fields, so equal trees are one object, ``==`` and ``hash``
are identity, and each node computes its sort key once.  The intern table
holds weak references, so it holds only live nodes; an entry is inserted
atomically, so two threads never intern two copies of one tree.  Nodes are
immutable and every operation is a pure function, so expressions can be
shared freely across threads.
"""

from __future__ import annotations

import math
import operator
import random
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "ExprError", "JetOrderError", "SubstitutionCycleError", "EvalError",
    "UnassignedSymbolError", "DomainEvalError",
    "Kind", "Expr", "Num", "Sym", "Jet", "Func", "UnknownFn", "Unknown",
    "Pow", "Mul", "Add",
    "ZERO", "ONE", "JET_ORDER_CAP", "ELEMENTARY_FUNCTIONS",
    "add", "mul", "pow_", "func", "neg", "sub", "div", "rational",
    "canonicalize", "rebuild", "term_map", "to_text", "signed_term",
    "join_signed", "atoms", "diff_atom", "total_derivative", "substitute",
    "substitute_functions", "bind_jets",
    "eval_batch", "eval_numeric", "equals", "max_abs_sample", "numerator",
]

Rat = Union[int, Fraction]

JET_ORDER_CAP = 4
ELEMENTARY_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "arctan": 1, "atan2": 2}
_POW_EXPAND_LIMIT = 12


class ExprError(Exception):
    """Base error for the expression kernel."""


class JetOrderError(ExprError):
    """A jet variable would exceed the supported derivative order."""


class SubstitutionCycleError(ExprError):
    """The substitution map has a cyclic dependency between its keys."""


class EvalError(ExprError):
    """Numeric evaluation failed."""


class UnassignedSymbolError(EvalError):
    """A symbol required for numeric evaluation has no assigned value."""


class DomainEvalError(EvalError):
    """Numeric evaluation hit a domain error (division by zero, even root
    of a negative number, ...)."""


class Kind(Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    PARAMETER = "parameter"


_KIND_RANK = {Kind.PARAMETER: 0, Kind.INDEPENDENT: 1, Kind.DEPENDENT: 2}


def rational(value: Rat) -> Rat:
    """A kernel number: an int when integral, else a Fraction (denominator > 1)."""
    if isinstance(value, int):
        return value if type(value) is int else int(value)     # a bool is an int
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------

# The intern table: a weak reference to each live node, keyed by the node's
# class and fields.  A node's death drops its entry, unless the entry was
# replaced by then.
_TABLE: dict[tuple, weakref.KeyedRef] = {}
_NO_REF = type(None)     # called like a dead reference, it gives None


def _drop(ref: weakref.KeyedRef, _remove=_remove_dead_weakref, _table=_TABLE) -> None:
    # bound as defaults: the callback can run while the module is torn down
    _remove(_table, ref.key)


class Expr:
    """Base class of all expression nodes; supports operator syntax.  A node
    class call returns the interned node, which keeps its sort key in
    ``_order``."""

    __slots__ = ("_order", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _TABLE.get(key, _NO_REF)()
        if node is not None:
            return node
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields, strict=True):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_order", node._sort_key())
        ref = weakref.KeyedRef(node, _drop, key)
        while (held := _TABLE.setdefault(key, ref)) is not ref:
            if (other := held()) is not None:
                return other        # another thread interned it first
            _remove_dead_weakref(_TABLE, key)
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)

    def is_zero(self) -> bool:
        return self is ZERO


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Num(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Expr")


_key = attrgetter("_order")
# frozen, slotted and with the dataclass repr; Expr builds, compares, hashes
_node = dataclass(frozen=True, slots=True, eq=False, init=False)


@_node
class Num(Expr):
    value: Rat

    def __new__(cls, value: Rat):
        return Expr.__new__(cls, rational(value))

    def _sort_key(self):
        return (0, self.value)


@_node
class Sym(Expr):
    """A named symbol.  ``pos`` fixes the ordering among peers of a kind
    (e.g. x < y < t for jet-index sorting)."""

    name: str
    kind: Kind
    pos: int

    def __new__(cls, name: str, kind: Kind, pos: int = 0):
        return Expr.__new__(cls, name, kind, pos)

    def _sort_key(self):
        return (1, _KIND_RANK[self.kind], self.pos, self.name)


@_node
class Jet(Expr):
    """Formal derivative u_J of a dependent symbol, J a sorted multiset of
    independent variables.  Order is capped at JET_ORDER_CAP."""

    base: Sym
    indices: tuple[Sym, ...]

    def __new__(cls, base: Sym, indices: Sequence[Sym]):
        return Expr.__new__(cls, base, tuple(sorted(indices, key=_key)))

    def _sort_key(self):
        if self.base.kind is not Kind.DEPENDENT:
            raise ExprError(f"jet base {self.base.name!r} is not a dependent variable")
        if not self.indices:
            raise ExprError("jet needs at least one index")
        for ix in self.indices:
            if ix.kind is not Kind.INDEPENDENT:
                raise ExprError(f"jet index {ix.name!r} is not an independent variable")
        if len(self.indices) > JET_ORDER_CAP:
            raise JetOrderError(
                f"jet {self.base.name}_{''.join(i.name for i in self.indices)} "
                f"exceeds the order cap {JET_ORDER_CAP}")
        return (2, self.base._order, len(self.indices), tuple(map(_key, self.indices)))

    @property
    def order(self) -> int:
        return len(self.indices)


@_node
class Func(Expr):
    """Elementary function application."""

    fn: str
    args: tuple[Expr, ...]

    def _sort_key(self):
        arity = ELEMENTARY_FUNCTIONS.get(self.fn)
        if arity is None:
            raise ExprError(f"unknown elementary function {self.fn!r}")
        if arity != len(self.args):
            raise ExprError(f"{self.fn} expects {arity} argument(s), got {len(self.args)}")
        return (4, self.fn, tuple(map(_key, self.args)))


@dataclass(frozen=True)
class UnknownFn:
    """Identity of an opaque function; ``slots`` are the symbols naming its
    argument positions (used for derivative subscripts and bare mentions)."""

    name: str
    slots: tuple[Sym, ...]

    @property
    def arity(self) -> int:
        return len(self.slots)

    def __call__(self, *args: Expr) -> Expr:
        if args:
            return unknown(self, (), tuple(_coerce(a) for a in args))
        return unknown(self, (), tuple(self.slots))


@_node
class Unknown(Expr):
    """Application of an opaque function, possibly formally differentiated.

    ``derivs`` is a sorted multiset of argument-slot indices; e.g. for F with
    slots (x, y, t), derivs (0, 0, 2) denotes d^3 F / dx^2 dt applied to args.
    """

    fn: UnknownFn
    derivs: tuple[int, ...]
    args: tuple[Expr, ...]

    def __new__(cls, fn: UnknownFn, derivs: Sequence[int], args: tuple[Expr, ...]):
        return Expr.__new__(cls, fn, tuple(sorted(derivs)), args)

    def _sort_key(self):
        if len(self.args) != self.fn.arity:
            raise ExprError(f"{self.fn.name} expects {self.fn.arity} argument(s)")
        if any(not (0 <= d < self.fn.arity) for d in self.derivs):
            raise ExprError(f"derivative slot out of range for {self.fn.name}")
        return (3, self.fn.name, len(self.derivs), self.derivs, tuple(map(_key, self.args)))


def unknown(fn: UnknownFn, derivs: Sequence[int], args: Sequence[Expr]) -> Unknown:
    return Unknown(fn, tuple(derivs), tuple(args))


@_node
class Pow(Expr):
    """base**exp with a literal rational exponent, exp not in {0, 1}."""

    base: Expr
    exp: Rat

    def __new__(cls, base: Expr, exp: Rat):
        return Expr.__new__(cls, base, rational(exp))

    def _sort_key(self):
        return (5, self.base._order, self.exp)


@_node
class Mul(Expr):
    """coeff * f1 * f2 * ...; factors sorted, bases pairwise distinct."""

    coeff: Rat
    factors: tuple[Expr, ...]

    def __new__(cls, coeff: Rat, factors: tuple[Expr, ...]):
        return Expr.__new__(cls, rational(coeff), factors)

    def _sort_key(self):
        return (6, tuple(map(_key, self.factors)), self.coeff)


@_node
class Add(Expr):
    """t1 + t2 + ...; at least two terms, sorted, monomials pairwise distinct."""

    terms: tuple[Expr, ...]

    def _sort_key(self):
        return (7, tuple(map(_key, self.terms)))


ZERO = Num(0)
ONE = Num(1)


def _factor_key(factor: Expr):
    # sort x and x^2 adjacently: key on (base, exponent)
    if isinstance(factor, Pow):
        return (factor.base._order, factor.exp)
    return (factor._order, 1)


# ---------------------------------------------------------------------------
# Term/factor decomposition helpers
# ---------------------------------------------------------------------------

def _as_term(e: Expr) -> tuple[Rat, tuple[Expr, ...]]:
    """Split a canonical non-Add expression into (coefficient, factor tuple)."""
    if isinstance(e, Num):
        return e.value, ()
    if isinstance(e, Mul):
        return e.coeff, e.factors
    return 1, (e,)


def _from_term(coeff: Rat, factors: tuple[Expr, ...]) -> Expr:
    if coeff == 0:
        return ZERO
    if not factors:
        return Num(coeff)
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    return Mul(coeff, factors)


def _terms(e: Expr) -> tuple[Expr, ...]:
    return e.terms if isinstance(e, Add) else (e,)


def _base_exp(factor: Expr) -> tuple[Expr, Rat]:
    if isinstance(factor, Pow):
        return factor.base, factor.exp
    return factor, 1


# ---------------------------------------------------------------------------
# Canonicalizing constructors
# ---------------------------------------------------------------------------

def add(*eargs: Expr) -> Expr:
    """Canonical sum of already-canonical expressions."""
    acc: dict[tuple[Expr, ...], Rat] = {}
    for e in eargs:
        _merge_into(acc, _coerce(e))
    terms = [_from_term(c, f) for f, c in acc.items()]
    terms.sort(key=_key)
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def term_map(e: Expr) -> dict[tuple[Expr, ...], Rat]:
    """Map the factor tuple of each monomial of e to its rational coefficient."""
    acc: dict[tuple[Expr, ...], Rat] = {}
    _merge_into(acc, _coerce(e))
    return acc


def _merge_into(acc: dict[tuple[Expr, ...], Rat], term: Expr) -> None:
    for part in _terms(term):
        coeff, factors = _as_term(part)
        if coeff == 0:
            continue
        newc = acc.get(factors, 0) + coeff
        if newc == 0:
            acc.pop(factors, None)
        else:
            acc[factors] = newc


def numerator(e: Expr) -> Expr:
    """e times S^k for each sum S under a negative integer power in e, with k
    the largest such power of S over the terms, repeated until no such
    quotient is left.  A pass leaves only the quotients nested inside the
    S, so the passes are bounded by the nesting depth.  Where the sums are
    nonzero, e is zero exactly when the result is ZERO: a polynomial's zero
    test, with no division and no size limit."""
    e = _coerce(e)
    while True:
        clear: dict[Expr, int] = {}
        for term in _terms(e):
            for base, exp in map(_base_exp, _as_term(term)[1]):
                if type(base) is Add and type(exp) is int and exp < 0:
                    clear[base] = max(clear.get(base, 0), -exp)
        if not clear:
            return e
        # the raw Pow(S, k) reaches mul unexpanded, so it meets each term's S^-j
        e = add(*[mul(term, *[Pow(s, k) for s, k in clear.items()]) for term in _terms(e)])


def mul(*eargs: Expr) -> Expr:
    """Canonical product; products of sums are fully distributed."""
    coeff = 1
    powers: dict[Expr, Rat] = {}
    sums: list[Expr] = []

    def feed(e: Expr):
        nonlocal coeff
        if isinstance(e, Num):
            coeff *= e.value
        elif isinstance(e, Mul):
            coeff *= e.coeff
            for fac in e.factors:
                feed(fac)
        elif isinstance(e, Add):
            sums.append(e)
        else:
            base, exp = _base_exp(e)
            powers[base] = powers.get(base, 0) + exp

    for e in eargs:
        feed(_coerce(e))
    if coeff == 0:
        return ZERO
    for base, exp in powers.items():
        if (type(base) is Func and base.fn == "sin" and type(exp) is int
                and 2 <= exp and exp // 2 <= _POW_EXPAND_LIMIT
                and powers.get(cos := Func("cos", base.args), 0) < 0):
            # rule (b): sin(w)^a beside a negative power of cos(w)
            rest = mul(Num(coeff), *sums, pow_(base, exp % 2),
                       *[pow_(b, e) for b, e in powers.items() if b is not base and b is not cos])
            return _pythagorean(rest, cos, powers[cos], exp // 2)

    factors: list[Expr] = []
    regroup = False
    for base, exp in powers.items():
        merged = pow_(base, exp)
        if isinstance(merged, Num):
            coeff *= merged.value
        elif isinstance(merged, (Add, Mul)):
            sums.append(merged)
        else:
            factors.append(merged)
            # ((a^2)^(1/2))^2 is a^2, whose base a may meet another factor a
            regroup |= (merged.base if isinstance(merged, Pow) else merged) is not base
    if regroup:
        return mul(Num(coeff), *factors, *sums)
    if coeff == 0:
        return ZERO
    factors.sort(key=_factor_key)
    core: Expr = _from_term(coeff, tuple(factors))
    for s in sums:
        core = _distribute(core, s)
    return core


def _distribute(e1: Expr, e2: Expr) -> Expr:
    parts = []
    for t1 in _terms(e1):
        for t2 in _terms(e2):
            c1, f1 = _as_term(t1)
            c2, f2 = _as_term(t2)
            parts.append(_mul_terms(c1 * c2, f1, f2))
    return add(*parts)


def _mul_terms(coeff: Rat, f1: tuple[Expr, ...], f2: tuple[Expr, ...]) -> Expr:
    if not f1:
        return _from_term(coeff, f2)
    if not f2:
        return _from_term(coeff, f1)
    return mul(Num(coeff), _from_term(1, f1), _from_term(1, f2))


def _nth_root(n: int, q: int) -> int | None:
    """Exact nonnegative q-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    if q == 2:
        r = math.isqrt(n)
    else:   # integer Newton iteration from above ends at floor(n ** (1/q))
        r = 1 << -(-n.bit_length() // q)
        while (nxt := ((q - 1) * r + n // r ** (q - 1)) // q) < r:
            r = nxt
    return r if r ** q == n else None


def _rational_power(value: Rat, exp: Rat) -> Rat | None:
    """value**exp as an exact rational, or None if irrational/undefined."""
    if value == 0 and exp < 0:
        raise DomainEvalError("0 raised to a negative power")
    if exp.denominator == 1:    # an int to a negative power is a float
        return value ** exp if exp > 0 else Fraction(value) ** exp
    v = Fraction(value) ** exp.numerator
    q = exp.denominator
    sign = 1
    if v < 0:
        if q % 2 == 0:
            return None
        sign, v = -1, -v
    num = _nth_root(v.numerator, q)
    den = _nth_root(v.denominator, q)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)


def pow_(base: Expr, exp: Rat) -> Expr:
    """Canonical rational power."""
    base = _coerce(base)
    exp = rational(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Num):
        folded = _rational_power(base.value, exp)
        if folded is not None:
            return Num(folded)
        return Pow(base, exp)
    if isinstance(base, Pow):
        # merge (b^e1)^e2 -> b^(e1*e2) only when valid as a real function:
        # e2 integer always works; otherwise require |e1| <= 1 (no even-power
        # collapse such as (x^2)^(1/2) -> x).
        if exp.denominator == 1 or abs(base.exp) <= 1:
            return pow_(base.base, base.exp * exp)
        return Pow(base, exp)
    if isinstance(base, Mul):
        if exp.denominator == 1:
            parts = [Num(_rational_power(base.coeff, exp))]
            parts += [pow_(f, exp) for f in base.factors]
            return mul(*parts)
        if base.coeff > 0 and base.coeff != 1:
            root = _rational_power(base.coeff, exp)
            if root is not None:
                return mul(Num(root), pow_(_from_term(1, base.factors), exp))
        return Pow(base, exp)
    if isinstance(base, Add):
        if exp.denominator == 1 and 2 <= exp <= _POW_EXPAND_LIMIT:
            out: Expr = base
            for _ in range(int(exp) - 1):
                out = _distribute(out, base)
            return out
        if type(exp) is int and exp < 0:
            folded = _fold_cos_powers(base, exp)
            if folded is not None:
                return folded
        return Pow(base, exp)
    if (type(base) is Func and base.fn == "cos" and type(exp) is int
            and 2 <= exp and exp // 2 <= _POW_EXPAND_LIMIT):
        # rule (a): cos(w)^n = cos(w)^(n mod 2) * (1 - sin(w)^2)^(n div 2)
        return _pythagorean(pow_(base, exp % 2), Func("sin", base.args), 0, exp // 2)
    return Pow(base, exp)


def _pythagorean(rest: Expr, trig: Func, exp: int, n: int) -> Expr:
    """rest * trig^exp * (1 - trig^2)^n, expanded in powers of trig."""
    return add(*[mul(Num((-1) ** j * math.comb(n, j)), rest, pow_(trig, exp + 2 * j))
                 for j in range(n + 1)])


def _trig_exponents(e: Expr) -> list[dict[Func, int]]:
    """Per term of e, the integer exponent of each sin or cos factor."""
    return [{base: exp for base, exp in map(_base_exp, _as_term(term)[1])
             if type(base) is Func and base.fn in ("sin", "cos") and type(exp) is int}
            for term in _terms(e)]


def _least(exps: list[dict[Func, int]], fn: str) -> dict[Func, int]:
    """The least exponent of each fn factor over the terms (0 where absent)."""
    return {f: min(term.get(f, 0) for term in exps) for term in exps for f in term if f.fn == fn}


def _fold_cos_powers(s: Add, k: int) -> Expr | None:
    """Rule (c): s^k for a sum s that is one monomial times integer powers of
    cos(w), else None.  Negative powers of cos(w) (rule b) come out first;
    the rest must be lead * cos(w)^(2m) (rule a), with lead the term of least
    sin(w) degree and 2m the spread of those degrees."""
    exps = _trig_exponents(s)
    if not any(exps):
        return None
    powers = {cos: n for cos, n in _least(exps, "cos").items() if n < 0}
    p = mul(s, *[pow_(cos, -n) for cos, n in powers.items()])
    exps = _trig_exponents(p)
    low = _least(exps, "sin")
    lead = [t for t, term in zip(_terms(p), exps)
            if all(term.get(sin, 0) == n for sin, n in low.items())]
    squares = {Func("cos", sin.args): max(term.get(sin, 0) for term in exps) - n
               for sin, n in low.items()}
    if len(lead) != 1 or mul(lead[0], *[pow_(c, n) for c, n in squares.items()]) is not p:
        return None
    for cos, n in squares.items():
        powers[cos] = powers.get(cos, 0) + n
    return mul(pow_(lead[0], k), *[pow_(cos, n * k) for cos, n in powers.items()])


def _leading_sign(e: Expr) -> int:
    if isinstance(e, Num):
        return -1 if e.value < 0 else 1
    if isinstance(e, Mul):
        return -1 if e.coeff < 0 else 1
    if isinstance(e, Add):
        return _leading_sign(e.terms[0])
    return 1


def func(fn: str, *args: Expr) -> Expr:
    """Canonical elementary function application (sqrt maps to a power)."""
    cargs = tuple(_coerce(a) for a in args)
    if fn == "sqrt":
        if len(cargs) != 1:
            raise ExprError("sqrt expects 1 argument")
        return pow_(cargs[0], Fraction(1, 2))
    if fn not in ELEMENTARY_FUNCTIONS:
        raise ExprError(f"unknown elementary function {fn!r}")
    if fn in ("sin", "cos", "arctan") and _leading_sign(cargs[0]) < 0:
        inner = func(fn, mul(Num(-1), cargs[0]))
        return mul(Num(-1), inner) if fn != "cos" else inner
    if fn in ("sin", "cos") and isinstance(cargs[0], Add):
        head, tail = cargs[0].terms[0], add(*cargs[0].terms[1:])
        if fn == "sin":
            return add(mul(func("sin", head), func("cos", tail)),
                       mul(func("cos", head), func("sin", tail)))
        return add(mul(func("cos", head), func("cos", tail)),
                   mul(Num(-1), func("sin", head), func("sin", tail)))
    if cargs[0] == ZERO:
        if fn == "sin" or fn == "arctan":
            return ZERO
        if fn == "cos" or fn == "exp":
            return ONE
    return Func(fn, cargs)


def neg(e: Expr) -> Expr:
    return mul(Num(-1), e)


def sub(e1: Expr, e2: Expr) -> Expr:
    return add(e1, neg(_coerce(e2)))


def div(e1: Expr, e2: Expr) -> Expr:
    return mul(e1, pow_(_coerce(e2), -1))


def canonicalize(e: Expr) -> Expr:
    """Rebuild an expression bottom-up through the canonical constructors.

    Canonical-by-construction expressions are fixed points; this is also the
    safe entry for hand-assembled node trees.
    """
    return rebuild(e, lambda node: None)


def rebuild(e: Expr, fn: Callable[[Expr], Expr | None],
            descend_unknown_args: bool = True) -> Expr:
    """Rebuild e bottom-up through the canonical constructors.

    ``fn`` sees every non-Num node before its children.  When it returns an
    expression, that replaces the node as is; when it returns None, the
    node's children are rebuilt.  Opaque-function arguments are kept as they
    are when ``descend_unknown_args`` is false.
    """
    def walk(node: Expr) -> Expr:
        if isinstance(node, Num):
            return node
        repl = fn(node)
        if repl is not None:
            return repl
        if isinstance(node, (Sym, Jet)):
            return node
        if isinstance(node, Unknown):
            if not descend_unknown_args:
                return node
            return unknown(node.fn, node.derivs, tuple(walk(a) for a in node.args))
        if isinstance(node, Func):
            return func(node.fn, *[walk(a) for a in node.args])
        if isinstance(node, Pow):
            return pow_(walk(node.base), node.exp)
        if isinstance(node, Mul):
            return mul(Num(node.coeff), *[walk(f) for f in node.factors])
        if isinstance(node, Add):
            return add(*[walk(t) for t in node.terms])
        raise TypeError(f"not an Expr: {node!r}")

    return walk(e)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def atoms(e: Expr) -> Iterator[Expr]:
    """Yield every Sym, Jet and Unknown occurring in e (deduplicated)."""
    seen: set[Expr] = set()

    def walk(node: Expr):
        if isinstance(node, (Sym, Jet, Unknown)):
            if node not in seen:
                seen.add(node)
                yield node
            if isinstance(node, Unknown):
                for arg in node.args:
                    yield from walk(arg)
        elif isinstance(node, Func):
            for arg in node.args:
                yield from walk(arg)
        elif isinstance(node, Pow):
            yield from walk(node.base)
        elif isinstance(node, Mul):
            for fac in node.factors:
                yield from walk(fac)
        elif isinstance(node, Add):
            for term in node.terms:
                yield from walk(term)

    yield from walk(e)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _func_derivative(e: Func, dargs: list[Expr]) -> Expr:
    a = e.args
    if e.fn == "sin":
        return mul(func("cos", a[0]), dargs[0])
    if e.fn == "cos":
        return mul(Num(-1), func("sin", a[0]), dargs[0])
    if e.fn == "exp":
        return mul(func("exp", a[0]), dargs[0])
    if e.fn == "arctan":
        return mul(dargs[0], pow_(add(ONE, pow_(a[0], 2)), -1))
    if e.fn == "atan2":
        p, q = a
        num = sub(mul(q, dargs[0]), mul(p, dargs[1]))
        return mul(num, pow_(add(pow_(p, 2), pow_(q, 2)), -1))
    raise ExprError(f"no derivative rule for {e.fn}")


def _derive(e: Expr, datom: Callable[[Expr], Expr]) -> Expr:
    """Generic derivation: ``datom`` gives the derivative of Sym/Jet; opaque
    functions follow the chain rule through their argument slots."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, (Sym, Jet)):
        return datom(e)
    if isinstance(e, Unknown):
        parts = []
        for i, arg in enumerate(e.args):
            darg = _derive(arg, datom)
            if darg != ZERO:
                parts.append(mul(unknown(e.fn, e.derivs + (i,), e.args), darg))
        return add(*parts) if parts else ZERO
    if isinstance(e, Func):
        dargs = [_derive(a, datom) for a in e.args]
        if all(d == ZERO for d in dargs):
            return ZERO
        return _func_derivative(e, dargs)
    if isinstance(e, Pow):
        db = _derive(e.base, datom)
        if db == ZERO:
            return ZERO
        return mul(Num(e.exp), pow_(e.base, e.exp - 1), db)
    if isinstance(e, Mul):
        parts = []
        for i, fac in enumerate(e.factors):
            dfac = _derive(fac, datom)
            if dfac == ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(Num(e.coeff), _from_term(1, rest) if rest else ONE, dfac))
        return add(*parts) if parts else ZERO
    if isinstance(e, Add):
        return add(*[_derive(t, datom) for t in e.terms])
    raise TypeError(f"not an Expr: {e!r}")


def diff_atom(e: Expr, atom: Expr) -> Expr:
    """Partial derivative treating every Sym and Jet as an independent
    coordinate; descends into elementary- and unknown-function arguments."""
    if not isinstance(atom, (Sym, Jet)):
        raise ExprError("diff_atom expects a Sym or Jet")

    return _derive(e, lambda node: ONE if node == atom else ZERO)


def total_derivative(e: Expr, v: Sym) -> Expr:
    """Total derivative D_v: dependents pick up jets, jets gain an index,
    parameters are constants.  v must be an independent variable."""
    if not isinstance(v, Sym) or v.kind is not Kind.INDEPENDENT:
        raise ExprError("total derivative direction must be an independent variable")

    def datom(node: Expr) -> Expr:
        if isinstance(node, Jet):
            return Jet(node.base, node.indices + (v,))
        if node.kind is Kind.INDEPENDENT:
            return ONE if node == v else ZERO
        if node.kind is Kind.DEPENDENT:
            return Jet(node, (v,))
        return ZERO

    return _derive(e, datom)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, bindings: Mapping[Expr, Expr], *,
               descend_unknown_args: bool = True) -> Expr:
    """Simultaneous substitution of symbols/jets followed by canonicalization.

    Self-referencing bindings such as s -> s + d are fine (the substitution
    is one-pass), but a dependency cycle between two or more keys raises
    SubstitutionCycleError: such maps are almost always caller bugs.
    """
    table = {k: _coerce(v) for k, v in bindings.items()}
    for k in table:
        if not isinstance(k, (Sym, Jet)):
            raise ExprError("substitution keys must be symbols or jet variables")
    keyset = set(table)
    edges = {k: sorted((at for at in atoms(v) if at in keyset and at != k), key=_key)
             for k, v in table.items()}
    state: dict[Expr, int] = {}   # 1 = on stack, 2 = done

    def visit(node: Expr, trail: tuple[Expr, ...]):
        state[node] = 1
        for nxt in edges[node]:
            if state.get(nxt) == 1:
                path = " -> ".join(to_text(p) for p in trail + (node, nxt))
                raise SubstitutionCycleError(f"cyclic substitution: {path}")
            if state.get(nxt) != 2:
                visit(nxt, trail + (node,))
        state[node] = 2

    for k in table:
        if state.get(k) != 2:
            visit(k, ())
    return rebuild(e, table.get, descend_unknown_args)


def substitute_functions(e: Expr, bodies: Mapping[UnknownFn, Expr]) -> Expr:
    """Replace opaque functions by concrete expressions over their slots.

    Formal derivatives become real ones: an application differentiated along
    slots D with arguments (a_1, ..., a_n) maps to the body differentiated by
    the slot symbols per D, with slot symbols then replaced by the a_i.
    """
    def fn(atom: Expr) -> Expr | None:
        if not isinstance(atom, Unknown) or atom.fn not in bodies:
            return None
        body = _coerce(bodies[atom.fn])
        for slot_index in atom.derivs:
            body = diff_atom(body, atom.fn.slots[slot_index])
        args = tuple(rebuild(a, fn) for a in atom.args)
        if tuple(atom.fn.slots) == args:
            return body
        return substitute(body, dict(zip(atom.fn.slots, args)))

    return rebuild(e, fn)


def bind_jets(e: Expr, bodies: Mapping[Sym, Expr]) -> Expr:
    """Substitute each dependent symbol by its body and each of its jets u_J
    by the total derivative D_J of the body, taken in J's sorted index
    order.  Jets that share an index prefix share its derivative."""
    derived = {(dep, ()): body for dep, body in bodies.items()}  # by index prefix
    bindings: dict[Expr, Expr] = dict(bodies)
    for atom in atoms(e):
        if isinstance(atom, Jet) and atom.base in bodies:
            for k in range(1, atom.order + 1):
                prefix = atom.indices[:k]
                if (atom.base, prefix) not in derived:
                    derived[atom.base, prefix] = total_derivative(
                        derived[atom.base, prefix[:-1]], prefix[-1])
            bindings[atom] = derived[atom.base, atom.indices]
    return substitute(e, bindings)


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

_MATH_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
            "arctan": math.atan, "atan2": math.atan2}

# points per block of eval_batch: bounds the per-node value lists it holds
_EVAL_BLOCK = 4096

_NAN = float("nan")
_OVERFLOW = "numeric overflow: a value exceeds the double range"


def _operands(node: Expr) -> tuple[Expr, ...]:
    """What the walker evaluates before a node; an opaque application fails
    before its arguments, so it has none."""
    if isinstance(node, Add):
        return node.terms
    if isinstance(node, Mul):
        return node.factors
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Func):
        return node.args
    if isinstance(node, Expr):
        return ()
    raise TypeError(f"not an Expr: {node!r}")


def _eval_order(roots: Sequence[Expr]) -> list[Expr]:
    """The distinct nodes below the roots, each after its operands."""
    order: list[Expr] = []
    seen: set[Expr] = set()

    def visit(node: Expr) -> None:
        seen.add(node)
        for operand in _operands(node):
            if operand not in seen:
                visit(operand)
        order.append(node)

    for root in roots:
        if root not in seen:
            visit(root)
    return order


def _as_eval_error(exc: Exception) -> EvalError:
    # float overflow, and ValueError from fsum or a math function at inf
    if isinstance(exc, EvalError):
        return exc.with_traceback(None)
    return EvalError(_OVERFLOW)


def _leaf(node: Expr, columns: Mapping[Expr, list[float]], size: int) -> list[float]:
    if isinstance(node, Num):
        return [float(node.value)] * size
    if isinstance(node, Unknown):
        raise UnassignedSymbolError(f"no value for the opaque function {node.fn.name}")
    try:
        return columns[node]
    except KeyError:
        raise UnassignedSymbolError(f"no value assigned to {to_text(node)}") from None


def _power(exp: Rat) -> Callable[[float], float]:
    """The walker's ``base ** exp`` at one point."""
    negative, rational = exp < 0, exp.denominator != 1

    def power(base: float) -> float:
        if base == 0 and negative:
            raise DomainEvalError("division by zero")
        if base < 0 and rational:
            raise DomainEvalError(f"negative base {base!r} under rational power {exp}")
        return base ** float(exp) if rational else base ** int(exp)

    return power


def _apply(op: Callable[..., float],
           columns: Sequence[list]) -> tuple[list[float], dict[int, EvalError]]:
    """op at every point; a point where it raises fails with that error."""
    try:
        return list(map(op, *columns)), {}
    except (EvalError, OverflowError, ValueError):
        pass
    values, failed = [], {}
    for point, args in enumerate(zip(*columns)):
        try:
            values.append(op(*args))
        except (EvalError, OverflowError, ValueError) as exc:
            values.append(_NAN)
            failed[point] = _as_eval_error(exc)
    return values, failed


def _eval_block(order: list[Expr], columns: Mapping[Expr, list[float]],
                size: int) -> tuple[dict, dict]:
    """Values of every node at ``size`` points, and per node the points
    where it fails, each with the error the per-point walk raises there."""
    vals: dict[Expr, list[float]] = {}
    failures: dict[Expr, dict[int, EvalError]] = {}
    for node in order:
        operands = _operands(node)
        try:
            if not operands:
                values, failed = _leaf(node, columns, size), {}
            elif isinstance(node, Mul):
                # the coefficient times each factor in order
                values, failed = [float(node.coeff)] * size, {}
                for factor in operands:
                    values = list(map(operator.mul, values, vals[factor]))
            elif isinstance(node, Add):
                rows = list(zip(*[vals[term] for term in operands]))
                values, failed = _apply(math.fsum, [rows])
            else:
                op = _MATH_FN[node.fn] if isinstance(node, Func) else _power(node.exp)
                values, failed = _apply(op, [vals[arg] for arg in operands])
        except (EvalError, OverflowError) as exc:   # fails before any operand
            values = [_NAN] * size
            failed = dict.fromkeys(range(size), _as_eval_error(exc))
        else:
            # a failing operand stops the walk at the first one, in order
            inherited: dict[int, tuple[int, EvalError]] = {}
            for k, operand in enumerate(operands):
                for point, exc in failures.get(operand, {}).items():
                    inherited.setdefault(point, (k, exc))
            for point, (k, exc) in inherited.items():
                if isinstance(node, Add):
                    # unless fsum's partial sums overflow before term k
                    try:
                        math.fsum(rows[point][:k])
                    except OverflowError:
                        exc = EvalError(_OVERFLOW)
                    except ValueError:   # inf - inf fails only at the end
                        pass
                failed[point] = exc
        vals[node] = values
        if failed:
            failures[node] = failed
    return vals, failures


def _evaluate(roots: list[Expr], columns: list[tuple[Expr, Sequence[float]]],
              npoints: int) -> tuple[list[list[float]], dict[int, EvalError]]:
    """Values of each root at npoints points, block by block, and the first
    error, roots in order, at each failing point (whose values are nan)."""
    order = _eval_order(roots)
    out: list[list[float]] = [[] for _ in roots]
    failed: dict[int, EvalError] = {}
    for start in range(0, npoints, _EVAL_BLOCK):
        size = min(_EVAL_BLOCK, npoints - start)
        block = {atom: list(map(float, column[start:start + size])) for atom, column in columns}
        vals, failures = _eval_block(order, block, size)
        for root in dict.fromkeys(roots):
            # a non-finite value of a root fails with the overflow error
            if not all(map(math.isfinite, vals[root])):
                root_failed = failures.setdefault(root, {})
                for point, value in enumerate(vals[root]):
                    if not math.isfinite(value):
                        root_failed.setdefault(point, EvalError(_OVERFLOW))
        for root, values in zip(roots, out):
            values += vals[root]
            for point, exc in failures.get(root, {}).items():
                failed.setdefault(start + point, exc)
    if failed:
        for values in out:
            for point in failed:
                values[point] = _NAN
    return out, failed


def eval_batch(roots: Sequence[Expr], columns: Mapping[Expr, Sequence[float]], *,
               errors: dict[int, EvalError] | None = None) -> list[list[float]]:
    """IEEE-double values of each root at many points: ``columns`` maps each
    Sym/Jet atom to its values, one per point (with no columns there is one
    point).  Returns one list of values per root.

    Values and failures are those of ``eval_numeric`` on every root at every
    point in turn, but each distinct node of the expression DAG is computed
    once per block of points: a product as its coefficient times each
    factor in order, a sum as one ``math.fsum`` per point.  A point fails
    with the first error that walk meets, roots in order, and the earliest
    failing point raises it.  If ``errors`` is given, failing points map to
    their errors there instead, and their values are nan.
    """
    roots = list(roots)
    items = list(columns.items())
    for atom, _ in items:
        if not isinstance(atom, (Sym, Jet)):
            raise ExprError(f"bad assignment key {atom!r}")
    npoints = len(items[0][1]) if items else 1
    if any(len(column) != npoints for _, column in items):
        raise ExprError("every column needs one value per point")
    out, failed = _evaluate(roots, items, npoints)
    if errors is not None:
        errors.update(failed)
    elif failed:
        raise failed[min(failed)]
    return out


def eval_numeric(e: Expr, assignment: Mapping[Expr, float]) -> float:
    """IEEE-double evaluation, the one-point case of ``eval_batch``.
    ``assignment`` maps Sym/Jet atoms to numbers; an opaque-function
    application has no value and raises UnassignedSymbolError.  A result,
    intermediate or constant beyond the double range, or a non-finite
    result, raises EvalError (not DomainEvalError, which samplers skip)."""
    return eval_batch([e], {atom: (value,) for atom, value in assignment.items()})[0][0]


def _random_polynomial(rng, slots: tuple[Sym, ...]) -> Expr:
    """Small random polynomial over the given slots (stand-in for unknowns)."""
    parts: list[Expr] = [Num(rng.randint(-3, 3))]
    for s in slots:
        parts.append(mul(Num(rng.randint(-3, 3)), s))
        parts.append(mul(Num(rng.randint(-2, 2)), pow_(s, 2)))
        parts.append(mul(Num(rng.randint(-1, 1)), pow_(s, 3)))
    return add(*parts)


def max_abs_sample(e: Expr, *, seed: int = 42, points: int = 20,
                   lo: float = -2.0, hi: float = 2.0) -> float:
    """Max |e| over random assignments of its symbols in [lo, hi]; unknown
    functions are replaced by deterministic polynomial stand-ins first."""
    e = _coerce(e)
    rng = random.Random(seed)
    fns = sorted({at.fn for at in atoms(e) if isinstance(at, Unknown)},
                 key=lambda fn: fn.name)
    if fns:
        e = substitute_functions(e, {fn: _random_polynomial(rng, fn.slots) for fn in fns})
    syms = sorted((at for at in atoms(e) if isinstance(at, (Sym, Jet))), key=_key)
    worst = 0.0
    good = drawn = 0
    while good < points and drawn < 8 * points:
        # draw only the points still needed: a domain error costs one more
        size = min(points - good, 8 * points - drawn)
        columns: dict[Expr, list[float]] = {sm: [] for sm in syms}
        for _ in range(size):
            for sm in syms:
                columns[sm].append(rng.uniform(lo, hi))
        drawn += size
        (values,), failed = _evaluate([e], list(columns.items()), size)
        for point, val in enumerate(values):
            if isinstance(failed.get(point), DomainEvalError):
                continue
            if point in failed:
                raise failed[point]
            worst = max(worst, abs(val))
            good += 1
    if good >= points:
        return worst
    raise EvalError("could not find enough valid sample points")


def equals(e1: Expr, e2: Expr, *, seed: int = 42, points: int = 24,
           tol: float = 1e-9, lo: float = -2.0, hi: float = 2.0) -> bool:
    """Structural equality of canonical forms, falling back to sampling the
    difference at random points in [lo, hi] per symbol (|diff| < tol at 20+
    valid points).  Unknown functions get deterministic polynomial stand-ins."""
    diff = sub(_coerce(e1), _coerce(e2))
    if diff == ZERO:
        return True
    return max_abs_sample(diff, seed=seed, points=max(points, 20), lo=lo, hi=hi) < tol


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _exp_text(exp: Rat) -> str:
    if exp.denominator == 1:
        return f"^{exp.numerator}"
    return f"^({exp.numerator}/{exp.denominator})"


def _factor_text(factor: Expr) -> str:
    base, exp = _base_exp(factor)
    if exp.denominator == 2:
        inner = f"sqrt({to_text(base)})"
        return inner if exp == Fraction(1, 2) else inner + _exp_text(exp * 2)
    btext = to_text(base)
    if isinstance(base, (Add, Mul)) or (isinstance(base, Num) and base.value < 0):
        btext = f"({btext})"
    return btext if exp == 1 else btext + _exp_text(exp)


def signed_term(term: Expr) -> tuple[int, str]:
    """(sign, unsigned text) of a canonical non-Add term, e.g. (-1, "2*x")."""
    coeff, factors = _as_term(term)
    sign = -1 if coeff < 0 else 1
    coeff = abs(coeff)
    if not factors:
        return sign, str(coeff)
    parts = [] if coeff == 1 else [str(coeff)]
    parts += [_factor_text(f) for f in factors]
    return sign, "*".join(parts)


def join_signed(parts: Iterable[tuple[int, str]]) -> str:
    """Join (sign, unsigned text) pairs as "-a + b - c"."""
    out = []
    for sign, text in parts:
        if out:
            out.append(" - " if sign < 0 else " + ")
        elif sign < 0:
            out.append("-")
        out.append(text)
    return "".join(out)


def to_text(e: Expr) -> str:
    """Render an expression in the grammar accepted by the parser."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Jet):
        return e.base.name + "_" + "".join(i.name for i in e.indices)
    if isinstance(e, Func):
        return f"{e.fn}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Unknown):
        name = e.fn.name
        if e.derivs:
            name += "_" + "".join(e.fn.slots[i].name for i in e.derivs)
        if e.args == tuple(e.fn.slots):
            return name
        return f"{name}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Pow):
        return _factor_text(e)
    if isinstance(e, Mul):
        return join_signed([signed_term(e)])
    if isinstance(e, Add):
        return join_signed(map(signed_term, e.terms))
    raise TypeError(f"not an Expr: {e!r}")
