"""Recursive-descent parser for the expression grammar.

    expr    := ('+'|'-')? term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := base ('^' exponent)?
    exponent:= '-'? integer | '(' '-'? integer '/' integer ')'
    base    := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'
    ident   := letter (letter|digit)* ('_' subscripts)?

Subscripts on a dependent variable are jet indices over the space's
independent variables ("u_tx" and "u_xt" are the same jet, stored sorted);
subscripts on a declared opaque function are formal derivatives with respect
to its argument slots.  A declared opaque function mentioned without an
argument list is applied to its default slots.  Identifiers must be declared
in the given VarSpace; numbers parse to exact rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .expr import (ELEMENTARY_FUNCTIONS, Expr, ExprError, Jet, Kind, Num,
                   Unknown, UnknownFn, add, div, func, mul, neg, pow_)
from .spaces import VarSpace

__all__ = ["parse", "ParseError", "UnknownIdentifierError"]

# deepest parenthesis or call nesting accepted; each level costs several
# stack frames, and deeper input would exhaust the interpreter's stack
_MAX_NESTING = 100


class ParseError(ExprError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int, declared: list[str]):
        super().__init__(
            f"unknown identifier {name!r}; declared symbols: {', '.join(declared)}",
            offset)
        self.name = name


class _Token(NamedTuple):
    type: str          # NUM | IDENT | OP | END
    text: str
    pos: int           # character position; inputs are ASCII so bytes match


_TOKEN_RE = re.compile(r"""
    (?P<NUM>\d+(?:\.\d+)?)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z]+)?)
  | (?P<OP>[-+*/^(),])
  | (?P<WS>\s+)
""", re.VERBOSE)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             _byte_offset(text, pos))
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), _byte_offset(text, pos)))
        pos = m.end()
    tokens.append(_Token("END", "", _byte_offset(text, len(text))))
    return tokens


def _munch_subscripts(subscript: str, names: dict[str, object],
                      full: str, offset: int) -> list[object]:
    """Split a subscript string greedily into declared names (longest first)."""
    ordered = sorted(names, key=len, reverse=True)
    out = []
    i = 0
    while i < len(subscript):
        for name in ordered:
            if subscript.startswith(name, i):
                out.append(names[name])
                i += len(name)
                break
        else:
            raise ParseError(
                f"bad subscript {subscript[i:]!r} in {full!r}; "
                f"expected a sequence of {', '.join(sorted(names))}", offset)
    return out


class _Parser:
    def __init__(self, text: str, space: VarSpace):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        if self.cur.type == "OP" and self.cur.text in ops:
            return self.advance().text
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise ParseError(f"expected {op!r}, found {self.cur.text or 'end of input'!r}",
                             self.cur.pos)

    def parse(self) -> Expr:
        e = self.expr()
        if self.cur.type != "END":
            raise ParseError(f"unexpected trailing input {self.cur.text!r}", self.cur.pos)
        return e

    def nested_expr(self, opening: _Token) -> Expr:
        """An expr one nesting level below the '(' token ``opening``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", opening.pos)
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        return e

    def expr(self) -> Expr:
        sign = self.accept_op("+", "-")
        e = self.term()
        if sign == "-":
            e = neg(e)
        while (op := self.accept_op("+", "-")) is not None:
            rhs = self.term()
            e = add(e, rhs if op == "+" else neg(rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.accept_op("*", "/")) is not None:
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.accept_op("^"):
            return pow_(e, self.exponent())
        return e

    def exponent(self) -> Fraction:
        if self.accept_op("("):
            value = self.signed_integer()
            self.expect_op("/")
            denom_tok = self.cur
            denom = self.signed_integer()
            if denom <= 0:
                raise ParseError("exponent denominator must be positive", denom_tok.pos)
            self.expect_op(")")
            return Fraction(value, denom)
        return Fraction(self.signed_integer())

    def signed_integer(self) -> int:
        sign = -1 if self.accept_op("-") else 1
        tok = self.cur
        if tok.type != "NUM" or "." in tok.text:
            raise ParseError(f"expected an integer, found {tok.text or 'end of input'!r}",
                             tok.pos)
        self.advance()
        return sign * int(tok.text)

    def base(self) -> Expr:
        tok = self.cur
        if tok.type == "NUM":
            self.advance()
            return Num(Fraction(tok.text))
        if tok.type == "IDENT":
            self.advance()
            return self.ident_use(tok)
        if self.accept_op("("):
            e = self.nested_expr(tok)
            self.expect_op(")")
            return e
        raise ParseError(f"expected a number, identifier or '(', found "
                         f"{tok.text or 'end of input'!r}", tok.pos)

    def call_args(self) -> list[Expr]:
        opening = self.cur
        self.expect_op("(")
        args = [self.nested_expr(opening)]
        while self.accept_op(","):
            args.append(self.nested_expr(opening))
        self.expect_op(")")
        return args

    def ident_use(self, tok: _Token) -> Expr:
        name, _, subscript = tok.text.partition("_")
        follows_call = self.cur.type == "OP" and self.cur.text == "("

        if not subscript and (name in ELEMENTARY_FUNCTIONS or name == "sqrt") and follows_call:
            args = self.call_args()
            arity = 1 if name == "sqrt" else ELEMENTARY_FUNCTIONS[name]
            if len(args) != arity:
                raise ParseError(f"{name} expects {arity} argument(s), got {len(args)}",
                                 tok.pos)
            return func(name, *args)

        decl = self.space.lookup(name)
        if decl is None:
            raise UnknownIdentifierError(name, tok.pos, self.space.declared_names())

        if isinstance(decl, UnknownFn):
            slot_index = {slot.name: i for i, slot in enumerate(decl.slots)}
            derivs = _munch_subscripts(subscript, slot_index, tok.text, tok.pos) \
                if subscript else []
            args = self.call_args() if follows_call else list(decl.slots)
            if len(args) != decl.arity:
                raise ParseError(f"{name} expects {decl.arity} argument(s), got {len(args)}",
                                 tok.pos)
            return Unknown(decl, derivs, tuple(args))

        if follows_call:
            raise ParseError(f"{name!r} is a variable, not a function", tok.pos)
        if not subscript:
            return decl
        if decl.kind is not Kind.DEPENDENT:
            raise ParseError(f"only dependent variables take jet subscripts, "
                             f"{name!r} is {decl.kind.value}", tok.pos)
        index_syms = {sym.name: sym for sym in self.space.independents}
        indices = _munch_subscripts(subscript, index_syms, tok.text, tok.pos)
        return Jet(decl, tuple(indices))


def parse(text: str, space: VarSpace) -> Expr:
    """Parse ``text`` against the declared symbols of ``space``; the result
    is canonical, with jet subscripts normalized to sorted multiset order."""
    return _Parser(text, space).parse()
