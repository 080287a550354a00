"""Declared variable spaces and the standard symbols.

Two charts are used throughout: the base space (x, y, t; u, f) in which the
viscoelastic equation lives, and the reduced space (xi, eta; h, g) of the
similarity charts.  Parameters are shared: the equation coefficients a and b,
the free constants c1..c5 of the symmetry family, and the group parameters
s and eps.
"""

from __future__ import annotations

from typing import NamedTuple

from .expr import Expr, Kind, Sym, UnknownFn

__all__ = [
    "VarSpace", "base_space", "reduced_space",
    "x", "y", "t", "u", "f", "xi", "eta", "h", "g",
    "a", "b", "s", "eps", "c1", "c2", "c3", "c4", "c5",
]

x = Sym("x", Kind.INDEPENDENT, 0)
y = Sym("y", Kind.INDEPENDENT, 1)
t = Sym("t", Kind.INDEPENDENT, 2)
xi = Sym("xi", Kind.INDEPENDENT, 0)
eta = Sym("eta", Kind.INDEPENDENT, 1)

u = Sym("u", Kind.DEPENDENT, 0)
f = Sym("f", Kind.DEPENDENT, 1)
h = Sym("h", Kind.DEPENDENT, 0)
g = Sym("g", Kind.DEPENDENT, 1)

a = Sym("a", Kind.PARAMETER, 0)
b = Sym("b", Kind.PARAMETER, 1)
c1 = Sym("c1", Kind.PARAMETER, 2)
c2 = Sym("c2", Kind.PARAMETER, 3)
c3 = Sym("c3", Kind.PARAMETER, 4)
c4 = Sym("c4", Kind.PARAMETER, 5)
c5 = Sym("c5", Kind.PARAMETER, 6)
s = Sym("s", Kind.PARAMETER, 7)
eps = Sym("eps", Kind.PARAMETER, 8)

_PARAMETERS = (a, b, c1, c2, c3, c4, c5, s, eps)


class VarSpace(NamedTuple):
    """A symbol table: independent/dependent variables, parameters and any
    declared opaque functions.  The parser resolves identifiers against it."""

    independents: tuple[Sym, ...]
    dependents: tuple[Sym, ...]
    parameters: tuple[Sym, ...] = _PARAMETERS
    unknowns: tuple[UnknownFn, ...] = ()

    def lookup(self, name: str) -> Sym | UnknownFn | None:
        for sym in self.independents + self.dependents + self.parameters:
            if sym.name == name:
                return sym
        for fn in self.unknowns:
            if fn.name == name:
                return fn
        return None

    def declared_names(self) -> list[str]:
        names = [sym.name for sym in self.independents + self.dependents + self.parameters]
        names += [fn.name for fn in self.unknowns]
        return sorted(names)

    def with_unknowns(self, *fns: UnknownFn) -> "VarSpace":
        clashes = [fn.name for fn in fns if self.lookup(fn.name) is not None]
        if clashes:
            raise ValueError(f"names already declared: {', '.join(clashes)}")
        return self._replace(unknowns=self.unknowns + tuple(fns))

    def parse(self, text: str) -> Expr:
        from .parsing import parse
        return parse(text, self)


_BASE = VarSpace(independents=(x, y, t), dependents=(u, f))
_REDUCED = VarSpace(independents=(xi, eta), dependents=(h, g))


def base_space() -> VarSpace:
    """The (x, y, t; u, f) chart of the viscoelastic equation."""
    return _BASE


def reduced_space() -> VarSpace:
    """The (xi, eta; h, g) chart of the similarity reductions."""
    return _REDUCED
