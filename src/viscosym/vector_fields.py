"""Point vector fields on (x, y, t, u, f)-space and the symmetry machinery:
Lie brackets, structure constants, third prolongation, the invariance
condition for the viscoelastic equation, and determining-equation extraction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .expr import (Add, Expr, ExprError, Jet, JetOrderError, Kind, Num, Pow,
                   Sym, UnknownFn, ZERO, ONE, add, atoms, bind_jets, diff_atom,
                   join_signed, max_abs_sample, mul, neg, signed_term, sub,
                   substitute, term_map, to_text, total_derivative)
from .linalg import solve_exact
from .spaces import VarSpace, base_space, c1, c2, c3, c4, c5, f, t, u, x, y

__all__ = [
    "Generator", "PDEInstance", "StructureConstants", "SymmetryReport",
    "DeterminingSystem", "NotClosedError",
    "standard_basis", "basis_combination", "parse_basis_combination",
    "function_shift_generator", "viscoelastic_pde",
    "bracket", "commutator_table", "prolong", "invariance_residual",
    "verify_symmetry", "general_ansatz", "symmetry_family_bodies",
    "determining_equations", "combo_text",
]

_COORDS = (x, y, t, u, f)


class NotClosedError(ExprError):
    """A bracket left the span of the proposed basis."""


@dataclass(frozen=True)
class Generator:
    """A point vector field xi1*dx + xi2*dy + xi3*dt + phi1*du + phi2*df.

    Coefficients are expressions over (x, y, t, u, f); jet variables are
    rejected, keeping the field a point symmetry candidate.
    """

    xi1: Expr = ZERO
    xi2: Expr = ZERO
    xi3: Expr = ZERO
    phi1: Expr = ZERO
    phi2: Expr = ZERO
    label: str | None = None

    def __post_init__(self):
        for name, coeff in zip(("xi1", "xi2", "xi3", "phi1", "phi2"),
                               self.coefficients):
            for atom in atoms(coeff):
                if isinstance(atom, Jet):
                    raise ExprError(
                        f"{name} contains jet variable {to_text(atom)}; "
                        "point-symmetry coefficients may only involve (x, y, t, u, f)")

    @property
    def coefficients(self) -> tuple[Expr, Expr, Expr, Expr, Expr]:
        return (self.xi1, self.xi2, self.xi3, self.phi1, self.phi2)

    def apply(self, e: Expr) -> Expr:
        """Act as a first-order differential operator on a function of
        (x, y, t, u, f)."""
        return add(*[mul(coeff, diff_atom(e, coord))
                     for coord, coeff in zip(_COORDS, self.coefficients)])

    def __add__(self, other: "Generator") -> "Generator":
        return Generator(*[add(p, q) for p, q in
                           zip(self.coefficients, other.coefficients)])

    def __sub__(self, other: "Generator") -> "Generator":
        return Generator(*[sub(p, q) for p, q in
                           zip(self.coefficients, other.coefficients)])

    def scaled(self, factor) -> "Generator":
        return Generator(*[mul(factor, coeff) for coeff in self.coefficients])

    def __rmul__(self, factor) -> "Generator":
        return self.scaled(factor)

    def __neg__(self) -> "Generator":
        return self.scaled(-1)

    def is_zero(self) -> bool:
        return all(coeff == ZERO for coeff in self.coefficients)


def standard_basis() -> tuple[Generator, ...]:
    """The five-generator symmetry basis: the three translations, the
    rotation in the (x, y)-plane, and the joint (u, f) scaling."""
    return (
        Generator(xi1=ONE, label="X1"),
        Generator(xi2=ONE, label="X2"),
        Generator(xi3=ONE, label="X3"),
        Generator(xi1=y, xi2=neg(x), label="X4"),
        Generator(phi1=u, phi2=f, label="X5"),
    )


def basis_combination(coeffs: Sequence) -> Generator:
    """Rational linear combination of the standard basis."""
    basis = standard_basis()
    out = Generator()
    for coeff, gen in zip(coeffs, basis):
        coeff = Fraction(coeff)
        if coeff != 0:
            out = out + gen.scaled(Num(coeff))
    return out


_LABELS = ("X1", "X2", "X3", "X4", "X5")
_LABEL_SYMS = tuple(Sym(name, Kind.PARAMETER, i) for i, name in enumerate(_LABELS))
_LABEL_SPACE = VarSpace(independents=(), dependents=(), parameters=_LABEL_SYMS)


def parse_basis_combination(text: str) -> Generator:
    """Parse "X1", "X1 + 2*X3", "-X4/2" ... into a Generator."""
    e = _LABEL_SPACE.parse(text)
    coeffs = [Fraction(0)] * 5
    for factors, coeff in term_map(e).items():
        if len(factors) != 1 or factors[0] not in _LABEL_SYMS:
            raise ExprError(f"{text!r} is not a linear combination of X1..X5")
        coeffs[_LABEL_SYMS.index(factors[0])] = coeff
    return basis_combination(coeffs)


def function_shift_generator(fn: UnknownFn | None = None,
                             *, pde: "PDEInstance | None" = None) -> Generator:
    """The symmetry shifting u by an arbitrary function F(x, y, t), with f
    co-shifted by the equation's image of F (the equation is linear)."""
    if fn is None:
        fn = UnknownFn("F", (x, y, t))
    if tuple(s.name for s in fn.slots) != ("x", "y", "t"):
        raise ExprError("the shift function must take slots (x, y, t)")
    if pde is None:
        pde = viscoelastic_pde()
    shift = fn()
    return Generator(phi1=shift, phi2=pde.compose(shift, ZERO), label=f"X_{fn.name}")


# ---------------------------------------------------------------------------
# The PDE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PDEInstance:
    """The equation residual Delta = u_tt - a*(u_xxt + u_yyt) - b*(u_xx + u_yy) - f,
    stored together with the same equation solved for f.  Construction checks
    that Delta is linear in f with coefficient -1 and linear in u and its
    jets, so ``compose`` is affine in (u_expr, f_expr)."""

    residual: Expr
    solved_form: Expr = None  # type: ignore[assignment]

    def __post_init__(self):
        coeff = diff_atom(self.residual, f)
        if coeff != Num(Fraction(-1)):
            raise ExprError("residual must be linear in f with coefficient -1")
        solved = add(self.residual, f)
        if any(atom == f for atom in atoms(solved)):
            raise ExprError("residual must be linear in f with coefficient -1")
        u_atoms = {atom for atom in atoms(self.residual)
                   if atom == u or (isinstance(atom, Jet) and atom.base == u)}
        for atom in u_atoms:
            if any(other in u_atoms for other in atoms(diff_atom(self.residual, atom))):
                raise ExprError("residual must be linear in u and its jets")
        object.__setattr__(self, "solved_form", solved)

    def compose(self, u_expr: Expr, f_expr: Expr) -> Expr:
        """The residual with u = u_expr and f = f_expr, each jet bound to
        the matching total derivative (``bind_jets``).  With f_expr = 0 this is
        the equation's linear operator applied to u_expr."""
        return bind_jets(self.residual, {u: u_expr, f: f_expr})


def viscoelastic_pde() -> PDEInstance:
    residual = base_space().parse("u_tt - a*(u_xxt + u_yyt) - b*(u_xx + u_yy) - f")
    return PDEInstance(residual)


# ---------------------------------------------------------------------------
# Brackets and the commutator table
# ---------------------------------------------------------------------------

def bracket(v: Generator, w: Generator) -> Generator:
    """Lie bracket [V, W], componentwise V(W^k) - W(V^k)."""
    return Generator(*[sub(v.apply(wk), w.apply(vk))
                       for vk, wk in zip(v.coefficients, w.coefficients)])


def express_in_span(target: Generator, basis: Sequence[Generator]) -> list[Fraction] | None:
    """Exact coordinates of ``target`` in ``basis``, or None if outside the span."""
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for slot in range(5):
        basis_maps = [term_map(gen.coefficients[slot]) for gen in basis]
        target_map = term_map(target.coefficients[slot])
        monomials = set(target_map)
        for bm in basis_maps:
            monomials.update(bm)
        for mono in sorted(monomials, key=repr):
            rows.append([bm.get(mono, Fraction(0)) for bm in basis_maps])
            rhs.append(target_map.get(mono, Fraction(0)))
    coeffs = solve_exact(rows, rhs)
    if coeffs is None:
        return None
    recombined = Generator()
    for coeff, gen in zip(coeffs, basis):
        recombined = recombined + gen.scaled(Num(coeff))
    if any(sub(p, q) != ZERO for p, q in
           zip(recombined.coefficients, target.coefficients)):
        return None
    return coeffs


@dataclass(frozen=True)
class StructureConstants:
    """c[i][j][k] with [X_i, X_j] = sum_k c[i][j][k] X_k (0-indexed storage).

    Antisymmetry and the Jacobi identity are checked at construction.
    """

    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.labels)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise ExprError("structure constants are not antisymmetric")
        # with antisymmetry the Jacobi sum is alternating in (i, j, k), so
        # i < j < k suffices, and only the nonzero constants contribute
        nonzero = [[[(m, v) for m, v in enumerate(row) if v] for row in plane]
                   for plane in self.c]
        for i, j, k in itertools.combinations(range(n), 3):
            acc: dict[int, Fraction] = {}
            for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                for m, v in nonzero[p][q]:
                    for l, w in nonzero[m][r]:
                        acc[l] = acc.get(l, 0) + v * w
            if any(acc.values()):
                raise ExprError("structure constants violate the Jacobi identity")
        # the tensor is a cache key: hash its n^3 Fractions once, not per
        # lookup (equal tensors have equal c, so this agrees with ==)
        object.__setattr__(self, "_hash", hash(self.c))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Coordinates of [X_i, X_j] (1-indexed arguments)."""
        return self.c[i - 1][j - 1]

    def entry_text(self, i: int, j: int) -> str:
        return combo_text([Num(v) for v in self.entry(i, j)], self.labels)

    def adjoint_action(self, i: int) -> list[list[Fraction]]:
        """Matrix of ad_{X_i} on coordinates: column j holds [X_i, X_j]."""
        n = self.dim
        return [[self.c[i - 1][j][k] for j in range(n)] for k in range(n)]


def commutator_table(basis: Sequence[Generator] | None = None) -> StructureConstants:
    """Full structure-constant tensor of a basis (default: the standard one).

    Each basis is built and Jacobi-checked once per process; the returned
    tensor is shared between callers and immutable.  Raises NotClosedError
    naming the offending pair when some bracket leaves the basis span.
    """
    return _commutator_table(tuple(basis) if basis is not None else _standard_basis())


@functools.cache
def _standard_basis() -> tuple[Generator, ...]:
    # the default cache key, built once rather than on every call
    return standard_basis()


@functools.lru_cache(maxsize=8)
def _commutator_table(basis: tuple[Generator, ...]) -> StructureConstants:
    labels = tuple(gen.label or f"X{i + 1}" for i, gen in enumerate(basis))
    n = len(basis)
    tensor = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = express_in_span(bracket(basis[i], basis[j]), basis)
            if coeffs is None:
                raise NotClosedError(
                    f"[{labels[i]}, {labels[j]}] is not in the span of the basis")
            for k, coeff in enumerate(coeffs):
                tensor[i][j][k] = coeff
                tensor[j][i][k] = -coeff
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    return StructureConstants(frozen, labels)


def combo_text(coeffs: Sequence[Expr], labels: Sequence[str]) -> str:
    """Render a linear combination of labelled basis elements, e.g.
    "cos(s)*X1 - sin(s)*X2" or "0"."""
    parts: list[tuple[int, str]] = []
    for coeff, label in zip(coeffs, labels):
        if coeff == ZERO:
            continue
        if isinstance(coeff, Add):
            sign, text = 1, f"({to_text(coeff)})"
        else:
            sign, text = signed_term(coeff)
        parts.append((sign, label if text == "1" else f"{text}*{label}"))
    return join_signed(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Prolongation and the invariance condition
# ---------------------------------------------------------------------------

_PROLONG_ORDER = 3


def _prolonger(v: Generator) -> Callable[[Expr], Expr]:
    """The prolonged coefficient of u, f or one of their jets, memoized per
    generator.  A jet's coefficient is built from its prefix jet's with the
    recursion phi^{J,i} = D_i phi^J - sum_k (D_i xi^k) u_{J,k}, where i is
    the last index of the sorted multiset, so asking for one jet prolongs
    only its prefixes."""
    xis = (v.xi1, v.xi2, v.xi3)
    indeps = (x, y, t)
    memo: dict[Expr, Expr] = {u: v.phi1, f: v.phi2}
    dxis: dict[Sym, list[Expr]] = {}

    def coefficient(atom: Expr) -> Expr:
        known = memo.get(atom)
        if known is not None:
            return known
        if not isinstance(atom, Jet) or atom.base not in (u, f):
            raise ExprError(f"{to_text(atom)} is not u, f or one of their jets")
        if atom.order > _PROLONG_ORDER:
            raise JetOrderError(f"{to_text(atom)} exceeds the supported "
                                f"prolongation order {_PROLONG_ORDER}")
        prev, direction = atom.indices[:-1], atom.indices[-1]
        if direction not in dxis:
            dxis[direction] = [total_derivative(xik, direction) for xik in xis]
        prefix = Jet(atom.base, prev) if prev else atom.base
        corrections = [mul(dxik, Jet(atom.base, prev + (ix,)))
                       for dxik, ix in zip(dxis[direction], indeps)]
        out = sub(total_derivative(coefficient(prefix), direction), add(*corrections))
        memo[atom] = out
        return out

    return coefficient


def prolong(v: Generator, order: int) -> dict[Expr, Expr]:
    """Prolonged coefficients up to ``order`` (at most 3).

    Returns a map from u, f and each of their jets u_J, f_J (|J| <= order) to
    the infinitesimal coefficient, built with the recursion
    phi^{J,i} = D_i phi^J - sum_k (D_i xi^k) u_{J,k}.  This prolongs every
    jet; the invariance condition asks ``_prolonger`` for the residual's
    jets only.
    """
    if order > _PROLONG_ORDER:
        raise JetOrderError(f"prolongation order {order} exceeds the supported "
                            f"order {_PROLONG_ORDER}")
    if order < 0:
        raise ExprError("prolongation order must be nonnegative")
    coefficient = _prolonger(v)
    out: dict[Expr, Expr] = {}
    for dep in (u, f):
        out[dep] = coefficient(dep)
        for k in range(1, order + 1):
            for multiset in itertools.combinations_with_replacement((x, y, t), k):
                jet = Jet(dep, multiset)
                out[jet] = coefficient(jet)
    return out


def _raw_invariance(v: Generator, pde: PDEInstance) -> Expr:
    """Pr^(3)V applied to the residual, before any on-shell substitution.

    Only the jets the residual mentions (and their prefixes) are prolonged:
    for the viscoelastic equation that is 10 of the 40 coefficients of the
    full third prolongation."""
    coefficient = _prolonger(v)
    xis = {x: v.xi1, y: v.xi2, t: v.xi3}
    parts = []
    for atom in atoms(pde.residual):
        if isinstance(atom, Sym) and atom.kind is Kind.PARAMETER:
            continue
        coeff = xis[atom] if atom in xis else coefficient(atom)
        parts.append(mul(coeff, diff_atom(pde.residual, atom)))
    return add(*parts)


def invariance_residual(v: Generator, pde: PDEInstance | None = None) -> Expr:
    """Pr^(3)V applied to the residual, then taken on shell (f replaced by
    the solved form; opaque-function arguments are left untouched so that
    the result stays clean in any unknowns)."""
    if pde is None:
        pde = viscoelastic_pde()
    raw = _raw_invariance(v, pde)
    return substitute(raw, {f: pde.solved_form}, descend_unknown_args=False)


@dataclass(frozen=True)
class SymmetryReport:
    generator: Generator
    residual: Expr
    symbolic_zero: bool
    numeric_max: float | None
    ok: bool


def verify_symmetry(v: Generator, pde: PDEInstance | None = None, *,
                    seed: int = 42, points: int = 20,
                    tol: float = 1e-9) -> SymmetryReport:
    """True iff the invariance residual vanishes (canonical zero, with a
    numeric fallback sampled at random on-shell points)."""
    residual = invariance_residual(v, pde)
    if residual == ZERO:
        return SymmetryReport(v, residual, True, None, True)
    worst = max_abs_sample(residual, seed=seed, points=points)
    return SymmetryReport(v, residual, False, worst, worst < tol)


# ---------------------------------------------------------------------------
# Determining equations
# ---------------------------------------------------------------------------

def general_ansatz() -> tuple[Generator, tuple[UnknownFn, ...]]:
    """Generator with five opaque coefficient functions of (x, y, t, u, f)."""
    slots = (x, y, t, u, f)
    fns = tuple(UnknownFn(name, slots)
                for name in ("xi1", "xi2", "xi3", "phi1", "phi2"))
    gen = Generator(*[fn() for fn in fns], label="ansatz")
    return gen, fns


def symmetry_family_bodies(fns: Sequence[UnknownFn],
                           shift: UnknownFn | None = None,
                           pde: PDEInstance | None = None) -> dict[UnknownFn, Expr]:
    """The general solution of the determining system, as bodies for the five
    ansatz unknowns: translations, rotation, joint (u, f) scaling and the
    arbitrary-function shift."""
    if shift is None:
        shift = UnknownFn("F", (x, y, t))
    if pde is None:
        pde = viscoelastic_pde()
    image = pde.compose(shift(), ZERO)
    xi1b = add(mul(c1, y), c2)
    xi2b = add(mul(Num(Fraction(-1)), c1, x), c3)
    xi3b: Expr = c4
    phi1b = add(mul(c5, u), shift())
    phi2b = add(mul(c5, f), image)
    return dict(zip(fns, (xi1b, xi2b, xi3b, phi1b, phi2b)))


@dataclass(frozen=True)
class DeterminingSystem:
    """Determining equations grouped by u-jet monomial.

    ``records`` pairs each monomial (graded-lexicographic order) with its
    coefficient expression; ``equations`` is the deduplicated list of
    canonical coefficient expressions in first-occurrence order.
    """

    records: tuple[tuple[tuple[tuple[Jet, int], ...], Expr], ...]
    equations: tuple[Expr, ...]

    @property
    def raw_count(self) -> int:
        return len(self.records)

    @property
    def unique_count(self) -> int:
        return len(self.equations)


def _monomial_split(coeff: Fraction, factors: tuple[Expr, ...]
                    ) -> tuple[tuple[tuple[Jet, int], ...], Expr]:
    """Split a term into (u-jet monomial, remaining coefficient)."""
    mono: list[tuple[Jet, int]] = []
    rest: list[Expr] = []
    for factor in factors:
        if (isinstance(factor, Pow) and isinstance(factor.base, Jet)
                and factor.base.base == u
                and factor.exp.denominator == 1 and factor.exp > 0):
            mono.append((factor.base, int(factor.exp)))
        elif isinstance(factor, Jet) and factor.base == u:
            mono.append((factor, 1))
        else:
            rest.append(factor)
    mono.sort(key=lambda pair: _jet_sort_key(pair[0]))
    coeff_expr = mul(Num(coeff), *rest) if rest else Num(coeff)
    return tuple(mono), coeff_expr


def _jet_sort_key(j: Jet):
    return (len(j.indices), tuple((ix.pos, ix.name) for ix in j.indices))


def _monomial_key(mono: tuple[tuple[Jet, int], ...]):
    degree = sum(exp for _, exp in mono)
    return (degree, tuple((_jet_sort_key(j), exp) for j, exp in mono))


def determining_equations(pde: PDEInstance | None = None,
                          ansatz: Generator | None = None) -> DeterminingSystem:
    """Expand the on-shell invariance residual as a polynomial in the u-jet
    monomials (treated as independent coordinates) and collect coefficients.

    On shell here means solving the equation for the principal derivative
    u_tt (and substituting its differential consequences u_xtt, u_ytt, the
    only other tt-jets the third prolongation produces).  Eliminating f
    instead would tie the constant monomial to the u_tt/u_xx/... monomials
    through the solved form and break coefficient-by-coefficient vanishing
    for the (u, f)-scaling symmetry; with u_tt eliminated, f and its jets are
    free coordinates, so each collected coefficient of a genuine symmetry
    vanishes identically.  f-jets of order >= 1, when the ansatz depends on
    f, are kept inside the coefficients rather than in the monomial basis:
    the residual carries no f-derivatives of its own.
    """
    if pde is None:
        pde = viscoelastic_pde()
    if ansatz is None:
        ansatz, _ = general_ansatz()
    residual = _raw_invariance(ansatz, pde)
    u_tt = Jet(u, (t, t))
    principal = sub(u_tt, pde.residual)
    if any(atom == u_tt for atom in atoms(principal)):
        raise ExprError("residual must be linear in u_tt with coefficient 1")
    residual = substitute(residual, {
        u_tt: principal,
        Jet(u, (x, t, t)): total_derivative(principal, x),
        Jet(u, (y, t, t)): total_derivative(principal, y),
    }, descend_unknown_args=False)
    for atom in atoms(residual):
        if isinstance(atom, Jet) and atom.base == u \
                and sum(ix == t for ix in atom.indices) >= 2:
            raise ExprError(f"unexpected principal-derivative jet {to_text(atom)}")
    groups: dict[tuple[tuple[Jet, int], ...], list[Expr]] = {}
    for factors, coeff in term_map(residual).items():
        mono, coeff_expr = _monomial_split(coeff, factors)
        groups.setdefault(mono, []).append(coeff_expr)
    records = []
    for mono in sorted(groups, key=_monomial_key):
        records.append((mono, add(*groups[mono])))
    seen: set[Expr] = set()
    equations = []
    for _, eq in records:
        if eq not in seen:
            seen.add(eq)
            equations.append(eq)
    return DeterminingSystem(tuple(records), tuple(equations))


def monomial_text(mono: tuple[tuple[Jet, int], ...]) -> str:
    if not mono:
        return "1"
    return "*".join(to_text(j) if exp == 1 else f"{to_text(j)}^{exp}"
                    for j, exp in mono)
