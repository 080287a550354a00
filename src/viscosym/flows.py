"""Closed-form one-parameter flows of affine base-space generators and
sampled trajectory emission.

A generator whose (xi1, xi2, xi3) = A (x, y, t) + b is affine with rational
coefficients has the flow exp(eps*M) (x, y, t, 1), M = [[A, b], [0, 0]],
exponentiated exactly, and proven by its flow equation, by
``linalg.mat_exp`` whenever the spectrum of A is rational or pairs +-i*w
with rational w: translations, rotations, dilations, shears and their
combinations.  M is checked to rebuild (xi1, xi2, xi3) term for term.  u-
and f-components are ignored: the flow lives on the base space.  Each flow
is built once per (xi1, xi2, xi3) and process, so fields that differ only
in their u- and f-components or their label share one ``FlowMap``, which is
immutable; a field without a closed form raises again on every call.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .expr import Expr, ExprError, Num, add, eval_batch, mul, term_map, to_text
from .linalg import mat_exp
from .spaces import eps as EPS
from .spaces import t, x, y
from .vector_fields import Generator

__all__ = ["FlowMap", "FlowSample", "NonAffineError", "MAX_EPS_SAMPLES", "MAX_FLOW_POINTS",
           "flow_map", "sample_flow", "samples_to_csv"]

# largest n of an (lo, hi, n) eps range: samples are held in one list and
# printed at once, so an unbounded n is unbounded time and memory
MAX_EPS_SAMPLES = 100_000
# largest number of seeds times n: every point is held in memory at once
MAX_FLOW_POINTS = 1_000_000


class NonAffineError(ExprError):
    """Flow maps exist in closed form only for (x, y, t)-coefficients that
    are affine with rational coefficients."""


class FlowMap(NamedTuple):
    """Exact flow (x(eps), y(eps), t(eps)) of a generator's base-space part,
    which ``linalg.mat_exp`` proved to be the identity at eps = 0 and to
    solve d/deps (x, y, t)_eps = (xi1, xi2, xi3) at (x, y, t)_eps."""

    x_eps: Expr
    y_eps: Expr
    t_eps: Expr

    @property
    def components(self) -> tuple[Expr, Expr, Expr]:
        return (self.x_eps, self.y_eps, self.t_eps)

    def at(self, seed: Sequence[float], eps_value: float) -> tuple[float, float, float]:
        columns = {x: [seed[0]], y: [seed[1]], t: [seed[2]], EPS: [eps_value]}
        return tuple(values[0] for values in eval_batch(self.components, columns))


def flow_map(v: Generator) -> FlowMap:
    """Exact flow of the affine system attached to the generator's
    base-space part Generator(xi1, xi2, xi3).  It is built and proven once
    per (xi1, xi2, xi3) and process and shared between callers.  A field
    without a closed form raises ``NonAffineError`` or ``SpectrumError``
    again on every call."""
    return _flow_map(v.xi1, v.xi2, v.xi3)


@functools.lru_cache(maxsize=64)
def _flow_map(xi1: Expr, xi2: Expr, xi3: Expr) -> FlowMap:
    rows, slots = [], ((x,), (y,), (t,), ())
    for coeff, label in ((xi1, "xi1"), (xi2, "xi2"), (xi3, "xi3")):
        terms = term_map(coeff)        # kx*x + ky*y + kt*t + k0, and nothing else
        if any(factors not in slots for factors in terms):
            raise NonAffineError(f"{label} is not affine in (x, y, t): {to_text(coeff)}")
        rows.append([terms.get(factors, 0) for factors in slots])
        # mat_exp proves the flow against M, so M must be the field itself
        if add(*[mul(Num(k), *slot) for k, slot in zip(rows[-1], slots)]) is not coeff:
            raise ExprError(f"{label} is not rebuilt from its affine coefficients")
    # diag(d, d, d, 1) M diag(d, d, d, 1)^-1 clears the denominators of b alone
    d = math.lcm(*[row[3].denominator for row in rows])
    m_d = [row[:3] + [row[3] * d] for row in rows] + [[0, 0, 0, 0]]
    return FlowMap(*mat_exp(m_d, EPS, (x, y, t, Num(Fraction(1, d))))[:3])


class FlowSample(NamedTuple):
    seed_id: int
    eps: float
    x: float
    y: float
    t: float | None   # None in the (x, y)-projection mode


def sample_flow(fm: FlowMap, seeds: Sequence[Sequence[float]],
                eps_range: tuple[float, float, int], *,
                project_xy: bool = False) -> list[FlowSample]:
    """Sample each seed along the flow at n parameter values uniformly in
    [lo, hi]; ``project_xy`` drops the t-column (the plane projection)."""
    seeds = list(seeds)
    if not seeds:
        raise ExprError("empty seed list")
    lo, hi, n = eps_range
    if n < 2:
        raise ExprError("eps sampling needs n >= 2")
    if n > MAX_EPS_SAMPLES:
        raise ExprError(f"eps sampling takes at most {MAX_EPS_SAMPLES} values, got {n}")
    if len(seeds) * n > MAX_FLOW_POINTS:
        raise ExprError(f"flow sampling takes at most {MAX_FLOW_POINTS} points, got "
                        f"{len(seeds)} seeds x {n} eps values = {len(seeds) * n}")
    if not (lo < hi):
        raise ExprError("eps range needs lo < hi")
    eps_values = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    # one batch over every (seed, eps) point, seed by seed
    seed_ids = []
    columns = {x: [], y: [], t: [], EPS: eps_values * len(seeds)}
    for seed_id, seed in enumerate(seeds):
        seed_ids += [seed_id] * n
        for k, coord in enumerate((x, y, t)):
            columns[coord] += [seed[k]] * n
    xs, ys, ts = eval_batch(fm.components, columns)
    if project_xy:
        ts = [None] * len(ts)
    # rows are built in C: a NamedTuple's own __new__ is a Python call per row
    return list(map(functools.partial(tuple.__new__, FlowSample),
                    zip(seed_ids, columns[EPS], xs, ys, ts)))


def samples_to_csv(samples: Iterable[FlowSample]) -> str:
    """Fixed column order: seed_id, eps, x, y, t (t omitted when projected)."""
    samples = list(samples)
    projected = samples and samples[0].t is None
    header = "seed_id,eps,x,y" if projected else "seed_id,eps,x,y,t"
    lines = [header]
    for sample in samples:
        row = [str(sample.seed_id), repr(sample.eps), repr(sample.x), repr(sample.y)]
        if not projected:
            row.append(repr(sample.t))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
