"""One-parameter flows: closed forms, group law, finite transformations of
solutions, sampling."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosym import flows
from viscosym.adjoint import normalize
from viscosym.expr import (ExprError, Func, Kind, Num, ONE, Sym, ZERO, add, eval_numeric, func,
                           mul, neg, pow_, rebuild, sub, substitute, term_map)
from viscosym.flows import (MAX_EPS_SAMPLES, FlowMap, FlowSample, NonAffineError, flow_map,
                            sample_flow, samples_to_csv)
from viscosym.linalg import SpectrumError, mat_exp
from viscosym.spaces import a, b, base_space, eps, f, t, u, x, y
from viscosym.vector_fields import (Generator, PDEInstance, basis_combination,
                                    parse_basis_combination, viscoelastic_pde)

from conftest import fake_interpolant

BASE = base_space()


class TestFlowMap:
    def test_rotation_matches_published_flow(self, basis):
        fm = flow_map(basis[3])
        assert fm.x_eps == BASE.parse("y*sin(eps) + x*cos(eps)")
        assert fm.y_eps == BASE.parse("y*cos(eps) - x*sin(eps)")
        assert fm.t_eps == t

    def test_translation(self, basis):
        fm = flow_map(basis[0])
        assert (fm.x_eps, fm.y_eps, fm.t_eps) == (add(x, eps), y, t)
        assert fm == FlowMap(add(x, eps), y, t)        # a plain record of the three

    def test_rotation_with_time_translation(self, basis):
        fm = flow_map(basis[3] + basis[2])
        assert fm.x_eps == BASE.parse("y*sin(eps) + x*cos(eps)")
        assert fm.t_eps == add(t, eps)

    def test_off_center_rotation_recovers_generator(self):
        gen = parse_basis_combination("X4 + X1 + 2*X2")
        fm = flow_map(gen)
        point = (0.8, -0.4, 0.3)
        step = 1e-6
        plus, minus = fm.at(point, step), fm.at(point, -step)
        derivative = [(p - m) / (2 * step) for p, m in zip(plus, minus)]
        expected = [eval_numeric(c, {x: point[0], y: point[1], t: point[2]})
                    for c in (gen.xi1, gen.xi2, gen.xi3)]
        assert np.allclose(derivative, expected, atol=1e-6)

    def test_group_law_numeric(self, basis):
        rng = np.random.default_rng(23)
        fm = flow_map(parse_basis_combination("X4 + X1 + 3*X3"))
        for _ in range(100):
            e1, e2 = rng.uniform(-3, 3, size=2)
            seed = tuple(rng.uniform(-2, 2, size=3))
            once = fm.at(fm.at(seed, e2), e1)
            joint = fm.at(seed, e1 + e2)
            assert np.allclose(once, joint, atol=1e-10)

    def test_rotation_preserves_radius_symbolically(self, basis):
        fm = flow_map(basis[3])
        invariant = sub(add(pow_(fm.x_eps, 2), pow_(fm.y_eps, 2)),
                        add(pow_(x, 2), pow_(y, 2)))
        assert invariant == ZERO

    def test_rotation_preserves_radius_numerically(self, basis):
        fm = flow_map(basis[3])
        rng = np.random.default_rng(5)
        for _ in range(50):
            seed = tuple(rng.uniform(-2, 2, size=3))
            px, py, _ = fm.at(seed, float(rng.uniform(-6, 6)))
            assert abs(px * px + py * py - (seed[0] ** 2 + seed[1] ** 2)) < 1e-12

    def test_scaling_generator_flows_identically_on_base(self, basis):
        fm = flow_map(basis[4])   # u du + f df: base-space flow is the identity
        assert (fm.x_eps, fm.y_eps, fm.t_eps) == (x, y, t)

    def test_non_affine_rejected(self):
        with pytest.raises(NonAffineError, match="not affine"):
            flow_map(Generator(xi1=BASE.parse("x^2")))
        with pytest.raises(NonAffineError, match="not affine"):
            flow_map(Generator(xi2=BASE.parse("a*x")))      # a coefficient that is no number
        with pytest.raises(NonAffineError, match="xi3 is not affine in \\(x, y, t\\): 1 \\+ u"):
            flow_map(Generator(xi3=BASE.parse("1 + u")))

    def test_scaling(self):
        fm = flow_map(Generator(xi1=x))
        assert (fm.x_eps, fm.y_eps, fm.t_eps) == (mul(x, func("exp", eps)), y, t)

    def test_shear_flow(self):
        # y d/dx is nilpotent: its flow is a polynomial in eps
        fm = flow_map(Generator(xi1=y))
        assert (fm.x_eps, fm.y_eps, fm.t_eps) == (add(x, mul(eps, y)), y, t)

    def test_b0_dilation(self):
        fm = flow_map(X6)
        assert fm.components == (mul(x, func("exp", eps)), mul(y, func("exp", eps)),
                                 mul(t, func("exp", mul(Num(2), eps))))

    def test_boost_and_off_center_dilation(self):
        boost = flow_map(Generator(xi1=y, xi2=x))
        half = Num(Fraction(1, 2))
        plus, minus = func("exp", eps), func("exp", neg(eps))
        assert boost.x_eps == add(mul(half, x, add(plus, minus)), mul(half, y, sub(plus, minus)))
        fm = flow_map(Generator(xi1=sub(x, Num(3)), xi3=Num(Fraction(1, 7))))
        assert fm.x_eps == add(Num(3), mul(sub(x, Num(3)), plus))
        assert fm.t_eps == add(t, mul(Num(Fraction(1, 7)), eps))

    @pytest.mark.parametrize("generator", [
        {"xi1": "x + y", "xi2": "y - x"},       # eigenvalues 1 +- i
        {"xi1": "2*y", "xi2": "x"},             # eigenvalues +-sqrt(2)
    ], ids=["1+-i", "+-sqrt2"])
    def test_spectrum_outside_the_closed_forms(self, generator):
        gen = Generator(**{k: BASE.parse(v) for k, v in generator.items()})
        with pytest.raises(SpectrumError, match="rational"):
            flow_map(gen)

    def test_catalog_flows_are_the_closed_forms(self):
        # every combination of X1..X4 with coefficients in {-2, 0, 1, 3} gives the
        # very nodes of the translation and fixed-point rotation formulas, and the
        # cached flow equals a fresh build
        for c1, c2, c3, c4 in itertools.product((-2, 0, 1, 3), repeat=4):
            if any((c1, c2, c3, c4)):
                gen = basis_combination([c1, c2, c3, c4, 0])
                fm = flow_map(gen)
                assert fm.components == _catalog_flow(c1, c2, c3, c4)
                assert fm == flows._flow_map.__wrapped__(gen.xi1, gen.xi2, gen.xi3)


class TestFlowCache:
    """Each flow is built and checked once per (xi1, xi2, xi3) and process."""

    def test_a_second_call_returns_the_same_flow(self):
        v = parse_basis_combination("X4 - 2*X3 + 3*X5")
        assert flow_map(v) is flow_map(v)
        assert flow_map(parse_basis_combination("X4 - 2*X3 + 3*X5")) is flow_map(v)

    def test_a_flow_is_built_once(self, monkeypatch):
        v = Generator(xi1=y, xi2=neg(x), xi3=Num(Fraction(5, 11)))
        flows._flow_map.cache_clear()
        calls = []
        monkeypatch.setattr(flows, "mat_exp", lambda *args: calls.append(args) or mat_exp(*args))
        assert flow_map(v) is flow_map(v) is flow_map(v)
        assert len(calls) == 1

    def test_fields_with_one_base_part_share_a_flow(self):
        # class-3 representatives X4 + c1*X3 + c2*X5 that differ only in c2,
        # and labels, reach the one flow of the unlabelled base-space part
        base = Generator(xi1=y, xi2=neg(x), xi3=Num(-2))
        fields = [parse_basis_combination(text) for text in
                  ("X4 - 2*X3", "X4 - 2*X3 + 3*X5", "X4 - 2*X3 - X5/2")]
        fields += [Generator(xi1=y, xi2=neg(x), xi3=Num(-2), label=label) for label in "PQ"]
        assert {id(flow_map(v)) for v in fields} == {id(flow_map(base))}

    def test_errors_are_raised_on_every_call(self):
        non_affine = Generator(xi1=BASE.parse("x^2"))
        spiral = Generator(xi1=BASE.parse("x + y"), xi2=BASE.parse("y - x"))  # 1 +- i
        for _ in range(2):
            with pytest.raises(NonAffineError, match="not affine"):
                flow_map(non_affine)
            with pytest.raises(SpectrumError, match="rational"):
                flow_map(spiral)

    def test_cached_and_fresh_flows_sample_the_same_rows(self):
        # a class-3 representative, built as the classify-flow bench builds it
        rep = normalize((2, 3, 2, -3, 2)).cls.representative
        v = basis_combination([Fraction(c) for c in rep])
        seeds, eps_range = [(1.0, 0.0, 0.0), (0.5, -0.5, 1.0)], (0.0, 6.0, 13)
        cached = sample_flow(flow_map(v), seeds, eps_range)
        fresh = flows._flow_map.__wrapped__(v.xi1, v.xi2, v.xi3)
        assert cached == sample_flow(fresh, seeds, eps_range)
        assert cached == sample_flow(flow_map(v), seeds, eps_range)


def _catalog_flow(c1, c2, c3, c4):
    """The closed forms of the flow of c1*X1 + c2*X2 + c3*X3 + c4*X4: a
    translation, or a rotation by c4*eps about its fixed point."""
    t_flow = add(t, mul(Num(c3), eps))
    if c4 == 0:
        return (add(x, mul(Num(c1), eps)), add(y, mul(Num(c2), eps)), t_flow)
    px, py = Num(Fraction(c2, c4)), Num(Fraction(-c1, c4))
    cos_we, sin_we = func("cos", mul(Num(c4), eps)), func("sin", mul(Num(c4), eps))
    dx, dy = sub(x, px), sub(y, py)
    return (add(px, mul(cos_we, dx), mul(sin_we, dy)),
            add(py, mul(cos_we, dy), mul(Num(-1), sin_we, dx)), t_flow)


X6 = Generator(xi1=x, xi2=y, xi3=mul(Num(2), t), phi2=mul(Num(-4), f), label="X6")
_E = Sym("E", Kind.PARAMETER, 98)      # exp(eps) in the finite-transformation oracle


def _powers_of_e(node):
    """exp(k*eps) as E^k: exp(2*eps) and exp(eps)^2 are distinct kernel atoms."""
    if isinstance(node, Func) and node.fn == "exp":
        (factors, k), = term_map(node.args[0]).items()
        assert factors == (eps,)
        return pow_(_E, k)
    return None


def _moved_solution_residual(v, u0, pde, *, u_map=None, f_rate=None):
    """compose(u1, f1) for the pair (u0, f0 = L u0) moved by the group element
    exp(eps*v): u1 = e^(alpha*eps) u0 o phi_-eps and f1 = e^(beta*eps) f0 o phi_-eps
    for phi1 = alpha*u and phi2 = beta*f.  ``u_map`` and ``f_rate`` replace the
    point map that moves u and the rate of f, for the mutants."""
    def back(components):
        inverse = {c: substitute(comp, {eps: neg(eps)}) for c, comp in zip((x, y, t), components)}
        return lambda e: substitute(e, inverse)

    def rate(coeff, atom):
        return term_map(coeff).get((atom,), 0)

    phi = flow_map(v).components
    alpha, beta = rate(v.phi1, u), rate(v.phi2, f) if f_rate is None else f_rate
    u1 = mul(func("exp", mul(Num(alpha), eps)), back(u_map or phi)(u0))
    f1 = mul(func("exp", mul(Num(beta), eps)), back(phi)(pde.compose(u0, ZERO)))
    return rebuild(pde.compose(u1, f1), _powers_of_e)


def _moved_by_point_map(pde, u0, point_map):
    """compose(u1, f1) for the pair (u0, f0 = L u0) composed with a point map,
    whose values may name each other's coordinates."""
    f0 = pde.compose(u0, ZERO)
    return pde.compose(substitute(u0, point_map), substitute(f0, point_map))


U0 = BASE.parse("x^3*y - 2*x*y^2*t + t^3*x + y^4 - x^2*t^2")
CLASS_REPRESENTATIVES = ["X1 + 2*X3 - X5", "X2 - X3/2 + 3*X5", "X4 + X1 + 2*X2 + X3 - X5",
                         "X3 + 2*X5", "X5"]


class TestFiniteTransformations:
    """A symmetry's group element maps each solution pair (u, f = L u) to a
    solution pair: an oracle for flows and generators at finite eps that does
    not use the prolongation."""

    @pytest.mark.parametrize("label", CLASS_REPRESENTATIVES)
    def test_class_representatives_map_solutions_to_solutions(self, pde, label):
        assert _moved_solution_residual(parse_basis_combination(label), U0, pde) is ZERO

    def test_b0_dilation_maps_solutions_to_solutions(self):
        pde_b0 = PDEInstance(substitute(viscoelastic_pde().residual, {b: ZERO}))
        assert _moved_solution_residual(X6, U0, pde_b0) is ZERO
        # f must scale as e^(-4 eps), not e^(-2 eps); and b != 0 breaks X6
        assert _moved_solution_residual(X6, U0, pde_b0, f_rate=-2) is not ZERO
        assert _moved_solution_residual(X6, U0, viscoelastic_pde()) is not ZERO

    @pytest.mark.parametrize("point_map", [{x: y, y: x}, {x: neg(x)}, {x: y, y: neg(x)}],
                             ids=["swap", "reflection", "quarter-turn"])
    def test_discrete_maps_map_solutions_to_solutions(self, pde, point_map):
        # a and b stay symbolic
        assert _moved_by_point_map(pde, U0, point_map) is ZERO

    def test_time_reversal_needs_a_zero(self, pde):
        # t -> -t flips the sign of the a*(u_xxt + u_yyt) term alone
        assert _moved_by_point_map(pde, U0, {t: neg(t)}) is not ZERO
        pde_a0 = PDEInstance(substitute(pde.residual, {a: ZERO}))
        assert _moved_by_point_map(pde_a0, U0, {t: neg(t)}) is ZERO

    def test_wrong_direction_rotation_is_rejected(self, pde):
        v = parse_basis_combination("X4 + X3")
        wrong = flow_map(parse_basis_combination("-X4 + X3")).components
        assert _moved_solution_residual(v, U0, pde, u_map=wrong) is not ZERO

    @settings(max_examples=12, deadline=None)
    @given(coeffs=st.lists(st.sampled_from([-2, -1, 0, Fraction(1, 2), 1, 3]),
                           min_size=5, max_size=5).filter(any),
           monomials=st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                                        st.tuples(*[st.integers(0, 2)] * 3)),
                              min_size=1, max_size=3))
    def test_drawn_combinations_map_solutions_to_solutions(self, pde, coeffs, monomials):
        u0 = add(*[mul(Num(c), pow_(x, i), pow_(y, j), pow_(t, k))
                   for c, (i, j, k) in monomials])
        assert _moved_solution_residual(basis_combination(coeffs), u0, pde) is ZERO


_DELTA = Sym("delta", Kind.PARAMETER, 97)   # second flow parameter of the oracle


def _obeys_composition_law(components):
    """phi_eps after phi_delta equals phi_(eps + delta), symbolically; the
    components are substituted simultaneously, since they mention each
    other's coordinates."""
    inner = dict(zip((x, y, t), (substitute(c, {eps: _DELTA}) for c in components)))
    composed = tuple(substitute(c, inner) for c in components)
    return composed == tuple(substitute(c, {eps: add(eps, _DELTA)}) for c in components)


def _mutant_flow(monkeypatch, mutant, label):
    """The flow of a basis combination, built past the cache, with
    ``mat_exp``'s interpolant faked by the mutant."""
    fake_interpolant(monkeypatch, mutant)
    v = parse_basis_combination(label)
    return flows._flow_map.__wrapped__(v.xi1, v.xi2, v.xi3)


def _raises(message):
    return pytest.raises(ExprError, match=f"^{re.escape(message)}$")


NOT_IDENTITY = "exp(eps*A) is not the identity at eps = 0"
NOT_A_SOLUTION = "exp(eps*A) does not solve m' = A m"


class TestFlowEquation:
    """``mat_exp`` proves the flow exp(eps*M) (x, y, t, 1) by its value at
    eps = 0 and the flow equation d/deps phi = M phi, and M is checked to
    rebuild (xi1, xi2, xi3); the composition law is the oracle."""

    # one representative of each class of the optimal system, off-center
    # rotations included
    @pytest.mark.parametrize("label", CLASS_REPRESENTATIVES)
    def test_composition_law_oracle(self, label):
        assert _obeys_composition_law(flow_map(parse_basis_combination(label)).components)

    def test_wrong_direction_rotation_is_rejected(self, monkeypatch):
        with _raises(NOT_A_SOLUTION):
            _mutant_flow(monkeypatch, lambda r, param: r(neg(param)), "X4 + X3")

    def test_double_speed_translation_is_rejected(self, monkeypatch):
        with _raises(NOT_A_SOLUTION):
            _mutant_flow(monkeypatch, lambda r, param: r(mul(Num(2), param)), "X1")

    def test_identity_at_zero_is_required(self, monkeypatch):
        with _raises(NOT_IDENTITY):
            _mutant_flow(monkeypatch, lambda r, param: r(param) + ((ONE, ((0, 1),), 1),), "X1")

    def test_the_matrix_must_rebuild_the_field(self, monkeypatch):
        # the flow is proven against M, so M read from (xi1, xi2, xi3) must be
        # the field: a reading that drops a term is refused
        real = flows.term_map
        monkeypatch.setattr(flows, "term_map",
                            lambda e: {k: v for k, v in real(e).items() if k != ()})
        with _raises("xi1 is not rebuilt from its affine coefficients"):
            flows._flow_map.__wrapped__(add(x, Num(1)), ZERO, ZERO)
        assert flows._flow_map.__wrapped__(x, ZERO, ZERO) == flow_map(Generator(xi1=x))

    def test_rejected_maps_are_one_parameter_groups(self):
        # the composition law alone cannot tell them from the true flows
        assert _obeys_composition_law((BASE.parse("x*cos(eps) - y*sin(eps)"),
                                       BASE.parse("y*cos(eps) + x*sin(eps)"), t))
        assert _obeys_composition_law((BASE.parse("x + 2*eps"), y, t))


class TestSampling:
    def test_unit_circle(self, basis):
        fm = flow_map(basis[3])
        samples = sample_flow(fm, [(1.0, 0.0, 0.0)], (0.0, 2 * math.pi, 5))
        angles = [(1, 0), (0, -1), (-1, 0), (0, 1), (1, 0)]   # clockwise
        assert len(samples) == 5
        for sample, (cx, cy) in zip(samples, angles):
            assert abs(sample.x - cx) < 1e-12
            assert abs(sample.y - cy) < 1e-12
            assert sample.t == 0.0

    def test_zero_parameter_is_identity(self, basis):
        fm = flow_map(basis[3] + basis[0])
        seeds = [(0.3, -1.2, 0.7), (2.0, 0.0, -1.0)]
        samples = sample_flow(fm, seeds, (0.0, 1.0, 3))
        for seed_id, seed in enumerate(seeds):
            first = [s for s in samples if s.seed_id == seed_id][0]
            assert (first.x, first.y, first.t) == pytest.approx(seed)

    def test_translation_two_points(self, basis):
        fm = flow_map(basis[0])
        samples = sample_flow(fm, [(0.0, 0.0, 0.0)], (0.0, 1.0, 2))
        assert [(s.x, s.y, s.t) for s in samples] == [(0, 0, 0), (1, 0, 0)]

    @pytest.mark.parametrize("project_xy", [False, True])
    def test_rows_match_one_constructor_call_per_row(self, basis, project_xy):
        fm = flow_map(basis[3] + basis[0])
        seeds = [(0.3, -1.2, 0.7), (2.0, 0.0, -1.0), (-0.5, 0.25, 3.0)]
        samples = sample_flow(fm, seeds, (-1.0, 2.5, 7), project_xy=project_xy)
        reference = []
        for seed_id, seed in enumerate(seeds):
            for k in range(7):
                value = -1.0 + 3.5 * k / 6
                px, py, pt = fm.at(seed, value)
                reference.append(FlowSample(seed_id, value, px, py,
                                            None if project_xy else pt))
        assert samples == reference
        assert all(type(sample) is FlowSample for sample in samples)
        assert samples[8].seed_id == 1 and samples[8].x == reference[8].x

    def test_projection_drops_t(self, basis):
        fm = flow_map(basis[3])
        samples = sample_flow(fm, [(1.0, 0.0, 5.0)], (0.0, 1.0, 2),
                              project_xy=True)
        assert all(s.t is None for s in samples)
        csv = samples_to_csv(samples)
        assert csv.splitlines()[0] == "seed_id,eps,x,y"

    def test_csv_column_order(self, basis):
        fm = flow_map(basis[0])
        csv = samples_to_csv(sample_flow(fm, [(0.5, 1.5, 2.5)], (0.0, 1.0, 2)))
        lines = csv.splitlines()
        assert lines[0] == "seed_id,eps,x,y,t"
        assert lines[1] == "0,0.0,0.5,1.5,2.5"
        assert lines[2] == "0,1.0,1.5,1.5,2.5"

    def test_errors(self, basis):
        fm = flow_map(basis[0])
        with pytest.raises(Exception, match="empty seed"):
            sample_flow(fm, [], (0.0, 1.0, 2))
        with pytest.raises(Exception, match="n >= 2"):
            sample_flow(fm, [(0, 0, 0)], (0.0, 1.0, 1))
        with pytest.raises(Exception, match="lo < hi"):
            sample_flow(fm, [(0, 0, 0)], (1.0, 0.0, 4))

    def test_sample_cap(self, basis):
        fm = flow_map(basis[3])
        with pytest.raises(ExprError, match="at most 100000"):
            sample_flow(fm, [(1, 0, 0)], (0.0, 1.0, MAX_EPS_SAMPLES + 1))
        with pytest.raises(ExprError, match="at most"):
            sample_flow(fm, [(1, 0, 0)], (0.0, 1.0, 10 ** 9))

    def test_point_cap(self, basis):
        # 11 seeds x 100000 values is refused before any column is built
        fm = flow_map(basis[3])
        seeds = [(1.0, 0.0, 0.0)] * 11
        tracemalloc.start()
        try:
            with pytest.raises(ExprError, match="at most 1000000 points, got 11 seeds x "
                                                "100000 eps values = 1100000"):
                sample_flow(fm, seeds, (0.0, 1.0, MAX_EPS_SAMPLES))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # the N check comes first, so its message is unchanged
        with pytest.raises(ExprError, match="eps sampling takes at most 100000 values"):
            sample_flow(fm, seeds, (0.0, 1.0, MAX_EPS_SAMPLES + 1))

    def test_point_cap_is_inclusive(self, basis, monkeypatch):
        fm = flow_map(basis[0])
        monkeypatch.setattr(flows, "MAX_FLOW_POINTS", 6)
        assert len(sample_flow(fm, [(0.0, 0.0, 0.0)] * 3, (0.0, 1.0, 2))) == 6
        with pytest.raises(ExprError, match="at most 6 points, got 3 seeds x 3 eps values"):
            sample_flow(fm, [(0.0, 0.0, 0.0)] * 3, (0.0, 1.0, 3))
