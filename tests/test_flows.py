"""One-parameter flows: closed forms, group law, sampling."""

import math

import numpy as np
import pytest

from viscosym.expr import (ExprError, Kind, Sym, ZERO, add, eval_numeric, pow_, rebuild,
                           sub, substitute)
from viscosym.flows import (MAX_EPS_SAMPLES, FlowMap, FlowSample, NonAffineError, flow_map,
                            sample_flow, samples_to_csv)
from viscosym.spaces import base_space, eps, t, x, y
from viscosym.vector_fields import Generator, parse_basis_combination, standard_basis

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
        with pytest.raises(NonAffineError):
            flow_map(Generator(xi1=BASE.parse("x^2")))
        with pytest.raises(NonAffineError, match="unsupported linear"):
            flow_map(Generator(xi1=BASE.parse("x")))   # pure scaling not in catalog

    def test_shear_is_nilpotent_but_unsupported(self):
        # y d/dx alone is affine yet outside the rotation/translation catalog
        with pytest.raises(NonAffineError):
            flow_map(Generator(xi1=y))


_DELTA = Sym("delta", Kind.PARAMETER, 97)   # second flow parameter of the oracle


def _obeys_composition_law(components):
    """phi_eps after phi_delta equals phi_(eps + delta), symbolically; the
    components are substituted simultaneously, since they mention each
    other's coordinates."""
    inner = dict(zip((x, y, t), (substitute(c, {eps: _DELTA}) for c in components)))
    composed = tuple(rebuild(c, inner.get) for c in components)
    return composed == tuple(substitute(c, {eps: add(eps, _DELTA)}) for c in components)


class TestFlowEquation:
    """Construction checks the identity at eps = 0 and the flow equation
    d/deps phi = xi(phi); the composition law is the oracle."""

    # one representative of each class of the optimal system, off-center
    # rotations included
    @pytest.mark.parametrize("label", ["X1 + 2*X3 - X5", "X2 - X3/2 + 3*X5",
                                       "X4 + X1 + 2*X2 + X3 - X5", "X3 + 2*X5", "X5"])
    def test_composition_law_oracle(self, label):
        assert _obeys_composition_law(flow_map(parse_basis_combination(label)).components)

    def test_wrong_direction_rotation_is_rejected(self, basis):
        with pytest.raises(ExprError, match="flow equation"):
            FlowMap(basis[3], BASE.parse("x*cos(eps) - y*sin(eps)"),
                    BASE.parse("y*cos(eps) + x*sin(eps)"), t)

    def test_double_speed_translation_is_rejected(self, basis):
        with pytest.raises(ExprError, match="flow equation"):
            FlowMap(basis[0], BASE.parse("x + 2*eps"), y, t)

    def test_identity_at_zero_is_required(self, basis):
        with pytest.raises(ExprError, match="identity at eps = 0"):
            FlowMap(basis[0], BASE.parse("x + eps + 1"), y, t)

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
