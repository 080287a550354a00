"""One-parameter flows: closed forms, group law, sampling."""

import math

import numpy as np
import pytest

from viscosym.expr import ExprError, ZERO, add, eval_numeric, pow_, sub, substitute
from viscosym.flows import (MAX_EPS_SAMPLES, FlowSample, NonAffineError, flow_map,
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
