"""Adjoint matrices, the published-table audit and the optimal system."""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from viscosym import adjoint
from viscosym.adjoint import (AdjointMatrix, _entry_evaluator, adjoint_matrices, adjoint_matrix,
                              apply_adjoint, audit_adjoint_table, equivalent, normalize)
from viscosym.expr import (ExprError, Kind, Num, Sym, ZERO, ONE, add, diff_atom, eval_batch,
                           func, mul, neg, pow_, sub, substitute)
from viscosym.linalg import SpectrumError, expr_matrix, mat_exp, mat_mul_expr
from viscosym.spaces import f, s, t, x, y
from viscosym.vector_fields import Generator, commutator_table, standard_basis


@pytest.fixture(scope="module")
def matrices():
    return adjoint_matrices()


def mat_mul_rat(m1, m2):
    """The dense product of two rational matrices."""
    return [[sum((p * q for p, q in zip(row, col)), Fraction(0)) for col in zip(*m2)]
            for row in m1]


def _reference_exp_series(a, param):
    """The adjoint series summed term by term, as it was before the exact
    matrix exponential: up to 12 terms, then the rotation test."""
    n = len(a)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [[Num(Fraction(int(i == j))) for j in range(n)] for i in range(n)]
    factorial = 1
    for k in range(1, 13):
        power = mat_mul_rat(power, a)
        if all(v == 0 for row in power for v in row):
            return expr_matrix(out)
        factorial *= k
        coeff = pow_(param, Fraction(k))
        for i in range(n):
            for j in range(n):
                if power[i][j] != 0:
                    out[i][j] = add(out[i][j],
                                    mul(Num(power[i][j] / factorial), coeff))
    a2 = mat_mul_rat(a, a)
    a3 = mat_mul_rat(a2, a)
    lam = None
    for i in range(n):
        for j in range(n):
            if a[i][j] != 0:
                lam = a3[i][j] / a[i][j]
                break
        if lam is not None:
            break
    if lam is not None and lam < 0:
        scaled = [[v * lam for v in row] for row in a]
        if a3 == scaled:
            omega = pow_(Num(-lam), Fraction(1, 2))
            if isinstance(omega, Num):
                sin_c = mul(func("sin", mul(omega, param)), Num(Fraction(1) / omega.value))
                cos_c = mul(sub(ONE, func("cos", mul(omega, param))),
                            Num(Fraction(1) / omega.value ** 2))
                return tuple(
                    tuple(add(Num(Fraction(int(i == j))), mul(sin_c, Num(a[i][j])),
                              mul(cos_c, Num(a2[i][j])))
                          for j in range(n))
                    for i in range(n))
    raise ValueError("reference series failed")


def _rat(rows):
    return [[Fraction(v) for v in row] for row in rows]


class TestCache:
    def test_default_algebra_is_built_once(self):
        assert commutator_table() is commutator_table()
        assert commutator_table(list(standard_basis())) is commutator_table()
        assert adjoint_matrices() is adjoint_matrices()
        assert adjoint_matrices(commutator_table()) is adjoint_matrices()

    def test_sub_basis_has_its_own_algebra(self):
        basis = standard_basis()
        center = commutator_table([basis[2], basis[4]])
        assert center is commutator_table((basis[2], basis[4]))
        assert center is not commutator_table()
        assert center.labels == ("X3", "X5")
        mats = adjoint_matrices(center)
        assert mats is adjoint_matrices(center)
        assert len(mats) == 2
        assert all(m.entries == ((ONE, ZERO), (ZERO, ONE)) for m in mats)

    def test_single_matrix_is_not_taken_from_the_cache(self, matrices):
        m4 = adjoint_matrix(4)
        assert m4 is not matrices[3]
        assert m4.entries == matrices[3].entries

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.7, -1.3, math.pi / 2, 123.456, 1e300,
                                       5e-324])
    def test_at_is_eval_batch_per_entry(self, matrices, value):
        for m in matrices + (adjoint_matrix(4),):
            got = m.at(value)
            for row, entries in zip(got, m.entries):
                want = [eval_batch([e], {s: [value]})[0][0] for e in entries]
                assert [math.copysign(1, v) for v in row] == \
                    [math.copysign(1, v) for v in want]
                assert row == want

    def test_at_builds_one_evaluator_per_matrix(self, matrices):
        m4 = adjoint_matrix(4)
        assert _entry_evaluator(m4.entries) is _entry_evaluator(matrices[3].entries)
        assert m4.at(0.5) == matrices[3].at(0.5)


@pytest.fixture
def builds(monkeypatch):
    """The t of each Ad matrix built from here on; the per-generator and
    per-algebra caches start empty for this test only."""
    built = []
    real = adjoint.adjoint_matrix

    def counting(t, constants=None):
        built.append(t)
        return real(t, constants)

    monkeypatch.setattr(adjoint, "adjoint_matrix", counting)
    for name in ("_shared_matrix", "_adjoint_matrices"):
        monkeypatch.setattr(adjoint, name, functools.lru_cache(getattr(adjoint, name).__wrapped__))
    return built


class TestLazyBuild:
    """``apply_adjoint`` builds only the Ad matrices its word names, once
    each, and ``adjoint_matrices`` hands out those very objects."""

    @pytest.mark.parametrize("v", [(0, 0, 0, 0, 2), (2, 0, 1, 0, -1), (0, 0, 3, 0, 1)],
                             ids=["4b", "1", "4"])
    def test_an_empty_word_builds_no_matrix(self, builds, v):
        assert normalize(v).word == ()
        assert builds == []

    def test_class_3_builds_x1_and_x2_only(self, builds):
        assert [t for t, _ in normalize((3, -1, -2, -3, 0)).word] == [1, 2]
        assert sorted(builds) == [1, 2]
        normalize((1, 2, 0, 1, 0))
        assert sorted(builds) == [1, 2]
        assert [m.t for m in adjoint_matrices()] == [1, 2, 3, 4, 5]
        assert sorted(builds) == [1, 2, 3, 4, 5]

    def test_the_matrices_apply_adjoint_used_are_the_shared_ones(self, monkeypatch):
        used = []
        at = AdjointMatrix.at
        monkeypatch.setattr(AdjointMatrix, "at", lambda m, value: used.append(m) or at(m, value))
        normalize((3, -1, -2, -3, 0))
        normalize((1, 2, 0, 0, 0))
        mats = adjoint_matrices()
        assert [m.t for m in used] == [2, 1, 4]       # the last letter acts first
        assert used[0] is mats[1] and used[1] is mats[0] and used[2] is mats[3]


class TestExpSeries:
    @pytest.mark.parametrize("t", range(1, 6))
    def test_ad_matrices_match_reference(self, t):
        neg_ad = [[-v for v in row] for row in commutator_table().adjoint_action(t)]
        assert mat_exp(neg_ad, s) == _reference_exp_series(neg_ad, s)

    @pytest.mark.parametrize("a", [
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],   # A^3 != 0, A^4 = 0
        [[0]],
        [[0, -1], [1, 0]],
        [[0, -3], [3, 0]],
    ], ids=["jordan4", "zero1", "rotation2", "rotation2-w3"])
    def test_small_matrices_match_reference(self, a):
        a = _rat(a)
        assert mat_exp(a, s) == _reference_exp_series(a, s)

    @pytest.mark.parametrize("a", [
        [[1, 1], [0, 1]],                                           # e^s (1 + s N)
        [[Fraction(1, 2), 0], [0, Fraction(-1, 3)]],
        [[0, 1, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 1], [0, 0, -1, 0]],  # +-i, each twice
        [[Fraction(-1, 2), Fraction(1, 2), Fraction(5, 2)], [-3, 0, 3],
         [Fraction(-1, 2), Fraction(-5, 2), Fraction(5, 2)]],        # 2 and +-3i, conjugated
        [[Fraction(1, 3), 2, 0], [0, Fraction(1, 3), 0], [0, 0, -5]],
    ], ids=["jordan-at-1", "rational-diagonal", "rotation-jordan", "mixed", "mixed-rational"])
    def test_general_spectra_solve_the_generating_ode(self, a):
        # m(0) = I and m' = A m: the checks every AdjointMatrix passes
        m = mat_exp(a, s)
        AdjointMatrix(0, m, tuple(f"X{i}" for i in range(len(a))))
        assert [[substitute(diff_atom(e, s), {s: ZERO}) for e in row] for row in m] == \
            [[Num(v) for v in row] for row in a]


class TestMatrixProducts:
    """The product skips zero entries; dense triple loops are the reference."""

    def test_sparse_products_match_dense_loops(self):
        rng = random.Random(7)
        pool = [0, 0, 0, 1, -1, Fraction(3, 2)]
        for n, k, p in [(1, 1, 1), (2, 3, 4), (5, 5, 5), (4, 2, 3)]:
            a = [[Fraction(rng.choice(pool)) for _ in range(k)] for _ in range(n)]
            b = [[Fraction(rng.choice(pool)) for _ in range(p)] for _ in range(k)]
            ea = expr_matrix([[mul(Num(v), func("sin", s)) for v in row] for row in a])
            eb = expr_matrix([[add(Num(v), s) if v else ZERO for v in row] for row in b])
            assert mat_mul_expr(ea, eb) == tuple(
                tuple(add(*[mul(ea[i][j], eb[j][c]) for j in range(k)]) for c in range(p))
                for i in range(n))


class TestMatrices:
    def test_rotation_block(self, matrices):
        m4 = matrices[3].entries
        assert m4[0][0] == func("cos", s)
        assert m4[0][1] == func("sin", s)
        assert m4[1][0] == mul(Num(Fraction(-1)), func("sin", s))
        assert m4[1][1] == func("cos", s)
        for i in range(2, 5):
            for j in range(5):
                assert m4[i][j] == (ONE if i == j else ZERO)

    def test_central_elements_are_identity(self, matrices):
        for index in (2, 4):   # X3 and X5
            for i in range(5):
                for j in range(5):
                    assert matrices[index].entries[i][j] == (ONE if i == j else ZERO)

    def test_translation_matrices_nilpotent(self, matrices):
        m1 = matrices[0].entries
        assert m1[1][3] == s            # Ad(exp(s X1)) X4 = X4 + s X2
        m2 = matrices[1].entries
        assert m2[0][3] == mul(Num(Fraction(-1)), s)   # X4 - s X1
        for m in (m1, m2):
            others = [(i, j) for i in range(5) for j in range(5)
                      if (i, j) not in ((1, 3), (0, 3))]
            for i, j in others:
                assert m[i][j] == (ONE if i == j else ZERO)

    def test_derivative_at_zero_is_minus_ad(self, matrices):
        constants = commutator_table()
        for m in matrices:
            ad = constants.adjoint_action(m.t)
            for i in range(5):
                for j in range(5):
                    slope = substitute(diff_atom(m.entries[i][j], s), {s: ZERO})
                    assert slope == Num(-ad[i][j])

    def test_rotation_block_is_orthogonal(self, matrices):
        # M4^T * M4 = I as a symbolic identity (sin^2 + cos^2 rewrite)
        m4 = matrices[3].entries
        for i in range(5):
            for j in range(5):
                dot = ZERO
                for k in range(5):
                    dot = dot + mul(m4[k][i], m4[k][j])
                assert dot == (ONE if i == j else ZERO)

    def test_boost_has_its_closed_form(self):
        # eigenvalues +-1: cosh(s) and sinh(s), as exponentials
        boost = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        cosh = mul(Num(Fraction(1, 2)), add(func("exp", s), func("exp", neg(s))))
        sinh = mul(Num(Fraction(1, 2)), sub(func("exp", s), func("exp", neg(s))))
        assert mat_exp(boost, s) == ((cosh, sinh), (sinh, cosh))

    @pytest.mark.parametrize("a", [[[1, 1], [-1, 1]], [[0, 2], [1, 0]], [[0, 1], [1, 1]]],
                             ids=["1+-i", "+-sqrt2", "golden-ratio"])
    def test_spectrum_outside_the_form_is_rejected(self, a):
        with pytest.raises(SpectrumError, match="rational"):
            mat_exp(a, s)

    def test_root_search_is_bounded(self):
        # eigenvalues +-(10^6 + 1): beyond the search, refused without a long loop
        with pytest.raises(SpectrumError, match="at most 1000000"):
            mat_exp([[0, 10 ** 6 + 1], [10 ** 6 + 1, 0]], s)

    def test_b0_dilation_ad_matrix(self):
        # X6 = x dx + y dy + 2t dt - 4f df, a symmetry when b = 0: ad X6 is
        # diag(-1, -1, -2, 0, 0, 0), whose trace is not 0
        x6 = Generator(xi1=x, xi2=y, xi3=mul(Num(2), t), phi2=mul(Num(-4), f), label="X6")
        constants = commutator_table(standard_basis() + (x6,))
        m6 = adjoint_matrix(6, constants)
        diagonal = [func("exp", s), func("exp", s), func("exp", mul(Num(2), s)), ONE, ONE, ONE]
        assert m6.entries == tuple(tuple(diagonal[i] if i == j else ZERO for j in range(6))
                                   for i in range(6))
        # the other five build and pass their checks in the larger algebra too
        assert [m.t for m in adjoint_matrices(constants)] == [1, 2, 3, 4, 5, 6]

    def test_bad_index(self):
        with pytest.raises(Exception, match="out of range"):
            adjoint_matrix(6)


_S2 = Sym("s2", Kind.PARAMETER, 99)   # second group parameter of the oracle


class TestGeneratingODE:
    """Construction checks m(0) = I and m' = m'(0) m; ``adjoint_matrix``
    also checks m'(0) = -ad(X_t).  The group law is the oracle."""

    @pytest.mark.parametrize("t", range(1, 6))
    def test_group_law_oracle(self, matrices, t):
        entries = matrices[t - 1].entries
        shifted = [[substitute(e, {s: add(s, _S2)}) for e in row] for row in entries]
        second = [[substitute(e, {s: _S2}) for e in row] for row in entries]
        assert expr_matrix(shifted) == mat_mul_expr(entries, expr_matrix(second))

    def test_reversed_parameter_is_rejected(self, monkeypatch):
        # m(-s) = exp(s * ad) is a one-parameter group with m(0) = I, so only
        # the slope test against -ad(X_4) tells it apart
        monkeypatch.setattr(adjoint, "mat_exp", lambda a, param: mat_exp(a, neg(param)))
        reversed_entries = adjoint.mat_exp(
            [[-v for v in row] for row in commutator_table().adjoint_action(4)], s)
        AdjointMatrix(4, reversed_entries, commutator_table().labels)   # its own ODE holds
        with pytest.raises(ExprError, match="not generated by -ad"):
            adjoint_matrix(4)

    def test_not_identity_at_zero(self, matrices):
        entries = matrices[3].entries
        bumped = ((add(entries[0][0], ONE),) + entries[0][1:],) + entries[1:]
        with pytest.raises(ExprError, match="identity at s=0"):
            AdjointMatrix(4, bumped, matrices[3].labels)

    def test_non_rational_slope(self, matrices):
        entries = matrices[3].entries
        bent = ((add(ONE, mul(x, s)),) + entries[0][1:],) + entries[1:]
        with pytest.raises(ExprError, match="non-rational slope"):
            AdjointMatrix(4, bent, matrices[3].labels)

    def test_wrong_speed_is_rejected(self, matrices):
        # cos(2s), sin(2s) is the identity at 0 with a rational slope, but
        # solves m' = m'(0) m only together with the matching entries
        entries = [list(row) for row in matrices[3].entries]
        entries[0][0] = func("cos", mul(Num(2), s))
        entries[0][1] = func("sin", mul(Num(2), s))
        with pytest.raises(ExprError, match="does not solve"):
            AdjointMatrix(4, expr_matrix(entries), matrices[3].labels)

    def test_not_unimodular(self, matrices, monkeypatch):
        # exp(s) in the X5 diagonal is the identity at 0 and solves
        # m' = m'(0) m, so it is an Ad matrix of something (det m(s) = e^s);
        # only the slope test against -ad(X_4) tells it from Ad(X4)
        entries = [list(row) for row in matrices[3].entries]
        entries[4][4] = func("exp", s)
        bent = expr_matrix(entries)
        AdjointMatrix(4, bent, matrices[3].labels)
        monkeypatch.setattr(adjoint, "mat_exp", lambda a, param: bent)
        with pytest.raises(ExprError, match="not generated by -ad"):
            adjoint_matrix(4)


class TestAudit:
    def test_exact_mismatch_set(self):
        audit = audit_adjoint_table()
        mismatched = {(cell.t, cell.r) for cell in audit if not cell.match}
        assert mismatched == {(1, 2), (1, 4), (2, 1), (2, 4)}

    def test_rotation_row_matches(self):
        audit = {(cell.t, cell.r): cell for cell in audit_adjoint_table()}
        assert audit[(4, 1)].match
        assert audit[(4, 1)].expected_from_series == "cos(s)*X1 - sin(s)*X2"
        assert audit[(4, 2)].expected_from_series == "sin(s)*X1 + cos(s)*X2"

    def test_table_rendering(self):
        audit = {(cell.t, cell.r): cell.expected_from_series for cell in audit_adjoint_table()}
        assert [audit[(3, r)] for r in range(1, 6)] == ["X1", "X2", "X3", "X4", "X5"]
        assert audit[(1, 4)] == "s*X2 + X4"


class TestApplyAdjoint:
    def test_quarter_turn(self):
        moved = apply_adjoint([(4, math.pi / 2)], (1, 0, 0, 0, 0))
        assert np.allclose(moved, (0, -1, 0, 0, 0), atol=1e-12)

    def test_empty_word_is_identity(self):
        v = (1.0, 2.0, 3.0, 4.0, 5.0)
        assert apply_adjoint([], v) == v

    def test_inverse_word(self):
        v = (1.0, -2.0, 0.5, 3.0, 4.0)
        moved = apply_adjoint([(1, 0.7), (1, -0.7)], v)
        assert np.allclose(moved, v, atol=1e-12)

    def test_word_is_left_to_right_matrix_product(self):
        # [(4, pi/2), (1, 1.0)] means M4(pi/2) @ M1(1.0) @ v
        v = (0.0, 0.0, 0.0, 1.0, 0.0)
        step = apply_adjoint([(1, 1.0)], v)   # X4 + X2
        expected = apply_adjoint([(4, math.pi / 2)], step)
        combined = apply_adjoint([(4, math.pi / 2), (1, 1.0)], v)
        assert np.allclose(combined, expected, atol=1e-12)

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(Exception, match="finite"):
            apply_adjoint([(1, math.inf)], (1, 0, 0, 0, 0))

    @pytest.mark.parametrize("t", [0, -4, 6])
    def test_basis_index_out_of_range(self, t):
        # an index <= 0 must not wrap around to the end of the basis
        with pytest.raises(ExprError, match=f"basis index {t} out of range 1..5"):
            apply_adjoint([(1, 0.5), (t, 0.5)], (1, 0, 0, 0, 0))

    @pytest.mark.parametrize("t", [2.5, 2.0, "2", True, False, Fraction(2), None])
    def test_basis_index_must_be_an_int(self, t):
        # True would otherwise act as X1, and 2.0 would fail as a bare TypeError
        with pytest.raises(ExprError, match="basis index must be an int"):
            apply_adjoint([(1, 0.5), (t, 0.5)], (1, 0, 0, 0, 0))
        with pytest.raises(ExprError, match="basis index must be an int"):
            adjoint_matrix(t)

    @pytest.mark.parametrize("v", [(1, 2, 3), (1, 2, 3, 4, 5, 6), ()])
    def test_vector_length_must_be_dim(self, v):
        with pytest.raises(ExprError, match="5 components"):
            apply_adjoint([], v)


class TestNormalize:
    def test_rotation_class_representative(self):
        result = normalize((0, 0, 2, 1, 3))
        assert result.cls.class_id == 3
        assert result.word == ()
        assert result.cls.c1 == pytest.approx(2.0)
        assert result.cls.c2 == pytest.approx(3.0)

    def test_plane_rotation_case(self):
        result = normalize((3, 4, 0, 0, 0))
        assert result.cls.class_id == 2
        assert result.word == ((4, -math.atan2(3, 4)),)
        assert result.scale == pytest.approx(1 / 5)
        assert result.cls.representative == pytest.approx((0, 1, 0, 0, 0))

    def test_center_class(self):
        result = normalize((0, 0, 7, 0, 2))
        assert result.cls.class_id == 4 and result.cls.label == "4"
        assert result.cls.c1 == pytest.approx(2 / 7)

    def test_scaling_only_subcase(self):
        result = normalize((0, 0, 0, 0, -4))
        assert result.cls.label == "4b"
        assert result.cls.representative == (0, 0, 0, 0, 1)

    def test_rotation_beats_translations(self):
        result = normalize((1, 1, 0, 1, 0))
        assert result.cls.class_id == 3
        moved = apply_adjoint(result.word, (1, 1, 0, 1, 0))
        rep = tuple(result.scale * c for c in moved)
        assert np.allclose(rep, result.cls.representative, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(Exception, match="zero"):
            normalize((0, 0, 0, 0, 0))

    @pytest.mark.parametrize("v", [(0, 0, 1, 1e-310, 0),     # 1/a4 overflows: c1 inf, c2 nan
                                   (0, 1e-200, 0, 0, 1e200)])  # a5/a2 overflows
    def test_non_finite_result_is_an_overflow(self, v):
        with pytest.raises(ExprError, match="numeric overflow"):
            normalize(v)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = tuple(rng.uniform(-2, 2, size=5))
            result = normalize(v)
            again = normalize(result.cls.representative)
            assert again.word == ()
            assert again.cls.label == result.cls.label
            assert np.allclose(again.cls.representative, result.cls.representative,
                               atol=1e-12)


class TestEquivalence:
    def test_scalar_multiples(self):
        assert equivalent((1, 2, 0, 3, 4), (2, 4, 0, 6, 8))
        assert equivalent((1, 2, 0, 3, 4), (-1, -2, 0, -3, -4))

    def test_rotation_family_merges_classes_1_and_2(self):
        assert equivalent((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
        assert equivalent((1, 0, 2, 0, 1), (0, 1, 2, 0, 1))

    def test_distinct_classes(self):
        assert not equivalent((1, 0, 0, 0, 0), (0, 0, 1, 0, 0))
        assert not equivalent((0, 0, 1, 1, 0), (0, 0, 2, 1, 0))
        assert not equivalent((0, 0, 1, 0, 0), (0, 0, 0, 0, 1))

    def test_zero_vector_rejected(self):
        with pytest.raises(Exception, match="zero"):
            equivalent((0, 0, 0, 0, 0), (1, 0, 0, 0, 0))

    def test_orbit_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            v = tuple(rng.uniform(-2, 2, size=5))
            word = [(int(rng.integers(1, 6)), float(rng.uniform(-2, 2)))
                    for _ in range(3)]
            scale = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
            moved = tuple(scale * c for c in apply_adjoint(word, v))
            assert equivalent(v, moved, tol=1e-7)
