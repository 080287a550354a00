"""Adjoint matrices, the published-table audit and the optimal system."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from viscosym import adjoint
from viscosym.adjoint import (AdjointMatrix, _entry_evaluator, adjoint_matrices, adjoint_matrix,
                              apply_adjoint, audit_adjoint_table, equivalent, normalize)
from viscosym.expr import (ExprError, Kind, Num, Sym, ZERO, ONE, add, diff_atom, eval_batch,
                           func, mul, neg, pow_, sub, substitute)
from viscosym.linalg import SpectrumError, mat_exp
from viscosym.spaces import f, s, t, u, x, y
from viscosym.vector_fields import Generator, commutator_table, standard_basis

from conftest import fake_interpolant


@pytest.fixture(scope="module")
def matrices():
    return adjoint_matrices()


def _neg_ad(t):
    """-ad(X_t), the A of exp(s*A) = Ad(exp(s*X_t))."""
    return [[-v for v in row] for row in commutator_table().adjoint_action(t)]


def _shared(mats, others):
    """Whether two tuples of Ad matrices hold the very same objects."""
    return len(mats) == len(others) and all(m is o for m, o in zip(mats, others))


def mat_mul_expr(m1, m2):
    """The dense product of two symbolic matrices."""
    return tuple(tuple(add(*[mul(p, q) for p, q in zip(row, col)]) for col in zip(*m2))
                 for row in m1)


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
            return tuple(map(tuple, out))
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
        assert _shared(adjoint_matrices(), adjoint_matrices())
        assert _shared(adjoint_matrices(commutator_table()), adjoint_matrices())
        assert adjoint_matrix(4) is adjoint_matrices()[3]

    def test_sub_basis_has_its_own_algebra(self):
        basis = standard_basis()
        center = commutator_table([basis[2], basis[4]])
        assert center is commutator_table((basis[2], basis[4]))
        assert center is not commutator_table()
        assert center.labels == ("X3", "X5")
        mats = adjoint_matrices(center)
        assert _shared(mats, adjoint_matrices(center))
        assert adjoint_matrix(2, center) is mats[1]
        assert len(mats) == 2
        assert all(m.entries == ((ONE, ZERO), (ZERO, ONE)) for m in mats)

    def test_single_matrix_is_taken_from_the_cache(self, matrices):
        assert adjoint_matrix(4) is matrices[3]
        assert adjoint_matrix(4, commutator_table()) is matrices[3]

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
    """The A of each ``mat_exp`` call that builds an Ad matrix from here on;
    the one cache of Ad matrices starts empty for this test only."""
    built = []
    monkeypatch.setattr(adjoint, "mat_exp", lambda a, param: built.append(a) or mat_exp(a, param))
    monkeypatch.setattr(adjoint, "_adjoint_matrix",
                        functools.lru_cache(maxsize=64)(adjoint._adjoint_matrix.__wrapped__))
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
        assert builds == [_neg_ad(2), _neg_ad(1)]         # the last letter acts first
        normalize((1, 2, 0, 1, 0))
        assert builds == [_neg_ad(2), _neg_ad(1)]
        assert [m.t for m in adjoint_matrices()] == [1, 2, 3, 4, 5]
        assert builds == [_neg_ad(t) for t in (2, 1, 3, 4, 5)]
        assert adjoint_matrix(1) is adjoint_matrices()[0]
        assert len(builds) == 5

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
        assert mat_exp(_neg_ad(t), s) == _reference_exp_series(_neg_ad(t), s)

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
        # mat_exp has proven m(0) = I and m' = A m; the slope at 0 is A
        m = mat_exp(a, s)
        assert [[substitute(diff_atom(e, s), {s: ZERO}) for e in row] for row in m] == \
            [[Num(v) for v in row] for row in a]


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


# The mutants of exp(s*A), made by faking the interpolant r(param), the
# parts (f, weights, den) that mat_exp sums
def _reversed(r, param):                 # exp(-s*A)
    return r(neg(param))


def _double_speed(r, param):             # exp(2s*A)
    return r(mul(Num(2), param))


def _plus_one(r, param):                 # exp(s*A) + I: 2I at s = 0
    return r(param) + ((ONE, ((0, 1),), 1),)


def _times_exp(r, param):                # e^s exp(s*A), so m' = (A + I) m
    return tuple((mul(func("exp", param), fn), weights, den) for fn, weights, den in r(param))


NOT_IDENTITY = "exp(s*A) is not the identity at s = 0"
NOT_A_SOLUTION = "exp(s*A) does not solve m' = A m"


def _rejected(monkeypatch, mutant, a, message):
    """mat_exp with the interpolant faked by the mutant raises exactly this
    message for exp(s*A), the matrix, and for exp(s*A) v, a vector."""
    fake_interpolant(monkeypatch, mutant)
    for vec in (None, (x, y, t, u, f)[:len(a)]):
        with pytest.raises(ExprError) as caught:
            mat_exp(a, s, vec)
        assert str(caught.value) == message


def _obeys_group_law(entries):
    """m(s) m(s2) = m(s + s2), symbolically."""
    shifted = [[substitute(e, {s: add(s, _S2)}) for e in row] for row in entries]
    second = [[substitute(e, {s: _S2}) for e in row] for row in entries]
    return tuple(map(tuple, shifted)) == mat_mul_expr(entries, second)


class TestGeneratingODE:
    """``mat_exp`` proves m(0) = I and m' = A m for the A it was given, in
    matrix and vector form, so only exp(s*A) passes; Ad matrices pass it
    with A = -ad(X_t).  The group law is the oracle."""

    @pytest.mark.parametrize("t", range(1, 6))
    def test_group_law_oracle(self, matrices, t):
        assert _obeys_group_law(matrices[t - 1].entries)

    def test_reversed_parameter_is_rejected(self, monkeypatch):
        # m(-s) = exp(s * ad) is a one-parameter group with m(0) = I, so only
        # the slope test against -ad(X_4) tells it apart
        _rejected(monkeypatch, _reversed, _neg_ad(4), NOT_A_SOLUTION)

    def test_not_identity_at_zero(self, monkeypatch):
        _rejected(monkeypatch, _plus_one, _neg_ad(4), NOT_IDENTITY)

    def test_wrong_speed_is_rejected(self, monkeypatch):
        # cos(2s), sin(2s) is the identity at 0, and a one-parameter group
        _rejected(monkeypatch, _double_speed, _neg_ad(4), NOT_A_SOLUTION)
        _rejected(monkeypatch, _double_speed, _neg_ad(1), NOT_A_SOLUTION)

    def test_not_unimodular(self, monkeypatch):
        # e^s Ad(exp(s X4)) is the identity at 0 and a one-parameter group,
        # generated by I - ad(X_4), with det m(s) = e^(5s)
        _rejected(monkeypatch, _times_exp, _neg_ad(4), NOT_A_SOLUTION)

    def test_the_mutants_obey_the_group_law(self, matrices):
        # so the group law alone cannot tell them from exp(s*A)
        m4 = matrices[3].entries
        for speed in (neg(s), mul(Num(2), s)):
            assert _obeys_group_law([[substitute(e, {s: speed}) for e in row] for row in m4])

    def test_a_faithful_fake_passes(self, matrices, monkeypatch):
        # the faking itself raises nothing
        fake_interpolant(monkeypatch, lambda r, param: r(param))
        assert mat_exp(_neg_ad(4), s) == matrices[3].entries


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
