import math

import pytest

from cyclineq import (
    InequalityKind,
    NotRefutable,
    evaluate,
    identity_permutation,
    make_permutation,
    nesbitt_classic_instance,
    nesbitt_exponent_instance,
    refute_main,
    refute_main_negative_k,
    refute_main_positive_k,
    refute_nesbitt_exponent,
    refute_shapiro_type,
    shift_permutation,
)

# recomputed with 50-digit arithmetic before pinning
NESBITT_LHS = 2.7482058274815635
NESBITT_RHS = 2.7990989746104222
NESBITT_GAP = -0.05089314712885877


class TestRefuteMainPositive:
    def test_double_shift(self):
        report = refute_main_positive_k(shift_permutation(4, 2), 1.0)
        # overshoot 1, ratio 5, descending geometric vector from x_4 = 2
        assert report.x == (250.0, 50.0, 10.0, 2.0)
        assert report.gap < -1e-9

    def test_transposition_fractional_k(self):
        report = refute_main_positive_k(make_permutation(4, [2, 1, 3, 4]), 2.5)
        # i0 = 2 overshoots by 0.5, so the ratio is 5^2 = 25
        assert report.x[0] == 2.0
        assert report.x[3] / report.x[0] == pytest.approx(25.0)
        assert report.gap < -1e-9

    def test_identity_not_refutable(self):
        with pytest.raises(NotRefutable):
            refute_main_positive_k(identity_permutation(4), 3.0)

    def test_wrong_branch_rejected(self):
        with pytest.raises(ValueError):
            refute_main_positive_k(shift_permutation(4, 2), -1.0)

    def test_k_zero_refutes_non_identity(self):
        report = refute_main_positive_k(shift_permutation(3, 1), 0.0)
        assert report.gap < -1e-9


class TestRefuteMainNegative:
    def test_unit_shift(self):
        report = refute_main_negative_k(shift_permutation(4, 1), -1.0)
        assert report.gap < -1e-9

    def test_transposition(self):
        report = refute_main_negative_k(make_permutation(4, [2, 1, 3, 4]), -2.0)
        assert report.gap < -1e-9

    def test_identity_not_refutable(self):
        with pytest.raises(NotRefutable):
            refute_main_negative_k(identity_permutation(4), -5.0)

    @pytest.mark.parametrize("k", [1.9999, -1.9999])
    def test_tiny_overshoot_exceeds_float_range(self, k):
        # R = 1e-4 would need coordinates near 10^20969
        with pytest.raises(OverflowError, match="overshoot R=0.0001"):
            refute_main(shift_permutation(4, 2), k)

    def test_overshoot_half_at_n96_exceeds_float_range(self):
        with pytest.raises(OverflowError, match="overshoot R=0.5"):
            refute_main(shift_permutation(96, 2), 1.5)

    def test_dispatch(self):
        assert refute_main(shift_permutation(4, 2), 1.0).gap < 0
        assert refute_main(shift_permutation(4, 1), -1.0).gap < 0


class TestReportsAreIndependentlyConfirmed:
    def test_reevaluation_matches(self):
        for report in (
            refute_main(shift_permutation(5, 3), 2.0),
            refute_main(make_permutation(4, [2, 1, 3, 4]), -1.5),
            refute_nesbitt_exponent(),
        ):
            again = evaluate(report.instance, report.x)
            assert again.gap < 0
            assert again.gap == pytest.approx(report.gap, rel=1e-12, abs=1e-12)

    def test_scale_invariance_of_counterexample(self):
        report = refute_main(shift_permutation(4, 2), 1.0)
        for c in (1e-3, 0.37, 42.0, 1e3):
            scaled = evaluate(report.instance, [c * v for v in report.x])
            assert abs(scaled.gap - report.gap) <= 1e-12 * (report.lhs + report.rhs)


class TestRefuteShapiroType:
    def test_three_cycle_k2_all_ones(self):
        report = refute_shapiro_type(make_permutation(3, [2, 3, 1]), 2.0)
        assert report.x == (1.0, 1.0, 1.0)
        assert report.lhs == pytest.approx(0.75)
        assert report.rhs == pytest.approx(1.5)

    def test_identity_n4_k15_all_ones(self):
        report = refute_shapiro_type(identity_permutation(4), 1.5)
        assert report.x == (1.0, 1.0, 1.0, 1.0)
        assert report.gap == pytest.approx(math.sqrt(2) - 2, abs=1e-9)

    def test_three_cycle_small_k_large_coordinate(self):
        report = refute_shapiro_type(make_permutation(3, [2, 3, 1]), 0.5)
        assert report.gap < -1e-9
        assert max(report.x) >= 10 and sorted(report.x)[:2] == [1.0, 1.0]

    def test_three_cycle_k1_is_equality(self):
        with pytest.raises(NotRefutable):
            refute_shapiro_type(make_permutation(3, [2, 3, 1]), 1.0)
        with pytest.raises(NotRefutable):
            refute_shapiro_type(make_permutation(3, [3, 1, 2]), 1.0)

    def test_unit_shift_k1_is_equality(self):
        with pytest.raises(NotRefutable):
            refute_shapiro_type(shift_permutation(5, 1), 1.0)

    def test_constant_rhs_small_k_not_refutable(self):
        for sigma in (identity_permutation(4), make_permutation(4, [2, 1, 4, 3])):
            for k in (0.3, 1.0):
                with pytest.raises(NotRefutable):
                    refute_shapiro_type(sigma, k)

    def test_n2_cases(self):
        swap = make_permutation(2, [2, 1])
        report = refute_shapiro_type(swap, 2.0)
        assert report.gap == pytest.approx(-0.5)
        with pytest.raises(NotRefutable):
            refute_shapiro_type(swap, 1.0)

    def test_vanishing_pair_case(self):
        # sigma(i), sigma^2(i) two apart: a vanishing pair keeps the lhs bounded
        report = refute_shapiro_type(shift_permutation(5, 2), 1.0)
        assert report.gap < -1e-9
        assert min(report.x) < 0.2
        assert report.note is None

    def test_descending_shift_falls_back_to_search(self):
        # every (sigma(i), sigma^2(i)) is adjacent, yet the inequality fails
        report = refute_shapiro_type(shift_permutation(4, 3), 1.0)
        assert report.gap < -1e-9
        assert report.note is not None

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            refute_shapiro_type(identity_permutation(3), -0.5)


def test_exhaustive_refutation_up_to_n6():
    # wherever the classifier says "fails", the closed-form vector proves it
    import itertools

    from cyclineq import holds

    for n in (2, 3, 4, 5, 6):
        for images in itertools.permutations(range(1, n + 1)):
            sigma = make_permutation(n, images)
            for twice_k in range(-2 * n, 2 * n + 1):
                k = twice_k / 2
                if not holds(sigma, k):
                    assert refute_main(sigma, k).gap < -1e-9, (images, k)


class TestRefuteNesbittExponent:
    def test_pinned_values(self):
        report = refute_nesbitt_exponent()
        assert report.x == (1.0, 0.1, 0.1)
        assert report.instance.kind == InequalityKind.NESBITT_EXPONENT
        assert report.lhs == pytest.approx(NESBITT_LHS, abs=1e-9)
        assert report.rhs == pytest.approx(NESBITT_RHS, abs=1e-9)
        assert report.gap == pytest.approx(NESBITT_GAP, abs=1e-9)

    def test_same_vector_at_k1_respects_classic_bound(self):
        report = evaluate(nesbitt_classic_instance(3), [1.0, 0.1, 0.1])
        assert report.lhs == pytest.approx(5 + 2 / 11)
        assert report.gap > 0

    def test_uniform_point_is_equality(self):
        report = evaluate(nesbitt_exponent_instance(3, 0.1), [1.0, 1.0, 1.0])
        assert abs(report.gap) < 1e-12


def test_report_json_shape():
    doc = refute_nesbitt_exponent().to_json_dict()
    assert set(doc) == {"kind", "n", "sigma", "k", "p", "x", "lhs", "rhs", "gap", "note"}
