import numpy as np
import pytest

from cyclineq import (
    BudgetExceeded,
    DimensionMismatch,
    InequalityInstance,
    InequalityKind,
    NonPositiveInput,
    SearchConfig,
    evaluate,
    exponent_monotonicity_check,
    gap_and_gradient,
    grid_oracle,
    identity_permutation,
    main_instance,
    make_permutation,
    minimize_gap,
    nesbitt_classic_instance,
    nesbitt_exponent_instance,
    shapiro_exponent_instance,
    shapiro_type_instance,
    shift_instance,
    shift_permutation,
    sweep_exponent,
)


class TestEvaluate:
    def test_identity_k0(self):
        report = evaluate(main_instance(identity_permutation(3), 0.0), [3, 1, 4])
        assert report.lhs == pytest.approx(3.0)
        assert report.rhs == pytest.approx(3.0)
        assert report.gap == pytest.approx(0.0, abs=1e-15)

    def test_shapiro_rhs_is_one_for_n2(self):
        for images in ([1, 2], [2, 1]):
            inst = shapiro_type_instance(make_permutation(2, images), 1.7)
            report = evaluate(inst, [0.3, 2.4])
            assert report.rhs == pytest.approx(1.0)

    def test_shapiro_exponent_equality_at_uniform(self):
        report = evaluate(shapiro_exponent_instance(3, 1.0), [1, 1, 1])
        assert report.lhs == pytest.approx(1.5)
        assert report.gap == pytest.approx(0.0, abs=1e-15)

    def test_cyclic_shift_matches_main(self):
        x = [0.7, 1.4, 0.2, 3.0, 1.1]
        a = evaluate(shift_instance(5, 3, 1.5), x)
        b = evaluate(main_instance(shift_permutation(5, 2), 1.5), x)
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_nesbitt_kinds(self):
        rep = evaluate(nesbitt_classic_instance(4), [1, 2, 3, 4])
        assert rep.rhs == pytest.approx(4 / 3)
        rep = evaluate(nesbitt_exponent_instance(4, 0.5), [1, 1, 1, 1])
        assert rep.lhs == pytest.approx(4 / 3 ** 0.5)
        assert rep.rhs == pytest.approx(4 / 3 ** 0.5)

    def test_rejects_nonpositive(self):
        inst = main_instance(identity_permutation(3), 1.0)
        with pytest.raises(NonPositiveInput):
            evaluate(inst, [1.0, -2.0, 1.0])
        with pytest.raises(NonPositiveInput):
            evaluate(inst, [1.0, 0.0, 1.0])
        with pytest.raises(NonPositiveInput):
            evaluate(inst, [1.0, float("nan"), 1.0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            evaluate(main_instance(identity_permutation(3), 1.0), [1.0, 2.0])


class TestInstanceValidation:
    def test_missing_sigma(self):
        with pytest.raises(DimensionMismatch):
            InequalityInstance(InequalityKind.MAIN_EXPONENT, 3, k=1.0)

    def test_sigma_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            InequalityInstance(InequalityKind.MAIN_EXPONENT, 4,
                               sigma=identity_permutation(3), k=1.0)

    def test_missing_k(self):
        with pytest.raises(DimensionMismatch):
            InequalityInstance(InequalityKind.SHAPIRO_EXPONENT, 3)

    def test_nonfinite_k(self):
        with pytest.raises(DimensionMismatch):
            shapiro_exponent_instance(3, float("inf"))


class TestMinimizeGap:
    def test_identity_equality_case(self):
        report = minimize_gap(main_instance(identity_permutation(3), 1.0),
                              SearchConfig(restarts=8, seed=0))
        assert abs(report.gap) <= 1e-9

    def test_shapiro_holds_in_dimension_three(self):
        report = minimize_gap(shapiro_exponent_instance(3, 1.0),
                              SearchConfig(restarts=16, seed=0))
        assert report.gap >= -1e-9
        assert report.gap <= 1e-6

    def test_n2_exponent_two_minimum(self):
        report = minimize_gap(
            shapiro_type_instance(make_permutation(2, [2, 1]), 2.0),
            SearchConfig(restarts=16, seed=0),
        )
        assert report.gap == pytest.approx(-0.5, abs=1e-9)

    def test_finds_violation_when_classifier_rejects(self):
        report = minimize_gap(main_instance(shift_permutation(4, 2), 1.0),
                              SearchConfig(restarts=16, seed=0))
        assert report.gap < -1e-9

    def test_deterministic(self):
        inst = shapiro_type_instance(make_permutation(4, [2, 1, 4, 3]), 0.8)
        config = SearchConfig(restarts=12, seed=7)
        assert minimize_gap(inst, config) == minimize_gap(inst, config)

    def test_trace_collects_iterates(self):
        rows = []
        minimize_gap(main_instance(identity_permutation(3), 1.0),
                     SearchConfig(restarts=3, max_iters=12, seed=0), trace=rows)
        assert rows and {r[0] for r in rows} == {0, 1, 2}
        restart, iteration, gap, step = rows[0]
        assert iteration == 0 and np.isfinite(gap) and step > 0


class TestGridOracle:
    def test_unit_shift_attains_zero_on_diagonal(self):
        config = SearchConfig(grid_points_per_dim=21)
        report = grid_oracle(main_instance(shift_permutation(3, 1), 1.0), config)
        assert report.gap >= -1e-12
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_double_shift_violated(self):
        report = grid_oracle(main_instance(shift_permutation(4, 2), 1.0))
        assert report.gap < 0

    def test_nesbitt_exponent_violation_near_corner(self):
        report = grid_oracle(nesbitt_exponent_instance(3, 0.1))
        assert report.gap < 0

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            grid_oracle(shapiro_exponent_instance(12, 1.0),
                        SearchConfig(grid_points_per_dim=21))

    def test_minimize_never_worse_than_grid(self):
        for inst in (
            main_instance(shift_permutation(3, 1), 1.0),
            shapiro_exponent_instance(3, 0.9),
            nesbitt_exponent_instance(3, 0.4),
        ):
            grid = grid_oracle(inst, SearchConfig(grid_points_per_dim=9))
            local = minimize_gap(inst, SearchConfig(restarts=16, seed=0))
            assert local.gap <= grid.gap + 1e-12


class TestGradient:
    @pytest.mark.parametrize("inst", [
        main_instance(make_permutation(4, [2, 1, 4, 3]), 2.3),
        main_instance(make_permutation(4, [3, 1, 4, 2]), -1.7),
        shift_instance(5, 3, 1.1),
        shapiro_type_instance(make_permutation(4, [2, 3, 4, 1]), 0.9),
        shapiro_type_instance(make_permutation(2, [2, 1]), 2.0),
        # scatter of the right-hand-side terms: a non-involution, and an
        # involution, where sigma^2 is the identity
        shapiro_type_instance(make_permutation(7, [4, 7, 1, 6, 2, 3, 5]), 1.3),
        shapiro_type_instance(make_permutation(6, [2, 1, 4, 3, 6, 5]), 0.7),
        shapiro_exponent_instance(5, 0.6),
        nesbitt_classic_instance(4),
        nesbitt_exponent_instance(5, 0.3),
    ])
    def test_matches_central_differences(self, inst):
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.uniform(-1.5, 1.5, inst.n)
            _, grad = gap_and_gradient(inst, y)
            h = 1e-6
            fd = np.empty(inst.n)
            for j in range(inst.n):
                yp, ym = y.copy(), y.copy()
                yp[j] += h
                ym[j] -= h
                fd[j] = (gap_and_gradient(inst, yp)[0]
                         - gap_and_gradient(inst, ym)[0]) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


class TestExponentMonotonicityCheck:
    def test_equal_exponents(self):
        assert exponent_monotonicity_check(3, 0.7, 0.7, [2.0, 1.0, 1.0])

    def test_strict_case(self):
        assert exponent_monotonicity_check(3, 0.5, 1.0, [2.0, 1.0, 1.0])

    def test_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k2 = float(rng.uniform(0.05, 1.0))
            k1 = float(rng.uniform(0.01, k2))
            x = rng.uniform(0.05, 20.0, int(rng.integers(2, 7)))
            assert exponent_monotonicity_check(len(x), k1, k2, x)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            exponent_monotonicity_check(3, 1.2, 1.4, [1, 1, 1])
        with pytest.raises(ValueError):
            exponent_monotonicity_check(3, 0.8, 0.5, [1, 1, 1])


def test_sweep_exponent():
    reports = sweep_exponent(3, [0.5, 1.0], SearchConfig(restarts=6, seed=0))
    assert len(reports) == 2
    assert all(rep.gap >= -1e-9 for rep in reports)


def test_gap_report_json_shape():
    report = evaluate(main_instance(identity_permutation(3), 1.0), [1, 2, 3])
    doc = report.to_json_dict()
    assert set(doc) == {"kind", "n", "sigma", "k", "p", "x", "lhs", "rhs", "gap"}
