import itertools
from math import factorial

import pytest

from cyclineq import (
    BadDimension,
    BudgetExceeded,
    band_matrix,
    brute_force_count,
    count_band_permutations,
    holds,
    lucas,
    lucas_identity_report,
    make_permutation,
)
from cyclineq.count import MAX_DIGITS, MAX_K


def ryser_permanent(entries) -> int:
    """Second oracle: the permanent by inclusion-exclusion over column
    subsets, visiting subsets in Gray-code order so each step updates one
    column."""
    n = len(entries)
    total = 0
    rowsum = [0] * n
    gray = 0
    parity = 0
    for m in range(1, 1 << n):
        j = (m & -m).bit_length() - 1
        flipped = gray ^ (1 << j)
        sign = 1 if flipped > gray else -1
        gray = flipped
        for i in range(n):
            rowsum[i] += sign * entries[i][j]
        parity ^= 1
        prod = 1
        for s in rowsum:
            prod *= s
            if prod == 0:
                break
        total += -prod if parity else prod
    return total if n % 2 == 0 else -total


def filtered_count(n: int, k: int) -> int:
    """Literal definition: filter all of S_n by maximal forward displacement."""
    return sum(
        all((images[i] - (i + 1)) % n <= k for i in range(n))
        for images in itertools.permutations(range(1, n + 1))
    )


class TestBandMatrix:
    def test_entries(self):
        mat = band_matrix(4, 1)
        assert mat.entries == (
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 0, 1, 1),
            (1, 0, 0, 1),
        )

    def test_row_sums(self):
        for n in (3, 5, 8):
            for k in range(0, n + 2):
                mat = band_matrix(n, k)
                assert all(sum(row) == min(k, n - 1) + 1 for row in mat.entries)

    def test_circulant(self):
        mat = band_matrix(6, 2)
        for i in range(6):
            for j in range(6):
                assert mat.entries[i][j] == mat.entries[(i + 1) % 6][(j + 1) % 6]

    def test_validation(self):
        with pytest.raises(BadDimension):
            band_matrix(1, 0)
        with pytest.raises(ValueError):
            band_matrix(3, -1)


class TestCounts:
    def test_trivial_bands(self):
        for n in range(2, 9):
            assert count_band_permutations(n, 0) == 1
            assert count_band_permutations(n, 1) == 2

    def test_full_band_is_factorial(self):
        assert count_band_permutations(3, 2) == 6
        assert count_band_permutations(7, 6) == factorial(7)
        assert count_band_permutations(30, 29) == factorial(30)  # short-circuit

    def test_brute_force_cases(self):
        assert brute_force_count(3, 2) == 6
        assert brute_force_count(3, 1) == 2

    def test_p42(self):
        assert count_band_permutations(4, 2) == 9

    def test_permanent_matches_enumeration(self):
        for n in range(2, 7):
            for k in range(n):
                assert count_band_permutations(n, k) == brute_force_count(n, k)

    def test_five_two_oracle_equivalence(self):
        assert count_band_permutations(5, 2) == brute_force_count(5, 2) == 13

    def test_monotone_in_k(self):
        for n in (4, 6):
            counts = [count_band_permutations(n, k) for k in range(n)]
            assert counts == sorted(counts)
            assert counts[-1] == factorial(n)

    def test_transfer_matrix_matches_ryser(self):
        for n in range(2, 15):
            for k in range(min(7, n - 2) + 1):
                expected = ryser_permanent(band_matrix(n, k).entries)
                assert count_band_permutations(n, k) == expected, (n, k)

    def test_backtracking_matches_filter(self):
        for n in range(2, 8):
            for k in range(n + 1):
                assert brute_force_count(n, k) == filtered_count(n, k), (n, k)

    def test_budgets(self):
        assert count_band_permutations(21, 2) == 2 + lucas(21)
        at_cap = ryser_permanent(band_matrix(10, MAX_K).entries)
        assert count_band_permutations(10, MAX_K) == at_cap
        for n, k in ((11, MAX_K + 1), (30, MAX_K + 1), (30, 28)):
            with pytest.raises(BudgetExceeded):
                count_band_permutations(n, k)
        with pytest.raises(BudgetExceeded):
            brute_force_count(10, 2)
        with pytest.raises(BadDimension):
            count_band_permutations(1, 0)
        with pytest.raises(BadDimension):
            count_band_permutations(5, -1)

    def test_digit_budget(self):
        # (k+1)^n bounds P(n, k); n is refused once that bound passes MAX_DIGITS
        assert MAX_DIGITS == 1000
        assert count_band_permutations(2095, 2) == 2 + lucas(2095)
        assert count_band_permutations(10**6, 0) == 1
        for n, k in ((2096, 2), (1048, MAX_K), (10**5, MAX_K), (450, 449)):
            with pytest.raises(BudgetExceeded, match="1000 digits"):
                count_band_permutations(n, k)
        with pytest.raises(BudgetExceeded, match="1000 digits"):
            lucas_identity_report(2096)

    def test_classifier_consistency(self):
        # P(n, k) counts exactly the sigma admitted on the k >= 0 branch
        for n in (3, 4, 5, 6):
            for k in range(n):
                admitted = sum(
                    holds(make_permutation(n, p), k)
                    for p in itertools.permutations(range(1, n + 1))
                )
                assert count_band_permutations(n, k) == admitted


class TestLucas:
    def test_seeds(self):
        assert lucas(0) == 2
        assert lucas(1) == 1

    def test_values(self):
        assert [lucas(i) for i in range(11)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]

    def test_identity_report(self):
        rows = lucas_identity_report(8)
        by_n = {row.n: row for row in rows}
        assert by_n[3].count == 6 and by_n[3].lucas_plus_two == 6 and by_n[3].match
        assert by_n[2].count == 2 and by_n[2].lucas_plus_two == 5 and not by_n[2].match
        assert all(by_n[n].match for n in range(3, 9))

    def test_identity_to_1000(self):
        rows = lucas_identity_report(1000)
        assert all(row.count == 2 + lucas(row.n) for row in rows if row.n >= 3)
        with pytest.raises(BadDimension):
            lucas_identity_report(1)
