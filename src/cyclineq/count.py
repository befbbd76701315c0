"""Counting permutations whose forward displacements stay within a band.

P(n, k) counts the sigma in S_n with every (sigma(i) - i) mod n <= k, the
permanent of the circulant 0/1 matrix allowing offsets 0..k, computed as
trace(T^n) by the transfer-matrix method in exact Python integers.  At k = 2
it follows the Lucas numbers apart from small initial n, found empirically.
"""

from dataclasses import dataclass
from itertools import combinations
from math import factorial, log10

import numpy as np

from .errors import BadDimension, BudgetExceeded

MAX_K = 8
MAX_DIGITS = 1000
BRUTE_FORCE_MAX_N = 9


@dataclass(frozen=True)
class BandMatrix:
    """Circulant 0/1 matrix with entry (i, j) = 1 iff (j - i) mod n <= k."""

    n: int
    k: int
    entries: tuple[tuple[int, ...], ...]


def band_matrix(n: int, k: int) -> BandMatrix:
    if n <= 1:
        raise BadDimension(f"need n > 1, got n={n}")
    if k < 0:
        raise ValueError("need k >= 0")
    entries = tuple(
        tuple(1 if (j - i) % n <= k else 0 for j in range(n))
        for i in range(n)
    )
    return BandMatrix(n, k, entries)


def _transfer_blocks(k: int):
    """The blocks of T.  A state is the bitmask of the next k columns earlier
    rows took; a row takes a free offset t in 0..k, bit 0 must then be taken,
    and the window shifts, which keeps the state's size p: one block per p."""
    for p in range(k + 1):
        states = [sum(1 << b for b in bits) for bits in combinations(range(k), p)]
        block = np.zeros((len(states), len(states)), dtype=object)
        for i, state in enumerate(states):
            for t in range(k + 1):
                taken = state | 1 << t
                if taken != state and taken & 1:
                    block[i, states.index(taken >> 1)] += 1
        yield block


def _check_budget(n: int, k: int) -> None:
    """Refuse before any work.  Below the full band T has C(k, p) states per
    block; every row has min(k, n-1) + 1 columns, so P(n, k) <= that ** n."""
    if k < n - 1 and k > MAX_K:
        raise BudgetExceeded(f"transfer-matrix budget is k <= {MAX_K}, got k={k}")
    choices = min(k, n - 1) + 1
    if n * log10(choices) > MAX_DIGITS:
        raise BudgetExceeded(f"budget is {MAX_DIGITS} digits, got P({n},{k}) <= {choices}^{n}")


def count_band_permutations(n: int, k: int) -> int:
    """P(n, k), exact.  Full band (k >= n-1) short-circuits to n!."""
    if n <= 1:
        raise BadDimension(f"need n > 1, got n={n}")
    if k < 0:
        raise BadDimension(f"need k >= 0, got k={k}")
    _check_budget(n, k)
    if k >= n - 1:
        return factorial(n)
    return sum(int(np.trace(np.linalg.matrix_power(b, n))) for b in _transfer_blocks(k))


def brute_force_count(n: int, k: int, max_n: int = BRUTE_FORCE_MAX_N) -> int:
    """Oracle: exhaustive backtracking that gives row i, in turn, each free
    column i + t (mod n) with t in 0..k, and counts the complete bijections."""
    if n <= 1:
        raise BadDimension(f"need n > 1, got n={n}")
    if n > max_n:
        raise BudgetExceeded(f"enumeration budget is n <= {max_n}, got n={n}")
    offsets = range(min(k, n - 1) + 1)

    def extend(row: int, used: int) -> int:
        if row == n:
            return 1
        total = 0
        for t in offsets:
            column = 1 << (row + t) % n
            if not used & column:
                total += extend(row + 1, used | column)
        return total

    return extend(0, 0)


def lucas(n: int) -> int:
    """Lucas numbers: L_0 = 2, L_1 = 1, L_n = L_{n-1} + L_{n-2}."""
    if n < 0:
        raise ValueError("need n >= 0")
    a, b = 2, 1
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, a + b
    return b


@dataclass(frozen=True)
class LucasRow:
    n: int
    count: int
    lucas_plus_two: int
    match: bool


def lucas_identity_report(n_max: int) -> list[LucasRow]:
    """Rows (n, P(n,2), 2 + L_n, match) for n = 2..n_max.

    The identity fails only for small initial n; which ones is decided
    empirically here rather than assumed.
    """
    if n_max <= 1:
        raise BadDimension(f"the Lucas table needs n_max > 1, got n_max={n_max}")
    _check_budget(n_max, 2)
    rows = []
    for n in range(2, n_max + 1):
        count = count_band_permutations(n, 2)
        expected = 2 + lucas(n)
        rows.append(LucasRow(n, count, expected, count == expected))
    return rows
