"""Reference answers the benchmark computes without cyclineq.

Every check here works from the inputs a job was given and from the JSON
documents the CLI printed or wrote, never through cyclineq code, so a bug in
the program cannot also hide in its own check.  Nothing here reads the
certificate's `rounds`, so a change of the round encoding does not break
the checks; the program's own `--check-only` covers the rounds.
"""

import json
from decimal import Decimal, localcontext
from math import factorial
from pathlib import Path

DECIMAL_DIGITS = 50
ADMISSIBLE_SLACK = 1e-9
PINNED_COUNTS = Path(__file__).with_name("pinned_counts.json")


def forward_displacements(images: list[int]) -> list[int]:
    n = len(images)
    return [(s - i) % n for i, s in enumerate(images, start=1)]


def backward_displacements(images: list[int]) -> list[int]:
    n = len(images)
    return [(i - s) % n for i, s in enumerate(images, start=1)]


def shift_images(n: int, s: int) -> list[int]:
    return [(i + s - 1) % n + 1 for i in range(1, n + 1)]


def holds(images: list[int], k: float) -> bool:
    """The displacement threshold: k >= D+ or k <= -D-."""
    return k >= max(forward_displacements(images)) or k <= -max(backward_displacements(images))


def count_table(images: list[int], u: int, v: int, alphabet: str) -> list[list[int]]:
    """Copies of each symbol a_j^(1/(v n)) in each rebalanced summand.

    Term i is the product of the ratio symbols over its displacement
    interval (forward from i over alphabet a, forward from sigma(i) over the
    inverse alphabet b), times the whole cyclic product to the power
    u/v - d_i, which is 1 and spreads evenly over all n symbols.
    """
    n = len(images)
    if alphabet == "a":
        disps, starts = forward_displacements(images), range(1, n + 1)
    else:
        disps, starts = backward_displacements(images), images
    rows = []
    for d, start in zip(disps, starts):
        row = [u - v * d] * n
        for t in range(d):
            row[(start - 1 + t) % n] += v * n
        rows.append(row)
    return rows


def count_integers(doc) -> int:
    """Integers in a JSON document, however it nests them."""
    if isinstance(doc, bool):
        return 0
    if isinstance(doc, int):
        return 1
    if isinstance(doc, dict):
        return sum(count_integers(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(count_integers(v) for v in doc)
    return 0


# ---- gaps in 50-digit decimal arithmetic ---------------------------------

def _power(base: Decimal, k: Decimal) -> Decimal:
    return base if k == 1 else (k * base.ln()).exp()


def decimal_gap(kind: str, x: list[float], k: float | None = None,
                images: list[int] | None = None) -> Decimal:
    """lhs - rhs of one inequality family at x, from its textbook formula."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        n = len(x)
        xs = [Decimal(c) for c in x]
        kk = Decimal(k) if k is not None else None
        if kind == "main":
            lhs = sum(_power(xs[i] / xs[(i + 1) % n], kk) for i in range(n))
            rhs = sum(xs[i] / xs[images[i] - 1] for i in range(n))
        elif kind in ("shapiro", "shapiro-exponent"):
            lhs = sum(_power(xs[i] / (xs[(i + 1) % n] + xs[(i + 2) % n]), kk)
                      for i in range(n))
            if kind == "shapiro":
                rhs = sum(xs[i] / (xs[images[i] - 1] + xs[images[images[i] - 1] - 1])
                          for i in range(n))
            else:
                rhs = Decimal(n) / 2
        elif kind == "nesbitt-exponent":
            total = sum(xs)
            lhs = sum(_power(xs[i] / (total - xs[i]), kk) for i in range(n))
            rhs = Decimal(n) / _power(Decimal(n - 1), kk)
        else:
            raise ValueError(f"no reference formula for {kind!r}")
        return lhs - rhs


def positive_vector(doc: dict, n: int) -> list[float] | None:
    x = doc.get("x")
    if not isinstance(x, list) or len(x) != n:
        return None
    if not all(isinstance(c, (int, float)) and c > 0 for c in x):
        return None
    return [float(c) for c in x]


# ---- band counts -----------------------------------------------------------

def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def enumerate_band(n: int, k: int) -> int:
    """Permutations with every (sigma(i) - i) mod n <= k, one by one."""
    used = [False] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for d in range(min(k, n - 1) + 1):
            j = (i + d) % n
            if not used[j]:
                used[j] = True
                total += extend(i + 1)
                used[j] = False
        return total

    return extend(0)


class BandCounts:
    """Expected P(n, k) from identities, a pinned table and enumeration."""

    ENUMERATE_MAX_N = 9

    def __init__(self):
        raw = json.loads(PINNED_COUNTS.read_text())
        self.pinned = {(int(n), int(k)): int(c)
                       for k, row in raw["counts"].items() for n, c in row.items()}
        self._enumerated: dict[tuple[int, int], int] = {}

    def sources(self, n: int, k: int) -> dict[str, int]:
        """Every independent value known for P(n, k), by source name."""
        out = {}
        if k >= n - 1:
            out["n!"] = factorial(n)
        elif k == 0:
            out["P(n,0)=1"] = 1
        elif k == 1:
            out["P(n,1)=2"] = 2
        elif k == 2 and n >= 3:
            out["P(n,2)=2+L_n"] = 2 + lucas(n)
        if (n, k) in self.pinned:
            out["pinned"] = self.pinned[(n, k)]
        if n <= self.ENUMERATE_MAX_N:
            if (n, k) not in self._enumerated:
                self._enumerated[(n, k)] = enumerate_band(n, k)
            out["enumeration"] = self._enumerated[(n, k)]
        return out

    def problem(self, n: int, k: int, value) -> str | None:
        sources = self.sources(n, k)
        if not sources:
            return f"no reference value for P({n},{k})"
        wrong = {name: want for name, want in sources.items() if value != want}
        if wrong:
            return f"P({n},{k}) = {value!r}, expected {wrong}"
        return None
