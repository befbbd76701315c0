"""Closed-form counterexample vectors for the inequalities that fail.

Main-inequality counterexamples are geometric: when some index overshoots
the exponent budget by R > 0, a vector whose consecutive ratios all equal
(n+1)^(1/R) concentrates the right-hand side faster than the left can
follow.  The curved-denominator family instead splits into explicit cases
(all-ones, a vanishing pair, or one huge coordinate), each solved
numerically for its free parameter.

Every report is confirmed by re-evaluating the gap with the independent
numeric evaluator before it is emitted; if double precision leaves the
verdict marginal the gap is recomputed with 50-digit arithmetic.
"""

from dataclasses import dataclass
from decimal import Context
from math import isfinite, log
from sys import float_info

from .classify import holds, violating_indices
from .errors import NotRefutable
from .perm import Permutation, shift_permutation, wrap_index
from .search import (
    GapReport,
    InequalityInstance,
    InequalityKind,
    SearchConfig,
    evaluate,
    main_instance,
    minimize_gap,
    nesbitt_exponent_instance,
    shapiro_type_instance,
)

CONFIRM_MARGIN = 1e-9
PARAM_CAP_DOUBLINGS = 60


@dataclass(frozen=True)
class CounterexampleReport:
    """A concrete positive vector with numerically confirmed gap < 0."""

    instance: InequalityInstance
    x: tuple[float, ...]
    lhs: float
    rhs: float
    gap: float
    note: str | None = None

    def to_json_dict(self) -> dict:
        doc = self.instance.to_json_dict()
        doc.update({
            "x": list(self.x), "lhs": self.lhs, "rhs": self.rhs,
            "gap": self.gap, "note": self.note,
        })
        return doc


def _decimal_gap(instance: InequalityInstance, x) -> tuple[float, float, float]:
    """Recompute (lhs, rhs, gap) with 50-digit software floats."""
    ctx = Context(prec=50)

    def D(val):
        return ctx.create_decimal(repr(float(val)))

    def power(base, expo):
        if expo == D(1):
            return base
        return ctx.exp(ctx.multiply(expo, ctx.ln(base)))

    n = instance.n
    xs = [D(c) for c in x]
    kind = instance.kind
    k = D(instance.k) if instance.k is not None else None
    if kind in (InequalityKind.MAIN_EXPONENT, InequalityKind.CYCLIC_SHIFT):
        sigma = instance.effective_sigma()
        lhs = sum(power(xs[i] / xs[(i + 1) % n], k) for i in range(n))
        rhs = sum(xs[i] / xs[sigma.apply(i + 1) - 1] for i in range(n))
    elif kind in (InequalityKind.SHAPIRO_TYPE, InequalityKind.SHAPIRO_EXPONENT):
        lhs = sum(power(xs[i] / (xs[(i + 1) % n] + xs[(i + 2) % n]), k)
                  for i in range(n))
        if kind == InequalityKind.SHAPIRO_EXPONENT:
            rhs = ctx.divide(D(n), D(2))
        else:
            sigma = instance.sigma
            rhs = sum(
                xs[i] / (xs[sigma.apply(i + 1) - 1]
                         + xs[sigma.apply(sigma.apply(i + 1)) - 1])
                for i in range(n)
            )
    else:
        kk = D(1) if kind == InequalityKind.NESBITT_CLASSIC else k
        total = sum(xs)
        lhs = sum(power(xs[i] / (total - xs[i]), kk) for i in range(n))
        rhs = ctx.divide(D(n), power(D(n - 1), kk))
    return float(lhs), float(rhs), float(lhs - rhs)


def _confirmed(instance: InequalityInstance, x, note: str | None = None) -> CounterexampleReport:
    report = evaluate(instance, x)
    lhs, rhs, gap = report.lhs, report.rhs, report.gap
    if not (isfinite(gap) and abs(gap) >= CONFIRM_MARGIN):
        lhs, rhs, gap = _decimal_gap(instance, x)
    if not gap < 0:
        raise AssertionError(
            f"internal error: constructed vector does not violate the inequality (gap={gap})"
        )
    return CounterexampleReport(instance, report.x, lhs, rhs, gap, note)


def _pick_overshoot_index(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    # largest displacement wins; ties break toward the smallest index
    best_d = max(d for _, d in pairs)
    best_i = min(i for i, d in pairs if d == best_d)
    return best_i, best_d


def _geometric_vector(n: int, start: int, step: int, overshoot: float) -> list[float]:
    """x_start = 2, growing by the factor (n+1)^(1/overshoot) at each step
    of `step` (+1 or -1) around the cycle from there."""
    # the largest coordinate bounds the ratio too, since n - 1 >= 1
    log_largest = log(2.0) + (n - 1) * log(n + 1) / overshoot
    if log_largest > log(float_info.max):
        raise OverflowError(
            f"overshoot R={overshoot:.6g} is too small: the geometric counterexample "
            f"needs coordinates near 10^{log_largest / log(10):.0f}, past the float64 range"
        )
    ratio = (n + 1) ** (1.0 / overshoot)
    x = [0.0] * n
    for t in range(n):
        x[wrap_index(n, start + step * t) - 1] = 2.0 * ratio ** t
    return x


def refute_main_positive_k(sigma: Permutation, k: float) -> CounterexampleReport:
    """Geometric counterexample to the main inequality for k >= 0.

    With i0 the index of largest forward displacement and R its overshoot
    past k, the vector fixes x_{i0-1} = 2 and grows by the factor
    (n+1)^(1/R) at each step backward from there.  Raises OverflowError,
    naming R, when R is so small that the vector leaves the float64 range.
    """
    if k < 0:
        raise ValueError("use refute_main_negative_k for k < 0")
    if holds(sigma, k):
        raise NotRefutable(f"the inequality holds for k={k}")
    i0, disp = _pick_overshoot_index(violating_indices(sigma, k))
    return _confirmed(main_instance(sigma, k), _geometric_vector(sigma.n, i0 - 1, -1, disp - k))


def refute_main_negative_k(sigma: Permutation, k: float) -> CounterexampleReport:
    """Mirror construction for k < 0: ascending from x_{i0+1} = 2."""
    if k >= 0:
        raise ValueError("use refute_main_positive_k for k >= 0")
    if holds(sigma, k):
        raise NotRefutable(f"the inequality holds for k={k}")
    i0, disp = _pick_overshoot_index(violating_indices(sigma, k))
    return _confirmed(main_instance(sigma, k), _geometric_vector(sigma.n, i0 + 1, 1, disp + k))


def refute_main(sigma: Permutation, k: float) -> CounterexampleReport:
    if k >= 0:
        return refute_main_positive_k(sigma, k)
    return refute_main_negative_k(sigma, k)


def _termwise_equal_rhs(sigma: Permutation) -> bool:
    # every denominator pair {sigma(i), sigma^2(i)} equals {i+1, i+2}
    n = sigma.n
    return all(
        {sigma.apply(i), sigma.apply(sigma.apply(i))}
        == {wrap_index(n, i + 1), wrap_index(n, i + 2)}
        for i in range(1, n + 1)
    )


def _solve_vanishing_pair(sigma: Permutation, k: float, i: int) -> CounterexampleReport:
    # x at sigma(i) and sigma^2(i) shrink toward 0; all other coordinates 1
    n = sigma.n
    j1, j2 = sigma.apply(i), sigma.apply(sigma.apply(i))
    instance = shapiro_type_instance(sigma, k)
    r = 0.1
    for _ in range(PARAM_CAP_DOUBLINGS):
        x = [1.0] * n
        x[j1 - 1] = x[j2 - 1] = r
        if evaluate(instance, x).gap < -CONFIRM_MARGIN:
            return _confirmed(instance, x)
        r /= 2.0
    raise AssertionError("internal error: vanishing-pair parameter cap reached")


def _solve_large_coordinate(sigma: Permutation, k: float, i: int) -> CounterexampleReport:
    # one huge coordinate at i; the uncurbed right-hand-side term outgrows
    # the dampened left-hand side for k < 1
    n = sigma.n
    instance = shapiro_type_instance(sigma, k)
    big = 10.0
    for _ in range(PARAM_CAP_DOUBLINGS):
        x = [1.0] * n
        x[i - 1] = big
        if evaluate(instance, x).gap < -CONFIRM_MARGIN:
            return _confirmed(instance, x)
        big *= 2.0
    raise AssertionError("internal error: large-coordinate parameter cap reached")


def refute_shapiro_type(sigma: Permutation, k: float) -> CounterexampleReport:
    """Case analysis for the curved-denominator inequality, k >= 0.

    Involutions make the right-hand side the constant n/2: all-ones refutes
    k > 1 and nothing is emitted for k <= 1.  Otherwise all-ones still
    refutes k > 1; for k < 1 one huge coordinate wins; at k = 1 a vanishing
    pair at a non-adjacent (sigma(i), sigma^2(i)) wins, the termwise-equal
    shift case holds with equality, and any remaining shape falls back to
    numeric search (flagged in the report note).
    """
    if k < 0:
        raise ValueError("the case analysis covers k >= 0 only")
    n = sigma.n
    if k > 1:
        return _confirmed(shapiro_type_instance(sigma, k), [1.0] * n)
    if sigma.is_involution():
        raise NotRefutable(
            "right-hand side is the constant n/2 and k <= 1; "
            "no counterexample construction applies"
        )
    if k < 1:
        i = next(i for i in range(1, n + 1)
                 if sigma.apply(sigma.apply(i)) != i)
        return _solve_large_coordinate(sigma, k, i)
    # k == 1
    if _termwise_equal_rhs(sigma):
        raise NotRefutable("both sides agree term by term at k = 1")
    for i in range(1, n + 1):
        j1, j2 = sigma.apply(i), sigma.apply(sigma.apply(i))
        if len({i, j1, j2}) == 3 and (j1 - j2) % n not in (1, n - 1):
            return _solve_vanishing_pair(sigma, k, i)
    # no vanishing-pair site exists (e.g. the descending shift); search instead
    instance = shapiro_type_instance(sigma, k)
    found = minimize_gap(instance, SearchConfig(restarts=48, max_iters=300, seed=0))
    if found.gap < -CONFIRM_MARGIN:
        return _confirmed(
            instance, found.x,
            note="case analysis gives no closed-form vector here; "
                 "found by numeric search",
        )
    raise NotRefutable(
        "case analysis gives no construction and numeric search found no violation"
    )


def refute_nesbitt_exponent() -> CounterexampleReport:
    """The fixed small-exponent counterexample (1, 0.1, 0.1) at k = 0.1
    against the constant right-hand side 3 / 2^0.1."""
    return _confirmed(nesbitt_exponent_instance(3, 0.1), [1.0, 0.1, 0.1])
