"""Numeric evaluation and gap minimization for all inequality families.

Every inequality here is homogeneous of degree 0, so optimization runs in
log coordinates y_i = log x_i with y_1 pinned at 0 to remove the scale
degeneracy.  The local method (multi-start adaptive-step gradient descent)
claims no global guarantee; it serves as an oracle, and failures of an
inequality are always certified by closed-form vectors elsewhere.
"""

from dataclasses import dataclass
from enum import Enum
from math import log

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NonPositiveInput
from .perm import Permutation, shift_permutation

GRID_LOG_MIN = log(1e-2)
GRID_LOG_MAX = log(1e2)
DEFAULT_GRID_BUDGET = 50_000_000


class InequalityKind(str, Enum):
    MAIN_EXPONENT = "main_exponent"        # sum (x_i/x_{i+1})^k >= sum x_i/x_{sigma(i)}
    CYCLIC_SHIFT = "cyclic_shift"          # sigma = shift by p-1
    SHAPIRO_TYPE = "shapiro_type"          # RHS denominators x_{sigma(i)} + x_{sigma^2(i)}
    SHAPIRO_EXPONENT = "shapiro_exponent"  # RHS constant n/2
    NESBITT_CLASSIC = "nesbitt_classic"    # sum x_i/s_i >= n/(n-1)
    NESBITT_EXPONENT = "nesbitt_exponent"  # sum (x_i/s_i)^k >= n/(n-1)^k


@dataclass(frozen=True)
class InequalityInstance:
    kind: InequalityKind
    n: int
    sigma: Permutation | None = None
    k: float | None = None
    p: int | None = None

    def __post_init__(self):
        if self.n <= 1:
            raise DimensionMismatch(f"need n > 1, got n={self.n}")
        kind = self.kind
        if kind in (InequalityKind.MAIN_EXPONENT, InequalityKind.SHAPIRO_TYPE):
            if self.sigma is None or self.k is None:
                raise DimensionMismatch(f"{kind.value} needs sigma and k")
            if self.sigma.n != self.n:
                raise DimensionMismatch("sigma dimension does not match n")
        elif kind == InequalityKind.CYCLIC_SHIFT:
            if self.p is None or self.k is None or self.p < 1:
                raise DimensionMismatch("cyclic_shift needs k and p >= 1")
        elif kind in (InequalityKind.SHAPIRO_EXPONENT, InequalityKind.NESBITT_EXPONENT):
            if self.k is None:
                raise DimensionMismatch(f"{kind.value} needs k")
        if self.k is not None and not np.isfinite(self.k):
            raise DimensionMismatch("k must be finite")

    def effective_sigma(self) -> Permutation | None:
        if self.kind == InequalityKind.CYCLIC_SHIFT:
            return shift_permutation(self.n, self.p - 1)
        return self.sigma

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "sigma": list(self.sigma.images) if self.sigma else None,
            "k": self.k,
            "p": self.p,
        }


def main_instance(sigma: Permutation, k: float) -> InequalityInstance:
    return InequalityInstance(InequalityKind.MAIN_EXPONENT, sigma.n, sigma=sigma, k=float(k))


def shift_instance(n: int, p: int, k: float) -> InequalityInstance:
    return InequalityInstance(InequalityKind.CYCLIC_SHIFT, n, k=float(k), p=p)


def shapiro_type_instance(sigma: Permutation, k: float) -> InequalityInstance:
    return InequalityInstance(InequalityKind.SHAPIRO_TYPE, sigma.n, sigma=sigma, k=float(k))


def shapiro_exponent_instance(n: int, k: float) -> InequalityInstance:
    return InequalityInstance(InequalityKind.SHAPIRO_EXPONENT, n, k=float(k))


def nesbitt_classic_instance(n: int) -> InequalityInstance:
    return InequalityInstance(InequalityKind.NESBITT_CLASSIC, n)


def nesbitt_exponent_instance(n: int, k: float) -> InequalityInstance:
    return InequalityInstance(InequalityKind.NESBITT_EXPONENT, n, k=float(k))


@dataclass(frozen=True)
class GapReport:
    x: tuple[float, ...]
    lhs: float
    rhs: float
    gap: float
    instance: InequalityInstance

    def to_json_dict(self) -> dict:
        doc = self.instance.to_json_dict()
        doc.update({"x": list(self.x), "lhs": self.lhs, "rhs": self.rhs, "gap": self.gap})
        return doc


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 32
    max_iters: int = 200
    step_init: float = 0.5
    tolerance: float = 1e-10
    seed: int = 0
    grid_points_per_dim: int = 13

    def __post_init__(self):
        if min(self.restarts, self.max_iters, self.grid_points_per_dim) < 1:
            raise ValueError("restarts, max_iters, grid_points_per_dim must be >= 1")
        if self.step_init <= 0 or self.tolerance <= 0:
            raise ValueError("step_init and tolerance must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _sides_and_grad(instance: InequalityInstance, Y: np.ndarray, want_grad: bool):
    """Batch lhs/rhs (and gradient wrt log coordinates) at rows of Y."""
    n = instance.n
    X = np.exp(Y)
    kind = instance.kind
    k = instance.k
    grad = None

    if kind in (InequalityKind.MAIN_EXPONENT, InequalityKind.CYCLIC_SHIFT):
        sigma = instance.effective_sigma()
        s0 = np.array(sigma.images) - 1
        T = (X / np.roll(X, -1, axis=1)) ** k
        R = X / X[:, s0]
        lhs, rhs = T.sum(axis=1), R.sum(axis=1)
        if want_grad:
            inv0 = np.array(sigma.inverse().images) - 1
            grad = k * (T - np.roll(T, 1, axis=1)) - (R - R[:, inv0])
    elif kind in (InequalityKind.SHAPIRO_TYPE, InequalityKind.SHAPIRO_EXPONENT):
        X1 = np.roll(X, -1, axis=1)
        X2 = np.roll(X, -2, axis=1)
        D = X1 + X2
        T = (X / D) ** k
        lhs = T.sum(axis=1)
        if want_grad:
            grad = k * (T - np.roll(T * X1 / D, 1, axis=1)
                        - np.roll(T * X2 / D, 2, axis=1))
        if kind == InequalityKind.SHAPIRO_EXPONENT:
            rhs = np.full(len(X), n / 2.0)
        else:
            s1 = np.array(instance.sigma.images) - 1
            s2 = s1[s1]
            DR = X[:, s1] + X[:, s2]
            R = X / DR
            rhs = R.sum(axis=1)
            if want_grad:
                # term i depends on x_i, x_s1(i) and x_s2(i); s1 and s2 are
                # permutations, so neither scatter repeats a column
                grad -= R
                grad[:, s1] += R * X[:, s1] / DR
                grad[:, s2] += R * X[:, s2] / DR
    elif kind in (InequalityKind.NESBITT_CLASSIC, InequalityKind.NESBITT_EXPONENT):
        kk = 1.0 if kind == InequalityKind.NESBITT_CLASSIC else k
        S = X.sum(axis=1, keepdims=True) - X  # s_i = sum of the other coordinates
        T = (X / S) ** kk
        lhs = T.sum(axis=1)
        rhs = np.full(len(X), n / (n - 1) ** kk)
        if want_grad:
            Z = (T / S).sum(axis=1, keepdims=True)
            grad = kk * (T - X * (Z - T / S))
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind}")
    return lhs, rhs, grad


def evaluate(instance: InequalityInstance, x) -> GapReport:
    """Exact-formula evaluation of lhs, rhs and gap = lhs - rhs at x."""
    arr = np.asarray([float(c) for c in x], dtype=float)
    if arr.shape != (instance.n,):
        raise DimensionMismatch(
            f"expected {instance.n} coordinates, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise NonPositiveInput("all coordinates must be strictly positive and finite")
    lhs, rhs, _ = _sides_and_grad(instance, np.log(arr)[None, :], want_grad=False)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return GapReport(tuple(arr.tolist()), lhs, rhs, lhs - rhs, instance)


def gap_and_gradient(instance: InequalityInstance, y) -> tuple[float, np.ndarray]:
    """Gap and its analytic gradient in log coordinates (for one point)."""
    Y = np.asarray(y, dtype=float)[None, :]
    lhs, rhs, grad = _sides_and_grad(instance, Y, want_grad=True)
    return float(lhs[0] - rhs[0]), grad[0]


def minimize_gap(instance: InequalityInstance, config: SearchConfig | None = None,
                 trace: list | None = None) -> GapReport:
    """Multi-start adaptive-step descent on the gap; returns the best point found.

    The first restart starts at the uniform point (all coordinates equal);
    the rest start log-uniform over the grid range.  All restarts descend
    together as one batch, so the result is bit-identical for a fixed
    config; ties between restarts break toward the lowest index.
    """
    if config is None:
        config = SearchConfig()
    rng = np.random.default_rng(config.seed)
    Y = rng.uniform(GRID_LOG_MIN, GRID_LOG_MAX, size=(config.restarts, instance.n))
    Y[0] = 0.0
    Y[:, 0] = 0.0
    step = np.full(config.restarts, config.step_init)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lhs, rhs, grad = _sides_and_grad(instance, Y, want_grad=True)
        gap = np.where(np.isfinite(lhs - rhs), lhs - rhs, np.inf)
        for it in range(config.max_iters):
            if trace is not None:
                for r in range(config.restarts):
                    trace.append((r, it, float(gap[r]), float(step[r])))
            proposal = np.clip(Y - step[:, None] * grad, -60.0, 60.0)
            proposal[:, 0] = 0.0
            lhs2, rhs2, grad2 = _sides_and_grad(instance, proposal, want_grad=True)
            gap2 = np.where(np.isfinite(lhs2 - rhs2), lhs2 - rhs2, np.inf)
            improved = gap2 < gap
            Y[improved] = proposal[improved]
            gap[improved] = gap2[improved]
            grad[improved] = grad2[improved]
            step[improved] *= 1.3
            step[~improved] *= 0.5
            if step.max() < config.tolerance:
                break
    return evaluate(instance, np.exp(Y[int(np.argmin(gap))]))


def grid_oracle(instance: InequalityInstance, config: SearchConfig | None = None,
                budget: int = DEFAULT_GRID_BUDGET) -> GapReport:
    """Minimum gap over a log-uniform grid with the first coordinate pinned.

    Exhaustive within its resolution, so it is an independent brute-force
    oracle for the local search at small n.
    """
    if config is None:
        config = SearchConfig()
    n, g = instance.n, config.grid_points_per_dim
    cost = n * g ** (n - 1)
    if cost > budget:
        raise BudgetExceeded(f"grid cost {cost} exceeds budget {budget}")
    axis = np.linspace(GRID_LOG_MIN, GRID_LOG_MAX, g)
    mesh = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    Y = np.zeros((g ** (n - 1), n))
    for d, comp in enumerate(mesh):
        Y[:, d + 1] = comp.ravel()
    lhs, rhs, _ = _sides_and_grad(instance, Y, want_grad=False)
    best = int(np.argmin(lhs - rhs))
    return evaluate(instance, np.exp(Y[best]))


def exponent_monotonicity_check(n: int, k1: float, k2: float, x,
                                rel_tol: float = 1e-12) -> bool:
    """Termwise comparison behind lowering the exponent toward 0.

    For 0 < k1 <= k2 <= 1 each term (x_i/(x_{i+1}+x_{i+2}))^k1 dominates the
    corresponding term of the instance with exponent k2 at the rescaled
    vector x_i^(k1/k2); concavity of t -> t^(k1/k2) makes this a theorem,
    so the check should never fail (it exists as a property-test hook).
    """
    if not 0 < k1 <= k2 <= 1:
        raise ValueError("need 0 < k1 <= k2 <= 1")
    arr = np.asarray([float(c) for c in x], dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatch(f"expected {n} coordinates, got {arr.shape}")
    if np.any(arr <= 0):
        raise NonPositiveInput("all coordinates must be strictly positive")
    r = k1 / k2
    lhs_terms = (arr / (np.roll(arr, -1) + np.roll(arr, -2))) ** k1
    mapped = arr ** r
    rhs_terms = (mapped / (np.roll(mapped, -1) + np.roll(mapped, -2))) ** k2
    slack = rel_tol * np.maximum(lhs_terms, rhs_terms)
    return bool(np.all(lhs_terms - rhs_terms >= -slack))


def sweep_exponent(n: int, k_values, config: SearchConfig | None = None) -> list[GapReport]:
    """Minimum gap of the constant-right-hand-side family for each exponent.

    How close the exponent can get to 1 before a violation appears is left
    to inspection of the sweep; no claim is attached.
    """
    if config is None:
        config = SearchConfig()
    return [minimize_gap(shapiro_exponent_instance(n, float(k)), config) for k in k_values]
