"""End-to-end checks of the acceptance properties, one body per property.

Each check body takes its case set as arguments (dimensions, exponents,
search budget, seeds and draw counts), raises CheckFailed at the first case
that breaks the property, and otherwise returns how many cases of each kind
it checked.  `CHECKS` binds reduced case sets so that the `selftest` command
finishes in seconds; the acceptance tests bind the full ones and assert the
counts, so a body that silently checks fewer cases fails there.
"""

import itertools
from dataclasses import replace
from functools import partial

import numpy as np

from . import count as bandcount
from .classify import admissible_exponents, holds
from .perm import identity_permutation, make_permutation, shift_permutation
from .refute import refute_main, refute_nesbitt_exponent, refute_shapiro_type
from .search import (
    SearchConfig,
    evaluate,
    exponent_monotonicity_check,
    gap_and_gradient,
    grid_oracle,
    main_instance,
    minimize_gap,
    nesbitt_exponent_instance,
    shapiro_exponent_instance,
    shapiro_type_instance,
)
from .witness import RationalExponent, RatioVector, build_certificate, \
    certificate_sides, check_certificate

# Tolerances of the check bodies; tests/test_acceptance.py pins their values.
TOL = 1e-9  # gaps and closed-form values, absolute
CERT_RTOL = 1e-10  # certificate right-hand side against the direct sum
SCALE_RTOL = 1e-12  # gap change under x -> c x, relative to lhs + rhs
FD_STEP = 1e-6  # central-difference step
FD_RTOL = 1e-6  # analytic against finite-difference gradient
RATIO_TOL = 1e-12  # product of the ratio alphabet against 1


class CheckFailed(AssertionError):
    """A case broke the property under check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def all_perms(n):
    return [make_permutation(n, p) for p in itertools.permutations(range(1, n + 1))]


def check_shift_verdicts(dims) -> dict:
    """Every cyclic shift by s classifies to (D+, D-) = (s, n - s), or (0, 0) at s = 0."""
    shifts = 0
    for n in dims:
        for s in range(n):
            verdict = admissible_exponents(shift_permutation(n, s))
            _require((verdict.d_plus, verdict.d_minus) == (s % n, (n - s) % n),
                     f"shift s={s}, n={n} gave {verdict}")
            shifts += 1
    return {"shifts": shifts}


def check_classifier_vs_oracle(dims, grid_dims, config: SearchConfig) -> dict:
    """holds() agrees with descent (and the grid oracle for n in grid_dims)
    where it says "holds", and with the refuter elsewhere, on every
    permutation of each dimension n at every half-integer k in [-n, n]."""
    counts = {"permutations": 0, "admissible": 0, "refuted": 0}
    for n in dims:
        for sigma in all_perms(n):
            counts["permutations"] += 1
            for k in (twice_k / 2 for twice_k in range(-2 * n, 2 * n + 1)):
                if holds(sigma, k):
                    inst = main_instance(sigma, k)
                    oracles = (grid_oracle, minimize_gap) if n in grid_dims else (minimize_gap,)
                    for oracle in oracles:
                        gap = oracle(inst, config).gap
                        _require(gap >= -TOL, f"{oracle.__name__} found gap {gap} "
                                              f"at sigma={sigma.images}, k={k}")
                    counts["admissible"] += 1
                else:
                    gap = refute_main(sigma, k).gap
                    _require(gap < -TOL, f"weak refutation at sigma={sigma.images}, k={k}")
                    counts["refuted"] += 1
    return counts


def _bump(cert, i: int, j: int):
    rows = [list(row) for row in cert.summands]
    rows[i][j] += 1
    return replace(cert, summands=tuple(tuple(row) for row in rows))


def check_certificates(pairs, draws: int, mutations: int, seed: int, fault=False) -> dict:
    """Each admissible (sigma, k) pair gets a certificate that the checker
    accepts and whose right-hand side matches the direct sum at `draws`
    random vectors; the first `mutations` certificates are rejected after
    one random count is raised by one.  `fault` corrupts every certificate
    before it is checked, to show how a failure is reported."""
    rng = np.random.default_rng(seed)
    rejected = 0
    for idx, (sigma, k) in enumerate(pairs):
        cert = build_certificate(sigma, k)
        if fault:
            cert = _bump(cert, 0, 0)
        _require(check_certificate(cert, sigma),
                 f"invalid certificate for sigma={sigma.images}, k={k}")
        for _ in range(draws):
            x = rng.uniform(0.3, 3.0, sigma.n)
            _, rhs = certificate_sides(cert, x)
            direct = sum(x[i] / x[sigma.apply(i + 1) - 1] for i in range(sigma.n))
            _require(abs(rhs - direct) <= CERT_RTOL * direct,
                     f"numeric mismatch for sigma={sigma.images}, k={k}")
        if idx < mutations:
            mutated = _bump(cert, int(rng.integers(sigma.n)), int(rng.integers(sigma.n)))
            _require(not check_certificate(mutated, sigma),
                     f"mutated certificate accepted for sigma={sigma.images}, k={k}")
            rejected += 1
    return {"certificates": len(pairs), "mutations": rejected}


def check_shapiro_cases(swap_exponents, holding, refuted, grid_dims,
                        config: SearchConfig) -> dict:
    """The curved-denominator case table.

    At n = 2 with sigma the swap, the minimum of t^k + (1-t)^k over
    t in (0, 1) is 2^(1-k) for each k >= 1 in swap_exponents; it falls below
    the constant right-hand side 1 exactly when k > 1.  For each (sigma, k)
    in `holding`, descent (and the grid oracle for n in grid_dims) finds no
    violation.  For each (sigma, k > 1) in `refuted`, the refuter returns
    the all-ones vector, whose gap is n 2^-k - n/2.
    """
    swap = make_permutation(2, [2, 1])
    for k in swap_exponents:
        min_lhs = minimize_gap(shapiro_type_instance(swap, k), config).gap + 1.0
        _require(abs(min_lhs - 2 ** (1 - k)) <= TOL and (min_lhs < 1) == (k > 1),
                 f"n=2 k={k} minimum {min_lhs}, expected {2 ** (1 - k)}")
    for sigma, k in holding:
        inst = shapiro_type_instance(sigma, k)
        oracles = (grid_oracle, minimize_gap) if sigma.n in grid_dims else (minimize_gap,)
        for oracle in oracles:
            gap = oracle(inst, config).gap
            _require(gap >= -TOL, f"{oracle.__name__} found spurious gap {gap} "
                                  f"at sigma={sigma.images}, k={k}")
    for sigma, k in refuted:
        n = sigma.n
        rep = refute_shapiro_type(sigma, k)
        _require(rep.x == (1.0,) * n and abs(rep.gap - (n * 2 ** -k - n / 2)) <= TOL,
                 f"sigma={sigma.images} k={k} refuted by {rep.x} with gap {rep.gap}")
    return {"minima": len(swap_exponents), "holding": len(holding), "refuted": len(refuted)}


def check_nesbitt(lhs: float, rhs: float, gap: float) -> dict:
    """The fixed counterexample x = (1, 0.1, 0.1) at k = 0.1 has the
    expected sides and a negative gap."""
    rep = refute_nesbitt_exponent()
    _require(rep.x == (1.0, 0.1, 0.1) and rep.gap < 0, f"report {rep.x} with gap {rep.gap}")
    for name, got, want in (("lhs", rep.lhs, lhs), ("rhs", rep.rhs, rhs), ("gap", rep.gap, gap)):
        _require(abs(got - want) <= TOL, f"{name} {got}, expected {want}")
    return {"gap": rep.gap}


def check_band_counts(dims, lucas_max: int) -> dict:
    """The transfer matrix agrees with enumeration at every k < n for n in
    dims, P(n,0) = 1 and P(n,1) = 2, and P(n,2) = 2 + L_n for
    3 <= n <= lucas_max with n = 2 the only outlier."""
    pairs = 0
    for n in dims:
        for k in range(n):
            a = bandcount.count_band_permutations(n, k)
            b = bandcount.brute_force_count(n, k)
            _require(a == b, f"P({n},{k}) transfer matrix {a} != brute force {b}")
            pairs += 1
        _require(bandcount.count_band_permutations(n, 0) == 1, f"P({n},0) != 1")
        _require(bandcount.count_band_permutations(n, 1) == 2, f"P({n},1) != 2")
    rows = bandcount.lucas_identity_report(lucas_max)
    bad = [row.n for row in rows if not row.match]
    _require(bad == [2], f"Lucas identity outliers {bad}, expected [2]")
    for row in rows[1:]:
        _require(row.count == 2 + bandcount.lucas(row.n), f"P({row.n},2) != 2 + L_{row.n}")
    return {"pairs": pairs, "lucas_rows": len(rows)}


def check_properties(dims, sigmas_per_dim: int, scale_draws: int, grad_draws: int,
                     ratio_draws: int, concavity_draws: int, seed: int) -> dict:
    """Scale invariance and analytic gradients over random instances of
    every curved and main kind for n in dims, the unit product of the ratio
    alphabet, and the termwise concavity comparison."""
    rng = np.random.default_rng(seed)
    instances = []
    for n in dims:
        perms = all_perms(n)
        for _ in range(sigmas_per_dim):
            sigma = perms[int(rng.integers(len(perms)))]
            instances.append(main_instance(sigma, float(rng.uniform(-4, 4))))
            instances.append(shapiro_type_instance(sigma, float(rng.uniform(0, 3))))
        instances.append(shapiro_exponent_instance(n, float(rng.uniform(0.1, 2))))
        instances.append(nesbitt_exponent_instance(n, float(rng.uniform(0.05, 2))))
    for inst in instances:
        for _ in range(scale_draws):
            x = rng.uniform(0.05, 20.0, inst.n)
            c = float(rng.uniform(1e-3, 1e3))
            base, scaled = evaluate(inst, x), evaluate(inst, c * x)
            _require(abs(scaled.gap - base.gap) <= SCALE_RTOL * (base.lhs + base.rhs),
                     f"scale invariance broken for {inst.kind.value} at c={c}")
    for inst in instances:
        for _ in range(grad_draws):
            y = rng.uniform(-1.5, 1.5, inst.n)
            _, grad = gap_and_gradient(inst, y)
            fd = np.empty(inst.n)
            for j in range(inst.n):
                yp, ym = y.copy(), y.copy()
                yp[j] += FD_STEP
                ym[j] -= FD_STEP
                fd[j] = (gap_and_gradient(inst, yp)[0]
                         - gap_and_gradient(inst, ym)[0]) / (2 * FD_STEP)
            _require(np.linalg.norm(grad - fd) <= FD_RTOL * max(1.0, np.linalg.norm(grad)),
                     f"{inst.kind.value} gradient disagrees with finite differences")
    for _ in range(ratio_draws):
        x = rng.uniform(0.01, 100.0, int(rng.integers(2, 9)))
        _require(abs(RatioVector.from_x(x).product() - 1) < RATIO_TOL,
                 "ratio product differs from 1")
    for _ in range(concavity_draws):
        n = int(rng.integers(2, 8))
        k2 = float(rng.uniform(0.05, 1.0))
        k1 = float(rng.uniform(0.01, k2))
        x = rng.uniform(0.05, 20.0, n)
        _require(exponent_monotonicity_check(n, k1, k2, x),
                 f"termwise concavity failed at k1={k1}, k2={k2}")
    return {"scale": scale_draws * len(instances), "gradient": grad_draws * len(instances),
            "ratio": ratio_draws, "concavity": concavity_draws}


_SMALL_EXPONENTS = [RationalExponent(0), RationalExponent(1), RationalExponent(2),
                    RationalExponent(3, 2), RationalExponent(-2), RationalExponent(-5, 2)]
_SMALL_PAIRS = [
    (sigma, k)
    for sigma in all_perms(3) + [shift_permutation(4, 1), make_permutation(4, [2, 1, 4, 3])]
    for k in _SMALL_EXPONENTS if holds(sigma, float(k))
]

# (name, check bound to its reduced case set, detail template over its counts)
CHECKS = [
    ("shift-verdicts", partial(check_shift_verdicts, range(3, 9)), "n=3..8, all shifts"),
    ("classifier-vs-oracle",
     partial(check_classifier_vs_oracle, (3,), (), SearchConfig(restarts=8, max_iters=120)),
     "all of S_3, half-integer k grid"),
    ("witness", partial(check_certificates, _SMALL_PAIRS, draws=1, mutations=0, seed=11),
     "{certificates} certificates built, checked, cross-evaluated"),
    ("shapiro-cases",
     partial(check_shapiro_cases, [2.0], [(identity_permutation(3), 0.7)],
             [(make_permutation(3, [2, 3, 1]), 2.0), (identity_permutation(4), 1.5)],
             (), SearchConfig(restarts=12, max_iters=200)),
     "n=2 minimum, all-ones refutations, n=3 k<=1 holds"),
    ("nesbitt", partial(check_nesbitt, 2.7482058274815635, 2.7990989746104222,
                        -0.05089314712885877),
     "gap {gap:.6f} at x=(1, 0.1, 0.1)"),
    ("band-counts", partial(check_band_counts, range(2, 7), 8),
     "transfer matrix == enumeration (n<=6), Lucas identity from n=3"),
    ("properties", partial(check_properties, (4,), 1, scale_draws=5, grad_draws=3,
                           ratio_draws=20, concavity_draws=100, seed=5),
     "scale invariance, gradients, ratio product, concavity"),
]


def run_selftest(inject_fault: str | None = None) -> list[tuple[str, bool, str]]:
    """Run every check in CHECKS; `inject_fault="witness"` corrupts the
    certificates of the witness check, the only one with a fault hook."""
    if inject_fault not in (None, "witness"):
        raise ValueError(f"only the witness check takes an injected fault, got {inject_fault!r}")
    results = []
    for name, check, detail in CHECKS:
        try:
            counts = check(fault=True) if name == inject_fault else check()
            ok, detail = True, detail.format(**counts)
        except CheckFailed as err:
            ok, detail = False, str(err)
        except Exception as err:  # a crash is a failed check, not a crash of the table
            ok, detail = False, f"{type(err).__name__}: {err}"
        results.append((name, ok, detail))
    return results
