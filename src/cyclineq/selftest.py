"""Reduced-budget end-to-end checks behind the `selftest` command.

Each check is a scaled-down version of one acceptance-style property so the
whole battery finishes in seconds.  A check returns (ok, detail); the
driver renders the pass/fail table and the exit code.
"""

import itertools
import math

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
    main_instance,
    minimize_gap,
    shapiro_type_instance,
)
from .witness import RationalExponent, RatioVector, build_certificate, \
    certificate_sides, check_certificate

NESBITT_GAP = -0.05089314712885877


def _all_perms(n):
    return [make_permutation(n, p) for p in itertools.permutations(range(1, n + 1))]


def check_shift_verdicts(fault=False):
    for n in range(3, 9):
        for s in range(n):
            verdict = admissible_exponents(shift_permutation(n, s))
            if (verdict.d_plus, verdict.d_minus) != (s % n, (n - s) % n):
                return False, f"shift s={s}, n={n} gave {verdict}"
    return True, "n=3..8, all shifts"


def check_classifier_vs_oracle(fault=False):
    config = SearchConfig(restarts=8, max_iters=120, seed=0)
    for sigma in _all_perms(3):
        for twice_k in range(-6, 7):
            k = twice_k / 2.0
            if holds(sigma, k):
                gap = minimize_gap(main_instance(sigma, k), config).gap
                if gap < -1e-9:
                    return False, f"false negative at sigma={sigma.images}, k={k}"
            else:
                gap = refute_main(sigma, k).gap
                if gap >= -1e-9:
                    return False, f"weak refutation at sigma={sigma.images}, k={k}"
    return True, "all of S_3, half-integer k grid"


def check_certificates(fault=False):
    rng = np.random.default_rng(11)
    candidates = [RationalExponent(0), RationalExponent(1), RationalExponent(2),
                  RationalExponent(3, 2), RationalExponent(-2), RationalExponent(-5, 2)]
    built = 0
    for sigma in _all_perms(3) + [shift_permutation(4, 1), make_permutation(4, [2, 1, 4, 3])]:
        for k in candidates:
            if not holds(sigma, float(k)):
                continue
            cert = build_certificate(sigma, k)
            if fault:
                rows = [list(r) for r in cert.summands]
                rows[0][0] += 1
                cert = type(cert)(cert.n, cert.u, cert.v, cert.alphabet,
                                  tuple(tuple(r) for r in rows), cert.rounds)
            if not check_certificate(cert, sigma):
                return False, f"invalid certificate for sigma={sigma.images}, k={k}"
            x = rng.uniform(0.5, 2.0, sigma.n)
            lhs, rhs = certificate_sides(cert, x)
            direct = sum(x[i] / x[sigma.apply(i + 1) - 1] for i in range(sigma.n))
            if abs(rhs - direct) > 1e-10 * direct:
                return False, f"numeric mismatch for sigma={sigma.images}, k={k}"
            built += 1
    return True, f"{built} certificates built, checked, cross-evaluated"


def check_shapiro_cases(fault=False):
    config = SearchConfig(restarts=12, max_iters=200, seed=0)
    gap = minimize_gap(shapiro_type_instance(make_permutation(2, [2, 1]), 2.0), config).gap
    if abs(gap - (-0.5)) > 1e-6:
        return False, f"n=2 k=2 minimum gap {gap}, expected -0.5"
    rep = refute_shapiro_type(make_permutation(3, [2, 3, 1]), 2.0)
    if abs(rep.gap - (-0.75)) > 1e-9 or rep.x != (1.0, 1.0, 1.0):
        return False, f"n=3 three-cycle k=2 report {rep.gap}"
    rep = refute_shapiro_type(identity_permutation(4), 1.5)
    if abs(rep.gap - (math.sqrt(2) - 2)) > 1e-9:
        return False, f"n=4 identity k=1.5 gap {rep.gap}"
    gap = minimize_gap(shapiro_type_instance(identity_permutation(3), 0.7), config).gap
    if gap < -1e-9:
        return False, f"n=3 identity k=0.7 found spurious gap {gap}"
    return True, "n=2 minimum, all-ones refutations, n=3 k<=1 holds"


def check_nesbitt(fault=False):
    rep = refute_nesbitt_exponent()
    if abs(rep.gap - NESBITT_GAP) > 1e-9:
        return False, f"gap {rep.gap}, expected {NESBITT_GAP}"
    return True, f"gap {rep.gap:.6f} at x=(1, 0.1, 0.1)"


def check_band_counts(fault=False):
    for n in range(2, 7):
        for k in range(n):
            a = bandcount.count_band_permutations(n, k)
            b = bandcount.brute_force_count(n, k)
            if a != b:
                return False, f"P({n},{k}) transfer matrix {a} != brute force {b}"
        if bandcount.count_band_permutations(n, 0) != 1:
            return False, f"P({n},0) != 1"
        if bandcount.count_band_permutations(n, 1) != 2:
            return False, f"P({n},1) != 2"
    bad = [row.n for row in bandcount.lucas_identity_report(8) if not row.match]
    if bad != [2]:
        return False, f"Lucas identity outliers {bad}, expected [2]"
    return True, "transfer matrix == enumeration (n<=6), Lucas identity from n=3"


def check_properties(fault=False):
    rng = np.random.default_rng(5)
    sigma = make_permutation(4, [2, 1, 4, 3])
    for _ in range(20):
        x = rng.uniform(0.2, 5.0, 4)
        c = float(rng.uniform(1e-3, 1e3))
        inst = main_instance(sigma, float(rng.uniform(-3, 3)))
        r1, r2 = evaluate(inst, x), evaluate(inst, c * x)
        if abs(r1.gap - r2.gap) > 1e-12 * (r1.lhs + r1.rhs):
            return False, f"scale invariance broken at c={c}"
        ratios = RatioVector.from_x(x)
        if abs(ratios.product() - 1) > 1e-12:
            return False, "ratio product differs from 1"
    for _ in range(10):
        y = rng.uniform(-1.5, 1.5, 4)
        y[0] = 0.0
        inst = main_instance(sigma, float(rng.uniform(-3, 3)))
        _, grad = gap_and_gradient(inst, y)
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(4):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd[j] = (gap_and_gradient(inst, yp)[0] - gap_and_gradient(inst, ym)[0]) / (2 * h)
        if np.linalg.norm(grad - fd) > 1e-6 * max(1.0, np.linalg.norm(grad)):
            return False, "analytic gradient disagrees with finite differences"
    for _ in range(100):
        k2 = float(rng.uniform(0.05, 1.0))
        k1 = float(rng.uniform(0.01, k2))
        x = rng.uniform(0.1, 10.0, 5)
        if not exponent_monotonicity_check(5, k1, k2, x):
            return False, f"termwise concavity failed at k1={k1}, k2={k2}"
    return True, "scale invariance, gradients, ratio product, concavity"


CHECKS = [
    ("shift-verdicts", check_shift_verdicts),
    ("classifier-vs-oracle", check_classifier_vs_oracle),
    ("witness", check_certificates),
    ("shapiro-cases", check_shapiro_cases),
    ("nesbitt", check_nesbitt),
    ("band-counts", check_band_counts),
    ("properties", check_properties),
]


def run_selftest(inject_fault: str | None = None) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(fault=(inject_fault == name))
        except Exception as err:  # a crash is a failed check, not a crash of the table
            ok, detail = False, f"{type(err).__name__}: {err}"
        results.append((name, ok, detail))
    return results
