"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Each criterion runs the check body that `cyclineq selftest` runs,
bound here to the full case set, and asserts how many cases it checked.
The bodies' tolerances are constants of cyclineq.selftest, pinned below,
so loosening one there fails here.
"""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

from cyclineq import (
    SearchConfig,
    block_alphabet_counts,
    cyclic_blocks,
    holds,
    identity_permutation,
    make_permutation,
)
from cyclineq import selftest
from cyclineq.selftest import (
    all_perms,
    check_band_counts,
    check_certificates,
    check_classifier_vs_oracle,
    check_nesbitt,
    check_properties,
    check_shapiro_cases,
    check_shift_verdicts,
)


def test_tolerances_are_pinned():
    assert (selftest.TOL, selftest.CERT_RTOL, selftest.SCALE_RTOL, selftest.FD_STEP,
            selftest.FD_RTOL, selftest.RATIO_TOL) == (1e-9, 1e-10, 1e-12, 1e-6, 1e-6, 1e-12)


def test_criterion_1_classifier_oracle_equivalence():
    """holds() agrees with the numeric oracles and the refuter everywhere."""
    config = SearchConfig(restarts=50, max_iters=150, seed=0, grid_points_per_dim=13)
    counts = check_classifier_vs_oracle((2, 3, 4, 5), (2, 3, 4), config)
    assert counts == {"permutations": 152, "admissible": 1212, "refuted": 1812}
    print(f"\n[ACCEPTANCE 1] PASS  {counts['permutations']} permutations, "
          f"{counts['admissible']} admissible and {counts['refuted']} refuted (sigma, k) pairs")


def _rational_candidates():
    ks = set()
    for u in range(0, 7):
        for v in (1, 2, 3):
            if math.gcd(u, v) == 1:
                ks.add(Fraction(u, v))
                ks.add(Fraction(-u, v))
    return sorted(ks)


def test_criterion_2_certificate_soundness_and_semantics():
    """>= 100 admissible rational pairs: checked, numerically faithful,
    and rejecting single-count mutations."""
    candidates = _rational_candidates()
    pairs = []
    for n in (2, 3, 4, 5):
        for sigma in all_perms(n):
            admissible = [k for k in candidates if holds(sigma, float(k))]
            pos = [k for k in admissible if k >= 0]
            neg = [k for k in admissible if k < 0]
            if pos:
                pairs.append((sigma, max(pos, key=lambda q: (q.denominator, -q))))
            if neg:
                pairs.append((sigma, min(neg, key=lambda q: (q.denominator, -q))))
    counts = check_certificates(pairs, draws=10, mutations=25, seed=42)
    assert counts == {"certificates": 304, "mutations": 25}
    print(f"\n[ACCEPTANCE 2] PASS  {counts['certificates']} certificates checked at 10 "
          f"random vectors each; {counts['mutations']} mutations rejected")


def test_criterion_3_shift_corollaries():
    """Every cyclic shift classifies to exactly its shift thresholds."""
    counts = check_shift_verdicts(range(3, 9))
    assert counts == {"shifts": 33}
    print(f"\n[ACCEPTANCE 3] PASS  {counts['shifts']} shifts over n=3..8")


def test_criterion_4_equal_multiplicity_in_every_block():
    """Closed fraction chains use every ratio variable equally often."""
    blocks_checked = 0
    for n in range(2, 7):
        for sigma in all_perms(n):
            for block in cyclic_blocks(sigma)[1]:
                counts = block_alphabet_counts(block, n)
                assert len(set(counts)) == 1, (sigma.images, block.fractions, counts)
                blocks_checked += 1
    print(f"\n[ACCEPTANCE 4] PASS  {blocks_checked} blocks over all of "
          f"S_2..S_6, each with uniform alphabet counts")


def test_criterion_5_curved_denominator_table():
    """The dimension-by-dimension case table for curved denominators: the
    n=2 closed-form minimum, n=3 holding up to exponent 1 and failing at
    1.5, and the n=4 all-ones gap 4/2^1.5 - 2."""
    swap = make_permutation(2, [2, 1])
    n3 = (identity_permutation(3), make_permutation(3, [2, 1, 3]))
    counts = check_shapiro_cases(
        swap_exponents=[1.0, 1.2, 1.5, 2.0, 3.0],
        holding=[(swap, 0.3), (swap, 0.8)] + [(s, k) for s in n3 for k in (0.4, 0.9, 1.0)],
        refuted=[(s, 1.5) for s in n3] + [(identity_permutation(4), 1.5)],
        grid_dims=(3,),
        config=SearchConfig(restarts=50, max_iters=400, seed=0, grid_points_per_dim=13),
    )
    assert counts == {"minima": 5, "holding": 8, "refuted": 3}
    print("\n[ACCEPTANCE 5] PASS  n=2 closed-form minimum, n=3 threshold at "
          "k=1, n=4 all-ones gap -0.5857864376")


def test_criterion_6_small_exponent_counterexample():
    """x=(1, 0.1, 0.1), k=0.1 violates the constant bound; the pinned gap
    is recomputed here with 40-digit arithmetic before comparing."""
    getcontext().prec = 40

    def dpow(base, expo):
        return (Decimal(expo) * Decimal(base).ln()).exp()

    lhs = dpow(5, "0.1") + 2 * dpow(Decimal(1) / 11, "0.1")
    rhs = 3 * dpow(2, "-0.1")
    assert abs(float(lhs - rhs) - (-0.05089314712885877)) < 1e-15
    gap = check_nesbitt(float(lhs), float(rhs), float(lhs - rhs))["gap"]
    print(f"\n[ACCEPTANCE 6] PASS  gap {gap:.12f} matches the "
          f"independently recomputed {float(lhs - rhs):.12f}")


def test_criterion_7_band_counts():
    """Transfer-matrix counting agrees with enumeration; the Lucas identity
    holds above the empirically pinned outlier n=2."""
    counts = check_band_counts(range(2, 9), 12)
    assert counts == {"pairs": 35, "lucas_rows": 11}
    print("\n[ACCEPTANCE 7] PASS  permanents == enumeration for n<=8; "
          "P(n,2) = 2 + L_n for 3 <= n <= 12; outlier set {2}")


def test_criterion_8_property_suite():
    """Scale invariance, gradient agreement, unit ratio product, and the
    termwise concavity comparison, at full draw counts."""
    counts = check_properties((2, 3, 4, 5), 3, scale_draws=10, grad_draws=3,
                              ratio_draws=300, concavity_draws=1000, seed=2024)
    assert counts == {"scale": 320, "gradient": 96, "ratio": 300, "concavity": 1000}
    print(f"\n[ACCEPTANCE 8] PASS  {counts['scale']} scale draws, {counts['gradient']} "
          f"gradient draws, {counts['ratio']} ratio products, "
          f"{counts['concavity']} concavity draws, 0 failures")
