"""The four benchmark workloads: job lists drawn from a seed, and their checks.

A workload is a fixed list of job classes.  The seed draws the concrete
permutations, exponents and search seeds inside each class, so one seed
always gives the same jobs and every seed gives the same mix of classes.
A job is one or two CLI calls; its check runs after the timed region.

Why each workload exists:

certify  witness builds.  Bipartite matching dominates: random sigma has
         u = n - 1, so about n^2 rounds; shifts at large n with small u show
         the per-round support rebuild and the size of the certificate.
verify   witness --check-only on certificates built at set-up, half intact
         and half with one summand count changed.  Matching never runs, so
         a format change that speeds building but slows checking shows here.
decide   classify, then search (admissible k) or refute (inadmissible k),
         plus the curved-denominator families.  Descent and refutation do
         the work; witness and count never run.  The draws at n >= 96 with
         an overshoot of 1/2 hit a known OverflowError in refute_main; they
         stay in and count as failures.
count    band counts P(N, K), enumeration oracles and the Lucas table: the
         only workload where the count layer runs.
"""

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable

from checks import (
    ADMISSIBLE_SLACK,
    BandCounts,
    backward_displacements,
    count_table,
    decimal_gap,
    forward_displacements,
    holds,
    lucas,
    positive_vector,
    shift_images,
)

WORKLOADS = ("certify", "verify", "decide", "count")
GAP_AGREEMENT = Decimal("1e-7")


@dataclass
class Call:
    """One cli.main call as the caller saw it."""

    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None  # exception type and where it was raised
    error_layer: str | None = None  # cyclineq module that raised it

    def json(self):
        try:
            return json.loads(self.stdout)
        except json.JSONDecodeError:
            return None


Caller = Callable[[list[str]], Call]
# A check returns None, or (layer charged with the failure, what was wrong).
Check = Callable[[list[Call], Caller], "tuple[str, str] | None"]


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Check
    follow: Callable[[Call], "list[str] | None"] | None = None
    symbol_rounds: int = 0
    cert_file: str | None = None  # certificate whose integers are counted
    out_file: str | None = None   # file the job writes besides stdout
    mutant: bool = False


def sigma_arg(images: list[int]) -> str:
    return json.dumps(images, separators=(",", ":"))


def random_sigma(rng: random.Random, n: int, full_reach: bool = False) -> list[int]:
    """Uniform permutation of 1..n that is not the identity; with full_reach,
    one whose displacements D+ and D- are both n - 1 (about 40% of random
    permutations), so that u and the work of a certificate vary less."""
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        if full_reach and not max(forward_displacements(images)) \
                == max(backward_displacements(images)) == n - 1:
            continue
        if images != list(range(1, n + 1)):
            return images


def _fail(call: Call, what: str) -> str:
    if call.error:
        return f"{what}: {call.error}"
    return f"{what}: exit {call.rc}: {call.stderr.strip()[:200]}"


# ---- certify -----------------------------------------------------------------

def _certify_job(label: str, n: int, sigma: str, images: list[int],
                 u: int, v: int, alphabet: str, out: Path) -> Job:
    k = f"{u if alphabet == 'a' else -u}/{v}"
    want = count_table(images, u, v, alphabet)

    def check(calls: list[Call], call: Caller):
        built = calls[0]
        if built.rc != 0:
            return "witness", _fail(built, "build")
        doc = built.json()
        if not isinstance(doc, dict):
            return "cli", "build printed no JSON object"
        try:
            written = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError) as err:
            return "cli", f"--out file unreadable: {err}"
        for name, got in (("stdout", doc), ("--out", written)):
            if (got.get("u"), got.get("v"), got.get("alphabet")) != (u, v, alphabet):
                return "witness", f"{name} certifies u/v={got.get('u')}/{got.get('v')} " \
                                  f"alphabet={got.get('alphabet')}, asked for {k}"
            if got.get("summands") != want:
                return "witness", f"{name} summands differ from the displacement count table"
        recheck = call(["witness", "--n", str(n), "--sigma", sigma, "--check-only", str(out)])
        if recheck.rc != 0 or (recheck.json() or {}).get("valid") is not True:
            return "witness", _fail(recheck, "own --check-only rejects the certificate")
        return None

    return Job(label, ["witness", "--n", str(n), "--sigma", sigma, f"--k={k}", "--out", str(out)],
               check, symbol_rounds=u * n, cert_file=str(out), out_file=str(out))


def certify_jobs(rng: random.Random, tmp: Path) -> list[Job]:
    jobs = []
    # Two more draws of the slowest class, so that the tail percentile
    # (10 samples beyond it) falls inside one class even at few passes.
    for n, draws in ((16, 1), (24, 1), (32, 3)):
        for draw in range(draws):
            images = random_sigma(rng, n, full_reach=True)
            dp, dm = max(forward_displacements(images)), max(backward_displacements(images))
            ks = (("d+", (dp, 1, "a")), ("-d-", (dm, 1, "b"))) if draw == 0 else ()
            for tag, (u, v, alphabet) in ks + (("(2d+ +1)/2", (2 * dp + 1, 2, "a")),):
                out = tmp / f"cert-{len(jobs)}.json"
                jobs.append(_certify_job(f"random n={n} k={tag}", n, sigma_arg(images),
                                         images, u, v, alphabet, out))
    # Shifts, not random band permutations: the matching work of a band
    # permutation swings several-fold with its structure, which would make
    # the per-pass cost depend on the seed.  With s = 1 the median job is the
    # shift at n = 128, well apart in time from its neighbours.
    for n in (64, 96, 128):
        for s in (1, 3):
            out = tmp / f"cert-{len(jobs)}.json"
            jobs.append(_certify_job(f"shift:{s} n={n} k={s}", n, f"shift:{s}",
                                     shift_images(n, s), s, 1, "a", out))
    return jobs


# ---- verify --------------------------------------------------------------------

VERIFY_POOL = (("random", 24), ("random", 24), ("random", 32), ("random", 32),
               ("random", 48), ("shift:2", 96), ("shift:3", 128))


def _verify_job(label: str, n: int, sigma: str, path: Path, intact: bool, u: int) -> Job:
    def check(calls: list[Call], call: Caller):
        got = calls[0]
        doc = got.json() if got.error is None else None
        if intact:
            if got.rc != 0 or not isinstance(doc, dict) or doc.get("valid") is not True:
                return "witness", _fail(got, "intact certificate not accepted")
        elif got.rc != 1 or not isinstance(doc, dict) or doc.get("valid") is not False \
                or not doc.get("diagnosis"):
            return "witness", _fail(got, "mutated certificate not rejected with a diagnosis")
        return None

    return Job(label, ["witness", "--n", str(n), "--sigma", sigma, "--check-only", str(path)],
               check, symbol_rounds=u * n, cert_file=str(path), mutant=not intact)


def verify_jobs(rng: random.Random, tmp: Path, call: Caller, inject: str | None) -> list[Job]:
    """Build the certificate pool through the CLI, then one intact and one
    mutated check-only job per certificate."""
    jobs = []
    for index, (shape, n) in enumerate(VERIFY_POOL):
        if shape == "random":
            images = random_sigma(rng, n, full_reach=True)
            sigma, u = sigma_arg(images), n - 1
        else:
            sigma, u = shape, int(shape[len("shift:"):])
        intact = tmp / f"pool-{index}.json"
        built = call(["witness", "--n", str(n), "--sigma", sigma, f"--k={u}/1",
                      "--out", str(intact)])
        if built.rc != 0:
            raise RuntimeError(_fail(built, f"building verify pool certificate {index}"))
        doc = json.loads(intact.read_text())
        row, col = rng.randrange(n), rng.randrange(n)
        doc["summands"][row][col] += 1
        mutant = tmp / f"pool-{index}-mutant.json"
        mutant.write_text(json.dumps(doc, indent=2))
        label = f"{shape} n={n} k={u}"
        jobs.append(_verify_job(f"{label} intact", n, sigma, intact, True, u))
        # inject=verify-label: a mutant labelled intact must show up as a failure
        mislabel = inject == "verify-label" and index == 0
        jobs.append(_verify_job(f"{label} mutant", n, sigma, mutant, mislabel, u))
    return jobs


# ---- decide --------------------------------------------------------------------

def _gap_problem(doc, kind: str, n: int, k: float | None, images: list[int] | None,
                 want: str) -> str | None:
    """want: 'violation' (gap < 0), 'admissible' (gap >= -slack) or
    'consistent' (reported gap matches the recomputed one)."""
    if not isinstance(doc, dict):
        return "no JSON object"
    x = positive_vector(doc, n)
    if x is None:
        return f"x is not a positive vector of length {n}"
    gap = decimal_gap(kind, x, k, images)
    if want == "violation" and not gap < 0:
        return f"recomputed gap {gap:.6e} is not negative"
    if want == "admissible" and gap < -Decimal(ADMISSIBLE_SLACK):
        return f"recomputed gap {gap:.6e} < -{ADMISSIBLE_SLACK} at an admissible k"
    reported = [doc.get(key) for key in ("gap", "lhs", "rhs")]
    if not all(isinstance(v, (int, float)) for v in reported):
        return "no numeric gap, lhs and rhs reported"
    # float64 sums lose precision relative to the size of the sides
    scale = max([Decimal(1), abs(gap)] + [abs(Decimal(v)) for v in reported])
    if abs(gap - Decimal(reported[0])) > scale * GAP_AGREEMENT:
        return f"reported gap {reported[0]!r} but recomputed {gap:.6e}"
    return None


def _lifecycle_job(label: str, rng: random.Random, n: int, sigma: str, images: list[int],
                   k: float) -> Job:
    """classify --k, then search --ineq main if admissible, else refute."""
    dp, dm = max(forward_displacements(images)), max(backward_displacements(images))
    admissible = holds(images, k)
    k_arg = f"--k={k!r}"
    search_seed = str(rng.randrange(10**6))

    def follow(first: Call):
        doc = first.json() if first.rc == 0 else None
        if not isinstance(doc, dict) or "holds" not in doc:
            return None
        if doc["holds"]:
            return ["search", "--ineq", "main", "--n", str(n), "--sigma", sigma, k_arg,
                    "--seed", search_seed]
        return ["refute", "--ineq", "main", "--n", str(n), "--sigma", sigma, k_arg]

    def check(calls: list[Call], call: Caller):
        first = calls[0]
        doc = first.json() if first.rc == 0 else None
        if not isinstance(doc, dict):
            return "classify", _fail(first, "classify")
        if (doc.get("d_plus"), doc.get("d_minus"), doc.get("holds")) != (dp, dm, admissible):
            return "classify", f"classify says d+={doc.get('d_plus')} d-={doc.get('d_minus')} " \
                               f"holds={doc.get('holds')}, expected {dp}, {dm}, {admissible}"
        second = calls[1]
        layer = "search" if admissible else "refute"
        if second.rc != 0:
            return layer, _fail(second, layer)
        problem = _gap_problem(second.json(), "main", n, k, images,
                               "admissible" if admissible else "violation")
        return (layer, problem) if problem else None

    return Job(label, ["classify", "--n", str(n), "--sigma", sigma, k_arg], check, follow)


def _single_job(label: str, argv: list[str], layer: str, kind: str, n: int,
                k: float | None, images: list[int] | None, want: str) -> Job:
    def check(calls: list[Call], call: Caller):
        got = calls[0]
        if got.rc != 0:
            return layer, _fail(got, layer)
        problem = _gap_problem(got.json(), kind, n, k, images, want)
        return (layer, problem) if problem else None

    return Job(label, argv, check)


def _has_vanishing_pair_site(images: list[int]) -> bool:
    n = len(images)
    for i in range(1, n + 1):
        j1 = images[i - 1]
        j2 = images[j1 - 1]
        if len({i, j1, j2}) == 3 and (j1 - j2) % n not in (1, n - 1):
            return True
    return False


def _is_involution(images: list[int]) -> bool:
    return all(images[s - 1] == i for i, s in enumerate(images, start=1))


DECIDE_N = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)


def decide_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for n in DECIDE_N:
        images = random_sigma(rng, n)
        sigma = sigma_arg(images)
        dp, dm = max(forward_displacements(images)), max(backward_displacements(images))
        draws = (
            ("k=d+", float(dp)),
            ("k=-d- -1/2", -dm - 0.5),
            ("k=d+ -1/2", dp - 0.5),  # overshoot 1/2: overflows at n >= 96
            ("-d- < k < 0", -round(rng.uniform(0.1, max(dm - 1, 0.2)), 3)),
        )
        for tag, k in draws:
            jobs.append(_lifecycle_job(f"main random n={n} {tag}", rng, n, sigma, images, k))
    for n in (64, 96, 128):
        images = shift_images(n, n - 1)
        for tag, k in (("k=n-1", float(n - 1)), ("k=n-3/2", n - 1.5)):
            jobs.append(_lifecycle_job(f"main shift:{n - 1} n={n} {tag}", rng, n,
                                       f"shift:{n - 1}", images, k))
    for n in (4, 6, 8, 12, 16):
        for k in (0.5, 1.0, 1.5):
            while True:
                images = random_sigma(rng, n)
                if not _is_involution(images) and (k != 1.0 or _has_vanishing_pair_site(images)):
                    break
            argv = ["refute", "--ineq", "shapiro", "--n", str(n), "--sigma", sigma_arg(images),
                    f"--k={k!r}"]
            jobs.append(_single_job(f"refute shapiro random n={n} k={k}", argv, "refute",
                                    "shapiro", n, k, images, "violation"))
    for n in (6, 12):
        # no vanishing-pair site: the refuter falls back to numeric search
        argv = ["refute", "--ineq", "shapiro", "--n", str(n), "--sigma", f"shift:{n - 1}", "--k=1"]
        jobs.append(_single_job(f"refute shapiro shift:{n - 1} n={n} k=1", argv, "refute",
                                "shapiro", n, 1.0, shift_images(n, n - 1), "violation"))
    for n in (4, 8, 12, 16):
        for k in (0.7, 0.9):
            argv = ["search", "--ineq", "shapiro-exponent", "--n", str(n), f"--k={k!r}",
                    "--seed", str(rng.randrange(10**6))]
            jobs.append(_single_job(f"search shapiro-exponent n={n} k={k}", argv, "search",
                                    "shapiro-exponent", n, k, None, "consistent"))
    for n in (3, 4, 5):
        for k in (0.1, 0.5, 1.5):
            argv = ["search", "--ineq", "nesbitt-exponent", "--n", str(n), f"--k={k!r}", "--grid"]
            # the inequality holds for k >= 1 (power mean over Nesbitt)
            jobs.append(_single_job(f"grid nesbitt-exponent n={n} k={k}", argv, "search",
                                    "nesbitt-exponent", n, k, None,
                                    "admissible" if k >= 1 else "consistent"))
    return jobs


# ---- count ---------------------------------------------------------------------

def count_jobs(counts: BandCounts) -> list[Job]:
    def band_check(n: int, k: int, oracle: bool):
        def check(calls: list[Call], call: Caller):
            got = calls[0]
            doc = got.json() if got.rc == 0 else None
            if not isinstance(doc, dict):
                return "count", _fail(got, "count")
            problem = counts.problem(n, k, doc.get("count"))
            if problem is None and oracle:
                problem = counts.problem(n, k, doc.get("oracle_count"))
                if problem is None and doc.get("match") is not True:
                    problem = "oracle and count agree but match is not true"
            return ("count", problem) if problem else None
        return check

    def lucas_check(n_max: int, csv: bool):
        def check(calls: list[Call], call: Caller):
            got = calls[0]
            if got.rc != 0:
                return "count", _fail(got, "lucas table")
            if csv:
                lines = got.stdout.split()
                if lines[:1] != ["n,count,lucas_plus_two,match"]:
                    return "count", "lucas table CSV header missing"
                try:
                    rows = [{"n": int(n), "count": int(count), "lucas_plus_two": int(want),
                             "match": {"True": True, "False": False}.get(match)}
                            for n, count, want, match in (line.split(",") for line in lines[1:])]
                except ValueError as err:
                    return "count", f"lucas table CSV row unreadable: {err}"
            else:
                doc = got.json()
                rows = doc.get("rows") if isinstance(doc, dict) else None
            if not isinstance(rows, list) \
                    or [r.get("n") for r in rows] != list(range(2, n_max + 1)):
                return "count", _fail(got, "lucas table rows")
            for row in rows:
                n, want = row["n"], 2 + lucas(row["n"])
                problem = counts.problem(n, 2, row.get("count"))
                if problem is None and row.get("lucas_plus_two") != want:
                    problem = (f"lucas_plus_two at n={n} is {row.get('lucas_plus_two')}, "
                               f"expected {want}")
                if problem is None and row.get("match") is not (row.get("count") == want):
                    problem = f"match flag wrong at n={n}"
                if problem:
                    return "count", problem
            return None
        return check

    # P(18, 5) and the CSV table are two more slow jobs: the median job then
    # sits inside the n = 15 group rather than at its edge, and the tail
    # (10 samples beyond it) inside the n = 18 group even at four passes.
    jobs = []
    for n, k in [(n, k) for n in range(12, 19) for k in (2, 3, 4)] + [(18, 5)]:
        jobs.append(Job(f"count n={n} k={k}", ["count", "--n", str(n), "--k", str(k)],
                        band_check(n, k, False)))
    for n in (7, 8, 9):
        for k in (2, 3, 4):
            jobs.append(Job(f"count --oracle n={n} k={k}",
                            ["count", "--n", str(n), "--k", str(k), "--oracle"],
                            band_check(n, k, True)))
    jobs.append(Job("count --lucas-table 16", ["count", "--lucas-table", "16"],
                    lucas_check(16, csv=False)))
    jobs.append(Job("count --lucas-table 16 --csv", ["count", "--lucas-table", "16", "--csv"],
                    lucas_check(16, csv=True)))
    return jobs


def build(workload: str, seed: int, tmp: Path, call: Caller, inject: str | None) -> list[Job]:
    """The job list of one workload, in the seeded order each pass runs it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        jobs = certify_jobs(rng, tmp)
    elif workload == "verify":
        jobs = verify_jobs(rng, tmp, call, inject)
    elif workload == "decide":
        jobs = decide_jobs(rng)
    elif workload == "count":
        counts = BandCounts()
        if inject == "count-pin":
            counts.pinned[(15, 3)] += 1
        jobs = count_jobs(counts)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs
