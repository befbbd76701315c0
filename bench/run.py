"""Closed-loop benchmark of the cyclineq command line.

    python3 bench/run.py --workload {certify,verify,decide,count} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; cyclineq is imported from its
`src/` directory, and the run stops with an error when that is missing.
One caller runs `cyclineq.cli.main(argv)` in this process and sends the next
job only when the previous one returns.  The job list of a workload is drawn
from the seed (see workloads.py) and run in whole passes until the time spent
inside cli.main reaches --seconds.  Each job's output is checked after its
timed region.

On a shared host the speed drifts by a factor of two or more over seconds
to minutes as neighbours load it.  So the end-to-end times are scaled to a
reference host speed: a fixed probe (probe()) runs before every job, and
each job's wall and CPU time is multiplied by REFERENCE_PROBE_S over the
median of the probes next to it; set-up is scaled the same way.  The
unscaled values are printed on a '#' line beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every job twice,
once plain and once with spans around each layer (tracing.py), prints the
per-layer metrics and the tracing overhead, and writes the spans to
bench/out/.  Either way the last line of stdout is one JSON object; the lines
before it, starting with '#', record the environment, the job mix, the tail
percentile and every failure.
"""

import os

# One BLAS/OpenMP thread: set before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from checks import count_integers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Call, build  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
DEADLINE_S = 150.0  # stop starting jobs after this much real time
STARTED = time.monotonic()
# Median probe() time on the host the bounds were tuned on (2 shared x86_64
# vCPUs, Python 3.11, numpy 2.4); any constant would do as the unit.
REFERENCE_PROBE_S = 0.0015
SETUP_PROBES = 5
PROBE_WINDOW = 3  # a job is scaled by the median of the 2 * 3 + 1 probes around it


def probe() -> float:
    """Seconds for a fixed piece of interpreter and numpy work, which tells
    how fast the host runs right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    vector = numpy.arange(2000.0)
    float(vector @ vector)
    return time.perf_counter() - start


def speed_scale(probes: list[float]) -> float:
    """Factor that takes a time measured next to these probes to the
    reference host speed."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def import_cyclineq():
    """Import cyclineq afresh from the checkout and return its modules."""
    for name in [m for m in sys.modules if m == "cyclineq" or m.startswith("cyclineq.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("cyclineq.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cyclineq was imported from {cli.__file__}, not from {SRC}")
    return {name: mod for name, mod in sys.modules.items() if name.startswith("cyclineq")}


def describe(exc: BaseException) -> tuple[str, str]:
    """(layer, one line) for an exception escaping cli.main: the layer is the
    cyclineq module of the innermost frame inside the package."""
    frames = traceback.extract_tb(exc.__traceback__)
    inside = [f for f in frames if Path(f.filename).resolve().is_relative_to(SRC.resolve())]
    where = (inside or frames)[-1]
    layer = Path(where.filename).stem if inside else "cli"
    return layer, f"{type(exc).__name__} at {Path(where.filename).name}:{where.lineno} " \
                  f"in {where.name}: {exc}"


def caller(main):
    """Run main(argv) with stdout and stderr captured."""
    def call(argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        rc, layer, error = None, None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                layer, error = describe(exc)
        return Call(argv, rc, out.getvalue(), err.getvalue(), error, layer)
    return call


def setup(workload: str, seed: int, inject: str | None):
    """Import cyclineq, draw the jobs and build any pool, SETUP_REPEATS times.

    Returns (modules, jobs, tmp dir, median set-up seconds unscaled and
    scaled to the reference host speed)."""
    OUT_DIR.mkdir(exist_ok=True)
    times, scaled, tmp = [], [], None
    for _ in range(SETUP_REPEATS):
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
        scale = speed_scale([probe() for _ in range(SETUP_PROBES)])
        start = time.perf_counter()
        modules = import_cyclineq()
        jobs = build(workload, seed, tmp, caller(modules["cyclineq.cli"].main), inject)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * scale)
    return modules, jobs, tmp, (statistics.median(times), statistics.median(scaled))


def mix_key(argv: list[str]) -> str:
    words = [argv[0]]
    if "--ineq" in argv:
        words.append(argv[argv.index("--ineq") + 1])
    words += [a for a in argv
              if a in ("--check-only", "--oracle", "--grid", "--lucas-table", "--csv")]
    return " ".join(words)


class Recorder:
    """Per-job samples and failures of one kind of execution (plain or traced)."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.failures: list[tuple[str, str, str, list[str]]] = []  # label, layer, what, argv
        self.wrong = 0  # outputs that failed a check (crashes are not counted here)
        self.probes: list[float] = []  # probe() run just before each job
        self.sizes = Counter()  # job_facts, summed over the jobs
        self.mutants = self.rejected = 0

    def scales(self) -> list[float]:
        """Each job's speed_scale, from the probes of the jobs around it."""
        w = PROBE_WINDOW
        return [speed_scale(self.probes[max(0, i - w):i + w + 1])
                for i in range(len(self.probes))]

    def add(self, job, calls, wall, cpu, call_plain) -> bool:
        """Record one job and check its output; True when it failed."""
        self.walls.append(wall)
        self.cpus.append(cpu)
        crashed = next((c for c in calls if c.error), None)
        if crashed is not None:
            self.failures.append((job.label, crashed.error_layer, crashed.error, crashed.argv))
            return True
        problem = job.check(calls, call_plain)
        if problem is not None:
            self.wrong += 1
            self.failures.append((job.label, problem[0], problem[1], calls[-1].argv))
            return True
        return False


def run_job(job, call):
    """The job's CLI calls; returns (calls, wall seconds, cpu seconds) spent
    inside cli.main."""
    calls, wall, cpu = [], 0.0, 0.0
    argv = job.argv
    while argv is not None:
        c0, t0 = time.process_time(), time.perf_counter()
        got = call(argv)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        calls.append(got)
        argv = job.follow(got) if job.follow and len(calls) == 1 else None
    return calls, wall, cpu


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def job_facts(job, calls) -> dict:
    """Sizes a traced job handled, read from its inputs and outputs."""
    out_bytes = sum(len(c.stdout.encode()) for c in calls)
    cert_ints = 0
    if job.out_file and os.path.exists(job.out_file):
        out_bytes += os.path.getsize(job.out_file)
    if job.cert_file and os.path.exists(job.cert_file):
        with open(job.cert_file, encoding="utf-8") as fh:
            cert_ints = count_integers(json.load(fh))
    return {"out_bytes": out_bytes, "cert_ints": cert_ints, "symbol_rounds": job.symbol_rounds}


def measure(jobs, seconds: float, call_plain, tracer=None, call_traced=None):
    """Whole passes over jobs until the time spent in cli.main reaches seconds.

    With a tracer every job runs plain and traced, alternating which goes
    first; the tracer is removed again before the job's output is checked.
    """
    plain, traced = Recorder(), Recorder()
    busy, passes, index = 0.0, 0, 0
    run_job(jobs[0], call_plain)  # warm-up, not measured
    while passes == 0 or busy < seconds:
        for job in jobs:
            if time.monotonic() - STARTED > DEADLINE_S:
                print(f"# deadline: stopped after {passes} whole passes", flush=True)
                return plain, traced, passes
            if tracer is None:
                plain.probes.append(probe())
            modes = (False,) if tracer is None else (False, True) if index % 2 else (True, False)
            for with_spans in modes:
                if with_spans:
                    tracer.job = len(traced.walls)
                    tracer.install()
                    try:
                        calls, wall, cpu = run_job(job, call_traced)
                    finally:
                        tracer.uninstall()
                    failed = traced.add(job, calls, wall, cpu, call_plain)
                    traced.sizes.update(job_facts(job, calls))
                    traced.mutants += job.mutant
                    traced.rejected += job.mutant and not failed
                else:
                    calls, wall, cpu = run_job(job, call_plain)
                    plain.add(job, calls, wall, cpu, call_plain)
                busy += wall
            index += 1
        passes += 1
    return plain, traced, passes


def end_to_end(walls: list[float], cpus: list[float], failed: int,
               setup_s: float) -> tuple[dict, float]:
    attempted = len(walls)
    ok = attempted - failed
    value, pct = tail(walls)
    metrics = {
        "jobs_per_s": (ok / sum(walls), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(walls), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "cpu_ms_per_job": (1000 * sum(cpus) / attempted, "ms"),
        "success_rate": (ok / attempted, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, pct


def per_layer(tracer, plain: Recorder, traced: Recorder) -> dict:
    jobs = len(traced.walls)
    totals = tracer.summary()
    failed = Counter(layer for _, layer, _, _ in traced.failures)

    def per_job(key, scale=1.0):
        return scale * totals.get(key, 0.0) / jobs

    metrics = {
        "cli.self_ms": (per_job("cli.self_s", 1000), "ms/job"),
        "cli.out_bytes": (traced.sizes["out_bytes"] / jobs, "B/job"),
        "witness.build_calls": (per_job("witness:build_certificate.calls"), "count/job"),
        "witness.build_self_ms": (per_job("witness:build_certificate.self_s", 1000), "ms/job"),
        "witness.symbol_rounds": (traced.sizes["symbol_rounds"] / jobs, "count/job"),
        "witness.cert_ints": (traced.sizes["cert_ints"] / jobs, "count/job"),
        "witness.check_calls": (per_job("witness:check_certificate.calls"), "count/job"),
        "witness.check_self_ms": (per_job("witness:check_certificate.self_s", 1000), "ms/job"),
        "witness.mutants_rejected": (traced.rejected / traced.mutants if traced.mutants else 0.0,
                                     "fraction"),
        "search.restarts": (per_job("search.restarts"), "count/job"),
        "search.iterations": (per_job("search.iterations"), "count/job"),
        "search.clip_hits": (per_job("search.clip_hits"), "count/job"),
        "search.grid_points": (per_job("search.grid_points"), "count/job"),
        "refute.search_fallbacks": (per_job("refute.search_fallbacks"), "count/job"),
        "count.calls": (per_job("count.calls") - per_job("count:brute_force_count.calls"),
                        "count/job"),
        "count.self_ms": (per_job("count.self_s", 1000)
                          - per_job("count:brute_force_count.self_s", 1000), "ms/job"),
        "count.oracle_calls": (per_job("count:brute_force_count.calls"), "count/job"),
        "count.oracle_self_ms": (per_job("count:brute_force_count.self_s", 1000), "ms/job"),
    }
    for layer in ("perm", "classify", "search", "refute"):
        metrics[f"{layer}.calls"] = (per_job(f"{layer}.calls"), "count/job")
        metrics[f"{layer}.self_ms"] = (per_job(f"{layer}.self_s", 1000), "ms/job")
    for layer in ("cli", "classify", "witness", "search", "refute", "count"):
        metrics[f"{layer}.failures"] = (failed[layer] / jobs, "count/job")
    metrics["trace.overhead_frac"] = (sum(traced.walls) / sum(plain.walls) - 1, "fraction")
    return metrics


def report_failures(rec: Recorder, mode: str) -> None:
    groups = Counter((label, layer, what) for label, layer, what, _ in rec.failures)
    example = {(label, layer, what): argv for label, layer, what, argv in rec.failures}
    for key, times in sorted(groups.items()):
        label, layer, what = key
        shown = " ".join(a if len(a) <= 40 else a[:30] + "...]" for a in example[key])
        print(f"# {mode} failure x{times} [{layer}] {label}: {what} -- cyclineq {shown}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("verify-label", "count-pin"),
                        help="plant a wrong expected answer (smoke test of the checks)")
    args = parser.parse_args(argv)

    if not (SRC / "cyclineq" / "__init__.py").is_file():
        print(f"error: no cyclineq sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = None
    try:
        modules, jobs, tmp, setup_s = setup(args.workload, args.seed, args.inject)
        numpy = sys.modules.get("numpy")
        env = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", None),
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "machine": platform.machine(), "loop": "closed, 1 caller, in-process",
        }
        print("# env " + json.dumps(env))
        print("# mix " + json.dumps(dict(Counter(mix_key(j.argv) for j in jobs)))
              + f" ({len(jobs)} jobs per pass)")
        main_fn = modules["cyclineq.cli"].main
        call_plain = caller(main_fn)
        if args.trace:
            tracer = Tracer(modules)
            plain, traced, passes = measure(jobs, args.seconds, call_plain, tracer,
                                            caller(tracer.wrap(main_fn, "cli")))
            metrics = per_layer(tracer, plain, traced)
            covered = sum(v for k, v in tracer.summary().items()
                          if k.endswith(".self_s") and ":" not in k)
            print(f"# layer self times sum to {1000 * covered / len(traced.walls):.3f} ms/job "
                  f"of {1000 * sum(traced.walls) / len(traced.walls):.3f} ms/job traced wall; "
                  f"plain wall {1000 * sum(plain.walls) / len(plain.walls):.3f} ms/job")
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"# {passes} passes; {len(tracer.spans)} spans written to "
                  f"{spans.relative_to(ROOT)}")
            everything = plain.failures + traced.failures
            attempted = len(plain.walls) + len(traced.walls)
            report_failures(plain, "plain")
            report_failures(traced, "traced")
            wrong = plain.wrong + traced.wrong
        else:
            plain, _, passes = measure(jobs, args.seconds, call_plain)
            everything, wrong = plain.failures, plain.wrong
            attempted = len(plain.walls)
            raw, _ = end_to_end(plain.walls, plain.cpus, len(everything), setup_s[0])
            scales = plain.scales()
            metrics, pct = end_to_end([w * f for w, f in zip(plain.walls, scales)],
                                      [c * f for c, f in zip(plain.cpus, scales)],
                                      len(everything), setup_s[1])
            print("# unscaled: " + ", ".join(f"{name} {value:.6g}" for name, (value, _)
                                             in raw.items()))
            print(f"# speed scale: {min(scales):.3f} to {max(scales):.3f}")
            print(f"# {passes} passes; latency_tail_ms is p{pct:.2f} of {attempted} jobs "
                  f"({TAIL_BEYOND} beyond it)")
            print(f"# error_rate {len(everything) / attempted:.6f} "
                  f"({len(everything)} of {attempted} jobs failed)")
            report_failures(plain, "plain")
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(everything),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
