"""Smoke test of the benchmark itself, every workload at minimum size.

    python3 bench/smoke.py

Runs each workload for one pass in both modes and checks that every metric
BENCHMARK.json names is printed with its unit, that a planted wrong answer
(a mutated certificate labelled intact, a wrong pinned count) shows up as a
failure, and that the benchmark refuses to run without the cyclineq sources.
Exits 1 when any of that does not hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            got = result(run(ROOT, workload, trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            units = {name: m["unit"] for name, m in got["metrics"].items()}
            if units != want:
                problems.append(f"{workload} --trace {trace}: metrics {units} != {want}")
            if not all(isinstance(m["value"], (int, float)) for m in got["metrics"].values()):
                problems.append(f"{workload} --trace {trace}: a metric value is not a number")
            if got["correct"] is not True or got["attempted"] < 1:
                problems.append(f"{workload} --trace {trace}: correct={got['correct']} "
                                f"attempted={got['attempted']}")
            print(f"{workload} --trace {trace}: {len(units)} metrics, "
                  f"{got['failed']} of {got['attempted']} jobs failed", flush=True)

    for workload, inject in (("verify", "verify-label"), ("count", "count-pin")):
        got = result(run(ROOT, workload, 0, "--inject", inject))
        success = got["metrics"]["success_rate"]["value"]
        if got["failed"] < 1 or success >= 1 or got["correct"] is not False:
            problems.append(f"--inject {inject} on {workload} went unnoticed: {got}")
        print(f"{workload} --inject {inject}: error_rate {1 - success:.4f}", flush=True)

    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "count", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without the cyclineq sources")
        print(f"without sources: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
