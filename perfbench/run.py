"""The crepant benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in perfbench/jobs.py.
Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
closed loop, one job at a time.

--trace 0 measures the end-to-end metrics with no instrumentation.  It runs
at least two passes, and more until S seconds are used.  Each job's time is
divided by the time of a fixed reference computation run just before and
after it (worker.reference), and the median over passes is taken.  wall_ref
is the sum of these ratios over the jobs, slowest_job_ref the largest,
peak_rss_mb the median over passes of the worker's peak resident set, and
setup_s the median time from spawn to the first job (interpreter start,
import crepant, job generation) over ten set-up-only interpreters and the
passes, each divided by the reference timed right after it and scaled to
the reference's time on a free core (worker.REFERENCE_S).  The same times
in plain seconds are printed as wall_s, slowest_job_s and setup_plain_s,
but not reported: on a shared host they drift too much.

--trace 1 gives the per-layer metrics: one pass without instrumentation, one
pass with spans on the public functions (self time and calls per function),
one pass counting the hot operators, and a cyclotomic multiply probe.  Spans
are written to perfbench/out/.

Every job's answer is checked against perfbench/oracle.py, and the rendered
reports of one seed must be byte-identical across all passes.  The last line
of stdout is the JSON result; the exit code is 0 only if every job was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import jobs
import oracle
from spans import COUNTED, SPAN_NAMES, layer_totals, root_balance
from worker import REFERENCE_S

DEADLINE_S = 170  # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 5  # before the passes, and as many after
MIN_PASSES = 2


class Run:
    """Worker passes of one benchmark run and the checks on their answers."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0  # jobs with a wrong answer
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def worker(self, kind: str) -> dict:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), kind, self.workload,
             str(self.seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - spawned),
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{kind} worker exited {proc.returncode}: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - spawned
        for job in out.get("jobs", ()):
            self.check(kind, job)
        return out

    def check(self, kind: str, job: dict) -> None:
        self.attempted += 1
        found = oracle.problems(job["group"], job["mode"], job["status"],
                                job["rendered"])
        digest = hashlib.sha256(job["rendered"].encode()).hexdigest()
        first = self.digests.setdefault(job["job"], digest)
        if first != digest:
            found.append("report differs from the first pass of this seed")
        if found:
            self.failed += 1
            self.failures.append(f"{kind} {job['job']}: {'; '.join(found)}")

    def check_balance(self, spans: list[list]) -> None:
        for root, duration, total in root_balance(spans):
            if duration != total:
                self.failures.append(
                    f"span tree {root}: self times sum to {total} ns, "
                    f"root lasted {duration} ns")

    def left(self) -> float:
        return self.deadline - time.monotonic()


def end_to_end(run: Run, seconds: int) -> tuple[dict, dict, int]:
    """The end-to-end metrics, and the same times in plain seconds, which
    are printed but not reported."""
    run.worker("setup")  # compiles bytecode; a user's later runs reuse it
    setups = [run.worker("setup") for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run.worker("timed"))
        if run.left() < 2 * (time.monotonic() - start) / len(passes):
            break
    # set-up samples on both sides of the passes, so one slow spell of the
    # host cannot hold all of them
    setups += [run.worker("setup") for _ in range(SETUP_SAMPLES)]
    setups += passes
    per_job = list(zip(*(p["jobs"] for p in passes)))
    # Each job's time as a multiple of the reference computation timed just
    # before and after it (worker.reference), median over the passes.  The
    # host this was written on slows every process by about 1.7x in spells
    # of a second or so, and the share of slow spells drifts over minutes;
    # the ratio cancels that drift, plain seconds do not.
    in_ref = [statistics.median(j["seconds"] / j["reference_s"] for j in runs)
              for runs in per_job]
    in_s = [statistics.median(j["seconds"] for j in runs) for runs in per_job]
    return {
        "wall_ref": (sum(in_ref), "ref"),
        "slowest_job_ref": (max(in_ref), "ref"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        # each set-up time over the reference timed right after it, in
        # seconds of a free core: plain set-up seconds drift with the host
        # as job times do
        "setup_s": (statistics.median(p["setup_s"] / p["reference_s"]
                                      for p in setups) * REFERENCE_S, "s"),
    }, {
        "setup_plain_s": (statistics.median(p["setup_s"] for p in setups),
                          "s"),
        "wall_s": (sum(in_s), "s"),
        "slowest_job_s": (max(in_s), "s"),
        "reference_ms": (statistics.median(
            j["reference_s"] * 1e3 for runs in per_job for j in runs), "ms"),
    }, len(passes)


def per_layer(run: Run) -> tuple[dict, int]:
    plain = run.worker("timed")
    traced = run.worker("traced")
    counted = run.worker("counted")
    probe = run.worker("probe")
    spans = traced["spans"]
    run.check_balance(spans)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{run.workload}-{run.seed}.json", "w") as fh:
        json.dump({"workload": run.workload, "seed": run.seed,
                   "fields": ["id", "parent", "name", "start_ns", "end_ns",
                              "attrs"],
                   "spans": spans}, fh)
    totals = layer_totals(spans)
    metrics = {}
    for name in SPAN_NAMES:
        ns, calls = totals.get(name, (0, 0))
        metrics[f"{name}.self_s"] = (ns / 1e9, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    for name in COUNTED:
        metrics[name] = (counted["counts"][name], "count")
    for name, us in probe["mul_us"].items():
        metrics[f"cyclo.mul_us.{name}"] = (us, "us")
    metrics["trace.overhead_ratio"] = (job_seconds(traced) /
                                       job_seconds(plain), "ratio")
    return metrics, 4


def job_seconds(worker_pass: dict) -> float:
    return sum(j["seconds"] for j in worker_pass["jobs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crepant" / "__init__.py").is_file():
        print(f"no crepant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    shown = {}
    try:
        if args.trace:
            metrics, passes = per_layer(run)
        else:
            metrics, shown, passes = end_to_end(run, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    for line in run.failures:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes, python {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} "
              f"{unit}")
    print(f"error_rate = {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} jobs)")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
