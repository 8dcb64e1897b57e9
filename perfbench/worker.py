"""One pass of a workload in a fresh interpreter; run by perfbench/run.py.

    python3 perfbench/worker.py <pass> <workload> <seed>

<pass> is one of
  setup    import crepant, generate the jobs, time the reference, stop
  timed    run every job, closed loop, no instrumentation
  traced   the same with spans on the public functions (perfbench/spans.py)
  counted  the same with call counters on the hot operators
  probe    time CyclotomicNumber * CyclotomicNumber on dense operands

Each job goes through cli.parse_job -> cli.run -> cli.render_report, as
`crepant <mode> --format json` does.  A timed pass also times a fixed
reference computation, which uses no crepant code, right before and right
after each job, so that run.py can give each job's time as a multiple of
the host's speed at that moment.  The result is one JSON line on stdout.
The worker imports crepant only from the checkout's src/ and exits 1
without a result when it is not there.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_crepant():
    sys.path.insert(0, str(SRC))
    try:
        import crepant
        import crepant.cli
    except ImportError as exc:
        sys.exit(f"cannot import crepant from {SRC}: {exc}")
    if not Path(crepant.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"crepant was imported from {crepant.__file__}, not {SRC}")
    return crepant.cli


REFERENCE_CALLS = 8  # before and after each job: about 20 ms each side


def reference() -> dict:
    """A fixed computation in the style of crepant's exact arithmetic:
    products of sparse rational polynomials modulo x^12 - 1, from the
    standard library only, so that no change to crepant moves its time."""
    a = {i: Fraction(i + 1, 7) for i in range(12)}
    b = {i: Fraction(3, i + 2) for i in range(12)}
    for _ in range(3):
        c: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                k = (i + j) % 12
                c[k] = c.get(k, 0) + x * y
        a = {k: v / 5 for k, v in c.items()}
    return a


REFERENCE_VALUE = reference()
# One reference() call on a free core of the machine the benchmark was
# written on (Intel Xeon at 2.1 GHz, Python 3.11.7); run.py scales set-up
# times to that speed.
REFERENCE_S = 1.3e-3


def reference_seconds() -> float:
    """Seconds per reference() call, over REFERENCE_CALLS calls."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        value = reference()
    seconds = (time.perf_counter() - t0) / REFERENCE_CALLS
    if value != REFERENCE_VALUE:
        raise AssertionError("the reference computation changed its result")
    return seconds


def run_jobs(cli, jobs, workload: str, tracer=None,
             with_reference: bool = False) -> dict:
    results = []
    for job in jobs:
        ref_before = reference_seconds() if with_reference else None
        root = tracer.open("job", {"job": job.job_id, "workload": workload,
                                   "mode": job.mode}) if tracer else None
        t0 = time.perf_counter()
        try:
            spec = cli.parse_job(job.text, job.mode, output_format="json")
            report, status = cli.run(spec)
            rendered = cli.render_report(report, spec.output_format)
            order = report["group"]["order"]
        except Exception as exc:  # a failed job is counted, not fatal
            status, rendered, order = None, f"{type(exc).__name__}: {exc}", None
        t1 = time.perf_counter()
        if tracer:
            root[5]["order"] = order
            tracer.close(root)
        results.append({"job": job.job_id, "group": job.group,
                        "mode": job.mode, "seconds": t1 - t0,
                        "status": status, "rendered": rendered})
        if with_reference:
            results[-1]["reference_s"] = (ref_before + reference_seconds()) / 2
    return {"jobs": results}


def probe(seed: int) -> dict:
    """Microseconds per multiplication of two dense elements of Q(zeta_n)."""
    from crepant.cyclo import parse_cyclotomic as parse
    rng = random.Random(seed)
    out = {}
    for n, phi in ((5, 4), (29, 28), (60, 16)):
        def dense():
            return parse("+".join(
                f"{rng.randint(1, 9)}/{rng.randint(1, 9)}*E({n})^{i}"
                for i in range(phi)))
        pool = [dense() for _ in range(8)]
        pairs = [(pool[i], pool[(i + 3) % 8]) for i in range(8)] * 25
        per_batch = []
        for _ in range(7):
            t0 = time.perf_counter()
            for a, b in pairs:
                a * b
            per_batch.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        out[f"c{n}"] = statistics.median(per_batch)
    return out


def main(argv: list[str]) -> int:
    kind, workload, seed = argv[0], argv[1], int(argv[2])
    cli = import_crepant()
    import jobs as jobgen
    from spans import Patches, Tracer, install_counters

    jobs = jobgen.make_jobs(workload, seed)
    ready = time.monotonic()
    out: dict = {"pass": kind, "workload": workload, "seed": seed,
                 "ready": ready, "reference_s": reference_seconds()}
    patches = Patches()
    try:
        if kind == "timed":
            out.update(run_jobs(cli, jobs, workload, with_reference=True))
        elif kind == "traced":
            tracer = Tracer()
            tracer.install(patches)
            out.update(run_jobs(cli, jobs, workload, tracer))
            out["spans"] = tracer.spans
        elif kind == "counted":
            counts = install_counters(patches)
            out.update(run_jobs(cli, jobs, workload))
            out["counts"] = {k: v[0] for k, v in counts.items()}
        elif kind == "probe":
            out["mul_us"] = probe(seed)
        elif kind != "setup":
            return f"unknown pass {kind!r}"
    finally:
        patches.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
