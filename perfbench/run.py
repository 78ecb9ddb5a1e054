"""apvint benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload routes-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; apvint is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics: set-up time,
problems per second, median and tail latency, and peak memory. With
``--trace 1`` it runs the problems twice, untraced and then traced, checks
that every answer is bit-identical, reports the per-layer metrics, and runs
the workload's defect probe. Every answer is checked against an mpmath
reference computed after the timed part; a miss fails the problem and makes
the run incorrect. The last line of output is one JSON object; lines before
it, starting with '#', are a readable summary. See RATIONALE.md.

Times are scaled to a nominal machine speed. On a shared VM the speed can
drift by a factor of two over tens of seconds, so between problems the run
times a fixed probe that uses no apvint code (SpeedProbe) and multiplies
every time by PROBE_NOMINAL_S over the run's median probe time. The summary
lines give the factor, from which the raw times follow.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS / OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_BEYOND = 10    # samples that must lie beyond the reported tail percentile
TAIL_MAX_PCT = 95.0  # above this a few samples hit by host interruptions set the tail
PROBE_ROUNDS = 1000
PROBE_NOMINAL_S = 0.03  # probe time at the speed reported times are scaled to
PROBE_EVERY_S = 0.5
PROBE_BURST = 8  # most samples taken at once, after a long problem

# time from interpreter start-up to built problems: import plus construction
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("routes-mix", "high-order", "collocation"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SpeedProbe:
    """Samples of a fixed probe, taken between problems, one per
    PROBE_EVERY_S that has passed, that track the machine's current speed.
    A single 30 ms sample is noisy, so a workload whose problems take
    seconds takes several samples after each problem and gets as many
    samples per run as one whose problems take milliseconds.

    The probe is a small bisecting quadrature of its own: heap operations
    and tuples in the interpreter, 15-point numpy panels, the same mix of
    work as apvint's, with none of apvint's code.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._nodes = np.linspace(-1.0, 1.0, 15)
        self.samples = []
        self._last = -float("inf")

    def maybe(self):
        due = (time.perf_counter() - self._last) / PROBE_EVERY_S
        for _ in range(min(int(due), PROBE_BURST) if self.samples else 1):
            self.sample()

    def sample(self):
        np, nodes = self._np, self._nodes
        start = time.perf_counter()
        heap = [(-1.0, 0.0, np.pi)]
        for _ in range(PROBE_ROUNDS):
            _, lo, hi = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            for a, b in ((lo, mid), (mid, hi)):
                z = np.exp(1j * (0.5 * (a + b) + 0.5 * (b - a) * nodes))
                value = np.sum(np.cos(z) * z) * (b - a)
                heapq.heappush(heap, (-abs(value), a, b))
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        """Factor that takes measured times to the nominal machine speed."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def setup_seconds(workload: str, seed: int, speed: SpeedProbe) -> float:
    """Median over fresh interpreters of import plus problem construction."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, env=os.environ.copy())
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(solve, blocks, seconds: float, speed: SpeedProbe) -> tuple[list, float]:
    """Solve whole blocks, cycling, until `seconds` of solving have passed.

    Returns [(problem, latency, outcome)] and the time spent solving."""
    records = []
    busy = 0.0
    k = 0
    while busy < seconds:
        for problem in blocks[k % len(blocks)]:
            speed.maybe()
            start = time.perf_counter()
            latency, outcome = solve(problem)
            busy += time.perf_counter() - start
            records.append((problem, latency, outcome))
        k += 1
    return records, busy


def replay(solve, records, speed: SpeedProbe, tracer=None) -> tuple[list, float]:
    """Solve the same problems again, in order; a tracer tags spans with the
    problem's index. Returns the new records and the time spent solving."""
    out = []
    busy = 0.0
    for i, (problem, _, _) in enumerate(records):
        speed.maybe()
        if tracer is not None:
            tracer.problem_id = i
        start = time.perf_counter()
        latency, outcome = solve(problem)
        busy += time.perf_counter() - start
        out.append((problem, latency, outcome))
    return out, busy


def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, at most TAIL_MAX_PCT; the median when there are too few
    samples for that."""
    ordered = sorted(latencies)
    rank = min(len(ordered) - TAIL_BEYOND, int(len(ordered) * TAIL_MAX_PCT / 100))
    if rank < len(ordered) / 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def verify(records: list, refs: dict, tol=None):
    """Check every answer against the reference, at the tolerance each
    problem requests (or `tol`); `refs` caches references by problem key.
    Returns the summary dict."""
    import reference
    import workloads as W

    failed = covered = rated = 0
    reasons = {}
    for problem, _, outcome in records:
        if problem.key not in refs:
            refs[problem.key] = reference.finite_part(problem.source, problem.a, problem.b,
                                                      problem.x0, problem.n, problem.poles)
        verdict = W.check(outcome, refs[problem.key], tol or problem.tol)
        failed += verdict.failed
        covered += verdict.covered
        rated += verdict.rated
        for label, reason in set(verdict.reasons):
            reasons[f"{label} {reason}"] = reasons.get(f"{label} {reason}", 0) + 1
    problems = [p for p, _, _ in records]
    return {
        "attempted": len(records),
        "failed": failed,
        "fail_rate": failed / len(records),
        "err_uncovered_rate": (rated - covered) / rated if rated else 0.0,
        "err_rated": rated,
        "reasons": reasons,
        "distinct": len({p.key for p in problems}),
        "mix": {
            "high_n_share": sum(p.n >= 21 for p in problems) / len(problems),
            "near_endpoint_share": sum(W.near_endpoint(p) for p in problems) / len(problems),
            "declared_pole_share": sum(bool(p.poles) for p in problems) / len(problems),
        },
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, solve, blocks, speed):
    setup_s = setup_seconds(workload, seed, speed)
    records, busy = measure(solve, blocks, seconds, speed)
    rss = peak_rss_mb()
    latencies = [lat for _, lat, _ in records]
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "problems_per_s": (len(records) / busy, "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [f"latency_tail_ms is p{pct:.1f} of {len(latencies)} samples"]
    return records, metrics, notes, []


def defect_probe(work, blocks, refs):
    """Solve the leading blocks the way the workload's known defect shows,
    untraced and untimed, and check them at the library defaults."""
    import workloads as W

    if work.probe is None:
        return None
    records = [(p,) + work.probe(p) for block in blocks[:work.probe_blocks] for p in block]
    return verify(records, refs, W.DEFAULT_TOL)


def per_layer(workload, seed, seconds, solve, blocks, speed):
    """A warm-up pass picks the problems; they are then solved again
    untraced and traced, and the two sets of answers must be identical."""
    from tracing import Tracer, layer_metrics

    records, _ = measure(solve, blocks, seconds / 3, speed)
    untraced, busy = replay(solve, records, speed)
    tracer = Tracer()
    with tracer:
        traced, traced_busy = replay(solve, records, speed, tracer)
    mismatched = [i for i, (a, b) in enumerate(zip(untraced, traced))
                  if a[2].fingerprint() != b[2].fingerprint()]
    metrics = layer_metrics(tracer, len(traced), sum(lat for _, lat, _ in traced), SRC)
    metrics["trace.overhead_s"] = (traced_busy - busy, "s")
    notes = [f"traced {len(traced)} problems: {traced_busy:.3f} s against {busy:.3f} s "
             f"untraced (raw); {len(mismatched)} answers differ"]
    errors = [f"traced answer differs from untraced for problem {i}" for i in mismatched]
    return traced, metrics, notes, errors


def scaled(metrics: dict, factor: float) -> dict:
    """Times multiplied, rates divided by `factor`; other units unchanged."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms", "s/problem"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = (value, unit)
    return out


def summary(what: str, check: dict) -> str:
    reasons = f" {check['reasons']}" if check["reasons"] else ""
    return (f"{what}: {check['attempted']} problems ({check['distinct']} distinct), "
            f"{check['failed']} failed{reasons} (fail_rate {check['fail_rate']:.4f}), "
            f"err_uncovered_rate {check['err_uncovered_rate']:.4f} over "
            f"{check['err_rated']} error estimates")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "apvint" / "__init__.py").is_file():
        print(f"error: no apvint sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    work = workloads.WORKLOADS[args.workload]
    blocks = work.build(args.seed)
    speed = SpeedProbe()
    run = per_layer if args.trace else end_to_end
    records, metrics, notes, errors = run(args.workload, args.seed, args.seconds, work.solve,
                                          blocks, speed)
    factor = speed.scale()
    metrics = scaled(metrics, factor)
    notes.append(f"times scaled by {factor:.4f}: median probe "
                 f"{statistics.median(speed.samples):.5f} s over {len(speed.samples)} samples, "
                 f"nominal {PROBE_NOMINAL_S} s")
    refs = {}
    check = verify(records, refs)
    if args.trace:
        metrics["check.err_uncovered_rate"] = (check["err_uncovered_rate"], "ratio")
        for name, share in check["mix"].items():
            metrics[f"mix.{name}"] = (share, "ratio")
        probe = defect_probe(work, blocks, refs)
        metrics["defects.fail_rate"] = (probe["fail_rate"] if probe else 0.0, "ratio")
        metrics["defects.err_uncovered_rate"] = (
            probe["err_uncovered_rate"] if probe else 0.0, "ratio")
        notes.append(summary("defect probe", probe) if probe else "no defect probe")
    if check["failed"]:
        errors.append(f"{check['failed']} problems failed: {check['reasons']}")

    print(f"# {args.workload} seed {args.seed}: {summary('run', check)}")
    print("# mix: " + ", ".join(f"{k} {v:.4f}" for k, v in check["mix"].items()))
    for line in notes + errors:
        print(f"# {line}")
    print(json.dumps({
        "correct": not errors,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
