"""Run one workload as a closed loop, check every output, print metrics.

Untraced (``--trace 0``) the run reports the end-to-end metrics. Traced
(``--trace 1``) it alternates each job untraced and traced, requires the two
outputs to be bit-identical, and reports per-layer metrics from the spans of
the traced jobs. The last line of standard output is one JSON object; the
full record, with the environment and in traced runs every span, goes to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from perfbench.tracer import Tracer, layer_metrics, span_counts
from perfbench.workloads import WORKLOADS, Workload, fingerprint

ROOT = Path(__file__).resolve().parent.parent

# Set-up is repeated and its median reported, so one slow repetition does
# not move setup_s.
SETUP_REPEATS = 3

# Host-speed reference. The host's speed for identical work swings by up to
# 2x and can stay slow or fast for minutes, longer than a run, so every
# time the benchmark reports is multiplied by the run's host-speed factor
# REF_NOMINAL_S / (median time of a fixed reference kernel over the run),
# raised to SPEED_EXPONENT.
# After each untraced job the kernel runs until its time reaches REF_SHARE
# of the job's. The factor is taken over the whole run, not per pass: over
# a few seconds the kernel's time swings more than a job's does. The
# kernel has the shape of the library's hot loop (a Python loop of small
# complex numpy operations) but is the benchmark's own code on fixed inputs,
# so a change to the library does not change it. REF_NOMINAL_S is its median
# time on a 2-vCPU Intel Xeon VM in that host's fast phase, so corrected
# times read as milliseconds on that host at full speed.
REF_NOMINAL_S = 0.5e-3
# Job times follow the kernel's less than one to one: over 30 runs per
# workload on that host, the log of a run's median job time rose with the
# log of the kernel's median time at slope 0.86 (mg1-small), 0.69
# (decompound-mix) and 0.59 (study-table2), correlation 0.94 to 0.97, and
# more steeply in the host's fast phase. One exponent serves every workload,
# because a library change shifts each workload's mix of work; 0.85 gave
# the smallest worst spread over four ten-run sets of every workload (see
# perfbench/DESIGN.md).
SPEED_EXPONENT = 0.85
REF_SHARE = 0.25
_REF_X = np.random.default_rng(0).random(1000)


def reference_kernel() -> float:
    """Time one run of the fixed host-speed reference kernel."""
    start = time.perf_counter()
    cur = np.exp(-0.1 * _REF_X).astype(complex)
    step = np.exp(-0.05j * _REF_X)
    for _ in range(100):
        cur *= step
        cur.mean()
    return time.perf_counter() - start

END_TO_END_UNITS = {"setup_s": "s", "job_ms_p50": "ms", "jobs_per_s": "1/s",
                    "peak_rss_mb": "MiB"}

# Per-layer metrics that are counts set by the inputs; they must repeat
# exactly from one pass over the pool to the next.
COUNT_METRICS = (
    "transforms.grid_points", "transforms.products",
    "transforms.io_bytes_computed", "logtrack.refine_evals",
    "logtrack.failures", "transform_maps.domain_events",
    "inversion.bromwich_calls", "inversion.imag_warnings", "estimator.calls",
    "estimator.fallbacks.domain_event", "estimator.fallbacks.log_tracking",
    "estimator.fallbacks.capacity", "estimator.fallbacks.nonfinite",
    "simulation.values",
)


def layer_unit(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("ns_per_product"):
        return "ns"
    if name.endswith("share"):
        return "1"
    return "count"


class Ledger:
    """Checks each job's output and keeps what the checks found.

    The first output of each pool job is checked against the contract and
    the oracle and kept as its reference; every later output of that job,
    traced or not, must be bit-identical to it.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.reference: dict[int, tuple] = {}
        self.errors: list[float] = []
        self.fallbacks = 0
        self.estimates = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def record(self, index: int, job, out, error: str | None) -> None:
        if error is not None:
            self._fail(f"pool job {index} raised:\n{error}")
            return
        fp = fingerprint(out)
        ref = self.reference.get(index)
        if ref is None:
            checked = self.workload.check(job, out)
            if checked.violations:
                self._fail(f"pool job {index}: {'; '.join(checked.violations[:3])}")
                return
            self.reference[index] = fp
            self.errors.extend(checked.errors)
            self.fallbacks += checked.fallbacks
            self.estimates += checked.estimates
        elif fp != ref:
            self._fail(f"pool job {index}: output differs bit for bit from its first run")

    def digest(self) -> str:
        """Hash of every pool job's reference output, for comparing runs."""
        items = sorted(self.reference.items())
        return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def run_job(workload: Workload, job) -> tuple[float, object, str | None]:
    """Run one job; return its wall time, output and any failure."""
    start = time.perf_counter()
    try:
        out, error = workload.run(job), None
    except Exception:  # counted as a failed job and reported below
        out, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, out, error


def set_up(workload: Workload, seed: int) -> tuple[list, float]:
    """Build the job pool from the seed and run one warm-up job, several
    times; return the last pool and the median time of one set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        pool = [workload.build_job(rng, i, workload.n) for i in range(workload.pool)]
        workload.run(pool[0])
        times.append(time.perf_counter() - start)
    return pool, statistics.median(times)


def timed_passes(workload: Workload, pool: list, seconds: float, ledger: Ledger,
                 tracer: Tracer | None = None):
    """Whole passes over the pool, one job after another, until ``seconds``
    have passed; at least one pass, two when traced. After each untraced job
    the reference kernel runs; with a tracer each job then runs again,
    traced. Returns each pool job's untraced and traced wall times, every
    reference kernel time, the loop's duration and, when traced, each
    pass's span and count totals.
    """
    plain = [[] for _ in pool]
    traced = [[] for _ in pool]
    refs = []
    passes = []
    start = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        for index, job in enumerate(pool):
            elapsed, out, error = run_job(workload, job)
            plain[index].append(elapsed)
            ledger.record(index, job, out, error)
            ref_s = 0.0
            while ref_s < REF_SHARE * elapsed or not ref_s:
                refs.append(reference_kernel())
                ref_s += refs[-1]
            if tracer is None:
                continue
            tracer.job = sum(map(len, traced))
            tracer.install()
            try:
                elapsed, out, error = run_job(workload, job)
            finally:
                tracer.uninstall()
            traced[index].append(elapsed)
            ledger.record(index, job, out, error)
        if tracer is not None:
            metrics = layer_metrics(tracer.spans, len(pool), first_span)
            passes.append({"spans": span_counts(tracer.spans[first_span:]),
                           "counts": {k: metrics[k] for k in COUNT_METRICS}})
        loop_s = time.perf_counter() - start
        # a traced run makes two passes at least, so their counts can be compared
        if loop_s >= seconds and (tracer is None or len(passes) >= 2):
            return plain, traced, refs, loop_s, passes


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0) -> dict:
    """Run one workload and return its full record."""
    pool, setup_s = set_up(workload, seed)
    ledger = Ledger(workload)
    record = {"workload": workload.name, "why": workload.why, "trace": int(trace),
              "environment": environment(seed)}
    problems = []
    tracer = Tracer() if trace else None
    plain, traced, refs, loop_s, passes = timed_passes(workload, pool, seconds,
                                                       ledger, tracer)
    speed = REF_NOMINAL_S / statistics.median(refs)  # 1 = nominal
    factor = speed ** SPEED_EXPONENT
    # Each pool job's time is the median of its times over the passes,
    # corrected for host speed.
    raw_job_s = [statistics.median(times) for times in plain]
    job_s = [t * factor for t in raw_job_s]
    runs = sum(map(len, plain))
    # job_ms_p90 is reported, not a BENCHMARK.json metric: the slowest
    # tenth of job times is where the host's drift shows most.
    timing = {"pool_jobs": len(pool), "passes": len(plain[0]),
              "job_ms_p90": 1e3 * p90(job_s), "loop_jobs_per_s": runs / loop_s,
              "host_speed": speed, "raw_setup_s": import_s + setup_s,
              "raw_job_ms_p50": 1e3 * statistics.median(raw_job_s)}
    if tracer is None:
        jobs = runs
        metrics = {
            "setup_s": (import_s + setup_s) * factor,
            "job_ms_p50": 1e3 * statistics.median(job_s),
            "jobs_per_s": len(job_s) / sum(job_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        record["job_times_s"] = plain
        record["reference_times_s"] = refs
    else:
        traced_jobs = sum(map(len, traced))
        jobs = runs + traced_jobs
        metrics = layer_metrics(tracer.spans, traced_jobs)
        # traced minus untraced time, per pool job
        metrics["trace.overhead_ms"] = 1e3 * factor * statistics.median(
            statistics.median(times) - t for times, t in zip(traced, raw_job_s))
        metrics["trace.spans"] = len(tracer.spans) / traced_jobs
        units = {name: layer_unit(name) for name in metrics}
        seen = span_counts(tracer.spans)
        problems += [f"span {name} never recorded" for name in workload.required_spans
                     if not seen.get(name)]
        problems += [f"{name} is 0 on a workload meant to exercise it"
                     for name in workload.must_be_positive if not metrics[name] > 0]
        if any(p != passes[0] for p in passes[1:]):
            problems.append("span or count totals differ between pool passes")
        label, stressed = workload.stress(metrics)
        record.update(passes=passes, stress={"check": label, "met": stressed},
                      span_fields=["name", "start_ns", "end_ns", "parent", "job",
                                   "error", "info"],
                      spans=tracer.spans)
    est_err_mean = statistics.fmean(ledger.errors) if ledger.errors else math.nan
    if not est_err_mean <= workload.err_limit:
        problems.append(f"est_err_mean {est_err_mean:.4g} above the limit "
                        f"{workload.err_limit:g}")
    problems += ledger.problems
    record.update(
        correct=ledger.failed == 0 and not problems,
        attempted=jobs, failed=ledger.failed, problems=problems,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        checks={"est_err_mean": est_err_mean, "err_limit": workload.err_limit,
                "estimates_checked": ledger.estimates,
                "fallback_frac": ledger.fallbacks / max(ledger.estimates, 1),
                "error_frac": ledger.failed / jobs, "jobs": jobs,
                "output_digest": ledger.digest(), **timing})
    return record


def main(argv=None, import_s: float = 0.0) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = run(workload, args.seed, args.seconds, bool(args.trace), import_s)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(f"workload {workload.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}; record in {out_file.relative_to(ROOT)}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for name, value in record["checks"].items():
        print(f"  {name:36s} {value}")
    if "stress" in record:
        print(f"  stress check: {record['stress']['check']}: "
              f"{'met' if record['stress']['met'] else 'NOT met'}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1
