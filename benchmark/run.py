"""trackmerge benchmark: one workload per run, whole jobs for --seconds.

    python3 benchmark/run.py --workload davis_scene --seed 1 --seconds 45 --trace 0

Run it from the repository root. It imports trackmerge from ./src and the
naive reference from ./tests, pins BLAS and trackmerge to one thread, builds
the workload's inputs from --seed (at least three times, for setup_s), then runs whole
jobs for about --seconds and checks the last job's outputs against
independent references. The last line of standard output is a JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["TRACKMERGE_JOBS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 30


def run_jobs(workload, inputs, seed, seconds, before_job=None):
    """Whole jobs on cold copies of the inputs for about ``seconds``: the
    next job starts while it would end nearer to ``seconds`` than the
    previous one, judged by the median job so far."""
    from workloads import Job

    jobs, fresh = [], None
    start = time.perf_counter()
    while not jobs or (
        time.perf_counter() - start + statistics.median(j.wall_s for j in jobs) / 2 < seconds
    ):
        if jobs:  # only the last job's outputs are checked; keep the heap flat
            jobs[-1].out, fresh = {}, None
        fresh = workload.prepare(inputs)
        gc.collect()
        if before_job is not None:
            before_job()
        job = Job()
        t0 = time.perf_counter()
        workload.run(fresh, seed, job)
        job.wall_s = time.perf_counter() - t0
        jobs.append(job)
    return jobs


def rate(jobs, stage):
    """Work per second of one stage over all the run's jobs."""
    return sum(j.work[stage] for j in jobs) / sum(j.stage_s[stage] for j in jobs)


def end_to_end(jobs, setup_times):
    return {
        "job_s": statistics.median(j.wall_s for j in jobs),
        "setup_s": statistics.median(setup_times),
        "search_candidates_per_s": rate(jobs, "search"),
        "merge_frames_per_s": rate(jobs, "merge"),
        "eval_frames_per_s": rate(jobs, "eval"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def timed_setup(workload, seed, workdir, n):
    """Build the inputs in a fresh directory; returns (inputs, seconds)."""
    shutil.rmtree(os.path.join(workdir, f"setup{n - 1}"), ignore_errors=True)
    d = os.path.join(workdir, f"setup{n}")
    os.makedirs(d)
    gc.collect()
    t0 = time.perf_counter()
    inputs = workload.setup(seed, d)
    return inputs, time.perf_counter() - t0


def measure(workload, seed, seconds, workdir):
    """Set up at least SETUP_REPEATS times (more while set-up is cheap), then
    run jobs; returns the last inputs, the jobs and the end-to-end metrics."""
    setup_times, inputs = [], None
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX
    ):
        inputs = None  # free the previous inputs before building the next
        inputs, dt = timed_setup(workload, seed, workdir, len(setup_times))
        setup_times.append(dt)
    jobs = run_jobs(workload, inputs, seed, seconds)
    return inputs, jobs, end_to_end(jobs, setup_times), {"setup_s": setup_times}


def measure_traced(workload, seed, seconds, workdir):
    """One traced set-up, then jobs alternating untraced and traced for
    ``seconds``. Layer figures are per set-up plus the mean traced job."""
    from tracer import Tracer, per_job

    with Tracer() as tr:
        setup_bucket = tr.new_bucket()
        inputs, _ = timed_setup(workload, seed, workdir, 0)
    untraced, traced, buckets = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for j in untraced + traced:
            j.out = {}
        untraced += run_jobs(workload, inputs, seed, 0)
        untraced[-1].out = {}
        with Tracer() as tr:
            traced += run_jobs(workload, inputs, seed, 0, lambda: buckets.append(tr.new_bucket()))
    layers = per_job(setup_bucket, buckets)
    traced_s = statistics.median(j.wall_s for j in traced)
    untraced_s = statistics.median(j.wall_s for j in untraced)
    values = {
        f"{layer}.{stat}": v for layer, stats in layers.items() for stat, v in stats.items()
    }
    values.update({
        "trace.job_s": traced_s,
        "trace.untraced_job_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return inputs, untraced + traced, values, {"layers": layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="trackmerge benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "trackmerge", "__init__.py")):
        print(f"trackmerge sources not found under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_tmp", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure_fn = measure_traced if args.trace else measure
        inputs, jobs, values, details = measure_fn(workload, args.seed, args.seconds, workdir)
        problems = workload.check(inputs, jobs[-1], np.random.default_rng([args.seed, 99]))
        if len({j.digest for j in jobs}) != 1:
            problems.append("jobs on the same inputs produced different outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for msg in sorted({m for j in jobs for m in j.failures}):
        print(f"operation failed in every job: {msg}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": sum(j.attempted for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump({
            **result,
            "jobs": [{"wall_s": j.wall_s, "stage_s": j.stage_s, "work": j.work} for j in jobs],
            **details,
        }, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
