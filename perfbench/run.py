"""genjac benchmark: one workload per process, one client in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-p103 --seed 1 --seconds 20 --trace 0

The workload builds its parameters and every job input from --seed, runs
one job at a time (the next starts when the previous returns) for
--seconds, checks each job against its oracle, and prints one line per
metric followed by a final JSON line
`{"correct", "attempted", "failed", "metrics"}`.

--trace 0 reports the end-to-end metrics, with every timing scaled to a
reference machine speed measured next to each job (see reference.py)
and the raw wall-clock figure printed beside it.  --trace 1 patches span
wrappers around the library's layer functions (see tracer.py) and
reports per-layer metrics from a fixed job list instead, replayed twice
so that every exact count can be checked to repeat.

The library is imported from src/ of the checkout that holds this file;
without it the run fails before printing any result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the digest covers the parameter text and this many leading jobs, which
# every run completes, so runs of any length with one seed compare equal
DIGEST_JOBS = 5
# a run goes past --seconds until it has this many latency samples, which
# leaves ten beyond p90, but never past MAX_STRETCH times --seconds
MIN_JOBS = 100
MAX_STRETCH = 1.5
# job failures printed with a traceback; later ones are only counted
MAX_TRACEBACKS = 3


def _import_library() -> None:
    if not (SRC / "genjac" / "__init__.py").is_file():
        raise SystemExit(f"error: no genjac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import genjac

    if Path(genjac.__file__).resolve().parent != SRC / "genjac":
        raise SystemExit(f"error: genjac imported from {genjac.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent repo's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_job(workload, params, seed, index, state):
    """Run one job; return (seconds, JobResult or None when it raised)."""
    rng = workload.job_rng(seed, index)
    start = perf_counter()
    try:
        result = workload.job(params, rng)
    except Exception:
        result = None
        state["tracebacks"] += 1
        if state["tracebacks"] <= MAX_TRACEBACKS:
            print(f"job {index} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return perf_counter() - start, result


def _job_outputs(result) -> str:
    return "failed" if result is None else "\n".join(result.outputs)


def _digest(param_text: str, outputs: list[str]) -> str:
    h = hashlib.sha256(param_text.encode())
    for text in outputs[:DIGEST_JOBS]:
        h.update(b"\0" + text.encode())
    return h.hexdigest()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class _Pass:
    """Latencies, outputs, failures and counts of a sequence of jobs."""

    def __init__(self) -> None:
        self.latencies, self.outputs, self.failed = [], [], 0
        self.counts, self.times_ms, self.by_degree = Counter(), Counter(), Counter()
        self.spans = None

    def add(self, latency, result) -> None:
        self.latencies.append(latency)
        self.outputs.append(_job_outputs(result))
        if result is None or not result.ok:
            self.failed += 1
        else:
            self.counts.update(result.counts)
            self.times_ms.update(result.times_ms)


def timed_run(workload, seed: int, seconds: int, workdir: str):
    """End-to-end metrics: repeated set-up, then the closed job loop.

    Every timing is scaled to the reference speed (see reference.py); the
    raw wall-clock figures are printed alongside.
    """
    from reference import SETUP_WINDOW, scale, scale_factors, time_kernel
    from workloads import setup

    setup_raw, setup_scaled = [], []
    for _ in range(workload.setup_repeats):
        kernel_s = [time_kernel() for _ in range(SETUP_WINDOW)]
        start = perf_counter()
        params, text = setup(workload.p, seed, workdir)
        elapsed = perf_counter() - start
        kernel_s += [time_kernel() for _ in range(SETUP_WINDOW)]
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * scale(kernel_s))
    gc.collect()

    state = {"tracebacks": 0}
    run = _Pass()
    kernel_s = [time_kernel()]
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        jobs = len(run.latencies)
        if jobs >= DIGEST_JOBS and elapsed >= seconds and (
            jobs >= MIN_JOBS or elapsed >= MAX_STRETCH * seconds
        ):
            break
        run.add(*_run_job(workload, params, seed, jobs, state))
        kernel_s.append(time_kernel())
    loop_s = perf_counter() - start
    raw, failed = run.latencies, run.failed
    scaled = [t * f for t, f in zip(raw, scale_factors(kernel_s, jobs))]

    def figures(latencies, setups):
        return {
            "jobs_per_s": (jobs / sum(latencies), "1/s"),
            "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "job_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
        }

    metrics = {name: _metric(*f) for name, f in figures(scaled, setup_scaled).items()}
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {
        "jobs_per_s": f"{jobs} jobs, closed loop, 1 client",
        "job_p50_ms": f"n={jobs}",
        "job_p90_ms": f"n={jobs}",
        "setup_s": f"median of {len(setup_scaled)}",
    }
    raw_figures = figures(raw, setup_raw)
    for name, m in metrics.items():
        line = f"{name}: {m['value']:.6g} {m['unit']}"
        if name in raw_figures:
            line += f" (raw {raw_figures[name][0]:.6g}; {notes[name]})"
        print(line)
    print(f"failed_frac: {failed / jobs:.6g} ({failed} of {jobs} jobs)")
    print(f"machine speed: reference kernel median {statistics.median(kernel_s) * 1e3:.3f} ms "
          f"in the job loop ({loop_s:.2f} s)")
    return metrics, jobs, failed, _digest(text, run.outputs), []


# traced layers whose work belongs to set-up, not to a job
SETUP_ONLY = ("jacobian.make_toy_params", "jacobian.load_params", "curve.enumerate_points")
# inclusive time per job, for layers whose callers are the harness itself
INCLUSIVE_MS = ("jacobian.pairing_order", "jacobian.tate_from_group_law", "jacobian.tate_by_miller")
US_PER_CALL = ("groups.ext_add", "jacobian.cocycle")


def _exact_counts(run: _Pass) -> dict:
    exact = {f"{label}.calls": span.calls for label, span in run.spans.items()}
    exact.update({f"{label}.collisions": span.collisions for label, span in run.spans.items()})
    exact.update({f"field.mul.deg{d}": n for d, n in run.by_degree.items()})
    exact.update(run.counts)
    return exact


def traced_run(workload, seed: int, seconds: int, workdir: str):
    """Per-layer metrics from the workload's fixed job list; --seconds does not apply."""
    from genjac.field import count_mults
    from tracer import LABELS, Tracer
    from workloads import BENCH_ROWS, SETUP_LABELS, setup

    tracer = Tracer()
    with tracer.installed():
        params, text = setup(workload.p, seed, workdir)
    setup_spans = tracer.snapshot()
    tracer.reset()

    jobs = workload.trace_jobs
    state = {"tracebacks": 0}
    gc.collect()
    base, first, second = _Pass(), _Pass(), _Pass()
    for traced in (first, second):
        for index in range(jobs):
            if traced is first:
                # each job runs untraced right before its first traced run, so
                # the pair sees the same machine load
                base.add(*_run_job(workload, params, seed, index, state))
            with tracer.installed(), count_mults() as muls:
                traced.add(*_run_job(workload, params, seed, index, state))
            traced.by_degree.update(muls.by_degree)
        traced.spans = tracer.snapshot()
        tracer.reset()

    problems = []
    if not base.outputs == first.outputs == second.outputs:
        problems.append("job outputs differ between the untraced and the traced passes")
    exact1, exact2 = _exact_counts(first), _exact_counts(second)
    for name in sorted(set(exact1) | set(exact2)):
        if exact1.get(name) != exact2.get(name):
            problems.append(f"exact count {name} did not repeat: {exact1.get(name)} then {exact2.get(name)}")
    spans, counts, by_degree = first.spans, first.counts, first.by_degree
    for label in sorted(workload.expected):
        if spans[label].calls == 0:
            problems.append(f"wrapper {label} recorded no call in the jobs")
    for label in sorted(SETUP_LABELS):
        if setup_spans[label].calls == 0:
            problems.append(f"wrapper {label} recorded no call in set-up")

    m = {}
    m["field.mul.deg1"] = _metric(by_degree.get(1, 0) / jobs, "count")
    m["field.mul.deg2"] = _metric(by_degree.get(2, 0) / jobs, "count")
    for label in LABELS:
        if label in SETUP_ONLY:
            continue
        span = spans[label]
        m[f"{label}.calls"] = _metric(span.calls / jobs, "count")
        m[f"{label}.self_ms"] = _metric(span.self_s * 1e3 / jobs, "ms")
        if label in INCLUSIVE_MS:
            m[f"{label}.ms"] = _metric(span.total_s * 1e3 / jobs, "ms")
        if label in US_PER_CALL:
            m[f"{label}.us_per_call"] = _metric(span.total_s * 1e6 / span.calls if span.calls else 0.0, "us")
    m["jacobian.cocycle.collisions"] = _metric(spans["jacobian.cocycle"].collisions / jobs, "count")
    m["field.sqrt.setup_ms"] = _metric(setup_spans["field.sqrt"].total_s * 1e3, "ms")
    for label in SETUP_ONLY:
        m[f"{label}.ms"] = _metric(setup_spans[label].total_s * 1e3, "ms")
    m["groups.verify.checks"] = _metric(counts["groups.verify.checks"] / jobs, "count")
    attempted_draws = counts["sample.attempted"]
    m["groups.sample.yield"] = _metric(
        counts["sample.accepted"] / attempted_draws if attempted_draws else 0.0, "ratio"
    )
    for name in ("dlp.bsgs.baby_steps", "dlp.leaves.projected", "dlp.leaves.pulled_back"):
        m[name] = _metric(counts[name] / jobs, "count")
    for row in BENCH_ROWS:
        m[f"bench.{row}.muls_median"] = _metric(counts[f"bench.{row}.muls_median"] / jobs, "count")
        # from the untraced pass: the library times these rows itself
        m[f"bench.{row}.ms_median"] = _metric(base.times_ms[f"bench.{row}.ms_median"] / jobs, "ms")
    product_muls = counts["bench.product.muls_median"]
    m["bench.jacobian_over_product.muls"] = _metric(
        counts["bench.jacobian.muls_median"] / product_muls if product_muls else 0.0, "ratio"
    )
    m["trace.overhead_frac"] = _metric(
        statistics.median(t / u for t, u in zip(first.latencies, base.latencies)) - 1, "ratio"
    )

    for name, metric in m.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    failed = base.failed + first.failed + second.failed
    return m, 3 * jobs, failed, _digest(text, base.outputs), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print(f"workload {workload.name}, seed {args.seed}, p {workload.p}, "
          f"{'traced' if args.trace else 'untraced'}")
    run = traced_run if args.trace else timed_run
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        metrics, attempted, failed, digest, problems = run(workload, args.seed, args.seconds, workdir)
    print(f"digest: {digest} (parameter text and the first {DIGEST_JOBS} jobs)")
    meta = {
        "python": sys.version.split()[0],
        "nproc": _nproc(),
        "git_sha": _git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "p": workload.p,
        "jobs": attempted,
        "traced": bool(args.trace),
    }
    print("meta: " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
