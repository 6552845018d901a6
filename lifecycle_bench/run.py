"""Bug-lifecycle benchmark: one seeded workload, its metrics as one JSON line.

    python3 lifecycle_bench/run.py --workload release|triage|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` sets up the workload, recomputes
every expected output single-shot, then repeats whole passes over the
workload's fixed work list until ``--seconds`` have been measured, with a
block of set-ups before each pass and after the last (see
:func:`strided_median`), and prints the end-to-end metrics.  Every timing
is normalised to a reference host speed, sampled while it runs (see
``lifecycle_bench/hostspeed.py``).
``--trace 1`` measures untraced passes the same way, then one traced set-up
and one traced pass with every layer's entry points wrapped, and prints the
per-layer metrics, the ranked self-time attribution and the tracing
overhead.  Every output is checked; a failed check is counted in ``failed``
and makes the exit code 1.  See ``lifecycle_bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from lifecycle_bench import hostspeed  # noqa: E402  (standard library only)

#: Address-space cap, so a runaway search fails the run, not the host.
MEMORY_LIMIT_BYTES = 3 << 30
#: ``setup_s`` is the median of this many means over the run's set-ups.
SETUP_GROUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "reports_per_s": "1/s",
    "report_s.p50": "s",
    "analysis_coverage": "frac",
    "record_overhead": "%",
    "trace_bytes": "bytes",
    "reproduced_frac": "frac",
}


def host_fingerprint() -> str:
    """Python version, core count and the commit (or a digest of ``src``)."""

    try:
        # The ceiling keeps git from reading a repository above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        tree = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            tree.update(str(path.relative_to(SRC)).encode())
            tree.update(path.read_bytes())
        commit = "src-sha256:" + tree.hexdigest()[:16]
    return (f"host python={platform.python_version()} "
            f"nproc={os.cpu_count()} commit={commit}")


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def strided_median(times, groups: int = SETUP_GROUPS) -> float:
    """Median of *groups* means, the i-th over every *groups*-th time from i.

    The times are in run order, so each mean spans the whole run: a slow
    stretch of the host weighs on every mean alike, as it does on the total
    of the passes, while the median drops a mean that one stall lifted.
    """

    return statistics.median(statistics.fmean(times[start::groups])
                             for start in range(min(groups, len(times))))


def timed(function, *args):
    gc.collect()
    start = hostspeed.clock()
    value = function(*args)
    return value, hostspeed.clock() - start


def end_to_end(setup_times, passes) -> dict:
    samples = [sample for result in passes for sample in result.samples]
    figures = passes[0].figures
    print("pass_s: " + " ".join(f"{result.seconds:.3f}" for result in passes))
    print(f"report_s: n={len(samples)} p50={statistics.median(samples):.4f}"
          f" p90={percentile(samples, 0.9):.4f}"
          f" p99={percentile(samples, 0.99):.4f}"
          f" (p99 has {len(samples) - int(0.99 * len(samples)) - 1}"
          " samples beyond it)")
    if "dedup_frac" in figures:
        print(f"dedup_frac: {figures['dedup_frac']:.4f}")
    # pass_s and reports_per_s are whole-run totals: every pass weighs by
    # its time, as the host's slow and fast stretches do.
    return {
        "setup_s": strided_median(setup_times),
        "pass_s": statistics.fmean(result.seconds for result in passes),
        "reports_per_s": (sum(result.reports for result in passes)
                          / sum(result.report_seconds for result in passes)),
        "report_s.p50": statistics.median(samples),
        "analysis_coverage": figures["analysis_coverage"],
        "record_overhead": figures["record_overhead"],
        "trace_bytes": figures["trace_bytes"],
        "reproduced_frac": figures["reproduced"] / passes[0].reports,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    from lifecycle_bench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    print(host_fingerprint())
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        workload = workloads.WORKLOADS[args.workload](work_dir)
        return measure(workload, args, tracing, workloads)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def set_up_block(workload, seed: int, inputs, tracer):
    """Normalised times of ``workload.setup_block`` set-ups, and input
    mismatches.

    The set-ups are timed one by one, so the input comparison stays out of
    the times; every set-up must draw *inputs* from the seed.
    """

    times, mismatches = [], 0
    with hostspeed.Window() as window:
        for _ in range(workload.setup_block):
            hostspeed.tick()
            state, elapsed = timed(workload.setup, seed, tracer)
            times.append(elapsed)
            mismatches += workload.input_bytes(state) != inputs
    return [elapsed * window.factor for elapsed in times], mismatches


def run_pass(workload, state, tracer, factors):
    """One pass, normalised by the host speed sampled during it."""

    gc.collect()
    with hostspeed.Window() as window:
        result = workload.run_pass(state, tracer)
    factors.append(window.factor)
    return result.normalised(window.factor)


def measure(workload, args, tracing, workloads) -> int:
    state = workload.setup(args.seed, tracing.NULL)
    inputs = workload.input_bytes(state)
    ref = workload.reference(state)
    failed = 0
    if hasattr(workload, "check_shipped"):
        failed += workload.check_shipped(state, ref)
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Set-up blocks alternate with the passes, one before each pass and one
    # after the last, so setup_s samples the host over the whole run, as the
    # passes do.  The run ends on work seconds, not normalised ones.
    setup_times, passes, factors, work_seconds, tracer = [], [], [], 0.0, None
    hostspeed.start()
    try:
        while True:
            if not args.trace:
                times, mismatches = set_up_block(workload, args.seed, inputs,
                                                 tracing.NULL)
                setup_times += times
                failed += mismatches
            if work_seconds >= seconds and len(passes) >= workload.min_passes:
                break
            passes.append(run_pass(workload, state, tracing.NULL, factors))
            work_seconds += passes[-1].seconds / factors[-1]
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer, workloads):
                with tracer.span("setup"):
                    gc.collect()
                    workload.setup(args.seed, tracer)
                with tracer.span("pass"):
                    passes.append(run_pass(workload, state, tracer, factors))
    finally:
        hostspeed.stop()
    print("host speed factor per pass: "
          + " ".join(f"{factor:.3f}" for factor in factors))
    print("work seconds per pass: " + " ".join(
        f"{result.seconds / factor:.3f}"
        for result, factor in zip(passes, factors)))
    attempted = 0
    for result in passes:
        attempted += len(result.outputs)
        failed += workload.check(state, ref, result)
    digests = {result.work_digest() for result in passes}
    if len(digests) != 1:
        print(f"error: passes did different work ({len(digests)} digests)")
        failed += 1
    attempted = max(attempted, 1)
    print(f"workload={workload.name} seed={args.seed} passes={len(passes)} "
          f"setups={1 + len(setup_times)} "
          f"attempted={attempted} failed={failed}")

    if tracer is None:
        values = end_to_end(setup_times, passes)
        units = END_TO_END_UNITS
    else:
        untraced = passes[:-1]
        overhead = passes[-1].seconds / (
            sum(result.seconds for result in untraced) / len(untraced))
        values = tracing.layer_metrics(tracer, overhead)
        units = tracing.PER_LAYER
        total = sum(seconds for _, seconds in tracer.ranking())
        print(f"self-time attribution ({workload.name}, traced set-up + "
              f"pass, {total:.3f} s):")
        for name, seconds in tracer.ranking():
            label = "(unattributed)" if name in ("setup", "pass") else name
            print(f"  {label:24s} {name if label != name else '':6s}"
                  f" {seconds:9.4f} s {100 * seconds / total:6.2f}%")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
