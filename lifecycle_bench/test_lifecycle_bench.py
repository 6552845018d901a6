"""Self-tests of the lifecycle benchmark (tiny sizes; well under a minute).

    python3 -m pytest lifecycle_bench -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lifecycle_bench import inputs, tracing, workloads
from lifecycle_bench.inputs import Shape
from repro.environment import Environment
from repro.trace import EnvironmentSpec

ROOT = Path(__file__).resolve().parent.parent

TINY_RELEASE = (Shape("mkdir"), Shape("mkfifo"), Shape("paste", 4, 32))
TINY_SHIPPED = (Shape("userver", 1, 4), Shape("diff", 4, 24),
                Shape("paste", 4, 32), Shape("mkdir"), Shape("mknod"))


def tiny(name: str, work_dir) -> object:
    if name == "release":
        return workloads.Release(str(work_dir), shapes=TINY_RELEASE)
    if name == "triage":
        return workloads.Triage(str(work_dir), shapes=TINY_SHIPPED)
    return workloads.Fleet(str(work_dir), shapes=TINY_SHIPPED, uploads=40)


def structure(environment: Environment) -> EnvironmentSpec:
    """The input's shape: argv, file sizes and request lengths, no data."""

    return EnvironmentSpec.capture(environment.scaffold())


@pytest.mark.parametrize("workload", ["release", "triage", "fleet"])
def test_seeded_inputs(workload):
    shapes = workloads.WORKLOADS[workload].shapes
    first = inputs.batch(1, workload, shapes)
    again = inputs.batch(1, workload, shapes)
    other = inputs.batch(2, workload, shapes)
    assert ([inputs.environment_bytes(env) for _, env in first]
            == [inputs.environment_bytes(env) for _, env in again])
    assert ([structure(env) for _, env in first]
            == [structure(env) for _, env in other])
    assert ([inputs.environment_bytes(env) for _, env in first]
            != [inputs.environment_bytes(env) for _, env in other])
    schedule = inputs.zipf_schedule(1, 500, 6)
    assert schedule == inputs.zipf_schedule(1, 500, 6)
    assert len(set(schedule)) == len(schedule)  # one upload per (user, bug)


@pytest.mark.parametrize("workload", ["triage", "fleet"])
def test_two_seeds_same_work_different_traces(workload, tmp_path):
    bench = tiny(workload, tmp_path)
    one = bench.setup(1, tracing.NULL)
    two = bench.setup(2, tracing.NULL)
    work = [bench.run_pass(state, tracing.NULL).work for state in (one, two)]
    assert [len(items) for items in work[0]] == [len(items) for items in work[1]]
    assert len(work[0]) == len(work[1])
    digests = [[hashlib.sha256(shipped.data).digest()
                for shipped in state["shipped"]] for state in (one, two)]
    assert digests[0] != digests[1]


@pytest.mark.parametrize("workload", ["release", "triage", "fleet"])
def test_tiny_run_passes_every_check(workload, tmp_path):
    bench = tiny(workload, tmp_path)
    state = bench.setup(3, tracing.NULL)
    assert bench.input_bytes(state) == bench.input_bytes(
        bench.setup(3, tracing.NULL))
    ref = bench.reference(state)
    if hasattr(bench, "check_shipped"):
        assert bench.check_shipped(state, ref) == 0
    results = [bench.run_pass(state, tracing.NULL) for _ in range(2)]
    for result in results:
        assert result.outputs and result.samples
        assert bench.check(state, ref, result) == 0
    assert results[0].work_digest() == results[1].work_digest()
    assert not os.listdir(tmp_path)  # every service root was removed


def test_corrupted_trace_byte_is_a_failed_operation(tmp_path):
    bench = tiny("triage", tmp_path)
    state = bench.setup(4, tracing.NULL)
    ref = bench.reference(state)
    victim = state["shipped"][1]
    data = bytearray(victim.data)
    data[len(data) // 2] ^= 0xFF
    state["shipped"][1] = dataclasses.replace(victim, data=bytes(data))
    assert bench.check_shipped(state, ref) == 1
    result = bench.run_pass(state, tracing.NULL)
    assert bench.check(state, ref, result) == 1


def test_corrupted_release_output_is_a_failed_operation(tmp_path):
    bench = tiny("release", tmp_path)
    state = bench.setup(4, tracing.NULL)
    ref = bench.reference(state)
    first, second = (bench.run_pass(state, tracing.NULL) for _ in range(2))
    assert bench.check(state, ref, first) == 0
    position = next(i for i, output in enumerate(second.outputs)
                    if output[0] == "trace")
    kind, index, data, crash = second.outputs[position]
    second.outputs[position] = (kind, index, data[:-1] + bytes([data[-1] ^ 1]),
                                crash)
    assert bench.check(state, ref, second) == 1


@pytest.mark.parametrize("workload", ["triage", "fleet"])
def test_tampered_report_is_a_failed_operation(workload, tmp_path):
    bench = tiny(workload, tmp_path)
    state = bench.setup(5, tracing.NULL)
    ref = bench.reference(state)
    result = bench.run_pass(state, tracing.NULL)
    position = next(i for i, output in enumerate(result.outputs)
                    if output[-1] is not None and output[-1].found_input)
    *head, report = result.outputs[position]
    found = dict(report.found_input)
    key = sorted(found)[0]
    found[key] += 1
    result.outputs[position] = (*head, dataclasses.replace(
        report, found_input=found))
    assert bench.check(state, ref, result) == 1


def test_a_found_input_must_reach_the_crash(tmp_path):
    bench = tiny("triage", tmp_path)
    state = bench.setup(6, tracing.NULL)
    pipeline = workloads.new_pipeline("diff", bench.config)
    from repro.trace import load_trace_bytes

    trace = load_trace_bytes(next(shipped.data for shipped in state["shipped"]
                                  if shipped.program == "diff"))
    found = pipeline.reproduce_from_trace(trace).outcome.found_input
    moved = dataclasses.replace(trace, crash_site=dataclasses.replace(
        trace.crash_site, line=trace.crash_site.line + 1))
    assert workloads.reaches_crash(pipeline.program, trace, found)
    assert not workloads.reaches_crash(pipeline.program, moved, found)


def test_budgets_are_bounded_by_work_not_clock(tmp_path):
    for name in ("release", "triage", "fleet"):
        config = tiny(name, tmp_path).config
        assert config.instrumentation.concolic_budget.max_seconds >= 1e6
        assert config.replay.budget.max_seconds >= 1e6
        svc = config.service
        assert (svc.workers, config.replay.workers) == (1, 1)
        assert not (svc.checkpoint_every_runs or svc.search_deadline_seconds
                    or svc.preempt_after_seconds)
    bench = tiny("triage", tmp_path)
    state = bench.setup(7, tracing.NULL)
    for _, report in bench.run_pass(state, tracing.NULL).outputs:
        assert report.reproduced and not report.timed_out
        assert report.runs < workloads.MAX_RUNS
    release = tiny("release", tmp_path)
    result = release.run_pass(release.setup(7, tracing.NULL), tracing.NULL)
    for output in result.outputs:
        if output[0] == "plan":
            assert output[3] <= release.iterations


def test_release_records_every_run_once_after_its_analysis(tmp_path):
    bench = workloads.Release(str(tmp_path))
    state = {"batch": inputs.batch(1, "release", bench.shapes)}
    slots = bench.record_slots(state)
    assert sorted(sum(slots, [])) == list(range(len(bench.shapes)))
    for position, slot in enumerate(slots):
        for index in slot:
            assert bench.order.index(bench.shapes[index].program) <= position
    userver = [position for position, slot in enumerate(slots)
               if any(bench.shapes[i].program == "userver" for i in slot)]
    assert len(userver) >= 4  # uServer runs spread over the pass


def test_setup_s_weighs_slow_and_fast_stretches_alike():
    from lifecycle_bench import run

    # A fast stretch of the host, then a slow one: a plain median says 1.0.
    assert run.strided_median([1.0] * 6 + [2.0] * 4) == 1.5
    # One stalled set-up moves one mean, which the median drops.
    assert run.strided_median([1.0] * 9 + [50.0]) == 1.0


def test_host_speed_window_scales_work_to_the_reference():
    from lifecycle_bench import hostspeed

    hostspeed.start()
    try:
        with hostspeed.Window() as window:
            for _ in range(50):
                sum(range(20000))
                hostspeed.tick()
    finally:
        hostspeed.stop()
    taken = hostspeed._sampler.samples[window.first:]
    assert len(taken) == window.samples > 0
    assert window.factor == pytest.approx(
        hostspeed.REFERENCE_KERNEL_S / statistics.fmean(taken))
    count = len(hostspeed._sampler.samples)
    hostspeed.tick()  # stopped: no sample
    assert len(hostspeed._sampler.samples) == count


def test_work_clock_leaves_out_the_kernel(monkeypatch):
    from lifecycle_bench import hostspeed

    monkeypatch.setattr(hostspeed, "SHARE", 1.0)
    hostspeed.start()
    try:
        wall, work = time.perf_counter(), hostspeed.clock()
        while time.perf_counter() - wall < 0.05:
            pass
        hostspeed.tick()  # owes the kernel as much time as the work took
        wall, work = time.perf_counter() - wall, hostspeed.clock() - work
    finally:
        hostspeed.stop()
    assert wall >= 0.1
    assert work < wall - 0.04


def test_a_normalised_pass_scales_every_time():
    result = workloads.PassResult(seconds=2.0, report_seconds=1.5,
                                  samples=[0.5, 1.0], reports=2)
    scaled = result.normalised(0.5)
    assert (scaled.seconds, scaled.report_seconds, scaled.samples,
            scaled.reports) == (1.0, 0.75, [0.25, 0.5], 2)


@pytest.mark.parametrize("workload", ["release", "triage", "fleet"])
def test_traced_pass_does_the_same_work(workload, tmp_path):
    from repro.lang.program import Program

    from_source = vars(Program)["from_source"]
    bench = tiny(workload, tmp_path)
    state = bench.setup(8, tracing.NULL)
    untraced = bench.run_pass(state, tracing.NULL)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, workloads):
        traced = bench.run_pass(state, tracer)
    assert traced.work_digest() == untraced.work_digest()
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    top = tracer.ranking()[0][0]
    if workload == "release":
        assert metrics["concolic.solve.calls"] > 0
        assert metrics["replay.exec.runs"] == 0
        # The overhead model's uninstrumented runs are not record spans.
        traces = sum(output[0] == "trace" for output in traced.outputs)
        assert tracer.counts["record.runs"] == traces
        assert tracer.counts["baseline.runs"] > 0
    else:
        assert metrics["replay.exec.runs"] > 0
        assert metrics["concolic.solve.calls"] == 0
    assert top  # ranking is non-empty
    # Every binding is restored once the block exits.
    import repro.replay.engine as replay_engine
    from repro.symbolic import solver
    assert replay_engine.solve is solver.solve
    assert vars(Program)["from_source"] is from_source


def test_command_without_sources_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(ROOT / "lifecycle_bench", bare / "lifecycle_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "lifecycle_bench/run.py", "--workload", "triage",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from lifecycle_bench import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.PER_LAYER
    # release runs with the same command but is not gated: its timings
    # spread beyond the bounds on this host (see README.md, Noise).
    assert [w["name"] for w in spec["workloads"]] \
        == [name for name in workloads.WORKLOADS if name != "release"]
