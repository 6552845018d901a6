"""The three bug-lifecycle workloads: release, triage and fleet.

Each workload has the same four parts:

* ``setup(seed)`` builds programs, compiles them and draws the inputs (for
  triage and fleet it also analyses and records the traces to ship);
* ``reference(state)`` recomputes every expected output single-shot, through
  separate objects and the file-based ``Pipeline`` paths, untimed (release
  takes its plans from the first pass it checks, see ``Release.reference``);
* ``run_pass(state, tracer)`` does the workload's fixed work list once and
  returns a :class:`PassResult` of latency samples and work counts;
* ``check(state, ref, result)`` compares the pass with the reference and
  returns the number of failed operations.

Budgets are bounded by work: every wall-clock limit is :data:`NO_CLOCK`, so
a faster layer can never buy itself more work.  Searches run inline (one
service worker, one replay worker, no checkpoints, no deadline), so no child
process starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Pipeline, ReproConfig, ReproService
from repro.concolic.budget import ConcolicBudget
from repro.instrument.methods import InstrumentationMethod
from repro.interp.backend import create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig
from repro.interp.tracer import NullHooks
from repro.replay.budget import ReplayBudget
from repro.service.config import (ExecutionSection, InstrumentationSection,
                                  ReplaySection, ServiceSection)
from repro.service.net import (UploadClient, UploadFailed, UploadRejected,
                               UploadServer)
from repro.service.service import outcome_fingerprint
from repro.trace import (TraceError, dump_trace_bytes, load_trace,
                         load_trace_bytes, trace_from_recording)

from lifecycle_bench import inputs
from lifecycle_bench.hostspeed import clock, tick
from lifecycle_bench.inputs import Shape

#: Any wall-clock limit: large enough that it can never end a run.
NO_CLOCK = 1e9
#: Replay search budget in runs; every search must succeed well below it.
MAX_RUNS = 2000

DYNAMIC = InstrumentationMethod.DYNAMIC
DYNAMIC_PLUS_STATIC = InstrumentationMethod.DYNAMIC_PLUS_STATIC


def repro_config(iterations: int) -> ReproConfig:
    return ReproConfig(
        execution=ExecutionSection(backend="vm"),
        instrumentation=InstrumentationSection(concolic_budget=ConcolicBudget(
            max_iterations=iterations, max_seconds=NO_CLOCK)),
        replay=ReplaySection(budget=ReplayBudget(max_runs=MAX_RUNS,
                                                 max_seconds=NO_CLOCK)),
        service=ServiceSection(workers=1, read_timeout_seconds=120.0))


def new_pipeline(program: str, config: ReproConfig) -> Pipeline:
    """A pipeline parsed from source: the single-shot construction path."""

    source, library = inputs.programs()[program]
    return Pipeline.from_source(source, name=program,
                                config=config.to_pipeline_config(),
                                library_functions=set(library))


def pipeline_over(template: Pipeline, config: ReproConfig) -> Pipeline:
    """A fresh pipeline (fresh per-pass caches) over an already-built program."""

    pipeline_config = dataclasses.replace(
        config.to_pipeline_config(),
        library_functions=set(template.config.library_functions))
    return Pipeline(template.program, pipeline_config)


def compile_for_analysis(pipeline: Pipeline) -> None:
    """Compile *pipeline*'s program as its concolic runs will.

    Builds (and discards) a VM with the default execution config and no
    plan: the key of the analysis runs' compile-cache entry, compiled through
    the ``repro.vm.machine`` binding those runs use.
    """

    create_backend(pipeline.program, hooks=NullHooks(),
                   config=ExecutionConfig(backend="vm"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reaches_crash(program, trace, found_input: Dict[str, int]) -> bool:
    """Re-execute *found_input* on the trace's scaffold with its syscall log.

    The independent check that a report's input really activates the bug:
    one plain replay-mode run, no bitvector guidance, must crash at the
    recorded site.
    """

    if trace.crash_site is None:
        return False
    provider = None
    if trace.plan.log_syscalls and trace.syscall_log is not None:
        cursor = trace.syscall_log.cursor()
        provider = cursor.next_result
    environment = trace.environment()
    executor = create_backend(
        program, kernel=environment.make_kernel(), hooks=NullHooks(),
        binder=InputBinder(mode=ExecutionMode.REPLAY,
                           overrides=dict(found_input)),
        config=ExecutionConfig(mode=ExecutionMode.REPLAY,
                               syscall_result_provider=provider,
                               backend="vm"))
    result = executor.run(environment.argv)
    return result.crash is not None and result.crash.same_location(
        trace.crash_site)


@dataclass
class PassResult:
    """What one pass did: latency samples, report count and work counts."""

    seconds: float = 0.0
    #: seconds the reports took (the pass minus its fixed bracketing work)
    report_seconds: float = 0.0
    samples: List[float] = field(default_factory=list)
    reports: int = 0
    #: per-operation outputs compared against the reference by ``check``
    outputs: List[tuple] = field(default_factory=list)
    #: counts the traced and untraced passes must agree on
    work: List[tuple] = field(default_factory=list)
    #: deterministic per-pass figures (coverage, overhead, bytes, dedup)
    figures: Dict[str, float] = field(default_factory=dict)

    def work_digest(self) -> str:
        return digest(repr(self.work).encode())

    def normalised(self, factor: float) -> "PassResult":
        """This pass with every time scaled by a host-speed *factor*."""

        return dataclasses.replace(
            self, seconds=self.seconds * factor,
            report_seconds=self.report_seconds * factor,
            samples=[sample * factor for sample in self.samples])


@dataclass
class Recorded:
    """One shipped trace made in set-up: its bytes and user-site cost."""

    program: str
    name: str
    data: bytes
    overhead_percent: float


def _record(pipeline: Pipeline, plan, program: str, environment,
            tracer) -> Tuple[Recorded, object]:
    tick()
    recording = pipeline.record(plan, environment)
    tracer.count("instrument.logged_branches",
                 recording.overhead.instrumented_branch_executions)
    data = dump_trace_bytes(trace_from_recording(recording,
                                                 program_name=program))
    return Recorded(program, environment.name, data,
                    recording.overhead.overhead_percent), recording


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# release: pre-deployment analysis, plan, user-site batch, encode
# ---------------------------------------------------------------------------


class Release:
    """The developer's pre-deployment phase; analysis-heavy, no replay."""

    name = "release"
    iterations = 64
    method = DYNAMIC_PLUS_STATIC
    #: The seeded user-site batch.  Forty of its 51 runs are uServer runs,
    #: so the median record latency lies inside that one group whatever the
    #: diff, paste and small coreutils runs cost.  A pass records the batch
    #: in six slices, one after each analysis (see :meth:`run_pass`).
    shapes = ((Shape("userver", 4, 12),) * 40 + (Shape("diff", 6, 96),) * 4
              + (Shape("paste", 20, 320),) * 4
              + (Shape("mkdir"), Shape("mknod"), Shape("mkfifo")))
    min_passes = 2
    #: Set-ups per timed set-up block (about a second of work).
    setup_block = 16

    def __init__(self, work_dir: str,
                 shapes: Optional[Sequence[Shape]] = None) -> None:
        #: Directory (inside the checkout) for service roots and traces.
        self.work_dir = work_dir
        if shapes is not None:
            self.shapes = tuple(shapes)
        #: The program set: every program the batch runs, analysed in order.
        self.order = tuple(dict.fromkeys(shape.program
                                         for shape in self.shapes))
        self.config = repro_config(self.iterations)

    def setup(self, seed: int, tracer) -> dict:
        pipelines = {name: new_pipeline(name, self.config)
                     for name in self.order}
        for pipeline in pipelines.values():
            compile_for_analysis(pipeline)
        return {"pipelines": pipelines,
                "batch": inputs.batch(seed, "release", self.shapes)}

    def input_bytes(self, state) -> List[bytes]:
        return [inputs.environment_bytes(env) for _, env in state["batch"]]

    def reference(self, state) -> dict:
        """Expected outputs, filled in by the first pass :meth:`check` sees.

        Every pass analyses each program single-shot from a fresh pipeline,
        so the first pass's plans are the recompute the later passes must
        match; a third 64-iteration analysis here would only lengthen the
        run.  The first pass's traces are recomputed through
        ``Pipeline.record_trace`` and the trace file.
        """

        return {"plans": {}, "traces": None}

    def _record_traces(self, state, plans) -> List[tuple]:
        traces = []
        workdir = _new_root(self.work_dir, "release-ref-")
        try:
            for index, (name, environment) in enumerate(state["batch"]):
                pipeline = pipeline_over(state["pipelines"][name], self.config)
                path = os.path.join(workdir, f"{index}.trace")
                recording = pipeline.record_trace(plans[name], environment,
                                                  path)
                with open(path, "rb") as handle:
                    data = handle.read()
                crash = recording.crash_site
                traces.append((digest(data),
                               (crash.function, crash.line) if crash else None))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return traces

    def record_slots(self, state) -> List[List[int]]:
        """Batch indices to record after each program's analysis.

        The batch is cut into one slice per analysis in index order, and an
        item waits for its own program's plan.  The uServer runs are thus
        recorded across the whole pass, so the record latency samples the
        host over the pass rather than over one two-second stretch.
        """

        batch = state["batch"]
        slots: List[List[int]] = [[] for _ in self.order]
        for index, (program, _) in enumerate(batch):
            slot = max(index * len(self.order) // len(batch),
                       self.order.index(program))
            slots[slot].append(index)
        return slots

    def run_pass(self, state, tracer) -> PassResult:
        result = PassResult()
        start = clock()
        coverage, overheads, sizes = [], [], []
        pipelines, plans = {}, {}
        for name, slot in zip(self.order, self.record_slots(state)):
            pipeline = pipelines[name] = pipeline_over(
                state["pipelines"][name], self.config)
            tick()
            analysis = pipeline.analyze(inputs.analysis_environment(name))
            tick()
            plan = plans[name] = pipeline.make_plan(self.method, analysis)
            dynamic = analysis.dynamic
            coverage.append(dynamic.coverage)
            result.outputs.append(("plan", name, plan, dynamic.iterations,
                                   dynamic.wall_seconds))
            result.work.append((name, dynamic.iterations, dynamic.solver_calls,
                                dynamic.explored_paths))
            for index in slot:
                program, environment = state["batch"][index]
                began = clock()
                shipped, recording = _record(pipelines[program],
                                             plans[program], program,
                                             environment, tracer)
                result.samples.append(clock() - began)
                crash = recording.crash_site
                result.outputs.append((
                    "trace", index, shipped.data,
                    (crash.function, crash.line) if crash else None))
                result.work.append((index, recording.execution.steps,
                                    len(shipped.data)))
                overheads.append(shipped.overhead_percent)
                sizes.append(len(shipped.data))
        result.seconds = result.report_seconds = clock() - start
        result.reports = len(sizes)
        result.figures = {"analysis_coverage": _mean(coverage),
                          "record_overhead": _mean(overheads),
                          "trace_bytes": _mean(sizes),
                          "reproduced": sum(1 for out in result.outputs
                                            if out[0] == "trace" and out[3])}
        return result

    def check(self, state, ref, result: PassResult) -> int:
        failed = 0
        plans = {output[1]: output[2] for output in result.outputs
                 if output[0] == "plan"}
        if ref["traces"] is None:
            ref["traces"] = self._record_traces(state, plans)
        for output in result.outputs:
            if output[0] == "plan":
                _, name, plan, iterations, wall = output
                expected = ref["plans"].setdefault(
                    name, (plan.fingerprint(), iterations))
                ok = (expected == (plan.fingerprint(), iterations)
                      and wall < self.config.instrumentation
                      .concolic_budget.max_seconds)
            else:
                _, index, data, crash = output
                expected_digest, expected_crash = ref["traces"][index]
                try:
                    round_trip = dump_trace_bytes(load_trace_bytes(data))
                except TraceError:
                    round_trip = b""
                ok = (digest(data) == expected_digest and round_trip == data
                      and crash is not None and crash == expected_crash)
            failed += not ok
        return failed


# ---------------------------------------------------------------------------
# shared set-up of the developer-site workloads
# ---------------------------------------------------------------------------


class _Shipped:
    """Set-up shared by triage and fleet: analyse (8 iterations), plan,
    record and encode a seeded list of crashing runs."""

    iterations = 8
    stream = ""
    shapes: Tuple[Shape, ...] = ()

    def __init__(self, work_dir: str,
                 shapes: Optional[Sequence[Shape]] = None) -> None:
        #: Directory (inside the checkout) for service roots and traces.
        self.work_dir = work_dir
        if shapes is not None:
            self.shapes = tuple(shapes)
        self.config = repro_config(self.iterations)

    @staticmethod
    def method_for(program: str) -> InstrumentationMethod:
        # paste's 8-iteration dynamic plan logs too few branches for its
        # replay search to terminate in bounded memory; it ships the
        # dynamic+static plan built from the same analysis.
        return DYNAMIC_PLUS_STATIC if program == "paste" else DYNAMIC

    def programs_used(self) -> List[str]:
        return sorted({shape.program for shape in self.shapes})

    def _plans(self, make_pipeline) -> Tuple[dict, dict, List[float]]:
        pipelines, plans, coverage = {}, {}, []
        for name in self.programs_used():
            tick()
            pipeline = make_pipeline(name)
            analysis = pipeline.analyze(inputs.analysis_environment(name))
            pipelines[name] = pipeline
            plans[name] = pipeline.make_plan(self.method_for(name), analysis)
            coverage.append(analysis.dynamic.coverage)
        return pipelines, plans, coverage

    def setup(self, seed: int, tracer) -> dict:
        pipelines, plans, coverage = self._plans(
            lambda name: new_pipeline(name, self.config))
        batch = inputs.batch(seed, self.stream, self.shapes)
        shipped = [_record(pipelines[program], plans[program], program,
                           environment, tracer)[0]
                   for program, environment in batch]
        return {"batch": batch, "shipped": shipped,
                "coverage": _mean(coverage)}

    def input_bytes(self, state) -> List[bytes]:
        return [inputs.environment_bytes(env) for _, env in state["batch"]]

    def reference(self, state) -> dict:
        """Single-shot recompute of every trace and of its reproduction."""

        pipelines, plans, _ = self._plans(
            lambda name: new_pipeline(name, self.config))
        expected = []
        workdir = _new_root(self.work_dir, f"{self.stream}-ref-")
        try:
            for index, (program, environment) in enumerate(state["batch"]):
                path = os.path.join(workdir, f"{index}.trace")
                pipelines[program].record_trace(plans[program], environment,
                                                path)
                trace = load_trace(path)
                with open(path, "rb") as handle:
                    recomputed = handle.read()
                report = pipelines[program].reproduce_from_trace(trace)
                outcome = report.outcome
                expected.append({
                    "digest": digest(recomputed),
                    "fingerprint": outcome_fingerprint(outcome),
                    "reproduced": outcome.reproduced,
                    "reaches_crash": reaches_crash(
                        pipelines[program].program, trace,
                        outcome.found_input),
                })
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return {"traces": expected}

    def check_shipped(self, state, ref) -> int:
        """Set-up's traces must equal the single-shot recompute byte for byte."""

        return sum(digest(shipped.data) != expected["digest"]
                   for shipped, expected in zip(state["shipped"],
                                                ref["traces"]))

    def report_ok(self, ref, index: int, report) -> bool:
        expected = ref["traces"][index]
        return (report is not None and not report.error
                and report.reproduced and not report.timed_out
                and report.fingerprint() == expected["fingerprint"]
                and expected["reproduced"] and expected["reaches_crash"])

    def figures(self, state) -> Dict[str, float]:
        shipped = state["shipped"]
        return {"analysis_coverage": state["coverage"],
                "record_overhead": _mean([s.overhead_percent
                                          for s in shipped]),
                "trace_bytes": _mean([len(s.data) for s in shipped])}


def _new_root(work_dir: str, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=work_dir)


# ---------------------------------------------------------------------------
# triage: the developer site, replay-heavy
# ---------------------------------------------------------------------------


class Triage(_Shipped):
    """Distinct crashing traces driven one at a time through
    ``ingest_bytes`` -> ``process`` -> report by one caller (closed loop)."""

    name = "triage"
    stream = "triage"
    #: Fourteen uServer searches, so the median report time lies inside one
    #: group whatever the diff, paste and coreutils searches cost, then two
    #: grown diff and paste searches and the four coreutils bugs.
    shapes = ((Shape("userver", 2, 12),) * 14 + (Shape("diff", 5, 100),) * 2
              + (Shape("paste", 16, 256),) * 2
              + (Shape("mkdir"), Shape("mknod"), Shape("mkfifo"),
                 Shape("paste")))
    min_passes = 2
    setup_block = 2

    def run_pass(self, state, tracer) -> PassResult:
        result = PassResult()
        start = clock()
        root = _new_root(self.work_dir, "triage-")
        try:
            service = ReproService(root, config=self.config,
                                   programs=inputs.programs())
            try:
                for index, shipped in enumerate(state["shipped"]):
                    tick()
                    began = clock()
                    report = None
                    try:
                        ingest = service.ingest_bytes(shipped.data,
                                                      source=shipped.name)
                        report = service.process().get(ingest.trace_id)
                    except TraceError:
                        pass
                    result.samples.append(clock() - began)
                    result.outputs.append((index, report))
                    result.work.append(
                        (index,) + ((report.runs, report.solver_calls,
                                     report.warm_start_hits)
                                    if report is not None else ()))
            finally:
                service.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        result.seconds = clock() - start
        result.report_seconds = sum(result.samples)
        result.reports = len(result.samples)
        result.figures = dict(self.figures(state), reproduced=sum(
            1 for _, report in result.outputs
            if report is not None and report.reproduced))
        return result

    def check(self, state, ref, result: PassResult) -> int:
        return sum(not self.report_ok(ref, index, report)
                   for index, report in result.outputs)


# ---------------------------------------------------------------------------
# fleet: the ingestion tier, upload-heavy
# ---------------------------------------------------------------------------


class Fleet(_Shipped):
    """Zipf-duplicated uploads over loopback from one client thread."""

    name = "fleet"
    stream = "fleet"
    #: A few cheap distinct bugs; searches are few and short.
    shapes = (Shape("paste", 3, 24), Shape("paste", 4, 32),
              Shape("paste", 5, 40), Shape("mkdir"), Shape("mknod"),
              Shape("mkfifo"))
    uploads = 600
    min_passes = 1
    setup_block = 10

    def __init__(self, work_dir: str,
                 shapes: Optional[Sequence[Shape]] = None,
                 uploads: Optional[int] = None) -> None:
        super().__init__(work_dir, shapes)
        if uploads is not None:
            self.uploads = uploads

    def setup(self, seed: int, tracer) -> dict:
        state = super().setup(seed, tracer)
        state["schedule"] = inputs.zipf_schedule(seed, self.uploads,
                                                 len(self.shapes))
        return state

    def input_bytes(self, state) -> List[bytes]:
        return super().input_bytes(state) + [repr(state["schedule"]).encode()]

    def run_pass(self, state, tracer) -> PassResult:
        result = PassResult()
        shipped = state["shipped"]
        start = clock()
        root = _new_root(self.work_dir, "fleet-")
        try:
            server = UploadServer(root, config=self.config,
                                  service=ReproService(
                                      root, config=self.config,
                                      programs=inputs.programs())).start()
            clients: Dict[str, UploadClient] = {}
            receipts: List[tuple] = []
            seen = set()
            try:
                upload_start = clock()
                for user, bug in state["schedule"]:
                    tick()
                    client = clients.get(user)
                    if client is None:
                        client = clients[user] = UploadClient(
                            server.host, server.port, client_id=user)
                    began = clock()
                    try:
                        receipt = client.upload(shipped[bug].data)
                    except (UploadFailed, UploadRejected, OSError):
                        receipt = None
                    result.samples.append(clock() - began)
                    receipts.append((bug, receipt, bug in seen))
                    seen.add(bug)
                result.report_seconds = clock() - upload_start
                drained = len(next(iter(clients.values())).process()["reports"])
            finally:
                server.shutdown()
            retries = sum(client.stats["retries"]
                          for client in clients.values())
            tracer.count("service.net.retries", retries)
            for bug, receipt, expected_duplicate in receipts:
                report = (server.service.report(receipt.trace_id)
                          if receipt is not None else None)
                result.outputs.append((
                    bug, receipt is not None
                    and receipt.duplicate == expected_duplicate, report))
                result.work.append((bug, receipt is not None
                                    and receipt.duplicate))
            result.work.append(("drained", drained, "retries", retries))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        result.seconds = clock() - start
        acked = [receipt for _, receipt, _ in receipts if receipt is not None]
        result.reports = len(acked)
        result.figures = dict(
            self.figures(state),
            reproduced=sum(1 for _, _, report in result.outputs
                           if report is not None and report.reproduced),
            dedup_frac=(sum(receipt.duplicate for receipt in acked)
                        / max(1, len(acked))))
        return result

    def check(self, state, ref, result: PassResult) -> int:
        return sum(not (receipt_ok and self.report_ok(ref, bug, report))
                   for bug, receipt_ok, report in result.outputs)


WORKLOADS = {"release": Release, "triage": Triage, "fleet": Fleet}
