"""Per-layer spans recorded from outside the program.

The traced run wraps each layer's public entry point *as bound in the module
that calls it* (``repro.concolic.engine.solve`` and ``repro.replay.engine.solve``
are separate wraps of one function), records a span per call with its parent
on the same thread, and counts work at the same boundaries.  Nothing under
``src/`` changes; every binding is patched with ``unittest.mock.patch.object``
and restored when the block ends.

A span's self time is its duration minus the durations of its direct
children.  A span's parent is the innermost open span on its thread; a span
that opens on a thread with none (a server thread handling an upload) takes
the client's in-flight request span as its parent, which is exact because
one client thread keeps one request in flight and the server finishes its
work for a request before acknowledging it.
"""

from __future__ import annotations

import contextlib
import threading
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

from repro.interp.tracer import NullHooks

from lifecycle_bench.hostspeed import clock

#: Per-layer metrics in report order: ``name -> unit``.
PER_LAYER: Dict[str, str] = {
    "concolic.solve.busy_s": "s",
    "concolic.solve.calls": "count",
    "concolic.exec.busy_s": "s",
    "concolic.exec.runs": "count",
    "concolic.exec.steps": "count",
    "analysis.busy_s": "s",
    "instrument.busy_s": "s",
    "instrument.logged_branches": "count",
    "record.busy_s": "s",
    "record.steps": "count",
    "replay.exec.busy_s": "s",
    "replay.exec.runs": "count",
    "replay.exec.steps": "count",
    "replay.solve.busy_s": "s",
    "replay.solve.calls": "count",
    "replay.warm_start_hits": "count",
    "replay.runs_per_repro": "count",
    "replay.self_s": "s",
    "service.self_s": "s",
    "trace.encode_s": "s",
    "trace.decode_s": "s",
    "service.inbox.busy_s": "s",
    "service.inbox.dup_frac": "frac",
    "service.journal.busy_s": "s",
    "service.net.self_s": "s",
    "service.net.queue_wait_s": "s",
    "service.net.retries": "count",
    "lang.busy_s": "s",
    "vm.compile.busy_s": "s",
    "vm.compile.cache_hit_frac": "frac",
    "trace_overhead": "ratio",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_seconds")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.start = clock()
        self.end = self.start
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """In-memory spans and counters, safe to use from several threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: The client request in flight, parent of server-thread root spans.
        self.request: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        current = Span(name, stack[-1] if stack else self.request)
        stack.append(current)
        try:
            yield current
        finally:
            current.end = clock()
            stack.pop()
            with self._lock:
                if current.parent is not None:
                    current.parent.child_seconds += current.seconds
                self.spans.append(current)

    @contextlib.contextmanager
    def client_request(self, name: str) -> Iterator[Span]:
        """A client-side span that server-thread spans nest under."""

        with self.span(name) as request:
            self.request = request
            try:
                yield request
            finally:
                self.request = None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def busy(self, name: str) -> float:
        """Inclusive seconds in *name* spans (outermost ones only)."""

        return sum(span.seconds for span in self.spans if span.name == name
                   and not _inside(span, name))

    def self_seconds(self, name: str) -> float:
        return sum(span.self_seconds for span in self.spans
                   if span.name == name)

    def ranking(self) -> List[Tuple[str, float]]:
        """Self time per span name, largest first."""

        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_seconds
        return sorted(totals.items(), key=lambda item: (-item[1], item[0]))


def _inside(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = NullTracer()


def _timed(tracer: Tracer, name: str, func: Callable,
           on_result: Optional[Callable[[object], None]] = None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        tracer.count(name + ".calls")
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _client_request(tracer: Tracer, name: str, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.client_request(name):
            return func(*args, **kwargs)

    return wrapper


def _backend_factory(tracer: Tracer, name: str, create: Callable,
                     plain_name: Optional[str] = None) -> Callable:
    """Wrap ``create_backend`` so each backend's ``run`` is a *name* span.

    With *plain_name*, a backend built with ``NullHooks`` (an uninstrumented
    run) gets a *plain_name* span instead.
    """

    def factory(*args, **kwargs):
        backend = create(*args, **kwargs)
        run = backend.run
        span = (plain_name if plain_name is not None
                and isinstance(kwargs.get("hooks"), NullHooks) else name)

        def traced_run(argv):
            with tracer.span(span):
                result = run(argv)
            tracer.count(span + ".runs")
            tracer.count(span + ".steps", result.steps)
            return result

        backend.run = traced_run
        return backend

    return factory


@contextlib.contextmanager
def instrumented(tracer: Tracer, bench_module) -> Iterator[Tracer]:
    """Wrap every layer's entry points for the duration of the block.

    *bench_module* is the benchmark module that encodes traces itself; its
    ``dump_trace_bytes`` binding is the ``trace.encode`` boundary.
    """

    import repro.concolic.engine as concolic_engine
    import repro.core.pipeline as pipeline
    import repro.replay.engine as replay_engine
    import repro.service.inbox as inbox
    import repro.service.net as net
    import repro.service.service as service
    import repro.vm.compiler as compiler
    import repro.vm.machine as machine
    from repro.lang.program import Program

    with contextlib.ExitStack() as stack:
        def patch(owner: object, attr: str, value: object) -> None:
            stack.enter_context(mock.patch.object(owner, attr, value))

        patch(concolic_engine, "solve",
              _timed(tracer, "concolic.solve", concolic_engine.solve))
        patch(replay_engine, "solve",
              _timed(tracer, "replay.solve", replay_engine.solve))
        patch(concolic_engine, "create_backend", _backend_factory(
            tracer, "concolic.exec", concolic_engine.create_backend))
        patch(replay_engine, "create_backend", _backend_factory(
            tracer, "replay.exec", replay_engine.create_backend))
        # Pipeline.record also makes the uninstrumented baseline run of the
        # overhead model; it is a span of its own, not part of ``record``.
        patch(pipeline, "create_backend", _backend_factory(
            tracer, "record", pipeline.create_backend, plain_name="baseline"))
        patch(pipeline, "build_plan",
              _timed(tracer, "instrument", pipeline.build_plan))

        class TracedStaticAnalyzer(pipeline.StaticAnalyzer):
            def run(self):
                with tracer.span("analysis"):
                    return super().run()

        patch(pipeline, "StaticAnalyzer", TracedStaticAnalyzer)
        patch(machine, "compile_program",
              _timed(tracer, "vm.compile", machine.compile_program))
        from_source = vars(Program)["from_source"].__func__
        patch(Program, "from_source",
              classmethod(_timed(tracer, "lang", from_source)))
        patch(bench_module, "dump_trace_bytes",
              _timed(tracer, "trace.encode", bench_module.dump_trace_bytes))
        patch(inbox, "load_trace_bytes",
              _timed(tracer, "trace.decode", inbox.load_trace_bytes))
        patch(net, "load_trace_bytes",
              _timed(tracer, "trace.decode", net.load_trace_bytes))
        patch(service, "load_trace",
              _timed(tracer, "trace.decode", service.load_trace))

        def note_search(outcome) -> None:
            tracer.count("replay.searches")
            tracer.count("replay.reproduced", bool(outcome.reproduced))
            tracer.count("replay.warm_start_hits", outcome.warm_start_hits)

        patch(replay_engine.ReplayEngine, "reproduce", _timed(
            tracer, "replay", replay_engine.ReplayEngine.reproduce,
            note_search))
        patch(service.ReproService, "process", _timed(
            tracer, "service", service.ReproService.process))

        def note_ingest(result) -> None:
            tracer.count("service.inbox.ingests")
            tracer.count("service.inbox.duplicates", bool(result.duplicate))

        patch(inbox.TraceInbox, "ingest_bytes", _timed(
            tracer, "service.inbox", inbox.TraceInbox.ingest_bytes,
            note_ingest))
        # The listener's path: ingest_bytes plus the inbox state rewrite.
        patch(inbox.TraceInbox, "ingest_spooled", _timed(
            tracer, "service.inbox", inbox.TraceInbox.ingest_spooled))
        for method in ("upload", "process"):
            patch(net.UploadClient, method, _client_request(
                tracer, "service.net", getattr(net.UploadClient, method)))

        # Queue wait: from the upload handler admitting an upload to the
        # spool writer starting its journaled write, matched by filename.
        enqueued: Dict[str, float] = {}
        pending_cls = net._PendingUpload

        class StampedPendingUpload(pending_cls):
            def __init__(self, client, digest, data, partition, filename):
                super().__init__(client, digest, data, partition, filename)
                enqueued[filename] = clock()

        spool_write = net.journaled_spool_write

        def journaled_write(journal, final_path, data, *args, **kwargs):
            admitted = enqueued.pop(kwargs.get("key", ""), None)
            if admitted is not None:
                tracer.count("service.net.queue_wait_s",
                             clock() - admitted)
            with tracer.span("service.journal"):
                return spool_write(journal, final_path, data, *args, **kwargs)

        patch(net, "_PendingUpload", StampedPendingUpload)
        patch(net, "journaled_spool_write", journaled_write)

        before = compiler.cache_stats()
        yield tracer
        after = compiler.cache_stats()
        tracer.count("vm.compile.hits", after["hits"] - before["hits"])
        tracer.count("vm.compile.misses", after["misses"] - before["misses"])


def layer_metrics(tracer: Tracer, trace_overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced set-up plus pass."""

    counts = tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "concolic.solve.busy_s": tracer.busy("concolic.solve"),
        "concolic.solve.calls": counts["concolic.solve.calls"],
        "concolic.exec.busy_s": tracer.busy("concolic.exec"),
        "concolic.exec.runs": counts["concolic.exec.runs"],
        "concolic.exec.steps": counts["concolic.exec.steps"],
        "analysis.busy_s": tracer.busy("analysis"),
        "instrument.busy_s": tracer.busy("instrument"),
        "instrument.logged_branches": counts["instrument.logged_branches"],
        "record.busy_s": tracer.busy("record"),
        "record.steps": counts["record.steps"],
        "replay.exec.busy_s": tracer.busy("replay.exec"),
        "replay.exec.runs": counts["replay.exec.runs"],
        "replay.exec.steps": counts["replay.exec.steps"],
        "replay.solve.busy_s": tracer.busy("replay.solve"),
        "replay.solve.calls": counts["replay.solve.calls"],
        "replay.warm_start_hits": counts["replay.warm_start_hits"],
        "replay.runs_per_repro": ratio(counts["replay.exec.runs"],
                                       counts["replay.reproduced"]),
        "replay.self_s": tracer.self_seconds("replay"),
        "service.self_s": tracer.self_seconds("service"),
        "trace.encode_s": tracer.busy("trace.encode"),
        "trace.decode_s": tracer.busy("trace.decode"),
        "service.inbox.busy_s": tracer.busy("service.inbox"),
        "service.inbox.dup_frac": ratio(counts["service.inbox.duplicates"],
                                        counts["service.inbox.ingests"]),
        "service.journal.busy_s": tracer.busy("service.journal"),
        "service.net.self_s": tracer.self_seconds("service.net"),
        "service.net.queue_wait_s": counts["service.net.queue_wait_s"],
        "service.net.retries": counts["service.net.retries"],
        "lang.busy_s": tracer.busy("lang"),
        "vm.compile.busy_s": tracer.busy("vm.compile"),
        "vm.compile.cache_hit_frac": ratio(
            counts["vm.compile.hits"],
            counts["vm.compile.hits"] + counts["vm.compile.misses"]),
        "trace_overhead": trace_overhead,
    }
