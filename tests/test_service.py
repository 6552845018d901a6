"""The service layer: inbox dedup, scheduling, sessions, fan-out, restart.

The load-bearing contract is the acceptance criterion of the trace-inbox
design: for a batch of K traces with D distinct ``(fingerprint, crash
site)`` clusters, exactly D replay searches execute, every trace receives a
report, and each report's explored search tree is **byte-identical** to
running that trace alone through ``Pipeline.reproduce_from_trace``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import InstrumentationMethod, ReplayBudget
from repro.service import (
    ReproConfig,
    ReproService,
    TraceInbox,
    outcome_fingerprint,
    workload_pipeline,
)
from repro.trace import (
    TraceError,
    dump_trace_bytes,
    load_trace_bytes,
    trace_from_recording,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def service_config() -> ReproConfig:
    config = ReproConfig()
    config.execution.backend = "vm"
    config.replay.budget = ReplayBudget(max_runs=1500, max_seconds=60)
    return config


def record_trace_bytes(workload: str) -> bytes:
    """One shipped bug report (privacy scaffold) for *workload*, as bytes."""

    pipeline, environment = workload_pipeline(workload,
                                              config=service_config())
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    trace = trace_from_recording(recording, scaffold=True,
                                 program_name=workload)
    return dump_trace_bytes(trace)


@pytest.fixture(scope="module")
def mkdir_bytes() -> bytes:
    return record_trace_bytes("mkdir-bug")


@pytest.fixture(scope="module")
def mkfifo_bytes() -> bytes:
    return record_trace_bytes("mkfifo-bug")


@pytest.fixture(scope="module")
def paste_bytes() -> bytes:
    return record_trace_bytes("paste-bug")


class TestInboxIngestion:
    def test_bytes_cluster_by_fingerprint_and_crash(self, tmp_path,
                                                    mkdir_bytes,
                                                    mkfifo_bytes):
        inbox = TraceInbox(str(tmp_path / "inbox"))
        first = inbox.ingest_bytes(mkdir_bytes)
        dup = inbox.ingest_bytes(mkdir_bytes)
        other = inbox.ingest_bytes(mkfifo_bytes)
        assert not first.duplicate and dup.duplicate and not other.duplicate
        assert first.cluster_id == dup.cluster_id != other.cluster_id
        assert first.trace_id != dup.trace_id
        assert inbox.describe() == {"traces": 3, "clusters": 2, "pending": 2,
                                    "done": 0, "rejected": 0}
        cluster = inbox.cluster_of(first.trace_id)
        assert cluster.members == [first.trace_id, dup.trace_id]
        assert cluster.crash_site == first.crash_site

    def test_spool_polling_skips_seen_and_survives_corruption(
            self, tmp_path, mkdir_bytes, mkfifo_bytes):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "u1.trace").write_bytes(mkdir_bytes)
        (spool / "u2.trace").write_bytes(mkdir_bytes)
        (spool / "u3.trace").write_bytes(mkfifo_bytes)
        (spool / "broken.trace").write_bytes(mkdir_bytes[: len(mkdir_bytes) // 2])
        (spool / "notes.txt").write_text("not a trace")

        inbox = TraceInbox(str(tmp_path / "inbox"))
        results = inbox.poll_spool(str(spool))
        assert len(results) == 3  # .txt ignored, corrupt skipped for now
        # The unparsable file gets one grace poll (it could be mid-write);
        # unchanged on the second poll, it is rejected for good.
        assert len(inbox.rejected) == 0
        assert inbox.poll_spool(str(spool)) == []
        assert len(inbox.rejected) == 1
        reason = next(iter(inbox.rejected.values()))
        assert "TraceFormatError" in reason and "\n" not in reason
        # Re-polling ingests nothing new (including the rejected file).
        assert inbox.poll_spool(str(spool)) == []
        assert inbox.describe()["traces"] == 3

    def test_state_persists_across_restart(self, tmp_path, mkdir_bytes,
                                           mkfifo_bytes):
        root = str(tmp_path / "inbox")
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "a.trace").write_bytes(mkdir_bytes)
        (spool / "b.trace").write_bytes(mkfifo_bytes)
        first = TraceInbox(root)
        assert len(first.poll_spool(str(spool))) == 2
        # A fresh instance on the same root resumes, not restarts.
        reborn = TraceInbox(root)
        assert reborn.poll_spool(str(spool)) == []
        assert reborn.describe()["traces"] == 2
        assert {c.cluster_id for c in reborn.clusters.values()} \
            == {c.cluster_id for c in first.clusters.values()}
        # The stored copies survive too.
        for trace_id in reborn.traces:
            assert os.path.exists(reborn.trace_path(trace_id))

    def test_persist_false_writes_no_state(self, tmp_path, mkdir_bytes):
        root = str(tmp_path / "inbox")
        inbox = TraceInbox(root, persist=False)
        inbox.ingest_bytes(mkdir_bytes)
        assert not os.path.exists(os.path.join(root, "inbox.json"))

    def test_priority_orders(self, tmp_path, mkdir_bytes, paste_bytes):
        inbox = TraceInbox(str(tmp_path / "inbox"))
        big = inbox.ingest_bytes(mkdir_bytes)   # more bits
        small = inbox.ingest_bytes(paste_bytes)  # fewer bits, later arrival
        assert big.bits > small.bits
        smallest = [c.cluster_id for c in inbox.pending_clusters()]
        assert smallest == [small.cluster_id, big.cluster_id]
        arrival = [c.cluster_id
                   for c in inbox.pending_clusters(priority="arrival")]
        assert arrival == [big.cluster_id, small.cluster_id]


# ---------------------------------------------------------------------------
# the inbox ledger: snapshot + append-only log
# ---------------------------------------------------------------------------


def inbox_state(inbox: TraceInbox) -> tuple:
    """Everything a reload must reproduce, order included."""

    return (inbox._sequence,
            list(inbox.traces.items()),
            [(cid, cluster.to_json())
             for cid, cluster in inbox.clusters.items()],
            list(inbox.spooled.items()),
            list(inbox.rejected.items()))


@pytest.fixture(scope="module")
def decoded(mkdir_bytes, mkfifo_bytes, paste_bytes) -> list:
    return [(data, load_trace_bytes(data))
            for data in (mkdir_bytes, mkfifo_bytes, paste_bytes)]


def mixed_history(inbox: TraceInbox, decoded: list, steps: int,
                  seed: int = 0) -> None:
    """A seeded mix of ingests (plain and spooled), rejections (with
    re-rejections and evictions) and finished or failed searches."""

    rng = random.Random(seed)
    for step in range(steps):
        roll = rng.random()
        if roll < 0.6 or not inbox.clusters:
            data, trace = rng.choice(decoded)
            inbox.ingest_bytes(data, source=f"/spool/u{step}.trace",
                               trace=trace, spooled=rng.random() < 0.5)
        elif roll < 0.8:
            inbox.reject(f"net:c{rng.randrange(40)}",
                         TraceError(f"bad upload {step}"))
        else:
            cluster_id = rng.choice(sorted(inbox.clusters))
            inbox.mark_done(cluster_id, {"reproduced": True, "step": step},
                            failed=rng.random() < 0.2)


@pytest.fixture
def replaces(monkeypatch) -> list:
    """Destinations of every ``os.replace`` made while the test runs."""

    calls = []
    real_replace = os.replace

    def counting_replace(src, dst):
        calls.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    return calls


class TestInboxLedger:
    def test_mutations_append_to_the_log(self, tmp_path, mkdir_bytes):
        root = tmp_path / "inbox"
        inbox = TraceInbox(str(root))
        first = inbox.ingest_bytes(mkdir_bytes)
        inbox.ingest_bytes(mkdir_bytes)
        inbox.reject("net:x", TraceError("garbage"))
        inbox.mark_done(first.cluster_id, {"reproduced": True})
        records = [json.loads(line) for line in
                   (root / "inbox.log").read_text().splitlines()]
        assert [r["op"] for r in records] == \
            ["ingest", "ingest", "reject", "done"]
        assert "cluster" in records[0] and "cluster" not in records[1]
        # Below the compaction floor no snapshot is written yet.
        assert not (root / "inbox.json").exists()
        assert inbox_state(TraceInbox(str(root))) == inbox_state(inbox)

    def test_torn_trailing_line_reloads_live_state(self, tmp_path, decoded):
        root = str(tmp_path / "inbox")
        inbox = TraceInbox(root, store_traces=False)
        mixed_history(inbox, decoded, 40)
        log = os.path.join(root, "inbox.log")
        intact = os.path.getsize(log)
        with open(log, "a") as handle:
            handle.write('{"op": "ingest", "trace_id": "t0')
        reborn = TraceInbox(root, store_traces=False)
        assert inbox_state(reborn) == inbox_state(inbox)
        # The torn tail is cut off, so the next record starts a fresh line
        # instead of being glued onto it.
        assert os.path.getsize(log) == intact
        mixed_history(reborn, decoded, 10, seed=1)
        assert inbox_state(TraceInbox(root, store_traces=False)) \
            == inbox_state(reborn)

    def test_crash_between_snapshot_replace_and_log_truncate(
            self, tmp_path, decoded, monkeypatch):
        class Crash(Exception):
            pass

        real_replace = os.replace

        def replace_then_crash(src, dst):
            real_replace(src, dst)
            raise Crash()

        # A small rejection ledger makes evictions part of the history: a
        # stale reject replayed over the snapshot would resurrect an
        # evicted entry and evict another one.
        root = str(tmp_path / "inbox")
        inbox = TraceInbox(root, store_traces=False, max_rejected=4)
        monkeypatch.setattr(os, "replace", replace_then_crash)
        with pytest.raises(Crash):
            mixed_history(inbox, decoded, 200)
        monkeypatch.undo()
        # The snapshot already holds every record the log still carries.
        assert os.path.getsize(os.path.join(root, "inbox.log")) > 0
        reborn = TraceInbox(root, store_traces=False, max_rejected=4)
        assert inbox_state(reborn) == inbox_state(inbox)
        mixed_history(reborn, decoded, 30, seed=2)
        assert inbox_state(TraceInbox(root, store_traces=False,
                                      max_rejected=4)) == inbox_state(reborn)

    def test_reload_after_many_compactions(self, tmp_path, decoded,
                                           replaces):
        root = str(tmp_path / "inbox")
        inbox = TraceInbox(root, store_traces=False, max_rejected=16)
        mixed_history(inbox, decoded, 600)
        assert len(replaces) >= 3
        assert len(inbox.rejected) == 16
        assert any(c.status == "failed" for c in inbox.clusters.values())
        reborn = TraceInbox(root, store_traces=False, max_rejected=16)
        assert inbox_state(reborn) == inbox_state(inbox)

    @pytest.mark.parametrize("ingests", [150, 600, 2000])
    def test_snapshot_rewrites_grow_logarithmically(self, tmp_path, decoded,
                                                    replaces, ingests):
        root = str(tmp_path / "inbox")
        inbox = TraceInbox(root, store_traces=False)
        data, trace = decoded[0]
        for _ in range(ingests):
            inbox.ingest_bytes(data, trace=trace)
        assert set(replaces) == {os.path.join(root, "inbox.json")}
        # Each rewrite at least doubles the snapshot: log2(n / floor) + 1.
        assert 1 <= len(replaces) <= math.log2(ingests / 64) + 1
        assert inbox_state(TraceInbox(root, store_traces=False)) \
            == inbox_state(inbox)

    def test_persist_false_writes_neither_file(self, tmp_path, decoded):
        root = tmp_path / "inbox"
        inbox = TraceInbox(str(root), persist=False, store_traces=False)
        mixed_history(inbox, decoded, 200)
        assert sorted(os.listdir(root)) == []

    def test_version_1_snapshot_still_loads(self, tmp_path, mkdir_bytes,
                                            mkfifo_bytes):
        root = tmp_path / "inbox"
        inbox = TraceInbox(str(root))
        first = inbox.ingest_bytes(mkdir_bytes)
        inbox.ingest_bytes(mkfifo_bytes)
        inbox.mark_done(first.cluster_id, {"reproduced": True})
        legacy = {
            "version": 1,
            "sequence": inbox._sequence,
            "traces": inbox.traces,
            "clusters": {cid: cluster.to_json()
                         for cid, cluster in inbox.clusters.items()},
            "spooled": inbox.spooled,
            "rejected": inbox.rejected,
        }
        (root / "inbox.log").unlink()
        (root / "inbox.json").write_text(
            json.dumps(legacy, indent=2, sort_keys=True))
        assert inbox_state(TraceInbox(str(root))) == inbox_state(inbox)


# ---------------------------------------------------------------------------
# the ledger decoders are total: a typed error or a consistent state
# ---------------------------------------------------------------------------


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


def load_or_trace_error(root: str):
    """Load *root* read-only; ``None`` when the loader raised TraceError."""

    try:
        return TraceInbox(root, persist=False, store_traces=False)
    except TraceError:
        return None


def assert_consistent(inbox: TraceInbox) -> None:
    """A loaded state is usable: traces and clusters refer to each other,
    and the snapshot encoder and decoder round-trip it."""

    members = [member for cluster in inbox.clusters.values()
               for member in cluster.members]
    assert sorted(members) == sorted(inbox.traces)
    for trace_id in inbox.traces:
        assert trace_id in inbox.cluster_of(trace_id).members
    assert all(trace_id in inbox.traces or trace_id == ""
               for trace_id in inbox.spooled.values())
    inbox.describe()
    inbox.pending_clusters()
    with tempfile.TemporaryDirectory() as other:
        copy = TraceInbox(other, store_traces=False)
        (copy._sequence, copy.traces, copy.clusters, copy.spooled,
         copy.rejected) = (inbox._sequence, inbox.traces, inbox.clusters,
                           inbox.spooled, inbox.rejected)
        copy._compact()
        assert inbox_state(TraceInbox(other, store_traces=False)) \
            == inbox_state(inbox)


@pytest.fixture(scope="module")
def ledger_files(decoded, tmp_path_factory) -> dict:
    """A real snapshot, a real log, and the live state after every log
    record (index = number of complete records)."""

    root = str(tmp_path_factory.mktemp("ledger"))
    inbox = TraceInbox(root, store_traces=False, max_rejected=4)
    mixed_history(inbox, decoded, 12)
    inbox._compact()
    with open(os.path.join(root, "inbox.json"), "rb") as handle:
        snapshot = handle.read()
    fresh = str(tmp_path_factory.mktemp("ledger-log"))
    inbox = TraceInbox(fresh, store_traces=False, max_rejected=4)
    states = [inbox_state(inbox)]
    for step in range(16):
        mixed_history(inbox, decoded, 1, seed=step)
        states.append(inbox_state(inbox))
    with open(os.path.join(fresh, "inbox.log"), "rb") as handle:
        log = handle.read()
    return {"snapshot": snapshot, "log": log, "states": states}


@contextlib.contextmanager
def ledger_root(files: dict):
    """A scratch inbox root holding *files* (name -> bytes)."""

    with tempfile.TemporaryDirectory() as root:
        for name, data in files.items():
            with open(os.path.join(root, name), "wb") as handle:
                handle.write(data)
        yield root


class TestInboxStateDecoding:
    @pytest.mark.parametrize("payload", [
        [], "x", 5, None,
        {"version": 1, "traces": 5},
        {"version": True},
        {"version": 3},
        {"version": 2, "clusters": {"c": {"program": "p", "scenario": "s",
                                          "bits": 1, "arrival": 1}}},
        {"version": 2, "spooled": {"a": 1}},
        {"version": 2, "traces": {"t1": {"cluster": "c", "program": "p",
                                         "scenario": "s", "file": "",
                                         "source": "b"}}},
        {"version": 2,
         "traces": {"t1": {"cluster": "c", "program": "p", "scenario": "s",
                           "file": "", "source": "b"}},
         "clusters": {"c": {"cluster_id": "c", "program": "p",
                            "scenario": "s", "bits": 1, "arrival": 1,
                            "members": ["t1", "t1"]}}},
    ])
    def test_ill_shaped_snapshot_raises_trace_error(self, tmp_path, payload):
        (tmp_path / "inbox.json").write_text(json.dumps(payload))
        with pytest.raises(TraceError):
            TraceInbox(str(tmp_path))

    def test_every_snapshot_truncation_raises_trace_error(self,
                                                          ledger_files):
        snapshot = ledger_files["snapshot"]
        with ledger_root({}) as root:
            path = os.path.join(root, "inbox.json")
            for offset in range(len(snapshot)):
                with open(path, "wb") as handle:
                    handle.write(snapshot[:offset])
                assert load_or_trace_error(root) is None, offset
            with open(path, "wb") as handle:
                handle.write(snapshot)
            assert load_or_trace_error(root) is not None

    @given(st.binary(max_size=200))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_arbitrary_snapshot_bytes(self, data):
        with ledger_root({"inbox.json": data}) as root:
            inbox = load_or_trace_error(root)
        if inbox is not None:
            assert_consistent(inbox)

    @given(json_values)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_arbitrary_snapshot_json(self, payload):
        with ledger_root({"inbox.json": json.dumps(payload).encode()}) as root:
            inbox = load_or_trace_error(root)
        if inbox is not None:
            assert_consistent(inbox)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_damaged_snapshot_field(self, ledger_files, data):
        """Replace or drop one field anywhere in a real snapshot."""

        payload = json.loads(ledger_files["snapshot"])
        node = payload
        while True:
            keys = list(node) if isinstance(node, dict) \
                else list(range(len(node)))
            key = data.draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child \
                    and data.draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and data.draw(st.booleans()):
                del node[key]
            else:
                node[key] = data.draw(json_values)
            break
        with ledger_root({"inbox.json": json.dumps(payload).encode()}) as root:
            inbox = load_or_trace_error(root)
        if inbox is not None:
            assert_consistent(inbox)

    def test_every_log_truncation_loads_the_complete_records(self,
                                                             ledger_files):
        log, states = ledger_files["log"], ledger_files["states"]
        with ledger_root({}) as root:
            path = os.path.join(root, "inbox.log")
            for offset in range(len(log) + 1):
                with open(path, "wb") as handle:
                    handle.write(log[:offset])
                inbox = TraceInbox(root, persist=False, store_traces=False,
                                   max_rejected=4)
                complete = log[:offset].count(b"\n")
                assert inbox_state(inbox) == states[complete], offset

    def test_conflicting_log_records_are_skipped(self, ledger_files):
        log, states = ledger_files["log"], ledger_files["states"]
        records = [json.loads(line) for line in log.splitlines()]
        ingests = [r for r in records if r["op"] == "ingest"]
        again = next(r for r in ingests if "cluster" not in r)
        founder = next(r for r in ingests if "cluster" in r)
        rival = json.loads(json.dumps(founder))  # recreates its cluster
        rival["trace_id"] = "t99999-rival"
        rival["cluster"]["members"] = ["t99999-rival"]
        unknown = {"op": "done", "cluster_id": "nope", "status": "done",
                   "report": None}
        extra = b"".join(json.dumps(r).encode() + b"\n"
                         for r in (again, rival, unknown, {"op": "bogus"}))
        with ledger_root({"inbox.log": log + extra}) as root:
            inbox = TraceInbox(root, persist=False, store_traces=False,
                               max_rejected=4)
        assert inbox_state(inbox) == states[-1]

    @given(st.binary(max_size=300))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_arbitrary_log_bytes(self, data):
        with ledger_root({"inbox.log": data}) as root:
            inbox = TraceInbox(root, persist=False, store_traces=False)
        assert_consistent(inbox)

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_damaged_log_records(self, ledger_files, data):
        """Damage fields of real records, drop and reorder lines."""

        lines = ledger_files["log"].splitlines()
        lines = data.draw(st.lists(st.sampled_from(lines), max_size=24))
        for index in data.draw(st.lists(
                st.integers(0, max(0, len(lines) - 1)), max_size=4)):
            if not lines:
                break
            record = json.loads(lines[index])
            record[data.draw(st.sampled_from(sorted(record)))] = \
                data.draw(json_values)
            lines[index] = json.dumps(record).encode()
        with ledger_root({"inbox.log": b"\n".join(lines) + b"\n"}) as root:
            inbox = TraceInbox(root, persist=False, store_traces=False)
        assert_consistent(inbox)


class TestServiceProcessing:
    def _loaded_service(self, tmp_path, batches) -> tuple:
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        ingested = []
        for data, copies in batches:
            for _ in range(copies):
                ingested.append(service.ingest_bytes(data))
        return service, ingested

    def test_dedup_is_semantics_preserving(self, tmp_path, mkdir_bytes,
                                           mkfifo_bytes):
        """K traces, D clusters -> exactly D searches; every report is
        byte-identical to the single-shot path for its trace."""

        service, ingested = self._loaded_service(
            tmp_path, [(mkdir_bytes, 3), (mkfifo_bytes, 2)])
        reports = service.process()
        stats = service.stats()
        assert stats.searches_run == 2  # D = 2 for K = 5
        assert stats.reports_fanned_out == 5
        assert set(reports) == {r.trace_id for r in ingested}

        singles = {}
        for data, workload in ((mkdir_bytes, "mkdir-bug"),
                               (mkfifo_bytes, "mkfifo-bug")):
            pipeline, _env = workload_pipeline(workload,
                                               config=service_config())
            from repro.trace import load_trace_bytes

            outcome = pipeline.reproduce_from_trace(
                load_trace_bytes(data)).outcome
            singles[workload] = outcome_fingerprint(outcome)
        for report in reports.values():
            assert report.reproduced
            assert report.fingerprint() == singles[report.program], \
                f"{report.trace_id} diverged from the single-shot search"
        assert stats.dedup_ratio == 2.5

    def test_cluster_pool_matches_inline(self, tmp_path, mkdir_bytes,
                                         mkfifo_bytes):
        """service.workers > 1 (persistent process pool) explores the same
        trees the inline scheduler does."""

        inline_service, _ = self._loaded_service(
            tmp_path / "inline", [(mkdir_bytes, 1), (mkfifo_bytes, 1)])
        inline = inline_service.process()

        config = service_config()
        config.service.workers = 2
        pooled_service = ReproService(str(tmp_path / "pooled"), config=config)
        pooled_ids = [pooled_service.ingest_bytes(data).trace_id
                      for data in (mkdir_bytes, mkfifo_bytes)]
        with pooled_service:
            pooled = pooled_service.process()
        assert pooled_service.stats().searches_run == 2
        inline_prints = sorted(r.fingerprint() for r in inline.values())
        pooled_prints = sorted(pooled[tid].fingerprint()
                               for tid in pooled_ids)
        assert pooled_prints == inline_prints

    def test_session_scopes_reports_to_its_traces(self, tmp_path,
                                                  mkdir_bytes, mkfifo_bytes):
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        with service.session(name="user-a") as alice:
            a1 = alice.ingest_bytes(mkdir_bytes)
            a2 = alice.ingest_bytes(mkdir_bytes)
        with service.session(name="user-b") as bob:
            b1 = bob.ingest_bytes(mkfifo_bytes)
        assert alice.report(a1.trace_id) is None  # nothing processed yet
        service.process()
        alice_reports = alice.reports()
        assert set(alice_reports) == {a1.trace_id, a2.trace_id}
        assert all(r.reproduced for r in alice_reports.values())
        assert alice_reports[a2.trace_id].duplicate_of == a1.trace_id
        assert bob.report(b1.trace_id).program == "mkfifo-bug"

    def test_reports_survive_restart(self, tmp_path, mkdir_bytes):
        root = str(tmp_path / "inbox")
        service = ReproService(root, config=service_config())
        trace_id = service.ingest_bytes(mkdir_bytes).trace_id
        report = service.process()[trace_id]
        reborn = ReproService(root, config=service_config())
        restored = reborn.report(trace_id)
        assert restored is not None
        assert restored.fingerprint() == report.fingerprint()
        # Nothing pending: a restarted service re-runs no searches.
        assert reborn.process() == {}
        assert reborn.stats().searches_run == 0

    def test_unknown_program_fails_cluster_not_service(self, tmp_path,
                                                       mkdir_bytes):
        from repro import Pipeline
        from repro.workloads import fibonacci

        pipeline = Pipeline.from_source(fibonacci.SOURCE, name="mystery",
                                        config=service_config())
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES)
        recording = pipeline.record(plan, fibonacci.scenario_b())
        stray = dump_trace_bytes(trace_from_recording(
            recording, program_name="mystery"))

        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        stray_id = service.ingest_bytes(stray).trace_id
        good_id = service.ingest_bytes(mkdir_bytes).trace_id
        reports = service.process()
        assert reports[good_id].reproduced
        assert not reports[stray_id].reproduced
        assert "mystery" in reports[stray_id].error
        assert service.inbox.cluster_of(stray_id).status == "failed"

    def test_same_bug_different_recordings_search_separately(self, tmp_path):
        """Two users hit the *same* bug with *different* inputs: the traces
        share a bug key but are not equivalent recordings, so each gets its
        own search — and each report stays byte-identical to that trace's
        own single-shot path (the dedup contract, unconditionally)."""

        from repro.trace import load_trace_bytes

        exp1 = record_trace_bytes("diff-exp1")
        exp2 = record_trace_bytes("diff-exp2")
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        r1 = service.ingest_bytes(exp1)
        r2 = service.ingest_bytes(exp2)
        assert r1.bug_key == r2.bug_key          # same (fingerprint, crash)
        assert r1.cluster_id != r2.cluster_id    # different recordings
        assert not r2.duplicate
        reports = service.process()
        assert service.stats().searches_run == 2
        for data, workload, result in ((exp1, "diff-exp1", r1),
                                       (exp2, "diff-exp2", r2)):
            pipeline, _env = workload_pipeline(workload,
                                               config=service_config())
            single = pipeline.reproduce_from_trace(load_trace_bytes(data))
            assert reports[result.trace_id].fingerprint() \
                == outcome_fingerprint(single.outcome)

    def test_smallest_search_dispatches_first(self, tmp_path, mkdir_bytes,
                                              paste_bytes):
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        big = service.ingest_bytes(mkdir_bytes)
        small = service.ingest_bytes(paste_bytes)
        order = [c.cluster_id for c in service.inbox.pending_clusters(
            service.config.service.priority)]
        assert order == [small.cluster_id, big.cluster_id]
        reports = service.process(max_clusters=1)
        # Only the smallest cluster ran.
        assert set(reports) == {small.trace_id}
        assert service.inbox.cluster_of(big.trace_id).status == "pending"


class TestServeBatchCli:
    def test_spooled_duplicates_cost_one_search(self, tmp_path):
        """The CI smoke shape: 3 spooled traces (2 duplicates) -> exactly 2
        replay searches, asserted on the CLI's stats line."""

        tool = os.path.join(REPO_ROOT, "scripts", "trace_tool.py")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        spool = tmp_path / "spool"
        spool.mkdir()
        record = subprocess.run(
            [sys.executable, tool, "record", "--workload", "mkdir-bug",
             "--out", str(spool / "u1.trace")],
            capture_output=True, text=True, env=env, timeout=120)
        assert record.returncode == 0, record.stderr
        (spool / "u2.trace").write_bytes((spool / "u1.trace").read_bytes())
        record = subprocess.run(
            [sys.executable, tool, "record", "--workload", "mkfifo-bug",
             "--out", str(spool / "u3.trace")],
            capture_output=True, text=True, env=env, timeout=120)
        assert record.returncode == 0, record.stderr

        serve = subprocess.run(
            [sys.executable, tool, "serve-batch",
             "--root", str(tmp_path / "inbox"), "--spool", str(spool)],
            capture_output=True, text=True, env=env, timeout=300)
        assert serve.returncode == 0, serve.stdout + serve.stderr
        stats_line = [line for line in serve.stdout.splitlines()
                      if line.startswith("stats=")]
        assert stats_line, serve.stdout
        stats = json.loads(stats_line[0][len("stats="):])
        assert stats["traces_ingested"] == 3
        assert stats["searches_run"] == 2
        assert stats["reports_fanned_out"] == 3
        assert stats["reproduced_clusters"] == 2
        assert serve.stdout.count("report t") == 3
        assert "via=" in serve.stdout  # the duplicate rode along

    def test_module_entry_point_lists_workloads(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        listed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120)
        assert listed.returncode == 0, listed.stderr
        assert "mkdir-bug" in listed.stdout.split()
