"""Causal trace propagation: deterministic span ids, cross-process
context shipping, the `repro obs analyze` tree, and the per-worker
Chrome-trace tracks with flow arrows.

The load-bearing invariant (the PR's acceptance criterion): analyzing
a ``--workers 4`` certify journal yields per-worker span totals that
sum exactly to the flat totals of ``replay_journal`` — the causal tree
is a re-grouping of the same spans, never a different set.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs.live import read_journal, replay_journal
from repro.obs.perf.analyze import (
    analysis_report,
    analyze_journal,
    causal_tree,
    critical_path,
    phase_breakdown,
    span_totals_by_worker,
    worker_rows,
)
from repro.obs.tracectx import TraceContext, child_context, new_trace_id
from repro.obs.tracing import SpanRecord, Tracer


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestTraceContext:
    def test_ids_are_deterministic_and_prefixed(self):
        ctx = TraceContext(trace_id="t", prefix="main")
        assert [ctx.next_id() for _ in range(3)] == ["main:1", "main:2", "main:3"]

    def test_ship_and_rebuild(self):
        ctx = TraceContext(trace_id="t-1")
        payload = ctx.ship(parent_id="main:7", prefix="shard-2")
        assert payload == {
            "trace_id": "t-1", "parent_id": "main:7", "prefix": "shard-2",
        }
        json.dumps(payload)  # must cross a process boundary as JSON
        child = child_context(payload)
        assert child.trace_id == "t-1"
        assert child.parent_id == "main:7"
        assert child.next_id() == "shard-2:1"

    def test_child_context_defaults(self):
        child = child_context({"trace_id": "t"})
        assert child.parent_id is None
        assert child.prefix == "worker"

    def test_new_trace_id_carries_command_slug(self):
        trace_id = new_trace_id("flows compare")
        assert trace_id.startswith("flows-compare-")
        assert new_trace_id(None).startswith("run-")


class TestTracerWithContext:
    def test_spans_get_ids_and_parent_links(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, context=TraceContext(trace_id="t"))
        with tracer.span("outer"):
            clock.tick(1.0)
            with tracer.span("inner"):
                clock.tick(0.5)
        inner, outer = tracer.events
        assert outer.span_id == "main:1" and outer.parent_id is None
        assert inner.span_id == "main:2" and inner.parent_id == "main:1"

    def test_root_spans_inherit_context_parent(self):
        tracer = Tracer(context=TraceContext(trace_id="t", parent_id="main:9",
                                             prefix="shard-0"))
        with tracer.span("engine.shard"):
            pass
        (record,) = tracer.events
        assert record.span_id == "shard-0:1"
        assert record.parent_id == "main:9"

    def test_without_context_ids_stay_none_and_serialize_away(self):
        tracer = Tracer()
        with tracer.span("sim.run"):
            pass
        (record,) = tracer.events
        assert record.span_id is None and record.parent_id is None
        assert "span_id" not in record.as_dict()
        assert "parent_id" not in record.as_dict()

    def test_as_dict_roundtrips_ids_through_absorb(self):
        source = Tracer(context=TraceContext(trace_id="t", prefix="w"))
        with source.span("engine.shard", shard=1):
            pass
        target = Tracer()
        target.absorb([e.as_dict() for e in source.events], worker="w1")
        (record,) = target.events
        assert record.span_id == "w:1"
        assert record.meta["worker"] == "w1"

    def test_context_attached_mid_run_is_safe(self):
        # Open spans recorded before the context arrived have no ids;
        # closing them must not pop ids minted afterwards.
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.context = TraceContext(trace_id="t")
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events
        assert inner.span_id == "main:1"
        assert outer.span_id is None
        assert tracer._id_stack == []


class TestCausalTree:
    def _spans(self):
        return [
            {"name": "verify.certify", "path": "verify.certify", "depth": 0,
             "start": 0.0, "duration_s": 4.0, "meta": {},
             "span_id": "main:1", "parent_id": None},
            {"name": "engine.shards", "path": "verify.certify/engine.shards",
             "depth": 1, "start": 0.5, "duration_s": 3.0, "meta": {},
             "span_id": "main:2", "parent_id": "main:1"},
            {"name": "engine.shard", "path": "engine.shard", "depth": 0,
             "start": 0.0, "duration_s": 2.5,
             "meta": {"shard": 0, "worker": "certify-0"},
             "span_id": "certify-0:1", "parent_id": "main:2"},
            {"name": "engine.shard", "path": "engine.shard", "depth": 0,
             "start": 0.0, "duration_s": 1.0,
             "meta": {"shard": 1, "worker": "certify-1"},
             "span_id": "certify-1:1", "parent_id": "main:2"},
            # an untraced span (no context when it was recorded)
            {"name": "sim.round", "path": "sim.round", "depth": 0,
             "start": 9.0, "duration_s": 0.1, "meta": {}},
        ]

    def test_tree_links_workers_under_dispatch(self):
        tree = causal_tree(self._spans())
        assert tree["roots"] == ["main:1"]
        assert tree["untraced"] == 1
        dispatch = tree["nodes"]["main:2"]
        assert dispatch["children"] == ["certify-0:1", "certify-1:1"]

    def test_unknown_parent_becomes_root(self):
        spans = [{"name": "orphan", "path": "orphan", "depth": 0, "start": 0.0,
                  "duration_s": 1.0, "meta": {}, "span_id": "w:1",
                  "parent_id": "gone:9"}]
        tree = causal_tree(spans)
        assert tree["roots"] == ["w:1"]

    def test_critical_path_descends_longest_child(self):
        path = critical_path(causal_tree(self._spans()))
        assert [step["span_id"] for step in path] == [
            "main:1", "main:2", "certify-0:1",
        ]
        # self time subtracts the children's durations (clamped at 0:
        # worker clocks are not the parent's, so sums can overshoot)
        assert path[0]["self_s"] == pytest.approx(1.0)
        assert path[1]["self_s"] == 0.0

    def test_worker_rows_mark_straggler(self):
        rows = worker_rows(self._spans())
        by_worker = {row["worker"]: row for row in rows}
        assert set(by_worker) == {"certify-0", "certify-1"}
        assert by_worker["certify-0"]["straggler"] is True
        assert by_worker["certify-1"]["straggler"] is False
        assert by_worker["certify-0"]["of_window"] == pytest.approx(2.5 / 3.0)

    def test_totals_partition_the_flat_list(self):
        spans = self._spans()
        totals = span_totals_by_worker(spans)
        assert sum(totals.values()) == pytest.approx(
            sum(s["duration_s"] for s in spans)
        )
        assert totals["main"] == pytest.approx(4.0 + 3.0 + 0.1)

    def test_phase_breakdown(self):
        events = [
            {"seq": 0, "t": 0.0, "type": "start", "schema": "repro.obs/journal@1"},
            {"seq": 1, "t": 1.0, "type": "phase", "name": "build"},
            {"seq": 2, "t": 4.0, "type": "phase", "name": "verify"},
            {"seq": 3, "t": 9.0, "type": "end"},
        ]
        rows = phase_breakdown(events)
        assert [(r["phase"], r["wall_s"]) for r in rows] == [
            ("build", 3.0), ("verify", 5.0),
        ]


def _journaled_dispatch(tmp_path: Path, workers_spans: dict[str, float]):
    """Build a deterministic journaled run with one dispatch and the
    given worker root-span durations; returns the journal path."""
    from repro.obs.live import EventJournal, JournalSink
    from repro.obs.live.merge import merge_portable, portable_snapshot, roundtrip

    clock = FakeClock()
    registry = obs.Registry(clock=clock)
    registry.tracer.context = TraceContext(trace_id="golden-trace")
    path = tmp_path / "dispatch.jsonl"
    journal = EventJournal(path, clock=clock, command="certify")
    journal.emit("env", pid=1, trace_id="golden-trace")
    sink = JournalSink(registry, journal)
    journal.emit("phase", name="verify")
    with registry.tracer.span("verify.certify", design="revsort"):
        clock.tick(0.25)
        with registry.tracer.span("engine.shards", backend="certify"):
            dispatch_id = registry.tracer.active_span_id
            for worker, duration in workers_spans.items():
                child = obs.Registry(clock=clock)
                child.tracer.context = child_context(
                    {"trace_id": "golden-trace", "parent_id": dispatch_id,
                     "prefix": worker}
                )
                with child.tracer.span("engine.shard", shard=worker):
                    clock.tick(duration)
                merge_portable(
                    registry, roundtrip(portable_snapshot(child)), worker=worker
                )
    sink.close()
    journal.close()
    return path


class TestAnalyzeJournal:
    def test_tree_and_totals_match_replay(self, tmp_path):
        path = _journaled_dispatch(
            tmp_path, {"shard-0": 0.5, "shard-1": 1.5, "shard-2": 0.25}
        )
        analysis = analyze_journal(path)
        assert analysis["command"] == "certify"
        assert analysis["trace_id"] == "golden-trace"
        # the tree is rooted at the command span with all workers
        # hanging off the dispatch span
        tree = analysis["tree"]
        (root,) = tree["roots"]
        dispatch = tree["nodes"][root]["children"][0]
        assert tree["nodes"][dispatch]["name"] == "engine.shards"
        assert len(tree["nodes"][dispatch]["children"]) == 3
        # THE invariant: per-worker totals sum to the flat replay total
        replayed = replay_journal(path)
        flat_total = sum(
            e["duration_s"] for e in replayed["spans"]["events"]
        )
        assert sum(analysis["totals_by_worker"].values()) == pytest.approx(
            flat_total
        )
        # straggler: shard-1 held the window longest
        straggler = [r for r in analysis["workers"] if r["straggler"]]
        assert [r["worker"] for r in straggler] == ["shard-1"]

    def test_report_renders_all_sections(self, tmp_path):
        path = _journaled_dispatch(tmp_path, {"shard-0": 0.5, "shard-1": 1.5})
        analysis = analyze_journal(path)
        for fmt in ("table", "md"):
            text = analysis_report(analysis, fmt=fmt)
            assert "engine.shards" in text
            assert "shard-1" in text
            assert "straggler" in text
            assert "verify" in text  # the phase row


def _traced_stream_spans(workers: int) -> list[dict]:
    from repro.engine import StreamSpec, run_stream
    from repro.switches.perfect import PerfectConcentrator

    switch = PerfectConcentrator(8, 6)
    with obs.collecting() as registry:
        registry.tracer.context = TraceContext(trace_id="t-backend")
        run_stream(
            switch, StreamSpec(trials=16, seed=3, shard_trials=8),
            workers=workers,
        )
    return registry.snapshot()["spans"]["events"]


class TestShardedBackendPropagation:
    def test_inline_dispatch_ships_context(self):
        """workers == 1 runs shards inline under the caller's own
        registry: the shard spans are the caller's spans (its context,
        no worker provenance), nested under the dispatch span."""
        spans = _traced_stream_spans(workers=1)
        dispatch = [s for s in spans if s["name"] == "engine.shards"]
        assert len(dispatch) == 1
        shard_spans = [s for s in spans if s["name"] == "engine.shard"]
        assert len(shard_spans) == 2
        for span in shard_spans:
            assert span["parent_id"] == dispatch[0]["span_id"]
            assert span["span_id"].startswith("main:")
            assert "worker" not in span["meta"]
        tree = causal_tree(spans)
        assert tree["untraced"] == 0

    def test_pool_dispatch_ships_context(self):
        """workers > 1: each worker's root span links under the
        dispatch span through the shipped trace context."""
        spans = _traced_stream_spans(workers=2)
        dispatch = [s for s in spans if s["name"] == "engine.shards"]
        assert len(dispatch) == 1
        shard_spans = [s for s in spans if s["name"] == "engine.shard"]
        assert len(shard_spans) == 2
        for span in shard_spans:
            assert span["parent_id"] == dispatch[0]["span_id"]
            assert span["span_id"].startswith("shard-")
        tree = causal_tree(spans)
        assert tree["untraced"] == 0

    def test_disabled_registry_ships_nothing(self):
        from repro.engine import StreamSpec, run_stream
        from repro.switches.perfect import PerfectConcentrator

        switch = PerfectConcentrator(8, 6)
        # No collecting scope: the null registry must not blow up on
        # tracer access (it has none).
        summary = run_stream(switch, StreamSpec(trials=16, seed=3))
        assert summary.trials == 16


class TestCLICertifyAnalyze:
    """The acceptance scenario end-to-end: a --workers 4 certify run."""

    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_workers4_certify_journal_analyzes_to_matching_totals(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "certify.jsonl"
        code = self._main(
            ["certify", "revsort", "--n", "16", "--m", "12",
             "--workers", "4", "--journal", str(journal)]
        )
        assert code == 0
        # the journal carries the trace id and id-stamped spans
        events = read_journal(journal)
        env = next(e for e in events if e["type"] == "env")
        assert env["trace_id"].startswith("certify-")
        analysis = analyze_journal(journal)
        assert analysis["trace_id"] == env["trace_id"]
        workers = {r["worker"] for r in analysis["workers"]}
        assert any(w.startswith("certify-") for w in workers)
        replayed = replay_journal(journal)
        flat_total = sum(
            e["duration_s"] for e in replayed["spans"]["events"]
        )
        assert sum(analysis["totals_by_worker"].values()) == pytest.approx(
            flat_total
        )
        # worker engine.shard roots link under the parent's dispatch span
        spans = replayed["spans"]["events"]
        dispatch_ids = {
            s["span_id"] for s in spans
            if s["name"] == "engine.shards" and "span_id" in s
        }
        shard_roots = [
            s for s in spans
            if s["name"] == "engine.shard" and s["meta"].get("worker")
        ]
        assert shard_roots
        assert {s["parent_id"] for s in shard_roots} <= dispatch_ids

    def test_obs_analyze_cli_writes_report_and_trace(self, tmp_path, capsys):
        journal = _journaled_dispatch(tmp_path, {"shard-0": 0.5})
        out = tmp_path / "analysis.md"
        trace = tmp_path / "trace.json"
        code = self._main(
            ["obs", "analyze", str(journal), "--format", "md",
             "--out", str(out), "--trace-out", str(trace)]
        )
        assert code == 0
        assert "Critical path" in out.read_text(encoding="utf-8")
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert any(e.get("ph") == "s" for e in document["traceEvents"])

    def test_obs_analyze_json_format(self, tmp_path, capsys):
        journal = _journaled_dispatch(tmp_path, {"shard-0": 0.5})
        code = self._main(["obs", "analyze", str(journal), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == "golden-trace"
        assert payload["tree"]["roots"]


class TestChromeTraceWorkers:
    """Satellite 1: per-worker tracks and dispatch flow arrows."""

    def _spans(self):
        return [
            SpanRecord("verify.certify", "verify.certify", 0, 0.0, 4.0, {},
                       span_id="main:1", parent_id=None).as_dict(),
            SpanRecord("engine.shard", "engine.shard", 0, 1.0, 2.0,
                       {"worker": "shard-0"},
                       span_id="shard-0:1", parent_id="main:1").as_dict(),
            SpanRecord("engine.shard", "engine.shard", 0, 1.5, 2.0,
                       {"worker": "shard-1"},
                       span_id="shard-1:1", parent_id="main:1").as_dict(),
        ]

    def test_workers_get_their_own_named_tracks(self):
        from repro.obs.perf.chrometrace import chrome_trace_document

        document = chrome_trace_document(self._spans())
        names = {
            e["pid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names == {1: "repro", 2: "worker shard-0", 3: "worker shard-1"}
        by_name = {
            e["args"].get("path"): e["pid"]
            for e in document["traceEvents"]
            if e.get("ph") == "X"
        }
        assert by_name["verify.certify"] == 1
        assert by_name["engine.shard"] in (2, 3)

    def test_flow_arrows_bind_dispatch_to_worker_roots(self):
        from repro.obs.perf.chrometrace import chrome_trace_document

        document = chrome_trace_document(self._spans())
        flows = [e for e in document["traceEvents"] if e.get("cat") == "flow"]
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 2
        assert all(e["pid"] == 1 for e in starts)  # from the main track
        assert {e["pid"] for e in finishes} == {2, 3}
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        assert all(e.get("bp") == "e" for e in finishes)

    def test_same_track_nesting_gets_no_arrow(self):
        from repro.obs.perf.chrometrace import chrome_trace_document

        spans = [
            SpanRecord("a", "a", 0, 0.0, 2.0, {}, span_id="main:1").as_dict(),
            SpanRecord("b", "a/b", 1, 0.5, 1.0, {},
                       span_id="main:2", parent_id="main:1").as_dict(),
        ]
        document = chrome_trace_document(spans)
        assert not [e for e in document["traceEvents"] if e.get("cat") == "flow"]

    def test_untraced_spans_export_unchanged(self):
        from repro.obs.perf.chrometrace import chrome_trace_document

        spans = [SpanRecord("sim.run", "sim.run", 0, 0.0, 1.0, {}).as_dict()]
        document = chrome_trace_document(spans)
        x = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        assert len(x) == 1 and x[0]["pid"] == 1
        assert "span_id" not in x[0]["args"]
