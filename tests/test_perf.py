"""Tests for the run-tracing tools in repro.obs.perf.

Covers the Chrome-trace exporter, the cProfile hooks, the engine's
per-stage spans, and the ``repro obs trace`` CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.perf import chrometrace, profiler
from repro.obs.tracing import SpanRecord


class TestChromeTrace:
    SPANS = [
        SpanRecord("outer", "outer", 0, start=10.0, duration_s=0.5),
        SpanRecord("inner", "outer/inner", 1, start=10.1,
                   duration_s=0.2, meta={"layer": 0}),
    ]

    def test_events_rebased_to_microseconds(self):
        events = chrometrace.chrome_trace_events(self.SPANS)
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[0]["ts"] == 0.0
        assert events[0]["dur"] == pytest.approx(5e5)
        assert events[1]["ts"] == pytest.approx(1e5)
        assert events[1]["args"]["layer"] == 0
        assert events[1]["args"]["path"] == "outer/inner"
        assert all(e["ph"] == "X" for e in events)

    def test_document_and_write(self, tmp_path):
        path = tmp_path / "trace.json"
        chrometrace.write_chrome_trace(
            {"events": [s.as_dict() for s in self.SPANS], "dropped": 3},
            path,
            metadata={"switch": "demo"},
        )
        document = json.loads(path.read_text())
        assert document["otherData"]["switch"] == "demo"
        assert document["otherData"]["dropped_spans"] == 3
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "M"]
        assert "process_name" in names and "thread_name" in names

    def test_empty_spans(self):
        assert chrometrace.chrome_trace_events([]) == []
        document = chrometrace.chrome_trace_document([])
        assert all(e["ph"] == "M" for e in document["traceEvents"])


class TestProfiler:
    def test_profiled_and_text(self):
        with profiler.profiled() as prof:
            sorted(range(1000))
        text = profiler.profile_text(prof, top=5)
        assert "function calls" in text

    def test_write_binary_and_text(self, tmp_path):
        with profiler.profiled() as prof:
            sum(range(100))
        binary = profiler.write_profile(prof, tmp_path / "out.prof")
        import pstats

        pstats.Stats(str(binary))  # loadable
        text = profiler.write_profile(prof, tmp_path / "out.txt")
        assert "Ordered by" in text.read_text()

    def test_bad_sort_key(self):
        with profiler.profiled() as prof:
            pass
        with pytest.raises(ConfigurationError):
            profiler.profile_text(prof, sort="nope")


class TestEngineSpans:
    def test_one_span_per_chip_layer(self):
        from repro.engine.batch import _compile_steps
        from repro.switches.columnsort_switch import ColumnsortSwitch

        switch = ColumnsortSwitch.from_beta(256, 0.75, 192)
        valid = np.zeros((4, 256), dtype=bool)
        valid[:, :64] = True
        switch.setup_batch(valid)  # warm: compile outside the traced run
        steps, _ = _compile_steps(switch._plan)
        with obs.collecting() as registry:
            switch.setup_batch(valid)
        events = registry.snapshot()["spans"]["events"]
        run_plans = [e for e in events if e["name"] == "engine.run_plan"]
        stages = [e for e in events if e["name"] == "engine.stage"]
        assert len(run_plans) == 1
        assert len(stages) == len(steps)
        assert all(e["path"] == "engine.run_plan/engine.stage" for e in stages)
        assert [e["meta"]["layer"] for e in stages] == list(range(len(steps)))

    def test_comparator_plan_spans(self):
        from repro.switches.bitonic import BitonicHyperconcentrator

        switch = BitonicHyperconcentrator(16)
        valid = np.zeros((2, 16), dtype=bool)
        valid[:, :5] = True
        switch.setup_batch(valid)
        with obs.collecting() as registry:
            switch.setup_batch(valid)
        stages = [
            e for e in registry.snapshot()["spans"]["events"]
            if e["name"] == "engine.stage"
        ]
        assert stages
        assert all(e["meta"]["kind"] == "comparator" for e in stages)

    def test_new_metrics_are_cataloged(self):
        known = set(obs.metric_names())
        for name in ("engine.run_plan", "engine.stage", "trace.run"):
            assert name in known


class TestObsCli:
    def test_trace_produces_perfetto_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "obs", "trace", "--switch", "columnsort", "--n", "256",
            "--m", "192", "--trials", "8", "--out", str(out),
        ])
        assert code == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        document = json.loads(out.read_text())
        names = [e["name"] for e in document["traceEvents"]
                 if e.get("ph") == "X"]
        assert "trace.run" in names
        assert "engine.run_plan" in names
        assert names.count("engine.stage") >= 1
        # every X event carries the fields the trace viewers require
        for event in document["traceEvents"]:
            if event.get("ph") == "X":
                assert {"name", "ts", "dur", "pid", "tid"} <= set(event)

    def test_trace_with_profile(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        prof = tmp_path / "hot.txt"
        code = main([
            "obs", "trace", "--switch", "revsort", "--n", "64", "--m", "48",
            "--trials", "4", "--out", str(out), "--profile", str(prof),
        ])
        assert code == 0
        assert "profile written" in capsys.readouterr().out
        assert "function calls" in prof.read_text()

    def test_plain_obs_still_lists_catalog(self, capsys):
        assert main(["obs"]) == 0
        assert "metric catalog" in capsys.readouterr().out
