"""Fan-out parity: every parallel site gives the same bytes for any
worker count.

The five places that fan work out — the verify trial stream, chunk
certification, ``analysis.sweep``, ``compare_partial_vs_perfect`` and
the flows ``head_to_head`` study — all go through
:func:`repro.engine.backends.fanout.fanout`.  Work items carry their
own work (a chunk, a ``SeedSequence`` child keyed by position, a
fabric), so results must not depend on the worker count, on whether
telemetry is on, or on a worker dying mid-round.  The pool path also
merges each job's metrics back with a fixed provenance label.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.analysis.sweep import sweep
from repro.engine import StreamSpec, resolve_workers, run_stream
from repro.engine.backends.pool import shared_pool
from repro.engine.backends.supervisor import ShardSupervisor
from repro.errors import ConfigurationError
from repro.network.flows import WorkloadSpec, head_to_head
from repro.network.simulate import compare_partial_vs_perfect
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.perfect import PerfectConcentrator
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import CertifyOptions, certify_design

PARAMS = [1, 2, 3, 4, 5]
K_VALUES = [12, 24, 36]
FLOWS_SPEC = WorkloadSpec(n=16, load=0.6, duration=20.0, seed=7)
QUICK = CertifyOptions(
    max_total=1 << 10, max_per_k=32, chunk=256, scalar_rows=16,
    metamorphic_rows=8,
)


def _measure(value, rng):
    # Module level: the pool pickles the measure callable.
    return {"sq": value * value, "draw": float(rng.random())}


def _run_shard(workers: int) -> bytes:
    spec = StreamSpec(trials=4000, seed=5, shard_trials=1000)
    summary = run_stream(
        RevsortSwitch(16, 12), spec, workers=resolve_workers(workers)
    )
    return repr(summary).encode()


def _run_certify(workers: int) -> bytes:
    cert = certify_design(
        "revsort", {"n": 16, "m": 12}, options=QUICK, workers=workers
    )
    return json.dumps(cert.as_dict(), sort_keys=True).encode()


def _run_sweep(workers: int) -> bytes:
    return repr(sweep(PARAMS, _measure, seed=9, workers=workers)).encode()


def _run_compare(workers: int) -> bytes:
    result = compare_partial_vs_perfect(
        PerfectConcentrator(48, 36), ColumnsortSwitch(16, 4, 36),
        K_VALUES, trials=6, seed=3, workers=workers,
    )
    return repr(result).encode()


def _run_flows(workers: int) -> bytes:
    report = head_to_head(FLOWS_SPEC, max_cycles=1000, workers=workers)
    return b"".join(
        report.results[name].fct.tobytes()
        + repr(report.results[name].as_dict()).encode()
        for name in report.fabrics
    )


#: site -> (runner, provenance labels the pool path merges).  Results
#: are compared as exact reprs: float reprs round-trip, and dict reprs
#: pin key order too.
SITES = {
    "shard": (_run_shard, [f"shard-{i}" for i in range(4)]),
    # QUICK plans 17 chunks for revsort n=16 (stratified per-k slices).
    "certify": (_run_certify, [f"certify-{i}" for i in range(17)]),
    "sweep": (_run_sweep, [f"sweep-{i}" for i in range(len(PARAMS))]),
    "compare": (
        _run_compare,
        [f"{kind}-k{k}" for k in K_VALUES for kind in ("perfect", "partial")],
    ),
    "flows": (
        _run_flows,
        ["flows-concentrator", "flows-fattree", "flows-knockout", "flows-rotor"],
    ),
}

_REFERENCE: dict[str, bytes] = {}


def _reference(site: str) -> bytes:
    """The site's output in-process with telemetry off."""
    if site not in _REFERENCE:
        _REFERENCE[site] = SITES[site][0](1)
    return _REFERENCE[site]


def _merged_labels(snapshot: dict) -> set[str]:
    prefix = "obs.workers_merged{worker="
    return {
        key[len(prefix):-1]
        for key in snapshot["counters"]
        if key.startswith(prefix)
    }


class TestFanoutParity:
    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_identical_for_any_worker_count(self, site, workers):
        runner, labels = SITES[site]
        with obs.collecting() as registry:
            got = runner(workers)
        assert got == _reference(site)
        # The stream site resolves 0 to one worker per core, as
        # `repro verify` does; every other site runs workers=0
        # in-process.
        effective = resolve_workers(workers) if site == "shard" else workers
        merged = _merged_labels(registry.snapshot())
        assert merged == (set(labels) if effective > 1 else set())


class TestComparePartialVsPerfectExecutorParity:
    def test_means_are_finite_and_bounded(self):
        perfect = PerfectConcentrator(48, 36)
        results = compare_partial_vs_perfect(
            perfect, ColumnsortSwitch(16, 4, 36), K_VALUES, trials=6,
            seed=3, workers=2,
        )
        for k, row in results.items():
            assert 0.0 <= row["perfect"] <= min(k, perfect.m)
            assert np.isfinite(row["partial"])


class TestFanoutChaos:
    """A pool worker that exits mid-round costs a retry, never a byte
    of output — on the sites that used threads or an unsupervised pool
    too."""

    @pytest.mark.parametrize("site", ["flows", "sweep"])
    def test_worker_exit_is_retried_and_identical(
        self, site, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "exit")
        monkeypatch.setenv("REPRO_CHAOS_TOKEN", str(tmp_path / "once"))
        with obs.collecting() as registry:
            got = SITES[site][0](2)
        monkeypatch.delenv("REPRO_CHAOS")
        assert got == _reference(site)
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.shard_retries", 0) >= 1
        assert (tmp_path / "once").exists()


class TestUnshippableJobs:
    """A job the parent cannot pickle fails on every attempt; it is a
    configuration error, not a transient failure to retry and then
    quietly run in-process."""

    def test_supervisor_raises_without_retry_or_fallback(self):
        jobs = [{"shard": i, "scale": lambda v: v} for i in range(3)]
        with obs.collecting() as registry:
            with pytest.raises(ConfigurationError, match="'scale'"):
                ShardSupervisor(shared_pool(2), label="probe").run(
                    _scale_job, jobs
                )
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.shard_retries", 0) == 0
        assert counters.get("engine.degraded_fallbacks", 0) == 0

    def test_parallel_sweep_rejects_a_closure(self):
        offset = 3
        with pytest.raises(ConfigurationError, match=r"sweep job \d+: 'measure'"):
            sweep(PARAMS, lambda v: {"v": v + offset}, workers=2)
        # In-process, closures stay fine.
        assert sweep([1], lambda v: {"v": v + offset}, workers=1) == [
            {"param": 1, "v": 4}
        ]


def _scale_job(job: dict) -> int:
    return job["scale"](job["shard"])


class TestInlinePath:
    def test_builds_no_private_registry(self, monkeypatch):
        """workers=1 runs under the caller's registry; a private one
        per job would switch on per-cycle flows telemetry."""

        def refuse():
            raise AssertionError("inline fan-out built a private registry")

        monkeypatch.setattr(obs, "Registry", refuse)
        assert _run_flows(1) == _reference("flows")

    def test_compare_backend_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--backend", "thread"])
        assert excinfo.value.code == 2


def _telemetry_state(job: dict) -> tuple[bool, object]:
    return obs.enabled(), obs.get_registry().tracer.context


class TestPoolPathTelemetry:
    def test_disabled_parent_runs_workers_with_telemetry_off(self):
        from repro.engine.backends import fanout

        assert not obs.enabled()
        jobs = [{} for _ in range(3)]
        states = fanout(_telemetry_state, jobs, workers=2, label="tele")
        assert states == [(False, None)] * 3

    def test_enabled_parent_still_collects(self):
        from repro.engine.backends import fanout

        with obs.collecting() as registry:
            states = fanout(
                _telemetry_state, [{} for _ in range(2)], workers=2, label="tele"
            )
        assert [enabled for enabled, _ in states] == [True, True]
        counters = registry.snapshot()["counters"]
        assert "obs.workers_merged{worker=tele-0}" in counters

    def test_null_registry_tracer_has_no_context(self):
        assert obs.NullRegistry().tracer.context is None
