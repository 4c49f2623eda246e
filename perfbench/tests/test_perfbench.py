"""Tests of the benchmark itself (not part of the program's suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs once at ``--size tiny`` in both modes; the emitted
metric names and units must match ``BENCHMARK.json`` and the traced
self times must add up to the traced pass's wall time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = REPO, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_match_spec(workload):
    proc = run_bench(workload, 0)
    metrics = result_of(proc)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())
    meta = json.loads(proc.stdout.strip().splitlines()[-2])["meta"]
    assert meta["wall_raw_s"] > 0 and meta["setup_raw_s"] > 0
    # Peak RSS covers every pool worker the passes ran on.
    assert len(meta["worker_peaks_kb"]) == WORKLOADS[workload].workers
    assert metrics["peak_rss_mb"]["value"] * 1024 >= max(meta["worker_peaks_kb"] or [0])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_match_spec_and_add_up(workload):
    metrics = result_of(run_bench(workload, 1))["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    value = {k: v["value"] for k, v in metrics.items()}
    parts = [value[f"{layer}_s"] for layer in layers.SELF_LAYERS]
    total = math.fsum(parts) + value["unattributed_s"]
    assert total == pytest.approx(value["trace.wall_s"], rel=1e-9)
    assert all(part >= 0 for part in parts)
    assert 0 <= value["unattributed_share"] < 1


def test_units_follow_the_naming_rule():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("certify-registry", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_job_shares_split_each_instant_among_running_jobs():
    # Blocked from 0 to 10; job A runs 0-6, job B runs 4-10.
    shares = layers._job_shares([(0.0, 10.0)], [(0.0, 6.0), (4.0, 10.0)])
    assert shares == pytest.approx([5.0, 5.0])
    # A child span (2-3) of the waiting span is not the jobs' time.
    spans = [["backends.wait", 0.0, 10.0, -1, 1.0],
             ["backends.dispatch", 2.0, 3.0, 0, 0.0]]
    blocked = layers._blocked_intervals(spans, 0)
    assert blocked == [(0.0, 2.0), (3.0, 10.0)]
    assert sum(layers._job_shares(blocked, [(0.0, 10.0)])) == pytest.approx(9.0)


def test_profile_moves_worker_time_out_of_the_wait():
    recorder = layers.Recorder()
    recorder.spans = [[layers.ROOT, 0.0, 10.0, -1, 8.0],
                      ["backends.wait", 1.0, 9.0, 0, 0.0]]

    class Job:
        start, duration_s = 2.0, 4.0
        meta = {"self": {"verify.examine": 1.0, "engine.setup_batch": 3.0},
                "counts": {"engine.rows": 7}}

    prof = layers.profile(recorder, [Job()])
    assert prof["self"]["backends.wait"] == pytest.approx(4.0)
    assert prof["self"]["engine.setup_batch"] == pytest.approx(3.0)
    assert math.fsum(prof["self"].values()) == pytest.approx(prof["wall"])
    assert prof["counts"]["engine.rows"] == 7
    assert prof["worker_busy"] == 4.0


def test_host_speed_rescales_by_the_probes_around_each_step(monkeypatch):
    ref = hostspeed.REF_SECONDS
    probes = iter([2 * ref, 2 * ref, ref])
    monkeypatch.setattr(hostspeed, "reference_kernel", lambda: next(probes))
    host = hostspeed.HostSpeed()
    # A step between two probes at half speed took twice as long.
    assert host.rescale(4.0) == pytest.approx(2.0)
    # The next step uses the probe after the last step and a new one.
    assert host.rescale(3.0) == pytest.approx(3.0 / 1.5)


def test_a_raising_pass_fails_every_op_it_would_have_run():
    class Workload:
        ops = 4

        def check(self, output):
            raise ValueError("bad output")

    assert run.problems_of(Workload(), run.RAISED) == [["pass raised"]] * 4
    assert run.problems_of(Workload(), object()) == [["pass raised"]] * 4


def test_layer_metrics_survive_a_run_without_a_traced_pass():
    class Workload:
        workers = 2

    metrics = run.layer_metrics(Workload(), [], 1.0, 1.5, failed=6, attempted=6)
    assert metrics["trace.wall_s"] == 0.0 and metrics["unattributed_share"] == 0.0
    assert metrics["fail_rate"] == 1.0
