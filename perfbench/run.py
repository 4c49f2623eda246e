"""The repo benchmark: one workload, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload certify-registry --seed 0 \\
        --seconds 30 --trace 0

One process runs one workload (see ``perfbench/workloads.py`` and
``BENCHMARK.json``), so peak RSS, the plan cache and the worker pool
never carry over between workloads.  The run

1. imports the program and installs the layer timers
   (``perfbench/layers.py``);
2. times set-up ``SETUP_REPEATS`` times: the program's import in a fresh
   interpreter, and the workload's cold set-up in this process;
3. for ``--seconds`` seconds runs passes of the workload, checking every
   pass's outputs.  With ``--trace 0`` every pass is untraced (telemetry
   off); with ``--trace 1`` untraced passes alternate with traced ones
   (``repro.obs`` collecting, layer timers on);
4. prints a ``meta`` line (host, versions, git sha, every raw sample and
   host-speed factor, the raw medians ``setup_raw_s`` and
   ``wall_raw_s``), then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``;
5. writes the meta, the traced passes' layer profiles and the last
   traced pass's spans to ``perfbench/out/``.

Timings are medians over the run's samples.  The end-to-end times
``setup_s`` and ``wall_s`` are seconds at the reference host speed: the
measured seconds rescaled to an undisturbed host
(``perfbench/hostspeed.py``).  Per-layer seconds are as measured, and are
means over the traced passes so that they stay additive: the
``layers.SELF_LAYERS`` self times plus ``unattributed_s`` equal
``trace.wall_s``.  ``peak_rss_mb`` is the largest peak RSS of this
process and of the live pool workers (certify's chunk checks run
there); the set-up import probes are not counted.  ``--size tiny``
shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
from hostspeed import HostSpeed
from workloads import WORKLOADS, worker_peaks_kb

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SETUP_REPEATS = 5
#: Stands for the output of a pass that raised.
RAISED = object()


def environment() -> dict:
    import numpy

    sha = dirty = None
    if (REPO / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(REPO), *args], capture_output=True,
                text=True, timeout=30, check=True,
                env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
            ).stdout.strip()

        try:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha, "git_dirty": dirty,
    }


#: Run in a fresh interpreter: the import half of set-up, which one
#: process can only pay once.  The child probes its own core's speed
#: right after importing and prints the import time, raw and rescaled.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import layers; layers.install(); t = time.perf_counter() - t; "
    "import hostspeed; "
    "print(t, t * hostspeed.REF_SECONDS / hostspeed.reference_kernel())"
)


def import_time() -> tuple[float, float]:
    """Seconds a fresh interpreter spends importing the program, as
    measured and at the reference host speed."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(REPO / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, scaled = proc.stdout.split()
    return float(raw), float(scaled)


def registry_counter(snapshot: dict, name: str) -> float:
    from repro.obs import split_metric_key

    return sum(
        value for key, value in snapshot["counters"].items()
        if split_metric_key(key)[0] == name
    )


def traced_pass(workload):
    """One pass with ``repro.obs`` collecting (trace context attached,
    so pool workers time their jobs too) and the layer timers on."""
    from repro import obs

    reg = obs.Registry(max_trace_events=1_000_000)
    reg.tracer.context = obs.TraceContext(trace_id="perfbench")
    with obs.collecting(reg):
        layers.TRACE.start()
        root = layers.TRACE.open(layers.ROOT)
        try:
            output = workload.run()
        finally:
            layers.TRACE.close(root)
            layers.TRACE.stop()
    jobs = [e for e in reg.tracer.events if e.name == layers.JOB_SPAN]
    profile = layers.profile(layers.TRACE, jobs)
    unknown = set(profile["self"]) - set(layers.SELF_LAYERS) - {layers.ROOT}
    if unknown:
        raise RuntimeError(f"spans outside SELF_LAYERS: {sorted(unknown)}")
    snapshot = reg.snapshot()
    for metric, counter in (
        ("backends.retries", "engine.shard_retries"),
        ("backends.respawns", "engine.pool_respawns"),
        ("engine.plan_cache_hits", "engine.plan_cache.hit"),
        ("engine.plan_cache_misses", "engine.plan_cache.miss"),
        ("network.rounds", "sim.rounds"),
    ):
        profile["counts"][metric] = registry_counter(snapshot, counter)
    return output, profile


def problems_of(workload, output) -> list[list[str]]:
    """The output checks of one pass; every op fails if it raised."""
    if output is not RAISED:
        try:
            return workload.check(output)
        except Exception:
            traceback.print_exc()
    return [["pass raised"]] * workload.ops


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_rate")):
        return "ratio"
    return "count"


def layer_metrics(workload, profiles: list[dict], wall: float, traced: float,
                  failed: int, attempted: int) -> dict:
    def mean(get) -> float:
        return statistics.fmean(get(p) for p in profiles) if profiles else 0.0

    out = {f"{layer}_s": mean(lambda p, k=layer: p["self"].get(k, 0.0))
           for layer in layers.SELF_LAYERS}
    out["unattributed_s"] = mean(lambda p: p["self"][layers.ROOT])
    out["trace.wall_s"] = mean(lambda p: p["wall"])
    out["unattributed_share"] = (out["unattributed_s"] / out["trace.wall_s"]
                                 if out["trace.wall_s"] else 0.0)
    out["obs.overhead_s"] = traced - wall
    busy = mean(lambda p: p["worker_busy"])
    capacity = workload.workers * mean(lambda p: p["wait_total"])
    out["backends.worker_busy_s"] = busy
    out["backends.idle_share"] = 1.0 - busy / capacity if capacity else 0.0
    out["verify.chunks"] = mean(lambda p: p["jobs"])
    for key in ("verify.patterns", "backends.retries", "backends.respawns",
                "engine.setup_batch_calls", "engine.rows",
                "engine.plan_cache_hits", "engine.plan_cache_misses",
                "network.rounds"):
        out[key] = mean(lambda p, k=key: p["counts"].get(k, 0))
    for fabric in layers.FABRICS:
        run_s = mean(lambda p: p["inclusive"].get(f"flows.{fabric}.loop", 0.0))
        events = mean(lambda p: p["counts"].get(f"flows.{fabric}.events", 0))
        out[f"flows.{fabric}.run_s"] = run_s
        out[f"flows.{fabric}.events"] = events
        out[f"flows.{fabric}.events_per_s"] = events / run_s if run_s else 0.0
        out[f"flows.{fabric}.cycles"] = mean(
            lambda p: p["counts"].get(f"flows.{fabric}.cycles", 0))
    out["fail_rate"] = failed / attempted
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (REPO / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    layers.install()
    workload = WORKLOADS[args.workload](args.seed, args.size)

    host = HostSpeed()
    imports, setup_times, setup_raw, setup_scaled = [], [], [], []
    for _ in range(SETUP_REPEATS):
        import_raw, import_scaled = import_time()
        imports.append(import_scaled)
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
        setup_raw.append(import_raw + setup_times[-1])
        setup_scaled.append(import_scaled + host.rescale(setup_times[-1]))

    # End-to-end figures come from untraced passes alone, rescaled to an
    # undisturbed host.  A traced run alternates traced and untraced
    # passes, so that the telemetry overhead is the difference of passes
    # that saw the same host load; its per-layer seconds are as measured.
    kinds = (False, True) if args.trace else (False,)
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: list[float] = []
    profiles: list[dict] = []
    attempted = failed = passes = 0
    deadline = perf_counter() + args.seconds
    while True:
        traced = kinds[passes % len(kinds)]
        # Start a pass when at least half of it should fit, so that runs
        # of long passes measure for --seconds on average.
        if (all(walls[k] for k in kinds)
                and perf_counter() + walls[traced][-1] / 2 > deadline):
            break
        passes += 1
        start = perf_counter()
        try:
            if traced:
                output, profile = traced_pass(workload)
                profiles.append(profile)
            else:
                output = workload.run()
        except Exception:
            traceback.print_exc()
            output = RAISED
        walls[traced].append(perf_counter() - start)
        if not args.trace:
            scaled.append(host.rescale(walls[traced][-1]))
        problems = problems_of(workload, output)
        attempted += len(problems)
        failed += sum(1 for op in problems if op)
        for problem in [p for op in problems for p in op][:20]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)

    wall = statistics.median(walls[False])
    worker_peaks = None
    if args.trace:
        metrics = layer_metrics(workload, profiles, wall,
                                statistics.median(walls[True]), failed, attempted)
    else:
        try:
            worker_peaks = worker_peaks_kb(workload.workers)
        except Exception:
            traceback.print_exc()
        rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      *(worker_peaks or ())])
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_rate": 1.0 - failed / attempted,
        }
    meta = {
        "workload": workload.name, "seed": args.seed, "size": args.size,
        **environment(),
        "samples": {"setup": len(setup_times), "wall": len(walls[False]),
                    "traced": len(walls[True])},
        "import_runs_scaled_s": imports, "setup_runs_s": setup_times,
        "setup_raw_s": statistics.median(setup_raw),
        "wall_raw_s": wall, "wall_runs_s": walls[False],
        "worker_peaks_kb": worker_peaks,
        "traced_runs_s": walls[True], "host_speed": host.factors,
    }
    _write_trace(args, meta, profiles)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def _write_trace(args, meta: dict, profiles: list[dict]) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = layers.TRACE.spans
    doc = {
        "meta": meta,
        "profiles": profiles,
        "spans": {
            "columns": ["name", "start", "end", "parent", "child_time"],
            "rows": spans,
        },
    }
    name = f"{meta['workload']}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
