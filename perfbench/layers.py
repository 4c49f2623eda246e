"""Layer timers: spans recorded from outside the program.

Every layer is timed by wrapping one of its public entry points at the
name its caller looks it up by (a module global, or a method on the
class the caller's instance resolves through).  Nothing inside
``src/`` is edited; the wrappers are installed once per process and are
inert until a traced pass switches the recorder on, so an untraced pass
pays one extra Python call per wrapped call and records nothing.

Spans are kept in memory as ``[name, start, end, parent, child_time]``
rows.  A span's *self time* is its duration minus the time its child
spans cover, so the self times of every span of a pass plus the pass
root's own self time (``unattributed``) add up to the pass's wall time.

Work shipped to pool workers (``certify_registry(workers=2)``) is timed
in the worker by the same recorder and comes back as one summary span
per job through the program's own worker-snapshot merge.  The parent
then hands each instant of a ``backends.wait`` span that it spent
blocked to the worker jobs running at that instant, split evenly among
them, and spreads each job's share over that job's layers in
proportion to their self times.  Wall time stays additive: a layer's
figure is the wall time it accounts for, not CPU time summed over
workers (``backends.worker_busy_s`` gives that).

Two names need a word: ``switches.scalar_oracle`` is every scalar
``setup`` call, whether certify's oracle or a simulator routing with it;
``flows.<fabric>.loop`` is ``FlowSim.run`` outside the fabric's ``step``
(its inclusive time is reported as ``flows.<fabric>.run_s``).

One wrapper also works untraced: ``FlowSim.run`` records every
simulation it runs in :data:`FLOW_SIMS`, for the flows output checks.
"""

from __future__ import annotations

import functools
from time import perf_counter

#: Name of the summary span a worker job ships back to the parent.
JOB_SPAN = "perfbench.job"
#: Root span of a worker job: a chunk's checks outside any finer layer.
JOB_LAYER = "verify.examine"
#: Root span of a pass; its self time is the unattributed residual.
ROOT = "unattributed"
FABRICS = ("concentrator", "fattree", "knockout", "rotor")
#: Every span name :func:`install` records; with :data:`ROOT`, their
#: self times sum to a traced pass's wall time.
SELF_LAYERS = (
    "verify.certify", "verify.enumerate", "verify.fold", JOB_LAYER,
    "verify.contract", "verify.occupancy", "verify.metamorphic",
    "switches.build", "switches.scalar_oracle",
    "backends.dispatch", "backends.wait",
    "engine.setup_batch", "engine.faulty_walk",
    "gates.evaluate", "obs.merge", "flows.generate",
    *(f"flows.{f}.{part}" for f in FABRICS for part in ("loop", "step")),
    "faults.sample", "faults.chain", "faults.scenarios", "faults.resilience",
    "network.simulate", "network.traffic",
)

#: Every ``FlowSim`` run since the list was last cleared, traced or not.
FLOW_SIMS: list = []


class Recorder:
    """In-memory span stack of one process."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def start(self) -> None:
        self.spans, self.stack, self.counts = [], [], {}
        self.on = True

    def stop(self) -> None:
        self.on = False

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out


TRACE = Recorder()


def _timed(name, fn, count=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable of the call's
    arguments (per-fabric spans), ``count(result, args)`` may record
    counts from the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACE.on:
            return fn(*args, **kwargs)
        index = TRACE.open(name(*args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACE.close(index)
        if count is not None:
            count(result, args)
        return result

    return wrapper


def _timed_chunks(chunks):
    """Time each ``next()`` of a pattern generator as enumeration."""
    while True:
        index = TRACE.open("verify.enumerate") if TRACE.on else None
        try:
            chunk = next(chunks)
        except StopIteration:
            return
        finally:
            if index is not None:
                TRACE.close(index)
        yield chunk


def _all_patterns_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_chunks(fn(*args, **kwargs))

    return wrapper


def _patterns_with_k_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        exhaustive, chunks = fn(*args, **kwargs)
        return exhaustive, _timed_chunks(chunks)

    return wrapper


def _patch(owner, attr: str, wrapper_of) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__perfbench__", False):
        return
    wrapped = wrapper_of(original)
    wrapped.__perfbench__ = True
    setattr(owner, attr, wrapped)


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _count_rows(result, args) -> None:
    valid = args[1]
    TRACE.count("engine.setup_batch_calls")
    TRACE.count("engine.rows", 1 if getattr(valid, "ndim", 2) == 1 else len(valid))


def _count_patterns(cert, args) -> None:
    TRACE.count("verify.patterns", cert.total_patterns)


def _count_flows(result, args) -> None:
    fabric = args[0].stage.name
    TRACE.count(f"flows.{fabric}.events", result.events)
    TRACE.count(f"flows.{fabric}.cycles", result.cycles)


def _flow_sim_wrapper(fn):
    timed = _timed(lambda s: f"flows.{s.stage.name}.loop", fn, _count_flows)

    @functools.wraps(fn)
    def wrapper(sim):
        FLOW_SIMS.append(sim)
        return timed(sim)

    return wrapper


def _job_wrapper(fn):
    """Worker entry point of a certify chunk: time the job when the
    dispatching parent shipped a trace context, and ship the job's
    self times back as one summary span in the worker's snapshot.  A
    shard the supervisor degrades to the parent process runs inside the
    parent's own recording and is timed there like any other call."""
    from repro import obs

    in_process = _timed(JOB_LAYER, fn)

    @functools.wraps(fn)
    def wrapper(job):
        tracer = obs.get_registry().tracer
        if TRACE.on or tracer.context is None:
            return in_process(job)
        TRACE.start()
        root = TRACE.open(JOB_LAYER)
        try:
            return fn(job)
        finally:
            TRACE.close(root)
            TRACE.stop()
            start, end = TRACE.spans[0][1], TRACE.spans[0][2]
            tracer.absorb([{
                "name": JOB_SPAN, "path": JOB_SPAN, "depth": 0,
                "start": start, "duration_s": end - start,
                "meta": {"self": TRACE.self_times(), "counts": TRACE.counts},
            }])

    return wrapper


def _parallel_wrapper(fn):
    """``_certify_parallel`` receives the certificate fold as an
    argument; time the fold calls as their own layer."""

    @functools.wraps(fn)
    def wrapper(switch, tasks, fold, *args, **kwargs):
        return fn(switch, tasks, _timed("verify.fold", fold), *args, **kwargs)

    return _timed("backends.dispatch", wrapper)


def install() -> None:
    """Wrap every layer entry point (idempotent).  Must run before the
    worker pool forks, so the workers inherit the wrappers."""
    import importlib

    from repro.engine.backends import supervisor
    from repro.faults import injector, sweep
    from repro.network import simulate, traffic
    from repro.network.flows import fabric, sim, study
    from repro.obs.live import merge
    from repro.switches import registry
    from repro.switches.base import ConcentratorSwitch
    from repro.verify import differential, exhaustive

    # `repro.gates` re-exports a function named `evaluate`, which hides
    # the submodule from attribute-style imports.
    gates_evaluate = importlib.import_module("repro.gates.evaluate")

    def timed(name, count=None):
        return lambda fn: _timed(name, fn, count)

    # Registry certify: parent side.
    _patch(registry, "build_switch", timed("switches.build"))
    _patch(exhaustive, "certify_switch", timed("verify.certify", _count_patterns))
    _patch(exhaustive, "all_patterns", _all_patterns_wrapper)
    _patch(exhaustive, "patterns_with_k", _patterns_with_k_wrapper)
    _patch(exhaustive, "_certify_parallel", _parallel_wrapper)
    _patch(supervisor.ShardSupervisor, "run", timed("backends.wait"))
    _patch(merge, "merge_portable", timed("obs.merge"))
    # Registry certify: worker side.
    _patch(exhaustive, "_certify_chunk_job", _job_wrapper)
    _patch(exhaustive, "validate_batch_partial_concentration",
           timed("verify.contract"))
    _patch(exhaustive, "output_occupancy", timed("verify.occupancy"))
    _patch(exhaustive, "metamorphic_failures", timed("verify.metamorphic"))
    _patch(differential, "evaluate_packed", timed("gates.evaluate"))
    _patch(gates_evaluate, "evaluate", timed("gates.evaluate"))
    # Engine and the scalar oracle, on every design.
    _patch(ConcentratorSwitch, "setup_batch",
           timed("engine.setup_batch", _count_rows))
    _patch(injector, "run_plan_with_faults", timed("engine.faulty_walk"))
    for cls in _subclasses(ConcentratorSwitch):
        if "setup" in vars(cls):
            _patch(cls, "setup", timed("switches.scalar_oracle"))
    # Flows.
    _patch(study, "generate_flows", timed("flows.generate"))
    _patch(sim.FlowSim, "run", _flow_sim_wrapper)
    for cls in _subclasses(fabric.FabricStage):
        if "step" in vars(cls):
            _patch(cls, "step", timed(lambda s, *_: f"flows.{s.name}.step"))
    # Faults.
    for name in ("sample_chain", "sample_scenario", "sample_flaky_scenario"):
        _patch(sweep, name, timed("faults.sample"))
    _patch(sweep, "certify_chain", timed("faults.chain"))
    _patch(sweep, "certify_scenarios", timed("faults.scenarios"))
    _patch(sweep, "flaky_resilience", timed("faults.resilience"))
    _patch(simulate.SwitchSimulation, "run", timed("network.simulate"))
    _patch(traffic.TrafficGenerator, "next_round", timed("network.traffic"))


def _blocked_intervals(spans, index) -> list[tuple[float, float]]:
    """The parts of span ``index`` not covered by its own children."""
    _, start, end, _, _ = spans[index]
    children = sorted(
        (s[1], s[2]) for s in spans if s[3] == index
    )
    out, cursor = [], start
    for c_start, c_end in children:
        if c_start > cursor:
            out.append((cursor, c_start))
        cursor = max(cursor, c_end)
    if end > cursor:
        out.append((cursor, end))
    return out


def _job_shares(intervals, jobs) -> list[float]:
    """Wall seconds of ``intervals`` each job accounts for: every
    instant is split evenly among the jobs running at it."""
    shares = [0.0] * len(jobs)
    for lo, hi in intervals:
        cuts = sorted({lo, hi, *(
            t for start, end in jobs for t in (start, end) if lo < t < hi
        )})
        for t0, t1 in zip(cuts, cuts[1:]):
            active = [
                j for j, (start, end) in enumerate(jobs)
                if start <= t0 and end >= t1
            ]
            for j in active:
                shares[j] += (t1 - t0) / len(active)
    return shares


def profile(recorder: Recorder, worker_jobs: list) -> dict:
    """Per-layer self times and counts of one traced pass.

    ``worker_jobs`` are the merged :data:`JOB_SPAN` records of the pass
    (``SpanRecord`` objects).  Returns ``{"wall", "self", "inclusive",
    "counts", "worker_busy", "wait_total", "jobs"}``; ``self`` includes
    :data:`ROOT`, and its values sum to ``wall``.
    """
    spans = recorder.spans
    selfs = recorder.self_times()
    inclusive: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    counts = dict(recorder.counts)
    jobs = [(r.start, r.start + r.duration_s, r.meta) for r in worker_jobs]
    busy = sum(end - start for start, end, _ in jobs)
    wait_total = 0.0
    for index, span in enumerate(spans):
        if span[0] != "backends.wait":
            continue
        wait_total += span[2] - span[1]
        mine = [j for j in jobs if j[0] < span[2] and j[1] > span[1]]
        if not mine:
            continue
        shares = _job_shares(
            _blocked_intervals(spans, index), [(s, e) for s, e, _ in mine]
        )
        for share, (start, end, meta) in zip(shares, mine):
            selfs["backends.wait"] -= share
            scale = share / (end - start) if end > start else 0.0
            for layer, seconds in meta["self"].items():
                selfs[layer] = selfs.get(layer, 0.0) + seconds * scale
    for _, _, meta in jobs:
        for key, amount in meta["counts"].items():
            counts[key] = counts.get(key, 0) + amount
    root = spans[0]
    return {
        "wall": root[2] - root[1],
        "self": selfs,
        "inclusive": inclusive,
        "counts": counts,
        "worker_busy": busy,
        "wait_total": wait_total,
        "jobs": len(jobs),
    }
