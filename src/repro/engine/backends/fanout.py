"""One supervised fan-out: run a function over independent jobs.

Every parallel path in the package goes through :func:`fanout` — the
sharded verify trial stream (``shard-N``), chunk certification
(``certify-<chunk>``), parameter sweeps (``sweep-N``), the
partial-vs-perfect comparison (``perfect-k8``/``partial-k8``) and the
flows head-to-head study (``flows-<fabric>``).  It has two paths:

* **pool** (``workers > 1`` and more than one job) — the jobs run on
  the process-wide :class:`~repro.engine.backends.pool.WorkerPool`
  under a :class:`~repro.engine.backends.supervisor.ShardSupervisor`,
  so a dead or stuck worker costs a retry, never the run.  The round
  ships the plan payload, the ``REPRO_CHAOS`` fault-injection spec
  (test-only; read once per round) and, when the caller's registry is
  enabled, the trace context, so worker spans link under this round's
  ``engine.shards`` span.  Under an enabled caller registry each job
  collects its metrics in a private worker registry, and the snapshots
  merge back in job order with the job's provenance label, never in
  completion order; under a disabled one the jobs run with telemetry
  off, as they would inline.
* **inline** (``workers <= 1`` or a single job) — ``fn(job)`` runs in
  this process under the caller's own registry: no pickling, no
  private registry, no provenance labels.

Job results never depend on the path: every job carries its own work
(a chunk, a ``SeedSequence`` child, a fabric), so results are
byte-identical for any worker count and any schedule of retries.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro import obs
from repro.errors import ConfigurationError


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``--workers`` value: ``0`` (or None) means "one per
    core", negatives are configuration errors (CLI exit code 2)."""
    if workers is None:
        workers = 0
    workers = int(workers)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def fanout(
    fn: Callable[[dict], object],
    jobs: Iterable[dict],
    *,
    workers: int,
    label: str,
    plan_keys=(),
    policy=None,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Run ``fn(job)`` for every job dict; return the results in job
    order.

    ``label`` names the round (the ``engine.shards`` span, supervision
    events) and prefixes each job's provenance label,
    ``f"{label}-{job['shard']}"``; ``shard`` defaults to the job's
    position, and a job's own ``"worker"`` entry overrides the label.
    ``fn`` and the jobs must be picklable on the pool path: a job that
    is not raises :class:`~repro.errors.ConfigurationError`.
    ``plan_keys`` names the compiled plans the workers need;
    ``policy`` is the :class:`SupervisorPolicy`.  ``on_result(index,
    result)`` fires as each job finishes — in completion order on the
    pool path, which is what a checkpoint writer needs.
    """
    # Looked up per call, not bound at import, so a profiler that
    # patches merge_portable (perfbench's obs.merge layer) sees every
    # merge.
    from repro.engine.backends.pool import shared_pool
    from repro.engine.backends.supervisor import ShardSupervisor, chaos_from_env
    from repro.obs.live.merge import merge_portable

    jobs = list(jobs)
    for index, job in enumerate(jobs):
        job.setdefault("shard", index)
    parent = obs.get_registry()
    with parent.span("engine.shards", backend=label, shards=len(jobs)):
        if workers <= 1 or len(jobs) <= 1:
            results = []
            for index, job in enumerate(jobs):
                with obs.span("engine.shard", shard=job["shard"]):
                    result = fn(job)
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results

        names = [job.get("worker") or f"{label}-{job['shard']}" for job in jobs]
        pool = shared_pool(workers)
        payload = pool.plan_payload(plan_keys)
        chaos = chaos_from_env()
        ctx = parent.tracer.context if parent.enabled else None
        dispatch_id = parent.tracer.active_span_id if ctx is not None else None
        for job, name in zip(jobs, names):
            job["collect"] = parent.enabled
            if payload:
                job["plans"] = payload
            if chaos:
                job["chaos"] = dict(chaos)
            if ctx is not None:
                job["trace"] = ctx.ship(parent_id=dispatch_id, prefix=name)
        report = None
        if on_result is not None:
            def report(index, outcome):
                on_result(index, outcome[0])
        supervisor = ShardSupervisor(pool, policy, plan_keys=plan_keys, label=label)
        outcomes = supervisor.run(fn, jobs, on_result=report)
        results = []
        for name, (result, snapshot) in zip(names, outcomes):
            if parent.enabled:
                merge_portable(parent, snapshot, worker=name)
            results.append(result)
        return results


__all__ = ["fanout", "resolve_workers"]
