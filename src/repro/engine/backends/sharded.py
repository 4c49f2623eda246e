"""The sharded multiprocess backend (``--backend process``).

Work is split into shards whose boundaries depend only on the trial
count (never the worker count), each shard is dispatched to the
persistent :mod:`~repro.engine.backends.pool` and executed through the
vectorized batch engine, and the results come back two ways:

* ``run_trials`` — the trial data itself crosses the boundary through
  ``multiprocessing.shared_memory``: the parent publishes the uint8
  valid bits, workers write int32 final positions into their own row
  slice, and nothing but per-shard stats is pickled;
* ``run_stream`` — workers *generate* their shard's trials from a
  ``SeedSequence(seed).spawn(...)`` child keyed by shard position and
  return an O(1) :class:`~repro.engine.backends.base.StreamSummary`,
  which the parent folds as shards complete — peak memory stays flat
  at 10⁷+ trials because full trial arrays never exist anywhere.

Shards go out through :func:`~repro.engine.backends.fanout.fanout`:
on the supervised pool each shard runs under a private :mod:`repro.obs`
registry whose snapshot merges back in shard order, so counters and
histograms land in their original keys and gauges/spans carry
``{worker=shard-N}`` provenance.  ``workers == 1`` runs the very same
shard plan in-process under the caller's registry, which is why
results are byte-identical for any worker count.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine.backends.base import (
    CAP_OCCUPANCY,
    CAP_PARALLEL,
    CAP_ROUTING,
    CAP_STREAM,
    CAP_SUPERVISED,
    DEFAULT_SHARD_TRIALS,
    EngineBackend,
    StreamSpec,
    StreamSummary,
    register_backend,
    resolve_workers,
    shard_valid,
    summarize_batch,
)
from repro.engine.backends.fanout import fanout
from repro.engine.backends.pool import as_shm_array, attach_shm, shm_segments
from repro.engine.backends.supervisor import SupervisorPolicy


def _routing_shard_job(job: dict) -> dict:
    """Worker body for ``run_trials``: route rows [start, stop) of the
    shared valid buffer, write positions into the shared out buffer."""
    switch = job["switch"]
    start, stop = job["rows"]
    shm_in = attach_shm(job["valid_shm"])
    shm_out = attach_shm(job["out_shm"])
    try:
        valid_all = as_shm_array(shm_in, job["shape"], np.uint8)
        out_all = as_shm_array(shm_out, job["shape"], np.int32)
        valid = valid_all[start:stop].astype(bool)
        batch = switch.setup_batch(valid)
        out_all[start:stop] = batch.input_to_output.astype(np.int32)
        routed = batch.routed_counts
        return {
            "trials": int(stop - start),
            "routed_total": int(routed.sum()),
        }
    finally:
        shm_in.close()
        shm_out.close()


def _stream_shard_job(job: dict) -> dict:
    """Worker body for ``run_stream``: generate this shard's trials
    from its own SeedSequence child, route, and reduce to a summary."""
    switch = job["switch"]
    valid = shard_valid(switch.n, job["count"], job["entropy"], job["load"])
    batch = switch.setup_batch(valid)
    summary = summarize_batch(
        switch,
        valid,
        batch.input_to_output,
        check_contract=job["check_contract"],
        measure_epsilon=job["measure_epsilon"],
    )
    return summary.__dict__.copy()


class ShardedBackend(EngineBackend):
    """Sharded multiprocess execution over the persistent pool."""

    name = "process"

    def __init__(
        self,
        *,
        workers: int = 0,
        shard_trials: int = DEFAULT_SHARD_TRIALS,
        deadline_s: float | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        degrade: bool = True,
        **_options,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.shard_trials = int(shard_trials)
        self.policy = SupervisorPolicy(
            deadline_s=deadline_s,
            max_retries=int(max_retries),
            backoff_s=float(backoff_s),
            degrade=bool(degrade),
        )

    def capabilities(self) -> frozenset:
        return frozenset(
            {CAP_ROUTING, CAP_OCCUPANCY, CAP_STREAM, CAP_PARALLEL, CAP_SUPERVISED}
        )

    # -- dispatch plumbing -------------------------------------------

    def _dispatch(self, switch, fn, jobs: list[dict]) -> list[object]:
        """Run the shard jobs through :func:`.fanout.fanout` (supervised
        pool, or inline at ``workers == 1``) and return per-shard
        results in shard order.  Every shard's entropy is keyed to its
        position, so retried results are byte-identical to a clean
        run's."""
        for _ in jobs:
            obs.counter("engine.shards", backend=self.name).inc()
        return fanout(
            fn, jobs, workers=self.workers, label="shard",
            plan_keys=[self.plan_key(switch)], policy=self.policy,
        )

    # -- the protocol ------------------------------------------------

    def run_trials(self, switch, valid: np.ndarray):
        from repro.engine.batch import BatchRouting

        valid = np.asarray(valid, dtype=bool)
        trials, n = valid.shape
        bounds = [
            (start, min(start + self.shard_trials, trials))
            for start in range(0, trials, self.shard_trials)
        ]
        if self.workers <= 1 or len(bounds) <= 1:
            # Small batches aren't worth the buffer round trip; the
            # result is identical because rows route independently.
            return switch.setup_batch(valid)
        # The context manager releases both segments on every exit path
        # — including a failure between the two allocations or a shard
        # job raising mid-dispatch — and registers them in the orphan
        # set that pool shutdown sweeps as a last resort.
        with shm_segments(trials * n, trials * n * 4) as (shm_in, shm_out):
            as_shm_array(shm_in, valid.shape, np.uint8)[:] = valid
            jobs = [
                {
                    "switch": switch,
                    "rows": rows,
                    "valid_shm": shm_in.name,
                    "out_shm": shm_out.name,
                    "shape": valid.shape,
                }
                for rows in bounds
            ]
            self._dispatch(switch, _routing_shard_job, jobs)
            routing = (
                as_shm_array(shm_out, valid.shape, np.int32)
                .astype(np.int64)
            )
        return BatchRouting(
            n_inputs=switch.n,
            n_outputs=switch.m,
            valid=valid,
            input_to_output=routing,
        )

    def run_stream(self, switch, spec: StreamSpec) -> StreamSummary:
        shards = spec.shards()
        if not shards:
            return StreamSummary()
        children = np.random.SeedSequence(spec.seed).spawn(len(shards))
        jobs = [
            {
                "switch": switch,
                "count": stop - start,
                "entropy": children[index],
                "load": spec.load,
                "check_contract": spec.check_contract,
                "measure_epsilon": spec.measure_epsilon,
            }
            for index, (start, stop) in enumerate(shards)
        ]
        summary = StreamSummary()
        for result in self._dispatch(switch, _stream_shard_job, jobs):
            result = dict(result)
            result["messages"] = tuple(result.get("messages", ()))
            summary = summary.fold(StreamSummary(**result))
        return summary


register_backend("process", ShardedBackend)
