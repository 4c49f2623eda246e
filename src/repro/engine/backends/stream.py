"""The deterministic, sharded trial stream behind ``repro verify
--backend process``.

:func:`run_stream` draws ``spec.trials`` random valid-bit patterns,
routes them through the switch's batch engine, checks the (n, m, α)
partial-concentration contract on every trial, measures worst-case
ε-nearsortedness where the switch tracks final positions, and folds
everything into an O(1) :class:`StreamSummary`.

The trials are cut into shards whose boundaries depend only on the
trial count (:meth:`StreamSpec.shards`), never the worker count, and
each shard draws its rows from its own ``SeedSequence(seed).spawn(...)``
child keyed by shard *position*.  The shards go out through
:func:`~repro.engine.backends.fanout.fanout` — the supervised pool at
``workers > 1``, in-process otherwise — so the summary is
byte-identical for any worker count and any schedule of retries, and
full trial arrays never exist anywhere: peak memory stays flat at
10⁷+ trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.concentration import validate_partial_concentration
from repro.engine.backends.fanout import fanout
from repro.errors import ConfigurationError, ReproError

#: Trials per shard when a stream spec does not say otherwise.  Small
#: enough that peak memory stays flat at 10^7+ trials, large enough
#: that the per-shard numpy dispatch overhead is noise.
DEFAULT_SHARD_TRIALS = 4096


@dataclass(frozen=True)
class StreamSpec:
    """A deterministic stream of random trials (the ``repro verify``
    distribution: each trial draws its own validity threshold)."""

    trials: int
    seed: int = 0
    shard_trials: int = DEFAULT_SHARD_TRIALS

    def shards(self) -> list[tuple[int, int]]:
        """``(start, stop)`` trial bounds per shard.  The split depends
        only on ``trials`` and ``shard_trials`` — never on the worker
        count — which is what makes stream results worker-invariant."""
        if self.trials < 0:
            raise ConfigurationError(f"trials must be >= 0, got {self.trials}")
        if self.shard_trials < 1:
            raise ConfigurationError(
                f"shard_trials must be >= 1, got {self.shard_trials}"
            )
        return [
            (start, min(start + self.shard_trials, self.trials))
            for start in range(0, self.trials, self.shard_trials)
        ]


def shard_valid(n: int, count: int, entropy: np.random.SeedSequence) -> np.ndarray:
    """One shard's trials: ``count`` rows of valid bits, each row below
    its own uniform threshold, from a generator seeded by the shard's
    own SeedSequence child."""
    rng = np.random.default_rng(entropy)
    thresholds = rng.random((count, 1))
    return rng.random((count, n)) < thresholds


@dataclass(frozen=True)
class StreamSummary:
    """The streaming reduction's fold state: everything ``repro
    verify`` needs, at O(1) memory per shard."""

    trials: int = 0
    shards: int = 0
    routed_total: int = 0
    min_routed: int | None = None
    worst_epsilon: int | None = None
    violations: int = 0
    #: First few violation messages (the fold caps this).
    messages: tuple[str, ...] = field(default=())

    MAX_MESSAGES = 8

    def fold(self, other: "StreamSummary") -> "StreamSummary":
        """Merge two shard summaries (associative and commutative, so
        as-completed folding is safe)."""

        def _opt(a, b, op):
            if a is None:
                return b
            if b is None:
                return a
            return op(a, b)

        return StreamSummary(
            trials=self.trials + other.trials,
            shards=self.shards + other.shards,
            routed_total=self.routed_total + other.routed_total,
            min_routed=_opt(self.min_routed, other.min_routed, min),
            worst_epsilon=_opt(self.worst_epsilon, other.worst_epsilon, max),
            violations=self.violations + other.violations,
            messages=(self.messages + other.messages)[: self.MAX_MESSAGES],
        )


def summarize_batch(switch, valid: np.ndarray, routing: np.ndarray) -> StreamSummary:
    """Reduce one shard's routings to a :class:`StreamSummary`.

    Contract violations are *counted* (with row-localised messages),
    never raised — the caller decides whether a violated stream is an
    exit code or a recorded finding.
    """
    from repro.engine.batch import BatchRouting, nearsortedness_batch
    from repro.verify.differential import output_occupancy

    batch = BatchRouting(
        n_inputs=switch.n,
        n_outputs=switch.m,
        valid=valid,
        input_to_output=routing,
    )
    routed = batch.routed_counts
    violations = 0
    messages: list[str] = []
    spec = switch.spec
    for i in range(valid.shape[0]):
        try:
            validate_partial_concentration(spec, valid[i], routing[i])
        except ReproError as exc:
            violations += 1
            if len(messages) < StreamSummary.MAX_MESSAGES:
                messages.append(f"trial {i}: {exc}")
    worst_eps: int | None = None
    if hasattr(switch, "final_positions"):
        occupancy = output_occupancy(switch, valid, routing=routing)
        if occupancy is not None:
            worst_eps = int(nearsortedness_batch(occupancy).max(initial=0))
    return StreamSummary(
        trials=int(valid.shape[0]),
        shards=1,
        routed_total=int(routed.sum()),
        min_routed=int(routed.min()) if routed.size else None,
        worst_epsilon=worst_eps,
        violations=violations,
        messages=tuple(messages),
    )


def _shard_job(job: dict) -> StreamSummary:
    """One shard: generate its trials from its own SeedSequence child,
    route them through the batch engine, and reduce to a summary."""
    switch = job["switch"]
    valid = shard_valid(switch.n, job["count"], job["entropy"])
    batch = switch.setup_batch(valid)
    return summarize_batch(switch, valid, batch.input_to_output)


def run_stream(
    switch, spec: StreamSpec, *, workers: int = 1, policy=None
) -> StreamSummary:
    """Generate, route and reduce ``spec.trials`` random trials, one
    fan-out job per shard, and fold the shard summaries in shard order.

    ``workers > 1`` runs the shards on the supervised pool under
    ``policy`` (a :class:`~repro.engine.backends.supervisor.SupervisorPolicy`);
    ``workers <= 1`` runs them in-process.  The result is the same
    either way.
    """
    shards = spec.shards()
    children = np.random.SeedSequence(spec.seed).spawn(len(shards))
    jobs = [
        {"switch": switch, "count": stop - start, "entropy": child}
        for (start, stop), child in zip(shards, children)
    ]
    # Reading the plan compiles it, so the pool can ship it to workers.
    plan_key = getattr(getattr(switch, "_plan", None), "key", None)
    summary = StreamSummary()
    for result in fanout(
        _shard_job, jobs, workers=workers, label="shard",
        plan_keys=[plan_key], policy=policy,
    ):
        summary = summary.fold(result)
    return summary


__all__ = [
    "DEFAULT_SHARD_TRIALS",
    "StreamSpec",
    "StreamSummary",
    "run_stream",
    "shard_valid",
    "summarize_batch",
]
