"""Round-based network simulations built around concentrator switches.

Two scenarios:

* :class:`SwitchSimulation` — a single switch fed by a traffic
  generator under a congestion policy; measures delivered/lost/retried
  messages per round.  This is the intro's "concentrate few messages on
  many lines onto fewer output lines" setting.
* :class:`ConcentrationTree` — a two-level funnel of switches: a bank
  of first-level switches whose outputs feed one second-level switch,
  modelling a fan-in stage of a larger routing network.

:func:`compare_partial_vs_perfect` reproduces the Section 1 claim that
an ``(n/α, m/α, α)`` partial concentrator can stand in for an n-by-m
perfect concentrator: under any k ≤ m offered messages both route
everything; past m, both saturate at m.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro._util.rng import default_rng
from repro.engine.backends.fanout import fanout
from repro.errors import ConfigurationError
from repro.messages.congestion import CongestionPolicy, DropPolicy
from repro.messages.message import Message
from repro.switches.base import ConcentratorSwitch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one simulated round.

    ``unrouted`` counts the messages the switch failed to deliver this
    round (routing failures, fault kills, and flaky-pin drops at the
    inputs); the congestion policy then splits them into ``lost``
    (permanently dropped) and ``retried`` (queued for a later round),
    so ``unrouted == lost + retried`` always holds.  ``faulted`` is
    the subset of ``unrouted`` killed at a flaky input pin before
    reaching the switch; ``expired`` is the subset of ``lost`` the
    policy aged out via its TTL.
    """

    round_index: int
    offered: int
    injected: int
    delivered: int
    unrouted: int
    lost: int = 0
    retried: int = 0
    faulted: int = 0
    expired: int = 0


@dataclass
class SimulationSummary:
    """Aggregate statistics over a run.

    The totals are accumulated round by round from the same numbers
    recorded in ``per_round``, so the two views (and the metrics the
    :mod:`repro.obs` layer collects) cannot disagree:
    ``lost == sum(r.lost)`` and ``retried == sum(r.retried)``.
    ``faulted``/``expired`` carry the graceful-degradation accounting
    (see :class:`RoundResult`).
    """

    rounds: int = 0
    offered: int = 0
    delivered: int = 0
    lost: int = 0
    retried: int = 0
    faulted: int = 0
    expired: int = 0
    per_round: list[RoundResult] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of offered traffic; 0.0 when nothing was
        offered (rounds=0 or an empty workload — an empty run delivered
        nothing, it did not deliver everything)."""
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def loss_rate(self) -> float:
        return self.lost / self.offered if self.offered else 0.0


class SwitchSimulation:
    """Drive one switch with a traffic generator and congestion policy.

    Passing ``scenario`` injects a :class:`repro.faults.FaultScenario`:
    structural faults (stuck pins, dead chips, severed wires, dead
    outputs) wrap the switch in a
    :class:`~repro.faults.injector.FaultySwitch`, while the scenario's
    flaky pins flip per round with their own Bernoulli draws.  The flip
    stream is seeded by the scenario — not the policy or simulator seed
    — so two simulations differing only in congestion policy see the
    *same* fault history and their delivery rates are comparable.
    ``remap_outputs=True`` additionally routes around dead output pads
    using the spare output positions (plan-based switches only).  The
    whole scenario, flaky pins included, is validated against the
    switch at construction (:class:`~repro.errors.FaultInjectionError`).
    """

    def __init__(
        self,
        switch: ConcentratorSwitch,
        traffic,
        policy: CongestionPolicy | None = None,
        seed: int | None = None,
        scenario=None,
        remap_outputs: bool = False,
    ):
        if traffic.n != switch.n:
            raise ConfigurationError(
                f"traffic width {traffic.n} != switch inputs {switch.n}"
            )
        self.switch = switch
        self._flaky = None
        if scenario is not None:
            # Imported lazily: repro.faults imports the simulator for
            # its resilience measurements.
            from repro.faults.injector import inject_scenario

            self.switch, self._flaky = inject_scenario(
                switch, scenario, remap_outputs=remap_outputs
            )
        self.traffic = traffic
        self.policy = policy if policy is not None else DropPolicy()
        self.rng = default_rng(seed)

    def run(self, rounds: int) -> SimulationSummary:
        summary = SimulationSummary()
        reg = obs.get_registry()
        with reg.span("sim.run", rounds=rounds, switch=repr(self.switch)):
            for round_index in range(rounds):
                with reg.span("sim.round", round=round_index):
                    self._run_round(round_index, summary, reg)
        logger.debug(
            "simulated %d rounds: offered=%d delivered=%d lost=%d retried=%d "
            "faulted=%d expired=%d",
            summary.rounds, summary.offered, summary.delivered,
            summary.lost, summary.retried, summary.faulted, summary.expired,
        )
        return summary

    def _run_round(
        self, round_index: int, summary: SimulationSummary, reg
    ) -> None:
        n = self.traffic.n
        inputs, values = self.traffic.draw()
        offered = int(inputs.size)
        self.policy.on_offered(offered)
        valid = np.zeros(n, dtype=bool)
        valid[inputs] = True

        # Merge the policy's backlog into idle input slots.  Policies
        # with timed release (ResendPolicy, RetryPolicy) expose
        # ``backlog_due``; the rest release everything.  ``held`` maps
        # a slot to the backlog index re-injected there (-1: none).
        if hasattr(self.policy, "backlog_due"):
            backlog = self.policy.backlog_due(round_index)
        else:
            backlog = self.policy.backlog()
        held = np.full(n, -1, dtype=np.intp)
        overflow: list[Message] = []
        if backlog:
            idle = np.flatnonzero(~valid)
            self.rng.shuffle(idle)
            slots = idle[: len(backlog)]
            held[slots] = np.arange(slots.size)
            valid[slots] = True
            overflow = backlog[slots.size:]

        effective, garbled = valid, np.empty(0, dtype=np.intp)
        if self._flaky is not None:
            effective, garbled = self._flaky.flip(valid)
        real = valid.copy()
        real[garbled] = False
        routing = self.switch.setup(effective)
        # Only real messages count: ghosts raised by flaky pins consume
        # switch capacity but deliver nothing.
        routed = routing.input_to_output >= 0
        delivered = int((real & routed).sum())

        # A fresh message becomes a Message object only here, when the
        # policy has to decide its fate; backlog messages pass through.
        payload = np.zeros(n, dtype=np.int64)
        payload[inputs] = values

        def message_at(slot: int) -> Message:
            index = held[slot]
            if index >= 0:
                return backlog[index]
            return Message.from_int(int(payload[slot]), self.traffic.payload_bits)

        unrouted = [
            message_at(slot)
            for slot in np.flatnonzero(real & ~routed).tolist() + garbled.tolist()
        ] + overflow

        self.policy.on_delivered(delivered)
        # The policy decides each unrouted message's fate; the deltas in
        # its counters are this round's losses, retries, and expiries.
        dropped_before = self.policy.stats.dropped
        retried_before = self.policy.stats.retried
        expired_before = getattr(self.policy.stats, "expired", 0)
        self.policy.on_unrouted(unrouted, round_index)
        lost = self.policy.stats.dropped - dropped_before
        retried = self.policy.stats.retried - retried_before
        expired = getattr(self.policy.stats, "expired", 0) - expired_before

        faulted = int(garbled.size)
        injected = int(effective.sum())
        summary.rounds += 1
        summary.offered += offered
        summary.delivered += delivered
        summary.lost += lost
        summary.retried += retried
        summary.faulted += faulted
        summary.expired += expired
        summary.per_round.append(
            RoundResult(
                round_index=round_index,
                offered=offered,
                injected=injected,
                delivered=delivered,
                unrouted=len(unrouted),
                lost=lost,
                retried=retried,
                faulted=faulted,
                expired=expired,
            )
        )
        if reg.enabled:
            reg.counter("sim.rounds").inc()
            reg.counter("sim.offered").inc(offered)
            reg.counter("sim.injected").inc(injected)
            reg.counter("sim.delivered").inc(delivered)
            reg.counter("sim.lost").inc(lost)
            reg.counter("sim.retried").inc(retried)
            if faulted:
                reg.counter("sim.faulted").inc(faulted)
            if expired:
                reg.counter("sim.expired").inc(expired)


class ConcentrationTree:
    """A two-level funnel: ``fan_in`` leaf switches feed one root.

    Each leaf concentrates its n inputs onto m outputs; the root
    concentrates the concatenated leaf outputs onto its own m outputs.
    Models a fan-in stage of a multistage routing network.
    """

    def __init__(self, leaves: list[ConcentratorSwitch], root: ConcentratorSwitch):
        total = sum(leaf.m for leaf in leaves)
        if total != root.n:
            raise ConfigurationError(
                f"root expects {root.n} inputs but leaves deliver {total}"
            )
        self.leaves = leaves
        self.root = root

    @property
    def n(self) -> int:
        return sum(leaf.n for leaf in self.leaves)

    @property
    def m(self) -> int:
        return self.root.m

    def route(self, messages: list[Message | None]) -> tuple[list[Message | None], int]:
        """Route one message set through both levels; returns the root
        outputs and the count of messages lost inside the tree."""
        if len(messages) != self.n:
            raise ConfigurationError(f"expected {self.n} messages, got {len(messages)}")
        lost = 0
        mid: list[Message | None] = []
        offset = 0
        for leaf in self.leaves:
            chunk = messages[offset : offset + leaf.n]
            offset += leaf.n
            outputs = leaf.route(chunk)
            lost += sum(1 for msg in chunk if msg is not None) - sum(
                1 for msg in outputs if msg is not None
            )
            mid.extend(outputs)
        root_out = self.root.route(mid)
        lost += sum(1 for msg in mid if msg is not None) - sum(
            1 for msg in root_out if msg is not None
        )
        return root_out, lost


def _random_k_subsets(
    n: int, k: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``(trials, n)`` bool matrix, each row a uniform random k-subset
    (vectorised: argsort of a uniform matrix gives random permutations)."""
    k = min(k, n)
    order = np.argsort(rng.random((trials, n)), axis=1)
    valid = np.zeros((trials, n), dtype=bool)
    valid[np.arange(trials)[:, None], order[:, :k]] = True
    return valid


def _batched_k_trial(
    switch: ConcentratorSwitch, k: int, trials: int, seed: np.random.SeedSequence
) -> float:
    rng = np.random.default_rng(seed)
    batch = switch.setup_batch(_random_k_subsets(switch.n, k, trials, rng))
    return float(np.mean(batch.routed_counts))


def _compare_job(job: dict) -> float:
    """Body of one (switch, k) comparison item (in-process or in a
    worker)."""
    return _batched_k_trial(
        job["switch"], job["k"], job["trials"], job["entropy"]
    )


def compare_partial_vs_perfect(
    perfect: ConcentratorSwitch,
    partial: ConcentratorSwitch,
    k_values: list[int],
    trials: int = 20,
    seed: int | None = None,
    workers: int = 0,
) -> dict[int, dict[str, float]]:
    """The Section 1 substitution experiment.

    For each offered k, draw ``trials`` random k-subsets and record the
    mean routed count for the n-by-m perfect concentrator and for the
    (n/α, m/α, α) partial concentrator standing in for it.  The paper's
    claim: for k ≤ m both route k; for k > m both route (at least) m.

    Each (switch, k) work item gets its own ``SeedSequence`` child keyed
    by its position, and its trials run through :meth:`setup_batch`;
    ``workers > 1`` fans the items out over the supervised worker pool
    (:func:`repro.engine.backends.fanout.fanout`), so the results are
    identical for any worker count.  Worker metrics merge back with
    ``perfect-k<k>`` / ``partial-k<k>`` provenance labels.
    """
    items = [
        (kind, sw, k)
        for k in k_values
        for kind, sw in (("perfect", perfect), ("partial", partial))
    ]
    children = np.random.SeedSequence(seed).spawn(len(items))
    jobs = [
        {"switch": sw, "k": k, "trials": trials, "entropy": child,
         "worker": f"{kind}-k{k}"}
        for (kind, sw, k), child in zip(items, children)
    ]
    plan_keys = [
        getattr(getattr(sw, "_plan", None), "key", None)
        for sw in (perfect, partial)
    ]
    means = fanout(
        _compare_job, jobs, workers=workers, label="compare",
        plan_keys=plan_keys,
    )
    return {
        k: {"perfect": means[2 * i], "partial": means[2 * i + 1]}
        for i, k in enumerate(k_values)
    }
