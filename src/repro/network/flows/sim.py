"""The event-driven flow simulator.

:class:`FlowSim` ties the pieces together: flows (from
:mod:`repro.network.flows.workload`) arrive at ToR-like ingress ports,
each port offers at most one cell per fabric cycle, and a
:class:`~repro.network.flows.fabric.FabricStage` decides each cell's
fate.  Time is event-driven — the heap-based
:class:`~repro.network.flows.events.EventQueue` holds flow arrivals at
their (real-valued) arrival times and fabric cycles at integer times,
and cycles are only scheduled while there is work: an idle fabric
consumes no events, so a sparse workload is cheap to simulate however
long its horizon.

Congestion control is TCP-ish per flow:

* each flow keeps an additive-increase/multiplicative-decrease
  congestion window ``cwnd`` (starts at 1, +1 per delivered cell,
  halved on loss, clamped to [1, 64]);
* with **backpressure** on (the default), a rejected cell is *not*
  lost: the flow keeps it for retransmission but backs off —
  suspended for ``max(1, round(4 / cwnd))`` cycles, so repeat losers
  pace down to one attempt per 4 cycles while healthy flows retry
  immediately;
* with backpressure off, a rejected cell is dropped permanently and
  the flow moves on — the open-loop mode the differential tests use,
  where the event-driven model must reduce exactly to the
  round-synchronous :class:`~repro.network.simulate.SwitchSimulation`;
* a **blocked** cell (rotor slot wait) is always retried next cycle
  with no penalty: nothing was dropped.

Ports schedule their flows round-robin: a port scans its queue from the
front for the first eligible flow (it has cells left, is not backing
off, and the fabric admits its destination this cycle); that flow and
every flow scanned before it rotate to the back, so elephants cannot
starve mice sharing an ingress.  Arrivals join the tail; resolved flows
leave in place.

The state is struct-of-arrays: one numpy array per per-flow field,
indexed by flow id, and one array of the queued (arrived, unresolved)
flow ids.  A cycle makes one masked selection over the queued flows for
all n ports at once, one :meth:`FabricStage.step` over the offered
cells as parallel arrays, and vectorized updates from the per-cell
fates.  A port's queue order is kept as per-flow integer ranks plus a
per-port *head* rank: the queue is the port's flows with rank above
the head, then those at or below it, each in rank order.  A pick makes
the picked flow's rank the head, which is the whole rotation: past the
fabric's ``admits`` mask, a cycle only touches its eligible flows.

A flow completes when every cell is resolved (delivered or dropped,
including cells that surfaced later from an in-fabric FIFO); its
flow-completion time is ``resolution_cycle − arrival + 1`` — a
one-cell flow arriving at 0 and delivered in cycle 0 has FCT 1.

Everything here is a pure function of (flows, stage): the simulator
itself draws no randomness, which is what makes same-seed runs
byte-identical regardless of how the study layer shards fabrics over
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.network.flows.events import EventQueue, SimClock
from repro.network.flows.fabric import (
    ABSORBED,
    BLOCKED,
    DELIVERED,
    REJECTED,
    FabricStage,
)
from repro.network.flows.workload import FlowSpec

_NO_FLOWS = np.empty(0, dtype=np.int64)

#: AIMD clamp for the per-flow congestion window.
CWND_MAX = 64.0
#: Base backoff numerator: a cwnd-1 flow waits this many cycles.
BACKOFF_BASE = 4.0


@dataclass
class FlowSimResult:
    """Outcome of one simulation run.

    ``fct[i]`` is flow i's completion time in cycles (NaN if the run
    hit ``max_cycles`` before the flow resolved).  ``offered_cells``
    counts transmission *attempts*, so with backpressure on it exceeds
    ``delivered_cells + dropped_cells`` by the retransmissions; with
    backpressure off the three balance exactly once the run drains.
    ``events`` counts queue events plus per-cell outcomes — the unit
    the CLI and CI budgets are expressed in.
    """

    fabric: str
    flows: int
    completed: int
    offered_cells: int
    delivered_cells: int
    dropped_cells: int
    faulted_cells: int
    blocked_cells: int
    cycles: int
    events: int
    fct: np.ndarray

    @property
    def loss_rate(self) -> float:
        return (
            self.dropped_cells / self.offered_cells if self.offered_cells else 0.0
        )

    def fct_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0, 99.9)
    ) -> dict[str, float]:
        """FCT percentiles over completed flows (NaN-safe)."""
        finished = self.fct[~np.isnan(self.fct)]
        if not finished.size:
            return {f"p{q:g}": float("nan") for q in qs}
        return {
            f"p{q:g}": float(np.percentile(finished, q)) for q in qs
        }

    def as_dict(self) -> dict:
        out = {
            "fabric": self.fabric,
            "flows": self.flows,
            "completed": self.completed,
            "offered_cells": self.offered_cells,
            "delivered_cells": self.delivered_cells,
            "dropped_cells": self.dropped_cells,
            "faulted_cells": self.faulted_cells,
            "blocked_cells": self.blocked_cells,
            "loss_rate": self.loss_rate,
            "cycles": self.cycles,
            "events": self.events,
        }
        out.update(self.fct_percentiles())
        return out


@dataclass
class FlowSim:
    """Drive ``flows`` through ``stage`` to completion.

    ``checkpoint`` (if given) is called as ``checkpoint(sim, cycle)``
    after every fabric cycle — the conservation property suite hooks in
    here via :meth:`accounting`.  ``max_cycles`` caps the number of
    fabric cycles (unresolved flows keep NaN FCTs); the default runs
    until the backlog drains.
    """

    stage: FabricStage
    flows: Sequence[FlowSpec]
    backpressure: bool = True
    clock: SimClock | None = None
    max_cycles: int | None = None
    checkpoint: Callable[["FlowSim", int], None] | None = None

    _queue: EventQueue = field(init=False, repr=False)
    _in_fabric: int = field(init=False, default=0)
    _arrived_cells: int = field(init=False, default=0)
    _cycle_scheduled: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self._queue = EventQueue(clock=self.clock or SimClock())
        n = self.stage.n
        for i, spec in enumerate(self.flows):
            if spec.flow_id != i:
                raise ConfigurationError(
                    f"flow ids must be dense and ordered; slot {i} holds "
                    f"flow {spec.flow_id}"
                )
            for end in ("src", "dst"):
                if not 0 <= getattr(spec, end) < n:
                    raise ConfigurationError(
                        f"flow {i}: {end} {getattr(spec, end)} outside "
                        f"fabric of width {n}"
                    )

        def column(attr: str, dtype) -> np.ndarray:
            return np.array([getattr(f, attr) for f in self.flows], dtype=dtype)

        count = len(self.flows)
        self._src = column("src", np.int64)
        self._dst = column("dst", np.int64)
        self._size = column("size_cells", np.int64)
        self._arrival = column("arrival", np.float64)
        self._next_index = np.zeros(count, dtype=np.int64)
        self._delivered = np.zeros(count, dtype=np.int64)
        self._dropped = np.zeros(count, dtype=np.int64)
        self._cwnd = np.ones(count, dtype=np.float64)
        self._next_ok = np.zeros(count, dtype=np.float64)
        self._finish = np.full(count, np.nan)
        self._rank = np.zeros(count, dtype=np.int64)
        self._head = np.zeros(n, dtype=np.int64)
        self._set_queued(_NO_FLOWS)
        self._metrics: dict[str, object] = {}
        # Sort keys of the pick: port-major, then position in the queue.
        self._wrap = count + 1
        self._port_stride = 2 * self._wrap

    # -- conservation ---------------------------------------------------

    def accounting(self) -> dict[str, int]:
        """Cell conservation snapshot: at every instant,
        ``arrived == delivered + dropped + in_fabric + at_source``."""
        queued = self._queued
        return {
            "arrived": self._arrived_cells,
            "delivered": int(self._delivered.sum()),
            "dropped": int(self._dropped.sum()),
            "in_fabric": self._in_fabric,
            "at_source": int(
                (self._size[queued] - self._next_index[queued]).sum()
            ),
        }

    # -- event loop -----------------------------------------------------

    def _schedule_cycle(self) -> None:
        if not self._cycle_scheduled:
            when = ceil(self._queue.clock.now)
            self._queue.push(float(when), "cycle")
            self._cycle_scheduled = True

    def _work_pending(self) -> bool:
        return self._in_fabric > 0 or len(self._queued) > 0

    def run(self) -> FlowSimResult:
        reg = obs.get_registry()
        counts = {
            "delivered": 0, "dropped": 0, "blocked": 0, "faulted": 0,
            "offered": 0,
        }
        cycles = 0
        with reg.span(
            "flows.run", fabric=self.stage.name, flows=len(self.flows)
        ):
            for spec in self.flows:
                self._queue.push(spec.arrival, "arrival", spec.flow_id)
            while self._queue:
                event = self._queue.pop()
                if event.kind == "arrival":
                    self._enqueue(event.payload)
                    self._schedule_cycle()
                elif event.kind == "cycle":
                    self._cycle_scheduled = False
                    self._run_cycle(event.time, counts, reg)
                    cycles += 1
                    if self.checkpoint is not None:
                        self.checkpoint(self, cycles - 1)
                    if self.max_cycles is not None and cycles >= self.max_cycles:
                        break
                    if self._work_pending():
                        self._queue.push(event.time + 1.0, "cycle")
                        self._cycle_scheduled = True
            if reg.enabled:
                reg.counter("flows.cycles", fabric=self.stage.name).inc(cycles)
                reg.counter("flows.events", fabric=self.stage.name).inc(
                    self._queue.popped
                )

        fct = self._finish.copy()
        completed = int(np.count_nonzero(~np.isnan(fct)))
        events = (
            self._queue.popped
            + counts["delivered"] + counts["dropped"] + counts["blocked"]
        )
        return FlowSimResult(
            fabric=self.stage.name,
            flows=len(self.flows),
            completed=completed,
            offered_cells=counts["offered"],
            delivered_cells=counts["delivered"],
            dropped_cells=counts["dropped"],
            faulted_cells=counts["faulted"],
            blocked_cells=counts["blocked"],
            cycles=cycles,
            events=events,
            fct=fct,
        )

    def _set_queued(self, queued: np.ndarray) -> None:
        """Replace the queued set, with its per-flow columns cached
        alongside (they only change when a flow arrives or resolves)."""
        self._queued = queued
        self._queued_src = self._src[queued]
        self._queued_dst = self._dst[queued]
        self._queued_size = self._size[queued]

    def queue(self, port: int) -> np.ndarray:
        """The flow ids queued at ``port``, front first."""
        mine = self._queued[self._queued_src == port]
        rank = self._rank[mine]
        return mine[np.lexsort((rank, rank <= self._head[port]))]

    def _enqueue(self, flow: int) -> None:
        """Flow ``flow`` arrives: it joins its port's queue at the tail.

        The port's queue is renumbered 0..k−1 in its current order and
        the arrival takes rank k and becomes the head, so the queue now
        reads in plain rank order with the arrival last.
        """
        port = self._src[flow]
        mine = self.queue(port)
        self._rank[mine] = np.arange(len(mine))
        self._rank[flow] = self._head[port] = len(mine)
        self._set_queued(np.append(self._queued, flow))
        self._arrived_cells += int(self._size[flow])

    def _offer(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Each port's cell for this cycle: the first eligible flow in
        its queue order, which becomes the port's head.  Returns the
        picked flow ids and their ports, in port order."""
        # The fabric's hint first: on a rotor it leaves only the flows
        # whose slot is up, so the rest of the pick is over a handful.
        index = self.stage.admits(self._queued_src, self._queued_dst).nonzero()[0]
        picked = self._queued[index]
        ready = (self._next_ok[picked] <= now) & (
            self._next_index[picked] < self._queued_size[index]
        )
        index = index[ready]
        picked = picked[ready]
        port = self._queued_src[index]
        if len(index) > 1:
            # Port order, and within a port queue order: ranks past the
            # head first.  The first flow of each port wins.
            rank = self._rank[picked]
            order = np.argsort(
                port * self._port_stride
                + rank
                + self._wrap * (rank <= self._head[port])
            )
            port = port[order]
            behind = port[1:] == port[:-1]
            if behind.any():
                first = np.concatenate(([True], ~behind))
                order = order[first]
                port = port[first]
            picked = picked[order]
        self._head[port] = self._rank[picked]
        return picked, port

    def _run_cycle(self, now: float, counts: dict[str, int], reg) -> None:
        flow, port = self._offer(now)
        outcome = self.stage.step(port, self._dst[flow], flow)
        fate = outcome.fate
        if not fate.any():  # the common case: every offered cell delivered
            tally = [len(flow), 0, 0, 0]
        else:
            tally = np.bincount(fate, minlength=4).tolist()

        def having(which: int) -> np.ndarray:
            if tally[which] == len(flow):
                return flow
            return flow[fate == which] if tally[which] else _NO_FLOWS

        sent, lost, held = having(DELIVERED), having(REJECTED), having(ABSORBED)
        surfaced = outcome.surfaced
        got = np.concatenate((sent, surfaced)) if len(surfaced) else sent
        counts["offered"] += len(flow)
        counts["faulted"] += outcome.faulted
        counts["delivered"] += len(got)
        counts["blocked"] += tally[BLOCKED]

        # A flow has at most one cell in ``got`` and one in ``lost``
        # (knockout can deliver a FIFO cell and reject the new one in
        # the same cycle); deliveries apply first.
        if len(sent):
            self._next_index[sent] += 1
        if len(got):
            self._in_fabric -= len(surfaced)
            self._delivered[got] += 1
            self._cwnd[got] = np.minimum(CWND_MAX, self._cwnd[got] + 1.0)
        resolved = got
        if len(lost) and self.backpressure:
            # Keep the cell; back off harder the smaller the window.
            cwnd = np.maximum(1.0, self._cwnd[lost] / 2.0)
            self._cwnd[lost] = cwnd
            self._next_ok[lost] = now + np.maximum(
                1.0, np.round(BACKOFF_BASE / cwnd)
            )
        elif len(lost):
            self._next_index[lost] += 1
            self._dropped[lost] += 1
            counts["dropped"] += len(lost)
            resolved = np.concatenate((got, lost))
        if len(held):
            # Cells the stage absorbed (knockout FIFOs): the fabric owns
            # them now; they resurface in a later cycle's ``surfaced``.
            self._next_index[held] += 1
            self._in_fabric += len(held)

        if len(resolved):
            unresolved = self._size[resolved] - self._delivered[resolved]
            if not self.backpressure:
                unresolved -= self._dropped[resolved]
            done = resolved[unresolved == 0]
            if len(done):
                self._finish[done] = now - self._arrival[done] + 1.0
                queued = self._queued
                self._set_queued(queued[np.isnan(self._finish[queued])])

        if reg.enabled:
            self._record(
                reg, now, offered=len(flow), delivered=len(got),
                lost=len(lost), blocked=tally[BLOCKED],
                faulted=outcome.faulted,
            )

    def _record(self, reg, now, *, offered, delivered, lost, blocked,
                faulted) -> None:
        fabric = self.stage.name
        if not self._metrics:
            # The every-cycle metrics, looked up on the first cycle
            # rather than on each one.
            self._metrics = {
                "offered": reg.counter("flows.cells_offered", fabric=fabric),
                "delivered": reg.counter("flows.cells_delivered", fabric=fabric),
                "queue": reg.series("flows.queue_depth", fabric=fabric),
                "inflight": reg.series("flows.inflight_cells", fabric=fabric),
                "cwnd": reg.series("flows.cwnd_mean", fabric=fabric),
                "rate": reg.series("flows.delivery_rate", fabric=fabric),
                "drops": reg.series("flows.drop_rate", fabric=fabric),
            }
        metrics = self._metrics
        metrics["offered"].inc(offered)
        metrics["delivered"].inc(delivered)
        if lost and not self.backpressure:
            reg.counter("flows.cells_dropped", fabric=fabric).inc(lost)
        if blocked:
            reg.counter("flows.cells_blocked", fabric=fabric).inc(blocked)
        if faulted:
            reg.counter("flows.cells_faulted", fabric=fabric).inc(faulted)
        # Per-cycle timeseries: the shape of congestion over the run,
        # not just its end-of-run totals.  The fabric cycle index is the
        # time axis (deterministic; see repro.obs.timeseries for the
        # decimation contract).
        metrics["queue"].append(self.stage.in_flight(), t=now)
        metrics["inflight"].append(self._in_fabric, t=now)
        # The mean window is Python's sum in flow order (the exact
        # rounding the series records), taken only for samples the
        # series keeps.
        cwnd = metrics["cwnd"]
        cwnd.append(
            sum(self._cwnd.tolist()) / len(self._cwnd)
            if cwnd.keeps_next and len(self._cwnd)
            else 0.0,
            t=now,
        )
        metrics["rate"].append(delivered, t=now)
        metrics["drops"].append(lost if not self.backpressure else 0, t=now)
