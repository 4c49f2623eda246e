"""The port round-robin of :class:`FlowSim` against a deque oracle.

``FlowSim`` keeps each port's queue as integer ranks plus a per-port
head, and picks for all ports in one masked selection per cycle.  The
reference below is the plain per-port ``deque`` scan: scan from the
front, rotate every scanned flow to the back, stop at the first
eligible one.  Hypothesis drives
both through the same schedule — arrivals landing between rotations,
per-cycle admission masks (ports with no eligible flow included) and
deliveries that retire flows — and every cycle's picks and every
port's resulting order must agree.
"""

from __future__ import annotations

from collections import deque
from math import ceil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import (
    BLOCKED,
    DELIVERED,
    FabricStage,
    FlowSim,
    FlowSpec,
    StageOutcome,
)


def oracle_pick(port: deque, eligible) -> int | None:
    """The reference round-robin: first eligible flow in queue order;
    it and every flow scanned before it rotate to the back."""
    for _ in range(len(port)):
        flow = port[0]
        port.rotate(-1)
        if eligible(flow):
            return flow
    return None


def oracle_run(flows, n, admitted, delivers):
    """Replay the schedule on per-port deques.  Returns, per cycle, the
    picked flow ids (port order) and every port's queue afterwards."""
    ports = [deque() for _ in range(n)]
    sent = [0] * len(flows)
    pending = sorted(flows, key=lambda f: (f.arrival, f.flow_id))
    history = []
    now = 0.0
    while (pending or any(ports)) and len(history) < len(admitted):
        if not any(ports):
            now = max(now, float(ceil(pending[0].arrival)))
        while pending and pending[0].arrival <= now:
            flow = pending.pop(0)
            ports[flow.src].append(flow.flow_id)
        cycle = len(history)

        def eligible(fid):
            spec = flows[fid]
            return (
                sent[fid] < spec.size_cells
                and (spec.src, spec.dst) in admitted[cycle]
            )

        picks = [oracle_pick(port, eligible) for port in ports]
        picks = [fid for fid in picks if fid is not None]
        for fid in picks:
            spec = flows[fid]
            if (spec.src, spec.dst) in delivers[cycle]:
                sent[fid] += 1
                if sent[fid] == spec.size_cells:
                    ports[spec.src].remove(fid)
        history.append((picks, [list(port) for port in ports]))
        now += 1.0
    return history


class ScheduledStage(FabricStage):
    """A stage that admits and delivers by a fixed per-cycle schedule
    of (src, dst) pairs; everything else is blocked, so no cell is ever
    lost or held and only the round-robin decides who goes."""

    def __init__(self, n, admitted, delivers):
        self.name = "scheduled"
        self.n = n
        self.admitted = admitted
        self.delivers = delivers
        self.cycle = 0
        self.picks = []

    @staticmethod
    def _member(pairs, src, dst):
        return np.array(
            [(s, d) in pairs for s, d in zip(src.tolist(), dst.tolist())],
            dtype=bool,
        )

    def admits(self, src, dst):
        return self._member(self.admitted[self.cycle], src, dst)

    def step(self, src, dst, flow):
        self._check(src, dst, flow)
        self.picks.append(flow.tolist())
        fate = np.where(
            self._member(self.delivers[self.cycle], src, dst),
            DELIVERED,
            BLOCKED,
        )
        self.cycle += 1
        return StageOutcome(fate.astype(np.int8))


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    specs = draw(
        st.lists(
            st.tuples(pairs, st.integers(1, 4), st.integers(0, 12)),
            min_size=1,
            max_size=12,
        )
    )
    specs.sort(key=lambda item: item[2])
    flows = [
        FlowSpec(flow_id=i, src=s, dst=d, size_cells=size, arrival=float(t))
        for i, ((s, d), size, t) in enumerate(specs)
    ]
    # Every cycle admits and delivers a random subset of the pairs in
    # play; enough cycles that most runs drain.
    in_play = sorted({(f.src, f.dst) for f in flows})
    subsets = st.frozensets(st.sampled_from(in_play))
    cycles = 40
    admitted = draw(st.lists(subsets, min_size=cycles, max_size=cycles))
    delivers = draw(st.lists(subsets, min_size=cycles, max_size=cycles))
    return n, flows, admitted, delivers


class TestRoundRobinOracle:
    @settings(max_examples=100, deadline=None)
    @given(schedules())
    def test_picks_and_port_orders_match_the_deque_model(self, schedule):
        n, flows, admitted, delivers = schedule
        stage = ScheduledStage(n, admitted, delivers)
        orders = []

        def checkpoint(sim, cycle):
            orders.append([sim.queue(port).tolist() for port in range(n)])

        FlowSim(
            stage, flows, max_cycles=len(admitted), checkpoint=checkpoint
        ).run()
        expected = oracle_run(flows, n, admitted, delivers)
        assert stage.picks == [picks for picks, _ in expected]
        assert orders == [queues for _, queues in expected]
