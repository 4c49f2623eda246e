"""Pluggable fabric stages for the event-driven flow simulator.

A fabric stage is the thing cells contend against once per cycle.  The
simulator offers at most one cell per ingress port, as parallel arrays
(``src`` in increasing port order, ``dst``, and ``flow`` — the id of the
cell's flow), and the stage returns one fate per offered cell:

* :data:`DELIVERED` — the cell won a path and leaves the fabric;
* :data:`REJECTED` — the cell lost the contention (a real loss: the
  congestion model decides whether to retransmit it);
* :data:`BLOCKED` — the fabric could not even consider the cell this
  cycle (a rotor waiting for its slot); blocked cells re-queue for a
  later cycle with no congestion penalty, because nothing was dropped;
* :data:`ABSORBED` — the stage now holds the cell in a buffer (the
  knockout model's output FIFOs).

An absorbed cell leaves the fabric in a later cycle: it comes back in
that cycle's :attr:`StageOutcome.surfaced` array (its flow id), and
:meth:`FabricStage.in_flight` exposes the number held so flow
conservation can be checked at any instant.

Four stages cover the head-to-head study:

* :class:`ConcentratorFabric` — the paper's subject: an n-to-m
  concentrator switch from the registry guards the uplinks.  Routing
  goes through the engine's batched setup path (one row per cycle, the
  compiled plan amortized across cycles), and a
  :class:`repro.faults.FaultScenario` applies exactly as in the
  round-synchronous simulator: structural faults wrap the switch in a
  :class:`~repro.faults.injector.FaultySwitch`, flaky pins flip per
  cycle with the scenario's own seed.
* :class:`KnockoutFabric` — a knockout-style output-buffered stage:
  cells bound for the same egress contend through an n-to-L
  concentrator (the knockout principle), winners enter a bounded FIFO
  drained one cell per cycle.
* :class:`FatTreeFabric` — the binary fat-tree up-path of
  :mod:`repro.network.fattree`, survivors per cycle via
  :meth:`~repro.network.fattree.FatTree.route_arrays`.
* :class:`RotorFabric` — a rotor/optical round-robin partition
  baseline: each slot wires every port to one destination (a fixed
  matching); a cell whose destination is not currently wired waits
  (blocked), one whose slot is up always delivers.  No contention, no
  loss — the cost is latency.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.network.fattree import FatTree, universal_capacity
from repro.switches.base import ConcentratorSwitch
from repro.switches.perfect import PerfectConcentrator
from repro.switches.registry import build_switch

#: The fates :meth:`FabricStage.step` assigns, one per offered cell
#: (``DELIVERED`` is 0, so an all-delivered cycle is ``not fate.any()``).
DELIVERED, REJECTED, BLOCKED, ABSORBED = 0, 1, 2, 3

_NO_FLOWS = np.empty(0, dtype=np.int64)


@dataclass
class StageOutcome:
    """What one fabric cycle did with the offered (and buffered) cells.

    ``fate[i]`` is offered cell i's fate.  ``surfaced`` holds the flow
    ids of cells absorbed in an earlier cycle that left the fabric in
    this one (delivered).  ``faulted`` counts the subset of rejected
    cells killed by flaky input pins before reaching the switch — loss
    charged to hardware, not contention.
    """

    fate: np.ndarray
    surfaced: np.ndarray = field(default_factory=lambda: _NO_FLOWS)
    faulted: int = 0


class FabricStage(ABC):
    """Abstract fabric stage: ``n`` ingress ports, one cycle at a time."""

    #: Subclasses set these in ``__init__``.
    name: str
    n: int

    @abstractmethod
    def step(
        self, src: np.ndarray, dst: np.ndarray, flow: np.ndarray
    ) -> StageOutcome:
        """Advance one cycle with the offered cells: at most one per
        ingress port, ``src`` strictly increasing, ``dst`` and ``flow``
        parallel to it."""

    def in_flight(self) -> int:
        """Cells buffered inside the stage (0 for bufferless stages)."""
        return 0

    def admits(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Which cells src→dst could possibly advance *this* cycle.

        A VOQ-style scheduling hint: the ingress port skips flows the
        fabric would only block (a rotor whose slot is elsewhere) and
        gives the cycle to one it might serve.  Stages where every cell
        at least contends (everything but the rotor) always admit.
        """
        return np.ones(len(src), dtype=bool)

    def describe(self) -> dict:
        return {"name": self.name, "n": self.n}

    def _check(self, src: np.ndarray, dst: np.ndarray, flow: np.ndarray) -> None:
        if not len(src) == len(dst) == len(flow):
            raise ConfigurationError(
                f"{self.name}: src, dst and flow must be parallel arrays"
            )
        if not len(src):
            return
        if (
            src[0] < 0
            or src[-1] >= self.n
            or (len(src) > 1 and (src[1:] <= src[:-1]).any())
        ):
            raise ConfigurationError(
                f"{self.name}: offered cells must come one per ingress port "
                f"of {self.n}, in port order; got src {src.tolist()}"
            )
        if dst.min() < 0 or dst.max() >= self.n:
            raise ConfigurationError(
                f"{self.name}: bad destination in {dst.tolist()}"
            )


class ConcentratorFabric(FabricStage):
    """An uplink stage guarded by one of the paper's concentrators.

    Cells contend for the switch's m output channels; winners exit the
    fabric (descent is modelled lossless, as in the fat-tree).  Routing
    uses :meth:`~repro.switches.base.ConcentratorSwitch.setup_batch`
    with one row per cycle so the compiled plan and the engine backend
    are exercised exactly as the benchmarks exercise them.
    """

    def __init__(self, switch: ConcentratorSwitch, *, scenario=None,
                 remap_outputs: bool = False):
        self.name = "concentrator"
        self.n = switch.n
        self.switch = switch
        self._flaky = None
        if scenario is not None:
            # Imported lazily: repro.faults imports network modules for
            # its resilience measurements.
            from repro.faults.injector import inject_scenario

            self.switch, self._flaky = inject_scenario(
                switch, scenario, remap_outputs=remap_outputs
            )

    def describe(self) -> dict:
        out = super().describe()
        out["m"] = self.switch.m
        out["switch"] = type(self.switch).__name__
        return out

    def step(self, src, dst, flow) -> StageOutcome:
        self._check(src, dst, flow)
        valid = np.zeros(self.n, dtype=bool)
        valid[src] = True
        effective, garbled = valid, None
        if self._flaky is not None:
            # One draw per flaky pin per cycle, exactly as in the
            # round-synchronous simulator (FlakyPins.flip).
            effective, garbled = self._flaky.flip(valid)
        io = self.switch.setup_batch(effective[None, :]).input_to_output[0]
        fate = np.where(io[src] >= 0, DELIVERED, REJECTED).astype(np.int8)
        faulted = 0
        if garbled is not None:
            hit = np.isin(src, garbled)
            fate[hit] = REJECTED
            faulted = int(np.count_nonzero(hit))
        return StageOutcome(fate, faulted=faulted)


class KnockoutFabric(FabricStage):
    """A knockout-style output-buffered stage.

    Per cycle, the cells bound for egress ``o`` contend through an
    n-to-L concentrator (L = ``lanes``, the knockout ratio); winners
    enter egress ``o``'s FIFO of depth ``fifo_depth`` in port order,
    losers and FIFO overflow are rejected.  Every non-empty FIFO then
    transmits one cell — those are the cycle's deliveries, so a cell's
    fabric latency is its queueing delay.  The FIFOs are one ring
    buffer of flow ids per egress.
    """

    def __init__(self, n: int, *, lanes: int = 4, fifo_depth: int = 16,
                 concentrator_factory=None):
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if lanes < 1:
            raise ConfigurationError(f"lanes must be >= 1, got {lanes}")
        if fifo_depth < 1:
            raise ConfigurationError(f"fifo_depth must be >= 1, got {fifo_depth}")
        self.name = "knockout"
        self.n = n
        self.lanes = min(lanes, n)
        self.fifo_depth = fifo_depth
        factory = concentrator_factory or PerfectConcentrator
        self._picker = factory(n, self.lanes) if self.lanes < n else None
        self._ring = np.zeros((n, fifo_depth), dtype=np.int64)
        self._head = np.zeros(n, dtype=np.int64)
        self._held = np.zeros(n, dtype=np.int64)

    def describe(self) -> dict:
        out = super().describe()
        out["lanes"] = self.lanes
        out["fifo_depth"] = self.fifo_depth
        return out

    def in_flight(self) -> int:
        return int(self._held.sum())

    def step(self, src, dst, flow) -> StageOutcome:
        self._check(src, dst, flow)
        fate = np.full(len(src), ABSORBED, dtype=np.int8)
        contenders = np.bincount(dst, minlength=self.n)
        if self._picker is not None and contenders.max(initial=0) > self.lanes:
            # Every over-subscribed egress is one row of a single
            # picker call.
            hot = contenders > self.lanes
            rows = np.cumsum(hot) - 1
            cells = np.flatnonzero(hot[dst])
            row, port = rows[dst[cells]], src[cells]
            valid = np.zeros((int(hot.sum()), self.n), dtype=bool)
            valid[row, port] = True
            io = self._picker.setup_batch(valid).input_to_output
            fate[cells[io[row, port] < 0]] = REJECTED
        # Winners enter their egress FIFO in port order while it has room.
        win = np.flatnonzero(fate == ABSORBED)
        win = win[np.argsort(dst[win], kind="stable")]
        egress = dst[win]
        first = np.searchsorted(egress, egress)
        rank = np.arange(len(win)) - first
        fits = rank < self.fifo_depth - self._held[egress]
        fate[win[~fits]] = REJECTED
        win, egress, rank = win[fits], egress[fits], rank[fits]
        slot = (self._head[egress] + self._held[egress] + rank) % self.fifo_depth
        self._ring[egress, slot] = flow[win]
        was_empty = self._held == 0
        self._held += np.bincount(egress, minlength=self.n)
        # Drain: every non-empty FIFO transmits its head.  A FIFO that
        # was empty before admission transmits this cycle's first
        # winner, which is then delivered rather than absorbed.
        busy = np.flatnonzero(self._held)
        sent = self._ring[busy, self._head[busy]]
        self._head[busy] = (self._head[busy] + 1) % self.fifo_depth
        self._held[busy] -= 1
        fate[win[(rank == 0) & was_empty[egress]]] = DELIVERED
        # The occupancy curve is the knockout story (winners queue,
        # losers knock out) — one sample per fabric cycle.
        reg = obs.get_registry()
        if reg.enabled:
            reg.series("flows.fifo_depth", fabric=self.name).append(
                self.in_flight()
            )
        return StageOutcome(fate, surfaced=sent[~was_empty[busy]])


class FatTreeFabric(FabricStage):
    """The binary fat-tree up-path as a fabric stage.

    Each cycle is one fat-tree round: ascent hops concentrate, losers
    are rejected, survivors are delivered (descent lossless), via
    :meth:`~repro.network.fattree.FatTree.route_arrays`.
    """

    def __init__(self, n: int, *, capacity_profile=None,
                 concentrator_factory=None):
        if n < 2 or n & (n - 1):
            raise ConfigurationError(
                f"fat-tree fabric needs a power-of-two port count, got {n}"
            )
        self.name = "fattree"
        self.n = n
        height = n.bit_length() - 1
        self.tree = FatTree(
            height,
            capacity_profile or universal_capacity(height),
            concentrator_factory,
        )

    def describe(self) -> dict:
        out = super().describe()
        out["height"] = self.tree.height
        out["capacity"] = dict(self.tree.capacity)
        return out

    def step(self, src, dst, flow) -> StageOutcome:
        self._check(src, dst, flow)
        _, alive = self.tree.route_arrays(src, dst)
        return StageOutcome(np.where(alive, DELIVERED, REJECTED).astype(np.int8))


class RotorFabric(FabricStage):
    """A rotor/optical round-robin partition baseline.

    Slot s wires port i to destination ``(i + 1 + s) mod n`` (the +1
    skips the useless self-slot), one fixed matching per slot as in
    rotor-switch schedules; slot s lasts ``slot_cycles`` cycles, and the
    n−1 slots repeat.  A cell whose destination is wired delivers; every
    other cell is blocked — it waits, loss-free, for its slot.  This is
    the one-hop rotor model: full fairness, zero loss, worst-case n−1
    slots of latency.
    """

    def __init__(self, n: int, *, slot_cycles: int = 1):
        if n < 2:
            raise ConfigurationError(f"rotor fabric needs n >= 2, got {n}")
        if slot_cycles < 1:
            raise ConfigurationError(
                f"slot_cycles must be >= 1, got {slot_cycles}"
            )
        self.name = "rotor"
        self.n = n
        self.slot_cycles = slot_cycles
        self._cycle = 0
        # Slot s's matching is the window [s + 1, s + 1 + n) of this
        # doubled port ring: switching slots is a slice, not a rebuild.
        self._ring = np.arange(2 * n) % n

    def describe(self) -> dict:
        out = super().describe()
        out["slot_cycles"] = self.slot_cycles
        return out

    def matching(self) -> np.ndarray:
        """The current slot's matching: port i is wired to ``out[i]``."""
        shift = 1 + (self._cycle // self.slot_cycles) % (self.n - 1)
        return self._ring[shift:shift + self.n]

    def admits(self, src, dst):
        # A cell's own port (dst == src) never needs the fabric.
        return (dst == self.matching()[src]) | (dst == src)

    def step(self, src, dst, flow) -> StageOutcome:
        self._check(src, dst, flow)
        fate = np.where(self.admits(src, dst), DELIVERED, BLOCKED)
        self._cycle += 1
        return StageOutcome(fate.astype(np.int8))


def fabric_names() -> list[str]:
    return ["concentrator", "fattree", "knockout", "rotor"]


def build_fabric(
    name: str,
    n: int,
    *,
    design: str = "revsort",
    m: int | None = None,
    scenario=None,
    remap_outputs: bool = False,
    lanes: int = 4,
    fifo_depth: int = 16,
    slot_cycles: int = 1,
    **params,
) -> FabricStage:
    """Build a fabric stage by name.

    ``design``/``m``/``params`` configure the concentrator stage's
    registry switch (m defaults to 3n/4, the registry's usual shape);
    ``lanes``/``fifo_depth`` configure the knockout stage;
    ``slot_cycles`` the rotor's matching hold time; ``scenario``
    applies a fault scenario to the concentrator stage.
    """
    if name == "concentrator":
        m = m if m is not None else max(1, (3 * n) // 4)
        switch = build_switch(design, n=n, m=m, **params)
        return ConcentratorFabric(
            switch, scenario=scenario, remap_outputs=remap_outputs
        )
    if name == "knockout":
        return KnockoutFabric(n, lanes=lanes, fifo_depth=fifo_depth)
    if name == "fattree":
        return FatTreeFabric(n)
    if name == "rotor":
        return RotorFabric(n, slot_cycles=slot_cycles)
    raise ConfigurationError(
        f"unknown fabric {name!r}; available: {', '.join(fabric_names())}"
    )
