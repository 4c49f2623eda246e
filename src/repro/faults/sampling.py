"""Reliability-driven fault sampling: MTBF numbers → concrete faults.

:mod:`repro.hardware.reliability` prices each part's field failure
rate — chips by ``chip_base · area^area_exponent`` and every bonded
pin/wire joint at ``pin_rate``.  This module turns those rates into a
weighted site list over a concrete switch and samples
:class:`~repro.faults.scenario.FaultScenario` objects from it, so a
fault campaign visits hardware in proportion to how often it actually
breaks.

Class presets
-------------
``"boundary"``
    Faults *after* all routing decisions: dead output pads, dead
    last-stage chips, severed wires at the last stage boundary.
    Killing at the boundary never re-ranks surviving messages, so the
    per-trial routed count is provably non-increasing as a boundary
    chain grows — these are the chains the degradation sweeps certify
    as monotone.
``"structural"``
    All kill-type faults anywhere: dead chips and severed wires at any
    stage, plus dead outputs.  An interior kill shifts the chip-local
    ranks of the messages behind it, and the following fixed wiring
    scatters that shift across different downstream chips — so
    monotone α is *not* guaranteed (only the parity of the three
    execution paths is), see ``docs/robustness.md``.
``"all"``
    Structural plus stuck-at-0/1 input pins.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import FaultInjectionError
from repro.hardware.chip import HyperconcentratorChip
from repro.hardware.reliability import ReliabilityModel

from repro.faults.scenario import (
    DeadChipFault,
    DeadOutputFault,
    FaultScenario,
    FlakyPinFault,
    SeveredWireFault,
    StuckAtFault,
    chip_layers,
    plan_of,
)

CLASS_PRESETS = {
    "boundary": (frozenset({"dead_chip", "severed_wire", "dead_output"}), True),
    "structural": (
        frozenset({"dead_chip", "severed_wire", "dead_output"}),
        False,
    ),
    "all": (
        frozenset(
            {"dead_chip", "severed_wire", "dead_output", "stuck0", "stuck1"}
        ),
        False,
    ),
}


def _resolve_classes(classes) -> tuple[frozenset, bool]:
    """(fault kinds, boundary_only) from a preset name or an iterable
    of kind names."""
    if isinstance(classes, str):
        try:
            return CLASS_PRESETS[classes]
        except KeyError:
            raise FaultInjectionError(
                f"unknown fault class preset {classes!r}; "
                f"choose from {sorted(CLASS_PRESETS)}"
            ) from None
    return frozenset(classes), False


def _site_table(
    switch, model: ReliabilityModel | None, classes
) -> list[tuple[int, float, object]]:
    """The fault sites of ``switch`` as segments ``(count, weight,
    fault_of)`` in :func:`fault_sites` order; ``fault_of(i)`` builds
    the segment's ``i``-th fault, so a draw builds only what it picks."""
    model = model if model is not None else ReliabilityModel()
    kinds, boundary_only = _resolve_classes(classes)
    plan = plan_of(switch)
    layers = chip_layers(plan) if plan is not None else []
    last = len(layers) - 1
    segments: list[tuple[int, float, object]] = []
    for stage, op in enumerate(layers):
        if boundary_only and stage != last:
            continue
        chip = HyperconcentratorChip(op.chip_width)
        if "dead_chip" in kinds:
            segments.append((
                op.n_chips,
                model.chip_rate(chip.area, chip.pins),
                partial(DeadChipFault, stage),
            ))
        if "severed_wire" in kinds:
            segments.append((
                op.flat32.size,
                model.pin_rate,
                lambda i, s=stage, f=op.flat32: SeveredWireFault(s, int(f[i])),
            ))
    if "dead_output" in kinds:
        segments.append((switch.m, model.pin_rate, DeadOutputFault))
    if "stuck0" in kinds:
        segments.append((switch.n, model.pin_rate, lambda i: StuckAtFault(i, 0)))
    if "stuck1" in kinds:
        segments.append((switch.n, model.pin_rate, lambda i: StuckAtFault(i, 1)))
    if not sum(count for count, _, _ in segments):
        raise FaultInjectionError(
            f"no fault sites on {type(switch).__name__} for classes {classes!r}"
        )
    return segments


def fault_sites(
    switch, model: ReliabilityModel | None = None, *, classes="structural"
) -> list[tuple[float, object]]:
    """Every injectable fault site of ``switch`` with its failure rate.

    Returns ``(weight, fault)`` pairs; weights follow the reliability
    model (chip sites by :meth:`ReliabilityModel.chip_rate`, wire/pad
    sites by ``pin_rate``).
    """
    return [
        (weight, fault_of(i))
        for count, weight, fault_of in _site_table(switch, model, classes)
        for i in range(count)
    ]


def _weighted_draws(
    segments: list[tuple[int, float, object]],
    count: int,
    rng: np.random.Generator,
) -> list[object]:
    """``count`` distinct sites, each drawn with probability proportional
    to its failure rate (without replacement)."""
    weights = np.concatenate(
        [np.full(n, w, dtype=float) for n, w, _ in segments]
    )
    ids = np.arange(weights.size)
    starts = np.cumsum([0] + [n for n, _, _ in segments])
    picked: list[object] = []
    for _ in range(min(count, weights.size)):
        index = int(rng.choice(weights.size, p=weights / weights.sum()))
        site = int(ids[index])
        seg = int(np.searchsorted(starts, site, side="right")) - 1
        picked.append(segments[seg][2](site - int(starts[seg])))
        weights = np.delete(weights, index)
        ids = np.delete(ids, index)
    return picked


def sample_scenario(
    switch,
    model: ReliabilityModel | None = None,
    *,
    faults: int,
    rng: np.random.Generator,
    classes="structural",
    name: str = "sampled",
    seed: int = 0,
) -> FaultScenario:
    """One scenario of ``faults`` distinct reliability-weighted faults."""
    sites = _site_table(switch, model, classes)
    return FaultScenario(
        name=name, faults=tuple(_weighted_draws(sites, faults, rng)), seed=seed
    )


def sample_chain(
    switch,
    model: ReliabilityModel | None = None,
    *,
    length: int,
    rng: np.random.Generator,
    classes="boundary",
    name: str = "chain",
    seed: int = 0,
) -> list[FaultScenario]:
    """A nested scenario chain: ``length`` scenarios where scenario
    ``i`` holds the first ``i+1`` of one draw of distinct faults — the
    shape the degradation sweeps measure α against fault count on."""
    sites = _site_table(switch, model, classes)
    draws = _weighted_draws(sites, length, rng)
    return [
        FaultScenario(
            name=f"{name}-f{i + 1}", faults=tuple(draws[: i + 1]), seed=seed
        )
        for i in range(len(draws))
    ]


def sample_flaky_scenario(
    switch,
    *,
    pins: int,
    rng: np.random.Generator,
    p_range: tuple[float, float] = (0.05, 0.3),
    name: str = "flaky",
    seed: int = 0,
) -> FaultScenario:
    """``pins`` distinct flaky input pins with flip probabilities drawn
    uniformly from ``p_range`` (the resilient-routing test scenarios)."""
    count = min(pins, switch.n)
    positions = rng.choice(switch.n, size=count, replace=False)
    lo, hi = p_range
    faults = tuple(
        FlakyPinFault(int(pos), float(lo + (hi - lo) * rng.random()))
        for pos in positions
    )
    return FaultScenario(name=name, faults=faults, seed=seed)
