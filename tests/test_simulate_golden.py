"""Golden snapshots for the round-synchronous simulator.

``tests/golden/simulate_rounds.json`` pins the per-round
:class:`~repro.network.simulate.RoundResult` lists of
:class:`~repro.network.simulate.SwitchSimulation` over every traffic
generator × congestion policy × payload width × fault setting, and
``tests/golden/faults_sweep_n4096_seed0.json`` pins the paper-scale
``repro faults sweep --seed 0 --format json`` document byte for byte,
and ``tests/golden/faults_sweep_smoke_seed0.json`` the ``--smoke`` one
(small geometries, gate-netlist forces at n=16).
Any drift in traffic draws, backlog placement, flaky-pin flips or the
order unrouted messages reach a policy trips these tests.  Regenerate
(only if the change is intentional) with::

    PYTHONPATH=src python -m tests.test_simulate_golden
    PYTHONPATH=src python -m repro faults sweep --seed 0 --format json \\
        > tests/golden/faults_sweep_n4096_seed0.json
    PYTHONPATH=src python -m repro faults sweep --smoke --seed 0 \\
        --format json > tests/golden/faults_sweep_smoke_seed0.json
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.faults.scenario import (
    DeadOutputFault,
    FaultScenario,
    FlakyPinFault,
    SeveredWireFault,
    StuckAtFault,
)
from repro.messages.congestion import (
    BufferPolicy,
    DropPolicy,
    ResendPolicy,
    RetryPolicy,
)
from repro.network.simulate import RoundResult, SwitchSimulation
from repro.network.traffic import BernoulliTraffic, FixedKTraffic, HotSpotTraffic
from repro.switches.revsort_switch import RevsortSwitch

GOLDEN_DIR = Path(__file__).parent / "golden"
ROUNDS_GOLDEN = GOLDEN_DIR / "simulate_rounds.json"
SWEEP_GOLDEN = GOLDEN_DIR / "faults_sweep_n4096_seed0.json"
SMOKE_GOLDEN = GOLDEN_DIR / "faults_sweep_smoke_seed0.json"

N, M, ROUNDS = 64, 48, 30
FIELDS = [f.name for f in dataclasses.fields(RoundResult)]

TRAFFIC = {
    "bernoulli": lambda bits: BernoulliTraffic(N, 0.8, payload_bits=bits, seed=3),
    "fixedk": lambda bits: FixedKTraffic(N, 44, payload_bits=bits, seed=4),
    "hotspot": lambda bits: HotSpotTraffic(
        N, hot_fraction=0.5, p_hot=0.95, p_cold=0.3, payload_bits=bits, seed=5
    ),
}
POLICIES = {
    "drop": DropPolicy,
    "buffer": lambda: BufferPolicy(capacity=24),
    "resend": lambda: ResendPolicy(ack_timeout=2, max_retries=3),
    "retry": lambda: RetryPolicy(max_retries=3, jitter=2, ttl=10, seed=6),
}
SCENARIOS = {
    "healthy": None,
    "faulty": FaultScenario(
        name="golden",
        faults=(
            FlakyPinFault(3, 0.5),
            StuckAtFault(9, 1),
            FlakyPinFault(17, 0.3),
            SeveredWireFault(0, 20),
            DeadOutputFault(5),
            FlakyPinFault(40, 0.9),
        ),
        seed=7,
    ),
}


def simulate_case(traffic: str, policy: str, bits: int, scenario: str) -> list:
    """Per-round results of one matrix cell, as lists in FIELDS order."""
    sim = SwitchSimulation(
        RevsortSwitch(N, M),
        TRAFFIC[traffic](bits),
        POLICIES[policy](),
        seed=11,
        scenario=SCENARIOS[scenario],
        remap_outputs=SCENARIOS[scenario] is not None,
    )
    summary = sim.run(ROUNDS)
    return [list(dataclasses.astuple(r)) for r in summary.per_round]


CASES = [
    (traffic, policy, bits, scenario)
    for traffic in TRAFFIC
    for policy in POLICIES
    for bits in (0, 8)
    for scenario in SCENARIOS
]


def case_key(traffic: str, policy: str, bits: int, scenario: str) -> str:
    return f"{traffic}-{policy}-b{bits}-{scenario}"


def build_golden() -> dict:
    return {
        "fields": FIELDS,
        "cases": {case_key(*case): simulate_case(*case) for case in CASES},
    }


@pytest.fixture(scope="module")
def rounds_golden() -> dict:
    return json.loads(ROUNDS_GOLDEN.read_text())


def test_rounds_golden_covers_matrix(rounds_golden):
    assert rounds_golden["fields"] == FIELDS
    assert sorted(rounds_golden["cases"]) == sorted(case_key(*c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_key(*c) for c in CASES])
def test_round_results_match_golden(case, rounds_golden):
    assert simulate_case(*case) == rounds_golden["cases"][case_key(*case)]


def test_faults_sweep_matches_golden(capsys):
    assert main(["faults", "sweep", "--seed", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out == SWEEP_GOLDEN.read_text()


def test_smoke_faults_sweep_matches_golden(capsys):
    argv = ["faults", "sweep", "--smoke", "--seed", "0", "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == SMOKE_GOLDEN.read_text()


if __name__ == "__main__":
    with ROUNDS_GOLDEN.open("w") as fh:
        doc = build_golden()
        fh.write('{\n"fields": %s,\n"cases": {\n' % json.dumps(doc["fields"]))
        fh.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(rows)}"
            for key, rows in doc["cases"].items()
        ))
        fh.write("\n}\n}\n")
    print(f"wrote {ROUNDS_GOLDEN} ({len(CASES)} cases x {ROUNDS} rounds)")
