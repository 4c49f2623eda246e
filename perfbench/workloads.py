"""The benchmark's three workloads: the commands people run.

Each workload is a class with

* ``setup()`` — the per-process preparation a user pays on every
  invocation (switch builds, plan compilation, netlist elaboration,
  flow generation, pool spin-up).  It starts cold each time, so the
  benchmark can repeat it and report a median;
* ``run()`` — one pass of the command, returning its outputs;
* ``check(output)`` — the output checks: one entry per operation (a
  certify config, a fabric run, a degradation certificate), each the
  list of problems found with it (empty when the operation is good);
* ``ops`` — the number of operations a pass runs, all counted as failed
  when the pass raises;
* ``workers`` — the size of the worker pool the passes run on (0: none).

The program only ever receives inputs generated from ``--seed``: the
flow list and fault campaign are seeded with it, and the certify run's
metamorphic permutations with ``CertifyOptions().seed + seed``.  Seed 0
is every command's default seed.  ``golden.json`` holds outputs taken
at the commit that added the benchmark: the certify run's exhaustive-tier
epsilons, which no seed changes, are compared with it at every seed; the
flows summaries and the degradation certificates' sha256 at seed 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import layers

GOLDEN = Path(__file__).with_name("golden.json")


def _golden(workload: str):
    return json.loads(GOLDEN.read_text()).get(workload) if GOLDEN.exists() else None


def _cold_caches() -> None:
    """Forget compiled plans and gate netlists, as a fresh process has."""
    from repro.engine.plan import PLAN_CACHE
    from repro.verify import differential

    PLAN_CACHE.clear()
    # Not reachable through PLAN_CACHE.clear(); a fresh `repro certify`
    # elaborates every netlist again, so setup must too.
    differential._NETLIST_CACHE.clear()


def _compile(switch) -> None:
    """Build the switch's compiled plan (lazy in the program)."""
    switch.setup_batch(np.zeros((1, switch.n), dtype=bool))


def _own_peak_kb() -> tuple[int, int]:
    """Run in a pool worker: its pid and peak RSS.  The short sleep keeps
    the worker busy so that the next probe goes to another worker."""
    time.sleep(0.05)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def worker_peaks_kb(workers: int) -> list[int]:
    """Peak RSS of each live worker of the ``workers``-process pool the
    passes ran on (certify's chunk checks run there, not in this
    process)."""
    if not workers:
        return []
    from repro.engine.backends.pool import shared_pool

    executor = shared_pool(workers).executor
    peaks: dict[int, int] = {}
    for _ in range(10):
        futures = [executor.submit(_own_peak_kb) for _ in range(workers)]
        peaks.update(future.result() for future in futures)
        if len(peaks) >= workers:
            break
    return list(peaks.values())


class CertifyRegistry:
    """``repro certify`` over the registry: every design at its declared
    configs (10 configs, 552,838 patterns), exhaustive up to n=16 and
    stratified at n=64, fanned over a 2-process supervised pool.

    Chosen because it is the only workload where ``repro.verify`` and
    the supervised pool (``repro.engine.backends``) do most of the work.
    It also loads the engine with many-row chunks at n <= 64, the scalar
    oracle (``switches.scalar_oracle``) and the gate-level evaluator
    (``repro.gates``).  It bypasses ``repro.network`` and
    ``repro.faults`` entirely.
    """

    name = "certify-registry"
    workers = 2

    def __init__(self, seed: int, size: str) -> None:
        from repro.switches.registry import certify_configs
        from repro.verify.exhaustive import CertifyOptions, quick_options

        base = CertifyOptions() if size == "full" else quick_options()
        self.options = replace(base, seed=base.seed + seed)
        self.designs = None if size == "full" else ["revsort", "columnsort"]
        self.full = size == "full"
        self.ops = 10 if self.full else len(certify_configs(self.designs))

    def setup(self) -> None:
        from repro.engine.backends.pool import shared_pool, shutdown_pools
        from repro.switches.registry import build_switch, certify_configs
        from repro.verify.differential import netlist_for

        shutdown_pools()
        _cold_caches()
        for name, params in certify_configs(self.designs):
            switch = build_switch(name, **params)
            _compile(switch)
            netlist_for(switch)
        # Fork the workers now, after the plans and netlists exist, so
        # they inherit them (and the layer wrappers) like the CLI's pool.
        executor = shared_pool(self.workers).executor
        for future in [executor.submit(os.getpid) for _ in range(self.workers)]:
            future.result()

    def run(self):
        from repro.verify.exhaustive import certify_registry

        return certify_registry(
            designs=self.designs, options=self.options, workers=self.workers
        )

    def check(self, certs) -> list[list[str]]:
        golden = _golden(self.name) if self.full else None
        problems = []
        for cert in certs:
            label = f"{cert.design}-n{cert.n}-m{cert.m}"
            bad = []
            if not cert.ok or cert.violations:
                bad.append(f"{label}: {len(cert.violations)} violations")
            if cert.epsilon_bound is not None and (
                cert.worst_epsilon is None or cert.worst_epsilon > cert.epsilon_bound
            ):
                bad.append(f"{label}: epsilon {cert.worst_epsilon} > {cert.epsilon_bound}")
            want = (golden or {}).get("exhaustive_epsilon", {}).get(label)
            if want is not None and cert.worst_epsilon != want:
                bad.append(f"{label}: epsilon {cert.worst_epsilon} != golden {want}")
            problems.append(bad)
        problems += [["missing certificate"]] * (self.ops - len(problems))
        return problems


class FlowsN256:
    """``repro flows compare`` at n=256, load 0.7, websearch sizes, 300
    cycles of arrivals, all four fabrics in one process (219,460 events
    at seed 0).

    Chosen because it is the only workload for the
    ``repro.network.flows`` event loop, where rotor and fat-tree spend
    most of the time.  Its concentrator fabric calls the engine with one
    row per cycle, so per-call overhead dominates there, unlike the
    many-row calls of the other two workloads.  It uses no worker pool.
    Rotor stops at the cycle cap with flows unfinished: a modelled
    result, checked as output, not a failure.
    """

    name = "flows-n256"
    workers = 0

    def __init__(self, seed: int, size: str) -> None:
        from repro.network.flows import WorkloadSpec, fabric_names

        n, duration = (256, 300) if size == "full" else (16, 40)
        self.spec = WorkloadSpec(
            n=n, load=0.7, duration=duration, sizes="websearch", seed=seed
        )
        self.full = size == "full"
        self.seed = seed
        self.ops = len(fabric_names())
        self.flows = None

    def setup(self) -> None:
        from repro.network.flows import build_fabric, fabric_names, generate_flows

        _cold_caches()
        self.flows = generate_flows(self.spec)
        for name in fabric_names():
            stage = build_fabric(name, self.spec.n)
            if name == "concentrator":
                _compile(stage.switch)

    def run(self):
        from repro.network.flows import head_to_head

        layers.FLOW_SIMS.clear()
        report = head_to_head(self.spec, workers=1)
        return report, list(layers.FLOW_SIMS)

    def check(self, output) -> list[list[str]]:
        from repro.network.flows import fabric_names

        report, sims = output
        golden = _golden(self.name) if self.full and self.seed == 0 else None
        problems = []
        for name in fabric_names():
            sim = next((s for s in sims if s.stage.name == name), None)
            result = report.results.get(name)
            if sim is None or result is None:
                problems.append([f"{name}: no result"])
                continue
            bad = []
            if sim.flows != self.flows:
                bad.append(f"{name}: simulated a different flow list")
            books = sim.accounting()
            held = books["delivered"] + books["dropped"] + books["in_fabric"]
            if books["arrived"] != held + books["at_source"]:
                bad.append(f"{name}: cell accounting off: {books}")
            if books["delivered"] != result.delivered_cells:
                bad.append(f"{name}: delivered {result.delivered_cells} != {books}")
            if result.completed < result.flows and not books["at_source"] + books["in_fabric"]:
                bad.append(f"{name}: drained but {result.completed}/{result.flows} complete")
            if golden is not None and self._summary(result) != golden.get(name):
                bad.append(f"{name}: {self._summary(result)} != golden {golden.get(name)}")
            problems.append(bad)
        return problems

    @staticmethod
    def _summary(result) -> dict:
        pct = result.fct_percentiles((50.0, 99.0, 99.9))
        return {
            "events": result.events, "cycles": result.cycles,
            "completed": result.completed, "loss_rate": result.loss_rate,
            "fct_p50": pct["p50"], "fct_p99": pct["p99"], "fct_p99.9": pct["p99.9"],
        }



class FaultsN4096:
    """``repro faults sweep`` at its defaults: revsort n=4096 m=3072 and
    columnsort beta=2/3 n=4096 m=3072; 2 chains of 4, 3 parity scenarios
    of 2 faults, 2 flaky scenarios, 32 trials, 40 rounds.

    Chosen because it is the only workload for ``repro.faults``, for the
    round-synchronous simulator with its traffic and message layers
    (``network.simulate``/``network.traffic``, most of its time) and for
    the engine's fault-masked plan walk at n=4096 (full-width rows).  It
    bypasses the worker pool, ``repro.verify`` and the flows loop.
    """

    name = "faults-n4096"
    workers = 0

    def __init__(self, seed: int, size: str) -> None:
        self.full = size == "full"
        self.seed = seed
        self.params = dict(
            chains=2, chain_length=4, parity_scenarios=3, parity_faults=2,
            flaky_scenarios=2, trials=32 if self.full else 12,
            rounds=40 if self.full else 20,
        )
        self.ops = 2 * (self.params["chains"] + 1)
        self.targets = []

    def setup(self) -> None:
        from repro.switches.columnsort_switch import ColumnsortSwitch
        from repro.switches.revsort_switch import RevsortSwitch

        _cold_caches()
        if self.full:
            self.targets = [
                ("revsort-n4096-m3072", RevsortSwitch(4096, 3072)),
                ("columnsort-beta23-n4096-m3072",
                 ColumnsortSwitch.from_beta(4096, 2 / 3, 3072)),
            ]
        else:
            self.targets = [
                ("revsort-n64-m48", RevsortSwitch(64, 48)),
                ("revsort-n16-m12", RevsortSwitch(16, 12)),
            ]
        for _, switch in self.targets:
            _compile(switch)

    def run(self):
        from repro.faults import sweep_switch

        return [
            sweep_switch(switch, design=design, seed=self.seed, use_gates=True,
                         **self.params)
            for design, switch in self.targets
        ]

    def check(self, results) -> list[list[str]]:
        golden = _golden(self.name) if self.full and self.seed == 0 else None
        certs = [c for r in results for c in r.certificates]
        problems = [
            [] if cert.ok else [f"{cert.design} {cert.kind}: not ok"]
            for cert in certs
        ]
        if golden is not None:
            digests = [hashlib.sha256(c.to_json().encode()).hexdigest()
                       for c in certs]
            for i, (got, want) in enumerate(zip(digests, golden["sha256"])):
                if got != want:
                    problems[i].append(f"certificate {i} differs from golden")
        problems += [["missing certificate"]] * (self.ops - len(problems))
        return problems


WORKLOADS = {w.name: w for w in (CertifyRegistry, FlowsN256, FaultsN4096)}
