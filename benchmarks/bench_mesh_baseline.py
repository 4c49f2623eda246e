"""Experiment MB — the mesh baseline the switches collapse.

Revsort/Columnsort were stated for meshes of PEs doing neighbour
compare-exchanges; the paper's switches replace each Θ(√n)-step full
sort with a single Θ(lg n)-delay chip pass.  This bench executes
Algorithm 1 both ways on identical inputs — neighbour-only mesh
machine vs the multichip switch — confirming bit-identical results and
quantifying the asymptotic gap the switches buy.
"""

from __future__ import annotations

import numpy as np

from repro._util.rng import default_rng
from repro.analysis.asymptotics import fit_exponent
from repro.analysis.tables import render_table
from repro.mesh.machine import MeshMachine, mesh_vs_switch_comparison
from repro.mesh.revsort import revsort_nearsort


def test_mb_bit_identical_results(benchmark, report):
    def run():
        rng = default_rng(91)
        mismatches = 0
        for side in (4, 8, 16):
            machine = MeshMachine(side)
            for _ in range(25):
                m = (rng.random((side, side)) < rng.random()).astype(np.int8)
                if not np.array_equal(
                    machine.algorithm1(m).matrix, revsort_nearsort(m)
                ):
                    mismatches += 1
        return mismatches

    mismatches = benchmark(run)
    report(
        "Mesh baseline — neighbour-only execution is bit-identical",
        f"mismatches over 75 inputs at side ∈ {{4, 8, 16}}: {mismatches} "
        "(the switch computes exactly the mesh algorithm's function)",
    )
    assert mismatches == 0


def test_mb_steps_vs_delays(benchmark, report):
    def run():
        return [mesh_vs_switch_comparison(side) for side in (8, 16, 32, 64, 128)]

    rows = benchmark(run)
    printable = [
        {k: v for k, v in row.items() if not k.startswith("_")} for row in rows
    ]
    report(
        "Mesh baseline — Θ(√n) steps vs Θ(lg n) switch delays",
        render_table(printable)
        + "\nThe multichip switch collapses each mesh-sort into one "
        "chip pass; the speedup grows as √n / lg n.",
    )
    ns = [row["n"] for row in rows]
    steps = [row["mesh steps (compare-exchange)"] for row in rows]
    exponent = fit_exponent(ns, steps)
    assert abs(exponent - 0.5) < 0.02  # Θ(√n) confirmed
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 3 * speedups[0]  # gap widens as √n / lg n
