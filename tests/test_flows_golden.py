"""Golden snapshots for the ``repro flows`` CLI.

The ``--format json`` documents and the rendered FCT report are pinned
under ``tests/golden/`` — any schema or behavioural drift (workload
generation, fabric semantics, percentile math, float rounding) trips
these tests.  Regenerate with the exact commands recorded on each
class if the change is intentional.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.cli import main
from repro.network.flows import fabric_names

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name: str) -> dict | list:
    return json.loads((GOLDEN_DIR / name).read_text())


class TestFlowsRunJson:
    # PYTHONPATH=src python -m repro flows run --fabric concentrator \
    #   --n 16 --duration 40 --seed 0 --format json
    ARGS = [
        "flows", "run", "--fabric", "concentrator", "--n", "16",
        "--duration", "40", "--seed", "0", "--format", "json",
    ]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "flows_run_concentrator.json"
        )

    def test_stdout_schema(self, capsys):
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.cli/flows-run@1"
        result = doc["result"]
        assert result["fabric"] == "concentrator"
        assert result["completed"] <= result["flows"]
        assert {"p50", "p90", "p99", "p99.9"} <= set(result)
        assert result["delivered_cells"] + result["dropped_cells"] <= (
            result["offered_cells"]
        )

    def test_bad_fabric_param_exits_2(self, capsys):
        args = [
            "flows", "run", "--fabric", "knockout", "--n", "16",
            "--lanes", "0",
        ]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err


class TestFlowsCompareJson:
    # PYTHONPATH=src python -m repro flows compare --n 16 --duration 30 \
    #   --seed 0 --format json
    ARGS = [
        "flows", "compare", "--n", "16", "--duration", "30",
        "--seed", "0", "--format", "json",
    ]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "flows_compare_n16.json"
        )

    def test_all_fabrics_on_the_same_workload(self, capsys):
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.cli/flows-compare@1"
        assert sorted(doc["fabrics"]) == fabric_names()
        flow_counts = {f["flows"] for f in doc["fabrics"].values()}
        assert flow_counts == {doc["flows"]}
        assert doc["total_events"] == sum(
            f["events"] for f in doc["fabrics"].values()
        )

    def test_percentiles_are_json_safe(self, capsys):
        # _json_safe turns NaN into null and rounds floats, so the
        # document must survive a strict JSON parse.
        assert main(self.ARGS) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject)
        for fabric in doc["fabrics"].values():
            for key in ("p50", "p90", "p99", "p99.9"):
                assert fabric[key] is None or math.isfinite(fabric[key])


class TestFlowsCompareN64:
    """n=64 head-to-heads, where several flows often share an ingress
    port, so the port round-robin and the knockout FIFOs shape every
    fabric's numbers."""

    # PYTHONPATH=src python -m repro flows compare --n 64 --duration 120 \
    #   --seed 0 --format json
    ARGS = [
        "flows", "compare", "--n", "64", "--duration", "120",
        "--seed", "0", "--format", "json",
    ]
    # ... the same run with --no-backpressure --sizes datamining
    OPEN_LOOP = ARGS + ["--no-backpressure", "--sizes", "datamining"]

    def test_matches_golden_snapshot(self, capsys):
        assert main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "flows_compare_n64.json"
        )

    def test_open_loop_datamining_matches_golden_snapshot(self, capsys):
        assert main(self.OPEN_LOOP) == 0
        assert json.loads(capsys.readouterr().out) == _golden(
            "flows_compare_n64_datamining_nobp.json"
        )


class TestFlowsCompareReport:
    # PYTHONPATH=src python -m repro flows compare --n 16 --duration 30 \
    #   --seed 0
    ARGS = ["flows", "compare", "--n", "16", "--duration", "30", "--seed", "0"]

    def test_fct_report_matches_golden_text(self, capsys):
        assert main(self.ARGS) == 0
        expected = (GOLDEN_DIR / "flows_compare_n16.txt").read_text()
        assert capsys.readouterr().out == expected


def _reject(token: str):
    raise AssertionError(f"non-strict JSON constant leaked: {token}")
