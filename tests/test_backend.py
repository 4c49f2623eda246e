"""The sharded trial stream's worker-count determinism, plan-cache warm
start, the ``--workers`` option, and cross-process certify parity."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import (
    StreamSpec,
    StreamSummary,
    plan_cache,
    resolve_workers,
    run_stream,
)
from repro.engine.backends import shard_valid, summarize_batch
from repro.errors import ConfigurationError
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.hyperconcentrator import Hyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch
from repro.verify import CertifyOptions, certify_design

#: Small budgets so certify-based tests run in seconds.
QUICK = CertifyOptions(
    max_total=1 << 10, max_per_k=32, chunk=64, scalar_rows=16,
    metamorphic_rows=8,
)


class TestStreamDeterminism:
    def test_summary_invariant_across_worker_counts(self):
        sw = RevsortSwitch(16, 12)
        spec = StreamSpec(trials=64, seed=9, shard_trials=16)
        ref = run_stream(sw, spec)
        assert ref.trials == 64 and ref.shards == 4
        for workers in (0, 1, 2, 4):
            got = run_stream(sw, spec, workers=resolve_workers(workers))
            assert got == ref, f"workers={workers}"

    @settings(max_examples=20, deadline=None)
    @given(
        trials=st.integers(min_value=0, max_value=48),
        shard_trials=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_shard_boundaries_partition_and_fold(self, trials, shard_trials, seed):
        """Any shard grid partitions [0, trials) exactly, and folding
        the per-shard summaries in any bracketing equals the
        :func:`run_stream` result — the property that makes the ε/α
        results independent of how shards land on workers."""
        sw = Hyperconcentrator(8)
        spec = StreamSpec(trials=trials, seed=seed, shard_trials=shard_trials)
        shards = spec.shards()
        assert [s for s, _ in shards] == list(range(0, trials, shard_trials))
        assert sum(stop - start for start, stop in shards) == trials
        children = np.random.SeedSequence(seed).spawn(max(1, len(shards)))
        pieces = []
        for index, (start, stop) in enumerate(shards):
            valid = shard_valid(sw.n, stop - start, children[index])
            batch = sw.setup_batch(valid)
            pieces.append(summarize_batch(sw, valid, batch.input_to_output))
        left = StreamSummary()
        for piece in pieces:
            left = left.fold(piece)
        right = StreamSummary()
        for piece in reversed(pieces):
            right = piece.fold(right)
        assert left == right  # fold order cannot matter
        assert left == run_stream(sw, spec)


class TestPlanCacheSnapshot:
    def test_snapshot_restore_roundtrip(self):
        cache = plan_cache()
        cache.clear()
        sw = ColumnsortSwitch(8, 2, 12)
        warm = np.zeros((2, sw.n), dtype=bool)
        warm[:, 0] = True
        sw.setup_batch(warm)
        assert cache.stats()["misses"] >= 1
        snap = cache.snapshot()
        assert set(snap) == cache.keys()
        # The payload is pure data: it must survive the pickle boundary
        # the worker protocol ships it over.
        snap = pickle.loads(pickle.dumps(snap))

        cache.clear()
        assert cache.stats()["restored"] == 0
        assert cache.restore(snap) == len(snap)
        assert cache.stats()["restored"] == len(snap)
        # Warm start: a fresh switch finds every plan — hits, no misses.
        before = cache.stats()
        ColumnsortSwitch(8, 2, 12).setup_batch(warm)
        after = cache.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        # Restoring the same payload again installs nothing.
        assert cache.restore(snap) == 0

    def test_restored_plans_are_frozen(self):
        cache = plan_cache()
        cache.clear()
        sw = ColumnsortSwitch(8, 2, 12)
        warm = np.zeros((2, sw.n), dtype=bool)
        warm[:, 0] = True
        sw.setup_batch(warm)
        snap = pickle.loads(pickle.dumps(cache.snapshot()))
        cache.clear()
        cache.restore(snap)
        routed = ColumnsortSwitch(8, 2, 12).setup_batch(warm)
        assert routed.input_to_output.shape == (2, sw.n)


class TestWorkersOption:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "hyper", "--n", "8", "--workers", "-1"],
            ["verify", "hyper", "--n", "8", "--backend", "process",
             "--workers", "-1"],
            ["compare", "--switch", "revsort", "--n", "16", "--m", "12",
             "--workers", "-1"],
            ["flows", "compare", "--n", "16", "--duration", "10",
             "--workers", "-1"],
        ],
    )
    def test_negative_workers_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", [[], ["--backend", "batch"], ["--backend", "process"]]
    )
    @pytest.mark.parametrize(
        "flag,value", [("--trials", "-5"), ("--workers", "-1")]
    )
    def test_verify_rejects_negative_counts_in_every_mode(
        self, mode, flag, value, capsys
    ):
        argv = ["verify", "revsort", "--n", "16", "--m", "12", flag, value]
        assert main(argv + mode) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:] in err


class TestCrossProcessCertify:
    @pytest.mark.parametrize(
        "design,params",
        [
            ("hyper", {"n": 8}),
            ("revsort", {"n": 16, "m": 12}),
            ("columnsort", {"r": 8, "s": 2, "m": 12}),
        ],
    )
    def test_certificate_json_worker_invariant(self, design, params):
        docs = []
        for workers in (0, 1, 2, 4):
            cert = certify_design(
                design, dict(params), options=QUICK, workers=workers
            )
            assert cert.ok
            docs.append(cert.to_json())
        assert all(doc == docs[0] for doc in docs[1:]), design
