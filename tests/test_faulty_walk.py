"""Differential tests of the fault-masked plan walk.

``run_plan_with_faults`` is the sparse rank executor with kill masks:
a killed message stops being tracked after its layer, and a walk can
resume from a kill-free :class:`~repro.engine.batch.PlanWalk` of the
same batch.  Two independent references pin it: the scalar
``FaultySwitch._pos_scalar`` walker, and :func:`dense_walk` below, a
dense stable-argsort walker that carries the full position→input map
through every op.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.engine.batch import (
    _compile_steps,
    run_plan_with_faults,
    walk_plan,
)
from repro.engine.plan import (
    FixedPermutation,
    StagePlan,
    chip_layer,
    fixed_permutation,
)
from repro.faults import (
    DeadChipFault,
    FaultScenario,
    FaultySwitch,
    SeveredWireFault,
    StuckAtFault,
    certify_chain,
    certify_scenarios,
    measure_scenario,
    probe_patterns,
)
from repro.faults import injector
from repro.faults.certify import ProbeBatch
from repro.faults.scenario import chip_layers
from repro.switches.columnsort_switch import ColumnsortSwitch
from repro.switches.multichip_hyper import FullRevsortHyperconcentrator
from repro.switches.revsort_switch import RevsortSwitch


def dense_walk(plan: StagePlan, valid: np.ndarray, stage_kills) -> np.ndarray:
    """Reference walker: ``src[b, p]`` is the input whose message sits
    on flat position ``p``; each chip stably sorts its occupied wires to
    the front, and a kill empties its positions after the layer."""
    batch, n = valid.shape
    src = np.where(valid, np.arange(n, dtype=np.int64)[None, :], np.int64(-1))
    kills = iter(stage_kills)
    for op in plan.ops:
        if isinstance(op, FixedPermutation):
            moved = np.empty_like(src)
            moved[:, op.perm] = src
            src = moved
            continue
        g = src[:, op.groups]
        order = np.argsort(g < 0, axis=2, kind="stable")
        g = np.take_along_axis(g, order, axis=2)
        out = src.copy()
        out[:, op.groups.reshape(-1)] = g.reshape(batch, -1)
        src = out
        kmask = next(kills)
        if kmask is not None:
            src[:, kmask] = -1
    pos = np.full((batch, n), -1, dtype=np.int64)
    rows, p = np.nonzero(src >= 0)
    pos[rows, src[rows, p]] = p
    return pos


def partial_plan() -> StagePlan:
    """n=12 with partial chip layers (positions no chip touches pass
    through), so the executor takes its generic walker."""
    rng = np.random.default_rng(5)
    ops = (
        chip_layer([np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])]),
        fixed_permutation(rng.permutation(12)),
        chip_layer([np.array([11, 9, 7]), np.array([0, 1, 2]),
                    np.array([3, 4, 5])]),
        fixed_permutation(rng.permutation(12)),
        chip_layer([np.array([8, 9, 10, 11]), np.array([0, 1, 2, 3])]),
    )
    return StagePlan(key=("test-partial-walk", 12), n=12, ops=ops)


def _plan_switch(plan: StagePlan):
    """The least a FaultySwitch needs of an inner switch."""
    return SimpleNamespace(n=plan.n, m=plan.n // 2, _plan=plan)


DESIGNS = {
    "revsort-64": lambda: RevsortSwitch(64, 48),
    "columnsort-r16-s4": lambda: ColumnsortSwitch(16, 4, 48),
    "fullrevsort-16": lambda: FullRevsortHyperconcentrator(16),
    "partial-12": lambda: _plan_switch(partial_plan()),
}


def _random_kills(plan, rng, p, all_killed=()):
    n = plan.n
    kills = []
    for layer in range(len(chip_layers(plan))):
        if layer in all_killed:
            kills.append(np.ones(n, dtype=bool))
        elif rng.random() < 0.25:
            kills.append(None)
        else:
            kills.append(rng.random(n) < p)
    return kills


def _scalar_rows(plan, eff, kills):
    """The scalar oracle, row by row, on a FaultySwitch carrying
    exactly these kill masks."""
    fsw = FaultySwitch(_plan_switch(plan), FaultScenario(name="healthy"))
    fsw.compiled = SimpleNamespace(stage_kills=tuple(kills), has_interior=True)
    return np.stack([fsw._pos_scalar(row) for row in eff]) if len(eff) else \
        np.zeros((0, plan.n), dtype=np.int64)


class TestAgainstReferences:
    def test_partial_plan_takes_the_generic_walker(self):
        assert _compile_steps(partial_plan()) is None

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("p", [0.05, 0.3])
    def test_random_kills_on_every_layer(self, design, p):
        plan = DESIGNS[design]()._plan
        rng = np.random.default_rng(int(p * 100) + len(design))
        for _ in range(4):
            valid = rng.random((9, plan.n)) < rng.random()
            kills = _random_kills(plan, rng, p)
            got = run_plan_with_faults(plan, valid, kills)
            np.testing.assert_array_equal(got, dense_walk(plan, valid, kills))
            np.testing.assert_array_equal(got, _scalar_rows(plan, valid, kills))

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_all_killed_layers(self, design):
        plan = DESIGNS[design]()._plan
        rng = np.random.default_rng(3)
        valid = rng.random((6, plan.n)) < 0.6
        for layer in range(len(chip_layers(plan))):
            kills = _random_kills(plan, rng, 0.1, all_killed={layer})
            got = run_plan_with_faults(plan, valid, kills)
            assert (got == -1).all()
            np.testing.assert_array_equal(got, dense_walk(plan, valid, kills))
            np.testing.assert_array_equal(got, _scalar_rows(plan, valid, kills))

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_empty_batch(self, design):
        plan = DESIGNS[design]()._plan
        kills = _random_kills(plan, np.random.default_rng(0), 0.2)
        valid = np.zeros((0, plan.n), dtype=bool)
        got = run_plan_with_faults(plan, valid, kills)
        assert got.shape == (0, plan.n)
        walk = walk_plan(plan, valid)
        resumed = run_plan_with_faults(plan, valid, kills, prefix=walk)
        assert resumed.shape == (0, plan.n)

    def test_no_valid_inputs(self):
        plan = DESIGNS["revsort-64"]()._plan
        kills = _random_kills(plan, np.random.default_rng(1), 0.2)
        valid = np.zeros((3, plan.n), dtype=bool)
        assert (run_plan_with_faults(plan, valid, kills) == -1).all()

    @pytest.mark.parametrize("design", ["revsort-64", "columnsort-r16-s4"])
    def test_stuck_at_inputs_with_interior_kills(self, design):
        switch = DESIGNS[design]()
        plan = switch._plan
        last = len(chip_layers(plan)) - 1
        scenario = FaultScenario(
            name="mixed",
            faults=(
                StuckAtFault(1, 1), StuckAtFault(5, 0), StuckAtFault(9, 1),
                SeveredWireFault(0, 3), DeadChipFault(last, 1),
            ),
        )
        fsw = FaultySwitch(switch, scenario)
        rng = np.random.default_rng(11)
        valid = rng.random((16, switch.n)) < 0.5
        eff = fsw.effective_valid(valid)
        kills = fsw.compiled.stage_kills
        got = fsw._pos_batch(eff)
        np.testing.assert_array_equal(got, dense_walk(plan, eff, kills))
        for b in range(len(eff)):
            np.testing.assert_array_equal(got[b], fsw._pos_scalar(eff[b]))


class TestPrefixResume:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_resumed_walk_equals_fresh_walk(self, design):
        plan = DESIGNS[design]()._plan
        layers = len(chip_layers(plan))
        rng = np.random.default_rng(17)
        valid = rng.random((8, plan.n)) < 0.55
        walk = walk_plan(plan, valid)
        np.testing.assert_array_equal(
            walk.positions(), dense_walk(plan, valid, [None] * layers)
        )
        for first in range(layers):
            kills = _random_kills(plan, rng, 0.2)
            kills[:first] = [None] * first
            kills[first] = rng.random(plan.n) < 0.2
            fresh = run_plan_with_faults(plan, valid, kills)
            resumed = run_plan_with_faults(plan, valid, kills, prefix=walk)
            np.testing.assert_array_equal(resumed, fresh)
            np.testing.assert_array_equal(fresh, dense_walk(plan, valid, kills))
        no_kills = [None] * layers
        np.testing.assert_array_equal(
            run_plan_with_faults(plan, valid, no_kills, prefix=walk),
            walk.positions(),
        )

    def test_resume_skips_the_healthy_layers(self):
        plan = RevsortSwitch(64, 48)._plan
        layers = len(chip_layers(plan))
        valid = np.random.default_rng(2).random((4, 64)) < 0.5
        walk = walk_plan(plan, valid)
        kills = [None] * layers
        kills[-1] = np.zeros(64, dtype=bool)
        kills[-1][:8] = True
        with obs.collecting() as registry:
            run_plan_with_faults(plan, valid.copy(), kills, prefix=walk)
        stages = [e for e in registry.snapshot()["spans"]["events"]
                  if e["name"] == "engine.stage"]
        assert stages == []  # only the last layer's kill filter ran

    def test_mismatched_prefix_is_ignored(self):
        plan = RevsortSwitch(64, 48)._plan
        layers = len(chip_layers(plan))
        rng = np.random.default_rng(4)
        valid = rng.random((5, 64)) < 0.5
        other = valid.copy()
        other[2, 7] = ~other[2, 7]  # one flipped bit: a stuck-at pin
        walk = walk_plan(plan, valid)
        assert walk.matches(plan, valid)
        assert not walk.matches(plan, other)
        assert not walk.matches(ColumnsortSwitch(16, 4, 48)._plan, valid)
        kills = [None] * layers
        kills[1] = rng.random(64) < 0.3
        np.testing.assert_array_equal(
            run_plan_with_faults(plan, other, kills, prefix=walk),
            dense_walk(plan, other, kills),
        )

    def test_walk_keeps_its_own_copy_of_a_writable_batch(self):
        plan = RevsortSwitch(64, 48)._plan
        valid = np.random.default_rng(8).random((3, 64)) < 0.5
        walk = walk_plan(plan, valid)
        valid[0, :] = ~valid[0, :]
        assert not walk.matches(plan, valid)
        assert not walk.valid.flags.writeable


class TestOneWalkPerScenario:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = injector.run_plan_with_faults

        def counting(*args, **kwargs):
            seen.append(kwargs.get("prefix"))
            return real(*args, **kwargs)

        monkeypatch.setattr(injector, "run_plan_with_faults", counting)
        return seen

    def test_measure_scenario_walks_once(self, calls):
        switch = RevsortSwitch(64, 48)
        scenario = FaultScenario(
            name="s", faults=(SeveredWireFault(0, 3), DeadChipFault(2, 1))
        )
        measure_scenario(switch, scenario, trials=8, use_gates=False)
        assert len(calls) == 1
        measure_scenario(switch, FaultScenario(name="healthy"), trials=8)
        assert len(calls) == 1  # no interior kill: no faulty walk

    def test_chain_walks_once_per_faulty_step_from_the_prefix(self, calls):
        switch = RevsortSwitch(64, 48)
        last = len(chip_layers(switch._plan)) - 1
        chain = [
            FaultScenario(name=f"c{i + 1}", faults=faults)
            for i, faults in enumerate([
                (DeadChipFault(last, 0),),
                (DeadChipFault(last, 0), SeveredWireFault(last, 40)),
            ])
        ]
        cert = certify_chain(switch, chain, design="t", trials=8)
        assert cert.ok
        assert len(calls) == len(chain)
        assert all(prefix is not None for prefix in calls)

    def test_scenarios_with_stuck_pins_walk_fresh(self, calls):
        switch = ColumnsortSwitch(16, 4, 48)
        scenarios = [
            FaultScenario(name="a", faults=(SeveredWireFault(0, 5),)),
            FaultScenario(
                name="b", faults=(StuckAtFault(2, 1), SeveredWireFault(1, 9))
            ),
        ]
        cert = certify_scenarios(switch, scenarios, design="t", trials=8)
        assert cert.ok
        assert len(calls) == 2

    def test_probe_batch_is_shared_read_only(self):
        switch = RevsortSwitch(64, 48)
        probes = ProbeBatch(switch, 8, 3)
        np.testing.assert_array_equal(
            probes.patterns, probe_patterns(64, 48, 8, 3)
        )
        assert not probes.patterns.flags.writeable
        stuck = probes.patterns.copy()
        stuck[:, 0] = True
        assert probes.prefix(switch._plan, stuck) is None
        walk = probes.prefix(switch._plan, probes.patterns)
        assert walk is probes.prefix(switch._plan, stuck)
        assert walk.valid is probes.patterns
