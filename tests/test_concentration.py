"""Tests for concentrator specs, validators, Lemma 2, and the Figure 2
converse counterexample."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.concentration import (
    ConcentratorSpec,
    figure2_counterexample,
    lemma2_load_ratio,
    lemma2_spec,
    validate_hyperconcentration,
    validate_partial_concentration,
    validate_perfect_concentration,
    validate_routing_disjoint,
)
from repro.core.nearsort import is_nearsorted, nearsortedness
from repro.errors import ConcentrationError, ConfigurationError


class TestConcentratorSpec:
    def test_capacity(self):
        spec = ConcentratorSpec(n=16, m=8, alpha=0.75)
        assert spec.guaranteed_capacity == 6
        assert not spec.is_vacuous

    def test_vacuous(self):
        spec = ConcentratorSpec(n=16, m=8, alpha=0.0)
        assert spec.is_vacuous
        assert spec.guaranteed_capacity == 0

    def test_full_alpha(self):
        spec = ConcentratorSpec(n=8, m=8, alpha=1.0)
        assert spec.guaranteed_capacity == 8

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            ConcentratorSpec(n=4, m=5, alpha=1.0)
        with pytest.raises(ConfigurationError):
            ConcentratorSpec(n=0, m=0, alpha=1.0)
        with pytest.raises(ConfigurationError):
            ConcentratorSpec(n=4, m=4, alpha=1.5)

    def test_scaled_for_perfect(self):
        # Section 1: an (n/α, m/α, α) partial replaces an n-by-m perfect.
        spec = ConcentratorSpec(n=16, m=8, alpha=0.5)
        scaled = spec.scaled_for_perfect()
        assert scaled.n == 32 and scaled.m == 16 and scaled.alpha == 0.5
        # The scaled switch's guaranteed capacity covers the original m.
        assert scaled.guaranteed_capacity >= spec.m

    def test_scaled_rejects_vacuous(self):
        with pytest.raises(ConfigurationError):
            ConcentratorSpec(n=4, m=4, alpha=0.0).scaled_for_perfect()


class TestValidateRoutingDisjoint:
    def test_accepts_disjoint(self):
        validate_routing_disjoint(np.array([0, -1, 2, 1]), 3)

    def test_rejects_reuse(self):
        with pytest.raises(ConcentrationError):
            validate_routing_disjoint(np.array([0, 0]), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConcentrationError):
            validate_routing_disjoint(np.array([5]), 3)

    def test_paper_scale_reuse_and_range(self):
        n = 4096
        routing = np.random.default_rng(0).permutation(n)
        routing[::3] = -1
        validate_routing_disjoint(routing, n)
        reused = routing.copy()
        reused[1] = reused[2]
        with pytest.raises(ConcentrationError, match="not disjoint"):
            validate_routing_disjoint(reused, n)
        out_of_range = routing.copy()
        out_of_range[4] = n
        with pytest.raises(ConcentrationError, match=f"targets output {n} "):
            validate_routing_disjoint(out_of_range, n)


class TestValidatePartial:
    def setup_method(self):
        self.spec = ConcentratorSpec(n=8, m=4, alpha=0.75)  # cap = 3

    def test_light_load_all_routed(self):
        valid = np.array([1, 0, 1, 0, 0, 1, 0, 0], dtype=bool)
        routing = np.array([0, -1, 1, -1, -1, 2, -1, -1])
        validate_partial_concentration(self.spec, valid, routing)

    def test_light_load_drop_fails(self):
        valid = np.array([1, 0, 1, 0, 0, 1, 0, 0], dtype=bool)
        routing = np.array([0, -1, 1, -1, -1, -1, -1, -1])
        with pytest.raises(ConcentrationError):
            validate_partial_concentration(self.spec, valid, routing)

    def test_heavy_load_needs_alpha_m(self):
        valid = np.ones(8, dtype=bool)
        routing = np.array([0, 1, 2, -1, -1, -1, -1, -1])  # 3 = cap: OK
        validate_partial_concentration(self.spec, valid, routing)
        routing = np.array([0, 1, -1, -1, -1, -1, -1, -1])  # 2 < cap
        with pytest.raises(ConcentrationError):
            validate_partial_concentration(self.spec, valid, routing)

    def test_invalid_input_must_not_route(self):
        valid = np.zeros(8, dtype=bool)
        routing = np.full(8, -1)
        routing[3] = 0
        with pytest.raises(ConcentrationError):
            validate_partial_concentration(self.spec, valid, routing)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            validate_partial_concentration(self.spec, np.zeros(4, dtype=bool), np.full(8, -1))


class TestValidatePerfect:
    def test_congested_must_fill_outputs(self):
        valid = np.ones(4, dtype=bool)
        # Only one of the two outputs busy under k=4 > m=2: violation.
        with pytest.raises(ConcentrationError):
            validate_perfect_concentration(4, 2, valid, np.array([0, -1, -1, -1]))
        # Both outputs busy: satisfied, regardless of which inputs won.
        validate_perfect_concentration(4, 2, valid, np.array([-1, 1, 0, -1]))

    def test_light_load_all_routed(self):
        valid = np.array([0, 1, 0, 1], dtype=bool)
        validate_perfect_concentration(4, 2, valid, np.array([-1, 0, -1, 1]))
        with pytest.raises(ConcentrationError):
            validate_perfect_concentration(4, 2, valid, np.array([-1, 0, -1, -1]))


class TestValidateHyper:
    def test_accepts_prefix(self):
        valid = np.array([0, 1, 1, 0], dtype=bool)
        routing = np.array([-1, 0, 1, -1])
        validate_hyperconcentration(4, valid, routing)

    def test_rejects_non_prefix(self):
        valid = np.array([0, 1, 1, 0], dtype=bool)
        routing = np.array([-1, 0, 2, -1])
        with pytest.raises(ConcentrationError):
            validate_hyperconcentration(4, valid, routing)

    def test_rejects_drop(self):
        valid = np.array([1, 0, 0, 0], dtype=bool)
        routing = np.full(4, -1)
        with pytest.raises(ConcentrationError):
            validate_hyperconcentration(4, valid, routing)


class TestLemma2:
    def test_load_ratio_formula(self):
        assert lemma2_load_ratio(10, 2) == pytest.approx(0.8)
        assert lemma2_load_ratio(10, 0) == 1.0

    def test_clamps_vacuous(self):
        assert lemma2_load_ratio(4, 9) == 0.0

    def test_spec(self):
        spec = lemma2_spec(16, 8, 2)
        assert spec.n == 16 and spec.m == 8
        assert spec.alpha == pytest.approx(0.75)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            lemma2_load_ratio(0, 0)
        with pytest.raises(ConfigurationError):
            lemma2_load_ratio(4, -1)

    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=40),
    )
    def test_lemma2_semantics_on_synthetic_nearsorter(self, m, eps, k):
        """Simulate Lemma 2's proof: any ε-nearsorted output restricted
        to the first m wires routes ≥ min(k, m−ε) messages when the
        nearsorter places k 1s."""
        n = m + eps + 16
        if k > n:
            return
        rng = np.random.default_rng(42)
        from repro.core.nearsort import random_epsilon_nearsorted

        bits = random_epsilon_nearsorted(n, k, eps, rng)
        routed = int(bits[:m].sum())
        cap = max(0, m - eps)
        if k <= cap:
            assert routed == k
        else:
            assert routed >= cap


class TestFigure2:
    def test_witness_not_nearsorted(self):
        n, m, eps = 64, 16, 4
        k, bits = figure2_counterexample(n, m, eps)
        assert int(bits.sum()) == k
        assert not is_nearsorted(bits, eps)
        # It still satisfies the (n, m, 1−ε/m) output contract: at
        # least m−ε of the first m outputs carry messages.
        assert int(bits[:m].sum()) >= m - eps

    def test_condition_checked(self):
        # k + ε < (n+m)/2 must hold; with n too small it can't.
        with pytest.raises(ConfigurationError):
            figure2_counterexample(10, 9, 4)

    def test_rejects_epsilon_out_of_range(self):
        with pytest.raises(ConfigurationError):
            figure2_counterexample(64, 16, 0)
        with pytest.raises(ConfigurationError):
            figure2_counterexample(64, 16, 16)

    def test_nearsortedness_exceeds_epsilon_substantially(self):
        n, m, eps = 128, 16, 3
        _, bits = figure2_counterexample(n, m, eps)
        assert nearsortedness(bits) > eps
