"""Unit tests for Omega configuration and adaptive timeouts."""

from __future__ import annotations

import pytest

from repro.core.config import GROWTH_FACTOR, AdaptiveTimeouts, OmegaConfig


class TestOmegaConfigValidation:
    def test_defaults_are_valid(self) -> None:
        config = OmegaConfig()
        assert config.eta > 0
        assert config.initial_timeout > config.eta

    def test_eta_positive(self) -> None:
        with pytest.raises(ValueError):
            OmegaConfig(eta=0.0)

    def test_timeout_must_exceed_eta(self) -> None:
        with pytest.raises(ValueError):
            OmegaConfig(eta=1.0, initial_timeout=1.0)

    def test_growth_policy_names(self) -> None:
        with pytest.raises(ValueError):
            OmegaConfig(growth_policy="exponential-ish")

    def test_growth_parameters(self) -> None:
        with pytest.raises(ValueError):
            OmegaConfig(growth_step=0.0)


class TestAdaptiveTimeouts:
    def test_initial_value(self) -> None:
        timeouts = AdaptiveTimeouts(OmegaConfig(initial_timeout=2.0))
        assert timeouts.get(3) == 2.0

    def test_additive_growth(self) -> None:
        timeouts = AdaptiveTimeouts(
            OmegaConfig(initial_timeout=2.0, growth_policy="additive",
                        growth_step=0.5))
        assert timeouts.grow(1) == 2.5
        assert timeouts.grow(1) == 3.0
        assert timeouts.get(2) == 2.0, "peers are independent"

    def test_multiplicative_growth(self) -> None:
        timeouts = AdaptiveTimeouts(
            OmegaConfig(initial_timeout=2.0, growth_policy="multiplicative"))
        assert timeouts.grow(1) == 2.0 * GROWTH_FACTOR
        assert timeouts.grow(1) == 2.0 * GROWTH_FACTOR ** 2

    def test_growth_is_unbounded(self) -> None:
        timeouts = AdaptiveTimeouts(OmegaConfig())
        for _ in range(1000):
            timeouts.grow(0)
        assert timeouts.get(0) > 100.0

    def test_raise_to_floor(self) -> None:
        timeouts = AdaptiveTimeouts(OmegaConfig(initial_timeout=2.0))
        assert timeouts.raise_to(1, 5.0) == 5.0
        assert timeouts.raise_to(1, 3.0) == 5.0, "never lowers"
        assert timeouts.get(1) == 5.0
