"""Tests for repro.analysis.theory."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.theory import (
    batching_cost_rate,
    dhb_saturation_bandwidth,
    edge_backbone_savings_bound,
    evz_lower_bound,
    evz_suffix_lower_bound,
    fb_bandwidth,
    harmonic_number,
    optimal_catching_channels,
    optimal_patching_window,
    patching_cost_rate,
    staggered_catching_cost_rate,
    suffix_saturation_bandwidth,
)
from repro.errors import ConfigurationError


def test_harmonic_number_values():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(99) == pytest.approx(5.177, abs=1e-3)


def test_harmonic_number_asymptotics():
    n = 10_000
    assert harmonic_number(n) == pytest.approx(
        math.log(n) + 0.5772156649, abs=1e-4
    )


def test_dhb_saturation_is_harmonic():
    assert dhb_saturation_bandwidth(99) == harmonic_number(99)


class TestPatchingWindow:
    def test_closed_form_minimises_cost(self):
        lam, duration = 30.0 / 3600.0, 7200.0
        best = optimal_patching_window(lam, duration)
        cost_best = patching_cost_rate(lam, duration, best)
        for window in np.linspace(best * 0.2, best * 3.0, 60):
            assert cost_best <= patching_cost_rate(lam, duration, window) + 1e-9

    def test_zero_rate(self):
        assert optimal_patching_window(0.0, 7200.0) == 7200.0
        assert patching_cost_rate(0.0, 7200.0) == 0.0

    def test_non_finite_product_returns_the_zero_limit(self):
        assert optimal_patching_window(math.inf, 7200.0) == 0.0
        assert optimal_patching_window(1e305, 7200.0) == 0.0  # 2λD overflows
        # Just below the overflow the closed form still holds, finite and > 0.
        assert 0.0 < optimal_patching_window(1e300, 7200.0) < 1e-140

    def test_window_shrinks_with_rate(self):
        windows = [
            optimal_patching_window(rate / 3600.0, 7200.0)
            for rate in [1.0, 10.0, 100.0, 1000.0]
        ]
        assert all(a > b for a, b in zip(windows, windows[1:]))

    def test_cost_grows_sublinearly(self):
        c10 = patching_cost_rate(10 / 3600.0, 7200.0)
        c1000 = patching_cost_rate(1000 / 3600.0, 7200.0)
        assert c1000 < 100 * c10  # ~sqrt growth

    @given(rate=st.floats(0.1, 2000.0))
    def test_cost_positive_and_bounded_by_unshared(self, rate):
        lam = rate / 3600.0
        cost = patching_cost_rate(lam, 7200.0)
        assert 0 < cost <= lam * 7200.0 + 1.0  # unshared = one stream each


def test_batching_cost_rate():
    assert batching_cost_rate(0.0, 7200.0, 300.0) == 0.0
    # Huge window -> cost approaches D/window regardless of rate.
    assert batching_cost_rate(1.0, 7200.0, 72000.0) == pytest.approx(0.1, rel=0.01)
    with pytest.raises(ConfigurationError):
        batching_cost_rate(1.0, 0.0, 10.0)


class TestEVZBound:
    def test_limits(self):
        assert evz_lower_bound(0.0, 7200.0) == 0.0
        # lambda -> infinity with wait w approaches ln(1 + D/w).
        almost = evz_lower_bound(1e9, 7200.0, wait=72.0)
        assert almost == pytest.approx(math.log(1 + 100), rel=1e-3)

    def test_monotone_in_rate(self):
        values = [evz_lower_bound(r / 3600.0, 7200.0) for r in [1, 10, 100, 1000]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_wait_reduces_bound(self):
        assert evz_lower_bound(0.01, 7200.0, wait=100.0) < evz_lower_bound(
            0.01, 7200.0, wait=0.0
        )

    def test_bound_below_patching_cost(self):
        for rate in [1.0, 10.0, 100.0, 1000.0]:
            lam = rate / 3600.0
            assert evz_lower_bound(lam, 7200.0) <= patching_cost_rate(lam, 7200.0)


class TestSuffixBandwidth:
    def test_limits_recover_the_full_and_empty_cases(self):
        assert suffix_saturation_bandwidth(99, 0) == dhb_saturation_bandwidth(99)
        assert suffix_saturation_bandwidth(99, 99) == 0.0

    def test_is_the_harmonic_tail(self):
        assert suffix_saturation_bandwidth(60, 15) == pytest.approx(
            harmonic_number(60) - harmonic_number(15)
        )

    def test_monotone_in_prefix(self):
        values = [suffix_saturation_bandwidth(60, k) for k in range(0, 61, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            suffix_saturation_bandwidth(0, 0)
        with pytest.raises(ConfigurationError):
            suffix_saturation_bandwidth(10, 11)


class TestEdgeSavingsBound:
    def test_limits(self):
        assert edge_backbone_savings_bound([1.0], [0], 99) == 0.0
        assert edge_backbone_savings_bound([1.0], [99], 99) == pytest.approx(1.0)

    def test_weights_by_popularity(self):
        # Caching the hot title's prefix saves more than the cold title's.
        hot = edge_backbone_savings_bound([0.8, 0.2], [10, 0], 60)
        cold = edge_backbone_savings_bound([0.8, 0.2], [0, 10], 60)
        assert hot == pytest.approx(4 * cold)
        assert hot == pytest.approx(
            0.8 * harmonic_number(10) / harmonic_number(60)
        )

    def test_monotone_in_every_prefix(self):
        shares = [0.5, 0.3, 0.2]
        previous = -1.0
        for k in range(0, 61, 12):
            bound = edge_backbone_savings_bound(shares, [k, k, k], 60)
            assert bound > previous
            previous = bound

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            edge_backbone_savings_bound([1.0], [0, 1], 10)
        with pytest.raises(ConfigurationError):
            edge_backbone_savings_bound([-0.1], [1], 10)
        with pytest.raises(ConfigurationError):
            edge_backbone_savings_bound([1.0], [11], 10)


class TestEVZSuffixBound:
    def test_zero_prefix_recovers_the_plain_bound(self):
        lam = 100.0 / 3600.0
        assert evz_suffix_lower_bound(lam, 7200.0, 0.0) == pytest.approx(
            evz_lower_bound(lam, 7200.0)
        )

    def test_full_prefix_costs_nothing(self):
        assert evz_suffix_lower_bound(0.1, 7200.0, 7200.0) == 0.0

    def test_prefix_relaxes_the_bound(self):
        lam = 100.0 / 3600.0
        values = [
            evz_suffix_lower_bound(lam, 7200.0, prefix)
            for prefix in [0.0, 600.0, 1800.0, 3600.0]
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            evz_suffix_lower_bound(1.0, 7200.0, -1.0)
        with pytest.raises(ConfigurationError):
            evz_suffix_lower_bound(1.0, 7200.0, 8000.0)
        with pytest.raises(ConfigurationError):
            evz_suffix_lower_bound(1.0, 7200.0, 0.0, wait=-1.0)


def test_fb_bandwidth():
    assert fb_bandwidth(7) == 3
    assert fb_bandwidth(8) == 4
    assert fb_bandwidth(99) == 7
    with pytest.raises(ConfigurationError):
        fb_bandwidth(0)


class TestCatching:
    def test_cost_rate_formula(self):
        assert staggered_catching_cost_rate(0.0, 7200.0, 3) == 3.0
        lam = 100.0 / 3600.0
        assert staggered_catching_cost_rate(lam, 7200.0, 4) == pytest.approx(
            4 + lam * 900.0
        )

    def test_optimal_channels_minimise(self):
        lam = 200.0 / 3600.0
        best = optimal_catching_channels(lam, 7200.0)
        cost_best = staggered_catching_cost_rate(lam, 7200.0, best)
        for channels in range(1, 60):
            assert cost_best <= staggered_catching_cost_rate(lam, 7200.0, channels) + 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            staggered_catching_cost_rate(1.0, 7200.0, 0)
        with pytest.raises(ConfigurationError):
            optimal_catching_channels(-1.0, 7200.0)


@pytest.mark.parametrize(
    "fn",
    [
        lambda: harmonic_number(0),
        lambda: optimal_patching_window(-1.0, 10.0),
        lambda: optimal_patching_window(1.0, 0.0),
        lambda: patching_cost_rate(1.0, -5.0),
        lambda: evz_lower_bound(1.0, 10.0, wait=-1.0),
    ],
)
def test_validation_errors(fn):
    with pytest.raises(ConfigurationError):
        fn()
