"""Suffix joins: the fused fast path against DHB's generic Figure-6 loop.

``handle_suffix_request`` runs on the vectorised kernel when the chooser is
the paper's default rule; a wrapper chooser with the same rule, or client
tracking, forces the scalar loop.  Every observable — per-slot loads, the
future-instance index, instance and request counts, and the
``protocol.*`` counters — must agree over random join sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dhb import DHBProtocol
from repro.core.heuristic import latest_min_load_chooser
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry


def same_rule_chooser(load, first_slot, last_slot):
    """The default heuristic behind a different identity (no fused path)."""
    return latest_min_load_chooser(load, first_slot, last_slot)


@st.composite
def setups(draw):
    """A period vector (uniform or custom), optional weights and a join trace."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        periods = list(range(1, n + 1))
    else:
        periods = [1] + [draw(st.integers(max(1, j - 1), j + 6)) for j in range(2, n + 1)]
    weights = None
    if draw(st.booleans()):
        weights = [float(draw(st.integers(0, 9))) for _ in range(n)]
    gaps = draw(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    firsts = draw(st.lists(st.integers(1, n), min_size=len(gaps), max_size=len(gaps)))
    slots = np.cumsum(gaps).tolist()
    return periods, weights, list(zip(slots, firsts))


def build(periods, weights, **kwargs):
    protocol = DHBProtocol(periods=periods, segment_weights=weights, **kwargs)
    protocol.bind_metrics(MetricsRegistry())
    return protocol


def observed(protocol, last_slot):
    horizon = range(last_slot + max(protocol.periods.as_list()) + 2)
    return {
        "loads": [protocol.slot_load(s) for s in horizon],
        "weights": [protocol.slot_weight(s) for s in horizon],
        "next": protocol.schedule.next_transmissions.tolist(),
        "instances": protocol.schedule.total_instances,
        "requests": protocol.requests_admitted,
        "counters": protocol.metrics.to_dict()["counters"],
    }


@settings(max_examples=120, derandomize=True, deadline=None)
@given(setup=setups())
def test_fused_suffix_path_matches_generic_loop(setup):
    periods, weights, joins = setup
    fused = build(periods, weights)
    generic = build(periods, weights, chooser=same_rule_chooser)
    tracked = build(periods, weights, track_clients=True)
    for slot, first_segment in joins:
        for protocol in (fused, generic, tracked):
            protocol.handle_suffix_request(slot, first_segment)
    last_slot = joins[-1][0]
    expected = observed(generic, last_slot)
    assert observed(fused, last_slot) == expected
    assert observed(tracked, last_slot) == expected
    for plan, (slot, first_segment) in zip(tracked.clients, joins):
        assert sorted(plan.assignments) == list(range(first_segment, len(periods) + 1))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(setup=setups())
def test_suffix_from_first_segment_is_a_full_request(setup):
    periods, weights, joins = setup
    suffix = build(periods, weights)
    full = build(periods, weights)
    for slot, _ in joins:
        suffix.handle_suffix_request(slot, 1)
        full.handle_request(slot)
    last_slot = joins[-1][0]
    assert observed(suffix, last_slot) == observed(full, last_slot)


def test_suffix_join_shares_the_running_broadcast():
    protocol = DHBProtocol(n_segments=6, track_clients=True)
    protocol.handle_request(slot=1)
    plan = protocol.handle_suffix_request(slot=3, first_segment=3)
    assert plan.assignments == {3: 4, 4: 5, 5: 6, 6: 7}
    assert all(plan.shared.values())
    assert protocol.requests_admitted == 2


@pytest.mark.parametrize("track_clients", [False, True])
def test_first_segment_past_the_video_is_refused(track_clients):
    protocol = DHBProtocol(n_segments=6, track_clients=track_clients)
    with pytest.raises(ConfigurationError, match="beyond the last segment"):
        protocol.handle_suffix_request(slot=0, first_segment=7)
    assert protocol.requests_admitted == 0
    assert protocol.schedule.total_instances == 0
