"""Tests for repro.core.adaptive: the retuning protocol's guarantees.

The load-bearing properties:

1. **Zero loss across retunes** — every admitted client receives every
   segment strictly after its arrival slot and no later than
   ``arrival + j + S_admit`` where ``S_admit`` is the slack in force at
   its admission, for arbitrary traces and ladders (hypothesis).
2. **No double-scheduling** — within one slot a segment is placed at
   most once; the schedule's instance count equals the protocol's
   placement count.
3. **Static equivalence** — with a single zero-slack rung the protocol
   is bit-for-bit DHBProtocol.
4. **Batch/scalar equivalence** — the batched admission path matches
   one-by-one admission exactly (schedule, retunes, counters).
5. **Shared admission == per-segment bisect loop** — DHB's admission
   routine matches an independent per-segment loop with its own sorted
   future-instance lists, kept below as an oracle.
"""

import bisect
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    AdaptiveDHBProtocol,
    SlotRateEstimator,
    default_slack_ladder,
)
from repro.core.client import ClientPlan
from repro.core.dhb import DHBProtocol
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

request_traces = st.lists(st.integers(0, 120), min_size=1, max_size=120).map(sorted)


@st.composite
def slack_ladders(draw):
    """Valid ladders: threshold 0 first, strictly increasing, slacks >= 0."""
    n_rungs = draw(st.integers(1, 4))
    thresholds = [0.0]
    for _ in range(n_rungs - 1):
        thresholds.append(thresholds[-1] + draw(st.floats(0.5, 4.0)))
    slacks = [draw(st.integers(0, 12)) for _ in range(n_rungs)]
    return tuple(zip(thresholds, slacks))


# ---------------------------------------------------------------------------
# SlotRateEstimator
# ---------------------------------------------------------------------------

def test_estimator_batch_equals_scalar():
    batched, scalar = SlotRateEstimator(0.3), SlotRateEstimator(0.3)
    batched.add(2, 4)
    for _ in range(4):
        scalar.add(2)
    assert batched.estimate_before(5) == scalar.estimate_before(5)


def test_estimator_decays_over_empty_slots():
    estimator = SlotRateEstimator(0.5)
    estimator.add(0, 8)
    near = estimator.estimate_before(1)
    far = estimator.estimate_before(10)
    assert near == pytest.approx(4.0)
    assert 0 < far < near


def test_estimate_before_is_pure():
    estimator = SlotRateEstimator(0.25)
    estimator.add(3, 2)
    first = estimator.estimate_before(7)
    assert estimator.estimate_before(7) == first
    estimator.add(4, 1)  # still legal after the peeks
    assert estimator.estimate_before(7) != first or first == 0.0


def test_estimator_rejects_decreasing_slots():
    estimator = SlotRateEstimator(0.2)
    estimator.add(5)
    with pytest.raises(ConfigurationError):
        estimator.add(4)


def test_estimator_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        SlotRateEstimator(0.0)
    with pytest.raises(ConfigurationError):
        SlotRateEstimator(1.5)


# ---------------------------------------------------------------------------
# Construction validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "ladder",
    [
        (),
        ((1.0, 0),),                 # first threshold must be 0
        ((0.0, 0), (0.0, 3)),        # thresholds strictly increasing
        ((0.0, 0), (2.0, -1)),       # negative slack
    ],
)
def test_invalid_ladders_rejected(ladder):
    with pytest.raises(ConfigurationError):
        AdaptiveDHBProtocol(10, slack_ladder=ladder)


def test_default_ladder_shape():
    ladder = default_slack_ladder(99)
    assert ladder[0] == (0.0, 0)
    assert [t for t, _ in ladder] == sorted({t for t, _ in ladder})
    assert all(s >= 0 for _, s in ladder)


# ---------------------------------------------------------------------------
# Static equivalence at zero slack
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 20))
def test_zero_slack_is_static_dhb(trace, n_segments):
    adaptive = AdaptiveDHBProtocol(n_segments, slack_ladder=((0.0, 0),))
    static = DHBProtocol(n_segments)
    for slot in trace:
        adaptive.handle_request(slot)
        static.handle_request(slot)
    horizon = trace[-1] + n_segments + 1
    for slot in range(horizon):
        assert adaptive.slot_load(slot) == static.slot_load(slot)
        assert adaptive.slot_instances(slot) == static.slot_instances(slot)
    assert adaptive.retunes == []


# ---------------------------------------------------------------------------
# Zero loss / no double-scheduling across retunes (the tentpole property)
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 16), ladder=slack_ladders())
def test_retune_never_drops_or_double_schedules(trace, n_segments, ladder):
    protocol = AdaptiveDHBProtocol(
        n_segments, slack_ladder=ladder, epoch_slots=4, track_clients=True
    )
    for slot in trace:
        protocol.handle_request(slot)
    assert len(protocol.clients) == len(trace) == len(protocol.client_slacks)
    max_ladder_slack = max(s for _, s in ladder)
    for plan, slack in zip(protocol.clients, protocol.client_slacks):
        assert slack <= max_ladder_slack
        for segment in range(1, n_segments + 1):
            slot = plan.assignments[segment]
            # Owed instance honored: strictly future, inside the window
            # that was in force at admission time — regardless of any
            # retune (up or down) that happened afterwards.
            assert plan.arrival_slot < slot <= plan.arrival_slot + segment + slack
            # And actually present in the transmission schedule.
            assert segment in protocol.slot_instances(slot)
    # No double-scheduling: each scheduled instance is transmitted once
    # and the schedule's totals agree with per-slot loads.
    horizon = trace[-1] + n_segments + max_ladder_slack + 2
    total = sum(protocol.slot_load(slot) for slot in range(horizon))
    assert total == protocol.schedule.total_instances
    for slot in range(horizon):
        instances = protocol.slot_instances(slot)
        assert len(instances) == len(set(instances))


@settings(max_examples=75, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 16), ladder=slack_ladders())
def test_batch_equals_scalar(trace, n_segments, ladder):
    scalar = AdaptiveDHBProtocol(n_segments, slack_ladder=ladder, epoch_slots=4)
    batched = AdaptiveDHBProtocol(n_segments, slack_ladder=ladder, epoch_slots=4)
    for slot in trace:
        scalar.handle_request(slot)
    slots, counts = np.unique(np.asarray(trace), return_counts=True)
    for slot, count in zip(slots, counts):
        batched.handle_batch(int(slot), int(count))
    horizon = trace[-1] + n_segments + max(s for _, s in ladder) + 2
    for slot in range(horizon):
        assert scalar.slot_load(slot) == batched.slot_load(slot)
    assert scalar.retunes == batched.retunes
    assert scalar.requests_admitted == batched.requests_admitted
    assert scalar.max_slack_used == batched.max_slack_used


# ---------------------------------------------------------------------------
# Retuning behavior and bandwidth payoff
# ---------------------------------------------------------------------------

def test_retunes_fire_only_at_epoch_boundaries():
    protocol = AdaptiveDHBProtocol(
        20, slack_ladder=((0.0, 0), (2.0, 6)), epoch_slots=8, alpha=0.5
    )
    for slot in range(8):  # 3 requests/slot throughout epoch 0
        protocol.handle_batch(slot, 3)
    assert protocol.slack == 0  # epoch 0: no signal yet at first admission
    protocol.handle_request(8)  # first admission of epoch 1 retunes
    assert protocol.slack == 6
    assert len(protocol.retunes) == 1
    event = protocol.retunes[0]
    assert event.slot == 8 and event.old_slack == 0 and event.new_slack == 6
    assert event.estimated_rate >= 2.0


def test_slack_retunes_down_when_demand_fades():
    protocol = AdaptiveDHBProtocol(
        20, slack_ladder=((0.0, 0), (2.0, 6)), epoch_slots=4
    )
    for slot in range(8):
        protocol.handle_batch(slot, 4)
    protocol.handle_request(8)
    assert protocol.slack == 6
    # A long quiet stretch decays the EWMA back below the rung.
    protocol.handle_request(200)
    assert protocol.slack == 0
    assert protocol.max_slack_used == 6
    assert [e.new_slack for e in protocol.retunes] == [6, 0]


def test_saturated_slack_lowers_bandwidth_vs_static():
    """One request per slot saturates DHB at H(n); slack must beat it."""
    adaptive = AdaptiveDHBProtocol(
        40, slack_ladder=((0.0, 0), (0.5, 10)), epoch_slots=4
    )
    static = DHBProtocol(40)
    for slot in range(600):
        adaptive.handle_request(slot)
        static.handle_request(slot)
    window = range(200, 600)  # steady state, past the retune
    adaptive_mean = sum(adaptive.slot_load(s) for s in window) / len(window)
    static_mean = sum(static.slot_load(s) for s in window) / len(window)
    assert adaptive_mean < static_mean


def test_metrics_counters_emitted():
    registry = MetricsRegistry()
    protocol = AdaptiveDHBProtocol(10, slack_ladder=((0.0, 0), (0.5, 4)))
    protocol.bind_metrics(registry)
    for slot in range(40):
        protocol.handle_request(slot)
    snapshot = registry.to_dict()["counters"]
    assert snapshot["protocol.requests"] == 40
    assert snapshot["protocol.instances_scheduled"] == protocol.schedule.total_instances
    assert snapshot["protocol.retunes"] == len(protocol.retunes) >= 1


def test_release_before_keeps_serving():
    protocol = AdaptiveDHBProtocol(8, slack_ladder=((0.0, 0), (1.0, 3)))
    for slot in range(50):
        protocol.handle_request(slot)
    protocol.release_before(40)
    protocol.handle_request(60)  # future lists self-prune; no stale sharing
    assert protocol.slot_load(61) >= 0


def test_repr_mentions_slack_and_retunes():
    protocol = AdaptiveDHBProtocol(10)
    text = repr(protocol)
    assert "AdaptiveDHBProtocol" in text and "slack=0" in text


# ---------------------------------------------------------------------------
# Shared DHB admission == an independent per-segment bisect loop
# ---------------------------------------------------------------------------

class BisectAdaptiveDHB(AdaptiveDHBProtocol):
    """Oracle: admission through the original per-segment bisect loop.

    Retuning and the estimator are inherited; the oracle keeps its own
    sorted per-segment future-instance lists (it never reads the
    schedule's future-instance record), and the admission methods are the
    original per-segment implementation.
    """

    def __init__(self, n_segments: int, **options):
        super().__init__(n_segments, **options)
        self._future: List[List[int]] = [[] for _ in range(n_segments)]

    def _bisect_admit(self, slot: int, plan: Optional[ClientPlan]) -> int:
        """One logical admission under the current slack; returns placements."""
        schedule = self.schedule
        slack = self.slack
        placed = 0
        for segment in range(1, self.n_segments + 1):
            future = self._future[segment - 1]
            if future:
                # Prune instances at or before `slot`: transmitted already
                # (or transmitting now — arrivals during a slot cannot
                # receive that same slot, exactly as in static DHB).
                drop = bisect.bisect_right(future, slot)
                if drop:
                    del future[:drop]
            window_end = slot + segment + slack
            if future and future[0] <= window_end:
                if plan is not None:
                    plan.assign(segment, future[0], shared=True)
                continue
            chosen = schedule.place_latest_min(slot + 1, window_end, segment)
            bisect.insort(future, chosen)
            placed += 1
            if plan is not None:
                plan.assign(segment, chosen, shared=False)
        return placed

    def handle_request(self, slot: int) -> Optional[ClientPlan]:
        """Admit one request arriving during ``slot``."""
        self._maybe_retune(slot)
        self._estimator.add(slot, 1)
        plan = ClientPlan(arrival_slot=slot) if self.track_clients else None
        placed = self._bisect_admit(slot, plan)
        self.requests_admitted += 1
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc()
            self.metrics.counter("protocol.instances_scheduled").inc(placed)
        if plan is not None:
            self.clients.append(plan)
            self.client_slacks.append(self.slack)
        return plan

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` same-slot requests in one batched admission."""
        if count <= 0:
            return
        if self.track_clients:
            for _ in range(count):
                self.handle_request(slot)
            return
        self._maybe_retune(slot)
        self._estimator.add(slot, count)
        placed = self._bisect_admit(slot, None)
        self.requests_admitted += count
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc(count)
            self.metrics.counter("protocol.instances_scheduled").inc(placed)


#: One admission call: (slot advance, request count, batched?).
admission_calls = st.lists(
    st.tuples(st.integers(0, 9), st.integers(1, 6), st.booleans()),
    min_size=1,
    max_size=60,
)

#: Ladders whose slack falls as the rate climbs: every busy spell retunes
#: the slack *down* and shrinks the windows.
falling_ladders = slack_ladders().map(
    lambda ladder: tuple(
        zip(
            [t for t, _ in ladder],
            sorted((s for _, s in ladder), reverse=True),
        )
    )
)


def assert_same_admissions(protocol, oracle, horizon):
    assert protocol.requests_admitted == oracle.requests_admitted
    assert protocol.retunes == oracle.retunes
    assert protocol.slack == oracle.slack
    assert protocol.clients == oracle.clients
    assert protocol.client_slacks == oracle.client_slacks
    assert protocol.schedule.total_instances == oracle.schedule.total_instances
    for slot in range(horizon):
        assert protocol.schedule.load(slot) == oracle.schedule.load(slot)
        assert protocol.schedule.segments_in(slot) == oracle.schedule.segments_in(slot)


@settings(max_examples=150, deadline=None)
@given(
    calls=admission_calls,
    n_segments=st.integers(1, 24),
    ladder=st.one_of(slack_ladders(), falling_ladders),
    epoch_slots=st.integers(1, 8),
    track_clients=st.booleans(),
)
@example(
    calls=[(1, 6, True)] * 6 + [(40, 1, False), (1, 1, True), (0, 2, False)],
    n_segments=6,
    ladder=((0.0, 9), (1.0, 0)),
    epoch_slots=2,
    track_clients=True,
)
def test_head_index_matches_bisect_oracle(
    calls, n_segments, ladder, epoch_slots, track_clients
):
    options = dict(
        slack_ladder=ladder,
        epoch_slots=epoch_slots,
        alpha=0.5,
        track_clients=track_clients,
    )
    protocol = AdaptiveDHBProtocol(n_segments, **options)
    oracle = BisectAdaptiveDHB(n_segments, **options)
    registry, oracle_registry = MetricsRegistry(), MetricsRegistry()
    protocol.bind_metrics(registry)
    oracle.bind_metrics(oracle_registry)
    slot = 0
    for advance, count, batched in calls:
        slot += advance
        for target in (protocol, oracle):
            if batched:
                target.handle_batch(slot, count)
            else:
                for _ in range(count):
                    target.handle_request(slot)
    horizon = slot + n_segments + max(s for _, s in ladder) + 2
    assert_same_admissions(protocol, oracle, horizon)
    assert registry.to_dict()["counters"] == oracle_registry.to_dict()["counters"]


def test_retune_down_leaves_two_future_instances():
    """A slack drop strands S_1's far instance; the next one goes in front."""
    options = dict(slack_ladder=((0.0, 6), (1.0, 0)), epoch_slots=4)
    protocol = AdaptiveDHBProtocol(4, track_clients=True, **options)
    oracle = BisectAdaptiveDHB(4, track_clients=True, **options)
    for target in (protocol, oracle):
        target.handle_request(0)  # slack 6: S_1 lands at slot 7
        for slot in range(1, 4):
            target.handle_batch(slot, 10)
        target.handle_request(4)  # epoch 1 retunes to slack 0
    assert protocol.clients[0].assignments[1] == 7
    assert [event.new_slack for event in protocol.retunes] == [0]
    assert protocol.schedule.future_instances(1, 4) == [5, 7]  # two of S_1
    latest = protocol.clients[-1]
    assert latest.assignments[1] == 5 and not latest.shared[1]
    assert_same_admissions(protocol, oracle, 20)
    # Slot 5 expires the near instance; 7 is still past the window (5, 6].
    for target in (protocol, oracle):
        target.handle_request(5)
    assert protocol.schedule.future_instances(1, 5) == [6, 7]
    assert protocol.clients[-1].assignments[1] == 6
    # Slot 6 expires that one too; the stranded instance is shared at last.
    for target in (protocol, oracle):
        target.handle_request(6)
    assert protocol.schedule.future_instances(1, 6) == [7]
    latest = protocol.clients[-1]
    assert latest.assignments[1] == 7 and latest.shared[1]
    assert_same_admissions(protocol, oracle, 20)
