"""Tests for repro.core.schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import reschedule_instance
from repro.core.adaptive import AdaptiveDHBProtocol
from repro.core.bandwidth_limited import BandwidthLimitedDHB
from repro.core.dhb import DHBProtocol
from repro.core.heuristic import latest_min_load_chooser
from repro.core.interactive import InteractiveDHB
from repro.core.schedule import SlotSchedule
from repro.errors import SchedulingError


def test_add_and_load():
    schedule = SlotSchedule(n_segments=5)
    schedule.add(3, 1)
    schedule.add(3, 2)
    schedule.add(4, 1)
    assert schedule.load(3) == 2
    assert schedule.load(4) == 1
    assert schedule.load(5) == 0
    assert schedule.total_instances == 3


def test_segments_in_preserves_order_and_copies():
    schedule = SlotSchedule(n_segments=5)
    schedule.add(2, 3)
    schedule.add(2, 1)
    listed = schedule.segments_in(2)
    assert listed == [3, 1]
    listed.append(99)
    assert schedule.segments_in(2) == [3, 1]


def test_next_transmission_tracks_latest():
    schedule = SlotSchedule(n_segments=5)
    assert schedule.next_transmission(1) is None
    schedule.add(2, 1)
    schedule.add(5, 1)
    assert schedule.next_transmission(1) == 5


def test_has_instance_within():
    schedule = SlotSchedule(n_segments=5)
    schedule.add(4, 2)
    assert schedule.has_instance_within(2, 2, 5)
    assert not schedule.has_instance_within(2, 5, 9)
    assert not schedule.has_instance_within(3, 0, 100)


def test_release_before_bounds_memory_but_keeps_index():
    schedule = SlotSchedule(n_segments=3)
    schedule.add(1, 1)
    schedule.add(10, 2)
    schedule.release_before(5)
    assert schedule.load(1) == 0  # released
    assert schedule.load(10) == 1
    # The next-transmission index survives GC.
    assert schedule.next_transmission(2) == 10
    assert schedule.occupied_slots() == [10]


def test_adding_into_released_slot_rejected():
    schedule = SlotSchedule(n_segments=3)
    schedule.release_before(10)
    with pytest.raises(SchedulingError):
        schedule.add(5, 1)


def test_release_is_idempotent():
    schedule = SlotSchedule(n_segments=3)
    schedule.add(8, 1)
    schedule.release_before(5)
    schedule.release_before(3)  # going backwards is a no-op
    assert schedule.load(8) == 1


def test_segment_bounds_checked():
    schedule = SlotSchedule(n_segments=3)
    with pytest.raises(SchedulingError):
        schedule.add(1, 0)
    with pytest.raises(SchedulingError):
        schedule.add(1, 4)
    with pytest.raises(SchedulingError):
        schedule.next_transmission(99)


def test_invalid_sizes():
    with pytest.raises(SchedulingError):
        SlotSchedule(n_segments=0)


def test_release_before_large_slot_jump():
    """Regression: a sparse trace may jump the floor forward by millions of
    slots; the release must pay for occupied slots, not for the gap."""
    schedule = SlotSchedule(n_segments=4)
    schedule.add(3, 1)
    schedule.add(10, 2)
    schedule.release_before(10**9)  # O(gap) would take minutes here
    assert schedule.occupied_slots() == []
    assert schedule.load(3) == 0
    assert schedule.load(10) == 0
    assert schedule.load(10**9 + 5) == 0
    # The floor moved: old slots are rejected, new ones work.
    with pytest.raises(SchedulingError):
        schedule.add(10, 1)
    schedule.add(10**9 + 2, 3)
    assert schedule.load(10**9 + 2) == 1
    assert schedule.next_transmission(3) == 10**9 + 2


def test_interleaved_adds_and_large_releases():
    schedule = SlotSchedule(n_segments=3)
    slot = 0
    for hop in (1, 7, 5_000, 123, 10**6, 42):
        schedule.add(slot + 2, 1)
        schedule.add(slot + 2, 3)
        assert schedule.load(slot + 2) == 2
        slot += hop
        schedule.release_before(slot)
    assert schedule.total_instances == 12


class TestChooseLatestMin:
    """``place_latest_min`` picks the slot of the paper's reference rule."""

    def test_matches_reference_chooser(self):
        for first, last in ((1, 4), (2, 2), (1, 6), (3, 5)):
            schedule = SlotSchedule(n_segments=6)
            for slot, segment in ((1, 1), (2, 2), (2, 3), (4, 4)):
                schedule.add(slot, segment)
            expected = latest_min_load_chooser(schedule.load, first, last)
            assert schedule.place_latest_min(first, last, 5) == expected

    def test_large_window_uses_vector_path(self):
        schedule = SlotSchedule(n_segments=99)
        schedule.add(30, 1)
        schedule.add(77, 2)
        # Window of 99 slots (> the small-window threshold).
        expected = latest_min_load_chooser(schedule.load, 1, 99)
        assert schedule.place_latest_min(1, 99, 3) == expected

    def test_empty_window_rejected(self):
        schedule = SlotSchedule(n_segments=2)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(3, 2, 1)


class TestPlaceLatestMin:
    def test_places_where_choose_would(self):
        reference = SlotSchedule(n_segments=4)
        fused = SlotSchedule(n_segments=4)
        for slot, segment in ((1, 1), (3, 2), (3, 3)):
            reference.add(slot, segment)
            fused.add(slot, segment)
        expected = latest_min_load_chooser(reference.load, 1, 4)
        reference.add(expected, 4)
        chosen = fused.place_latest_min(1, 4, 4)
        assert chosen == expected
        for slot in range(6):
            assert fused.segments_in(slot) == reference.segments_in(slot)
        assert fused.next_transmission(4) == reference.next_transmission(4)

    def test_validates_like_add(self):
        schedule = SlotSchedule(n_segments=2)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(1, 3, 9)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(4, 3, 1)
        schedule.release_before(5)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(3, 8, 1)


@given(
    instances=st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 8)), max_size=60
    ),
    first=st.integers(0, 50),
    width=st.integers(0, 30),
)
def test_choose_latest_min_agrees_with_reference(instances, first, width):
    """Property: the fused placement == the paper's reference rule, always."""
    schedule = SlotSchedule(n_segments=8)
    for slot, segment in instances:
        schedule.add(slot, segment)
    last = first + width
    expected = latest_min_load_chooser(schedule.load, first, last)
    assert schedule.place_latest_min(first, last, 1) == expected


@given(
    instances=st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 8)), max_size=40
    ),
    first=st.integers(0, 40),
    windows=st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 8)), min_size=1, max_size=12
    ),
    origin=st.sampled_from([0, 300, 1000]),
)
def test_place_latest_min_many_returns_the_single_call_slots(
    instances, first, windows, origin
):
    """Property: the fused loop returns the slots single placements choose.

    A released ``origin`` moves the load store's base off zero, so store
    offsets and absolute slots differ.
    """
    fused, single = SlotSchedule(n_segments=8), SlotSchedule(n_segments=8)
    for schedule in (fused, single):
        schedule.release_before(origin)
        for slot, segment in instances:
            schedule.add(origin + slot, segment)
    first += origin
    last_slots = [first + width for width, _ in windows]
    segments = [segment for _, segment in windows]
    chosen = fused.place_latest_min_many(first, last_slots, segments)
    assert chosen == [
        single.place_latest_min(first, last, segment)
        for last, segment in zip(last_slots, segments)
    ]
    assert all(type(slot) is int for slot in chosen)
    for slot in range(first + 32):
        assert fused.segments_in(slot) == single.segments_in(slot)
    assert fused.total_instances == single.total_instances


def test_place_latest_min_many_with_no_windows_places_nothing():
    schedule = SlotSchedule(n_segments=2)
    assert schedule.place_latest_min_many(1, [], []) == []
    assert schedule.total_instances == 0


@given(
    instances=st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 5)), max_size=40
    ),
    floor=st.integers(0, 250),
)
def test_release_keeps_loads_consistent(instances, floor):
    """Property: after any release, loads match a dict-of-lists rebuild."""
    schedule = SlotSchedule(n_segments=5)
    expected = {}
    for slot, segment in instances:
        schedule.add(slot, segment)
        expected.setdefault(slot, []).append(segment)
    schedule.release_before(floor)
    for slot in range(260):
        want = len(expected.get(slot, ())) if slot >= floor else 0
        assert schedule.load(slot) == want


class TestWeights:
    def test_default_weights_are_unit(self):
        schedule = SlotSchedule(n_segments=3)
        schedule.add(1, 2)
        schedule.add(1, 3)
        assert schedule.weight(1) == pytest.approx(2.0)

    def test_custom_weights_accumulate(self):
        schedule = SlotSchedule(n_segments=3, segment_weights=[10.0, 20.0, 30.0])
        schedule.add(5, 1)
        schedule.add(5, 3)
        assert schedule.weight(5) == pytest.approx(40.0)
        assert schedule.load(5) == 2

    def test_weight_gc(self):
        schedule = SlotSchedule(n_segments=2, segment_weights=[5.0, 5.0])
        schedule.add(1, 1)
        schedule.release_before(2)
        assert schedule.weight(1) == 0.0

    def test_weight_validation(self):
        with pytest.raises(SchedulingError):
            SlotSchedule(n_segments=2, segment_weights=[1.0])
        with pytest.raises(SchedulingError):
            SlotSchedule(n_segments=2, segment_weights=[1.0, -1.0])


# ---------------------------------------------------------------------------
# The future-instance record == a brute-force scan of the audit store
# ---------------------------------------------------------------------------

#: One step on a schedule shared by every DHB variant (see the property).
record_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.integers(1, 4)),
        st.tuples(st.just("static"), st.integers(1, 3)),
        st.tuples(st.just("adaptive"), st.integers(1, 3)),
        st.tuples(st.just("resume"), st.integers(1, 8)),
        st.tuples(st.just("capped"), st.integers(1, 2)),
        st.tuples(st.just("failover"), st.integers(1, 8), st.integers(1, 6)),
        st.tuples(st.just("release"), st.just(0)),
    ),
    min_size=1,
    max_size=50,
)


def scanned_instances(schedule, segment, after, last):
    return [
        slot
        for slot in schedule.occupied_slots()
        if after < slot <= last
        for placed in schedule.segments_in(slot)
        if placed == segment
    ]


@settings(max_examples=120, deadline=None)
@given(steps=record_steps, track_clients=st.booleans(), high_slack=st.integers(1, 6))
def test_future_instances_match_a_scan_of_the_schedule(steps, track_clients, high_slack):
    """Static, adaptive (slack drops), resumed and capped admissions, and
    failover placements, interleaved on one schedule: its future-instance
    queries always list exactly what the per-slot audit store holds."""
    n = 8
    static = DHBProtocol(n, track_clients=track_clients)
    adaptive = AdaptiveDHBProtocol(
        n,
        slack_ladder=((0.0, high_slack), (1.0, 0)),  # busy spells drop the slack
        epoch_slots=2,
        alpha=0.5,
        track_clients=track_clients,
    )
    interactive = InteractiveDHB(n, track_clients=track_clients)
    capped = BandwidthLimitedDHB(n, client_cap=1, track_clients=track_clients)
    schedule = static.schedule
    for protocol in (adaptive, interactive, capped):
        protocol.schedule = schedule
    now = 0
    for kind, *args in steps:
        if kind == "advance":
            now += args[0]
        elif kind == "static":
            static.handle_batch(now, args[0])
        elif kind == "adaptive":
            adaptive.handle_batch(now, args[0])
        elif kind == "resume":
            interactive.handle_request(now, start_segment=args[0])
        elif kind == "capped":
            for _ in range(args[0]):
                capped.handle_request(now)
        elif kind == "failover":
            segment, span = args
            reschedule_instance(static, now + 1, segment, now + span)
        else:
            schedule.release_before(now)
        horizon = now + n + high_slack + 2
        for segment in range(1, n + 1):
            for after in (now, now + 2):
                for last in (None, now + 3, horizon):
                    expected = scanned_instances(
                        schedule, segment, after, horizon if last is None else last
                    )
                    assert schedule.future_instances(segment, after, last) == expected
                    assert schedule.has_instance_within(
                        segment, after + 1, horizon if last is None else last
                    ) == bool(expected)
