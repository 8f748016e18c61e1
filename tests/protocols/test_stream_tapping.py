"""Tests for repro.protocols.stream_tapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.protocols.stream_tapping import StreamTappingProtocol
from repro.sim.continuous import ContinuousSimulation
from repro.workload.arrivals import PoissonArrivals

from .interval_oracle import subtract, total_length


def make(duration=100.0, **kwargs):
    kwargs.setdefault("expected_rate_per_hour", 360.0)
    return StreamTappingProtocol(duration=duration, **kwargs)


def test_first_request_gets_complete_stream():
    st = make()
    assert st.handle_request(0.0) == [(0.0, 100.0)]
    assert st.complete_streams == 1


def test_second_request_full_tap():
    st = make()
    st.handle_request(0.0)
    assert st.handle_request(4.0) == [(4.0, 8.0)]


def test_extra_tapping_reduces_cost():
    st = make()
    st.handle_request(0.0)
    st.handle_request(4.0)
    pieces = st.handle_request(6.0)
    # Taps [2,4) of the previous 4-second tap: pays 2*(6-4) = 4 s total.
    assert pieces == [(6.0, 8.0), (10.0, 12.0)]
    total = sum(end - start for start, end in pieces)
    assert total == pytest.approx(4.0)


def test_without_extra_tapping_cost_is_delta():
    st = make(extra_tapping=False)
    st.handle_request(0.0)
    st.handle_request(4.0)
    pieces = st.handle_request(6.0)
    assert pieces == [(6.0, 12.0)]  # the whole 6-second prefix


def test_chained_taps_across_many_members():
    """Manual trace of extra tapping at a steady 10-second cadence.

    A member's pieces are transmitted just-in-time, so a newcomer can only
    capture positions >= (its arrival - the member's arrival):

    * t=10: nothing to tap -> pays its 10 s prefix, pieces [0,10).
    * t=20: the t=10 member finished transmitting exactly at 20 -> pays 20.
    * t=30: taps [10,20) from the t=20 member -> pays [0,10) + [20,30) = 20.
    * t=40: only [20,30) of the t=30 member is still capturable -> pays 30.
    """
    st = make(restart_window=1000.0, duration=1000.0)
    st.handle_request(0.0)
    costs = []
    for t in [10.0, 20.0, 30.0, 40.0]:
        pieces = st.handle_request(t)
        costs.append(sum(e - s for s, e in pieces))
    assert costs == pytest.approx([10.0, 20.0, 20.0, 30.0])
    # Every cost is bounded by the full-tap fallback.
    for t, cost in zip([10.0, 20.0, 30.0, 40.0], costs):
        assert cost <= t


def test_restart_window_triggers_new_complete_stream():
    st = make(restart_window=10.0)
    st.handle_request(0.0)
    result = st.handle_request(50.0)
    assert result == [(50.0, 150.0)]
    assert st.complete_streams == 2


def test_group_expires_with_video_end():
    st = make(restart_window=1e9)
    st.handle_request(0.0)
    result = st.handle_request(150.0)  # past the end of the complete stream
    assert result == [(150.0, 250.0)]
    assert st.complete_streams == 2


def test_optimal_window_used_when_rate_given():
    st = StreamTappingProtocol(duration=7200.0, expected_rate_per_hour=10.0)
    window = st.restart_window()
    lam = 10.0 / 3600.0
    expected = (np.sqrt(1 + 2 * lam * 7200.0) - 1) / lam
    assert window == pytest.approx(expected)


def test_online_rate_estimate_adapts():
    st = StreamTappingProtocol(duration=7200.0)
    assert st.restart_window() == pytest.approx(7200.0)  # no estimate yet
    for t in np.arange(0.0, 3600.0, 60.0):
        st.handle_request(float(t))
    # ~60 requests/hour: the adaptive window must now be far below D.
    assert st.restart_window() < 3000.0


def test_subnormal_gap_gives_a_zero_window_not_nan():
    """A subnormal gap makes the online rate infinite; the window is its limit."""
    st = StreamTappingProtocol(duration=100.0)
    st.handle_request(0.0)
    # A NaN window would let this request tap the group: [(0.0, 2.2e-311)].
    assert st.handle_request(2.2e-311) == [(2.2e-311, 100.0)]
    assert st.complete_streams == 2
    assert st.restart_window() == 0.0


def test_overflowing_rate_gives_a_zero_window_not_nan():
    """A finite rate whose 2·λ·D overflows must not turn the window to NaN."""
    st = StreamTappingProtocol(duration=7200.0, expected_rate_per_hour=1e308)
    assert st.restart_window() == 0.0
    st.handle_request(0.0)
    assert st.handle_request(0.5) == [(0.5, 7200.5)]
    assert st.complete_streams == 2


def test_zero_delay():
    assert make().startup_delay(5.0) == 0.0


def test_mean_cost_tracks_patching_theory(rng):
    """With extra tapping the measured cost must beat plain patching but
    stay in its ballpark."""
    from repro.analysis.theory import patching_cost_rate

    duration, rate = 7200.0, 20.0
    st = StreamTappingProtocol(duration, expected_rate_per_hour=rate)
    horizon = 400 * 3600.0
    sim = ContinuousSimulation(st, horizon, warmup=horizon * 0.05)
    times = PoissonArrivals(rate).generate(horizon, rng)
    result = sim.run(times)
    theory = patching_cost_rate(rate / 3600.0, duration)
    assert result.mean_streams <= theory * 1.05
    assert result.mean_streams >= theory * 0.5


def test_validation():
    with pytest.raises(ConfigurationError):
        StreamTappingProtocol(duration=0.0)


def test_negative_restart_window_rejected():
    with pytest.raises(ConfigurationError):
        StreamTappingProtocol(duration=100.0, restart_window=-1.0)


def test_negative_expected_rate_rejected():
    with pytest.raises(ConfigurationError):
        StreamTappingProtocol(duration=100.0, expected_rate_per_hour=-10.0)


class MemberListStreamTapping(StreamTappingProtocol):
    """Reference oracle: the member-list algorithm the latest-owner map replaced.

    Every request rescans all earlier group members' pieces, clips each at
    ``time - t_j`` and subtracts their sorted union from ``[0, Δ)``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._members = []

    def _start_group(self, time):
        self._members = []
        return super()._start_group(time)

    def handle_request(self, time):
        self._observe_gap(time)
        self.requests_served += 1
        if self._group_start is None or time >= self._group_start + self.duration:
            return self._start_group(time)
        delta = time - self._group_start
        if delta > self.restart_window():
            return self._start_group(time)
        gaps = self._uncovered_prefix(time, delta)
        self._members.append((time, gaps))
        return [(time + a, time + b) for a, b in gaps]

    def _uncovered_prefix(self, time, delta):
        if not self.extra_tapping or not self._members:
            return [(0.0, delta)] if delta > 0 else []
        return subtract((0.0, delta), self._live_covers(time))

    def _live_covers(self, time):
        covers = []
        for member_arrival, pieces in self._members:
            earliest_position = time - member_arrival
            for piece_start, piece_end in pieces:
                start = max(piece_start, earliest_position)
                if start < piece_end:
                    covers.append((start, piece_end))
        return covers


#: Arrival lists: coarse grids force duplicate timestamps and exact ties
#: between piece ends and ``time - t_j``; raw floats exercise rounding.
arrival_lists = st.one_of(
    st.lists(st.integers(0, 400), max_size=60).map(lambda xs: sorted(x / 4 for x in xs)),
    st.lists(st.floats(0, 400, allow_nan=False), max_size=60).map(sorted),
)
window_options = st.one_of(
    st.fixed_dictionaries({"restart_window": st.sampled_from([0.0, 7.5, 40.0, 1e9])}),
    st.fixed_dictionaries({"restart_window": st.floats(0, 200)}),
    st.fixed_dictionaries({"expected_rate_per_hour": st.floats(1, 5000)}),
    st.just({}),  # online rate estimate
)


@settings(max_examples=300, deadline=None)
@given(
    arrivals=arrival_lists,
    duration=st.sampled_from([25.0, 60.0, 150.0, 1000.0]),
    window=window_options,
    extra_tapping=st.booleans(),
)
def test_latest_owner_map_matches_member_list(arrivals, duration, window, extra_tapping):
    """The latest-owner map answers every request bit-for-bit like the oracle."""
    st_ = StreamTappingProtocol(duration, extra_tapping=extra_tapping, **window)
    oracle = MemberListStreamTapping(duration, extra_tapping=extra_tapping, **window)
    for time in arrivals:
        groups_before = oracle.complete_streams
        covers = oracle._live_covers(time) if extra_tapping else []
        assert st_.handle_request(time) == oracle.handle_request(time)
        assert st_.complete_streams == oracle.complete_streams
        assert st_.requests_served == oracle.requests_served
        if oracle.complete_streams != groups_before:
            assert st_._owners == []
            continue
        delta = time - oracle._group_start
        gaps = oracle._members[-1][1]
        # Partition: the gaps plus the live covers tile [0, delta) ...
        clipped = [(a, min(b, delta)) for a, b in covers]
        assert total_length(gaps) + total_length(clipped) == pytest.approx(delta, abs=1e-6)
        for gap_start, gap_end in gaps:
            assert 0.0 <= gap_start < gap_end <= delta
            # ... and no gap meets a live cover.
            for cover_start, cover_end in covers:
                assert gap_end <= cover_start or gap_start >= cover_end
        if extra_tapping:
            # The map tiles [0, delta) contiguously, and the newcomer owns its gaps.
            bounds = [0.0] + [end for _, end, _ in st_._owners]
            assert [start for start, _, _ in st_._owners] == bounds[:-1]
            assert bounds[-1] == (delta if st_._owners else 0.0)
            owned = [(a, b) for a, b, owner in st_._owners if owner == time]
            assert all(any(a <= s and e <= b for a, b in owned) for s, e in gaps)
