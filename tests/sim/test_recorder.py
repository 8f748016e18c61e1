"""Tests for repro.sim.recorder."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.recorder import SlotLoadRecorder, TimeWeightedRecorder


class TestSlotLoadRecorder:
    def test_basic_stats(self):
        rec = SlotLoadRecorder()
        for slot, load in enumerate([1, 2, 3]):
            rec.record(slot, load)
        assert rec.mean_load == pytest.approx(2.0)
        assert rec.max_load == 3
        assert rec.slots_measured == 3

    def test_warmup_discarded(self):
        rec = SlotLoadRecorder(warmup_slots=2)
        rec.record(0, 100)
        rec.record(1, 100)
        rec.record(2, 1)
        rec.record(3, 3)
        assert rec.mean_load == pytest.approx(2.0)
        assert rec.max_load == 3

    def test_series_kept_only_when_asked(self):
        rec = SlotLoadRecorder(keep_series=True)
        rec.record(0, 5)
        assert rec.series == [5]
        rec2 = SlotLoadRecorder()
        rec2.record(0, 5)
        assert rec2.series == []

    def test_negative_load_rejected(self):
        rec = SlotLoadRecorder()
        with pytest.raises(SimulationError):
            rec.record(0, -1)

    def test_negative_warmup_rejected(self):
        with pytest.raises(SimulationError):
            SlotLoadRecorder(warmup_slots=-1)

    def test_empty_recorder(self):
        rec = SlotLoadRecorder()
        assert rec.mean_load == 0.0
        assert rec.max_load == 0.0

    def test_shared_registry_keeps_per_run_stats_private(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        first = SlotLoadRecorder(registry=registry)
        first.record(0, 10)
        first.finish()
        second = SlotLoadRecorder(registry=registry)
        second.record(0, 2)
        # The second run's summary must not see the first run's samples.
        assert second.slots_measured == 1
        assert second.mean_load == pytest.approx(2.0)
        assert second.max_load == 2.0
        second.finish()
        # ...while the registry histogram pools both runs.
        pooled = registry.histogram("sim.slot_load").stats
        assert pooled.count == 2
        assert pooled.mean == pytest.approx(6.0)

    def test_finish_is_idempotent(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        rec = SlotLoadRecorder(registry=registry)
        rec.record(0, 4)
        rec.finish()
        rec.finish()
        assert registry.histogram("sim.slot_load").stats.count == 1

    def test_finish_without_registry_is_a_noop(self):
        rec = SlotLoadRecorder()
        rec.record(0, 4)
        rec.finish()
        assert rec.mean_load == pytest.approx(4.0)


class TestTimeWeightedRecorder:
    def test_single_interval(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        rec.add_interval(2.0, 7.0)
        assert rec.mean_concurrency() == pytest.approx(0.5)
        assert rec.max_concurrency() == 1

    def test_overlap_counted(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        rec.add_intervals([(0.0, 5.0), (2.0, 8.0), (4.0, 6.0)])
        assert rec.max_concurrency() == 3
        assert rec.mean_concurrency() == pytest.approx((5 + 6 + 2) / 10.0)

    def test_clipping_to_window(self):
        rec = TimeWeightedRecorder(10.0, 20.0)
        rec.add_interval(0.0, 15.0)   # clipped to [10, 15)
        rec.add_interval(18.0, 30.0)  # clipped to [18, 20)
        assert rec.total_busy_time() == pytest.approx(7.0)

    def test_interval_outside_window_ignored(self):
        rec = TimeWeightedRecorder(10.0, 20.0)
        rec.add_interval(0.0, 5.0)
        rec.add_interval(25.0, 30.0)
        assert rec.mean_concurrency() == 0.0
        assert rec.max_concurrency() == 0

    def test_back_to_back_intervals_not_double_counted(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        rec.add_interval(0.0, 5.0)
        rec.add_interval(5.0, 10.0)
        assert rec.max_concurrency() == 1

    def test_reversed_interval_rejected(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        with pytest.raises(SimulationError):
            rec.add_interval(5.0, 4.0)

    def test_empty_window_rejected(self):
        with pytest.raises(SimulationError):
            TimeWeightedRecorder(5.0, 5.0)

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda p: (min(p), max(p))
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_mean_never_exceeds_max(self, intervals):
        rec = TimeWeightedRecorder(0.0, 100.0)
        rec.add_intervals(intervals)
        assert rec.mean_concurrency() <= rec.max_concurrency() + 1e-12

    @given(
        st.lists(
            st.one_of(
                # Integer endpoints force back-to-back ties (end == next start).
                st.tuples(st.integers(-20, 120), st.integers(-20, 120)),
                st.tuples(st.floats(-20, 120), st.floats(-20, 120)),
            ).map(lambda p: (float(min(p)), float(max(p)))),
            max_size=60,
        )
    )
    @example([])
    def test_max_concurrency_matches_tuple_sort_sweep(self, intervals):
        """The NumPy sweep agrees with the Python tuple-sort sweep it replaced.

        Endpoints range past both window edges, so intervals get clipped on
        either side (or dropped entirely); the empty list is the empty
        recorder, whose peak is 0.
        """
        rec = TimeWeightedRecorder(0.0, 100.0)
        rec.add_intervals(intervals)
        points = []
        for start, end in rec._intervals:
            points.append((start, 1))
            points.append((end, -1))
        points.sort(key=lambda p: (p[0], p[1]))
        level = peak = 0
        for _, delta in points:
            level += delta
            peak = max(peak, level)
        assert rec.max_concurrency() == peak
        assert type(rec.max_concurrency()) is int
