"""Tests for repro.protocols.dsb — dynamic skyscraper broadcasting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.protocols.dsb import DynamicSkyscraperProtocol
from repro.protocols.sb import sb_streams_for_segments
from repro.protocols.ud import UniversalDistributionProtocol
from repro.sim.slotted import SlottedSimulation
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals


def test_idle_system_costs_nothing():
    dsb = DynamicSkyscraperProtocol(n_streams=4)
    assert all(dsb.slot_load(s) == 0 for s in range(30))


def test_one_request_marks_one_cycle_per_group():
    dsb = DynamicSkyscraperProtocol(n_streams=3)  # widths 1, 2, 2
    dsb.handle_request(slot=0)
    # S1's slot, then one W=2 cycle on each of streams 2 and 3.
    total = sum(dsb.slot_load(s) for s in range(1, 10))
    assert total == 1 + 2 + 2


def test_marking_is_idempotent():
    dsb = DynamicSkyscraperProtocol(n_streams=3)
    dsb.handle_request(slot=0)
    loads = [dsb.slot_load(s) for s in range(10)]
    dsb.handle_request(slot=0)
    assert [dsb.slot_load(s) for s in range(10)] == loads


def test_cycles_meet_sb_deadlines():
    """Each marked cycle delivers group g's segments by their playout slots
    (the same latest-cycle rule the static SB client uses)."""
    dsb = DynamicSkyscraperProtocol(n_streams=5)
    for arrival in range(20):
        first = 1
        for width in dsb.widths:
            cycle = ((arrival + first) // width) * width
            # Segment first+m arrives during cycle+m <= arrival+first+m, and
            # reception starts after the arrival slot.
            assert cycle > arrival
            assert cycle <= arrival + first
            first += width


def test_saturation_reverts_to_sb():
    dsb = DynamicSkyscraperProtocol(n_segments=99)
    k = sb_streams_for_segments(99)
    sim = SlottedSimulation(dsb, 1.0, 400, warmup_slots=100)
    times = DeterministicArrivals(interval=0.5).generate(400.0, np.random.default_rng(0))
    result = sim.run(times)
    assert result.mean_streams == pytest.approx(float(k))


def test_needs_more_bandwidth_than_ud_at_saturation():
    """"it also requires a higher server bandwidth than the UD protocol"."""
    def saturated(protocol):
        sim = SlottedSimulation(protocol, 1.0, 400, warmup_slots=100)
        times = DeterministicArrivals(interval=0.5).generate(
            400.0, np.random.default_rng(0)
        )
        return sim.run(times).mean_streams

    dsb_mean = saturated(DynamicSkyscraperProtocol(n_segments=99))
    ud_mean = saturated(UniversalDistributionProtocol(n_segments=99))
    assert dsb_mean > ud_mean


def test_low_rate_far_below_saturation(rng):
    dsb = DynamicSkyscraperProtocol(n_segments=99)
    d = 7200.0 / 99
    sim = SlottedSimulation(dsb, d, 2000, warmup_slots=200)
    times = PoissonArrivals(3.0).generate(2000 * d, rng)
    result = sim.run(times)
    assert result.mean_streams < 0.5 * dsb.n_streams


def test_release_before_prunes():
    dsb = DynamicSkyscraperProtocol(n_streams=3)
    dsb.handle_request(slot=0)
    dsb.release_before(50)
    assert all(len(marks) == 0 for marks in dsb._marked_cycles.values())
    dsb.handle_request(slot=50)
    assert sum(dsb.slot_load(s) for s in range(50, 60)) > 0


def test_validation():
    with pytest.raises(ConfigurationError):
        DynamicSkyscraperProtocol()


def test_segments_beyond_the_streams_rejected():
    with pytest.raises(ConfigurationError):
        DynamicSkyscraperProtocol(n_streams=3, n_segments=99)
    assert DynamicSkyscraperProtocol(n_streams=3, n_segments=5).n_segments == 5
