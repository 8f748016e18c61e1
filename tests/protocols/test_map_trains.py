"""Static maps as periodic trains: validation, and equivalence with the
hyper-period pattern form of ``pattern_oracle``."""

import pytest

from repro.errors import SchedulingError
from repro.protocols.base import StaticMap, Train
from repro.protocols.dnpb import DynamicPagodaProtocol
from repro.protocols.fb import fb_map
from repro.protocols.npb import pagoda_capacity, pagoda_map
from repro.protocols.sb import sb_map
from repro.protocols.ud import UniversalDistributionProtocol

from . import pattern_oracle as oracle


def assert_same_broadcasts(static_map, patterns):
    assert static_map.n_streams == len(patterns)
    for slot in range(oracle.hyper_period(patterns)):
        expected = [
            oracle.segment_at(patterns, stream, slot) for stream in range(len(patterns))
        ]
        actual = [
            static_map.segment_at(stream, slot)
            for stream in range(static_map.n_streams)
        ]
        assert actual == expected, slot
        assert static_map.segments_in_slot(slot) == [s for s in expected if s], slot


@pytest.mark.parametrize("k", range(1, 7))
def test_fb_trains_match_patterns(k):
    assert_same_broadcasts(fb_map(k), oracle.fb_patterns(k))


@pytest.mark.parametrize("n", [64, 80, 99, 127])
def test_truncated_fb_trains_match_patterns(n):
    assert_same_broadcasts(fb_map(7, n), oracle.fb_patterns(7, n))


@pytest.mark.parametrize("k", range(1, 7))
def test_sb_trains_match_patterns(k):
    assert_same_broadcasts(sb_map(k), oracle.sb_patterns(k))


def test_capped_sb_trains_match_patterns():
    assert_same_broadcasts(sb_map(8, width_cap=5), oracle.sb_patterns(8, width_cap=5))


@pytest.mark.parametrize("k", range(1, 5))
def test_pagoda_trains_match_patterns(k):
    assert_same_broadcasts(pagoda_map(k), oracle.pagoda_patterns(k))


@pytest.mark.parametrize("n", range(1, pagoda_capacity(4) + 1))
def test_partial_pagoda_trains_match_patterns(n):
    assert_same_broadcasts(pagoda_map(4, n), oracle.pagoda_patterns(4, n))


@pytest.mark.parametrize(
    ("protocol", "patterns"),
    [
        (UniversalDistributionProtocol(n_segments=99), oracle.fb_patterns(7, 99)),
        (DynamicPagodaProtocol(n_segments=99), oracle.pagoda_patterns(6, 99)),
    ],
    ids=["fb_map(7, 99)", "pagoda_map(6, 99)"],
)
def test_on_demand_timing_matches_pattern_scan(protocol, patterns):
    for segment in range(1, protocol.n_segments + 1):
        period, offset = oracle.timing(patterns, segment)
        assert protocol.map.period_of(segment) == period
        assert protocol.next_occurrence(segment, 0) == offset
        assert protocol.next_occurrence(segment, offset + 1) == offset + period


def test_six_stream_pagoda_map_is_one_train_per_segment():
    m = pagoda_map(6)
    assert len(m.trains) == m.n_segments == 203
    assert m.n_streams == 6
    assert [train.segment for train in m.trains] == list(range(1, 204))


def test_streams_are_derived_from_the_trains():
    m = StaticMap([Train(0, 1, 0, 1), Train(2, 2, 1, 2)])
    assert m.n_streams == 3
    assert m.segments_in_slot(0) == [1]
    assert m.segments_in_slot(1) == [1, 2]
    assert m.segment_at(1, 5) == 0
    assert m.render(2) == "Stream 1  S1 S1\nStream 2  S0 S0\nStream 3  S0 S2"


@pytest.mark.parametrize(
    "trains",
    [
        [Train(0, 1, 0, 1), Train(1, 1, 0, 3)],  # S2 missing
        [Train(0, 1, 0, 1), Train(1, 2, 0, 1), Train(1, 2, 1, 2)],  # S1 twice
        [Train(0, 1, 0, 1), Train(1, 2, 0, 0)],  # S0 is the idle marker
        [Train(0, 1, 0, 1), Train(1, 0, 0, 2)],  # period below 1
        [Train(0, 1, 0, 1), Train(1, 2, 2, 2)],  # offset past the period
        [Train(0, 1, 0, 1), Train(1, 2, -1, 2)],  # negative offset
        [Train(-1, 1, 0, 1)],  # negative stream
        [Train(0, 1, 0, 1), Train(1, 4, 0, 2), Train(1, 6, 2, 3)],  # 0 ≡ 2 mod 2
        [Train(0, 1, 0, 1), Train(0, 2, 1, 2)],  # S2 on S1's full stream
    ],
)
def test_malformed_trains_rejected(trains):
    with pytest.raises(SchedulingError):
        StaticMap(trains)
