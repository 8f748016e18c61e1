"""Tests for repro.protocols.sb — Skyscraper Broadcasting (paper Figure 3)."""

import pytest

from repro.errors import ConfigurationError
from repro.protocols.base import verify_static_map
from repro.protocols.sb import (
    SkyscraperBroadcasting,
    sb_map,
    sb_segments_for_streams,
    sb_streams_for_segments,
    skyscraper_widths,
)

FIGURE_3 = """\
Stream 1  S1 S1 S1 S1
Stream 2  S2 S3 S2 S3
Stream 3  S4 S5 S4 S5"""


def test_figure_3_reproduced_verbatim():
    assert sb_map(3).render(4) == FIGURE_3


def test_width_series():
    assert skyscraper_widths(9) == [1, 2, 2, 5, 5, 12, 12, 25, 25]


def test_width_cap():
    assert skyscraper_widths(8, width_cap=12) == [1, 2, 2, 5, 5, 12, 12, 12]


def test_widths_never_exceed_first_segment_of_group():
    widths = skyscraper_widths(12)
    first = 1
    for width in widths:
        assert width <= first
        first += width


def test_capacity():
    assert sb_segments_for_streams(3) == 5
    assert sb_segments_for_streams(6) == 27


def test_streams_for_segments():
    assert sb_streams_for_segments(5) == 3
    assert sb_streams_for_segments(6) == 4
    assert sb_streams_for_segments(99) == 10


def test_sb_needs_more_streams_than_fb_and_npb():
    """"SB will always require more server bandwidth than NPB and FB"."""
    from repro.protocols.fb import fb_streams_for_segments
    from repro.protocols.npb import pagoda_streams_for_segments

    for n in [5, 15, 27, 52, 99]:
        assert sb_streams_for_segments(n) >= fb_streams_for_segments(n)
        assert sb_streams_for_segments(n) >= pagoda_streams_for_segments(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_delivery_guarantee(k):
    verify_static_map(sb_map(k), exhaustive_arrivals=12 if k <= 4 else 0)


@pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
def test_two_stream_client_property(k):
    """The signature SB constraint: an STB never receives more than two
    streams at once."""
    sb = SkyscraperBroadcasting(n_streams=k)
    assert sb.max_client_streams(n_arrival_slots=120) <= 2


def test_client_downloads_meet_deadlines():
    sb = SkyscraperBroadcasting(n_streams=5)
    widths = sb.widths
    for arrival in range(30):
        intervals = sb._client_download_intervals(arrival)
        first_segment = 1
        for (start, end), width in zip(intervals, widths):
            # Group g's download must start after arrival and deliver its
            # m-th segment (start + m) no later than playout (arrival +
            # first_segment + m).
            assert start > arrival
            assert start <= arrival + first_segment
            assert end - start == width
            first_segment += width


def test_protocol_interface():
    sb = SkyscraperBroadcasting(n_segments=20)
    assert sb.n_segments >= 20
    assert sb.slot_load(7) == sb.n_streams


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        SkyscraperBroadcasting()
    with pytest.raises(ConfigurationError):
        skyscraper_widths(0)
    with pytest.raises(ConfigurationError):
        skyscraper_widths(3, width_cap=0)
    with pytest.raises(ConfigurationError):
        sb_streams_for_segments(0)


def test_segments_beyond_the_streams_rejected():
    """Three SB streams carry five segments; asking for 99 must fail, as it
    does for FB and NPB, instead of silently building a 5-segment map."""
    with pytest.raises(ConfigurationError):
        SkyscraperBroadcasting(n_streams=3, n_segments=99)
    assert SkyscraperBroadcasting(n_streams=3, n_segments=5).n_segments == 5
    assert SkyscraperBroadcasting(n_streams=3, n_segments=4).n_segments == 5
