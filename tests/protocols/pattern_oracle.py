"""Hyper-period pattern form of the fixed maps — a test-side oracle.

A pattern map stores each stream's whole repeating pattern: stream ``s``
broadcasts ``patterns[s][slot % len]``, an idle slot holds 0, and a
segment's period and first offset are found by scanning the patterns.
The tests check that the package's train form broadcasts the same segment
as this form in every slot of a hyper-period.
"""

from __future__ import annotations

from math import lcm
from typing import List, Optional, Tuple

from repro.protocols.npb import _pack
from repro.protocols.sb import skyscraper_widths

Patterns = List[List[int]]


def fb_patterns(n_streams: int, n_segments: Optional[int] = None) -> Patterns:
    """FB: stream ``s`` loops ``2**(s-1) .. 2**s - 1`` (truncated at ``n``)."""
    n_segments = n_segments or 2**n_streams - 1
    patterns = []
    for stream in range(1, n_streams + 1):
        first = 2 ** (stream - 1)
        last = min(2 * first - 1, n_segments)
        patterns.append(list(range(first, last + 1)))
    return patterns


def sb_patterns(n_streams: int, width_cap: Optional[int] = None) -> Patterns:
    """SB: stream ``g`` loops its ``W[g]`` consecutive segments."""
    patterns = []
    first = 1
    for width in skyscraper_widths(n_streams, width_cap):
        patterns.append(list(range(first, first + width)))
        first += width
    return patterns


def pagoda_patterns(n_streams: int, n_segments: Optional[int] = None) -> Patterns:
    """NPB: expand the packer's trains over each stream's lcm of periods."""
    trains = _pack(n_streams, max_segments=n_segments)
    used_streams = 1 + max(train.stream for train in trains)
    lengths = [1] * used_streams
    for train in trains:
        lengths[train.stream] = lcm(lengths[train.stream], train.period)
    patterns = [[0] * length for length in lengths]
    for train in trains:
        for slot in range(train.offset, lengths[train.stream], train.period):
            assert patterns[train.stream][slot] == 0, "pagoda trains collided"
            patterns[train.stream][slot] = train.segment
    return patterns


def hyper_period(patterns: Patterns) -> int:
    """Slots after which every stream's pattern repeats."""
    return lcm(*(len(pattern) for pattern in patterns))


def segment_at(patterns: Patterns, stream: int, slot: int) -> int:
    """Segment of 0-based ``stream`` during ``slot`` (0: idle)."""
    pattern = patterns[stream]
    return pattern[slot % len(pattern)]


def timing(patterns: Patterns, segment: int) -> Tuple[int, int]:
    """``(period, first offset)`` of ``segment``, scanned from the patterns.

    The period is the (even) gap between the segment's occurrences in its
    stream; the first offset is its first slot in ``[0, period)``.
    """
    for pattern in patterns:
        hits = [index for index, seg in enumerate(pattern) if seg == segment]
        if not hits:
            continue
        length = len(pattern)
        gaps = {
            (hits[(k + 1) % len(hits)] - hits[k]) % length or length
            for k in range(len(hits))
        }
        assert len(gaps) == 1, f"S{segment} is unevenly spaced"
        period = gaps.pop()
        return period, hits[0]
    raise AssertionError(f"S{segment} missing from the patterns")
