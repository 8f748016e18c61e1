"""Shared machinery for the fixed (proactive) broadcasting protocols.

A fixed broadcasting protocol is completely described by a **static map**:
segment ``S_j`` rides one *train* — the arithmetic slot progression
``offset + t * period`` of one data stream — and a slot that no train
covers is idle, so a map grows with the video, never with the hyper-period
of its streams.  FB, NPB and SB differ only in their trains (the paper's
Figures 1–3), so they share :class:`StaticBroadcastProtocol`, which

* answers the slotted-simulation interface (the server bandwidth of a fixed
  protocol is simply its stream count — "their bandwidth requirements are
  not affected by the request arrival rate"), and
* exposes the map itself, so tests can verify the delivery guarantee and the
  experiment harness can print the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, List

from ..errors import ConfigurationError, SchedulingError
from ..sim.slotted import SlottedModel

#: Segment number that marks an idle slot (and a train carrying nothing yet).
IDLE = 0


@dataclass(frozen=True)
class Train:
    """Slots ``offset, offset + period, ...`` of 0-based ``stream``.

    A map train carries ``segment``; the pagoda packer also handles free
    trains, which carry :data:`IDLE`.
    """

    stream: int
    period: int
    offset: int
    segment: int = IDLE


def cycle(stream: int, first: int, last: int) -> List[Train]:
    """Trains of a stream that loops ``S_first .. S_last``, one per slot."""
    width = last - first + 1
    return [Train(stream, width, j - first, j) for j in range(first, last + 1)]


class StaticMap:
    """A fixed segment-to-stream map: ``trains[j - 1]`` carries ``S_j``.

    Raises :class:`~repro.errors.SchedulingError` unless the trains carry
    ``S_1 .. S_n`` once each, every offset lies in ``[0, period)``, and no
    two trains of one stream share a slot.
    """

    def __init__(self, trains: Iterable[Train]):
        self.trains = tuple(sorted(trains, key=lambda train: train.segment))
        self.n_segments = len(self.trains)
        for number, train in enumerate(self.trains, 1):
            if train.segment != number:
                raise SchedulingError(f"S{number} missing or a segment carried twice")
            if train.stream < 0 or not 0 <= train.offset < train.period:
                raise SchedulingError(f"malformed train {train}")
        self.n_streams = 1 + max((train.stream for train in self.trains), default=-1)
        self._streams = [
            [train for train in self.trains if train.stream == stream]
            for stream in range(self.n_streams)
        ]
        for stream in self._streams:
            for a, b in combinations(stream, 2):
                if (a.offset - b.offset) % gcd(a.period, b.period) == 0:
                    raise SchedulingError(
                        f"S{a.segment} and S{b.segment} share slots of stream "
                        f"{a.stream + 1}"
                    )

    def segment_at(self, stream: int, slot: int) -> int:
        """Segment broadcast by 0-based ``stream`` during ``slot`` (0: idle)."""
        for train in self._streams[stream]:
            if slot % train.period == train.offset:
                return train.segment
        return IDLE

    def segments_in_slot(self, slot: int) -> List[int]:
        """Segments broadcast during ``slot``, in stream order; idle streams
        contribute nothing."""
        return [
            train.segment
            for stream in self._streams
            for train in stream
            if slot % train.period == train.offset
        ]

    def period_of(self, segment: int) -> int:
        """Broadcast period of ``segment``: gap between consecutive instances."""
        if not 1 <= segment <= self.n_segments:
            raise SchedulingError(f"segment S{segment} missing from the map")
        return self.trains[segment - 1].period

    def render(self, n_slots: int = 6) -> str:
        """ASCII rendering in the style of the paper's Figures 1–3.

        >>> print(StaticMap(cycle(0, 1, 1) + cycle(1, 2, 3)).render(4))
        Stream 1  S1 S1 S1 S1
        Stream 2  S2 S3 S2 S3
        """
        width = len(f"S{self.n_segments}")
        lines = []
        for stream in range(self.n_streams):
            cells = " ".join(
                f"S{self.segment_at(stream, slot)}".ljust(width)
                for slot in range(n_slots)
            )
            lines.append(f"Stream {stream + 1}  {cells.rstrip()}")
        return "\n".join(lines)


def verify_static_map(static_map: StaticMap, exhaustive_arrivals: int = 0) -> None:
    """Check the delivery guarantee of a fixed map.

    A client arriving during slot ``i`` must find every segment ``S_j``
    broadcast at least once during ``[i+1, i+j]``.  A train broadcasts its
    segment every ``period`` slots, so the guarantee is *exactly*
    ``period <= j`` for every segment — any window of ``j`` consecutive
    slots then contains an occurrence.  The map's constructor already
    checked that every segment rides exactly one train, so this is one
    compare per segment, however long the streams' hyper-period (the
    six-stream pagoda map mixes train periods like 49, 121 and 196).

    Parameters
    ----------
    exhaustive_arrivals:
        Additionally replay this many concrete arrival slots with a sliding
        window — a redundant cross-check used by the test suite on small
        maps (0 skips it).

    Raises
    ------
    SchedulingError
        On the first violated segment or (arrival slot, segment) pair.
    """
    for train in static_map.trains:
        if train.period > train.segment:
            raise SchedulingError(
                f"S{train.segment} is broadcast every {train.period} slots, "
                f"beyond its deadline window of {train.segment}"
            )
    for arrival in range(exhaustive_arrivals):
        pending = set(range(1, static_map.n_segments + 1))
        for offset in range(1, static_map.n_segments + 1):
            slot = arrival + offset
            for segment in static_map.segments_in_slot(slot):
                pending.discard(segment)
            # Segment j's deadline is relative slot j.
            if offset in pending:
                raise SchedulingError(
                    f"arrival in slot {arrival}: S{offset} not broadcast by "
                    f"relative slot {offset}"
                )


class StaticBroadcastProtocol(SlottedModel):
    """A fixed broadcasting protocol driven by a :class:`StaticMap`.

    Requests never change the schedule; the per-slot bandwidth is always the
    stream count.  Subclasses (FB, NPB, SB) construct the map.
    """

    def __init__(self, static_map: StaticMap):
        if static_map.n_streams < 1:
            raise ConfigurationError("a broadcast protocol needs >= 1 stream")
        self.map = static_map
        self.requests_admitted = 0

    @property
    def n_segments(self) -> int:
        """Number of video segments."""
        return self.map.n_segments

    @property
    def n_streams(self) -> int:
        """Number of permanently allocated data streams."""
        return self.map.n_streams

    def handle_request(self, slot: int) -> None:
        """Requests are served by the fixed schedule; nothing to do."""
        self.requests_admitted += 1
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc()

    def handle_batch(self, slot: int, count: int) -> None:
        """Fixed schedules ignore requests entirely: O(1) per batch."""
        if count <= 0:
            return
        self.requests_admitted += count
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc(count)

    def slot_load(self, slot: int) -> int:
        """Fixed protocols keep every stream busy in every slot."""
        return self.map.n_streams

    def slot_instances(self, slot: int) -> List[int]:
        """The map's segments for ``slot`` (fixed protocols always transmit)."""
        return self.map.segments_in_slot(slot)

    def release_before(self, slot: int) -> None:
        """Stateless; nothing to release."""
