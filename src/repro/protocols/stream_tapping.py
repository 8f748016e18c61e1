"""Stream tapping with unlimited extra tapping (Carter & Long 1997).

The purely reactive baseline of Figure 7.  Clients have a set-top-box buffer
that "allows them to tap into streams of data on the VOD server originally
created for other clients, and then store the data until they are needed";
the figure "assumed ... an unlimited buffer size for stream tapping", and the
protocol grants instant (zero-delay) access.

Model
-----
Requests form *groups* anchored by a **complete stream** that transmits the
whole video ``[0, D)`` in real time from the group's first arrival ``t0``.

A request arriving ``Δ = t - t0`` later taps the complete stream for the
video suffix ``[Δ, D)`` (the part still to come) and must obtain the prefix
``[0, Δ)`` otherwise:

* **full tap** — its own server stream of length ``Δ``;
* **extra tapping** (unlimited) — it may additionally tap *any* earlier
  group member's partial stream.  Member ``j`` (arrival ``t_j``) transmits
  each of its own video pieces just-in-time (position ``x`` at wall time
  ``t_j + x``), so the newcomer can capture the portion of ``j``'s pieces at
  positions ``>= t - t_j``.  The newcomer's own stream then carries only the
  *uncovered gaps* of ``[0, Δ)`` — again just-in-time, which both meets every
  playout deadline and maximises what later clients can tap in turn.

When ``Δ`` exceeds a restart threshold the server starts a fresh complete
stream instead (Carter & Long's stream-restart option); we use the window
that is cost-optimal for Poisson arrivals
(:func:`repro.analysis.theory.optimal_patching_window`), either from a
configured expected rate or from an online interarrival estimate.

Latest-owner map
----------------
Position ``x`` is tappable at time ``t`` iff some member whose pieces carry
``x`` arrived at ``t_j >= t - x``; only the *latest* such arrival ``L(x)``
matters.  A newcomer's pieces are exactly the positions nobody still
covers, and its arrival is the latest so far, so ``L`` only ever changes by
"set to ``t`` on the gaps".  The group therefore keeps one sorted, disjoint
list of ``(start, end, owner)`` segments tiling ``[0, Δ_last)``, and each
request makes a single left-to-right pass over it: it emits the gaps,
keeps each segment's live part ``[max(start, t - owner), end)`` and splices
in the gaps with owner ``t``.  A dead prefix stays dead for every later
(non-decreasing) arrival, so trimming it changes no later answer.  The cost
is O(segments) per request, with no sort.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.theory import optimal_patching_window
from ..errors import ConfigurationError
from ..sim.continuous import BusyInterval, ReactiveModel
from ..units import HOUR, TWO_HOURS

#: A video piece ``[start, end)`` in seconds of playout position.
Interval = Tuple[float, float]
#: A latest-owner segment: ``(start, end, arrival of its latest owner)``.
Segment = Tuple[float, float, float]


class StreamTappingProtocol(ReactiveModel):
    """Stream tapping with optional unlimited extra tapping.

    Parameters
    ----------
    duration:
        Video length ``D`` in seconds.
    expected_rate_per_hour:
        Poisson rate used to fix the complete-stream restart window.  When
        omitted the protocol estimates the rate online (exponential moving
        average over interarrival gaps).
    extra_tapping:
        ``True`` (the paper's configuration) allows tapping other clients'
        partial streams; ``False`` degrades to plain full taps.
    restart_window:
        Explicit restart threshold in seconds, overriding the optimal
        window.

    Arrival times passed to :meth:`handle_request` must be non-decreasing,
    as :class:`~repro.sim.continuous.ContinuousSimulation` guarantees.

    Examples
    --------
    >>> st = StreamTappingProtocol(duration=100.0, expected_rate_per_hour=360.0)
    >>> st.handle_request(0.0)    # first request: a complete stream
    [(0.0, 100.0)]
    >>> st.handle_request(4.0)    # 4 s later: a 4-second full tap
    [(4.0, 8.0)]
    >>> st.handle_request(6.0)    # taps the previous client too: 2 x 2 s
    [(6.0, 8.0), (10.0, 12.0)]
    """

    def __init__(
        self,
        duration: float = TWO_HOURS,
        expected_rate_per_hour: Optional[float] = None,
        extra_tapping: bool = True,
        restart_window: Optional[float] = None,
    ):
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        if expected_rate_per_hour is not None and expected_rate_per_hour < 0:
            raise ConfigurationError(
                f"expected_rate_per_hour must be >= 0, got {expected_rate_per_hour}"
            )
        if restart_window is not None and restart_window < 0:
            raise ConfigurationError(
                f"restart_window must be >= 0, got {restart_window}"
            )
        self.duration = float(duration)
        self.extra_tapping = extra_tapping
        self._fixed_window = restart_window
        self._configured_rate = (
            expected_rate_per_hour / HOUR if expected_rate_per_hour else None
        )
        self._estimated_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None
        # Group state: complete-stream start + the latest-owner map.
        self._group_start: Optional[float] = None
        self._owners: List[Segment] = []
        self.complete_streams = 0
        self.requests_served = 0

    def restart_window(self) -> float:
        """Current complete-stream restart threshold in seconds."""
        if self._fixed_window is not None:
            return self._fixed_window
        rate = self._configured_rate
        if rate is None:
            if self._estimated_gap is None or self._estimated_gap <= 0:
                return self.duration
            rate = 1.0 / self._estimated_gap
        return optimal_patching_window(rate, self.duration)

    def _observe_gap(self, time: float) -> None:
        if self._last_arrival is not None:
            gap = time - self._last_arrival
            if self._estimated_gap is None:
                self._estimated_gap = gap
            else:  # EMA keeps the estimate adaptive to demand swings.
                self._estimated_gap = 0.9 * self._estimated_gap + 0.1 * gap
        self._last_arrival = time

    def _start_group(self, time: float) -> List[BusyInterval]:
        self._group_start = time
        self._owners = []
        self.complete_streams += 1
        return [(time, time + self.duration)]

    def handle_request(self, time: float) -> List[BusyInterval]:
        """Serve one request; returns the new server streams it costs."""
        self._observe_gap(time)
        self.requests_served += 1
        if self._group_start is None or time >= self._group_start + self.duration:
            return self._start_group(time)
        delta = time - self._group_start
        if delta > self.restart_window():
            return self._start_group(time)
        if self.extra_tapping:
            gaps = self._uncovered_prefix(time, delta)
        else:
            gaps = [(0.0, delta)] if delta > 0 else []
        # Each gap piece [a, b) of video is transmitted just-in-time,
        # i.e. during wall time [time + a, time + b).
        return [(time + a, time + b) for a, b in gaps]

    def _uncovered_prefix(self, time: float, delta: float) -> List[Interval]:
        """Video in ``[0, delta)`` not obtainable from existing streams.

        One pass over the latest-owner map: returns the gaps and makes the
        newcomer (arrival ``time``) their owner.
        """
        gaps: List[Interval] = []
        owners: List[Segment] = []
        cursor = 0.0
        for segment in self._owners:
            start, end, owner = segment
            live_from = time - owner
            if live_from > start:
                if live_from >= end:
                    continue  # dead for good: absorbed into the next gap
                start = live_from
                segment = (start, end, owner)
            if start > cursor:
                gaps.append((cursor, start))
                owners.append((cursor, start, time))
            owners.append(segment)
            cursor = end
        if cursor < delta:
            gaps.append((cursor, delta))
            owners.append((cursor, delta, time))
        self._owners = owners
        return gaps

    def startup_delay(self, time: float) -> float:
        """Stream tapping gives instant access."""
        return 0.0
