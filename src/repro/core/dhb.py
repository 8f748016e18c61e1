"""The Dynamic Heuristic Broadcasting protocol (the paper's Figure 6).

Algorithm, verbatim from the paper::

    Assumptions:
        slot k already contains m_k segment instances
        video contains n segments
        new video request arrives during slot i
    Algorithm:
        for j := 1 to n do
            search slots i+1 to i+j for an already scheduled instance of S_j
            if not found then
                let m_min := min { m_k | i+1 <= k <= i+j }
                let k_max := max { k | i+1 <= k <= i+j and m_k = m_min }
                schedule one instance of S_j in slot k_max
            end if
        end for loop

Section 4 replaces the window bound ``i + j`` by ``i + T[j]`` for compressed
video; the uniform CBR case is just ``T[j] = j``.  The heuristic is pluggable
(see :mod:`repro.core.heuristic`) so the ablation benches can swap it.

:meth:`DHBProtocol._admit` is the one admission routine of every DHB
variant, over the future-instance record of :mod:`repro.core.schedule`.
Window ends are ``i + T[j]`` plus a per-admission offset, floored at
``i + 1``; the variants override only its hooks:

* :class:`~repro.core.adaptive.AdaptiveDHBProtocol` adds its slack and
  hands out the earliest shareable instance;
* :class:`~repro.core.interactive.InteractiveDHB` gives a resume at
  ``S_j0`` the windows ``max(T[j] - T[j0] + 1, 1)``;
* :class:`~repro.core.bandwidth_limited.BandwidthLimitedDHB` filters the
  shared instances and the placement slots by its receive cap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..errors import ConfigurationError
from ..sim.slotted import SlottedModel
from .client import ClientPlan
from .heuristic import SlotChooser, latest_min_load_chooser
from .periods import PeriodVector
from .schedule import SlotSchedule


class DHBProtocol(SlottedModel):
    """Dynamic Heuristic Broadcasting.

    Parameters
    ----------
    n_segments:
        Number of equal-duration segments (99 in Figures 7 and 8).
    periods:
        Maximum-period vector ``T``; defaults to the uniform CBR vector
        ``T[j] = j``.  May also be given as a plain sequence.
    chooser:
        Slot-selection heuristic; defaults to the paper's
        least-loaded/latest-tie rule.
    enable_sharing:
        Ablation switch: ``False`` skips the "already scheduled?" check and
        schedules every segment for every request.  Isolates how much of
        DHB's bandwidth saving comes from sharing (all of it, at high rates).
    segment_weights:
        Optional per-segment byte sizes.  ``slot_weight`` then reports the
        bytes transmitted per slot (compressed-video accounting, Figure 9);
        ``slot_load`` remains the occupied stream count.
    track_clients:
        Keep every admitted request's :class:`~repro.core.client.ClientPlan`
        (memory grows with request count — used by tests and examples, not by
        long sweeps).

    Examples
    --------
    The paper's Figure 4 — a request into an idle system during slot 1 gets
    segment ``S_j`` scheduled in slot ``j + 1``:

    >>> protocol = DHBProtocol(n_segments=6, track_clients=True)
    >>> plan = protocol.handle_request(slot=1)
    >>> plan.assignments
    {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7}

    Figure 5 — a second request during slot 3 shares ``S_3 .. S_6`` and only
    adds ``S_1`` in slot 4 and ``S_2`` in slot 5:

    >>> plan = protocol.handle_request(slot=3)
    >>> {j: s for j, s in plan.assignments.items() if not plan.shared[j]}
    {1: 4, 2: 5}
    """

    #: Windows never shorter than an earlier admission's (the paper's fixed
    #: ``T[j]``): a future latest instance is then always shareable.
    fixed_windows = True

    #: Segments a client may receive per slot; ``None`` is unbounded.
    client_cap: Optional[int] = None

    def __init__(
        self,
        n_segments: Optional[int] = None,
        periods: Union[PeriodVector, List[int], None] = None,
        chooser: SlotChooser = latest_min_load_chooser,
        enable_sharing: bool = True,
        segment_weights: Optional[List[float]] = None,
        track_clients: bool = False,
    ):
        if periods is None:
            if n_segments is None:
                raise ConfigurationError("give n_segments or an explicit periods vector")
            periods = PeriodVector.uniform(n_segments)
        elif not isinstance(periods, PeriodVector):
            periods = PeriodVector(periods)
        if n_segments is not None and n_segments != periods.n_segments:
            raise ConfigurationError(
                f"n_segments ({n_segments}) conflicts with periods "
                f"(n={periods.n_segments})"
            )
        self.periods = periods
        self.chooser = chooser
        self.enable_sharing = enable_sharing
        self.schedule = SlotSchedule(periods.n_segments, segment_weights)
        self.track_clients = track_clients
        self.clients: List[ClientPlan] = []
        self.requests_admitted = 0
        self._period_list = periods.as_list()
        self._periods_np = np.asarray(self._period_list, dtype=np.int64)

    @property
    def n_segments(self) -> int:
        """Number of segments ``n``."""
        return self.periods.n_segments

    def handle_request(self, slot: int) -> Optional[ClientPlan]:
        """Admit a request that arrived during ``slot`` (Figure 6).

        Returns the client's reception plan when ``track_clients`` is on.
        """
        return self._admit(slot, 1, 1)

    def handle_suffix_request(
        self, slot: int, first_segment: int
    ) -> Optional[ClientPlan]:
        """Admit a client that already holds segments ``1 .. first_segment-1``.

        The origin→edge hierarchy (:mod:`repro.edge`) serves prefixes from
        edge caches, so Figure 6 runs over ``first_segment .. n`` only, with
        unchanged windows (``S_j`` is still due ``T[j]`` slots after the
        join).  ``first_segment = 1`` is exactly :meth:`handle_request`; a
        fully cached title (past the last segment) never joins the origin.
        """
        if first_segment > self.n_segments:
            raise ConfigurationError(
                f"first_segment {first_segment} beyond the last segment "
                f"{self.n_segments}; fully cached titles do not join the origin"
            )
        return self._admit(slot, max(first_segment, 1), 1)

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` same-slot requests in one batched admission.

        The first request leaves every segment an instance inside every
        later same-slot request's window, so requests 2..count share
        everything: observably identical to ``count`` :meth:`handle_request`
        calls (schedule, counters, metrics) at the cost of one.
        Configurations outside the vectorised path run the scalar loop.
        """
        if count > 0:
            self._admit(slot, 1, count)

    def _open_admission(self, slot: int, first_segment: int, count: int) -> int:
        """Start an admission of ``count`` requests; return its window offset.

        The offset is added to every window end ``slot + T[j]``; the paper's
        DHB adds nothing.  Called once per :meth:`_admit`.
        """
        return 0

    def _admit(
        self, slot: int, first_segment: int, count: int
    ) -> Optional[ClientPlan]:
        """Figure 6 over segments ``first_segment .. n`` for ``count`` requests.

        ``S_j``'s window is ``[slot + 1, slot + max(T[j] + offset, 1)]``.
        With the default chooser, sharing on, no plans kept and no receive
        cap, admission is vectorised: compares over the latest-instance
        index find the segments with no shareable instance (~H(n) of n at
        saturation; one compare under :attr:`fixed_windows`, else a latest
        instance past its window defers to the side table), and
        :meth:`SlotSchedule.place_latest_min_many` places them in ascending
        segment order with live loads — bit-for-bit the generic loop, which
        every other configuration runs once per request.
        """
        schedule = self.schedule
        periods = self._period_list
        offset = self._open_admission(slot, first_segment, count)
        if (
            self.chooser is latest_min_load_chooser
            and self.enable_sharing
            and not self.track_clients
            and self.client_cap is None
        ):
            first = first_segment - 1
            latest = schedule.next_transmissions
            if first:  # no view on the batched S_1 hot path
                latest = latest[first:]
            missing = latest <= slot
            base = slot + offset
            if not self.fixed_windows:
                windows = self._periods_np[first:] + base
                if offset < 0:
                    np.maximum(windows, slot + 1, out=windows)
                # A latest instance past its window: look for an earlier one.
                for index in (latest > windows).nonzero()[0].tolist():
                    missing[index] = not schedule.has_instance_within(
                        first_segment + index, slot + 1, int(windows[index])
                    )
            indices = missing.nonzero()[0].tolist()
            if indices:
                ends = [base + periods[first + index] for index in indices]
                if offset < 0:
                    ends = [max(end, slot + 1) for end in ends]
                schedule.place_latest_min_many(
                    slot + 1, ends, [first_segment + index for index in indices]
                )
            self._count(count, len(indices))
            return None
        plan = None
        for _ in range(count):
            plan = ClientPlan(arrival_slot=slot) if self.track_clients else None
            receptions: Dict[int, int] = {}
            instances_before = schedule.total_instances
            for segment in range(first_segment, self.n_segments + 1):
                window_end = slot + max(periods[segment - 1] + offset, 1)
                chosen = (
                    self._pick_shared(
                        schedule.future_instances(segment, slot, window_end),
                        receptions,
                    )
                    if self.enable_sharing
                    else None
                )
                shared = chosen is not None
                if not shared:
                    chosen = self._place(segment, slot + 1, window_end, receptions)
                receptions[chosen] = receptions.get(chosen, 0) + 1
                if plan is not None:
                    plan.assign(segment, chosen, shared=shared)
            self._count(1, schedule.total_instances - instances_before)
            if plan is not None:
                self.clients.append(plan)
        return plan

    def _pick_shared(
        self, instances: List[int], receptions: Dict[int, int]
    ) -> Optional[int]:
        """The instance to share among those in the window (ascending), if any.

        ``receptions`` counts the client's receptions per slot so far.
        """
        return instances[-1] if instances else None

    def _place(
        self, segment: int, first_slot: int, last_slot: int, receptions: Dict[int, int]
    ) -> int:
        """Schedule a new instance of ``segment`` in the window; return its slot."""
        if self.chooser is latest_min_load_chooser:
            return self.schedule.place_latest_min(first_slot, last_slot, segment)
        chosen = self.chooser(self.schedule.load, first_slot, last_slot)
        self.schedule.add(chosen, segment, first_slot)
        return chosen

    def _count(self, requests: int, placed: int) -> None:
        """Record ``requests`` admissions that scheduled ``placed`` instances."""
        self.requests_admitted += requests
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc(requests)
            self.metrics.counter("protocol.instances_scheduled").inc(placed)

    def slot_load(self, slot: int) -> int:
        """Segment instances transmitted during ``slot`` (streams of rate b)."""
        return self.schedule.load(slot)

    def slot_weight(self, slot: int) -> float:
        """Weighted load of ``slot`` (bytes when weights are byte sizes)."""
        return self.schedule.weight(slot)

    def slot_instances(self, slot: int) -> List[int]:
        """Segment numbers scheduled in ``slot`` (for per-slot traces)."""
        return self.schedule.segments_in(slot)

    def release_before(self, slot: int) -> None:
        """Garbage-collect schedule bookkeeping for slots ``< slot``."""
        self.schedule.release_before(slot)

    def __repr__(self) -> str:
        kind = "uniform" if self.periods.is_uniform else "custom-periods"
        return (
            f"{type(self).__name__}(n_segments={self.n_segments}, {kind}, "
            f"requests={self.requests_admitted})"
        )
