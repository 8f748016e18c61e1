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
"""

from __future__ import annotations

from typing import List, Optional, Union

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

        The origin→edge hierarchy (:mod:`repro.edge`) serves video prefixes
        from edge caches; the client joining the origin broadcast only needs
        the *suffix*, so Figure 6's loop runs over segments
        ``first_segment .. n`` with unchanged per-segment windows (segment
        ``j`` is still due ``T[j]`` slots after the join) — the paper's
        sharing rule applies to suffix joins for free.  ``first_segment = 1``
        is exactly :meth:`handle_request`; ``first_segment`` past the last
        segment is a configuration error (a fully cached title never joins
        the origin).
        """
        if first_segment > self.n_segments:
            raise ConfigurationError(
                f"first_segment {first_segment} beyond the last segment "
                f"{self.n_segments}; fully cached titles do not join the origin"
            )
        return self._admit(slot, max(first_segment, 1), 1)

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` same-slot requests in one batched admission.

        Sharing collapses a slot's batch to a single admission: the first
        request leaves every segment with a scheduled instance inside
        ``(slot, slot + T[j]]`` — inside every later same-slot request's
        window — so requests 2..count share everything and schedule
        nothing.  Observably identical to ``count`` repeated
        :meth:`handle_request` calls (schedule, counters, metrics), at the
        cost of one.

        Configurations outside the fused fast path (custom choosers,
        sharing disabled, client tracking) fall back to the scalar loop,
        whose semantics genuinely differ per request.
        """
        if count > 0:
            self._admit(slot, 1, count)

    def _admit(
        self, slot: int, first_segment: int, count: int
    ) -> Optional[ClientPlan]:
        """Figure 6 over segments ``first_segment .. n`` for ``count`` requests.

        When the chooser is the paper's default rule, sharing is on and no
        plans are kept, admission is vectorised: one compare over the
        future-instance index finds the segments with no shareable future
        instance (at saturation only ~H(n) of n qualify), and the fused
        window-min kernel (:meth:`SlotSchedule.place_latest_min_many`)
        places them in ascending segment order, reading loads live — so the
        schedule is bit-for-bit the generic loop's.  Every other
        configuration runs the generic loop once per request; custom
        :class:`SlotChooser` callables see identical semantics there.
        """
        schedule = self.schedule
        periods = self._period_list
        fused = self.chooser is latest_min_load_chooser
        if fused and self.enable_sharing and not self.track_clients:
            index = schedule.next_transmissions
            if first_segment > 1:  # no view on the batched S_1 hot path
                index = index[first_segment - 1 :]
            offsets = (index <= slot).nonzero()[0]
            placed = 0
            if offsets.size:
                segments = [offset + first_segment for offset in offsets.tolist()]
                placed = len(
                    schedule.place_latest_min_many(
                        slot + 1,
                        [slot + periods[segment - 1] for segment in segments],
                        segments,
                    )
                )
            self._count(count, placed)
            return None
        plan = None
        for _ in range(count):
            plan = ClientPlan(arrival_slot=slot) if self.track_clients else None
            instances_before = schedule.total_instances
            for segment in range(first_segment, self.n_segments + 1):
                existing = (
                    schedule.next_transmission(segment)
                    if self.enable_sharing
                    else None
                )
                if existing is not None and existing > slot:
                    # The single-future-instance invariant guarantees
                    # existing <= slot + T[segment], so it is shareable.
                    if plan is not None:
                        plan.assign(segment, existing, shared=True)
                    continue
                window_end = slot + periods[segment - 1]
                if fused:
                    chosen = schedule.choose_latest_min(slot + 1, window_end)
                else:
                    chosen = self.chooser(schedule.load, slot + 1, window_end)
                schedule.add(chosen, segment)
                if plan is not None:
                    plan.assign(segment, chosen, shared=False)
            self._count(1, schedule.total_instances - instances_before)
            if plan is not None:
                self.clients.append(plan)
        return plan

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
            f"DHBProtocol(n_segments={self.n_segments}, {kind}, "
            f"requests={self.requests_admitted})"
        )
