"""The slotted transmission schedule.

:class:`SlotSchedule` is the single mutable data structure behind every
dynamic slotted protocol here (DHB and its variants, UD, dynamic NPB).  It
records which segment instances are transmitted in which slot, and it holds
the only record of each segment's *future instances*:
``next_transmission(s)`` gives the latest one, ``future_instances`` all of
them in a slot range.

**The future-instance invariant.**  A window-based scheduler gives a
request arriving during slot ``i`` a window ``(i, i + W_j]`` per segment
``S_j``, shares a recorded instance inside it, and places a new one inside
it only when there is none.  Hence:

1. With fixed windows (``W_j = T[j]`` — the paper's DHB, UD's periodic
   marks) at most one instance of each segment is ever in the strict
   future, the latest: an earlier request ``i' <= i`` placed its instance
   at ``k <= i' + T[j] <= i + T[j]``, so if ``k > i`` it lies inside the
   new window and is shared.  One compare of ``next_transmissions``
   against ``i`` finds every segment to place.
2. When a window can be shorter than an earlier one (an adaptive slack
   drop, an interactive resume) or an in-window instance is unusable (a
   receive-cap duplicate, a failover re-homing), a new instance may land
   *before* the latest.  It goes to a sparse side table next to the
   latest-instance index, written only by such placements.  Nothing owed
   is ever moved or dropped, so a retune of the window rule cannot drop or
   delay an instance a client holds, and since placements need an empty
   window no admission schedules a segment twice (compare the
   channel-transition invariance of Rahman & Rahman, arXiv 1711.08118).

A superseded latest instance is forgotten only when it lies before the
superseding placement's window, i.e. is already transmitted, so the
queries are exact for any ``after`` at or past the latest admission slot.

Loads live in a flat ``array('q')`` indexed by ``slot - base`` (the active
span of a window-sharing protocol is bounded by the largest period): O(1)
scalar access plus a numpy view of the same buffer for vectorised window
minima.  :meth:`place_latest_min_many` fuses the DHB heuristic
(least-loaded slot, ties to the latest) with that store and the
future-instance record, and :meth:`release_before` advances the floor in
O(1) amortised time, compacting the array and pruning the side table so
memory stays flat.
Full per-slot instance lists are kept for bandwidth audits and tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SchedulingError

#: Initial capacity of the load array (grows by doubling as needed).
_INITIAL_CAPACITY = 256

#: Windows at or below this size are scanned in pure Python: per-element
#: access on an ``array('q')`` costs ~0.2 µs, so small windows beat the
#: fixed ~2 µs overhead of a numpy argmin call.
_SMALL_WINDOW = 16


class SlotSchedule:
    """Per-slot segment instances plus the per-segment future-instance record.

    Parameters
    ----------
    n_segments:
        Number of segments the video is partitioned into (segments are the
        1-based ``S_1 .. S_n`` of the paper).
    segment_weights:
        Optional per-segment weights (``segment_weights[j-1]`` for ``S_j``),
        typically the segment's byte size.  When given, :meth:`weight`
        reports the per-slot weighted load, which is how the compressed-
        video experiment accounts *transmitted bytes* rather than allocated
        stream-slots.

    Examples
    --------
    >>> schedule = SlotSchedule(n_segments=6)
    >>> schedule.add(slot=2, segment=1)
    >>> schedule.load(2)
    1
    >>> schedule.next_transmission(1)
    2
    >>> schedule.next_transmission(5) is None
    True
    >>> schedule.place_latest_min(1, 1, segment=1)  # a shorter window
    1
    >>> schedule.future_instances(1, after=0)
    [1, 2]
    """

    def __init__(self, n_segments: int, segment_weights: Optional[Sequence[float]] = None):
        if n_segments < 1:
            raise SchedulingError(f"need >= 1 segment, got {n_segments}")
        self.n_segments = int(n_segments)
        if segment_weights is None:
            self._weights = [1.0] * self.n_segments
        else:
            if len(segment_weights) != self.n_segments:
                raise SchedulingError(
                    f"{len(segment_weights)} weights for {self.n_segments} segments"
                )
            if any(w < 0 for w in segment_weights):
                raise SchedulingError("segment weights must be >= 0")
            self._weights = [float(w) for w in segment_weights]
        self._unit_weights = all(w == 1.0 for w in self._weights)
        # Load store: `_loads[slot - _base]`, valid for slots in
        # [_released_before, _base + capacity).  Cells below _released_before
        # may hold stale counts; `load()` masks them, and compaction drops
        # them entirely.  `_loads_np` is a cached zero-copy numpy view of the
        # same buffer, refreshed whenever the backing array is replaced.
        self._base = 0
        self._loads = array("q", bytes(8 * _INITIAL_CAPACITY))
        self._loads_np = np.frombuffer(self._loads, dtype=np.int64)
        self._weight_loads = (
            None if self._unit_weights else array("d", bytes(8 * _INITIAL_CAPACITY))
        )
        # Audit store: full per-slot instance lists, in add order.
        self._slots: Dict[int, List[int]] = {}
        # next_tx[j-1]: slot of S_j's latest scheduled instance, or -1.
        # Fixed-size array('q'), so the numpy view stays valid for life.
        self._next_tx = array("q", [-1] * self.n_segments)
        self._next_tx_np = np.frombuffer(self._next_tx, dtype=np.int64)
        # Side table: S_j -> ascending slots of its still-owed instances
        # earlier than the latest (see the module docstring); sparse.
        self._earlier: Dict[int, List[int]] = {}
        self._released_before = 0
        self._total_instances = 0

    @property
    def total_instances(self) -> int:
        """Total segment instances ever added (never decremented by GC)."""
        return self._total_instances

    @property
    def next_transmissions(self) -> np.ndarray:
        """Read-only numpy view of per-segment future-instance slots.

        Entry ``j - 1`` is the slot of ``S_j``'s latest scheduled instance,
        or ``-1`` when none was ever scheduled.  This is the vectorised
        counterpart of :meth:`next_transmission`; callers must treat it as
        read-only (it aliases the live index).
        """
        return self._next_tx_np

    def _check_segment(self, segment: int) -> None:
        if not 1 <= segment <= self.n_segments:
            raise SchedulingError(
                f"segment S{segment} outside S1..S{self.n_segments}"
            )

    def _ensure_capacity(self, slot: int) -> None:
        """Slide the array past released slots and grow it (by doubling,
        never in place) until ``slot`` has a backing cell."""
        shift = self._released_before - self._base
        capacity = len(self._loads)
        while capacity < slot - self._released_before + 1:
            capacity *= 2
        fresh = self._loads[shift:]
        fresh.extend(bytes(8 * (capacity - len(fresh))))
        self._replace_loads(fresh)
        if self._weight_loads is not None:
            fresh_w = self._weight_loads[shift:]
            fresh_w.extend(bytes(8 * (capacity - len(fresh_w))))
            self._weight_loads = fresh_w
        self._base = self._released_before

    def _replace_loads(self, fresh: array) -> None:
        self._loads = fresh
        self._loads_np = np.frombuffer(fresh, dtype=np.int64)

    def _record(self, segment: int, slot: int, first_slot: int) -> None:
        """Index a new instance of ``segment`` placed at ``slot``.

        ``first_slot`` is the start of the window it was placed in: a
        superseded latest instance before it is already transmitted and is
        forgotten; any other earlier instance goes to the side table.
        """
        latest = self._next_tx[segment - 1]
        if slot > latest:
            self._next_tx[segment - 1] = slot
            if latest < first_slot:
                return
            slot = latest
        insort(self._earlier.setdefault(segment, []), slot)

    def add(self, slot: int, segment: int, first_slot: Optional[int] = None) -> None:
        """Schedule one instance of ``segment`` in ``slot``.

        ``first_slot`` is the start of the admission window the slot was
        chosen from (default: ``slot`` itself); it tells the future-instance
        record which superseded instances are still owed.
        """
        if not 1 <= segment <= self.n_segments:
            self._check_segment(segment)
        if slot < self._released_before:
            raise SchedulingError(
                f"slot {slot} already released (< {self._released_before})"
            )
        loads = self._loads
        index = slot - self._base
        if index >= len(loads):
            self._ensure_capacity(slot)
            loads = self._loads
            index = slot - self._base
        loads[index] += 1
        if self._weight_loads is not None:
            self._weight_loads[index] += self._weights[segment - 1]
        bucket = self._slots.get(slot)
        if bucket is None:
            self._slots[slot] = [segment]
        else:
            bucket.append(segment)
        self._total_instances += 1
        self._record(segment, slot, slot if first_slot is None else first_slot)

    def load(self, slot: int) -> int:
        """Number of instances scheduled in ``slot`` (streams of rate ``b``)."""
        if slot < self._released_before:
            return 0
        index = slot - self._base
        if index >= len(self._loads):
            return 0
        return self._loads[index]

    def weight(self, slot: int) -> float:
        """Weighted load of ``slot`` (bytes, when weights are byte sizes)."""
        if self._weight_loads is None:
            return float(self.load(slot))
        if slot < self._released_before:
            return 0.0
        index = slot - self._base
        if index >= len(self._weight_loads):
            return 0.0
        return self._weight_loads[index]

    def segments_in(self, slot: int) -> List[int]:
        """The segment instances scheduled in ``slot`` (copy, in add order)."""
        return list(self._slots.get(slot, ()))

    def next_transmission(self, segment: int):
        """Slot of ``segment``'s latest scheduled instance, or ``None``.

        Callers compare this against the current slot: an instance at a slot
        ``> current`` is in the future and can be shared.
        """
        self._check_segment(segment)
        slot = self._next_tx[segment - 1]
        return None if slot < 0 else slot

    def future_instances(
        self, segment: int, after: int, last: Optional[int] = None
    ) -> List[int]:
        """Ascending slots of ``segment``'s instances in ``(after, last]``.

        ``last=None`` leaves the range open.  Exact for any ``after`` at or
        past the slot of the latest admission (see the module docstring);
        O(1) unless the side table holds the segment.
        """
        self._check_segment(segment)
        latest = self._next_tx[segment - 1]
        if latest <= after:
            return []
        earlier = self._earlier.get(segment)
        found = [] if earlier is None else earlier[bisect_right(earlier, after) :]
        found.append(latest)
        if last is not None and latest > last:
            del found[bisect_right(found, last) :]
        return found

    def has_instance_within(self, segment: int, first_slot: int, last_slot: int) -> bool:
        """Whether ``segment`` has an instance in ``[first_slot, last_slot]``."""
        return bool(self.future_instances(segment, first_slot - 1, last_slot))

    def place_latest_min(self, first_slot: int, last_slot: int, segment: int) -> int:
        """Add ``segment`` at the least-loaded slot of ``[first_slot,
        last_slot]``, latest tie wins; returns the slot.

        Bit-for-bit the choice of the paper's heuristic
        (:func:`repro.core.heuristic.latest_min_load_chooser`).
        """
        return self.place_latest_min_many(first_slot, (last_slot,), (segment,))[0]

    def place_latest_min_many(
        self, first_slot: int, last_slots: Sequence[int], segments: Sequence[int]
    ) -> List[int]:
        """The admission kernel: place ``segments[k]`` at the least-loaded,
        latest slot of ``[first_slot, last_slots[k]]``, in order.

        Loads are read live (each placement sees the previous ones), with
        the bounds checks and one capacity reservation hoisted out of the
        loop.  Returns the chosen slots, ``result[k]`` for ``segments[k]``.
        """
        if len(last_slots) != len(segments):
            raise SchedulingError(
                f"{len(last_slots)} windows for {len(segments)} segments"
            )
        if not segments:
            return []
        for segment in segments:
            if not 1 <= segment <= self.n_segments:
                self._check_segment(segment)
        if first_slot < self._released_before:
            raise SchedulingError(
                f"window start {first_slot} below released floor "
                f"{self._released_before}"
            )
        highest = max(last_slots)
        if highest - self._base >= len(self._loads):
            self._ensure_capacity(highest)
        loads = self._loads
        loads_np = self._loads_np
        weight_loads = self._weight_loads
        weights = self._weights
        occupied = self._slots
        next_tx = self._next_tx
        base = self._base
        low = first_slot - base
        chosen_slots: List[int] = []
        for last_slot, segment in zip(last_slots, segments):
            if last_slot < first_slot:
                raise SchedulingError(
                    f"empty slot window [{first_slot}, {last_slot}]"
                )
            high = last_slot - base
            if high - low < _SMALL_WINDOW:
                chosen_index = high
                best_load = loads[high]
                for index in range(high - 1, low - 1, -1):
                    load = loads[index]
                    if load < best_load:
                        chosen_index, best_load = index, load
            else:
                chosen_index = high - int(loads_np[low : high + 1][::-1].argmin())
            chosen = base + chosen_index
            loads[chosen_index] += 1
            if weight_loads is not None:
                weight_loads[chosen_index] += weights[segment - 1]
            bucket = occupied.get(chosen)
            if bucket is None:
                occupied[chosen] = [segment]
            else:
                bucket.append(segment)
            latest = next_tx[segment - 1]
            if latest < first_slot and chosen > latest:
                next_tx[segment - 1] = chosen
            else:
                self._record(segment, chosen, first_slot)
            chosen_slots.append(chosen)
        self._total_instances += len(segments)
        return chosen_slots

    def release_before(self, slot: int) -> None:
        """Drop per-slot bookkeeping for slots ``< slot`` (bounded memory).

        O(released audit entries) amortised, independent of the slot gap:
        sparse traces may jump the floor forward by millions of slots and
        pay only for the (small) set of actually occupied slots.
        """
        if slot <= self._released_before:
            return
        occupied = self._slots
        if occupied:
            gap = slot - self._released_before
            if gap <= len(occupied):
                for old in range(self._released_before, slot):
                    occupied.pop(old, None)
            else:
                for old in [s for s in occupied if s < slot]:
                    del occupied[old]
        self._released_before = slot
        earlier = self._earlier
        if earlier:
            for segment in [j for j, slots in earlier.items() if slots[0] < slot]:
                slots = earlier[segment]
                del slots[: bisect_left(slots, slot)]
                if not slots:
                    del earlier[segment]
        # Keep the backing array aligned with the active span: once the
        # released prefix dominates the capacity, slide the window forward
        # (amortised O(1) per released slot).
        if slot - self._base >= len(self._loads):
            # Everything stored is released; restart the array at the floor.
            self._base = slot
            self._replace_loads(array("q", bytes(8 * len(self._loads))))
            if self._weight_loads is not None:
                self._weight_loads = array("d", bytes(8 * len(self._weight_loads)))
        elif slot - self._base > max(_INITIAL_CAPACITY, len(self._loads) // 2):
            self._ensure_capacity(slot)

    def occupied_slots(self) -> List[int]:
        """Sorted list of not-yet-released slots carrying any instance."""
        return sorted(self._slots)
