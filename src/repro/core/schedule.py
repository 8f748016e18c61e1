"""The slotted transmission schedule.

:class:`SlotSchedule` is the single mutable data structure behind every
dynamic slotted protocol here (DHB, UD, dynamic NPB).  It records which
segment instances are transmitted in which slot and answers the two queries
the schedulers need:

* ``load(slot)`` — how many instances (= data streams of bandwidth ``b``)
  slot already carries, and
* ``next_transmission(segment)`` — the slot of the segment's only scheduled
  future instance, if any.

The second query exploits a structural invariant of window-based sharing
protocols: as long as every request checks the window ``[i+1, i+T[j]]``
before scheduling ``S_j``, **at most one instance of each segment is ever
scheduled in the strict future**.  (Any previous request arrived at some
``i' <= i`` and placed its instance at ``k <= i' + T[j] <= i + T[j]``; if
``k > i`` that instance lies inside the new request's window and is shared
instead of duplicated.)

Load storage is an array keyed by slot offset, not a per-slot dict: the
active slot span of a window-sharing protocol is bounded by the largest
period, so a flat ``array('q')`` indexed by ``slot - base`` gives O(1)
scalar reads/writes at CPython-attribute speed *and* a zero-copy numpy view
(:meth:`window_loads`) over any slot window for vectorised queries.
:meth:`choose_latest_min` fuses the DHB heuristic (least-loaded slot, ties
broken to the latest) with that store.  :meth:`release_before` advances the
logical floor in O(1) amortised time and periodically compacts the backing
array, keeping memory flat over arbitrarily long runs.  The schedule still
keeps full per-slot instance lists, both for bandwidth auditing and so that
tests can inspect the raw schedule.
"""

from __future__ import annotations

from array import array
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
    """Per-slot segment instances plus per-segment future-instance index.

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
        # next_tx[j-1]: slot of S_j's scheduled future instance, or -1.
        # Fixed-size array('q'), so the numpy view stays valid for life.
        self._next_tx = array("q", [-1] * self.n_segments)
        self._next_tx_np = np.frombuffer(self._next_tx, dtype=np.int64)
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
        """Grow (never in place) so that ``slot`` has a backing cell."""
        needed = slot - self._base + 1
        capacity = len(self._loads)
        # Compact first: slide the window forward past released slots.
        shift = self._released_before - self._base
        if shift > 0 and needed - shift <= capacity:
            fresh = self._loads[shift:]
            fresh.extend(bytes(8 * shift))
            self._replace_loads(fresh)
            if self._weight_loads is not None:
                fresh_w = self._weight_loads[shift:]
                fresh_w.extend(bytes(8 * shift))
                self._weight_loads = fresh_w
            self._base = self._released_before
            return
        new_capacity = capacity
        while new_capacity < needed - shift:
            new_capacity *= 2
        fresh = self._loads[shift:]
        fresh.extend(bytes(8 * (new_capacity - len(fresh))))
        self._replace_loads(fresh)
        if self._weight_loads is not None:
            fresh_w = self._weight_loads[shift:]
            fresh_w.extend(bytes(8 * (new_capacity - len(fresh_w))))
            self._weight_loads = fresh_w
        self._base += shift

    def _replace_loads(self, fresh: array) -> None:
        self._loads = fresh
        self._loads_np = np.frombuffer(fresh, dtype=np.int64)

    def add(self, slot: int, segment: int) -> None:
        """Schedule one instance of ``segment`` in ``slot``."""
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
        if slot > self._next_tx[segment - 1]:
            self._next_tx[segment - 1] = slot

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

    def has_instance_within(self, segment: int, first_slot: int, last_slot: int) -> bool:
        """Whether ``segment`` has an instance in ``[first_slot, last_slot]``.

        Uses the single-future-instance invariant, so this is O(1).
        """
        next_tx = self.next_transmission(segment)
        return next_tx is not None and first_slot <= next_tx <= last_slot

    def window_loads(self, first_slot: int, last_slot: int) -> np.ndarray:
        """Zero-copy numpy view of the loads of ``[first_slot, last_slot]``.

        The view aliases the live store: it is only valid until the next
        :meth:`add` / :meth:`release_before` and must not be written to.
        ``first_slot`` must not be below the released floor.
        """
        if last_slot < first_slot:
            raise SchedulingError(f"empty slot window [{first_slot}, {last_slot}]")
        if first_slot < self._released_before:
            raise SchedulingError(
                f"window start {first_slot} below released floor "
                f"{self._released_before}"
            )
        if last_slot - self._base >= len(self._loads):
            self._ensure_capacity(last_slot)
        base = self._base
        return self._loads_np[first_slot - base : last_slot - base + 1]

    def choose_latest_min(self, first_slot: int, last_slot: int) -> int:
        """Least-loaded slot of ``[first_slot, last_slot]``, latest tie wins.

        Fused fast path of the paper's heuristic
        (:func:`repro.core.heuristic.latest_min_load_chooser`): bit-for-bit
        the same choice, but read straight off the load array — a reverse
        Python scan for small windows, a vectorised argmin otherwise.
        """
        if last_slot < first_slot:
            raise SchedulingError(f"empty slot window [{first_slot}, {last_slot}]")
        if first_slot < self._released_before:
            raise SchedulingError(
                f"window start {first_slot} below released floor "
                f"{self._released_before}"
            )
        if last_slot - self._base >= len(self._loads):
            self._ensure_capacity(last_slot)
        base = self._base
        if last_slot - first_slot < _SMALL_WINDOW:
            loads = self._loads
            best_slot = last_slot
            best_load = loads[last_slot - base]
            for slot in range(last_slot - 1, first_slot - 1, -1):
                load = loads[slot - base]
                if load < best_load:
                    best_slot, best_load = slot, load
            return best_slot
        window = self._loads_np[first_slot - base : last_slot - base + 1]
        # argmin of the reversed view finds the first minimum from the end,
        # which *is* the latest among equals.
        return last_slot - int(window[::-1].argmin())

    def place_latest_min(self, first_slot: int, last_slot: int, segment: int) -> int:
        """Fused :meth:`choose_latest_min` + :meth:`add`; returns the slot.

        The admission hot path of the dynamic protocols: one call picks the
        least-loaded/latest slot of the window and schedules ``segment``
        there, skipping the bounds work :meth:`add` would repeat (the chosen
        slot is inside the just-validated window by construction).
        """
        if not 1 <= segment <= self.n_segments:
            self._check_segment(segment)
        if last_slot < first_slot:
            raise SchedulingError(f"empty slot window [{first_slot}, {last_slot}]")
        if first_slot < self._released_before:
            raise SchedulingError(
                f"window start {first_slot} below released floor "
                f"{self._released_before}"
            )
        loads = self._loads
        if last_slot - self._base >= len(loads):
            self._ensure_capacity(last_slot)
            loads = self._loads
        base = self._base
        low = first_slot - base
        high = last_slot - base
        if high - low < _SMALL_WINDOW:
            chosen_index = high
            best_load = loads[high]
            for index in range(high - 1, low - 1, -1):
                load = loads[index]
                if load < best_load:
                    chosen_index, best_load = index, load
        else:
            chosen_index = high - int(self._loads_np[low : high + 1][::-1].argmin())
        chosen = base + chosen_index
        loads[chosen_index] += 1
        if self._weight_loads is not None:
            self._weight_loads[chosen_index] += self._weights[segment - 1]
        bucket = self._slots.get(chosen)
        if bucket is None:
            self._slots[chosen] = [segment]
        else:
            bucket.append(segment)
        self._total_instances += 1
        if chosen > self._next_tx[segment - 1]:
            self._next_tx[segment - 1] = chosen
        return chosen

    def place_latest_min_many(
        self, first_slot: int, last_slots: Sequence[int], segments: Sequence[int]
    ) -> List[int]:
        """Fused admission loop: one :meth:`place_latest_min` per window.

        Places ``segments[k]`` at the least-loaded/latest slot of
        ``[first_slot, last_slots[k]]``, in order, reading loads live (each
        placement sees the previous ones) — bit-for-bit the sequence of
        individual :meth:`place_latest_min` calls, but with the bounds
        validation and capacity reservation hoisted out of the loop: one
        ``_ensure_capacity`` for the largest window covers every placement.
        Returns the chosen slots, ``result[k]`` for ``segments[k]``.

        This is the admission kernel of the batched protocols: a whole
        slot's worth of requests reduces (via the sharing invariant) to one
        pass over the segments that lack a shareable future instance.
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
        farthest = max(last_slots)
        if farthest < first_slot:
            raise SchedulingError(f"empty slot window [{first_slot}, {farthest}]")
        if farthest - self._base >= len(self._loads):
            self._ensure_capacity(farthest)
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
            if chosen > next_tx[segment - 1]:
                next_tx[segment - 1] = chosen
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
