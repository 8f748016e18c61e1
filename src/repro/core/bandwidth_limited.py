"""Extension: DHB with a bounded client receive bandwidth.

The paper's closing future-work item: "we would like to investigate dynamic
heuristic broadcasting protocols that limit the client bandwidth to two or
three data streams".  Base DHB may require a set-top box to download many
segments in the same slot; skyscraper-family protocols cap that at two.

:class:`BandwidthLimitedDHB` adds the cap: a client never receives more than
``client_cap`` segments during any one slot.  Consequences for scheduling:

* an otherwise-shareable instance is useless to a client whose cap is
  already exhausted in that slot, so the schedule may legitimately carry
  *duplicate* future instances of a segment (recorded as described in
  :mod:`repro.core.schedule`);
* a new instance must be placed in a window slot where the client still has
  reception capacity.

A greedy segment-by-segment pass remains feasible for any cap >= 1 under
uniform periods: when segment ``S_j`` is processed, the client holds ``j-1``
assignments while the window offers ``j`` slots, so at least one window slot
has spare client capacity even at ``cap == 1``.  With custom (smoothed)
period vectors a pathological vector could exhaust the window; we then raise
:class:`~repro.errors.SchedulingError` rather than silently violate either
the deadline or the cap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..errors import ConfigurationError, SchedulingError
from .dhb import DHBProtocol
from .heuristic import SlotChooser, latest_min_load_chooser
from .periods import PeriodVector


class BandwidthLimitedDHB(DHBProtocol):
    """DHB with at most ``client_cap`` concurrent receptions per client.

    Parameters
    ----------
    n_segments:
        Number of segments (uniform periods), or pass ``periods``.
    client_cap:
        Maximum segments a client may download during one slot (>= 1).
    periods:
        Optional custom maximum-period vector.
    chooser:
        Slot-selection heuristic among capacity-feasible window slots.
    track_clients:
        Keep per-client :class:`~repro.core.client.ClientPlan` objects.

    Examples
    --------
    >>> protocol = BandwidthLimitedDHB(n_segments=6, client_cap=2,
    ...                                track_clients=True)
    >>> plan = protocol.handle_request(slot=0)
    >>> plan.max_concurrent_receptions() <= 2
    True
    """

    def __init__(
        self,
        n_segments: Optional[int] = None,
        client_cap: int = 2,
        periods: Union[PeriodVector, List[int], None] = None,
        chooser: SlotChooser = latest_min_load_chooser,
        track_clients: bool = False,
    ):
        if client_cap < 1:
            raise ConfigurationError(f"client_cap must be >= 1, got {client_cap}")
        super().__init__(
            n_segments if periods is None else None,
            periods,
            chooser,
            track_clients=track_clients,
        )
        self.client_cap = int(client_cap)

    def _pick_shared(
        self, instances: List[int], receptions: Dict[int, int]
    ) -> Optional[int]:
        """Latest instance in the window where the client has capacity."""
        for slot in reversed(instances):
            if receptions.get(slot, 0) < self.client_cap:
                return slot
        return None

    def _place(
        self, segment: int, first_slot: int, last_slot: int, receptions: Dict[int, int]
    ) -> int:
        """Place ``segment`` in a window slot with spare client capacity."""
        feasible = [
            k
            for k in range(first_slot, last_slot + 1)
            if receptions.get(k, 0) < self.client_cap
        ]
        if not feasible:
            raise SchedulingError(
                f"client cap {self.client_cap} leaves no feasible slot for "
                f"S{segment} in window [{first_slot}, {last_slot}]"
            )
        chosen = self._choose_among(feasible)
        self.schedule.add(chosen, segment, first_slot)
        return chosen

    def _choose_among(self, feasible_slots: List[int]) -> int:
        """Apply the heuristic over a possibly non-contiguous slot set.

        The chooser interface works on contiguous windows, so we reproduce
        its semantics directly: least-loaded feasible slot, then delegate the
        tie-break by scanning in the chooser's preferred direction (latest
        first for the default heuristic).
        """
        best_slot = feasible_slots[-1]
        best_load = self.schedule.load(best_slot)
        for slot in reversed(feasible_slots[:-1]):
            load = self.schedule.load(slot)
            if load < best_load:
                best_slot, best_load = slot, load
        if self.chooser is latest_min_load_chooser:
            return best_slot
        # Non-default choosers: restrict to a contiguous run when possible,
        # otherwise fall back to the least-loaded/latest rule above.
        contiguous = feasible_slots == list(
            range(feasible_slots[0], feasible_slots[-1] + 1)
        )
        if contiguous:
            return self.chooser(
                self.schedule.load, feasible_slots[0], feasible_slots[-1]
            )
        return best_slot

    def __repr__(self) -> str:
        return (
            f"BandwidthLimitedDHB(n_segments={self.n_segments}, "
            f"cap={self.client_cap}, requests={self.requests_admitted})"
        )
