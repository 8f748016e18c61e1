"""Slot-synchronous simulation driver.

Every slotted protocol in this reproduction (DHB, UD, dynamic NPB, and the
fixed broadcasting schedules FB/NPB/SB) advances in slots of duration ``d``:
requests arriving *during* slot ``i`` are granted a transmission schedule
that starts at the beginning of slot ``i + 1`` — which is why ``d`` is also
the maximum customer waiting time.

:class:`SlottedSimulation` feeds arrival times to a protocol slot by slot and
measures per-slot bandwidth.  A slot's load is final once every request from
earlier slots has been processed (no protocol may schedule into the current
or a past slot), so the driver records slot ``s`` just before delivering the
arrivals of slot ``s``.

Two execution paths produce bit-for-bit identical results:

* the **scalar path** delivers arrivals one at a time through
  :meth:`SlottedModel.handle_request` and is taken whenever a per-slot trace
  sink is attached (traces need the exact per-request cadence), when the
  arrivals are a generic Python sequence, or when ``columnar=False``;
* the **columnar path** pre-buckets the whole (numpy) arrival trace into
  slots with one ``np.searchsorted`` against the slot boundaries and hands
  each slot's batch to :meth:`SlottedModel.handle_batch` — one protocol call
  per *occupied slot* instead of one per request, which is what makes
  10M-request horizons tractable.

Waiting-time statistics stream in bounded memory on both paths: a running
sum/max (bit-identical to the list-based fold they replaced) plus a
fixed-size :class:`~repro.sim.sketches.BinnedQuantileSketch` over ``[0, d]``
for the tail (p50/p99).  The columnar path folds them after its slot loop,
from the trace alone and in fixed-size chunks.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .recorder import SlotLoadRecorder
from .sketches import BinnedQuantileSketch
from .stats import OnlineStats

if TYPE_CHECKING:  # imported lazily to keep the sim layer import-light
    from ..obs.registry import MetricsRegistry
    from ..obs.trace import TraceSink


class SlottedModel(abc.ABC):
    """Interface the slotted driver requires of a protocol.

    Implementations live in :mod:`repro.core` (DHB) and
    :mod:`repro.protocols` (FB, NPB, SB, UD, dynamic NPB).

    Observability: protocols may emit admission/stream metrics through the
    shared hook — :meth:`bind_metrics` stores a registry on the instance,
    and :meth:`emit_metric` increments a counter when one is bound (and
    costs one attribute read otherwise).  The driver additionally asks
    :meth:`slot_instances` for the segment numbers behind a slot's load
    when a trace sink is attached.
    """

    #: Bound metrics registry, or ``None`` (class default: observability off).
    metrics: Optional["MetricsRegistry"] = None

    def bind_metrics(self, registry: Optional["MetricsRegistry"]) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        self.metrics = registry

    def emit_metric(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` on the bound registry, if any."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    @abc.abstractmethod
    def handle_request(self, slot: int) -> None:
        """Admit a request that arrived during ``slot``.

        The protocol must arrange for every segment to reach this client on
        time, scheduling transmissions into slots ``>= slot + 1`` only.
        """

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` requests that all arrived during ``slot``.

        The default loops over :meth:`handle_request`, so every existing
        protocol keeps working under the columnar driver.  Protocols whose
        same-slot admissions are idempotent (DHB with sharing, the
        on-demand map protocols, the fixed schedules) override this with a
        true batched implementation: one admission pass plus O(1)
        bookkeeping for the remaining ``count - 1`` requests, observably
        identical to the loop.
        """
        for _ in range(count):
            self.handle_request(slot)

    @abc.abstractmethod
    def slot_load(self, slot: int) -> int:
        """Number of segment instances transmitted during ``slot``.

        Each instance occupies one data stream of the video consumption rate
        for the whole slot, so this *is* the instantaneous server bandwidth
        in units of ``b``.
        """

    def release_before(self, slot: int) -> None:
        """Allow the protocol to drop bookkeeping for slots ``< slot``.

        Optional; the default keeps everything (fine for short runs).
        """

    def slot_weight(self, slot: int) -> float:
        """Weighted load of ``slot``; defaults to the instance count.

        Protocols carrying per-segment byte sizes (the compressed-video DHB
        variants) override this so the driver can account *transmitted
        bytes* per slot alongside occupied streams.
        """
        return float(self.slot_load(slot))

    def slot_instances(self, slot: int) -> List[int]:
        """Segment numbers scheduled in ``slot`` (for per-slot traces).

        Optional; protocols that keep a full schedule override this.  The
        default (no per-instance bookkeeping) reports an empty list, which
        trace consumers must treat as "unknown", not "idle".
        """
        return []


@dataclass
class SlottedResult:
    """Outcome of one slotted simulation run.

    Bandwidths are in units of the video consumption rate ``b`` (i.e. data
    streams), exactly as in Figures 7 and 8 of the paper.
    """

    slot_duration: float
    slots_measured: int
    mean_streams: float
    max_streams: float
    n_requests: int
    mean_wait: float
    max_wait: float
    mean_weight: float = 0.0
    max_weight: float = 0.0
    series: List[int] = field(default_factory=list)
    #: Streamed waiting-time quantiles (bin-upper-edge estimates over
    #: ``[0, d]``; 0.0 when no post-warmup request was measured).
    wait_p50: float = 0.0
    wait_p99: float = 0.0
    #: Which driver path produced this result (columnar = batched slots).
    columnar: bool = False

    def scaled_mean(self, stream_bandwidth: float) -> float:
        """Mean server bandwidth when each stream carries ``stream_bandwidth``.

        Used by the compressed-video experiment (Figure 9), where bandwidth
        is reported in bytes/second rather than stream counts.
        """
        return self.mean_streams * stream_bandwidth

    def scaled_max(self, stream_bandwidth: float) -> float:
        """Peak server bandwidth when each stream carries ``stream_bandwidth``."""
        return self.max_streams * stream_bandwidth


#: Bins of the waiting-time sketch: slot-duration / WAIT_SKETCH_BINS of
#: quantile resolution (a few milliseconds at figure-7 slot lengths).
WAIT_SKETCH_BINS = 2048

#: Arrivals per chunk of the columnar path's wait fold: large enough to
#: amortise NumPy call overhead, small enough to keep the fold's
#: temporaries at a few MB however long the trace.
WAIT_FOLD_CHUNK = 1 << 16


class SlottedSimulation:
    """Drives a :class:`SlottedModel` over a request trace.

    Parameters
    ----------
    protocol:
        The slotted protocol under test.
    slot_duration:
        Slot length ``d`` in seconds.
    horizon_slots:
        Total number of slots to simulate (including warmup).
    warmup_slots:
        Initial slots excluded from bandwidth statistics.
    keep_series:
        Keep the per-slot load series on the result (memory grows linearly).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The driver
        feeds the post-warmup load summary into the ``sim.slot_load``
        histogram, counts slots/requests, times the run, and binds the
        registry to the protocol so admissions emit their own metrics.
        ``None`` (the default) keeps the hot loop free of metric calls.
    trace:
        Optional :class:`~repro.obs.trace.TraceSink` receiving one record
        per simulated slot (see :mod:`repro.obs.trace` for the schema).
        Attaching a trace forces the scalar path — trace records carry the
        exact per-request cadence of the slow-path semantics.
    trace_context:
        Extra fields (protocol label, rate, ...) copied into every trace
        record.
    columnar:
        Allow the batched fast path for numpy arrival arrays (default).
        ``False`` forces the scalar path — used by equivalence tests and
        the speedup benches; results are bit-for-bit identical either way.
    """

    def __init__(
        self,
        protocol: SlottedModel,
        slot_duration: float,
        horizon_slots: int,
        warmup_slots: int = 0,
        keep_series: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
        trace: Optional["TraceSink"] = None,
        trace_context: Optional[Dict] = None,
        columnar: bool = True,
    ):
        if slot_duration <= 0:
            raise ConfigurationError(f"slot_duration must be > 0, got {slot_duration}")
        if horizon_slots <= warmup_slots:
            raise ConfigurationError(
                f"horizon_slots ({horizon_slots}) must exceed warmup_slots "
                f"({warmup_slots})"
            )
        self.protocol = protocol
        self.slot_duration = float(slot_duration)
        self.horizon_slots = int(horizon_slots)
        self.warmup_slots = int(warmup_slots)
        self.keep_series = keep_series
        self.metrics = metrics
        self.trace = trace
        self.trace_context = dict(trace_context or {})
        self.columnar = columnar

    def run(self, arrival_times: Sequence[float]) -> SlottedResult:
        """Simulate the protocol over ``arrival_times`` (seconds, sorted).

        Arrivals beyond the horizon are ignored.  Returns the measured
        bandwidth and waiting-time statistics.  Accepts any sorted,
        indexable sequence — typically the runner's (read-only, shared)
        numpy trace — and never copies it.

        Numpy arrays take the columnar path (sortedness checked once,
        upfront) unless a trace sink is attached or ``columnar=False``;
        generic sequences take the scalar path with the incremental
        sortedness check.  Both paths return identical results.
        """
        arrivals = arrival_times
        if isinstance(arrivals, np.ndarray) and arrivals.ndim == 1:
            # Sortedness hoisted out of the hot loop: one vectorised pass
            # over the whole trace instead of a compare per delivery.
            if arrivals.size > 1 and not bool(
                np.all(arrivals[1:] >= arrivals[:-1])
            ):
                raise SimulationError("arrival times must be sorted")
            if self.columnar and self.trace is None:
                return self._run_columnar(arrivals)
            return self._run_scalar(arrivals, presorted=True)
        return self._run_scalar(arrivals, presorted=False)

    def _run_scalar(
        self, arrivals: Sequence[float], presorted: bool
    ) -> SlottedResult:
        """Per-request delivery loop (the reference semantics)."""
        d = self.slot_duration
        metrics = self.metrics
        trace = self.trace
        recorder = SlotLoadRecorder(
            self.warmup_slots, keep_series=self.keep_series, registry=metrics
        )
        weight_stats = OnlineStats()
        wait_sketch = BinnedQuantileSketch(d, WAIT_SKETCH_BINS)
        wait_sum = 0.0
        wait_max = 0.0
        measured_requests = 0
        previous = -math.inf
        arrival_index = 0
        ignored = 0
        n_arrivals = len(arrivals)
        if metrics is not None:
            self.protocol.bind_metrics(metrics)
            run_span = metrics.timer("sim.run_seconds").time()
            run_span.__enter__()

        for slot in range(self.horizon_slots):
            # All requests from slots < slot have been processed, so the load
            # of `slot` is final: no future request may touch it (protocols
            # only schedule into slots >= slot + 1).
            recorder.record(slot, self.protocol.slot_load(slot))
            if slot >= self.warmup_slots:
                weight_stats.add(self.protocol.slot_weight(slot))

            slot_end = (slot + 1) * d
            first_index = arrival_index
            first_ignored = ignored
            while arrival_index < n_arrivals and arrivals[arrival_index] < slot_end:
                t = arrivals[arrival_index]
                if not presorted:
                    if t < previous:
                        raise SimulationError("arrival times must be sorted")
                    previous = t
                if t >= slot * d:  # ignore arrivals before the simulated epoch
                    self.protocol.handle_request(slot)
                    if slot >= self.warmup_slots:
                        # Service begins at the next slot boundary.
                        wait = slot_end - t
                        wait_sum += wait
                        if wait > wait_max:
                            wait_max = wait
                        wait_sketch.add(wait)
                        measured_requests += 1
                else:
                    ignored += 1
                arrival_index += 1

            if trace is not None:
                record = dict(self.trace_context)
                record.update(
                    kind="slot",
                    slot=slot,
                    streams=self.protocol.slot_load(slot),
                    weight=self.protocol.slot_weight(slot),
                    instances=self.protocol.slot_instances(slot),
                    arrivals=arrival_index - first_index - (ignored - first_ignored),
                    measured=slot >= self.warmup_slots,
                )
                trace.emit(record)
            # Released only now so the trace could still read the slot; the
            # numbers are unchanged (releases only drop slots < slot).
            self.protocol.release_before(slot)

        recorder.finish()
        if metrics is not None:
            run_span.__exit__(None, None, None)
            metrics.counter("sim.slots").inc(self.horizon_slots)
            metrics.counter("sim.requests").inc(arrival_index - ignored)
            metrics.counter("sim.arrivals_ignored").inc(ignored)
            metrics.gauge("sim.warmup_slots").set(self.warmup_slots)
        return self._result(
            recorder, weight_stats, wait_sketch, wait_sum, wait_max,
            measured_requests, columnar=False,
        )

    def _run_columnar(self, arrivals: np.ndarray) -> SlottedResult:
        """Batched delivery: one :meth:`SlottedModel.handle_batch` per slot.

        The whole trace is bucketed into slots with a single
        ``np.searchsorted`` against the slot boundaries, and the slot loop
        pays only for admission and load recording.  A slotted wait is
        ``boundary(slot) - t`` whatever the protocol does, so the waits are
        folded afterwards from the trace alone (:meth:`_fold_waits`).
        Memory stays bounded: no per-request Python objects, a fixed-size
        wait sketch, and the protocol releases slots as the loop advances.
        """
        d = self.slot_duration
        protocol = self.protocol
        metrics = self.metrics
        horizon = self.horizon_slots
        warmup = self.warmup_slots
        recorder = SlotLoadRecorder(
            warmup, keep_series=self.keep_series, registry=metrics
        )
        weight_stats = OnlineStats()
        if metrics is not None:
            protocol.bind_metrics(metrics)
            run_span = metrics.timer("sim.run_seconds").time()
            run_span.__enter__()

        # Slot boundaries (s+1)*d, computed exactly as the scalar loop does
        # (int -> float64 conversion then one multiply); cuts[s] counts the
        # arrivals strictly before the end of slot s.
        boundaries = np.arange(1, horizon + 1, dtype=np.int64) * d
        cuts = np.searchsorted(arrivals, boundaries, side="left")
        n_within = int(cuts[-1])
        # Arrivals before the simulated epoch (t < 0) land in slot 0's
        # bucket but are never delivered — same rule as the scalar loop.
        ignored = int(np.searchsorted(arrivals, 0.0, side="left"))

        record = recorder.record
        add_weight = weight_stats.add
        slot_load = protocol.slot_load
        slot_weight = protocol.slot_weight
        handle_batch = protocol.handle_batch
        release_before = protocol.release_before
        begin = ignored
        for slot, end in enumerate(cuts.tolist()):
            record(slot, slot_load(slot))
            if slot >= warmup:
                add_weight(slot_weight(slot))
            if end > begin:
                handle_batch(slot, end - begin)
                begin = end
            release_before(slot)

        recorder.finish()
        # Measured arrivals start after the warmup slots' buckets (which
        # hold every pre-epoch arrival) or, without warmup, after those.
        start = int(cuts[warmup - 1]) if warmup else ignored
        wait_sketch = BinnedQuantileSketch(d, WAIT_SKETCH_BINS)
        wait_sum, wait_max = self._fold_waits(
            arrivals, boundaries, cuts, start, wait_sketch
        )
        if metrics is not None:
            run_span.__exit__(None, None, None)
            metrics.counter("sim.slots").inc(horizon)
            metrics.counter("sim.requests").inc(n_within - ignored)
            metrics.counter("sim.arrivals_ignored").inc(ignored)
            metrics.gauge("sim.warmup_slots").set(warmup)
        return self._result(
            recorder, weight_stats, wait_sketch, wait_sum, wait_max,
            n_within - start, columnar=True,
        )

    @staticmethod
    def _fold_waits(
        arrivals: np.ndarray,
        boundaries: np.ndarray,
        cuts: np.ndarray,
        start: int,
        wait_sketch: BinnedQuantileSketch,
    ) -> Tuple[float, float]:
        """Sum and max of the waits of arrivals ``start .. cuts[-1] - 1``.

        Runs in chunks of :data:`WAIT_FOLD_CHUNK` arrivals, in arrival
        order.  Slot ``s`` holds arrivals ``cuts[s-1] .. cuts[s] - 1``, so
        a chunk's boundaries are its slots' boundaries repeated by their
        counts inside the chunk.  A ``cumsum`` seeded with the running
        total is the same left-to-right fold the scalar path performs, so
        the sum is bit-for-bit identical, and the sketch's counts commute.
        """
        wait_sum = 0.0
        wait_max = 0.0
        stop = int(cuts[-1])
        for low in range(start, stop, WAIT_FOLD_CHUNK):
            high = min(low + WAIT_FOLD_CHUNK, stop)
            first_slot = int(np.searchsorted(cuts, low, side="right"))
            end_slot = int(np.searchsorted(cuts, high - 1, side="right")) + 1
            counts = np.diff(np.minimum(cuts[first_slot:end_slot], high), prepend=low)
            waits = np.repeat(boundaries[first_slot:end_slot], counts) - arrivals[low:high]
            wait_sketch.add_array(waits)
            wait_max = max(wait_max, float(waits.max()))
            waits[0] += wait_sum
            wait_sum = float(waits.cumsum()[-1])
        return wait_sum, wait_max

    def _result(
        self,
        recorder: SlotLoadRecorder,
        weight_stats: OnlineStats,
        wait_sketch: BinnedQuantileSketch,
        wait_sum: float,
        wait_max: float,
        measured_requests: int,
        columnar: bool,
    ) -> SlottedResult:
        """Reduce the shared accumulators to a :class:`SlottedResult`."""
        return SlottedResult(
            slot_duration=self.slot_duration,
            slots_measured=recorder.slots_measured,
            mean_streams=recorder.mean_load,
            max_streams=recorder.max_load,
            n_requests=measured_requests,
            mean_wait=wait_sum / measured_requests if measured_requests else 0.0,
            max_wait=wait_max,
            mean_weight=weight_stats.mean,
            max_weight=weight_stats.maximum if weight_stats.count else 0.0,
            series=recorder.series,
            wait_p50=wait_sketch.quantile(0.5) if measured_requests else 0.0,
            wait_p99=wait_sketch.quantile(0.99) if measured_requests else 0.0,
            columnar=columnar,
        )
