"""Per-layer ledger for the traced benchmark pass.

The ledger wraps the public entry points of each layer of ``repro`` from
outside the package: nothing under ``src/`` knows it exists, and the
wrappers are installed only for the duration of a traced pass
(:class:`Patches` puts every original back).

Two kinds of wrapper:

* **timed** boundaries record a span ``(id, parent id, key, start, end)``
  in memory.  A call that re-enters the boundary it is already inside
  (``DHBProtocol.handle_request`` delegating to ``handle_batch``, a
  superposed arrival process generating its parts) is neither timed nor
  counted again, so every span is one outermost crossing of a boundary.
* **counted** calls only bump an integer.  They cover the tiny hot calls
  (``slot_load`` runs millions of times per pass) whose span cost would
  swamp the self time of the layer that calls them.

A span's *self time* is its duration minus the durations of its direct
child spans; a *layer's* time sums the spans whose parent belongs to
another layer (or that have no parent), so nested boundaries of one layer
are not counted twice.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import admission, routing
from repro.cluster import scenario as cluster_scenario
from repro.core import adaptive, dhb
from repro.edge import node
from repro.edge import scenario as edge_scenario
from repro.experiments import runner
from repro.protocols import base, on_demand, stream_tapping
from repro.runtime import checkpoint, seeds
from repro.runtime import engine as engine_module
from repro.sim import continuous, slotted
from repro.workload import arrivals, popularity

Span = Tuple[int, int, str, float, float]


class Patches:
    """Replaces attributes of classes and modules; :meth:`close` restores them."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name`` to ``make(original)``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def close(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class BoundaryStats:
    """Totals of one timed boundary over a pass."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Summary:
    """A pass's spans reduced to per-boundary and per-layer totals."""

    boundaries: Dict[str, BoundaryStats] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def calls(self, key: str) -> int:
        return self.boundaries.get(key, BoundaryStats()).calls

    def total(self, key: str) -> float:
        return self.boundaries.get(key, BoundaryStats()).total_s

    def self_time(self, key: str) -> float:
        return self.boundaries.get(key, BoundaryStats()).self_s


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class Ledger:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Calls of the counted wrappers and totals the ``after`` hooks add.
        self.counts: Dict[str, int] = defaultdict(int)
        self._open: List[Tuple[int, str]] = []
        self._ids = itertools.count()

    # -- wrappers ------------------------------------------------------------

    def timed(
        self,
        key: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` as the boundary ``key``.

        ``before(*args)`` runs ahead of the span and its return value is
        passed as the first argument of ``after(state, result, *args)``,
        which runs once the span has closed; neither is timed.
        """
        spans = self.spans
        stack = self._open
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == key:
                return fn(*args, **kwargs)
            state = before(*args) if before is not None else None
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, key))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, key, start, end))
            if after is not None:
                after(state, result, *args)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """Wrap a one-argument method so each call only bumps ``counts[key]``."""
        counts = self.counts

        def wrapper(obj, arg):
            counts[key] += 1
            return fn(obj, arg)

        return wrapper

    # -- reduction -----------------------------------------------------------

    def summary(self, scale: float = 1.0) -> Summary:
        """Reduce the spans; every duration is multiplied by ``scale``."""
        child_time: Dict[int, float] = defaultdict(float)
        key_of: Dict[int, str] = {}
        for span_id, parent, key, start, end in self.spans:
            key_of[span_id] = key
            if parent >= 0:
                child_time[parent] += (end - start) * scale
        out = Summary()
        for span_id, parent, key, start, end in self.spans:
            duration = (end - start) * scale
            stats = out.boundaries.setdefault(key, BoundaryStats())
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - child_time.get(span_id, 0.0)
            layer = layer_of(key)
            if parent < 0 or layer_of(key_of[parent]) != layer:
                out.layers[layer] = out.layers.get(layer, 0.0) + duration
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped JSON lines ``[id, parent, key, start, end]``.

        Times are seconds from the first span's start.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, key, start, end in sorted(self.spans):
                fh.write(
                    json.dumps([span_id, parent, key, start - origin, end - origin])
                    + "\n"
                )


def _arrival_process_classes(root: type) -> List[type]:
    """Subclasses of ``root`` at any depth that define their own ``generate``."""
    found: List[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            pending.append(sub)
    return [cls for cls in found if "generate" in cls.__dict__]


def install(ledger: Ledger, patches: Patches) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    counts = ledger.counts

    def timed(owner, name, key, before=None, after=None):
        patches.replace(owner, name, lambda fn: ledger.timed(key, fn, before, after))

    def counted(owner, name, key):
        patches.replace(owner, name, lambda fn: ledger.counted(key, fn))

    # repro.workload — arrival generation and title assignment.
    def count_arrivals(state, result, *args):
        counts["workload.arrivals"] += len(result)

    timed(seeds, "arrival_trace", "workload.trace")
    timed(runner, "arrival_trace", "workload.trace")
    for cls in _arrival_process_classes(arrivals.ArrivalProcess):
        timed(cls, "generate", "workload.generate", after=count_arrivals)
    timed(popularity.ZipfCatalog, "assign", "workload.assign")

    # repro.sim — the slotted and continuous simulators.
    def slotted_done(state, result, sim, *args):
        counts["sim.slots"] += sim.horizon_slots
        counts["sim.requests"] += result.n_requests

    def continuous_done(state, result, *args):
        counts["sim.requests"] += result.n_requests

    timed(slotted.SlottedSimulation, "run", "sim.slotted", after=slotted_done)
    timed(continuous.ContinuousSimulation, "run", "sim.continuous", after=continuous_done)

    # repro.core — DHB and adaptive DHB admission.
    def core_before(protocol, *args):
        return protocol.schedule.total_instances, protocol.requests_admitted

    def core_after(state, result, protocol, *args):
        counts["core.instances"] += protocol.schedule.total_instances - state[0]
        counts["core.requests"] += protocol.requests_admitted - state[1]

    for cls in (dhb.DHBProtocol, adaptive.AdaptiveDHBProtocol):
        for name in ("handle_request", "handle_batch", "handle_suffix_request"):
            if name in cls.__dict__:
                timed(cls, name, "core.admit", core_before, core_after)
        counted(cls, "slot_load", "core.slot_load")
        counted(cls, "release_before", "core.release")

    # repro.protocols — the rivals of the Figure-7 sweep.
    timed(stream_tapping.StreamTappingProtocol, "handle_request", "protocols.admit")
    for cls in (on_demand.OnDemandMapProtocol, base.StaticBroadcastProtocol):
        timed(cls, "handle_request", "protocols.admit")
        timed(cls, "handle_batch", "protocols.admit")

    # repro.cluster — the slot loop, routing, capping and release.
    def cluster_before(*args):
        return counts["core.slot_load"], counts["workload.arrivals"]

    def cluster_after(state, result, *args):
        counts["cluster.slot_load_calls"] += counts["core.slot_load"] - state[0]
        counts["cluster.arrivals"] += counts["workload.arrivals"] - state[1]
        counts["cluster.admitted"] += result.admitted
        counts["cluster.rejected"] += result.rejected

    for module in (cluster_scenario, edge_scenario):
        timed(module, "run_scenario", "cluster.run", cluster_before, cluster_after)
    for cls in routing.Router.__subclasses__():
        if "choose" in cls.__dict__:
            timed(cls, "choose", "cluster.route")
    counted(admission.CappedServer, "pressure", "cluster.pressure")
    timed(admission.CappedServer, "finalize_slot", "cluster.finalize")
    timed(admission.CappedServer, "release_before", "cluster.release")

    # repro.edge — prefix-cache and shaper decisions.
    timed(node.EdgeTier, "admit", "edge.admit")

    # repro.runtime — dispatch, task execution and checkpoint journaling.
    def journal_size(store, *args):
        return os.path.getsize(store.path)

    def journal_after(size_before, result, store, *args):
        counts["runtime.journal_bytes"] += os.path.getsize(store.path) - size_before

    timed(engine_module.Engine, "run", "runtime.run")
    timed(engine_module, "execute_spec", "runtime.task")
    timed(checkpoint.CheckpointStore, "record", "runtime.journal", journal_size, journal_after)
