"""The benchmark's three workloads.

Each workload is a batch run over a generated open-loop arrival trace of
independent simulated clients, made from the workload seed alone.  A
workload object is built once (its constructor is the set-up the
``setup_s`` metric times), then :meth:`run` executes one complete pass —
the timed work — and :meth:`evaluate` reduces a pass to the end-to-end
outcome and the correctness checks, outside the timed region.

Where a term of the client ledger is not visible in the public results,
the pass counts it by wrapping the public call that decides it (the simulator
results of a sweep cell, the edge tier's per-arrival decision); those
wrappers are part of every pass, traced or not.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
from repro.analysis.theory import harmonic_number
from repro.cluster.topology import tiered_topology
from repro.edge.node import EdgeTier
from repro.edge.scenario import HierarchyScenario, run_hierarchy
from repro.experiments.config import SweepConfig
from repro.experiments.fig7 import FIG7_PROTOCOLS
from repro.experiments.runner import sweep_grid
from repro.protocols.registry import ProtocolContext, build_protocol
from repro.runtime import CheckpointStore, Engine, SerialBackend, clear_cache, seeds
from repro.sim.continuous import ContinuousSimulation
from repro.sim.slotted import SlottedSimulation
from repro.workload.popularity import ZipfCatalog

from ledger import Patches

#: Segments of the paper's two-hour video (Figures 7 and 8).
N_SEGMENTS = 99


@dataclass
class Check:
    """One correctness check; ``ok`` False fails the run."""

    name: str
    ok: bool
    detail: str
    #: Requests of the cells or arms the check covers, counted as failed
    #: when it does not hold.
    requests: int = 0


@dataclass
class Outcome:
    """What one pass of a workload produced, as a user sees it."""

    requests: int
    attempted: int
    failed: int
    mean_streams: float
    peak_streams: float
    mean_wait_s: float
    max_wait_s: float
    checks: List[Check]
    #: Per-layer values read from the public results (traced run only).
    layer_counts: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


def _recording(sink: List[Any]) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return wrapper

    return make


def _failed_requests(checks: List[Check]) -> int:
    return sum(check.requests for check in checks if not check.ok)


class PaperSweep:
    """The full Figure-7 grid through the runtime Engine with a journal.

    Stream tapping, UD, DHB and NPB at the ten paper rates (1-1000 req/h,
    99 segments, ``SweepConfig()`` defaults), executed cell by cell on the
    serial backend with a :class:`~repro.runtime.CheckpointStore` journal
    in a fresh directory each pass, so no cell is ever replayed.
    """

    name = "paper_sweep"

    def __init__(self, seed: int, work_dir: Path):
        self.config = SweepConfig(seed=seed)
        self.names = [name for name, _ in FIG7_PROTOCOLS]
        self.specs = sweep_grid(self.names, self.config, [label for _, label in FIG7_PROTOCOLS])
        self.work_dir = work_dir

    def run(self) -> Tuple[list, list]:
        clear_cache()
        simulations: List[Any] = []
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp, Patches() as patches:
            patches.replace(SlottedSimulation, "run", _recording(simulations))
            patches.replace(ContinuousSimulation, "run", _recording(simulations))
            store = CheckpointStore(Path(tmp) / "fig7.ckpt")
            with Engine(backend=SerialBackend(), checkpoint=store) as engine:
                points = engine.run_values(self.specs)
        return points, simulations

    @staticmethod
    def fingerprint(raw: Tuple[list, list]) -> Any:
        points, simulations = raw
        return [tuple(vars(point).values()) for point in points], [
            (result.mean_streams, result.max_streams, result.max_wait) for result in simulations
        ]

    def evaluate(self, raw: Tuple[list, list]) -> Outcome:
        points, simulations = raw
        if len(simulations) != len(points):
            raise RuntimeError(f"{len(points)} cells but {len(simulations)} simulation runs")
        cells = {
            (spec.payload[0], spec.payload[2]): point
            for spec, point in zip(self.specs, points)
        }
        rates = self.config.rates_per_hour
        rivals = [name for name in self.names if name != "dhb"]
        checks: List[Check] = []
        for rate in rates:
            dhb, npb = cells[("dhb", rate)], cells[("npb", rate)]
            checks.append(
                Check(
                    f"dhb-below-npb@{rate:g}",
                    dhb.mean_bandwidth < npb.mean_bandwidth,
                    f"dhb {dhb.mean_bandwidth:.4f} vs npb {npb.mean_bandwidth:.4f}",
                    dhb.n_requests,
                )
            )
            if rate > 2:
                worst = min(cells[(name, rate)].mean_bandwidth for name in rivals)
                checks.append(
                    Check(
                        f"dhb-at-or-below-rivals@{rate:g}",
                        dhb.mean_bandwidth <= worst,
                        f"dhb {dhb.mean_bandwidth:.4f} vs best rival {worst:.4f}",
                        dhb.n_requests,
                    )
                )
        plateau = cells[("dhb", max(rates))]
        floor = harmonic_number(self.config.n_segments)
        checks.append(
            Check(
                "dhb-plateau",
                floor <= plateau.mean_bandwidth < 6,
                f"H({self.config.n_segments}) = {floor:.4f} <= {plateau.mean_bandwidth:.4f} < 6",
                plateau.n_requests,
            )
        )
        requests = sum(point.n_requests for point in points)
        return Outcome(
            requests=requests,
            attempted=requests,
            failed=_failed_requests(checks),
            mean_streams=float(np.mean([point.mean_bandwidth for point in points])),
            peak_streams=float(max(point.max_bandwidth for point in points)),
            mean_wait_s=sum(p.mean_wait * p.n_requests for p in points) / requests,
            max_wait_s=float(max(result.max_wait for result in simulations)),
            checks=checks,
        )


class DHBSaturated:
    """Static and adaptive DHB over one shared saturated Poisson trace.

    5000 req/h for 1000 h (about 4.5M measured requests per arm), 99
    segments, through :class:`~repro.sim.slotted.SlottedSimulation` on the
    columnar path.  The adaptive arm's client wait adds the slack each
    request was admitted under, read from the protocol's public retune log.
    """

    name = "dhb_saturated"
    rate_per_hour = 5000.0
    hours = 1000.0
    arms = ("dhb", "adaptive-dhb")

    def __init__(self, seed: int, work_dir: Path):
        config = SweepConfig(seed=seed)
        self.seed = seed
        self.slot_duration = config.slot_duration
        self.horizon_slots = int(self.hours * 3600.0 / self.slot_duration)
        self.warmup_slots = int(self.horizon_slots * config.warmup_fraction)
        self.context = ProtocolContext(
            n_segments=N_SEGMENTS, duration=config.duration, rate_per_hour=self.rate_per_hour
        )

    def run(self) -> Dict[str, Any]:
        clear_cache()
        arrivals = seeds.arrival_trace(self.seed, self.rate_per_hour, self.hours)
        raw: Dict[str, Any] = {"arrivals": arrivals}
        for name in self.arms:
            protocol = build_protocol(name, self.context)
            result = SlottedSimulation(
                protocol, self.slot_duration, self.horizon_slots, self.warmup_slots
            ).run(arrivals)
            raw[name] = (result, protocol)
        return raw

    def fingerprint(self, raw: Dict[str, Any]) -> Any:
        out = []
        for name in self.arms:
            result, protocol = raw[name]
            retunes = [vars(event) for event in getattr(protocol, "retunes", [])]
            out.append((vars(result), retunes))
        return out

    def _slot_waits(self, arrivals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Slot and slot-boundary wait of every measured arrival.

        Slot ``s`` holds the arrivals before its end ``(s + 1) * d``, the
        boundary computed as the simulator computes it.
        """
        boundaries = np.arange(1, self.horizon_slots + 1, dtype=np.int64) * self.slot_duration
        slots = np.searchsorted(boundaries, arrivals, side="right")
        measured = (arrivals >= 0) & (slots >= self.warmup_slots) & (slots < self.horizon_slots)
        slots = slots[measured]
        return slots, boundaries[slots] - arrivals[measured]

    def evaluate(self, raw: Dict[str, Any]) -> Outcome:
        d = self.slot_duration
        slots, base_waits = self._slot_waits(np.asarray(raw["arrivals"]))
        static, _ = raw["dhb"]
        adaptive_result, adaptive = raw["adaptive-dhb"]
        replay_mean = float(base_waits.mean())
        checks: List[Check] = []
        for name in self.arms:
            result, _ = raw[name]
            agrees = (
                result.n_requests == len(base_waits)
                and float(base_waits.max()) == result.max_wait
                and abs(replay_mean - result.mean_wait) <= 1e-9 * d
            )
            checks.append(
                Check(
                    f"{name}-wait-replay",
                    agrees,
                    f"{result.n_requests} requests, mean wait {result.mean_wait:.6f} s "
                    f"(replayed {len(base_waits)}, {replay_mean:.6f} s)",
                    result.n_requests,
                )
            )
        floor = harmonic_number(N_SEGMENTS)
        checks.append(
            Check(
                "dhb-saturated-bandwidth",
                floor <= static.mean_streams < 6,
                f"H({N_SEGMENTS}) = {floor:.4f} <= {static.mean_streams:.4f} < 6",
                static.n_requests,
            )
        )
        # Slack in force at each measured request's slot: the last retune at
        # or before it, else the ladder's initial rung.
        retune_slots = np.array([event.slot for event in adaptive.retunes], dtype=np.int64)
        slack_steps = np.array(
            [adaptive.slack_ladder[0][1]] + [event.new_slack for event in adaptive.retunes],
            dtype=np.float64,
        )
        slack = slack_steps[np.searchsorted(retune_slots, slots, side="right")]
        adaptive_waits = base_waits + slack * d
        guarantee = adaptive.worst_startup_wait_slots * d
        adaptive_max = float(adaptive_waits.max())
        checks.append(
            Check(
                "adaptive-wait-guarantee",
                adaptive_max <= guarantee * (1 + 1e-9),
                f"worst wait {adaptive_max:.3f} s <= (1 + {adaptive.max_slack}) d "
                f"= {guarantee:.3f} s",
                adaptive_result.n_requests,
            )
        )
        requests = static.n_requests + adaptive_result.n_requests
        wait_total = static.mean_wait * static.n_requests + float(adaptive_waits.sum())
        return Outcome(
            requests=requests,
            attempted=requests,
            failed=_failed_requests(checks),
            mean_streams=(static.mean_streams + adaptive_result.mean_streams) / 2,
            peak_streams=float(max(static.max_streams, adaptive_result.max_streams)),
            mean_wait_s=wait_total / requests,
            max_wait_s=max(static.max_wait, adaptive_max),
            checks=checks,
        )


@dataclass
class _EdgeLedger:
    """Per-arrival edge decisions, counted by wrapping ``EdgeTier.admit``."""

    horizon_slots: int
    offered: int = 0
    served_fully: int = 0
    unserved: int = 0

    def wrap(self, fn: Callable) -> Callable:
        def admit(tier, title, t, slot, slot_end):
            decision = fn(tier, title, t, slot, slot_end)
            self.offered += 1
            if decision.hit:
                if decision.served_fully:
                    self.served_fully += 1
                elif decision.join_slot >= self.horizon_slots:
                    self.unserved += 1
            return decision

        return admit


class MetroDay:
    """A shaped origin+edge day through :func:`repro.edge.run_hierarchy`.

    A 24-hour adult-evening diurnal day with a flash crowd at 20:00 over a
    Zipf(1.0) catalog of 40 titles x 60 segments in 20 s slots.  The origin
    is 4 fully replicated servers of capacity 120; in front sit 4 edges,
    each with a popularity prefix cache of 3% of the catalog and a shaped
    uplink sized so the evening and flash peaks are deferred but every
    deferred join still reaches the origin before midnight.
    """

    name = "metro_day"
    workload = "diurnal:adult,peak=6000+flash:peak=12000,decay=1.5,start=20"
    uplink_streams = 120.0

    def __init__(self, seed: int, work_dir: Path):
        n_titles, n_segments = 40, 60
        topology = tiered_topology(
            4,
            capacity=120,
            n_titles=n_titles,
            n_edges=4,
            cache_segments=int(0.03 * n_titles * n_segments),
            uplink_streams=self.uplink_streams,
        )
        self.scenario = HierarchyScenario(
            name=self.name,
            topology=topology,
            prefix_policy="popularity",
            n_segments=n_segments,
            slot_duration=20.0,
            horizon_slots=24 * 180,
            warmup_slots=180,
            zipf_theta=1.0,
            seed=seed,
            workload=self.workload,
        )

    def run(self) -> Tuple[Any, _EdgeLedger, List[int]]:
        edge = _EdgeLedger(self.scenario.horizon_slots)
        generated: List[int] = []

        def count_assigned(fn: Callable) -> Callable:
            def assign(catalog, n_requests, rng):
                generated.append(int(n_requests))
                return fn(catalog, n_requests, rng)

            return assign

        with Patches() as patches:
            patches.replace(EdgeTier, "admit", edge.wrap)
            patches.replace(ZipfCatalog, "assign", count_assigned)
            result = run_hierarchy(self.scenario)
        return result, edge, generated

    @staticmethod
    def fingerprint(raw: Tuple[Any, _EdgeLedger, List[int]]) -> Any:
        result, edge, generated = raw
        return result.to_dict(), vars(edge), generated

    def evaluate(self, raw: Tuple[Any, _EdgeLedger, List[int]]) -> Outcome:
        result, edge, generated = raw
        cluster = result.cluster
        arrivals = sum(generated)
        accounted = cluster.admitted + edge.served_fully + cluster.rejected + edge.unserved
        deferrals = sum(totals["deferrals"] for totals in result.class_totals.values())
        checks = [
            Check(
                "no-lost-instances",
                cluster.instances_lost == 0,
                f"{cluster.instances_lost} instances lost",
                arrivals,
            ),
            Check(
                "clients-add-up",
                accounted == arrivals and edge.offered == arrivals,
                f"{cluster.admitted} admitted + {edge.served_fully} served by an edge "
                f"+ {cluster.rejected} refused + {edge.unserved} unserved = {accounted}; "
                f"{arrivals} generated, {edge.offered} offered to the edge tier",
                arrivals,
            ),
            Check(
                "flash-shaped",
                deferrals > 0,
                f"{deferrals} shaper deferrals",
                arrivals,
            ),
        ]
        failed = cluster.rejected + edge.unserved
        if not all(check.ok for check in checks):
            failed = arrivals
        return Outcome(
            requests=arrivals,
            attempted=arrivals,
            failed=failed,
            mean_streams=cluster.mean_streams,
            peak_streams=float(cluster.peak_streams),
            mean_wait_s=cluster.mean_wait,
            max_wait_s=cluster.max_wait,
            checks=checks,
            layer_counts={
                "edge.hit_ratio": result.hit_ratio,
                "edge.deferrals": deferrals,
                "edge.deferral_slots": sum(
                    totals["deferral_slots"] for totals in result.class_totals.values()
                ),
                "edge.unserved": edge.unserved,
            },
        )


WORKLOADS = {cls.name: cls for cls in (PaperSweep, DHBSaturated, MetroDay)}
