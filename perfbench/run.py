"""End-to-end benchmark of the DHB reproduction.

Runs one workload (or all three) from the source tree next to this
directory, measures it for ``--seconds`` of repeated passes, checks the
outputs, prints every metric with its unit, and ends with one JSON line::

    python3 perfbench/run.py --workload metro_day --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                       # all workloads, seed 2001

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes under the per-layer ledger (``ledger.py``)
and reports the per-layer metrics plus the tracing overhead.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from probe import interpreter_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"
OUT_DIR = HERE / "_out"

WORKLOAD_NAMES = ("paper_sweep", "dhb_saturated", "metro_day")
DEFAULT_SEED = 2001
DEFAULT_SECONDS = 30
#: Fresh interpreters started to time set-up; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Seconds :func:`reference_loop` takes on the nominal host.  Every time the
#: benchmark reports is a wall time divided by the host's slowdown, the
#: reference loop's current time over this one, so that drift in the speed
#: of a shared host does not read as a change in the program.
NOMINAL_REFERENCE_S = 0.003
#: Seconds between the reference samples taken while a pass runs.
SAMPLE_INTERVAL_S = 0.1
#: Seconds :func:`probe.interpreter_reference` takes on the nominal host.
NOMINAL_PROBE_REFERENCE_S = 0.0005

END_TO_END = (
    ("requests_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mean_streams", "streams"),
    ("peak_streams", "streams"),
    ("mean_wait_s", "s"),
    ("max_wait_s", "s"),
    ("served_share", "share"),
)

PER_LAYER = (
    ("workload.generate_s", "s"),
    ("workload.arrivals", "count"),
    ("workload.arrivals_per_s", "1/s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.slots", "count"),
    ("sim.requests", "count"),
    ("sim.continuous_self_s", "s"),
    ("core.admit_calls", "count"),
    ("core.admit_s", "s"),
    ("core.slot_load_calls", "count"),
    ("core.release_calls", "count"),
    ("core.instances", "count"),
    ("core.requests_per_instance", "req/instance"),
    ("protocols.admit_calls", "count"),
    ("protocols.admit_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.self_s", "s"),
    ("cluster.route_calls", "count"),
    ("cluster.route_s", "s"),
    ("cluster.pressure_calls", "count"),
    ("cluster.finalize_s", "s"),
    ("cluster.release_s", "s"),
    ("cluster.slot_load_per_request", "calls/request"),
    ("cluster.admitted", "count"),
    ("cluster.rejected", "count"),
    ("edge.admit_calls", "count"),
    ("edge.admit_s", "s"),
    ("edge.hit_ratio", "share"),
    ("edge.deferrals", "count"),
    ("edge.deferral_slots", "count"),
    ("edge.unserved", "count"),
    ("runtime.run_s", "s"),
    ("runtime.tasks", "count"),
    ("runtime.task_s", "s"),
    ("runtime.dispatch_s", "s"),
    ("runtime.journal_appends", "count"),
    ("runtime.journal_s", "s"),
    ("runtime.journal_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
)

#: Per-layer metrics that are times; the rest must repeat exactly.
LAYER_TIMES = {name for name, unit in PER_LAYER if unit in ("s", "1/s", "%")}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reference_loop() -> int:
    """Fixed interpreter and NumPy work whose duration tracks the host's speed."""
    total = sum(interpreter_reference() for _ in range(5))
    values = np.arange(4096.0)
    for i in range(100):
        total += int(np.searchsorted(values, i * 35.0))
    return total


def reference_seconds(samples: int = 7) -> float:
    """Median wall time of :func:`reference_loop` right now."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Time one fresh interpreter (``probe.py``) from its start to a built workload.

    Returns the wall seconds of set-up, the probe's reference samples left
    out, and the host slowdown: the median sample over the nominal one.
    """
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    started = time.time()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    ready, stolen, sample = (float(word) for word in done.stdout.split()[-3:])
    return ready - started - stolen, sample / NOMINAL_PROBE_REFERENCE_S


class HostSampler:
    """Times :func:`reference_loop` every :data:`SAMPLE_INTERVAL_S` during a pass.

    The samples run from a ``SIGALRM`` handler between the program's own
    bytecodes; their mean over :data:`NOMINAL_REFERENCE_S` is the host's
    slowdown while the pass ran, and their total is taken out of the pass.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Passes:
    """Repeated passes of one workload, checked to agree with the first."""

    def __init__(self, bench: Any):
        self.bench = bench
        self.first_raw: Any = None
        self._first_print: Any = None
        self.agree = True
        #: Wall seconds of each pass, reference samples included.
        self.times: List[float] = []
        self.slowdowns: List[float] = []

    def run(self) -> Tuple[float, float]:
        """Run one pass; return its seconds of own work and the host slowdown."""
        with HostSampler() as sampler:
            started = time.perf_counter()
            raw = self.bench.run()
            elapsed = time.perf_counter() - started
        samples = sampler.samples or [reference_seconds()]
        slowdown = statistics.mean(samples) / NOMINAL_REFERENCE_S
        fingerprint = self.bench.fingerprint(raw)
        if self.first_raw is None:
            self.first_raw, self._first_print = raw, fingerprint
        elif fingerprint != self._first_print:
            self.agree = False
        self.times.append(elapsed)
        self.slowdowns.append(slowdown)
        return elapsed - sum(sampler.samples), slowdown


def layer_metrics(ledger: Any, slowdown: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, times at nominal speed.

    The ``edge.*`` values other than calls and time come from the public
    results (:attr:`workloads.Outcome.layer_counts`) and are zero here.
    """
    summary = ledger.summary(scale=1.0 / slowdown)
    counts = ledger.counts
    generate_s = summary.layers.get("workload", 0.0)
    arrivals = counts["workload.arrivals"]
    runtime_s = summary.total("runtime.run")
    task_s = summary.total("runtime.task")
    metrics = {
        "workload.generate_s": generate_s,
        "workload.arrivals": arrivals,
        "workload.arrivals_per_s": _ratio(arrivals, generate_s),
        "sim.run_s": summary.layers.get("sim", 0.0),
        "sim.self_s": summary.self_time("sim.slotted"),
        "sim.slots": counts["sim.slots"],
        "sim.requests": counts["sim.requests"],
        "sim.continuous_self_s": summary.self_time("sim.continuous"),
        "core.admit_calls": summary.calls("core.admit"),
        "core.admit_s": summary.total("core.admit"),
        "core.slot_load_calls": counts["core.slot_load"],
        "core.release_calls": counts["core.release"],
        "core.instances": counts["core.instances"],
        "core.requests_per_instance": _ratio(counts["core.requests"], counts["core.instances"]),
        "protocols.admit_calls": summary.calls("protocols.admit"),
        "protocols.admit_s": summary.total("protocols.admit"),
        "cluster.run_s": summary.total("cluster.run"),
        "cluster.self_s": summary.self_time("cluster.run"),
        "cluster.route_calls": summary.calls("cluster.route"),
        "cluster.route_s": summary.total("cluster.route"),
        "cluster.pressure_calls": counts["cluster.pressure"],
        "cluster.finalize_s": summary.total("cluster.finalize"),
        "cluster.release_s": summary.total("cluster.release"),
        "cluster.slot_load_per_request": _ratio(
            counts["cluster.slot_load_calls"], counts["cluster.arrivals"]
        ),
        "cluster.admitted": counts["cluster.admitted"],
        "cluster.rejected": counts["cluster.rejected"],
        "edge.admit_calls": summary.calls("edge.admit"),
        "edge.admit_s": summary.total("edge.admit"),
        "edge.hit_ratio": 0.0,
        "edge.deferrals": 0,
        "edge.deferral_slots": 0,
        "edge.unserved": 0,
        "runtime.run_s": runtime_s,
        "runtime.tasks": summary.calls("runtime.task"),
        "runtime.task_s": task_s,
        "runtime.dispatch_s": runtime_s - task_s,
        "runtime.journal_appends": summary.calls("runtime.journal"),
        "runtime.journal_s": summary.total("runtime.journal"),
        "runtime.journal_bytes": counts["runtime.journal_bytes"],
    }
    return metrics


def _keep_going(started: float, seconds: float, pass_times: List[float]) -> bool:
    """Whether another pass of the mean length still ends within ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(pass_times) <= seconds


def measure(bench: Any, seconds: float) -> Tuple[Passes, List[float]]:
    """Untraced passes for ``seconds`` (at least one) and their nominal times."""
    passes = Passes(bench)
    nominal: List[float] = []
    started = time.perf_counter()
    while True:
        elapsed, slowdown = passes.run()
        nominal.append(elapsed / slowdown)
        if not _keep_going(started, seconds, passes.times):
            return passes, nominal


def measure_traced(
    bench: Any, seconds: float, spans_path: Path
) -> Tuple[Passes, List[float], List[float], Dict[str, float], bool]:
    """Untraced and traced passes in turn for ``seconds`` (at least one each).

    Returns the passes, the untraced and traced pass times at nominal
    speed, the per-layer metrics (times as medians over the traced passes)
    and whether every count repeated exactly.
    """
    from ledger import Ledger, Patches, install

    passes = Passes(bench)
    plain: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        elapsed, slowdown = passes.run()
        plain.append(elapsed / slowdown)
        ledger = Ledger()
        with Patches() as patches:
            install(ledger, patches)
            elapsed, slowdown = passes.run()
        traced.append(elapsed / slowdown)
        per_pass.append(layer_metrics(ledger, slowdown))
        pairs = [sum(passes.times[i : i + 2]) for i in range(0, len(passes.times), 2)]
        if not _keep_going(started, seconds, pairs):
            break
    ledger.write_spans(str(spans_path))
    metrics: Dict[str, float] = {}
    repeats = True
    for name, _ in PER_LAYER[:-1]:
        values = [pass_metrics[name] for pass_metrics in per_pass]
        if name in LAYER_TIMES:
            metrics[name] = statistics.median(values)
        else:
            repeats = repeats and len(set(values)) == 1
            metrics[name] = values[0]
    metrics["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    ) * 100.0
    return passes, plain, traced, metrics, repeats


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set up, measure and check one workload; the result object it prints."""
    setup_times, setup_slowdowns = zip(*(probe_setup(name, seed) for _ in range(SETUP_PROBES)))
    # The program and the modules that import it load only once main() has
    # put the source tree on sys.path.
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    bench = WORKLOADS[name](seed, WORK_DIR)
    if trace:
        spans = OUT_DIR / f"{name}-seed{seed}.spans.jsonl.gz"
        passes, plain, traced, metrics, repeats = measure_traced(bench, seconds, spans)
    else:
        passes, plain = measure(bench, seconds)
        traced, repeats = [], True
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass
    outcome = bench.evaluate(passes.first_raw)
    correct = outcome.correct and passes.agree and repeats
    failed = outcome.failed if correct else outcome.attempted
    if trace:
        metrics.update(outcome.layer_counts)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "requests_per_s": statistics.median(outcome.requests / t for t in plain),
            "setup_s": statistics.median(
                t / slowdown for t, slowdown in zip(setup_times, setup_slowdowns)
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_streams": outcome.mean_streams,
            "peak_streams": outcome.peak_streams,
            "mean_wait_s": outcome.mean_wait_s,
            "max_wait_s": outcome.max_wait_s,
            "served_share": 1.0 - failed / outcome.attempted,
        }
        units = dict(END_TO_END)
    for check in outcome.checks:
        print(f"{name}: check {check.name}: {'ok' if check.ok else 'FAILED'} ({check.detail})")
    if not passes.agree:
        print(f"{name}: check passes-agree: FAILED (a pass differed from the first)")
    if not repeats:
        print(f"{name}: check counts-repeat: FAILED (a traced count differed between passes)")
    print(f"{name}: seed {seed}; wall seconds of each pass {_seconds(passes.times)}")
    print(f"{name}: host slowdown around each pass {_factors(passes.slowdowns)}")
    print(f"{name}: nominal seconds untraced {_seconds(plain)}, traced {_seconds(traced)}")
    print(f"{name}: set-up probes {_seconds(setup_times)}, slowdown {_factors(setup_slowdowns)}")
    for metric, value in metrics.items():
        print(f"{name}: {metric} = {value} {units[metric]}")
    return {
        "correct": correct,
        "attempted": outcome.attempted * len(passes.times),
        "failed": failed * len(passes.times),
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }


def _seconds(times: List[float]) -> str:
    return _factors(times) + " s"


def _factors(values: List[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
