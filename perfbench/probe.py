"""Set-up probe: one fresh interpreter timed from its start to a built workload.

``run.py`` starts this script several times per run::

    python3 perfbench/probe.py <workload> <seed>

It prints three numbers: the wall-clock time at which the workload was
built, the seconds the in-process reference samples took, and their
median.
The samples start before any import the set-up pays for, so they see the
host's speed while the set-up itself runs.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from pathlib import Path

#: Seconds between reference samples while the set-up runs.
SAMPLE_INTERVAL_S = 0.02


def interpreter_reference() -> int:
    """Fixed pure-interpreter work (no imports) whose time tracks the host."""
    total = 0
    counts = {}
    for i in range(4000):
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        total += (i * 7) % 13
    return total


def main(workload: str, seed: int) -> int:
    samples = []

    def sample(signum, frame) -> None:
        started = time.perf_counter()
        interpreter_reference()
        samples.append(time.perf_counter() - started)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, Path(__file__).resolve().parent / "_work")
    ready = time.time()
    signal.setitimer(signal.ITIMER_REAL, 0)
    stolen = sum(samples)
    if not samples:
        sample(signal.SIGALRM, None)
    print(repr(ready), repr(stolen), repr(statistics.median(samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
