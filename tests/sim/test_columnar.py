"""Columnar slotted path: batched admission == scalar, bit for bit.

Two layers of equivalence guard the hot path:

* protocol level — ``handle_batch(slot, count)`` must leave every protocol
  in exactly the state ``count`` repeated ``handle_request(slot)`` calls
  produce (hypothesis property over random admission sequences);
* driver level — ``SlottedSimulation`` with ``columnar=True`` must return
  the exact result of the scalar per-request loop on the same trace.
"""

import ast
import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dhb import DHBProtocol
from repro.errors import SimulationError
from repro.obs.trace import MemoryTraceSink
from repro.protocols.dnpb import DynamicPagodaProtocol
from repro.protocols.fb import FastBroadcasting
from repro.protocols.ud import UniversalDistributionProtocol
from repro.runtime.seeds import arrival_trace
from repro.sim import slotted
from repro.sim.slotted import SlottedModel, SlottedResult, SlottedSimulation

N_SEGMENTS = 20

PROTOCOL_FACTORIES = {
    "dhb": lambda: DHBProtocol(n_segments=N_SEGMENTS),
    "ud": lambda: UniversalDistributionProtocol(n_segments=N_SEGMENTS),
    "dnpb": lambda: DynamicPagodaProtocol(n_segments=N_SEGMENTS),
}


class LoopProtocol(SlottedModel):
    """A protocol with no batched override: exercises the default loop."""

    def __init__(self):
        self.loads = {}
        self.calls = []

    def handle_request(self, slot):
        self.calls.append(slot)
        self.loads[slot + 1] = self.loads.get(slot + 1, 0) + 1

    def slot_load(self, slot):
        return self.loads.get(slot, 0)


class LoopCountProtocol(SlottedModel):
    """Cheapest possible protocol: each slot carries its admission count."""

    def __init__(self):
        self.loads = {}

    def handle_request(self, slot):
        self.loads[slot + 1] = self.loads.get(slot + 1, 0) + 1

    def handle_batch(self, slot, count):
        self.loads[slot + 1] = self.loads.get(slot + 1, 0) + count

    def slot_load(self, slot):
        return self.loads.get(slot, 0)


def protocol_state(protocol):
    """Observable protocol state: admissions plus per-slot loads."""
    max_slot = 200 + N_SEGMENTS + 2
    return (
        protocol.requests_admitted,
        [protocol.slot_load(slot) for slot in range(max_slot)],
        [protocol.slot_instances(slot) for slot in range(max_slot)],
    )


# Random admission sequences: slots non-decreasing (the driver's delivery
# order), batch sizes 1..8, slots bounded so state comparison stays cheap.
admission_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(1, 8)),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(deltas=admission_sequences)
def test_handle_batch_matches_repeated_handle_request(name, deltas):
    factory = PROTOCOL_FACTORIES[name]
    batched = factory()
    scalar = factory()
    slot = 0
    for delta, count in deltas:
        slot += delta
        batched.handle_batch(slot, count)
        for _ in range(count):
            scalar.handle_request(slot)
    assert protocol_state(batched) == protocol_state(scalar)


def test_default_handle_batch_loops_over_handle_request():
    protocol = LoopProtocol()
    protocol.handle_batch(3, 4)
    assert protocol.calls == [3, 3, 3, 3]


def run_pair(make_protocol, arrivals, d=10.0, horizon=60, warmup=6):
    columnar = SlottedSimulation(
        make_protocol(), d, horizon, warmup, keep_series=True
    ).run(arrivals)
    scalar = SlottedSimulation(
        make_protocol(), d, horizon, warmup, keep_series=True, columnar=False
    ).run(arrivals)
    return columnar, scalar


def assert_identical(columnar, scalar):
    """Every :class:`SlottedResult` field but the path flag compares ``==``."""
    assert columnar.columnar is True
    assert scalar.columnar is False
    for field in dataclasses.fields(SlottedResult):
        if field.name != "columnar":
            name = field.name
            assert getattr(columnar, name) == getattr(scalar, name), name


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
def test_driver_paths_agree_on_poisson_traces(name):
    for seed in (1, 2, 3):
        arrivals = arrival_trace(seed, workload=1800.0, horizon_hours=1.0)
        arrivals = arrivals[arrivals < 600.0]
        columnar, scalar = run_pair(PROTOCOL_FACTORIES[name], arrivals)
        assert_identical(columnar, scalar)


def test_driver_paths_agree_for_default_loop_protocol():
    arrivals = arrival_trace(9, workload=3600.0, horizon_hours=1.0)
    columnar, scalar = run_pair(LoopProtocol, arrivals, horizon=120)
    assert_identical(columnar, scalar)


def test_fixed_protocol_batches_to_constant_load():
    arrivals = arrival_trace(5, workload=720.0, horizon_hours=1.0)
    columnar, scalar = run_pair(
        lambda: FastBroadcasting(n_segments=N_SEGMENTS), arrivals
    )
    assert_identical(columnar, scalar)


def test_negative_arrivals_ignored_on_both_paths():
    arrivals = np.array([-25.0, -0.5, 3.0, 14.0, 95.0])
    columnar, scalar = run_pair(
        lambda: DHBProtocol(n_segments=5), arrivals, warmup=0
    )
    assert_identical(columnar, scalar)
    assert columnar.n_requests == 3  # the two pre-epoch arrivals are dropped


# -- SlottedSimulation edge cases of the trace-only wait fold ---------------


def test_pre_epoch_arrivals_without_warmup():
    arrivals = np.array([-40.0, -1e-9, 0.0, 0.0, 9.999, 10.0, 31.5])
    columnar, scalar = run_pair(
        lambda: DHBProtocol(n_segments=5), arrivals, horizon=8, warmup=0
    )
    assert_identical(columnar, scalar)
    assert columnar.n_requests == 5
    assert columnar.max_wait == 10.0  # the arrivals at t = 0 wait a full slot


def test_every_arrival_inside_warmup():
    arrivals = np.array([0.5, 3.0, 14.0, 14.5, 59.9])
    columnar, scalar = run_pair(
        lambda: DHBProtocol(n_segments=5), arrivals, horizon=12, warmup=6
    )
    assert_identical(columnar, scalar)
    assert columnar.n_requests == 0
    assert (columnar.mean_wait, columnar.max_wait) == (0.0, 0.0)
    assert (columnar.wait_p50, columnar.wait_p99) == (0.0, 0.0)
    assert columnar.mean_streams > 0  # the warmup admissions still load slots


def test_arrivals_past_the_horizon_are_ignored():
    arrivals = np.array([61.0, 75.0, 99.9, 100.0, 140.0, 1e6])
    columnar, scalar = run_pair(
        lambda: DHBProtocol(n_segments=5), arrivals, horizon=10, warmup=6
    )
    assert_identical(columnar, scalar)
    assert columnar.n_requests == 3  # 100.0 is the horizon's boundary


def test_single_arrival_slots():
    arrivals = np.arange(40) * 10.0 + np.linspace(0.01, 9.99, 40)
    columnar, scalar = run_pair(
        lambda: DHBProtocol(n_segments=N_SEGMENTS), arrivals, horizon=50, warmup=3
    )
    assert_identical(columnar, scalar)
    assert columnar.n_requests == 37


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_wait_fold_chunk_seams(monkeypatch, chunk):
    monkeypatch.setattr(slotted, "WAIT_FOLD_CHUNK", chunk)
    arrivals = arrival_trace(4, workload=3600.0, horizon_hours=1.0)
    columnar, scalar = run_pair(
        lambda: DHBProtocol(n_segments=N_SEGMENTS), arrivals[arrivals < 600.0]
    )
    assert_identical(columnar, scalar)
    assert columnar.n_requests > 3 * chunk


def test_more_measured_arrivals_than_one_chunk():
    """The real chunk size, with seams inside slots and between them."""
    rng = np.random.default_rng(11)
    n_arrivals = 3 * slotted.WAIT_FOLD_CHUNK + 12_345
    arrivals = np.sort(rng.uniform(-5.0, 205.0, n_arrivals))
    columnar, scalar = run_pair(LoopCountProtocol, arrivals, horizon=20, warmup=2)
    assert_identical(columnar, scalar)
    assert columnar.n_requests > slotted.WAIT_FOLD_CHUNK * 2


def test_trace_sink_forces_the_scalar_path():
    arrivals = np.array([3.0, 14.0, 25.0])
    sink = MemoryTraceSink()
    result = SlottedSimulation(
        DHBProtocol(n_segments=5), 10.0, 10, trace=sink
    ).run(arrivals)
    assert result.columnar is False
    assert len(sink.records) == 10  # one record per slot: trace intact


def test_generic_sequences_take_the_scalar_path():
    result = SlottedSimulation(DHBProtocol(n_segments=5), 10.0, 10).run(
        [3.0, 14.0, 25.0]
    )
    assert result.columnar is False


def test_columnar_false_forces_the_scalar_path():
    arrivals = np.array([3.0, 14.0])
    result = SlottedSimulation(
        DHBProtocol(n_segments=5), 10.0, 10, columnar=False
    ).run(arrivals)
    assert result.columnar is False


def test_unsorted_numpy_trace_rejected_upfront():
    protocol = DHBProtocol(n_segments=5)
    sim = SlottedSimulation(protocol, 10.0, 10)
    with pytest.raises(SimulationError):
        sim.run(np.array([50.0, 3.0]))
    # Rejected before any delivery: the upfront check runs pre-loop.
    assert protocol.requests_admitted == 0


def test_unsorted_generic_sequence_rejected_incrementally():
    with pytest.raises(SimulationError):
        SlottedSimulation(DHBProtocol(n_segments=5), 10.0, 10).run([50.0, 3.0])


# -- CH100: the columnar branch must never fall back to per-request loops --

_LINT = pathlib.Path(__file__).resolve().parents[2] / "tools" / "lint.py"
_SLOTTED = (
    pathlib.Path(__file__).resolve().parents[2]
    / "src" / "repro" / "sim" / "slotted.py"
)


def load_lint():
    spec = importlib.util.spec_from_file_location("repro_lint", _LINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_columnar_branch_has_no_per_request_calls():
    lint = load_lint()
    tree = ast.parse(_SLOTTED.read_text(), filename=str(_SLOTTED))
    assert lint._columnar_guard(_SLOTTED, tree) == []


def test_columnar_guard_flags_per_request_loops(tmp_path):
    lint = load_lint()
    offender = tmp_path / "repro" / "sim" / "slotted.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(
        "class Sim:\n"
        "    def _run_columnar(self, arrivals):\n"
        "        for t in arrivals:\n"
        "            self.protocol.handle_request(0)\n"
    )
    tree = ast.parse(offender.read_text())
    findings = lint._columnar_guard(offender, tree)
    assert [(line, code) for line, code, _ in findings] == [(4, "CH100")]
