"""The cached server demand never drifts from a brute-force sum.

:class:`CappedServer` caches ``demand(slot)`` and moves it by the written
title's ``slot_load`` delta on every write.  Random interleavings of every
operation that touches a server's schedules or cache — admissions, suffix
joins, routing queries, slot finalization, release, crash, recovery and
degraded-mode failover — must leave ``demand`` equal to the sum over the
hosted protocols, for the current and the next slot (and the previous
one, which a release may just have emptied).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.admission import CappedServer
from repro.cluster.faults import fail_over
from repro.cluster.topology import ServerSpec
from repro.core.dhb import DHBProtocol
from repro.errors import ClusterError
from repro.protocols.ud import UniversalDistributionProtocol

N_SEGMENTS = 8
N_TITLES = 3

OPS = ("admit", "suffix", "pressure", "finalize", "release", "advance",
       "crash", "recover", "fail_over")


def replicated(n_servers, factory):
    titles = list(range(N_TITLES))
    return [CappedServer(ServerSpec(i, 6), titles, factory) for i in range(n_servers)]


def brute_force(server, slot):
    return sum(protocol.slot_load(slot) for protocol in server.protocols.values())


@st.composite
def steps(draw, ops):
    op = draw(st.sampled_from(ops))
    return (
        op,
        draw(st.integers(0, 2)),  # server index (mod the server count)
        draw(st.integers(0, N_TITLES - 1)),
        draw(st.integers(2, N_SEGMENTS)),  # suffix first segment
        draw(st.integers(0, 3)),  # slots to advance / finalize capacity
        draw(st.booleans()),  # which slot the check reads last (stays cached)
    )


def run(servers, plan):
    slot = 0
    for op, index, title, first_segment, amount, next_last in plan:
        server = servers[index % len(servers)]
        if op in ("admit", "suffix"):
            # admit_suffix with first segment 1 is a plain admit.
            first = first_segment if op == "suffix" else 1
            if server.alive:
                server.admit_suffix(title, slot, first)
            else:
                with pytest.raises(ClusterError, match="down"):
                    server.admit_suffix(title, slot, first)
        elif op == "pressure":
            assert server.pressure(slot) == server.backlog + brute_force(server, slot + 1)
        elif op == "finalize":
            report = server.finalize_slot(slot, amount)
            if server.alive:
                assert report.demand == brute_force(server, slot)
        elif op == "release":
            server.release_before(slot - amount // 2)
        elif op == "advance":
            slot += amount
            for each in servers:
                each.release_before(slot)
        elif op == "crash":
            server.crash(slot)
        elif op == "recover":
            server.recover()
        elif op == "fail_over" and server.alive:
            fail_over(
                server,
                lambda t, down=server: [s for s in servers if s is not down and s.alive],
                slot,
            )
        for each in servers:
            # slot - 1 first: a demand cached before a release must not
            # outlive it (released slots read as empty).
            order = (slot, slot + 1) if next_last else (slot + 1, slot)
            for s in (slot - 1, *order):
                assert each.demand(s) == brute_force(each, s)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n_servers=st.integers(2, 3),
    plan=st.lists(steps(OPS), min_size=1, max_size=60),
)
def test_dhb_demand_matches_brute_force(n_servers, plan):
    run(replicated(n_servers, lambda title: DHBProtocol(n_segments=N_SEGMENTS)), plan)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    plan=st.lists(
        steps(("admit", "pressure", "finalize", "release", "advance", "crash", "recover")),
        min_size=1,
        max_size=60,
    ),
)
def test_non_dhb_protocol_demand_matches_brute_force(plan):
    """UD keeps no DHB schedule internals: the cache uses ``slot_load`` only."""
    run(
        replicated(2, lambda title: UniversalDistributionProtocol(n_segments=N_SEGMENTS)),
        plan,
    )


def test_failover_writes_reach_the_survivor_cache():
    servers = replicated(2, lambda title: DHBProtocol(n_segments=N_SEGMENTS))
    crashed, survivor = servers
    for title in range(N_TITLES):
        crashed.admit(title, 0)
    before = survivor.demand(1)
    report = fail_over(crashed, lambda title: [survivor], 1)
    assert report.rescheduled > 0
    assert survivor.demand(1) == brute_force(survivor, 1) > before
