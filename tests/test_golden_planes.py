"""Golden pins for every stabilization plane and three baseline protocols.

The golden trace pins the ``notices`` plane only, so a wire-size or
event-order slip confined to ``ClockShip`` / ``StabilityVector`` /
``BulkStable`` / a baseline's messages would pass it. These are the same
mini-run (``test_golden_trace._golden_run``: 2 DCs, YCSB-B, 25 keys, 3
clients, seed 1234) under each name of ``STABILITY_PLANES`` (``notices``
by the golden trace's own counters) and the ``cops`` / ``eventual`` /
``quorum`` baselines, recorded on commit 8af2af1 (``quorum`` on 6e5887a)
— before the message fabric's link objects, size plans and handler
tables. The same rule applies: a fabric optimisation that moves one of
these changed the simulation and must be fixed, not re-recorded.

Event counts re-recorded twice; messages and bytes are the recording
commit's. First when the chain client's get / put began to start inline
and each actor's RPC deadlines moved to one alarm: the chainreaction
rows fell, and the baseline rows, still generator processes, rose only
by the alarm's no-op firings. Then when every baseline operation — the
client's, the quorum coordinator's and the COPS remote apply — became a
continuation started inline: the baseline rows fell by their zero-delay
start events (``cops`` 13 523 -> 10 884, ``eventual`` 12 460 -> 9 924,
``quorum`` 15 730 -> 13 106). Pairing each quorum read reply with the
replica that sent it moved none of the ``quorum`` row's counters; only
its message trace changed, as repairs now reach the peers that answered
stale. The ``notices+batch`` row's events fell once more (11 765 ->
11 685) when sealing moved from a periodic sweep to the stability
events themselves: the sweep's timer firings are gone, nothing else is.

The three plane rows were re-recorded once more when the geo-proxy
began to wait for dependencies on its own ``TailStable`` table instead
of a ``wait_stable`` RPC each, and a remote-origin ``TailStable``
dropped the value, stamp and dependencies no site half reads:
``notices+batch`` 11 685 / 7 961 / 1 227 398 -> 10 783 / 7 055 /
1 123 510 (``notices`` is the golden trace's row), and ``clock``, which
never waited over RPC, moved in bytes only (1 568 988 -> 1 529 723).

``clock-1dc`` is the same run on one site (``dc0``), recorded on
0172bb7, when a single site's clock role was a ``ClockAgent`` actor of
its own; every site's geo-proxy hosts it now, sending the same
``ClockTick`` s on the same timers.

The ``-r2`` rows pin partial replication on every plane: three sites
(``dc0 dc1 dc2``) at ``replication_degree=2``, the same mini-run but
YCSB-A, as B ships only 8 writes. They pin the per-peer shipping rule
(owner peers only, each with the dependency entries on its own shards)
on the notices, batched and clock ship paths. Recorded on c941bce,
where each ship path still wrote the rule out itself, and unchanged
when the rule moved into the placement catalog.

Every chainreaction row's bytes were re-recorded once more, and nothing
else of theirs moved, when reads, dependency waits and remote injects
left the RPC envelope for typed request / reply messages
(``notices+batch`` 1 123 510 -> 973 095, ``clock`` 1 529 723 ->
1 362 764, ``clock-1dc`` 852 971 -> 699 753, ``notices-r2`` 295 437 ->
282 194, ``notices+batch-r2`` 272 848 -> 259 428, ``clock-r2`` 964 431
-> 950 209; ``notices`` is the golden trace's row). The baseline rows
did not move then.

The ``-r2`` rows' and the baseline rows' bytes were re-recorded once
more, and nothing else of theirs moved, when the RPC envelope left the
tree: forwarded operations, snapshot legs and the baselines' operations
became typed request / reply pairs (``notices-r2`` 282 194 -> 280 735,
``notices+batch-r2`` 259 428 -> 257 969, ``clock-r2`` 950 209 ->
948 750, ``cops`` 763 654 -> 666 036, ``eventual`` 887 205 -> 807 233,
``quorum`` 1 145 100 -> 962 828). The full-replication rows never sent
an envelope and did not move.
"""

import pytest

from repro.baselines import build_store
from repro.core.config import STABILITY_PLANES
from repro.core.stability_plane import PLANES
from repro.workload import WorkloadRunner, workload
from test_golden_trace import GOLDEN_BYTES_SENT, GOLDEN_EVENTS_PROCESSED, GOLDEN_MESSAGES_SENT

#: stabilization plane -> (events processed, messages sent, bytes sent)
PLANE_PINS = {
    "notices": (GOLDEN_EVENTS_PROCESSED, GOLDEN_MESSAGES_SENT, GOLDEN_BYTES_SENT),
    "notices+batch": (10783, 7055, 973095),
    "clock": (24687, 15988, 1362764),
}

#: stabilization plane -> the same counters at replication degree 2 of 3
PARTIAL_PINS = {
    "notices": (3831, 2548, 280735),
    "notices+batch": (3504, 2084, 257969),
    "clock": (26328, 17338, 948750),
}

TWO_SITES = ("dc0", "dc1")
THREE_SITES = ("dc0", "dc1", "dc2")

#: (protocol, sites, config overrides, YCSB workload) -> the same three counters
GOLDEN_PINS = {
    **{
        plane: ("chainreaction", TWO_SITES, {"stability": plane}, "B", PLANE_PINS[plane])
        for plane in STABILITY_PLANES
    },
    **{
        f"{plane}-r2": (
            "chainreaction",
            THREE_SITES,
            {"stability": plane, "replication_degree": 2},
            "A",
            PARTIAL_PINS[plane],
        )
        for plane in STABILITY_PLANES
    },
    "clock-1dc": ("chainreaction", ("dc0",), {"stability": "clock"}, "B", (15109, 9643, 699753)),
    "cops": ("cops", TWO_SITES, None, "B", (10884, 7045, 666036)),
    "eventual": ("eventual", TWO_SITES, None, "B", (9924, 6189, 807233)),
    "quorum": ("quorum", TWO_SITES, None, "B", (13106, 8488, 962828)),
}


def test_every_plane_has_a_builder_and_a_pin():
    # A plane added to the names and not to the factory table (or the
    # other way round, or left unpinned) fails here, not at run time.
    assert tuple(PLANES) == STABILITY_PLANES
    assert set(PLANE_PINS) == set(PARTIAL_PINS) == set(STABILITY_PLANES)


@pytest.mark.parametrize("name", sorted(GOLDEN_PINS))
def test_fixed_seed_run_matches_recorded_counters(name):
    protocol, sites, overrides, letter, pinned = GOLDEN_PINS[name]
    store = build_store(
        protocol,
        sites=sites,
        servers_per_site=4,
        chain_length=3,
        seed=1234,
        overrides=overrides,
    )
    spec = workload(letter, record_count=25, value_size=32)
    WorkloadRunner(store, spec, n_clients=3, duration=0.5, warmup=0.1).run()
    stats = store.network.stats
    assert (store.sim.events_processed, stats.messages_sent, stats.bytes_sent) == pinned
