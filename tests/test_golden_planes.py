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
``quorum`` 15 730 -> 13 106).
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
    "notices+batch": (11765, 7961, 1227398),
    "clock": (24687, 15988, 1568988),
}

#: (protocol, config overrides) -> the same three counters
GOLDEN_PINS = {
    **{plane: ("chainreaction", {"stability": plane}, PLANE_PINS[plane]) for plane in STABILITY_PLANES},
    "cops": ("cops", None, (10884, 7045, 763654)),
    "eventual": ("eventual", None, (9924, 6189, 887205)),
    "quorum": ("quorum", None, (13106, 8488, 1145100)),
}


def test_every_plane_has_a_builder_and_a_pin():
    # A plane added to the names and not to the factory table (or the
    # other way round, or left unpinned) fails here, not at run time.
    assert tuple(PLANES) == STABILITY_PLANES
    assert set(PLANE_PINS) == set(STABILITY_PLANES)


@pytest.mark.parametrize("name", sorted(GOLDEN_PINS))
def test_fixed_seed_run_matches_recorded_counters(name):
    protocol, overrides, pinned = GOLDEN_PINS[name]
    store = build_store(
        protocol,
        sites=("dc0", "dc1"),
        servers_per_site=4,
        chain_length=3,
        seed=1234,
        overrides=overrides,
    )
    spec = workload("B", record_count=25, value_size=32)
    WorkloadRunner(store, spec, n_clients=3, duration=0.5, warmup=0.1).run()
    stats = store.network.stats
    assert (store.sim.events_processed, stats.messages_sent, stats.bytes_sent) == pinned
