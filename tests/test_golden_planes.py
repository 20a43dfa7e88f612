"""Golden pins for the planes and protocols ``test_golden_trace`` does not run.

The golden trace pins the ``notices`` plane only, so a wire-size or
event-order slip confined to ``ClockShip`` / ``StabilityVector`` /
``BulkStable`` / a baseline's messages would pass it. These are the same
mini-run (``test_golden_trace._golden_run``: 2 DCs, YCSB-B, 25 keys, 3
clients, seed 1234) under the other two stabilization planes and two
baseline protocols, recorded on commit 8af2af1 — before the message
fabric's link objects, size plans and handler tables. The same rule
applies: a fabric optimisation that moves one of these changed the
simulation and must be fixed, not re-recorded.
"""

import pytest

from repro.baselines import build_store
from repro.core.config import BATCHED_OVERRIDES
from repro.workload import WorkloadRunner, workload

#: (protocol, config overrides) -> (events processed, messages sent, bytes sent)
GOLDEN_PINS = {
    "clock": ("chainreaction", {"stability": "clock"}, (27498, 15988, 1568988)),
    "notices+batch": ("chainreaction", dict(BATCHED_OVERRIDES), (14983, 7961, 1227398)),
    "cops": ("cops", None, (13506, 7045, 763654)),
    "eventual": ("eventual", None, (12451, 6189, 887205)),
}


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
