"""Golden runs: one E1-style mini-run on every stabilization plane and baseline.

Two DCs, YCSB-B, 25 keys, 3 clients, seed 1234, under each name of
``STABILITY_PLANES`` and the ``cops`` / ``eventual`` / ``quorum``
baselines; ``clock-1dc`` is the clock row on one site. The ``-r2`` rows
pin partial replication on every plane: three sites at
``replication_degree=2``, the same mini-run but YCSB-A (B ships only 8
writes), so the per-peer shipping rule of each ship path is exercised.

Each run's events, messages, bytes and summary row are pinned in
``pins.json`` (see ``test_pins``); ``test_golden_trace`` checks the
default configuration and its latency reservoirs against ``notices``.
"""

from repro.baselines import build_store
from repro.core.config import STABILITY_PLANES
from repro.core.stability_plane import PLANES
from repro.workload import WorkloadRunner, workload
from test_pins import fields, pin_loop

TWO_SITES = ("dc0", "dc1")
THREE_SITES = ("dc0", "dc1", "dc2")

#: run name -> (protocol, sites, config overrides, YCSB workload)
GOLDEN = {
    **{plane: ("chainreaction", TWO_SITES, {"stability": plane}, "B") for plane in STABILITY_PLANES},
    **{
        f"{plane}-r2": ("chainreaction", THREE_SITES, {"stability": plane, "replication_degree": 2}, "A")
        for plane in STABILITY_PLANES
    },
    "clock-1dc": ("chainreaction", ("dc0",), {"stability": "clock"}, "B"),
    "cops": ("cops", TWO_SITES, None, "B"),
    "eventual": ("eventual", TWO_SITES, None, "B"),
    "quorum": ("quorum", TWO_SITES, None, "B"),
}


def pinned(name):
    protocol, sites, overrides, letter = GOLDEN[name]
    store = build_store(
        protocol, sites=sites, servers_per_site=4, chain_length=3, seed=1234, overrides=overrides,
    )
    spec = workload(letter, record_count=25, value_size=32)
    result = WorkloadRunner(store, spec, n_clients=3, duration=0.5, warmup=0.1).run()
    return fields(store, result=result)


test_fixed_seed_run_matches_recorded_counters = pin_loop("golden", GOLDEN, pinned)


def test_every_plane_has_a_builder_and_a_pin():
    # A plane named but not built (or built but not named) fails here, not at
    # run time; GOLDEN runs every name, and test_pins fails a run with no row.
    assert tuple(PLANES) == STABILITY_PLANES
