"""Recorded runs: one table, one loop.

Four test modules register deterministic scripts with :func:`pin_loop`:
client operations (``test_client_ops``), the remote-update pipeline and
dependency waits (``test_geo_ops``), the YCSB mini-run on every plane and
baseline (``test_golden_planes``) and the traced timeline
(``test_trace``). What each run did — outcome, ``resolved_at``, retries,
counters, visibility samples, summary row, events, messages, bytes and
trace digests, as :func:`fields` names them — is kept in ``pins.json``,
one row per script id, and compared exactly (floats included). A script
whose fields move changed the simulation: fix the change, or re-record
on purpose with the one command that prints every field that moved::

    python scripts/ab_pairs.py --pins --base HEAD [--expect-different SCRIPT ...] --write
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterable

import pytest

TABLE = Path(__file__).with_name("pins.json")

#: script-id prefix -> the module whose scripts carry it
MODULES = {
    "client_ops": "test_client_ops",
    "geo_ops": "test_geo_ops",
    "golden": "test_golden_planes",
    "trace": "test_trace",
}

#: script id -> a zero-argument run returning its fields
REGISTRY: Dict[str, Callable[[], Dict[str, Any]]] = {}


@functools.lru_cache(maxsize=None)
def table() -> Dict[str, Dict[str, Any]]:
    return json.loads(TABLE.read_text())


def fields(store: Any, *, session: Any = None, future: Any = None, keys: Iterable[str] = (),
           site: str = "dc1", tap: Any = None, result: Any = None, tracer: Any = None) -> Dict[str, Any]:
    """The named fields of a finished run: the kernel's events and the
    network's messages and bytes, plus what each part given pins — a
    client operation with its session; the values ``keys`` hold at their
    heads in ``site`` with dc1's proxy and the protocol counters; a
    message tap's digest; a workload's summary row; a tracer's timeline.
    In the table's own types (lists for tuples)."""
    net = store.network.stats
    row: Dict[str, Any] = {
        "events": store.sim.events_processed, "messages": net.messages_sent, "bytes": net.bytes_sent,
    }
    if future is not None:
        outcome = future.exception() if future.failed() else future.result()
        row.update(outcome=type(outcome).__name__, resolved_at=future.resolved_at, retries=session.retries,
                   failed_ops=session.failed_ops, degraded_reads=session.degraded_reads)
    if keys:
        view = store.managers[site].view
        servers = {node.name: node for node in store.servers(site)}
        proxy = store.proxies.get("dc1")
        stats = store.protocol_stats()
        row.update(
            values=[getattr(servers[view.chain_for(key)[0]].store.get(key), "value", None) for key in keys],
            visibility=list(proxy.visibility_samples) if proxy is not None else [],
            updates_applied=proxy.updates_applied if proxy is not None else 0,
            **{c: stats[c] for c in ("remote_applies", "puts_served", "dep_waits", "dep_wait_timeouts")},
        )
    if tap is not None:
        row["tap_sha256"] = hashlib.sha256(repr(tap.entries).encode()).hexdigest()[:16]
    if result is not None:
        row["summary"] = result.summary_row()
    if tracer is not None:
        counts = tracer.counts()
        row.update(timeline_events=len(tracer), dc_stable=counts["stability:dc-stable"],
                   geo_ship=counts["geo:ship"],
                   timeline_sha256=hashlib.sha256(tracer.format().encode()).hexdigest())
    return json.loads(json.dumps(row))


def pin_loop(prefix: str, scripts: Iterable[str], observe: Callable[[str], Dict[str, Any]]) -> Callable[[str], None]:
    """Register ``observe(name)`` for each script as ``prefix/name`` and
    return the module's pin test: one test ID per script, its fields
    against the table's row."""
    assert prefix in MODULES, f"{prefix!r}: add its module to test_pins.MODULES"
    names = sorted(scripts)
    for name in names:
        REGISTRY[f"{prefix}/{name}"] = functools.partial(observe, name)

    @pytest.mark.parametrize("name", names)
    def test(name: str) -> None:
        assert observe(name) == table()[f"{prefix}/{name}"]

    return test


def registered() -> Dict[str, Callable[[], Dict[str, Any]]]:
    for module in MODULES.values():
        importlib.import_module(module)
    return REGISTRY


def record() -> Dict[str, Dict[str, Any]]:
    """Every registered script's fields as the ``repro`` on the path
    produces them; a script that raises records its error instead."""
    rows = {}
    for script, observe in sorted(registered().items()):
        try:
            rows[script] = observe()
        except Exception as exc:  # a base revision may lack what a script uses
            rows[script] = {"error": "".join(traceback.format_exception_only(type(exc), exc)).strip()}
    return rows


def test_every_registered_script_has_a_row_and_every_row_a_script():
    assert sorted(registered()) == sorted(table())
