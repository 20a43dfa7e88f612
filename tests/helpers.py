"""Shared builders for the test suite (importable without conftest magic)."""

from __future__ import annotations

import dataclasses

from repro.baselines import build_store
from repro.core import ChainReactionConfig, ChainReactionStore
from repro.net.message import WIRE_HEADER_BYTES, Message


def make_store(**overrides) -> ChainReactionStore:
    """A small single-DC ChainReaction deployment for protocol tests."""
    defaults = dict(
        sites=("dc0",),
        servers_per_site=4,
        chain_length=3,
        ack_k=2,
        seed=7,
        service_time=0.0,  # protocol tests want latency without queueing
    )
    defaults.update(overrides)
    return ChainReactionStore(ChainReactionConfig(**defaults))


def make_geo_store(n_sites: int = 2, **overrides) -> ChainReactionStore:
    sites = tuple(f"dc{i}" for i in range(n_sites))
    return make_store(sites=sites, **overrides)


def run_op(store, future, extra: float = 1.0):
    """Advance virtual time just until a client operation resolves.

    Unlike ``sim.run(until=...)`` this stops at the resolution instant,
    so tests can interleave operations with precise timing.
    """
    deadline = store.sim.now + extra
    sim = store.sim
    while not future.done():
        if sim.now >= deadline or not sim.step():
            break
    assert future.done(), f"operation still pending at t={sim.now}"
    return future.result()


def build(protocol: str, **kwargs):
    """Registry passthrough with small-test defaults."""
    defaults = dict(servers_per_site=4, chain_length=3, seed=7)
    defaults.update(kwargs)
    return build_store(protocol, **defaults)


# ----------------------------------------------------------------------
# wire-size reference
# ----------------------------------------------------------------------
# The reflective walk ``repro.net.message`` used before size plans and
# type-dispatched sizing, kept as the oracle both must equal: an
# ``isinstance`` ladder per value, ``getattr`` per field, nothing cached,
# annotations never consulted. (One addition: a nested message is walked
# here too instead of through its own — planned — ``size_bytes``.)

_REFERENCE_SCALARS = {bool: 1, int: 8, float: 8, type(None): 1}


def reference_estimate_size(value) -> int:
    scalar = _REFERENCE_SCALARS.get(type(value))
    if scalar is not None:
        return scalar
    if isinstance(value, Message) and type(value).size_bytes is Message.size_bytes:
        return reference_message_size(value)
    # An object that sizes itself wins over the container rungs: an
    # ``Address`` is a tuple and still 8 + len(site) + len(node) bytes.
    size_fn = getattr(value, "size_bytes", None)
    if callable(size_fn):
        return size_fn()
    if isinstance(value, (str, bytes)):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(reference_estimate_size(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            reference_estimate_size(k) + reference_estimate_size(v) for k, v in value.items()
        )
    if dataclasses.is_dataclass(value):
        return sum(
            reference_estimate_size(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return 8


def reference_message_size(msg: Message) -> int:
    """``WIRE_HEADER_BYTES`` plus the reference size of every field."""
    return WIRE_HEADER_BYTES + sum(
        reference_estimate_size(getattr(msg, f.name)) for f in dataclasses.fields(msg)
    )


# ----------------------------------------------------------------------
# read-reply reference
# ----------------------------------------------------------------------
# The string-keyed dict ``ChainNode.rpc_get`` / ``rpc_get_fwd`` answered
# with before ``repro.core.messages.ReadReply``, built the way they and
# ``ClockNodePlane.annotate_read`` built it: five fixed keys, ``hlc``
# only on the clock plane (None for an unstamped record), ``fwd_deps``
# only on a forwarded read of a write that has dependencies. Sizing this
# dict is the oracle ``ReadReply.size_bytes`` must equal to the byte.

_ABSENT = object()


def legacy_read_reply(value, version, stable, globally, index, hlc=_ABSENT, fwd_deps=None) -> dict:
    reply = {
        "value": value,
        "version": version,
        "stable": stable,
        "global": globally,
        "index": index,
    }
    if hlc is not _ABSENT:
        reply["hlc"] = hlc
    if fwd_deps is not None:
        reply["fwd_deps"] = fwd_deps
    return reply


# ----------------------------------------------------------------------
# apply-remote reference
# ----------------------------------------------------------------------
# The string-keyed dict ``GeoProxy._inject_at_head`` sent as the payload
# of an ``apply_remote`` RPC before ``repro.core.messages.ApplyRemote``,
# built the way it built it: seven fixed keys off the ``RemoteUpdate``,
# ``hlc`` only when the update carries a stamp (the clock plane). Sizing
# this dict is the oracle ``ApplyRemote.size_bytes`` must equal to the byte.


def legacy_apply_remote(msg) -> dict:
    from repro.sim.hlc import HLCStamp

    payload = {
        "key": msg.key,
        "value": msg.value,
        "version": msg.version,
        "stamp": msg.stamp,
        "deps": msg.deps,
        "origin_site": msg.origin_site,
        "origin_put_at": msg.origin_put_at,
    }
    if isinstance(msg.hlc, HLCStamp):
        payload["hlc"] = msg.hlc
    return payload
