"""The proving ground's seeded protocol bugs, as class patches.

Each mutation breaks one chain rule the checkers must defend: only the
tail declares a write stable, a head waits for its dependencies, a
remote update waits for its causal cut. The schedule explorer
(:mod:`repro.analysis.explore`) seeds them to show that its oracles
notice; nothing on the production path names them.

:data:`MUTATIONS` maps a name to the patches that seed it, each a
``(class, attribute, make)`` triple: ``make(original)`` returns the
replacement for ``class.__dict__[attribute]``. :func:`mutated` installs
them for the duration of a ``with`` block.

Install before you build. Some methods are captured per instance at
construction or first use, so a patch applied to a live deployment
reaches only part of it: ``_PlaneHalf._bind`` copies a plane's
``on_*`` handlers onto its host, ``NoticesPlane`` hands its ``_floor``
to both of its trackers, and ``Actor._bind_handler`` caches a handler
on first delivery.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.cluster.ring import chain_positions
from repro.core.batching import BatchedNoticesPlane, BatchedShipping
from repro.core.clockplane import ClockNodePlane, GeoClockCore
from repro.core.messages import RemoteUpdateBatch
from repro.core.node import ChainNode
from repro.core.stability import StabilityTracker
from repro.core.stability_plane import NoticesPlane, NoticesShipping
from repro.sim.hlc import HLC_ZERO
from repro.sim.process import Future

__all__ = ["MUTATIONS", "mutated"]

#: (class, attribute, make(original) -> replacement)
Patch = Tuple[type, str, Callable[[Any], Any]]


def _skip_admission_recheck(original: Any) -> Any:
    # A deposed head skips the apply-time admission re-check and mints
    # the same version number as the new head under a stale epoch.
    def _apply_put(self: ChainNode, msg: Any) -> None:
        self._put_admission_error = lambda key: None
        try:
            original(self, msg)
        finally:
            vars(self).pop("_put_admission_error", None)

    return _apply_put


def _drop_cascade(original: Any) -> Any:
    # Stability is recorded but never passed upstream: on chains of
    # three or more the head never learns a write is DC-stable.
    def on_chain_stable(self: NoticesPlane, msg: Any, src: Any) -> None:
        self.stability.record(msg.key, msg.version)
        self.node._refresh_stable_record(msg.key)

    return on_chain_stable


def _floor_one_ahead(original: Any) -> Any:
    # A sealed key claims its next, unwritten version is already stable.
    def _floor(self: BatchedNoticesPlane, key: str) -> Any:
        floor = original(self, key)
        return floor.increment(self.node.site) if key in self._sealed else floor

    return _floor


def _reverse_batch(original: Any) -> Any:
    # A flush window unpacks newer-first, so two causally ordered
    # same-key writes enter the per-key gate chain in the wrong order.
    def on_remote_update_batch(self: BatchedShipping, msg: Any, src: Any) -> None:
        original(self, RemoteUpdateBatch(updates=msg.updates[::-1]), src)

    return on_remote_update_batch


def _stable_at_ack(original: Any) -> Any:
    # The acknowledging replica records DC-stability before the write
    # reaches the tail, so readers drop a dependency still in flight.
    def _apply_and_propagate(self: ChainNode, **fields: Any) -> None:
        original(self, **fields)
        key = fields["key"]
        chain = self.chain_for(key)
        if fields["reply_to"] is not None and (
            chain_positions(chain, self.name) == fields["ack_index"] < len(chain) - 1
        ):
            self.plane.stability.record(key, fields["version"])
            self._refresh_stable_record(key)

    return _apply_and_propagate


def _trust_ship_vector(original: Any) -> Any:
    # The clock plane's injection gate trusts the origin's ship horizon,
    # which proves a dependency arrived here, not that it has finished
    # propagating down the local chain.
    def _admissible(self: GeoClockCore, update: Any, visible: Any) -> bool:
        dep_ts = self._max_dep_ts(update)
        return dep_ts is None or dep_ts <= self.dc_ship.get(update.origin_site, HLC_ZERO)

    return _admissible


def _answered(self: NoticesShipping, key: str, version: Any) -> Future:
    answer = Future(self.proxy.sim)
    answer.set_result(True)
    return answer


def _returning(value: Callable[..., Any]) -> Callable[[Any], Any]:
    """A patch that replaces the method outright with ``value``."""
    return lambda original: value


#: mutation name -> the patches that seed it
MUTATIONS: Dict[str, Tuple[Patch, ...]] = {
    "split_brain_mint": ((ChainNode, "_apply_put", _skip_admission_recheck),),
    "drop_stable_cascade": ((NoticesPlane, "on_chain_stable", _drop_cascade),),
    "gc_floor_off_by_one": ((BatchedNoticesPlane, "_floor", _floor_one_ahead),),
    "batch_reorder": ((BatchedShipping, "on_remote_update_batch", _reverse_batch),),
    "ack_implies_stable": ((ChainNode, "_apply_and_propagate", _stable_at_ack),),
    # The head admits a write as if its dependencies were DC-stable.
    "skip_dep_wait": (
        (NoticesPlane, "unresolved_deps", _returning(lambda self, msg: [])),
        (ClockNodePlane, "unresolved_deps", _returning(lambda self, msg: [])),
    ),
    "stale_stability_vector": ((GeoClockCore, "_admissible", _trust_ship_vector),),
    # The converged floor vouches for whatever record the store holds,
    # and an overwrite no longer unseals, so a write still on its chain
    # answers "stable in every DC".
    "converged_floor_overreach": (
        (NoticesPlane, "_floor", _returning(lambda self, key: self.node.store.version_of(key))),
        (StabilityTracker, "adopt", _returning(lambda self, key, version: None)),
    ),
    # The proxy's dependency gate answers at once: an inbound update goes
    # in before its dependencies are DC-stable in this datacenter.
    "proxy_gate_open": ((NoticesShipping, "wait_stable", _returning(_answered)),),
}


@contextlib.contextmanager
def mutated(names: Sequence[str]) -> Iterator[None]:
    """Seed the named mutations for the body of the ``with`` block, and
    put every original back on exit, whether the body returns or raises.
    Build the deployment inside the block (see the module docstring)."""
    saved: List[Tuple[type, str, Any]] = []
    try:
        for name in names:
            for cls, attr, make in MUTATIONS[name]:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, make(original))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
