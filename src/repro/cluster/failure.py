"""The one fault form: a scheduled :class:`FaultEvent` and :func:`apply_fault`.

Fault campaigns (E9, E12) and the sharded engine both state a fault
schedule as a tuple of frozen, picklable events at fixed virtual times,
and apply each one through :func:`apply_fault` when it fires. A
campaign resolves its selectors into these events against the built
deployment (:mod:`repro.faults.engine`); a sharded experiment ships the
same events to every shard (:mod:`repro.sim.shard`), where each
shard applies every event to its own slice of the deployment.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, List, Optional

from repro.errors import ConfigError
from repro.net.actor import Actor
from repro.net.network import Address

__all__ = ["FaultEvent", "apply_fault", "schedule_faults"]

#: start / end action pairs: crash-recover an actor, partition-heal a
#: pair of endpoints, slow-restore a site link
_FAULT_ACTIONS = ("crash", "recover", "partition", "heal", "slow", "restore")


@dataclasses.dataclass(frozen=True)  # repro: lint-ok(slots) — a handful per campaign, pickled across worker pipes
class FaultEvent:
    """One fault action at virtual time ``time``.

    ``crash`` / ``recover`` name one actor as ``a = "site:node"``;
    ``wipe`` clears a crashed server's storage. ``partition`` / ``heal``
    block / unblock the pair ``a``, ``b``, each a site or ``site:node``.
    ``slow`` / ``restore`` scale the latency between the sites ``a`` and
    ``b`` (``a == b``: within one site) by ``factor`` / undo it.
    """

    time: float
    action: str
    a: str = ""
    b: str = ""
    factor: float = 10.0
    wipe: bool = False

    def __post_init__(self) -> None:
        if self.action not in _FAULT_ACTIONS:
            raise ConfigError(
                f"unknown fault action {self.action!r}; choose from {_FAULT_ACTIONS}"
            )
        if self.action in ("crash", "recover"):
            site, _, node = self.a.partition(":")
            if not (site and node):
                raise ConfigError(f"{self.action} fault needs a = 'site:node', got {self.a!r}")
        elif not (self.a and self.b):
            raise ConfigError(f"{self.action} fault needs both endpoints a and b")
        if self.action == "slow" and self.factor <= 0:
            raise ConfigError(f"slow fault factor must be positive, got {self.factor}")


def _hosted(store: Any, address: Address) -> Optional[Actor]:
    """The actor ``store`` hosts at ``address``; None when a peer shard
    hosts it."""
    if address.site not in store.local_sites:
        return None
    if address.node == "geoproxy":
        return store.proxies[address.site]
    return store._node(address.site, address.node)


def apply_fault(store: Any, event: FaultEvent) -> str:
    """Apply ``event`` to ``store`` now; returns its injector-log line.

    A crash or recovery of an actor the store hosts crashes or recovers
    it; an address a peer shard hosts is only marked down or up, so the
    send-side drop checks agree on both sides of a shard boundary.
    """
    network = store.network
    action, a, b = event.action, event.a, event.b
    if action in ("crash", "recover"):
        address = Address(*a.split(":", 1))
        actor = _hosted(store, address)
        if actor is None:
            network.set_down(address, action == "crash")
        elif action == "recover":
            actor.recover()
        else:
            actor.crash()
            if event.wipe:
                actor.store.clear()
        line = f"{action} {a}"
    elif action == "partition":
        network.block(a, b)
        line = f"partition {a} | {b}"
    elif action == "heal":
        network.unblock(a, b)
        line = f"heal {a} | {b}"
    elif action == "slow":
        network.slow(a, b, event.factor)
        line = f"slow-link {a}~{b} x{event.factor}"
    else:
        network.restore(a, b)
        line = f"restore-link {a}~{b}"
    return f"t={store.sim.now:.3f} {line}"


def schedule_faults(store: Any, events: Iterable[FaultEvent]) -> List[str]:
    """Schedule ``events`` on ``store``'s simulator, in the order given
    (their heap sequence numbers follow it); returns the log that the
    lines of :func:`apply_fault` fill as the events fire.

    Raises :class:`ConfigError`, scheduling nothing, when an endpoint is
    not a site of the store's config or a ``site:node`` naming one of
    that site's servers or its geo-proxy (``slow`` / ``restore`` take
    sites only): ``Network.block`` takes any string, and a crash of an
    unknown address only marks it down, so such a fault blocks nothing.
    """
    events = list(events)
    sites = list(store.config.sites)
    nodes = [*store.config.server_names(), *(["geoproxy"] if hasattr(store, "proxies") else [])]
    for event in events:
        for endpoint in (event.a, event.b) if event.b else (event.a,):
            site, colon, node = endpoint.partition(":")
            if site not in sites:
                raise ConfigError(f"fault names unknown site {site!r}; known sites: {sites}")
            if colon and (event.action in ("slow", "restore") or node not in nodes):
                raise ConfigError(f"fault names unknown node {endpoint!r}; {site!r} has {nodes}")
    log: List[str] = []

    def fire(event: FaultEvent) -> None:
        log.append(apply_fault(store, event))

    for event in events:
        # Fire-and-forget: release the handle for the kernel's pool.
        store.sim.schedule_at(event.time, fire, event).release()
    return log
