"""The simulated network fabric.

Addresses are ``(site, node)`` pairs — a *site* is a datacenter. Links
within a site use the LAN latency model; links between sites use the WAN
model for that site pair. Delivery between any ordered pair of addresses
is FIFO (as over a TCP connection): a message handed to the network
later never overtakes one handed over earlier, even if its sampled
latency is smaller. Chain replication's correctness argument leans on
exactly this property.

Failure injection:

- ``set_down(addr)`` silently discards traffic to/from a crashed node,
- ``block(a, b)`` / ``unblock(a, b)`` model network partitions at site
  or address granularity,
- ``slow(a, b, factor)`` / ``restore(a, b)`` degrade a site link (a grey
  failure) and put back the model in force before the first slowdown,
- ``add_filter(fn)`` installs an arbitrary drop predicate for targeted
  fault tests.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, Union

from repro.errors import AddressUnknownError, NetworkError
from repro.net.latency import LatencyModel, ScaledLatency, lan_latency, wan_latency
from repro.net.message import Message, inline_sized
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.version import intern_str

__all__ = [
    "Address",
    "Network",
    "NetworkStats",
    "commutativity_fingerprint",
    "message_keys",
]

#: Minimum spacing enforced between FIFO deliveries on one link (seconds).
_FIFO_EPSILON = 1e-9

#: Every this many sends, drop links whose FIFO horizon lies in the past
#: (they no longer constrain delivery and are dead weight on long runs
#: with many transient clients; the next send on one re-opens it).
_HORIZON_SWEEP_INTERVAL = 4096

Handler = Callable[[Message, "Address"], None]


def message_keys(msg: Message) -> Tuple[str, ...]:
    """The datastore keys a message touches, in carried order.

    Single-key protocol messages expose ``key``; the coalesced batch
    messages carry ``entries`` ((key, version) pairs) or ``updates``
    (whole RemoteUpdates). Control-plane messages (heartbeats, view
    changes) touch no keys and return ``()``.
    """
    key = getattr(msg, "key", "")
    if key:
        return (key,)
    entries = getattr(msg, "entries", ())
    if entries:
        return tuple(k for k, _version in entries)
    updates = getattr(msg, "updates", ())
    if updates:
        return tuple(u.key for u in updates)
    return ()


def commutativity_fingerprint(
    src: "Address", dst: "Address", msg: Message
) -> Tuple[str, str, Tuple[str, ...]]:
    """DPOR independence fingerprint: ``(destination, type, keys)``.

    Delivering a message runs exactly one actor's handler, which mutates
    only that actor's state (plus fresh sends appended to per-link FIFO
    queues) — so two pending deliveries to *different* destinations
    commute: executing them in either order reaches the same state. The
    explorer's independence relation leans on the destination component;
    type and keys are carried for schedule reporting and refinement.
    """
    return (str(dst), msg.type_name, message_keys(msg))


@inline_sized
class Address(tuple):
    """Network address of an actor: a node name within a site (datacenter).

    A ``(site, node)`` tuple with names: every message hop looks
    addresses up in several tables, and a tuple hashes, compares and
    orders in C. Site and node names recur across every address, record
    and tracker entry; interning shares one string object apiece (and
    ``__reduce__`` rebuilds through it on the far side of a pickle).
    """

    __slots__ = ()

    def __new__(cls, site: str, node: str) -> "Address":
        return tuple.__new__(cls, (intern_str(site), intern_str(node)))

    site = property(itemgetter(0))
    node = property(itemgetter(1))

    def __reduce__(self) -> Tuple[type, Tuple[str, str]]:
        return (Address, (self[0], self[1]))

    def __repr__(self) -> str:
        return f"Address(site={self[0]!r}, node={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"

    def size_bytes(self) -> int:
        return 4 + len(self[0]) + 4 + len(self[1])


@dataclasses.dataclass
class NetworkStats:
    """Counters of everything the fabric delivered or dropped."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_dropped: int = 0
    #: type_name → [messages, bytes]: one lookup per recorded message
    per_type: Dict[str, List[int]] = dataclasses.field(default_factory=dict)
    cross_site_messages: int = 0
    cross_site_bytes: int = 0

    def record(self, msg: Message, size: int, cross_site: bool) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        entry = self.per_type.get(msg.type_name)
        if entry is None:
            entry = self.per_type[msg.type_name] = [0, 0]
        entry[0] += 1
        entry[1] += size
        if cross_site:
            self.cross_site_messages += 1
            self.cross_site_bytes += size

    @property
    def by_type(self) -> Mapping[str, int]:
        """Messages sent per type name (read-only)."""
        return MappingProxyType({name: entry[0] for name, entry in self.per_type.items()})

    @property
    def bytes_by_type(self) -> Mapping[str, int]:
        """Bytes sent per type name (read-only)."""
        return MappingProxyType({name: entry[1] for name, entry in self.per_type.items()})

    def merge_from(self, other: "NetworkStats") -> None:
        """Accumulate another fabric's counters (the parallel engine
        merges one ``NetworkStats`` per shard, in site order)."""
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.messages_dropped += other.messages_dropped
        for name, (messages, size) in other.per_type.items():
            entry = self.per_type.setdefault(name, [0, 0])
            entry[0] += messages
            entry[1] += size
        self.cross_site_messages += other.cross_site_messages
        self.cross_site_bytes += other.cross_site_bytes

    def count_of(self, *type_names: str) -> int:
        """Messages sent whose type is any of ``type_names``.

        The protocol-plane perf report compares e.g. the unbatched
        ``chain-stable`` flow against ``chain-stable`` + ``bulk-stable``
        under batching; this saves every caller the by_type plumbing.
        """
        return sum(self.per_type[name][0] for name in type_names if name in self.per_type)

    def bytes_of(self, *type_names: str) -> int:
        """Bytes sent across messages of any of ``type_names``."""
        return sum(self.per_type[name][1] for name in type_names if name in self.per_type)


class _Link:
    """One ordered (src, dst) pair: what every send on it has in common.

    ``model`` is the latency model currently in force (re-resolved in
    place when a site link is overridden), ``horizon`` the delivery time
    of the last message handed to the link — the FIFO floor of the next.
    """

    __slots__ = ("src", "dst", "model", "cross_site", "horizon")

    def __init__(self, src: Address, dst: Address, model: LatencyModel) -> None:
        self.src = src
        self.dst = dst
        self.model = model
        self.cross_site = src.site != dst.site
        self.horizon = 0.0

    def fifo(self, deliver_at: float) -> float:
        """Clamp ``deliver_at`` behind the link's previous delivery and
        make it the new horizon. The one home of the FIFO rule: both
        :meth:`Network.send` and the shard boundary schedule through it."""
        horizon = self.horizon + _FIFO_EPSILON
        if horizon > deliver_at:
            deliver_at = horizon
        self.horizon = deliver_at
        return deliver_at


class Network:
    """Message fabric connecting actors over simulated links."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngRegistry] = None,
        lan: Optional[LatencyModel] = None,
        wan: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self._rng = (rng or RngRegistry(0)).stream("network")
        self._lan = lan or lan_latency()
        self._wan = wan or wan_latency()
        self._site_links: Dict[FrozenSet[str], LatencyModel] = {}
        #: per slowed link, the override in force before its first
        #: slowdown (None = the default lan/wan model)
        self._slowed: Dict[FrozenSet[str], Optional[LatencyModel]] = {}
        self._handlers: Dict[Address, Handler] = {}
        self._down: Set[Address] = set()
        self._blocked: Set[FrozenSet[str]] = set()
        self._filters: List[Callable[[Address, Address, Message], bool]] = []
        #: one entry per ordered address pair with a recent send; swept of
        #: idle links every _HORIZON_SWEEP_INTERVAL sends
        self._links: Dict[Tuple[Address, Address], _Link] = {}
        self._sends_since_sweep = 0
        #: cross-shard trap (see repro.net.boundary); None on unsharded
        #: deployments, so the common case costs one attribute load on
        #: the unknown-address branch only.
        self._boundary = None
        #: explore-mode diversion (see repro.analysis.explore): a
        #: predicate-and-capture hook consulted after the drop checks;
        #: returning True means the hook queued the message itself and
        #: the latency model is bypassed for it. None in ordinary runs.
        self._divert: Optional[Callable[[Address, Address, Message], bool]] = None
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def set_link(self, site_a: str, site_b: str, model: LatencyModel) -> None:
        """Override the latency model between two sites (or within one)."""
        self._site_links[frozenset((site_a, site_b))] = model
        self._refresh_link_models()

    def clear_link(self, site_a: str, site_b: str) -> None:
        """Drop a link override, restoring the default lan/wan model."""
        self._site_links.pop(frozenset((site_a, site_b)), None)
        self._refresh_link_models()

    def _refresh_link_models(self) -> None:
        # In place: a link keeps its FIFO horizon across a model change,
        # or a message sent after a slow-link fault clears would overtake
        # the ones still crawling over the slow link.
        for link in self._links.values():
            link.model = self.site_model(link.src.site, link.dst.site)

    def site_model(self, site_a: str, site_b: str) -> LatencyModel:
        """The latency model currently in force between two sites."""
        override = self._site_links.get(frozenset((site_a, site_b)))
        if override is not None:
            return override
        return self._lan if site_a == site_b else self._wan

    def latency_model(self, src: Address, dst: Address) -> LatencyModel:
        return self.site_model(src.site, dst.site)

    def open_links(self) -> int:
        """Ordered address pairs currently holding link state (a gauge:
        bounded by the pairs that sent within the last sweep interval)."""
        return len(self._links)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def set_divert(
        self, fn: Optional[Callable[[Address, Address, Message], bool]]
    ) -> None:
        """Install (or clear, with None) the explore-mode diversion hook.

        The hook sees every message that survived the drop checks. If it
        returns True it has taken ownership — no delivery is scheduled
        here; the owner later releases it through :meth:`inject_now`.
        """
        self._divert = fn

    def inject_now(self, src: Address, dst: Address, msg: Message) -> None:
        """Deliver a previously-diverted message at the current instant.

        Posts through the kernel so the delivery runs as an ordinary
        event; :meth:`_deliver` re-checks crash/partition state, so a
        message chosen for delivery after its destination crashed is
        still dropped.
        """
        self.sim.post_at(self.sim.now, self._deliver, src, dst, msg)

    def attach_boundary(self, boundary: Any) -> None:
        """Route sends to unregistered addresses in the boundary's remote
        sites through it (the sharded engine's cross-shard trap)."""
        self._boundary = boundary

    def register(self, address: Address, handler: Handler) -> None:
        if address in self._handlers:
            raise NetworkError(f"address {address} already registered")
        self._handlers[address] = handler
        self._down.discard(address)

    def unregister(self, address: Address) -> None:
        self._handlers.pop(address, None)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def set_down(self, address: Address, down: bool = True) -> None:
        """Crash (or un-crash) a node: traffic to and from it is discarded."""
        if down:
            self._down.add(address)
        else:
            self._down.discard(address)

    def block(self, a: Union[str, Address], b: Union[str, Address]) -> None:
        """Partition two endpoints (site names or addresses), both directions."""
        self._blocked.add(frozenset((str(a), str(b))))

    def unblock(self, a: Union[str, Address], b: Union[str, Address]) -> None:
        self._blocked.discard(frozenset((str(a), str(b))))

    def slow(self, site_a: str, site_b: str, factor: float) -> None:
        """Scale the latency between two sites (``a == b``: within one)
        by ``factor``; stacked slowdowns compound."""
        link = frozenset((site_a, site_b))
        if link not in self._slowed:
            self._slowed[link] = self._site_links.get(link)
        self.set_link(site_a, site_b, ScaledLatency(self.site_model(site_a, site_b), factor))

    def restore(self, site_a: str, site_b: str) -> None:
        """Undo every slowdown of a site link: back to the model in force
        before the first."""
        saved = self._slowed.pop(frozenset((site_a, site_b)), None)
        if saved is None:
            self.clear_link(site_a, site_b)
        else:
            self.set_link(site_a, site_b, saved)

    def add_filter(self, fn: Callable[[Address, Address, Message], bool]) -> None:
        """Install a predicate; messages for which it returns False are dropped."""
        self._filters.append(fn)

    def clear_filters(self) -> None:
        self._filters.clear()

    def _is_blocked(self, src: Address, dst: Address) -> bool:
        if not self._blocked:
            return False
        candidates = (
            frozenset((str(src), str(dst))),
            frozenset((src.site, dst.site)),
            frozenset((str(src), dst.site)),
            frozenset((src.site, str(dst))),
        )
        return any(pair in self._blocked for pair in candidates)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, src: Address, dst: Address, msg: Message) -> None:
        """Hand a message to the fabric for asynchronous FIFO delivery.

        Sending is always fire-and-forget; undeliverable messages are
        silently dropped (and counted), mirroring a real network where
        the sender cannot tell a slow peer from a dead one.
        """
        if dst not in self._handlers:
            boundary = self._boundary
            if boundary is not None and dst.site in boundary.remote_sites:
                boundary.send(src, dst, msg)
                return
            raise AddressUnknownError(f"no actor registered at {dst}")
        # Fast path: with no crashes, partitions, or filters active (the
        # overwhelmingly common case) the drop checks are a single truth
        # test. A dropped message's bytes are never recorded; a message
        # was sized when it was built, and only ``wire_size`` is read.
        if self._down or self._blocked or self._filters:
            if (
                src in self._down
                or dst in self._down
                or self._is_blocked(src, dst)
                or any(not keep(src, dst, msg) for keep in self._filters)
            ):
                self.stats.messages_dropped += 1
                return
        link = self._links.get((src, dst))
        if link is None:
            link = self._open_link(src, dst)
        self.stats.record(msg, msg.wire_size, link.cross_site)

        if self._divert is not None and self._divert(src, dst, msg):
            # Explore mode owns this message's delivery order; the
            # latency model is deliberately bypassed (schedules quotient
            # out timing — only the order of deliveries matters).
            return
        deliver_at = link.fifo(self.sim.now + link.model.sample(self._rng))
        self._sends_since_sweep += 1
        if self._sends_since_sweep >= _HORIZON_SWEEP_INTERVAL:
            self._sweep_links()
        self.sim.post_at(deliver_at, self._deliver, src, dst, msg)

    def _open_link(self, src: Address, dst: Address) -> _Link:
        link = self._links[(src, dst)] = _Link(src, dst, self.latency_model(src, dst))
        return link

    def _sweep_links(self) -> None:
        """Drop links whose horizon can no longer delay a delivery."""
        self._sends_since_sweep = 0
        now = self.sim.now
        stale = [
            pair
            for pair, link in self._links.items()
            if link.horizon + _FIFO_EPSILON <= now
        ]
        for pair in stale:
            del self._links[pair]

    def _deliver(self, src: Address, dst: Address, msg: Message) -> None:
        # Conditions are re-checked at delivery time: a node that crashed
        # or got partitioned while the message was in flight never sees it.
        if self._down or self._blocked:
            if src in self._down or dst in self._down or self._is_blocked(src, dst):
                self.stats.messages_dropped += 1
                return
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.messages_dropped += 1
            return
        handler(msg, src)
