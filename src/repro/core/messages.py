"""Wire messages of the ChainReaction protocol.

Three planes:

- **client plane** — ``PutRequest`` travels from a client session to a
  chain head; ``PutReply`` returns *directly* from whichever chain
  position acknowledges (the k-th server), saving the back-hop that a
  conventional RPC would pay. A read is one ``GetRequest`` to one chosen
  server, answered by a ``ReadReply`` straight back; a snapshot read's
  leg is a ``GetStable`` answered by a ``StableReply``. An owner DC's
  geo-proxy relays a remote client's request to its head and the reply
  back, under its own request id and then the client's.
- **chain plane** — ``ChainPut`` carries a write down the chain;
  ``ChainStable`` carries the tail's stability notification back up.
- **geo plane** — ``RemoteUpdate`` ships a DC-stable write to the other
  datacenters, where the proxy injects it at the local chain head as an
  ``ApplyRemote``; ``GlobalAck`` flows back to the origin so it can
  declare the write globally stable.

A dependency wait asks the dependency's chain tail with a
``WaitStable``. It and ``ApplyRemote`` are answered by an ``Ack``.
Every request of these pairs carries a ``request_id`` from its sender's
deadline table (``Actor._open_request``), and its reply hands it back.

On the ``notices+batch`` plane the metadata streams coalesce:
``BulkStable`` replaces per-write ``ChainStable`` hops,
``RemoteUpdateBatch`` carries a flush window's worth of ``RemoteUpdate``
payloads to one peer DC, and ``GlobalStableBatch`` replaces the
``GlobalStableNotice`` fan-out. Batches hold (key, version) entries or
whole updates in buffering order; receivers process them left to right,
so per-link FIFO semantics carry over unchanged.

``DepEntry`` is the unit of the client library's causality metadata:
the version of an object the session observed and the deepest chain
position known to hold it.

On the clock plane the notice cascade above is replaced: writes carry an ``hlc`` stamp (the
field defaults to the zero-size :data:`repro.sim.hlc.NO_HLC` sentinel,
so the notices plane's wire bytes are untouched), tails report
per-write ``TailApplied`` retirements to their head, servers report
low-stamp floors via ``ClockReport``, the site agent broadcasts one
``StabilityVector`` per interval per peer, ships DC-stable writes in
``ClockShip`` batches, and drives local visibility with ``ClockTick``.

Every message is declared ``@wire_message`` on a ``Message`` subclass:
class-level ``type_name`` (the ``on_<type_name>`` handler it reaches),
then fields with defaults, mutable ones through
``dataclasses.field(default_factory=...)``. The decorator makes the
class a frozen dataclass and compiles its ``__init__``, which also
sizes the message, from the field list; the linter's
``frozen-message`` rule accepts no other declaration. A message sent
to several destinations is built once and handed to every send.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.net.message import Message, wire_message
from repro.net.network import Address
from repro.sim.hlc import NO_HLC, HLCStamp
from repro.storage.version import VersionVector

__all__ = [
    "DepEntry",
    "Deps",
    "deps_size_bytes",
    "PutRequest",
    "PutReply",
    "GetRequest",
    "ReadReply",
    "GetStable",
    "StableReply",
    "RELAY_TIMEOUT",
    "WaitStable",
    "ApplyRemote",
    "Ack",
    "ChainPut",
    "ChainStable",
    "BulkStable",
    "TailStable",
    "RemoteUpdate",
    "RemoteUpdateBatch",
    "GlobalAck",
    "GlobalStableNotice",
    "GlobalStableBatch",
    "StateTransfer",
    "TransferDone",
    "TailApplied",
    "ClockReport",
    "ClockTick",
    "StabilityVector",
    "ClockShip",
]

#: (key, version) pairs as carried by the coalesced stability messages.
StableEntries = Tuple[Tuple[str, VersionVector], ...]

#: ``error`` of the refusal an owner DC's proxy sends a remote client
#: when its chain head did not answer the relayed request in time
RELAY_TIMEOUT = "relay-timeout"


class DepEntry:
    """One tracked causal dependency: (version seen, chain index holding it).

    Hand-rolled slotted class (py3.9-safe): sessions hold one per
    tracked key and every ``PutRequest`` snapshot references them, so
    the dataclass ``__dict__`` was pure overhead at scale. Value
    semantics (eq/hash by fields) match the old frozen dataclass.
    """

    __slots__ = ("version", "index", "hlc")

    def __init__(
        self,
        version: VersionVector,
        index: int,
        hlc: Optional[HLCStamp] = None,
    ) -> None:
        self.version = version
        self.index = index
        #: the write's HLC stamp when the clock plane is on, else None
        self.hlc = hlc

    def size_bytes(self) -> int:
        size = self.version.size_bytes() + 4
        if self.hlc is not None:
            size += self.hlc.size_bytes()
        return size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DepEntry):
            return NotImplemented
        return (
            self.version == other.version
            and self.index == other.index
            and self.hlc == other.hlc
        )

    def __hash__(self) -> int:
        return hash((self.version, self.index, self.hlc))

    def __repr__(self) -> str:
        return (
            f"DepEntry(version={self.version!r}, index={self.index!r}"
            + (f", hlc={self.hlc!r})" if self.hlc is not None else ")")
        )


#: Any mapping of key → DepEntry. ``PutRequest.deps`` carries either a
#: plain dict or a frozen :class:`repro.storage.deptable.DepSnapshot`;
#: both satisfy the Mapping protocol and size identically on the wire.
Deps = Dict[str, DepEntry]


def deps_size_bytes(deps: "Deps") -> int:
    """Wire size of a dependency map as carried on a PutRequest.

    Duck-typed over ``items()`` so dep-table snapshots account
    byte-identically to the dicts they replaced.
    """
    return 4 + sum(4 + len(k) + d.size_bytes() for k, d in deps.items())


@wire_message
class PutRequest(Message):
    """Client → chain head (or → an owner DC's proxy, which relays it to
    its head). Carries the session's unstable dependencies."""

    type_name: ClassVar[str] = "put-request"
    request_id: int = 0
    key: str = ""
    value: Any = None
    deps: Deps = dataclasses.field(default_factory=dict)
    reply_to: Optional[Address] = None
    is_delete: bool = False


@wire_message
class PutReply(Message):
    """k-th chain server → client, acknowledging the write."""

    type_name: ClassVar[str] = "put-reply"
    request_id: int = 0
    key: str = ""
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    index: int = 0
    chain_len: int = 1
    ok: bool = True
    error: str = ""
    #: HLC stamp of the write (clock plane); NO_HLC costs zero bytes
    hlc: Any = NO_HLC


@wire_message
class GetRequest(Message):
    """Client → any chain position the session's metadata allows (or,
    ``forwarded``, → an owner DC's proxy, which relays it to its chain
    head). Answered by a :class:`ReadReply` straight back."""

    type_name: ClassVar[str] = "get-request"
    request_id: int = 0
    key: str = ""
    #: forwarded from a non-owner DC: the reply carries ``fwd_deps``
    forwarded: bool = False


@wire_message
class ReadReply(Message):
    """Chain position → reader: the record as this position (``index``)
    holds it, or ``ok=False`` with the reason the read was refused
    (``syncing``, ``not-responsible-shard``, ``not-responsible``).

    ``value`` is None for a missing or deleted key; ``stable`` /
    ``globally``: the version is DC-stable / stable in every DC. ``hlc``
    is the record's stamp on the clock plane (None for an unstamped
    record), :data:`~repro.sim.hlc.NO_HLC` (zero bytes) elsewhere.
    ``fwd_deps`` is set only on a forwarded read of a write with
    dependencies. Both are "absent" by values that survive pickle, never
    by an identity sentinel: a reply crosses the shard boundary by pickle.
    """

    type_name: ClassVar[str] = "read-reply"
    request_id: int = 0
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    stable: bool = False
    globally: bool = False
    index: int = 0
    ok: bool = True
    error: str = ""
    hlc: Any = NO_HLC
    fwd_deps: Optional[Deps] = None


@wire_message
class GetStable(Message):
    """A snapshot read's leg → any chain position of ``key`` (or → an
    owner DC's proxy, which relays it). Answered by a :class:`StableReply`."""

    type_name: ClassVar[str] = "get-stable"
    request_id: int = 0
    key: str = ""


@wire_message
class StableReply(Message):
    """Chain position → snapshot reader: the newest DC-stable record
    (``found`` False: none) with the versions the write that produced it
    depended on, or ``ok=False`` with the reason the read was refused."""

    type_name: ClassVar[str] = "stable-reply"
    request_id: int = 0
    found: bool = False
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    deps: Dict[str, VersionVector] = dataclasses.field(default_factory=dict)
    ok: bool = True
    error: str = ""


@wire_message
class WaitStable(Message):
    """A held write's dependency wait → the dependency's chain tail:
    answer with an :class:`Ack` once ``version`` of ``key`` is DC-stable
    there. A version comparison, not a data operation: it costs the tail
    no service slot."""

    type_name: ClassVar[str] = "wait-stable"
    request_id: int = 0
    key: str = ""
    version: VersionVector = dataclasses.field(default_factory=VersionVector)


@wire_message
class ApplyRemote(Message):
    """Geo-proxy → local chain head: serialise and propagate a write
    shipped from ``origin_site`` like one of the head's own (the fields
    of the :class:`RemoteUpdate` it arrived in; ``hlc`` is
    :data:`~repro.sim.hlc.NO_HLC` off the clock plane). Answered by an
    :class:`Ack`, ``ok=False`` when the head is syncing or is not the
    key's head."""

    type_name: ClassVar[str] = "apply-remote"
    request_id: int = 0
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    #: arbitration stamp of the surviving write (None = derive from version)
    stamp: Any = None
    deps: Deps = dataclasses.field(default_factory=dict)
    origin_site: str = ""
    origin_put_at: float = 0.0
    hlc: Any = NO_HLC


@wire_message
class Ack(Message):
    """Chain node → requester: the answer to a :class:`WaitStable` (the
    version is DC-stable) or an :class:`ApplyRemote` (``ok``: applied)."""

    type_name: ClassVar[str] = "ack"
    request_id: int = 0
    ok: bool = True


@wire_message
class ChainPut(Message):
    """Propagation of a write down the chain (head → ... → tail)."""

    type_name: ClassVar[str] = "chain-put"
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    origin_site: str = ""
    deps: Deps = dataclasses.field(default_factory=dict)
    #: chain position the message is being delivered to (head sends 1, ...)
    position: int = 0
    #: acknowledge the client once the server at ``ack_index`` applies
    ack_index: int = -1
    request_id: int = 0
    reply_to: Optional[Address] = None
    #: virtual time the originating client issued the put (geo metrics)
    origin_put_at: float = 0.0
    #: HLC stamp minted by the head (clock plane); NO_HLC costs zero bytes
    hlc: Any = NO_HLC


@wire_message
class ChainStable(Message):
    """Tail → ... → head: this version is now DC-stable."""

    type_name: ClassVar[str] = "chain-stable"
    key: str = ""
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    position: int = 0


@wire_message
class BulkStable(Message):
    """Coalesced ``ChainStable``: one flush window of stability entries.

    Sent tail → upstream (and re-coalesced hop by hop) on the
    ``notices+batch`` plane. Entries appear in buffering order and
    carry the merged stable version per key.
    """

    type_name: ClassVar[str] = "bulk-stable"
    entries: "StableEntries" = ()


@wire_message
class TailStable(Message):
    """Chain tail → local geo-proxy: a write just became DC-stable here.

    For locally-originated writes the proxy ships it to the other DCs;
    for remote-originated writes the proxy reports a :class:`GlobalAck`
    back to the origin (the clock plane: its injection horizon moves).
    Either way the notices proxy records the version as DC-stable, which
    is what its dependency gate waits on. A remote-origin notice carries
    only ``key``, ``version``, ``origin_site`` and ``hlc``: nothing ships
    it again, and no site half reads its value, stamp, deps or put time.
    """

    type_name: ClassVar[str] = "tail-stable"
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    #: arbitration stamp of the surviving write (None = derive from version)
    stamp: Any = None
    deps: Deps = dataclasses.field(default_factory=dict)
    origin_site: str = ""
    origin_put_at: float = 0.0
    #: HLC stamp of the write (clock plane); NO_HLC costs zero bytes
    hlc: Any = NO_HLC


@wire_message
class RemoteUpdate(Message):
    """Origin geo-proxy → remote geo-proxy: ship a DC-stable write."""

    type_name: ClassVar[str] = "remote-update"
    key: str = ""
    value: Any = None
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    #: arbitration stamp of the surviving write (None = derive from version)
    stamp: Any = None
    deps: Deps = dataclasses.field(default_factory=dict)
    origin_site: str = ""
    origin_put_at: float = 0.0
    #: HLC stamp of the write (clock plane); NO_HLC costs zero bytes
    hlc: Any = NO_HLC


@wire_message
class RemoteUpdateBatch(Message):
    """Coalesced geo shipping: one flush window of ``RemoteUpdate``s for
    one peer DC, applied in order on receipt (``notices+batch`` plane)."""

    type_name: ClassVar[str] = "remote-update-batch"
    updates: Tuple[RemoteUpdate, ...] = ()


@wire_message
class GlobalAck(Message):
    """Remote geo-proxy → origin geo-proxy: the write is DC-stable here."""

    type_name: ClassVar[str] = "global-ack"
    key: str = ""
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    site: str = ""


@wire_message
class GlobalStableNotice(Message):
    """Origin geo-proxy → peer proxies → chain members: globally stable.

    A version acknowledged DC-stable by *every* datacenter can be pruned
    from client dependency tables — servers learn it from this notice
    and report it on reads.
    """

    type_name: ClassVar[str] = "global-stable-notice"
    key: str = ""
    version: VersionVector = dataclasses.field(default_factory=VersionVector)
    #: True on the proxy→proxy hop; the receiving proxy fans out locally.
    fan_out: bool = False


@wire_message
class GlobalStableBatch(Message):
    """Coalesced ``GlobalStableNotice``: a flush window of globally
    stable (key, version) entries (``notices+batch`` plane).

    With ``fan_out`` set (the proxy → proxy hop) the receiving proxy
    regroups the entries per local chain member and forwards one batch
    to each; without it the batch is terminal at a storage server.
    """

    type_name: ClassVar[str] = "global-stable-batch"
    entries: "StableEntries" = ()
    fan_out: bool = False


@wire_message
class StateTransfer(Message):
    """Chain repair: records (with stability) pushed to a chain member."""

    type_name: ClassVar[str] = "state-transfer"
    #: (key, value, version, stable_version, stamp[, hlc[, deps]]) tuples
    #: (``StabilityPlane._transfer_entry``)
    records: Tuple = ()
    epoch: int = 0


@wire_message
class TransferDone(Message):
    """Chain repair: sender finished streaming state for this epoch."""

    type_name: ClassVar[str] = "transfer-done"
    epoch: int = 0
    sender: str = ""


# --------------------------------------------------------------------------
# the clock plane
# --------------------------------------------------------------------------


@wire_message
class TailApplied(Message):
    """Chain tail → chain head: a locally-originated write reached the
    tail, so the head can retire it from its in-flight low-stamp set."""

    type_name: ClassVar[str] = "tail-applied"
    key: str = ""
    hlc: Any = NO_HLC


@wire_message
class ClockReport(Message):
    """Storage server → site clock agent, once per stability interval:
    the server's low-stamp floor (min in-flight stamp, else its clock).
    No write this server heads will ever be stamped ≤ ``floor``."""

    type_name: ClassVar[str] = "clock-report"
    server: str = ""
    floor: Any = NO_HLC


@wire_message
class ClockTick(Message):
    """Site clock agent → local servers, once per stability interval.

    ``dc_lst``: every write received by this DC with stamp ≤ dc_lst is
    tail-applied at every local replica (drives dep-waits + stability
    answers).  ``cut``: the global-stabilization cut — min over all DC
    vectors (drives global-stability answers + dep pruning)."""

    type_name: ClassVar[str] = "clock-tick"
    dc_lst: Any = NO_HLC
    cut: Any = NO_HLC


@wire_message
class StabilityVector(Message):
    """Geo-proxy → peer proxies, once per stability interval.

    ``ship_lst``: this site has shipped every local write stamped ≤
    ship_lst (receivers use it to bound what can still arrive).
    ``visible``: every write *anywhere* stamped ≤ visible is
    tail-applied at this site — the site's contribution to the cut."""

    type_name: ClassVar[str] = "stability-vector"
    site: str = ""
    ship_lst: Any = NO_HLC
    visible: Any = NO_HLC


@wire_message
class ClockShip(Message):
    """Geo-proxy → peer proxy: stamp-ordered batch of DC-stable local
    writes, plus the origin's ship horizon (``lst``).  Replaces the
    notices plane's per-write ``RemoteUpdate`` fan-out; the per-link
    FIFO guarantees the batch lands before any vector claiming its
    stamps."""

    type_name: ClassVar[str] = "clock-ship"
    origin_site: str = ""
    lst: Any = NO_HLC
    updates: Tuple[RemoteUpdate, ...] = ()
