"""Cross-shard message exchange for the parallel simulation engine.

When one logical experiment is sharded per datacenter, every
:meth:`Network.send` whose destination lives on another shard cannot be
delivered locally — the destination actor exists in a different worker
process. The :class:`ShardBoundary` traps such sends, finishes the
sender-side half of delivery (drop checks, stats accounting, latency
sampling, FIFO ordering — everything :meth:`Network.send` would have
done), and packages the result as a timestamped :class:`Envelope`. The
coordinator ferries envelopes between workers at each round barrier and
the receiving shard injects them into its own simulator.

Determinism contract: envelopes are injected in ``(deliver_at,
src_shard, seq)`` order, and only at round barriers where every local
event below the envelope's timestamp has already run (the conservative
window guarantees ``deliver_at >= window bound``). The merged execution
is therefore independent of worker count and pipe arrival order.

Envelopes cross process boundaries by pickling: ``Address`` and the
frozen ``Message`` dataclasses pickle structurally, and
``VersionVector.__reduce__`` re-interns vectors in the receiving
process's pool.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Tuple

from repro.errors import SimulationError
from repro.net.message import Message
from repro.net.network import Address, Network

__all__ = ["Envelope", "ShardBoundary"]


@dataclasses.dataclass(frozen=True)
class Envelope:
    """One cross-shard message, fully scheduled by the sender.

    ``deliver_at`` is final: the sender already sampled the WAN latency
    from its own RNG stream and applied the link's FIFO horizon, so the
    receiver schedules delivery verbatim. ``(deliver_at, src_shard,
    seq)`` is the stable injection sort key — ``seq`` is the sender
    boundary's own counter, so the triple is unique and identical no
    matter how the envelopes were batched in transit.
    """

    deliver_at: float
    src_shard: int
    seq: int
    src: Address
    dst: Address
    msg: Message

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.deliver_at, self.src_shard, self.seq)


class ShardBoundary:
    """Sender/receiver endpoint for cross-shard traffic on one shard.

    Attached to the shard's :class:`Network` via
    :meth:`Network.attach_boundary`; ``send`` is called from the
    network's unknown-address branch so the intra-shard hot path pays
    nothing for the check.
    """

    def __init__(
        self,
        network: Network,
        shard_id: int,
        remote_sites: FrozenSet[str],
        lookahead: float,
    ) -> None:
        if lookahead <= 0:
            raise SimulationError(
                f"cross-shard lookahead must be positive, got {lookahead}"
            )
        self.network = network
        self.shard_id = shard_id
        self.remote_sites = frozenset(remote_sites)
        #: conservative promise: no envelope sent now may arrive anywhere
        #: before now + lookahead. Sampled delays already respect the
        #: link models' min_latency() floors; the clamp below turns that
        #: from a convention into an enforced invariant.
        self.lookahead = lookahead
        self._outbound: List[Envelope] = []
        self._seq = 0
        self.envelopes_sent = 0
        self.envelopes_injected = 0

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, src: Address, dst: Address, msg: Message) -> None:
        """Trap one cross-shard send; mirrors :meth:`Network.send`."""
        net = self.network
        if net._down or net._blocked or net._filters:
            if (
                src in net._down
                or dst in net._down
                or net._is_blocked(src, dst)
                or any(not keep(src, dst, msg) for keep in net._filters)
            ):
                net.stats.messages_dropped += 1
                return
        # Cross-shard links live in the sending network's link table: the
        # receiving network never sees these sends, so only the sender
        # can keep them FIFO — through the same _Link.fifo as local sends.
        link = net._links.get((src, dst)) or net._open_link(src, dst)
        net.stats.record(msg, msg.wire_size, cross_site=True)

        delay = link.model.sample(net._rng)
        if delay < self.lookahead:
            delay = self.lookahead
        deliver_at = link.fifo(net.sim.now + delay)

        self._seq += 1
        self._outbound.append(
            Envelope(
                deliver_at=deliver_at,
                src_shard=self.shard_id,
                seq=self._seq,
                src=src,
                dst=dst,
                msg=msg,
            )
        )
        self.envelopes_sent += 1

    def drain(self) -> List[Envelope]:
        """Take (and clear) the envelopes produced since the last round."""
        out = self._outbound
        self._outbound = []
        return out

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def inject(self, envelopes: List[Envelope]) -> None:
        """Schedule a round's inbound envelopes on the local simulator.

        Must be called at a round barrier, with every envelope
        timestamped at or after the shard's executed horizon. Sorting by
        the envelope key before scheduling makes heap sequence numbers —
        and therefore same-instant delivery order — independent of how
        the coordinator batched or ordered the transfers. Delivery goes
        through ``Network._deliver`` so crash/partition state is
        re-checked at delivery time in the *receiving* shard.
        """
        if not envelopes:
            return
        net = self.network
        sim = net.sim
        for env in sorted(envelopes, key=Envelope.sort_key):
            if env.deliver_at < sim.now:
                raise SimulationError(
                    f"stale envelope: deliver_at={env.deliver_at} < now={sim.now} "
                    f"(lookahead violated by shard {env.src_shard})"
                )
            sim.post_at(env.deliver_at, net._deliver, env.src, env.dst, env.msg)
            self.envelopes_injected += 1
