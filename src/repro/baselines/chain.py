"""Classic chain replication baseline (FAWN-KV style).

The paper's framing makes this baseline a *degenerate configuration* of
ChainReaction, and the reproduction keeps that framing executable:

- writes acknowledge only at the **tail** (``ack_k = R``), so every put
  pays the full chain before returning,
- reads are served only by the **tail** (``allow_prefix_reads=False``),
  giving per-key linearizability — and making the tail the read
  bottleneck ChainReaction's prefix reads remove.

With tail-only reads every observed version is by definition DC-stable,
so client dependency tables stay empty and no put ever waits on a
dependency: the protocol machinery reduces exactly to chain replication.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import ChainReactionConfig
from repro.core.datastore import ChainReactionStore

__all__ = ["ChainReplicationStore", "chain_replication_config"]


def chain_replication_config(base: Optional[ChainReactionConfig] = None) -> ChainReactionConfig:
    """Rewrite a config into classic chain-replication mode."""
    base = base or ChainReactionConfig()
    return base.with_updates(
        ack_k=base.chain_length,
        allow_prefix_reads=False,
    )


class ChainReplicationStore(ChainReactionStore):
    """Chain replication: head writes, tail-acked, tail-only reads."""

    name = "chain"

    def __init__(
        self,
        config: Optional[ChainReactionConfig] = None,
        local_sites: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(chain_replication_config(config), local_sites=local_sites)
