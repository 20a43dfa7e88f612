"""Baseline protocols the paper compares against."""

from repro.baselines.chain import ChainReplicationStore, chain_replication_config
from repro.baselines.common import BaselineConfig
from repro.baselines.cops import CopsStore
from repro.baselines.eventual import EventualStore
from repro.baselines.quorum import QuorumStore
from repro.baselines.registry import PROTOCOLS, build_store

__all__ = [
    "BaselineConfig",
    "ChainReplicationStore",
    "chain_replication_config",
    "EventualStore",
    "QuorumStore",
    "CopsStore",
    "PROTOCOLS",
    "build_store",
]
