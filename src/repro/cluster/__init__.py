"""Cluster substrate: consistent-hash placement, membership, failure injection."""

from repro.cluster.failure import FaultEvent, apply_fault, schedule_faults
from repro.cluster.membership import ClusterManager, Heartbeat, RingView, ViewChange
from repro.cluster.ring import HashRing, chain_positions
from repro.cluster.server_base import RingServer

__all__ = [
    "HashRing",
    "chain_positions",
    "RingView",
    "ClusterManager",
    "Heartbeat",
    "ViewChange",
    "RingServer",
    "FaultEvent",
    "apply_fault",
    "schedule_faults",
]
