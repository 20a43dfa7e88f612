"""Simulated network substrate: messages, latency models, fabric, actors."""

from repro.net.actor import Actor
from repro.net.boundary import Envelope, ShardBoundary
from repro.net.latency import (
    WAN_LATENCY_FLOOR,
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    NormalLatency,
    ScaledLatency,
    UniformLatency,
    lan_latency,
    wan_latency,
)
from repro.net.message import Message, estimate_size
from repro.net.network import Address, Network, NetworkStats

__all__ = [
    "Actor",
    "Message",
    "estimate_size",
    "Address",
    "Network",
    "NetworkStats",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "NormalLatency",
    "LogNormalLatency",
    "ScaledLatency",
    "WAN_LATENCY_FLOOR",
    "lan_latency",
    "wan_latency",
    "Envelope",
    "ShardBoundary",
]
