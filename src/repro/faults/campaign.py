"""Declarative fault campaigns.

A campaign is a complete fault-tolerance experiment stated as data: a
deployment shape, a YCSB workload, and a schedule of seeded fault
events (crashes, recoveries, partitions, slow links) at fixed virtual
times. The engine (:mod:`repro.faults.engine`) builds the deployment,
resolves each :class:`FaultSpec` into the
:class:`~repro.cluster.failure.FaultEvent` s that start and end it
(the fault form the sharded engine also schedules), drives the workload
through the fault window, and asserts the protocol invariants plus
per-operation outcome accounting.

Because everything — fault times, targets, workload, seeds — is
declared up front, a campaign is deterministic end to end: two runs of
the same campaign under the same seed replay bit-identical message
traces (checked by :func:`repro.faults.engine.sanitize_campaign`).

Crash targets are *selectors* resolved against the built deployment:

- ``"dc0:s1"`` — the named server;
- ``"head-of:<key>"`` / ``"mid-of:<key>"`` / ``"tail-of:<key>"`` — the
  server at that chain position for ``<key>`` (first site by default;
  prefix with ``"<site>/"`` to pick another site);
- ``"owner-head-of:<key>"`` — the chain head of ``<key>`` at its
  *primary owner* DC under the deployment's shard placement (falls
  back to the first site under full replication); this is the server
  every forwarded operation on the key serialises through, the
  partial-replication single-point-of-serve stress target.

Partition targets are ``"a|b"`` where each endpoint is a site name or
``site:server``; slow-link targets are ``"siteA~siteB"`` (``a == b``
degrades a site's intra-DC fabric).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "CAMPAIGNS",
    "CampaignSpec",
    "FaultSpec",
    "campaign",
    "resolve_server",
]

_KINDS = ("crash", "partition", "slow-link")
_POSITIONS = {"head-of": "head", "mid-of": "mid", "tail-of": "tail"}


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at``/``until`` are absolute virtual times from run start (the
    workload warms up from t=0, so place faults after the warmup).
    ``until`` is the recovery/heal/restore time; None means the fault
    persists to the end of the run.
    """

    kind: str
    at: float
    target: str
    until: Optional[float] = None
    factor: float = 10.0
    wipe_storage: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; choose from {_KINDS}")
        if self.at <= 0:
            raise ConfigError(f"fault time must be positive, got {self.at}")
        if self.until is not None and self.until <= self.at:
            raise ConfigError(f"until {self.until} must follow at {self.at}")
        if not self.target:
            raise ConfigError("fault target must be non-empty")
        if self.kind == "partition" and "|" not in self.target:
            raise ConfigError(f"partition target must be 'a|b', got {self.target!r}")
        if self.kind == "slow-link":
            if "~" not in self.target:
                raise ConfigError(f"slow-link target must be 'a~b', got {self.target!r}")
            if self.factor <= 0:
                raise ConfigError(f"slow-link factor must be positive, got {self.factor}")


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A deployment + workload + fault schedule, ready to run."""

    name: str
    description: str
    events: Tuple[FaultSpec, ...]
    protocol: str = "chainreaction"
    sites: Tuple[str, ...] = ("dc0",)
    servers_per_site: int = 6
    chain_length: int = 3
    ack_k: int = 2
    workload_name: str = "B"
    records: int = 50
    clients: int = 8
    warmup: float = 0.2
    duration: float = 2.0
    drain: float = 1.0
    overrides: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if not self.events:
            raise ConfigError(f"campaign {self.name!r} schedules no faults")
        stop = self.warmup + self.duration
        for ev in self.events:
            if ev.at >= stop:
                raise ConfigError(
                    f"campaign {self.name!r}: fault at t={ev.at} falls after "
                    f"the workload stops at t={stop}"
                )

    def fault_window(self) -> Tuple[float, float]:
        """(start of first fault, end of last fault) — recovery times that
        are None extend the window to the end of the measured run."""
        stop = self.warmup + self.duration
        start = min(ev.at for ev in self.events)
        end = max(stop if ev.until is None else min(ev.until, stop) for ev in self.events)
        return start, end

    def with_updates(self, **changes: object) -> "CampaignSpec":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def resolve_server(store: Any, selector: str) -> Any:
    """Resolve a crash-target selector against a built deployment."""
    site = store.sites[0]
    sel = selector
    if "/" in sel:
        site, sel = sel.split("/", 1)
    if site not in store.sites:
        raise ConfigError(f"selector {selector!r}: unknown site {site!r}")
    if sel.startswith("owner-head-of:"):
        key = sel[len("owner-head-of:") :]
        site = store.config.placement().primary_for(key)
        chain = store.managers[site].view.chain_for(key)
        sel = f"{site}:{chain[0]}"
    position = None
    for prefix in _POSITIONS:
        if sel.startswith(prefix + ":"):
            position = _POSITIONS[prefix]
            key = sel[len(prefix) + 1 :]
            break
    if position is not None:
        chain = store.managers[site].view.chain_for(key)
        index = {"head": 0, "mid": len(chain) // 2, "tail": len(chain) - 1}[position]
        name = chain[index]
    elif ":" in sel:
        site, name = sel.split(":", 1)
        if site not in store.sites:
            raise ConfigError(f"selector {selector!r}: unknown site {site!r}")
    else:
        raise ConfigError(
            f"bad selector {selector!r}: expected 'site:server' or "
            f"'[site/]head-of:<key>' (also mid-of, tail-of)"
        )
    for node in store.servers(site):
        if node.name == name:
            return node
    raise ConfigError(f"selector {selector!r}: no server {name!r} in {site!r}")


def _crash(at: float, target: str, until: Optional[float] = None, **kw: Any) -> FaultSpec:
    return FaultSpec(kind="crash", at=at, target=target, until=until, **kw)


#: The built-in campaign library, keyed by name (``python -m repro
#: faults --campaign <name>``). Times assume the default 0.2s warmup +
#: 2.0s measured window.
CAMPAIGNS: Dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        CampaignSpec(
            name="crash-head",
            description=(
                "crash the chain head of a hot key mid-run, recover it; "
                "writes must fail over once the detector reconfigures"
            ),
            events=(_crash(0.7, "head-of:user00000000", 1.5),),
        ),
        CampaignSpec(
            name="crash-tail",
            description=(
                "crash the chain tail of a hot key mid-run, recover it; "
                "tail reads re-route and stability resumes after repair"
            ),
            events=(_crash(0.7, "tail-of:user00000000", 1.5),),
        ),
        CampaignSpec(
            name="crash-mid-norecover",
            description=(
                "fail-stop a mid-chain server with storage wiped and no "
                "recovery; chain repair must restore R replicas from the "
                "survivors"
            ),
            events=(_crash(0.8, "mid-of:user00000000", wipe_storage=True),),
        ),
        CampaignSpec(
            name="rolling-crashes",
            description=(
                "crash two servers back to back with overlapping recovery "
                "windows — the double-reconfiguration stress test"
            ),
            events=(
                _crash(0.6, "dc0:s0", 1.2),
                _crash(0.9, "dc0:s2", 1.6),
            ),
        ),
        CampaignSpec(
            name="partial-owner-crash",
            description=(
                "under replication degree 1, crash the chain head at the "
                "sole owner DC of a hot shard mid-serve; remote gets must "
                "retry/degrade per the outcome taxonomy and resume once "
                "the owner chain repairs, with zero unresolved operations"
            ),
            sites=("dc0", "dc1", "dc2"),
            clients=9,
            events=(_crash(0.7, "owner-head-of:user00000000", 1.5),),
            overrides={"replication_degree": 1, "num_shards": 8},
        ),
        CampaignSpec(
            name="partition-sites",
            description=(
                "partition the two datacenters, then heal; local operations "
                "continue, remote visibility resumes after the heal"
            ),
            sites=("dc0", "dc1"),
            events=(
                FaultSpec(kind="partition", at=0.7, target="dc0|dc1", until=1.4),
            ),
        ),
        CampaignSpec(
            name="slow-link",
            description=(
                "degrade the intra-DC fabric 20x for a window — a grey "
                "failure that stresses timeouts and backoff, not crashes"
            ),
            events=(
                FaultSpec(kind="slow-link", at=0.7, target="dc0~dc0", until=1.4, factor=20.0),
            ),
        ),
    )
}


def campaign(name: str) -> CampaignSpec:
    """Look up a built-in campaign by name."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise ConfigError(
            f"unknown campaign {name!r}; choose from {sorted(CAMPAIGNS)}"
        ) from None
