"""Run-wide wire-size oracle.

A message is sized once, when its compiled ``__init__`` builds it, and
every send reads that carried ``wire_size``. Nothing re-derives it
later, so this file holds whole runs to the rule: each message a run
sends (and each it delivers — a message that crossed a shard pipe is
first seen there, after its pickle round trip) carries exactly the size
the reference walk in ``helpers`` gives it at that moment.

Covered: every golden-planes pin row (the baselines included), a
``crash-tail`` campaign on two DCs (state transfers, re-stabilised
writes), and a two-worker sharded run. A payload mutated after build
must fail the oracle, or it checks nothing.
"""

import contextlib
from typing import Dict

import pytest

from helpers import make_store, reference_message_size
from repro.core.messages import DepEntry, PutRequest
from repro.errors import SimulationError
from repro.net.message import Message
from repro.net.network import Network
from repro.storage import VersionVector
from test_golden_planes import GOLDEN, pinned


class SizeMismatch(AssertionError):
    """A message's carried size differs from the reference walk."""


@contextlib.contextmanager
def size_oracle(corrupt: str = ""):
    """Check every message ``Network.send`` and ``Network._deliver`` see
    (patched on the class: forked shard workers inherit the patch).
    Yields ``{"checked": n}`` for this process. ``corrupt`` names a
    message type whose carried size is bumped first, to prove the check
    runs where it is meant to."""
    send, deliver = Network.send, Network._deliver
    seen: Dict[str, int] = {"checked": 0}

    def check(msg: Message) -> None:
        if msg.type_name == corrupt:
            msg.__dict__["wire_size"] += 1
        walked = reference_message_size(msg)
        if msg.wire_size != walked:
            raise SizeMismatch(f"{msg.type_name}: carries {msg.wire_size}, walks to {walked}: {msg!r}")
        seen["checked"] += 1

    def checked_send(self, src, dst, msg):
        check(msg)
        send(self, src, dst, msg)

    def checked_deliver(self, src, dst, msg):
        check(msg)
        deliver(self, src, dst, msg)

    Network.send, Network._deliver = checked_send, checked_deliver
    try:
        yield seen
    finally:
        Network.send, Network._deliver = send, deliver


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_golden_plane_row(name):
    with size_oracle() as seen:
        pinned(name)
    assert seen["checked"] > 1000


def test_crash_tail_on_two_dcs():
    from repro.faults import campaign, run_campaign

    spec = campaign("crash-tail").with_updates(
        sites=("dc0", "dc1"), overrides={"stability": "notices"}
    )
    with size_oracle() as seen:
        result = run_campaign(spec, seed=42)
    assert result.clean
    assert result.store.network.stats.count_of("state-transfer") > 0  # repair ran
    assert seen["checked"] > 10_000


def sharded(workers: int, corrupt: str = ""):
    from repro.analysis import sanitize_sharded

    with size_oracle(corrupt) as seen:
        report = sanitize_sharded(
            "chainreaction", seed=42, clients=2, duration=0.2, warmup=0.05,
            records=10, servers_per_site=3, workers=workers, compare_serial=False,
        )
    return report, seen


def test_two_worker_sharded_run():
    report, _ = sharded(workers=2)
    assert report.workers == 2 and report.clean


def test_the_oracle_runs_in_the_workers():
    with pytest.raises(SimulationError, match="SizeMismatch: remote-update"):
        sharded(workers=2, corrupt="remote-update")


def test_a_payload_mutated_after_build_fails():
    # Frozen is shallow: the dict a message carries can still change,
    # and the size taken at build time then no longer matches the walk.
    store = make_store()
    msg = PutRequest(key="k", value="v", deps={})
    msg.deps["dep"] = DepEntry(VersionVector({"dc0": 1}), 0)
    with size_oracle(), pytest.raises(SizeMismatch, match="put-request: carries 48, walks to 78"):
        store.proxies["dc0"].send(store.servers("dc0")[0].address, msg)
