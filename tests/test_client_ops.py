"""The client retry loop and the deadline table, pinned.

Every client operation is in continuation form (``RetryingOp`` + a typed
request entered in the session's deadline table): the hot get / put,
forwarded gets and puts, snapshot reads and the baselines' operations.
Each replaced a coroutine (``Process`` + nested ``_op_attempts``
generator + a ``Future`` per RPC) without changing *what* a session does: every retry / timeout / crash /
degraded-read branch sends the same messages at the same virtual
instants with the same RNG draws.

``SCRIPTS`` drives each branch through the public session API and
``PINNED`` holds ``(outcome type, resolved_at, retries, failed_ops,
degraded_reads, events_processed, messages_sent, bytes_sent)`` — the
``tests/test_golden_planes.py`` method. Every field but the event count
is what commit 1359141 (still coroutine-based) produced. The event
counts were re-recorded once, when an operation's first attempt began to
run inline instead of from a zero-delay event and each actor's
deadlines moved to one alarm: they count kernel work, not protocol
steps. A script whose other fields move changed the simulation and must
be fixed, not re-recorded.

The scripts from ``forwarded_get_at_primary`` on were recorded on commit
6e5887a, where forwarded operations, snapshot reads, the geo proxy's
side of forwarding and every baseline operation still ran as generator
processes. Their event counts were re-recorded once, when those became
continuations started inline: the zero-delay start events are gone.
The bytes of the three ``forwarded_put_*`` scripts (three DCs) were
re-recorded once more when a remote-origin ``TailStable`` stopped
carrying the write's value, stamp and dependencies (4 or 8 bytes each);
nothing else of theirs moved.
"""

import dataclasses
from typing import ClassVar

import pytest

from helpers import build, make_geo_store, make_store

from repro.analysis.invariants import ChainInvariantMonitor
from repro.core.messages import PutReply
from repro.errors import ReplicaUnavailable, RequestTimeout, SessionClosedError
from repro.net import Actor, Address, FixedLatency, Message, Network
from repro.sim import Future, Simulator

#: knobs that make retries fast enough to script: short attempts, short
#: backoff, and a failure detector slow enough never to interfere unless
#: a script speeds it up again
FAST = dict(op_timeout=0.05, client_retry_backoff=0.01)
NO_DETECTOR = dict(heartbeat_interval=1.0, failure_timeout=30.0)


def _chain(store, key):
    view = store.managers["dc0"].view
    return [node for name in view.chain_for(key) for node in store.servers() if node.name == name]


# ----------------------------------------------------------------------
# scripts: each returns (store, session, future, run_until)
# ----------------------------------------------------------------------


def head_crash_mid_get():
    """Head crashes with the get in flight -> timeout -> backoff -> view
    refresh (the detector removes the head) -> success at the new head."""
    store = make_store(ack_k=1, degraded_reads=False, **FAST)
    s = store.session(session_id="alice")
    fut = s.put("k", "v1")
    store.run(until=1.0)  # stabilise; the dep entry still says "head only"
    assert fut.succeeded() and s.dependency_table()["k"].index == 0
    head = _chain(store, "k")[0]
    fut = s.get("k")
    store.sim.schedule(0.0001, head.crash)  # request sent, not yet delivered
    return store, s, fut, 4.0


def stale_replica_falls_back_to_head():
    """Tail-only reads while v2 is stranded at the head: the tail is
    behind the session's own write -> force_head -> retry -> success."""
    store = make_store(ack_k=1, allow_prefix_reads=False, **FAST, **NO_DETECTOR)
    store.preload({"k": "v1"})
    chain = store.managers["dc0"].view.chain_for("k")
    s = store.session(session_id="alice")
    store.network.block(f"dc0:{chain[0]}", f"dc0:{chain[1]}")
    fut = s.put("k", "v2")
    store.run(until=0.5)
    assert fut.succeeded()
    return store, s, s.get("k"), 2.0


def degraded_after_unreachable_prefix():
    """The only replica holding the session's version is unreachable:
    after ``degraded_read_after`` attempts a stale replica's answer is
    served flagged degraded, the dep table untouched."""
    store = make_store(ack_k=1, degraded_read_after=2, **FAST, **NO_DETECTOR)
    store.preload({"k": "v1"})
    chain = store.managers["dc0"].view.chain_for("k")
    s = store.session(session_id="alice")
    store.network.block(f"dc0:{chain[0]}", f"dc0:{chain[1]}")
    fut = s.put("k", "v2")
    store.run(until=0.5)
    assert fut.succeeded()
    store.network.block("dc0:alice", f"dc0:{chain[0]}")
    return store, s, s.get("k"), 3.0


def put_refused_not_head():
    """The session's view still names the interim head after the real
    head rejoined: ``ok=False`` (not-head) -> refresh -> success."""
    store = make_store(**FAST)
    head = _chain(store, "k")[0]
    head.crash()
    store.run(until=1.0)  # detector removes it; epoch 2
    s = store.session(session_id="alice")  # opened under the interim view
    assert s.view.chain_for("k")[0] != head.name
    head.recover()
    store.run(until=3.0)  # heartbeat -> re-admitted -> repair sync done
    assert store.managers["dc0"].view.chain_for("k")[0] == head.name
    return store, s, s.put("k", "v"), 4.0


def put_timeout_then_late_reply():
    """The first PutReply is held past the attempt's deadline: the retry
    runs under a fresh request id and the late reply for the old id is
    ignored."""
    store = make_store(**FAST, **NO_DETECTOR)
    s = store.session(session_id="alice")
    held = []

    def hold_first_reply(src, dst, msg):
        if msg.type_name == "put-reply" and not held:
            held.append((src, dst, msg))
            return True
        return False

    store.network.set_divert(hold_first_reply)
    fut = s.put("k", "v")
    store.sim.schedule(0.12, lambda: store.network.inject_now(*held[0]))
    return store, s, fut, 1.0


def max_retries_exhausted():
    store = make_store(max_retries=3, **FAST)
    s = store.session(session_id="alice")
    for node in store.servers():
        node.crash()
    store.managers["dc0"].crash()
    return store, s, s.get("k"), 5.0


def op_deadline_exhausted():
    store = make_store(op_deadline=0.2, **FAST)
    s = store.session(session_id="alice")
    for node in store.servers():
        node.crash()
    store.managers["dc0"].crash()
    return store, s, s.put("k", "v"), 5.0


def closed_with_put_in_flight():
    store = make_store(**FAST)
    s = store.session(session_id="alice")
    fut = s.put("k", "v")
    store.sim.schedule(0.0001, s.close)
    return store, s, fut, 1.0


def client_crashed_with_get_in_flight():
    """The client actor itself crashes: the pending RPC fails with
    ReplicaUnavailable, every later attempt fails at once, the budget
    burns down in backoff sleeps only."""
    store = make_store(max_retries=4, **FAST)
    s = store.session(session_id="alice")
    fut = s.get("k")
    store.sim.schedule(0.0001, s.crash)
    return store, s, fut, 2.0


def put_waits_on_unstable_dep(**overrides):
    """A put carrying a dependency that is not DC-stable yet is held at
    its head until the dependency's tail confirms it."""
    store = make_store(ack_k=1, **FAST, **overrides)
    s = store.session(session_id="alice")
    first = s.put("a", "1")
    first.add_callback(lambda _f: held.append(s.put("b", "2")))
    held = []
    store.run(until=0.001)  # first put acked by its head alone, second issued
    assert first.succeeded() and held
    return store, s, held[0], 1.0


def put_waits_on_unstable_dep_clock():
    return put_waits_on_unstable_dep(stability="clock")


# ----------------------------------------------------------------------
# forwarded operations (partial replication), snapshot reads, baselines
# ----------------------------------------------------------------------

#: three sites, each shard on two of them; ``d`` lives on dc1 (primary)
#: and dc2 (backup), so a dc0 session forwards every operation on it
PARTIAL = dict(replication_degree=2, num_shards=8)


def _partial_store(**overrides):
    store = make_geo_store(3, **PARTIAL, **FAST, **overrides)
    assert store.config.placement().owners_for("d") == ("dc1", "dc2")
    return store


def forwarded_get_at_primary():
    store = _partial_store()
    store.preload({"d": "v1"})
    s = store.session(session_id="alice")
    return store, s, s.get("d"), 1.0


def forwarded_get_degraded_at_backup():
    """The primary owner's proxy is unreachable and the backup never
    received the session's own write: after ``degraded_read_after``
    attempts the get rotates to the backup and serves its older version
    flagged degraded."""
    store = _partial_store(**NO_DETECTOR)
    store.preload({"d": "v1"})
    s = store.session(session_id="alice")
    store.network.block("dc1:geoproxy", "dc2:geoproxy")
    fut = s.put("d", "v2")
    store.run(until=0.5)
    assert fut.succeeded()
    store.network.block("dc0:alice", "dc1:geoproxy")
    return store, s, s.get("d"), 3.0


def forwarded_put_refused_then_retried():
    """The owner's head refuses the forwarded put while syncing: the
    proxy relays ``ok=False``, the session backs off and retries."""
    store = _partial_store(**NO_DETECTOR)
    view = store.managers["dc1"].view
    head = next(n for n in store.servers("dc1") if n.name == view.chain_for("d")[0])
    head.syncing = True
    store.sim.schedule(0.1, setattr, head, "syncing", False)
    s = store.session(session_id="alice")
    return store, s, s.put("d", "v"), 1.0


def forwarded_put_times_out_at_proxy():
    """The head's first PutReply to the owner's proxy is held past the
    proxy's deadline: the proxy answers with a timeout, the session
    retries, and the late reply for the old request id is dropped."""
    store = _partial_store(**NO_DETECTOR)
    s = store.session(session_id="alice")
    held = []

    def hold_first_reply(src, dst, msg):
        if msg.type_name == "put-reply" and not held:
            held.append((src, dst, msg))
            return True
        return False

    store.network.set_divert(hold_first_reply)
    fut = s.put("d", "v")
    store.sim.schedule(0.12, lambda: store.network.inject_now(*held[0]))
    return store, s, fut, 1.0


def forwarded_put_carries_a_local_dep():
    """A forwarded put after a local one: the payload carries the local
    write as a dependency, and the owner's head holds the put until that
    write, shipped from dc0, is DC-stable at dc1."""
    store = _partial_store()
    assert store.config.placement().owners_for("a") == ("dc1", "dc0")
    s = store.session(session_id="alice")
    s.put("a", "1").add_callback(lambda _f: held.append(s.put("d", "2")))
    held = []
    store.run(until=0.01)
    assert held
    return store, s, held[0], 1.0


def multi_get_in_one_round():
    """One local key and one forwarded to its primary owner."""
    store = _partial_store()
    store.preload({"a": "1", "d": "2"})
    s = store.session(session_id="alice")
    return store, s, s.multi_get(["a", "d"]), 1.0


def _snapshot_behind_a_stranded_notice(seed):
    """``b`` depends on ``a``, and only ``a``'s tail ever learns that
    ``a`` is stable: a snapshot leg for ``a`` served by another replica
    falls short of ``b``'s floor and is read again."""
    store = make_store(ack_k=1, seed=seed, **FAST, **NO_DETECTOR)
    w = store.session(session_id="writer")
    store.network.set_divert(lambda src, dst, msg: msg.type_name == "chain-stable" and msg.key == "a")
    w.put("a", 1).add_callback(lambda _f: w.put("b", 2))
    store.run(until=0.05)
    s = store.session(session_id="alice")
    return store, s, s.multi_get(["a", "b"]), 1.0


def multi_get_rereads_a_key():
    return _snapshot_behind_a_stranded_notice(seed=1)


def multi_get_gives_up_after_eight_rounds():
    return _snapshot_behind_a_stranded_notice(seed=6)


def cops_put():
    """A put carrying the context of an earlier get; its remote copy is
    applied after a dependency check at the other site."""
    store = build("cops", sites=("dc0", "dc1"), overrides=FAST)
    store.preload({"a": "v0"})
    s = store.session(session_id="alice")
    s.get("a").add_callback(lambda _f: held.append(s.put("b", "v1")))
    held = []
    store.run(until=0.01)
    assert held
    return store, s, held[0], 1.0


def eventual_get_retried_once():
    """The get's first request is lost: timeout, backoff, view refresh,
    and a second random replica answers."""
    store = build("eventual", sites=("dc0", "dc1"), overrides=FAST)
    store.preload({"a": "v0"})
    s = store.session(session_id="alice")
    dropped = []

    def drop_first_request(src, dst, msg):
        if str(src) == "dc0:alice" and msg.type_name == "kv-get" and not dropped:
            dropped.append(msg)
            return True
        return False

    store.network.set_divert(drop_first_request)
    return store, s, s.get("a"), 1.0


SCRIPTS = {
    script.__name__: script
    for script in (
        head_crash_mid_get,
        stale_replica_falls_back_to_head,
        degraded_after_unreachable_prefix,
        put_refused_not_head,
        put_timeout_then_late_reply,
        max_retries_exhausted,
        op_deadline_exhausted,
        closed_with_put_in_flight,
        client_crashed_with_get_in_flight,
        put_waits_on_unstable_dep,
        put_waits_on_unstable_dep_clock,
        forwarded_get_at_primary,
        forwarded_get_degraded_at_backup,
        forwarded_put_refused_then_retried,
        forwarded_put_times_out_at_proxy,
        forwarded_put_carries_a_local_dep,
        multi_get_in_one_round,
        multi_get_rereads_a_key,
        multi_get_gives_up_after_eight_rounds,
        cops_put,
        eventual_get_retried_once,
    )
}


def fingerprint(name):
    store, s, fut, until = SCRIPTS[name]()
    store.run(until=until)
    assert fut.done(), f"{name}: operation still pending at t={store.sim.now}"
    outcome = fut.exception() if fut.failed() else fut.result()
    stats = store.network.stats
    return store, s, outcome, (
        type(outcome).__name__,
        fut.resolved_at,
        s.retries,
        s.failed_ops,
        s.degraded_reads,
        store.sim.events_processed,
        stats.messages_sent,
        stats.bytes_sent,
    )


#: recorded on 1359141 (6e5887a from ``forwarded_get_at_primary`` on) with
#: ``python tests/test_client_ops.py``; the event counts (sixth field)
#: re-recorded once, see the module docstring. The bytes (last field) were
#: re-recorded once more when reads, dependency waits and remote injects
#: left the RPC envelope for typed request / reply messages, and again when
#: the envelope left the tree (forwarded operations, snapshot legs, view
#: refreshes and the baselines' operations became typed pairs too):
#: nothing else moved either time.
PINNED = {
    'client_crashed_with_get_in_flight': ('RequestTimeout', 0.14323482581773556, 4, 1, 0, 333, 157, 5966),
    'closed_with_put_in_flight': ('SessionClosedError', 0.0001, 0, 0, 0, 161, 77, 2951),
    'cops_put': ('PutResult', 0.001357255347678765, 0, 0, 0, 327, 157, 6113),
    'degraded_after_unreachable_prefix': ('GetResult', 0.6330106051156347, 2, 0, 1, 491, 248, 9617),
    'eventual_get_retried_once': ('GetResult', 0.06202758000450802, 1, 0, 0, 382, 185, 7703),
    'forwarded_get_at_primary': ('GetResult', 0.06849192830258789, 0, 0, 0, 483, 232, 8894),
    'forwarded_get_degraded_at_backup': ('GetResult', 1.2856754454066295, 3, 0, 1, 1460, 739, 28759),
    'forwarded_put_carries_a_local_dep': ('PutResult', 0.08491484947194096, 0, 0, 0, 534, 278, 12060),
    'forwarded_put_refused_then_retried': ('PutResult', 0.15752557057317268, 1, 0, 0, 495, 259, 10700),
    'forwarded_put_times_out_at_proxy': ('PutResult', 0.20366506402592496, 1, 0, 0, 518, 280, 12088),
    'head_crash_mid_get': ('GetResult', 1.3532761816678587, 4, 0, 0, 595, 290, 11865),
    'max_retries_exhausted': ('RequestTimeout', 0.3703706273582151, 3, 1, 0, 9, 0, 0),
    'multi_get_gives_up_after_eight_rounds': ('RequestTimeout', 0.05495905381645978, 0, 1, 0, 185, 107, 4783),
    'multi_get_in_one_round': ('SnapshotResult', 0.07299379673766357, 0, 0, 0, 486, 234, 8985),
    'multi_get_rereads_a_key': ('SnapshotResult', 0.05125404335945394, 0, 0, 0, 173, 95, 4301),
    'op_deadline_exhausted': ('RequestTimeout', 0.22877332441020404, 2, 1, 0, 6, 0, 0),
    'put_refused_not_head': ('PutResult', 3.011282371356649, 1, 0, 0, 671, 335, 13283),
    'put_timeout_then_late_reply': ('PutResult', 0.06095287329634598, 1, 0, 0, 170, 90, 3951),
    'put_waits_on_unstable_dep': ('PutResult', 0.0015678994884307132, 0, 0, 0, 175, 90, 4013),
    'put_waits_on_unstable_dep_clock': ('PutResult', 0.0015469728609671714, 0, 0, 0, 2760, 1680, 75619),
    'stale_replica_falls_back_to_head': ('GetResult', 0.5109605409084719, 1, 0, 0, 323, 164, 6444),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_reproduces_the_parents_tuple(name):
    assert fingerprint(name)[-1] == PINNED[name]


def test_forwarded_and_snapshot_outcomes():
    _store, s, outcome, _ = fingerprint("forwarded_get_degraded_at_backup")
    assert outcome.degraded and outcome.value == "v1" and outcome.served_by == "dc2/geoproxy"
    assert (s.forwarded_gets, s.forwarded_puts) == (1, 1)
    store, s, outcome, _ = fingerprint("forwarded_put_times_out_at_proxy")
    assert outcome.acked_by.startswith("dc1:") and s.forwarded_puts == 1
    assert store.proxies["dc1"].forwarded_puts_served == 1  # the timed-out attempt is not counted
    _store, s, outcome, _ = fingerprint("forwarded_put_refused_then_retried")
    assert s.forwarded_puts == 2  # the refusal is a forwarded reply too
    store, _s, outcome, _ = fingerprint("forwarded_put_carries_a_local_dep")
    assert store.protocol_stats()["dep_waits"] == 1 and outcome.acked_by.startswith("dc1:")
    _store, s, outcome, _ = fingerprint("multi_get_in_one_round")
    assert (outcome.rounds, outcome.values, s.forwarded_gets) == (1, {"a": "1", "d": "2"}, 1)
    _store, _s, outcome, _ = fingerprint("multi_get_rereads_a_key")
    assert (outcome.rounds, outcome.values) == (2, {"a": 1, "b": 2})


def test_degraded_read_is_flagged_and_leaves_the_dep_table_alone():
    store, s, fut, until = SCRIPTS["degraded_after_unreachable_prefix"]()
    before = dict(s.dependency_table())
    store.run(until=until)
    assert fut.result().degraded and fut.result().value == "v1"
    assert s.dependency_table() == before


def test_dependent_put_was_held_at_its_head():
    for name in ("put_waits_on_unstable_dep", "put_waits_on_unstable_dep_clock"):
        store, _s, _outcome, _ = fingerprint(name)
        assert store.protocol_stats()["dep_waits"] == 1


def test_close_fails_a_get_in_flight_with_session_closed():
    store = make_store(**FAST)
    s = store.session(session_id="alice")
    fut = s.get("k")
    store.sim.schedule(0.0001, s.close)
    store.run(until=30.0)
    assert isinstance(fut.exception(), SessionClosedError)
    assert fut.resolved_at == 0.0001  # at close, not an op_timeout later
    assert (s.retries, s.failed_ops) == (0, 0)


def test_a_crashed_sessions_put_fails_each_attempt_at_once_like_its_get():
    # While a session is down every attempt fails at once, so an op
    # spends only its backoffs (unjittered here, so the two ops' instants
    # compare) and never waits out an op_timeout.
    store = make_store(**FAST, **NO_DETECTOR, max_retries=4, backoff_jitter=0.0)
    reader, writer = store.session(session_id="alice"), store.session(session_id="bob")
    reader.crash()
    writer.crash()
    get, put = reader.get("k"), writer.put("k", "v")
    store.run(until=30.0)
    assert isinstance(get.exception(), RequestTimeout)
    assert isinstance(put.exception(), RequestTimeout)
    assert put.resolved_at == get.resolved_at < FAST["op_timeout"] * 4
    assert (reader.retries, writer.retries) == (4, 4)


def _unanswered_session():
    """A session whose servers are all down: every attempt times out."""
    store = make_store(**FAST, **NO_DETECTOR)
    for node in store.servers():
        node.crash()
    return store, store.session(session_id="alice")


def test_a_put_attempt_and_an_rpc_share_the_deadline_table_and_alarm():
    store, s = _unanswered_session()
    put, get = s.put("k", "v"), s.get("j")
    (put_id, put_entry), (get_id, get_entry) = s._rpc_pending.items()
    assert get_id == put_id + 1  # one request-id counter
    assert (put_entry[2], get_entry[2]) == ("put", "get")
    assert s._rpc_alarm_at == put_entry[1] == get_entry[1] == FAST["op_timeout"]
    store.run(until=FAST["op_timeout"])
    assert s.retries == 2 and not (put.done() or get.done())  # both failed by one firing


def test_a_late_put_reply_after_its_attempt_timed_out_is_dropped():
    store, s = _unanswered_session()
    fut = s.put("k", "v")
    (request_id,) = s._rpc_pending
    store.run(until=FAST["op_timeout"])
    assert request_id not in s._rpc_pending and s.retries == 1
    s.on_put_reply(PutReply(request_id=request_id, key="k", ok=True, index=0, chain_len=3), None)
    assert not fut.done() and s.dependency_table() == {}


def test_monitor_wrapped_note_observed_sees_every_get():
    # The invariant monitor replaces _note_observed on each session
    # *instance* after construction; an op that cached the class
    # function would silently switch the causal-cut oracle off.
    store = make_store()
    monitor = ChainInvariantMonitor(store).attach()
    s = store.session()
    store.preload({f"k{i}": "v" for i in range(5)})
    gets = [s.get(f"k{i % 5}") for i in range(12)]
    store.run(until=1.0)
    assert all(fut.succeeded() for fut in gets)
    assert monitor.gets_checked == len(gets) == store.protocol_stats()["gets_served"]


# ----------------------------------------------------------------------
# the deadline table: a future and a bare continuation are served alike
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Double(Message):
    type_name: ClassVar[str] = "double"
    request_id: int = 0
    n: int = 0


@dataclasses.dataclass(frozen=True)
class Doubled(Message):
    type_name: ClassVar[str] = "doubled"
    request_id: int = 0
    n: int = 0


class Peer(Actor):
    def on_double(self, msg, src):
        self.send(src, Doubled(request_id=msg.request_id, n=msg.n * 2))

    on_doubled = Actor.take_reply

    def ask(self, dst, n, timeout, cont):
        rid = self._open_request(cont, timeout, "double", dst)
        if rid:
            self.send(dst, Double(request_id=rid, n=n))


class Recorder:
    """A bare continuation: remembers which of its two methods ran."""

    def __init__(self):
        self.outcomes = []

    def rpc_reply(self, reply):
        self.outcomes.append(("reply", reply.n))

    def rpc_failed(self, exc):
        self.outcomes.append(("failed", type(exc), str(exc)))


def _round_trip(sim, scenario, through_future):
    net = Network(sim, lan=FixedLatency(0.001))
    a, b = Peer(sim, net, Address("dc0", "a")), Peer(sim, net, Address("dc0", "b"))
    if scenario == "timeout":
        b.crash()
    recorder = Recorder()
    if through_future:
        fut = Future(sim)
        a.ask(b.address, 21, 0.5, fut)
        fut.add_callback(
            lambda f: recorder.rpc_failed(f.exception()) if f.failed() else recorder.rpc_reply(f.result())
        )
    else:
        a.ask(b.address, 21, 0.5, recorder)
    if scenario == "crash":
        sim.schedule(0.0005, a.crash)  # request on the wire, reply not back yet
    sim.run()
    return recorder.outcomes, (sim.events_processed, net.stats.messages_sent, net.stats.bytes_sent), sim.now


@pytest.mark.parametrize("scenario", ["reply", "timeout", "crash"])
def test_call_and_request_are_one_implementation(scenario):
    # A future as the continuation (what yielding code waits on) and a
    # bare continuation object go through the same table and alarm.
    via_future = _round_trip(Simulator(), scenario, through_future=True)
    via_continuation = _round_trip(Simulator(), scenario, through_future=False)
    assert via_future == via_continuation
    outcomes = via_continuation[0]
    assert len(outcomes) == 1  # exactly one of the two methods, once
    expected = {
        "reply": ("reply", 42),
        "timeout": ("failed", RequestTimeout),
        "crash": ("failed", ReplicaUnavailable),
    }[scenario]
    assert outcomes[0][: len(expected)] == expected


def test_crash_with_rpcs_pending_leaves_no_live_deadline(sim):
    net = Network(sim, lan=FixedLatency(0.001))
    a, b = Peer(sim, net, Address("dc0", "a")), Peer(sim, net, Address("dc0", "b"))
    b.crash()  # requests are dropped at send: the only events are a's
    recorder = Recorder()
    for n in range(3):
        a.ask(b.address, n, 5.0 - n, recorder)
    fut = Future(sim)
    a.ask(b.address, 3, 5.0, fut)
    a.set_timer(1.0, lambda: None)
    assert sim.pending_events() == 2  # one deadline alarm + one protocol timer
    a.crash()
    assert sim.pending_events() == 0 and a._rpc_alarm is None
    assert [outcome[1] for outcome in recorder.outcomes] == [ReplicaUnavailable] * 3
    assert isinstance(fut.exception(), ReplicaUnavailable)
    sim.run()
    assert sim.events_processed == 0 and len(recorder.outcomes) == 3  # each failed once
    # Recovered, the actor arms a fresh alarm for its next request.
    a.recover()
    a.ask(b.address, 4, 0.5, recorder)
    sim.run()
    assert recorder.outcomes[3][1] is RequestTimeout and sim.now == 0.5


def test_request_from_a_crashed_actor_fails_its_continuation_at_once(sim):
    net = Network(sim, lan=FixedLatency(0.001))
    a, b = Peer(sim, net, Address("dc0", "a")), Peer(sim, net, Address("dc0", "b"))
    a.crash()
    recorder = Recorder()
    a.ask(b.address, 1, 5.0, recorder)
    assert [outcome[1] for outcome in recorder.outcomes] == [ReplicaUnavailable]
    assert sim.pending_events() == 0


if __name__ == "__main__":  # re-record: PYTHONPATH=<parent>/src:tests python tests/test_client_ops.py
    for script_name in SCRIPTS:
        print(f"    {script_name!r}: {fingerprint(script_name)[-1]!r},")
