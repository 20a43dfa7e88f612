"""The remote-update pipeline and the dependency waits, pinned.

The last stage of a write runs in continuation form on the actor's
deadline table:
the geo proxy's ``_RemoteApply`` and the head's ``_HeldPut``, with one
``DepWait`` per dependency. They replaced coroutines (``_apply_remote`` /
``_wait_dep_stable`` / ``_inject_at_head`` and ``_wait_dep``, a
``Process`` each, joined by ``all_of``), and as with
``tests/test_client_ops.py`` the rewrite must not change *what* a proxy
or a head does: every wait, retry, timeout, crash and gate sends the
same messages at the same virtual instants.

``SCRIPTS`` drives each branch with hand-built ``RemoteUpdate`` s (or,
head side, a real session); the values read back, the visibility
samples, ``updates_applied``, the protocol counters, events, messages,
bytes and the message-trace digest of each are pinned in ``pins.json``
(see ``test_pins``). A script whose fields move changed the simulation
and must be fixed, not re-recorded.

What the scripts hold: the first step of an update, a held put and a
dependency wait runs inline, a backoff posts one event, the gate opens
from its own ``call_soon`` event, and an actor's request deadlines share
one alarm; *failure semantics* — a dependency wait retries on
``RequestTimeout`` only, a crashed proxy kills the
update but still opens its gate, a sibling wait's later completion is
ignored, and injection sleeps ``client_retry_backoff`` after every
failed attempt, the last included.
"""

import dataclasses

import pytest

from helpers import make_geo_store, make_store
from test_pins import fields, pin_loop

from repro.analysis.sanitize import MessageTap
from repro.baselines import build_store
from repro.core.messages import DepEntry, RemoteUpdate
from repro.sim.hlc import NO_HLC, HLCStamp
from repro.storage import VersionVector
from repro.workload import WorkloadRunner, workload

#: short RPC attempts and backoffs so retries fit a script; a failure
#: detector slow enough never to interfere unless a script wants it
FAST = dict(op_timeout=0.05, client_retry_backoff=0.01)
NO_DETECTOR = dict(failure_timeout=30.0)
#: per-RPC attempt = max(dep_wait_timeout / 3, 0.05) = 0.1 s
SHORT_WAIT = dict(dep_wait_timeout=0.3)


def _store(make, **overrides):
    """``make(**overrides)`` with a message tap attached before the script
    takes its first step: a session's first message leaves at the op call."""
    store = make(**overrides)
    store.message_tap = MessageTap().attach(store.network)
    return store


def vv(n):
    return VersionVector({"dc0": n})


def update(key, value, n, deps=None, origin_put_at=0.0, hlc=NO_HLC):
    """A write of ``dc0`` as its proxy would ship it to ``dc1``."""
    return RemoteUpdate(
        key=key, value=value, version=vv(n), deps=deps or {}, origin_site="dc0",
        origin_put_at=origin_put_at, hlc=hlc,
    )


def dep(n, hlc=None):
    return DepEntry(vv(n), 0, hlc)


def _arrive(store, at, msg, clock=False):
    """Hand ``msg`` to dc1's proxy at virtual time ``at``."""
    proxy = store.proxies["dc1"]
    src = store.proxies["dc0"].address
    if clock:
        store.sim.schedule(at, proxy._enqueue, msg, False)
    else:
        store.sim.schedule(at, proxy.on_remote_update, msg, src)


def _chain(store, site, key):
    view = store.managers[site].view
    by_name = {node.name: node for node in store.servers(site)}
    return [by_name[name] for name in view.chain_for(key)]


# ----------------------------------------------------------------------
# proxy side: each script returns (store, keys to read back, run_until)
# ----------------------------------------------------------------------


def no_dependencies():
    store = _store(make_geo_store, **FAST)
    _arrive(store, 0.0, update("k", "v", 1))
    return store, ("k",), 1.0


def one_dependency():
    """``k`` names ``d``: waited for on the proxy's own table, injected
    once ``d``'s tail in dc1 announces it DC-stable."""
    store = _store(make_geo_store, **FAST)
    _arrive(store, 0.0, update("k", "v", 1, {"d": dep(1)}))
    _arrive(store, 0.002, update("d", "dep", 1))
    return store, ("d", "k"), 1.0


def two_dependencies():
    """Two concurrent waits answered at different instants; the update
    goes in with the second."""
    store = _store(make_geo_store, **FAST)
    _arrive(store, 0.0, update("k", "v", 1, {"d1": dep(1), "d2": dep(1)}))
    _arrive(store, 0.001, update("d1", "dep-one", 1))
    _arrive(store, 0.010, update("d2", "dep-two", 1))
    return store, ("d1", "d2", "k"), 1.0


def own_key_dependency_is_skipped():
    """A dependency on the update's own key is the gate chain's job: no
    ``wait_stable`` is sent although version 1 never arrives."""
    store = _store(make_geo_store, **FAST)
    _arrive(store, 0.0, update("k", "v2", 2, {"k": dep(1)}))
    return store, ("k",), 1.0


def causal_delivery_off():
    """The E10 ablation: dependencies are not waited for at all."""
    store = _store(make_geo_store, geo_causal_delivery=False, **FAST)
    _arrive(store, 0.0, update("k", "v", 1, {"ghost": dep(1)}))
    return store, ("k",), 1.0


def wait_stable_times_out_once():
    """The first attempt (0.1 s, on the proxy's own table) expires before
    ``d`` arrives; the ``WaitStable`` to ``d``'s tail that follows
    is answered, and the ``TailStable`` heard after it changes nothing."""
    store = _store(make_geo_store, **FAST, **SHORT_WAIT)
    _arrive(store, 0.0, update("k", "v", 1, {"d": dep(1)}))
    _arrive(store, 0.15, update("d", "dep", 1))
    return store, ("d", "k"), 1.0


def dep_wait_timeout_expires():
    """The dependency never arrives: after ``dep_wait_timeout`` the
    update is applied anyway."""
    store = _store(make_geo_store, **FAST, **SHORT_WAIT)
    _arrive(store, 0.0, update("k", "v", 1, {"ghost": dep(1)}))
    return store, ("k",), 1.0


def proxy_crash_mid_dep_wait():
    """The proxy crashes under two sibling waits: the first failure drops
    the update and opens its gate once, the second is ignored; the
    same-key successor parked on that gate goes in after the recovery,
    and so does a third that arrives later."""
    store = _store(make_geo_store, **FAST, **SHORT_WAIT)
    proxy = store.proxies["dc1"]
    _arrive(store, 0.0, update("k", "dropped", 1, {"g1": dep(1), "g2": dep(1)}))
    _arrive(store, 0.01, update("k", "second", 2))
    store.sim.schedule(0.02, proxy.crash)
    store.sim.schedule(0.02, proxy.recover)
    _arrive(store, 0.05, update("k", "third", 3))
    return store, ("k",), 1.0


def proxy_down_when_the_gate_opens():
    """Still crashed when the successor's turn comes: it is dropped too
    (its request fails at once) but opens its own gate for the next."""
    store = _store(make_geo_store, **FAST, **SHORT_WAIT)
    proxy = store.proxies["dc1"]
    _arrive(store, 0.0, update("k", "dropped", 1, {"ghost": dep(1)}))
    _arrive(store, 0.01, update("k", "dropped-too", 2))
    store.sim.schedule(0.02, proxy.crash)
    store.sim.schedule(0.03, proxy.recover)
    _arrive(store, 0.05, update("k", "third", 3))
    return store, ("k",), 1.0


def same_key_order_preserved():
    """The first update is held by a dependency, the second has none: it
    waits for the first one's gate, so the head sees ship order."""
    store = _store(make_geo_store, **FAST)
    _arrive(store, 0.0, update("k", "first", 1, {"d": dep(1)}))
    _arrive(store, 0.001, update("k", "second!!", 2))
    _arrive(store, 0.01, update("d", "dep", 1))
    return store, ("d", "k"), 1.0


def not_responsible_then_accepted():
    """The proxy's view names the wrong head (a view change it has not
    seen): ``NotResponsibleError`` travels back, the proxy backs off,
    re-resolves the head from its — by then current — view, succeeds."""
    store = _store(make_geo_store, **FAST, **NO_DETECTOR)
    proxy = store.proxies["dc1"]
    current = proxy.view
    head = current.chain_for("k")[0]
    stale = dataclasses.replace(
        current, servers=tuple(s for s in current.servers if s != head)
    )
    assert stale.chain_for("k")[0] != head
    proxy.view = stale
    store.sim.schedule(0.005, setattr, proxy, "view", current)
    _arrive(store, 0.0, update("k", "v", 1))
    return store, ("k",), 1.0


def head_crash_then_failover():
    """The head is down: attempts time out and back off until the
    detector removes it, the new head finishes its repair sync
    (``ReplicaUnavailable`` meanwhile) and accepts."""
    store = _store(make_geo_store, **FAST)
    _chain(store, "dc1", "k")[0].crash()
    _arrive(store, 0.0, update("k", "v", 1))
    return store, ("k",), 3.0


def max_retries_exhausted():
    """No attempt is ever answered: the update is given up after
    ``max_retries`` attempts and as many backoff sleeps."""
    store = _store(make_geo_store, max_retries=3, **FAST, **NO_DETECTOR)
    _chain(store, "dc1", "k")[0].crash()
    _arrive(store, 0.0, update("k", "v", 1))
    _arrive(store, 0.001, update("k", "v2", 2))  # its gate opened all the same
    return store, ("k",), 1.0


def clock_plane_injection():
    """The clock plane's admitted updates: no waits, same gate chain,
    ``hlc`` on the wire."""
    store = _store(make_geo_store, stability="clock", **FAST)
    first, second = HLCStamp(1000, 0, "dc0:s0"), HLCStamp(2000, 0, "dc0:s0")
    _arrive(store, 0.0, update("k", "first", 1, {"d": dep(1, first)}, hlc=first), clock=True)
    _arrive(store, 0.0, update("k", "second!!", 2, hlc=second), clock=True)
    _arrive(store, 0.001, update("j", "other", 1, hlc=second), clock=True)
    return store, ("j", "k"), 0.5


def clock_plane_head_down():
    store = _store(make_geo_store, stability="clock", max_retries=3, **FAST, **NO_DETECTOR)
    _chain(store, "dc1", "k")[0].crash()
    stamp = HLCStamp(1000, 0, "dc0:s0")
    _arrive(store, 0.0, update("k", "v", 1, hlc=stamp), clock=True)
    return store, ("k",), 0.5


def _session_run(**overrides):
    """End to end, nothing hand-built: a dc0 session whose writes carry
    one and two dependencies and hammer one key, shipped to dc1."""
    store = _store(make_geo_store, **overrides)
    s = store.session("dc0", session_id="alice")
    script = iter(
        [("put", "a", "1"), ("put", "b", "2"), ("get", "a", None), ("put", "c", "3")]
        + [("put", "hot", f"v{i}") for i in range(6)]
    )

    def step(_fut=None):
        op = next(script, None)
        if op is not None:
            kind, key, value = op
            (s.get(key) if kind == "get" else s.put(key, value)).add_callback(step)

    step()
    return store, ("a", "b", "c", "hot"), 2.0


def session_writes_notices():
    return _session_run()


def session_writes_clock():
    return _session_run(stability="clock")


def session_writes_batched():
    return _session_run(stability="notices+batch")


PROXY_SCRIPTS = {
    script.__name__: script
    for script in (
        no_dependencies,
        one_dependency,
        two_dependencies,
        own_key_dependency_is_skipped,
        causal_delivery_off,
        wait_stable_times_out_once,
        dep_wait_timeout_expires,
        proxy_crash_mid_dep_wait,
        proxy_down_when_the_gate_opens,
        same_key_order_preserved,
        not_responsible_then_accepted,
        head_crash_then_failover,
        max_retries_exhausted,
        clock_plane_injection,
        clock_plane_head_down,
        session_writes_notices,
        session_writes_clock,
        session_writes_batched,
    )
}


# ----------------------------------------------------------------------
# head side: a put held for a dependency; (store, keys, run_until) again
# ----------------------------------------------------------------------


def _held_put(local, release_at, crash_at=None, **overrides):
    """A session writes ``d`` (acked by its head alone) and then ``k``,
    which names it. The ``ChainPut`` carrying ``d`` to its tail is held
    back until ``release_at`` (None: for good), so ``k``'s head has to
    wait — on its own tracker when it *is* ``d``'s tail (``local``), over
    a ``WaitStable`` request otherwise."""
    store = _store(make_store, ack_k=1, op_timeout=1.0, **overrides)  # the client never retries
    view = store.managers["dc0"].view
    head = view.chain_for("k")[0]
    d = next(
        name for name in (f"d{i}" for i in range(500))
        if (view.chain_for(name)[-1] == head) == local and head not in view.chain_for(name)[:-1]
    )
    tail = view.address_of(view.chain_for(d)[-1])
    held = []

    def hold(src, dst, msg):
        if msg.type_name == "chain-put" and msg.key == d and dst == tail and not held:
            held.append((src, dst, msg))
            return True
        return False

    store.network.set_divert(hold)
    s = store.session(session_id="alice")
    s.put(d, "dep").add_callback(lambda _f: s.put("k", "v"))
    if release_at is not None:
        store.sim.schedule(release_at, lambda: store.network.inject_now(*held[0]))
    if crash_at is not None:
        store.sim.schedule(crash_at, _chain(store, "dc0", "k")[0].crash)
    return store, (d, "k"), 2.0


def head_waits_on_its_own_tracker():
    return _held_put(local=True, release_at=0.02)


def head_waits_over_rpc():
    return _held_put(local=False, release_at=0.02)


def head_waits_on_its_own_tracker_clock():
    return _held_put(local=True, release_at=0.02, stability="clock")


def head_waits_over_rpc_clock():
    return _held_put(local=False, release_at=0.02, stability="clock")


def head_local_wait_outlives_an_attempt():
    """Answered after the first 0.1 s attempt of a remote wait would have
    expired — the local branch waits ``remaining``, not ``attempt``."""
    return _held_put(local=True, release_at=0.15, **SHORT_WAIT)


def head_rpc_wait_times_out_once():
    return _held_put(local=False, release_at=0.15, **SHORT_WAIT)


def head_local_wait_expires():
    return _held_put(local=True, release_at=None, **SHORT_WAIT)


def head_rpc_wait_expires():
    return _held_put(local=False, release_at=None, **SHORT_WAIT)


def head_crash_mid_local_wait():
    """The local wait's deadline is a kernel event, not an actor timer: a
    crash does not cancel it, and the put is applied (unsent) when it fires."""
    return _held_put(local=True, release_at=None, crash_at=0.05, **SHORT_WAIT, **NO_DETECTOR)


def head_crash_mid_rpc_wait():
    """The pending ``wait_stable`` fails with ``ReplicaUnavailable``: the
    put is dropped, silently."""
    return _held_put(local=False, release_at=None, crash_at=0.05, **SHORT_WAIT, **NO_DETECTOR)


HEAD_SCRIPTS = {
    script.__name__: script
    for script in (
        head_waits_on_its_own_tracker,
        head_waits_over_rpc,
        head_waits_on_its_own_tracker_clock,
        head_waits_over_rpc_clock,
        head_local_wait_outlives_an_attempt,
        head_rpc_wait_times_out_once,
        head_local_wait_expires,
        head_rpc_wait_expires,
        head_crash_mid_local_wait,
        head_crash_mid_rpc_wait,
    )
}

SCRIPTS = {**PROXY_SCRIPTS, **HEAD_SCRIPTS}


def run_script(name):
    store, keys, until = SCRIPTS[name]()
    store.run(until=until)
    return store, keys, store.message_tap


def pinned(name):
    store, keys, tap = run_script(name)
    return fields(store, keys=keys, site="dc1" if name in PROXY_SCRIPTS else "dc0", tap=tap)


test_script_reproduces_the_parents_tuple = pin_loop("geo_ops", SCRIPTS, pinned)


def _arrivals_at_head(name, key="k"):
    """Run ``name``; the values its ``ApplyRemote`` injections for ``key``
    delivered to dc1's head, in arrival order."""
    store, _keys, until = SCRIPTS[name]()
    head = _chain(store, "dc1", key)[0]
    arrived, serve = [], head.on_apply_remote

    def record(update, src):
        if update.key == key:
            arrived.append(update.value)
        return serve(update, src)

    head.on_apply_remote = record  # bound on the first ApplyRemote, so this is what runs
    store.run(until=until)
    return store, arrived


def _proxy_rpcs(tap):
    """Requests dc1's proxy sent its chains: injections and dependency waits."""
    return sum(
        1 for _at, src, _dst, kind, _size in tap.entries
        if src == "dc1:geoproxy" and kind in ("apply-remote", "wait-stable")
    )


def test_an_abandoned_update_is_counted_as_abandoned_not_as_applied():
    store, _keys, tap = run_script("max_retries_exhausted")
    proxy = store.proxies["dc1"]
    assert (proxy.updates_applied, proxy.updates_abandoned, proxy.visibility_samples) == (0, 2, [])
    assert _proxy_rpcs(tap) == 2 * store.config.max_retries
    stats = store.protocol_stats()
    assert (stats["updates_applied"], stats["updates_abandoned"], stats["remote_applies"]) == (0, 2, 0)


@pytest.mark.parametrize("name", ["session_writes_notices", "session_writes_clock", "session_writes_batched"])
def test_a_run_without_faults_abandons_nothing(name):
    store, _keys, _tap = run_script(name)
    stats = store.protocol_stats()
    assert (stats["updates_applied"], stats["updates_abandoned"]) == (9, 0)
    assert len(stats["visibility_samples"]) == 9


@pytest.mark.parametrize(
    "name,updates",
    [("own_key_dependency_is_skipped", 1), ("causal_delivery_off", 1), ("clock_plane_injection", 3)],
)
def test_dependencies_not_waited_for_cost_no_rpc(name, updates):
    _store, _keys, tap = run_script(name)
    assert _proxy_rpcs(tap) == updates  # its apply_remote and nothing else


def test_same_key_updates_reach_the_head_in_ship_order():
    _store, arrived = _arrivals_at_head("same_key_order_preserved")
    assert arrived == ["first", "second!!"]
    _store, arrived = _arrivals_at_head("clock_plane_injection")
    assert arrived == ["first", "second!!"]


def test_a_crashed_proxy_drops_the_update_but_not_its_successors():
    store, arrived = _arrivals_at_head("proxy_crash_mid_dep_wait")
    assert arrived == ["second", "third"]
    proxy = store.proxies["dc1"]
    assert (proxy.updates_applied, proxy.updates_abandoned) == (2, 0)
    store, arrived = _arrivals_at_head("proxy_down_when_the_gate_opens")
    assert arrived == ["third"] and store.proxies["dc1"].updates_applied == 1


def test_an_expired_dependency_wait_lets_the_write_through():
    store, _keys, tap = run_script("dep_wait_timeout_expires")
    assert store.proxies["dc1"].visibility_samples[0] >= store.config.dep_wait_timeout
    # one 0.1 s attempt on the proxy's own table, two 0.1 s WaitStable
    # requests, then an ApplyRemote
    assert _proxy_rpcs(tap) == 2 + 1
    for name in ("head_local_wait_expires", "head_rpc_wait_expires"):
        store, _keys, _tap = run_script(name)
        stats = store.protocol_stats()
        assert (stats["dep_waits"], stats["dep_wait_timeouts"], stats["puts_served"]) == (1, 1, 2)


def _watch(store, keep):
    """Collect every ``(src, dst, msg)`` the network accepts from here on;
    ``keep`` returns True for a message to drop instead of delivering."""
    seen = []

    def watch(src, dst, msg):
        seen.append((src, dst, msg))
        return keep(src, dst, msg)

    store.network.set_divert(watch)
    return seen


def _proxy_wait_stables(seen):
    return [
        msg for src, _dst, msg in seen
        if src.node == "geoproxy" and msg.type_name == "wait-stable"
    ]


@pytest.mark.parametrize("plane", ["notices", "notices+batch"])
def test_a_fault_free_two_site_run_waits_on_the_proxys_own_table(plane):
    store = build_store(
        "chainreaction", sites=("dc0", "dc1"), servers_per_site=4, chain_length=3, seed=1234,
        overrides={"stability": plane},
    )
    seen = _watch(store, lambda src, dst, msg: False)
    spec = workload("A", record_count=25, value_size=32)
    WorkloadRunner(store, spec, n_clients=4, duration=0.5, warmup=0.1).run()
    store.run(until=store.sim.now + 1.0)
    stats = store.protocol_stats()
    assert stats["updates_applied"] == stats["updates_shipped"] > 100
    assert stats["updates_abandoned"] == 0
    shipped = [
        update for _src, _dst, msg in seen if msg.type_name.startswith("remote-update")
        for update in getattr(msg, "updates", (msg,))
    ]
    assert sum(1 for update in shipped if update.deps) > 100  # there was waiting to do
    assert _proxy_wait_stables(seen) == []


def test_a_lost_tail_stable_falls_back_to_the_tail_after_one_attempt():
    """``one_dependency`` with ``d``'s ``TailStable`` to dc1's proxy lost:
    the proxy's own table never hears of ``d``, so after one attempt's
    wait it asks ``d``'s tail, which answers at once. ``k`` goes in after
    ``d``, an attempt later, and well before ``dep_wait_timeout``."""
    store, _keys, until = one_dependency()
    proxy = store.proxies["dc1"]
    seen = _watch(
        store,
        lambda src, dst, msg: dst == proxy.address and msg.type_name == "tail-stable" and msg.key == "d",
    )
    store.run(until=until)
    config = store.config
    attempt = max(config.dep_wait_timeout / 3.0, 0.05)
    assert [msg.key for msg in _proxy_wait_stables(seen)] == ["d"]
    d_visible, k_visible = proxy.visibility_samples
    assert d_visible < attempt <= k_visible < config.dep_wait_timeout
    assert (proxy.updates_applied, proxy.updates_abandoned) == (2, 0)
    assert [_chain(store, "dc1", key)[0].store.get(key).value for key in ("d", "k")] == ["dep", "v"]


#: script -> (bytes of dc0's local-origin ``TailStable``s, of its
#: ``RemoteUpdate``s), as the parent tree sent them: a remote-origin
#: notice lost its payload, nothing else did
LOCAL_ORIGIN_BYTES = {
    "session_writes_notices": (937, 937),
    "session_writes_clock": (1153, 0),
}


@pytest.mark.parametrize("name", sorted(LOCAL_ORIGIN_BYTES))
def test_a_remote_origin_tail_stable_carries_no_payload(name):
    store, _keys, until = SCRIPTS[name]()
    seen = _watch(store, lambda src, dst, msg: False)
    store.run(until=until)
    notices = [(src.site, msg) for src, _dst, msg in seen if msg.type_name == "tail-stable"]
    remote = [msg for site, msg in notices if site == "dc1"]
    assert len(remote) == 9
    for msg in remote:
        assert (msg.origin_site, msg.value, msg.deps, msg.stamp, msg.origin_put_at) == ("dc0", None, {}, None, 0.0)
        assert msg.version.get("dc0") > 0
    local = sum(msg.size_bytes() for site, msg in notices if site == "dc0")
    shipped = sum(msg.size_bytes() for _src, _dst, msg in seen if msg.type_name == "remote-update")
    assert (local, shipped) == LOCAL_ORIGIN_BYTES[name]

