"""Every request is a typed message answered by a typed reply.

A read is a ``GetRequest`` answered by a ``ReadReply``; a dependency wait
is a ``WaitStable`` and a remote inject an ``ApplyRemote``, both answered
by an ``Ack``. An operation on a key the client's site does not own goes
to an owner DC's proxy as the very request a local server would get, and
the proxy relays the head's reply back as it is, under the client's
request id: nothing is nested. The baselines ask with ``KvGet`` /
``KvPut``. There is no second, string-method message form: no run of any
protocol sends an ``rpc-request`` or an ``rpc-response``.
"""

import pytest

from helpers import make_store, run_op

from repro.baselines import build_store
from repro.workload import WorkloadRunner
from repro.workload.ycsb import WorkloadSpec

#: the standing benchmark's four shapes (sites, read, update, key
#: distribution, config overrides), at a few hundred keys and clients
#: enough to overlap operations
SHAPES = {
    "ycsb-b-1dc": (("dc0",), 0.95, 0.05, "zipfian", None),
    "geo-write-notices": (("dc0", "dc1"), 0.10, 0.90, "scrambled", {"stability": "notices"}),
    "geo-write-clock": (("dc0", "dc1"), 0.10, 0.90, "scrambled", {"stability": "clock"}),
    "keyspace-4dc": (("dc0", "dc1", "dc2", "dc3"), 0.70, 0.30, "scrambled", None),
}


def _run(sites, read, update, distribution, overrides, records=300, clients=6):
    store = build_store(
        "chainreaction", sites=sites, servers_per_site=4, chain_length=3, ack_k=2,
        seed=1234, overrides=overrides,
    )
    spec = WorkloadSpec(
        "typed-hot-paths", read_proportion=read, update_proportion=update,
        record_count=records, distribution=distribution, value_size=64,
    )
    result = WorkloadRunner(
        store, spec, n_clients=clients, duration=0.2, warmup=0.05, drain=0.3,
        record_history=False,
    ).run()
    return store, result


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_fault_free_run_sends_no_rpc_envelope(name):
    store, result = _run(*SHAPES[name])
    sent = store.network.stats.by_type
    assert result.get_latency.count > 50 and result.put_latency.count > 5
    assert "rpc-request" not in sent and "rpc-response" not in sent
    assert sent["get-request"] == sent["read-reply"] >= result.get_latency.count
    if len(SHAPES[name][0]) > 1:
        stats = store.protocol_stats()
        assert sent["apply-remote"] == stats["remote_applies"] > 0
        assert sent["ack"] >= sent["apply-remote"]


def test_forwarded_reads_send_no_get_fwd_rpc():
    store = build_store(
        "chainreaction", sites=("dc0", "dc1", "dc2"), servers_per_site=4, chain_length=3,
        seed=1234, overrides={"replication_degree": 2},
    )
    seen = []
    store.network.add_filter(lambda src, dst, msg: seen.append((src, dst, msg)) or True)
    spec = WorkloadSpec(
        "forwarded-reads", read_proportion=0.7, update_proportion=0.3, record_count=100,
        distribution="uniform", value_size=32,
    )
    WorkloadRunner(store, spec, n_clients=6, duration=0.3, warmup=0.05, record_history=False).run()
    assert not {"rpc-request", "rpc-response"} & set(store.network.stats.per_type)
    proxies = store.proxies.values()
    # Each forwarded read goes client → proxy → head, so twice.
    forwarded = [msg for _src, _dst, msg in seen if msg.type_name == "get-request" and msg.forwarded]
    assert len(forwarded) == 2 * sum(p.forwarded_gets_served for p in proxies) > 0

    def sizes(type_name, into_proxy):
        return sorted(
            msg.size_bytes() for src, dst, msg in seen
            if msg.type_name == type_name and (dst if into_proxy else src).node == "geoproxy"
        )

    # A forwarded read's answer is the head's reply, relayed: same type, same size.
    assert sizes("read-reply", into_proxy=False) == sizes("read-reply", into_proxy=True)
    assert len(sizes("read-reply", into_proxy=False)) == len(forwarded) // 2
    # A forwarded put is answered by the head's put-reply, relayed.
    puts_in = [msg for _src, dst, msg in seen if msg.type_name == "put-request" and dst.node == "geoproxy"]
    assert len(puts_in) == len(sizes("put-reply", into_proxy=False)) > 0
    assert sizes("put-reply", into_proxy=False) == sizes("put-reply", into_proxy=True)


@pytest.mark.parametrize("protocol", ["cops", "eventual", "quorum"])
def test_a_baseline_sends_no_rpc_envelope(protocol):
    store = build_store(protocol, sites=("dc0", "dc1"), servers_per_site=4, chain_length=3, seed=1234)
    spec = WorkloadSpec(
        "baseline", read_proportion=0.5, update_proportion=0.5, record_count=100,
        distribution="uniform", value_size=32,
    )
    result = WorkloadRunner(
        store, spec, n_clients=4, duration=0.2, warmup=0.05, record_history=False,
    ).run()
    per_type = store.network.stats.per_type
    assert result.get_latency.count > 10 and result.put_latency.count > 10
    assert not {"rpc-request", "rpc-response"} & set(per_type)
    assert per_type["kv-reply"][0] == per_type["kv-get"][0] + per_type["kv-put"][0]


def test_a_refused_read_is_retried_like_a_refused_put():
    store = make_store(op_timeout=0.05, client_retry_backoff=0.01)
    session = store.session(session_id="alice")
    chain = [n for name in store.managers["dc0"].view.chain_for("k") for n in store.servers() if n.name == name]
    for node in chain:
        node.syncing = True
    seen = []
    store.network.add_filter(lambda src, dst, msg: seen.append(msg) or True)
    for node in chain:
        store.sim.schedule(0.03, setattr, node, "syncing", False)
    result = run_op(store, session.get("k"))
    refusals = [msg for msg in seen if msg.type_name == "read-reply" and not msg.ok]
    assert result.value is None and session.retries == len(refusals) >= 1
    assert {msg.error for msg in refusals} == {"syncing"}
    assert store.protocol_stats()["rejected_ops"] == len(refusals)
