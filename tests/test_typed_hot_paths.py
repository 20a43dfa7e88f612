"""The per-operation paths travel as typed messages, not in the RPC envelope.

A read is a ``GetRequest`` answered by a ``ReadReply``; a dependency wait
is a ``WaitStable`` and a remote inject an ``ApplyRemote``, both answered
by an ``Ack``. The RPC envelope (``rpc-request`` / ``rpc-response``) is
left to the cold paths: snapshot reads, forwarding to an owner DC's
proxy, the cluster manager and the baselines. So a fault-free run of any
of the four standing workload shapes, shrunk, sends no envelope at all,
and a partially replicated run's forwarded reads reach the owner's head
as a forwarded ``GetRequest``, not as a ``get_fwd`` RPC.
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
    store.network.add_filter(lambda src, dst, msg: seen.append(msg) or True)
    spec = WorkloadSpec(
        "forwarded-reads", read_proportion=0.7, update_proportion=0.3, record_count=100,
        distribution="uniform", value_size=32,
    )
    WorkloadRunner(store, spec, n_clients=6, duration=0.3, warmup=0.05, record_history=False).run()
    methods = {getattr(msg, "method", None) for msg in seen if msg.type_name == "rpc-request"}
    forwarded = [msg for msg in seen if msg.type_name == "get-request" and msg.forwarded]
    assert "forward_get" in methods and "get_fwd" not in methods
    proxies = store.proxies.values()
    assert len(forwarded) == sum(p.forwarded_gets_served for p in proxies) > 0


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
