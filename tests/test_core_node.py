"""Protocol tests for the ChainReaction server (single DC)."""

import pytest

from helpers import make_store, run_op

from repro.core.messages import GetRequest, WaitStable
from repro.sim.process import Future
from repro.storage import VersionVector


def ask(store, dst, message_class, **fields):
    """Send ``dst`` a typed request from dc0's geo-proxy (an actor that
    takes both a ``ReadReply`` and an ``Ack``); the future resolves with
    the reply."""
    proxy = store.proxies["dc0"]
    reply = Future(store.sim)
    request_id = proxy._open_request(reply, 5.0, message_class.type_name, dst)
    proxy.send(dst, message_class(request_id=request_id, **fields))
    return reply


def node_named(store, name, site="dc0"):
    return next(n for n in store.nodes[site] if n.name == name)


def chain_nodes(store, key, site="dc0"):
    view = store.managers[site].view
    return [node_named(store, name, site) for name in view.chain_for(key)]


class TestPutPath:
    def test_put_assigns_incrementing_versions(self):
        store = make_store()
        s = store.session()
        v1 = run_op(store, s.put("k", "a")).version
        v2 = run_op(store, s.put("k", "b")).version
        assert v1 == VersionVector({"dc0": 1})
        assert v2 == VersionVector({"dc0": 2})

    def test_ack_comes_from_position_k_minus_1(self):
        store = make_store(ack_k=2)
        s = store.session()
        result = run_op(store, s.put("k", "v"))
        assert result.acked_by == "1"  # chain index 1 == second server

    def test_ack_k1_comes_from_head(self):
        store = make_store(ack_k=1)
        s = store.session()
        assert run_op(store, s.put("k", "v")).acked_by == "0"

    def test_ack_k_equals_r_comes_from_tail_and_is_stable(self):
        store = make_store(ack_k=3)
        s = store.session()
        result = run_op(store, s.put("k", "v"))
        assert result.acked_by == "2"
        assert result.stable

    def test_prefix_property_at_ack_time(self):
        """When the client is acked, the first k servers hold the write."""
        store = make_store(ack_k=2)
        s = store.session()
        fut = s.put("key", "value")

        checked = []

        def on_ack(_f):
            nodes = chain_nodes(store, "key")
            checked.append([n.store.get("key") is not None for n in nodes[:2]])

        fut.add_callback(on_ack)
        store.run(until=1.0)
        assert checked == [[True, True]]

    def test_write_eventually_on_all_chain_nodes(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("key", "value"))
        store.run(until=2.0)
        for node in chain_nodes(store, "key"):
            assert node.store.get("key").value == "value"

    def test_non_chain_nodes_do_not_store_key(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("key", "value"))
        store.run(until=2.0)
        chain = set(store.managers["dc0"].view.chain_for("key"))
        for node in store.servers():
            if node.name not in chain:
                assert node.store.get("key") is None

    def test_put_to_non_head_is_retried_transparently(self):
        """A client with a deliberately wrong view still completes its put."""
        store = make_store()
        s = store.session()
        # Shrink the client's view so its ring excludes the true head and
        # it addresses the wrong server first.
        import dataclasses

        view = s.view
        true_head = view.chain_for("key")[0]
        smaller = tuple(name for name in view.servers if name != true_head)
        s.view = dataclasses.replace(view, epoch=0, servers=smaller)
        result = run_op(store, s.put("key", "v"), extra=2.0)
        assert result.version.get("dc0") == 1
        assert s.retries >= 1

    def test_delete_writes_tombstone(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("k", "v"))
        run_op(store, s.delete("k"))
        assert run_op(store, s.get("k")).value is None
        store.run(until=2.0)
        tail = chain_nodes(store, "k")[-1]
        assert tail.store.get_record("k").is_deleted


class TestStability:
    def test_tail_marks_stable_and_notifies_chain(self):
        store = make_store()
        s = store.session()
        version = run_op(store, s.put("key", "v")).version
        store.run(until=2.0)
        for node in chain_nodes(store, "key"):
            assert node.plane.stability.is_stable("key", version)

    def test_version_not_stable_before_tail_applies(self):
        store = make_store(ack_k=1)
        s = store.session()
        fut = s.put("key", "v")
        stable_at_ack = []

        def on_ack(_f):
            head = chain_nodes(store, "key")[0]
            stable_at_ack.append(head.plane.stability.is_stable("key", _f.result().version))

        fut.add_callback(on_ack)
        store.run(until=2.0)
        assert stable_at_ack == [False]

    def test_wait_stable_resolves_on_stability(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("key", "v"))
        store.run(until=2.0)
        tail = chain_nodes(store, "key")[-1]
        fut = ask(store, tail.address, WaitStable, key="key", version=VersionVector({"dc0": 1}))
        store.run(until=store.sim.now + 0.1)
        assert fut.done() and fut.result().ok

    def test_wait_stable_blocks_for_future_version(self, ):
        store = make_store()
        tail = chain_nodes(store, "key")[-1]
        fut = ask(store, tail.address, WaitStable, key="key", version=VersionVector({"dc0": 5}))
        store.run(until=store.sim.now + 0.1)
        assert not fut.done()
        assert tail.plane.stability.pending_waiters() == 1


    def test_wait_stable_rpcs_cost_no_service_time(self):
        # Stability queries are version comparisons, not data operations:
        # they bypass the server's service queue, a get does not.
        store = make_store(service_time=0.050)
        tail = chain_nodes(store, "key")[-1]
        start = store.sim.now
        get = ask(store, tail.address, GetRequest, key="key")
        wait = ask(store, tail.address, WaitStable, key="key", version=VersionVector())
        store.run(until=start + 1.0)
        assert wait.result().ok
        assert wait.resolved_at - start < 0.010  # two LAN hops, no queueing
        assert get.result().ok and get.resolved_at - start >= 0.050


class TestReadPath:
    def test_get_missing_key(self):
        store = make_store()
        s = store.session()
        result = run_op(store, s.get("ghost"))
        assert result.value is None
        assert result.version.is_zero()

    def test_get_returns_written_value(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("k", "v"))
        result = run_op(store, s.get("k"))
        assert result.value == "v"
        assert result.version == VersionVector({"dc0": 1})

    def test_reads_spread_over_chain_when_stable(self):
        store = make_store()
        writer = store.session()
        run_op(store, writer.put("hot", "v"))
        store.run(until=2.0)  # let it stabilise
        served_by = set()
        reader = store.session()
        for _ in range(60):
            served_by.add(run_op(store, reader.get("hot")).served_by)
        chain = store.managers["dc0"].view.chain_for("hot")
        assert served_by == set(chain)

    def test_tail_only_reads_when_prefix_disabled(self):
        store = make_store(allow_prefix_reads=False)
        writer = store.session()
        run_op(store, writer.put("hot", "v"))
        store.run(until=2.0)
        chain = store.managers["dc0"].view.chain_for("hot")
        reader = store.session()
        for _ in range(20):
            assert run_op(store, reader.get("hot")).served_by == chain[-1]

    def test_own_unstable_write_readable_immediately(self):
        """Read-your-writes: the ack prefix always serves the session."""
        store = make_store(ack_k=1)
        s = store.session()
        for i in range(20):
            run_op(store, s.put("k", f"v{i}"))
            assert run_op(store, s.get("k")).value == f"v{i}"


class TestDependencyWaits:
    @staticmethod
    def _disjoint_keys(store):
        """Two keys whose heads do not share chain knowledge: the head of
        the second key is not in the first key's chain."""
        view = store.managers["dc0"].view
        for i in range(200):
            for j in range(200):
                x, y = f"x{i}", f"y{j}"
                if view.chain_for(y)[0] not in view.chain_for(x):
                    return x, y
        raise AssertionError("no disjoint key pair found")

    def test_put_waits_for_unstable_dependency(self):
        """A put carrying an unstable dependency is held at the head until
        the dependency reaches the tail of its own chain."""
        store = make_store(ack_k=1, servers_per_site=6)
        x, y = self._disjoint_keys(store)
        s = store.session()
        # k=1 ack leaves 2 chain hops before x's write is DC-stable.
        run_op(store, s.put(x, "1"))
        assert x in s.dependency_table()
        fut = s.put(y, "2")
        store.run(until=2.0)
        assert fut.result().version.get("dc0") == 1
        # The dependency machinery engaged on y's head.
        assert sum(n.dep_waits for n in store.servers()) >= 1
        # And y is only readable with x DC-stable:
        x_tail = chain_nodes(store, x)[-1]
        assert x_tail.plane.stability.is_stable(x, VersionVector({"dc0": 1}))

    def test_no_wait_when_dependency_already_stable(self):
        store = make_store(ack_k=3)  # writes born stable
        s = store.session()
        run_op(store, s.put("x", "1"))
        run_op(store, s.put("y", "2"))
        assert sum(n.dep_waits for n in store.servers()) == 0

    def test_dep_wait_timeout_lets_put_proceed(self):
        """A dependency that can never stabilise (its data was lost) stalls
        the put for dep_wait_timeout, then the write goes through."""
        from repro.core.messages import DepEntry, PutRequest

        store = make_store(dep_wait_timeout=0.3)
        s = store.session()
        head = chain_nodes(store, "y")[0]
        ghost_dep = {"zzz": DepEntry(VersionVector({"dc0": 9}), 0)}
        head.on_put_request(
            PutRequest(request_id=1, key="y", value="v", deps=ghost_dep, reply_to=s.address),
            s.address,
        )
        store.run(until=2.0)
        assert head.dep_wait_timeouts == 1
        assert any(n.store.get("y") for n in chain_nodes(store, "y"))


class TestCounters:
    def test_served_counters_increment(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("k", "v"))
        run_op(store, s.get("k"))
        assert sum(n.puts_served for n in store.servers()) == 1
        assert sum(n.gets_served for n in store.servers()) == 1

    def test_protocol_stats_aggregates(self):
        store = make_store()
        s = store.session()
        run_op(store, s.put("k", "v"))
        stats = store.protocol_stats()
        assert stats["puts_served"] == 1
        assert stats["messages_sent"] > 0
