"""Chain repair and recovery tests."""

import pytest

from helpers import make_store, run_op

from repro.storage import VersionVector


def preload_and_write(store, n_keys=30):
    s = store.session()
    versions = {}
    for i in range(n_keys):
        versions[f"key{i}"] = run_op(store, s.put(f"key{i}", f"value{i}")).version
    store.run(until=store.sim.now + 1.0)  # stabilise everything
    return s, versions


class TestCrashRepair:
    def test_data_survives_single_crash(self):
        store = make_store(servers_per_site=5)
        s, _ = preload_and_write(store)
        store.servers()[0].crash()
        store.run(until=store.sim.now + 2.0)  # detect + repair
        for i in range(30):
            assert run_op(store, s.get(f"key{i}"), extra=2.0).value == f"value{i}"

    def test_new_chain_members_receive_state(self):
        store = make_store(servers_per_site=5)
        _, versions = preload_and_write(store)
        victim = store.servers()[0]
        victim.crash()
        store.run(until=store.sim.now + 2.0)
        view = store.managers["dc0"].view
        assert victim.name not in view.servers
        for key, version in versions.items():
            for name in view.chain_for(key):
                node = next(n for n in store.nodes["dc0"] if n.name == name)
                record = node.store.get(key)
                assert record is not None, (key, name)
                assert record.version.dominates(version)

    def test_repaired_records_become_stable(self):
        store = make_store(servers_per_site=5)
        _, versions = preload_and_write(store)
        store.servers()[0].crash()
        store.run(until=store.sim.now + 2.0)
        view = store.managers["dc0"].view
        for key, version in versions.items():
            tail_name = view.chain_for(key)[-1]
            tail = next(n for n in store.nodes["dc0"] if n.name == tail_name)
            assert tail.plane.stability.is_stable(key, version), key

    def test_sync_window_is_bounded(self):
        store = make_store(servers_per_site=5)
        preload_and_write(store, n_keys=10)
        store.servers()[0].crash()
        store.run(until=store.sim.now + 2.0)
        assert all(not n.syncing for n in store.servers() if not n.crashed)

    def test_writes_continue_after_repair(self):
        store = make_store(servers_per_site=5)
        s, _ = preload_and_write(store, n_keys=5)
        store.servers()[0].crash()
        store.run(until=store.sim.now + 2.0)
        result = run_op(store, s.put("fresh", "post-crash"), extra=2.0)
        assert result.version.get("dc0") >= 1
        assert run_op(store, s.get("fresh"), extra=2.0).value == "post-crash"

    def test_acked_writes_survive_ack_node_crash(self):
        """With k=2 a write acked to the client exists on 2 servers; losing
        either one must not lose the write."""
        store = make_store(servers_per_site=5, ack_k=2)
        s = store.session()
        version = run_op(store, s.put("precious", "data")).version
        head_name = store.managers["dc0"].view.chain_for("precious")[0]
        head = next(n for n in store.nodes["dc0"] if n.name == head_name)
        head.crash()
        store.run(until=store.sim.now + 2.0)
        result = run_op(store, s.get("precious"), extra=2.0)
        assert result.value == "data"
        assert result.version.dominates(version)


class TestRecovery:
    def test_recovered_server_rejoins_view(self):
        store = make_store(servers_per_site=4)
        preload_and_write(store, n_keys=5)
        victim = store.servers()[0]
        victim.crash()
        store.run(until=store.sim.now + 1.5)
        assert victim.name not in store.managers["dc0"].view.servers
        victim.recover()
        store.run(until=store.sim.now + 1.5)
        assert victim.name in store.managers["dc0"].view.servers

    def test_rejoined_server_catches_up_on_data(self):
        store = make_store(servers_per_site=4)
        s, _ = preload_and_write(store, n_keys=10)
        victim = store.servers()[0]
        victim.crash()
        store.run(until=store.sim.now + 1.5)
        # Writes happen while the victim is down.
        run_op(store, s.put("key0", "updated"), extra=2.0)
        victim.recover()
        store.run(until=store.sim.now + 2.0)
        view = store.managers["dc0"].view
        if victim.name in view.chain_for("key0"):
            assert victim.store.get("key0").value == "updated"

    def test_reads_correct_after_full_cycle(self):
        store = make_store(servers_per_site=4)
        s, _ = preload_and_write(store, n_keys=10)
        victim = store.servers()[0]
        victim.crash()
        store.run(until=store.sim.now + 1.5)
        victim.recover()
        store.run(until=store.sim.now + 2.0)
        for i in range(10):
            assert run_op(store, s.get(f"key{i}"), extra=2.0).value == f"value{i}"


class TestConsistencyThroughFailure:
    def test_no_causal_anomalies_across_crash(self):
        """Sessions running through a crash+repair cycle stay causally clean
        (modulo unstable versions that die with the crashed server)."""
        from repro.checker import History, check_causal
        from repro.checker.history import GET, PUT

        store = make_store(servers_per_site=5, ack_k=2)
        history = History()
        sessions = [store.session() for _ in range(4)]

        def client_loop(session, n):
            for i in range(n):
                key = f"key{i % 7}"
                t0 = store.sim.now
                try:
                    res = yield session.put(key, f"{session.session_id}:{i}")
                    history.add(session.session_id, PUT, key, f"{session.session_id}:{i}", res.version, t0, store.sim.now)
                except Exception:
                    pass
                t0 = store.sim.now
                try:
                    res = yield session.get(key)
                    history.add(session.session_id, GET, key, res.value, res.version, t0, store.sim.now)
                except Exception:
                    pass
                yield 0.01

        from repro.sim import spawn

        for session in sessions:
            spawn(store.sim, client_loop(session, 80))
        store.sim.schedule_at(0.4, store.servers()[0].crash)
        store.run(until=6.0)
        violations = check_causal(history)
        assert len(violations) <= 3, [str(v) for v in violations[:3]]
