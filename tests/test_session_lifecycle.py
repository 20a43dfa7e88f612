"""Session lifecycle, capability negotiation, and degraded reads."""

import pytest

from helpers import build, make_store, run_op

from repro.api import (
    CAP_DEGRADED_READS,
    CAP_DURABLE_STORAGE,
    CAP_SNAPSHOT_READS,
    CAP_STABILITY,
    CAP_TRACING,
)
from repro.errors import SessionClosedError


class TestSessionLifecycle:
    def test_operations_rejected_after_close(self):
        store = make_store()
        s = store.session()
        s.close()
        assert s.closed
        with pytest.raises(SessionClosedError):
            s.get("k")
        with pytest.raises(SessionClosedError):
            s.put("k", "v")

    def test_close_is_idempotent(self):
        store = make_store()
        s = store.session()
        s.close()
        s.close()
        assert s.closed

    def test_context_manager_closes(self):
        store = make_store()
        with store.session() as s:
            fut = s.put("k", "v")
            store.run(until=1.0)
            assert fut.result().version.total() == 1
        assert s.closed

    def test_sessions_lists_only_open(self):
        store = make_store()
        a = store.session()
        b = store.session()
        assert set(store.sessions()) == {a, b}
        a.close()
        assert store.sessions() == [b]

    def test_shutdown_closes_everything(self):
        store = make_store()
        a = store.session()
        b = store.session()
        store.shutdown()
        assert a.closed and b.closed
        assert store.sessions() == []

    def test_store_context_manager_shuts_down(self):
        with make_store() as store:
            s = store.session()
        assert s.closed

    def test_baseline_sessions_share_lifecycle(self):
        for protocol in ("eventual", "quorum", "cops"):
            store = build(protocol)
            with store.session() as s:
                run_op(store, s.put("k", "v"))
            assert s.closed
            with pytest.raises(SessionClosedError):
                s.get("k")


class TestCapabilities:
    def test_chainreaction_advertises_full_set(self):
        caps = make_store().capabilities
        assert CAP_SNAPSHOT_READS in caps
        assert CAP_STABILITY in caps
        assert CAP_TRACING in caps
        assert CAP_DEGRADED_READS in caps
        assert CAP_DURABLE_STORAGE not in caps

    def test_durable_storage_capability_follows_config(self):
        store = make_store(durable_storage=True)
        assert CAP_DURABLE_STORAGE in store.capabilities

    def test_degraded_reads_capability_follows_config(self):
        store = make_store(degraded_reads=False)
        assert CAP_DEGRADED_READS not in store.capabilities

    def test_baselines_advertise_nothing(self):
        for protocol in ("eventual", "quorum", "cops"):
            assert build(protocol).capabilities == frozenset()

    def test_capabilities_are_immutable(self):
        caps = make_store().capabilities
        assert isinstance(caps, frozenset)


class TestDegradedReads:
    def _partitioned_store(self):
        """Head holds v2 alone; the client cannot reach the head.

        ack_k=1 lets the put complete from the head only; blocking the
        head's chain link strands v2 there, and blocking client<->head
        forces reads onto replicas that only hold the preload version.
        The failure detector is slowed so no view change rescues reads.
        """
        store = make_store(
            ack_k=1,
            op_timeout=0.05,
            client_retry_backoff=0.01,
            failure_timeout=30.0,
        )
        store.preload({"k": "v1"})
        chain = store.managers["dc0"].view.chain_for("k")
        s = store.session(session_id="alice")
        store.network.block(f"dc0:{chain[0]}", f"dc0:{chain[1]}")
        result = run_op(store, s.put("k", "v2"))
        assert result.version.total() == 2  # preload + this put
        store.network.block("dc0:alice", f"dc0:{chain[0]}")
        return store, s, chain

    def test_unreachable_fresh_replica_serves_degraded(self):
        store, s, chain = self._partitioned_store()
        result = run_op(store, s.get("k"), extra=10.0)
        assert result.degraded is True
        assert result.value == "v1"
        assert result.served_by in chain[1:]
        assert s.degraded_reads == 1

    def test_degraded_read_leaves_dependency_table_alone(self):
        store, s, chain = self._partitioned_store()
        before = dict(s.dependency_table())
        run_op(store, s.get("k"), extra=10.0)
        assert s.dependency_table() == before

    def test_disabled_degraded_reads_time_out_instead(self):
        from repro.errors import RequestTimeout

        store = make_store(
            ack_k=1,
            op_timeout=0.05,
            client_retry_backoff=0.01,
            max_retries=4,
            degraded_reads=False,
            failure_timeout=30.0,
        )
        store.preload({"k": "v1"})
        chain = store.managers["dc0"].view.chain_for("k")
        s = store.session(session_id="alice")
        store.network.block(f"dc0:{chain[0]}", f"dc0:{chain[1]}")
        run_op(store, s.put("k", "v2"))
        store.network.block("dc0:alice", f"dc0:{chain[0]}")
        fut = s.get("k")
        store.run(until=store.sim.now + 10.0)
        assert fut.failed()
        with pytest.raises(RequestTimeout):
            fut.result()
