"""Tests for the per-key linearizability checker.

The register the checker reasons about holds an operation's version; in
the unit tests a named write ``"a"`` has version ``{"a": 1}`` and ``None``
is the empty version of a key never written.
"""

import pytest

from repro.baselines import build_store
from repro.checker import GET, PUT, History, check_linearizability, check_linearizable_key
from repro.checker.history import Operation
from repro.errors import CheckerError
from repro.storage import VersionVector
from repro.workload.driver import WorkloadRunner
from repro.workload.ycsb import workload


def v(name):
    return VersionVector() if name is None else VersionVector({name: 1})


def op(session, kind, key, name, t0, t1):
    return Operation(session, kind, key, None, v(name), t0, t1)


class TestLinearizableHistories:
    def test_empty(self):
        assert check_linearizable_key([]) is True

    def test_sequential_write_then_read(self):
        ops = [
            op("w", PUT, "k", "a", 0.0, 1.0),
            op("r", GET, "k", "a", 2.0, 3.0),
        ]
        assert check_linearizable_key(ops) is True

    def test_read_of_initial_value(self):
        ops = [op("r", GET, "k", None, 0.0, 1.0)]
        assert check_linearizable_key(ops, initial_value=None) is True

    def test_concurrent_read_may_see_either_side_of_write(self):
        # read overlaps the write: both old and new values linearize
        for observed in ("old", "new"):
            ops = [
                op("w", PUT, "k", "new", 1.0, 3.0),
                op("r", GET, "k", observed, 0.0, 4.0),
            ]
            assert check_linearizable_key(ops, initial_value=v("old")) is True

    def test_interleaved_writers(self):
        ops = [
            op("w1", PUT, "k", "a", 0.0, 1.0),
            op("w2", PUT, "k", "b", 2.0, 3.0),
            op("r", GET, "k", "b", 4.0, 5.0),
        ]
        assert check_linearizable_key(ops) is True


class TestNonLinearizableHistories:
    def test_stale_read_after_write_completed(self):
        ops = [
            op("w", PUT, "k", "new", 0.0, 1.0),
            op("r", GET, "k", "old", 2.0, 3.0),
        ]
        assert check_linearizable_key(ops, initial_value=v("old")) is False

    def test_read_of_never_written_value(self):
        ops = [
            op("w", PUT, "k", "a", 0.0, 1.0),
            op("r", GET, "k", "ghost", 2.0, 3.0),
        ]
        assert check_linearizable_key(ops) is False

    def test_new_old_inversion_between_two_readers(self):
        """r1 sees the new value and completes before r2 starts, yet r2
        sees the old value — the classic linearizability violation."""
        ops = [
            op("w", PUT, "k", "new", 0.0, 10.0),
            op("r1", GET, "k", "new", 1.0, 2.0),
            op("r2", GET, "k", "old", 3.0, 4.0),
        ]
        assert check_linearizable_key(ops, initial_value=v("old")) is False


class TestInputValidation:
    def test_duplicate_write_values_rejected(self):
        ops = [
            op("w1", PUT, "k", "same", 0.0, 1.0),
            op("w2", PUT, "k", "same", 2.0, 3.0),
        ]
        with pytest.raises(CheckerError):
            check_linearizable_key(ops)

    def test_multi_key_history_rejected(self):
        ops = [
            op("w", PUT, "a", "x", 0.0, 1.0),
            op("w", PUT, "b", "y", 2.0, 3.0),
        ]
        with pytest.raises(CheckerError):
            check_linearizable_key(ops)


class TestWholeHistoryWrapper:
    def test_checks_keys_independently(self):
        h = History()
        h.add("w", PUT, "good", None, v("a"), 0.0, 1.0)
        h.add("r", GET, "good", "x", v("a"), 2.0, 3.0)
        h.add("w", PUT, "bad", None, v("new"), 4.0, 5.0)
        h.add("r", GET, "bad", "x", v("stale"), 6.0, 7.0)
        failures = check_linearizability(h, initial_values={"bad": v("stale0")})
        assert failures == ["bad"]

    def test_all_clean(self):
        h = History()
        h.add("w", PUT, "k", None, v("a"), 0.0, 1.0)
        h.add("r", GET, "k", "x", v("a"), 2.0, 3.0)
        assert check_linearizability(h) == []


def _driver_history_failures(protocol, ack_k):
    """The non-linearizable keys of a recorded workload-driver run: one
    DC, 8 clients, 50 / 50 over 20 preloaded keys for 0.3 s. No warm-up,
    so the history holds every write the reads can observe."""
    spec = workload("A", record_count=20)
    store = build_store(protocol, seed=7, ack_k=ack_k)
    result = WorkloadRunner(store, spec, 8, duration=0.3, warmup=0.0, drain=1.0).run()
    puts = [o for o in result.history if o.op == PUT]
    assert len({o.key for o in puts}) < len(puts)  # keys written more than once
    preload = {spec.key(i): VersionVector({"preload": 1}) for i in range(spec.record_count)}
    return check_linearizability(result.history, preload)


class TestDriverHistories:
    def test_chain_replication_is_linearizable(self):
        assert _driver_history_failures("chain", ack_k=3) == []

    def test_chainreaction_acked_at_the_head_is_caught(self):
        # ack_k=1 acknowledges a put once the head applied it, so a prefix
        # read that completes after the put may still see the old version.
        assert len(_driver_history_failures("chainreaction", ack_k=1)) == 5
