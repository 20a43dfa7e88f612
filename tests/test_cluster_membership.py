"""Unit tests for cluster membership and failure detection."""

import pytest

from repro.baselines.common import BaselineConfig
from repro.cluster import ClusterManager, RingView
from repro.cluster.membership import HEARTBEAT_INTERVAL, GetView, ViewReply
from repro.cluster.server_base import RingServer
from repro.core.config import ChainReactionConfig
from repro.errors import ClusterError, ConfigError
from repro.net import FixedLatency, Network
from repro.sim import Simulator


def deploy(sim, n=4, chain_length=3, failure_timeout=0.25):
    net = Network(sim, lan=FixedLatency(0.001))
    names = [f"s{i}" for i in range(n)]
    manager = ClusterManager(
        sim,
        net,
        site="dc0",
        servers=names,
        chain_length=chain_length,
        failure_timeout=failure_timeout,
    )
    servers = [
        RingServer(sim, net, "dc0", name, manager.view) for name in names
    ]
    return net, manager, servers


class TestRingView:
    def test_chain_for_uses_ring(self):
        view = RingView(epoch=1, site="dc0", servers=("a", "b", "c"), chain_length=2)
        chain = view.chain_for("key")
        assert len(chain) == 2 and set(chain) <= {"a", "b", "c"}

    def test_addresses(self):
        view = RingView(epoch=1, site="dc0", servers=("a",), chain_length=1)
        assert str(view.address_of("a")) == "dc0:a"
        assert [str(a) for a in view.addresses()] == ["dc0:a"]


class TestManagerConfig:
    def test_rejects_zero_chain_length(self, sim):
        net = Network(sim)
        with pytest.raises(ClusterError):
            ClusterManager(sim, net, "dc0", ["a"], chain_length=0)

    def test_rejects_timeout_below_heartbeat(self, sim):
        net = Network(sim)
        with pytest.raises(ClusterError):
            ClusterManager(
                sim, net, "dc0", ["a"], chain_length=1, failure_timeout=0.01,
            )

    @pytest.mark.parametrize("config", [ChainReactionConfig, BaselineConfig])
    def test_a_deployment_config_rejects_a_timeout_at_or_below_the_heartbeat(self, config):
        # Servers heartbeat every HEARTBEAT_INTERVAL whatever the config
        # says, so the interval is no knob; the timeout is checked against it.
        with pytest.raises(ConfigError, match="heartbeat"):
            config(failure_timeout=HEARTBEAT_INTERVAL)
        with pytest.raises(TypeError, match="heartbeat_interval"):
            config(heartbeat_interval=1.0)
        assert config(failure_timeout=HEARTBEAT_INTERVAL * 1.01).failure_timeout > HEARTBEAT_INTERVAL


class TestFailureDetection:
    def test_healthy_servers_stay_in_view(self, sim):
        _, manager, _ = deploy(sim)
        sim.run(until=2.0)
        assert manager.view.epoch == 1
        assert len(manager.view.servers) == 4

    def test_silent_server_removed(self, sim):
        _, manager, servers = deploy(sim)
        sim.schedule_at(0.5, servers[0].crash)
        sim.run(until=2.0)
        assert servers[0].name not in manager.view.servers
        assert manager.view.epoch > 1

    def test_removal_within_few_timeouts(self, sim):
        _, manager, servers = deploy(sim, failure_timeout=0.2)
        epochs = []
        manager.add_view_listener(lambda view: epochs.append(sim.now))
        sim.schedule_at(1.0, servers[0].crash)
        sim.run(until=3.0)
        assert epochs and epochs[0] < 1.0 + 3 * 0.2 + 0.1

    def test_survivors_receive_new_view(self, sim):
        _, manager, servers = deploy(sim)
        sim.schedule_at(0.5, servers[0].crash)
        sim.run(until=2.0)
        for server in servers[1:]:
            assert server.view.epoch == manager.view.epoch

    def test_recovered_server_rejoins_automatically(self, sim):
        _, manager, servers = deploy(sim)
        sim.schedule_at(0.5, servers[0].crash)
        sim.schedule_at(2.0, servers[0].recover)
        sim.run(until=4.0)
        assert servers[0].name in manager.view.servers

    def test_last_server_failure_raises(self, sim):
        _, manager, servers = deploy(sim, n=1, chain_length=1)
        servers[0].crash()
        with pytest.raises(ClusterError):
            sim.run(until=2.0)


class TestAdmin:
    def test_add_server_bumps_epoch(self, sim):
        net, manager, servers = deploy(sim)
        RingServer(sim, net, "dc0", "s9", manager.view)
        manager.add_server("s9")
        assert "s9" in manager.view.servers
        assert manager.view.epoch == 2

    def test_add_duplicate_rejected(self, sim):
        _, manager, _ = deploy(sim)
        with pytest.raises(ClusterError):
            manager.add_server("s0")

    def test_rpc_get_view_returns_current(self, sim):
        net, manager, servers = deploy(sim)
        answers = []
        net.add_filter(lambda src, dst, msg: msg.type_name != "view-reply" or answers.append(msg) or True)
        manager.on_get_view(GetView(request_id=7), servers[0].address)
        assert answers == [ViewReply(request_id=7, view=manager.view)]
        assert answers[0].view is manager.view

    def test_view_listener_called_on_change(self, sim):
        _, manager, servers = deploy(sim)
        seen = []
        manager.add_view_listener(seen.append)
        sim.schedule_at(0.5, servers[0].crash)
        sim.run(until=2.0)
        assert seen and seen[-1].epoch == manager.view.epoch


class TestServerBase:
    def test_positions_and_neighbours(self, sim):
        _, manager, servers = deploy(sim)
        key = "somekey"
        chain = manager.view.chain_for(key)
        head = next(s for s in servers if s.name == chain[0])
        tail = next(s for s in servers if s.name == chain[-1])
        assert head.is_head(key) and not head.is_tail(key)
        assert tail.is_tail(key)
        assert head.predecessor(key) is None
        assert tail.successor(key) is None
        assert head.successor(key).node == chain[1]

    def test_not_responsible_raises(self, sim):
        from repro.errors import NotResponsibleError

        _, manager, servers = deploy(sim)
        key = "somekey"
        chain = manager.view.chain_for(key)
        outsider = next(s for s in servers if s.name not in chain)
        with pytest.raises(NotResponsibleError):
            outsider.my_position(key)

    def test_stale_view_change_ignored(self, sim):
        from repro.cluster.membership import ViewChange

        _, manager, servers = deploy(sim)
        stale = RingView(epoch=0, site="dc0", servers=("s0",), chain_length=1)
        servers[0].on_view_change(ViewChange(view=stale), manager.address)
        assert servers[0].view.epoch == 1
