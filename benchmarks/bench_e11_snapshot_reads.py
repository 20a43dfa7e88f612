"""E11 (extension) — causally consistent snapshot reads.

The paper's transactional-read extension, reconstructed on DC-stability:
``multi_get`` returns a mutually consistent multi-key snapshot in one
round in the common case (dependency-floor validation triggers extra
rounds only when stabilisation races the reads).

Shape: snapshot reads cost about one parallel stable-read round — their
latency tracks a single GET, not the sum over keys — and under a
concurrent causally-linked writer the snapshots never show an effect
without its cause while staying only a stability-lag behind the freshest
data.
"""

from __future__ import annotations

from bench_utils import run_once

from repro.baselines import build_store
from repro.metrics import LatencyReservoir, render_table
from repro.sim import spawn
from repro.workload import workload


def test_e11_snapshot_reads(scale):
    def experiment():
        store = build_store(
            "chainreaction",
            servers_per_site=scale.servers_per_site,
            chain_length=scale.chain_length,
            ack_k=scale.ack_k,
            seed=scale.seed,
        )
        sim = store.sim
        spec = workload("A", record_count=scale.record_count, value_size=scale.value_size)
        store.preload({spec.key(i): "init#-1" for i in range(scale.record_count)})

        snap_latency = LatencyReservoir(seed=5)
        get_latency = LatencyReservoir(seed=6)
        anomalies = [0]
        snapshots = [0]
        rounds = [0]
        stop_at = scale.warmup + scale.duration

        def writer(session, pair):
            key_a, key_b = spec.key(2 * pair), spec.key(2 * pair + 1)
            i = 0
            while sim.now < stop_at:
                i += 1
                yield session.put(key_a, f"r#{i}")
                yield session.put(key_b, f"r#{i}")
                yield 0.002

        def snap_reader(session, pair):
            key_a, key_b = spec.key(2 * pair), spec.key(2 * pair + 1)
            while sim.now < stop_at:
                t0 = sim.now
                snap = yield session.multi_get([key_b, key_a])
                snap_latency.add(sim.now - t0)
                snapshots[0] += 1
                rounds[0] += snap.rounds
                b_round = int(snap[key_b].split("#")[1])
                a_round = int(snap[key_a].split("#")[1])
                if a_round < b_round:
                    anomalies[0] += 1
                yield 0.001

        def get_reader(session, pair):
            key_a = spec.key(2 * pair)
            while sim.now < stop_at:
                t0 = sim.now
                yield session.get(key_a)
                get_latency.add(sim.now - t0)
                yield 0.001

        n_pairs = 8
        for pair in range(n_pairs):
            spawn(sim, writer(store.session(), pair))
            spawn(sim, snap_reader(store.session(), pair))
            spawn(sim, get_reader(store.session(), pair))
        sim.run(until=stop_at + 2.0)
        return snap_latency, get_latency, anomalies[0], snapshots[0], rounds[0]

    snap_latency, get_latency, anomalies, snapshots, rounds = run_once(experiment)
    print()
    print(
        render_table(
            ["metric", "value"],
            [
                ("snapshots taken", snapshots),
                ("mean rounds per snapshot", rounds / max(snapshots, 1)),
                ("snapshot p50 ms", snap_latency.percentile(50) * 1000),
                ("snapshot p99 ms", snap_latency.percentile(99) * 1000),
                ("single-get p50 ms", get_latency.percentile(50) * 1000),
                ("causal anomalies", anomalies),
            ],
            title="E11: multi_get snapshot reads vs single gets",
        )
    )
    assert snapshots > 100
    assert anomalies == 0
    # One parallel round: snapshot latency ≈ one get, not a per-key sum.
    assert snap_latency.percentile(50) < 3.0 * get_latency.percentile(50)
    assert rounds / snapshots < 1.5
