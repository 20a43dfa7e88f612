"""Golden trace: the default configuration's E1-style mini-run is pins.json's
``golden/notices`` row, and its latency reservoirs give that row's percentiles."""

from repro.baselines import build_store
from repro.workload import WorkloadRunner, workload
from test_pins import fields, table


def _golden_run():
    store = build_store("chainreaction", sites=("dc0", "dc1"), servers_per_site=4, chain_length=3, seed=1234)
    spec = workload("B", record_count=25, value_size=32)
    return store, WorkloadRunner(store, spec, n_clients=3, duration=0.5, warmup=0.1).run()


class TestGoldenTrace:
    def test_fixed_seed_run_matches_recorded_snapshot(self):
        store, result = _golden_run()
        assert fields(store, result=result) == table()["golden/notices"]

    def test_latency_percentiles_exact(self):
        _, result = _golden_run()
        row = table()["golden/notices"]["summary"]
        assert result.get_latency.percentile(50) * 1000 == row["get_p50_ms"]
        assert result.put_latency.percentile(99) * 1000 == row["put_p99_ms"]
