"""Interim perf tiers, each waiting for a standing-benchmark arm.

Performance is measured with ``benchmarks/suite/run.py`` (the workloads
``BENCHMARK.json`` declares). What is left here are the three A/B tiers
that compare configurations no standing workload reaches yet:

- :mod:`repro.perf.protocol` — ``notices`` vs ``notices+batch``;
- :mod:`repro.perf.parallel` — the sharded engine vs worker count;
- :mod:`repro.perf.partial` — replication degree vs full replication.

Each goes once the suite carries the matching arm (ROADMAP item 1a).
``python -m repro perf --protocol | --scale --workers N... | --partial``
is the front door; see ``docs/PERFORMANCE.md``.
"""
