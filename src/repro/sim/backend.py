"""Owed to a future benchmark-only PR: ``benchmarks/suite/measure.py``
imports ``active_kernel`` from here to label its rows, and a PR that
touches ``src/`` may not edit the benchmark. There is one kernel."""


def active_kernel() -> str:
    return "pure"
