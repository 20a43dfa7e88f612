"""Fixtures for the E1-E11 benchmark suite.

Every benchmark runs at ``QUICK`` scale by default so the whole suite
finishes in minutes; set ``REPRO_BENCH_SCALE=full`` for operating
points closer to the paper's. Tables are printed to stdout -- run with
``pytest benchmarks/ -s`` to see them.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import FULL, QUICK


@pytest.fixture(scope="session")
def scale():
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else QUICK
