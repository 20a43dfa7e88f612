"""Shared helpers for the E1-E12 benchmark suite."""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def run_once(fn: Callable[[], T]) -> T:
    """Run an experiment exactly once; its shape is what the bench asserts."""
    return fn()
