"""Per-key linearizability checking (Wing & Gong / Lowe search).

Classic chain replication is linearizable per key; ChainReaction
deliberately is not (it trades that for read throughput under causal+
semantics). This checker makes the distinction testable: given the
history of one key — reads and writes with real-time intervals — it
searches for a legal sequential ordering of a read/write register that
respects real time.

The register's value is an operation's *version*: a put writes the
version the store gave it, and a get observes the version it read. A
put's value is not recorded (the workload driver keeps ``None``) and
need not be unique, while every protocol gives each write a version of
its own. The register starts at the key's initial version — the
preload version for a preloaded key.

The search is the standard one: repeatedly linearize a *minimal*
operation (one whose invocation precedes every unlinearized operation's
response), writes unconditionally, reads only when they observe the
current register version; memoisation on (linearized-set, register
version) keeps it tractable. Write versions must be distinct for the
memoisation to be sound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.checker.history import PUT, History, Operation
from repro.errors import CheckerError
from repro.storage.version import VersionVector

__all__ = ["check_linearizable_key", "check_linearizability"]


def check_linearizable_key(
    ops: List[Operation],
    initial_value: Optional[VersionVector] = None,
    max_states: int = 2_000_000,
) -> bool:
    """True iff the single-key history ``ops`` is linearizable, starting
    from the version ``initial_value`` (None: the empty version, a key
    never written)."""
    keys = {op.key for op in ops}
    if len(keys) > 1:
        raise CheckerError(f"history spans several keys: {sorted(keys)}")
    versions = [op.version for op in ops if op.op == PUT]
    if len(versions) != len(set(versions)):
        raise CheckerError("write versions must be distinct for linearizability checking")
    n = len(ops)
    if n == 0:
        return True

    returns = [op.t_return for op in ops]
    invokes = [op.t_invoke for op in ops]

    seen: Set[Tuple[FrozenSet[int], VersionVector]] = set()
    # Each stack frame is (linearized frozenset, register version).
    start = VersionVector() if initial_value is None else initial_value
    stack: List[Tuple[FrozenSet[int], VersionVector]] = [(frozenset(), start)]
    explored = 0
    while stack:
        linearized, version = stack.pop()
        if len(linearized) == n:
            return True
        explored += 1
        if explored > max_states:
            raise CheckerError(
                f"linearizability search exceeded {max_states} states; "
                "split the history into smaller windows"
            )
        pending = [i for i in range(n) if i not in linearized]
        horizon = min(returns[i] for i in pending)
        for i in pending:
            if invokes[i] > horizon:
                continue  # not minimal: someone returned before it started
            op = ops[i]
            if op.op == PUT:
                next_state = (linearized | {i}, op.version)
            elif op.version == version:
                next_state = (linearized | {i}, version)
            else:
                continue
            if next_state not in seen:
                seen.add(next_state)
                stack.append(next_state)
    return False


def check_linearizability(
    history: History, initial_values: Optional[Dict[str, Optional[VersionVector]]] = None
) -> List[str]:
    """Check every key independently; returns the non-linearizable keys.
    ``initial_values`` gives a key's version before the history (a
    preloaded key's is the preload version); a key it omits starts empty.

    Per-key checking is sound for register semantics because keys are
    independent objects (linearizability is local/composable).
    """
    initial_values = initial_values or {}
    failures = []
    by_key: Dict[str, List[Operation]] = {}
    for op in history:
        by_key.setdefault(op.key, []).append(op)
    for key, ops in sorted(by_key.items()):
        ops.sort(key=lambda o: o.t_invoke)
        if not check_linearizable_key(ops, initial_values.get(key)):
            failures.append(key)
    return failures
