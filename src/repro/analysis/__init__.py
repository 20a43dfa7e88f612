"""Static and dynamic correctness analysis for the reproduction.

The credibility of every number this repository produces rests on two
properties that ordinary tests cannot fully guard:

- **determinism** — a fixed seed must replay the same execution bit for
  bit (the golden-trace test pins one run, but nothing stops a new code
  path from quietly consulting the wall clock or an unseeded RNG);
- **protocol invariants** — chain replication's prefix property,
  DC-stability monotonicity, and the causal cut served to every client
  session must hold on every run, not just on the runs a reviewer eyeballed.

This package provides four enforcement layers:

1. :mod:`repro.analysis.lint` — a custom AST linter (``python -m repro
   lint``) whose rules ban the constructs that break seed-stability:
   wall-clock reads, module-level ``random`` draws, unseeded RNGs,
   builtin ``hash()`` in seed derivation, mutable default arguments,
   unfrozen protocol messages, iteration over bare ``set``s in
   event-ordering code, and tie-prone sorts on delivery paths.
2. :mod:`repro.analysis.sanitize` — a runtime sanitizer (``python -m
   repro sanitize``) that runs an experiment twice under one seed,
   diffs the message traces, and localizes the first divergent event;
   ``--workers N`` runs the same check through the multi-core sharded
   engine; plus opt-in invariant hooks
   (:mod:`repro.analysis.invariants`).
3. :mod:`repro.analysis.typing_gate` — an annotation-coverage gate for
   the protocol-critical packages, backed by the strict-leaning mypy
   configuration in ``pyproject.toml`` when mypy is installed.
4. :mod:`repro.analysis.explore` — a bounded schedule explorer
   (``python -m repro explore``) that drives the deterministic kernel
   through every message-delivery interleaving and crash placement a
   small scope admits (partial-order reduced), checks the invariant
   monitors and the causal checker at every terminal state, and
   minimizes any violation to a replayable counterexample schedule. A
   proving ground of seeded protocol mutations keeps the explorer
   honest: each mutation must be caught, and the unmutated tree must
   pass clean. The mutations are class patches in one table,
   :mod:`repro.analysis.mutations`, installed around a run and removed
   after it; no production module names them.

See ``docs/ANALYSIS.md`` for the rule reference and pragma syntax.
"""

from repro.analysis.explore import (
    ExploreReport,
    ExploreScope,
    Schedule,
    Violation,
    explore_scope,
    minimize_counterexample,
    replay_schedule,
    save_counterexample,
    scenario,
    scenario_names,
)
from repro.analysis.invariants import (
    ChainInvariantMonitor,
    InvariantReport,
    InvariantViolation,
)
from repro.analysis.lint import (
    LintConfig,
    LintViolation,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.analysis.sanitize import (
    Divergence,
    MessageTap,
    SanitizeReport,
    ShardedSanitizeReport,
    capture_run,
    locate_divergence,
    sanitize_run,
    sanitize_sharded,
)
from repro.analysis.typing_gate import (
    AnnotationViolation,
    check_annotations,
    run_mypy,
)

__all__ = [
    "ChainInvariantMonitor",
    "InvariantReport",
    "InvariantViolation",
    "LintConfig",
    "LintViolation",
    "lint_file",
    "lint_paths",
    "run_lint",
    "Divergence",
    "MessageTap",
    "SanitizeReport",
    "ShardedSanitizeReport",
    "capture_run",
    "locate_divergence",
    "sanitize_run",
    "sanitize_sharded",
    "ExploreReport",
    "ExploreScope",
    "Schedule",
    "Violation",
    "explore_scope",
    "minimize_counterexample",
    "replay_schedule",
    "save_counterexample",
    "scenario",
    "scenario_names",
    "AnnotationViolation",
    "check_annotations",
    "run_mypy",
]
