"""``--crosscheck``: do the shims and cProfile agree on where time goes?

cProfile charges every function its own time by *module*; the shims
charge a layer everything its entry points do that no nested shim
claims. To compare them, the profile's time in modules the shims do not
cover (``repro.storage.version``, ``repro.core.deptable``, built-ins,
the standard library, ...) is pushed up to its callers, weighted by the
cumulative time each caller spent in the callee — the same place the
shims leave it. What remains is bucketed by the modules of
``shims.LAYER_POINTS`` and compared share by share; layers more than
ten percentage points apart are listed.

cProfile's per-call cost inflates call-heavy Python code relative to
time spent in C, so agreement to a few points is the expectation, not
equality.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Dict, List, Tuple

import measure
from shims import EVENT, LAYER_POINTS
from workloads import Workload

__all__ = ["profile_pass", "report"]

DISAGREEMENT_POINTS = 10.0
_HARNESS = "(harness)"


def _module_of(filename: str) -> str:
    if "/repro/" in filename:
        tail = filename.rsplit("/repro/", 1)[1]
        return "repro." + tail[: -len(".py")].replace("/", ".")
    if "/benchmarks/suite/" in filename:
        return _HARNESS
    return "(builtins+stdlib)"


def profile_pass(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced pass under cProfile; own-time seconds per covered module."""
    profiler = cProfile.Profile()
    profiler.enable()
    measure.run_pass(workload, seed, seconds)
    profiler.disable()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]

    covered = {module for _, module, _, _ in LAYER_POINTS} | {_HARNESS}
    amount = {func: row[2] for func, row in stats.items()}
    for _ in range(32):
        moved = False
        for func, (_, _, _, _, callers) in stats.items():
            if amount[func] <= 0.0 or _module_of(func[0]) in covered:
                continue
            weight = sum(row[3] for row in callers.values())
            if not callers or weight <= 0.0:
                continue
            for caller, row in callers.items():
                amount[caller] += amount[func] * row[3] / weight
            amount[func] = 0.0
            moved = True
        if not moved:
            break

    by_module: Dict[str, float] = {}
    for func, seconds_own in amount.items():
        module = _module_of(func[0])
        by_module[module] = by_module.get(module, 0.0) + seconds_own
    by_module.pop(_HARNESS, None)
    return {"by_module": by_module}


def report(workload: str, profile: Dict[str, Any], traced: Dict[str, Any]) -> str:
    """The comparison table as text."""
    groups: Dict[Tuple[str, ...], List[str]] = {}
    module_layers: Dict[str, List[str]] = {}
    for layer, module, _, _ in LAYER_POINTS:
        layers = module_layers.setdefault(module, [])
        if layer not in layers:
            layers.append(layer)
    for module, layers in module_layers.items():
        groups.setdefault(tuple(layers), []).append(module)

    by_module = profile["by_module"]
    profile_total = sum(by_module.values())
    layer_self = {name: self_s for name, (self_s, _) in traced["layers"].items()}
    shim_total = sum(layer_self.values())

    lines = [
        f"== crosscheck {workload}: share of pass time, shims vs cProfile ==",
        f"{'layer(s)':<42} {'shim %':>8} {'cProfile %':>11} {'delta pp':>9}",
    ]
    flagged = []
    seen_modules = set()
    for layers, modules in groups.items():
        shim_share = 100.0 * sum(layer_self.get(l, 0.0) for l in layers) / shim_total
        prof_share = 100.0 * sum(by_module.get(m, 0.0) for m in modules) / profile_total
        seen_modules.update(modules)
        delta = shim_share - prof_share
        label = "+".join(layers)
        lines.append(f"{label:<42} {shim_share:>8.1f} {prof_share:>11.1f} {delta:>+9.1f}")
        if abs(delta) > DISAGREEMENT_POINTS:
            flagged.append(label)
    other = 100.0 * sum(v for m, v in by_module.items() if m not in seen_modules) / profile_total
    unattributed = 100.0 * layer_self.get(EVENT, 0.0) / shim_total
    lines.append(f"{'(outside every shimmed module / shim)':<42} {unattributed:>8.1f} {other:>11.1f} {unattributed - other:>+9.1f}")
    lines.append(
        "layers disagreeing by more than "
        f"{DISAGREEMENT_POINTS:.0f} points: {', '.join(flagged) if flagged else 'none'}"
    )
    return "\n".join(lines)
