"""The names ``benchmarks/suite`` binds must exist where it looks.

The standing benchmark attributes host time to layers by replacing
class attributes named in ``LAYER_POINTS`` (docs/PERFORMANCE.md, "the
names the benchmark binds"). ``install`` silently skips a name that is
not a function defined on its class, so renaming or moving a bound
method drops its layer's time to zero without any test failing. This
test reads — never edits — the shim table and fails instead. The same
goes for the suite's plain imports: a PR that touches ``src/`` may not
edit the benchmark, so a name it imports from ``repro`` must stay.
"""

import ast
import fnmatch
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"

_spec = importlib.util.spec_from_file_location("suite_shims", SUITE / "shims.py")
shims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(shims)

#: Names the table still lists although the code they bound is gone. The
#: table lives under ``benchmarks/suite`` and only a benchmark-only PR
#: may edit it (ROADMAP item 1a); until then each entry needs a reason.
#: A retired glob asserts that *nothing* on the class matches it.
RETIRED = {
    # PR 18: the local get / put path is continuation-form (_GetOp /
    # _PutOp in repro.core.client); the generators are deleted.
    ("ChainClientSession", "_get_gen"),
    ("ChainClientSession", "_put_gen"),
    # PR 20: dependency waits and the remote-update pipeline are
    # continuation-form too (DepWait in repro.core.stability, _HeldPut in
    # repro.core.node, _RemoteApply in repro.core.geo); the generators
    # are deleted.
    ("ChainNode", "_wait_dep"),
    ("GeoProxy", "_wait_dep_stable"),
    ("GeoProxy", "_inject_at_head"),
    # PR 24: the sealing sweep and its timer belong to the one plane that
    # seals (BatchedNoticesPlane._gc_tick in repro.core.batching); no
    # suite workload runs that plane, so no layer's time moved.
    ("ChainNode", "_gc_tick"),
    # Forwarded operations, snapshot reads and the proxy's side of
    # forwarding are continuation-form (_ForwardGetOp / _ForwardPutOp /
    # _GetStableOp / _Snapshot in repro.core.client, _ForwardRead /
    # _ForwardPut in repro.core.geo); the generators are deleted, and
    # with them the generator retry step.
    ("ChainClientSession", "_forward_get_gen"),
    ("ChainClientSession", "_forward_put_gen"),
    ("ChainClientSession", "_multi_get_gen"),
    ("ChainClientSession", "_get_stable_one"),
    ("GeoProxy", "_serve_forward_*"),
    ("RetryingSession", "_backoff_and_refresh"),
}

POINTS = [
    (layer, module, cls, pattern)
    for layer, module, cls, patterns in shims.LAYER_POINTS
    for pattern in patterns
]


def _functions(module: str, cls: str):
    defined = vars(getattr(importlib.import_module(module), cls))
    return [name for name, value in defined.items() if inspect.isfunction(value)]


@pytest.mark.parametrize("layer,module,cls,pattern", POINTS)
def test_every_bound_name_is_a_function_defined_on_its_class(layer, module, cls, pattern):
    names = _functions(module, cls)
    if (cls, pattern) in RETIRED:
        back = fnmatch.filter(names, pattern)
        assert not back, f"{cls}.{pattern} is back ({back}): drop it from RETIRED"
    elif any(ch in pattern for ch in "*?["):
        assert fnmatch.filter(names, pattern), f"{layer}: nothing on {cls} matches {pattern!r}"
    else:
        assert pattern in names, f"{layer}: {cls}.{pattern} is not a function defined on {cls}"


def test_retired_names_are_still_listed():
    listed = {(cls, pattern) for _layer, _module, cls, pattern in POINTS}
    assert RETIRED <= listed, "the shim table dropped a retired name: drop it here too"


REPRO_IMPORTS = sorted(
    (path.name, node.module, alias.name)
    for path in SUITE.glob("*.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.")
    for alias in node.names
)


def test_the_import_scan_finds_the_suites_imports():
    assert any(filename == "measure.py" for filename, _module, _name in REPRO_IMPORTS)


@pytest.mark.parametrize("filename,module,name", REPRO_IMPORTS)
def test_every_name_the_suite_imports_from_repro_resolves(filename, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"benchmarks/suite/{filename} does `from {module} import {name}`"
    )
