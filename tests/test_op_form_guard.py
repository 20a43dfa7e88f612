"""One operation form on the protocol path.

Every operation a server, proxy or client session runs is a continuation
on ``Actor.request`` (``RetryingOp`` for a client's retry loop). A
generator ``Process`` per operation — and the generator retry kit that
served it — must not come back under ``core/``, ``cluster/`` or
``baselines/``: ``spawn`` belongs to the workload drivers and the
schedule explorer.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PROTOCOL_PACKAGES = ("core", "cluster", "baselines")
#: the generator retry kit; defined nowhere in the package
RETIRED_HELPERS = {"_op_attempts", "_backoff_and_refresh"}
#: what a generator operation needs from repro.sim
GENERATOR_NAMES = {"spawn", "Process"}


def _modules(*packages):
    for package in packages:
        yield from sorted((SRC / package).rglob("*.py"))


def _generator_uses(path):
    """(line, what) for every import of, or call to, ``spawn`` / ``Process``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in GENERATOR_NAMES:
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in GENERATOR_NAMES:
                yield node.lineno, f"{name}(...)"


@pytest.mark.parametrize(
    "path", list(_modules(*PROTOCOL_PACKAGES)), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_generator_operation_on_the_protocol_path(path):
    uses = list(_generator_uses(path))
    assert not uses, f"{path.relative_to(SRC)}: {uses}"


def test_the_generator_retry_kit_is_defined_nowhere():
    found = [
        (str(path.relative_to(SRC)), node.name)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in RETIRED_HELPERS
    ]
    assert not found


def test_the_scan_sees_a_generator_operation(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.sim.process import Future, spawn\n"
        "def get(self, key):\n"
        "    return spawn(self.sim, self._get_gen(key))\n",
        encoding="utf-8",
    )
    assert [what for _line, what in _generator_uses(planted)] == [
        "from repro.sim.process import spawn",
        "spawn(...)",
    ]
