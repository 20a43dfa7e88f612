"""One reader per stabilization plane: the seam holds.

``ChainReactionConfig.stability`` names the plane and
``repro.core.stability_plane.PLANES`` builds it; every other module asks
the plane object it was handed. This test reads — never imports — each
module under ``src/repro`` and fails when one of them decides which plane
is running by itself: a comparison of something called ``stability``
with a string literal, a ``None`` test on a ``_clock`` / ``_…_coalescer``
optional, or any mention of the three spellings this tree deleted.

The notices planes' per-node state lives in their server half as well:
the chain node and the deployment facade name none of it, and a
clock-plane deployment builds no stability tracker at all.
"""

import ast
import re
from pathlib import Path

from repro.baselines.registry import build_store
from repro.core.node import ChainNode
from repro.core.stability import StabilityTracker

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the factory table
READERS = {SRC / "core" / "stability_plane.py"}

DELETED_SPELLINGS = re.compile(r"protocol_batching|metadata_gc|BATCHED_OVERRIDES")


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _has_string(node):
    return any(isinstance(n, ast.Constant) and isinstance(n.value, str) for n in ast.walk(node))


def _plane_decisions(path):
    source = path.read_text(encoding="utf-8")
    found = [f"{n}: mentions {m.group()}" for n, line in enumerate(source.splitlines(), 1)
             for m in [DELETED_SPELLINGS.search(line)] if m]
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = [_name(operand) for operand in operands]
        if "stability" in names and any(_has_string(operand) for operand in operands):
            found.append(f"{node.lineno}: compares stability with a string literal")
        if any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
            name == "_clock" or name.endswith("_coalescer") for name in names
        ):
            found.append(f"{node.lineno}: tests an optional plane part ({names[0]}) for None")
    return found


#: a module that decides the plane by itself, once each way the scan knows
DECIDING_SOURCE = """
def prunes(config):
    return config.stability == "notices+batch"

def batched(plane):
    return plane._coalescer is not None

BATCHED = "protocol_batching"
"""


def test_the_scan_bites_where_a_comparison_is_allowed(tmp_path):
    fixture = tmp_path / "deciding.py"
    fixture.write_text(DECIDING_SOURCE, encoding="utf-8")
    hits = _plane_decisions(fixture)
    assert [hit.split(": ", 1)[1] for hit in sorted(hits)] == [
        "compares stability with a string literal",
        "tests an optional plane part (_coalescer) for None",
        "mentions protocol_batching",
    ], hits


def test_no_other_module_decides_which_plane_is_running():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path not in READERS
        for hits in [_plane_decisions(path)]
        if hits
    }
    assert not offenders, offenders


#: the notices planes' own messages and tracker
NOTICES_NAMES = ("ChainStable", "GlobalStableNotice", "StabilityTracker")


def test_the_node_and_the_facade_import_no_notices_plane_names():
    for module in ("node.py", "datastore.py"):
        tree = ast.parse((SRC / "core" / module).read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not imported.intersection(NOTICES_NAMES), (module, imported & set(NOTICES_NAMES))


def test_the_chain_node_defines_no_notices_plane_step():
    defined = set(vars(ChainNode))
    for name in ("seal", "mark_converged", "on_chain_stable", "on_global_stable_notice"):
        assert name not in defined, name


def _held_values(obj):
    values = list(vars(obj).values()) if hasattr(obj, "__dict__") else []
    for cls in type(obj).__mro__:
        for slot in cls.__dict__.get("__slots__", ()):
            if hasattr(obj, slot):
                values.append(getattr(obj, slot))
    return values


def test_a_clock_plane_store_holds_no_stability_tracker():
    store = build_store("chainreaction", sites=("dc0", "dc1"), servers_per_site=3,
                        chain_length=3, seed=3, overrides={"stability": "clock"})
    store.preload({f"user{i}": "v" for i in range(20)})
    session = store.session("dc0", "writer")
    session.put("user1", "w")
    store.run(until=store.sim.now + 0.5)
    hosts = [*store.servers(), *store.proxies.values()]
    for host in [*hosts, *(host.plane for host in hosts)]:
        held = [value for value in _held_values(host) if isinstance(value, StabilityTracker)]
        assert not held, host


def test_a_notices_plane_store_keeps_its_trackers_in_the_plane():
    # the scan above finds a tracker where one is held
    store = build_store("chainreaction", sites=("dc0",), servers_per_site=3,
                        chain_length=3, seed=3)
    node = store.servers()[0]
    assert not any(isinstance(v, StabilityTracker) for v in _held_values(node))
    assert sum(isinstance(v, StabilityTracker) for v in _held_values(node.plane)) == 2
