"""One reader per stabilization plane: the seam holds.

``ChainReactionConfig.stability`` names the plane and
``repro.core.stability_plane.PLANES`` builds it; every other module asks
the plane object it was handed. This test reads — never imports — each
module under ``src/repro`` and fails when one of them decides which plane
is running by itself: a comparison of something called ``stability``
with a string literal, a ``None`` test on a ``_clock`` / ``_…_coalescer``
optional, or any mention of the three spellings this tree deleted.
"""

import ast
import re
from pathlib import Path

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
