"""One reader of the replication kind: the placement seam holds.

Every deployment config's ``placement()`` returns a catalog —
``FullReplication`` or a ``ShardCatalog`` — and every other module asks
it which sites own a key and what each peer receives, never which kind
it is. This test reads — never imports — each module under
``src/repro`` and fails when one of them tests a placement value for
``None``, the gate full replication used to be.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the catalogs themselves
EXEMPT = {SRC / "cluster" / "placement.py"}

PLACEMENT_NAMES = {"placement", "_placement", "catalog", "_catalog", "owns", "owned"}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _none_tests(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(_is_none(operand) for operand in operands):
            continue
        named = [_name(operand) for operand in operands if _name(operand) in PLACEMENT_NAMES]
        if named:
            found.append((node.lineno, f"{node.lineno}: tests {named[0]} for None"))
    return [hit for _, hit in sorted(found)]


#: a module that gates on the replication kind, once each way the scan knows
GATING_SOURCE = """
def local(node, key):
    return node.placement is None or node.placement.owns(node.site, key)

def peers(proxy):
    return proxy._peers if proxy._catalog is None else []

def partial(config):
    return config.placement() is not None

def holds(owned, key):
    return owned is None or owned(key)

def fine(placement, other):
    return other is None and placement.owns("dc0", "k")
"""


def test_the_scan_bites_on_every_spelling(tmp_path):
    fixture = tmp_path / "gating.py"
    fixture.write_text(GATING_SOURCE, encoding="utf-8")
    assert _none_tests(fixture) == [
        "3: tests placement for None",
        "6: tests _catalog for None",
        "9: tests placement for None",
        "12: tests owned for None",
    ]


def test_no_module_tests_a_placement_for_none():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path not in EXEMPT
        for hits in [_none_tests(path)]
        if hits
    }
    assert not offenders, offenders
