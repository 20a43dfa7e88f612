"""Only the kernel moves the clock.

``Simulator.now`` is a plain slot that every hop reads, not a read-only
property, so nothing but the kernel's own loops may assign it: a write
from a handler would move virtual time under the event heap. This test
reads — never imports — each module under ``src/repro`` and fails on any
store to an attribute named ``now`` outside ``kernelcore/eventcore.py``:
an assignment in any form (plain, augmented, annotated, unpacked, a loop
or ``with`` target) or a ``setattr`` / ``__setattr__`` with the literal
name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the one module allowed to assign ``now``
KERNEL = SRC / "kernelcore" / "eventcore.py"


def _clock_writes(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "now" and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, "assigns .now"))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) in ("setattr", "__setattr__")
            and any(isinstance(arg, ast.Constant) and arg.value == "now" for arg in node.args)
        ):
            found.append((node.lineno, "sets 'now' by name"))
    return [f"{line}: {what}" for line, what in sorted(found)]


#: one module that moves the clock, once each way the scan knows
WRITING_SOURCE = """
def skip_ahead(sim, dt):
    sim.now = sim.now + dt

def nudge(sim):
    sim.now += 0.001

def rewind(sim):
    sim.now, other = 0.0, 1
    setattr(sim, "now", 0.0)
    object.__setattr__(sim, "now", 0.0)

def read_only(sim):
    return sim.now
"""


def test_the_scan_bites_on_every_form_of_write(tmp_path):
    fixture = tmp_path / "writer.py"
    fixture.write_text(WRITING_SOURCE, encoding="utf-8")
    assert _clock_writes(fixture) == [
        "3: assigns .now",
        "6: assigns .now",
        "9: assigns .now",
        "10: sets 'now' by name",
        "11: sets 'now' by name",
    ]


def test_the_kernel_is_the_one_writer():
    # the scan finds the kernel's own writes, so it reads what it should
    assert _clock_writes(KERNEL)
    writers = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path != KERNEL
        for hits in [_clock_writes(path)]
        if hits
    }
    assert writers == {}
