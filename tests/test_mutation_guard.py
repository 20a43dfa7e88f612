"""The proving ground's seeded bugs stay out of the production path.

Every mutation the schedule explorer seeds lives in
:mod:`repro.analysis.mutations` as a class patch, installed for one run
by :func:`~repro.analysis.mutations.mutated`. No protocol module names a
mutation or asks a configuration which mutations are on, and a run that
ends, however it ends, leaves every patched class as it found it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.analysis.mutations import MUTATIONS, mutated
from repro.core.config import ChainReactionConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PRODUCTION_PACKAGES = ("core", "cluster", "storage", "net", "sim", "baselines")


def _modules(*packages):
    for package in packages:
        yield from sorted((SRC / package).rglob("*.py"))


def _mutation_mentions(path):
    """(line, what) for every string constant equal to a mutation name and
    every read of a ``.mutations`` attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in MUTATIONS:
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Attribute) and node.attr == "mutations":
            yield node.lineno, ".mutations"


@pytest.mark.parametrize(
    "path", list(_modules(*PRODUCTION_PACKAGES)), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_production_module_names_a_mutation(path):
    mentions = list(_mutation_mentions(path))
    assert not mentions, f"{path.relative_to(SRC)}: {mentions}"


def test_the_config_has_no_mutations_field():
    names = {field.name for field in dataclasses.fields(ChainReactionConfig)}
    assert "mutations" not in names


def _patched():
    return [(cls, attr) for patches in MUTATIONS.values() for cls, attr, _ in patches]


def test_mutated_installs_every_patch_and_restores_on_exit():
    originals = {(cls, attr): cls.__dict__[attr] for cls, attr in _patched()}
    with mutated(list(MUTATIONS)):
        for (cls, attr), original in originals.items():
            assert cls.__dict__[attr] is not original, f"{cls.__name__}.{attr}"
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"


def test_mutated_restores_when_the_run_raises():
    originals = {(cls, attr): cls.__dict__[attr] for cls, attr in _patched()}
    with pytest.raises(RuntimeError):
        with mutated(list(MUTATIONS)):
            raise RuntimeError("the run failed")
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"
