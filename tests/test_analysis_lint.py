"""Tests for the determinism linter: one positive and one negative
fixture per rule, pragma suppression, path scoping, and the acceptance
fixtures from the analysis-suite issue (the pre-fix eventual.py hash
seed, an injected wall-clock call in core/node.py, and a clean shipped
tree)."""

from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.lint import (
    ALL_RULES,
    LintConfig,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.typing_gate import check_annotations

SIM_PATH = "src/repro/sim/fixture.py"  # path inside an event-ordering dir
STORAGE_PATH = "src/repro/storage/fixture.py"  # event-ordering AND slots dir


def rules_of(violations):
    return [v.rule for v in violations]


class TestWallClock:
    def test_time_time_flagged(self):
        src = "import time\n\ndef tick() -> float:\n    return time.time()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-wall-clock"]

    def test_aliased_import_flagged(self):
        src = "import time as t\n\ndef tick() -> float:\n    return t.monotonic()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-wall-clock"]

    def test_from_import_flagged(self):
        src = "from time import perf_counter\n\nx = perf_counter()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-wall-clock"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\n\nstamp = datetime.now()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-wall-clock"]

    def test_virtual_time_clean(self):
        src = "def tick(sim) -> float:  # repro: lint-ok(typing)\n    return sim.now\n"
        assert lint_source(src, SIM_PATH) == []

    def test_perf_harness_files_exempt(self):
        src = "import time\n\nstart = time.perf_counter()\n"
        assert lint_source(src, "src/repro/perf/protocol.py") == []
        # ...but only the whitelisted files are.
        assert rules_of(lint_source(src, "src/repro/perf/other.py")) == [
            "no-wall-clock"
        ]


class TestGlobalRandom:
    def test_module_level_random_flagged(self):
        src = "import random\n\nx = random.random()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-global-random"]

    def test_global_shuffle_flagged(self):
        src = "from random import shuffle\n\nshuffle([1, 2])\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-global-random"]

    def test_instance_method_clean(self):
        src = (
            "import random\n\n"
            "def draw(rng: random.Random) -> float:\n"
            "    return rng.random()\n"
        )
        assert lint_source(src, SIM_PATH) == []


class TestUnseededRng:
    def test_bare_random_flagged(self):
        src = "import random\n\nrng = random.Random()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-unseeded-rng"]

    def test_none_seed_flagged(self):
        src = "import random\n\nrng = random.Random(None)\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-unseeded-rng"]

    def test_system_random_flagged(self):
        src = "import random\n\nrng = random.SystemRandom()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-unseeded-rng"]

    def test_seeded_random_clean(self):
        src = "import random\n\nrng = random.Random(1234)\n"
        assert lint_source(src, SIM_PATH) == []


class TestBuiltinHashSeed:
    def test_prefix_eventual_pattern_flagged(self):
        # The exact shape this repo shipped before the fix: an acceptance
        # criterion of the analysis-suite issue.
        src = (
            "import random\n\n"
            "class Server:\n"
            "    def __init__(self, config, site, name):"
            "  # repro: lint-ok(typing)\n"
            "        self._ae_rng = random.Random(\n"
            "            hash((config.seed, site, name)) & 0xFFFFFFFF\n"
            "        )\n"
        )
        violations = lint_source(src, "src/repro/baselines/eventual.py")
        assert rules_of(violations) == ["no-builtin-hash-seed"]

    def test_hash_into_derive_seed_flagged(self):
        src = (
            "from repro.sim.rng import derive_seed\n\n"
            "s = derive_seed(hash('a'), 'label')\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-builtin-hash-seed"]

    def test_hash_assigned_to_seedy_name_flagged(self):
        src = "seed = hash(('a', 'b'))\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-builtin-hash-seed"]

    def test_derive_seed_clean(self):
        src = (
            "import random\n"
            "from repro.sim.rng import derive_seed\n\n"
            "rng = random.Random(derive_seed(42, 'anti-entropy:dc0:s1'))\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_hash_outside_seed_context_clean(self):
        # hash() for non-seed purposes (e.g. interning) is not this rule's
        # concern.
        src = "bucket = hash('key') % 16\n"
        assert lint_source(src, SIM_PATH) == []


class TestFrozenMessage:
    def test_unfrozen_dataclass_flagged(self):
        src = (
            "import dataclasses\n"
            "from repro.net.message import Message\n\n"
            "@dataclasses.dataclass\n"
            "class Ping(Message):\n"
            "    n: int = 0\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["frozen-message"]

    def test_missing_decorator_flagged(self):
        src = (
            "from repro.net.message import Message\n\n"
            "class Ping(Message):\n"
            "    pass\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["frozen-message"]

    def test_frozen_false_flagged(self):
        src = (
            "import dataclasses\n"
            "from repro.net.message import Message\n\n"
            "@dataclasses.dataclass(frozen=False)\n"
            "class Ping(Message):\n"
            "    n: int = 0\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["frozen-message"]

    def test_plain_frozen_dataclass_flagged(self):
        src = (
            "import dataclasses\n"
            "from repro.net.message import Message\n\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Ping(Message):\n"
            "    n: int = 0\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["frozen-message"]

    def test_frozen_message_clean(self):
        for deco, module in (("wire_message", "from repro.net.message import Message, wire_message"),
                             ("message.wire_message", "from repro.net import message\nfrom repro.net.message import Message")):
            src = f"{module}\n\n@{deco}\nclass Ping(Message):\n    n: int = 0\n"
            assert lint_source(src, SIM_PATH) == [], deco

    def test_unrelated_class_clean(self):
        src = (
            "import dataclasses\n\n"
            "@dataclasses.dataclass\n"
            "class Config:\n"
            "    n: int = 0\n"
        )
        assert lint_source(src, SIM_PATH) == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        src = "def f(deps=[]):  # repro: lint-ok(typing)\n    return deps\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-mutable-default"]

    def test_dict_call_default_flagged(self):
        src = "def f(deps=dict()):  # repro: lint-ok(typing)\n    return deps\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-mutable-default"]

    def test_none_default_clean(self):
        src = (
            "def f(deps=None):  # repro: lint-ok(typing)\n"
            "    return deps or []\n"
        )
        assert lint_source(src, SIM_PATH) == []


class TestSetIteration:
    def test_iterating_set_literal_flagged(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["set-iteration"]

    def test_iterating_set_valued_name_flagged(self):
        src = (
            "def drain():  # repro: lint-ok(typing)\n"
            "    pending = set()\n"
            "    for x in pending:\n"
            "        print(x)\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["set-iteration"]

    def test_iterating_set_attr_bound_later_flagged(self):
        # The binding appears textually after the loop: the pre-pass must
        # still catch it.
        src = (
            "class A:\n"
            "    __slots__ = ('_timers',)\n\n"
            "    def drain(self) -> None:\n"
            "        for t in self._timers:\n"
            "            t.cancel()\n\n"
            "    def reset(self) -> None:\n"
            "        self._timers = set()\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["set-iteration"]

    def test_sorted_iteration_clean(self):
        # sorted() satisfies set-iteration; the tie-breaking key
        # satisfies sort-tie-identity (SIM_PATH is a delivery-path dir).
        src = (
            "def drain():  # repro: lint-ok(typing)\n"
            "    pending = set()\n"
            "    for x in sorted(pending, key=lambda e: (e.time, e.seq)):\n"
            "        print(x)\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_rule_scoped_to_event_ordering_dirs(self):
        src = (
            "def drain():  # repro: lint-ok(typing)\n"
            "    pending = set()\n"
            "    for x in pending:\n"
            "        print(x)\n"
        )
        # metrics/ is not event-ordering code: aggregation order there
        # cannot reorder sends.
        assert lint_source(src, "src/repro/metrics/fixture.py") == []
        # Paths outside the repro tree (e.g. test fixtures) keep all rules.
        assert rules_of(lint_source(src, "fixture.py")) == ["set-iteration"]


class TestSortTieIdentity:
    NET_PATH = "src/repro/net/fixture.py"

    def test_heappush_without_seq_flagged(self):
        src = (
            "import heapq\n"
            "def enqueue(heap, time, ev):  # repro: lint-ok(typing)\n"
            "    heapq.heappush(heap, (time, ev))\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["sort-tie-identity"]

    def test_heappush_with_seq_tiebreak_clean(self):
        src = (
            "import heapq\n"
            "def enqueue(heap, time, seq, ev):  # repro: lint-ok(typing)\n"
            "    heapq.heappush(heap, (time, seq, ev))\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_aliased_heappush_checked(self):
        # The kernel binds _heappush = heapq.heappush; the alias is still
        # a delivery-order decision.
        src = (
            "import heapq\n"
            "_heappush = heapq.heappush\n"
            "def enqueue(heap, time, ev):  # repro: lint-ok(typing)\n"
            "    _heappush(heap, (time, ev))\n"
        )
        assert rules_of(lint_source(src, SIM_PATH)) == ["sort-tie-identity"]

    def test_sorted_without_key_flagged(self):
        src = "def order(msgs):  # repro: lint-ok(typing)\n    return sorted(msgs)\n"
        assert rules_of(lint_source(src, self.NET_PATH)) == ["sort-tie-identity"]

    def test_sorted_with_tie_prone_key_flagged(self):
        src = (
            "def order(msgs):  # repro: lint-ok(typing)\n"
            "    return sorted(msgs, key=lambda m: m.time)\n"
        )
        assert rules_of(lint_source(src, self.NET_PATH)) == ["sort-tie-identity"]

    def test_sorted_with_seq_lambda_clean(self):
        src = (
            "def order(msgs):  # repro: lint-ok(typing)\n"
            "    return sorted(msgs, key=lambda m: (m.time, m.seq))\n"
        )
        assert lint_source(src, self.NET_PATH) == []

    def test_sorted_with_designated_sort_key_clean(self):
        src = (
            "from repro.net.boundary import Envelope\n"
            "def order(envs):  # repro: lint-ok(typing)\n"
            "    return sorted(envs, key=Envelope.sort_key)\n"
        )
        assert lint_source(src, self.NET_PATH) == []

    def test_pragma_suppresses(self):
        src = (
            "def order(names):  # repro: lint-ok(typing)\n"
            "    return sorted(names)  # repro: lint-ok(sort-tie-identity)\n"
        )
        assert lint_source(src, self.NET_PATH) == []

    def test_rule_scoped_to_delivery_dirs(self):
        # core/ sorts are event-ordering but not delivery-order decisions;
        # the (time, seq) discipline is a sim/net contract.
        src = "def order(msgs):  # repro: lint-ok(typing)\n    return sorted(msgs)\n"
        assert lint_source(src, "src/repro/core/fixture.py") == []
        assert lint_source(src, "src/repro/metrics/fixture.py") == []


class TestSlots:
    SRC = (
        "class Hot:\n"
        "    def __init__(self, key):\n"
        "        self.key = key\n"
        "        self.count = 0\n"
    )

    def test_instance_attrs_without_slots_flagged(self):
        violations = lint_source(self.SRC, STORAGE_PATH)
        assert rules_of(violations) == ["slots"]
        # Anchored to the class statement so a class-line pragma works.
        assert violations[0].line == 1
        assert "Hot" in violations[0].message

    def test_slotted_class_clean(self):
        src = (
            "class Hot:\n"
            "    __slots__ = ('key', 'count')\n\n"
            "    def __init__(self, key):\n"
            "        self.key = key\n"
            "        self.count = 0\n"
        )
        assert lint_source(src, STORAGE_PATH) == []

    def test_annotated_slots_declaration_counts(self):
        src = (
            "class Hot:\n"
            "    __slots__: tuple = ('key',)\n\n"
            "    def __init__(self, key):\n"
            "        self.key = key\n"
        )
        assert lint_source(src, STORAGE_PATH) == []

    def test_augmented_assignment_counts_as_instance_attr(self):
        src = (
            "class Hot:\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert rules_of(lint_source(src, STORAGE_PATH)) == ["slots"]

    def test_class_without_instance_attrs_clean(self):
        src = (
            "class Stateless:\n"
            "    def compute(self, x):\n"
            "        return x + 1\n"
        )
        assert lint_source(src, STORAGE_PATH) == []

    def test_dataclass_exempt(self):
        src = (
            "import dataclasses\n\n"
            "@dataclasses.dataclass\n"
            "class Record:\n"
            "    key: str = ''\n\n"
            "    def clear(self):\n"
            "        self.key = ''\n"
        )
        assert lint_source(src, STORAGE_PATH) == []

    def test_rule_scoped_to_hot_path_dirs(self):
        # metrics/ classes are built a handful of times per run; their
        # __dict__ cost is irrelevant.
        assert lint_source(self.SRC, "src/repro/metrics/fixture.py") == []
        # Top-level repro modules (cli, errors, api) are out of scope too.
        assert lint_source(self.SRC, "src/repro/errors.py") == []

    def test_class_line_pragma_suppresses(self):
        src = (
            "class Hot:  # repro: lint-ok(slots) — monkeypatched per instance\n"
            "    def __init__(self, key):\n"
            "        self.key = key\n"
        )
        assert lint_source(src, STORAGE_PATH) == []


class TestModuleState:
    NET_PATH = "src/repro/net/fixture.py"

    def test_module_level_dict_flagged(self):
        src = "CACHE = {}\n"
        assert rules_of(lint_source(src, self.NET_PATH)) == ["module-mutable-state"]

    def test_module_level_list_and_constructor_flagged(self):
        src = "registry = list()\npending = []\n"
        assert rules_of(lint_source(src, self.NET_PATH)) == [
            "module-mutable-state",
            "module-mutable-state",
        ]

    def test_collections_constructors_flagged(self):
        src = (
            "import collections\n"
            "queue = collections.deque()\n"
            "counts = collections.defaultdict(int)\n"
        )
        assert rules_of(lint_source(src, self.NET_PATH)) == [
            "module-mutable-state",
            "module-mutable-state",
        ]

    def test_immutable_module_constants_clean(self):
        src = "LIMITS = (1, 2, 3)\nNAME = 'x'\nEPS = 1e-9\n"
        assert lint_source(src, self.NET_PATH) == []

    def test_function_and_class_scope_clean(self):
        src = (
            "def build():  # repro: lint-ok(typing)\n"
            "    cache = {}\n"
            "    return cache\n\n"
            "class Table:  # repro: lint-ok(slots)\n"
            "    defaults = {'a': 1}\n"
        )
        assert lint_source(src, self.NET_PATH) == []

    def test_dunder_names_exempt(self):
        src = "__all__ = ['a', 'b']\n"
        assert lint_source(src, self.NET_PATH) == []

    def test_try_except_block_is_module_scope(self):
        src = (
            "try:\n"
            "    import fast\n"
            "    POOL = {}\n"
            "except ImportError:\n"
            "    POOL = dict()\n"
        )
        assert rules_of(lint_source(src, self.NET_PATH)) == [
            "module-mutable-state",
            "module-mutable-state",
        ]

    def test_pragma_suppresses(self):
        src = "_POOL = {}  # repro: lint-ok(module-mutable-state) — per-process intern pool\n"
        assert lint_source(src, self.NET_PATH) == []

    def test_rule_scoped_to_worker_imported_dirs(self):
        src = "CACHE = {}\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["module-mutable-state"]
        assert rules_of(lint_source(src, STORAGE_PATH)) == ["module-mutable-state"]
        # metrics/ and top-level modules run in the coordinator only.
        assert lint_source(src, "src/repro/metrics/fixture.py") == []
        assert lint_source(src, "src/repro/errors.py") == []


class TestPragmas:
    def test_line_pragma_suppresses_one_rule(self):
        src = "import time\n\nx = time.time()  # repro: lint-ok(no-wall-clock)\n"
        assert lint_source(src, SIM_PATH) == []

    def test_line_pragma_is_rule_specific(self):
        src = "import time\n\nx = time.time()  # repro: lint-ok(set-iteration)\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-wall-clock"]

    def test_file_pragma_suppresses_whole_file(self):
        src = (
            "# repro: lint-ok-file(no-wall-clock)\n"
            "import time\n\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert lint_source(src, SIM_PATH) == []

    def test_file_pragma_only_in_first_ten_lines(self):
        src = "\n" * 11 + "# repro: lint-ok-file(no-wall-clock)\nimport time\nx = time.time()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["no-wall-clock"]


class TestEntryPoints:
    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", SIM_PATH)
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_lint_file_and_paths(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n")
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert rules_of(lint_file(bad)) == ["no-wall-clock"]
        assert rules_of(lint_paths([tmp_path])) == ["no-wall-clock"]

    def test_config_can_disable_rules(self):
        src = "import time\nx = time.time()\n"
        config = LintConfig(rules=tuple(r for r in ALL_RULES if r != "no-wall-clock"))
        assert lint_source(src, SIM_PATH, config) == []

    def test_violation_format_is_clickable(self):
        violation = lint_source("import time\nx = time.time()\n", SIM_PATH)[0]
        assert violation.format().startswith(f"{SIM_PATH}:2:")
        assert "[no-wall-clock]" in violation.format()


class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        assert run_lint() == []

    def test_injected_wall_clock_in_node_flagged(self):
        # Acceptance criterion: injecting time.time() into core/node.py
        # must trip the linter.
        node_path = Path(__file__).resolve().parents[1] / "src/repro/core/node.py"
        source = node_path.read_text(encoding="utf-8")
        injected = source + (
            "\n\nimport time\n\n"
            "def _leak_wall_clock() -> float:\n"
            "    return time.time()\n"
        )
        violations = lint_source(injected, str(node_path))
        assert "no-wall-clock" in rules_of(violations)

    def test_annotation_gate_is_clean(self):
        assert check_annotations() == []
