"""Every top-level function and class in src/er_evalkit/ is reached by
something other than the tests that check it: another definition in the
package, the benchmark harness, or the acceptance gate (C1-C9). A
definition only its own tests call is dead code with a test attached."""

import ast
from pathlib import Path

from peak import SRC

PACKAGE = SRC / "er_evalkit"
GATE = Path(__file__).with_name("test_acceptance.py")
# Readers other than src/ itself, each counted whole.
READERS = [*(SRC.parent / "perfbench").glob("*.py"), GATE]
# module.name -> why it stays although nothing above reaches it.
ALLOWED: dict[str, str] = {}
# module.name -> why it stays although only the benchmark reaches it.
BENCHMARK_ONLY = dict.fromkeys([
    "clickstream.parse_events", "clickstream.filter_records",
    "diagnose.write_diagnoses", "importance.score_catalog",
    "importance.load_scored", "jsonl.load_jsonl", "metrics.load_run",
    "simulate.levenshtein",
], "read only by perfbench/traced.py; ROADMAP item 2 deletes it")


def names_in(node):
    """Each name ``node`` refers to: as a name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def unreached(readers=READERS):
    """``module.name`` of each top-level def or class no reader names.

    A package module's statements each count as a reader, except the
    definition's own (so recursion reaches nothing) and ``__init__.py``'s
    re-exports."""
    defined, reached = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None) if isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.stem, own))
            reached.update(name for name in names_in(node) if name != own)
    for path in readers:
        reached.update(names_in(ast.parse(path.read_text(encoding="utf-8"))))
    return [f"{module}.{name}" for module, name in defined
            if name not in reached]


def test_every_definition_has_a_reader_beyond_its_tests():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_each_allowed_name_is_still_unreached():
    """An allowance that a reader now reaches is stale and must go."""
    assert sorted(set(ALLOWED) - set(unreached())) == []


def test_benchmark_only_definitions_are_pinned():
    """Without the benchmark as a reader, exactly BENCHMARK_ONLY is
    unreached: a new definition only the benchmark reads fails here."""
    assert sorted(unreached([GATE])) == sorted(BENCHMARK_ONLY)
