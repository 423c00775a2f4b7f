"""tools/mutate.py's mutation sites on a source snippet, without running
the tool: which operators find which sites, and that each splice
compiles."""

import ast
import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)

SNIPPET = '''\
def merge(tables, rows):
    """Add each row's counts into tables."""
    for query, hits in rows:
        tables[query].update(hits)
        if hits and query:
            yield f"{query} {1}"
    return len(tables) < 2
'''


def test_each_operator_finds_its_sites():
    """The calls and the ``yield`` are dropped, the docstring is not, and
    nothing inside the f-string is touched."""
    sites = [(operator, node.lineno, text)
             for operator, node, text in mutate.mutations(SNIPPET)]
    assert sorted(sites) == sorted([
        ("drop", 4, "pass"),
        ("boolop", 5, "(hits or query)"),
        ("drop", 6, "pass"),
        ("return", 7, "pass"),
        ("compare", 7, "(len(tables) >= 2)"),
        ("const+1", 7, "3"),
        ("const-1", 7, "1")])


def test_a_dropped_statement_splices_to_pass():
    drops = [node for operator, node, _ in mutate.mutations(SNIPPET)
             if operator == "drop"]
    mutated = mutate.splice(SNIPPET, drops[0], "pass")
    assert mutated.splitlines()[3] == "        pass"
    assert ast.unparse(ast.parse(mutated)) == ast.unparse(ast.parse(
        SNIPPET.replace("tables[query].update(hits)", "pass")))
    for node in drops:
        compile(mutate.splice(SNIPPET, node, "pass"), "snippet", "exec")
