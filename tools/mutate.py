#!/usr/bin/env python3
"""Mutation runner: how many small faults in one module do its tests catch?

Usage, from the root of a checkout:

    python3 tools/mutate.py src/er_evalkit/jsonl.py tests/test_jsonl.py \\
        tests/test_landing.py tests/test_surrogates.py --seed 1 --sample 15

It lists every mutation site of the module, draws a seeded sample of them,
and for each writes the mutated module into a copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` in a temporary directory, where it
runs the given test files (by default ``tests/test_<module>.py``) with
``pytest -x``. The checkout itself is never written. A mutant whose run
fails or times out is killed; one whose run passes survived, and its diff
is printed: it is either equivalent to the module or a fault no test
catches. The operators:

    compare   a comparison replaced by its negation (< by >=, == by !=,
              in by not in, is by is not)
    boolop    ``and`` replaced by ``or``, and ``or`` by ``and``
    const+1   an int or float literal plus one
    const-1   an int or float literal minus one
    raise     a ``raise`` statement replaced by ``pass``
    return    a ``return`` statement replaced by ``pass``
    drop      an expression statement (a call, a ``yield``) replaced by
              ``pass``; a docstring is left alone

Expressions inside f-strings are left alone. Standard library only, and
outside the tests' collection, so no test run starts it. The last line of
standard output is a JSON summary; the exit code is 2 when the tests fail
on the unmutated module, else 0.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
           ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def mutations(source: str) -> list[tuple[str, ast.AST, str]]:
    """``(operator, node, replacement text)`` for every site, in walk order."""
    tree = ast.parse(source)
    in_fstring = {id(inner) for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr)
                  for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                mutant = copy.deepcopy(node)
                mutant.ops[i] = NEGATED[type(op)]()
                found.append(("compare", node, f"({ast.unparse(mutant)})"))
        elif isinstance(node, ast.BoolOp):
            mutant = copy.deepcopy(node)
            mutant.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            found.append(("boolop", node, f"({ast.unparse(mutant)})"))
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (int, float)):
            found += [(f"const{delta:+d}", node, repr(node.value + delta))
                      for delta in (1, -1)]
        elif isinstance(node, ast.Raise):
            found.append(("raise", node, "pass"))
        elif isinstance(node, ast.Return):
            found.append(("return", node, "pass"))
        elif (isinstance(node, ast.Expr)
              and not isinstance(node.value, ast.Constant)):
            found.append(("drop", node, "pass"))
    return found


def splice(source: str, node: ast.AST, text: str) -> str:
    """``source`` with ``node``'s span replaced by ``text``. AST column
    offsets count UTF-8 bytes, so the splice is made on the encoded text."""
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return (data[:begin] + text.encode("utf-8") + data[end:]).decode("utf-8")


def run_tests(root: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """Whether ``pytest -x`` passes on ``tests`` in ``root``, and its time.
    A run past ``timeout`` seconds counts as failed."""
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=root, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start
    return proc.returncode == 0, time.monotonic() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="path of the module, under src/")
    parser.add_argument("tests", nargs="*",
                        help="test files to run (default tests/test_<module>.py)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=int, default=15,
                        help="mutants to run, drawn from all sites")
    args = parser.parse_args()
    checkout = Path.cwd()
    module = Path(args.module)
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    source = module.read_text(encoding="utf-8")
    found = mutations(source)
    chosen = sorted(random.Random(args.seed).sample(
        range(len(found)), min(args.sample, len(found))))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(checkout / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        # The CLI's tests read README.md's defaults table.
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(checkout / name, root)
        target = root / module
        passed, baseline_s = run_tests(root, tests, timeout=3600)
        if not passed:
            print("error: the tests fail on the unmutated module",
                  file=sys.stderr)
            return 2
        print(f"baseline: {baseline_s:.1f} s, {len(found)} sites, "
              f"running {len(chosen)}")
        survivors = []
        killed = skipped = 0
        for index in chosen:
            operator, node, text = found[index]
            mutated = splice(source, node, text)
            try:
                compile(mutated, str(module), "exec")
            except SyntaxError:
                print(f"skipped  {module}:{node.lineno} {operator} "
                      "(does not compile)")
                skipped += 1
                continue
            target.write_text(mutated, encoding="utf-8")
            passed, took = run_tests(root, tests, timeout=10 * baseline_s + 60)
            target.write_text(source, encoding="utf-8")
            old = source.splitlines()[node.lineno - 1].strip()
            new = mutated.splitlines()[node.lineno - 1].strip()
            print(f"{'SURVIVED' if passed else 'killed  '} "
                  f"{module}:{node.lineno} {operator} ({took:.1f} s)")
            if passed:
                survivors.append({"line": node.lineno, "operator": operator,
                                  "old": old, "new": new})
                print(f"    - {old}\n    + {new}")
            else:
                killed += 1
    print(json.dumps({"module": str(module), "tests": tests,
                      "seed": args.seed, "sites": len(found),
                      "sample": len(chosen), "skipped": skipped, "killed": killed,
                      "survived": len(survivors), "survivors": survivors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
