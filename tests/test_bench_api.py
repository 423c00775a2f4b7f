"""The package API that perfbench/traced.py calls, and the CLI calls that
perfbench/run.py makes, each read from its source.

traced.py calls the package's functions in process, with no CLI between,
and the test suite never runs it. So this test parses it and checks that
every package attribute it reads exists and that every call it makes into
the package fits the callee's signature. Types follow the package's own
annotations: a name bound to a call's result has the callee's return
type, a tuple of names splits a tuple type, and a loop variable over a
list or iterator of T has type T. ``t.call(label, fn, *args, **kwargs)``
is the tracer's call of ``fn(*args, **kwargs)``. run.py starts each
stage as ``cli(stage, *args)``, so each such call must be an argv the
package's parser accepts. The files are only read.
"""

import ast
import contextlib
import importlib
import inspect
import io
import typing
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

from er_evalkit.cli import build_parser

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
PACKAGE = "er_evalkit"


class Instance(NamedTuple):
    """A value known only by its annotated type."""

    type: object


class Bound(NamedTuple):
    """A method read off an instance: its function, less ``self``."""

    func: object


def in_package(obj) -> bool:
    name = (obj.__name__ if inspect.ismodule(obj)
            else getattr(obj, "__module__", None))
    return isinstance(name, str) and name.split(".")[0] == PACKAGE


def origin(hint):
    return typing.get_origin(hint) or hint


def element(value):
    """The type of one item of a list, tuple, set or iterator value."""
    if isinstance(value, Instance) and origin(value.type) in (
            list, tuple, set, Iterator, Iterable):
        args = typing.get_args(value.type)
        return Instance(args[0]) if args else None
    return None


class Reader(ast.NodeVisitor):
    """Walks a module in order, binding names to what they hold, and
    collects every missing attribute and every call that cannot bind."""

    def __init__(self, env: dict):
        self.env = env
        self.problems: list[str] = []
        self.checked: set[str] = set()

    def problem(self, node, text: str) -> None:
        self.problems.append(f"line {node.lineno}: {text}")

    # Statements.

    def generic_visit(self, node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.resolve(child)
            else:
                self.visit(child)

    def visit_Assign(self, node):
        value = self.resolve(node.value)
        for target in node.targets:
            self.bind(target, value)

    def visit_For(self, node):
        self.bind(node.target, element(self.resolve(node.iter)))
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_FunctionDef(self, node):
        saved = dict(self.env)
        for arg in ast.walk(node.args):
            if isinstance(arg, ast.arg):
                self.env.pop(arg.arg, None)
        self.generic_visit(node)
        self.env = saved

    def bind(self, target, value) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts = (typing.get_args(value.type)
                     if isinstance(value, Instance)
                     and origin(value.type) is tuple else ())
            if len(parts) != len(target.elts) or Ellipsis in parts:
                parts = [None] * len(target.elts)
            for elt, part in zip(target.elts, parts):
                self.bind(elt, part and Instance(part))
        else:
            self.resolve(target)

    # Expressions.

    def resolve(self, node):
        """What ``node`` holds, or None where that is not known."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.attribute(node, self.resolve(node.value), node.attr)
        if isinstance(node, ast.Call):
            return self.call(node)
        saved = dict(self.env)
        if isinstance(node, ast.Lambda):
            for arg in node.args.args:
                self.env.pop(arg.arg, None)
        for gen in getattr(node, "generators", ()):
            self.bind(gen.target, element(self.resolve(gen.iter)))
            for cond in gen.ifs:
                self.resolve(cond)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.resolve(child)
        self.env = saved
        return None

    def attribute(self, node, base, attr: str):
        if isinstance(base, Instance):
            cls = origin(base.type)
            if not (inspect.isclass(cls) and in_package(cls)):
                return None
            hints = typing.get_type_hints(cls)
            self.checked.add(f"{cls.__name__}.{attr}")
            if attr in hints:
                return Instance(hints[attr])
            if not hasattr(cls, attr):
                self.problem(node, f"{cls.__name__} has no attribute {attr!r}")
                return None
            member = inspect.getattr_static(cls, attr)
            if isinstance(member, property):
                return Instance(typing.get_type_hints(member.fget)["return"])
            return Bound(member) if inspect.isfunction(member) else None
        if base is None or not in_package(base):
            return None
        self.checked.add(f"{base.__name__.rpartition('.')[2]}.{attr}")
        if not hasattr(base, attr):
            self.problem(node, f"{base.__name__} has no attribute {attr!r}")
            return None
        return getattr(base, attr)

    def call(self, node):
        func, args = node.func, node.args
        if (isinstance(func, ast.Attribute) and func.attr == "call"
                and isinstance(func.value, ast.Name) and func.value.id == "t"):
            func, args = args[1], args[2:]
            self.resolve(node.args[0])
        callee = self.resolve(func)
        for arg in args:
            self.resolve(arg)
        for keyword in node.keywords:
            self.resolve(keyword.value)
        if isinstance(callee, Bound):
            signature = inspect.signature(callee.func)
            signature = signature.replace(
                parameters=list(signature.parameters.values())[1:])
            callee = callee.func
        elif callee is not None and callable(callee) and in_package(callee):
            signature = inspect.signature(callee)
        else:
            return None
        name = getattr(callee, "__qualname__", repr(callee))
        self.checked.add(f"{name}()")
        if not any(isinstance(arg, ast.Starred) for arg in args) and all(
                keyword.arg for keyword in node.keywords):
            try:
                signature.bind(*args, **{keyword.arg: None
                                         for keyword in node.keywords})
            except TypeError as exc:
                self.problem(node, f"{name}{signature}: {exc}")
        if inspect.isclass(callee):
            return Instance(callee)
        return Instance(typing.get_type_hints(callee).get("return"))


def package_imports(tree: ast.Module) -> dict:
    """The names a module's ``from er_evalkit... import`` lines bind."""
    env = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == PACKAGE:
            module = importlib.import_module(node.module)
            for alias in node.names:
                env[alias.asname or alias.name] = getattr(
                    module, alias.name, None) or importlib.import_module(
                    f"{node.module}.{alias.name}")
    return env


def read(source: str) -> Reader:
    tree = ast.parse(source)
    reader = Reader(package_imports(tree))
    reader.visit(tree)
    return reader


def test_traced_pass_fits_the_package():
    reader = read(TRACED.read_text(encoding="utf-8"))
    assert reader.problems == []
    # The walk reached the calls that a src change is most likely to break.
    assert {"metrics.load_run", "importance.load_scored",
            "aggregate_in_shards()", "RunResult.ranked",
            "MetricsReport.save", "DeltaReport.save", "DeltaReport.to_dict",
            "DiagnosisSummary.to_dict", "compare_reports()",
            "SplitMix64.gauss"} <= reader.checked


def test_reader_finds_what_is_missing():
    reader = read(
        "from er_evalkit import clickstream, metrics\n"
        "def f(t, path, events):\n"
        "    run = t.call('load', metrics.load_run, path)\n"
        "    t.add('n', sum(len(r.unranked) for r in run))\n"
        "    t.call('agg', clickstream.aggregate_in_shards, events, 1, workers=1)\n"
        "    report = metrics.evaluate_run({}, run, k=5)\n"
        "    report.save_all(path)\n"
        "    metrics.no_such_name(path)\n")
    assert [line.split(":")[0] for line in reader.problems] == [
        "line 4", "line 5", "line 7", "line 8"]
    assert "'unranked'" in reader.problems[0]
    assert "workers" in reader.problems[1]


RUN = TRACED.with_name("run.py")
PLACEHOLDER = "1"  # parses as an int, a float and a path


def cli_call_problems(source: str) -> tuple[list[str], set[str]]:
    """Each ``cli(stage, *args)`` call in ``source`` as the argv it builds,
    with PLACEHOLDER for every argument that is not a string literal, and
    the parser's error for each argv it refuses; also the stages seen."""
    problems, stages = [], set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "cli"):
            continue
        argv = [arg.value if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str) else PLACEHOLDER
                for arg in node.args]
        stages.add(argv[0])
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(argv)
        except SystemExit:
            problems.append(f"line {node.lineno}: {argv}: "
                            f"{stderr.getvalue().splitlines()[-1]}")
    return problems, stages


def test_benchmark_cli_calls_parse():
    problems, stages = cli_call_problems(RUN.read_text(encoding="utf-8"))
    assert problems == []
    assert stages == {"simulate", "ingest-catalog", "score-importance",
                      "aggregate-ctr", "build-relevance", "evaluate",
                      "diagnose", "compare"}


def test_cli_call_check_names_a_refused_call():
    problems, _ = cli_call_problems(
        "cli('evaluate', '--qrels', q, '--run', str(r), '--out-file', o)\n"
        "cli('diagnose', '--qrels', q, '--run', r)\n"
        "cli('compare', '--baseline', b)\n")
    assert [problem.split(":")[0] for problem in problems] == [
        "line 1", "line 3"]
    assert "unrecognized arguments: --out-file" in problems[0]
    assert "--candidate" in problems[1]
