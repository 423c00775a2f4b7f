"""Each input rule is written once under src/er_evalkit/: one JSON decoder,
and a fixed set of functions that open a text input, so no reader can grow
a second form of either."""

import ast

from peak import SRC


def owned_nodes():
    """``(owner, node)`` for each AST node under src/er_evalkit/; the owner
    is ``module.qualname`` of the innermost def or class holding the node,
    or ``module`` at module level."""
    for path in sorted((SRC / "er_evalkit").glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))]
        while stack:
            owner, node = stack.pop()
            yield owner, node
            for child in ast.iter_child_nodes(node):
                stack.append((f"{owner}.{child.name}" if isinstance(child, (
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    else owner, child))


def test_one_json_decoder():
    """``json.loads`` and the decoder's scanner are named only in
    jsonl.decode and on jsonl's module line that takes the scanner.
    ``marshal.loads``, which halves._messages calls to read what a forked
    child sends, decodes no JSON."""
    decoders = ("loads", "scan_once", "raw_decode", "JSONDecoder")
    assert {owner for owner, node in owned_nodes()
            if isinstance(node, ast.Attribute) and node.attr in decoders
            and ast.unparse(node) != "marshal.loads"
            or isinstance(node, ast.alias) and node.name in decoders
            } == {"jsonl", "jsonl.decode"}


def test_one_fork():
    """The fork protocol is written once: ``os.fork``, ``os.pipe``,
    ``os.kill``, ``os.waitpid``, ``os._exit``, ``marshal.dumps`` and
    ``marshal.loads`` are named in the halves module and nowhere else
    under src/er_evalkit/, each of them there."""
    protocol = {"os.fork", "os.pipe", "os.kill", "os.waitpid", "os._exit",
                "marshal.dumps", "marshal.loads"}

    def spelled(node):
        """The dotted names an attribute or a ``from`` import spells."""
        if isinstance(node, ast.Attribute):
            return [ast.unparse(node)]
        if isinstance(node, ast.ImportFrom):
            return [f"{node.module}.{alias.name}" for alias in node.names]
        return []

    assert {(owner.split(".")[0], name) for owner, node in owned_nodes()
            for name in spelled(node) if name in protocol} == {
        ("halves", name) for name in protocol}


def opens_for_reading(node):
    """A call that opens a file to read it: ``read_text``, ``read_bytes``,
    or an ``open`` other than ``os.open`` whose mode does not write."""
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    if func.endswith((".read_text", ".read_bytes")):
        return True
    if func == "os.open" or func != "open" and not func.endswith(".open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant)
                and set(str(mode.value)) & set("wax"))


def test_text_inputs_open_in_five_places():
    """Every input is opened by the line stream, the finder of the line
    start that halves a file, the decode-error locator, the TSV dump reader
    or the report loader, and by nothing else."""
    assert {owner for owner, node in owned_nodes()
            if opens_for_reading(node)} == {
        "jsonl.open_text", "jsonl.middle_line", "jsonl.read_failure",
        "catalog._read_dump", "metrics.MetricsReport.load"}


def test_field_table_keys_read_out_in_four_places():
    """A record table's keys are read out (``for key, _, _ in TABLE``) only
    by jsonl.as_records, which every writer that emits each key goes
    through, by the catalog writer, which omits absent fields, by the
    report head and by metrics' getter of a run result's columns."""
    def unpacks_keys(node):
        """A loop over a ``*_FIELDS`` table, or jsonl's ``table``, that
        keeps only the first of each row's three values."""
        return (isinstance(node, (ast.comprehension, ast.For))
                and isinstance(node.iter, ast.Name)
                and (node.iter.id.endswith("_FIELDS")
                     or node.iter.id == "table")
                and isinstance(node.target, ast.Tuple)
                and [ast.unparse(elt) for elt in node.target.elts[1:]]
                == ["_", "_"])

    assert sorted(owner for owner, node in owned_nodes()
                  if unpacks_keys(node)) == [
        "catalog.write_catalog", "jsonl.as_records", "metrics",
        "metrics.MetricsReport.to_dict"]
