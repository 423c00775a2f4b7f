"""The README's code runs as written: the `Library use` snippet prints what
its comment says and imports all the package exports, and every command of
the CLI walkthrough exits 0."""

import re
import shlex
from types import ModuleType

import er_evalkit
from er_evalkit.cli import build_parser, dispatch

from peak import SRC

README = SRC.parent / "README.md"


def fenced(language, heading):
    """The first ``language`` block of the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_use_prints_its_comment(capsys):
    exec(fenced("python", "Library use"), {})
    assert capsys.readouterr().out == "1.0\n"


def test_package_exports_what_library_use_imports():
    """The package's public names, its modules aside, are exactly the ones
    the `Library use` snippet imports, so no re-export grows back unseen."""
    imported = re.search(r"^from er_evalkit import (.+)$",
                         fenced("python", "Library use"), re.M).group(1)
    public = {name for name, value in vars(er_evalkit).items()
              if not name.startswith("_")
              and not isinstance(value, ModuleType)}
    assert public == set(imported.split(", "))


def test_walkthrough_runs_every_stage(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = fenced("sh", "CLI walkthrough").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("er-evalkit ")]
    for argv in commands:
        assert dispatch(argv) == 0, (argv, capsys.readouterr().err)
    stages = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in commands} == set(stages.choices)
