"""The tables, commands and options in README and docs/ match the code."""

import argparse
import ast
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from hepcluster import cli
from hepcluster.model import (APP_NAMES, AppSpec, ClusterSpec, InterfaceSpec,
                              MotdSpec, NodeSpec, SpecError, StorageSpec,
                              UserSpec, parse_spec)
from hepcluster.planner import KINDS, Backend

ROOT = Path(__file__).resolve().parent.parent


def _section(text: str, heading: str) -> str:
    """The Markdown section under `heading`, up to the next `## ` heading."""
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_readme_action_kinds_match_planner():
    section = _section((ROOT / "README.md").read_text(), "## Action kinds")
    rows = re.findall(r"^\| `(\w+)` \| ([P0-9, ]+) \|", section, re.M)
    assert {kind: tuple(phases.split(", ")) for kind, phases in rows} == {
        name: kind.phases for name, kind in KINDS.items()}
    assert len(rows) == len(KINDS)


def test_spec_format_app_names_match_model():
    section = _section((ROOT / "docs" / "spec-format.md").read_text(),
                       "## `apps[]`")
    names = re.search(r"`name` is one of ((?:`\w+`(?:, )?)+)\.", section)
    assert tuple(re.findall(r"`(\w+)`", names.group(1))) == APP_NAMES


@pytest.mark.parametrize("heading,record,where", [
    ("## Top level", ClusterSpec, ()),
    ("## `nodes[]`", NodeSpec, ("nodes", 0)),
    ("## `nodes[].interfaces[]`", InterfaceSpec, ("nodes", 0, "interfaces", 0)),
    ("## `storage`", StorageSpec, ("storage",)),
    ("## `users[]`", UserSpec, ("users", 0)),
    ("## `apps[]`", AppSpec, ("apps", 0)),
    ("## `motd`", MotdSpec, ("motd",)),
], ids=["top", "nodes", "interfaces", "storage", "users", "apps", "motd"])
def test_spec_format_tables_match_the_parser(paper_spec_text, heading, record,
                                             where):
    """Each record's table lists its dataclass fields, and says "yes" to
    Required exactly for the keys whose absence the parser rejects."""
    section = _section((ROOT / "docs" / "spec-format.md").read_text(), heading)
    rows = re.findall(r"^\| `(\w+)` \| (yes|no) \|", section, re.M)
    assert sorted(key for key, _ in rows) == sorted(
        f.name for f in dataclasses.fields(record))
    for key, required in rows:
        raw = json.loads(paper_spec_text)
        obj = raw
        for step in where:
            obj = obj[step]
        if required == "yes":
            del obj[key]
            with pytest.raises(SpecError,
                               match=f"^missing required field '{key}' in "):
                parse_spec(json.dumps(raw))
        else:
            obj.pop(key, None)
            parse_spec(json.dumps(raw))


def test_spec_format_lists_every_violation_code():
    """The code table names exactly the codes `validate` reports: the first
    argument of every `Violation(...)` in `model.py`, each a literal."""
    tree = ast.parse((ROOT / "src" / "hepcluster" / "model.py").read_text())
    firsts = [node.args[0] for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "Violation"]
    assert firsts and all(isinstance(a, ast.Constant) for a in firsts)
    section = _section((ROOT / "docs" / "spec-format.md").read_text(),
                       "## Violation codes")
    rows = re.findall(r"^\| `([a-z-]+)` \|", section, re.M)
    assert sorted(rows) == sorted({a.value for a in firsts})


def test_command_table_lists_every_capability():
    text = (ROOT / "docs" / "command-table.md").read_text()
    rows = re.findall(r"^\| `(\w+)\(", text, re.M)
    capabilities = {name for name in dir(Backend)
                    if not name.startswith("_")} - {"hostnames"}
    assert sorted(rows) == sorted(capabilities)


def test_readme_quick_start_commands_parse():
    section = _section((ROOT / "README.md").read_text(), "## Quick start")
    lines = [line.split("#")[0] for line in section.splitlines()
             if line.startswith("hepcluster ")]
    assert lines
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line)[1:])


def test_documented_options_exist():
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {option for p in subcommands.choices.values()
               for a in p._actions for option in a.option_strings}
    documented = set()
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = re.sub(r"^```.*?^```", "", path.read_text(), flags=re.M | re.S)
        for span in re.findall(r"`([^`\n]+)`", text):
            documented |= set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", span))
    assert documented and documented <= options
