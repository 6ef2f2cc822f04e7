"""The tables, commands and options in README and docs/ match the code."""

import argparse
import re
import shlex
from pathlib import Path

from hepcluster import cli
from hepcluster.executor import Backend
from hepcluster.planner import KINDS

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
