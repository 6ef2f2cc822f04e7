"""The tables in README and docs/command-table.md match the code."""

import re
from pathlib import Path

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
