"""The README's Configuration table documents every row of the knob table."""

from __future__ import annotations

from pathlib import Path

from repro.config import KNOBS

README = Path(__file__).resolve().parent.parent / "README.md"


def _configuration_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            rows[cells[0].strip("`")] = cells
    return rows


def test_every_knob_has_a_readme_row_naming_its_environment_variable():
    rows = _configuration_rows()
    assert set(rows) == set(KNOBS)
    for name, knob in KNOBS.items():
        assert rows[name][1] == f"`{knob.env}`", name
