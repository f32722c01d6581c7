"""Whole reports, pinned as text.

Each case runs one command and compares its report with the file
`pinned/<name>.<format>`, so a change anywhere in the path from the
input to the bytes shows as a diff.  Mesh reports are not pinned here:
their last bits follow SuperLU and numpy reductions, which may differ
across platforms.
"""

from pathlib import Path

import pytest

from cmcradius import cli
from cmcradius.report import FORMATS

PINNED = Path(__file__).resolve().parent / "pinned"

# name -> (argv, exit code); a sweep's config is pinned/<name>.cfg.
COMMANDS = {
    "bound": (["bound", "--n", "2", "--delta", "0.1", "--H", "1.5", "--K", "-0.3", "--S", "2"], 0),
    "cap": (["cap", "--n", "3", "--kappa", "-1", "--H", "2.5", "--delta", "0.2"], 0),
    "cap_not_applicable": (["cap", "--n", "4", "--kappa", "0", "--H", "1", "--delta", "0.5"], 2),
    "cap_sweep": (["sweep"], 0),
    "bound_sweep": (["sweep"], 0),
    "algebra_sweep": (["sweep", "--seed", "1"], 0),
}
CASES = [(name, fmt) for name in COMMANDS
         for fmt in (FORMATS if COMMANDS[name][0][0] != "sweep" else ("json",))]


def argv_of(name: str) -> list[str]:
    argv, _ = COMMANDS[name]
    if argv[0] == "sweep":
        argv = [*argv, "--config", str(PINNED / f"{name}.cfg")]
    return argv


@pytest.mark.parametrize("name, fmt", CASES)
def test_report_is_unchanged(name, fmt, tmp_path):
    out = tmp_path / "report"
    assert cli.run([*argv_of(name), "--format", fmt, "--out", str(out)]) == COMMANDS[name][1]
    assert out.read_text() == (PINNED / f"{name}.{fmt}").read_text()
