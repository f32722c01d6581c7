"""Whole reports, pinned as text.

Each case runs one command and compares its report with the file
`pinned/<name>.<format>`, so a change anywhere in the path from the
input to the bytes shows as a diff.  The mesh report is pinned by its
structure instead: columns, keys and discrete values exactly, floats to
1e-9 relative, since their last bits follow SuperLU and numpy
reductions, which may differ across platforms.
"""

import json
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


MESH_ARGV = ["mesh", "--kappa", "-1", "--H", "2.5", "--rho", "0.55", "--delta", "0", "--levels", "1,2,3"]


def _assert_close(got: dict, want: dict) -> None:
    """Same keys in the same order; floats to 1e-9 relative, everything else exactly."""
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key


def test_mesh_report_structure(tmp_path):
    out = tmp_path / "report"
    assert cli.run([*MESH_ARGV, "--format", "json", "--out", str(out)]) == 0
    got, want = json.loads(out.read_text()), json.loads((PINNED / "mesh.json").read_text())
    assert list(got) == list(want)
    assert got["kind"] == want["kind"] and got["summary"] == want["summary"]
    _assert_close(got["metadata"], want["metadata"])
    assert len(got["rows"]) == len(want["rows"])
    for row, pinned in zip(got["rows"], want["rows"]):
        _assert_close(row, pinned)
