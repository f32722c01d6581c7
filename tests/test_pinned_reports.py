"""Whole reports, pinned as text.

Each case runs one command and compares its report with the file
`pinned/<name>.<format>`, so a change anywhere in the path from the
input to the bytes shows as a diff.  The mesh report is pinned by its
structure instead: columns, keys and discrete values exactly, floats to
1e-9 relative, since their last bits follow the dense Cholesky
factorization and numpy reductions, which may differ across platforms
and, through OpenBLAS's split of the factorization, across thread counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmcradius import cli
from cmcradius.report import FORMATS, SweepReport, emit_report

PINNED = Path(__file__).resolve().parent / "pinned"

# name -> (argv, exit code); a sweep's config is pinned/<name>.cfg.
COMMANDS = {
    "bound": (["bound", "--n", "2", "--delta", "0.1", "--H", "1.5", "--K", "-0.3", "--S", "2"], 0),
    "cap": (["cap", "--n", "3", "--kappa", "-1", "--H", "2.5", "--delta", "0.2"], 0),
    "cap_not_applicable": (["cap", "--n", "4", "--kappa", "0", "--H", "1", "--delta", "0.5"], 2),
    # Its reason holds commas, so its CSV field is quoted.
    "cap_quoted_reason": (["cap", "--n", "2", "--kappa", "0", "--H", "1", "--delta", "0.999"], 2),
    "cap_sweep": (["sweep"], 0),
    "bound_sweep": (["sweep"], 0),
    "algebra_sweep": (["sweep", "--seed", "1"], 0),
}
CASES = [(name, fmt) for name in COMMANDS for fmt in FORMATS]


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


@pytest.mark.parametrize("fmt", FORMATS)
def test_empty_report_is_unchanged(fmt):
    report = SweepReport(kind="bound", metadata={"tool": "cmcradius"})
    assert emit_report(report, fmt) == (PINNED / f"empty.{fmt}").read_text()


MESH_ARGV = ["mesh", "--kappa", "-1", "--H", "2.5", "--rho", "0.55", "--delta", "0"]


def _assert_close(got: dict, want: dict) -> None:
    """Same keys in the same order; floats to 1e-9 relative, everything else exactly."""
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key


def _assert_mesh_report(tmp_path, levels: str, name: str) -> None:
    out = tmp_path / "report"
    assert cli.run([*MESH_ARGV, "--levels", levels, "--format", "json", "--out", str(out)]) == 0
    _assert_close_reports(json.loads(out.read_text()), json.loads((PINNED / f"{name}.json").read_text()))


def _assert_close_reports(got: dict, want: dict) -> None:
    """Same keys, kind, summary and row count; metadata and rows as _assert_close compares them."""
    assert list(got) == list(want)
    assert got["kind"] == want["kind"] and got["summary"] == want["summary"]
    _assert_close(got["metadata"], want["metadata"])
    assert len(got["rows"]) == len(want["rows"])
    for row, pinned in zip(got["rows"], want["rows"]):
        _assert_close(row, pinned)


def test_mesh_report_structure(tmp_path):
    # Every level is at most BASE_LEVEL, so each eigensolve uses its own factor.
    _assert_mesh_report(tmp_path, "1,2,3", "mesh")


def test_multigrid_mesh_report_structure(tmp_path):
    # Levels 4 and 5 are preconditioned by V-cycles down to level 3.
    _assert_mesh_report(tmp_path, "3,4,5", "mesh_multigrid")


def _mesh_report_bytes(threads: int) -> bytes:
    """The json report of a four-level study from a fresh interpreter with threads BLAS threads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=str(threads))
    argv = [*MESH_ARGV, "--levels", "3,4,5,6", "--format", "json"]
    return subprocess.run([sys.executable, "-c", "from cmcradius.cli import main; main()", *argv], env=env,
                          capture_output=True, check=True).stdout


def test_mesh_report_bytes_repeat_at_a_fixed_blas_thread_count():
    # The base level's Cholesky factor follows OpenBLAS's thread split: at 1 and 2
    # threads oracle_error differed by 1.2e-11 relatively, within the pinned tolerance.
    one = _mesh_report_bytes(1)
    assert _mesh_report_bytes(1) == one
    _assert_close_reports(json.loads(_mesh_report_bytes(2)), json.loads(one))
