import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcradius import cli
from cmcradius.report import SweepReport, emit_report
from reference import parse_report_json


class TestEmitReport:
    def test_empty_sweep(self):
        rep = SweepReport(kind="sweep-cap", metadata={"tool": "cmcradius"})
        doc = json.loads(emit_report(rep, "json"))
        assert doc["rows"] == []
        assert doc["summary"] == {"pass": 0, "fail": 0, "not_applicable": 0}

    def test_round_trip(self):
        rep = SweepReport(kind="bound", metadata={"tool": "cmcradius"})
        rep.rows = [{"n": 2, "c": 0.861792481182582723, "status": "pass"}]
        back = parse_report_json(emit_report(rep, "json"))
        assert back.rows[0]["n"] == 2
        assert back.rows[0]["c"] == pytest.approx(0.861792481183, rel=1e-12)

    def test_twelve_significant_digits(self):
        rep = SweepReport(kind="bound")
        rep.rows = [{"x": 1.2345678901234567890}]
        text = emit_report(rep, "csv")
        assert "1.23456789012" in text

    def test_deterministic(self):
        rep = SweepReport(kind="cap", metadata={"tool": "cmcradius"})
        rep.rows = [{"n": 2, "status": "pass"}]
        for fmt in ("table", "json", "csv"):
            assert emit_report(rep, fmt) == emit_report(rep, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(SweepReport(kind="x"), "yaml")

    def test_metadata_floats_rounded(self):
        # Two values one bit apart print the same bytes, as row values do.
        texts = []
        for c_best in (0.765136702741496, 0.7651367027414959):
            rep = SweepReport(kind="mesh", metadata={"tool": "cmcradius", "c_best": c_best,
                                                     "agrees_with_oracle": True})
            texts.append(emit_report(rep, "json"))
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["metadata"] == {
            "tool": "cmcradius", "c_best": 0.765136702741, "agrees_with_oracle": True}


class TestBoundCommand:
    def test_reference_case(self, capsys):
        code = cli.run(["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--K", "-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.75" in out and "0.861792481183" in out and "sectional" in out

    def test_threshold_violation_exit_2(self, capsys):
        code = cli.run(["bound", "--n", "3", "--delta", "0.6", "--H", "3", "--K", "-1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "7/12" in out

    def test_usage_error(self, capsys):
        assert cli.run(["bound", "--n", "2"]) == 64

    def test_near_threshold_has_a_bound(self, capsys):
        # delta is 1e-9 below 19/64: the k-interval is narrow but a bound exists.
        code = cli.run(["bound", "--n", "4", "--delta", "0.296874999", "--H", "3", "--K", "0",
                        "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        row = doc["rows"][0]
        assert row["status"] == "pass" and row["source"] == "sectional"
        assert 0 < row["c"] < float("inf")

    def test_overflowing_H_names_the_overflow(self, capsys):
        code = cli.run(["bound", "--n", "4", "--delta", "0", "--H", "1e200", "--K", "0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "float range" in out and "not positive" not in out

    def test_json_output(self, capsys):
        code = cli.run(["bound", "--n", "2", "--delta", "0", "--H", "1", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["pass"] == 1


class TestCapCommand:
    def test_reference_case(self, capsys):
        code = cli.run(["cap", "--n", "2", "--kappa", "-1", "--H", "2.5", "--delta", "0",
                        "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        row = doc["rows"][0]
        assert row["rho_star"] == pytest.approx(0.6856, abs=2e-4)
        assert row["ratio"] == pytest.approx(0.7955, abs=2e-4)
        assert row["status"] == "pass"

    def test_no_radius_exit_2(self, capsys):
        # The zero of the radial function lies past the scan end, and delta
        # is past every threshold: not applicable, with no radius.
        code = cli.run(["cap", "--n", "2", "--kappa", "0", "--H", "1", "--delta", "0.999",
                        "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        row = doc["rows"][0]
        assert row["rho_star"] is None
        assert row["status"] == "not-applicable"

    def test_unattainable_curvature_exit_2(self, capsys):
        # No sphere in hyperbolic space has H = 0.3 < 1: not applicable, not an error.
        code = cli.run(["cap", "--n", "2", "--kappa", "-1", "--H", "0.3", "--delta", "0", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        row = doc["rows"][0]
        assert [row[key] for key in ("rho_star", "c_best", "ratio", "source")] == [None] * 4
        assert row["status"] == "not-applicable"
        assert row["reason"] == "geodesic spheres in curvature -1.0 have H > 1.0, got 0.3"

    def test_overflowing_H_is_an_error(self, capsys):
        # H^2 overflows: kappa + H^2 is not a curvature the oracle can use.
        code = cli.run(["cap", "--n", "4", "--kappa", "0", "--H", "1e200", "--delta", "0"])
        assert code == 1
        assert "float range" in capsys.readouterr().err

    def test_underflowing_H_is_an_error(self, capsys):
        # H^2 underflows to 0: the sphere would be flat, with no finite radius.
        code = cli.run(["cap", "--n", "3", "--kappa", "0", "--H", "1e-200", "--delta", "0.5"])
        assert code == 1
        assert "float range" in capsys.readouterr().err

    def test_overflowing_scalar_curvature_names_kappa(self, capsys):
        # 6 * kappa overflows: the scalar route has no finite S to use.
        code = cli.run(["cap", "--n", "2", "--kappa", "1e308", "--H", "1", "--delta", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "float range" in err and "kappa=1e+308" in err and "S_inf" not in err


# Runs commands through cli.run, optionally with numpy and scipy blocked
# (an import of either then raises ImportError), and prints the exit codes,
# the report bytes and the numeric modules that were loaded.
_LANE_SCRIPT = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = sys.modules["scipy"] = None
from cmcradius import cli
results = []
for i, argv in enumerate(json.loads(sys.argv[2])):
    out = f"report{i}.txt"
    code = cli.run(argv + ["--out", out])
    with open(out) as fh:
        results.append([code, fh.read()])
numeric = sorted(m for m, mod in sys.modules.items()
                 if m.split(".")[0] in ("numpy", "scipy") and mod is not None)
print(json.dumps({"results": results, "numeric": numeric}))
"""


def _run_isolated(code: str, *args: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


class TestScalarLane:
    """`bound`, `cap` and their sweeps need neither numpy nor scipy."""

    def test_runs_with_numpy_and_scipy_blocked(self, tmp_path):
        (tmp_path / "bound.cfg").write_text(
            "mode = bound\nn = 2\nn = 4\ndelta = 0\ndelta = 0.2\nH = 2.5\nK = -1\nS = 0\n")
        (tmp_path / "cap.cfg").write_text(
            "mode = cap\nn = 2\nn = 3\nkappa = -1\nkappa = 1\ndelta = 0.1\nH = 2.5\n")
        commands = [
            ["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--K", "-1", "--S", "0"],
            ["bound", "--n", "3", "--delta", "0.6", "--H", "3", "--format", "csv"],
            ["cap", "--n", "2", "--kappa", "-1", "--H", "2.5", "--delta", "0", "--format", "json"],
            ["sweep", "--config", "bound.cfg", "--format", "csv"],
            ["sweep", "--config", "cap.cfg", "--format", "json"],
        ]
        runs = {mode: json.loads(_run_isolated(_LANE_SCRIPT, mode, json.dumps(commands), cwd=tmp_path))
                for mode in ("blocked", "unblocked")}
        assert [code for code, _ in runs["blocked"]["results"]] == [0, 2, 0, 0, 0]
        assert runs["blocked"]["results"] == runs["unblocked"]["results"]
        assert runs["unblocked"]["numeric"] == []

    def test_package_resolves_submodules_on_access(self, tmp_path):
        code = (
            "import sys, cmcradius\n"
            "loaded = 'cmcradius.mesh' in sys.modules\n"
            "names = [cmcradius.mesh.__name__, cmcradius.discrete.__name__, cmcradius.algebra.__name__]\n"
            "from cmcradius import discrete\n"
            "try:\n"
            "    cmcradius.no_such_module\n"
            "    missing = 'resolved'\n"
            "except AttributeError:\n"
            "    missing = 'AttributeError'\n"
            "print(loaded, *names, discrete is cmcradius.discrete, missing)\n"
        )
        out = _run_isolated(code, cwd=tmp_path).split()
        assert out == ["False", "cmcradius.mesh", "cmcradius.discrete", "cmcradius.algebra",
                       "True", "AttributeError"]


class TestMeshCommand:
    def test_small_run(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        mesh_file = tmp_path / "cap.txt"
        code = cli.run([
            "mesh", "--kappa", "0", "--H", "1", "--rho", "1.0", "--delta", "0",
            "--levels", "2,3", "--format", "json", "--out", str(out_file),
            "--mesh-out", str(mesh_file),
        ])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["rows"]) == 2
        assert doc["metadata"]["oracle_lambda1"] is not None
        assert mesh_file.read_text().startswith("v ")

    def test_mesh_out_matches_direct_export(self, capsys, tmp_path):
        from cmcradius import mesh

        args = ["--kappa", "-1", "--H", "2.5", "--rho", "0.6", "--delta", "0.1"]
        mesh_file = tmp_path / "cap.txt"
        code = cli.run(["mesh", *args, "--levels", "4,2,3", "--format", "json",
                        "--out", str(tmp_path / "report.json"), "--mesh-out", str(mesh_file)])
        assert code == 0
        direct = tmp_path / "direct.txt"
        mesh.save_mesh(mesh.build_cap_mesh(-1.0, 2.5, 0.6, 4), str(direct))
        assert mesh_file.read_bytes() == direct.read_bytes()

    def test_tol_flag_removed(self, capsys):
        # The inverse-iteration stop rule is fixed; there is no knob for it.
        argv = ["mesh", "--kappa", "0", "--H", "1", "--rho", "1", "--delta", "0", "--tol", "1e-6"]
        assert cli.run(argv) == 64

    def test_overflowing_scalar_curvature_names_kappa(self, capsys, tmp_path):
        code = cli.run(["mesh", "--kappa", "1e308", "--H", "1", "--rho", "1e-160", "--delta", "0",
                        "--levels", "0", "--out", str(tmp_path / "report.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert "float range" in err and "kappa=1e+308" in err and "S_inf" not in err


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "2", "--delta", "0", "--H", "inf", "--K", "-1"],
        ["bound", "--n", "2", "--delta", "nan", "--H", "2.5"],
        ["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--K", "nan"],
        ["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--S=-inf"],
        ["cap", "--n", "2", "--kappa", "-1", "--H", "nan", "--delta", "0"],
        ["cap", "--n", "2", "--kappa", "inf", "--H", "2.5", "--delta", "0"],
        ["mesh", "--kappa", "0", "--H", "1", "--rho", "inf", "--delta", "0", "--levels", "2"],
        ["mesh", "--kappa", "0", "--H", "nan", "--rho", "1", "--delta", "0", "--levels", "2"],
    ])
    def test_usage_error(self, argv, capsys):
        assert cli.run(argv) == 64
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["H = nan", "H = inf", "delta = -inf", "kappa = 1e999"])
    def test_sweep_config_value(self, line, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"mode = cap\nn = 2\nH = 2.5\n{line}\n")
        assert cli.run(["sweep", "--config", str(cfg)]) == 64
        assert "finite" in capsys.readouterr().err


class TestMalformedIntegers:
    MESH = ["mesh", "--kappa", "0", "--H", "1", "--rho", "1", "--delta", "0"]

    @pytest.mark.parametrize("argv", [
        [*MESH, "--levels", "3,x"],
        [*MESH, "--levels", "-1"],
        [*MESH, "--levels", "2.5"],
        [*MESH, "--levels", ","],
        [*MESH, "--levels", "3,3"],
        [*MESH, "--levels", "40"],
        [*MESH, "--levels", "3,40"],
        ["cap", "--n", "5", "--kappa", "0", "--H", "1", "--delta", "0"],
        ["cap", "--n", "two", "--kappa", "0", "--H", "1", "--delta", "0"],
        ["bound", "--n", "1", "--delta", "0", "--H", "1"],
    ])
    def test_usage_error(self, argv, capsys):
        assert cli.run(argv) == 64
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, line", [
        ("cap", "n = two"),
        ("cap", "n = 5"),
        ("bound", "n = 1"),
        ("algebra", "samples = x"),
        ("algebra", "samples = 0"),
        ("algebra", "samples = 1000000000"),  # over algebra.MAX_SAMPLES
        ("algebra", "n = 3.0"),
    ], ids=lambda v: v)
    def test_sweep_config(self, mode, line, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        required = "" if mode == "algebra" else "H = 2.5\n"
        cfg.write_text(f"mode = {mode}\n{required}{line}\n")
        assert cli.run(["sweep", "--config", str(cfg)]) == 64
        key = line.split(" = ")[0]
        assert f"usage error: config key {key!r}" in capsys.readouterr().err


class TestSweepCommand:
    def test_cap_sweep_and_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# small cap sweep\n"
            "mode = cap\n"
            "n = 2\n"
            "kappa = -1\n"
            "kappa = 0\n"
            "delta = 0\n"
            "delta = 0.4\n"
            "H = 2.5\n"
            "H = 3.5\n"
        )
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.run(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out1)]) == 0
        assert cli.run(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert len(doc["rows"]) == 8
        assert doc["summary"]["fail"] == 0
        assert doc["summary"]["pass"] == 8

    def test_algebra_sweep_seeded(self, capsys, tmp_path):
        cfg = tmp_path / "alg.cfg"
        cfg.write_text("mode = algebra\nsamples = 200\n")
        code = cli.run(["sweep", "--config", str(cfg), "--seed", "5", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["n"] for r in doc["rows"]] == [2, 3, 4]
        assert all(r["status"] == "pass" for r in doc["rows"])

    def test_unattainable_cell_keeps_the_sweep(self, capsys, tmp_path):
        # The kappa = -1 cell has no sphere of H = 0.3; the kappa = 0 cell still reports.
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text("mode = cap\nkappa = -1\nkappa = 0\nH = 0.3\n")
        code = cli.run(["sweep", "--config", str(cfg), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [(r["kappa"], r["status"]) for r in doc["rows"]] == [(-1.0, "not-applicable"), (0.0, "pass")]

    def test_not_applicable_only_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "na.cfg"
        cfg.write_text("mode = cap\nn = 3\nkappa = -1\nH = 1.5\ndelta = 0\n")
        assert cli.run(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("mode, line", [
        ("cap", "tol = nan"),
        ("cap", "tol = 1e-6"),
        ("cap", "K = 0"),
        ("bound", "kappa = 0"),
        ("algebra", "H = 2.5"),
    ], ids=lambda v: v)
    def test_unknown_config_key(self, mode, line, capsys, tmp_path):
        # A key that the mode does not read is an error, not silently ignored.
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(f"mode = {mode}\nn = 2\nH = 2.5\n{line}\n")
        assert cli.run(["sweep", "--config", str(cfg)]) == 64
        key = line.split(" = ")[0]
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("mode = bound\nH = 2.5\nmode = cap\n", "mode"),
        ("mode = algebra\nsamples = 5\nsamples = 100000\n", "samples"),
    ], ids=["mode", "samples"])
    def test_repeated_single_valued_key(self, text, key, capsys, tmp_path):
        # One value is read, so a second one would be ignored without a word.
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        assert cli.run(["sweep", "--config", str(cfg)]) == 64
        assert f"usage error: config key {key!r} takes one value" in capsys.readouterr().err

    def test_cap_tol_flag_removed(self, capsys):
        argv = ["cap", "--n", "2", "--kappa", "0", "--H", "1", "--delta", "0", "--tol", "1e-6"]
        assert cli.run(argv) == 64

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode cap\n")
        assert cli.run(["sweep", "--config", str(cfg)]) == 64


# The grid keys each mode reads, and values that parse; the faults below break one or the other.
FUZZ_READ = {"cap": ("n", "kappa", "delta", "H"), "bound": ("n", "delta", "H", "K", "S"), "algebra": ("n",)}
FUZZ_GOOD = {"n": ("2", "3", "4"), "other": ("-1", "0", "0.3", "0.9", "2.5")}
FUZZ_BAD = ("nan", "inf", "1e400", "x", "", "5")
FUZZ_FAULTS = ("bad value", "unread key", "repeated mode", "bad mode", "repeated samples", "bad samples")


@st.composite
def sweep_configs(draw) -> str:
    """Config text of one mode with up to three faults injected; each grid
    has at most two values, so every sweep runs in milliseconds."""
    mode = draw(st.sampled_from(tuple(FUZZ_READ)))
    read = FUZZ_READ[mode]
    grid = {key: draw(st.lists(st.sampled_from(FUZZ_GOOD.get(key, FUZZ_GOOD["other"])), min_size=1, max_size=2))
            for key in draw(st.lists(st.sampled_from(read), unique=True))}
    lines = [f"mode = {mode}"]
    if mode == "algebra":
        lines.append(f"samples = {draw(st.integers(1, 50))}")
    for fault in draw(st.lists(st.sampled_from(FUZZ_FAULTS), max_size=3)):
        if fault == "bad value":
            key = draw(st.sampled_from(read))
            grid[key] = [*grid.get(key, [])[:1], draw(st.sampled_from(FUZZ_BAD))]
        elif fault == "unread key":
            unread = sorted({"n", "kappa", "delta", "H", "K", "S", "tol"} - set(read))
            lines.append(f"{draw(st.sampled_from(unread))} = 2")
        elif fault == "repeated mode":
            lines.append(f"mode = {draw(st.sampled_from(tuple(FUZZ_READ)))}")
        elif fault == "bad mode":
            lines[0] = f"mode = {draw(st.sampled_from(('x', '', 'Cap')))}"
        else:
            samples = f"samples = {draw(st.sampled_from(('0', '-3', 'x', '', 'nan', '1e400', '100001', '7')))}"
            if fault == "bad samples" and mode == "algebra":
                lines[1] = samples
            else:
                lines.append(samples)
    lines += [f"{key} = {v}" for key, values in grid.items() for v in values]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=sweep_configs())
def test_malformed_sweep_config_exits_with_a_code(text):
    # Any config gives a report or a usage error, never an exception.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        assert cli.run(["sweep", "--config", str(cfg), "--out", str(out)]) in {0, 1, 2, 64}


def _readme_cli_section() -> tuple[list[list[str]], str]:
    """The `cmcradius` commands of the README's CLI section, and its sweep-config example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w*)\n(.*?)```", section, re.S)
    script = "".join(body for lang, body in blocks if lang == "sh").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("cmcradius ")]
    (config,) = [body for lang, body in blocks if not lang]
    return commands, config


class TestReadme:
    def test_cli_section_commands_run(self, capsys, tmp_path, monkeypatch):
        # A flag removed or renamed in the CLI must not leave the README stale.
        commands, config = _readme_cli_section()
        assert len(commands) == 4
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.cfg").write_text(config)
        for argv in commands:
            assert cli.run(argv) == 0, argv
