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

from cmcradius import bounds, cli, discrete
from cmcradius.report import SweepReport, emit_report
from reference import parse_report_json, report_json


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


# Strings that test the escaping and the hand-written frame: a quote, a
# backslash, a newline, the text between two rows, and non-ASCII characters.
JSON_STRINGS = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\n", "},\n      {", "\n    },\n    {\n      ", "δ-stable ≥ ½", "\U0001d400"]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.sampled_from([-0.0, 1e-300, 1e300]), JSON_STRINGS,
                         st.sampled_from(["pass", "fail", "not-applicable"]))
JSON_DICTS = st.dictionaries(st.one_of(JSON_STRINGS, st.just("status")), JSON_SCALARS, max_size=6)


class TestJsonBytes:
    @given(kind=JSON_STRINGS, metadata=JSON_DICTS, rows=st.lists(JSON_DICTS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_json_is_json_dumps_indent_2(self, kind, metadata, rows):
        rep = SweepReport(kind=kind, rows=rows, metadata=metadata)
        assert emit_report(rep, "json") == report_json(rep)

    def test_the_c_encoder_is_available(self):
        # Without it reports stay correct but are written by the pure-Python encoder.
        assert json.encoder.c_make_encoder is not None


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

    @pytest.mark.parametrize("delta", ["0", "0.5", "0.999"])
    def test_unattainable_curvature_reason_at_any_delta(self, delta, capsys):
        # The curvature is checked before the root search, which finds no radius at delta = 0.999.
        code = cli.run(["cap", "--n", "2", "--kappa", "-1", "--H", "0.3", "--delta", delta, "--format", "json"])
        assert code == 2
        row = json.loads(capsys.readouterr().out)["rows"][0]
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


# Runs commands through cli.run, optionally with numpy and scipy, scipy alone,
# dataclasses and inspect ("lean"), or dataclasses alone blocked (an import of a
# blocked module then raises ImportError), and prints the exit codes, the report
# bytes, the numeric modules that were loaded, and after each command the package,
# csv, dataclasses and inspect modules loaded so far.
_LANE_SCRIPT = """
import json, os, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = sys.modules["scipy"] = None
elif sys.argv[1] == "scipy-blocked":
    sys.modules["scipy"] = None
elif sys.argv[1] == "lean":
    sys.modules["dataclasses"] = sys.modules["inspect"] = None
elif sys.argv[1] == "dataclasses-blocked":
    sys.modules["dataclasses"] = None
from cmcradius import cli
results, loaded = [], []
for i, argv in enumerate(json.loads(sys.argv[2])):
    out = f"report{i}.txt"
    code = cli.run(argv + ["--out", out])
    loaded.append(sorted(m for m, mod in sys.modules.items() if mod is not None and (
        m.startswith("cmcradius") or m in ("csv", "dataclasses", "inspect"))))
    if not os.path.exists(out):  # a usage error writes no report
        results.append([code, None])
        continue
    with open(out) as fh:
        results.append([code, fh.read()])
numeric = sorted(m for m, mod in sys.modules.items()
                 if m.split(".")[0] in ("numpy", "scipy") and mod is not None)
print(json.dumps({"results": results, "numeric": numeric, "loaded": loaded}))
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

    def test_usage_errors_load_no_numerics(self, tmp_path):
        (tmp_path / "zero.cfg").write_text("mode = algebra\nsamples = 0\n")
        (tmp_path / "huge.cfg").write_text("mode = algebra\nsamples = 1000000000\n")
        mesh = ["mesh", "--kappa", "-1", "--H", "2.5", "--rho", "0.55", "--delta", "0"]
        commands = [
            [*mesh, "--levels", "3,4,5,6,7", "--mesh-out", "."],
            [*mesh, "--levels", "3,3"],
            ["sweep", "--config", "zero.cfg"],
            ["sweep", "--config", "huge.cfg"],
        ]
        for mode in ("blocked", "unblocked"):
            run = json.loads(_run_isolated(_LANE_SCRIPT, mode, json.dumps(commands), cwd=tmp_path))
            assert run["results"] == [[64, None]] * len(commands)
            assert run["numeric"] == []

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


class TestLeanStart:
    """The package imports neither dataclasses nor inspect, `bound` loads no spaceforms,
    and only a CSV report loads csv."""

    BOUND = ["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--K", "-1", "--S", "0"]
    CAP = ["cap", "--n", "2", "--kappa", "-1", "--H", "2.5", "--delta", "0"]

    def test_scalar_commands_run_with_dataclasses_and_inspect_blocked(self, tmp_path):
        (tmp_path / "bound.cfg").write_text("mode = bound\nn = 2\nn = 3\ndelta = 0.1\nH = 2.5\nK = -1\n")
        (tmp_path / "cap.cfg").write_text("mode = cap\nn = 2\nn = 4\nkappa = 1\ndelta = 0.1\nH = 2.5\n")
        sweeps = [["sweep", "--config", "bound.cfg"], ["sweep", "--config", "cap.cfg"]]
        # Every CSV report comes last, so the modules loaded before it show what the others need.
        commands = [[*command, "--format", fmt] for fmt in ("json", "table", "csv")
                    for command in (self.BOUND, self.CAP, *sweeps)]
        runs = {mode: json.loads(_run_isolated(_LANE_SCRIPT, mode, json.dumps(commands), cwd=tmp_path))
                for mode in ("lean", "unblocked")}
        assert [code for code, _ in runs["lean"]["results"]] == [0] * len(commands)
        assert runs["lean"]["results"] == runs["unblocked"]["results"]
        loaded = runs["unblocked"]["loaded"]
        assert "cmcradius.spaceforms" not in loaded[0]  # `bound --format json`
        assert "cmcradius.spaceforms" in loaded[1]
        assert "csv" not in loaded[7] and "csv" in loaded[8]  # the first CSV report is command 8
        assert not {"dataclasses", "inspect"} & set(loaded[-1])

    def test_mesh_runs_with_dataclasses_blocked(self, tmp_path):
        # numpy imports inspect itself, so only dataclasses is blocked here.
        mesh = ["mesh", "--kappa", "-1", "--H", "2.5", "--rho", "0.55", "--delta", "0",
                "--levels", "3,4", "--mesh-out", "cap.txt", "--format", "json"]
        runs = {}
        for mode in ("dataclasses-blocked", "unblocked"):
            (tmp_path / mode).mkdir()
            runs[mode] = json.loads(_run_isolated(_LANE_SCRIPT, mode, json.dumps([mesh]), cwd=tmp_path / mode))
        assert runs["dataclasses-blocked"]["results"][0][0] == 0
        assert runs["dataclasses-blocked"]["results"] == runs["unblocked"]["results"]
        assert not {"csv", "dataclasses"} & set(runs["unblocked"]["loaded"][0])
        blocked = (tmp_path / "dataclasses-blocked" / "cap.txt").read_bytes()
        assert blocked.startswith(b"v ") and blocked == (tmp_path / "unblocked" / "cap.txt").read_bytes()


class TestMeshCommand:
    def test_loads_no_scipy(self, tmp_path):
        # Topology, radius, the sparse products and the base factor are all numpy.
        mesh = ["mesh", "--kappa", "-1", "--H", "2.5", "--rho", "0.55", "--delta", "0", "--format", "json"]
        commands = [[*mesh, "--levels", "3", "--mesh-out", "cap3.txt"],
                    [*mesh, "--levels", "3,4", "--mesh-out", "cap34.txt"]]
        runs = {}
        for mode in ("scipy-blocked", "unblocked"):
            (tmp_path / mode).mkdir()
            runs[mode] = json.loads(_run_isolated(_LANE_SCRIPT, mode, json.dumps(commands), cwd=tmp_path / mode))
        assert [code for code, _ in runs["unblocked"]["results"]] == [0, 0]
        assert "numpy" in runs["unblocked"]["numeric"]
        assert [m for m in runs["unblocked"]["numeric"] if m.startswith("scipy")] == []
        assert runs["scipy-blocked"] == runs["unblocked"]
        for name in ("cap3.txt", "cap34.txt"):
            blocked = (tmp_path / "scipy-blocked" / name).read_bytes()
            assert blocked.startswith(b"v ") and blocked == (tmp_path / "unblocked" / name).read_bytes()

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

    def test_singular_stiffness_is_an_error(self, capsys):
        # A level-0 cap within 3e-9 of the whole unit sphere: its Dirichlet
        # stiffness is numerically singular, and the dense Cholesky factorization
        # refuses it with np.linalg.LinAlgError, which must not escape.
        code = cli.run(["mesh", "--kappa", "1", "--H", "0", "--rho", "3.1415926504", "--delta", "0",
                        "--levels", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Dirichlet stiffness" in err and "Traceback" not in err

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
        ["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--S", "-inf"],
        ["bound", "--n", "2", "--delta", "0", "--H", "2.5", "--K", "-NaN"],
        ["cap", "--n", "2", "--kappa", "-Infinity", "--H", "2.5", "--delta", "0"],
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


class TestNegativeNumbers:
    # argparse takes an argument that starts with "-" for an option unless it
    # reads as a negative number, and its own pattern has no exponents.
    ARGS = {
        "bound": {"n": "2", "delta": "0", "H": "2.5", "K": "-1", "S": "2"},
        "cap": {"n": "2", "kappa": "-1", "H": "2.5", "delta": "0"},
        "mesh": {"kappa": "-1", "H": "2.5", "rho": "0.55", "delta": "0"},
    }

    @pytest.mark.parametrize("command, option", [(c, o) for c, args in ARGS.items() for o in args if o != "n"])
    @pytest.mark.parametrize("text", ["-1.5e-3", "-1E2", "-.5e+1", "-2e0"])
    def test_exponent_notation(self, command, option, text):
        argv = [command, *(t for k, v in self.ARGS[command].items() for t in (f"--{k}", text if k == option else v))]
        assert getattr(cli._build_parser().parse_args(argv), option) == float(text)

    def test_bound_runs(self, capsys):
        assert cli.run(["bound", "--n", "3", "--delta", "0", "--H", "3", "--K", "-1e-3"]) == 0
        assert "-0.001" in capsys.readouterr().out


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
        ("algebra", "samples = 1000000000"),  # over cli.MAX_SAMPLES
        ("algebra", "n = 3.0"),
    ], ids=lambda v: v)
    def test_sweep_config(self, mode, line, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        required = "" if mode == "algebra" else "H = 2.5\n"
        cfg.write_text(f"mode = {mode}\n{required}{line}\n")
        assert cli.run(["sweep", "--config", str(cfg)]) == 64
        key = line.split(" = ")[0]
        assert f"usage error: config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_sweep_seed(self, seed, capsys, tmp_path):
        # numpy rejects a negative seed with a ValueError; the parser says so first.
        cfg = tmp_path / "algebra.cfg"
        cfg.write_text("mode = algebra\nn = 2\nsamples = 10\n")
        out = tmp_path / "report"
        assert cli.run(["sweep", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 64
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


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


class TestUnusablePaths:
    MESH = ["mesh", "--kappa", "0", "--H", "1", "--rho", "1", "--delta", "0", "--levels", "1"]
    BOUND = ["bound", "--n", "2", "--delta", "0", "--H", "2"]

    @pytest.mark.parametrize("argv, path", [
        (["sweep", "--config", "{tmp}/missing.cfg"], "{tmp}/missing.cfg"),
        (["sweep", "--config", "{tmp}"], "{tmp}"),
        (["sweep", "--config", "{tmp}/undecodable.cfg"], "{tmp}/undecodable.cfg"),
        ([*BOUND, "--out", "{tmp}/missing/x.json"], "{tmp}/missing/x.json"),
        ([*MESH, "--mesh-out", "{tmp}"], "{tmp}"),
    ], ids=["missing config", "directory config", "undecodable config", "out in a missing directory",
            "mesh-out a directory"])
    def test_usage_error_names_the_path(self, argv, path, capsys, tmp_path):
        # A file that cannot be read, decoded or written is a usage error, not a traceback.
        (tmp_path / "undecodable.cfg").write_bytes(b"mode = cap\nH = 2\xff\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert cli.run(argv) == 64
        assert capsys.readouterr().err.startswith(f"usage error: {path.format(tmp=tmp_path)}: ")

    @pytest.mark.parametrize("argv, path", [
        ([*BOUND, "--out", "{tmp}"], "{tmp}"),
        ([*BOUND, "--out", "{tmp}/missing/x.json"], "{tmp}/missing/x.json"),
        (["cap", "--n", "2", "--kappa", "0", "--H", "1", "--delta", "0", "--out", "{tmp}"], "{tmp}"),
        (["sweep", "--config", "{tmp}/bound.cfg", "--out", "{tmp}/missing/x.json"], "{tmp}/missing/x.json"),
        ([*MESH, "--mesh-out", "{tmp}"], "{tmp}"),
        ([*MESH, "--mesh-out", "{tmp}/missing/m.txt"], "{tmp}/missing/m.txt"),
        ([*MESH, "--mesh-out", "{tmp}/m.txt", "--out", "{tmp}/missing/x.json"], "{tmp}/missing/x.json"),
    ], ids=["bound out a directory", "bound out in a missing directory", "cap out a directory",
            "sweep out in a missing directory", "mesh-out a directory", "mesh-out in a missing directory",
            "mesh out in a missing directory"])
    def test_unusable_output_path_is_rejected_before_computing(self, argv, path, capsys, tmp_path,
                                                                monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("the computation ran")

        monkeypatch.setattr(bounds, "best_bound", computed)
        monkeypatch.setattr(discrete, "mesh_verify", computed)
        (tmp_path / "bound.cfg").write_text("mode = bound\nH = 2\n")
        before = sorted(tmp_path.rglob("*"))
        assert cli.run([arg.format(tmp=tmp_path) for arg in argv]) == 64
        assert capsys.readouterr().err.startswith(f"usage error: {path.format(tmp=tmp_path)}: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out, mesh_out, exists", [
        ("same.txt", "same.txt", False),
        ("same.txt", "same.txt", True),
        ("link.txt", "./same.txt", True),
    ], ids=["one new file", "one existing file", "a symlink to the mesh file"])
    def test_report_and_mesh_in_one_file_are_rejected_before_computing(self, out, mesh_out, exists, capsys,
                                                                       tmp_path, monkeypatch):
        # The report would overwrite the exported mesh.
        monkeypatch.setattr(discrete, "mesh_verify", lambda *args: pytest.fail("the computation ran"))
        monkeypatch.chdir(tmp_path)
        if exists:
            (tmp_path / "same.txt").write_text("kept\n")
        if out == "link.txt":
            (tmp_path / "link.txt").symlink_to("same.txt")
        before = sorted(tmp_path.rglob("*"))
        assert cli.run([*self.MESH, "--levels", "1,2", "--out", out, "--mesh-out", mesh_out]) == 64
        assert capsys.readouterr().err == f"usage error: --out {out} and --mesh-out {mesh_out} name one file\n"
        assert sorted(tmp_path.rglob("*")) == before
        if exists:
            assert (tmp_path / "same.txt").read_text() == "kept\n"

    def test_hard_link_to_the_mesh_file_is_rejected(self, capsys, tmp_path):
        (tmp_path / "mesh.txt").write_text("kept\n")
        os.link(tmp_path / "mesh.txt", tmp_path / "report.txt")
        argv = [*self.MESH, "--out", str(tmp_path / "report.txt"), "--mesh-out", str(tmp_path / "mesh.txt")]
        assert cli.run(argv) == 64
        assert (tmp_path / "mesh.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("out", ["g.cfg", "./g.cfg", "link.cfg", "hard.cfg"],
                             ids=["the config", "the config by another path", "a symlink", "a hard link"])
    def test_sweep_report_over_its_config_is_rejected_before_reading_it(self, out, capsys, tmp_path,
                                                                        monkeypatch):
        # The report would replace the config, and the next run would fail to parse it.
        monkeypatch.setattr(cli, "parse_config", lambda path: pytest.fail("the config was read"))
        monkeypatch.chdir(tmp_path)
        config = b"mode = bound\nH = 2\n"
        (tmp_path / "g.cfg").write_bytes(config)
        (tmp_path / "link.cfg").symlink_to("g.cfg")
        os.link(tmp_path / "g.cfg", tmp_path / "hard.cfg")
        before = sorted(tmp_path.rglob("*"))
        assert cli.run(["sweep", "--config", "g.cfg", "--out", out]) == 64
        assert capsys.readouterr().err == f"usage error: --out {out} and --config g.cfg name one file\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "g.cfg").read_bytes() == config


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
