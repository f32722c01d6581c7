"""Tests of the benchmark's own references, checkers and tracer.

    python3 -m pytest bench/tests -q

The checkers are run on real reports of the program in ./src, then on
copies with one value perturbed, which they must reject.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import sys
import types
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

HALF_PI = math.pi / 2


# ------------------------------------------------------------- references


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hemisphere_at_delta_zero(n):
    assert checks.rel_diff(checks.scaled_cap_radius(n, 0.0), HALF_PI) < 1e-15
    assert abs(checks.ode_first_zero(n, float(n)) - HALF_PI) < 1e-10


def test_special_function_roots_at_delta_zero():
    assert checks.rel_diff(checks.legendre_first_zero(0.0), HALF_PI) < 1e-15
    assert checks.rel_diff(checks.hyp2f1_first_zero(0.0), HALF_PI) < 1e-15


@pytest.mark.parametrize("delta", [0.1, 0.4, 0.8])
def test_n3_closed_form(delta):
    closed = math.pi / math.sqrt(4 - 3 * delta)
    assert checks.rel_diff(checks.scaled_cap_radius(3, delta), closed) < 1e-15
    assert checks.rel_diff(checks.ode_first_zero(3, 3 * (1 - delta)), closed) < 1e-10


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.8])
def test_legendre_root_matches_ode(delta):
    ode = checks.ode_first_zero(2, 2 * (1 - delta))
    assert checks.rel_diff(checks.legendre_first_zero(delta), ode) < 1e-10


def test_scalar_route_formula():
    # delta = 0, H = 1, S = 0: c = 2 pi sqrt(1 / (3 * 3)) = 2 pi / 3.
    F = checks.Fraction
    assert checks.rel_diff(checks.scalar_bound(F(0), F(1), F(0)), 2 * mp.pi / 3) < 1e-18
    exp = checks.expected_bound(2, 0.0, 1.0, 0.0, 0.0)
    assert exp.status == "pass"
    assert exp.c == min(exp.c_scalar, exp.c_sectional)


def test_ball_eigenvalue_of_hemisphere():
    # The hemisphere of the unit 2-sphere has lambda1 = 2 (eigenfunction cos s).
    assert checks.rel_diff(checks.ball_lambda1(1.0, HALF_PI), 2) < 1e-15


@pytest.mark.parametrize("n,delta,H,K", [(2, 0.1, 2.5, -1.0), (3, 0.2, 1.5, 0.0), (4, 0.1, 3.0, -0.3),
                                         (3, 0.5, 2.0, -0.2), (4, 0.25, 5.0, -1.0)])
def test_sectional_infimum_against_dense_scan(n, delta, H, K):
    F = checks.Fraction
    inf = checks.sectional_infimum(n, F(delta), F(H), F(K))
    lo, hi = 5 * (n - 1) / (4 * n * (1 - delta)), 4 / (n - 1)
    Km = min(0.0, K)
    best = math.inf
    for i in range(1, 200000):
        k = lo + (hi - lo) * i / 200000
        B = (k * n * (1 - delta) - n * n + 5 * n - 5) * H * H + (k * n * (1 - delta) + n - 1) * Km
        if B > 0:
            A = 4 * (k * (2 - n) + n - 1) / (4 - k * (n - 1))
            best = min(best, math.pi * math.sqrt(A / B))
    assert float(inf) <= best * (1 + 1e-12)
    assert best <= float(inf) * (1 + 1e-5)  # the scan starts one grid step inside the interval


def test_near_threshold_rows_have_a_bound():
    for n in (2, 3, 4):
        d = float(checks.delta_threshold(n) - checks.Fraction(1, 10**10))
        assert checks.expected_bound(n, d, 3.0, 0.0, None).status == "pass"


# ------------------------------------------------------------- checkers


@pytest.fixture(scope="module")
def program():
    from cmcradius import cli

    return cli


def _run_sweep(program, tmp_path, cmd: workloads.Command) -> dict:
    (tmp_path / cmd.config).write_text(workloads.config_text(cmd))
    out = tmp_path / f"{cmd.name}.json"
    argv = [a if a != cmd.config else str(tmp_path / cmd.config) for a in cmd.argv]
    program.run(argv + ["--format", "json", "--out", str(out)])
    return json.loads(out.read_text())


def _small_bound_command() -> workloads.Command:
    return workloads._sweep("bound", "bound", {"n": [2, 3, 4], "delta": [0.0, 0.2, 0.5],
                                               "H": [1.5, 3.0], "K": [-0.3, 0.0], "S": [-2.0, 4.0]})


def test_bound_checker_accepts_then_rejects(program, tmp_path):
    cmd = _small_bound_command()
    doc = _run_sweep(program, tmp_path, cmd)
    assert checks.check_bound_report(doc, cmd.cases()) == {}
    i = next(i for i, r in enumerate(doc["rows"]) if r["status"] == "pass")
    scaled = copy.deepcopy(doc)
    scaled["rows"][i]["c"] *= 1 + 1e-6
    assert i in checks.check_bound_report(scaled, cmd.cases())
    flipped = copy.deepcopy(doc)
    flipped["rows"][i]["status"] = "not-applicable"
    assert i in checks.check_bound_report(flipped, cmd.cases())


def test_bound_checker_flags_the_near_threshold_fault(program, tmp_path):
    delta = float(checks.delta_threshold(4) - checks.Fraction(1, 10**10))
    cmd = workloads._sweep("near", "bound", {"n": [4], "delta": [delta], "H": [3.0], "K": [0.0]})
    doc = _run_sweep(program, tmp_path, cmd)
    assert list(checks.check_bound_report(doc, cmd.cases())) == [0]


def test_cap_checker_accepts_then_rejects(program, tmp_path):
    cmd = workloads._sweep("cap", "cap", {"n": [2, 3, 4], "kappa": [-1.0, 1.0], "delta": [0.0, 0.3],
                                          "H": [2.5]})
    doc = _run_sweep(program, tmp_path, cmd)
    assert checks.check_cap_report(doc, cmd.cases()) == {}
    moved = copy.deepcopy(doc)
    moved["rows"][3]["rho_star"] *= 1 + 1e-6
    assert 3 in checks.check_cap_report(moved, cmd.cases())
    i = next(i for i, r in enumerate(doc["rows"]) if r["status"] == "pass")
    flipped = copy.deepcopy(doc)
    flipped["rows"][i]["status"] = "fail"
    assert i in checks.check_cap_report(flipped, cmd.cases())


def test_algebra_checker_rejects_negative_slack():
    doc = {"rows": [{"n": n, "samples": 10, "min_crude_slack": 0.1, "min_remainder": 0.2, "status": "pass"}
                    for n in (2, 3, 4)]}
    assert checks.check_algebra_report(doc, [2, 3, 4], 10) == {}
    doc["rows"][1]["min_remainder"] = -1e-9
    assert 1 in checks.check_algebra_report(doc, [2, 3, 4], 10)
    assert 0 in checks.check_algebra_report(doc, [2, 3, 4], 20)


@pytest.fixture(scope="module")
def mesh_study(program, tmp_path_factory):
    work = tmp_path_factory.mktemp("mesh")
    params = {"kappa": -1.0, "H": 2.5, "rho": 0.55, "delta": 0.0, "levels": [3, 4, 5],
              "mesh_out": str(work / "cap.txt")}
    out = work / "mesh.json"
    program.run(["mesh", "--kappa", "-1", "--H", "2.5", "--rho", "0.55", "--delta", "0", "--levels", "3,4,5",
                 "--mesh-out", params["mesh_out"], "--format", "json", "--out", str(out)])
    return json.loads(out.read_text()), params, work


def test_mesh_checker_accepts_then_rejects_a_flipped_verdict(mesh_study):
    doc, params, _ = mesh_study
    assert checks.check_mesh_report(doc, params, params["mesh_out"]) == {}
    flipped = copy.deepcopy(doc)
    flipped["rows"][-1]["verdict"] = "unstable"
    assert checks.check_mesh_report(flipped, params, params["mesh_out"])


def test_mesh_checker_rejects_a_truncated_file(mesh_study):
    doc, params, work = mesh_study
    lines = Path(params["mesh_out"]).read_text().splitlines(keepends=True)
    cut = work / "cut.txt"
    cut.write_text("".join(lines[: len(lines) - 40]))
    assert checks.check_mesh_file(str(cut), params["kappa"], params["H"], doc["rows"][-1]["vertices"])
    assert checks.check_mesh_report(doc, params, str(cut))


def test_mesh_checker_rejects_a_moved_vertex(mesh_study):
    doc, params, work = mesh_study
    lines = Path(params["mesh_out"]).read_text().splitlines(keepends=True)
    tag, *xs = lines[5].split()
    lines[5] = "v " + " ".join(repr(float(x) * (1 + 1e-6)) for x in xs) + "\n"
    moved = work / "moved.txt"
    moved.write_text("".join(lines))
    assert checks.check_mesh_file(str(moved), params["kappa"], params["H"], doc["rows"][-1]["vertices"])


# ------------------------------------------------------------- workloads and tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_depend_only_on_the_seed(workload):
    a, b = workloads.make_plan(workload, 7), workloads.make_plan(workload, 7)
    assert [c.argv for c in a.commands] == [c.argv for c in b.commands]
    assert [workloads.config_text(c) for c in a.commands if c.grid] == \
        [workloads.config_text(c) for c in b.commands if c.grid]
    other = workloads.make_plan(workload, 8)
    assert [c.argv for c in a.commands] != [c.argv for c in other.commands] or \
        [c.grid for c in a.commands] != [c.grid for c in other.commands]


def test_bound_plan_keeps_its_shape_across_seeds():
    shapes = set()
    for seed in (1, 2):
        plan = workloads.make_plan("bound-sweep", seed)
        main = plan.commands[0]
        statuses = [checks.expected_bound(*c).status for c in main.cases()]
        shapes.add((len(statuses), statuses.count("pass"), len(plan.known_faults)))
    assert len(shapes) == 1


def test_missing_shim_target_is_reported_absent():
    calls = []

    def best_bound(x):
        calls.append(x)
        return x

    modules = {"bounds": types.SimpleNamespace(best_bound=best_bound),  # no coeff_B
               "cli": types.SimpleNamespace()}  # no emit_report
    tracer = layertrace.Tracer(modules)
    tracer.begin_pass(0)
    tracer.install()
    assert tracer.run(modules["bounds"].best_bound, 3) == 3
    tracer.uninstall()
    assert modules["bounds"].best_bound is best_bound
    assert "bounds.coeff_B" in tracer.absent and "cli.emit_report" in tracer.absent
    assert "discrete.splu" in tracer.absent
    metrics = layertrace.per_layer_metrics([tracer.pass_aggregates(0)])
    assert set(metrics) == set(layertrace.PER_LAYER)
    assert metrics["report.emit_ms"]["value"] == 0.0
    assert metrics["bounds.coeff_evals_per_call"]["value"] == 0.0
    assert metrics["bounds.best_bound_ms"]["value"] > 0.0
    assert calls == [3]


def test_self_time_subtracts_children():
    tracer = layertrace.Tracer({})
    tracer.begin_pass(0)
    tracer.spans = [("cli.run", 0, 0, 100_000_000, -1), ("bounds.best_bound", 0, 10_000_000, 40_000_000, 0)]
    self_ms = tracer.self_ms_by_layer(0)
    assert self_ms == {"cli": 70.0, "bounds": 30.0}


def test_case_lists_cover_every_grid_point():
    cmd = _small_bound_command()
    assert len(cmd.cases()) == len(list(itertools.product(*cmd.grid.values())))
