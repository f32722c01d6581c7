"""Benchmark of the cmcradius CLI: one workload per run, checked and timed.

    python3 bench/run.py --workload {bound-sweep,cap-sweep,mesh-refine} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the run reports the end-to-end metrics:

  setup_s      median wall time, spawn to exit, of fresh interpreters that
               each run the workload's smallest command;
  pass_s       median wall time of one pass over the workload's commands,
               in one process that has finished its imports;
  peak_rss_mb  peak resident memory of that process.

With --trace 1 the passes alternate between traced and untraced, and the
run reports the per-layer metrics of bench/layertrace.py, the import cost
of `cmcradius.cli` in fresh interpreters and the tracing overhead.

Every report row of every pass is one operation; it fails when it
disagrees with the independent checks of bench/checks.py or when its
command exits with an unexpected code.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
A result file with the run's environment goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Thread pools pinned to one thread: all load comes from one process.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Set-up spawns, half before and half after the passes, so that they see
# more than one of the host's speed phases (which last 10-20 s here).
SETUP_SPAWNS = 8
MIN_PASSES = 3
# A traced run alternates traced and untraced passes, at least this many of each.
MIN_TRACED = 2
TIME_LIMIT_S = 170.0
CHECK_ALLOWANCE_S = 30.0
# The console script `cmcradius` does exactly this.
ENTRY = "import sys; from cmcradius.cli import main; sys.argv[0] = 'cmcradius'; main()"
IMPORT_PROBE = ("import json, sys, time; t = time.perf_counter(); import cmcradius.cli; "
                "print(json.dumps([time.perf_counter() - t, len(sys.modules)]))")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    """What a reader needs to judge the noise of this run from its own output."""
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(os.getloadavg()),
        "thread_env": THREAD_ENV,
    }


def fresh_runs(argv: list[str], count: int, cwd: Path) -> list[dict]:
    """Spawn-to-exit wall time of fresh interpreters, with host-speed samples around each."""
    runs = []
    before = hostspeed.sample()
    for _ in range(count):
        t = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=60)
        seconds = time.perf_counter() - t
        after = hostspeed.sample()
        runs.append({"seconds": seconds, "exit_code": proc.returncode, "stdout": proc.stdout,
                     "calibration_s": (before + after) / 2})
        before = after
    return runs


def pass_calibrations(passes: list[dict], final: float) -> list[float]:
    """Host speed around each pass: its own samples and the next pass's first one."""
    nexts = [p["calibration_s"][0] for p in passes[1:]] + [final]
    return [statistics.mean(p["calibration_s"] + [n]) for p, n in zip(passes, nexts)]


def at_reference_speed(seconds: list[float], calibration: list[float]) -> float:
    """Median of the times scaled to the reference host speed (see hostspeed.py)."""
    return statistics.median(s * hostspeed.REFERENCE_S / c for s, c in zip(seconds, calibration))


def check_command(cmd: workloads.Command, plan: workloads.Plan, work: Path) -> tuple[list, int, int]:
    """(failed rows, rows, expected exit code) of one command's report."""
    if cmd.kind in ("bound", "cap"):
        expect = checks.expected_bound if cmd.kind == "bound" else checks.expected_cap
        expected_rows = len(cmd.cases())
        expected_exit = 0 if any(expect(*c).status == "pass" for c in cmd.cases()) else 2
    else:
        expected_rows = len(cmd.grid["n"]) if cmd.kind == "algebra" else len(cmd.params["levels"])
        expected_exit = 0
    try:
        with open(work / f"{cmd.name}.json") as fh:
            doc = json.load(fh)
        if cmd.kind == "bound":
            failures = checks.check_bound_report(doc, cmd.cases())
        elif cmd.kind == "cap":
            failures = checks.check_cap_report(doc, cmd.cases())
        elif cmd.kind == "algebra":
            failures = checks.check_algebra_report(doc, cmd.grid["n"], cmd.grid["samples"][0])
        else:
            failures = checks.check_mesh_report(doc, cmd.params, str(work / cmd.params["mesh_out"]))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"report unreadable or malformed: {type(exc).__name__}: {exc}"
        return [{"command": cmd.name, "row": i, "known_fault": False, "reasons": [reason]}
                for i in range(expected_rows)], expected_rows, expected_exit
    rows = doc["rows"]
    listed = []
    for i, reasons in sorted(failures.items()):
        row = rows[i] if 0 <= i < len(rows) else None
        known = row is not None and cmd.kind == "bound" and any(
            row["n"] == n and row["delta"] == checks.rounded(d) for n, d in plan.known_faults)
        listed.append({"command": cmd.name, "row": i, "known_fault": known, "reasons": reasons})
    return listed, max(len(rows), expected_rows), expected_exit


def run(args) -> dict:
    plan = workloads.make_plan(args.workload, args.seed)
    env_info = environment()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure_and_check(args, plan, env_info, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_and_check(args, plan: workloads.Plan, env_info: dict, work: Path) -> dict:
    t_start = time.perf_counter()
    for cmd in plan.commands:
        if cmd.config:
            (work / cmd.config).write_text(workloads.config_text(cmd))
    plan_doc = {
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "min_passes": MIN_TRACED if args.trace else MIN_PASSES,
        "min_traced": MIN_TRACED if args.trace else 0,
        "commands": [{"argv": c.argv + ["--format", "json", "--out", f"{c.name}.json"],
                      "out": f"{c.name}.json", "mesh_out": c.params.get("mesh_out")}
                     for c in plan.commands],
    }
    (work / "plan.json").write_text(json.dumps(plan_doc))

    # An untimed fresh interpreter first, so bytecode and file caches are warm.
    probe = [sys.executable, "-c", IMPORT_PROBE]
    fresh_runs(probe, 1, work)
    if args.trace:
        fresh_argv = probe
    else:
        fresh_argv = [sys.executable, "-c", ENTRY, *plan.setup_argv,
                      "--format", "json", "--out", "setup.json"]
    fresh = fresh_runs(fresh_argv, SETUP_SPAWNS // 2, work)
    timeout = TIME_LIMIT_S - CHECK_ALLOWANCE_S - (time.perf_counter() - t_start)
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "worker.py"),
                           str(work / "plan.json"), str(work / "result.json")],
                          cwd=work, env=child_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    fresh += fresh_runs(fresh_argv, SETUP_SPAWNS - SETUP_SPAWNS // 2, work)
    problems = []
    if any(r["exit_code"] for r in fresh):
        problems.append(f"set-up command exit codes {[r['exit_code'] for r in fresh]}")
    with open(work / "result.json") as fh:
        res = json.load(fh)
    passes = res["passes"]
    problems += sorted({f"a command raised {e.strip().splitlines()[-1]}" for e in res["errors"]})

    failures, attempted, failed = [], 0, 0
    for j, cmd in enumerate(plan.commands):
        listed, nrows, expected_exit = check_command(cmd, plan, work)
        failures += listed
        digests = {json.dumps(p["digests"][j]) for p in passes}
        if len(digests) != 1:
            problems.append(f"{cmd.name}: passes wrote {len(digests)} different outputs")
        for p in passes:
            attempted += nrows
            failed += nrows if p["exit_codes"][j] != expected_exit else min(len(listed), nrows)
        codes = sorted({p["exit_codes"][j] for p in passes}, key=str)
        if codes != [expected_exit]:
            problems.append(f"{cmd.name}: exit codes {codes}, expected {expected_exit}")
    unexpected = [f for f in failures if not f["known_fault"]]
    correct = not problems and not unexpected

    untraced = [p["seconds"] for p in passes if not p["traced"]]
    fresh_s = [r["seconds"] for r in fresh]
    fresh_cal = [r["calibration_s"] for r in fresh]
    pass_cal = pass_calibrations(passes, res["final_calibration_s"])
    untraced_cal = [c for p, c in zip(passes, pass_cal) if not p["traced"]]
    if args.trace:
        probes = [json.loads(r["stdout"]) for r in fresh]
        metrics = dict(res["per_layer"])
        metrics["cli.import_s"] = {"value": statistics.median(p[0] for p in probes), "unit": "s"}
        metrics["cli.modules_loaded"] = {"value": statistics.median_low(p[1] for p in probes),
                                         "unit": "count"}
        ov = res["overhead"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (ov["traced_pass_s"] - ov["untraced_pass_s"]) / ov["untraced_pass_s"],
            "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": at_reference_speed(fresh_s, fresh_cal), "unit": "s"},
            "pass_s": {"value": at_reference_speed(untraced, untraced_cal), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_info,
        "loadavg_end": list(os.getloadavg()),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "raw": {
            "pass_s_median": statistics.median(untraced),
            "pass_seconds": [p["seconds"] for p in passes],
            "pass_traced": [p["traced"] for p in passes],
            "pass_calibration_s": pass_cal,
            "fresh_s_median": statistics.median(fresh_s),
            "fresh_seconds": fresh_s,
            "fresh_calibration_s": fresh_cal,
            "reference_calibration_s": hostspeed.REFERENCE_S,
            "worker_import_s": res["import_s"],
        },
        "problems": problems,
        "failures": failures[:50],
        "failures_total_per_pass": len(failures),
        "run_wall_s": time.perf_counter() - t_start,
    }
    if args.trace:
        record["absent_targets"] = res["absent"]
        record["self_ms_by_layer"] = res["self_ms"]
        record["overhead"] = res["overhead"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "pass", "start_ns", "end_ns", "parent"],
                       "spans": res["spans"]}, fh)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cmcradius" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'cmcradius'} is missing", file=sys.stderr)
        return 2
    record = run(args)
    known = sum(f["known_fault"] for f in record["failures"])
    if known:
        print(f"{args.workload}  {known} rows per pass fail on the known near-threshold fault")
    for f in [f for f in record["failures"] if not f["known_fault"]][:5]:
        print(f"failed row: {f}")
    for p in record["problems"]:
        print(f"problem: {p}")
    for name, m in record["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted = {record['attempted']}  failed = {record['failed']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
