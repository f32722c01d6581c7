"""The timed process: imports `cmcradius.cli` once, then runs whole passes.

    python3 bench/worker.py PLAN.json RESULT.json

PLAN.json (written by run.py) names the commands of one pass, the run
length and whether to trace.  The worker runs from the directory that
holds the plan, so the commands' config, report and mesh files are all
there.  Besides the program, only the standard library and numpy (which
the program imports itself) are imported here, so peak RSS is the
program's.  In a traced run, traced and untraced passes
alternate, so the tracing overhead is measured in one process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import hostspeed
import layertrace

# Host-speed samples: one before each pass, and one before any later command
# of the pass when the last sample is older than this.
CALIBRATION_EVERY_S = 1.0


def _digest(path: str) -> str | None:
    """SHA-256 of a file the pass wrote, or None if it wrote none."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except FileNotFoundError:
        return None
    return h.hexdigest()


def _clear_oracle_memo(spaceforms) -> None:
    """Start each pass with the oracle memo cold, as a fresh process has it."""
    memo = getattr(spaceforms, "_scaled_marginal_radius", None)
    clear = getattr(memo, "cache_clear", None)
    if clear is not None:
        clear()


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(plan_path)))
    t0 = time.perf_counter()
    from cmcradius import cli, spaceforms

    import_s = time.perf_counter() - t0
    tracer = None
    if plan["trace"]:
        from cmcradius import algebra, bounds, discrete, mesh

        modules = {"cli": cli, "bounds": bounds, "algebra": algebra, "spaceforms": spaceforms,
                   "mesh": mesh, "discrete": discrete}
        tracer = layertrace.Tracer(modules)

    commands = plan["commands"]
    outputs = [[c["out"]] + ([c["mesh_out"]] if c.get("mesh_out") else []) for c in commands]
    passes, errors = [], []
    last_sample = 0.0
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 0
        _clear_oracle_memo(spaceforms)
        if traced:
            tracer.begin_pass(index // 2)
            tracer.install()
            run = lambda argv: tracer.run(cli.run, argv)  # noqa: E731
        else:
            run = cli.run
        codes, samples, elapsed = [], [], 0.0
        for c in commands:
            if not samples or time.perf_counter() - last_sample >= CALIBRATION_EVERY_S:
                samples.append(hostspeed.sample())
                last_sample = time.perf_counter()
            t = time.perf_counter()
            try:
                code = run(c["argv"])
            except Exception:  # a crashing command fails its rows; the run goes on
                code = "exception"
                errors.append(traceback.format_exc())
            elapsed += time.perf_counter() - t
            codes.append(code)
        if traced:
            tracer.uninstall()
        passes.append({
            "seconds": elapsed,
            "traced": traced,
            "exit_codes": codes,
            "calibration_s": samples,
            "digests": [[_digest(p) for p in outs] for outs in outputs],
        })
        done = time.perf_counter() - start >= plan["seconds"]
        untraced = sum(1 for p in passes if not p["traced"])
        if done and untraced >= plan["min_passes"] and len(passes) - untraced >= plan["min_traced"]:
            break
    result = {
        "import_s": import_s,
        "passes": passes,
        "final_calibration_s": hostspeed.sample(),
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        n = len(tracer.counters)
        aggregates = [tracer.pass_aggregates(i) for i in range(n)]
        result["per_layer"] = layertrace.per_layer_metrics(aggregates)
        result["absent"] = tracer.absent
        result["self_ms"] = [tracer.self_ms_by_layer(i) for i in range(n)]
        result["spans"] = tracer.spans
        plain = [p["seconds"] for p in passes if not p["traced"]]
        traced_s = [p["seconds"] for p in passes if p["traced"]]
        result["overhead"] = {"traced_pass_s": statistics.median(traced_s),
                              "untraced_pass_s": statistics.median(plain)}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
