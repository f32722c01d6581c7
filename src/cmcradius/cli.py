"""Command-line entry point: bound / cap / mesh / sweep subcommands.

Quantities are unit-normalized: curvatures in 1/length^2, mean curvature
in 1/length, distances in length.  Exit codes: 0 success, 1 failures or
internal errors, 2 hypothesis violations only, 64 usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import TYPE_CHECKING

# Only standard-library modules load here, so `bound` and `cap` start fast:
# the numpy and scipy modules are imported where `mesh` and the algebra sweep run.
from . import __version__, bounds, spaceforms
from .errors import CmcRadiusError, NoApplicableBound
from .report import FORMATS, SweepReport, emit_report

if TYPE_CHECKING:
    from .mesh import TriMesh

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite(text: str) -> float:
    """A finite float; anything else (including inf and nan) is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str, lo: int = 0) -> int:
    """An integer >= lo; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < lo:
        raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
    return value


def _dimension(text: str) -> int:
    """A hypersurface dimension in bounds.SUPPORTED_DIMENSIONS."""
    value = _integer(text)
    if value not in bounds.SUPPORTED_DIMENSIONS:
        raise argparse.ArgumentTypeError(
            f"expected a dimension in {bounds.SUPPORTED_DIMENSIONS}, got {text!r}")
    return value


def _levels(text: str) -> list[int]:
    """Comma-separated distinct refinement levels, each an integer in [0, mesh.MAX_LEVEL]."""
    from .mesh import MAX_LEVEL

    levels = [_integer(v) for v in text.split(",") if v.strip()]
    if not levels or len(set(levels)) < len(levels) or max(levels) > MAX_LEVEL:
        raise argparse.ArgumentTypeError(
            f"expected one or more distinct levels, each at most {MAX_LEVEL}, got {text!r}")
    return levels


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmcradius", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the optimized distance bound")
    p_bound.add_argument("--n", type=_dimension, required=True)
    p_bound.add_argument("--delta", type=_finite, required=True)
    p_bound.add_argument("--H", type=_finite, required=True)
    p_bound.add_argument("--K", type=_finite, default=0.0, help="ambient sectional curvature lower bound")
    p_bound.add_argument("--S", type=_finite, default=None, help="ambient scalar curvature lower bound (n=2)")

    p_cap = sub.add_parser("cap", help="check the bound against the spectral cap oracle")
    p_cap.add_argument("--n", type=_dimension, required=True)
    p_cap.add_argument("--kappa", type=_finite, required=True)
    p_cap.add_argument("--H", type=_finite, required=True)
    p_cap.add_argument("--delta", type=_finite, required=True)

    p_mesh = sub.add_parser("mesh", help="discrete verification on triangulated caps")
    p_mesh.add_argument("--kappa", type=_finite, required=True)
    p_mesh.add_argument("--H", type=_finite, required=True)
    p_mesh.add_argument("--rho", type=_finite, required=True)
    p_mesh.add_argument("--delta", type=_finite, required=True)
    p_mesh.add_argument("--levels", type=_levels, default="3,4,5")
    p_mesh.add_argument("--mesh-out", type=str, default=None, help="export finest mesh (plain text)")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("--config", type=str, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)

    for p in (p_bound, p_cap, p_mesh, p_sweep):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, default="table", choices=FORMATS)
    return parser


def parse_config(path: str) -> dict[str, list[str]]:
    """Flat key-value config; repeated keys accumulate into grids."""
    grids: dict[str, list[str]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            grids.setdefault(key, []).append(value)
    return grids


def _bound_row(n: int, delta: float, H: float, K: float, S: float | None) -> dict:
    row = {"n": n, "delta": delta, "H": H, "K": K, "S": S}
    try:
        res = bounds.best_bound(bounds.BoundInput(n=n, delta=delta, H=H, K_inf=K, S_inf=S))
    except NoApplicableBound as exc:
        row.update(k_star=None, A=None, B=None, c=None, source=None,
                   status="not-applicable", reason=str(exc))
        return row
    row.update(k_star=res.k_star, A=res.A, B=res.B, c=res.c, source=res.source,
               status="pass", reason="")
    return row


def _cap_row(n: int, kappa: float, H: float, delta: float) -> dict:
    return vars(spaceforms.verify_cap_bound(n, kappa, H, delta))


def _mesh_rows(kappa, H, rho, delta, levels) -> tuple[list[dict], dict, TriMesh]:
    from . import discrete

    rep = discrete.mesh_verify(kappa, H, rho, delta, levels)
    rows = [{"kappa": kappa, "H": H, "rho": rho, "delta": delta, **vars(level)} for level in rep.levels]
    meta = {key: getattr(rep, key) for key in ("oracle_lambda1", "c_best", "convergence_order",
                                                "agrees_with_oracle")}
    return rows, meta, rep.finest_mesh


def _algebra_rows(ns: list[int], samples: int, seed: int) -> list[dict]:
    import numpy as np

    from . import algebra

    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        phi, k = algebra.sweep_sample(n, samples, bounds.k_interval(n, 0.0), rng)
        min_crude = float(algebra.check_traceless_crude(phi).min())
        min_rem = float(algebra.check_potential_remainder(phi, k, 0.0).min())
        ok = min_crude >= -1e-12 and min_rem >= -1e-12
        rows.append({
            "n": n, "samples": samples, "min_crude_slack": min_crude,
            "min_remainder": min_rem, "status": "pass" if ok else "fail",
        })
    return rows


def _samples(text: str) -> int:
    """An algebra sweep's sample count, an integer in [1, algebra.MAX_SAMPLES]."""
    from .algebra import MAX_SAMPLES

    value = _integer(text, 1)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_SAMPLES}, got {value}")
    return value


#: The config keys each sweep mode reads, in read order, as key -> (parser,
#: default).  The default is a grid (a list), None if the key is required, or
#: one value for a setting, which takes one value.  Every mode reads "mode";
#: any other key is a usage error.
SWEEP_KEYS = {
    "cap": {"n": (_dimension, [2]), "kappa": (_finite, [0.0]), "delta": (_finite, [0.0]),
            "H": (_finite, None)},
    "bound": {"n": (_dimension, [2]), "delta": (_finite, [0.0]), "H": (_finite, None),
              "K": (_finite, [0.0]), "S": (_finite, [None])},
    "algebra": {"n": (_dimension, [2, 3, 4]), "samples": (_samples, 1000)},
}
_SETTINGS = ("mode", *(key for keys in SWEEP_KEYS.values() for key, (_, default) in keys.items()
                       if default is not None and not isinstance(default, list)))


def _values(grids: dict, key: str, parse, default):
    """The parsed grid of `key`, or the one value of a setting."""
    if key not in grids:
        if default is None:
            raise UsageError(f"config is missing required key {key!r}")
        return default
    try:
        values = [parse(v) for v in grids[key]]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None
    return values[0] if key in _SETTINGS else values


def _run_sweep(args) -> SweepReport:
    grids = parse_config(args.config)
    for key in _SETTINGS:
        if len(grids.get(key, ())) > 1:
            raise UsageError(f"config key {key!r} takes one value, got {len(grids[key])}")
    mode = grids.get("mode", ["cap"])[0]
    metadata = {"tool": "cmcradius", "version": __version__, "mode": mode, "seed": args.seed}
    report = SweepReport(kind=f"sweep-{mode}", metadata=metadata)
    if mode not in SWEEP_KEYS:
        raise UsageError(f"unknown sweep mode {mode!r} (expected cap, bound or algebra)")
    unread = sorted(set(grids) - {"mode", *SWEEP_KEYS[mode]})
    if unread:
        raise UsageError(f"config key {unread[0]!r} is not read in {mode} mode")
    values = [_values(grids, key, *spec) for key, spec in SWEEP_KEYS[mode].items()]
    if mode == "cap":
        cases = sorted(itertools.product(*values))
        report.rows = [_cap_row(n, kappa, H, delta) for n, kappa, delta, H in cases]
    elif mode == "bound":
        cases = sorted(itertools.product(*values), key=lambda t: tuple(
            -1.0 if x is None else float(x) for x in t))
        report.rows = [_bound_row(*case) for case in cases]
    else:
        ns, samples = values
        report.rows = _algebra_rows(sorted(ns), samples, args.seed)
    return report


def _exit_code(report: SweepReport) -> int:
    s = report.summary
    if s["fail"] > 0:
        return EXIT_FAIL
    if s["pass"] == 0 and s["not_applicable"] > 0:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        metadata = {"tool": "cmcradius", "version": __version__}
        if args.command == "bound":
            report = SweepReport(kind="bound", metadata=metadata)
            report.rows = [_bound_row(args.n, args.delta, args.H, args.K, args.S)]
        elif args.command == "cap":
            report = SweepReport(kind="cap", metadata=metadata)
            report.rows = [_cap_row(args.n, args.kappa, args.H, args.delta)]
        elif args.command == "mesh":
            from . import mesh

            rows, meta, finest = _mesh_rows(args.kappa, args.H, args.rho, args.delta, args.levels)
            metadata = dict(metadata, **meta)
            report = SweepReport(kind="mesh", metadata=metadata, rows=rows)
            if args.mesh_out:
                mesh.save_mesh(finest, args.mesh_out)
        else:
            report = _run_sweep(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CmcRadiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL

    text = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _exit_code(report)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
