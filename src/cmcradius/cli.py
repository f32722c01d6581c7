"""Command-line entry point: bound / cap / mesh / sweep subcommands.

Quantities are unit-normalized: curvatures in 1/length^2, mean curvature
in 1/length, distances in length.  Exit codes: 0 success, 1 failures or
internal errors, 2 hypothesis violations only, 64 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import math
import os
import re
import sys
from typing import TYPE_CHECKING

# Only standard-library modules load here, so `bound` and `cap` start fast:
# numpy is imported where `mesh` and the algebra sweep run, and spaceforms where
# a cap row is built.  No command loads scipy.
from . import __version__, bounds
from .errors import CmcRadiusError, NoApplicableBound
from .report import FORMATS, SweepReport, emit_report

if TYPE_CHECKING:
    from .mesh import MeshArrays

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _path_errors(path: str):
    """A file that cannot be opened, read, decoded or written is a usage error naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _check_output_path(path: str) -> None:
    """Reject, before any computation, an output path that is a directory or
    whose directory does not exist.  Nothing is created or truncated; any
    other error surfaces when the file is written."""
    with _path_errors(path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(os.path.dirname(path) or ".")


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: they resolve alike, or both exist and are one file (hard links)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return False


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # An argument that starts with "-" is an option unless this matches it.  argparse's own
        # pattern misses exponents and non-finite values: "--K -1e-3" is a value, and "--K -inf"
        # reaches _finite, which rejects it.  The subparsers are _Parsers too.
        self._negative_number_matcher = re.compile(r"(?i)^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$")

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
    """Comma-separated distinct non-negative integers; `run` checks them against mesh.MAX_LEVEL."""
    levels = [_integer(v) for v in text.split(",") if v.strip()]
    if not levels or len(set(levels)) < len(levels):
        raise argparse.ArgumentTypeError(f"expected one or more distinct levels, got {text!r}")
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
    p_sweep.add_argument("--seed", type=_integer, default=0)

    for p in (p_bound, p_cap, p_mesh, p_sweep):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, default="table", choices=FORMATS)
    return parser


def parse_config(path: str) -> dict[str, list[str]]:
    """Flat key-value config; repeated keys accumulate into grids."""
    grids: dict[str, list[str]] = {}
    with _path_errors(path), open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            grids.setdefault(key, []).append(value)
    return grids


#: The BoundResult columns of a row where no bound applies.
_NO_BOUND = dict.fromkeys(bounds.BoundResult._fields)


def _bound_row(n: int, delta: float, H: float, K: float, S: float | None) -> dict:
    """The inputs, then the BoundResult's fields (None where no bound applies), then status and reason."""
    inputs = {"n": n, "delta": delta, "H": H, "K": K, "S": S}
    try:
        res = bounds.best_bound(bounds.BoundInput(n=n, delta=delta, H=H, K_inf=K, S_inf=S))
    except NoApplicableBound as exc:
        return {**inputs, **_NO_BOUND, "status": "not-applicable", "reason": str(exc)}
    return {**inputs, **res._asdict(), "status": "pass", "reason": ""}


def _cap_row(n: int, kappa: float, delta: float, H: float) -> dict:
    from . import spaceforms

    return spaceforms.verify_cap_bound(n, kappa, H, delta)._asdict()


def _mesh_rows(kappa, H, rho, delta, levels) -> tuple[list[dict], dict, MeshArrays]:
    from . import discrete

    rep = discrete.mesh_verify(kappa, H, rho, delta, levels)
    rows = [{"kappa": kappa, "H": H, "rho": rho, "delta": delta, **level._asdict()} for level in rep.levels]
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


#: Largest `samples` an algebra sweep accepts.  The sweep holds every
#: sample of a dimension at once (samples * n^2 floats, 12.8 MB for n = 4),
#: so the limit bounds its memory as well as its run time.
MAX_SAMPLES = 100_000


def _samples(text: str) -> int:
    """An algebra sweep's sample count, an integer in [1, MAX_SAMPLES]."""
    value = _integer(text, 1)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_SAMPLES}, got {value}")
    return value


#: The config keys each sweep mode reads, in read order, as key -> (parser,
#: default grid, or None if the key is required).  Every mode reads "mode";
#: any other key is a usage error.
SWEEP_KEYS = {
    "cap": {"n": (_dimension, [2]), "kappa": (_finite, [0.0]), "delta": (_finite, [0.0]),
            "H": (_finite, None)},
    "bound": {"n": (_dimension, [2]), "delta": (_finite, [0.0]), "H": (_finite, None),
              "K": (_finite, [0.0]), "S": (_finite, [None])},
    "algebra": {"n": (_dimension, [2, 3, 4]), "samples": (_samples, [1000])},
}
#: Keys that take one value, not a grid.
_SETTINGS = ("mode", "samples")


def _values(grids: dict, key: str, parse, default) -> list:
    """The parsed grid of `key`."""
    if key not in grids:
        if default is None:
            raise UsageError(f"config is missing required key {key!r}")
        return default
    try:
        return [parse(v) for v in grids[key]]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None


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
    if mode == "algebra":
        ns, (samples,) = values
        report.rows = _algebra_rows(sorted(ns), samples, args.seed)
    else:
        row = _cap_row if mode == "cap" else _bound_row
        cases = sorted(itertools.product(*values), key=lambda t: tuple(
            -1.0 if x is None else float(x) for x in t))
        report.rows = [row(*case) for case in cases]
    return report


def _exit_code(report: SweepReport) -> int:
    s = report.summary
    if s["fail"] > 0:
        return EXIT_FAIL
    if s["pass"] == 0 and s["not_applicable"] > 0:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        outputs = [path for path in (args.out, vars(args).get("mesh_out")) if path]
        for path in outputs:
            _check_output_path(path)
        for flag, other in (("--mesh-out", vars(args).get("mesh_out")), ("--config", vars(args).get("config"))):
            if args.out and other and _same_file(args.out, other):  # the report would replace that file
                raise UsageError(f"--out {args.out} and {flag} {other} name one file")
        metadata = {"tool": "cmcradius", "version": __version__}
        if args.command == "bound":
            report = SweepReport(kind="bound", metadata=metadata)
            report.rows = [_bound_row(args.n, args.delta, args.H, args.K, args.S)]
        elif args.command == "cap":
            report = SweepReport(kind="cap", metadata=metadata)
            report.rows = [_cap_row(args.n, args.kappa, args.delta, args.H)]
        elif args.command == "mesh":
            from . import mesh

            if max(args.levels) > mesh.MAX_LEVEL:
                raise UsageError(f"argument --levels: expected levels at most {mesh.MAX_LEVEL}, "
                                 f"got {max(args.levels)}")
            rows, meta, finest = _mesh_rows(args.kappa, args.H, args.rho, args.delta, args.levels)
            metadata = dict(metadata, **meta)
            report = SweepReport(kind="mesh", metadata=metadata, rows=rows)
            if args.mesh_out:
                with _path_errors(args.mesh_out):
                    mesh.save_mesh(finest, args.mesh_out)
        else:
            report = _run_sweep(args)
        text = emit_report(report, args.format)
        if args.out:
            with _path_errors(args.out), open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)  # a broken pipe here is not a usage error
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CmcRadiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return _exit_code(report)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
