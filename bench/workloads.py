"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of `cmcradius` commands (one pass).  The
seed jitters the numeric inputs inside cells chosen so that every seed
gives the same number of rows, the same expected status and route for
every row, and so about the same cost per pass: run-to-run spread then
comes from the host, not from the inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks

WORKLOADS = ("bound-sweep", "cap-sweep", "mesh-refine")

# bound-sweep grid cells: 3 n x 12 delta x 10 H x 4 K x 3 S = 4,320 rows.
# Delta cells sit at least 0.01 from the thresholds 19/64 (n=4), 7/12
# (n=3), 3/4 (scalar route) and 27/32 (n=2); the last cell is past all.
BOUND_DELTAS = (0.0, 0.06, 0.13, 0.2, 0.26, 0.35, 0.45, 0.53, 0.64, 0.71, 0.8, 0.9)
BOUND_DELTA_JITTER = 0.01
# |H| on both sides of 2*sqrt(|K|) for K = -1 (threshold 2) and K = -0.3
# (threshold ~1.1).
BOUND_HS = (0.3, 0.8, 1.25, 1.6, 2.4, 2.9, 3.5, 4.2, 5.5, 7.0)
BOUND_KS = (-1.0, -0.3, 0.0, 0.5)
BOUND_SS = (-20.0, -2.0, 4.0)
REL_JITTER = 0.03
# No row may lie closer than this (relative) to an edge that decides its status.
EDGE_MARGIN = 1e-3

# Rows on which the program is known to fail; they do not depend on the
# seed.  delta lies 1e-11..1e-9 below delta_threshold(n): the exact
# k-interval spans many floats and B > 0 on it, but KInterval.interior()
# pads by width * 1e-9, below the float spacing of 4/(n-1), so the k grid
# reaches 4/(n-1) and coeff_A raises.  The program reports these rows
# not-applicable where a finite bound exists.
NEAR_THRESHOLD_EPS = (1e-11, 1e-10, 1e-9)
NEAR_THRESHOLD_HS = (1.5, 3.0)
NEAR_THRESHOLD_KS = (-0.05, 0.0)

ALGEBRA_SAMPLES = 1000

# cap-sweep: 3 n x 3 kappa x 12 delta x 4 H = 432 rows, 36 distinct (n, delta).
CAP_DELTAS = (0.0, 0.05, 0.12, 0.2, 0.27, 0.33, 0.42, 0.5, 0.56, 0.65, 0.72, 0.85)
CAP_DELTA_JITTER = 0.008
CAP_HS = (1.3, 2.3, 3.1, 4.6)
CAP_REL_JITTER = 0.02
CAP_KAPPAS = (-1.0, 0.0, 1.0)

MESH_LEVELS = (3, 4, 5, 6, 7)
# One study per model: (kappa, H range, delta range, scaled radius s).
# The vertex count depends only on s = rho * sqrt(kappa + H^2), so s is
# held within 0.2 % and the per-pass cost does not move with the seed.
# s = 1.25 and 1.4 give stable caps, s = 1.9 (past the hemisphere) an
# unstable one, each far from the "marginal" band.
MESH_STUDIES = (
    (-1.0, (2.4, 3.0), (0.0, 0.3), 1.25),
    (0.0, (1.5, 3.0), (0.0, 0.1), 1.9),
    (1.0, (0.5, 2.0), (0.3, 0.6), 1.4),
)
MESH_S_JITTER = 0.002


@dataclass
class Command:
    """One CLI invocation of a pass.

    `grid` is the sweep's input grid (also written as its config file);
    `params` holds a mesh study's inputs.  The report goes to `<name>.json`.
    """

    name: str
    kind: str  # "bound", "algebra", "cap" or "mesh"
    argv: list[str]
    grid: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @property
    def config(self) -> str | None:
        return f"{self.name}.cfg" if self.grid else None

    def cases(self) -> list[tuple]:
        return _cases(self.kind, self.grid)


def _cases(kind: str, grid: dict) -> list[tuple]:
    """A sweep's rows: (n, delta, H, K, S) for bound, (n, kappa, H, delta) for cap."""
    keys = {"bound": ("n", "delta", "H", "K", "S"), "cap": ("n", "kappa", "H", "delta")}[kind]
    return list(itertools.product(*(grid.get(k, [None]) for k in keys)))


@dataclass
class Plan:
    commands: list[Command]
    setup_argv: list[str]  # the workload's smallest command, for setup_s
    known_faults: set = field(default_factory=set)  # (n, delta) of rows expected to fail


def _r(x: float) -> str:
    return repr(float(x))


def _sweep(name: str, kind: str, grid: dict, extra=()) -> Command:
    return Command(name, kind, ["sweep", "--config", f"{name}.cfg", *extra], grid=grid)


def config_text(cmd: Command) -> str:
    lines = [f"mode = {cmd.kind}"]
    for key, values in cmd.grid.items():
        lines.extend(f"{key} = {v if isinstance(v, int) else _r(v)}" for v in values if v is not None)
    return "\n".join(lines) + "\n"


def _statuses(kind: str, grid: dict) -> tuple | None:
    """Expected status of every row, or None if a row lies near a decision edge."""
    expect = checks.expected_bound if kind == "bound" else checks.expected_cap
    out = []
    for case in _cases(kind, grid):
        exp = expect(*case)
        if exp.margin < EDGE_MARGIN:
            return None
        out.append(exp.status)
    return tuple(out)


def _jittered(rng: random.Random, kind: str, centers: dict, jitter: dict) -> dict:
    """`centers` with each value moved by up to its key's jitter, redrawn until
    every row keeps the status it has at the centers.

    delta moves by an absolute amount (delta = 0 stays exact), the other
    keys by a relative one.
    """
    template = _statuses(kind, centers)
    assert template is not None, "a grid center lies near a decision edge"
    for _ in range(200):
        grid = {}
        for key, values in centers.items():
            r = jitter.get(key, 0.0)
            if key == "delta":
                grid[key] = [v + r * (2.0 * rng.random() - 1.0) if v else v for v in values]
            else:
                grid[key] = [v * (1.0 + r * (2.0 * rng.random() - 1.0)) if r else v for v in values]
        if _statuses(kind, grid) == template:
            return grid
    raise RuntimeError(f"no seeded {kind} grid keeps the statuses of its centers")


def near_threshold_deltas() -> list[float]:
    return sorted(float(checks.delta_threshold(n) - Fraction(eps)) for n in (2, 3, 4)
                  for eps in NEAR_THRESHOLD_EPS)


def make_plan(workload: str, seed: int) -> Plan:
    """The commands of one pass, from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bound-sweep":
        grid = _jittered(rng, "bound", {"n": [2, 3, 4], "delta": list(BOUND_DELTAS), "H": list(BOUND_HS),
                                        "K": list(BOUND_KS), "S": list(BOUND_SS)},
                         {"delta": BOUND_DELTA_JITTER, "H": REL_JITTER, "K": REL_JITTER, "S": REL_JITTER})
        near = near_threshold_deltas()
        commands = [
            _sweep("bound", "bound", grid),
            _sweep("near", "bound", {"n": [2, 3, 4], "delta": near, "H": list(NEAR_THRESHOLD_HS),
                                     "K": list(NEAR_THRESHOLD_KS)}),
            _sweep("algebra", "algebra", {"n": [2, 3, 4], "samples": [ALGEBRA_SAMPLES]},
                   ("--seed", str(rng.randrange(2**31)))),
        ]
        known = {(n, d) for n in (2, 3, 4) for d in near
                 if 0 < checks.delta_threshold(n) - Fraction(d) <= Fraction(2, 10**9)}
        setup = ["bound", "--n", "2", "--delta", _r(grid["delta"][1]), "--H", _r(grid["H"][5]),
                 "--K", _r(grid["K"][0])]
        return Plan(commands, setup, known)
    if workload == "cap-sweep":
        grid = _jittered(rng, "cap", {"n": [2, 3, 4], "kappa": list(CAP_KAPPAS), "delta": list(CAP_DELTAS),
                                      "H": list(CAP_HS)}, {"delta": CAP_DELTA_JITTER, "H": CAP_REL_JITTER})
        setup = ["cap", "--n", "2", "--kappa", "-1", "--H", _r(grid["H"][1]), "--delta", _r(grid["delta"][1])]
        return Plan([_sweep("cap", "cap", grid)], setup)
    if workload == "mesh-refine":
        commands = []
        for i, (kappa, (h_lo, h_hi), (d_lo, d_hi), s) in enumerate(MESH_STUDIES):
            H = rng.uniform(h_lo, h_hi)
            delta = rng.uniform(d_lo, d_hi)
            s_j = s * (1.0 + MESH_S_JITTER * (2.0 * rng.random() - 1.0))
            rho = s_j / math.sqrt(kappa + H * H)
            params = {"kappa": kappa, "H": H, "rho": rho, "delta": delta,
                      "levels": list(MESH_LEVELS), "mesh_out": f"mesh{i}.txt"}
            argv = ["mesh", "--kappa", _r(kappa), "--H", _r(H), "--rho", _r(rho), "--delta", _r(delta),
                    "--levels", ",".join(map(str, MESH_LEVELS)), "--mesh-out", params["mesh_out"]]
            commands.append(Command(f"mesh{i}", "mesh", argv, params=params))
        first = commands[0].params
        setup = ["mesh", "--kappa", _r(first["kappa"]), "--H", _r(first["H"]), "--rho", _r(first["rho"]),
                 "--delta", _r(first["delta"]), "--levels", "3"]
        return Plan(commands, setup)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
