"""Outside-in tracing of the `cmcradius` modules, used only by traced runs.

Shims replace module attributes at the place where each caller looks the
name up (`from` imports bind names inside `discrete` and `cli`, so those
bindings are replaced there).  Each shimmed call records a span (name,
pass, start, end, parent span); counters are taken at the same
boundaries.  Everything stays in memory until the run writes it out.  A
target attribute that the program no longer has is listed as absent and
its metrics read 0.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

# (span name, module, attribute); several bindings may feed one span name.
SPAN_TARGETS = (
    ("report.emit", "cli", "emit_report"),
    ("bounds.best_bound", "bounds", "best_bound"),
    ("algebra.check", "algebra", "check_traceless_crude"),
    ("algebra.check", "algebra", "check_potential_remainder"),
    ("spaceforms.verify_cap_bound", "spaceforms", "verify_cap_bound"),
    ("spaceforms.lambda1_ball", "spaceforms", "lambda1_ball"),
    ("spaceforms.lambda1_ball", "discrete", "lambda1_ball"),
    ("mesh.build", "mesh", "build_cap_mesh"),
    ("mesh.build", "discrete", "build_cap_mesh"),
    ("mesh.edge_face_counts", "mesh", "edge_face_counts"),
    ("mesh.intrinsic_radius", "mesh", "intrinsic_radius"),
    ("mesh.intrinsic_radius", "discrete", "intrinsic_radius"),
    ("mesh.save", "mesh", "save_mesh"),
    ("discrete.face_edge_lengths", "discrete", "face_edge_lengths"),
    ("discrete.assemble", "discrete", "assemble_stability"),
    ("discrete.lambda1_dirichlet", "discrete", "lambda1_dirichlet"),
)
# Called ~300k times per bound-sweep pass: counted, not spanned.
COUNT_TARGETS = (("bounds.coeff_B", "bounds", "coeff_B"),)
ODE = ("spaceforms.ode", "spaceforms", "solve_ivp")
SPLU = ("discrete.splu", "discrete", "splu")

# Per-layer metrics: name -> (unit, function of one pass's aggregates).
PER_LAYER = {
    "report.emit_ms": ("ms", lambda a: a.ms("report.emit")),
    "bounds.best_bound_ms": ("ms", lambda a: a.ms("bounds.best_bound")),
    "bounds.best_bound_us_p50": ("us", lambda a: a.p50_us("bounds.best_bound")),
    "bounds.coeff_evals_per_call": ("count", lambda a: a.ratio("bounds.coeff_B", "bounds.best_bound")),
    "algebra.check_ms": ("ms", lambda a: a.ms("algebra.check")),
    "spaceforms.ode_solves": ("count", lambda a: a.calls("spaceforms.ode")),
    "spaceforms.ode_rhs_evals": ("count", lambda a: a.counters["spaceforms.ode_rhs_evals"]),
    "spaceforms.ode_ms": ("ms", lambda a: a.ms("spaceforms.ode")),
    "spaceforms.verify_cap_bound_ms": ("ms", lambda a: a.ms("spaceforms.verify_cap_bound")),
    "spaceforms.lambda1_ball_ms": ("ms", lambda a: a.ms("spaceforms.lambda1_ball")),
    "mesh.build_calls": ("count", lambda a: a.calls("mesh.build")),
    "mesh.build_ms": ("ms", lambda a: a.ms("mesh.build")),
    "mesh.edge_face_counts_calls": ("count", lambda a: a.calls("mesh.edge_face_counts")),
    "mesh.edge_face_counts_ms": ("ms", lambda a: a.ms("mesh.edge_face_counts")),
    "mesh.intrinsic_radius_ms": ("ms", lambda a: a.ms("mesh.intrinsic_radius")),
    "mesh.save_ms": ("ms", lambda a: a.ms("mesh.save")),
    "discrete.face_edge_lengths_calls": ("count", lambda a: a.calls("discrete.face_edge_lengths")),
    "discrete.assemble_ms": ("ms", lambda a: a.ms("discrete.assemble")),
    "discrete.lambda1_dirichlet_ms": ("ms", lambda a: a.ms("discrete.lambda1_dirichlet")),
    "discrete.splu_ms": ("ms", lambda a: a.ms("discrete.splu")),
    "discrete.lu_fill_nnz": ("count", lambda a: a.counters["discrete.lu_fill_nnz"]),
    "discrete.inverse_iters": ("count", lambda a: a.counters["discrete.inverse_iters"]),
}


class _CountingLU:
    """Forwards to a SuperLU factor and counts its solves."""

    def __init__(self, lu, counters: Counter):
        self._lu = lu
        self._counters = counters

    def solve(self, *args, **kwargs):
        self._counters["discrete.inverse_iters"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs the shims, and records spans and counters per pass."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.spans: list[tuple] = []  # (name, pass, start_ns, end_ns, parent index)
        self.counters: list[Counter] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pass = -1

    # -- recording --------------------------------------------------------
    def begin_pass(self, index: int) -> None:
        self._pass = index
        self.counters.append(Counter())

    def _spanned(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, self._pass, start, end, parent)
            return on_result(result) if on_result else result

        return shim

    def _counted(self, name: str, fn):
        def shim(*args, **kwargs):
            self.counters[-1][name] += 1
            return fn(*args, **kwargs)

        return shim

    def _ode_result(self, sol):
        self.counters[-1]["spaceforms.ode_rhs_evals"] += int(getattr(sol, "nfev", 0))
        return sol

    def _lu_result(self, lu):
        c = self.counters[-1]
        c["discrete.lu_fill_nnz"] += int(lu.L.nnz + lu.U.nnz)
        return _CountingLU(lu, c)

    def run(self, fn, *args):
        """Call fn inside a root span, so a command's own time is traced too."""
        return self._spanned("cli.run", fn)(*args)

    # -- installing -------------------------------------------------------
    def _patch(self, module: str, attr: str, make) -> None:
        mod = self.modules.get(module)
        if mod is None or not hasattr(mod, attr):
            self.absent.append(f"{module}.{attr}")
            return
        original = getattr(mod, attr)
        self._patches.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self) -> None:
        self.absent = []
        for name, module, attr in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._spanned(name, fn))
        for name, module, attr in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._counted(name, fn))
        self._patch(ODE[1], ODE[2], lambda fn: self._spanned(ODE[0], fn, self._ode_result))
        self._patch(SPLU[1], SPLU[2], lambda fn: self._spanned(SPLU[0], fn, self._lu_result))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    # -- aggregating ------------------------------------------------------
    def pass_aggregates(self, index: int) -> "PassAggregates":
        return PassAggregates([s for s in self.spans if s[1] == index], self.counters[index])

    def self_ms_by_layer(self, index: int) -> dict[str, float]:
        """Per-module self time of one pass: span time minus its child spans' time."""
        child = Counter()
        for name, p, start, end, parent in self.spans:
            if p == index and parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, p, start, end, parent) in enumerate(self.spans):
            if p == index:
                out[name.split(".")[0]] += (end - start - child[i]) / 1e6
        return dict(out)


class PassAggregates:
    def __init__(self, spans: list[tuple], counters: Counter):
        self.durations: dict[str, list[int]] = {}
        for name, _, start, end, _ in spans:
            self.durations.setdefault(name, []).append(end - start)
        self.counters = counters

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ())) or self.counters[name]

    def ms(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / 1e6

    def p50_us(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) / 1e3 if d else 0.0

    def ratio(self, num: str, den: str) -> float:
        d = self.calls(den)
        return self.calls(num) / d if d else 0.0


def per_layer_metrics(aggregates: list[PassAggregates]) -> dict[str, dict]:
    """Median over the traced passes of every per-layer metric (counts stay exact)."""
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        values = [fn(a) for a in aggregates] or [0]
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = {"value": median(values), "unit": unit}
    return out
