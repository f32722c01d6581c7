"""Independent references and per-row checks of `cmcradius` reports.

Nothing here imports the program.  Expected statuses come from the
paper's hypotheses evaluated in exact rational arithmetic, bounds from a
closed-form minimiser of A/B over the exact k-interval, cap radii from
closed forms and special-function roots (mpmath), and mesh files are
re-read and checked against the model's constraint surface.  Every check
returns the reasons a row fails, so a row passes when the list is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

mp.mp.dps = 20

# The reports round floats to 12 significant digits.
REPORT_DIGITS = 12
ROUND_REL = 5e-12
# c may exceed the infimum over k only by what the program's clamp of k to
# 1e-9 of the interval width inside its ends allows (4e-10 seen).
C_ABOVE_INF_REL = 1e-8
# Scaled cap radius and ball eigenvalue agreement with the references.
RHO_REL = 1e-9
ORACLE_LAMBDA_REL = 1e-7
# P1 FEM: eigenvalue error O(h^2), so about fourfold per level.
ERROR_RATIO_BAND = (3.0, 5.5)
ORDER_BAND = (1.8, 2.3)
MARGINAL_BAND = 0.02
CONSTRAINT_REL = 1e-9
SLACK_FLOOR = -1e-12


def rounded(x):
    """A float as the reports print it."""
    return None if x is None else float(f"{x:.{REPORT_DIGITS}g}")


def rel_diff(a, b) -> float:
    return float(abs(mp.mpf(a) - mp.mpf(b)) / abs(mp.mpf(b)))


def delta_threshold(n: int) -> Fraction:
    """Largest delta with a nonempty k-interval: 1 - 5(n-1)^2/(16n)."""
    return 1 - Fraction(5 * (n - 1) ** 2, 16 * n)


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


@dataclass
class Expected:
    status: str  # "pass" or "not-applicable"
    source: str | None = None
    c: object = None  # mpf
    c_sectional: object = None
    c_scalar: object = None
    k_lo: Fraction | None = None
    k_hi: Fraction | None = None
    margin: float = math.inf  # relative distance of the inputs to a decision edge


def sectional_infimum(n: int, d: Fraction, H: Fraction, K: Fraction):
    """Infimum of pi*sqrt(A/B) over k in (lo, hi) with B(k) > 0, or None.

    A/B = 4(a1 k + a0) / ((4 - (n-1)k)(b1 k + b0)) with a1 = 2-n,
    a0 = n-1, b1 = n(1-d)(H^2 + min(0,K)), b0 = (-n^2+5n-5)H^2 +
    (n-1)min(0,K).  Its stationarity condition is the quadratic
    a1 m b1 k^2 + 2 a0 m b1 k + (4 a1 b0 - 4 a0 b1 + a0 m b0) = 0, m = n-1,
    so the infimum is at a real root inside the interval or at an end.
    """
    m, a1, a0 = n - 1, 2 - n, n - 1
    Km = min(Fraction(0), K)
    b1 = n * (1 - d) * (H * H + Km)
    b0 = (-n * n + 5 * n - 5) * H * H + (n - 1) * Km
    lo, hi = Fraction(5 * (n - 1), 4 * n) / (1 - d), Fraction(4, n - 1)
    if b1 <= 0 or b1 * hi + b0 <= 0:
        return None

    def ratio(k):
        return 4 * (a1 * k + a0) / ((4 - m * k) * (b1 * k + b0))

    left = max(lo, -b0 / b1)
    cands = []
    if b1 * lo + b0 > 0:
        cands.append(_mpf(ratio(lo)))
    if n == 3:  # A = 2 for every k, so A/B decreases towards hi
        cands.append(_mpf(Fraction(2) / (b1 * hi + b0)))
    qa, qb, qc = a1 * m * b1, 2 * a0 * m * b1, 4 * a1 * b0 - 4 * a0 * b1 + a0 * m * b0
    roots = []
    if qa == 0:
        if qb != 0:
            roots.append(_mpf(-qc / qb))
    else:
        disc = qb * qb - 4 * qa * qc
        if disc >= 0:
            sq = mp.sqrt(_mpf(disc))
            roots += [(-_mpf(qb) + sq) / (2 * _mpf(qa)), (-_mpf(qb) - sq) / (2 * _mpf(qa))]
    for r in roots:
        if _mpf(left) < r < _mpf(hi):
            cands.append(4 * (a1 * r + a0) / ((4 - m * r) * (_mpf(b1) * r + _mpf(b0))))
    return mp.pi * mp.sqrt(min(cands))


def scalar_bound(d: Fraction, H: Fraction, S: Fraction):
    """n = 2 scalar route c = 2 pi sqrt((1-d)/((3-4d)(3H^2+S))), or None."""
    if d >= Fraction(3, 4) or 3 * H * H + S <= 0:
        return None
    return 2 * mp.pi * mp.sqrt(_mpf((1 - d) / ((3 - 4 * d) * (3 * H * H + S))))


@lru_cache(maxsize=None)
def expected_bound(n: int, delta: float, H: float, K: float, S: float | None) -> Expected:
    """Status, route and bound that the paper's hypotheses give for one row."""
    d, h, k = Fraction(delta), Fraction(H), Fraction(K)
    margins = [abs(float(d - delta_threshold(n)))]
    exp = Expected(status="not-applicable")
    Km = min(Fraction(0), k)
    if Km < 0:
        margins.append(float(abs(h * h + 4 * Km) / (h * h - 4 * Km)))
    if d < delta_threshold(n) and h * h > -4 * Km:
        exp.k_lo, exp.k_hi = Fraction(5 * (n - 1), 4 * n) / (1 - d), Fraction(4, n - 1)
        b1 = n * (1 - d) * (h * h + Km)
        b0 = (-n * n + 5 * n - 5) * h * h + (n - 1) * Km
        margins.append(float(abs(b1 * exp.k_hi + b0) / (abs(b1 * exp.k_hi) + abs(b0))))
        exp.c_sectional = sectional_infimum(n, d, h, k)
    if n == 2 and S is not None:
        s = Fraction(S)
        margins.append(abs(float(d) - 0.75))
        margins.append(float(abs(3 * h * h + s) / (3 * h * h + abs(s))))
        exp.c_scalar = scalar_bound(d, h, s)
    routes = [(c, name) for c, name in ((exp.c_sectional, "sectional"), (exp.c_scalar, "scalar"))
              if c is not None]
    if routes:
        exp.c, exp.source = min(routes)
        exp.status = "pass"
    exp.margin = min(margins)
    return exp


def expected_cap(n: int, kappa: float, H: float, delta: float) -> Expected:
    """Bound expectation for a cap row: K = kappa, and S = 6 kappa when n = 2."""
    return expected_bound(n, delta, H, kappa, 6.0 * kappa if n == 2 else None)


def _first_sign_change(f, a, b, steps: int):
    """Bracket of the first zero of f on (a, b), scanning `steps` cells."""
    xs = [a + (b - a) * i / steps for i in range(1, steps + 1)]
    prev_x, prev = a, f(a)
    for x in xs:
        v = f(x)
        if v == 0 or (v < 0) != (prev < 0):
            return prev_x, x
        prev_x, prev = x, v
    raise ArithmeticError("no sign change found")


def _root(f, a, b, steps: int):
    lo, hi = _first_sign_change(f, a, b, steps)
    return mp.findroot(f, (lo, hi), solver="anderson")


def legendre_first_zero(delta: float):
    """First zero in s of P_nu(cos s) with nu(nu+1) = 2(1-delta)."""
    nu = (-1 + mp.sqrt(1 + 8 * (1 - _mpf(Fraction(delta))))) / 2
    return _root(lambda s: mp.legendre(nu, mp.cos(s)), mp.mpf(0), mp.pi * (1 - mp.mpf("1e-3")), 16)


def hyp2f1_first_zero(delta: float):
    """First zero in s of 2F1(-nu, nu+3; 2; sin^2(s/2)) with nu(nu+3) = 4(1-delta)."""
    nu = (-3 + mp.sqrt(9 + 16 * (1 - _mpf(Fraction(delta))))) / 2
    return _root(lambda s: mp.hyp2f1(-nu, nu + 3, 2, mp.sin(s / 2) ** 2, zeroprec=4 * mp.mp.prec),
                 mp.mpf(0), mp.pi * (1 - mp.mpf("1e-3")), 16)


def ode_first_zero(n: int, lam: float) -> float:
    """First zero of f'' + (n-1) cot(s) f' + lam f = 0, f(0) = 1, by DOP853."""
    from scipy.integrate import solve_ivp

    s0 = 1e-4
    b = lam * (lam - 2 * (n - 1) / 3) / (8 * n * (n + 2))  # series f = 1 - lam s^2/(2n) + b s^4
    f0 = 1 - lam * s0**2 / (2 * n) + b * s0**4
    g0 = -lam * s0 / n + 4 * b * s0**3

    def crossing(s, y):
        return y[0]

    crossing.terminal = True
    sol = solve_ivp(lambda s, y: (y[1], -(n - 1) / math.tan(s) * y[1] - lam * y[0]),
                    (s0, math.pi - 1e-6), (f0, g0), method="DOP853", rtol=1e-13, atol=1e-15,
                    events=crossing)
    if not sol.t_events[0].size:
        raise ArithmeticError(f"no zero of the radial solution for n={n}, lambda={lam}")
    return float(sol.t_events[0][0])


@lru_cache(maxsize=None)
def scaled_cap_radius(n: int, delta: float):
    """rho* sqrt(c_int): the s at which lambda1 of the s-ball in the unit n-sphere is n(1-delta)."""
    if delta == 0.0:
        return mp.pi / 2  # the hemisphere: lambda1 = n
    if n == 3:
        return mp.pi / mp.sqrt(4 - 3 * _mpf(Fraction(delta)))  # lambda1 = (pi/s)^2 - 1
    if n == 2:
        return legendre_first_zero(delta)
    s = hyp2f1_first_zero(delta)
    second = ode_first_zero(4, 4 * (1 - delta))
    if rel_diff(second, s) > RHO_REL:
        raise ArithmeticError(f"n=4 references disagree at delta={delta}: {s} vs {second}")
    return s


def ball_lambda1(c: float, rho: float):
    """First Dirichlet eigenvalue of the rho-ball in the round 2-sphere of curvature c.

    lambda1 = c nu(nu+1) for the smallest nu with P_nu(cos(rho sqrt(c))) = 0.
    """
    x = mp.cos(mp.sqrt(mp.mpf(c)) * mp.mpf(rho))
    nu = _root(lambda t: mp.legendre(t, x), mp.mpf(0), mp.mpf(30), 300)
    return mp.mpf(c) * nu * (nu + 1)


# ----------------------------------------------------------------- row checks


def _index_rows(rows, keys):
    out = {}
    for i, row in enumerate(rows):
        out.setdefault(tuple(row.get(k) for k in keys), []).append(i)
    return out


def _check_bound_values(row: dict, exp: Expected, delta: float) -> list[str]:
    bad = []
    if row["status"] != exp.status:
        return [f"status {row['status']!r}, expected {exp.status!r} ({row.get('reason', '')[:80]})"]
    if exp.status != "pass":
        if row.get("c") is not None or not row.get("reason"):
            bad.append("not-applicable row carries a bound or no reason")
        return bad
    c = row["c"]
    if c is None or not (c > 0):
        return [f"bound c={c} is not positive"]
    if mp.mpf(c) < exp.c * (1 - ROUND_REL):
        bad.append(f"c={c} below the infimum {mp.nstr(exp.c, 15)}")
    if mp.mpf(c) > exp.c * (1 + C_ABOVE_INF_REL):
        bad.append(f"c={c} above the infimum {mp.nstr(exp.c, 15)}")
    close = exp.c_scalar is not None and exp.c_sectional is not None and \
        rel_diff(exp.c_scalar, exp.c_sectional) < 1e-9
    if row["source"] != exp.source and not close:
        bad.append(f"route {row['source']!r}, the smaller bound is {exp.source!r}")
    A, B, k = row["A"], row["B"], row["k_star"]
    if rel_diff(mp.pi * mp.sqrt(mp.mpf(A) / B), c) > 4 * ROUND_REL:
        bad.append("c != pi*sqrt(A/B)")
    if row["source"] == "sectional":
        if exp.k_lo is None:
            bad.append("sectional route reported where its hypotheses fail")
        else:
            kf = Fraction(k)
            inside = exp.k_lo < kf < exp.k_hi
            at_rounding = rounded(float(exp.k_lo)) == k or rounded(float(exp.k_hi)) == k
            if not (inside or at_rounding):
                bad.append(f"k*={k} not strictly inside ({float(exp.k_lo)}, {float(exp.k_hi)})")
    elif row["source"] == "scalar":
        if rel_diff(k, 1 / (1 - mp.mpf(delta))) > 2 * ROUND_REL:
            bad.append(f"scalar route k*={k} is not 1/(1-delta)")
    return bad


def check_bound_report(doc: dict, cases: list[tuple]) -> dict[int, list[str]]:
    """Failures per row of a bound-mode sweep over `cases` (n, delta, H, K, S)."""
    rows = doc["rows"]
    failures: dict[int, list[str]] = {}
    index = _index_rows(rows, ("n", "delta", "H", "K", "S"))
    seen = set()
    for n, d, H, K, S in cases:
        key = (n, rounded(d), rounded(H), rounded(K), rounded(S))
        hits = index.get(key, [])
        if len(hits) != 1:
            failures[-1 - len(failures)] = [f"case {key} appears {len(hits)} times"]
            continue
        i = hits[0]
        seen.add(i)
        bad = _check_bound_values(rows[i], expected_bound(n, d, H, K, S), d)
        if bad:
            failures[i] = bad
    for i in range(len(rows)):
        if i not in seen:
            failures[i] = ["row matches no input case"]
    return failures


def check_algebra_report(doc: dict, ns: list[int], samples: int) -> dict[int, list[str]]:
    failures: dict[int, list[str]] = {}
    rows = doc["rows"]
    if [r["n"] for r in rows] != sorted(ns):
        failures[-1] = [f"rows for n={[r['n'] for r in rows]}, expected {sorted(ns)}"]
    for i, r in enumerate(rows):
        bad = []
        if r["samples"] != samples:
            bad.append(f"samples={r['samples']}, configured {samples}")
        for key in ("min_crude_slack", "min_remainder"):
            if not (r[key] >= SLACK_FLOOR):
                bad.append(f"{key}={r[key]} < {SLACK_FLOOR}")
        if r["status"] != "pass":
            bad.append(f"status {r['status']!r}")
        if bad:
            failures[i] = bad
    return failures


def check_cap_report(doc: dict, cases: list[tuple]) -> dict[int, list[str]]:
    """Failures per row of a cap-mode sweep over `cases` (n, kappa, H, delta)."""
    rows = doc["rows"]
    failures: dict[int, list[str]] = {}
    index = _index_rows(rows, ("n", "kappa", "H", "delta"))
    seen = set()
    for n, kappa, H, d in cases:
        key = (n, rounded(kappa), rounded(H), rounded(d))
        hits = index.get(key, [])
        if len(hits) != 1:
            failures[-1 - len(failures)] = [f"case {key} appears {len(hits)} times"]
            continue
        i = hits[0]
        seen.add(i)
        row, exp = rows[i], expected_cap(n, kappa, H, d)
        bad = []
        ref = scaled_cap_radius(n, d)
        scaled = mp.mpf(row["rho_star"]) * mp.sqrt(mp.mpf(kappa) + mp.mpf(H) ** 2)
        if rel_diff(scaled, ref) > RHO_REL:
            bad.append(f"rho*sqrt(c_int)={mp.nstr(scaled, 15)}, reference {mp.nstr(ref, 15)}")
        if exp.status == "pass":
            if row["status"] != "pass":
                bad.append(f"status {row['status']!r}: rho* <= c is the theorem")
            elif row["c_best"] is None or rel_diff(row["c_best"], exp.c) > C_ABOVE_INF_REL:
                bad.append(f"c_best={row['c_best']}, expected {mp.nstr(exp.c, 15)}")
            elif rel_diff(row["ratio"], mp.mpf(row["rho_star"]) / row["c_best"]) > 4 * ROUND_REL:
                bad.append("ratio != rho*/c_best")
        elif row["status"] != "not-applicable":
            bad.append(f"status {row['status']!r}, hypotheses fail")
        if bad:
            failures[i] = bad
    for i in range(len(rows)):
        if i not in seen:
            failures[i] = ["row matches no input case"]
    return failures


def read_mesh_file(path: str):
    """(vertices, faces) of a plain-text polygon file; faces are 0-indexed."""
    import numpy as np

    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            tag, *vals = line.split()
            if tag == "v":
                verts.append([float(v) for v in vals])
            elif tag == "f":
                faces.append([int(v) - 1 for v in vals])
            else:
                raise ValueError(f"unexpected line {line[:40]!r}")
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def check_mesh_file(path: str, kappa: float, H: float, num_vertices: int) -> list[str]:
    """Vertex count, disk topology and model constraint of an exported mesh."""
    import numpy as np

    try:
        v, f = read_mesh_file(path)
    except (OSError, ValueError) as exc:
        return [f"mesh file unreadable: {exc}"]
    bad = []
    if len(v) != num_vertices:
        bad.append(f"mesh file has {len(v)} vertices, finest level {num_vertices}")
    if f.ndim != 2 or f.shape[1:] != (3,) or len(f) == 0 or f.min() < 0 or f.max() >= len(v):
        return bad + ["mesh file faces are malformed"]
    e = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    n_edges = len(np.unique(e[:, 0] * len(v) + e[:, 1]))
    if len(v) - n_edges + len(f) != 1:
        bad.append(f"Euler characteristic {len(v) - n_edges + len(f)}, expected 1")
    if kappa == 0.0:
        dev = np.abs(np.linalg.norm(v, axis=1) * H - 1.0).max()
    elif v.shape[1] != 4:
        return bad + [f"{v.shape[1]} coordinates per vertex for kappa={kappa}"]
    elif kappa < 0.0:
        dev = np.abs((-v[:, 0] ** 2 + np.sum(v[:, 1:] ** 2, axis=1)) * kappa - 1.0).max()
    else:
        dev = np.abs(np.sum(v**2, axis=1) * kappa - 1.0).max()
    if not dev <= CONSTRAINT_REL:
        bad.append(f"vertices leave the model constraint surface by {dev:.3g} relative")
    return bad


def check_mesh_report(doc: dict, params: dict, mesh_path: str) -> dict[int, list[str]]:
    """Failures per level row of one mesh study; study-level faults fail every row."""
    kappa, H, rho, delta = params["kappa"], params["H"], params["rho"], params["delta"]
    rows, meta = doc["rows"], doc["metadata"]
    c = kappa + H * H
    q = 2 * (1 - mp.mpf(delta)) * c
    ref = ball_lambda1(c, rho) - q
    study = []
    if [r["level"] for r in rows] != sorted(params["levels"]):
        study.append(f"levels {[r['level'] for r in rows]}, expected {sorted(params['levels'])}")
    if abs(mp.mpf(meta["oracle_lambda1"]) - ref) > ORACLE_LAMBDA_REL * c:
        study.append(f"oracle_lambda1={meta['oracle_lambda1']}, Legendre reference {mp.nstr(ref, 12)}")
    order = meta.get("convergence_order")
    if order is None or not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
        study.append(f"convergence_order={order} outside {ORDER_BAND}")
    exp = expected_bound(2, delta, H, kappa, 6.0 * kappa)
    c_best = meta.get("c_best")
    if exp.status == "pass":
        if c_best is None or rel_diff(c_best, exp.c) > C_ABOVE_INF_REL:
            study.append(f"c_best={c_best}, expected {mp.nstr(exp.c, 15)}")
    elif c_best is not None:
        study.append(f"c_best={c_best} where no bound applies")
    if abs(ref) <= MARGINAL_BAND * q:
        expected_verdict = "marginal"
    else:
        expected_verdict = "stable" if ref > 0 else "unstable"
    if not rows or rows[-1]["verdict"] != expected_verdict or meta.get("agrees_with_oracle") is not True:
        study.append(f"finest verdict {rows[-1]['verdict'] if rows else None!r}, "
                     f"reference says {expected_verdict!r}")
    if rows:
        study += check_mesh_file(mesh_path, kappa, H, rows[-1]["vertices"])

    failures: dict[int, list[str]] = {}
    for i, r in enumerate(rows):
        bad = list(study)
        if r["status"] != "pass":
            bad.append(f"status {r['status']!r}")
        if abs(r["oracle_error"] - abs(r["lambda1"] - meta["oracle_lambda1"])) > 1e-9 * c:
            bad.append("oracle_error != |lambda1 - oracle_lambda1|")
        if i > 0:
            ratio = rows[i - 1]["oracle_error"] / r["oracle_error"] if r["oracle_error"] else math.inf
            if not ERROR_RATIO_BAND[0] <= ratio <= ERROR_RATIO_BAND[1]:
                bad.append(f"oracle_error shrank {ratio:.3g}-fold, expected about 4")
        if r["verdict"] == "stable" and c_best is not None and not r["radius"] <= c_best * (1 + 1e-6):
            bad.append(f"stable level with radius {r['radius']} > c_best {c_best}")
        if bad:
            failures[i] = bad
    return failures
