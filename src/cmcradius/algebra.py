"""Pointwise algebraic identities behind the radius estimate.

These are the matrix inequalities used when turning the stability
inequality into a bound on B: the crude trace-free estimate and the
potential remainder.  Each check returns the evaluated slack, so the
algebra sweep and the tests can assert its sign and magnitude directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import PreconditionViolation

TRACE_TOL = 1e-12
#: Entries at most this over n keep the sum of their n^2 squares finite.
_SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class TracelessMatrix:
    """Symmetric traceless n x n matrix (the trace-free shape-operator part)."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.n, self.n):
            raise PreconditionViolation(f"expected a {self.n}x{self.n} matrix, got {m.shape}")
        largest = float(np.abs(m).max())
        if largest > _SQRT_FLOAT_MAX / self.n:
            raise PreconditionViolation(f"entry {largest} is too large: |Phi|^2 would overflow")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, largest)):
            raise PreconditionViolation("matrix is not symmetric")
        scale = max(1.0, float(np.linalg.norm(m)))
        if abs(float(np.trace(m))) > TRACE_TOL * scale:
            raise PreconditionViolation(f"trace {np.trace(m)} is not zero to within {TRACE_TOL} relative")
        object.__setattr__(self, "entries", m)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, scale: float = 1.0) -> "TracelessMatrix":
        """Random symmetric matrix with the trace projected out."""
        raw = rng.normal(0.0, scale, size=(n, n))
        sym = 0.5 * (raw + raw.T)
        sym -= np.trace(sym) / n * np.eye(n)
        return cls(n, sym)

    @property
    def norm2(self) -> float:
        """Squared Frobenius norm |Phi|^2."""
        return float(np.sum(self.entries**2))

    @property
    def first_diag(self) -> float:
        return float(self.entries[0, 0])

    @property
    def first_row_tail2(self) -> float:
        """Sum of squared off-diagonal first-row entries, j >= 2."""
        return float(np.sum(self.entries[0, 1:] ** 2))


def check_traceless_crude(phi: TracelessMatrix) -> float:
    """Slack of |Phi|^2 >= n/(n-1) Phi_11^2 + 2 sum_j Phi_1j^2 (nonnegative always)."""
    n = phi.n
    rhs = n / (n - 1) * phi.first_diag**2 + 2.0 * phi.first_row_tail2
    return phi.norm2 - rhs


def check_potential_remainder(phi: TracelessMatrix, k: float, delta: float) -> float:
    """Remainder k(1-d)|Phi|^2 - (5/4) Phi_11^2 - sum_j Phi_1j^2.

    Nonnegative whenever k exceeds the exponent lower bound
    5(n-1)/(4n(1-d)).
    """
    bounds.check_delta(delta)
    n = phi.n
    lo = 5.0 * (n - 1) / (4.0 * n * (1.0 - delta))
    if not k > lo:
        raise PreconditionViolation(f"k={k} must exceed 5(n-1)/(4n(1-delta)) = {lo}")
    remainder = k * (1.0 - delta) * phi.norm2 - 1.25 * phi.first_diag**2 - phi.first_row_tail2
    return bounds._finite("remainder", remainder)
