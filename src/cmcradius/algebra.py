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
#: Largest `samples` an algebra sweep accepts.  The sweep holds every
#: sample of a dimension at once (samples * n^2 floats, 12.8 MB for n = 4),
#: so the limit bounds its memory as well as its run time.
MAX_SAMPLES = 100_000


def traceless_part(raw: np.ndarray) -> np.ndarray:
    """Symmetric part of an n x n matrix, or of each in a stack, minus its trace."""
    n = raw.shape[-1]
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    trace = np.trace(sym, axis1=-2, axis2=-1)
    return sym - (trace / n)[..., None, None] * np.eye(n)


@dataclass(frozen=True)
class TracelessMatrix:
    """Symmetric traceless n x n matrix (the trace-free shape-operator part),
    or a stack of them with `entries` of shape (m, n, n).

    Every member is validated on its own, and the properties and checks
    below give one value per member.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.n, self.n):
            raise PreconditionViolation(
                f"expected a {self.n}x{self.n} matrix or a stack of them, got {m.shape}")
        stack = m.reshape(-1, self.n, self.n)
        largest = np.abs(stack).max(axis=(1, 2))
        too_large = largest > _SQRT_FLOAT_MAX / self.n
        if too_large.any():
            raise PreconditionViolation(f"entry {largest[too_large][0]} is too large: |Phi|^2 would overflow")
        # Each member's own tolerance, so a large member does not loosen a small one.
        atol = 1e-12 * np.maximum(1.0, largest)
        if not np.all(np.abs(stack - stack.transpose(0, 2, 1)) <= atol[:, None, None]):
            raise PreconditionViolation("matrix is not symmetric")
        trace = np.trace(stack, axis1=1, axis2=2)
        off_trace = np.abs(trace) > TRACE_TOL * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        if off_trace.any():
            raise PreconditionViolation(
                f"trace {trace[off_trace][0]} is not zero to within {TRACE_TOL} relative")
        object.__setattr__(self, "entries", m)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, scale: float = 1.0) -> "TracelessMatrix":
        """Random symmetric matrix with the trace projected out."""
        return cls(n, traceless_part(rng.normal(0.0, scale, size=(n, n))))

    @property
    def norm2(self) -> float | np.ndarray:
        """Squared Frobenius norm |Phi|^2."""
        return np.sum(self.entries**2, axis=(-2, -1))

    @property
    def first_diag(self) -> float | np.ndarray:
        return self.entries[..., 0, 0]

    @property
    def first_row_tail2(self) -> float | np.ndarray:
        """Sum of squared off-diagonal first-row entries, j >= 2."""
        return np.sum(self.entries[..., 0, 1:] ** 2, axis=-1)


def sweep_sample(n: int, samples: int, interval: bounds.KInterval,
                 rng: np.random.Generator) -> tuple[TracelessMatrix, np.ndarray]:
    """`samples` random traceless matrices as one stack, each with an exponent k
    drawn uniformly from `interval`.

    Each sample draws its matrix and then its k, so the stream is the one a
    loop of `TracelessMatrix.random(n, rng)` and `rng.random()` reads.
    """
    raw = np.empty((samples, n, n))
    u = np.empty(samples)
    for i in range(samples):
        raw[i] = rng.normal(0.0, 1.0, (n, n))
        u[i] = rng.random()
    k = float(interval.lo) + u * float(interval.width)
    return TracelessMatrix(n, traceless_part(raw)), k


def check_traceless_crude(phi: TracelessMatrix) -> float | np.ndarray:
    """Slack of |Phi|^2 >= n/(n-1) Phi_11^2 + 2 sum_j Phi_1j^2 (nonnegative always),
    one per matrix."""
    n = phi.n
    rhs = n / (n - 1) * phi.first_diag**2 + 2.0 * phi.first_row_tail2
    return phi.norm2 - rhs


def check_potential_remainder(phi: TracelessMatrix, k: float | np.ndarray,
                              delta: float) -> float | np.ndarray:
    """Remainder k(1-d)|Phi|^2 - (5/4) Phi_11^2 - sum_j Phi_1j^2, one per matrix.

    `k` is one exponent or one per matrix.  The remainder is nonnegative
    whenever k exceeds the exponent lower bound 5(n-1)/(4n(1-d)).
    """
    bounds.check_delta(delta)
    n = phi.n
    lo = 5.0 * (n - 1) / (4.0 * n * (1.0 - delta))
    k_min = np.min(k)
    if not k_min > lo:
        raise PreconditionViolation(f"k={k_min} must exceed 5(n-1)/(4n(1-delta)) = {lo}")
    # An overflow is reported below as a named error, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        remainder = k * (1.0 - delta) * phi.norm2 - 1.25 * phi.first_diag**2 - phi.first_row_tail2
    if not np.all(np.isfinite(remainder)):
        raise PreconditionViolation(f"remainder must be finite, got {np.min(remainder)}")
    return remainder
