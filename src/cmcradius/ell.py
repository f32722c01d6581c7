"""Fixed-width sparse matrices in ELL (ELLPACK) layout, the mesh lane's only sparse type.

Row i of an Ell holds its entries in columns[:, i] and values[:, i], the
(w, n) slot-major arrays: its columns ascend strictly, and the slots after
its last entry are padding, of weight 0 with a column no greater than that
entry's.  A product adds the slots in order, so each row sums its terms in
column order, as scipy's CSR and CSC products do, and gives their bits.
The transposed product adds the terms row after row, so each column sums
its terms in row order, as a product with scipy's transposed CSR does,
and builds no transpose; the padding's zero terms leave every sum's bits.
A large matrix's product skips the padding of its last, nearly empty slots
and reads a slot of nearly constant column offset by a shifted slice: the
terms and their order stay those of the gather.
"""

from __future__ import annotations

import numpy as np

#: A product gathers all slots at once up to this many, where the cost is in the
#: calls, and one slot at a time above it, where a slot's temporaries stay in cache.
#: The slot loop alone made a mesh-refine pass 3.6 % slower (BENCH_28.json).
GATHER_WHOLE = 1 << 16

#: Above GATHER_WHOLE, a share of at most 1/FEW of the rows is few: the last slots
#: that few rows fill are added on those rows only, and a slot whose column is the
#: row plus one offset on all rows but a few is read by a shifted slice.
FEW = 16


class Ell:
    """An (n, num_columns) sparse matrix from int32 columns and float values, both (w, n)."""

    def __init__(self, columns: np.ndarray, values: np.ndarray, num_columns: int):
        self.columns, self.values = columns, values
        self.shape = (n := columns.shape[1], num_columns)
        # The slot loop runs over the first width slots; the rest, on the tail rows only.
        large = values.size > GATHER_WHOLE
        filled, self.width = np.zeros(n, dtype=bool), columns.shape[0]
        while self.width > 1 and large:
            more = filled | (values[self.width - 1] != 0.0)
            if np.count_nonzero(more) * FEW > n:
                break
            filled, self.width = more, self.width - 1
        self.tail_rows = np.flatnonzero(filled)
        self.tail = columns[self.width:, self.tail_rows], values[self.width:, self.tail_rows]
        self.bands = [_band(slot) if large else None for slot in columns[:self.width]]

    def _gather(self, x: np.ndarray, slot: int) -> np.ndarray:
        """x at the columns of a slot, each row's entry."""
        if self.bands[slot] is None:
            return x.take(self.columns[slot])
        offset, other, columns = self.bands[slot]
        lo, hi = max(0, -offset), min(self.shape[0], self.shape[1] - offset)
        term = np.empty(self.shape[0])
        term[lo:hi] = x[lo + offset:hi + offset]
        term[other] = x.take(columns)
        return term

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if 1 < self.shape[0] and self.values.size <= GATHER_WHOLE:
            # numpy reduces the outer axis of the (w, n) terms slot after slot; a
            # single row would be one contiguous axis, which it sums pairwise.
            terms = x.take(self.columns)
            terms *= self.values
            return terms.sum(axis=0)
        y = self._gather(x, 0)
        y *= self.values[0]
        for slot in range(1, self.width):
            term = self._gather(x, slot)
            term *= self.values[slot]
            y += term
        if self.tail_rows.size:
            part = y.take(self.tail_rows)
            for columns, values in zip(*self.tail):
                term = x.take(columns)
                term *= values
                part += term
            y[self.tail_rows] = part
        return y

    def diagonal(self) -> np.ndarray:
        return np.where(self.columns == np.arange(self.shape[0]), self.values, 0.0).sum(axis=0)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.add.at(dense, (np.arange(self.shape[0]), self.columns), self.values)
        return dense

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The transposed product A^T x, which adds each column's terms in row order."""
        terms = np.empty((self.shape[0], self.columns.shape[0]))  # (n, w): the terms row after row
        np.multiply(self.values, x, out=terms.T)
        columns = self.columns.T.astype(np.intp, order="C")
        return np.bincount(columns.ravel(), terms.ravel(), minlength=self.shape[1])


def _band(columns: np.ndarray) -> tuple[int, np.ndarray, np.ndarray] | None:
    """The offset of a slot whose column is the row plus it on all rows but a few, and
    those rows and their columns; None for any other slot."""
    n = columns.size
    offset = int(columns[n // 2]) - n // 2
    other = np.flatnonzero(columns != np.arange(offset, n + offset))
    return (offset, other, columns[other]) if other.size * FEW <= n else None
