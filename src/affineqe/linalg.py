"""Exact rational rank/kernel computations, with a float SVD fallback.

The exact routine is Gauss-Jordan elimination in `Fraction`s: each new row is
reduced against the pivot rows and, when it is independent, divided by its
pivot, so rank and kernel are certificates, not estimates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

SVD_RTOL = 1e-9


class RowReducer:
    """Incremental exact row reduction; feeds rank queries one row at a time."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: list[list[Fraction]] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row: Sequence[Fraction]) -> bool:
        """Reduce ``row`` against the basis; returns True if the rank grew."""
        work = [Fraction(v) for v in row]
        for col, pivot in zip(self.pivot_cols, self.pivot_rows):
            factor = work[col]
            if factor:
                for j in range(self.ncols):
                    work[j] -= factor * pivot[j]
        for col in range(self.ncols):
            if work[col]:
                inv = 1 / work[col]
                normalized = [v * inv for v in work]
                self.pivot_rows.append(normalized)
                self.pivot_cols.append(col)
                return True
        return False

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Exact basis of {v : R v = 0} for the accumulated row space."""
        # back-substitute to reduced echelon form
        rows = [list(r) for r in self.pivot_rows]
        cols = list(self.pivot_cols)
        order = sorted(range(len(cols)), key=lambda i: cols[i])
        rows = [rows[i] for i in order]
        cols = [cols[i] for i in order]
        for i in range(len(rows) - 1, -1, -1):
            for k in range(i):
                factor = rows[k][cols[i]]
                if factor:
                    for j in range(self.ncols):
                        rows[k][j] -= factor * rows[i][j]
        pivot_set = set(cols)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[free] = Fraction(1)
            for row, col in zip(rows, cols):
                vec[col] = -row[free]
            basis.append(tuple(vec))
        return basis


def exact_rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    reducer = RowReducer(ncols)
    for row in rows:
        reducer.add_row(row)
    return reducer.rank


def float_rank_kernel(rows: Sequence[Sequence[float]], ncols: int):
    """Numeric rank and near-kernel basis via SVD with a relative threshold."""
    if not rows:
        return 0, [tuple(1.0 if j == i else 0.0 for j in range(ncols))
                   for i in range(ncols)]
    import numpy as np

    matrix = np.asarray(rows, dtype=float)
    _, singular, vt = np.linalg.svd(matrix)
    cutoff = SVD_RTOL * (singular[0] if singular.size and singular[0] > 0 else 1.0)
    rank = int(np.sum(singular > cutoff))
    basis = [tuple(float(v) for v in vt[i]) for i in range(rank, ncols)]
    return rank, basis
