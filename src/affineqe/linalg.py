"""Rank and kernel by Gauss-Jordan elimination, exact in `Fraction`s or in floats.

Exact rows are kept in reduced echelon form as they arrive: a new row is reduced
against the pivot rows and, when it is independent, divided by its pivot and
cleared from the earlier ones, so rank and kernel are certificates.  Float rows
(exp/log data) are eliminated with complete pivoting, which reveals the rank of
these narrow stacks (Businger & Golub, Numer. Math. 7, 1965).  Both read the
kernel off the reduced rows, one vector per free column in column order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

PIVOT_RTOL = 1e-9  # smallest pivot of a float stack, relative to its largest |entry|


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
                for earlier in self.pivot_rows:
                    factor = earlier[col]
                    if factor:
                        for j in range(self.ncols):
                            earlier[j] -= factor * normalized[j]
                self.pivot_rows.append(normalized)
                self.pivot_cols.append(col)
                return True
        return False

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Exact basis of {v : R v = 0} for the accumulated row space, one
        vector per free column in column order."""
        by_col = dict(zip(self.pivot_cols, self.pivot_rows))
        return [tuple(-by_col[j][free] if j in by_col else Fraction(j == free)
                      for j in range(self.ncols))
                for free in range(self.ncols) if free not in by_col]


def exact_rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    reducer = RowReducer(ncols)
    for row in rows:
        reducer.add_row(row)
    return reducer.rank


def float_rank_kernel(rows: Sequence[Sequence[float]], ncols: int):
    """Numeric rank and kernel basis of finite float rows: a pivot must exceed
    PIVOT_RTOL times the largest |entry|; the basis has the form of `kernel_basis`."""
    work = [[float(v) for v in row] for row in rows]
    cutoff = PIVOT_RTOL * max((abs(v) for row in work for v in row), default=0.0)
    by_col: dict = {}  # pivot column -> its row divided by the pivot
    while work and len(by_col) < ncols:
        size, i, col, value = max((abs(v), i, c, v) for i, row in enumerate(work)
                                  for c, v in enumerate(row) if c not in by_col)
        if size <= cutoff:
            break
        pivot = [v / value for v in work.pop(i)]
        for row in (*work, *by_col.values()):
            row[:] = [a - row[col] * b for a, b in zip(row, pivot)]
        by_col[col] = pivot
    return len(by_col), [tuple(0.0 - by_col[j][f] if j in by_col else float(j == f)  # no -0.0
                               for j in range(ncols)) for f in range(ncols) if f not in by_col]
