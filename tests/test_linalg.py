from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe.linalg import RowReducer, exact_rank, float_rank_kernel


def reduced_echelon(rows, ncols):
    """Oracle: Gauss-Jordan on the whole matrix at once; (nonzero rows, pivot columns)."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        found = next((i for i in range(top, len(work)) if work[i][col]), None)
        if found is None:
            continue
        work[top], work[found] = work[found], work[top]
        work[top] = [v / work[top][col] for v in work[top]]
        for i, row in enumerate(work):
            if i != top and row[col]:
                work[i] = [a - row[col] * b for a, b in zip(row, work[top])]
        pivots.append(col)
    return work[:len(pivots)], pivots


def oracle_kernel(rows, ncols):
    """One vector per free column, in column order, read off the reduced echelon form."""
    reduced, pivots = reduced_echelon(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw):
    """Rows of an ncols-wide matrix: independent-looking rows, then duplicates and
    combinations of them, in a drawn order."""
    ncols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols), max_size=4))
    extra = []
    for _ in range(draw(st.integers(0, 3)) if base else 0):
        coeffs = draw(st.lists(small, min_size=len(base), max_size=len(base)))
        extra.append([sum((c * row[j] for c, row in zip(coeffs, base)), Fraction(0))
                      for j in range(ncols)])
    if base:
        extra += draw(st.lists(st.sampled_from(base), max_size=2))
    return ncols, draw(st.permutations(base + extra))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_reducer_matches_the_gauss_jordan_oracle(case):
    ncols, rows = case
    reducer = RowReducer(ncols)
    for row in rows:
        before = reducer.rank
        assert reducer.add_row(row) == (reducer.rank == before + 1)
    reduced, pivots = reduced_echelon(rows, ncols)
    assert reducer.rank == len(pivots) == exact_rank(rows, ncols)
    # the rows are kept reduced: each pivot column is a unit column of the stored rows
    for row, col in zip(reducer.pivot_rows, reducer.pivot_cols):
        assert [r[col] for r in reducer.pivot_rows] == [int(other is row)
                                                       for other in reducer.pivot_rows]
    assert sorted(zip(reducer.pivot_cols, reducer.pivot_rows)) == list(zip(pivots, reduced))
    kernel = reducer.kernel_basis()
    for vec in kernel:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    assert kernel == oracle_kernel(rows, ncols)
    assert all(type(v) is Fraction for vec in kernel for v in vec)


def test_duplicate_and_dependent_rows_leave_the_rank():
    reducer = RowReducer(3)
    assert reducer.add_row([1, 2, 3])
    assert not reducer.add_row([1, 2, 3])
    assert reducer.add_row([0, 1, 1])
    assert not reducer.add_row([2, 5, 7])
    assert reducer.rank == 2
    assert reducer.kernel_basis() == [(Fraction(-1), Fraction(-1), Fraction(1))]


def test_empty_reducer_has_the_full_kernel():
    assert RowReducer(2).kernel_basis() == [(1, 0), (0, 1)]


def test_float_rank_kernel_of_no_rows():
    rank, basis = float_rank_kernel([], 3)
    assert rank == 0
    assert basis == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    assert all(type(v) is float for vec in basis for v in vec)


def test_float_rank_kernel_of_a_dependent_stack():
    rank, basis = float_rank_kernel([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], 3)
    assert rank == 1
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + 2 * vec[1] == pytest.approx(0.0, abs=1e-12)
