import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.linalg import PIVOT_RTOL, RowReducer, exact_rank, float_rank_kernel


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


def svd_rank_kernel(rows, ncols):
    """Oracle: the SVD rank and near-kernel that ranked exp/log rows before
    elimination, with the same relative cutoff against the largest singular value."""
    if not rows:
        return 0, [tuple(1.0 if j == i else 0.0 for j in range(ncols))
                   for i in range(ncols)]
    _, singular, vt = np.linalg.svd(np.asarray(rows, dtype=float))
    cutoff = PIVOT_RTOL * (singular[0] if singular.size and singular[0] > 0 else 1.0)
    rank = int(np.sum(singular > cutoff))
    return rank, [tuple(float(v) for v in vt[i]) for i in range(rank, ncols)]


def low_rank_rows(rng, term_scale):
    """1-12 rows, 2-4 columns, rank 1 up to both: a sum of rank-one terms, each scaled
    by term_scale(rng), the whole matrix by 10^(+-6)."""
    ncols, nrows = rng.randint(2, 4), rng.randint(1, 12)
    rank = rng.randint(1, min(nrows, ncols))
    matrix = np.zeros((nrows, ncols))
    for _ in range(rank):
        u = np.array([rng.gauss(0, 1) for _ in range(nrows)])
        v = np.array([rng.gauss(0, 1) for _ in range(ncols)])
        matrix += term_scale(rng) * np.outer(u, v)
    return (10.0 ** rng.uniform(-6, 6) * matrix).tolist(), ncols


@pytest.mark.parametrize("count, term_scale", [
    (3000, lambda rng: 1.0),
    (5000, lambda rng: 10.0 ** rng.uniform(-4, 4)),  # badly scaled terms
], ids=["plain", "badly_scaled"])
def test_float_rank_kernel_matches_the_svd_oracle(count, term_scale):
    rng = random.Random(20)
    for _ in range(count):
        rows, ncols = low_rank_rows(rng, term_scale)
        rank, basis = float_rank_kernel(rows, ncols)
        matrix = np.asarray(rows)
        singular = np.linalg.svd(matrix, compute_uv=False)
        ratios = singular / singular[0] if singular[0] > 0 else np.zeros(0)
        if np.any((ratios >= 1e-10) & (ratios <= 1e-8)):
            continue  # a singular value at the cutoff: either rank is a fair answer
        assert rank == svd_rank_kernel(rows, ncols)[0], rows
        assert len(basis) == ncols - rank
        assert all(type(v) is float for vec in basis for v in vec)
        for vec in basis:
            v = np.asarray(vec)
            residual = np.linalg.norm(matrix @ v)
            assert residual <= 1e-8 * np.linalg.norm(matrix, 2) * np.linalg.norm(v), rows


def test_float_rank_kernel_reads_the_basis_off_the_reduced_rows():
    # one vector per free column, in column order, with a 1 there and no -0.0
    assert float_rank_kernel([[3.0, 0.0, -9.0]], 3) == \
        (1, [(1.0, 0.0, 1 / 3), (0.0, 1.0, 0.0)])
    assert float_rank_kernel([[1.0, 0.0], [0.0, 1.0]], 2) == (2, [])
    assert float_rank_kernel([[0.0, 0.0]], 2) == (0, [(1.0, 0.0), (0.0, 1.0)])


def test_pivots_below_the_relative_cutoff_are_not_taken():
    assert float_rank_kernel([[1.0, 0.0], [0.0, 1e-10]], 2)[0] == 1
    assert float_rank_kernel([[1e-20, 0.0], [0.0, 1e-28]], 2)[0] == 2


# the exp/log scan: flat R^2 and R^3 deformed by these potentials, at -1/(m-1); each
# keeps exp or log in the jet system, so every solve has an atom in its tower
SCAN_POTENTIALS = ["exp(x1)", "exp(2*x2)/3", "exp(x1 + x2)", "x1*exp(x2)",
                   "x2*exp(x1) + x1^2", "exp(-x1^2)/4 + x2^2", "x1*log(2 + x1)",
                   "x1*log(3 + x2)", "log(2 + x1)*x2", "exp(x1)*log(2 + x2)",
                   "exp(x2)*log(2 + x1)"]


def deformed_flat(potential, dim):
    g = ex.parse_scalar(potential, ["x1", "x2", "x3"][:dim])
    return pj.deform(geo.flat_manifold(dim), pj.ProjectiveChange.from_potential(g, dim))


def scan_solves():
    """(chart, mu, basepoint): the origin and five seeded points per chart, 132 solves."""
    rng = random.Random(7)
    for dim in (2, 3):
        points = [(0,) * dim] + [tuple(Fraction(rng.randint(-50, 50), 100) for _ in range(dim))
                                 for _ in range(5)]
        for potential in SCAN_POTENTIALS:
            chart = deformed_flat(potential, dim)
            for point in points:
                yield chart, qs.distinguished_eigenvalue(dim), point


def test_exp_log_scan_gives_the_maximal_space():
    # strongly projectively flat charts: the paper's m+1 at -1/(m-1), from generation-0
    # rows that are all zero as polynomials in the tower, so no row is ranked in floats
    solves = list(scan_solves())
    assert len(solves) == 132
    for chart, mu, point in solves:
        system = qs.build_jet_system(chart, mu)
        assert system.tower.atoms
        assert qs.integrability_constraints(system).effective_rows() == []
        space = qs.solution_dimension(chart, mu, point)
        assert (space.dim, space.rank_history, space.exact) == (chart.dim + 1, (0,), False)


@pytest.mark.parametrize("potential", ["x1^2*log(2 + x2)", "exp(x1*x2)", "exp(x1/2)*x2",
                                       "log(3 + x1*x2)*x1", "x1*log(3 + x1*x2)"])
def test_slow_tree_potentials_give_the_maximal_space(potential):
    # the tree rows took seconds here; x1*log(3 + x1*x2) gave dim 0, history (0, 0, 1, 4)
    space = qs.solution_dimension(deformed_flat(potential, 3), Fraction(-1, 2), (0, 0, 0))
    assert (space.dim, space.rank_history) == (4, (0,))


@pytest.mark.parametrize("potential, point", [
    ("exp(x1 - x2)/2", (Fraction(3, 10), Fraction(-1, 5))),  # the tree rows gave dim 0
    ("x1*log(x1)", (Fraction(1, 2), 0)),  # the tree rows gave dim 2 at both points
    ("x1*log(x1)", (2, Fraction(1, 3))),
])
def test_float_rank_repros_give_the_maximal_space(potential, point):
    assert qs.solution_dimension(deformed_flat(potential, 2), -1, point).dim == 3


def expdeformed_wall():
    """wall_dim1_surface(1) deformed by exp(x2)/3, CI's expdeformed.json."""
    g = ex.parse_scalar("exp(x2)/3", ["x1", "x2"])
    return pj.deform(cat.wall_dim1_surface(1).manifold(), pj.ProjectiveChange.from_potential(g, 2))


def exp_chart():
    return geo.load_manifold({"dim": 2, "christoffel": {"1,1^1": "exp(x1)", "1,2^2": "x2*exp(x1)"}})


def log_chart():
    return geo.load_manifold({"dim": 2, "christoffel": {"2,2^1": "log(x1)"}})


# curved exp/log charts, whose rows are not zero: (chart, mu, basepoint, rank history)
CURVED_SOLVES = [
    (expdeformed_wall, -1, (1, 0), (2, 2, 2)),
    (expdeformed_wall, -1, (Fraction(7, 5), Fraction(1, 3)), (2, 2, 2)),
    (exp_chart, 1, (0, 0), (2, 3)),
    (log_chart, -1, (1, 0), (1, 3)),
    (exp_chart, 1, (200, 0), (1, 3)),
]


def spans_agree(basis, other):
    """Two float bases of one size span the same space, up to rounding."""
    if len(basis) != len(other) or not basis:
        return len(basis) == len(other)
    singular = np.linalg.svd(np.asarray([*basis, *other]), compute_uv=False)
    return len(singular) == len(basis) or singular[len(basis)] <= 1e-6 * singular[0]


def test_curved_exp_log_charts_rank_as_the_svd_oracle(monkeypatch):
    calls = []

    def both(rows, ncols):
        got, oracle = float_rank_kernel(rows, ncols), svd_rank_kernel(rows, ncols)
        calls.append((got, oracle))
        return oracle

    # the oracle drives the solves; equal ranks on every call make equal rank histories
    monkeypatch.setattr(qs, "float_rank_kernel", both)
    for chart, mu, point, history in CURVED_SOLVES:
        space = qs.solution_dimension(chart(), mu, point)
        assert not space.exact
        assert (space.dim, space.rank_history) == (3 - history[-1], history)
    assert len(calls) == sum(len(history) for *_, history in CURVED_SOLVES)
    for (rank, basis), (oracle_rank, oracle_basis) in calls:
        assert rank == oracle_rank
        assert spans_agree(basis, oracle_basis)


def test_curved_exp_log_chart_at_two_mu_on_one_object():
    # the tower and rho sums are built once and shared by every mu: the float solves
    # on one object are those of a fresh copy of the chart per mu, in either order
    shared, point = expdeformed_wall(), (Fraction(7, 5), Fraction(1, 3))
    for mu, history in ((-1, (2, 2, 2)), (2, (2, 3)), (-1, (2, 2, 2))):
        space = qs.solution_dimension(shared, mu, point)
        assert (space.rank_history, space.exact) == (history, False)
        assert space == qs.solution_dimension(expdeformed_wall(), mu, point)


@pytest.mark.parametrize("x1", [360, 700])
def test_overflowing_row_values_are_domain_errors(x1):
    # at x1 = 200 the exp chart still ranks, in CURVED_SOLVES; past it the rows overflow
    with pytest.raises(ex.DomainError, match="float overflow: a value past the float range"):
        qs.solution_dimension(exp_chart(), 1, (x1, 0))


def test_log_of_a_non_positive_basepoint_value_is_a_domain_error():
    with pytest.raises(ex.DomainError, match="log of a non-positive value"):
        qs.solution_dimension(log_chart(), -1, (-1, 0))
