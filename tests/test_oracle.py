import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effapprox import oracle
from effapprox.oracle import (
    MAX_LATTICE,
    Grid,
    grid_volume,
    lipschitz_slack,
    weakly_eps_member_many,
)
from effapprox.problem import ProblemSpec, from_dict

from conftest import psi_oracle_many

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # balanced value at (1, 0) on the disk


def test_grid_construction(problems):
    _, disk, _ = problems["disk"]
    grid = Grid.for_problem(disk, 5)
    assert grid.points.shape == (25, 2)
    assert grid.feasible.shape[0] == np.count_nonzero(grid.feasible_mask)
    assert np.all(np.abs(grid.feasible[:, 0] ** 2 + grid.feasible[:, 1] ** 2) <= 1 + 1e-12)
    assert grid.cell_volume == pytest.approx(0.25)
    with pytest.raises(ValueError):
        Grid.on_box([(-1, 1)], 1, disk)
    # the lattice size is checked before anything is allocated
    for resolution in (100_000, 1025):
        assert resolution**2 > MAX_LATTICE
        with pytest.raises(ValueError, match="lattice"):
            Grid.on_box([(-1, 1)] * 2, resolution, disk)


def test_objective_table_cached(problems):
    _, disk, _ = problems["disk"]
    grid = Grid.for_problem(disk, 11)
    with (
        mock.patch.object(ProblemSpec, "objective_values", autospec=True,
                          side_effect=ProblemSpec.objective_values) as tables,
        mock.patch.object(oracle.FrontChunks, "build",
                          wraps=oracle.FrontChunks.build) as fronts,
    ):
        for _ in range(2):
            table, front = grid.table, grid.front
            weakly_eps_member_many(grid.feasible, 0.1, grid, values=table)
    assert tables.call_count == fronts.call_count == 1
    assert table.shape == (3, grid.feasible.shape[0])
    (chunk,) = front.chunks
    assert chunk.flags.c_contiguous and front.rest.shape == (3, 0)
    assert 0 < chunk.shape[1] < table.shape[1]
    # every front column is a column of the table
    assert np.all((chunk.T[:, :, None] == table[None, :, :]).all(axis=1).any(axis=1))


def test_achievement_values_on_disk(problems, grids):
    _, disk, _ = problems["disk"]
    grid = grids.get("disk", 201)
    vals = psi_oracle_many([(0.0, 0.0), (-1.0, 0.0), (-0.5, -0.5), (1.0, 0.0)], grid)
    assert np.all(np.abs(vals[:3]) <= 1e-12)
    assert abs(vals[3] - GOLDEN) <= 0.005


def test_achievement_refines_toward_supremum(problems):
    # the 401-point lattice contains the 101-point one, so the estimate can
    # only move up, and it stays below the true supremum
    _, disk, _ = problems["disk"]
    (coarse,) = psi_oracle_many([(1.0, 0.0)], Grid.for_problem(disk, 101))
    (fine,) = psi_oracle_many([(1.0, 0.0)], Grid.for_problem(disk, 401))
    assert coarse <= fine <= GOLDEN + 1e-12


def test_achievement_nonnegative_on_feasible_lattice(problems, grids):
    _, disk, _ = problems["disk"]
    grid = grids.get("disk", 101)
    vals = psi_oracle_many(grid.feasible, grid)
    assert vals.min() >= 0.0


def test_achievement_value_on_half_line():
    spec = from_dict(
        {
            "n": 1,
            "objectives": [{"p": [[1.0, [1]]]}],
            "constraints": [[[1.0, [1]]]],  # x1 >= 0
            "box": [[-1.0, 1.0]],
        }
    )
    grid = Grid.for_problem(spec, 41)
    # at x = 1 the best comparison point is y = 0, giving 1
    assert psi_oracle_many([(1.0,)], grid)[0] == pytest.approx(1.0)


def test_membership_examples(problems, grids):
    _, disk, _ = problems["disk"]
    grid = grids.get("disk", 201)
    # (1, 1) is infeasible
    pts = [(-0.5, -0.5), (-0.5, -0.5), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    eps = [0.0, 0.5, 0.1, 0.65, 0.1]
    member = [weakly_eps_member_many([x], e, grid)[0] for x, e in zip(pts, eps)]
    assert member == [True, True, False, True, False]


def test_membership_monotone_in_eps(problems, grids):
    _, disk, _ = problems["disk"]
    grid = grids.get("disk", 101)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(300, 2))
    small = weakly_eps_member_many(pts, 0.05, grid)
    large = weakly_eps_member_many(pts, 0.2, grid)
    assert np.all(large[small])


def test_membership_accepts_vector_eps(problems, grids):
    _, disk, _ = problems["disk"]
    grid = grids.get("disk", 101)
    pts = np.array([[1.0, 0.0], [-0.5, -0.5]])
    a = weakly_eps_member_many(pts, 0.1, grid)
    b = weakly_eps_member_many(pts, (0.1, 0.1, 0.1), grid)
    assert a.tolist() == b.tolist()


def test_volume_estimates(problems):
    _, disk, _ = problems["disk"]
    grid = Grid.for_problem(disk, 401)
    assert grid_volume(grid.feasible_mask, grid) == pytest.approx(math.pi, abs=0.01)
    # closed form of the efficient set for this problem: the third-quadrant
    # quarter of the disk
    quarter = (
        (grid.points[:, 0] <= 0) & (grid.points[:, 1] <= 0) & grid.feasible_mask
    )
    assert grid_volume(quarter, grid) == pytest.approx(math.pi / 4, abs=0.01)
    assert grid_volume(np.zeros(grid.points.shape[0], dtype=bool), grid) == 0.0
    with pytest.raises(ValueError):
        grid_volume(grid.points[:, 0], grid)


def test_membership_agrees_with_achievement_threshold(problems, grids):
    # on a shared lattice the two tests are exactly equivalent for feasible
    # points: dominated by more than delta everywhere <=> value above delta
    _, disk, _ = problems["disk"]
    grid = grids.get("disk", 101)
    vals = psi_oracle_many(grid.feasible, grid)
    member = weakly_eps_member_many(grid.feasible, 0.1, grid)
    assert np.array_equal(member, vals <= 0.1)


def test_lipschitz_slack_scales_with_spacing(problems):
    _, disk, _ = problems["disk"]
    s100 = lipschitz_slack(Grid.for_problem(disk, 101))
    s200 = lipschitz_slack(Grid.for_problem(disk, 201))
    # steepest objective is the squared norm, gradient magnitude about 2
    assert 1.8 * 0.02 <= s100 <= 2.2 * 0.02
    assert s200 == pytest.approx(s100 / 2, rel=0.05)


# ---------------------------------------------------------------------------
# Pareto pruning against brute-force references


def _reference_front(F):
    """O(N^2) filter: the columns that no other, unequal column is <= in every
    row, keeping the first of each set of equal columns."""
    keep = []
    for j in range(F.shape[1]):
        le = (F <= F[:, [j]]).all(axis=0)
        eq = (F == F[:, [j]]).all(axis=0)
        if not (le & ~eq).any() and np.flatnonzero(eq)[0] == j:
            keep.append(j)
    return np.array(keep, dtype=int)


@st.composite
def tables(draw, values=(0.0, 1.0, 2.0, 3.0), m=None):
    """(m, N) tables of small values with repeated columns, so ties and
    duplicate columns really occur.  Hypothesis draws the sizes and a seed;
    the entries come from that seed, which spreads them better than
    Hypothesis' own array filling."""
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = rng.choice(values, size=(m, n))
    return np.concatenate([F, F[:, rng.integers(0, n, n // 3)]], axis=1) if n else F


@settings(deadline=None)
@given(F=tables(), chunk=st.integers(1, 9))
def test_front_matches_quadratic_filter(F, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "CHUNK", chunk)  # several sweep steps per table
        got = oracle._nondominated(F)
    assert np.array_equal(np.sort(got), _reference_front(F))


class TableSpec:
    """Stands in for a ProblemSpec on a 1-D lattice: the point with
    coordinate c has objective values values[:, c] and feasibility feas[c]."""

    n = 1

    def __init__(self, values, feas):
        self.values, self.feas, self.m = values, feas, values.shape[0]

    def objective_values(self, points):
        return self.values[:, points[:, 0].astype(int)]

    def feasibility_mask(self, points):
        return self.feas[points[:, 0].astype(int)]


def table_grid(spec, n_lattice):
    """A Grid for ``spec`` whose feasible points are 0..n_lattice-1 on a 1-D
    lattice."""
    lattice = np.arange(n_lattice, dtype=float)[:, None]
    return Grid(points=lattice, feasible=lattice, spacing=np.ones(1),
                feasible_mask=np.ones(n_lattice, dtype=bool), spec=spec)


@settings(deadline=None)
@given(
    F=tables((0.0, 1.0, 2.0, 3.0) * 4 + (np.inf, -np.inf, np.nan)),
    chunk=st.integers(1, 9),
    piece=st.integers(1, 9),
    data=st.data(),
)
@np.errstate(invalid="ignore")  # inf - inf in both the oracle and the reference
def test_oracle_unchanged_by_pruning(F, chunk, piece, data):
    m, n_lattice = F.shape
    queries = data.draw(tables((0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan), m))
    values = np.concatenate([F, queries], axis=1)
    feas = np.array(data.draw(st.lists(st.booleans(), min_size=values.shape[1],
                                       max_size=values.shape[1])), dtype=bool)
    feas[:n_lattice] = True
    spec = TableSpec(values, feas)
    pts = np.arange(n_lattice, values.shape[1], dtype=float)[:, None]
    fx, fq = queries, feas[n_lattice:]

    vector = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                         min_size=m, max_size=m)))
    with pytest.MonkeyPatch.context() as mp:
        # several full front chunks and one straddling a query's threshold,
        # and the queries answered in several pieces
        mp.setattr(oracle, "CHUNK", chunk)
        mp.setattr(oracle, "SCREEN_PIECE", piece)
        grid = table_grid(spec, n_lattice)
        for eps in (vector[0], vector):
            eps_col = np.broadcast_to(eps, (m,))[:, None, None]
            better = (F[:, None, :] < fx[:, :, None] - eps_col).all(axis=0)
            expect = fq & ~better.any(axis=1)
            assert np.array_equal(oracle.weakly_eps_member_many(pts, eps, grid), expect)

        if n_lattice == 0:
            return
        best = (fx[:, :, None] - F[:, None, :]).min(axis=0).max(axis=1)
        expect = np.where(fq, np.maximum(best, 0.0), best)
        assert np.array_equal(psi_oracle_many(pts, grid), expect, equal_nan=True)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_straddling_chunk_compared_column_by_column(m, monkeypatch):
    # front (-1, 9) (0, 8) | (1, 5) (2, 0) in chunks of two, rows 1..m-1 equal.
    # f(x) = (1.5, 2): the second chunk straddles 1.5, and its smallest F1 (0)
    # is below 2, but only in the column with F0 = 2, so x is not dominated.
    monkeypatch.setattr(oracle, "CHUNK", 2)
    front = np.array([[-1.0, 0.0, 1.0, 2.0]] + [[9.0, 8.0, 5.0, 0.0]] * (m - 1))
    queries = np.array([[1.5, 2.5, 1.5]] + [[2.0, 2.0, 6.0]] * (m - 1))
    values = np.concatenate([front, queries], axis=1)
    spec = TableSpec(values, np.ones(values.shape[1], dtype=bool))
    grid = table_grid(spec, 4)
    assert len(grid.front.chunks) == 2
    pts = np.arange(4.0, 7.0)[:, None]
    # dominated by (2, 0) from a full chunk, and by (1, 5) inside the straddling one
    assert oracle.weakly_eps_member_many(pts, 0.0, grid).tolist() == [True, False, False]
