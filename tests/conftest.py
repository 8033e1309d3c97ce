"""Shared fixtures: example problems, cached psi runs, grids; the grid
oracle for the achievement function that psi_k is compared against; and
membership in the region A(delta, k) of arbitrary points."""

import pathlib

import numpy as np
import pytest

from effapprox.achievement import approximate_psi
from effapprox.oracle import Grid
from effapprox.problem import load, rescale

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEM_FILES = {
    "disk": ROOT / "problems" / "disk_three_objectives.json",
    "rational": ROOT / "problems" / "disk_rational.json",
    "bicorn": ROOT / "problems" / "bicorn_rotated.json",
    "quartic": ROOT / "problems" / "disk_quartic.json",
    "ball": ROOT / "problems" / "ball_rational.json",
}


@pytest.fixture(scope="session")
def problem_paths():
    return PROBLEM_FILES


@pytest.fixture(scope="session")
def problems():
    """name -> (original spec, unit-box spec, affine map)."""
    out = {}
    for name, path in PROBLEM_FILES.items():
        spec = load(path)
        scaled, amap = rescale(spec)
        out[name] = (spec, scaled, amap)
    return out


class PsiCache:
    """Compute-once store for the expensive over-estimator runs."""

    def __init__(self, problems):
        self._problems = problems
        self._runs = {}

    def get(self, name, k, mode="dense"):
        key = (name, k, mode)
        if key not in self._runs:
            _, scaled, _ = self._problems[name]
            self._runs[key] = approximate_psi(scaled, k, mode)
        return self._runs[key]


@pytest.fixture(scope="session")
def psi_cache(problems):
    return PsiCache(problems)


class GridStore:
    def __init__(self, problems):
        self._problems = problems
        self._grids = {}

    def get(self, name, resolution):
        key = (name, resolution)
        if key not in self._grids:
            _, scaled, _ = self._problems[name]
            self._grids[key] = Grid.for_problem(scaled, resolution)
        return self._grids[key]


@pytest.fixture(scope="session")
def grids(problems):
    return GridStore(problems)


def psi_oracle_many(points, grid):
    """Lower bounds on the achievement function at each of the (N, n) points.

    Maximizes min_i (f_i(x) - f_i(y)) over the feasible lattice points y of
    ``grid``, plus x itself when feasible (so the value is >= 0, and exact 0
    is attainable, on the feasible set).  Only the front columns, finite or
    not, can attain the maximum; 256 points go at a time.
    """
    spec = grid.spec
    points = np.asarray(points, dtype=float)
    F = np.concatenate(grid.front.chunks + [grid.front.rest], axis=1)  # (m, Ny)
    fx_all = spec.objective_values(points)  # (m, N)
    feas = spec.feasibility_mask(points)
    out = np.empty(len(points))
    for s in range(0, len(points), 256):
        fx = fx_all[:, s : s + 256]
        zy = fx[0][:, None] - F[0][None, :]  # (c, Ny)
        for i in range(1, spec.m):
            np.minimum(zy, fx[i][:, None] - F[i][None, :], out=zy)
        best = zy.max(axis=1)
        # a feasible x competes as its own comparison point with value 0
        out[s : s + 256] = np.where(feas[s : s + 256], np.maximum(best, 0.0), best)
    return out


def worst_residual(solution):
    """The largest of an ``sdp.SdpSolution``'s relative primal and dual
    infeasibility and gap."""
    r = solution.residuals
    return max(r.primal_feas, r.dual_feas, r.gap)


def in_region_many(query, points):
    """Membership in A(delta, k) of ``query`` (an ``analysis.RegionQuery``):
    feasible and psi_k <= delta, at (N, n) points."""
    points = np.asarray(points, dtype=float)
    feas = query.spec.feasibility_mask(points)
    return feas & (query.psi.eval_many(points) <= query.delta)
