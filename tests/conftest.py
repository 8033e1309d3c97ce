"""Shared fixtures: example problems, cached psi runs, grids."""

import pathlib

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
