"""Shared fixtures: example problems, cached psi runs, grids, SDP generators."""

import pathlib

import numpy as np
import pytest

from effapprox.achievement import approximate_psi
from effapprox.oracle import Grid
from effapprox.problem import load, rescale
from effapprox.sdp import SdpProblem

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


def constructed_instance(rng):
    """Random block SDP with a known strictly complementary optimal pair.

    Per block an orthogonal basis is split between the ranges of X and S, so
    X S = 0 exactly; C and the right-hand side are then back-solved from a
    random dual point.  Returns (problem, optimal value).
    """
    dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3)))]
    dof = sum(d * (d + 1) // 2 for d in dims)
    nf = int(rng.integers(0, 3))
    p = int(rng.integers(2, min(8, dof) + 1))
    Xs, Ss = [], []
    for d in dims:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        r = int(rng.integers(1, d))
        lx = np.zeros(d)
        lx[:r] = rng.uniform(0.5, 2.0, size=r)
        ls = np.zeros(d)
        ls[r:] = rng.uniform(0.5, 2.0, size=d - r)
        Xs.append((Q * lx) @ Q.T)
        Ss.append((Q * ls) @ Q.T)
    y = rng.normal(size=p)
    u = rng.normal(size=nf)
    A = {}
    for i in range(p):
        for b, d in enumerate(dims):
            M = rng.normal(size=(d, d))
            A[(i, b)] = (M + M.T) / 2
    B = rng.normal(size=(p, nf))

    prob = SdpProblem(block_dims=dims, n_free=nf)
    for i in range(p):
        rhs = sum(float(np.vdot(A[(i, b)], Xs[b])) for b in range(len(dims)))
        rhs += float(B[i] @ u)
        prob.add_row(rhs)
        for b, d in enumerate(dims):
            for row in range(d):
                for col in range(row, d):
                    prob.set_entry(i, b, row, col, float(A[(i, b)][row, col]))
        for j in range(nf):
            prob.set_free_entry(i, j, float(B[i, j]))
    for b, d in enumerate(dims):
        C = sum(y[i] * A[(i, b)] for i in range(p)) + Ss[b]
        for row in range(d):
            for col in range(row, d):
                prob.set_obj_entry(b, row, col, float(C[row, col]))
    prob.obj_free = [float(v) for v in (B.T @ y)]
    return prob, float(np.array(prob.rhs) @ y)
