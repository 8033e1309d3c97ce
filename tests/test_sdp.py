from types import SimpleNamespace

import numpy as np
import pytest

from conftest import constructed_instance
from effapprox import sdp
from effapprox.sdp import SdpProblem, SdpStatus, residuals, solve


def scalar_lower_bound_problem():
    # minimize t subject to X11 >= 1 (slack block), t tied to X11; t* = 1
    prob = SdpProblem(block_dims=[1, 1], n_free=1)
    r0 = prob.add_row(0.0)
    prob.set_entry(r0, 0, 0, 0, 1.0)
    prob.set_free_entry(r0, 0, -1.0)
    r1 = prob.add_row(1.0)
    prob.set_entry(r1, 0, 0, 0, 1.0)
    prob.set_entry(r1, 1, 0, 0, -1.0)
    prob.obj_free = [1.0]
    return prob


def correlation_extreme_problem():
    # maximize lam with [[1, lam], [lam, 1]] PSD; lam* = 1
    prob = SdpProblem(block_dims=[2], n_free=1)
    r0 = prob.add_row(1.0)
    prob.set_entry(r0, 0, 0, 0, 1.0)
    r1 = prob.add_row(1.0)
    prob.set_entry(r1, 0, 1, 1, 1.0)
    r2 = prob.add_row(0.0)
    prob.set_entry(r2, 0, 0, 1, 0.5)
    prob.set_free_entry(r2, 0, -1.0)
    prob.obj_free = [-1.0]
    return prob


def test_tied_scalar_variable():
    sol = solve(scalar_lower_bound_problem())
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.free_values[0] - 1.0) <= 1e-6
    assert sol.residuals.max() <= 1e-6


def test_correlation_matrix_extreme():
    sol = solve(correlation_extreme_problem())
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.free_values[0] - 1.0) <= 1e-6


def test_single_constructed_three_by_three():
    rng = np.random.default_rng(33)
    # retry draws until the single block is 3x3 for a fixed-size regression
    while True:
        prob, value = constructed_instance(rng)
        if prob.block_dims == [3]:
            break
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_obj - value) <= 1e-6 * (1 + abs(value))


def test_constructed_instances_batch():
    rng = np.random.default_rng(101)
    for _ in range(15):
        prob, value = constructed_instance(rng)
        sol = solve(prob)
        assert sol.status == SdpStatus.OPTIMAL
        assert sol.residuals.max() <= 1e-6
        assert abs(sol.primal_obj - value) <= 1e-6 * (1 + abs(value))
        # weak duality at the returned iterate
        assert sol.dual_obj <= sol.primal_obj + 1e-6 * (1 + abs(sol.primal_obj))


def test_residuals_recomputation_matches():
    prob = scalar_lower_bound_problem()
    sol = solve(prob)
    rep = residuals(prob, sol)
    assert rep.primal_feas <= 1e-7
    assert rep.dual_feas <= 1e-7
    assert rep.gap <= 1e-6
    assert rep.max() == max(rep.primal_feas, rep.dual_feas, rep.gap)


def test_residuals_detect_perturbation():
    prob = scalar_lower_bound_problem()
    sol = solve(prob)
    clean = residuals(prob, sol).primal_feas
    sol.block_values[0][0, 0] += 1e-3
    assert residuals(prob, sol).primal_feas > clean + 1e-4


def test_infeasible_detected():
    # trace(X) = -1 has no PSD solution
    prob = SdpProblem(block_dims=[3], n_free=0)
    prob.add_row(-1.0)
    for i in range(3):
        prob.set_entry(0, 0, i, i, 1.0)
    sol = solve(prob)
    assert sol.status == SdpStatus.INFEASIBLE


def test_unbounded_detected():
    # minimize -X00 with only the off-diagonal pinned
    prob = SdpProblem(block_dims=[2], n_free=0)
    prob.add_row(0.0)
    prob.set_entry(0, 0, 0, 1, 1.0)
    prob.set_obj_entry(0, 0, 0, -1.0)
    prob.set_obj_entry(0, 1, 1, 1.0)
    sol = solve(prob)
    assert sol.status == SdpStatus.UNBOUNDED


def test_linearly_dependent_rows_do_not_crash():
    # five rows on a 2x2 block exceed the three symmetric degrees of freedom;
    # the system stays consistent because the rhs comes from an actual X
    rng = np.random.default_rng(1)
    prob = SdpProblem(block_dims=[2], n_free=0)
    X0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    for i in range(5):
        M = rng.normal(size=(2, 2))
        M = (M + M.T) / 2
        prob.add_row(float(np.vdot(M, X0)))
        for r in range(2):
            for c in range(r, 2):
                prob.set_entry(i, 0, r, c, float(M[r, c]))
    prob.set_obj_entry(0, 0, 0, 1.0)
    prob.set_obj_entry(0, 1, 1, 1.0)
    sol = solve(prob)  # must return, not raise
    assert sol.status in (SdpStatus.OPTIMAL, SdpStatus.NUMERICAL_FAILURE)


@pytest.mark.parametrize("seed, index", [(203, 31), (219, 2)])
def test_rows_pinning_x_reach_optimal(seed, index):
    # one 2x2 block and 3 rows fix X, whose optimum is singular, so the Schur
    # system loses rank and its LU meets an exactly zero pivot near the end
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        prob, value = constructed_instance(rng)
    assert prob.block_dims == [2] and prob.n_rows == 3
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_obj - value) <= 1e-6 * (1 + abs(value))


def test_nan_data_reports_numerical_failure():
    # no finite iterate is ever seen, so there is no best one to return
    prob = correlation_extreme_problem()
    prob.rhs[0] = float("nan")
    sol = solve(prob)
    assert sol.status == SdpStatus.NUMERICAL_FAILURE
    assert sol.iterations == 0


def test_max_iterations_exit():
    prob = correlation_extreme_problem()
    sol = solve(prob, max_iterations=2)
    assert sol.iterations <= 2
    assert sol.status in (SdpStatus.MAX_ITERATIONS, SdpStatus.OPTIMAL)


def test_validate_rejects_bad_shapes():
    prob = SdpProblem(block_dims=[2], n_free=1)
    prob.add_row(1.0)
    prob.set_entry(0, 0, 0, 0, 1.0)
    prob.obj_free = [1.0, 2.0]  # wrong length
    with pytest.raises(ValueError):
        prob.validate()


def test_entry_bounds_checked():
    prob = SdpProblem(block_dims=[2], n_free=0)
    prob.add_row(0.0)
    prob.set_entry(0, 1, 0, 0, 1.0)  # no block 1
    with pytest.raises(ValueError, match="block"):
        prob.validate()

    prob2 = SdpProblem(block_dims=[2], n_free=0)
    prob2.add_row(0.0)
    prob2.set_entry(0, 0, 2, 0, 1.0)  # index beyond dim
    with pytest.raises(ValueError, match="outside block"):
        prob2.validate()


def _dense_schur(prob, Ws):
    """M_rs = sum_b <A_r, W_b A_s W_b> from dense A_r and np.kron."""
    p = prob.n_rows
    M = np.zeros((p, p))
    for b, (d, W) in enumerate(zip(prob.block_dims, Ws)):
        A = np.zeros((p, d, d))
        for row, block, i, j, v in prob.entries:
            if block == b:
                A[row, i, j] += v
                if i != j:
                    A[row, j, i] += v
        flat = A.reshape(p, d * d)
        M += flat @ np.kron(W, W) @ flat.T
    return M


def test_schur_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(7)
    dims = [1, 5, 3, 4]  # block 3 is touched by no row
    prob = SdpProblem(block_dims=dims, n_free=0)
    for r in range(14):
        prob.add_row(0.0)
        for b, d in enumerate(dims[:3]):
            if r % 4 == b:
                continue  # some rows have no entry in some block
            n = int(rng.integers(1, 6))
            for _ in range(n):
                i, j = sorted(int(k) for k in rng.integers(0, d, size=2))
                if b == 2 and r % 2:
                    j = i  # diagonal-only rows
                prob.set_entry(r, b, i, j, float(rng.normal()))
                if r % 3 == 0:  # duplicate entries are summed
                    prob.set_entry(r, b, j, i, float(rng.normal()))
    # the last row, alone in block 1, reduces over the one-row tail indptr[p-1:]
    last = prob.add_row(0.0)
    prob.set_entry(last, 1, 2, 4, 0.7)
    prob.set_entry(last, 1, 3, 3, -1.3)
    p = prob.n_rows
    Ws = []
    for d in dims:
        Q = rng.normal(size=(d, d))
        Ws.append(Q @ Q.T + d * np.eye(d))
    blocks = sdp._compile(prob)[0]
    assert len(blocks[1].buckets) >= 3  # several per-row entry counts
    assert max(len(rows) for rows, *_ in blocks[1].buckets) >= 3
    assert not blocks[3].buckets
    scals = [SimpleNamespace(W=W) for W in Ws]
    ref = _dense_schur(prob, Ws)
    # one row per chunk; chunks of two 5x5 rows split the buckets of block 1;
    # the default chunk holds every bucket whole
    for chunk in (1, 2 * 25, sdp._SCHUR_CHUNK):
        monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
        # M is filled in place as the leading block of the augmented system
        K = np.full((p + 2, p + 2), np.nan)
        sdp._schur(blocks, scals, K[:p, :p])
        M = K[:p, :p]
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(M, M.T)
        assert np.isnan(K[:, p:]).all() and np.isnan(K[p:, :]).all()


def test_nonfinite_corrector_reports_numerical_failure(monkeypatch):
    # the corrector alone reads the scaled eigenvalues lam, so a NaN there
    # leaves the predictor finite and poisons only the corrector direction
    class PoisonedScaling(sdp._Scaling):
        def __init__(self, X, S):
            super().__init__(X, S)
            self.lam = self.lam * np.nan

    monkeypatch.setattr(sdp, "_Scaling", PoisonedScaling)
    sol = solve(correlation_extreme_problem())
    assert sol.status == SdpStatus.NUMERICAL_FAILURE
    assert sol.iterations == 0


def test_problem_without_rows():
    # minimize trace(X) over X >= 0 alone: the Newton system is empty
    prob = SdpProblem(block_dims=[2])
    prob.set_obj_entry(0, 0, 0, 1.0)
    prob.set_obj_entry(0, 1, 1, 1.0)
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_obj) <= 1e-6


def test_factorization_failures_report_numerical_failure(monkeypatch):
    # a matrix that is not positive definite fails the scaling's Cholesky
    with pytest.raises(np.linalg.LinAlgError):
        sdp._Scaling(-np.eye(2), np.eye(2))
    # a non-finite Schur complement never reaches the LU factorization
    monkeypatch.setattr(sdp, "_schur", lambda blocks, scals, M: M.fill(np.nan))
    sol = solve(correlation_extreme_problem())
    assert sol.status == SdpStatus.NUMERICAL_FAILURE
    assert sol.iterations == 0
