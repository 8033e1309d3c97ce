import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from effapprox import sdp
from effapprox.sdp import SdpProblem, SdpStatus, solve
from perfbench.workloads import constructed_instance


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


def free_in_three_rows_problem():
    # maximize t with X = [[2 - t, t], [t, 2 - t]] PSD; t* = 1.  t sits in
    # three rows, so eliminating it rewrites the other two (T != 0)
    prob = SdpProblem(block_dims=[2], n_free=1)
    for i, j, v, coef, rhs in [(0, 0, 1.0, 1.0, 2.0), (1, 1, 1.0, 1.0, 2.0),
                               (0, 1, 0.5, -1.0, 0.0)]:
        r = prob.add_row(rhs)
        prob.set_entry(r, 0, i, j, v)
        prob.set_free_entry(r, 0, coef)
    prob.obj_free = [-1.0]
    return prob, -1.0


def _free_residuals(prob, sol):
    """(||A(X) + B u - b||, ||B^T y - c_free||) recomputed from the triplets."""
    ax = np.zeros(prob.n_rows)
    for row, block, i, j, v in prob.entries:
        ax[row] += v * sol.block_values[block][i, j] * (1.0 if i == j else 2.0)
    B = np.zeros((prob.n_rows, prob.n_free))
    for row, idx, v in prob.free_entries:
        B[row, idx] += v
    primal = np.linalg.norm(ax + B @ sol.free_values - np.array(prob.rhs))
    return primal, np.linalg.norm(B.T @ sol.dual_values - np.array(prob.obj_free))


def test_free_variables_reconstructed():
    rng = np.random.default_rng(5)
    cases = [free_in_three_rows_problem()]
    while len(cases) < 11:
        prob, value = constructed_instance(rng)
        if prob.n_free:
            cases.append((prob, value))
    for prob, value in cases:
        sol = solve(prob)
        assert sol.status == SdpStatus.OPTIMAL
        primal, dual = _free_residuals(prob, sol)
        assert primal <= 1e-6 * (1 + np.linalg.norm(prob.rhs))
        assert dual <= 1e-8
        assert abs(sol.primal_obj - value) <= 1e-6 * (1 + abs(value))
        if prob is cases[0][0]:
            assert abs(sol.free_values[0] - 1.0) <= 1e-6  # t* = 1


def test_free_variable_in_no_row_rejected():
    prob = SdpProblem(block_dims=[1], n_free=2)
    prob.add_row(1.0)
    prob.set_entry(0, 0, 0, 0, 1.0)
    prob.add_row(0.0)
    prob.set_free_entry(1, 0, 1.0)  # variable 1 appears nowhere
    with pytest.raises(ValueError):
        solve(prob)
    prob.set_free_entry(0, 1, 1.0)
    assert solve(prob).status == SdpStatus.OPTIMAL
    prob.n_free = 3  # more free variables than rows
    with pytest.raises(ValueError):
        solve(prob)


def mixed_width_problem(order):
    """Widths [3, 1, 2, 3, 1] with a known optimum, its blocks listed in
    ``order``.  No row touches block 3, whose S is positive definite, so its
    X is 0.  Each X_b S_b = 0, and C and the rhs are back-solved from a dual
    point.  Returns (problem, X_b in the original order, optimal value)."""
    rng = np.random.default_rng(12)
    dims, ranks, p = [3, 1, 2, 3, 1], [2, 1, 1, 0, 0], 8
    Xs, Ss, As = [], [], []
    for b, (d, r) in enumerate(zip(dims, ranks)):
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = rng.uniform(0.5, 2.0, size=d)
        Xs.append((Q[:, :r] * lam[:r]) @ Q[:, :r].T)
        Ss.append((Q[:, r:] * lam[r:]) @ Q[:, r:].T)
        A = rng.normal(size=(p, d, d)) * (b != 3)
        As.append(A + A.transpose(0, 2, 1))
    y = rng.normal(size=p)
    prob = SdpProblem(block_dims=[dims[b] for b in order])
    for i in range(p):
        prob.add_row(sum(float(np.vdot(As[b][i], Xs[b])) for b in range(5)))
    for pos, b in enumerate(order):
        C = np.tensordot(y, As[b], 1) + Ss[b]
        for r, c in zip(*np.triu_indices(dims[b])):
            prob.set_obj_entry(pos, r, c, float(C[r, c]))
            for i in range(p * (b != 3)):
                prob.set_entry(i, pos, r, c, float(As[b][i, r, c]))
    return prob, Xs, float(np.array(prob.rhs) @ y)


def test_mixed_widths_in_any_block_order():
    # the solver stacks blocks by width; block_values keep the caller's order
    order = [4, 2, 0, 3, 1]
    prob, Xs, value = mixed_width_problem(range(5))
    permuted = mixed_width_problem(order)[0]
    sol, sol2 = solve(prob), solve(permuted)
    for s in (sol, sol2):
        assert s.status == SdpStatus.OPTIMAL
        assert abs(s.primal_obj - value) <= 1e-6 * (1 + abs(value))
    for pos, b in enumerate(order):
        assert sol.block_values[b].shape == Xs[b].shape
        assert np.abs(sol.block_values[b] - Xs[b]).max() <= 1e-6
        assert sol2.block_values[pos].shape == Xs[b].shape
        assert np.abs(sol2.block_values[pos] - sol.block_values[b]).max() <= 1e-6


def test_linear_program_of_scalar_blocks():
    # minimize x1 + 2 x2 + 3 x3 with x1 + x2 + x3 = 1, x1 = x2, x >= 0:
    # x* = (1/2, 1/2, 0), value 3/2; every block is 1x1
    prob = SdpProblem(block_dims=[1, 1, 1])
    for b, (a0, a1, c) in enumerate([(1.0, 1.0, 1.0), (1.0, -1.0, 2.0), (1.0, 0.0, 3.0)]):
        prob.set_obj_entry(b, 0, 0, c)
        for row, a in enumerate((a0, a1)):
            prob.set_entry(row, b, 0, 0, a)
    prob.rhs = [1.0, 0.0]
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_obj - 1.5) <= 1e-6
    x = [float(v[0, 0]) for v in sol.block_values]
    assert np.allclose(x, [0.5, 0.5, 0.0], atol=1e-6)


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


def test_max_iterations_exit(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    prob = correlation_extreme_problem()
    sol = solve(prob)
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
    # the same messages whether the entries are tuples or one (nnz, 5) array
    for entry, message in [
        ((0, 1, 0, 0, 1.0), "entry references block 1, have 1"),  # no block 1
        ((0, 0, 2, 0, 1.0), "entry index (0,2) outside block of size 2"),
        ((5, 0, 0, 0, 1.0), "entry references row 5, have 1 rows"),
    ]:
        prob = SdpProblem(block_dims=[2], n_free=0)
        prob.add_row(0.0)
        prob.set_entry(*entry)
        for entries in (prob.entries, np.array(prob.entries)):
            prob.entries = entries
            with pytest.raises(ValueError) as err:
                prob.validate()
            assert str(err.value) == message


def test_fractional_indices_rejected():
    # validate used to pass these and _compile truncated them to integers
    prob = SdpProblem(block_dims=[2], n_free=1)
    prob.add_row(1.0)
    prob.set_entry(0, 0, 0, 0, 1.0)
    prob.obj_free = [1.0]
    prob.entries.append((0.5, 0.7, 0, 1.5, 1.0))
    for entries in (prob.entries, np.array(prob.entries)):
        prob.entries = entries
        with pytest.raises(ValueError) as err:
            prob.validate()
        assert str(err.value) == "entry indices (0.5, 0.7, 0, 1.5) are not all integers"
    prob.entries = prob.entries[:1]
    prob.free_entries = [(0, 0.4, 1.0)]
    with pytest.raises(ValueError, match=r"free entry indices \(0, 0.4\)"):
        prob.validate()
    prob.free_entries = []
    prob.obj_entries = [(0, 0, float("nan"), 1.0)]
    with pytest.raises(ValueError, match="objective indices"):
        prob.validate()


def _dense_rows(prob):
    """Per block, the (n_rows, d, d) stack of the symmetric A_r."""
    stacks = [np.zeros((prob.n_rows, d, d)) for d in prob.block_dims]
    for row, block, i, j, v in prob.entries:
        stacks[block][row, i, j] += v
        if i != j:
            stacks[block][row, j, i] += v
    return stacks


def _dense_schur(prob, Ws):
    """M_rs = sum_b <A_r, W_b A_s W_b> from dense A_r and np.kron."""
    p = prob.n_rows
    M = np.zeros((p, p))
    for A, W in zip(_dense_rows(prob), Ws):
        flat = A.reshape(p, -1)
        M += flat @ np.kron(W, W) @ flat.T
    return M


def _schur_problem(rng, mid):
    """Random rows over blocks [1, 5, 3, 4] (block 3 touched by no row),
    with two runs of four rows that use only Gram indices >= 2 of block 1:
    rows 9-12 and the last four, with ``mid`` random rows between them that
    also use index 0 of block 1."""
    dims = [1, 5, 3, 4]
    prob = SdpProblem(block_dims=dims, n_free=0)

    def random_row():
        r = prob.add_row(0.0)
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

    def high_rows(scale):
        for i, j, v in [(2, 3, 0.4), (3, 4, -0.9), (2, 4, 0.7), (3, 3, -1.3)]:
            r = prob.add_row(0.0)
            prob.set_entry(r, 1, i, j, scale * v)
            prob.set_entry(r, 1, 4, 4, 0.2 * v)

    for _ in range(9):
        random_row()
    high_rows(1.0)
    for _ in range(mid):  # Gram index 0 of block 1 in a head's rows [h, s]
        random_row()
        prob.set_entry(prob.n_rows - 1, 1, 0, 1, 0.3)
    high_rows(1.5)
    return prob


def _row_windows(plan, blocks, b):
    """Block b's window start of each row with an entry in it, by row."""
    return {s: a for (rows, *_), start in zip(blocks[b].buckets, plan.windows[b])
            for s, a in zip(rows.tolist(), start)}


def test_schur_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(7)
    for mid in (1, 0):  # p = 18 and 17, both with h = 9
        prob = _schur_problem(rng, mid)
        dims, p = prob.block_dims, prob.n_rows
        Ws = []
        for d in dims:
            Q = rng.normal(size=(d, d))
            Ws.append(Q @ Q.T + d * np.eye(d))
        blocks = sdp._compile(prob)[0]
        assert len(blocks[1].buckets) >= 3  # several per-row entry counts
        assert max(len(rows) for rows, *_ in blocks[1].buckets) >= 3
        assert not blocks[3].buckets
        W = np.zeros(sum(d * d for d in dims))  # flat, the blocks sorted by width
        for bl, Wb in zip(blocks, Ws):
            W[bl.sl] = Wb.ravel()
        ref = _dense_schur(prob, Ws)
        # windows a > 0: the heads of rows 9-12, the first four rows >= h; the
        # last four rows' heads start at 0 when a mid row, which uses Gram
        # index 0, lies in [h, s]
        windows = _row_windows(sdp._Schur(blocks, p), blocks, 1)
        assert [windows[s] for s in range(9, 13)] == [2] * 4
        assert [windows[s] for s in range(p - 4, p)] == [2 if mid == 0 else 0] * 4
        # one row per chunk; chunks of two 5x5 rows split the buckets of
        # block 1; the default chunk holds every bucket whole, so that its
        # chunks mix tails and heads
        for chunk in (1, 2 * 25, sdp._SCHUR_CHUNK):
            monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
            plan = sdp._Schur(blocks, p)
            assert plan.M.shape == (p * (p + 1) // 2,)
            plan.M.fill(np.nan)  # _schur zeroes it
            sdp._schur(blocks, W, plan)
            lower, info = lapack.dtfttr(p, plan.M, uplo="L")  # LAPACK's RFP layout
            assert info == 0
            assert np.abs(np.tril(lower) - np.tril(ref)).max() <= 1e-12 * np.abs(ref).max()


def test_constraint_maps_match_dense_reference():
    rng = np.random.default_rng(11)
    dims = [3, 2, 3]  # the two 3-wide blocks share one stack of the flat layout
    prob = SdpProblem(block_dims=dims)
    for r in range(7):
        prob.add_row(0.0)
        for b, d in enumerate(dims):
            if r == 6 and b == 1:
                continue  # a row without entries in a block
            prob.set_entry(r, b, d - 1, d - 1, 1.5 + r)  # diagonal
            prob.set_entry(r, b, 1, 0, 0.25 * r)  # off-diagonal, given as (j, i),
            prob.set_entry(r, b, 0, 1, -0.75)  # and a duplicate, summed
            for _ in range(r % 3):
                i, j = (int(k) for k in rng.integers(0, d, size=2))
                prob.set_entry(r, b, i, j, float(rng.normal()))
    p = prob.n_rows
    blocks, _, C, *_, tpos = sdp._compile(prob)
    A = _dense_rows(prob)
    X = np.zeros(len(C))
    Xs = []
    for bl in blocks:
        G = rng.normal(size=(bl.dim, bl.dim))
        Xs.append(G + G.T)
        X[bl.sl] = Xs[-1].ravel()
    ref = sum(np.einsum("rij,ij->r", Ab, Xb) for Ab, Xb in zip(A, Xs))
    assert np.abs(sdp._A_of(blocks, X, p) - ref).max() <= 1e-14 * np.abs(ref).max()
    y = rng.normal(size=p)
    adj = sdp._At_of(blocks, tpos, y)
    for bl, Ab in zip(blocks, A):
        U = adj[bl.sl].reshape(bl.dim, bl.dim)
        assert np.array_equal(U, U.T)  # exactly symmetric
        assert np.abs(U - np.einsum("r,rij->ij", y, Ab)).max() <= 1e-14 * np.abs(U).max()


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
        sdp._Scaling(np.stack([np.eye(2), -np.eye(2)]), np.stack([np.eye(2)] * 2))
    # a non-finite Schur complement never reaches the Cholesky factorization
    monkeypatch.setattr(sdp, "_schur", lambda blocks, W, plan: plan.M.fill(np.nan))
    sol = solve(correlation_extreme_problem())
    assert sol.status == SdpStatus.NUMERICAL_FAILURE
    assert sol.iterations == 0


def _reference_cholesky(M):
    """The failed-pivot rule on a copy of M's upper triangle: zero row and
    column j, put 1e64 on the diagonal and hand dpotrf a fresh copy again."""
    M = np.triu(M)
    while True:
        L, info = lapack.dpotrf(M.T, lower=1, clean=0)
        if info <= 0:
            return np.tril(L)
        j = info - 1
        M[j, :] = M[:, j] = 0.0
        M[j, j] = 1e64


def _schur_writes(monkeypatch, M):
    """Patch _schur to copy the symmetric M into a plan's RFP array, with no
    allocation, so that _Schur.factorize factors M."""
    rfp, info = lapack.dtrttf(M, uplo="L")
    assert info == 0
    monkeypatch.setattr(sdp, "_schur", lambda blocks, W, plan: np.copyto(plan.M, rfp))


# failed pivots first, in the middle, last, and several in one call, each
# with a negative diagonal, so that the rule must zero its row and column
@pytest.mark.parametrize("zeroed", [[0], [75], [-1], [3, 4, 64, 100, -1]])
def test_cholesky_in_place_matches_reference(monkeypatch, zeroed):
    for p in (150, 151):  # RFP's even and odd layouts
        rng = np.random.default_rng(p + zeroed[0])
        z = np.arange(p)[zeroed]
        plan = sdp._Schur([], p)
        for _ in range(2):  # the second factorization refreshes the first's keep
            G = rng.normal(size=(p, p))
            M = G @ G.T + np.eye(p)
            M[z, z] = -1.0
            _schur_writes(monkeypatch, M)
            assert plan.factorize([], None)
            L = np.tril(lapack.dtfttr(p, plan.M, uplo="L")[0])
            ref = _reference_cholesky(M)
            assert (np.diag(L)[z] == 1e32).all() and (np.diag(ref)[z] == 1e32).all()
            L[z, z] = ref[z, z] = 0.0
            assert np.abs(L - ref).max() <= 1e-14 * np.abs(ref).max()
            # keep holds M with the failed rows zeroed, for the next retry
            M[z, :] = M[:, z] = 0.0
            M[z, z] = 1e64
            assert np.array_equal(plan.keep, lapack.dtrttf(M, uplo="L")[0])


def test_nonfinite_schur_is_not_factored(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("dpftrf called")

    monkeypatch.setattr(lapack, "dpftrf", never)
    rng = np.random.default_rng(3)
    G = rng.normal(size=(70, 70))
    for bad in (np.inf, -np.inf, np.nan):
        M = G @ G.T + np.eye(70)
        M[2, 68] = M[68, 2] = bad
        _schur_writes(monkeypatch, M)
        assert not sdp._Schur([], 70).factorize([], None)


def test_cholesky_allocates_no_square_array(monkeypatch):
    p = 600
    rng = np.random.default_rng(1)
    G = rng.normal(size=(p, p))
    M = G @ G.T
    M[300, 300] = -1.0  # one retry, so the copy and the restore run too
    _schur_writes(monkeypatch, M)
    plan = sdp._Schur([], p)
    tracemalloc.start()
    try:
        assert plan.factorize([], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.keep is not None
    assert lapack.dtfttr(p, plan.M, uplo="L")[0][300, 300] == 1e32
    assert peak <= 8 * p * (p + 1) // 2 + 64 * p  # the copy, and O(p) besides


def test_cholesky_repeated_row_solves_consistent_system(monkeypatch):
    # row 2 of this PSD matrix repeats row 0, so pivot 2 is exactly 0; it is
    # a head of the RFP layout (h = 2), and its column crosses both tails
    G = np.array([[2.0, 0, 0], [1, 1, 0], [2, 0, 0], [0, 1, 3]])
    M = G @ G.T
    h = M @ np.array([1.0, -2.0, 0.5, 3.0])  # in the range of M
    _schur_writes(monkeypatch, M)
    plan = sdp._Schur([], 4)
    assert plan.factorize([], None)
    dy = plan.solve(h)
    assert np.isfinite(dy).all()
    assert abs(dy[2]) <= 1e-12
    assert np.abs(M @ dy - h).max() <= 1e-12 * np.abs(h).max()


def many_rows_tiny_blocks_problem(n_blocks=40):
    """Each row pins one upper-triangle entry of a 4x4 block, plus a small
    multiple of a diagonal entry of the next block: 10 rows per block."""
    prob = SdpProblem(block_dims=[4] * n_blocks)
    X0 = np.eye(4) + 0.1  # interior: the rows' values at X0 are the rhs
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    for b in range(n_blocks):
        for k, (i, j) in enumerate(pairs):
            r = prob.add_row(X0[i, j] * (1.0 if i == j else 2.0) + 0.5 * X0[k % 4, k % 4])
            prob.set_entry(r, b, i, j, 1.0)
            prob.set_entry(r, (b + 1) % n_blocks, k % 4, k % 4, 0.5)
        for i in range(4):
            prob.set_obj_entry(b, i, i, 1.0)
    return prob


def _record_factorizations(monkeypatch):
    """The info of every dpftrf call, and every _Schur plan made."""
    infos, plans = [], []
    dpftrf, init = lapack.dpftrf, sdp._Schur.__init__

    def counted(*args, **kwargs):
        out = dpftrf(*args, **kwargs)
        infos.append(out[1])
        return out

    def recorded(plan, *args):
        init(plan, *args)
        plans.append(plan)

    monkeypatch.setattr(lapack, "dpftrf", counted)
    monkeypatch.setattr(sdp._Schur, "__init__", recorded)
    return infos, plans


def test_solve_without_failed_pivots_allocates_no_square_array(monkeypatch):
    # RFP storage holds M in p(p+1)/2 doubles, and no copy of it is made
    # while no pivot fails; a p x p array alone would exceed the bound
    infos, plans = _record_factorizations(monkeypatch)
    prob = many_rows_tiny_blocks_problem()
    p = prob.n_rows
    tracemalloc.start()
    try:
        sol = solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == SdpStatus.OPTIMAL
    assert peak < p * p * 8
    assert infos and not any(infos)
    assert len(plans) == 1 and plans[0].keep is None


def test_failed_pivots_restore_from_rfp_copy(monkeypatch):
    # 7 rows on blocks [2, 3] whose optimum makes M singular: pivots fail
    # mid-solve, Wright's rule restores M from its RFP copy, and the solve
    # still reaches the known optimum
    infos, plans = _record_factorizations(monkeypatch)
    rng = np.random.default_rng(10)
    for _ in range(35):
        prob, value = constructed_instance(rng)
    assert prob.block_dims == [2, 3] and prob.n_rows == 7
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_obj - value) <= 1e-6 * (1 + abs(value))
    assert any(info > 0 for info in infos)
    assert plans[0].keep.shape == plans[0].M.shape == (7 * 8 // 2,)
