import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from effapprox import sdp
from effapprox.sdp import SdpProblem, SdpStatus, solve
from perfbench.workloads import constructed_instance

from conftest import worst_residual


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
    assert worst_residual(sol) <= 1e-6


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
        assert worst_residual(sol) <= 1e-6
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


def _flat_W(blocks, Ws):
    """The flat W of the scalings Ws, one per block in the caller's order."""
    W = np.zeros(sum(bl.dim**2 for bl in blocks))  # the blocks sorted by width
    for bl, Wb in zip(blocks, Ws):
        W[bl.sl] = Wb.ravel()
    return W


def _planned_schur(blocks, W, p):
    """M from a fresh plan whose M and L start NaN, so that the result shows
    _schur zeroing M and reading no L entry outside a chunk's windows."""
    plan = sdp._Schur(blocks, p)
    assert plan.M.shape == (p * (p + 1) // 2,)
    plan.M.fill(np.nan)
    plan.L.fill(np.nan)
    sdp._schur(blocks, W, plan)
    assert np.isfinite(plan.M).all()
    lower, info = lapack.dtfttr(p, plan.M, uplo="L")  # LAPACK's RFP layout
    assert info == 0
    return plan, np.tril(lower)


def _row_windows(plan, b):
    """Block b's window start of each row with an entry in it, by row, from
    a plan of one-row chunks (``_SCHUR_CHUNK`` = 1)."""
    return {int(rows[0]): terms[members.index(b)][0]
            for _, _, members, chunks in plan.batches if b in members
            for rows, _, terms in chunks}


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
        W = _flat_W(blocks, Ws)
        ref = np.tril(_dense_schur(prob, Ws))
        # one row per chunk, every block alone; chunks of two rows of block
        # 1, each row's gathers 4 n 5 doubles at its largest count n, which
        # pad a row with fewer entries than its neighbour; the default chunk,
        # one batch of blocks 0-2 whose one chunk mixes tails and heads
        pair = 2 * 4 * int(np.diff(blocks[1].csr[0]).max()) * 5
        for chunk in (1, pair, sdp._SCHUR_CHUNK):
            monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
            plan, lower = _planned_schur(blocks, W, p)
            assert np.abs(lower - ref).max() <= 1e-12 * np.abs(ref).max()
            assert all(3 not in members for _, _, members, _ in plan.batches)
            if chunk == 1:
                # windows a > 0: the heads of rows 9-12, the first four rows
                # >= h; the last four rows' heads start at 0 when a mid row,
                # which uses Gram index 0, lies in [h, s]
                windows = _row_windows(plan, 1)
                assert [windows[s] for s in range(9, 13)] == [2] * 4
                assert [windows[s] for s in range(p - 4, p)] == [2 if mid == 0 else 0] * 4
            if chunk == pair:
                ((_, _, _, chunks),) = (b for b in plan.batches if b[2] == [1])
                assert max(len(rows) for rows, _, _ in chunks) == 2
                assert any((terms[0][2] == 0).any() for _, _, terms in chunks)
        assert [members for _, _, members, _ in plan.batches] == [[0, 1, 2]]


def test_small_blocks_share_one_batch(monkeypatch):
    # blocks [1, 3, 2, 3, 5]: block 2 is touched by no row, row 0 touches
    # block 4 alone, every other row two or three blocks; the default plan
    # builds the four others in one chunk of one batch, and M keeps its
    # bits when every block is a batch of its own, one row per chunk
    rng = np.random.default_rng(5)
    dims = [1, 3, 2, 3, 5]
    prob = SdpProblem(block_dims=dims)
    prob.set_entry(prob.add_row(0.0), 4, 1, 3, 0.5)
    for r in range(1, 12):
        prob.add_row(0.0)
        for b in (0, 1, 3, 4):
            if (r + b) % 3:
                for _ in range(int(rng.integers(1, 4))):
                    i, j = sorted(int(k) for k in rng.integers(0, dims[b], size=2))
                    prob.set_entry(r, b, i, j, float(rng.normal()))
    p = prob.n_rows
    Ws = []
    for d in dims:
        Q = rng.normal(size=(d, d))
        Ws.append(Q @ Q.T + d * np.eye(d))
    blocks = sdp._compile(prob)[0]
    W = _flat_W(blocks, Ws)
    ref = np.tril(_dense_schur(prob, Ws))
    plan, batched = _planned_schur(blocks, W, p)
    ((_, width, members, chunks),) = plan.batches
    assert members == [0, 1, 3, 4] and width == 1 + 9 + 9 + 25 and len(chunks) == 1
    assert np.abs(batched - ref).max() <= 1e-12 * np.abs(ref).max()
    monkeypatch.setattr(sdp, "_SCHUR_CHUNK", 1)
    plan, alone = _planned_schur(blocks, W, p)
    assert [members for _, _, members, _ in plan.batches] == [[0], [1], [3], [4]]
    assert np.array_equal(batched.view(np.int64), alone.view(np.int64))
    # the whole program is 12 rows x 44: one batch when that fits the
    # buffer, each block alone when it is one double short, never a part
    for chunk, batches in ((527, [[0], [1], [3], [4]]), (528, [[0, 1, 3, 4]])):
        monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
        plan, M = _planned_schur(blocks, W, p)
        assert [members for _, _, members, _ in plan.batches] == batches
        assert np.array_equal(batched.view(np.int64), M.view(np.int64))


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
    blocks, groups, C, *_ = sdp._compile(prob)
    A = _dense_rows(prob)
    X = np.zeros(len(C))
    Xs = []
    for bl in blocks:
        G = rng.normal(size=(bl.dim, bl.dim))
        Xs.append(G + G.T)
        X[bl.sl] = Xs[-1].ravel()
    ref = sum(np.einsum("rij,ij->r", Ab, Xb) for Ab, Xb in zip(A, Xs))
    assert np.abs(sdp._A_of(blocks, X[None], p)[0] - ref).max() <= 1e-14 * np.abs(ref).max()
    y = rng.normal(size=p)
    adj = sdp._At_of(blocks, groups, y[None])[0]
    for bl, Ab in zip(blocks, A):
        U = adj[bl.sl].reshape(bl.dim, bl.dim)
        assert np.array_equal(U, U.T)  # exactly symmetric
        assert np.abs(U - np.einsum("r,rij->ij", y, Ab)).max() <= 1e-14 * np.abs(U).max()


def test_symmetrize_in_place_matches_transpose_gather():
    # the in-place (v + v^T) / 2 per group stack, bit for bit against the
    # flat gather through every block's transposed positions
    rng = np.random.default_rng(12)
    groups = sdp._compile(SdpProblem(block_dims=[3, 1, 6, 3, 2, 6, 6, 1]))[1]
    n = groups[-1][0].stop
    tpos = np.arange(n)
    for sl, shape in groups:
        tpos[sl] = tpos[sl].reshape(shape).mT.ravel()
    for _ in range(5):
        v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        ref = 0.5 * (v + v[tpos])
        assert sdp._symmetrize(v, groups) is v
        assert np.array_equal(v.view(np.int64), ref.view(np.int64))


def wide_block_problem(d):
    """minimize trace(X) over one d x d block with X[i, i] = 1 for i < 3 and
    X[0, 1] + X[1, 2] = 0.5: the optimum is 3, from four sparse rows."""
    prob = SdpProblem(block_dims=[d])
    for i in range(3):
        prob.set_entry(prob.add_row(1.0), 0, i, i, 1.0)
    r = prob.add_row(0.5)
    prob.set_entry(r, 0, 0, 1, 0.5)
    prob.set_entry(r, 0, 1, 2, 0.5)
    for i in range(d):
        prob.set_obj_entry(0, i, i, 1.0)
    return prob


def test_solve_working_set_bounded():
    # n = 90,000 doubles in one block against p = 4 rows: the flat block
    # vectors, not M, set the peak, and the module docstring's count of
    # them bounds it, beside the compiled program and 256 kB for O(p + d)
    # doubles and numpy's ufunc buffers
    K = int(re.search(r"at most (\d+) arrays of n doubles", sdp.__doc__).group(1))
    d = 300
    prob = wide_block_problem(d)
    n, p = d * d, prob.n_rows
    tracemalloc.start()
    try:
        compiled = sdp._compile(prob)
        data = tracemalloc.get_traced_memory()[0]
        del compiled
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sol = solve(prob)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_obj - 3.0) <= 1e-6
    assert peak <= 8 * p * (p + 1) // 2 + K * 8 * n + data + (1 << 18)


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


def _assert_lone_bits(problems, solutions):
    """Each solution has the status, iteration count, X, dual and free values
    of a lone solve of its program, bit for bit."""
    assert len(solutions) == len(problems)
    for prob, sol in zip(problems, solutions):
        lone = solve(prob)
        assert (sol.status, sol.iterations) == (lone.status, lone.iterations)
        pairs = [(sol.free_values, lone.free_values), (sol.dual_values, lone.dual_values),
                 *zip(sol.block_values, lone.block_values, strict=True)]
        for a, b in pairs:
            assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_batch_matches_lone_solves_bitwise(monkeypatch):
    # four copies of a constructed program with the rhs scaled and C shifted
    # by a multiple of I: the same entries, each copy still feasible and
    # bounded; one plan serves each batch, and each copy keeps its lone bits
    rng = np.random.default_rng(21)
    for _ in range(4):
        prob, _ = constructed_instance(rng)
        copies = [prob] + [dataclasses.replace(
            prob, rhs=[v * (1.0 + 0.5 * k) for v in prob.rhs],
            obj_entries=prob.obj_entries + [(b, i, i, 0.1 * k) for b, d in
                                            enumerate(prob.block_dims) for i in range(d)])
            for k in range(1, 4)]
        _, plans = _record_factorizations(monkeypatch)
        solutions = sdp.solve_many(copies)
        assert len(plans) == 1
        assert all(sol.status == SdpStatus.OPTIMAL for sol in solutions)
        _assert_lone_bits(copies, solutions)


def pinned_entry_problem(b0, b1, c):
    """Rows 2 X[0, 1] = b0 and X[2, 2] = b1 of one 3x3 block, minimizing
    trace(X) + c X[0, 0]: optimal for b1 >= 0 and c > -1, infeasible for b1
    < 0 (y = (0, -1) is a Farkas ray) and unbounded for c < -1.  Every b0,
    b1 and c compiles to the same constraints."""
    prob = SdpProblem(block_dims=[3])
    prob.set_entry(prob.add_row(b0), 0, 0, 1, 1.0)
    prob.set_entry(prob.add_row(b1), 0, 2, 2, 1.0)
    for i in range(3):
        prob.set_obj_entry(0, i, i, 1.0)
    prob.set_obj_entry(0, 0, 0, c)
    return prob


def test_batch_exits_each_program_as_alone():
    # a feasible program, a Farkas rhs, an unbounded C and three whose
    # iterates go non-finite at iterations 0, 1 and 2: each leaves the batch
    # at its own exit, and the others go on
    problems = [pinned_entry_problem(*args) for args in [
        (0.3, 1.0, 0.0), (0.3, -1.0, 0.0), (0.3, 1.0, -2.0),
        (0.3, 1e300, 0.0), (0.3, 1e150, 0.0), (1e150, 1.0, 0.0)]]
    solutions = sdp.solve_many(problems)
    assert [(sol.status, sol.iterations) for sol in solutions] == [
        (SdpStatus.OPTIMAL, 6), (SdpStatus.INFEASIBLE, 3), (SdpStatus.UNBOUNDED, 3),
        (SdpStatus.NUMERICAL_FAILURE, 0), (SdpStatus.NUMERICAL_FAILURE, 1),
        (SdpStatus.NUMERICAL_FAILURE, 2)]
    _assert_lone_bits(problems, solutions)


def _poison(monkeypatch, where):
    """Fail one step of the programs whose iterate is large (X over 5e6, or W
    over 300, which the b1 = 1e7 program reaches first): the scaling's
    factorization, its W (so M), every Newton solve of an iteration (so the
    predictor) or all but its first (so the second Newton step, unless the
    predictor refines), its eigenvalues (so the corrector) or the step
    lengths (so the small-step exit)."""

    class Poisoned(sdp._Scaling):
        def __init__(self, X, S):
            big = np.abs(X).reshape(len(X), -1).max(axis=1) > 5e6
            if where == "scaling" and big.any():
                raise np.linalg.LinAlgError("poisoned")
            super().__init__(X, S)
            if where == "W":
                self.W[big] = np.nan
            if where == "corrector":
                self.lam[big] = np.nan

    monkeypatch.setattr(sdp, "_Scaling", Poisoned)
    factorize, dpftrs, max_steps = sdp._Schur.factorize, sdp._Schur.solve, sdp._max_steps
    solves = {}  # per large program's plan, its solves in this iteration

    def factorize_marked(plan, blocks, W):
        solves.pop(id(plan), None)
        if np.abs(W).max() > 300:
            solves[id(plan)] = 0
        return factorize(plan, blocks, W)

    def solve_poisoned(plan, r):
        if id(plan) not in solves:
            return dpftrs(plan, r)
        solves[id(plan)] += 1
        return dpftrs(plan, r) * (np.nan if where == "predictor" or solves[id(plan)] > 1 else 1.0)

    def short_steps(scals, dX, dS):
        steps = max_steps(scals, dX, dS)
        steps[:, np.abs(scals[0].W).reshape(steps.shape[1], -1).max(axis=1) > 300] = 1e-5
        return steps

    if where in ("predictor", "newton"):
        monkeypatch.setattr(sdp._Schur, "factorize", factorize_marked)
        monkeypatch.setattr(sdp._Schur, "solve", solve_poisoned)
    if where == "steps":
        monkeypatch.setattr(sdp, "_max_steps", short_steps)


@pytest.mark.parametrize("where", ["scaling", "W", "predictor", "corrector", "newton", "steps"])
def test_batch_failure_at_each_step_ends_that_program_alone(monkeypatch, where):
    problems = [pinned_entry_problem(*args) for args in [
        (0.3, 1.0, 0.0), (0.3, 1e7, 0.0), (0.3, -1.0, 0.0), (0.3, 1.0, -2.0)]]
    _poison(monkeypatch, where)
    solutions = sdp.solve_many(problems)
    assert solutions[1].status == SdpStatus.NUMERICAL_FAILURE
    assert [sol.status for sol in solutions[2:]] == [SdpStatus.INFEASIBLE, SdpStatus.UNBOUNDED]
    _assert_lone_bits(problems, solutions)


def test_batch_exit_precedence(monkeypatch):
    # at the iteration where the poisoned program's third small step ends
    # it, the limit ends the others: small steps come before the limit, and
    # the limit before ``check``, which would find the Farkas ray
    _poison(monkeypatch, "steps")
    lone = solve(pinned_entry_problem(0.3, 1e7, 0.0))
    assert lone.status == SdpStatus.NUMERICAL_FAILURE
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", lone.iterations)
    problems = [pinned_entry_problem(*args) for args in [
        (0.3, 1.0, 0.0), (0.3, 1e7, 0.0), (0.3, -1.0, 0.0)]]
    solutions = sdp.solve_many(problems)
    assert [sol.status for sol in solutions] == [
        SdpStatus.MAX_ITERATIONS, SdpStatus.NUMERICAL_FAILURE, SdpStatus.MAX_ITERATIONS]
    _assert_lone_bits(problems, solutions)


def test_programs_of_different_constraints_return_in_input_order():
    rng = np.random.default_rng(4)
    drawn = [constructed_instance(rng)[0] for _ in range(3)]
    problems = [drawn[0], pinned_entry_problem(0.3, 1.0, 0.0), drawn[1], drawn[0],
                pinned_entry_problem(0.3, -1.0, 0.0), drawn[2]]
    _assert_lone_bits(problems, sdp.solve_many(problems))
