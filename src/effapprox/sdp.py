"""Primal-dual interior-point solver for block-diagonal semidefinite programs.

Problem form:

    minimize    sum_b <C_b, X_b> + c_free . u
    subject to  sum_b <A_{r,b}, X_b> + B_r . u = rhs_r   (r = 0..n_rows-1)
                X_b >= 0 (PSD),  u free

Symmetric matrices are addressed by upper-triangle entries only; an
off-diagonal entry (i, j, v) denotes a symmetric matrix with value v at both
(i, j) and (j, i), so it contributes 2*v*X[i, j] to an inner product.

The free variables never reach the iteration: ``_compile`` eliminates them
(Kobayashi-Nakata-Kojima, Comput. Optim. Appl. 36, 2007), ``solve`` runs the
resulting standard-form SDP and maps its solution back.  The algorithm is a
Nesterov-Todd scaled Mehrotra predictor-corrector method with infeasible
start.  The constraint data stay sparse per block; the dense Schur complement
M_rs = <A_r, W A_s W> is gathered over each row's few entries (F2 of
Fujisawa-Kojima-Nakata, Math. Prog. 79, 1997), never densifying a row, each
row's L_s is reduced straight into M's upper triangle, and M is factored by
Cholesky from that triangle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse._sparsetools import csr_matvec  # the kernel of csr @ vector


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SdpProblem:
    """Sparse triplet description of a block SDP.

    entries:      (row, block, i, j, value) with i <= j, duplicates summed
    free_entries: (row, free_index, value)
    obj_entries:  (block, i, j, value) with i <= j, duplicates summed
    """

    block_dims: list[int]
    n_free: int = 0
    entries: list = field(default_factory=list)
    free_entries: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    obj_entries: list = field(default_factory=list)
    obj_free: list = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_row(self, rhs_value: float) -> int:
        self.rhs.append(float(rhs_value))
        return len(self.rhs) - 1

    def set_entry(self, row: int, block: int, i: int, j: int, value: float):
        if i > j:
            i, j = j, i
        self.entries.append((row, block, i, j, float(value)))

    def set_free_entry(self, row: int, index: int, value: float):
        self.free_entries.append((row, index, float(value)))

    def set_obj_entry(self, block: int, i: int, j: int, value: float):
        if i > j:
            i, j = j, i
        self.obj_entries.append((block, i, j, float(value)))

    def validate(self):
        """Check that every reference stays inside the declared shapes."""
        nb = len(self.block_dims)
        if any(d <= 0 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if self.n_free < 0:
            raise ValueError("n_free must be nonnegative")
        p = self.n_rows
        for row, block, i, j, _ in self.entries:
            if not 0 <= row < p:
                raise ValueError(f"entry references row {row}, have {p} rows")
            if not 0 <= block < nb:
                raise ValueError(f"entry references block {block}, have {nb}")
            d = self.block_dims[block]
            if not (0 <= i <= j < d):
                raise ValueError(f"entry index ({i},{j}) outside block of size {d}")
        for row, idx, _ in self.free_entries:
            if not 0 <= row < p:
                raise ValueError(f"free entry references row {row}, have {p} rows")
            if not 0 <= idx < self.n_free:
                raise ValueError(f"free entry references variable {idx}")
        for block, i, j, _ in self.obj_entries:
            if not 0 <= block < nb:
                raise ValueError(f"objective references block {block}")
            d = self.block_dims[block]
            if not (0 <= i <= j < d):
                raise ValueError(f"objective index ({i},{j}) outside block size {d}")
        if len(self.obj_free) not in (0, self.n_free):
            raise ValueError("obj_free must have one value per free variable")


@dataclass
class SdpResiduals:
    primal_feas: float
    dual_feas: float
    gap: float

    def max(self) -> float:
        return max(self.primal_feas, self.dual_feas, self.gap)


@dataclass
class SdpSolution:
    status: SdpStatus
    block_values: list
    free_values: np.ndarray
    dual_values: np.ndarray
    primal_obj: float
    dual_obj: float
    residuals: SdpResiduals
    iterations: int


# ---------------------------------------------------------------------------
# compiled form


class _Block:
    """Compiled data of one semidefinite block.

    A, At:   csr (n_rows, dim*dim) and its transpose; row r is vec of A_r
    C:       dense (dim, dim) symmetric objective
    buckets: (rows, I, J, V) per per-row entry count n, each (len(rows), n):
             the summed upper-triangle entries, V = v on the diagonal and 2v
             off it, so L_r = W[:, I_r] diag(V_r) W[J_r, :] has the inner
             product of W A_r W with every symmetric matrix
    """

    __slots__ = ("dim", "A", "At", "C", "buckets")

    def __init__(self, dim, upper, C):
        self.dim, self.C = dim, C
        # upper: canonical csr (n_rows, dim*dim) of the upper-triangle entries
        count = np.diff(upper.indptr)
        row = np.repeat(np.arange(len(count)), count)
        i, j = np.divmod(upper.indices, dim)
        v, off = upper.data, i != j  # A_r repeats off-diagonal entries at (j, i)
        coo = (np.concatenate([row, row[off]]),
               np.concatenate([upper.indices, j[off] * dim + i[off]]))
        self.A = sp.csr_matrix((np.concatenate([v, v[off]]), coo), shape=upper.shape)
        self.At = self.A.T.tocsr()  # A*(y) = At @ y without a transposed view per call
        V = np.where(off, 2.0 * v, v)
        self.buckets = []
        for n in np.unique(count[count > 0]):
            rows = np.flatnonzero(count == n)
            idx = upper.indptr[rows, None] + np.arange(n)
            self.buckets.append((rows, i[idx], j[idx], V[idx]))


def _compile(problem: SdpProblem):
    """Compile to a standard-form SDP: (blocks, rhs, objective constant, unfree).

    The free variables are eliminated (Kobayashi-Nakata-Kojima, Comput. Optim.
    Appl. 36, 2007).  A partial-pivoting LU of B picks nf pivot rows R, so
    u = B_R^-1 (b_R - A_R(X)).  Every other row r becomes A_r - T_r A_R with
    rhs b_r - T_r b_R, where T = B_N B_R^-1; the objective term c_free . u
    folds into C - A_R*(g) plus the constant g . b_R, where g = B_R^-T c_free;
    the rows R drop.  In a psi program each free variable sits alone in its
    row, so T = 0.  The elimination runs on the entry triplets, before the
    per-block csr build.  ``unfree(X, y)`` maps a solution back to u and the
    full dual vector, whose pivot entries are y_R = g - T^T y_N.

    Raises ValueError when B_R is singular: nf exceeds the row count, a free
    variable sits in no row, or the free variables' columns are dependent.
    """
    problem.validate()
    p, nf, dims = problem.n_rows, problem.n_free, problem.block_dims
    ent = np.array(problem.entries, dtype=float).reshape(-1, 5)
    free = np.array(problem.free_entries, dtype=float).reshape(-1, 3)
    obj = np.array(problem.obj_entries, dtype=float).reshape(-1, 4)
    b = np.asarray(problem.rhs, dtype=float)
    B = np.zeros((p, nf))
    np.add.at(B, tuple(free[:, :2].astype(np.int64).T), free[:, 2])
    cf = np.zeros(nf)
    cf[: len(problem.obj_free)] = problem.obj_free

    perm, _, U = sla.lu(B, p_indices=True)  # B = L[perm] @ U
    if nf > p or not np.all(np.diag(U)):
        raise ValueError("the free variables' columns of B are linearly dependent")
    R = np.argsort(perm)[:nf]  # row R[k] of B is row k of L
    N = np.setdiff1d(np.arange(p), R)  # the rows kept, in their order
    BR = B[R]
    g = np.linalg.solve(BR.T, cf)
    T = np.linalg.solve(BR.T, B[N].T).T
    pivot, kept = np.full(p, -1), np.full(p, -1)
    pivot[R], kept[N] = np.arange(nf), np.arange(len(N))
    k = pivot[ent[:, 0].astype(np.int64)]
    E, kE = ent[k >= 0], k[k >= 0]  # the entries of the pivot rows
    ent[:, 0] = kept[ent[:, 0].astype(np.int64)]
    parts = [ent[k < 0]]
    for c in np.flatnonzero(T.any(axis=0)):  # A_r - T_r A_R, column by column
        src, n = E[kE == c], np.flatnonzero(T[:, c])
        part = np.repeat(src, len(n), axis=0)
        part[:, 0] = np.tile(n, len(src))
        part[:, 4] *= -np.tile(T[n, c], len(src))
        parts.append(part)
    ent = np.concatenate(parts)
    obj = np.concatenate([obj, np.column_stack([E[:, 1:4], -g[kE] * E[:, 4]])])
    rhs = b[N] - T @ b[R]

    p = len(N)
    row, blk, i, j = ent[:, :4].astype(np.int64).T
    oblk, oi, oj = obj[:, :3].astype(np.int64).T
    blocks = []
    for bi, d in enumerate(dims):
        mine, omine = blk == bi, oblk == bi
        # csr construction sums duplicate entries and sorts each row
        upper = sp.csr_matrix((ent[mine, 4], (row[mine], i[mine] * d + j[mine])),
                              shape=(p, d * d))
        C = np.zeros((d, d))
        np.add.at(C, (oi[omine], oj[omine]), obj[omine, 3])
        blocks.append(_Block(d, upper, C + np.triu(C, 1).T))

    # A_R(X) is one gather from the concatenated vec(X_b)
    eb, ei, ej = E[:, 1:4].astype(np.int64).T
    at = np.cumsum([0] + [d * d for d in dims])[eb] + ei * np.asarray(dims)[eb] + ej
    weight = np.where(ei == ej, 1.0, 2.0) * E[:, 4]

    def unfree(X, y):
        flat = np.concatenate([x.ravel() for x in X])
        ax = np.bincount(kE, weights=weight * flat[at], minlength=nf)
        dual = np.empty(len(b))
        dual[N], dual[R] = y, g - T.T @ y
        return np.linalg.solve(BR, b[R] - ax), dual

    return blocks, rhs, float(g @ b[R]), unfree


# ---------------------------------------------------------------------------
# solver


# Entries of L built per chunk of same-count rows by one batched matmul:
# 512 kB, 4 rows of a 126-wide block, small enough to stay in cache while its
# rows are reduced into M (disk k=4 on one Xeon core with a 4 MB L2: 2^15-2^16
# build M in 0.056 s, 2^18 in 0.063 s, 2^13 in 0.075 s).  It sizes only that
# buffer.
_SCHUR_CHUNK = 1 << 16


def _schur(blocks, scals, M: np.ndarray):
    """Fill the upper triangle of M (p x p) with M_rs = sum_b <A_r, W A_s W>.

    For a chunk of rows s with the same entry count, one batched matmul gives
    every L_s (see ``_Block``), about 2 nnz d^2 flops per block instead of the
    2 p d^3 of conjugating every dense A_s.  scipy's compiled csr mat-vec then
    reduces vec(L_s) against the rows r >= s of A alone (the tail
    ``indptr[s:]``), accumulating straight into the row tail M[s, s:].  The
    strict lower triangle is left 0; ``_cholesky`` reads only the upper one.
    """
    p = len(M)
    M.fill(0.0)
    for bl, sc in zip(blocks, scals):
        W = sc.W
        d2 = bl.dim * bl.dim
        ptr, idx, val = bl.A.indptr, bl.A.indices, bl.A.data
        chunk = max(1, _SCHUR_CHUNK // d2)
        for rows, I, J, V in bl.buckets:
            for c in range(0, len(rows), chunk):
                e = c + chunk
                WI = (W[I[c:e]] * V[c:e, :, None]).transpose(0, 2, 1)
                L = np.matmul(WI, W[J[c:e]]).reshape(-1, d2)
                for s, l in zip(rows[c:e].tolist(), L):
                    csr_matvec(p - s, d2, ptr[s:], idx, val, l, M[s, s:])


def _cholesky(M: np.ndarray) -> np.ndarray:
    """Cholesky factor L (lower, Fortran order) with M = L L^T, read from M's
    upper triangle.

    A failed pivot j means M is singular, as a consistent Schur system can be
    near the optimum: row and column j of M are zeroed, 1e64 goes on the
    diagonal and M is factored again, so dy_j comes out 0, not infinite
    (Wright, SIAM J. Optim. 1999).  The pivots before j do not change, so
    each retry fails at a later pivot or not at all.
    """
    while True:
        # M.T is Fortran-ordered, and its lower triangle is M's upper one
        L, info = lapack.dpotrf(M.T, lower=1, clean=0)
        if info <= 0:
            return L
        j = info - 1
        M[j, :] = M[:, j] = 0.0
        M[j, j] = 1e64


def _max_step(Linv: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with  M + t*direction >= 0,  where M = L L^T and Linv = L^-1."""
    E = Linv @ direction @ Linv.T
    w = np.linalg.eigvalsh(0.5 * (E + E.T))
    lam_min = w[0]
    if lam_min >= -1e-13:
        return np.inf
    return -1.0 / lam_min


class _Scaling:
    """Nesterov-Todd scaling point data for one block."""

    __slots__ = ("Lxinv", "Lsinv", "G", "Ginv", "W", "lam")

    def __init__(self, X, S):
        # scipy.linalg's cholesky/svd/solve_triangular calls, minus validation
        Lx, info_x = lapack.dpotrf(X, lower=1, clean=1)
        Ls, info_s = lapack.dpotrf(S, lower=1, clean=1)
        if info_x or info_s:
            raise sla.LinAlgError("scaling point not positive definite")
        lwork = int(lapack.dgesdd_lwork(*X.shape)[0])
        U, d, Vt, info = lapack.dgesdd(Ls.T @ Lx, lwork=lwork)
        if info or np.min(d) <= 0:
            raise sla.LinAlgError("NT scaling degenerate")
        self.lam = d
        root = np.sqrt(d)
        self.G = Lx @ (Vt.T / root[None, :])
        # positive factor diagonals: these triangular solves cannot fail
        self.Lxinv = lapack.dtrtrs(Lx, np.eye(len(X)), lower=1)[0]
        self.Lsinv = lapack.dtrtrs(Ls, np.eye(len(S)), lower=1)[0]
        self.Ginv = (root[:, None] * Vt) @ self.Lxinv
        self.W = self.G @ self.G.T


def solve(
    problem: SdpProblem,
    tol: float = 1e-8,
    max_iterations: int = 200,
) -> SdpSolution:
    """Solve the SDP, returning the best iterate seen.

    The iteration runs on the standard-form SDP ``_compile`` makes; the free
    values and the full dual vector are rebuilt from its solution once, and
    the residuals are those of the standard-form program.  Status OPTIMAL
    means that iterate's relative primal infeasibility, dual infeasibility
    and gap are all at most ``tol``, or, when the run ends any other way
    (stall, small steps, iteration limit), at most ``max(1e-6, 100 * tol)``.
    """
    blocks, b, const, unfree = _compile(problem)
    p = len(b)
    nu = sum(bl.dim for bl in blocks)
    if nu == 0:
        raise ValueError("problem has no semidefinite blocks")

    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_C = 1.0 + float(np.sqrt(sum(np.sum(bl.C**2) for bl in blocks)))

    # SDPT3-style cold start: scaled multiples of the identity.
    X, S = [], []
    for bl in blocks:
        row_norms = sp.linalg.norm(bl.A, axis=1) if p else np.array([0.0])
        xi = max(10.0, np.sqrt(bl.dim))
        if p:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (1.0 + np.abs(b)) / (1.0 + row_norms)
            xi = max(xi, bl.dim * float(np.max(ratio)))
        eta = max(
            10.0,
            np.sqrt(bl.dim),
            (1.0 + max(float(np.linalg.norm(bl.C)), float(np.max(row_norms))))
            / np.sqrt(bl.dim),
        )
        X.append(min(xi, 1e6) * np.eye(bl.dim))
        S.append(min(eta, 1e6) * np.eye(bl.dim))
    y = np.zeros(p)
    M = np.zeros((p, p))  # the Schur complement; _schur refills it in place

    # The returned iterate is the best one seen (by worst residual), not
    # necessarily the last: near-degenerate problems can lose primal accuracy
    # once mu drops below what the Schur system supports.
    best = {"score": np.inf}
    stall_accept = max(1e-6, 100.0 * tol)

    def remember(score):
        if score < best["score"]:
            best.update(
                score=score,
                X=[x.copy() for x in X],
                y=y.copy(),
                pobj=pobj,
                dobj=dobj,
                residuals=SdpResiduals(prim_rel, dual_rel, gap_rel),
            )

    def package(status, iterations):
        if "X" not in best:  # no iterate with a finite score was ever seen
            status = SdpStatus.NUMERICAL_FAILURE
        elif status != SdpStatus.OPTIMAL and best["score"] <= stall_accept:
            status = SdpStatus.OPTIMAL
        if "X" not in best or status in (SdpStatus.INFEASIBLE, SdpStatus.UNBOUNDED):
            remember(-np.inf)  # certificates live in the current (diverging) iterate
        free_values, dual_values = unfree(best["X"], best["y"])
        return SdpSolution(
            status=status,
            block_values=best["X"],
            free_values=free_values,
            dual_values=dual_values,
            primal_obj=best["pobj"],
            dual_obj=best["dobj"],
            residuals=best["residuals"],
            iterations=iterations,
        )

    def finite(dX, dS, dy):
        # a singular or hopelessly conditioned Schur system shows up here
        return all(np.all(np.isfinite(d)) for d in dX + dS + [dy])

    pobj = dobj = 0.0
    prim_rel = dual_rel = gap_rel = np.inf
    small_steps = 0
    no_progress = 0

    for it in range(max_iterations):
        ax = np.zeros(p)
        for bl, x in zip(blocks, X):
            ax += bl.A @ x.ravel()
        rp = b - ax
        Rd = []
        for bl, s in zip(blocks, S):
            Rd.append(bl.C - (bl.At @ y).reshape(bl.dim, bl.dim) - s)

        pobj = const + sum(float(np.vdot(bl.C, x)) for bl, x in zip(blocks, X))
        dobj = const + float(b @ y)
        gap = sum(float(np.vdot(x, s)) for x, s in zip(X, S))
        mu = gap / nu

        prim_rel = float(np.linalg.norm(rp)) / norm_b
        dual_rel = float(np.sqrt(sum(np.sum(r**2) for r in Rd))) / norm_C
        gap_rel = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))

        if not np.isfinite(mu) or not np.isfinite(prim_rel) or not np.isfinite(dual_rel):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        score = max(prim_rel, dual_rel, gap_rel)
        if score < best["score"] * (1.0 - 1e-2):
            no_progress = 0
        else:
            no_progress += 1
        remember(score)

        if prim_rel <= tol and dual_rel <= tol and gap_rel <= tol:
            return package(SdpStatus.OPTIMAL, it)
        if no_progress >= 8:
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        # Farkas-style certificates from diverging iterates.  A dual ray with
        # b.y = 1 and A*(y) + S ~ 0 proves primal infeasibility; a primal ray
        # with <C, X> = -1 and A(X) ~ 0 proves unboundedness.  The size guards
        # keep a lucky starting point from masquerading as a ray.
        by = float(b @ y)
        if by > 1e4 * norm_b:
            ray = np.sqrt(sum(np.sum((bl.C - r) ** 2) for bl, r in zip(blocks, Rd)))
            if ray / by <= 1e-6 * norm_C:
                return package(SdpStatus.INFEASIBLE, it)
        if pobj < -1e4 * norm_C:
            ray = float(np.linalg.norm(ax))
            if ray / (-pobj) <= 1e-6 * norm_b:
                return package(SdpStatus.UNBOUNDED, it)

        # NT scaling and Schur complement.
        try:
            scals = [_Scaling(x, s) for x, s in zip(X, S)]
        except sla.LinAlgError:
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        _schur(blocks, scals, M)
        if not np.isfinite(M).all():
            return package(SdpStatus.NUMERICAL_FAILURE, it)
        factor = (_cholesky(M), True)  # (L, lower), as cho_solve takes it
        WRdW = [sc.W @ r @ sc.W for sc, r in zip(scals, Rd)]

        def newton(Rc):
            h = rp.copy()
            for bl, wrw, rc in zip(blocks, WRdW, Rc):
                h -= bl.A @ (rc - wrw).ravel()

            def directions(dy):
                dX, dS = [], []
                for bl, sc, r, wrw, rc in zip(blocks, scals, Rd, WRdW, Rc):
                    aty = (bl.At @ dy).reshape(bl.dim, bl.dim)
                    ds = r - aty
                    dS.append(0.5 * (ds + ds.T))
                    # not W ds W: a large A*(dy) (M nearly singular) would swamp R_d
                    dx = rc - wrw + sc.W @ aty @ sc.W
                    dX.append(0.5 * (dx + dx.T))
                # the residual of the equations A(dX) = rp
                ax = sum(bl.A @ dx.ravel() for bl, dx in zip(blocks, dX))
                return dX, dy, dS, rp - ax

            dy = sla.cho_solve(factor, h, check_finite=False)
            *step, resid = directions(dy)
            # one step of iterative refinement against those equations, which
            # the gathered M only approximates once it is ill-conditioned
            if np.linalg.norm(resid) > 1e-13 * (1.0 + np.linalg.norm(h)):
                dy = dy + sla.cho_solve(factor, resid, check_finite=False)
                *step, resid = directions(dy)
            return step

        # predictor (affine scaling)
        Rc_aff = [-x for x in X]
        dXa, dya, dSa = newton(Rc_aff)
        if not finite(dXa, dSa, dya):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        ap_aff = min(
            [1.0] + [_max_step(sc.Lxinv, dx) for sc, dx in zip(scals, dXa)]
        )
        ad_aff = min(
            [1.0] + [_max_step(sc.Lsinv, ds) for sc, ds in zip(scals, dSa)]
        )
        gap_aff = sum(
            float(np.vdot(x + ap_aff * dx, s + ad_aff * ds))
            for x, dx, s, ds in zip(X, dXa, S, dSa)
        )
        sigma = min(1.0, max(gap_aff / gap, 0.0) ** 3)

        # corrector with Mehrotra second-order term, built in scaled space
        Rc = []
        for sc, x, dxa, dsa in zip(scals, X, dXa, dSa):
            Dx = sc.Ginv @ dxa @ sc.Ginv.T
            Ds = sc.G.T @ dsa @ sc.G
            cross = Dx @ Ds
            cross = 0.5 * (cross + cross.T)
            lam = sc.lam
            Ms = -cross
            Ms[np.diag_indices_from(Ms)] += sigma * mu - lam**2
            Ms *= 2.0 / (lam[:, None] + lam[None, :])
            rc = sc.G @ Ms @ sc.G.T
            Rc.append(0.5 * (rc + rc.T))
        dX, dy, dS = newton(Rc)
        if not finite(dX, dS, dy):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        ap_raw = min(
            [1.0 / 0.98] + [_max_step(sc.Lxinv, dx) for sc, dx in zip(scals, dX)]
        )
        ad_raw = min(
            [1.0 / 0.98] + [_max_step(sc.Lsinv, ds) for sc, ds in zip(scals, dS)]
        )
        gamma = 0.9 + 0.09 * min(1.0, ap_raw, ad_raw)
        alpha_p = min(1.0, gamma * ap_raw)
        alpha_d = min(1.0, gamma * ad_raw)

        for i in range(len(X)):
            X[i] = X[i] + alpha_p * dX[i]
            X[i] = 0.5 * (X[i] + X[i].T)
            S[i] = S[i] + alpha_d * dS[i]
            S[i] = 0.5 * (S[i] + S[i].T)
        y = y + alpha_d * dy

        if max(alpha_p, alpha_d) < 1e-4:
            small_steps += 1
        else:
            small_steps = 0
        if small_steps >= 3:
            return package(SdpStatus.NUMERICAL_FAILURE, it + 1)

    return package(SdpStatus.MAX_ITERATIONS, max_iterations)
