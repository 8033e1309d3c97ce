"""Primal-dual interior-point solver for block-diagonal semidefinite programs.

Problem form:

    minimize    sum_b <C_b, X_b> + c_free . u
    subject to  sum_b <A_{r,b}, X_b> + B_r . u = rhs_r   (r = 0..n_rows-1)
                X_b >= 0 (PSD),  u free

Symmetric matrices are addressed by upper-triangle entries only; an
off-diagonal entry (i, j, v) denotes a symmetric matrix with value v at both
(i, j) and (j, i), so it contributes 2*v*X[i, j] to an inner product.

The algorithm is a Nesterov-Todd scaled Mehrotra predictor-corrector method
with infeasible start.  All linear algebra is dense apart from the constraint
data, which is kept sparse per block.  Free variables are carried through an
augmented (saddle-point) Schur system.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


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
    __slots__ = ("dim", "A", "C")

    def __init__(self, dim, A, C):
        self.dim = dim
        self.A = A  # csr, shape (n_rows, dim*dim), rows are vec of full sym A_r
        self.C = C  # dense (dim, dim) symmetric


def _compile(problem: SdpProblem):
    problem.validate()
    p = problem.n_rows
    blocks = []
    for b, d in enumerate(problem.block_dims):
        rows, cols, vals = [], [], []
        for row, block, i, j, v in problem.entries:
            if block != b:
                continue
            rows.append(row)
            cols.append(i * d + j)
            vals.append(v)
            if i != j:
                rows.append(row)
                cols.append(j * d + i)
                vals.append(v)
        A = sp.coo_matrix((vals, (rows, cols)), shape=(p, d * d)).tocsr()
        C = np.zeros((d, d))
        for block, i, j, v in problem.obj_entries:
            if block != b:
                continue
            C[i, j] += v
            if i != j:
                C[j, i] += v
        blocks.append(_Block(d, A, C))
    B = np.zeros((p, problem.n_free))
    for row, idx, v in problem.free_entries:
        B[row, idx] += v
    rhs = np.asarray(problem.rhs, dtype=float)
    cf = np.zeros(problem.n_free)
    for idx, v in enumerate(problem.obj_free):
        cf[idx] = v
    return blocks, B, rhs, cf


# ---------------------------------------------------------------------------
# residual evaluation (also used to re-verify returned solutions)


def residuals(problem: SdpProblem, solution: SdpSolution) -> SdpResiduals:
    """Recompute solution quality from scratch.

    primal_feas: ||A(X) + B u - rhs|| / (1 + ||rhs||)
    dual_feas:   PSD violation of the implied dual slack C - A*(y) together
                 with the free-variable dual residual, relative to the data norm
    gap:         |primal - dual| / (1 + |primal|)
    """
    blocks, B, rhs, cf = _compile(problem)
    X = [np.asarray(x, dtype=float) for x in solution.block_values]
    u = np.asarray(solution.free_values, dtype=float)
    y = np.asarray(solution.dual_values, dtype=float)

    ax = np.zeros(len(rhs))
    pobj = cf @ u if len(cf) else 0.0
    dual_slack_viol = 0.0
    data_norm = np.sqrt(sum(np.sum(bl.C**2) for bl in blocks) + float(cf @ cf))
    for bl, x in zip(blocks, X):
        ax += bl.A @ x.ravel()
        pobj += float(np.vdot(bl.C, x))
        Z = bl.C - (bl.A.T @ y).reshape(bl.dim, bl.dim)
        w = sla.eigvalsh(0.5 * (Z + Z.T))
        dual_slack_viol += float(min(w[0], 0.0) ** 2)
    if B.size:
        ax += B @ u
    rf = cf - B.T @ y if B.size else cf
    dobj = float(rhs @ y)
    prim = float(np.linalg.norm(ax + 0.0 - rhs)) / (1.0 + float(np.linalg.norm(rhs)))
    dual = float(np.sqrt(dual_slack_viol + float(rf @ rf))) / (1.0 + data_norm)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return SdpResiduals(primal_feas=prim, dual_feas=dual, gap=gap)


# ---------------------------------------------------------------------------
# solver


def _conjugate_rows(A: sp.csr_matrix, W: np.ndarray) -> np.ndarray:
    """Rows vec(W * mat(A_r) * W) for all r, as a dense (n_rows, d*d) array."""
    p = A.shape[0]
    d = W.shape[0]
    out = np.empty((p, d * d))
    if p == 0:
        return out
    chunk = max(1, int(4_000_000 // max(d * d, 1)))
    for s in range(0, p, chunk):
        e = min(s + chunk, p)
        T = np.asarray(A[s:e].todense()).reshape(e - s, d, d)
        m = T.shape[0]
        left = (W @ T.transpose(1, 0, 2).reshape(d, m * d)).reshape(d, m, d)
        full = left.transpose(1, 0, 2).reshape(m * d, d) @ W
        out[s:e] = full.reshape(m, d * d)
    return out


def _max_step(L: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with  M + t*direction >= 0,  where M = L L^T."""
    E = sla.solve_triangular(L, direction, lower=True)
    E = sla.solve_triangular(L, E.T, lower=True).T
    w = sla.eigvalsh(0.5 * (E + E.T))
    lam_min = w[0]
    if lam_min >= -1e-13:
        return np.inf
    return -1.0 / lam_min


class _Scaling:
    """Nesterov-Todd scaling point data for one block."""

    __slots__ = ("Lx", "Ls", "G", "Ginv", "W", "lam")

    def __init__(self, X, S):
        self.Lx = Lx = sla.cholesky(X, lower=True)
        self.Ls = Ls = sla.cholesky(S, lower=True)
        U, d, Vt = sla.svd(Ls.T @ Lx)
        if np.min(d) <= 0:
            raise sla.LinAlgError("NT scaling degenerate")
        self.lam = d
        root = np.sqrt(d)
        self.G = Lx @ (Vt.T / root[None, :])
        Lxinv = sla.solve_triangular(Lx, np.eye(Lx.shape[0]), lower=True)
        self.Ginv = (root[:, None] * Vt) @ Lxinv
        self.W = self.G @ self.G.T


def solve(
    problem: SdpProblem,
    tol: float = 1e-8,
    max_iterations: int = 200,
) -> SdpSolution:
    """Solve the SDP, returning the best iterate seen.

    Status OPTIMAL means that iterate's relative primal infeasibility, dual
    infeasibility and gap are all at most ``tol``, or, when the run ends any
    other way (stall, small steps, iteration limit), at most
    ``max(1e-6, 100 * tol)``.
    """
    blocks, B, b, cf = _compile(problem)
    p = len(b)
    nf = len(cf)
    nu = sum(bl.dim for bl in blocks)
    if nu == 0:
        raise ValueError("problem has no semidefinite blocks")

    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_C = 1.0 + float(
        np.sqrt(sum(np.sum(bl.C**2) for bl in blocks) + float(cf @ cf))
    )

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
    u = np.zeros(nf)

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
                u=u.copy(),
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
        return SdpSolution(
            status=status,
            block_values=best["X"],
            free_values=best["u"],
            dual_values=best["y"],
            primal_obj=best["pobj"],
            dual_obj=best["dobj"],
            residuals=best["residuals"],
            iterations=iterations,
        )

    pobj = dobj = 0.0
    prim_rel = dual_rel = gap_rel = np.inf
    small_steps = 0
    no_progress = 0

    for it in range(max_iterations):
        ax = np.zeros(p)
        for bl, x in zip(blocks, X):
            ax += bl.A @ x.ravel()
        if nf:
            ax += B @ u
        rp = b - ax
        Rd = []
        for bl, s in zip(blocks, S):
            Rd.append(bl.C - (bl.A.T @ y).reshape(bl.dim, bl.dim) - s)
        rf = cf - (B.T @ y if nf else cf * 0.0)

        pobj = sum(float(np.vdot(bl.C, x)) for bl, x in zip(blocks, X))
        if nf:
            pobj += float(cf @ u)
        dobj = float(b @ y)
        gap = sum(float(np.vdot(x, s)) for x, s in zip(X, S))
        mu = gap / nu

        prim_rel = float(np.linalg.norm(rp)) / norm_b
        dual_rel = (
            float(np.sqrt(sum(np.sum(r**2) for r in Rd) + float(rf @ rf))) / norm_C
        )
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
        # with <C, X> = -1 and A(X) + B u ~ 0 proves unboundedness.  The size
        # guards keep a lucky starting point from masquerading as a ray.
        by = float(b @ y)
        if by > 1e4 * norm_b:
            ray = np.sqrt(
                sum(np.sum((bl.C - r) ** 2) for bl, r in zip(blocks, Rd))
                + float((cf - rf) @ (cf - rf))
            )
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

        M = np.zeros((p, p))
        Ys = []
        for bl, sc in zip(blocks, scals):
            Y = _conjugate_rows(bl.A, sc.W)
            M += (bl.A @ Y.T).T
            Ys.append(Y)
        M = 0.5 * (M + M.T)
        K = np.zeros((p + nf, p + nf))
        K[:p, :p] = M
        if nf:
            K[:p, p:] = B
            K[p:, :p] = B.T
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu = sla.lu_factor(K)
        except (sla.LinAlgError, ValueError):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        WRdW = [sc.W @ r @ sc.W for sc, r in zip(scals, Rd)]

        def newton(Rc):
            h = rp.copy()
            for bl, wrw, rc in zip(blocks, WRdW, Rc):
                h -= bl.A @ (rc - wrw).ravel()
            rhs_vec = np.concatenate([h, rf]) if nf else h
            sol_vec = sla.lu_solve(lu, rhs_vec)
            # one step of iterative refinement on the augmented system
            resid = rhs_vec - K @ sol_vec
            if np.linalg.norm(resid) > 1e-13 * (1.0 + np.linalg.norm(rhs_vec)):
                sol_vec = sol_vec + sla.lu_solve(lu, resid)
            dy = sol_vec[:p]
            du = sol_vec[p:] if nf else np.zeros(0)
            dX, dS = [], []
            for bl, sc, r, wrw, rc, Yb in zip(blocks, scals, Rd, WRdW, Rc, Ys):
                ds = r - (bl.A.T @ dy).reshape(bl.dim, bl.dim)
                ds = 0.5 * (ds + ds.T)
                dx = rc - wrw + (Yb.T @ dy).reshape(bl.dim, bl.dim)
                dx = 0.5 * (dx + dx.T)
                dX.append(dx)
                dS.append(ds)
            return dX, du, dy, dS

        # predictor (affine scaling)
        Rc_aff = [-x for x in X]
        dXa, dua, dya, dSa = newton(Rc_aff)
        if not all(np.all(np.isfinite(d)) for d in dXa + dSa + [dya]):
            # singular or hopelessly conditioned KKT system
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        ap_aff = min(
            [1.0] + [_max_step(sc.Lx, dx) for sc, dx in zip(scals, dXa)]
        )
        ad_aff = min(
            [1.0] + [_max_step(sc.Ls, ds) for sc, ds in zip(scals, dSa)]
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
        dX, du, dy, dS = newton(Rc)

        ap_raw = min(
            [1.0 / 0.98] + [_max_step(sc.Lx, dx) for sc, dx in zip(scals, dX)]
        )
        ad_raw = min(
            [1.0 / 0.98] + [_max_step(sc.Ls, ds) for sc, ds in zip(scals, dS)]
        )
        gamma = 0.9 + 0.09 * min(1.0, ap_raw, ad_raw)
        alpha_p = min(1.0, gamma * ap_raw)
        alpha_d = min(1.0, gamma * ad_raw)

        for i in range(len(X)):
            X[i] = X[i] + alpha_p * dX[i]
            X[i] = 0.5 * (X[i] + X[i].T)
            S[i] = S[i] + alpha_d * dS[i]
            S[i] = 0.5 * (S[i] + S[i].T)
        u = u + alpha_p * du
        y = y + alpha_d * dy

        if max(alpha_p, alpha_d) < 1e-4:
            small_steps += 1
        else:
            small_steps = 0
        if small_steps >= 3:
            return package(SdpStatus.NUMERICAL_FAILURE, it + 1)

    return package(SdpStatus.MAX_ITERATIONS, max_iterations)
