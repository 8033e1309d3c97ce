"""Primal-dual interior-point solver for block-diagonal semidefinite programs.

Problem form:

    minimize    sum_b <C_b, X_b> + c_free . u
    subject to  sum_b <A_{r,b}, X_b> + B_r . u = rhs_r   (r = 0..n_rows-1)
                X_b >= 0 (PSD),  u free

Symmetric matrices are addressed by upper-triangle entries only; an
off-diagonal entry (i, j, v) denotes a symmetric matrix with value v at both
(i, j) and (j, i), so it contributes 2*v*X[i, j] to an inner product.  The
compiled constraints keep exactly that: per block one csr matrix of the
summed upper-triangle entries, weighted v on the diagonal and 2v off it.
A(X) reads the upper triangle of the symmetric X, and A*(y) is summed on
the upper triangle and mirrored.

The free variables never reach the iteration: ``_compile`` eliminates them
(Kobayashi-Nakata-Kojima, Comput. Optim. Appl. 36, 2007), ``solve`` runs the
resulting standard-form SDP and maps its solution back.  The algorithm is a
Nesterov-Todd scaled Mehrotra predictor-corrector method with infeasible
start.  X, S, C and every other matrix quantity is one flat vector, the
vec(X_b) of the blocks sorted stably by width; each run of equal widths is a
group, viewed as one (n_g, d, d) stack, so NT scaling, step lengths and the
corrector run batched per group, 1x1 blocks included, as in SDPT3
(Toh-Todd-Tutuncu, Optim. Methods Softw. 11, 1999).  The Schur complement
M_rs = <A_r, W A_s W> is gathered from each sparse row's few entries (F2 of
Fujisawa-Kojima-Nakata, Math. Prog. 79, 1997): a batched matmul builds the
symmetric L_s = W A_s W, clipped to the window of Gram indices of the rows
of A that row s is reduced against, and their upper entries reduce it
straight into one contiguous run of M per row.  M holds one triangle in
LAPACK's RFP storage, p(p+1)/2 doubles (Gustavson-Wasniewski-Dongarra-
Langou, ACM TOMS 37, 2010): with h = ceil(p/2), the rows s < h fill their
tails M[s, s:] and the rows s >= h their heads M[h:s+1, s], and ``dpftrf``
factors it in place.  The failed-pivot rule (Wright, SIAM J. Optim. 9, 1999)
restores M from a second RFP array, allocated at the solve's first failed
pivot.  So M, and that copy in a solve that fails a pivot, are the only
arrays of a solve that grow as p^2, each half the size of a p x p one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

MAX_ITERATIONS = 200  # interior-point iterations of one solve, at most


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

    Each may be a list of tuples, as the ``set_*`` builders append, or one
    float array with a triplet per row, such as the (nnz, 5) ``entries``
    array of ``certificates.assemble_membership``.
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
        """Check that every reference stays inside the declared shapes, and
        return the entry, free and objective triplets as float arrays."""
        nb, p, nf = len(self.block_dims), self.n_rows, self.n_free
        if any(d <= 0 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if nf < 0:
            raise ValueError("n_free must be nonnegative")
        ent, free, obj = (np.array(t, dtype=float).reshape(-1, w) for t, w in
                          [(self.entries, 5), (self.free_entries, 3), (self.obj_entries, 4)])
        dims = np.append(np.asarray(self.block_dims, dtype=float), 0.0)

        def inside(blk, i, j):  # block in range, and 0 <= i <= j < its width
            ok = (0 <= blk) & (blk < nb)
            return ok, (0 <= i) & (i <= j) & (j < dims[np.where(ok, blk, nb).astype(int)])

        def raise_first(triplets, checks):  # checks: (ok mask, message(triplet))
            bad = np.array([~ok for ok, _ in checks])
            if bad.any():  # the first failing triplet, and its first failed check
                k = int(np.argmax(bad.any(axis=0)))
                e = [int(v) if v.is_integer() else v for v in triplets[k].tolist()]
                raise ValueError(checks[int(np.argmax(bad[:, k]))][1](e))

        def integral(indices):  # NaN is not; an infinite index fails the range checks
            return (np.floor(indices) == indices).all(axis=1)

        blk_ok, ij_ok = inside(*ent[:, 1:4].T)
        raise_first(ent, [
            (integral(ent[:, :4]),
             lambda e: f"entry indices {tuple(e[:4])} are not all integers"),
            ((0 <= ent[:, 0]) & (ent[:, 0] < p),
             lambda e: f"entry references row {e[0]}, have {p} rows"),
            (blk_ok, lambda e: f"entry references block {e[1]}, have {nb}"),
            (ij_ok, lambda e: f"entry index ({e[2]},{e[3]}) outside block of size "
                              f"{self.block_dims[e[1]]}"),
        ])
        raise_first(free, [
            (integral(free[:, :2]),
             lambda e: f"free entry indices {tuple(e[:2])} are not all integers"),
            ((0 <= free[:, 0]) & (free[:, 0] < p),
             lambda e: f"free entry references row {e[0]}, have {p} rows"),
            ((0 <= free[:, 1]) & (free[:, 1] < nf),
             lambda e: f"free entry references variable {e[1]}"),
        ])
        blk_ok, ij_ok = inside(*obj[:, :3].T)
        raise_first(obj, [
            (integral(obj[:, :3]),
             lambda e: f"objective indices {tuple(e[:3])} are not all integers"),
            (blk_ok, lambda e: f"objective references block {e[0]}"),
            (ij_ok, lambda e: f"objective index ({e[1]},{e[2]}) outside block size "
                              f"{self.block_dims[e[0]]}"),
        ])
        if len(self.obj_free) not in (0, nf):
            raise ValueError("obj_free must have one value per free variable")
        return ent, free, obj


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

    sl:      its slice of the flat layout: vec(X_b) = X[sl]
    csr:     (indptr, indices, V) of A as an (n_rows, dim*dim) csr matrix with
             int32 indices: row r holds the summed upper-triangle entries
             (i, j), i <= j, of A_r at i*dim + j, weighted V = v on the
             diagonal and 2v off it, so it gives <A_r, X> for a symmetric X;
             the same arrays are the csc arrays of A^T, for A*(y); a row's
             first entry has its smallest Gram index i
    buckets: (rows, I, J, H) per per-row entry count n, each (len(rows), 2n):
             a row's entries listed as (i, j) and again as (j, i), each with
             weight H = V/2, so L_r = W[:, I_r] diag(H_r) W[J_r, :] is the
             symmetric W A_r W
    """

    __slots__ = ("dim", "sl", "csr", "buckets")

    def __init__(self, dim, sl, row, col, v, p):
        # (row, col, v): the summed upper-triangle entries, sorted by row, col
        self.dim, self.sl = dim, sl
        count = np.bincount(row, minlength=p)
        ptr = np.concatenate([[0], np.cumsum(count)])
        col = col.astype(np.int32)
        i, j = np.divmod(col, dim)
        with np.errstate(over="ignore"):  # v near the double limit: inf, caught by the residuals
            V = np.where(i == j, v, 2.0 * v)
        self.csr = (ptr.astype(np.int32), col, V)
        H = 0.5 * V
        self.buckets = []
        for n in np.unique(count[count > 0]):
            rows = np.flatnonzero(count == n)
            idx = ptr[rows, None] + np.arange(n)
            I, J = i[idx], j[idx]
            self.buckets.append((rows, np.hstack([I, J]), np.hstack([J, I]),
                                 np.hstack([H[idx], H[idx]])))


def _compile(problem: SdpProblem):
    """Compile to a standard-form SDP: (blocks in the caller's order, groups,
    flat C, rhs, objective constant, unfree, tpos).  A group is (slice,
    (n, d, d)): the stack of one width in the flat layout; v[tpos] is the
    flat v with every block transposed.

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
    ent, free, obj = problem.validate()
    p, nf = problem.n_rows, problem.n_free
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

    p, dims = len(N), np.asarray(problem.block_dims, dtype=np.int64)
    size, order = dims * dims, np.argsort(dims, kind="stable")
    start = np.empty_like(dims)  # each block's offset in the flat layout
    start[order] = np.cumsum(size[order]) - size[order]
    width, first, count = np.unique(dims[order], return_index=True, return_counts=True)
    groups = [(slice(lo, lo + c * d * d), (c, d, d)) for d, lo, c in
              zip(width.tolist(), start[order][first].tolist(), count.tolist())]
    tpos = np.arange(size.sum())
    for sl, shape in groups:
        tpos[sl] = tpos[sl].reshape(shape).mT.ravel()

    def at(blk, i, j):  # flat positions of the entries (blk, i, j)
        return start[blk] + i * dims[blk] + j

    ob, oi, oj = obj[:, :3].astype(np.int64).T
    mirror = oi != oj  # C is stored whole: an off-diagonal entry lands twice
    C = np.bincount(np.concatenate([at(ob, oi, oj), at(ob, oj, oi)[mirror]]),
                    np.concatenate([obj[:, 3], obj[mirror, 3]]), minlength=size.sum())

    # sorted by block, row and column with duplicates summed: a block is a key range
    row, blk, i, j = ent[:, :4].astype(np.int64).T
    key, inv = np.unique(start[blk] * p + row * size[blk] + i * dims[blk] + j,
                         return_inverse=True)
    val = np.bincount(inv.ravel(), ent[:, 4], minlength=len(key))
    lo, hi = np.searchsorted(key, np.stack([start, start + size]) * p).tolist()
    blocks = []
    for d, s0, a, z in zip(problem.block_dims, start.tolist(), lo, hi):
        row, col = np.divmod(key[a:z] - s0 * p, d * d)
        blocks.append(_Block(d, slice(s0, s0 + d * d), row, col, val[a:z], p))

    # A_R(X) is one gather from the flat X
    eb, ei, ej = E[:, 1:4].astype(np.int64).T
    pos, weight = at(eb, ei, ej), np.where(ei == ej, 1.0, 2.0) * E[:, 4]

    @np.errstate(over="ignore", invalid="ignore")  # a failed solve's huge iterate
    def unfree(X, y):
        ax = np.bincount(kE, weights=weight * X[pos], minlength=nf)
        dual = np.empty(len(b))
        dual[N], dual[R] = y, g - T.T @ y
        return np.linalg.solve(BR, b[R] - ax), dual

    return blocks, groups, C, rhs, float(g @ b[R]), unfree, tpos


def _A_of(blocks, x: np.ndarray, p: int) -> np.ndarray:
    """A(X), one compiled csr mat-vec per block.  It reads the upper triangle
    of each X_b alone, so it is <A_r, X> for a symmetric X."""
    out = np.zeros(p)
    for bl in blocks:
        csr_matvec(p, bl.dim**2, *bl.csr, x[bl.sl], out)
    return out


def _At_of(blocks, tpos: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A*(y) = sum_r y_r A_r, flat and exactly symmetric.  The compiled csc
    mat-vec sums y_r V onto the upper triangles, U: each off-diagonal entry
    twice over, each diagonal one once.  (U + U^T) / 2, with U^T = U[tpos],
    halves the former into both triangles; both scalings by 2 are exact."""
    out = np.zeros(len(tpos))
    for bl in blocks:
        csc_matvec(bl.dim**2, len(y), *bl.csr, y, out[bl.sl])
    return 0.5 * (out + out[tpos])


# ---------------------------------------------------------------------------
# solver


# Entries of L built per chunk of same-count rows by one batched matmul:
# 512 kB, 4 rows of a 126-wide block, small enough to stay in cache while its
# rows are reduced into M (disk k=4 on one Xeon core with a 4 MB L2: 2^15-2^16
# build M in 0.056 s, 2^18 in 0.063 s, 2^13 in 0.075 s).  It sizes only that
# buffer.
_SCHUR_CHUNK = 1 << 16


class _Schur:
    """The Schur complement M of one solve: its storage, the per-row plan by
    which ``_schur`` fills it, and the copy the failed-pivot rule restores
    from.

    M is one triangle in LAPACK's RFP storage (TRANSR='N', UPLO='L';
    Gustavson-Wasniewski-Dongarra-Langou, ACM TOMS 37, 2010), p(p+1)/2
    doubles, factored in place by ``dpftrf`` and solved with by ``dpftrs``.
    With h = ceil(p/2), a row s < h owns its tail M[s, s:], the rows [s, p)
    of A reduced against L_s, and a row s >= h its head M[h:s+1, s], the
    rows [h, s]; either is one contiguous run of the RFP array, and the runs
    hold every entry of the triangle once.

    M:       the RFP array; after ``factorize``, its Cholesky factor
    keep:    None until a pivot of the solve fails, then an RFP copy of M
    lo, n, offset: int arrays, per row s its run M[offset[s] : offset[s] +
             n[s]], whose entry t - lo[s] holds the pair {s, t}
    rows:    per row s, (lo, n, out): the rows [lo, lo + n) of A that
             ``_schur`` reduces against L_s, and out, its run of M
    windows: per block, per bucket, each row's window start: the smallest
             Gram index among the entries of the rows it reduces.  Tails'
             starts are suffix minima, ascending; heads' are prefix minima
             from h, descending; so a chunk of ascending rows has its
             smallest start at its first or its last row
    """

    __slots__ = ("M", "keep", "lo", "n", "offset", "rows", "windows")

    def __init__(self, blocks, p: int):
        odd = p % 2  # ld: the RFP array's leading dimension, as LAPACK stores it
        h, ld = (p + 1) // 2, p + 1 - odd
        s = np.arange(p)
        tail = s < h
        self.lo = np.where(tail, s, h)
        self.n = np.where(tail, p - s, s + 1 - h)
        self.offset = np.where(tail, s * (ld + 1) + 1 - odd, (s - h + odd) * ld)
        self.M, self.keep = np.zeros(p * (p + 1) // 2), None
        self.rows = [(lo, n, self.M[at : at + n]) for lo, n, at in
                     zip(self.lo.tolist(), self.n.tolist(), self.offset.tolist())]
        self.windows = []
        for bl in blocks:
            ptr, col, _ = bl.csr
            first = np.full(p, bl.dim)  # each row's smallest Gram index
            has = ptr[1:] > ptr[:-1]
            first[has] = col[ptr[:-1][has]] // bl.dim
            start = np.concatenate([np.minimum.accumulate(first[::-1])[::-1][:h],
                                    np.minimum.accumulate(first[h:])])
            self.windows.append([start[rows].tolist() for rows, *_ in bl.buckets])

    def factorize(self, blocks, Wflat: np.ndarray) -> bool:
        """Build M for the scaling W and factor it in place; False if M has a
        non-finite entry.

        A failed pivot j means M is singular, as a consistent Schur system can
        be near the optimum: M is restored from ``keep`` with row and column
        j zeroed and 1e64 on the diagonal, and factored again, so dy_j comes
        out 0, not infinite (Wright, SIAM J. Optim. 9, 1999); ``keep`` keeps
        the zeroed rows for the later retries.  The pivots before j do not
        change, so each retry fails at a later pivot or not at all.  The
        solve's first failure rebuilds M, which ``dpftrf`` has overwritten,
        and copies it into a new ``keep``; each later ``factorize`` copies M
        into ``keep`` before it factors.
        """
        _schur(blocks, Wflat, self)
        M, p = self.M, len(self.n)
        if not np.isfinite([M.min(initial=0.0), M.max(initial=0.0)]).all():
            return False  # NaN propagates through both
        if self.keep is not None:
            np.copyto(self.keep, M)
        while True:
            info = lapack.dpftrf(p, M, uplo="L", overwrite_a=1)[1]
            if info == 0:
                return True
            if self.keep is None:
                _schur(blocks, Wflat, self)
                self.keep = M.copy()
            j, lo, n, at = info - 1, self.lo, self.n, self.offset
            hit = (lo <= j) & (j < lo + n)  # the runs that hold column j
            self.keep[at[hit] + j - lo[hit]] = 0.0
            self.keep[at[j] : at[j] + n[j]] = 0.0  # and row j's own run
            self.keep[at[j] + j - lo[j]] = 1e64
            np.copyto(M, self.keep)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r from the factor of the last ``factorize``."""
        return lapack.dpftrs(len(r), self.M, r, uplo="L")[0]


def _schur(blocks, Wflat: np.ndarray, plan: _Schur):
    """Fill ``plan.M`` with M_rs = sum_b <A_r, W A_s W>, row by row as the
    plan says (see ``_Schur``).

    For a chunk of rows s with the same entry count, one batched matmul gives
    every L_s = W A_s W (see ``_Block``), about 4 nnz d^2 flops per block
    instead of the 2 p d^3 of conjugating every dense A_s.  Row s is reduced
    against the rows [lo, lo + n) of A alone, whose entries all lie in the
    window L_s[a:, a:], a its window start; so each chunk computes only the
    window of the smallest start among its rows, into a buffer reused across
    chunks.  scipy's compiled csr mat-vec then gathers the upper entries of
    that window, accumulating straight into the row's run of M.
    """
    plan.M.fill(0.0)
    targets = plan.rows
    for bl, windows in zip(blocks, plan.windows):
        if not bl.buckets:
            continue
        d, d2 = bl.dim, bl.dim * bl.dim
        W = Wflat[bl.sl].reshape(d, d)  # a view into its group's stack
        ptr, idx, val = bl.csr
        chunk = max(1, _SCHUR_CHUNK // d2)
        L = np.empty((min(chunk, max(len(rows) for rows, *_ in bl.buckets)), d, d))
        flat = L.reshape(len(L), d2)
        for (rows, I, J, H), start in zip(bl.buckets, windows):
            for c in range(0, len(rows), chunk):
                e = c + chunk
                a = min(start[c], start[min(e, len(rows)) - 1])
                WI = W[I[c:e], a:]
                WI *= H[c:e, :, None]
                np.matmul(WI.mT, W[J[c:e], a:], out=L[: len(WI), a:, a:])
                for s, l in zip(rows[c:e].tolist(), flat):
                    lo, n, out = targets[s]
                    csr_matvec(n, d2, ptr[lo:], idx, val, l, out)


class _Scaling:
    """Nesterov-Todd scaling point data for one (n, d, d) stack of blocks;
    Linv stacks Lx^-1 over Ls^-1, where X = Lx Lx^T and S = Ls Ls^T."""

    __slots__ = ("Linv", "G", "Ginv", "W", "lam")

    def __init__(self, X, S):
        # batched over the stack; a failed factorization raises LinAlgError
        L = np.linalg.cholesky(np.concatenate([X, S]))
        Lx, Ls = L[: len(X)], L[len(X):]
        _, d, Vt = np.linalg.svd(Ls.mT @ Lx)
        if np.min(d) <= 0:
            raise np.linalg.LinAlgError("NT scaling degenerate")
        self.lam, root = d, np.sqrt(d)
        self.G = Lx @ (Vt.mT / root[:, None, :])
        self.Linv = np.linalg.inv(L)
        self.Ginv = (root[:, :, None] * Vt) @ self.Linv[: len(X)]
        self.W = self.G @ self.G.mT


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, inf with no warning where its square overflows: the
    solver's finiteness tests read it."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def _max_steps(scals, dX, dS):
    """Largest (tp, td) with X + tp*dX >= 0 and S + td*dS >= 0 (inf if none),
    from the smallest eigenvalues of Lx^-1 dX Lx^-T and Ls^-1 dS Ls^-T: one
    batched eigvalsh per group serves both directions."""
    low = np.zeros(2)
    for sc, dx, ds in zip(scals, dX, dS):
        E = sc.Linv @ np.concatenate([dx, ds]) @ sc.Linv.mT
        w = np.linalg.eigvalsh(0.5 * (E + E.mT))[:, 0]
        low = np.minimum(low, w.reshape(2, -1).min(axis=1))
    with np.errstate(divide="ignore"):
        return np.where(low < -1e-13, -1.0 / low, np.inf)


def solve(problem: SdpProblem, tol: float = 1e-8) -> SdpSolution:
    """Solve the SDP, returning the best iterate seen.

    The iteration runs on the standard-form SDP ``_compile`` makes; the free
    values and the full dual vector are rebuilt from its solution once, and
    the residuals are those of the standard-form program.  Status OPTIMAL
    means that iterate's relative primal infeasibility, dual infeasibility
    and gap are all at most ``tol``, or, when the run ends any other way
    (stall, small steps, iteration limit), at most ``max(1e-6, 100 * tol)``.
    Huge but finite data can overflow the compiled weights, the cold start,
    the norms, the objective values, the corrector, the Newton directions
    and the free values.  Those sites run under ``np.errstate``, with no
    warning, and the finiteness tests of the residuals, the Schur
    complement, the corrector and both directions end such a solve as
    NUMERICAL_FAILURE.
    """
    blocks, groups, C, b, const, unfree, tpos = _compile(problem)
    p, n = len(b), len(C)
    nu = sum(bl.dim for bl in blocks)
    if nu == 0:
        raise ValueError("problem has no semidefinite blocks")

    def split(v):  # the group stacks of a flat vector, as views
        return [v[sl].reshape(shape) for sl, shape in groups]

    def each(f, *vs):  # the flat vector of f(scaling, stacks of vs) per group
        out = np.empty(n)
        for sc, o, *stacks in zip(scals, split(out), *map(split, vs)):
            o[...] = f(sc, *stacks)
        return out

    def sym(v):  # (X + X^T) / 2 of every block
        return 0.5 * (v + v[tpos])

    norm_b, norm_C = 1.0 + _norm(b), 1.0 + _norm(C)

    # SDPT3-style cold start: scaled multiples of the identity.
    X, S = np.zeros(n), np.zeros(n)
    for bl in blocks:
        ptr, col, V = bl.csr  # A's row norms: an off-diagonal V = 2v is two entries v
        rows = np.repeat(np.arange(p), np.diff(ptr))
        half = np.where(col // bl.dim == col % bl.dim, 1.0, 0.5)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # capped below
            norms = np.sqrt(np.bincount(rows, half * V**2, minlength=max(p, 1)))
            ratio = np.max((1.0 + np.abs(b)) / (1.0 + norms), initial=0.0)
        root = np.sqrt(bl.dim)
        xi = max(10.0, root, bl.dim * float(ratio))
        eta = max(10.0, root, (1.0 + max(_norm(C[bl.sl]), np.max(norms))) / root)
        X[bl.sl][:: bl.dim + 1] = min(xi, 1e6)  # the diagonal of vec(X_b)
        S[bl.sl][:: bl.dim + 1] = min(eta, 1e6)
    y = np.zeros(p)
    schur = _Schur(blocks, p)  # refilled in place every iteration

    # The returned iterate is the best one seen (by worst residual), not
    # necessarily the last: near-degenerate problems can lose primal accuracy
    # once mu drops below what the Schur system supports.
    best = {"score": np.inf}
    stall_accept = max(1e-6, 100.0 * tol)

    def remember(score):
        if score < best["score"]:
            best.update(score=score, X=X.copy(), y=y.copy(), pobj=pobj, dobj=dobj,
                        residuals=SdpResiduals(prim_rel, dual_rel, gap_rel))

    def package(status, iterations):
        if "X" not in best:  # no iterate with a finite score was ever seen
            status = SdpStatus.NUMERICAL_FAILURE
        elif status != SdpStatus.OPTIMAL and best["score"] <= stall_accept:
            status = SdpStatus.OPTIMAL
        if "X" not in best or status in (SdpStatus.INFEASIBLE, SdpStatus.UNBOUNDED):
            remember(-np.inf)  # certificates live in the current (diverging) iterate
        Xb = [best["X"][bl.sl].reshape(bl.dim, bl.dim) for bl in blocks]  # caller's order
        return SdpSolution(status, Xb, *unfree(best["X"], best["y"]), best["pobj"],
                           best["dobj"], best["residuals"], iterations)

    def finite(*arrays):  # a singular or hopelessly conditioned M shows up here
        return all(np.isfinite(a).all() for a in arrays)

    pobj = dobj = 0.0
    prim_rel = dual_rel = gap_rel = np.inf
    small_steps = no_progress = 0

    for it in range(MAX_ITERATIONS):
        ax = _A_of(blocks, X, p)
        rp = b - ax
        Rd = C - _At_of(blocks, tpos, y) - S

        with np.errstate(over="ignore", invalid="ignore"):  # huge iterates: tested below
            pobj = const + float(C @ X)
            dobj = const + float(b @ y)
            gap = float(X @ S)
        mu = gap / nu

        prim_rel = _norm(rp) / norm_b
        dual_rel = _norm(Rd) / norm_C
        gap_rel = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))

        if not np.isfinite(mu) or not np.isfinite(prim_rel) or not np.isfinite(dual_rel):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        score = max(prim_rel, dual_rel, gap_rel)
        no_progress = 0 if score < best["score"] * (1.0 - 1e-2) else no_progress + 1
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
            ray = _norm(C - Rd)
            if ray / by <= 1e-6 * norm_C:
                return package(SdpStatus.INFEASIBLE, it)
        if pobj < -1e4 * norm_C:
            ray = _norm(ax)
            if ray / (-pobj) <= 1e-6 * norm_b:
                return package(SdpStatus.UNBOUNDED, it)

        # NT scaling and Schur complement.
        try:
            scals = [_Scaling(x, s) for x, s in zip(split(X), split(S))]
        except np.linalg.LinAlgError:
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        def wvw(sc, v):
            return sc.W @ v @ sc.W

        if not schur.factorize(blocks, each(lambda sc: sc.W)):
            return package(SdpStatus.NUMERICAL_FAILURE, it)
        WRdW = each(wvw, Rd)

        def newton(Rc):  # Rc: the complementarity residual, less W R_d W
            h = rp - _A_of(blocks, Rc, p)  # Rc is symmetric up to W R_d W's rounding

            # a huge dy overflows these products quietly: the step comes out
            # non-finite, and ``finite`` tests it once newton returns
            @np.errstate(over="ignore", invalid="ignore")
            def directions(dy):
                aty = _At_of(blocks, tpos, dy)
                dS = Rd - aty  # exactly symmetric, as R_d and A*(dy) are
                # not W dS W: a large A*(dy) (M nearly singular) would swamp R_d
                dX = sym(Rc + each(wvw, aty))
                # the residual of the equations A(dX) = rp
                return dX, dy, dS, rp - _A_of(blocks, dX, p)

            dy = schur.solve(h)
            *step, resid = directions(dy)
            # one step of iterative refinement against those equations, which
            # the gathered M only approximates once it is ill-conditioned
            if _norm(resid) > 1e-13 * (1.0 + _norm(h)):
                dy = dy + schur.solve(resid)
                *step, resid = directions(dy)
            return step

        # predictor (affine scaling)
        dXa, dya, dSa = newton(-X - WRdW)
        if not finite(dXa, dSa, dya):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        ap_aff, ad_aff = np.minimum(1.0, _max_steps(scals, split(dXa), split(dSa)))
        gap_aff = float((X + ap_aff * dXa) @ (S + ad_aff * dSa))
        sigma = min(1.0, max(gap_aff / gap, 0.0)) ** 3  # cubed after the clip: no overflow

        def corrector(sc, dxa, dsa):  # Mehrotra's second-order term, scaled
            cross = (sc.Ginv @ dxa @ sc.Ginv.mT) @ (sc.G.mT @ dsa @ sc.G)
            lam, diag = sc.lam, np.arange(sc.lam.shape[1])
            Ms = -0.5 * (cross + cross.mT)
            Ms[:, diag, diag] += sigma * mu - lam**2
            Ms *= 2.0 / (lam[:, :, None] + lam[:, None, :])
            return sc.G @ Ms @ sc.G.mT

        with np.errstate(over="ignore", invalid="ignore"):  # huge directions: inf, NaN
            Rc = sym(each(corrector, dXa, dSa))
        if not finite(Rc):
            return package(SdpStatus.NUMERICAL_FAILURE, it)
        dX, dy, dS = newton(Rc - WRdW)
        if not finite(dX, dS, dy):
            return package(SdpStatus.NUMERICAL_FAILURE, it)

        raw = np.minimum(1.0 / 0.98, _max_steps(scals, split(dX), split(dS)))
        gamma = 0.9 + 0.09 * min(1.0, *raw)
        alpha_p, alpha_d = np.minimum(1.0, gamma * raw)

        X += alpha_p * dX  # symmetric, as both directions are
        S += alpha_d * dS
        y = y + alpha_d * dy

        small_steps = small_steps + 1 if max(alpha_p, alpha_d) < 1e-4 else 0
        if small_steps >= 3:
            return package(SdpStatus.NUMERICAL_FAILURE, it + 1)

    return package(SdpStatus.MAX_ITERATIONS, MAX_ITERATIONS)
