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
(Kobayashi-Nakata-Kojima, Comput. Optim. Appl. 36, 2007), the solver runs
the resulting standard-form SDP and maps its solution back.  The algorithm
is a Nesterov-Todd scaled Mehrotra predictor-corrector method with
infeasible start.  X, S, C and every other matrix quantity is one flat
vector, the vec(X_b) of the blocks sorted stably by width; each run of
equal widths is a group, viewed as one (n_g, d, d) stack, so NT scaling,
step lengths and the corrector run batched per group, 1x1 blocks included,
as in SDPT3 (Toh-Todd-Tutuncu, Optim. Methods Softw. 11, 1999).  The
Schur complement M is gathered from each sparse row's few entries (F2 of
Fujisawa-Kojima-Nakata, Math. Prog. 79, 1997) into one triangle in
LAPACK's RFP storage, p(p+1)/2 doubles, and factored there; ``_Schur``
describes its storage and the plan that builds it, and the failed-pivot
rule (Wright, SIAM J. Optim. 9, 1999) that restores M from a second RFP
array, allocated at the solve's first failed pivot.  So M, and that copy
in a solve that fails a pivot, are the only arrays of a solve that grow as
p^2, each half the size of a p x p one.

``solve_many`` runs the programs whose compiled constraints are identical
as one batch: their flat vectors form a (K, n) stack, each group a (K,
n_g, d, d) one, and every batched call above, A and A* too, serves all K
at once.  Each program keeps its own scalars (mu, sigma, step lengths,
residuals, stall counters, best iterate), inner products, Newton
refinement test and M, built with the batch's one plan, so every row sees
the arithmetic of a lone solve: a program ends with the bits and the
iteration count it has alone.  It leaves the stacks at the top of the
iteration where its exit is decided; a step that fails for one program of
a batch solves each of its programs again alone, with the same bits.

Besides M, that copy, the compiled program (C and the constraint data) and
the Schur plan's gathers, a solve holds at most 16 arrays of n doubles at
once, n = sum_b d_b^2 the length of the flat layout, plus O(p + d)
doubles, the Schur plan's buffer of at most ``_SCHUR_CHUNK`` doubles and
numpy's fixed-size ufunc buffers; a batch of K programs holds K times as
many, each stack K arrays, and A* one (K, n) stack more while it
transposes its output.  Each per-iteration array is freed at its last
reader, and the symmetrizations, the Newton directions, the corrector and
the step lengths work in place per group through ``.mT`` views.  The
predictor's step lengths reach the count: X, S, the best X seen, R_d, the
scaling's five stacks (Lx^-1 and Ls^-1, G, G^-1, W), W R_d W, the
predictor's dX and dS, and four stacks of work for both directions'
products.  Its Newton step and the corrector, whose term is built in dX's
array, stay one below.  The Schur build's per-chunk gathers, and the L
rows of a block wider than that buffer holds (see ``_schur``), are live
only while ten of those arrays are: X, S, the best X, R_d, the scaling
and a flat W.
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
        return the entry, free and objective triplets as float arrays: the
        caller's own array where it is one, not a copy."""
        nb, p, nf = len(self.block_dims), self.n_rows, self.n_free
        if any(d <= 0 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if nf < 0:
            raise ValueError("n_free must be nonnegative")
        ent, free, obj = (np.asarray(t, dtype=float).reshape(-1, w) for t, w in
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
    """

    __slots__ = ("dim", "sl", "csr")

    def __init__(self, dim, sl, row, col, v, p):
        # (row, col, v): the summed upper-triangle entries, sorted by row, col
        self.dim, self.sl = dim, sl
        ptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=p))])
        col = col.astype(np.int32)
        with np.errstate(over="ignore"):  # v near the double limit: inf, caught by the residuals
            V = np.where(col // dim == col % dim, v, 2.0 * v)
        self.csr = (ptr.astype(np.int32), col, V)


def _compile(problem: SdpProblem):
    """Compile to a standard-form SDP: (blocks in the caller's order, groups,
    flat C, rhs, objective constant, unfree).  A group is (slice, (n, d, d)):
    the stack of one width in the flat layout, which ``v[slice].reshape``
    views in place, so ``.mT`` of that view transposes every block.

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
    parts = [ent[k < 0]]  # a copy: the caller's array stays as it is
    parts[0][:, 0] = kept[parts[0][:, 0].astype(np.int64)]
    for c in np.flatnonzero(T.any(axis=0)):  # A_r - T_r A_R, column by column
        src, n = E[kE == c], np.flatnonzero(T[:, c])
        part = np.repeat(src, len(n), axis=0)
        part[:, 0] = np.tile(n, len(src))
        part[:, 4] *= -np.tile(T[n, c], len(src))
        parts.append(part)
    ent = parts[0] if len(parts) == 1 else np.concatenate(parts)
    obj = np.concatenate([obj, np.column_stack([E[:, 1:4], -g[kE] * E[:, 4]])])
    rhs = b[N] - T @ b[R]

    p, dims = len(N), np.asarray(problem.block_dims, dtype=np.int64)
    size, order = dims * dims, np.argsort(dims, kind="stable")
    start = np.empty_like(dims)  # each block's offset in the flat layout
    start[order] = np.cumsum(size[order]) - size[order]
    width, first, count = np.unique(dims[order], return_index=True, return_counts=True)
    groups = [(slice(lo, lo + c * d * d), (c, d, d)) for d, lo, c in
              zip(width.tolist(), start[order][first].tolist(), count.tolist())]

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

    return blocks, groups, C, rhs, float(g @ b[R]), unfree


def _A_of(blocks, x: np.ndarray, p: int) -> np.ndarray:
    """A(X) of each row X of ``x``: one compiled csr mat-vec per block and
    X.  It reads the upper triangle of each X_b alone, so it is <A_r, X>
    for a symmetric X."""
    out = np.zeros((len(x), p))
    for xk, o in zip(x, out):
        for bl in blocks:
            csr_matvec(p, bl.dim**2, *bl.csr, xk[bl.sl], o)
    return out


def _At_of(blocks, groups, y: np.ndarray) -> np.ndarray:
    """A*(y) = sum_r y_r A_r of each row y of ``y``, flat and exactly
    symmetric.  The compiled csc mat-vec sums y_r V onto the upper
    triangles, U: each off-diagonal entry twice over, each diagonal one
    once.  (U + U^T) / 2, made in place per group by ``_symmetrize``, halves
    the former into both triangles; both scalings by 2 are exact."""
    out = np.zeros((len(y), sum(bl.dim**2 for bl in blocks)))
    for yk, o in zip(y, out):
        for bl in blocks:
            csc_matvec(bl.dim**2, len(yk), *bl.csr, yk, o[bl.sl])
    return _symmetrize(out, groups)


def _symmetrize(v: np.ndarray, groups) -> np.ndarray:
    """v <- (v + v^T) / 2 of every block of each flat vector, the last axis
    of v, in place, one group stack at a time: the sum is the only
    temporary, one stack."""
    for sl, shape in groups:
        s = v[..., sl].reshape(v.shape[:-1] + shape)
        np.multiply(s + s.mT, 0.5, out=s)
    return v


# ---------------------------------------------------------------------------
# solver


# Doubles of L that ``_schur`` builds at once, one chunk of rows of a batch:
# 512 kB, 4 rows of a 126-wide block, small enough to stay in cache while its
# rows are reduced into M (disk k=4 on one Xeon core with a 4 MB L2: 2^15-2^16
# build M in 0.056 s, 2^18 in 0.063 s, 2^13 in 0.075 s).  It also bounds a
# chunk's gathers of W, and the batches: all blocks share one when their rows
# times their summed d^2 fit in it, else each is alone (see ``_Schur``).
_SCHUR_CHUNK = 1 << 16


class _Schur:
    """The Schur complement M of one solve: its storage, the plan by which
    ``_schur`` fills it, and the copy the failed-pivot rule restores from.
    The programs of one ``solve_many`` batch share a plan (``fork``), each
    with its own M and copy.

    M_rs = sum_b <A_r, W A_s W> is gathered from each sparse row's few
    entries (F2 of Fujisawa-Kojima-Nakata, Math. Prog. 79, 1997): a batched
    matmul builds the symmetric L_s = W A_s W, about 4 nnz d^2 flops instead
    of the 2 p d^3 of conjugating every dense A_s.  Row s is reduced against
    the rows [lo, lo + n) of A alone, whose entries all lie in the window
    L_s[a:, a:], a its window start; so a chunk computes only the window of
    the smallest start among its rows, and scipy's compiled csr mat-vec
    gathers its upper entries, one call per row for all blocks of the
    batch, into the row's run of M.  Each entry of M sums the same products
    in the same order whatever the batches and chunks: block by block in
    the caller's order, a padded entry adding an exact 0.

    M is one triangle in LAPACK's RFP storage (TRANSR='N', UPLO='L';
    Gustavson-Wasniewski-Dongarra-Langou, ACM TOMS 37, 2010), p(p+1)/2
    doubles, factored in place by ``dpftrf`` and solved with by ``dpftrs``.
    With h = ceil(p/2), a row s < h owns its tail M[s, s:], the rows [s, p)
    of A reduced against L_s, and a row s >= h its head M[h:s+1, s], the
    rows [h, s]; either is one contiguous run of the RFP array, and the runs
    hold every entry of the triangle once.

    The plan batches the blocks with entries, in the caller's order.  A
    batch's width is its blocks' summed d^2, and its rows are those with an
    entry in any of them.  If the batch of all those blocks has rows times
    width within ``_SCHUR_CHUNK``, it is the one batch; otherwise each block
    is a batch of its own.  A batch's rows, sorted stably by entry count,
    are cut into chunks of ``_SCHUR_CHUNK`` // max(width, 4 n d) rows, at
    least one, n the largest entry count of a row in a d-wide block of the
    batch: a chunk's L rows, and the gathers W[I] and W[J] of each of its
    blocks together, fit in ``_SCHUR_CHUNK`` doubles, and a batch of
    several small blocks is one chunk unless its rows have many entries.  A
    chunk's L rows lie side by side in the buffer ``L``, one d^2 slot per
    block of the batch, and one csr row of the batch, its blocks' entries
    side by side, reduces an L row at once.

    M:       the RFP array; after ``factorize``, its Cholesky factor
    keep:    None until a pivot of the solve fails, then an RFP copy of M
    lo, n, offset: int arrays, per row s its run M[offset[s] : offset[s] +
             n[s]], whose entry t - lo[s] holds the pair {s, t}
    rows:    per row s, (lo, n, out): the rows [lo, lo + n) of A that
             ``_schur`` reduces against L_s, and out, its run of M
    batches: per batch, (csr, width, members, chunks).  members: the indices
             of its blocks; csr: (indptr, indices, V) of their rows side by
             side, member k's columns shifted by the d^2 of those before
             it (a batch of one block has that block's csr).  A chunk is
             (rows, L, terms): its rows s, an int array; L, their (len(rows),
             width) rows of the buffer, or None where one row is wider
             than the buffer (d > 256), as is then out, since ``_schur``
             gives that block's L row an array of its own for each build;
             per member a term (a, IJ, H, out).
             IJ (len(rows), 2, n) holds each row's entries' i over their j
             and H (len(rows), n) their weights V/2, n the largest count in
             the chunk, a shorter row padded with index 0 and weight 0.
             ``_schur`` doubles them as it gathers: I_s = (i, j) and J_s =
             (j, i), the flattened IJ[s] and IJ[s, ::-1], each with weights
             (H_s, H_s), so L_s = W[:, I_s] diag(H_s, H_s) W[J_s, :] is the
             symmetric W A_s W, exactly 0 where s has no entry in the
             block.  a: the smallest window start of the chunk's rows, that
             is the smallest Gram index among the entries of the rows one
             of them reduces (suffix minima for tails, prefix minima from h
             for heads); out: the window [a:, a:] of the member's slot of L
    L:       the buffer, as many doubles as the largest chunk in it needs,
             at most ``_SCHUR_CHUNK``
    """

    __slots__ = ("M", "keep", "lo", "n", "offset", "rows", "batches", "L")

    def __init__(self, blocks, p: int):
        odd = p % 2  # ld: the RFP array's leading dimension, as LAPACK stores it
        h, ld = (p + 1) // 2, p + 1 - odd
        s = np.arange(p)
        tail = s < h
        self.lo = np.where(tail, s, h)
        self.n = np.where(tail, p - s, s + 1 - h)
        self.offset = np.where(tail, s * (ld + 1) + 1 - odd, (s - h + odd) * ld)
        self._own_M()

        # per block its rows' entry counts; a block without entries adds
        # nothing to M.  size: a batch's rows, those with an entry in any
        # member, and its width
        count_of = [np.diff(bl.csr[0]) for bl in blocks]
        active = [b for b, count in enumerate(count_of) if count.any()]

        def size(members):
            return (np.count_nonzero(sum(count_of[b] for b in members)),
                    sum(blocks[b].dim**2 for b in members))

        rows, width = size(active)  # all of them as one batch
        runs = []  # per batch, (members, rows, width, per): per, the rows of a chunk
        for members in [active] if 0 < rows * width <= _SCHUR_CHUNK else [[b] for b in active]:
            # gathers: the doubles per row of the largest member's W[I] and
            # W[J] together, 4 n d at n entries
            gathers = max(4 * int(count_of[b].max()) * blocks[b].dim for b in members)
            rows, width = size(members)
            runs.append((members, rows, width, max(1, _SCHUR_CHUNK // max(width, gathers))))

        self.L = np.empty(max((min(per, n) * w for _, n, w, per in runs if w <= _SCHUR_CHUNK),
                              default=0))
        self.batches = []
        for members, _, width, per in runs:
            counts = [count_of[b] for b in members]
            slots = np.cumsum([0] + [blocks[b].dim**2 for b in members]).tolist()
            gather = []  # per member, the data its terms gather from
            for b, count in zip(members, counts):
                ptr, col, V = blocks[b].csr
                d = blocks[b].dim
                # each row's smallest Gram index; then suffix minima, prefix from h
                start = np.where(count > 0, np.append(col, 0)[ptr[:-1]] // d, d)
                start[:h] = np.minimum.accumulate(start[::-1])[::-1][:h]
                np.minimum.accumulate(start[h:], out=start[h:])
                # (i, j) over the entries and V/2, a zero entry last to pad with
                ij = np.stack(np.divmod(np.append(col, np.int32(0)), d))
                gather.append((start, ij, np.append(0.5 * V, 0.0)))
            total = sum(counts)
            rows = np.flatnonzero(total)
            rows = rows[np.argsort(total[rows], kind="stable")]
            chunks = []
            for c in range(0, len(rows), per):
                r = rows[c : c + per]
                L = out = None  # one row wider than the buffer: ``_schur`` allocates it
                if width <= _SCHUR_CHUNK:
                    L = self.L[: len(r) * width].reshape(len(r), width)
                terms = []
                for b, count, (start, ij, half), slot in zip(members, counts, gather, slots):
                    ptr, d = blocks[b].csr[0], blocks[b].dim
                    at = ptr[r, None] + np.arange(count[r].max())
                    at[at >= ptr[r + 1, None]] = len(half) - 1
                    a = int(start[r].min())
                    if L is not None:  # the window of the member's slot
                        out = L[:, slot : slot + d * d].reshape(-1, d, d)[:, a:, a:]
                    terms.append((a, ij[:, at].swapaxes(0, 1), half[at], out))
                chunks.append((r, L, terms))
            csr = blocks[members[0]].csr
            if len(members) > 1:  # a row's entries member by member, in the caller's order
                order = np.argsort(np.repeat(np.tile(np.arange(p), len(members)),
                                             np.concatenate(counts)), kind="stable")
                col = np.concatenate([blocks[b].csr[1] + o for b, o in zip(members, slots)])
                V = np.concatenate([blocks[b].csr[2] for b in members])
                csr = (np.concatenate([[0], np.cumsum(total)]).astype(np.int32),
                       col[order].astype(np.int32), V[order])
            self.batches.append((csr, width, members, chunks))

    def fork(self) -> _Schur:
        """This plan, its batches and buffer shared, with an M of its own and
        no ``keep``: for another program of the same constraints."""
        twin = object.__new__(_Schur)
        for name in _Schur.__slots__:
            setattr(twin, name, getattr(self, name))
        twin._own_M()
        return twin

    def _own_M(self):
        """A zero M of this plan's own, no ``keep``, and each row's run of M."""
        p = len(self.n)
        self.M, self.keep = np.zeros(p * (p + 1) // 2), None
        self.rows = [(lo, n, self.M[at : at + n]) for lo, n, at in
                     zip(self.lo.tolist(), self.n.tolist(), self.offset.tolist())]

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
    """Fill ``plan.M`` with M_rs = sum_b <A_r, W A_s W>, batch by batch and
    chunk by chunk as the plan says; ``_Schur`` describes how."""
    plan.M.fill(0.0)
    targets = plan.rows
    for (ptr, idx, val), width, members, chunks in plan.batches:
        Ws = [Wflat[blocks[b].sl].reshape(blocks[b].dim, -1) for b in members]  # views
        if chunks[0][1] is None:  # a block wider than the buffer: the L row of
            # each of its rows in one array, live during this build alone
            L = np.empty((1, width))
            chunks = [(rows, L, [(a, IJ, H, L.reshape(1, len(Ws[0]), -1)[:, a:, a:])])
                      for rows, _, [(a, IJ, H, _)] in chunks]
        for rows, L, terms in chunks:
            for W, (a, IJ, H, out) in zip(Ws, terms):
                WI = W[IJ, a:]  # (rows, 2, n, d - a): W[I] over W[J]
                # W[J] over W[I], copied before WI is scaled
                WJ = np.ascontiguousarray(WI[:, ::-1]).reshape(len(WI), -1, len(W) - a)
                WI *= H[:, None, :, None]
                np.matmul(WI.reshape(WJ.shape).mT, WJ, out=out)
            for s, l in zip(rows.tolist(), L):
                lo, n, o = targets[s]
                csr_matvec(n, width, ptr[lo:], idx, val, l, o)


class _Scaling:
    """Nesterov-Todd scaling point data for one stack of blocks, (n, d, d)
    or (K, n, d, d) for K programs; Linv stacks Lx^-1 over Ls^-1, where X =
    Lx Lx^T and S = Ls Ls^T."""

    __slots__ = ("Linv", "G", "Ginv", "W", "lam")

    def __init__(self, X, S):
        # batched over the stack; a failed factorization raises LinAlgError
        L = np.linalg.cholesky(np.concatenate([X, S]))
        Lx, Ls = L[: len(X)], L[len(X):]
        _, d, Vt = np.linalg.svd(Ls.mT @ Lx)
        if np.min(d) <= 0:
            raise np.linalg.LinAlgError("NT scaling degenerate")
        self.lam, root = d, np.sqrt(d)
        self.G = Lx @ (Vt.mT / root[..., None, :])
        self.Linv = np.linalg.inv(L)
        self.Ginv = (root[..., :, None] * Vt) @ self.Linv[: len(X)]
        self.W = self.G @ self.G.mT


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, inf with no warning where its square overflows: the
    solver's finiteness tests read it."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def _max_steps(scals, dX, dS):
    """Largest (tp, td) per program, shape (2, K), with X + tp*dX >= 0 and S
    + td*dS >= 0 (inf if none), from the smallest eigenvalues of Lx^-1 dX
    Lx^-T and Ls^-1 dS Ls^-T: one batched eigvalsh per group serves both
    directions of every program."""
    low = 0.0
    for sc, dx, ds in zip(scals, dX, dS):
        E = np.concatenate([dx, ds])
        np.matmul(sc.Linv @ E, sc.Linv.mT, out=E)
        np.multiply(E + E.mT, 0.5, out=E)
        w = np.linalg.eigvalsh(E)[..., 0]
        low = np.minimum(low, w.reshape(2, len(dx), -1).min(axis=2))
    with np.errstate(divide="ignore", over="ignore"):  # -1/low of a subnormal low
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
    complement and both directions, the corrector's included, end such a
    solve as NUMERICAL_FAILURE.
    """
    return solve_many([problem], tol)[0]


def solve_many(problems, tol: float = 1e-8) -> list[SdpSolution]:
    """``solve`` of each program, bit for bit, in the order of ``problems``.
    All are compiled first, so the first that does not compile raises its
    ValueError before any solve.  Those with identical compiled constraints
    (block widths and ``_Block.csr`` arrays) iterate as one batch."""
    compiled, batches = {}, {}  # batches: per first program, the indices of its batch
    for i, problem in enumerate(problems):
        compiled[i] = _compile(problem)
        blocks = compiled[i][0]
        if not blocks:
            raise ValueError("problem has no semidefinite blocks")
        first = next((j for j in batches if len(compiled[j][0]) == len(blocks) and all(
            a.dim == b.dim and all(map(np.array_equal, a.csr, b.csr))
            for a, b in zip(compiled[j][0], blocks))), i)
        batches.setdefault(first, []).append(i)
    out = [None] * len(problems)
    for batch in batches.values():
        for i, solution in zip(batch, _solve_batch([compiled.pop(i) for i in batch], tol)):
            out[i] = solution
    return out


class _Run:
    """One program's values in ``_solve_batch`` besides its rows of the
    stacks: its scalars, its Schur complement and its best iterate,
    ``best`` = (X, y, pobj, dobj, residuals), whose worst residual is
    ``score``."""

    def __init__(self, index, schur, const, unfree, norm_b, norm_C):
        self.index, self.schur, self.const, self.unfree = index, schur, const, unfree
        self.norm_b, self.norm_C = norm_b, norm_C
        self.score, self.best, self.no_progress, self.small_steps = np.inf, None, 0, 0

    def remember(self, score, X, y):
        if score < self.score:
            self.score = score
            self.best = (X.copy(), y.copy(), self.pobj, self.dobj,
                         SdpResiduals(self.prim_rel, self.dual_rel, self.gap_rel))

    def check(self, tol, nu, X, S, y, C, b, ax, rp, Rd):
        """This iteration's scalars, from the program's rows of the stacks;
        the status it exits with, or None."""
        with np.errstate(over="ignore", invalid="ignore"):  # huge iterates: tested below
            pobj = self.pobj = self.const + float(C @ X)
            dobj = self.dobj = self.const + float(b @ y)
            self.gap = float(X @ S)
        self.mu = self.gap / nu
        prim_rel = self.prim_rel = _norm(rp) / self.norm_b
        dual_rel = self.dual_rel = _norm(Rd) / self.norm_C
        gap_rel = self.gap_rel = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))

        if not np.isfinite(self.mu) or not np.isfinite(prim_rel) or not np.isfinite(dual_rel):
            return SdpStatus.NUMERICAL_FAILURE

        score = max(prim_rel, dual_rel, gap_rel)
        self.no_progress = 0 if score < self.score * (1.0 - 1e-2) else self.no_progress + 1
        self.remember(score, X, y)

        if prim_rel <= tol and dual_rel <= tol and gap_rel <= tol:
            return SdpStatus.OPTIMAL
        if self.no_progress >= 8:
            return SdpStatus.NUMERICAL_FAILURE

        # Farkas-style certificates from diverging iterates.  A dual ray with
        # b.y = 1 and A*(y) + S ~ 0 proves primal infeasibility; a primal ray
        # with <C, X> = -1 and A(X) ~ 0 proves unboundedness.  The size guards
        # keep a lucky starting point from masquerading as a ray.
        by = float(b @ y)
        if by > 1e4 * self.norm_b and _norm(C - Rd) / by <= 1e-6 * self.norm_C:
            return SdpStatus.INFEASIBLE
        if pobj < -1e4 * self.norm_C and _norm(ax) / (-pobj) <= 1e-6 * self.norm_b:
            return SdpStatus.UNBOUNDED
        return None

    def package(self, status, iterations, blocks, stall_accept, X, y) -> SdpSolution:
        """The solution of the best iterate; X and y are the current one."""
        if self.best is None:  # no iterate with a finite score was ever seen
            status = SdpStatus.NUMERICAL_FAILURE
        elif status != SdpStatus.OPTIMAL and self.score <= stall_accept:
            status = SdpStatus.OPTIMAL
        if self.best is None or status in (SdpStatus.INFEASIBLE, SdpStatus.UNBOUNDED):
            self.remember(-np.inf, X, y)  # certificates live in the current (diverging) iterate
        X, y, pobj, dobj, residuals = self.best
        Xb = [X[bl.sl].reshape(bl.dim, bl.dim) for bl in blocks]  # caller's order
        return SdpSolution(status, Xb, *self.unfree(X, y), pobj, dobj, residuals,
                           iterations)


def _solve_batch(programs, tol: float) -> list[SdpSolution]:
    """Solve compiled programs of identical constraints in one loop (see the
    module docstring).  X, S, C and the other flat vectors are (K, n)
    stacks and y and b (K, p), one row per program still running, whose
    other values are its ``_Run``'s.  A program exits at the top of an
    iteration, or where a step fails: a scaling does not factor, or M or a
    direction is not finite."""
    blocks, groups = programs[0][:2]
    K, p, n = len(programs), len(programs[0][3]), len(programs[0][2])
    nu = sum(bl.dim for bl in blocks)
    C = np.stack([prog[2] for prog in programs])
    b = np.stack([prog[3] for prog in programs])
    schur = _Schur(blocks, p)  # its plan serves every program; M is refilled in place
    runs = [_Run(k, schur if k == 0 else schur.fork(), prog[4], prog[5],
                 1.0 + _norm(bk), 1.0 + _norm(Ck))
            for k, (prog, bk, Ck) in enumerate(zip(programs, b, C))]
    del programs  # the programs' own C go: the stack holds them

    views = [(sl, (-1,) + shape) for sl, shape in groups]  # (K, n_g, d, d) for any K

    def split(v):  # the group stacks of each flat vector, as views
        return [v[:, sl].reshape(shape) for sl, shape in views]

    def each(f, *vs, out=None):  # f(scaling, stacks of vs) per group, into flat vectors
        out = np.empty((len(runs), n)) if out is None else out
        for sc, o, *stacks in zip(scals, split(out), *map(split, vs)):
            o[...] = f(sc, *stacks)
        return out

    # SDPT3-style cold start: scaled multiples of the identity.
    X, S = np.zeros((K, n)), np.zeros((K, n))
    for bl in blocks:
        ptr, col, V = bl.csr  # A's row norms: an off-diagonal V = 2v is two entries v
        rows = np.repeat(np.arange(p), np.diff(ptr))
        half = np.where(col // bl.dim == col % bl.dim, 1.0, 0.5)
        root = np.sqrt(bl.dim)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # capped below
            norms = np.sqrt(np.bincount(rows, half * V**2, minlength=max(p, 1)))
            for k in range(K):
                ratio = np.max((1.0 + np.abs(b[k])) / (1.0 + norms), initial=0.0)
                xi = max(10.0, root, bl.dim * float(ratio))
                eta = max(10.0, root, (1.0 + max(_norm(C[k, bl.sl]), np.max(norms))) / root)
                X[k, bl.sl][:: bl.dim + 1] = min(xi, 1e6)  # the diagonal of vec(X_b)
                S[k, bl.sl][:: bl.dim + 1] = min(eta, 1e6)
    y = np.zeros((K, p))

    # The returned iterate is the best one seen (by worst residual), not
    # necessarily the last: near-degenerate problems can lose primal accuracy
    # once mu drops below what the Schur system supports.
    stall_accept = max(1e-6, 100.0 * tol)
    solutions = [None] * K

    def retire(statuses, it):
        """Package the programs whose status is not None, at ``it``
        iterations, and drop their rows from the stacks; return the rows
        the others keep, slice(None) when no program exits."""
        nonlocal runs, X, S, y, C, b
        if not any(statuses):
            return slice(None)
        for run, status, x, yk in zip(runs, statuses, X, y):
            if status is not None:
                solutions[run.index] = run.package(status, it, blocks, stall_accept, x, yk)
        keep = np.array([status is None for status in statuses])
        runs = [run for run, kept in zip(runs, keep) if kept]
        X, S, y, C, b = (v[keep] for v in (X, S, y, C, b))
        return keep

    def finite(*arrays):
        return all(np.isfinite(v).all() for v in arrays)

    for it in range(MAX_ITERATIONS + 1):
        ax = _A_of(blocks, X, p)
        rp = b - ax
        Rd = C - _At_of(blocks, groups, y) - S
        # exits in this order; small steps and the limit neither read nor remember X
        keep = retire([SdpStatus.NUMERICAL_FAILURE if run.small_steps >= 3 else
                       SdpStatus.MAX_ITERATIONS if it == MAX_ITERATIONS else
                       run.check(tol, nu, *rows)
                       for run, *rows in zip(runs, X, S, y, C, b, ax, rp, Rd)], it)
        if not runs:
            return solutions
        rp, Rd = rp[keep], Rd[keep]
        del ax

        # NT scaling and Schur complement, each program's M its own.
        try:
            scals = [_Scaling(x, s) for x, s in zip(split(X), split(S))]
        except np.linalg.LinAlgError:
            break
        if not all(run.schur.factorize(blocks, w)
                   for run, w in zip(runs, each(lambda sc: sc.W))):
            break

        def wvw(sc, v):
            return sc.W @ v @ sc.W

        WRdW = each(wvw, Rd)

        def newton(Rc):  # Rc: the complementarity residual, less W R_d W
            h = rp - _A_of(blocks, Rc, p)  # Rc is symmetric up to W R_d W's rounding

            # a huge dy overflows these products quietly: the step comes out
            # non-finite, and ``finite`` tests it once newton returns
            @np.errstate(over="ignore", invalid="ignore")
            def directions(dy):
                dS = _At_of(blocks, groups, dy)  # A*(dy), until R_d - A*(dy) replaces it
                # W A*(dy) W, not W dS W: a large A*(dy) (M nearly singular)
                # would swamp R_d
                dX = each(wvw, dS)
                np.add(Rc, dX, out=dX)
                np.subtract(Rd, dS, out=dS)  # exactly symmetric, as R_d and A*(dy) are
                _symmetrize(dX, groups)
                # the residual of the equations A(dX) = rp
                return dX, dy, dS, rp - _A_of(blocks, dX, p)

            dy = np.array([run.schur.solve(hk) for run, hk in zip(runs, h)])
            *step, resid = directions(dy)
            # one step of iterative refinement against those equations, which
            # the gathered M only approximates once it is ill-conditioned; a
            # program that passes the test keeps its first step's bits
            again = [_norm(r) > 1e-13 * (1.0 + _norm(hk)) for r, hk in zip(resid, h)]
            if any(again):
                del step  # the first step: freed before the refined one is built
                dy = np.array([d + run.schur.solve(r) if a else d
                               for run, d, r, a in zip(runs, dy, resid, again)])
                *step, resid = directions(dy)
            return step

        # predictor (affine scaling)
        dXa, dya, dSa = newton(-X - WRdW)
        if not finite(dXa, dSa, dya):
            break

        ap_aff, ad_aff = np.minimum(1.0, _max_steps(scals, split(dXa), split(dSa)))
        Xa, Sa = ap_aff[:, None] * dXa, ad_aff[:, None] * dSa  # X + ap_aff dXa, ...
        np.add(X, Xa, out=Xa)
        np.add(S, Sa, out=Sa)
        for run, gap_aff in zip(runs, [float(xa @ sa) for xa, sa in zip(Xa, Sa)]):
            run.sigma = min(1.0, max(gap_aff / run.gap, 0.0)) ** 3  # cubed after the clip
        del Xa, Sa
        sigma_mu = np.array([run.sigma * run.mu for run in runs])[:, None, None]

        def corrector(sc, dxa, dsa):  # Mehrotra's second-order term, scaled
            Ms = (sc.Ginv @ dxa @ sc.Ginv.mT) @ (sc.G.mT @ dsa @ sc.G)
            lam, diag = sc.lam, np.arange(sc.lam.shape[-1])
            np.multiply(Ms + Ms.mT, -0.5, out=Ms)  # -(C + C^T) / 2 of the cross product C
            Ms[..., diag, diag] += sigma_mu - lam**2
            scale = lam[..., :, None] + lam[..., None, :]
            np.divide(2.0, scale, out=scale)
            Ms *= scale
            return np.matmul(sc.G @ Ms, sc.G.mT, out=Ms)

        with np.errstate(over="ignore", invalid="ignore"):  # huge directions: inf, NaN
            # each group reads its dXa before it is overwritten
            Rc = _symmetrize(each(corrector, dXa, dSa, out=dXa), groups)
            Rc -= WRdW
        del dXa, dSa, WRdW
        dX, dy, dS = newton(Rc)
        del Rc
        if not finite(dX, dS, dy):
            break

        raw = np.minimum(1.0 / 0.98, _max_steps(scals, split(dX), split(dS)))
        gamma = np.array([0.9 + 0.09 * min(1.0, *r) for r in raw.T.tolist()])
        alpha_p, alpha_d = np.minimum(1.0, gamma * raw)

        X += alpha_p[:, None] * dX  # symmetric, as both directions are
        S += alpha_d[:, None] * dS
        y = y + alpha_d[:, None] * dy
        del scals, Rd, dX, dS  # freed before the next iteration builds its own

        for run, tp, td in zip(runs, alpha_p, alpha_d):
            run.small_steps = run.small_steps + 1 if max(tp, td) < 1e-4 else 0

    # a step failed: a lone program ends, a batch's programs each solve alone
    if len(runs) == 1:
        retire([SdpStatus.NUMERICAL_FAILURE], it)
    for run, Ck, bk in zip(runs, C, b):
        solutions[run.index] = _solve_batch([(blocks, groups, Ck, bk, run.const, run.unfree)],
                                            tol)[0]
    return solutions
