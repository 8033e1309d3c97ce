"""Grid oracle for the achievement function and membership tests.

Everything here is independent of the certificate machinery: values come from
a lattice over the box, so they are lower bounds on suprema and one-sided
membership witnesses.  Used for cross-checking and for volume estimates.
Each query takes an (N, n) batch of points: :func:`weakly_eps_member_many`
is the membership test the region checks run, and :func:`psi_oracle_many`
the achievement values the tests compare psi_k against.

Queries meet only the nondominated lattice points: exact, since f(y') <= f(y)
gives f_i(x) - f_i(y') >= f_i(x) - f_i(y) in floating point too (subtraction
rounds correctly, so is monotone), and a dominated y never decides an answer.

Membership asks whether some front column has F < a = f(x) - eps in every
row.  The finite columns are sorted by F0 and cut into chunks (FrontChunks).
A chunk whose largest F0 is < a0 passes row 0 in every column, so rows 1..m-1
decide: for m = 2 its smallest F1 < a1, for m = 3 the smallest F2 over its
columns with F1 < a1 (a prefix once sorted by F1) < a2.  Those minima are
values of columns, so each test is the same strict comparison, just made once.
A chunk whose smallest F0 is >= a0 has no column passing row 0.  F0 being
sorted, at most one chunk has smallest F0 < a0 <= largest F0; it is compared
column by column.  A nan threshold compares false against every column, so it
never dominates, and columns with an inf or nan are compared one by one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .problem import MAX_LATTICE, ProblemSpec

CHUNK = 256  # query points per (points x front) block, columns per sweep step and front chunk


def _below(A: np.ndarray, B: np.ndarray, le=np.less_equal) -> np.ndarray:
    """[j, k]: column k of A is <= (with ``le=np.less``, <) column j of B in
    every row."""
    out = np.ones((B.shape[1], A.shape[1]), dtype=bool)
    for a, b in zip(A, B):
        out &= le(a[None, :], b[:, None])
    return out


def _nondominated(F: np.ndarray) -> np.ndarray:
    """Indices (lexicographic order) of the columns of F (m, N) no other column
    is <= in every row, one of each set of equal columns.  Kung-Luccio-Preparata
    sweep: once sorted, a column is dominated or repeated iff an earlier one is
    <= it in rows 1..m-1; each chunk is tested against its earlier columns and
    the (recursively) nondominated projections of the columns kept so far."""
    order = np.lexsort(F[::-1])
    if len(F) == 1:
        return order[:1]
    P = F[1:, order]
    keep = np.empty(len(order), dtype=bool)
    front = P[:, :0]
    for s in range(0, len(order), CHUNK):
        Q = P[:, s : s + CHUNK]
        covered = _below(front, Q).any(axis=1)
        # a column the front covers covers nothing the front does not
        rest = Q[:, ~covered]
        covered[~covered] = np.tril(_below(rest, rest), -1).any(axis=1)
        keep[s : s + CHUNK] = ~covered
        front = np.concatenate([front, Q[:, ~covered]], axis=1)
        front = front[:, _nondominated(front)]
    return order[keep]


@dataclass
class Grid:
    """Uniform lattice over a box with the feasible sublattice cached."""

    points: np.ndarray
    feasible: np.ndarray
    spacing: np.ndarray
    feasible_mask: np.ndarray
    _tables: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False
    )
    _fronts: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False
    )

    @classmethod
    def on_box(cls, box, resolution: int, spec: ProblemSpec) -> "Grid":
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if resolution ** len(box) > MAX_LATTICE:  # checked before allocating
            raise ValueError(f"{resolution}^{len(box)} lattice points exceed {MAX_LATTICE}")
        box = [(float(lo), float(hi)) for lo, hi in box]
        axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        mask = spec.feasibility_mask(points)
        spacing = np.array([(hi - lo) / (resolution - 1) for lo, hi in box])
        return cls(
            points=points,
            feasible=points[mask],
            spacing=spacing,
            feasible_mask=mask,
        )

    @classmethod
    def for_problem(cls, spec: ProblemSpec, resolution: int) -> "Grid":
        return cls.on_box(spec.box, resolution, spec=spec)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def objective_table(self, spec: ProblemSpec) -> np.ndarray:
        """Objective values on the feasible sublattice, shape (m, N_feasible)."""
        table = self._tables.get(spec)
        if table is None:
            table = spec.objective_values(self.feasible)
            self._tables[spec] = table
        return table

    def objective_front(self, spec: ProblemSpec) -> np.ndarray:
        """The nondominated columns of ``objective_table(spec)``, C-contiguous,
        in lexicographic order; then the columns with an inf or nan, where
        subtraction is not monotone, in table order."""
        return self._front(spec)[0]

    def front_chunks(self, spec: ProblemSpec) -> "FrontChunks":
        """The finite part of ``objective_front(spec)`` cut into chunks."""
        return self._front(spec)[1]

    def _front(self, spec: ProblemSpec) -> tuple:
        cached = self._fronts.get(spec)
        if cached is None:
            F = self.objective_table(spec)
            finite = np.isfinite(F).all(axis=0)
            swept = np.flatnonzero(finite)[_nondominated(F[:, finite])]
            # C-ordered: F[:, index] is not, which slows the row-wise comparisons
            front = np.ascontiguousarray(F[:, np.r_[swept, np.flatnonzero(~finite)]])
            k = len(swept)
            cached = self._fronts[spec] = (front, FrontChunks.build(front[:, :k], front[:, k:]))
        return cached


@dataclass(frozen=True)
class FrontChunks:
    """The finite front columns, sorted by objective 0 and cut into
    CHUNK-column chunks.  Each chunk keeps its smallest and largest F0 and a
    summary of its rows 1..m-1: for m = 2 the smallest F1; for m = 3 its F1
    sorted, with the running minimum of F2 in that order behind a leading inf
    (a staircase); otherwise the rows themselves.  ``rest`` holds the columns
    with an inf or nan, which are always compared one by one."""

    chunks: list
    lo: np.ndarray
    hi: np.ndarray
    summaries: list
    rest: np.ndarray

    @classmethod
    def build(cls, F: np.ndarray, rest: np.ndarray) -> "FrontChunks":
        chunks = [F[:, s : s + CHUNK] for s in range(0, F.shape[1], CHUNK)]
        summaries = []
        for G in chunks:
            if len(G) == 2:
                summaries.append(G[1].min())
            elif len(G) == 3:
                order = np.argsort(G[1], kind="stable")
                low = np.minimum.accumulate(G[2, order])
                summaries.append((G[1, order], np.concatenate([[np.inf], low])))
            else:
                summaries.append(G[1:])
        lo = np.array([G[0, 0] for G in chunks])
        hi = np.array([G[0, -1] for G in chunks])
        return cls(chunks, lo, hi, summaries, rest)

    def dominated(self, A: np.ndarray) -> np.ndarray:
        """[q]: some column is < column q of A (m, N) in every row; A has no
        nan.  Per chunk: all its F0 < a0 lets the summary decide, all its
        F0 >= a0 rules it out, and the one chunk straddling a0 (F0 is sorted)
        is compared column by column."""
        out = _any_below(self.rest, A)
        full = np.searchsorted(self.hi, A[0])  # chunks c < full: every F0 < a0
        part = np.searchsorted(self.lo, A[0])  # chunks c >= part: every F0 >= a0
        for c, (G, summary) in enumerate(zip(self.chunks, self.summaries)):
            q = np.flatnonzero(~out & (full > c))
            if len(G) == 2:
                out[q] = summary < A[1, q]
            elif len(G) == 3:
                f1, low = summary
                out[q] = low[np.searchsorted(f1, A[1, q])] < A[2, q]
            else:
                out[q] = _any_below(summary, A[1:, q])
            q = np.flatnonzero(~out & (full == c) & (part > c))
            out[q] = _any_below(G, A[:, q])
        return out


def _any_below(G: np.ndarray, A: np.ndarray) -> np.ndarray:
    """[q]: some column of G is < column q of A in every row, CHUNK queries
    at a time."""
    out = np.empty(A.shape[1], dtype=bool)
    for s in range(0, A.shape[1], CHUNK):
        out[s : s + CHUNK] = _below(G, A[:, s : s + CHUNK], np.less).any(axis=1)
    return out


def psi_oracle_many(spec: ProblemSpec, points: np.ndarray, grid: Grid) -> np.ndarray:
    """Lower bounds on the achievement function at each point.

    Maximizes min_i (f_i(x) - f_i(y)) over feasible lattice points y, plus x
    itself when feasible (so the value is >= 0, and exact 0 is attainable, on
    the feasible set).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != spec.n:
        raise ValueError(f"points must have shape (N, {spec.n})")
    F = grid.objective_front(spec)  # (m, Ny)
    if F.shape[1] == 0:
        raise ValueError("grid has no feasible points")
    fx_all = spec.objective_values(points)  # (m, N)
    feas = spec.feasibility_mask(points)
    out = np.empty(points.shape[0])
    for s in range(0, points.shape[0], CHUNK):
        e = min(s + CHUNK, points.shape[0])
        fx = fx_all[:, s:e]  # (m, c)
        zy = fx[0][:, None] - F[0][None, :]  # (c, Ny)
        for i in range(1, spec.m):
            np.minimum(zy, fx[i][:, None] - F[i][None, :], out=zy)
        best = zy.max(axis=1)
        # a feasible x competes as its own comparison point with value 0
        best = np.where(feas[s:e], np.maximum(best, 0.0), best)
        out[s:e] = best
    return out


def weakly_eps_member_many(
    spec: ProblemSpec,
    points: np.ndarray,
    eps,
    grid: Grid,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Grid test for membership in the epsilon-relaxed weakly efficient set.

    A point fails when it is infeasible or some feasible lattice point
    improves every objective by more than the corresponding eps.  Because only
    lattice competitors are examined, failure is a sound witness while success
    is up to grid resolution.  Points drawn from ``grid.feasible`` pass their
    columns of ``grid.objective_table(spec)`` as ``values`` (m, N): they are
    then neither screened for feasibility nor evaluated again.
    """
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (spec.m,))
    chunks = grid.front_chunks(spec)
    if values is None:
        points = np.asarray(points, dtype=float)
        values = spec.objective_values(points)
        out = spec.feasibility_mask(points)
    else:
        out = np.ones(values.shape[1], dtype=bool)
    # dominated: exists y with f(y) < f(x) - eps in every objective; a nan
    # threshold compares false against every y, so it never is
    A = values - eps[:, None]
    todo = np.flatnonzero(out & ~np.isnan(A).any(axis=0))
    out[todo] = ~chunks.dominated(A[:, todo])
    return out


def grid_volume(mask: np.ndarray, grid: Grid) -> float:
    """Counting-measure volume estimate: satisfied points times cell volume."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError("grid_volume expects a boolean mask")
    return float(np.count_nonzero(mask)) * grid.cell_volume


def lipschitz_slack(spec: ProblemSpec, grid: Grid) -> float:
    """Crude tolerance L*h for grid tests: max objective gradient norm on the
    feasible lattice times the largest spacing."""
    pts = grid.feasible
    if pts.shape[0] == 0:
        return 0.0
    worst = 0.0
    for p, q in spec.objectives:
        pv = p.eval_many(pts)
        qv = q.eval_many(pts)
        grads = np.empty((spec.n, pts.shape[0]))
        for j in range(spec.n):
            dp = p.partial(j).eval_many(pts)
            dq = q.partial(j).eval_many(pts)
            grads[j] = (dp * qv - pv * dq) / (qv * qv)
        worst = max(worst, float(np.max(np.linalg.norm(grads, axis=0))))
    return worst * float(np.max(grid.spacing))
