"""Grid oracle for the achievement function and membership tests.

Everything here is independent of the certificate machinery: values come from
a lattice over the box, so they are lower bounds on suprema and one-sided
membership witnesses.  Used for cross-checking and for volume estimates.
A :class:`Grid` is built for one problem and reads its objective table and
front once.  The queries take that grid and an (N, n) batch of points,
SCREEN_PIECE at a time: :func:`weakly_eps_member_many` is the membership test
the region checks run, and :func:`lipschitz_slack` their grid tolerance.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem import MAX_LATTICE, SCREEN_PIECE, ProblemSpec

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
    """Uniform lattice over a box for one problem, with its feasible sublattice."""

    points: np.ndarray
    feasible: np.ndarray
    spacing: np.ndarray
    feasible_mask: np.ndarray
    spec: ProblemSpec

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
            spec=spec,
        )

    @classmethod
    def for_problem(cls, spec: ProblemSpec, resolution: int) -> "Grid":
        return cls.on_box(spec.box, resolution, spec=spec)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def table(self) -> np.ndarray:
        """Objective values on the feasible sublattice, shape (m, N_feasible)."""
        return self.spec.objective_values(self.feasible)

    @cached_property
    def front(self) -> "FrontChunks":
        """The nondominated finite columns of ``table``, C-contiguous, in
        lexicographic order, cut into chunks; its ``rest`` holds the columns
        with an inf or nan, where subtraction is not monotone."""
        F = self.table
        finite = np.isfinite(F).all(axis=0)
        if finite.all():  # the usual case: sweep the table itself, not a copy
            swept = _nondominated(F)
        else:
            swept = np.flatnonzero(finite)[_nondominated(F[:, finite])]
        # C-ordered: F[:, index] is not, which slows the row-wise comparisons
        return FrontChunks.build(np.ascontiguousarray(F[:, swept]), F[:, ~finite])


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


def weakly_eps_member_many(
    points: np.ndarray, eps, grid: Grid, values: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Grid test for membership in the epsilon-relaxed weakly efficient set.

    A point fails when it is infeasible or some feasible lattice point
    improves every objective by more than the corresponding eps.  Because only
    lattice competitors are examined, failure is a sound witness while success
    is up to grid resolution.  Points drawn from ``grid.feasible`` pass their
    columns of ``grid.table`` as ``values`` (m, N): they are then neither
    screened for feasibility nor evaluated again.  ``columns``, integer
    indices into ``points`` and the columns of ``values``, queries those
    points alone, in that order, with no copy of the rest.  Each point is
    answered on its own, SCREEN_PIECE points at a time.
    """
    spec = grid.spec
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (spec.m,))[:, None]
    points = np.asarray(points, dtype=float)
    out = np.empty(len(points) if columns is None else len(columns), dtype=bool)
    for s in range(0, len(out), SCREEN_PIECE):
        part = slice(s, s + SCREEN_PIECE)
        at = part if columns is None else columns[part]
        if values is None:
            fx = spec.objective_values(points[at])
            ok = spec.feasibility_mask(points[at])
        else:
            fx = values[:, at]
            ok = np.ones(fx.shape[1], dtype=bool)
        # dominated: exists y with f(y) < f(x) - eps in every objective; a nan
        # threshold compares false against every y, so it never is
        A = fx - eps
        todo = np.flatnonzero(ok & ~np.isnan(A).any(axis=0))
        ok[todo] = ~grid.front.dominated(A[:, todo])
        out[part] = ok
    return out


def grid_volume(mask: np.ndarray, grid: Grid) -> float:
    """Counting-measure volume estimate: satisfied points times cell volume."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError("grid_volume expects a boolean mask")
    return float(np.count_nonzero(mask)) * grid.cell_volume


def lipschitz_slack(grid: Grid) -> float:
    """Crude tolerance L*h for grid tests: max objective gradient norm on the
    feasible lattice (SCREEN_PIECE points at a time) times the largest spacing."""
    pts = grid.feasible
    worst = 0.0
    for p, q in grid.spec.objectives:
        partials = [(p.partial(j), q.partial(j)) for j in range(grid.spec.n)]
        norms = np.empty(len(pts))
        for s in range(0, len(pts), SCREEN_PIECE):
            x = pts[s : s + SCREEN_PIECE]
            pv, qv = p.eval_many(x), q.eval_many(x)
            grads = [(dp.eval_many(x) * qv - pv * dq.eval_many(x)) / (qv * qv)
                     for dp, dq in partials]
            norms[s : s + len(x)] = np.linalg.norm(grads, axis=0)
        worst = max(worst, float(np.max(norms, initial=0.0)))
    return worst * float(np.max(grid.spacing))
