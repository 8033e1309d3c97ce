"""Queries on the approximating region A(delta, k) = {x feasible : psi_k <= delta}.

The grid-backed containment checks against the oracle and the image
sampling for plots and CSV export test psi_k <= delta on the grid's
feasible points alone, which the grid has already screened.  Also
constrained minimization over the region: a verified SOS lower bound from
:func:`objective_bound`, with the candidate minimizer read from the
degree-one pseudo-moments of that program's dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import GeneratorSet, objective_bound, order_floor
from .oracle import Grid, grid_volume, lipschitz_slack, weakly_eps_member_many
from .poly import Polynomial
from .problem import ProblemSpec

CANDIDATE_TOL = 1e-6  # generator violation allowed at a feasible candidate
CSV_CHUNK = 2**14  # rows formatted and written at a time by write_csv


@dataclass
class RegionQuery:
    """A problem together with one computed over-estimator and a threshold."""

    spec: ProblemSpec
    psi: Polynomial
    delta: float
    order: int
    mode: str


def _grid_region_mask(query: RegionQuery, grid: Grid) -> np.ndarray:
    """Membership in A(delta, k) of the points of ``grid.feasible``: feasible
    by construction, so psi_k <= delta alone decides.  ``grid`` must be built
    for ``query.spec`` (else ValueError)."""
    if grid.spec is not query.spec:
        raise ValueError("grid was built for another problem than query.spec")
    return query.psi.eval_many(grid.feasible) <= query.delta


@dataclass
class ImageSample:
    """Grid points mapped through the objectives, with membership flags.

    CSV column order is fixed: x1..xn, f1..fm, in_omega, in_A.
    """

    points: np.ndarray
    values: np.ndarray  # (N, m)
    in_omega: np.ndarray
    in_region: np.ndarray

    def write_csv(self, fh) -> None:
        """Write the CSV to the text stream ``fh``, CSV_CHUNK rows at a time."""
        n = self.points.shape[1]
        m = self.values.shape[1]
        header = (
            [f"x{i + 1}" for i in range(n)]
            + [f"f{i + 1}" for i in range(m)]
            + ["in_omega", "in_A"]
        )
        fh.write(",".join(header) + "\n")
        fmt = ",".join(["%.17g"] * (n + m) + ["%d", "%d"]) + "\n"
        for s in range(0, len(self.points), CSV_CHUNK):
            part = slice(s, s + CSV_CHUNK)
            table = np.column_stack([self.points[part], self.values[part],
                                     self.in_omega[part], self.in_region[part]])
            fh.write("".join([fmt % tuple(row) for row in table.tolist()]))


def sample_image(query: RegionQuery, grid: Grid) -> ImageSample:
    """Evaluate objectives and membership over the whole lattice.

    ``grid`` must be built for ``query.spec`` (else ValueError): the region
    mask runs on its feasible points only and is scattered through
    ``grid.feasible_mask``.
    """
    region = _grid_region_mask(query, grid)
    pts = grid.points
    values = query.spec.objective_values(pts).T
    in_region = np.zeros(len(pts), dtype=bool)
    in_region[grid.feasible_mask] = region
    return ImageSample(points=pts, values=values, in_omega=grid.feasible_mask,
                       in_region=in_region)


@dataclass
class ContainmentReport:
    violations: int
    region_count: int
    reference_count: int
    region_volume: float
    reference_volume: float
    ratio: float
    slack: float


def containment_report(query: RegionQuery, grid: Grid) -> ContainmentReport:
    """Check A(delta, k) against the grid estimate of the relaxed efficient set.

    Every region point must pass the oracle membership test at eps = delta
    plus the grid's Lipschitz slack, at least 1e-6, which covers certificate
    tolerance and grid spacing; the reference set uses eps = delta exactly.
    ``grid`` must be built for ``query.spec`` (else ValueError), so both tests
    read the objective values of its feasible points from ``grid.table`` and
    screen no feasibility again.
    """
    region_mask = _grid_region_mask(query, grid)
    slack = max(lipschitz_slack(grid), 1e-6)
    feas, table = grid.feasible, grid.table
    member = weakly_eps_member_many(feas, query.delta + slack, grid, values=table,
                                    columns=np.flatnonzero(region_mask))
    violations = int(np.count_nonzero(~member))
    reference_mask = weakly_eps_member_many(feas, query.delta, grid, values=table)
    region_volume = grid_volume(region_mask, grid)
    reference_volume = grid_volume(reference_mask, grid)
    ratio = region_volume / reference_volume if reference_volume > 0 else 0.0
    return ContainmentReport(
        violations=violations,
        region_count=int(np.count_nonzero(region_mask)),
        reference_count=int(np.count_nonzero(reference_mask)),
        region_volume=region_volume,
        reference_volume=reference_volume,
        ratio=ratio,
        slack=slack,
    )


@dataclass
class MinimizationResult:
    bound: float
    candidate: np.ndarray
    candidate_value: float
    candidate_feasible: bool
    gap: float
    order: int
    iterations: int


def minimize_over(
    objective: Polynomial,
    gens: GeneratorSet,
    order: int | None = None,
    tol: float = 1e-8,
) -> MinimizationResult:
    """Certified lower bound on  min objective(x)  over  {x : h_j(x) >= 0}.

    The bound is the verified order-``order`` SOS bound of
    :func:`objective_bound`; the candidate minimizer is the vector of
    degree-one pseudo-moments read from that program's dual (exact when the
    moment relaxation has a representing measure).  ``order`` defaults to
    :func:`order_floor`; below that floor OrderTooLowError is raised.
    """
    n = gens.dim
    if order is None:
        order = order_floor([objective], gens)

    one = Polynomial.constant(n, 1.0)
    lo = objective_bound(objective, one, gens, order, "lower", tol=tol,
                         what="minimization certificate")
    candidate = np.array(
        [lo.moments[tuple(int(j == i) for j in range(n))] for i in range(n)]
    )
    cand_value = float(objective(candidate))
    feasible = all(g(candidate) >= -CANDIDATE_TOL for _, g in gens.generators)
    return MinimizationResult(
        bound=lo.value,
        candidate=candidate,
        candidate_value=cand_value,
        candidate_feasible=feasible,
        gap=cand_value - lo.value,
        order=order,
        iterations=lo.solver_iterations,
    )
