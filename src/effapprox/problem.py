"""Problem descriptions: rational objectives over a basic closed feasible set.

The canonical instance is

    minimize (p_1/q_1, ..., p_m/q_m)  over  {x : g_j(x) >= 0} inside a box,

with every q_i positive on the feasible set.  Internally all computation runs
on the box rescaled to [-1, 1]^n; :func:`rescale` produces that form together
with the affine map back to the user's coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .certificates import GeneratorSet
from .poly import Polynomial

FEAS_TOL = 1e-12  # constraint violation still counted as feasible
BOX_TOL = 1e-12  # deviation of a box bound from the unit box
SCREEN_GRID = 51  # lattice points per axis of the assumption screen, at most
# points of any lattice: the screen's and the oracle's grids; at 1001^2 the disk
# problem at k=3 peaks near 158 MB in `sample` and 200 MB in `check`
MAX_LATTICE = 1 << 20
SCREEN_PIECE = 1 << 18  # lattice points screened at once: about 20 MB at n=5


class ProblemFormatError(Exception):
    """The problem description failed structural validation."""


class AssumptionError(Exception):
    """A standing assumption (nonempty feasible set, positive denominators)
    could not be confirmed."""


@dataclass(eq=False)
class ProblemSpec:
    """A vector optimization instance.

    objectives: list of (p, q) pairs of Polynomials, meaning p/q
    constraints: polynomial inequalities g >= 0
    box: per-variable (lo, hi) bounds defining the ambient box
    """

    n: int
    objectives: list
    constraints: list
    box: list

    @property
    def m(self) -> int:
        return len(self.objectives)

    def is_unit_box(self) -> bool:
        return all(
            abs(lo + 1.0) <= BOX_TOL and abs(hi - 1.0) <= BOX_TOL
            for lo, hi in self.box
        )

    def feasibility_mask(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points satisfying every constraint up to FEAS_TOL."""
        points = np.asarray(points, dtype=float)
        mask = np.ones(points.shape[0], dtype=bool)
        for g in self.constraints:
            mask &= g.eval_many(points) >= -FEAS_TOL
        return mask

    def objective_values(self, points: np.ndarray) -> np.ndarray:
        """Objective values at an (N, n) array, returned with shape (m, N)."""
        points = np.asarray(points, dtype=float)
        out = np.empty((self.m, points.shape[0]))
        for i, (p, q) in enumerate(self.objectives):
            out[i] = p.eval_many(points) / q.eval_many(points)
        return out


def _is_finite_number(v) -> bool:
    # json accepts NaN, Infinity and integers too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def parse_terms(raw, n: int, where: str) -> Polynomial:
    """Validate a TERMS list ``[[coefficient, [a_1, ..., a_n]], ...]``."""
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError(f"{where}: expected a nonempty list of terms")
    pairs = []
    for t, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[1], list)
        ):
            raise ProblemFormatError(
                f"{where}, term {t}: expected [coefficient, [exponents]]"
            )
        coef, expo = item
        if not _is_finite_number(coef):
            raise ProblemFormatError(
                f"{where}, term {t}: coefficient must be a finite number"
            )
        if len(expo) != n:
            raise ProblemFormatError(
                f"{where}, term {t}: exponent vector has length {len(expo)}, "
                f"expected {n}"
            )
        if any(not isinstance(a, int) or isinstance(a, bool) or a < 0 for a in expo):
            raise ProblemFormatError(
                f"{where}, term {t}: exponents must be nonnegative integers"
            )
        pairs.append([coef, expo])
    return Polynomial.from_terms(n, pairs)


def loads(text: str) -> ProblemSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return from_dict(data)


def load(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def from_dict(data) -> ProblemSpec:
    if not isinstance(data, dict):
        raise ProblemFormatError("top level must be a JSON object")
    unknown = set(data) - {"n", "objectives", "constraints", "box"}
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProblemFormatError("'n' must be a positive integer")

    raw_obj = data.get("objectives")
    if not isinstance(raw_obj, list) or not raw_obj:
        raise ProblemFormatError("'objectives' must be a nonempty list")
    objectives = []
    for i, item in enumerate(raw_obj):
        if not isinstance(item, dict) or "p" not in item:
            raise ProblemFormatError(f"objective {i}: expected an object with 'p'")
        extra = set(item) - {"p", "q"}
        if extra:
            raise ProblemFormatError(f"objective {i}: unknown fields {sorted(extra)}")
        p = parse_terms(item["p"], n, f"objective {i}, numerator")
        if "q" in item:
            q = parse_terms(item["q"], n, f"objective {i}, denominator")
        else:
            q = Polynomial.constant(n, 1.0)
        objectives.append((p, q))

    raw_con = data.get("constraints", [])
    if not isinstance(raw_con, list):
        raise ProblemFormatError("'constraints' must be a list")
    constraints = [
        parse_terms(item, n, f"constraint {j}") for j, item in enumerate(raw_con)
    ]

    raw_box = data.get("box")
    if not isinstance(raw_box, list) or len(raw_box) != n:
        raise ProblemFormatError(f"'box' must list {n} [lo, hi] pairs")
    box = []
    for j, pair in enumerate(raw_box):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_finite_number(v) for v in pair)
        ):
            raise ProblemFormatError(f"box entry {j}: expected finite [lo, hi]")
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise ProblemFormatError(f"box entry {j}: need lo < hi, got [{lo}, {hi}]")
        box.append((lo, hi))

    return ProblemSpec(n=n, objectives=objectives, constraints=constraints, box=box)


def check_assumptions(spec: ProblemSpec):
    """Coarse grid screen for a nonempty feasible set and positive denominators.

    This is a heuristic safety net, not a proof: it evaluates on a lattice
    of at most MAX_LATTICE points over the box, SCREEN_PIECE points at once.
    Its points per axis are the largest r <= SCREEN_GRID with r^n <=
    MAX_LATTICE: 51 up to n = 3, 32 at n = 4, 16 at n = 5.
    """
    r = SCREEN_GRID
    while r > 1 and r**spec.n > MAX_LATTICE:  # in integers
        r -= 1
    with np.errstate(over="ignore", invalid="ignore"):  # a huge box: inf, NaN points
        axes = [np.linspace(lo, hi, r) for lo, hi in spec.box]
    total, feasible = r**spec.n, False
    lowest = [(np.inf, None)] * spec.m  # (value, point) of each denominator
    for start in range(0, total, SCREEN_PIECE):
        index = np.arange(start, min(start + SCREEN_PIECE, total))
        pts = np.stack([axis[i] for axis, i in
                        zip(axes, np.unravel_index(index, (r,) * spec.n))], axis=-1)
        feas = pts[spec.feasibility_mask(pts)]
        feasible |= len(feas) > 0
        for i, (_, q) in enumerate(spec.objectives):
            # argmin over the pieces so far: NaN wins, a tie keeps the earlier
            qv = np.append(lowest[i][0], q.eval_many(feas))
            j = int(np.argmin(qv))
            if j:
                lowest[i] = (qv[j], feas[j - 1])
    if not feasible:
        raise AssumptionError(
            f"no feasible point found on a {r}^{spec.n} grid over the box"
        )
    for i, (value, point) in enumerate(lowest):
        if value <= 1e-12:
            raise AssumptionError(
                f"denominator of objective {i + 1} is not positive near "
                f"{point.tolist()} (value {value:.3e})"
            )


@dataclass(frozen=True)
class AffineMap:
    """Coordinate change  original = center + halfwidth * scaled."""

    center: tuple
    halfwidth: tuple

    def to_original(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts * np.asarray(self.halfwidth) + np.asarray(self.center)

    @property
    def volume_factor(self) -> float:
        return float(np.prod(self.halfwidth))

    def poly_to_scaled(self, poly: Polynomial, where: str) -> Polynomial:
        """``poly`` of the user's coordinates as a polynomial of the scaled
        ones.  Coefficients that overflow are a ProblemFormatError naming
        ``where``."""
        return _composed(poly, self.center, self.halfwidth, f"{where}: coefficients "
                         "are not finite on the box rescaled to [-1, 1]^n")

    def poly_to_original(self, poly: Polynomial) -> Polynomial:
        """``poly`` (psi_k) of the scaled coordinates as a polynomial of the
        user's.  Coefficients that overflow, or a halfwidth that underflowed to
        0, are a ProblemFormatError naming psi."""
        center, halfwidth = np.array(self.center), np.array(self.halfwidth)
        with np.errstate(all="ignore"):  # 1/0 gives inf, reported below
            shift, scale = -center / halfwidth, 1.0 / halfwidth
        return _composed(poly, shift, scale,
                         "psi: coefficients are not finite in the box's own coordinates")


def _composed(poly: Polynomial, shift, scale, message: str) -> Polynomial:
    """``poly.compose_affine(shift, scale)``, raising ProblemFormatError with
    ``message`` when a coefficient overflows."""
    with np.errstate(all="ignore"):  # an overflow is reported below
        out = poly.compose_affine(shift, scale)
    if not all(map(math.isfinite, out.terms.values())):
        raise ProblemFormatError(message)
    return out


def rescale(spec: ProblemSpec):
    """Map the box onto [-1, 1]^n.  Returns (scaled spec, AffineMap back).
    A polynomial whose rescaled coefficients overflow is a ProblemFormatError."""
    amap = AffineMap(center=tuple((lo + hi) / 2.0 for lo, hi in spec.box),
                     halfwidth=tuple((hi - lo) / 2.0 for lo, hi in spec.box))
    compose = amap.poly_to_scaled
    objectives = [(compose(p, f"objective {i}, numerator"),
                   compose(q, f"objective {i}, denominator"))
                  for i, (p, q) in enumerate(spec.objectives)]
    constraints = [compose(g, f"constraint {j}") for j, g in enumerate(spec.constraints)]
    scaled = ProblemSpec(
        n=spec.n,
        objectives=objectives,
        constraints=constraints,
        box=[(-1.0, 1.0)] * spec.n,
    )
    return scaled, amap


def omega_generators(spec: ProblemSpec) -> GeneratorSet:
    """Constraint polynomials plus the box inequalities 1 - x_j^2.

    Only meaningful for a spec already rescaled to the unit box; the box rows
    make the generator set Archimedean.
    """
    if not spec.is_unit_box():
        raise ValueError("omega_generators expects the problem rescaled to [-1,1]^n")
    gens = [(f"g{j + 1}", g) for j, g in enumerate(spec.constraints)]
    one = Polynomial.constant(spec.n, 1.0)
    for j in range(spec.n):
        xj = Polynomial.variable(spec.n, j)
        gens.append((f"box{j + 1}", one - xj * xj))
    return GeneratorSet(spec.n, gens)
