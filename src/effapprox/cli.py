"""Command line interface.

Commands operate on a problem description in JSON:

    {"n": 2,
     "objectives": [{"p": TERMS, "q": TERMS}],   # q optional (defaults to 1)
     "constraints": [TERMS, ...],
     "box": [[lo, hi], ...]}

where TERMS is a list of [coefficient, [a_1, ..., a_n]] entries.  All
computation happens on the box rescaled to [-1,1]^n; every reported point or
polynomial is mapped back, so outputs are always in the user's coordinates.

Exit codes: 0 success, 2 malformed input, unreadable file or out of memory,
3 assumption violated, 4 solver failure or order too low, 5 failed
re-verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, oracle
from .achievement import ApproximationResult, approximate_psi
from .certificates import (
    GeneratorSet,
    OrderTooLowError,
    SolverError,
    VerificationError,
    compute_bounds,
)
from .poly import Polynomial
from .problem import (
    AssumptionError,
    ProblemFormatError,
    check_assumptions,
    load,
    omega_generators,
    parse_terms,
    rescale,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_ASSUMPTION = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5


def _term_list(poly: Polynomial) -> list:
    return [[float(c), [int(a) for a in alpha]] for alpha, c in poly.sorted_terms()]


def _approx_payload(result: ApproximationResult, amap) -> dict:
    psi_original = amap.poly_to_original(result.psi)
    return {
        "order": result.order,
        "mode": result.mode,
        "rho": float(result.rho),
        "bounds": {
            "lower": [float(v) for v in result.bounds.lower],
            "upper": [float(v) for v in result.bounds.upper],
            "orders": [int(v) for v in result.bounds.orders],
        },
        "psi": _term_list(psi_original),
        "verification": {
            "max_mismatch": float(result.report.max_mismatch),
            "min_eigenvalue": float(result.report.min_eigenvalue),
            "passed": True,  # approximate_psi raised on a failure
        },
        "solver": {
            "status": result.solver_status.value,
            "iterations": int(result.iterations),
            "primal_feas": float(result.solver_residuals.primal_feas),
            "dual_feas": float(result.solver_residuals.dual_feas),
            "gap": float(result.solver_residuals.gap),
        },
    }


def _certificate_payload(result: ApproximationResult) -> list:
    blocks = []
    for blk in result.certificate.blocks:
        blocks.append(
            {
                "label": blk.label,
                "generator": _term_list(blk.generator),
                "basis": [[int(a) for a in alpha] for alpha in blk.basis],
                "matrix": [[float(v) for v in row] for row in blk.matrix],
            }
        )
    return blocks


def _parse_objective(text: str, n: int) -> Polynomial:
    raw = text.strip()
    if not raw.startswith("["):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        terms = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"objective: invalid JSON ({exc})") from exc
    return parse_terms(terms, n, "objective")


def run(args: argparse.Namespace) -> dict | analysis.ImageSample:
    """Execute one parsed command; return a dict (JSON) or an ImageSample (CSV)."""
    spec = load(args.problem)
    check_assumptions(spec)
    scaled, amap = rescale(spec)
    if args.command in ("sample", "check"):  # a lattice too large exits 2 here
        grid = oracle.Grid.for_problem(scaled, args.grid)

    if args.command == "bounds":
        gens = omega_generators(scaled)
        bounds = compute_bounds(scaled.objectives, gens, k=args.k, tol=args.tol)
        rows = []
        for i in range(len(bounds.lower)):
            rows.append(
                {
                    "index": i + 1,
                    "lower": float(bounds.lower[i]),
                    "upper": float(bounds.upper[i]),
                    "order": int(bounds.orders[i]),
                    # compute_bounds raises on a failed certificate
                    "lower_verified": True,
                    "upper_verified": True,
                }
            )
        return {"command": "bounds", "objectives": rows}

    if args.k is None:
        raise ProblemFormatError(f"command {args.command!r} requires --k")
    if args.command == "minimize":
        objective = amap.poly_to_scaled(_parse_objective(args.objective, spec.n),
                                        "objective")

    result = approximate_psi(scaled, args.k, args.mode, tol=args.tol)

    if args.command == "approx":
        payload = {"command": "approx", **_approx_payload(result, amap)}
        if args.certificate:
            payload["certificate"] = _certificate_payload(result)
        return payload

    query = analysis.RegionQuery(
        spec=scaled,
        psi=result.psi,
        delta=args.delta,
        order=args.k,
        mode=args.mode,
    )

    if args.command == "sample":
        sample = analysis.sample_image(query, grid)
        sample.points = amap.to_original(sample.points)
        return sample

    if args.command == "check":
        report = analysis.containment_report(query, grid)
        vf = amap.volume_factor
        return {
            "command": "check",
            "order": args.k,
            "mode": args.mode,
            "delta": args.delta,
            "grid": args.grid,
            "violations": int(report.violations),
            "region_count": int(report.region_count),
            "reference_count": int(report.reference_count),
            "region_volume": float(report.region_volume * vf),
            "reference_volume": float(report.reference_volume * vf),
            "ratio": float(report.ratio),
            "slack": float(report.slack),
        }

    gens = omega_generators(scaled)
    region = Polynomial.constant(scaled.n, args.delta) - result.psi
    gens = GeneratorSet(scaled.n, gens.generators + [("region", region)])
    res = analysis.minimize_over(objective, gens, order=args.order, tol=args.tol)
    candidate = amap.to_original(res.candidate[None, :])[0]
    return {
        "command": "minimize",
        "k": args.k,
        "mode": args.mode,
        "delta": args.delta,
        "order": int(res.order),
        "bound": float(res.bound),
        "candidate": [float(v) for v in candidate],
        "candidate_value": float(res.candidate_value),
        "candidate_feasible": bool(res.candidate_feasible),
        "gap": float(res.gap),
        "iterations": int(res.iterations),
    }


def _emit(payload: dict | analysis.ImageSample, out: str | None):
    def write(fh):
        if isinstance(payload, dict):
            fh.write(json.dumps(payload, indent=2) + "\n")
        else:  # streamed, so the whole CSV text is never held at once
            payload.write_csv(fh)

    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _checked(name: str, convert, ok, what: str):
    """An argparse type that converts the text and rejects a value failing
    ``ok``; argparse names ``name`` when ``convert`` raises ValueError."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    check.__name__ = name
    return check


_finite = _checked("_finite", float, math.isfinite, "a finite number")
_tolerance = _checked("_tolerance", _finite, lambda v: v > 0, "a positive number")
_grid = _checked("_grid", int, lambda v: v >= 2, "at least 2 points")
_order = _checked("_order", int, lambda v: v >= 1, "an order of at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effapprox",
        description="Approximate weakly efficient sets of vector rational "
        "optimization problems by polynomial sublevel sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, mode=True):
        sp.add_argument("problem", help="path to the problem JSON file")
        sp.add_argument("--k", type=_order, help="relaxation order (bounds: "
                        "certificate order, default degree-based)")
        if mode:
            sp.add_argument("--mode", choices=("dense", "sparse"), default="dense")
        sp.add_argument("--tol", type=_tolerance, default=1e-8,
                        help="interior-point tolerance")
        sp.add_argument("--out", help="output path (default stdout)")

    def region(name, text):
        sp = sub.add_parser(name, help=text)
        common(sp)
        sp.add_argument("--delta", type=_finite, required=True,
                        help="threshold of the region A(delta, k)")
        return sp

    sp = sub.add_parser("bounds", help="certified objective ranges")
    common(sp, mode=False)

    sp = sub.add_parser("approx", help="compute the order-k over-estimator")
    common(sp)
    sp.add_argument("--certificate", action="store_true",
                    help="include the Gram certificate in the output")

    for name, text in (
        ("sample", "CSV of grid points mapped through the objectives with "
         "region flags"),
        ("check", "containment and volume report for the region against the "
         "grid oracle"),
    ):
        region(name, text).add_argument("--grid", type=_grid, default=201,
                                        help="points per axis")

    sp = region("minimize", "minimize a polynomial over the region")
    sp.add_argument("--objective", required=True,
                    help="term list JSON (inline or a file path)")
    sp.add_argument("--order", type=_order,
                    help="moment relaxation order (default: the order floor)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # fail before any solve; the file is created only once there is a result
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise FileNotFoundError(f"output directory does not exist: {args.out}")
        _emit(run(args), args.out)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except MemoryError:
        order = "its default order" if args.k is None else f"order {args.k}"
        print(f"error: {args.command} ran out of memory at {order}; try a lower --k",
              file=sys.stderr)
        return EXIT_FORMAT
    except AssumptionError as exc:
        print(f"assumption error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (SolverError, OrderTooLowError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
