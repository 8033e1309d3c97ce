"""Command line interface.

Commands operate on a problem description in JSON:

    {"n": 2,
     "objectives": [{"p": TERMS, "q": TERMS}],   # q optional (defaults to 1)
     "constraints": [TERMS, ...],
     "box": [[lo, hi], ...]}

where TERMS is a list of [coefficient, [a_1, ..., a_n]] entries.  All
computation happens on the box rescaled to [-1,1]^n; every reported point or
polynomial is mapped back, so outputs are always in the user's coordinates.

Exit codes: 0 success, 2 malformed input, 3 assumption violated,
4 solver failure, 5 certificate verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, oracle
from .achievement import ApproximationResult, approximate_psi
from .certificates import GeneratorSet, OrderTooLowError, SolverError
from .poly import Polynomial
from .problem import (
    AssumptionError,
    ProblemFormatError,
    ProblemSpec,
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


class VerificationError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    problem_path: str
    k: int | None = None
    mode: str = "dense"
    delta: float | None = None
    grid: int = 201
    tol: float = 1e-8
    order: int | None = None
    objective: str | None = None
    out: str | None = None
    certificate: bool = False


def _term_list(poly: Polynomial) -> list:
    return [[float(c), [int(a) for a in alpha]] for c, alpha in poly.to_terms()]


def _poly_to_original(poly: Polynomial, amap) -> Polynomial:
    shift = np.array([-c / h for c, h in zip(amap.center, amap.halfwidth)])
    scale = np.array([1.0 / h for h in amap.halfwidth])
    return poly.compose_affine(shift, scale)


def _approx_payload(result: ApproximationResult, amap) -> dict:
    psi_original = _poly_to_original(result.psi, amap).cleanup(0.0)
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
            "passed": bool(result.report.passed),
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
                "basis": [[int(a) for a in alpha] for alpha in blk.basis.exponents],
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


def _require_verified(result: ApproximationResult):
    if not result.verified:
        raise VerificationError(
            f"order-{result.order} certificate failed verification "
            f"(mismatch {result.report.max_mismatch:.3e}, "
            f"min eigenvalue {result.report.min_eigenvalue:.3e})"
        )


def run(config: RunConfig) -> dict | str:
    """Execute one command and return the payload (dict for JSON, str for CSV)."""
    spec = load(config.problem_path)
    check_assumptions(spec)
    scaled, amap = rescale(spec)

    if config.command == "bounds":
        from .certificates import compute_bounds

        gens = omega_generators(scaled)
        bounds = compute_bounds(
            scaled.objectives, gens, k=config.k, tol=config.tol
        )
        rows = []
        for i in range(len(bounds.lower)):
            rows.append(
                {
                    "index": i + 1,
                    "lower": float(bounds.lower[i]),
                    "upper": float(bounds.upper[i]),
                    "order": int(bounds.orders[i]),
                    "lower_verified": bool(bounds.lower_details[i].report.passed),
                    "upper_verified": bool(bounds.upper_details[i].report.passed),
                }
            )
        return {"command": "bounds", "objectives": rows}

    if config.k is None:
        raise ProblemFormatError(f"command {config.command!r} requires --k")

    result = approximate_psi(scaled, config.k, config.mode, tol=config.tol)
    _require_verified(result)

    if config.command == "approx":
        payload = {"command": "approx", **_approx_payload(result, amap)}
        if config.certificate:
            payload["certificate"] = _certificate_payload(result)
        return payload

    if config.delta is None:
        raise ProblemFormatError(f"command {config.command!r} requires --delta")
    query = analysis.RegionQuery(
        spec=scaled,
        psi=result.psi,
        delta=config.delta,
        order=config.k,
        mode=config.mode,
    )

    if config.command == "sample":
        grid = oracle.Grid.for_problem(scaled, config.grid)
        sample = analysis.sample_image(query, grid)
        sample.points = amap.to_original(sample.points)
        return sample.to_csv()

    if config.command == "check":
        grid = oracle.Grid.for_problem(scaled, config.grid)
        report = analysis.containment_report(query, grid)
        vf = amap.volume_factor
        return {
            "command": "check",
            "order": config.k,
            "mode": config.mode,
            "delta": config.delta,
            "grid": config.grid,
            "violations": int(report.violations),
            "region_count": int(report.region_count),
            "reference_count": int(report.reference_count),
            "region_volume": float(report.region_volume * vf),
            "reference_volume": float(report.reference_volume * vf),
            "ratio": float(report.ratio),
            "slack": float(report.slack),
        }

    if config.command == "minimize":
        if config.objective is None:
            raise ProblemFormatError("command 'minimize' requires --objective")
        objective = _parse_objective(config.objective, spec.n)
        shift = np.array(amap.center)
        scale = np.array(amap.halfwidth)
        obj_scaled = objective.compose_affine(shift, scale)
        gens = omega_generators(scaled)
        region = Polynomial.constant(scaled.n, config.delta) - result.psi
        gens = GeneratorSet(
            scaled.n, gens.generators + [("region", region)]
        )
        res = analysis.minimize_over(
            obj_scaled, gens, order=config.order, tol=config.tol
        )
        candidate = amap.to_original(res.candidate[None, :])[0]
        return {
            "command": "minimize",
            "k": config.k,
            "mode": config.mode,
            "delta": config.delta,
            "order": int(res.order),
            "bound": float(res.bound),
            "candidate": [float(v) for v in candidate],
            "candidate_value": float(res.candidate_value),
            "candidate_feasible": bool(res.candidate_feasible),
            "gap": float(res.gap),
            "iterations": int(res.iterations),
        }

    raise ProblemFormatError(f"unknown command {config.command!r}")


def _emit(payload: dict | str, out: str | None):
    if isinstance(payload, dict):
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = payload
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effapprox",
        description="Approximate weakly efficient sets of vector rational "
        "optimization problems by polynomial sublevel sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_k=True):
        sp.add_argument("problem", help="path to the problem JSON file")
        if needs_k:
            sp.add_argument("--k", type=int, required=False, default=None,
                            help="relaxation order")
        sp.add_argument("--mode", choices=("dense", "sparse"), default="dense")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="interior-point tolerance")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("bounds", help="certified objective ranges")
    sp.add_argument("problem")
    sp.add_argument("--k", type=int, default=None,
                    help="certificate order (default: degree-based)")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("approx", help="compute the order-k over-estimator")
    common(sp)
    sp.add_argument("--certificate", action="store_true",
                    help="include the Gram certificate in the output")

    sp = sub.add_parser("sample", help="CSV of grid points mapped through "
                        "the objectives with region flags")
    common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--grid", type=int, default=201, help="points per axis")

    sp = sub.add_parser("check", help="containment and volume report for "
                        "the region against the grid oracle")
    common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--grid", type=int, default=201)

    sp = sub.add_parser("minimize", help="minimize a polynomial over the region")
    common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--objective", required=True,
                    help="term list JSON (inline or a file path)")
    sp.add_argument("--order", type=int, default=None,
                    help="moment relaxation order (default: degree floor)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        problem_path=args.problem,
        k=getattr(args, "k", None),
        mode=getattr(args, "mode", "dense"),
        delta=getattr(args, "delta", None),
        grid=getattr(args, "grid", 201),
        tol=getattr(args, "tol", 1e-8),
        order=getattr(args, "order", None),
        objective=getattr(args, "objective", None),
        out=getattr(args, "out", None),
        certificate=getattr(args, "certificate", False),
    )
    try:
        payload = run(config)
    except (ProblemFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except AssumptionError as exc:
        print(f"assumption error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (SolverError, OrderTooLowError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _emit(payload, config.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
