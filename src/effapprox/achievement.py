"""Polynomial over-estimators of the achievement function.

For a vector problem with objectives f_i = p_i/q_i on a feasible set Omega
inside the unit box, the achievement function

    psi(x) = sup_{y in Omega} min_i (f_i(x) - f_i(y))

vanishes exactly on the weakly efficient points.  Clearing denominators turns
"phi(x) - z >= 0 on the graph set K" into polynomial constraints on a joint
ring in (x, y, z); restricting to order-k certificates and minimizing the
integral of phi over the box (its coefficients against :func:`box_moments`)
yields a decreasing family of polynomial over-estimators psi_k whose sublevel
sets approximate the weakly efficient set from inside an epsilon-relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    CertificateReport,
    GeneratorSet,
    GramCertificate,
    MembershipSystem,
    ParamTarget,
    assemble_membership,
    check_program_size,
    compute_bounds,
    verify_certificate,
    Bounds,
)
from .poly import Polynomial, monomials_up_to
from .problem import ProblemSpec, omega_generators
from .sdp import SdpResiduals, SdpStatus


def box_moments(coeff_basis: list) -> np.ndarray:
    """Monomial averages over the unit box under the scaled Lebesgue measure
    (total mass 1 per axis), one per basis exponent: odd exponents vanish,
    even give prod 1/(a_i+1)."""
    out = np.zeros(len(coeff_basis))
    for i, alpha in enumerate(coeff_basis):
        if not any(a % 2 for a in alpha):
            v = 1.0
            for a in alpha:
                v /= a + 1
            out[i] = v
    return out


def build_joint(spec: ProblemSpec, bounds: Bounds, mode: str = "dense") -> GeneratorSet:
    """Generators of the graph set K in the joint ring (x_1..x_n, y_1..y_n, z)
    of dimension 2n + 1, z last.

    Groups: the cleared-denominator objective comparisons h1, feasibility of y
    including its box rows (h2), the x box rows (h3), and the interval
    constraint on z (h4).  The generators are the same in both modes; sparse
    mode asks for term-sparse Gram blocks.
    """
    if mode not in ("dense", "sparse"):
        raise ValueError(f"mode must be 'dense' or 'sparse', got {mode!r}")
    if not spec.is_unit_box():
        raise ValueError("build_joint expects the problem rescaled to [-1,1]^n")
    n = spec.n
    dim = 2 * n + 1
    x_map = list(range(n))
    y_map = list(range(n, 2 * n))
    z_index = 2 * n
    z = Polynomial.variable(dim, z_index)
    one = Polynomial.constant(dim, 1.0)

    flo = bounds.overall_lower
    fhi = bounds.overall_upper
    width = fhi - flo

    gens = []
    for i, (p, q) in enumerate(spec.objectives):
        px, qx = p.embed(x_map, dim), q.embed(x_map, dim)
        py, qy = p.embed(y_map, dim), q.embed(y_map, dim)
        h = px * qy - py * qx - z * (qx * qy)
        gens.append((f"h1_{i + 1}", h))

    for j, g in enumerate(spec.constraints):
        gens.append((f"h2_{j + 1}", g.embed(y_map, dim)))
    for j in range(n):
        yj = Polynomial.variable(dim, y_map[j])
        gens.append((f"h2_{len(spec.constraints) + j + 1}", one - yj * yj))

    for j in range(n):
        xj = Polynomial.variable(dim, x_map[j])
        gens.append((f"h3_{j + 1}", one - xj * xj))
    gens.append(("h4_1", Polynomial.constant(dim, width**2) - z * z))

    return GeneratorSet(dim=dim, generators=gens, term_sparse=mode == "sparse")


def assemble(joint: GeneratorSet, k: int) -> tuple[MembershipSystem, list]:
    """Order-k program over the generators of K from :func:`build_joint`: find
    phi of degree <= 2k minimizing its box average subject to phi(x) - z lying
    in the truncated quadratic module of K.  Returns the program and the
    exponents of phi's coefficients, its free variables."""
    check_program_size(joint.dim, k)
    n = joint.dim // 2
    coeff_basis = monomials_up_to(n, 2 * k)

    x_map = list(range(n))
    z = Polynomial.variable(joint.dim, 2 * n)
    coeff_polys = [
        Polynomial.monomial(n, alpha).embed(x_map, joint.dim)
        for alpha in coeff_basis
    ]
    target = ParamTarget(dim=joint.dim, const=-1.0 * z, coeffs=coeff_polys)
    system = assemble_membership(target, joint, k)
    system.problem.obj_free = [float(v) for v in box_moments(coeff_basis)]
    return system, coeff_basis


@dataclass
class ApproximationResult:
    """Outcome of one order-k run: the over-estimator and its certificate."""

    psi: Polynomial
    rho: float
    order: int
    mode: str
    bounds: Bounds
    certificate: GramCertificate
    report: CertificateReport
    solver_status: SdpStatus
    solver_residuals: SdpResiduals
    iterations: int
    verified: bool  # always True; kept because the benchmark reads it


def approximate_psi(
    spec: ProblemSpec,
    k: int,
    mode: str = "dense",
    tol: float = 1e-8,
) -> ApproximationResult:
    """Compute the order-k polynomial over-estimator of the achievement function.

    The problem must already be rescaled to the unit box, or
    ``omega_generators`` raises ValueError.  Bounds on the
    objectives are certified first, the joint program is assembled in the
    requested mode and handed to the interior-point solver, and the resulting
    certificate is re-verified by direct expansion.  A certificate that fails
    re-verification raises VerificationError and is never returned.
    """
    bounds = compute_bounds(spec.objectives, omega_generators(spec), tol=tol)
    system, coeff_basis = assemble(build_joint(spec, bounds, mode), k)
    solution, certificate = system.solve(tol)
    coeffs = {alpha: float(c) for alpha, c in zip(coeff_basis, solution.free_values)}
    psi = Polynomial(spec.n, coeffs).cleanup(1e-12)
    rho = float(np.array(system.problem.obj_free) @ solution.free_values)
    dim = system.dim  # the joint ring's, z last
    check_target = psi.embed(list(range(spec.n)), dim) - Polynomial.variable(dim, dim - 1)
    report = verify_certificate(check_target, certificate, f"order-{k} certificate")
    return ApproximationResult(
        psi=psi,
        rho=rho,
        order=k,
        mode=mode,
        bounds=bounds,
        certificate=certificate,
        report=report,
        solver_status=solution.status,
        solver_residuals=solution.residuals,
        iterations=solution.iterations,
        verified=True,  # verify_certificate raised on a failure
    )
