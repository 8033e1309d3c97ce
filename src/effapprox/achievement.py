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
from .poly import MonomialBasis, Polynomial, basis
from .problem import ProblemSpec, omega_generators
from .sdp import SdpResiduals, SdpStatus


def box_moments(coeff_basis: MonomialBasis) -> np.ndarray:
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


@dataclass
class JointSystem:
    """Generators of the graph set K in the joint ring (x_1..x_n, y_1..y_n, z)."""

    n: int
    dim: int
    generators: GeneratorSet
    z_index: int


def build_joint(spec: ProblemSpec, bounds: Bounds, mode: str = "dense") -> JointSystem:
    """Assemble the joint-ring inequality system defining K.

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

    gset = GeneratorSet(dim=dim, generators=gens, term_sparse=mode == "sparse")
    return JointSystem(n=n, dim=dim, generators=gset, z_index=z_index)


@dataclass
class AssembledProgram:
    """Order-k program: find phi of degree <= 2k minimizing its box average
    subject to phi(x) - z lying in the truncated quadratic module of K."""

    membership: MembershipSystem
    coefficient_basis: MonomialBasis
    moment_vector: np.ndarray


def assemble(joint: JointSystem, k: int) -> AssembledProgram:
    check_program_size(joint.dim, k)
    n = joint.n
    coeff_basis = basis(n, 2 * k)

    x_map = list(range(n))
    z = Polynomial.variable(joint.dim, joint.z_index)
    coeff_polys = [
        Polynomial.monomial(n, alpha).embed(x_map, joint.dim)
        for alpha in coeff_basis
    ]
    target = ParamTarget(dim=joint.dim, const=-1.0 * z, coeffs=coeff_polys)
    system = assemble_membership(target, joint.generators, k)
    gamma = box_moments(coeff_basis)
    system.problem.obj_free = [float(v) for v in gamma]
    return AssembledProgram(
        membership=system,
        coefficient_basis=coeff_basis,
        moment_vector=gamma,
    )


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

    The problem must already be rescaled to the unit box.  Bounds on the
    objectives are certified first, the joint program is assembled in the
    requested mode and handed to the interior-point solver, and the resulting
    certificate is re-verified by direct expansion.  A certificate that fails
    re-verification raises VerificationError and is never returned.
    """
    if not spec.is_unit_box():
        raise ValueError("approximate_psi expects the problem rescaled to [-1,1]^n")
    bounds = compute_bounds(spec.objectives, omega_generators(spec), tol=tol)
    joint = build_joint(spec, bounds, mode)
    program = assemble(joint, k)
    solution, certificate = program.membership.solve(tol)
    coeffs = {
        alpha: float(c)
        for alpha, c in zip(program.coefficient_basis, solution.free_values)
    }
    psi = Polynomial(spec.n, coeffs).cleanup(1e-12)
    rho = float(program.moment_vector @ solution.free_values)
    z = Polynomial.variable(joint.dim, joint.z_index)
    check_target = psi.embed(list(range(spec.n)), joint.dim) - z
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
