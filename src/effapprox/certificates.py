"""Sum-of-squares certificates of membership in a truncated quadratic module.

A target polynomial t (possibly affine in scalar parameters) is matched
coefficientwise against

    t = sigma_0 + sum_j sigma_j * h_j,      deg(sigma_j h_j) <= 2k,

with every sigma a Gram-matrix quadratic form.  The match is one equality row
per monomial, which makes the whole thing a semidefinite feasibility problem.
In term-sparse mode each Gram block splits into the connected components of
its term-sparsity graph; the certificate is verified the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .poly import Exponent, MonomialBasis, Polynomial, basis, monomials_up_to
from .sdp import SdpProblem, SdpSolution, SdpStatus, solve


class OrderTooLowError(Exception):
    """The requested relaxation order admits no certificate."""


class SolverError(Exception):
    """The semidefinite solver failed to return a usable solution."""


class VerificationError(SolverError):
    """A solved certificate failed re-verification by direct expansion."""


COEFF_RTOL = 1e-6  # coefficient mismatch, relative to 1 + max |target coeff|
EIG_TOL = 1e-8  # Gram eigenvalues may dip this far below zero


@dataclass
class GeneratorSet:
    """Inequality generators h_j >= 0 describing a basic closed set.

    ``term_sparse`` switches on the term-sparse certificate: each Gram block
    splits into the connected components of its term-sparsity graph.
    """

    dim: int
    generators: list  # of (label: str, Polynomial)
    term_sparse: bool = False

    def __post_init__(self):
        for label, g in self.generators:
            if g.dim != self.dim:
                raise ValueError(f"generator {label} lives in dimension {g.dim}")

    def labels(self) -> list[str]:
        return [label for label, _ in self.generators]


def gram_basis(generator: Polynomial, k: int, dim: int) -> MonomialBasis:
    """Monomial basis for the Gram matrix multiplying ``generator`` at order k.

    The multiplier degree is floor((2k - deg h) / 2) so the product stays
    within degree 2k.
    """
    d = 2 * k - generator.degree
    if d < 0:
        raise OrderTooLowError(
            f"order {k} too low for a generator of degree {generator.degree}"
        )
    return basis(dim, d // 2)


@dataclass
class ParamTarget:
    """Polynomial depending affinely on scalar parameters.

    Represents const + sum_j theta_j * coeffs[j].
    """

    dim: int
    const: Polynomial
    coeffs: list = field(default_factory=list)

    @classmethod
    def fixed(cls, p: Polynomial) -> "ParamTarget":
        return cls(dim=p.dim, const=p, coeffs=[])

    def degree_bound(self) -> int:
        degs = [self.const.degree] + [c.degree for c in self.coeffs]
        return max(degs)


@dataclass
class GramSlot:
    label: str
    generator: Polynomial
    basis: MonomialBasis


@dataclass
class GramBlock:
    label: str
    generator: Polynomial
    basis: MonomialBasis
    matrix: np.ndarray


@dataclass
class GramCertificate:
    """Numeric Gram matrices witnessing a quadratic-module membership."""

    dim: int
    blocks: list  # of GramBlock

    def reconstruction(self) -> Polynomial:
        """Expand sigma_0 + sum_j sigma_j h_j back into a polynomial."""
        total = Polynomial.zero(self.dim)
        for blk in self.blocks:
            expanded: dict[Exponent, float] = {}
            exps = blk.basis.exponents
            G = blk.matrix
            for i1 in range(len(exps)):
                for i2 in range(i1, len(exps)):
                    c = G[i1, i2] if i1 == i2 else 2.0 * G[i1, i2]
                    if c == 0.0:
                        continue
                    m = tuple(a + b for a, b in zip(exps[i1], exps[i2]))
                    expanded[m] = expanded.get(m, 0.0) + c
            total = total + Polynomial(self.dim, expanded) * blk.generator
        return total

    def min_eigenvalue(self) -> float:
        return min(float(sla.eigvalsh(blk.matrix)[0]) for blk in self.blocks)


@dataclass
class CertificateReport:
    max_mismatch: float
    min_eigenvalue: float
    coeff_tol: float
    eig_tol: float
    passed: bool

    def require(self, what: str) -> None:
        """Raise :class:`VerificationError` unless the certificate passed."""
        if not self.passed:
            raise VerificationError(
                f"{what} failed verification "
                f"(mismatch {self.max_mismatch:.3e}, "
                f"min eigenvalue {self.min_eigenvalue:.3e})"
            )


def verify_certificate(
    target: Polynomial, certificate: GramCertificate
) -> CertificateReport:
    """Check a certificate against its target by direct expansion.

    The coefficient tolerance is COEFF_RTOL * (1 + max |target coeff|).
    """
    recon = certificate.reconstruction()
    mismatch = recon.max_coeff_diff(target)
    scale = 1.0 + max((abs(c) for c in target.terms.values()), default=0.0)
    tol = COEFF_RTOL * scale
    min_eig = certificate.min_eigenvalue()
    return CertificateReport(
        max_mismatch=mismatch,
        min_eigenvalue=min_eig,
        coeff_tol=tol,
        eig_tol=EIG_TOL,
        passed=(mismatch <= tol and min_eig >= -EIG_TOL),
    )


@dataclass
class MembershipSystem:
    """Compiled coefficient-matching SDP plus the layout needed to read it back."""

    problem: SdpProblem
    monomials: list
    slots: list  # of GramSlot
    order: int
    dim: int

    def solve(self, tol: float) -> tuple[SdpSolution, GramCertificate]:
        """Solve the program and read its Gram certificate back.

        An infeasible program means no order-k certificate exists
        (:class:`OrderTooLowError`); an unbounded one means the set the
        generators describe may be empty; any other status short of optimal
        is a :class:`SolverError`.
        """
        solution = solve(self.problem, tol=tol)
        if solution.status == SdpStatus.INFEASIBLE:
            raise OrderTooLowError(
                f"no order-{self.order} certificate exists; raise the order"
            )
        if solution.status == SdpStatus.UNBOUNDED:
            raise SolverError(
                f"the order-{self.order} program is unbounded; "
                "the feasible set may be empty"
            )
        if solution.status != SdpStatus.OPTIMAL:
            raise SolverError(
                f"order-{self.order} solve ended with status "
                f"{solution.status.value} (residuals {solution.residuals})"
            )
        blocks = [
            GramBlock(s.label, s.generator, s.basis, np.asarray(X))
            for s, X in zip(self.slots, solution.block_values)
        ]
        return solution, GramCertificate(dim=self.dim, blocks=blocks)


def _slot_layout(target: ParamTarget, gens: GeneratorSet, k: int) -> list[GramSlot]:
    """Gram slots for sigma_0 and each generator, in that order.

    In term-sparse mode (step 1 of TSSOS, Wang-Magron-Lasserre 2021) a
    multiplier's basis splits into the connected components of its graph:
    beta and gamma are joined when beta + gamma + supp(h) meets the support
    set A of the target, the generators and the squares of the sigma_0 basis.
    """
    one = Polynomial.constant(gens.dim, 1.0)
    multipliers = [("sigma0", one)] + list(gens.generators)
    bases = [gram_basis(g, k, gens.dim) for _, g in multipliers]
    if not gens.term_sparse:
        return [GramSlot(lbl, g, b) for (lbl, g), b in zip(multipliers, bases)]
    # imported here so that dense runs do not pay its import time and memory
    from scipy.sparse.csgraph import connected_components

    def keys(exps) -> np.ndarray:  # additive codes: every degree here is <= 2k
        arr = np.array(list(exps), dtype=np.int64).reshape(-1, gens.dim)
        return np.ravel_multi_index(arr.T, (2 * k + 1,) * gens.dim)

    polys = [target.const, *target.coeffs] + [g for _, g in gens.generators]
    support = np.concatenate([keys(p.terms) for p in polys] + [2 * keys(bases[0])])
    slots = []
    for (label, g), b in zip(multipliers, bases):
        bk = keys(b)
        pair = bk[:, None] + bk[None, :]
        graph = np.zeros(pair.shape, dtype=bool)
        for tau in keys(g.terms):
            graph |= np.isin(pair + tau, support)
        n_comp, comp = connected_components(graph, directed=False)
        for c in range(n_comp):
            exps = [e for e, ci in zip(b, comp) if ci == c]
            name = label if n_comp == 1 else f"{label}[{c}]"
            slots.append(GramSlot(name, g, MonomialBasis(gens.dim, b.degree, exps)))
    return slots


def assemble_membership(
    target: ParamTarget | Polynomial, gens: GeneratorSet, k: int
) -> MembershipSystem:
    """Build the order-k membership SDP for ``target`` over ``gens``.

    One equality row per monomial the Gram entries reach, in graded lex
    order: every monomial of degree <= 2k in dense mode, and always the
    target's support, since sigma_0 joins any two basis monomials summing to
    it.  Gram entries enter with the generator's coefficients, parameters
    enter the free-variable side.  Raises OrderTooLowError when a generator
    or the target has degree above 2k.
    """
    if isinstance(target, Polynomial):
        target = ParamTarget.fixed(target)
    if target.dim != gens.dim:
        raise ValueError("target and generators disagree on dimension")
    if target.degree_bound() > 2 * k:
        raise OrderTooLowError(
            f"target degree {target.degree_bound()} exceeds 2k = {2 * k}"
        )

    slots = _slot_layout(target, gens, k)
    full = monomials_up_to(gens.dim, 2 * k)  # graded lex; holds every product
    position = {m: r for r, m in enumerate(full)}
    entries = []  # (row, block, i1, i2, coefficient), rows numbered in full
    reached: set[int] = set()
    for bi, slot in enumerate(slots):
        exps = slot.basis.exponents
        gterms = slot.generator.sorted_terms()
        for i1 in range(len(exps)):
            e1 = exps[i1]
            for i2 in range(i1, len(exps)):
                pair = tuple(a + b for a, b in zip(e1, exps[i2]))
                for tau, c in gterms:
                    row = position[tuple(a + b for a, b in zip(pair, tau))]
                    reached.add(row)
                    entries.append((row, bi, i1, i2, c))
    rows = sorted(reached)
    if len(rows) < len(full):  # renumber in place onto the reached rows
        renumber = {r: i for i, r in enumerate(rows)}
        for e, (r, bi, i1, i2, c) in enumerate(entries):
            entries[e] = (renumber[r], bi, i1, i2, c)
    monos = [full[r] for r in rows]
    row_of = {m: r for r, m in enumerate(monos)}

    problem = SdpProblem(
        block_dims=[len(s.basis) for s in slots],
        n_free=len(target.coeffs),
        entries=entries,
    )
    for m in monos:
        problem.add_row(target.const.coeff(m))
    for j, cpoly in enumerate(target.coeffs):
        for m, c in cpoly.sorted_terms():
            problem.set_free_entry(row_of[m], j, -c)

    problem.obj_free = [0.0] * len(target.coeffs)
    return MembershipSystem(
        problem=problem,
        monomials=monos,
        slots=slots,
        order=k,
        dim=gens.dim,
    )


@dataclass
class ObjectiveBound:
    value: float
    certificate: GramCertificate
    report: CertificateReport
    solver_iterations: int
    moments: dict  # pseudo-moments {monomial: value} read off the dual, L(q) = 1


def objective_bound(
    p: Polynomial,
    q: Polynomial,
    gens: GeneratorSet,
    k: int,
    side: str,
    tol: float = 1e-8,
) -> ObjectiveBound:
    """Certified one-sided bound on p/q over the set described by ``gens``.

    side "lower": the largest lam with p - lam q in the order-k module,
    so lam <= inf p/q.  side "upper" mirrors it.  Requires q > 0 on the set.

    The dual of either program is the moment relaxation: the negated dual
    vector on the monomial rows is a pseudo-moment vector L with L(q) = 1 and
    L(p) = lam, returned as ``moments``.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if side == "lower":
        target = ParamTarget(dim=p.dim, const=p, coeffs=[-1.0 * q])
        sense = -1.0  # maximize lam
    else:
        target = ParamTarget(dim=p.dim, const=-1.0 * p, coeffs=[q])
        sense = 1.0  # minimize lam
    system = assemble_membership(target, gens, k)
    system.problem.obj_free = [sense]
    solution, cert = system.solve(tol)
    lam = float(solution.free_values[0])
    report = verify_certificate(target.const + lam * target.coeffs[0], cert)
    return ObjectiveBound(
        value=lam,
        certificate=cert,
        report=report,
        solver_iterations=solution.iterations,
        moments=dict(zip(system.monomials, (-solution.dual_values).tolist())),
    )


@dataclass
class Bounds:
    """Certified ranges for each objective over the feasible set."""

    lower: list
    upper: list
    orders: list
    lower_details: list
    upper_details: list

    @property
    def overall_lower(self) -> float:
        return min(self.lower)

    @property
    def overall_upper(self) -> float:
        return max(self.upper)


def order_floor(polys: list, gens: GeneratorSet) -> int:
    """Smallest order k with 2k at least the degree of every polynomial and
    generator; below it :func:`assemble_membership` raises OrderTooLowError."""
    return max(
        math.ceil(p.degree / 2) for p in polys + [g for _, g in gens.generators]
    )


def default_bound_order(p: Polynomial, q: Polynomial, gens: GeneratorSet) -> int:
    """Smallest workable order plus one, for a little slack."""
    return order_floor([p, q], gens) + 1


def compute_bounds(
    objectives: list,
    gens: GeneratorSet,
    k: int | None = None,
    tol: float = 1e-8,
) -> Bounds:
    """Certified lower/upper bounds for a list of (p, q) rational objectives."""
    lower, upper, orders, ldet, udet = [], [], [], [], []
    for p, q in objectives:
        ki = k if k is not None else default_bound_order(p, q, gens)
        lo = objective_bound(p, q, gens, ki, "lower", tol=tol)
        lo.report.require("lower bound certificate")
        hi = objective_bound(p, q, gens, ki, "upper", tol=tol)
        hi.report.require("upper bound certificate")
        lower.append(lo.value)
        upper.append(hi.value)
        orders.append(ki)
        ldet.append(lo)
        udet.append(hi)
    return Bounds(
        lower=lower, upper=upper, orders=orders, lower_details=ldet, upper_details=udet
    )
