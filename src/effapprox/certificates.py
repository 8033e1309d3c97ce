"""Sum-of-squares certificates of membership in a truncated quadratic module.

A target polynomial t (possibly affine in scalar parameters) is matched
coefficientwise against

    t = sigma_0 + sum_j sigma_j * h_j,      deg(sigma_j h_j) <= 2k,

with every sigma a Gram-matrix quadratic form.  The match is one equality row
per monomial, which makes the whole thing a semidefinite feasibility problem.
In term-sparse mode each Gram block splits into the connected components of
its term-sparsity graph.  Every monomial is an int64 code, in the assembly and
in the coefficient-residual check of a solved certificate (Lofberg 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .poly import Polynomial, monomials_up_to
from .sdp import SdpProblem, SdpSolution, SdpStatus, solve, solve_many


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


def gram_basis(generator: Polynomial, k: int, dim: int) -> list:
    """Monomial basis for the Gram matrix multiplying ``generator`` at order k.

    The multiplier degree is floor((2k - deg h) / 2) so the product stays
    within degree 2k.
    """
    d = 2 * k - generator.degree
    if d < 0:
        raise OrderTooLowError(
            f"order {k} too low for a generator of degree {generator.degree}"
        )
    return monomials_up_to(dim, d // 2)


@dataclass
class ParamTarget:
    """Polynomial depending affinely on scalar parameters.

    Represents const + sum_j theta_j * coeffs[j].
    """

    dim: int
    const: Polynomial
    coeffs: list = field(default_factory=list)

    def degree_bound(self) -> int:
        return max(p.degree for p in [self.const, *self.coeffs])


@dataclass
class GramBlock:
    label: str
    generator: Polynomial
    basis: list  # of exponents, graded lex
    matrix: np.ndarray


@dataclass
class GramCertificate:
    """Numeric Gram matrices witnessing a quadratic-module membership."""

    dim: int
    blocks: list  # of GramBlock


@dataclass
class CertificateReport:
    max_mismatch: float
    min_eigenvalue: float


def verify_certificate(target: Polynomial, certificate: GramCertificate,
                       what: str) -> CertificateReport:
    """Expand each block's upper triangle (weight 2 off the diagonal) times its
    generator on codes of the block's own basis, not the assembly's tables.
    Raises VerificationError naming ``what`` unless every coefficient of the
    expansion minus ``target`` is within COEFF_RTOL * (1 + max |target coeff|)
    and every Gram eigenvalue is at least -EIG_TOL; NaN and inf always fail."""
    dim, blocks = certificate.dim, certificate.blocks
    if target.dim != dim:
        raise ValueError(f"target dimension {target.dim}, certificate dimension {dim}")
    k = (max([target.degree] + [2 * max(map(sum, b.basis)) + b.generator.degree
                                for b in blocks]) + 1) // 2  # codes reach every degree
    _check_code_range(dim, k)
    t_codes, t_coef = _coded_terms(target, k)
    codes, weights = [t_codes], [-t_coef]
    coded, pairs = {}, {}  # term-sparse blocks share generators and basis sizes
    for blk in blocks:
        if id(blk.generator) not in coded:  # the blocks keep each generator alive
            coded[id(blk.generator)] = _coded_terms(blk.generator, k)
        g_codes, g_coef = coded[id(blk.generator)]
        if len(blk.basis) not in pairs:
            i1, i2 = np.triu_indices(len(blk.basis))
            pairs[len(blk.basis)] = i1, i2, np.where(i1 == i2, 1.0, 2.0)  # 2 off the diagonal
        i1, i2, mult = pairs[len(blk.basis)]
        b = monomial_codes(blk.basis, dim, k)
        codes.append(((b[i1] + b[i2])[:, None] + g_codes).ravel())
        with np.errstate(all="ignore"):  # an overflow fails the check below
            weights.append(np.outer(mult * blk.matrix[i1, i2], g_coef).ravel())
    _, row = np.unique(np.concatenate(codes), return_inverse=True)
    residual = np.bincount(row.ravel(), weights=np.concatenate(weights))
    mismatch = float(np.abs(residual).max(initial=0.0))  # NaN propagates
    min_eig = float(np.min([sla.eigvalsh(b.matrix)[0] if np.isfinite(b.matrix).all()
                            else np.nan for b in blocks]))  # eigvalsh rejects NaN, inf
    scale = 1.0 + np.abs(t_coef).max(initial=0.0)
    if not (mismatch <= COEFF_RTOL * scale and min_eig >= -EIG_TOL):
        raise VerificationError(f"{what} failed verification (mismatch "
                                f"{mismatch:.3e}, min eigenvalue {min_eig:.3e})")
    return CertificateReport(max_mismatch=mismatch, min_eigenvalue=min_eig)


@dataclass
class MembershipSystem:
    """Compiled coefficient-matching SDP plus the layout needed to read it back."""

    problem: SdpProblem
    monomials: list
    slots: list  # of (label, generator, basis), one per Gram block
    order: int
    dim: int

    def read(self, solution: SdpSolution) -> tuple[SdpSolution, GramCertificate]:
        """The solution of the program and its Gram certificate.

        An infeasible program means no order-k certificate exists
        (:class:`OrderTooLowError`); an unbounded one means the set the
        generators describe may be empty; any other status short of optimal
        is a :class:`SolverError`.
        """
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
        blocks = [GramBlock(*slot, np.asarray(X))
                  for slot, X in zip(self.slots, solution.block_values)]
        return solution, GramCertificate(dim=self.dim, blocks=blocks)


def monomial_codes(exps, dim: int, k: int) -> np.ndarray:
    """int64 codes of exponents: the digits (degree, alpha_1, ..., alpha_dim) in
    base 2k + 1.  For degrees <= 2k they sort in graded lex order and add under
    products; they fit if (2k + 1)^(dim + 1) < 2^63 (:func:`_check_code_range`)."""
    arr = np.array(list(exps), dtype=np.int64).reshape(-1, dim)
    place = (2 * k + 1) ** np.arange(dim, -1, -1, dtype=np.int64)
    return arr.sum(axis=1) * place[0] + arr @ place[1:]


def _check_code_range(dim: int, k: int) -> None:
    """Raise ValueError unless the codes of degree <= 2k fit in int64."""
    if (2 * k + 1) ** (dim + 1) >= 2**63:
        raise ValueError(f"{dim} variables at order {k} need monomial codes "
                         f"up to {2 * k + 1}^{dim + 1}, beyond int64")


def _physical_memory() -> int:
    """Bytes of physical memory, as the operating system reports them."""
    import os

    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_program_size(dim: int, k: int) -> None:
    """Raise ValueError when the Schur matrix of the dense order-k program in
    ``dim`` variables, p(p+1)/2 doubles for its p = C(dim + 2k, dim) rows
    (one per monomial of degree <= 2k), exceeds physical memory.  Callers
    run it before they enumerate any monomial, which at such an order would
    exhaust memory first."""
    p = math.comb(dim + 2 * k, dim)
    need, have = 8 * p * (p + 1) // 2, _physical_memory()
    if need > have:
        raise ValueError(f"order {k} in {dim} variables needs {p} rows, whose Schur "
                         f"matrix takes {need} bytes, more than the {have} bytes "
                         f"of physical memory")


def _coded_terms(poly: Polynomial, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes and coefficients of the terms of ``poly``, in graded lex order."""
    terms = poly.sorted_terms()
    return (monomial_codes([a for a, _ in terms], poly.dim, k),
            np.array([c for _, c in terms], dtype=float))


def _slot_layout(target: ParamTarget, gens: GeneratorSet, k: int) -> list[tuple]:
    """(label, generator, basis, product table) of each Gram block: sigma_0's
    first, then each generator's.

    A block's table holds code(b_i) + code(b_j) + code(tau) over its basis b
    and the generator's terms tau, shape (len(b), len(b), terms).  In
    term-sparse mode (step 1 of TSSOS, Wang-Magron-Lasserre 2021) a
    multiplier's basis splits into the connected components of its graph:
    b_i and b_j are joined when some product meets the support set A of the
    target, the generators and the squares of the sigma_0 basis.
    """
    dim = gens.dim
    multipliers = [("sigma0", Polynomial.constant(dim, 1.0))] + list(gens.generators)
    bases = [gram_basis(g, k, dim) for _, g in multipliers]
    if gens.term_sparse:
        # imported here so that dense runs do not pay its import time and memory
        from scipy.sparse.csgraph import connected_components

        polys = [target.const, *target.coeffs] + [g for _, g in gens.generators]
        support = np.concatenate([monomial_codes(p.terms, dim, k) for p in polys]
                                 + [2 * monomial_codes(bases[0], dim, k)])
    slots = []
    for (label, g), b in zip(multipliers, bases):
        bk = monomial_codes(b, dim, k)
        table = bk[:, None, None] + bk[None, :, None] + _coded_terms(g, k)[0]
        n_comp, comp = 1, np.zeros(len(b), dtype=int)  # dense: one component
        if gens.term_sparse:
            graph = np.isin(table, support).any(axis=2)
            n_comp, comp = connected_components(graph, directed=False)
        for c in range(n_comp):
            idx = np.flatnonzero(comp == c)
            name = label if n_comp == 1 else f"{label}[{c}]"
            slots.append((name, g, [b[i] for i in idx], table[idx][:, idx]))
    return slots


def assemble_membership(
    target: ParamTarget, gens: GeneratorSet, k: int
) -> MembershipSystem:
    """Build the order-k membership SDP for ``target`` over ``gens``.

    One equality row per monomial the Gram entries reach, in graded lex
    order: every monomial of degree <= 2k in dense mode, and always the
    target's support, since sigma_0 joins any two basis monomials summing to
    it.  The Gram entries are one (nnz, 5) array, by slot, then i1 <= i2,
    then generator term, each with that term's coefficient; parameters enter
    the free-variable side.  Raises OrderTooLowError when a generator or the
    target has degree above 2k, and ValueError when the monomial codes would
    overflow int64 or the program would not fit in memory
    (:func:`check_program_size`).
    """
    if target.dim != gens.dim:
        raise ValueError("target and generators disagree on dimension")
    if target.degree_bound() > 2 * k:
        raise OrderTooLowError(
            f"target degree {target.degree_bound()} exceeds 2k = {2 * k}"
        )
    _check_code_range(gens.dim, k)
    check_program_size(gens.dim, k)

    layout = _slot_layout(target, gens, k)
    # entry rows (row, slot, i1, i2, coefficient): a pair i1 <= i2 of a slot's
    # basis, by row, takes one entry per term of the slot's generator
    coefs = [np.array([c for _, c in g.sorted_terms()]) for _, g, _, _ in layout]
    counts = [len(b) * (len(b) + 1) // 2 * len(c) for (_, _, b, _), c in zip(layout, coefs)]
    entries = np.empty((sum(counts), 5))
    codes = np.empty(len(entries), dtype=np.int64)
    upper = {}  # per basis size: the mask of the pairs and their indices
    start = 0
    for bi, ((_, _, b, table), coef, count) in enumerate(zip(layout, coefs, counts)):
        if len(b) not in upper:
            mask = np.tri(len(b), dtype=bool).T
            upper[len(b)] = mask, *np.nonzero(mask)
        mask, i1, i2 = upper[len(b)]
        codes[start : start + count] = table[mask].ravel()
        part = entries[start : start + count].reshape(len(i1), len(coef), 5)
        part[..., 1], part[..., 2], part[..., 3] = bi, i1[:, None], i2[:, None]
        part[..., 4] = coef
        start += count
    rows, entries[:, 0] = np.unique(codes, return_inverse=True)

    rhs = np.zeros(len(rows))
    m, c = _coded_terms(target.const, k)
    rhs[np.searchsorted(rows, m)] = c
    free = [np.column_stack([np.searchsorted(rows, m), np.full(len(m), j), -c])
            for j, (m, c) in enumerate(_coded_terms(p, k) for p in target.coeffs)]
    digits = np.unravel_index(rows, (2 * k + 1,) * (gens.dim + 1))[1:]
    problem = SdpProblem(
        block_dims=[len(b) for _, _, b, _ in layout],
        n_free=len(target.coeffs),
        entries=entries,
        free_entries=np.concatenate(free or [np.empty((0, 3))]),
        rhs=rhs.tolist(),
        obj_free=[0.0] * len(target.coeffs),
    )
    return MembershipSystem(
        problem=problem,
        monomials=list(map(tuple, np.column_stack(digits).tolist())),
        slots=[slot[:3] for slot in layout],
        order=k,
        dim=gens.dim,
    )


@dataclass
class ObjectiveBound:
    value: float
    certificate: GramCertificate
    solver_iterations: int
    moments: dict  # pseudo-moments {monomial: value} read off the dual, L(q) = 1


def objective_bound(
    p: Polynomial,
    q: Polynomial,
    gens: GeneratorSet,
    k: int,
    side: str,
    tol: float = 1e-8,
    what: str | None = None,
) -> ObjectiveBound:
    """Certified one-sided bound on p/q over the set described by ``gens``.

    side "lower": the largest lam with p - lam q in the order-k module,
    so lam <= inf p/q.  side "upper" mirrors it.  Requires q > 0 on the set.
    A failed certificate raises VerificationError naming ``what`` or the side.

    The dual of either program is the moment relaxation: the negated dual
    vector on the monomial rows is a pseudo-moment vector L with L(q) = 1 and
    L(p) = lam, returned as ``moments``.
    """
    target, system = _bound_program(p, q, gens, k, side)
    return _read_bound(target, system, solve(system.problem, tol=tol),
                       what or f"{side} bound certificate")


def _bound_program(p: Polynomial, q: Polynomial, gens: GeneratorSet, k: int,
                   side: str) -> tuple[ParamTarget, MembershipSystem]:
    """The target and the membership program of one :func:`objective_bound`."""
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if not q.terms:  # before any assembly: the one free column, q's, would not compile
        raise ValueError("the denominator q is the zero polynomial")
    if side == "lower":
        target = ParamTarget(dim=p.dim, const=p, coeffs=[-1.0 * q])
        sense = -1.0  # maximize lam
    else:
        target = ParamTarget(dim=p.dim, const=-1.0 * p, coeffs=[q])
        sense = 1.0  # minimize lam
    system = assemble_membership(target, gens, k)
    system.problem.obj_free = [sense]
    return target, system


def _read_bound(target: ParamTarget, system: MembershipSystem, solution: SdpSolution,
                what: str) -> ObjectiveBound:
    """The bound of a solved :func:`_bound_program`, its certificate verified."""
    solution, cert = system.read(solution)
    lam = float(solution.free_values[0])
    verify_certificate(target.const + lam * target.coeffs[0], cert, what)
    return ObjectiveBound(
        value=lam,
        certificate=cert,
        solver_iterations=solution.iterations,
        moments=dict(zip(system.monomials, (-solution.dual_values).tolist())),
    )


@dataclass
class Bounds:
    """Certified ranges for each objective over the feasible set."""

    lower: list
    upper: list
    orders: list

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
    """Certified lower/upper bounds for a list of (p, q) rational objectives.

    Each bound is :func:`objective_bound`'s, bit for bit, and a failure (for
    finite q) raises what a loop of those calls would raise first.  The programs
    before it are solved in one ``solve_many`` call, so those that share
    constraints (the lower and upper one of an objective) iterate together."""
    bounds, orders, failure = [], [], None  # per objective and side: (side, target, system)
    try:
        for p, q in objectives:
            orders.append(k if k is not None else default_bound_order(p, q, gens))
            for side in ("lower", "upper"):
                bounds.append((side, *_bound_program(p, q, gens, orders[-1], side)))
    except Exception as error:  # raised once the bounds before it are read
        failure = error
    solutions = solve_many([system.problem for _, _, system in bounds], tol)
    values = [_read_bound(target, system, solution, f"{side} bound certificate").value
              for (side, target, system), solution in zip(bounds, solutions)]
    if failure is not None:
        raise failure
    return Bounds(lower=values[0::2], upper=values[1::2], orders=orders)
