import math

import numpy as np
import pytest

from effapprox import certificates, sdp
from effapprox.certificates import (
    GeneratorSet,
    GramBlock,
    GramCertificate,
    OrderTooLowError,
    ParamTarget,
    VerificationError,
    assemble_membership,
    compute_bounds,
    default_bound_order,
    gram_basis,
    monomial_codes,
    objective_bound,
    verify_certificate,
)
from effapprox.oracle import Grid
from effapprox.poly import Polynomial, grlex_key, monomials_up_to
from effapprox.problem import omega_generators


def test_gram_basis_degree_floor():
    g = Polynomial(2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 1.0})
    b = gram_basis(g, 3, 2)
    assert max(map(sum, b)) == 2  # floor((6 - 2) / 2)
    assert len(b) == 6
    one = Polynomial.constant(2, 1.0)
    assert gram_basis(one, 2, 2) == monomials_up_to(2, 2)
    quartic = Polynomial(2, {(4, 0): 1.0})
    with pytest.raises(OrderTooLowError):
        gram_basis(quartic, 1, 2)


def unit_disk_gens():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1.0)
    return GeneratorSet(
        2,
        [
            ("g1", one - x1 * x1 - x2 * x2),
            ("box1", one - x1 * x1),
            ("box2", one - x2 * x2),
        ],
    )


def test_membership_row_count_matches_monomial_count():
    gens = unit_disk_gens()
    target = ParamTarget(2, const=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}))
    system = assemble_membership(target, gens, 2)
    assert system.problem.n_rows == 15  # all monomials of degree <= 4 in 2 vars
    assert len(system.monomials) == 15
    assert [label for label, _, _ in system.slots] == ["sigma0", "g1", "box1", "box2"]


def test_term_sparse_blocks_split_and_verify():
    x1 = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1.0)
    gens = GeneratorSet(2, [("box1", one - x1 * x1)], term_sparse=True)
    target = one + x1 * x1
    system = assemble_membership(ParamTarget(2, const=target), gens, 1)
    # A = {1, x1^2, x2^2}: no two sigma0 monomials sum into it, so each is
    # its own block; the degree-0 box multiplier does not split
    assert [(label, b) for label, _, b in system.slots] == [
        ("sigma0[0]", [(0, 0)]),
        ("sigma0[1]", [(0, 1)]),
        ("sigma0[2]", [(1, 0)]),
        ("box1", [(0, 0)]),
    ]
    assert system.monomials == [(0, 0), (0, 2), (2, 0)]
    _, cert = system.read(sdp.solve(system.problem, 1e-8))
    assert verify_certificate(target, cert, "term-sparse certificate").max_mismatch <= 1e-6


def reference_assembly(target, slots, dim, k):
    """(entries, monomials, rhs, free entries) by expanding every Gram entry
    over exponent tuples, one row per reached monomial in graded lex order."""
    full = monomials_up_to(dim, 2 * k)
    position = {m: r for r, m in enumerate(full)}
    entries = []
    for bi, (_, generator, exps) in enumerate(slots):
        for i1 in range(len(exps)):
            for i2 in range(i1, len(exps)):
                for tau, c in generator.sorted_terms():
                    m = tuple(map(sum, zip(exps[i1], exps[i2], tau)))
                    entries.append((position[m], bi, i1, i2, c))
    rows = sorted({e[0] for e in entries})
    monos = [full[r] for r in rows]
    renumber = {r: i for i, r in enumerate(rows)}
    entries = [(renumber[r], *rest) for r, *rest in entries]
    rhs = [target.const.terms.get(m, 0.0) for m in monos]
    free = [(monos.index(m), j, -c)
            for j, cp in enumerate(target.coeffs) for m, c in cp.sorted_terms()]
    return entries, monos, rhs, free


def reference_cases(problems):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    disk = unit_disk_gens()
    many = ParamTarget(dim=2, const=x1 * x2 * x2, coeffs=[x1, 1.0 + x2 * x2, -1.0 * x1])
    yield disk, ParamTarget(2, const=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})), 2
    yield disk, many, 3
    # the rational bound program: q has several terms, so T != 0 in _compile
    _, scaled, _ = problems["rational"]
    p, q = scaled.objectives[1]
    yield omega_generators(scaled), ParamTarget(dim=2, const=p, coeffs=[-1.0 * q]), 3


@pytest.mark.parametrize("sparse", [False, True])
def test_assembly_matches_tuple_expansion(problems, sparse):
    for gens, target, k in reference_cases(problems):
        gens = GeneratorSet(gens.dim, gens.generators, term_sparse=sparse)
        system = assemble_membership(target, gens, k)
        entries, monos, rhs, free = reference_assembly(target, system.slots, gens.dim, k)
        prob = system.problem
        assert np.array_equal(prob.entries, np.array(entries, dtype=float))
        assert system.monomials == monos
        assert prob.rhs == rhs
        assert np.array_equal(prob.free_entries, np.array(free, dtype=float).reshape(-1, 3))
        assert prob.n_free == len(target.coeffs)


def test_monomial_codes_graded_lex_and_additive():
    exps = monomials_up_to(3, 6)
    codes = monomial_codes(exps, 3, 3)
    assert sorted(exps, key=grlex_key) == exps
    assert np.all(np.diff(codes) > 0)
    low = monomials_up_to(3, 3)
    pairs = monomial_codes(low, 3, 3)[:, None] + monomial_codes(low, 3, 3)
    sums = [tuple(map(sum, zip(a, b))) for a in low for b in low]
    assert np.array_equal(pairs.ravel(), monomial_codes(sums, 3, 3))


def test_code_overflow_rejected_before_any_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(certificates, "gram_basis", no_basis)
    x1 = Polynomial.variable(19, 0)
    gens = GeneratorSet(19, [("box1", 1.0 - x1 * x1)])
    with pytest.raises(ValueError, match=r"19 variables at order 4 .* 9\^20, beyond int64"):
        assemble_membership(ParamTarget(19, const=Polynomial.constant(19, 1.0)), gens, 4)
    # verification codes the same way, up to the target's degree 8
    cert = GramCertificate(19, [GramBlock("sigma0", Polynomial.constant(19, 1.0),
                                          [(0,) * 19], np.eye(1))])
    with pytest.raises(ValueError, match=r"9\^20, beyond int64"):
        verify_certificate(x1**8, cert, "sigma0")


def test_target_degree_checked():
    gens = unit_disk_gens()
    sixth = Polynomial(2, {(6, 0): 1.0})
    with pytest.raises(OrderTooLowError, match="degree"):
        assemble_membership(ParamTarget(2, const=sixth), gens, 2)
    with pytest.raises(ValueError, match="dimension"):
        assemble_membership(ParamTarget(3, const=Polynomial.constant(3, 1.0)), gens, 2)


def test_param_target_degree_bound():
    p = Polynomial(2, {(2, 0): 1.0})
    t = ParamTarget(dim=2, const=p, coeffs=[Polynomial(2, {(0, 4): 1.0})])
    assert t.degree_bound() == 4


def test_linear_objective_bounds_on_disk():
    gens = unit_disk_gens()
    x1 = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1.0)
    lo = objective_bound(x1, one, gens, 2, "lower")
    hi = objective_bound(x1, one, gens, 2, "upper")
    assert abs(lo.value + 1.0) <= 1e-6
    assert abs(hi.value - 1.0) <= 1e-6


def test_quadratic_objective_bounds_on_disk():
    gens = unit_disk_gens()
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    one = Polynomial.constant(2, 1.0)
    lo = objective_bound(p, one, gens, 2, "lower")
    hi = objective_bound(p, one, gens, 2, "upper")
    assert abs(lo.value) <= 1e-6
    assert abs(hi.value - 1.0) <= 1e-5


def test_certificate_sound_on_samples():
    gens = unit_disk_gens()
    x1 = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1.0)
    lo = objective_bound(x1, one, gens, 2, "lower")
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(4000, 2))
    pts = pts[np.sum(pts**2, axis=1) <= 1.0][:1000]
    assert pts.shape[0] == 1000
    vals = (x1 - lo.value * one).eval_many(pts)
    assert vals.min() >= -1e-6


def test_perturbed_certificate_detected():
    gens = unit_disk_gens()
    x1 = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1.0)
    lo = objective_bound(x1, one, gens, 2, "lower")
    target = x1 - lo.value * one
    assert verify_certificate(target, lo.certificate, "bound").max_mismatch <= 1e-6
    lo.certificate.blocks[0].matrix[0, 0] += 1e-3  # the constant coefficient
    with pytest.raises(VerificationError,
                       match=r"^bound failed verification \(mismatch 1\.000e-03, "):
        verify_certificate(target, lo.certificate, "bound")


def reference_mismatch(target, certificate):
    """max |coefficient| of sigma_0 + sum_j sigma_j h_j - target, expanded
    entry by entry over exponent tuples."""
    total = {}
    for blk in certificate.blocks:
        exps, G = blk.basis, blk.matrix
        sigma = {}
        for i1 in range(len(exps)):
            for i2 in range(i1, len(exps)):
                m = tuple(map(sum, zip(exps[i1], exps[i2])))
                sigma[m] = sigma.get(m, 0.0) + (1.0 if i1 == i2 else 2.0) * G[i1, i2]
        for m, c in sigma.items():
            for tau, d in blk.generator.terms.items():
                key = tuple(map(sum, zip(m, tau)))
                total[key] = total.get(key, 0.0) + c * d
    for alpha, c in target.terms.items():
        total[alpha] = total.get(alpha, 0.0) - c
    return max(map(abs, total.values()), default=0.0)


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_verification_matches_tuple_expansion(problems, psi_cache, mode):
    for name, k in (("disk", 3), ("bicorn", 3), ("ball", 2)):
        run = psi_cache.get(name, k, mode)
        n = run.psi.dim
        z = Polynomial.variable(2 * n + 1, 2 * n)
        target = run.psi.embed(list(range(n)), 2 * n + 1) - z
        expected = reference_mismatch(target, run.certificate)
        assert abs(run.report.max_mismatch - expected) <= 1e-12, (name, k)
    # the rational bound program: its free variable lam sits in several rows
    _, scaled, _ = problems["rational"]
    gens = omega_generators(scaled)
    gens = GeneratorSet(gens.dim, gens.generators, term_sparse=mode == "sparse")
    p, q = scaled.objectives[1]
    lo = objective_bound(p, q, gens, 3, "lower")
    target = p - lo.value * q
    got = verify_certificate(target, lo.certificate, "bound").max_mismatch
    assert abs(got - reference_mismatch(target, lo.certificate)) <= 1e-12


def test_off_diagonal_entries_count_twice():
    # a hand-made certificate, positive definite with margin, against its own
    # exact expansion: moving G[0, 1] by e moves every product of b_0 b_1 with
    # a generator term c tau by 2 e c, so the mismatch becomes 2 e max |c|
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    h = 3.0 - 2.0 * x1 * x1 - 0.5 * x2 * x2
    cert = GramCertificate(2, [
        GramBlock("sigma0", Polynomial.constant(2, 1.0), monomials_up_to(2, 2), np.eye(6)),
        GramBlock("h", h, monomials_up_to(2, 1), np.eye(3)),
    ])
    expanded = Polynomial(2, {})
    for blk in cert.blocks:
        sigma = Polynomial(2, {tuple(2 * i for i in a): 1.0 for a in blk.basis})
        expanded = expanded + sigma * blk.generator
    assert verify_certificate(expanded, cert, "h").max_mismatch <= 1e-15
    e = 1e-7
    cert.blocks[1].matrix[0, 1] += e
    cert.blocks[1].matrix[1, 0] += e
    got = verify_certificate(expanded, cert, "h").max_mismatch
    assert abs(got - 2 * e * 3.0) <= 1e-15


def test_verification_rejects_dimension_mismatch():
    one = Polynomial.constant(2, 1.0)
    cert = GramCertificate(2, [GramBlock("sigma0", one, monomials_up_to(2, 0), np.eye(1))])
    with pytest.raises(ValueError, match="dimension"):
        verify_certificate(Polynomial.constant(3, 1.0), cert, "sigma0")


@pytest.mark.parametrize("entry", [math.nan, math.inf, 1e308])
def test_non_finite_certificate_fails_verification(problems, entry):
    # a NaN or inf Gram entry, or an expansion that overflows (2 * 1e308)
    _, disk, _ = problems["disk"]
    p, q = disk.objectives[0]
    lo = objective_bound(p, q, omega_generators(disk), 2, "lower")
    lo.certificate.blocks[0].matrix[2, 3] = entry
    with pytest.raises(VerificationError, match=r"lower bound certificate failed "
                       r"verification \(mismatch (nan|inf), min eigenvalue "):
        verify_certificate(p - lo.value * q, lo.certificate, "lower bound certificate")


def test_rational_lower_bound_tracks_grid(problems, grids):
    _, scaled, _ = problems["rational"]
    gens = omega_generators(scaled)
    p, q = scaled.objectives[1]
    lo = objective_bound(p, q, gens, 3, "lower")
    grid = Grid.for_problem(scaled, 400)
    vals = p.eval_many(grid.feasible) / q.eval_many(grid.feasible)
    gmin = float(vals.min())
    assert lo.value <= gmin
    assert lo.value >= gmin - 1e-3


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_moments_normalized_and_reproduce_bound(problems, side):
    # the dual of the SOS program is the moment relaxation: L(q) = 1, L(p) = lam
    _, scaled, _ = problems["rational"]
    gens = omega_generators(scaled)
    p, q = scaled.objectives[1]
    bound = objective_bound(p, q, gens, 3, side)

    def L(f):
        return sum(c * bound.moments[a] for a, c in f.terms.items())

    assert L(q) == pytest.approx(1.0, abs=1e-7)
    assert L(p) == pytest.approx(bound.value, abs=1e-6)


def test_lower_bounds_monotone_in_order(problems):
    _, scaled, _ = problems["rational"]
    gens = omega_generators(scaled)
    p, q = scaled.objectives[1]
    lo2 = objective_bound(p, q, gens, 2, "lower")
    lo3 = objective_bound(p, q, gens, 3, "lower")
    assert lo3.value >= lo2.value - 1e-7


def test_default_order_and_compute_bounds(problems):
    _, disk, _ = problems["disk"]
    gens = omega_generators(disk)
    for p, q in disk.objectives:
        assert default_bound_order(p, q, gens) == 2
    _, bicorn, _ = problems["bicorn"]
    bgens = omega_generators(bicorn)
    p, q = bicorn.objectives[0]
    assert default_bound_order(p, q, bgens) == 3

    bounds = compute_bounds(disk.objectives, gens)
    assert len(bounds.lower) == 3
    assert bounds.overall_lower == min(bounds.lower)
    assert bounds.overall_upper == max(bounds.upper)
    for lo, hi in zip(bounds.lower, bounds.upper):
        assert lo < hi


def _bound_loop(objectives, gens, k):
    """(lower, upper) as a loop of objective_bound calls computes them."""
    lower, upper = [], []
    for p, q in objectives:
        ki = k if k is not None else default_bound_order(p, q, gens)
        lower.append(objective_bound(p, q, gens, ki, "lower").value)
        upper.append(objective_bound(p, q, gens, ki, "upper").value)
    return lower, upper


@pytest.mark.parametrize("name", ["disk", "rational", "ball"])
def test_compute_bounds_equals_objective_bounds_bitwise(problems, monkeypatch, name):
    # the bound programs that share constraints run one solve loop (one
    # Schur plan per batch), with each bound's bits
    _, scaled, _ = problems[name]
    gens = omega_generators(scaled)
    plans, init = [], sdp._Schur.__init__

    def recorded(plan, *args):
        init(plan, *args)
        plans.append(plan)

    monkeypatch.setattr(sdp._Schur, "__init__", recorded)
    bounds = compute_bounds(scaled.objectives, gens)
    assert len(plans) < 2 * len(scaled.objectives)
    lower, upper = _bound_loop(scaled.objectives, gens, None)
    assert [v.hex() for v in bounds.lower + bounds.upper] == [v.hex() for v in lower + upper]


@pytest.mark.parametrize("case", ["assembly", "verification", "status", "compile",
                                  "verification, compile"])
def test_compute_bounds_raises_the_loop_s_first_error(problems, monkeypatch, case):
    # objective 2 fails to assemble (degree 5 at order 2) or to compile (q =
    # 0, no free column); objective 1's upper certificate fails to verify,
    # or every solve stops at one iteration: compute_bounds raises what the
    # loop of objective_bound calls raises first
    _, disk, _ = problems["disk"]
    gens = omega_generators(disk)
    x, one = Polynomial.variable(2, 0), Polynomial.constant(2, 1.0)
    second = (x, Polynomial.zero(2)) if "compile" in case else (x**5, one)
    if "verification" in case:
        verify = certificates.verify_certificate

        def failing(target, certificate, what):
            if what == "upper bound certificate":
                raise VerificationError(f"{what} failed (patched)")
            return verify(target, certificate, what)

        monkeypatch.setattr(certificates, "verify_certificate", failing)
    if case == "status":
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
    raised = []
    for run in (compute_bounds, _bound_loop):
        with pytest.raises(Exception) as error:
            run([(x, one), second], gens, 2)
        raised.append((error.type, str(error.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] == {"assembly": OrderTooLowError, "status": certificates.SolverError,
                            "compile": ValueError}.get(case, VerificationError)


def test_zero_denominator_raises_before_any_solve(monkeypatch):
    # a zero q leaves the bound program's one free column empty: it is
    # rejected before assembly, not handed to the solver
    def never(*args, **kwargs):
        raise AssertionError("a bound program with q = 0 reached the solver")

    monkeypatch.setattr(certificates, "solve", never)
    x = Polynomial.variable(2, 0)
    with pytest.raises(ValueError, match="^the denominator q is the zero polynomial$"):
        objective_bound(x, Polynomial.zero(2), unit_disk_gens(), 2, "lower")


def test_compute_bounds_has_one_solve_route(problems, monkeypatch):
    # objective 2's zero q fails before assembly, so objective 1's two
    # programs are solved in one solve_many call and nothing one by one
    _, disk, _ = problems["disk"]
    x, one = Polynomial.variable(2, 0), Polynomial.constant(2, 1.0)
    calls, solve_many = [], certificates.solve_many

    def counted(problems, tol):
        calls.append(len(problems))
        return solve_many(problems, tol)

    def never(*args, **kwargs):
        raise AssertionError("compute_bounds solved a program one by one")

    monkeypatch.setattr(certificates, "solve_many", counted)
    monkeypatch.setattr(certificates, "solve", never)
    with pytest.raises(ValueError, match="zero polynomial"):
        compute_bounds([(x, one), (x, Polynomial.zero(2))], omega_generators(disk), 2)
    assert calls == [2]
