import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effapprox import poly
from effapprox.poly import (
    Polynomial,
    basis,
    grlex_key,
    monomials_up_to,
)


def x(i, dim=2):
    return Polynomial.variable(dim, i)


def test_square_of_sum_expands():
    p = (x(0) + x(1)) ** 2
    assert p.terms[(2, 0)] == 1.0
    assert p.terms[(1, 1)] == 2.0
    assert p.terms[(0, 2)] == 1.0
    assert p.degree == 2
    assert len(p.terms) == 3


def test_product_evaluation_identity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        p = Polynomial(
            dim,
            {
                tuple(rng.integers(0, 3, size=dim)): float(rng.normal())
                for _ in range(5)
            },
        )
        q = Polynomial(
            dim,
            {
                tuple(rng.integers(0, 3, size=dim)): float(rng.normal())
                for _ in range(5)
            },
        )
        u = rng.uniform(-1, 1, size=dim)
        lhs = (p * q)(u)
        rhs = p(u) * q(u)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_arithmetic_with_scalars():
    p = 2.0 * x(0) + 1
    assert p((0.5, 0.0)) == 2.0
    q = 1 - x(1)
    assert q((0.0, 0.25)) == 0.75
    r = p - 1
    assert (0, 0) not in r.terms


def test_pow_and_degree():
    p = (1 + x(0)) ** 4
    assert p.degree == 4
    assert p.terms[(2, 0)] == 6.0
    assert Polynomial.zero(3).degree == 0
    with pytest.raises(ValueError):
        (x(0) ** -1)


def test_eval_many_matches_scalar_eval():
    rng = np.random.default_rng(5)
    p = Polynomial(3, {(2, 0, 1): 1.5, (0, 1, 0): -2.0, (0, 0, 0): 0.25})
    pts = rng.uniform(-2, 2, size=(40, 3))
    vals = p.eval_many(pts)
    for row in range(40):
        assert abs(vals[row] - p(pts[row])) <= 1e-12 * (1 + abs(vals[row]))
        assert abs(vals[row] - exact_value(p, pts[row])) <= 1e-12 * magnitude(p, pts[row])


def test_from_terms_round_trip_and_accumulation():
    p = Polynomial.from_terms(2, [[1.0, [1, 0]], [2.0, [1, 0]], [0.5, [0, 0]]])
    assert p.terms[(1, 0)] == 3.0
    q = Polynomial.from_terms(2, [[c, list(a)] for a, c in p.sorted_terms()])
    assert p == q


def test_sorted_terms_graded_lex():
    p = Polynomial(2, {(0, 2): 1.0, (1, 0): 1.0, (0, 0): 1.0, (2, 0): 1.0})
    keys = [grlex_key(a) for a, _ in p.sorted_terms()]
    assert keys == sorted(keys)
    # degree ties broken lexicographically on the exponent tuple
    assert [a for a, _ in p.sorted_terms()] == [(0, 0), (1, 0), (0, 2), (2, 0)]


def test_basis_size_and_structure():
    b = basis(2, 4)
    assert len(b) == 15  # binomial(6, 4)
    assert len(set(b.exponents)) == len(b)
    present = set(b.exponents)
    for alpha in b:
        for i in range(2):
            if alpha[i] > 0:
                lower = tuple(a - (1 if j == i else 0) for j, a in enumerate(alpha))
                assert lower in present
    assert b[0] == (0, 0)


def test_monomials_up_to_ordering():
    exps = monomials_up_to(3, 2)
    assert exps[0] == (0, 0, 0)
    assert len(exps) == 10
    keys = [grlex_key(a) for a in exps]
    assert keys == sorted(keys)


def test_embed_preserves_evaluation():
    rng = np.random.default_rng(3)
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 2.0})
    e = p.embed([3, 0], 5)
    for _ in range(20):
        u = rng.uniform(-1, 1, size=5)
        assert abs(e(u) - p((u[3], u[0]))) <= 1e-12


def test_embed_special_cases():
    c = Polynomial.constant(2, 3.5).embed([0, 1], 4)
    assert c.terms[(0, 0, 0, 0)] == 3.5
    z2 = Polynomial(2, {(2, 0): 1.0}).embed([4, 2], 5)
    assert z2.terms[(0, 0, 0, 0, 2)] == 1.0
    assert len(z2.terms) == 1


def test_compose_affine_evaluation():
    rng = np.random.default_rng(17)
    p = Polynomial(2, {(3, 0): 1.0, (1, 2): -2.0, (0, 1): 0.5, (0, 0): 1.0})
    shift = np.array([0.7, -1.2])
    scale = np.array([2.0, 0.5])
    comp = p.compose_affine(shift, scale)
    assert comp.degree == p.degree
    for _ in range(25):
        u = rng.uniform(-1, 1, size=2)
        assert abs(comp(u) - p(shift + scale * u)) <= 1e-12 * (1 + abs(comp(u)))


@st.composite
def polynomials(draw):
    """A random polynomial in 1-3 variables with up to 8 terms."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * dim)
    coeff = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    return Polynomial(dim, draw(st.dictionaries(exps, coeff, max_size=8)))


def exact_value(p, point):
    """p(point) in exact rational arithmetic, rounded once."""
    xs = [Fraction(float(v)) for v in point]
    total = Fraction(0)
    for alpha, c in p.terms.items():
        term = Fraction(c)
        for x_i, a in zip(xs, alpha):
            term *= x_i**a
        total += term
    return float(total)


def magnitude(p, point):
    """The scale of p's rounding error at point: sum of |c| |x|^alpha."""
    return exact_value(Polynomial(p.dim, {a: abs(c) for a, c in p.terms.items()}), np.abs(point))


@settings(deadline=None)
@given(p=polynomials(), n=st.integers(0, 40), chunk=st.sampled_from([1, 4, 8, 16]),
       seed=st.integers(0, 2**32 - 1))
def test_eval_many_agrees_with_call(p, n, chunk, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(n, p.dim))
    with pytest.MonkeyPatch.context() as mp:
        # pieces of `chunk` rows: n is mostly not a multiple
        mp.setattr(poly, "EVAL_BUDGET", chunk * max(1, len(p.terms)))
        vals = p.eval_many(pts)
    for row in range(n):
        exact, scale = exact_value(p, pts[row]), magnitude(p, pts[row])
        assert abs(vals[row] - exact) <= 1e-12 * scale
        assert abs(p(pts[row]) - exact) <= 1e-12 * scale


def test_eval_five_variables_degree_eight():
    rng = np.random.default_rng(8)
    exps = monomials_up_to(5, 8)
    p = Polynomial(5, {a: float(c) for a, c in zip(exps, rng.normal(size=len(exps)))})
    pts = rng.uniform(-1.5, 1.5, size=(12, 5))
    vals = p.eval_many(pts)
    for row in range(len(pts)):
        assert abs(vals[row] - exact_value(p, pts[row])) <= 1e-12 * magnitude(p, pts[row])


@pytest.mark.parametrize("chunk", [2**12, 2**14, 389])
def test_eval_chunks_match_one_call(chunk, monkeypatch):
    rng = np.random.default_rng(12)
    p = Polynomial(3, {a: float(c) for a, c in zip(monomials_up_to(3, 6),
                                                   rng.normal(size=84))})
    pts = rng.uniform(-1, 1, size=(3 * 2**14 + 5, 3))
    monkeypatch.setattr(poly, "EVAL_BUDGET", len(pts) * 84)
    whole = p.eval_many(pts)
    monkeypatch.setattr(poly, "EVAL_BUDGET", chunk * 84)  # pieces of `chunk` rows
    assert np.array_equal(p.eval_many(pts), whole)
    monkeypatch.undo()  # the default budget: pieces of 780 rows
    assert np.array_equal(p.eval_many(pts), whole)


def test_eval_many_without_variables_or_points():
    assert Polynomial(0, {(): 2.5}).eval_many(np.zeros((3, 0))).tolist() == [2.5] * 3
    assert Polynomial(0).eval_many(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert x(0).eval_many(np.zeros((0, 2))).shape == (0,)


def test_eval_many_memory_is_bounded():
    # 165 terms: one unbounded piece of 2^16 rows would take 87 MB per buffer
    rng = np.random.default_rng(16)
    exps = monomials_up_to(3, 8)
    p = Polynomial(3, {a: float(c) for a, c in zip(exps, rng.normal(size=len(exps)))})
    for n in (2**12, 2**16):
        pts = rng.uniform(-1, 1, size=(n, 3))
        tracemalloc.start()
        try:
            p.eval_many(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n < 2 * 2**20, (n, peak)


def test_call_matches_eval_many_bitwise():
    line = Polynomial(1, {(0,): 1.0, (1,): 1.5})
    assert line((-1.8361059,)) == line.eval_many(np.array([[0.3], [-1.8361059], [2.0]]))[1]
    rng = np.random.default_rng(3)
    for dim, deg in [(1, 3), (2, 6), (3, 4), (5, 3)]:
        exps = monomials_up_to(dim, deg)
        p = Polynomial(dim, {a: float(c) for a, c in zip(exps, rng.normal(size=len(exps)))})
        pts = rng.uniform(-2, 2, size=(37, dim))
        vals = p.eval_many(pts)
        assert all(p(pts[row]) == vals[row] for row in range(len(pts)))


def test_power_table_matches_pow_bitwise():
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               2.2e-308, -1e-310, 1e308, -1e-300]
    x = np.concatenate([special, rng.uniform(-3, 3, 2000), rng.normal(size=2000) * 1e5])
    # without 0 or 1, a lone 2 (numpy's x * x), and pow kept on two columns
    for distinct in [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2], [2, 3],
                     [0, 1, 2, 3, 5], [1, 4, 7], [0, 3]]:
        distinct = np.array(distinct, dtype=float)
        with np.errstate(all="ignore"):
            got, ref = poly._power_table(x, distinct), x[:, None] ** distinct
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), distinct


@settings(deadline=None)
@given(p=polynomials(), data=st.data())
def test_compose_affine_round_trips(p, data):
    shift = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=p.dim, max_size=p.dim)))
    sizes = st.floats(0.5, 2).flatmap(lambda v: st.sampled_from([v, -v]))
    scale = np.array(data.draw(st.lists(sizes, min_size=p.dim, max_size=p.dim)))
    back = p.compose_affine(shift, scale).compose_affine(-shift / scale, 1 / scale)
    diff = [abs(back.terms.get(a, 0.0) - p.terms.get(a, 0.0)) for a in {*back.terms, *p.terms}]
    assert max(diff, default=0.0) <= 1e-9 * (1 + max(map(abs, p.terms.values()), default=0))


def test_partial_derivative():
    p = Polynomial(2, {(3, 1): 2.0, (0, 2): 1.0})
    d0 = p.partial(0)
    assert d0.terms[(2, 1)] == 6.0
    d1 = p.partial(1)
    assert d1.terms[(3, 0)] == 2.0
    assert d1.terms[(0, 1)] == 2.0
    assert not Polynomial.constant(2, 4.0).partial(0).terms


def test_cleanup_drops_tiny_coefficients():
    p = Polynomial(2, {(1, 0): 1.0, (0, 1): 1e-15})
    q = p.cleanup(1e-12)
    assert (0, 1) not in q.terms
    assert q.terms[(1, 0)] == 1.0


def test_exact_zero_terms_are_pruned():
    p = x(0) - x(0)
    assert not p.terms
    q = (x(0) + x(1)) * (x(0) - x(1))
    assert (1, 1) not in q.terms


def test_no_operation_stores_a_zero_coefficient():
    tiny = Polynomial(2, {(1, 0): 1e-200, (0, 1): -1e-200, (0, 0): 1.0, (2, 1): 3.0})
    cancel = Polynomial(2, {(0, 0): -1.0, (2, 1): -3.0})

    def clean(p):
        assert 0.0 not in p.terms.values(), p.terms
        return p

    # underflow: a product of nonzero coefficients that rounds to 0.0
    line = Polynomial(1, {(1,): 1e-200})
    for under in (line * 1e-200, 1e-200 * line, line * Polynomial.constant(1, 1e-200)):
        assert clean(under) == Polynomial.zero(1) and under.degree == 0
    clean(tiny * 1e-200)
    clean(tiny * tiny)
    clean(tiny**3)
    # exact cancellation
    assert clean(tiny + cancel).terms == {(1, 0): 1e-200, (0, 1): -1e-200}
    clean(tiny - tiny)
    clean(-tiny)
    clean(tiny * (x(0) - x(0)))
    clean(Polynomial(2, [((0, 0), 1.0), ((0, 0), -1.0), ((1, 0), 0.0), ((0, 1), -0.0)]))
    clean(tiny.partial(0))
    clean(tiny.embed([2, 0], 3))
    clean(tiny.cleanup(1e-300))
    clean(tiny.cleanup(0.0))
    # (x + 1)^2 at x -> x - 1 is x^2: the x and constant terms cancel exactly
    square = Polynomial(1, {(2,): 1.0, (1,): 2.0, (0,): 1.0})
    assert clean(square.compose_affine([-1.0], [1.0])) == Polynomial(1, {(2,): 1.0})
    clean(tiny.compose_affine([0.0, 0.0], [1e-200, 1e-200]))
    # 0 * p is the zero polynomial, even where p has an infinite coefficient
    huge = Polynomial(1, {(1,): np.inf, (0,): 1.0})
    assert 0 * huge == Polynomial.zero(1) and huge * 0.0 == Polynomial.zero(1)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 5)
    p = Polynomial.variable(2, 0)
    with pytest.raises(ValueError, match=r"point has shape \(3,\), expected \(2,\)"):
        p([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"points must have shape \(N, 2\)"):
        p.eval_many(np.zeros((4, 3)))


def test_call_returns_float():
    assert Polynomial.zero(2)((0.5, 0.5)) == 0.0
    value = Polynomial.constant(0, 2.5)(np.zeros(0))
    assert type(value) is float and value == 2.5
    assert type(Polynomial.variable(1, 0)((3.0,))) is float
