import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effapprox import problem
from effapprox.poly import Polynomial
from effapprox.problem import (
    AssumptionError,
    ProblemFormatError,
    ProblemSpec,
    check_assumptions,
    from_dict,
    load,
    loads,
    omega_generators,
    rescale,
)

DISK = {
    "n": 2,
    "objectives": [
        {"p": [[1.0, [1, 0]]]},
        {"p": [[1.0, [0, 1]]]},
        {"p": [[1.0, [2, 0]], [1.0, [0, 2]]]},
    ],
    "constraints": [[[1.0, [0, 0]], [-1.0, [2, 0]], [-1.0, [0, 2]]]],
    "box": [[-1.0, 1.0], [-1.0, 1.0]],
}


def test_load_disk_problem(problems):
    spec, scaled, amap = problems["disk"]
    assert spec.n == 2
    assert spec.m == 3
    assert len(spec.constraints) == 1
    assert spec.is_unit_box()
    assert amap.center == (0.0, 0.0) and amap.halfwidth == (1.0, 1.0)


def test_missing_q_defaults_to_one():
    spec = from_dict(DISK)
    for _, q in spec.objectives:
        assert q.terms[(0, 0)] == 1.0
        assert q.degree == 0


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(extra=1), "unknown fields"),
        (lambda d: d.update(n="2"), "'n'"),
        (lambda d: d.update(objectives=[]), "'objectives'"),
        (lambda d: d.update(objectives=[{"r": []}]), "objective 0"),
        (
            lambda d: d.update(objectives=[{"p": [[1.0, [1]]]}]),
            "length 1",
        ),
        (
            lambda d: d.update(objectives=[{"p": [["a", [1, 0]]]}]),
            "coefficient",
        ),
        (
            lambda d: d.update(objectives=[{"p": [[1.0, [1, -1]]]}]),
            "nonnegative",
        ),
        (lambda d: d.update(box=[[-1, 1]]), "box"),
        (lambda d: d.update(box=[[-1, 1], [2, 2]]), "lo < hi"),
        (lambda d: d.update(box=[[-1, 1], ["a", 1]]), "box entry 1"),
        (
            lambda d: d.update(objectives=[{"p": [[float("nan"), [1, 0]]]}]),
            "finite",
        ),
        (lambda d: d.update(box=[[-1, 1], [-1, float("inf")]]), "expected finite [lo"),
    ],
)
def test_malformed_input_rejected(mutate, fragment):
    data = json.loads(json.dumps(DISK))
    mutate(data)
    with pytest.raises(ProblemFormatError) as excinfo:
        from_dict(data)
    assert fragment in str(excinfo.value)


def test_invalid_json_text():
    with pytest.raises(ProblemFormatError):
        loads("{not json")


def test_constraints_may_be_empty():
    data = json.loads(json.dumps(DISK))
    data["constraints"] = []
    spec = from_dict(data)
    assert spec.constraints == []
    mask = spec.feasibility_mask(np.array([[0.0, 0.0], [5.0, 5.0]]))
    # with no constraints every point is feasible; the box is separate
    assert mask.tolist() == [True, True]


def test_feasibility_mask_and_objective_values():
    spec = from_dict(DISK)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.6, 0.0]])
    assert spec.feasibility_mask(pts).tolist() == [True, False, True]
    vals = spec.objective_values(pts)
    assert vals.shape == (3, 3)
    assert abs(vals[2, 2] - 0.36) <= 1e-15


def test_check_assumptions_pass_and_failures():
    check_assumptions(from_dict(DISK))

    empty = json.loads(json.dumps(DISK))
    empty["constraints"] = [[[-1.0, [0, 0]]]]  # -1 >= 0 never holds
    with pytest.raises(AssumptionError, match="no feasible point"):
        check_assumptions(from_dict(empty))

    bad_q = json.loads(json.dumps(DISK))
    bad_q["objectives"][0]["q"] = [[1.0, [1, 0]]]  # x1 vanishes inside the disk
    with pytest.raises(AssumptionError, match="objective 1"):
        check_assumptions(from_dict(bad_q))


def test_check_assumptions_in_pieces(monkeypatch):
    # pieces of 7 lattice points give the verdict and the message of one piece
    empty = json.loads(json.dumps(DISK))
    empty["constraints"] = [[[-1.0, [0, 0]]]]
    bad_q = json.loads(json.dumps(DISK))
    bad_q["objectives"][0]["q"] = [[1.0, [1, 0]]]
    tie_q = json.loads(json.dumps(DISK))
    tie_q["objectives"][2]["q"] = [[1.0, [2, 0]]]  # 0 on all of x1 = 0

    def outcome(data):
        try:
            check_assumptions(from_dict(data))
        except AssumptionError as exc:
            return str(exc)

    cases = [DISK, empty, bad_q, tie_q]
    whole = [outcome(data) for data in cases]
    assert problem.SCREEN_GRID**2 <= problem.SCREEN_PIECE  # one piece
    assert whole[0] is None and "no feasible point" in whole[1]
    assert "objective 1" in whole[2] and "near [0.0, -1.0]" in whole[3]
    monkeypatch.setattr(problem, "SCREEN_PIECE", 7)
    assert [outcome(data) for data in cases] == whole


def test_check_assumptions_capped_lattice(monkeypatch):
    # 51^5 = 345M points would take minutes; the screen uses 16^5 = 2^20
    def ball(n, radius_sq):
        one = [[radius_sq, [0] * n]]
        squares = [[-1.0, [2 * (i == j) for i in range(n)]] for j in range(n)]
        objectives = [{"p": [[1.0, [int(i == j) for i in range(n)]]]} for j in range(n)]
        return from_dict({"n": n, "objectives": objectives, "constraints": [one + squares],
                          "box": [[-1.0, 1.0]] * n})

    screened = []
    real_mask = ProblemSpec.feasibility_mask
    monkeypatch.setattr(ProblemSpec, "feasibility_mask",
                        lambda self, pts: screened.append(len(pts)) or real_mask(self, pts))
    check_assumptions(ball(5, 1.0))
    assert sum(screened) == 16**5 == problem.MAX_LATTICE
    for n, r in [(3, 51), (4, 32), (5, 16)]:
        with pytest.raises(AssumptionError, match=rf"on a {r}\^{n} grid"):
            check_assumptions(ball(n, -1.0))


@st.composite
def boxed_specs(draw):
    n = draw(st.integers(1, 3))
    box = [(lo, lo + w) for lo, w in draw(st.lists(
        st.tuples(st.floats(-5, 5), st.floats(0.1, 10)), min_size=n, max_size=n))]
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.floats(-5, 5, allow_subnormal=False)
    polys = st.dictionaries(exps, coeff, min_size=1, max_size=6).map(
        lambda terms: Polynomial(n, terms))
    objectives = draw(st.lists(st.tuples(polys, polys), min_size=1, max_size=3))
    constraints = draw(st.lists(polys, max_size=2))
    return ProblemSpec(n=n, objectives=objectives, constraints=constraints, box=box)


@settings(deadline=None, max_examples=60)
@given(spec=boxed_specs(), seed=st.integers(0, 2**32 - 1))
def test_rescale_round_trip_property(spec, seed):
    scaled, amap = rescale(spec)
    assert scaled.is_unit_box()
    lo, hi = np.array(spec.box).T
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(20, spec.n))
    inside = (pts - np.asarray(amap.center)) / np.asarray(amap.halfwidth)
    np.testing.assert_allclose(amap.to_original(inside), pts, rtol=1e-13, atol=1e-13)
    originals = [f for pair in spec.objectives for f in pair] + spec.constraints
    rescaled = [f for pair in scaled.objectives for f in pair] + scaled.constraints
    for f, fs in zip(originals, rescaled):
        # the expanded form sums terms up to sum |c_a| (|center| + |h x|)^a
        size = Polynomial(spec.n, {a: abs(c) for a, c in f.terms.items()})
        reach = np.abs(amap.center) + np.abs(np.asarray(amap.halfwidth) * inside)
        tol = 1e-12 * (1.0 + size.eval_many(reach))
        assert np.all(np.abs(fs.eval_many(inside) - f.eval_many(pts)) <= tol)


def test_rescale_shifted_box():
    data = json.loads(json.dumps(DISK))
    data["box"] = [[0.0, 2.0], [0.0, 2.0]]
    spec = from_dict(data)
    scaled, amap = rescale(spec)
    assert scaled.is_unit_box()
    assert amap.center == (1.0, 1.0)
    assert amap.halfwidth == (1.0, 1.0)
    assert amap.volume_factor == 1.0
    # degree is preserved and values agree through the map
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(25, 2))
    orig = amap.to_original(pts)
    for (p, q), (ps, qs) in zip(spec.objectives, scaled.objectives):
        assert ps.degree == p.degree
        np.testing.assert_allclose(ps.eval_many(pts), p.eval_many(orig), atol=1e-13)


def test_rescale_round_trip_precision():
    data = json.loads(json.dumps(DISK))
    data["box"] = [[-0.5, 3.0], [2.0, 11.0]]
    spec = from_dict(data)
    _, amap = rescale(spec)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(50, 2))
    back = (amap.to_original(pts) - np.asarray(amap.center)) / np.asarray(amap.halfwidth)
    assert np.max(np.abs(back - pts)) <= 1e-14
    assert amap.volume_factor == pytest.approx(1.75 * 4.5)


def test_omega_generators_labels_and_values():
    spec = from_dict(DISK)
    gens = omega_generators(spec)
    assert [label for label, _ in gens.generators] == ["g1", "box1", "box2"]
    for _, g in gens.generators:
        assert g((0.0, 0.0)) >= 0.99  # all active constraints hold at the origin
    shifted = json.loads(json.dumps(DISK))
    shifted["box"] = [[0.0, 2.0], [-1.0, 1.0]]
    with pytest.raises(ValueError):
        omega_generators(from_dict(shifted))


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "nope.json")
